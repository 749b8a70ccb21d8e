"""Full model assembly: parameters, forward pass, losses, ablation variants.

Parameter tensors live in one name -> tensor registry, an ``ad.Store``, so
the optimizer, the regularizer and the checkpoint format all see one
consistent view. The store lays the tensors out in one value vector and one
gradient vector in sorted-name order, the checkpoint's order, and its leaf
``params.flat`` is what the regularizer, the gradient reset, Adam and the
checkpoint writer each treat as one vector.

Ablation flags decide which parameters exist, here in ``_init_values``; past
that, a component is off because its parameters are missing, which the
submodules read as a None field. Only ``pos`` (in ``forward``) and ``highh``
(``Config.effective_layers``) are read as flags after construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from . import encoder, solidity, transformer
from .config import Config
from .data import NormalizedAdjacency
from .rng import STREAM_INIT, spawn_rng


SIDES = ("user", "item")  # every per-side loop runs user first


def _compact(*indices):
    """The sorted distinct values of the index arrays ``indices`` and, per
    array, the position of each entry among them."""
    rows, inverse = np.unique(np.concatenate(indices), return_inverse=True)
    return rows, np.split(inverse, np.cumsum([len(a) for a in indices[:-1]]))


class Model:
    """Parameter owner and forward/loss builder for one dataset shape."""

    def __init__(self, cfg: Config, num_users: int, num_items: int):
        cfg.validate()
        self.cfg = cfg
        self.num_users = num_users
        self.num_items = num_items
        self.ablations = cfg.ablations
        self.params = ad.Store(self._init_values())
        # views over the registry: loading copies values into its tensors in
        # place, so these stay current; a name the ablations drop reads None
        get = self.params.get
        self.hyper = {side: transformer.HyperSideParams(
            z=get(f"{side}.hyper.Z"), k_map=get(f"{side}.hyper.K"),
            v_map=get(f"{side}.hyper.V"), h1=get(f"{side}.hyper.H1"),
            h2=get(f"{side}.hyper.H2"), heads=cfg.heads,
            incidence=get(f"{side}.hyper.incidence")) for side in SIDES}
        self.meta = {side: solidity.MetaNetParams(
            v1=get(f"{side}.meta.V1"), w0=get(f"{side}.meta.W0"),
            v2=get(f"{side}.meta.V2"), b0=get(f"{side}.meta.b0"))
            for side in SIDES}
        self.head = solidity.SolidityHead(d_vec=get("sal.d"), t=get("sal.T"),
                                          c=get("sal.c"))

    # -- parameter construction ------------------------------------------

    def _init_values(self) -> dict:
        """Initial values by parameter name, drawn in a fixed order."""
        cfg = self.cfg
        rng = spawn_rng(cfg.seed, STREAM_INIT)
        d, k = cfg.d, cfg.hyperedges
        values = {}

        def normal(shape, scale):
            return rng.normal(0.0, scale, size=shape)

        # weights are drawn as the paper's W, applied as W @ e, and stored
        # as the right factors the forward multiplies rows by
        values["user.embed"] = normal((self.num_users, d), cfg.init_scale)
        values["item.embed"] = normal((self.num_items, d), cfg.init_scale)

        if "hyper" in self.ablations:
            return values

        map_scale = 1.0 / np.sqrt(d)
        mix_scale = 1.0 / np.sqrt(k)
        for side, n_nodes in zip(SIDES, (self.num_users, self.num_items)):
            base = f"{side}.hyper."
            if "trans" in self.ablations:
                values[base + "incidence"] = normal((k, n_nodes),
                                                    cfg.init_scale)
            else:
                values[base + "Z"] = normal((k, d), cfg.init_scale)
                values[base + "K"] = normal((d, d), map_scale).T
                values[base + "V"] = normal((d, d), map_scale).T
            values[base + "H1"] = normal((k, k), mix_scale)
            if "deeph" not in self.ablations:
                values[base + "H2"] = normal((k, k), mix_scale)

        if "sal" in self.ablations:
            return values
        for side in SIDES:
            base = f"{side}.meta."
            if "meta" not in self.ablations:
                v1 = normal((d * d, d), 1.0 / d).reshape(d, d, d)
                values[base + "V1"] = v1.transpose(1, 0, 2).reshape(-1, d)
                values[base + "V2"] = normal((d, d), map_scale)
            values[base + "W0"] = normal((d, d), map_scale).T
            values[base + "b0"] = np.zeros((1, d))
        values["sal.d"] = normal((d, 1), map_scale)
        values["sal.T"] = normal((d, 2 * d), 1.0 / np.sqrt(2 * d)).T
        values["sal.c"] = np.zeros((1, d))
        return values

    @property
    def supports_solidity(self) -> bool:
        return "sal.d" in self.params

    # -- forward ----------------------------------------------------------

    def _dropout_fn(self, rng):
        rate = self.cfg.dropout
        if rate == 0.0 or rng is None:
            return None

        dtype = ad.default_dtype()
        kept = float(dtype(1.0) / dtype(1.0 - rate))

        def mask(shape):
            return kept, rng.random(shape) >= rate

        return mask

    def forward(self, adj: NormalizedAdjacency, dropout_rng=None) -> dict:
        """Record the whole-graph part of a forward pass: one
        ``transformer.Tail`` per side, with dropout drawn from
        ``dropout_rng`` when one is given."""
        cfg = self.cfg
        embed = [self.params[f"{side}.embed"] for side in SIDES]
        if "pos" in self.ablations:
            fused = embed
        else:
            fused = encoder.fuse_inputs(
                *embed, *encoder.topo_embed(*embed, adj))
        drop = self._dropout_fn(dropout_rng)
        return {side: transformer.forward(f, self.hyper[side],
                                          cfg.effective_layers, cfg.slope,
                                          dropout_mask=drop)
                for side, f in zip(SIDES, fused)}

    # -- losses -----------------------------------------------------------

    def main_loss(self, state: dict, batch) -> ad.Tensor:
        """Pairwise margin: sum of max(0, 1 - (positive - negative)).

        Final embeddings are read out only for the distinct users and items
        of the batch; pair scores gather from those rows.
        """
        users, (u1, u2) = _compact(batch.u1, batch.u2)
        items, (v1, v2) = _compact(batch.v1, batch.v2)
        final_user = transformer.readout(state["user"], users)
        final_item = transformer.readout(state["item"], items)
        pos = ad.dot_pairs(final_user, final_item, u1, v1)
        neg = ad.dot_pairs(final_user, final_item, u2, v2)
        return solidity.margin_loss(ad.sub(pos, neg))

    def _gamma_rows(self, state: dict, users, items):
        """Adapted keys of the nodes ``users`` and ``items``, one table per
        side, each row mapped and transformed once."""
        out = []
        for side, rows in zip(SIDES, (users, items)):
            tail, k_map = state[side], self.hyper[side].k_map
            keys = ad.gather_rows(tail.fused, rows)
            if k_map is not None:
                keys = ad.matmul(keys, k_map)
            out.append(solidity.meta_transform(
                keys, tail.edges, self.meta[side], self.cfg.slope))
        return out

    def _labels(self, gammas, users, items) -> ad.Tensor:
        """Solidity labels of (user, item) pairs, given as row positions in
        the adapted key tables ``gammas`` = (user table, item table)."""
        gamma_user, gamma_item = gammas
        return solidity.solidity_label(
            ad.gather_rows(gamma_user, users), ad.gather_rows(gamma_item, items),
            self.head, self.cfg.slope)

    def sal_loss(self, state: dict, batch) -> ad.Tensor:
        """Solidity-ranking loss over pairs of observed edges, scored on the
        fused embeddings. Labels adapt only the distinct key rows of the
        batch's users and items."""
        if not self.supports_solidity:
            raise RuntimeError("solidity branch disabled by ablation")
        user, item = state["user"].fused, state["item"].fused
        pred_1 = ad.dot_pairs(user, item, batch.u1, batch.v1)
        pred_2 = ad.dot_pairs(user, item, batch.u2, batch.v2)
        users, (u1, u2) = _compact(batch.u1, batch.u2)
        items, (v1, v2) = _compact(batch.v1, batch.v2)
        gammas = self._gamma_rows(state, users, items)
        label_1 = self._labels(gammas, u1, v1)
        label_2 = self._labels(gammas, u2, v2)
        return solidity.sa_loss(pred_1, pred_2, label_1, label_2)

    def reg_loss(self) -> ad.Tensor:
        """Squared Frobenius norm summed over every parameter, as one tape
        node over the packed vector."""
        return ad.sum_squares(self.params.flat)

    def total_loss(self, state: dict, main_batch,
                   sal_batch=None, parts: Optional[dict] = None) -> ad.Tensor:
        main = self.main_loss(state, main_batch)
        loss = main
        sal = None
        if self.supports_solidity and sal_batch is not None:
            sal = self.sal_loss(state, sal_batch)
            loss = ad.add(loss, ad.scale(sal, self.cfg.lambda1))
        reg = self.reg_loss()
        loss = ad.add(loss, ad.scale(reg, self.cfg.lambda2))
        if parts is not None:
            parts["main"] = float(main.value.item())
            parts["sal"] = float(sal.value.item()) if sal is not None else 0.0
            parts["reg"] = float(reg.value.item())
        return loss

    # -- inference helpers (no tape) --------------------------------------

    def embedding_tables(self, adj) -> tuple:
        """Prediction embeddings as plain arrays, recording disabled."""
        with ad.recording(False):
            state = self.forward(adj)
            user, item = (transformer.readout(t, np.arange(t.fused.rows))
                          for t in state.values())
        return user.value, item.value

    def solidity_of_edges(self, adj, edges: np.ndarray) -> np.ndarray:
        """Label-branch scores for given (user, item) rows, tape-free."""
        if not self.supports_solidity:
            raise RuntimeError("solidity branch disabled by ablation")
        with ad.recording(False):
            state = self.forward(adj)
            users, (u,) = _compact(edges[:, 0])
            items, (v,) = _compact(edges[:, 1])
            s = self._labels(self._gamma_rows(state, users, items), u, v)
        return s.value[:, 0].copy()
