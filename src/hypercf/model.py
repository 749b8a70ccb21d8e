"""Full model assembly: parameters, forward pass, losses, ablation variants.

Parameter tensors live in a flat name -> tensor registry so the optimizer,
the regularizer and the checkpoint format all see one consistent view.
Ablation flags change which parameters exist and which computation paths run;
the flag semantics are resolved here, not scattered over the submodules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import encoder, solidity, transformer
from .config import Config
from .data import NormalizedAdjacency
from .rng import STREAM_INIT, spawn_rng


SIDES = ("user", "item")  # every per-side loop runs user first


@dataclass
class Side:
    """One side's whole-graph part of a recorded forward pass.

    Prediction embeddings are not tables here: ``Model.final_rows`` reads
    out the rows a loss needs from the transformer tail, and the label
    branch maps only the fused rows it scores to keys. Under the graph-only
    ablation only ``fused`` is set.
    """

    fused: ad.Tensor                           # id + topology embeddings
    tail: Optional[transformer.Tail] = None
    key_map: Optional[ad.Tensor] = None        # label-branch Kᵀ (None: the
                                               # fused rows are the keys)
    zsrc: Optional[ad.Tensor] = None           # its hyperedge summary source


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
        self.params: dict = {}
        self._init_params()
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

    def _add(self, name: str, array) -> ad.Tensor:
        t = ad.parameter(array)
        self.params[name] = t
        return t

    def _init_params(self) -> None:
        cfg = self.cfg
        rng = spawn_rng(cfg.seed, STREAM_INIT)
        d, k = cfg.d, cfg.hyperedges

        def normal(shape, scale):
            return rng.normal(0.0, scale, size=shape)

        self._add("user.embed", normal((self.num_users, d), cfg.init_scale))
        self._add("item.embed", normal((self.num_items, d), cfg.init_scale))

        if "hyper" in self.ablations:
            return

        map_scale = 1.0 / np.sqrt(d)
        mix_scale = 1.0 / np.sqrt(k)
        for side, n_nodes in zip(SIDES, (self.num_users, self.num_items)):
            base = f"{side}.hyper."
            if "trans" in self.ablations:
                self._add(base + "incidence",
                          normal((k, n_nodes), cfg.init_scale))
            else:
                self._add(base + "Z", normal((k, d), cfg.init_scale))
                self._add(base + "K", normal((d, d), map_scale))
                self._add(base + "V", normal((d, d), map_scale))
            self._add(base + "H1", normal((k, k), mix_scale))
            if "deeph" not in self.ablations:
                self._add(base + "H2", normal((k, k), mix_scale))

        if "sal" in self.ablations:
            return
        for side in SIDES:
            base = f"{side}.meta."
            if "meta" not in self.ablations:
                self._add(base + "V1", normal((d * d, d), 1.0 / d))
                self._add(base + "V2", normal((d, d), map_scale))
            self._add(base + "W0", normal((d, d), map_scale))
            self._add(base + "b0", np.zeros((1, d)))
        self._add("sal.d", normal((d, 1), map_scale))
        self._add("sal.T", normal((d, 2 * d), 1.0 / np.sqrt(2 * d)))
        self._add("sal.c", np.zeros((1, d)))

    @property
    def supports_solidity(self) -> bool:
        return not (self.ablations & {"sal", "hyper"})

    # -- forward ----------------------------------------------------------

    def _dropout_fn(self, training: bool, rng):
        rate = self.cfg.dropout
        if not training or rate == 0.0 or rng is None:
            return None

        dtype = ad.default_dtype()
        kept = float(dtype(1.0) / dtype(1.0 - rate))

        def mask(shape):
            return kept, rng.random(shape) >= rate

        return mask

    def forward(self, adj: NormalizedAdjacency,
                training: bool = False, dropout_rng=None) -> dict:
        """Record the whole-graph part of a forward pass: {side: Side}."""
        cfg = self.cfg
        embed = [self.params[f"{side}.embed"] for side in SIDES]
        if "pos" in self.ablations:
            fused = embed
        else:
            fused = encoder.fuse_inputs(
                *embed, *encoder.topo_embed(*embed, adj))
        if "hyper" in self.ablations:
            return {side: Side(f) for side, f in zip(SIDES, fused)}

        drop = self._dropout_fn(training, dropout_rng)
        state = {}
        for side, f in zip(SIDES, fused):
            p = self.hyper[side]
            tail = transformer.forward(f, p, cfg.effective_layers, cfg.slope,
                                       dropout_mask=drop)
            if "trans" in self.ablations:
                # no key transform exists; labels read the fused embeddings
                # and summarize the computed first-layer hyperedge features
                state[side] = Side(f, tail, None, tail.first_edges)
            else:
                state[side] = Side(f, tail, tail.key_map, p.z)
        return state

    def final_rows(self, state: dict, side: str, rows) -> ad.Tensor:
        """Prediction embeddings of one side's nodes ``rows``, read out of
        that side's transformer tail (the fused rows under ``hyper``)."""
        s = state[side]
        if s.tail is None:
            return ad.gather_rows(s.fused, rows)
        return transformer.readout(s.tail, rows)

    # -- losses -----------------------------------------------------------

    @staticmethod
    def dot_pairs(user_table: ad.Tensor, item_table: ad.Tensor,
                  users, items) -> ad.Tensor:
        """Scores of (user, item) pairs: row dot products of the gathered
        rows of a user table and an item table."""
        return ad.dot_rows(ad.gather_rows(user_table, users),
                           ad.gather_rows(item_table, items))

    def main_loss(self, state: dict, batch) -> ad.Tensor:
        """Pairwise margin: sum of max(0, 1 - (positive - negative)).

        Final embeddings are read out only for the distinct users and items
        of the batch; pair scores gather from those rows.
        """
        users, (u1, u2) = _compact(batch.u1, batch.u2)
        items, (v1, v2) = _compact(batch.v1, batch.v2)
        final_user = self.final_rows(state, "user", users)
        final_item = self.final_rows(state, "item", items)
        pos = self.dot_pairs(final_user, final_item, u1, v1)
        neg = self.dot_pairs(final_user, final_item, u2, v2)
        return solidity.margin_loss(ad.sub(pos, neg))

    def _gamma_rows(self, state: dict, users, items):
        """Adapted keys of the nodes ``users`` and ``items``, one table per
        side, each row mapped and transformed once."""
        slope = self.cfg.slope
        out = []
        for side, rows in zip(SIDES, (users, items)):
            s, p = state[side], self.meta[side]
            keys = ad.gather_rows(s.fused, rows)
            if s.key_map is not None:
                keys = ad.matmul(keys, s.key_map)
            if "meta" in self.ablations:
                out.append(solidity.plain_transform(keys, p, slope))
            else:
                out.append(solidity.meta_transform(keys, s.zsrc, p, slope))
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
        pred_1 = self.dot_pairs(user, item, batch.u1, batch.v1)
        pred_2 = self.dot_pairs(user, item, batch.u2, batch.v2)
        users, (u1, u2) = _compact(batch.u1, batch.u2)
        items, (v1, v2) = _compact(batch.v1, batch.v2)
        gammas = self._gamma_rows(state, users, items)
        label_1 = self._labels(gammas, u1, v1)
        label_2 = self._labels(gammas, u2, v2)
        return solidity.sa_loss(pred_1, pred_2, label_1, label_2)

    def reg_loss(self) -> ad.Tensor:
        """Squared Frobenius norm summed over every parameter, in sorted-name
        order, as one tape node."""
        return ad.sum_squares([self.params[n] for n in sorted(self.params)])

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
            state = self.forward(adj, training=False)
            user, item = (self.final_rows(state, side, np.arange(s.fused.rows))
                          for side, s in state.items())
        return user.value, item.value

    def solidity_of_edges(self, adj, edges: np.ndarray) -> np.ndarray:
        """Label-branch scores for given (user, item) rows, tape-free."""
        if not self.supports_solidity:
            raise RuntimeError("solidity branch disabled by ablation")
        with ad.recording(False):
            state = self.forward(adj, training=False)
            users, (u,) = _compact(edges[:, 0])
            items, (v,) = _compact(edges[:, 1])
            s = self._labels(self._gamma_rows(state, users, items), u, v)
        return s.value[:, 0].copy()
