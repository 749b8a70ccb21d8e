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


@dataclass
class ForwardState:
    """Tensors produced by one recorded forward pass over the whole graph."""

    fused_user: ad.Tensor          # local embeddings (id + topology)
    fused_item: ad.Tensor
    final_user: ad.Tensor          # prediction embeddings
    final_item: ad.Tensor
    keys_user: Optional[ad.Tensor]     # label-branch inputs (None: no SAL)
    keys_item: Optional[ad.Tensor]
    zsrc_user: Optional[ad.Tensor]     # hyperedge summary source per side
    zsrc_item: Optional[ad.Tensor]


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
        side_nodes = {"user": self.num_users, "item": self.num_items}
        for side, n_nodes in side_nodes.items():
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
        for side in ("user", "item"):
            base = f"{side}.meta."
            if "meta" not in self.ablations:
                self._add(base + "V1", normal((d * d, d), 1.0 / d))
                self._add(base + "V2", normal((d, d), map_scale))
            self._add(base + "W0", normal((d, d), map_scale))
            self._add(base + "b0", np.zeros((1, d)))
        self._add("sal.d", normal((d, 1), map_scale))
        self._add("sal.T", normal((d, 2 * d), 1.0 / np.sqrt(2 * d)))
        self._add("sal.c", np.zeros((1, d)))

    # -- assembled views over the registry -------------------------------

    def transformer_params(self, side: str) -> transformer.HyperSideParams:
        """One side's transformer parameters, shared by every layer."""
        base = f"{side}.hyper."
        get = self.params.get
        return transformer.HyperSideParams(
            z=get(base + "Z"),
            k_map=get(base + "K"),
            v_map=get(base + "V"),
            h1=get(base + "H1"),
            h2=get(base + "H2"),
            heads=self.cfg.heads,
            incidence=get(base + "incidence"),
        )

    def meta_params(self, side: str) -> solidity.MetaNetParams:
        base = f"{side}.meta."
        get = self.params.get
        return solidity.MetaNetParams(v1=get(base + "V1"), w0=get(base + "W0"),
                                      v2=get(base + "V2"), b0=get(base + "b0"))

    def solidity_head(self) -> solidity.SolidityHead:
        return solidity.SolidityHead(d_vec=self.params["sal.d"],
                                     t=self.params["sal.T"],
                                     c=self.params["sal.c"])

    @property
    def supports_solidity(self) -> bool:
        return not (self.ablations & {"sal", "hyper"})

    # -- forward ----------------------------------------------------------

    def _dropout_fn(self, training: bool, rng):
        rate = self.cfg.dropout
        if not training or rate == 0.0 or rng is None:
            return None

        dtype = ad.default_dtype()
        kept = dtype(1.0) / dtype(1.0 - rate)

        def mask(shape):
            out = (rng.random(shape) >= rate).astype(dtype)
            out *= kept
            return out

        return mask

    def forward(self, adj: Optional[NormalizedAdjacency],
                training: bool = False, dropout_rng=None) -> ForwardState:
        cfg = self.cfg
        e_user, e_item = self.params["user.embed"], self.params["item.embed"]

        if "pos" in self.ablations or adj is None:
            fused_user, fused_item = e_user, e_item
        else:
            topo_u, topo_v = encoder.topo_embed(e_user, e_item, adj)
            fused_user, fused_item = encoder.fuse_inputs(
                e_user, e_item, topo_u, topo_v)

        if "hyper" in self.ablations:
            return ForwardState(fused_user, fused_item, fused_user, fused_item,
                                None, None, None, None)

        drop = self._dropout_fn(training, dropout_rng)
        finals, keys, zfeats = {}, {}, {}
        for side, fused in (("user", fused_user), ("item", fused_item)):
            total, first_keys, first_edges = transformer.forward(
                fused, self.transformer_params(side), cfg.effective_layers,
                cfg.slope, dropout_mask=drop)
            if cfg.include_input_in_sum:
                total = ad.add(total, fused)
            finals[side] = total
            keys[side] = first_keys
            zfeats[side] = first_edges

        if "trans" in self.ablations:
            # no key transform exists; labels read the fused embeddings and
            # summarize the computed first-layer hyperedge features instead
            key_user, key_item = fused_user, fused_item
            zsrc_user, zsrc_item = zfeats["user"], zfeats["item"]
        else:
            key_user, key_item = keys["user"], keys["item"]
            zsrc_user = self.params["user.hyper.Z"]
            zsrc_item = self.params["item.hyper.Z"]
        return ForwardState(fused_user, fused_item, finals["user"], finals["item"],
                            key_user, key_item, zsrc_user, zsrc_item)

    # -- losses -----------------------------------------------------------

    def pair_scores(self, state: ForwardState, users, items) -> ad.Tensor:
        u_rows = ad.gather_rows(state.final_user, users)
        v_rows = ad.gather_rows(state.final_item, items)
        return transformer.predict_scores(u_rows, v_rows)

    def main_loss(self, state: ForwardState, batch) -> ad.Tensor:
        """Pairwise margin: sum of max(0, 1 - (positive - negative))."""
        pos = self.pair_scores(state, batch.u1, batch.v1)
        neg = self.pair_scores(state, batch.u2, batch.v2)
        margin = ad.add_scalar(ad.scale(ad.sub(pos, neg), -1.0), 1.0)
        return ad.sum_all(ad.hinge(margin))

    def _gamma_tables(self, state: ForwardState):
        slope = self.cfg.slope
        out = []
        for side, key_table, zsrc in (("user", state.keys_user, state.zsrc_user),
                                      ("item", state.keys_item, state.zsrc_item)):
            p = self.meta_params(side)
            if "meta" in self.ablations:
                out.append(solidity.plain_transform(key_table, p, slope))
            else:
                out.append(solidity.meta_transform(key_table, zsrc, p, slope))
        return out

    def solidity_labels(self, state: ForwardState, users, items) -> ad.Tensor:
        gamma_user, gamma_item = self._gamma_tables(state)
        return solidity.solidity_label(
            ad.gather_rows(gamma_user, users), ad.gather_rows(gamma_item, items),
            self.solidity_head(), self.cfg.slope)

    def pair_scores_fused(self, state: ForwardState, users, items) -> ad.Tensor:
        """Local solidity estimates: dot products over the fused embeddings."""
        return solidity.solidity_predict(ad.gather_rows(state.fused_user, users),
                                         ad.gather_rows(state.fused_item, items))

    def sal_loss(self, state: ForwardState, batch) -> ad.Tensor:
        """Solidity-ranking loss over pairs of observed edges."""
        if not self.supports_solidity:
            raise RuntimeError("solidity branch disabled by ablation")
        pred_1 = self.pair_scores_fused(state, batch.u1, batch.v1)
        pred_2 = self.pair_scores_fused(state, batch.u2, batch.v2)
        gamma_user, gamma_item = self._gamma_tables(state)
        head = self.solidity_head()
        label_1 = solidity.solidity_label(
            ad.gather_rows(gamma_user, batch.u1),
            ad.gather_rows(gamma_item, batch.v1), head, self.cfg.slope)
        label_2 = solidity.solidity_label(
            ad.gather_rows(gamma_user, batch.u2),
            ad.gather_rows(gamma_item, batch.v2), head, self.cfg.slope)
        return solidity.sa_loss(pred_1, pred_2, label_1, label_2)

    def reg_loss(self) -> ad.Tensor:
        """Squared Frobenius norm summed over every parameter, in sorted-name
        order, as one tape node."""
        return ad.sum_squares([self.params[n] for n in sorted(self.params)])

    def total_loss(self, state: ForwardState, main_batch,
                   sal_batch=None, parts: Optional[dict] = None) -> ad.Tensor:
        main = self.main_loss(state, main_batch)
        loss = main
        lam1 = self.cfg.effective_lambda1
        sal = None
        if lam1 > 0.0 and sal_batch is not None:
            sal = self.sal_loss(state, sal_batch)
            loss = ad.add(loss, ad.scale(sal, lam1))
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
        return state.final_user.value.copy(), state.final_item.value.copy()

    def solidity_of_edges(self, adj, edges: np.ndarray) -> np.ndarray:
        """Label-branch scores for given (user, item) rows, tape-free."""
        if not self.supports_solidity:
            raise RuntimeError("solidity branch disabled by ablation")
        with ad.recording(False):
            state = self.forward(adj, training=False)
            s = self.solidity_labels(state, edges[:, 0], edges[:, 1])
        return s.value[:, 0].copy()

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.params.values())
