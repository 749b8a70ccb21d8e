"""Hypergraph transformer: linear multi-head attention between nodes and
learnable hyperedges, hierarchical hyperedge mixing, and stacked propagation.

Attention is dot-product without softmax, which permits the factorized
evaluation order of linear attention: each head's (d/H)x(d/H) key-value
product is accumulated over nodes first, then applied to each query. Both
directions (nodes to hyperedges and back) record one
``autodiff.linear_attention`` node per call, and ``_attend_factorized`` runs
that primitive's numpy forward, so the attention benchmark times the kernel
training runs. Naive reference kernels used by tests and the benchmark live
alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad

DEFAULT_SLOPE = 0.5


def head_slices(d: int, heads: int):
    """Column ranges [(h-1)*d/H, h*d/H) covering each attention head."""
    if d % heads != 0:
        raise ValueError(f"embedding width {d} not divisible by {heads} heads")
    step = d // heads
    return [(h * step, (h + 1) * step) for h in range(heads)]


@dataclass
class HyperSideParams:
    """Per-side transformer parameters (user and item sides are independent).

    ``incidence`` replaces attention with a free K x N connection matrix when
    the transformer ablation is active; ``z``, ``k_map`` and ``v_map`` are
    unused in that mode.
    """

    z: Optional[ad.Tensor]        # K x d hyperedge embedding table
    k_map: Optional[ad.Tensor]    # d x d key transform (applied as W @ e)
    v_map: Optional[ad.Tensor]    # d x d value transform
    h1: ad.Tensor                 # K x K hierarchical mixing, first step
    h2: Optional[ad.Tensor]       # K x K second step (None: single-step mode)
    heads: int = 4
    incidence: Optional[ad.Tensor] = None  # K x N, transformer ablation only

    @property
    def num_hyperedges(self) -> int:
        return self.incidence.rows if self.incidence is not None else self.z.rows


def apply_map(x: ad.Tensor, w: ad.Tensor) -> ad.Tensor:
    """Row-wise linear map: output row i is w @ x_i."""
    return ad.matmul(x, ad.transpose(w))


def node_to_hyperedge(nodes: ad.Tensor, p: HyperSideParams):
    """Aggregate node content into hyperedge features.

    Per head, each hyperedge query (a slice of its embedding) is applied to
    the key-value summary accumulated over all nodes. Returns the K x d
    hyperedge features and the N x d key matrix (reused by the reverse pass
    and by the self-augmentation module).
    """
    if p.incidence is not None:
        if p.incidence.cols != nodes.rows:
            raise ad.ShapeMismatchError(
                f"node_to_hyperedge: incidence {p.incidence.shape} vs "
                f"nodes {nodes.value.shape}")
        return ad.matmul(p.incidence, nodes), nodes
    if p.k_map.rows != nodes.cols:
        raise ad.ShapeMismatchError(
            f"node_to_hyperedge: key map {p.k_map.shape} vs nodes {nodes.value.shape}")
    keys = apply_map(nodes, p.k_map)
    vals = apply_map(nodes, p.v_map)
    return ad.linear_attention(p.z, keys, vals, p.heads), keys


def hhgn(z_tilde: ad.Tensor, p: HyperSideParams,
         slope: float = DEFAULT_SLOPE) -> ad.Tensor:
    """Hierarchical mixing: sigma(H X + X), applied twice (once in the
    single-step ablation mode)."""
    step1 = ad.leaky_relu(ad.add(ad.matmul(p.h1, z_tilde), z_tilde), slope)
    if p.h2 is None:
        return step1
    return ad.leaky_relu(ad.add(ad.matmul(p.h2, step1), step1), slope)


def hyperedge_to_node(z_hat: ad.Tensor, keys: ad.Tensor,
                      p: HyperSideParams) -> ad.Tensor:
    """Propagate hyperedge features back to nodes.

    Roles swap relative to the forward direction: the node keys become
    queries, the hyperedge embedding slices become keys, and values are the
    value-transformed hyperedge features.
    """
    if p.incidence is not None:
        return ad.matmul(ad.transpose(p.incidence), z_hat)
    vals = apply_map(z_hat, p.v_map)
    return ad.linear_attention(keys, p.z, vals, p.heads)


def forward(nodes0: ad.Tensor, p: HyperSideParams, num_layers: int,
            slope: float = DEFAULT_SLOPE, dropout_mask=None):
    """Stack ``num_layers`` propagations and sum their outputs.

    One HyperSideParams is shared by every layer (the recursive formulation
    ties the layers' weights). The layer-0 input itself is excluded from the
    sum. ``dropout_mask(shape)`` may return a premultiplied inverted-dropout
    mask array (or None), a constant that scales each layer output during
    training. Returns (summed embeddings, first-layer keys, first-layer
    hyperedge features).
    """
    if num_layers < 1:
        raise ValueError(f"need at least one layer, got {num_layers}")
    current = nodes0
    total = None
    first_keys = None
    first_edges = None
    for step in range(num_layers):
        z_tilde, keys = node_to_hyperedge(current, p)
        z_hat = hhgn(z_tilde, p, slope)
        out = hyperedge_to_node(z_hat, keys, p)
        if dropout_mask is not None:
            mask = dropout_mask(out.value.shape)
            if mask is not None:
                out = ad.scale(out, mask)
        if step == 0:
            first_keys, first_edges = keys, z_tilde
        total = out if total is None else ad.add(total, out)
        current = out
    return total, first_keys, first_edges


def predict_scores(user_vecs: ad.Tensor, item_vecs: ad.Tensor) -> ad.Tensor:
    """Edge scores as row-wise dot products of aligned user/item matrices."""
    return ad.dot_rows(user_vecs, item_vecs)


# ---------------------------------------------------------------------------
# Naive reference kernels (oracles and benchmark baselines)
# ---------------------------------------------------------------------------

def node_to_hyperedge_loops(nodes, z, k_map, v_map, heads):
    """Per-(hyperedge, node) double loop, the definitional oracle."""
    n, d = nodes.shape
    num_k = z.shape[0]
    keys = nodes @ k_map.T
    vals = nodes @ v_map.T
    out = np.zeros((num_k, d))
    for lo, hi in head_slices(d, heads):
        for k in range(num_k):
            q = z[k, lo:hi]
            for i in range(n):
                out[k, lo:hi] += vals[i, lo:hi] * float(keys[i, lo:hi] @ q)
    return out


def hyperedge_to_node_loops(z_hat, keys, z, v_map, heads):
    n, d = keys.shape
    num_k = z_hat.shape[0]
    vals = z_hat @ v_map.T
    out = np.zeros((n, d))
    for lo, hi in head_slices(d, heads):
        for i in range(n):
            q = keys[i, lo:hi]
            for k in range(num_k):
                out[i, lo:hi] += vals[k, lo:hi] * float(z[k, lo:hi] @ q)
    return out


def _attend_naive(queries, keys, vals, heads):
    """Materialize the full query-key score matrix per head (numpy-vectorized
    but asymptotically K*N*d, the pre-factorization cost)."""
    d = queries.shape[1]
    out = np.zeros((queries.shape[0], d), dtype=queries.dtype)
    for lo, hi in head_slices(d, heads):
        scores = queries[:, lo:hi] @ keys[:, lo:hi].T
        out[:, lo:hi] = scores @ vals[:, lo:hi]
    return out


def _attend_factorized(queries, keys, vals, heads):
    """The forward of ``autodiff.linear_attention``, the kernel training runs."""
    return ad.linear_attention_value(queries, keys, vals, heads)[0]


def bench_factorization(num_nodes: int, num_hyperedges: int, d: int, heads: int,
                        repeats: int = 3, seed: int = 0,
                        check_rows: int = 4) -> dict:
    """Time the naive and factorized attention aggregation on random inputs.

    Transforms are applied once outside the timed region: the aggregation
    order is the thing being compared. A subsample of output rows is checked
    for agreement. Returns a report dict (one CSV row of the benchmark).
    """
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(num_hyperedges, d)).astype(np.float32)
    keys = rng.normal(size=(num_nodes, d)).astype(np.float32)
    vals = rng.normal(size=(num_nodes, d)).astype(np.float32)

    def time_best(fn):
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            fn(queries, keys, vals, heads)
            best = min(best, time.perf_counter() - start)
        return best

    naive_s = time_best(_attend_naive)
    fact_s = time_best(_attend_factorized)
    a = _attend_naive(queries, keys, vals, heads)[:check_rows]
    b = _attend_factorized(queries, keys, vals, heads)[:check_rows]
    return {
        "I": num_nodes,
        "K": num_hyperedges,
        "d": d,
        "H": heads,
        "naive_ms": naive_s * 1e3,
        "factorized_ms": fact_s * 1e3,
        "max_abs_diff": float(np.max(np.abs(a - b))) if check_rows else 0.0,
    }
