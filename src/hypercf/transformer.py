"""Hypergraph transformer: linear multi-head attention between nodes and
learnable hyperedges, hierarchical hyperedge mixing, and stacked propagation.

Attention is dot-product without softmax, so its products regroup as in
linear attention, and keys and values are linear in the N x d node table X.
Per head h the node-to-hyperedge key-value summary k_hᵀ v_h equals
(Kᵀ)_hᵀ (XᵀX) (Vᵀ)_h, which needs only the d x d Gram matrix XᵀX; and a
hyperedge-to-node output row is x_n Kᵀ S for one d x d summary S, so a
layer's output is X M for the d x d map M = Kᵀ S. No layer forms an N x d
key or value table: a layer's node-sized products are its Gram matrix and
X M.

The stack is split in two. :func:`forward` needs the whole graph: it runs
every layer but the last in full, and the last only up to its map M.
:func:`readout` then forms final embeddings for just the rows a caller asks
for, the gathered rows of the last layer's input times M.

Both directions record one ``autodiff.linear_attention`` node per call, on
d x d and K x d operands, and ``_attend_factorized`` runs that primitive's
numpy forward, so the attention benchmark times the kernel training runs
against a naive per-head kernel that lives alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad


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
    heads: int
    incidence: Optional[ad.Tensor] = None  # K x N, transformer ablation only


def transposed_maps(p: HyperSideParams):
    """``(Kᵀ, Vᵀ)``, the key and value transforms as right factors; None
    in the transformer ablation. A forward pass forms them once and shares
    them between its layers and the label branch."""
    if p.incidence is not None:
        return None
    return ad.transpose(p.k_map), ad.transpose(p.v_map)


def node_to_hyperedge(nodes: ad.Tensor, p: HyperSideParams,
                      maps: Optional[tuple]) -> ad.Tensor:
    """Aggregate node content into the K x d hyperedge features.

    Per head, each hyperedge query (a slice of its embedding) is applied to
    the key-value summary accumulated over all nodes, formed from the Gram
    matrix of ``nodes`` and ``maps`` = :func:`transposed_maps`. In the
    transformer ablation the K x N incidence takes the attention's place.
    """
    if p.incidence is not None:
        if p.incidence.cols != nodes.rows:
            raise ad.ShapeMismatchError(
                f"node_to_hyperedge: incidence {p.incidence.shape} vs "
                f"nodes {nodes.value.shape}")
        return ad.matmul(p.incidence, nodes)
    if p.k_map.rows != nodes.cols:
        raise ad.ShapeMismatchError(
            f"node_to_hyperedge: key map {p.k_map.shape} vs nodes {nodes.value.shape}")
    key_map, val_map = maps
    return ad.linear_attention(p.z, key_map,
                               ad.matmul(ad.gram(nodes), val_map), p.heads)


def hhgn(z_tilde: ad.Tensor, p: HyperSideParams, slope: float) -> ad.Tensor:
    """Hierarchical mixing: sigma(H X + X), applied twice (once in the
    single-step ablation mode)."""
    step1 = ad.leaky_relu(ad.add(ad.matmul(p.h1, z_tilde), z_tilde), slope)
    if p.h2 is None:
        return step1
    return ad.leaky_relu(ad.add(ad.matmul(p.h2, step1), step1), slope)


def hyperedge_to_node(z_hat: ad.Tensor, p: HyperSideParams,
                      maps: Optional[tuple]) -> ad.Tensor:
    """The map M that propagates hyperedge features back to nodes: a
    layer's output is its input times M.

    Roles swap relative to the forward direction: the node keys become
    queries, the hyperedge embedding slices become keys, and values are the
    value-transformed hyperedge features. Keys are the input times Kᵀ, so
    M is the attention with Kᵀ's d rows as queries. In the transformer
    ablation M is ``z_hat`` itself, applied to the N x K incidenceᵀ.
    """
    if p.incidence is not None:
        return z_hat
    key_map, val_map = maps
    return ad.linear_attention(key_map, p.z, ad.matmul(z_hat, val_map),
                               p.heads)


@dataclass
class Tail:
    """What a forward pass leaves for :func:`readout`.

    Layers 1..L-1 are complete in ``partial``; the last layer stops at its
    map ``m``. Its output row n is row n of ``source`` times ``m``, so any
    subset of final rows can be read out without the rest.
    """

    partial: Optional[ad.Tensor]   # N x d sum of layers 1..L-1 (None: L = 1)
    source: ad.Tensor              # N x d last-layer input (N x K
                                   # incidenceᵀ in the transformer ablation)
    m: ad.Tensor                   # d x d last-layer map (K x d z_hat in
                                   # the transformer ablation)
    mask: Optional[tuple]          # last-layer dropout (scale, N x d keep)
    key_map: Optional[ad.Tensor]   # Kᵀ (None in the transformer ablation)
    first_edges: ad.Tensor         # K x d first-layer hyperedge features


def forward(nodes0: ad.Tensor, p: HyperSideParams, num_layers: int,
            slope: float, dropout_mask=None) -> Tail:
    """Run the whole-graph part of ``num_layers`` stacked propagations.

    One HyperSideParams is shared by every layer (the recursive formulation
    ties the layers' weights). The summed output excludes the layer-0 input.
    ``dropout_mask(shape)`` may return an inverted-dropout mask during
    training, ``(scale, keep)`` with ``keep`` a bool array of ``shape``,
    that ``ad.scale`` applies to each layer output; the last layer's mask is
    drawn here too, so the rng advances by the full N x d draws whichever
    rows are read out. Returns the :class:`Tail` that :func:`readout` turns
    into final embeddings.
    """
    if num_layers < 1:
        raise ValueError(f"need at least one layer, got {num_layers}")
    maps = transposed_maps(p)
    key_map = None if maps is None else maps[0]
    incidence_t = ad.transpose(p.incidence) if maps is None else None
    current = nodes0
    partial = None
    first_edges = None
    for step in range(num_layers):
        z_tilde = node_to_hyperedge(current, p, maps)
        z_hat = hhgn(z_tilde, p, slope)
        if first_edges is None:
            first_edges = z_tilde
        mask = (None if dropout_mask is None
                else dropout_mask(current.value.shape))
        source = current if incidence_t is None else incidence_t
        m = hyperedge_to_node(z_hat, p, maps)
        if step == num_layers - 1:
            return Tail(partial, source, m, mask, key_map, first_edges)
        out = ad.matmul(source, m)
        if mask is not None:
            out = ad.scale(out, *mask)
        partial = out if partial is None else ad.add(partial, out)
        current = out


def readout(tail: Tail, rows) -> ad.Tensor:
    """Final embeddings of the nodes ``rows``, the sum of their layer
    outputs: the last layer's output for those rows, masked, plus their
    partial sum.

    The last layer maps the gathered source rows only, so a loss that reads
    r rows pays for r rows.
    """
    out = ad.matmul(ad.gather_rows(tail.source, rows), tail.m)
    if tail.mask is not None:
        kept, keep = tail.mask
        out = ad.scale(out, kept, keep[rows])
    if tail.partial is not None:
        out = ad.add(ad.gather_rows(tail.partial, rows), out)
    return out


# ---------------------------------------------------------------------------
# Naive reference kernel (benchmark baseline)
# ---------------------------------------------------------------------------

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
