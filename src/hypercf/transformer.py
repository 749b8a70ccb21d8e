"""Hypergraph transformer: linear multi-head attention between nodes and
learnable hyperedges, hierarchical hyperedge mixing, and stacked propagation.

Attention is dot-product without softmax, so its products regroup as in
linear attention, and keys X K and values X V are linear in the N x d node
table X (K and V are stored as the right factors they are applied as).
Per head h the node-to-hyperedge key-value summary k_hᵀ v_h equals
K_hᵀ (XᵀX) V_h, which needs only the d x d Gram matrix XᵀX; and a
hyperedge-to-node output row is x_n K S for one d x d summary S, so a
layer's output is X M for the d x d map M = K S. No layer forms an N x d
key or value table: a layer's node-sized products are its Gram matrix and
X M.

The stack is split in two. :func:`forward` needs the whole graph: it runs
every layer but the last in full, and the last only up to its map M.
:func:`readout` then forms final embeddings for just the rows a caller asks
for, the gathered rows of the last layer's input times M.

Both directions record one ``autodiff.linear_attention`` node per call, on
d x d and K x d operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import autodiff as ad


@dataclass
class HyperSideParams:
    """Per-side transformer parameters (user and item sides are independent).

    ``incidence`` replaces attention with a free K x N connection matrix when
    the transformer ablation is active; ``z``, ``k_map`` and ``v_map`` are
    unused in that mode.
    """

    z: Optional[ad.Tensor]        # K x d hyperedge embedding table
    k_map: Optional[ad.Tensor]    # d x d right factor: keys = x @ k_map
    v_map: Optional[ad.Tensor]    # d x d right factor: values = x @ v_map
    h1: Optional[ad.Tensor]       # K x K hierarchical mixing, first step
                                  # (None: no transformer, graph-only)
    h2: Optional[ad.Tensor]       # K x K second step (None: single-step mode)
    heads: int
    incidence: Optional[ad.Tensor] = None  # K x N, transformer ablation only


def node_to_hyperedge(nodes: ad.Tensor, p: HyperSideParams) -> ad.Tensor:
    """Aggregate node content into the K x d hyperedge features.

    Per head, each hyperedge query (a slice of its embedding) is applied to
    the key-value summary accumulated over all nodes, formed from the Gram
    matrix of ``nodes`` and the key and value maps. In the transformer
    ablation the K x N incidence takes the attention's place.
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
    return ad.linear_attention(p.z, p.k_map,
                               ad.matmul(ad.gram(nodes), p.v_map), p.heads)


def hhgn(z_tilde: ad.Tensor, p: HyperSideParams, slope: float) -> ad.Tensor:
    """Hierarchical mixing: sigma(H X + X), applied twice (once in the
    single-step ablation mode)."""
    step1 = ad.leaky_relu(ad.add(ad.matmul(p.h1, z_tilde), z_tilde), slope)
    if p.h2 is None:
        return step1
    return ad.leaky_relu(ad.add(ad.matmul(p.h2, step1), step1), slope)


def hyperedge_to_node(z_hat: ad.Tensor, p: HyperSideParams) -> ad.Tensor:
    """The map M that propagates hyperedge features back to nodes: a
    layer's output is its input times M.

    Roles swap relative to the forward direction: the node keys become
    queries, the hyperedge embedding slices become keys, and values are the
    value-transformed hyperedge features. Keys are the input times K, so
    M is the attention with K's d rows as queries. In the transformer
    ablation M is ``z_hat`` itself, applied to the N x K incidenceᵀ.
    """
    if p.incidence is not None:
        return z_hat
    return ad.linear_attention(p.k_map, p.z, ad.matmul(z_hat, p.v_map),
                               p.heads)


@dataclass
class Tail:
    """One side's recorded forward pass, what :func:`readout` reads.

    Layers 1..L-1 are complete in ``partial``; the last layer stops at its
    map ``m``. Its output row n is row n of ``source`` times ``m``, so any
    subset of final rows can be read out without the rest. In the
    transformer ablation ``source`` is the N x K incidenceᵀ, ``m`` is z_hat
    and ``edges`` holds the first layer's hyperedge features, there being
    no Z. A side without transformer parameters sets only ``fused``.
    """

    fused: ad.Tensor                      # N x d layer-0 input
    edges: Optional[ad.Tensor] = None     # K x d table the labels summarize
    partial: Optional[ad.Tensor] = None   # N x d sum of layers 1..L-1
    source: Optional[ad.Tensor] = None    # N x d last-layer input
    m: Optional[ad.Tensor] = None         # d x d last-layer map
    mask: Optional[tuple] = None          # last-layer dropout (scale, keep)


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
    into final embeddings; without ``p.h1`` (no transformer parameters) that
    is ``nodes0`` alone, and no mask is drawn.
    """
    if p.h1 is None:
        return Tail(nodes0)
    if num_layers < 1:
        raise ValueError(f"need at least one layer, got {num_layers}")
    incidence_t = None if p.incidence is None else ad.transpose(p.incidence)
    current = nodes0
    partial, edges = None, p.z
    for step in range(num_layers):
        z_tilde = node_to_hyperedge(current, p)
        z_hat = hhgn(z_tilde, p, slope)
        if edges is None:  # no Z under the transformer ablation
            edges = z_tilde
        mask = (None if dropout_mask is None
                else dropout_mask(current.value.shape))
        source = current if incidence_t is None else incidence_t
        m = hyperedge_to_node(z_hat, p)
        if step == num_layers - 1:
            return Tail(nodes0, edges, partial, source, m, mask)
        out = ad.matmul(source, m)
        if mask is not None:
            out = ad.scale(out, *mask)
        partial = out if partial is None else ad.add(partial, out)
        current = out


def readout(tail: Tail, rows) -> ad.Tensor:
    """Final embeddings of the nodes ``rows``, the sum of their layer
    outputs: the last layer's output for those rows, masked, plus their
    partial sum; the fused rows when the side has no transformer.

    The last layer maps the gathered source rows only, so a loss that reads
    r rows pays for r rows.
    """
    if tail.m is None:
        return ad.gather_rows(tail.fused, rows)
    out = ad.matmul(ad.gather_rows(tail.source, rows), tail.m)
    if tail.mask is not None:
        kept, keep = tail.mask
        out = ad.scale(out, kept, keep[rows])
    if tail.partial is not None:
        out = ad.add(ad.gather_rows(tail.partial, rows), out)
    return out
