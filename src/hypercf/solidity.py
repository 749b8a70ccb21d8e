"""Edge-solidity estimation: meta-network-adapted key transforms, the
two-layer scoring head producing labels in (0, 1), and the pairwise margin
losses: the solidity-ranking loss and the margin it shares with the main
ranking loss.

Labels come from the hypergraph side (keys and hyperedge features) and stay
live tape nodes: the label branch trains jointly with the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad


@dataclass
class MetaNetParams:
    """Weight-generating network for one side's key adaptation.

    Weights are stored as the right factors they are applied as: v1 is the
    d x d x d contraction tensor stored row-major as (d*d) x d, and
    contracting it with the mean hyperedge embedding yields the d x d
    adapted right factor added on top of w0.
    """

    v1: Optional[ad.Tensor]   # (d*d) x d, row i*d + j adapts w0[i, j]
    w0: ad.Tensor             # d x d right factor: x @ w0
    v2: Optional[ad.Tensor]   # d x d, bias = contract(v2, z-mean)
    b0: ad.Tensor             # 1 x d


@dataclass
class SolidityHead:
    """Two-layer scorer mapping a pair of adapted keys to a label in (0, 1)."""

    d_vec: ad.Tensor   # d x 1
    t: ad.Tensor       # 2d x d right factor: [G_u, G_v] @ t
    c: ad.Tensor       # 1 x d


def mean_hyperedge(z_table: ad.Tensor) -> ad.Tensor:
    """Mean pooling of the K hyperedge rows, as a 1 x d row."""
    k = z_table.rows
    pool = ad.constant(np.full((1, k), 1.0 / k, dtype=z_table.value.dtype))
    return ad.matmul(pool, z_table)


def meta_transform(x: ad.Tensor, z_table: ad.Tensor, p: MetaNetParams,
                   slope: float) -> ad.Tensor:
    """Adapt key vectors with weights generated from the hyperedge summary.

    Rows of ``x`` are key vectors; the output row i is sigma(x_i W + b),
    W = contract(v1, z-mean) + w0 and b = contract(v2, z-mean) + b0.
    Without ``v1`` and ``v2`` (the meta-network ablation) W = w0 and
    b = b0: a fixed shared perceptron that never reads ``z_table``.
    """
    d = p.w0.rows
    if x.cols != d:
        raise ad.ShapeMismatchError(
            f"meta_transform: keys {x.value.shape} vs weight dim {d}")
    w, b = p.w0, p.b0
    if p.v1 is not None:
        z_bar = mean_hyperedge(z_table)
        w = ad.add(ad.tensor_contract(p.v1, z_bar, out_rows=d), w)
        b = ad.add(ad.tensor_contract(p.v2, z_bar, out_rows=1), b)
    return ad.leaky_relu(ad.add(ad.matmul(x, w), b), slope)


def solidity_label(gamma_u: ad.Tensor, gamma_v: ad.Tensor, head: SolidityHead,
                   slope: float) -> ad.Tensor:
    """Label per edge: sigm(sigma([G_u, G_v] T + G_u + G_v + c) . d)."""
    if gamma_u.value.shape != gamma_v.value.shape:
        raise ad.ShapeMismatchError(
            f"solidity_label: {gamma_u.value.shape} vs {gamma_v.value.shape}")
    both = ad.concat_cols(gamma_u, gamma_v)
    inner = ad.add(
        ad.add(ad.matmul(both, head.t),
               ad.add(gamma_u, gamma_v)),
        head.c)
    return ad.sigmoid(ad.matmul(ad.leaky_relu(inner, slope), head.d_vec))


def margin_loss(x: ad.Tensor) -> ad.Tensor:
    """Sum of max(0, 1 - x) over the entries of ``x``."""
    return ad.sum_all(ad.hinge(x))


def sa_loss(pred_1: ad.Tensor, pred_2: ad.Tensor,
            label_1: ad.Tensor, label_2: ad.Tensor) -> ad.Tensor:
    """Pairwise ranking transfer: sum of max(0, 1 - (dpred * dlabel)).

    The label gap scales the gradient on the predictions, so near-equal
    labels contribute (almost) no ranking pressure. The labels are live tape
    nodes, so the loss trains the label branch as well.
    """
    for name, t in (("pred_1", pred_1), ("pred_2", pred_2),
                    ("label_1", label_1), ("label_2", label_2)):
        if t.cols != 1 or t.rows != pred_1.rows:
            raise ad.ShapeMismatchError(
                f"sa_loss: {name} must be {pred_1.rows}x1, got {t.value.shape}")
    return margin_loss(
        ad.hadamard(ad.sub(pred_1, pred_2), ad.sub(label_1, label_2)))
