"""Reverse-mode automatic differentiation over dense 2-D matrices.

A small define-by-run tape: every primitive returns a :class:`Tensor` wrapping
a 2-D numpy array, and records how to push gradients back to its inputs.
The tape is module-global and single-threaded; it is rebuilt on every
training step and cleared by :func:`backward`.

Gradients are allocated lazily: a leaf (:func:`constant`, :func:`parameter`)
owns a zero ``grad`` from creation, while a primitive's output has
``grad = None`` until :func:`backward` first reaches it. The first gradient
to arrive is adopted as the node's ``grad`` (a copy when the pushing VJP does
not own it), later arrivals are added in place, and nodes never reached are
skipped by the backward walk.

Values are float32 by default; switch to float64 (``set_default_dtype``)
for finite-difference gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


class ShapeMismatchError(ValueError):
    """Raised when a primitive receives incompatible operand shapes."""


class NonFiniteError(ValueError):
    """Raised in checked mode when a value contains NaN or Inf."""


_default_dtype = np.float32
_checked = False

# The recording tape. Nodes are appended in creation order, which is a valid
# topological order for define-by-run graphs.
_tape: list["Tensor"] = []
_recording = False


def set_default_dtype(dtype) -> None:
    global _default_dtype
    if dtype not in (np.float32, np.float64):
        raise ValueError("dtype must be float32 or float64")
    _default_dtype = dtype


def default_dtype():
    return _default_dtype


def set_checked(flag: bool) -> None:
    """Enable/disable finiteness validation of primitive inputs."""
    global _checked
    _checked = bool(flag)


class recording:
    """Context manager that turns tape recording on (or off) within a block."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.prev = None

    def __enter__(self):
        global _recording
        self.prev = _recording
        _recording = self.enabled
        return self

    def __exit__(self, *exc):
        global _recording
        _recording = self.prev
        return False


def is_recording() -> bool:
    return _recording


def tape_size() -> int:
    return len(_tape)


def clear_tape() -> None:
    _tape.clear()


class Tensor:
    """A dense matrix participating in a recorded computation.

    ``value`` is a 2-D numpy array, immutable by convention after creation.
    ``grad`` is a same-shaped accumulator filled in by :func:`backward`. A
    leaf's starts as zeros; any other node's is ``None`` until backward
    reaches it, and stays ``None`` when the loss does not depend on it.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "op")

    def __init__(self, value: np.ndarray, parents: tuple = (), vjp=None, op: str = "leaf"):
        self.value = value
        self.grad = np.zeros_like(value) if op == "leaf" else None
        self.parents = parents
        self.vjp = vjp
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.value.shape})"


def matrix(data, dtype=None) -> np.ndarray:
    """Coerce ``data`` to a contiguous 2-D array of the working dtype."""
    arr = np.ascontiguousarray(data, dtype=dtype or _default_dtype)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got shape {arr.shape}")
    if _checked and not np.isfinite(arr).all():
        raise NonFiniteError("matrix contains NaN or Inf")
    return arr


def constant(data, dtype=None) -> Tensor:
    """A leaf tensor. Leaves receive gradients but record no tape node."""
    return Tensor(matrix(data, dtype))


# "parameter" is the same mechanism; the name marks learnable leaves.
parameter = constant


def _check_finite(name: str, *tensors: Tensor) -> None:
    if not _checked:
        return
    for t in tensors:
        if not np.isfinite(t.value).all():
            raise NonFiniteError(f"{name}: input contains NaN or Inf")


def _make(value: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    if _checked and not np.isfinite(value).all():
        raise NonFiniteError(f"{op}: produced NaN or Inf")
    if _recording:
        out = Tensor(value, parents, vjp, op)
        _tape.append(out)
    else:
        out = Tensor(value, (), None, op)
    return out


def _accumulate(t: Tensor, g, owned: bool = True) -> None:
    """Add ``g`` into ``t.grad``, broadcasting like ``+=``.

    A node reached for the first time adopts ``g`` itself when the caller
    owns it (a freshly computed array of ``t``'s shape and dtype); otherwise
    it gets a copy, so no two nodes ever share a grad array.
    """
    if t.grad is not None:
        t.grad += g
    elif owned and g.shape == t.value.shape and g.dtype == t.value.dtype:
        t.grad = g
    else:
        t.grad = np.empty_like(t.value)
        t.grad[...] = g


def _grad_buffer(t: Tensor) -> np.ndarray:
    """``t.grad``, allocated as zeros first if backward has not reached it,
    for VJPs that add into part of it."""
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    return t.grad


def _shapes(op: str, a: Tensor, b: Tensor) -> str:
    return f"{op}: incompatible shapes {a.value.shape} and {b.value.shape}"


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_finite("matmul", a, b)
    if a.cols != b.rows:
        raise ShapeMismatchError(_shapes("matmul", a, b))

    def vjp(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return _make(a.value @ b.value, (a, b), vjp, "matmul")


def spmm(adj_pair, x: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``S @ x``.

    ``adj_pair`` is ``(S, S_T)`` with ``S_T`` the precomputed transpose in a
    row-efficient format; only ``x`` is differentiable.
    """
    s, st = adj_pair
    _check_finite("spmm", x)
    if s.shape[1] != x.rows:
        raise ShapeMismatchError(
            f"spmm: incompatible shapes {s.shape} and {x.value.shape}")

    def vjp(g):
        _accumulate(x, st @ g)

    value = np.ascontiguousarray(s @ x.value, dtype=x.value.dtype)
    return _make(value, (x,), vjp, "spmm")


def transpose(a: Tensor) -> Tensor:
    _check_finite("transpose", a)

    def vjp(g):
        _accumulate(a, g.T, owned=False)

    return _make(np.ascontiguousarray(a.value.T), (a,), vjp, "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_finite("add", a, b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError(_shapes("add", a, b))

    def vjp(g):
        _accumulate(a, g, owned=False)
        _accumulate(b, g, owned=False)

    return _make(a.value + b.value, (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_finite("sub", a, b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError(_shapes("sub", a, b))

    def vjp(g):
        _accumulate(a, g, owned=False)
        _accumulate(b, -g)

    return _make(a.value - b.value, (a, b), vjp, "sub")


def scale(a: Tensor, c) -> Tensor:
    """Multiply ``a`` by a constant: a float, or an array of ``a``'s shape
    (such as a dropout mask), which receives no gradient."""
    _check_finite("scale", a)
    if np.ndim(c) == 0:
        c = float(c)
    elif np.shape(c) != a.value.shape:
        raise ShapeMismatchError(
            f"scale: incompatible shapes {a.value.shape} and {np.shape(c)}")

    def vjp(g):
        _accumulate(a, c * g)

    return _make(c * a.value, (a,), vjp, "scale")


def add_scalar(a: Tensor, c: float) -> Tensor:
    _check_finite("add_scalar", a)

    def vjp(g):
        _accumulate(a, g, owned=False)

    return _make(a.value + float(c), (a,), vjp, "add_scalar")


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _check_finite("hadamard", a, b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError(_shapes("hadamard", a, b))

    def vjp(g):
        _accumulate(a, g * b.value)
        _accumulate(b, g * a.value)

    return _make(a.value * b.value, (a, b), vjp, "hadamard")


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast add: ``a`` is n×d, ``b`` is 1×d."""
    _check_finite("add_bias", a, b)
    if b.rows != 1 or a.cols != b.cols:
        raise ShapeMismatchError(_shapes("add_bias", a, b))

    def vjp(g):
        _accumulate(a, g, owned=False)
        _accumulate(b, g.sum(axis=0, keepdims=True))

    return _make(a.value + b.value, (a, b), vjp, "add_bias")


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    _check_finite("concat_cols", a, b)
    if a.rows != b.rows:
        raise ShapeMismatchError(_shapes("concat_cols", a, b))
    nc = a.cols

    def vjp(g):
        _accumulate(a, g[:, :nc], owned=False)
        _accumulate(b, g[:, nc:], owned=False)

    return _make(np.concatenate([a.value, b.value], axis=1), (a, b), vjp, "concat_cols")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    _check_finite("slice_cols", a)
    if not (0 <= start < stop <= a.cols):
        raise ShapeMismatchError(
            f"slice_cols: range [{start}, {stop}) invalid for {a.cols} columns")

    def vjp(g):
        _grad_buffer(a)[:, start:stop] += g

    return _make(np.ascontiguousarray(a.value[:, start:stop]), (a,), vjp, "slice_cols")


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by integer index; duplicate indices accumulate gradient."""
    _check_finite("gather_rows", a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatchError(f"gather_rows: indices must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeMismatchError(
            f"gather_rows: index out of range for {a.rows} rows")

    def vjp(g):
        np.add.at(_grad_buffer(a), idx, g)

    return _make(a.value[idx].copy(), (a,), vjp, "gather_rows")


def row_sum(a: Tensor) -> Tensor:
    _check_finite("row_sum", a)

    def vjp(g):
        _accumulate(a, g, owned=False)  # broadcast over columns

    return _make(a.value.sum(axis=1, keepdims=True), (a,), vjp, "row_sum")


def mean_all(a: Tensor) -> Tensor:
    _check_finite("mean_all", a)
    n = a.value.size

    def vjp(g):
        _accumulate(a, g[0, 0] / n)

    return _make(a.value.mean().reshape(1, 1), (a,), vjp, "mean_all")


def sum_all(a: Tensor) -> Tensor:
    _check_finite("sum_all", a)

    def vjp(g):
        _accumulate(a, g[0, 0])

    return _make(a.value.sum().reshape(1, 1), (a,), vjp, "sum_all")


def sigmoid(a: Tensor) -> Tensor:
    _check_finite("sigmoid", a)
    s = expit(a.value)

    def vjp(g):
        _accumulate(a, g * s * (1.0 - s))

    return _make(s, (a,), vjp, "sigmoid")


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    _check_finite("leaky_relu", a)
    if not slope > 0:
        raise ValueError(f"leaky_relu: slope must be positive, got {slope}")
    mask = np.where(a.value > 0, 1.0, slope).astype(a.value.dtype)

    def vjp(g):
        _accumulate(a, g * mask)

    return _make(a.value * mask, (a,), vjp, "leaky_relu")


def hinge(a: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    _check_finite("hinge", a)
    mask = (a.value > 0).astype(a.value.dtype)

    def vjp(g):
        _accumulate(a, g * mask)

    return _make(a.value * mask, (a,), vjp, "hinge")


def dot_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot products of two equally shaped matrices, as an n×1 column."""
    _check_finite("dot_rows", a, b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError(_shapes("dot_rows", a, b))

    def vjp(g):
        _accumulate(a, g * b.value)
        _accumulate(b, g * a.value)

    return _make((a.value * b.value).sum(axis=1, keepdims=True), (a, b), vjp, "dot_rows")


def tensor_contract(t3: Tensor, v: Tensor, out_rows: int) -> Tensor:
    """Contract a 3-way tensor, stored row-major as (p·q)×r, with an r-vector.

    Output is p×q with ``out[i, j] = sum_k T[i, j, k] * v[k]``; gradients flow
    to both operands.
    """
    _check_finite("tensor_contract", t3, v)
    if v.cols != 1 or t3.cols != v.rows:
        raise ShapeMismatchError(_shapes("tensor_contract", t3, v))
    if out_rows <= 0 or t3.rows % out_rows != 0:
        raise ShapeMismatchError(
            f"tensor_contract: {t3.rows} rows not divisible into {out_rows} output rows")
    out_cols = t3.rows // out_rows

    def vjp(g):
        gf = g.reshape(t3.rows, 1)
        _accumulate(t3, gf @ v.value.T)
        _accumulate(v, t3.value.T @ gf)

    value = (t3.value @ v.value).reshape(out_rows, out_cols)
    return _make(value, (t3, v), vjp, "tensor_contract")


def _head_products(a: np.ndarray, b: np.ndarray, heads: int) -> np.ndarray:
    """Every head's a_hᵀ b_h on the diagonal blocks of one d×d matrix, with
    zeros elsewhere; head h holds columns [h·d/H, (h+1)·d/H).

    The blocks are computed per head, as one batched product; the
    block-diagonal result lets the row-wise products that use it run as a
    single matrix product, at H times the FLOPs of per-head ones.
    """
    width = a.shape[1] // heads
    blocks = (a.reshape(-1, heads, width).transpose(1, 2, 0)
              @ b.reshape(-1, heads, width).transpose(1, 0, 2))
    out = np.zeros((heads, width, heads, width), dtype=blocks.dtype)
    h = np.arange(heads)
    out[h, :, h, :] = blocks
    return out.reshape(heads * width, heads * width)


def linear_attention_value(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                           heads: int):
    """Forward of :func:`linear_attention` on plain arrays.

    Returns ``(out, summary)``: ``summary`` holds every head's key-value
    product k_hᵀv_h as the diagonal blocks of one d×d matrix, and
    ``out = q @ summary`` applies each query slice to its own head's block.
    """
    if heads <= 0 or q.shape[1] % heads != 0:
        raise ShapeMismatchError(
            f"embedding width {q.shape[1]} not divisible by {heads} heads")
    summary = _head_products(k, v, heads)
    return q @ summary, summary


def linear_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Softmax-free multi-head attention in factorized order.

    ``q`` is m×d, ``k`` and ``v`` are n×d. Per head h the output columns are
    q_h (k_hᵀ v_h), one tape node for all heads; gradients flow to all three
    operands.
    """
    _check_finite("linear_attention", q, k, v)
    if k.value.shape != v.value.shape or q.cols != k.cols:
        raise ShapeMismatchError(
            f"linear_attention: incompatible shapes {q.value.shape}, "
            f"{k.value.shape} and {v.value.shape}")
    value, summary = linear_attention_value(q.value, k.value, v.value, heads)

    def vjp(g):
        _accumulate(q, g @ summary.T)
        d_summary = _head_products(q.value, g, heads)
        _accumulate(k, v.value @ d_summary.T)
        _accumulate(v, k.value @ d_summary)

    return _make(value, (q, k, v), vjp, "linear_attention")


def sum_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of the squared entries of every tensor, as one 1×1 node.

    Each tensor's squared Frobenius norm is added in the order given; the
    VJP adds 2·g·t to each tensor's gradient.
    """
    tensors = tuple(tensors)
    _check_finite("sum_squares", *tensors)
    total = None
    for t in tensors:
        term = (t.value * t.value).sum().reshape(1, 1)
        total = term if total is None else total + term

    def vjp(g):
        c = 2.0 * g[0, 0]
        for t in tensors:
            _accumulate(t, c * t.value)

    return _make(total, tensors, vjp, "sum_squares")


# ---------------------------------------------------------------------------
# Backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every reachable tensor.

    ``loss`` must be 1×1 and the tape nonempty. Nodes the loss does not
    reach keep ``grad = None`` and their VJPs do not run. The tape is cleared
    afterwards, so each recorded graph can be differentiated once.
    """
    if loss.value.shape != (1, 1):
        raise ShapeMismatchError(
            f"backward: loss must be 1x1, got {loss.value.shape}")
    if not _tape:
        raise RuntimeError("backward: tape is empty (was recording enabled?)")
    loss.grad = np.ones_like(loss.value)
    for node in reversed(_tape):
        if node.vjp is not None and node.grad is not None:
            node.vjp(node.grad)
    clear_tape()


@dataclass
class GradCheckReport:
    """Per-parameter max relative error of backward() vs central differences."""

    errors: dict = field(default_factory=dict)
    tolerance: float = 1e-4

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def __str__(self):
        lines = [f"grad check ({'PASS' if self.passed else 'FAIL'}, "
                 f"max {self.max_error:.3e}, tol {self.tolerance:.1e})"]
        for name, err in sorted(self.errors.items()):
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def grad_check(build: Callable[[], Tensor], params: dict, epsilon: float = 1e-4,
               tolerance: float = 1e-4, rel_floor: float = 1e-5) -> GradCheckReport:
    """Compare tape gradients of ``build()`` against central finite differences.

    ``build`` must deterministically construct a scalar loss from the tensors
    in ``params`` (any sampling frozen beforehand). Requires float64 values;
    mismatches are reported in the result, never raised.

    Relative error per component is |ad - fd| / max(|ad|, |fd|, rel_floor);
    the floor absorbs finite-difference roundoff on near-zero gradients.
    """
    if not (1e-5 <= epsilon <= 1e-2):
        raise ValueError(f"epsilon {epsilon} outside [1e-5, 1e-2]")
    for name, p in params.items():
        if p.value.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters ({name})")

    clear_tape()
    for p in params.values():
        p.zero_grad()
    with recording():
        loss = build()
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    def eval_loss() -> float:
        with recording(False):
            out = build()
        return float(out.value[0, 0])

    report = GradCheckReport(tolerance=tolerance)
    for name, p in params.items():
        fd = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = eval_loss()
            flat[i] = orig - epsilon
            down = eval_loss()
            flat[i] = orig
            fd.reshape(-1)[i] = (up - down) / (2.0 * epsilon)
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), rel_floor)
        report.errors[name] = float(np.max(np.abs(a - fd) / denom))
    return report
