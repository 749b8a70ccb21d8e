"""Reverse-mode automatic differentiation over dense 2-D matrices.

A small define-by-run tape: every primitive returns a :class:`Tensor`, a
2-D numpy ``value`` paired with the :class:`Node` that the tape holds. A node
holds no value; its VJP keeps its parents' nodes and only the arrays it reads
(a matmul its operands, a sigmoid its output, an add none). So a value no VJP
reads dies with the caller's tensor, and one a VJP reads lives until
:func:`backward` has run that VJP. The tape is module-global and
single-threaded; it is rebuilt on every training step and emptied by
:func:`backward`.

Gradients are allocated lazily: a leaf (:func:`constant`, :func:`parameter`)
has a zero ``grad`` from creation, while a primitive's output has
``grad = None`` until :func:`backward` first reaches it. The first gradient
to arrive is adopted as the node's ``grad`` (a copy when the pushing VJP does
not own it), later arrivals are added in place, and nodes never reached are
skipped by the backward walk, which pops each node off the tape and drops
its ``grad``, VJP and parents: only leaves keep a ``grad`` after backward.
Every VJP writes a leaf's ``grad`` in place, so a leaf may be a view into a
packed vector: a :class:`Store` holds named leaves in one contiguous value
vector and one contiguous gradient vector, and ``Store.flat`` is the leaf
those vectors form.

Values are float32 by default; switch to float64 (``set_default_dtype``)
for finite-difference gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._sparsetools import csr_matvecs as _csr_matvecs


class ShapeMismatchError(ValueError):
    """Raised when a primitive receives incompatible operand shapes."""


_default_dtype = np.float32

# The recording tape. Nodes are appended in creation order, which is a valid
# topological order for define-by-run graphs.
_tape: list["Node"] = []
_recording = False


def set_default_dtype(dtype) -> None:
    global _default_dtype
    if dtype not in (np.float32, np.float64):
        raise ValueError("dtype must be float32 or float64")
    _default_dtype = dtype


def default_dtype():
    return _default_dtype


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


def tape_size() -> int:
    return len(_tape)


def clear_tape() -> None:
    _tape.clear()


class Node:
    """What the tape holds for one value: the gradient accumulator ``grad``,
    the ``parents`` (nodes), the ``vjp`` that pushes ``grad`` to them, the
    ``op`` name, and the value's ``shape`` and ``dtype``. ``grad`` is None
    until :func:`backward` reaches the node (a leaf's starts as zeros), and
    None again once backward has walked past it.
    """

    __slots__ = ("grad", "parents", "vjp", "op", "shape", "dtype")

    def __init__(self, shape, dtype, parents: tuple = (), vjp=None,
                 op: str = "leaf", grad=None):
        self.grad = grad
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A dense matrix participating in a recorded computation.

    ``value`` is a 2-D numpy array, immutable by convention after creation;
    ``node`` is what the tape holds for it. ``grad``, ``parents``, ``vjp``
    and ``op`` read the node's fields; ``grad`` and ``vjp`` also assign them.
    """

    __slots__ = ("value", "node")

    def __init__(self, value: np.ndarray, node: Node = None):
        self.value = value
        self.node = node or Node(value.shape, value.dtype,
                                 grad=np.zeros_like(value))

    def _set_grad(self, g) -> None:
        # a view's base is the vector the optimizer reads, as in a packed
        # leaf: rebinding would detach the tensor from it without an error
        if self.node.grad is not None and self.node.grad.base is not None:
            raise ValueError(f"{self!r}: grad is a view into a packed "
                             "gradient vector; write into it in place "
                             "(grad[...] = g)")
        self.node.grad = g

    grad = property(lambda self: self.node.grad, _set_grad)
    parents = property(lambda self: self.node.parents)
    vjp = property(lambda self: self.node.vjp,
                   lambda self, f: setattr(self.node, "vjp", f))
    op = property(lambda self: self.node.op)

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
    return arr


def constant(data, dtype=None) -> Tensor:
    """A leaf tensor. Leaves receive gradients but record no tape node."""
    return Tensor(matrix(data, dtype))


# "parameter" is the same mechanism; the name marks learnable leaves.
parameter = constant


class Store(dict):
    """A parameter registry, name -> leaf, packed into one value vector and
    one gradient vector: the one place that lays parameters out.

    Built from name -> array, it allocates both vectors once, in the working
    dtype, and casts each array once into its slot; slots follow sorted-name
    order, which is also the store's iteration order. Each leaf's ``value``
    and ``grad`` are views into the vectors, and ``flat`` is the 1×P leaf
    the vectors form, so an operation on ``flat`` (a sum of squares, a
    gradient reset, an optimizer update) covers every leaf at once. Neither
    view may be rebound; the ``grad`` setter refuses to.
    """

    def __init__(self, arrays: dict):
        super().__init__()
        self._layout = {name: np.shape(arrays[name])
                        for name in sorted(arrays)}
        if not self._layout:
            raise ValueError("Store: no arrays to hold")
        for name, shape in self._layout.items():
            if len(shape) != 2:
                raise ShapeMismatchError(
                    f"Store: {name!r} is not a 2-D matrix, shape {shape}")
        size = sum(rows * cols for rows, cols in self._layout.values())
        values = np.empty(size, _default_dtype)
        grads = np.zeros(size, _default_dtype)
        self.flat = Tensor(values.reshape(1, -1), Node(
            (1, size), values.dtype, grad=grads.reshape(1, -1)))
        grads = self.views(grads)
        for name, value in self.views(values).items():
            value[...] = arrays[name]
            self[name] = Tensor(value, Node(value.shape, value.dtype,
                                            grad=grads[name]))

    def views(self, vector: np.ndarray) -> dict:
        """Name -> that leaf's slot of ``vector``, a P-entry array laid out
        as ``flat``, as a view of the leaf's shape."""
        return self.slots(self._layout, vector)

    @staticmethod
    def slots(layout: dict, vector: np.ndarray) -> dict:
        """Name -> its slot of ``vector`` as a view of its (rows, cols)
        shape, the slots back to back in ``layout``'s order and filling the
        vector: the only code that computes parameter offsets."""
        vector = _flat(vector)
        size = sum(rows * cols for rows, cols in layout.values())
        if vector.size != size:
            raise ShapeMismatchError(
                f"Store: a vector of {vector.size} entries, not {size}")
        out, start = {}, 0
        for name, (rows, cols) in layout.items():
            out[name] = vector[start:start + rows * cols].reshape(rows, cols)
            start += rows * cols
        return out


def _make(value: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    if not _recording:
        return Tensor(value, Node(value.shape, value.dtype, op=op))
    node = Node(value.shape, value.dtype, parents, vjp, op)
    _tape.append(node)
    return Tensor(value, node)


def _accumulate(t: Node, g, owned: bool = True) -> None:
    """Add ``g`` into ``t.grad``, broadcasting like ``+=``.

    A node reached for the first time adopts ``g`` itself when the caller
    owns it (a freshly computed array of ``t``'s shape and dtype); otherwise
    it gets a copy, so no two nodes ever share a grad array.
    """
    if t.grad is not None:
        t.grad += g
    elif owned and g.shape == t.shape and g.dtype == t.dtype:
        t.grad = g
    else:
        t.grad = np.empty(t.shape, t.dtype)
        t.grad[...] = g


# entries per block of an elementwise pass over a long vector, such as the
# packed parameter vector, so that its temporaries stay small (256 KB in
# float32, the size of the largest tensor of a d = 32 model)
BLOCK = 32768


def _flat(array: np.ndarray) -> np.ndarray:
    """The 1-D view of ``array``, through which it is updated in place."""
    if not array.flags.c_contiguous:  # reshape would copy: update lost
        raise RuntimeError("array is not C-contiguous")
    return array.reshape(-1)


def _shapes(op: str, a: Tensor, b: Tensor) -> str:
    return f"{op}: incompatible shapes {a.value.shape} and {b.value.shape}"


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
# A VJP binds its parents' nodes as default arguments under the parents'
# names, so its body cannot reach a Tensor: it keeps alive only the arrays
# it reads.

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeMismatchError(_shapes("matmul", a, b))

    def vjp(g, a=a.node, b=b.node, x=a.value, y=b.value):
        _accumulate(a, g @ y.T)
        _accumulate(b, x.T @ g)

    return _make(a.value @ b.value, (a.node, b.node), vjp, "matmul")


def gram(a: Tensor) -> Tensor:
    """The Gram matrix ``aᵀa`` of a's columns, exactly symmetric."""
    def vjp(g, a=a.node, x=a.value):
        _accumulate(a, x @ (g + g.T))

    return _make(a.value.T @ a.value, (a.node,), vjp, "gram")


def _csr_product(s, x: np.ndarray) -> np.ndarray:
    """``s @ x`` for CSR arrays ``s``, by the call ``csr_matrix @ x`` makes:
    scipy's kernel adds into zeros of the promoted dtype, casting ``s``'s
    data to it, and reads ``x`` as one C-order block."""
    rows, cols = s.shape
    out = np.zeros((rows, x.shape[1]),
                   dtype=np.promote_types(s.data.dtype, x.dtype))
    _csr_matvecs(rows, cols, x.shape[1], s.indptr, s.indices, s.data,
                 x.ravel(), out.ravel())
    return out


def spmm(adj_pair, x: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``S @ x``.

    ``adj_pair`` is ``(S, S_T)``, two CSR matrices given by their
    ``shape``, ``indptr``, ``indices`` and ``data`` (``data.CSRMatrix`` or
    a scipy ``csr_matrix``), with ``S_T`` the transpose of ``S``; only
    ``x`` is differentiable. Their sizes and index dtypes are checked here;
    their entries are taken as valid, as ``build_normalized_adjacency`` and
    scipy make them.
    """
    s, st = adj_pair
    rows, cols = s.shape
    if tuple(st.shape) != (cols, rows):
        raise ShapeMismatchError(
            f"spmm: S_T has shape {tuple(st.shape)}, not S's {(rows, cols)} "
            f"transposed")
    if x.rows != cols:
        raise ShapeMismatchError(
            f"spmm: incompatible shapes {(rows, cols)} and {x.value.shape}")
    for name, m in (("S", s), ("S_T", st)):
        if len(m.indptr) != m.shape[0] + 1:
            raise ShapeMismatchError(
                f"spmm: {name} has {len(m.indptr)} row pointers for "
                f"{m.shape[0]} rows")
        if not m.indptr[-1] == len(m.indices) == len(m.data):
            raise ShapeMismatchError(
                f"spmm: {name}'s row pointers end at {m.indptr[-1]}, with "
                f"{len(m.indices)} indices and {len(m.data)} values")
        if (m.indices.dtype != m.indptr.dtype
                or m.indptr.dtype not in (np.int32, np.int64)):
            raise ShapeMismatchError(
                f"spmm: {name}'s indptr ({m.indptr.dtype}) and indices "
                f"({m.indices.dtype}) are not one int32 or int64 dtype")

    def vjp(g, x=x.node):
        _accumulate(x, _csr_product(st, g))

    value = np.ascontiguousarray(_csr_product(s, x.value), dtype=x.value.dtype)
    return _make(value, (x.node,), vjp, "spmm")


def transpose(a: Tensor) -> Tensor:
    def vjp(g, a=a.node):
        _accumulate(a, g.T, owned=False)

    return _make(np.ascontiguousarray(a.value.T), (a.node,), vjp, "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum, or ``b`` a 1×d row added to every row of ``a``."""
    row = a.value.shape != b.value.shape
    if row and b.value.shape != (1, a.cols):
        raise ShapeMismatchError(_shapes("add", a, b))

    def vjp(g, a=a.node, b=b.node):
        _accumulate(a, g, owned=False)
        _accumulate(b, g.sum(axis=0, keepdims=True) if row else g, owned=row)

    return _make(a.value + b.value, (a.node, b.node), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError(_shapes("sub", a, b))

    def vjp(g, a=a.node, b=b.node):
        _accumulate(a, g, owned=False)
        _accumulate(b, -g)

    return _make(a.value - b.value, (a.node, b.node), vjp, "sub")


def scale(a: Tensor, c: float, keep=None) -> Tensor:
    """Multiply ``a`` by the float ``c``.

    ``keep``, a bool array of ``a``'s shape such as a dropout keep-mask,
    zeroes the entries where it is False, each zero keeping its sign:
    (x·keep)·c is bit for bit x times the float mask keep·c. Neither constant
    receives a gradient.
    """
    if np.shape(keep) not in ((), a.value.shape):
        raise ShapeMismatchError(f"scale: keep-mask shape {np.shape(keep)} "
                                 f"vs {a.value.shape}")
    c = float(c)

    def vjp(g, a=a.node):
        _accumulate(a, c * g if keep is None else g * keep * c)

    value = c * a.value if keep is None else a.value * keep * c
    return _make(value, (a.node,), vjp, "scale")


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError(_shapes("hadamard", a, b))

    def vjp(g, a=a.node, b=b.node, x=a.value, y=b.value):
        _accumulate(a, g * y)
        _accumulate(b, g * x)

    return _make(a.value * b.value, (a.node, b.node), vjp, "hadamard")


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.rows != b.rows:
        raise ShapeMismatchError(_shapes("concat_cols", a, b))
    nc = a.cols

    def vjp(g, a=a.node, b=b.node):
        _accumulate(a, g[:, :nc], owned=False)
        _accumulate(b, g[:, nc:], owned=False)

    return _make(np.concatenate([a.value, b.value], axis=1), (a.node, b.node),
                 vjp, "concat_cols")


def _row_scatter(op: str, a: Tensor, indices):
    """Check ``indices`` as rows of ``a``; return them as a 1-D int64 array,
    and the VJP that adds row r of a gradient into row ``indices[r]`` of
    a's grad, in order, so duplicate indices accumulate."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatchError(f"{op}: indices must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeMismatchError(
            f"{op}: index out of range for {a.rows} rows")

    def scatter(g, a=a.node):
        if a.grad is None:  # adds into part of the grad: zeros first
            a.grad = np.zeros(a.shape, a.dtype)
        # entry (idx[r], c) of the grad is entry idx[r]·d + c of its 1-D
        # view, where np.add.at adds in the same order, faster
        d = a.shape[1]
        flat_idx = (idx[:, None] * d + np.arange(d)).ravel()
        np.add.at(_flat(a.grad), flat_idx, g.ravel())

    return idx, scatter


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by integer index; duplicate indices accumulate gradient."""
    idx, vjp = _row_scatter("gather_rows", a, indices)
    return _make(a.value[idx], (a.node,), vjp, "gather_rows")


def sum_all(a: Tensor) -> Tensor:
    def vjp(g, a=a.node):
        _accumulate(a, g[0, 0])

    return _make(a.value.sum().reshape(1, 1), (a.node,), vjp, "sum_all")


def sigmoid(a: Tensor) -> Tensor:
    """Logistic sigmoid in the form that cannot overflow.

    With e = exp(-|x|), s = where(x >= 0, 1, e) / (1 + e): the exponent is
    never positive, so exp cannot overflow, and its underflow for large |x|
    (to a subnormal or 0, the correct limit) is not reported. Not
    bit-identical to ``scipy.special.expit``: numpy's exp differs from libm's
    in the last bits, so the two are a few ulp apart, and below about -88.7
    in float32 expit gives 0 where this form keeps the subnormal result.
    """
    x = a.value
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(x))
        s = np.where(x >= 0, 1, e) / (1 + e)

    def vjp(g, a=a.node):
        _accumulate(a, g * s * (1.0 - s))

    return _make(s, (a.node,), vjp, "sigmoid")


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    if not slope > 0:
        raise ValueError(f"leaky_relu: slope must be positive, got {slope}")
    # two-entry lookup on the sign test: (slope, 1) indexed by x > 0
    mask = np.array([slope, 1.0], dtype=a.value.dtype).take(
        (a.value > 0).view(np.uint8))

    def vjp(g, a=a.node):
        _accumulate(a, g * mask)

    return _make(a.value * mask, (a.node,), vjp, "leaky_relu")


def hinge(a: Tensor) -> Tensor:
    """Elementwise max(0, 1 - x), the term of a margin loss."""
    margin = 1.0 - a.value
    mask = (margin > 0).astype(a.value.dtype)

    def vjp(g, a=a.node):
        _accumulate(a, -(g * mask))

    return _make(margin * mask, (a.node,), vjp, "hinge")


def dot_pairs(a: Tensor, b: Tensor, rows_a, rows_b) -> Tensor:
    """Scores of n pairs, as an n×1 column: row r is the dot product of a's
    row ``rows_a[r]`` with b's row ``rows_b[r]``. Repeated rows accumulate
    gradient, into b's table first."""
    ia, scatter_a = _row_scatter("dot_pairs", a, rows_a)
    ib, scatter_b = _row_scatter("dot_pairs", b, rows_b)
    if ia.size != ib.size or a.cols != b.cols:
        raise ShapeMismatchError(f"dot_pairs: {ia.size} rows of {a.value.shape}"
                                 f" with {ib.size} of {b.value.shape}")
    x, y = a.value[ia], b.value[ib]

    def vjp(g):
        scatter_b(g * x)
        scatter_a(g * y)

    return _make((x * y).sum(axis=1, keepdims=True), (a.node, b.node), vjp,
                 "dot_pairs")


def tensor_contract(t3: Tensor, v: Tensor, out_rows: int) -> Tensor:
    """Contract a 3-way tensor, stored row-major as (p·q)×r, with the 1×r
    row ``v``.

    Output is p×q with ``out[i, j] = sum_k T[i, j, k] * v[k]``; gradients flow
    to both operands.
    """
    if v.rows != 1 or t3.cols != v.cols:
        raise ShapeMismatchError(_shapes("tensor_contract", t3, v))
    if out_rows <= 0 or t3.rows % out_rows != 0:
        raise ShapeMismatchError(
            f"tensor_contract: {t3.rows} rows not divisible into {out_rows} output rows")
    out_cols = t3.rows // out_rows

    def vjp(g, t3=t3.node, v=v.node, x=t3.value, y=v.value):
        gf = g.reshape(x.shape[0], 1)
        _accumulate(t3, gf * y)
        _accumulate(v, (x.T @ gf).reshape(1, -1))

    value = (t3.value @ v.value.T).reshape(out_rows, out_cols)
    return _make(value, (t3.node, v.node), vjp, "tensor_contract")


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
    out = np.zeros((heads * width, heads * width), dtype=blocks.dtype)
    for h in range(heads):
        out[h * width:(h + 1) * width, h * width:(h + 1) * width] = blocks[h]
    return out


def linear_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Softmax-free multi-head attention in factorized order.

    ``q`` is m×d, ``k`` and ``v`` are n×d. Per head h the output columns are
    q_h (k_hᵀ v_h): every head's k_hᵀ v_h is a diagonal block of one d×d
    summary, and the output is ``q`` times it. One tape node for all heads;
    gradients flow to all three operands.
    """
    if k.value.shape != v.value.shape or q.cols != k.cols:
        raise ShapeMismatchError(
            f"linear_attention: incompatible shapes {q.value.shape}, "
            f"{k.value.shape} and {v.value.shape}")
    if heads <= 0 or q.cols % heads != 0:
        raise ShapeMismatchError(
            f"embedding width {q.cols} not divisible by {heads} heads")
    summary = _head_products(k.value, v.value, heads)

    def vjp(g, q=q.node, k=k.node, v=v.node, qv=q.value, kv=k.value,
            vv=v.value):
        _accumulate(q, g @ summary.T)
        d_summary = _head_products(qv, g, heads)
        _accumulate(k, vv @ d_summary.T)
        _accumulate(v, kv @ d_summary)

    return _make(q.value @ summary, (q.node, k.node, v.node), vjp,
                 "linear_attention")


def sum_squares(t: Tensor) -> Tensor:
    """Sum of the squared entries of ``t``, as one 1×1 node.

    The value is the dot product of the entries with themselves. The VJP
    adds 2·g·t to the gradient, ``BLOCK`` entries at a time into a gradient
    that exists, so a packed parameter vector needs no temporary of its
    size.
    """
    node, x = t.node, t.value

    def vjp(g):
        c = 2.0 * g[0, 0]
        if node.grad is None:
            _accumulate(node, c * x)
            return
        grad, flat = _flat(node.grad), x.reshape(-1)
        for lo in range(0, flat.size, BLOCK):
            grad[lo:lo + BLOCK] += c * flat[lo:lo + BLOCK]

    return _make(np.vdot(x, x).reshape(1, 1), (node,), vjp, "sum_squares")


# ---------------------------------------------------------------------------
# Backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every reachable tensor.

    ``loss`` must be 1×1 and the tape nonempty. The walk pops each node off
    the tape, runs its VJP if the loss reached it, and leaves it with
    ``grad`` and ``vjp`` None and no parents, so only leaves keep a ``grad``,
    the arrays a VJP read are freed once it has run, and each recorded graph
    can be differentiated once.
    """
    if loss.value.shape != (1, 1):
        raise ShapeMismatchError(
            f"backward: loss must be 1x1, got {loss.value.shape}")
    if not _tape:
        raise RuntimeError("backward: tape is empty (was recording enabled?)")
    loss.grad = np.ones_like(loss.value)
    while _tape:
        node = _tape.pop()
        if node.vjp is not None and node.grad is not None:
            node.vjp(node.grad)
        node.grad = node.vjp = None
        node.parents = ()


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
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of ``build()`` against central finite differences.

    ``build`` must deterministically construct a scalar loss from the tensors
    in ``params`` (any sampling frozen beforehand). Requires float64 values;
    mismatches are reported in the result, never raised.

    Relative error per component is |ad - fd| / max(|ad|, |fd|, 1e-5);
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
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-5)
        report.errors[name] = float(np.max(np.abs(a - fd) / denom))
    return report
