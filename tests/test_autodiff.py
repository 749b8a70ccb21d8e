"""Core autodiff: forward values, backward gradients, finite-difference checks."""

import decimal
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from hypercf import autodiff as ad
from hypercf import data as D


def tensors(*arrays):
    return [ad.constant(np.asarray(a, dtype=np.float64)) for a in arrays]


# the sigmoid's edge cases: exact 0.5, linear near 0, saturation, the float32
# exp overflow point (~88.7), float32 subnormal and zero outputs, infinities
SIGMOID_GRID = (0.0, 1e-8, 0.5, 20.0, 88.0, 104.0, 1e4, math.inf)


def sigmoid_reference(x: float) -> float:
    """The sigmoid of x to 40 digits, rounded to float64."""
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float(1 / (1 + decimal.Decimal(-x).exp()))


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Units in the last place between non-negative floats of one dtype."""
    ints = np.int32 if a.dtype == np.float32 else np.int64
    return np.abs(a.view(ints).astype(np.int64) - b.view(ints).astype(np.int64))


class TestForward:
    def test_matmul_identity(self):
        a = ad.constant(np.arange(9.0).reshape(3, 3))
        eye = ad.constant(np.eye(3))
        out = ad.matmul(eye, a)
        np.testing.assert_array_equal(out.value, a.value)

    def test_gram_is_exactly_symmetric(self):
        a = ad.constant(np.random.default_rng(0).normal(size=(50, 6)))
        out = ad.gram(a).value
        np.testing.assert_allclose(out, a.value.T @ a.value, rtol=1e-6)
        np.testing.assert_array_equal(out, out.T)

    def test_sigmoid_zero_is_half(self):
        z = ad.constant(np.zeros((2, 3)))
        np.testing.assert_array_equal(ad.sigmoid(z).value, np.full((2, 3), 0.5))

    # Largest error measured against an extended-precision reference over 8M
    # normal draws (sd 1 to 60 in float32, 1 to 300 in float64): 4 ulp in
    # float32, 2 in float64. The bound has no margin in float32; the grid
    # and these draws stay within 2.
    SIGMOID_ULP = 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_within_ulps_of_reference(self, dtype):
        rng = np.random.default_rng(0)
        x = np.concatenate([SIGMOID_GRID, np.negative(SIGMOID_GRID),
                            rng.normal(scale=30.0, size=500)]).astype(dtype)
        got = ad.sigmoid(ad.constant(x.reshape(-1, 1), dtype=dtype)).value.ravel()
        want = np.array([sigmoid_reference(float(v)) for v in x]).astype(dtype)
        assert ulp_distance(got, want).max() <= self.SIGMOID_ULP

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_keeps_dtype_and_nan(self, dtype):
        x = ad.constant(np.array([[np.nan, -np.nan, 1.0]]), dtype=dtype)
        s = ad.sigmoid(x).value
        assert s.dtype == dtype
        np.testing.assert_array_equal(np.isnan(s), [[True, True, False]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_raises_no_floating_point_error(self, dtype):
        x = np.concatenate([SIGMOID_GRID, np.negative(SIGMOID_GRID),
                            [-88.7, -745.0, 800.0, -800.0, np.nan]])
        a = ad.constant(x.reshape(-1, 1), dtype=dtype)
        with np.errstate(all="raise"), ad.recording():
            ad.backward(ad.sum_all(ad.sigmoid(a)))
        assert np.isfinite(a.grad).sum() == len(x) - 1

    def test_tensor_contract_hand_value(self):
        # 2x2x2 all-ones tensor stored as (2*2)x2, against v = (1, 2):
        # every output entry is 1*1 + 1*2 = 3.
        t3 = ad.constant(np.ones((4, 2)))
        v = ad.constant(np.array([[1.0, 2.0]]))
        out = ad.tensor_contract(t3, v, out_rows=2)
        assert out.value.shape == (2, 2)
        np.testing.assert_allclose(out.value, np.full((2, 2), 3.0))

    def test_tensor_contract_loop_oracle(self):
        rng = np.random.default_rng(7)
        p, q, r = 3, 4, 5
        t3 = rng.normal(size=(p * q, r))
        v = rng.normal(size=(r, 1))
        out = ad.tensor_contract(ad.constant(t3), ad.constant(v.T), out_rows=p)
        expect = np.zeros((p, q))
        for i in range(p):
            for j in range(q):
                for k in range(r):
                    expect[i, j] += t3[i * q + j, k] * v[k, 0]
        np.testing.assert_allclose(out.value, expect, rtol=1e-6)

    def test_hinge_and_leaky(self):
        x = ad.constant([[-2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(ad.hinge(x).value, [[3.0, 1.0, 0.0]])
        np.testing.assert_allclose(ad.leaky_relu(x, 0.5).value, [[-1.0, 0.0, 3.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.5, 0.1, 2.0])
    def test_leaky_relu_bits_match_where_formula(self, dtype, slope):
        # values and gradients equal x * where(x > 0, 1, slope) bit for bit
        rng = np.random.default_rng(11)
        raw = np.concatenate([rng.normal(size=40), [0.0, -0.0, 1e-310,
                                                    -1e-310, np.inf, -np.inf]])
        x = ad.constant(raw.reshape(2, -1), dtype=dtype)
        w = ad.constant(rng.normal(size=x.shape), dtype=dtype)
        mask = np.where(x.value > 0, 1.0, slope).astype(dtype)
        with ad.recording():
            out = ad.leaky_relu(x, slope)
            loss = ad.sum_all(ad.hadamard(out, w))
        ad.backward(loss)
        bits = np.uint32 if dtype == np.float32 else np.uint64
        assert np.array_equal(out.value.view(bits), (x.value * mask).view(bits))
        assert np.array_equal(x.grad.view(bits), (w.value * mask).view(bits))

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(0)
        a = ad.constant(rng.normal(size=(3, 2)))
        b = ad.constant(rng.normal(size=(3, 4)))
        cat = ad.concat_cols(a, b)
        assert cat.value.shape == (3, 6)
        np.testing.assert_array_equal(cat.value[:, :2], a.value)
        np.testing.assert_array_equal(cat.value[:, 2:], b.value)

    def test_dot_pairs_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        rows_a, rows_b = [4, 0, 4, 2, 1], [0, 2, 2, 1, 0]
        out = ad.dot_pairs(ad.constant(a), ad.constant(b), rows_a, rows_b)
        assert out.value.shape == (5, 1)
        for r, (i, j) in enumerate(zip(rows_a, rows_b)):
            assert abs(out.value[r, 0] - float(a[i] @ b[j])) < 1e-6

    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(2)
        dense = (rng.random((4, 6)) < 0.4) * rng.random((4, 6))
        s = sp.csr_matrix(dense.astype(np.float64))
        pair = (s, s.T.tocsr())
        x = ad.constant(rng.normal(size=(6, 3)))
        np.testing.assert_allclose(ad.spmm(pair, x).value, dense @ x.value, rtol=1e-5)


class TestBackward:
    def test_mean_of_squares_gradient(self, float64_mode):
        x = ad.constant(np.array([[1.0, 2.0, 3.0]]))
        with ad.recording():
            loss = ad.scale(ad.sum_all(ad.hadamard(x, x)), 1.0 / 3)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0 / 3, 4.0 / 3, 6.0 / 3]])

    def test_matmul_rowsum_gradient_fd(self, float64_mode):
        # sum of the entries of x @ W: analytic grad is the broadcast row
        # sums of W.
        rng = np.random.default_rng(3)
        x = ad.constant(rng.normal(size=(4, 3)))
        w = ad.constant(rng.normal(size=(3, 5)))
        with ad.recording():
            loss = ad.sum_all(ad.matmul(x, w))
        ad.backward(loss)
        expect = np.broadcast_to(w.value.sum(axis=1), (4, 3))
        np.testing.assert_allclose(x.grad, expect, rtol=1e-8)

        report = ad.grad_check(
            lambda: ad.sum_all(ad.matmul(x, w)), {"x": x}, epsilon=1e-4)
        assert report.passed, str(report)

    def test_disconnected_parameter_stays_zero(self, float64_mode):
        x = ad.constant(np.ones((2, 2)))
        unused = ad.constant(np.ones((2, 2)))
        with ad.recording():
            loss = ad.sum_all(x)
        ad.backward(loss)
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))

    def test_backward_requires_scalar(self):
        x = ad.constant(np.ones((2, 2)))
        with ad.recording():
            y = ad.add(x, x)
        with pytest.raises(ad.ShapeMismatchError):
            ad.backward(y)

    def test_backward_requires_tape(self):
        loss = ad.constant(np.ones((1, 1)))
        with pytest.raises(RuntimeError):
            ad.backward(loss)

    def test_tape_cleared_after_backward(self):
        x = ad.constant(np.ones((2, 2)))
        with ad.recording():
            loss = ad.sum_all(x)
        assert ad.tape_size() > 0
        ad.backward(loss)
        assert ad.tape_size() == 0

    def test_gather_rows_accumulates_duplicates(self, float64_mode):
        x = ad.constant(np.arange(6.0).reshape(3, 2))
        with ad.recording():
            loss = ad.sum_all(ad.gather_rows(x, [0, 0, 2]))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_gather_rows_scatter_add_matches_row_loop(self):
        # float32, repeated indices, onto a nonzero grad: every entry adds
        # its rows' parts in gathered order, bit for bit
        rng = np.random.default_rng(6)
        x = ad.constant(rng.normal(size=(40, 32)))
        x.grad[...] = rng.normal(size=(40, 32))
        want = x.grad.copy()
        idx = rng.integers(0, 40, 58)
        idx[:6] = 3
        w = ad.constant(rng.normal(size=(58, 32))
                        * 10.0 ** rng.integers(-4, 5, size=(58, 32)))
        with ad.recording():
            loss = ad.sum_all(ad.hadamard(ad.gather_rows(x, idx), w))
        ad.backward(loss)
        for r, i in enumerate(idx):
            want[i] += w.value[r]
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad.view(np.uint32), want.view(np.uint32))

    def test_sum_squares_adds_into_a_long_grad_by_blocks(self):
        # bit for bit the whole-vector 2·g·x added onto the grad, with no
        # temporary of the vector's size
        rng = np.random.default_rng(8)
        x = ad.parameter(rng.normal(size=(1, 3 * ad.BLOCK + 5)))
        x.grad[...] = rng.normal(size=x.shape)
        want = x.grad + (2.0 * np.float32(0.5)) * x.value
        with ad.recording():
            loss = ad.scale(ad.sum_squares(x), 0.5)
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(x.grad.view(np.uint32), want.view(np.uint32))
        assert peak <= ad.BLOCK * x.value.itemsize + 4096, peak

    @pytest.mark.parametrize("same_table", [False, True])
    def test_dot_pairs_matches_gather_scatter_reference(self, same_table):
        # float32, rows repeated in both lists: the value is the gathered
        # rows' product summed per row, and the grads are np.add.at into
        # zeros, b's rows first (which shows when a table is scored against
        # itself), bit for bit
        rng = np.random.default_rng(9)
        a = ad.constant(rng.normal(size=(7, 16)))
        b = a if same_table else ad.constant(rng.normal(size=(5, 16)))
        i, j = np.array([2, 0, 2, 6, 2, 1]), np.array([2, 4, 2, 1, 4, 2])
        w = ad.constant(rng.normal(size=(6, 1))
                        * 10.0 ** rng.integers(-4, 5, size=(6, 1)))
        with ad.recording():
            out = ad.dot_pairs(a, b, i, j)
            ad.backward(ad.sum_all(ad.hadamard(out, w)))
        x, y = a.value[i], b.value[j]
        grad_a, grad_b = np.zeros_like(a.value), np.zeros_like(b.value)
        if same_table:
            grad_a = grad_b
        np.add.at(grad_b, j, w.value * x)
        np.add.at(grad_a, i, w.value * y)
        for got, want in ((out.value, (x * y).sum(1, keepdims=True)),
                          (a.grad, grad_a), (b.grad, grad_b)):
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_add_takes_a_bias_row(self, float64_mode):
        # a 1×d second operand is added to every row; its grad is the
        # column sums of the upstream gradient
        rng = np.random.default_rng(10)
        a, b, w = tensors(rng.normal(size=(5, 4)), rng.normal(size=(1, 4)),
                          rng.normal(size=(5, 4)))
        with ad.recording():
            out = ad.add(a, b)
            ad.backward(ad.sum_all(ad.hadamard(out, w)))
        np.testing.assert_array_equal(out.value, a.value + b.value[0])
        np.testing.assert_array_equal(a.grad, w.value)
        np.testing.assert_array_equal(b.grad, w.value.sum(0, keepdims=True))
        for shape in ((5, 1), (2, 4)):
            with pytest.raises(ad.ShapeMismatchError, match="add"):
                ad.add(a, ad.constant(np.ones(shape)))

    def test_gather_rows_refuses_a_grad_it_cannot_update_in_place(self):
        x = ad.constant(np.ones((4, 3)))
        x.grad = np.zeros((3, 4), dtype=np.float32).T
        with ad.recording():
            loss = ad.sum_all(ad.gather_rows(x, [0, 2]))
        with pytest.raises(RuntimeError, match="not C-contiguous"):
            ad.backward(loss)

    def test_linearity_of_backward(self, float64_mode):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 3))
        c = 2.75

        def run(scaled):
            x = ad.constant(base.copy())
            with ad.recording():
                f = ad.sum_all(ad.sigmoid(ad.matmul(x, x)))
                loss = ad.scale(f, c) if scaled else f
            ad.backward(loss)
            return x.grad.copy()

        np.testing.assert_allclose(run(True), c * run(False), rtol=1e-12)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            x = ad.constant(rng.normal(size=(4, 4)).astype(np.float32))
            with ad.recording():
                loss = ad.sum_all(ad.sigmoid(ad.matmul(x, ad.transpose(x))))
            ad.backward(loss)
            return loss.value.copy(), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


class TestStore:
    def test_sorted_layout_whatever_the_dict_order(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(1, 4))
        values = np.concatenate([a.ravel(), b.ravel()]).astype(np.float32)
        for arrays in ({"b": b, "a": a}, {"a": a, "b": b}):
            store = ad.Store(arrays)
            assert list(store) == ["a", "b"]
            assert store.flat.shape == (1, 10)
            assert np.array_equal(store.flat.value[0], values)
            assert store.flat.grad.shape == (1, 10)
            assert not store.flat.grad.any()
            assert store["a"].shape == (2, 3) and store["b"].shape == (1, 4)
            views = store.views(np.arange(10))
            assert views["a"].tolist() == [[0, 1, 2], [3, 4, 5]]
            assert views["b"].tolist() == [[6, 7, 8, 9]]

    def test_writes_through_flat_reach_the_leaves(self):
        store = ad.Store({"a": np.ones((2, 3)), "b": np.ones((1, 4))})
        store.flat.value[...] = np.arange(10)
        assert store["a"].value.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert store["b"].value.tolist() == [[6, 7, 8, 9]]
        store["b"].grad[0, 3] = 5.0
        assert store.flat.grad[0, 9] == 5.0
        store.flat.zero_grad()
        assert not store["a"].grad.any() and not store["b"].grad.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_casts_every_array_to_one_dtype(self, dtype):
        ad.set_default_dtype(dtype)
        try:
            store = ad.Store({"f": np.full((1, 2), 0.1),
                              "h": np.ones((2, 2), np.float16),
                              "i": np.arange(3).reshape(3, 1)})
        finally:
            ad.set_default_dtype(np.float32)
        arrays = [store.flat.value, store.flat.grad] + [
            a for p in store.values() for a in (p.value, p.grad)]
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        assert store["f"].value[0, 0] == dtype(0.1)  # one cast of 0.1
        assert store["i"].value.ravel().tolist() == [0, 1, 2]

    def test_refusals(self):
        with pytest.raises(ValueError, match="no arrays"):
            ad.Store({})
        with pytest.raises(ad.ShapeMismatchError, match="2-D"):
            ad.Store({"x": np.ones(3)})
        store = ad.Store({"x": np.zeros((2, 3))})
        with pytest.raises(ad.ShapeMismatchError, match="6"):
            store.views(np.zeros(5))
        with pytest.raises(ValueError, match="in place"):
            store["x"].grad = np.ones((2, 3))
        with pytest.raises(ValueError, match="in place"):
            store.flat.grad = np.ones((1, 6))
        assert store["x"].grad.base is store.flat.grad.base


class TestLazyGrad:
    """Non-leaf grads start as None; the first arrival is adopted and fan-in
    accumulates. Only leaves keep a grad after backward: each walked node
    drops its grad, VJP and parents. The tape holds nodes, not values: a
    value lives as long as the caller's tensor or a VJP that reads it."""

    def test_node_consumed_twice_gets_summed_grad(self, float64_mode):
        # y feeds one add twice and z feeds two nodes; the leaf gradient is
        # exact only if both fan-ins were summed
        rng = np.random.default_rng(40)
        x = ad.constant(rng.normal(size=(2, 3)))
        c = ad.constant(rng.normal(size=(2, 3)))
        with ad.recording():
            y = ad.scale(x, 3.0)
            doubled = ad.add(y, y)
            z = ad.sigmoid(x)
            fanned = ad.add(ad.scale(z, 2.0), ad.hadamard(z, c))
            loss = ad.sum_all(ad.add(doubled, fanned))
        ad.backward(loss)
        s = z.value
        np.testing.assert_allclose(x.grad, 6.0 + (2.0 + c.value) * s * (1 - s),
                                   rtol=1e-12)

    def test_adopted_grads_are_never_shared(self, float64_mode):
        rng = np.random.default_rng(41)
        x = ad.constant(rng.normal(size=(3, 4)))
        b = ad.constant(rng.normal(size=(1, 4)))
        with ad.recording():
            y = ad.sigmoid(x)
            s = ad.add(y, y)
            d = ad.sub(s, y)
            t = ad.add(d, d)
            u = ad.add(t, b)
            w = ad.transpose(u)
            c = ad.concat_cols(w, w)
            r = ad.dot_pairs(c, c, [0, 1, 2, 3], [3, 2, 1, 0])
            half = ad.scale(r, 0.5)
            rs = ad.add(r, r)  # walked before half: r adopts a copy
            loss = ad.sum_all(ad.add(rs, half))
        nodes = [x, b, y, s, d, t, u, w, c, r, half, rs, loss.parents[0], loss]
        calls = []

        def checked(node, vjp):
            # the grad a VJP pushes from must be no other live grad's memory
            def wrapper(g):
                calls.append(node)
                for other in nodes:
                    if other is not node and other.grad is not None:
                        assert not np.shares_memory(g, other.grad), (node,
                                                                     other)
                vjp(g)
            return wrapper

        for node in nodes[2:]:
            node.vjp = checked(node, node.vjp)
        ad.backward(loss)
        assert len(calls) == len(nodes) - 2
        assert not np.shares_memory(x.grad, b.grad)

    def test_walked_nodes_drop_grad_vjp_and_parents(self, float64_mode):
        rng = np.random.default_rng(42)
        x = ad.constant(rng.normal(size=(3, 2)))
        w = ad.constant(rng.normal(size=(2, 2)))
        with ad.recording():
            h = ad.matmul(x, w)
            unused = ad.sigmoid(h)
            act = ad.leaky_relu(h, 0.2)
            loss = ad.sum_all(ad.hadamard(act, act))
        nodes = [h, unused, act, loss.parents[0], loss]
        assert ad.tape_size() == len(nodes)
        ad.backward(loss)
        for node in nodes:
            assert node.grad is None and node.vjp is None, node
            assert node.parents == (), node
        expect = 2.0 * act.value * np.where(h.value > 0, 1.0, 0.2)
        np.testing.assert_allclose(x.grad, expect @ w.value.T, rtol=1e-12)
        np.testing.assert_allclose(w.grad, x.value.T @ expect, rtol=1e-12)

    def test_intermediate_value_dies_with_callers_outputs(self):
        x = ad.constant(np.ones((4, 3)))
        w = ad.constant(np.ones((3, 3)))
        with ad.recording():
            h = ad.sigmoid(ad.matmul(x, w))
            out = ad.scale(h, 2.0)
            loss = ad.sum_all(out)
        hidden, output = weakref.ref(h.value), weakref.ref(out.value)
        del h
        ad.backward(loss)
        # the held outputs' VJPs and parents no longer reach h
        assert hidden() is None
        assert output() is not None
        del out
        assert output() is None  # loss holds no parent
        assert loss.value[0, 0] == pytest.approx(24.0 / (1.0 + np.exp(-3.0)))

    def test_unread_value_dies_with_its_tensor(self):
        # add's VJP reads neither operand, so the spmm output lives only as
        # long as the caller's tensor, not until backward
        s = sp.csr_matrix(np.eye(3))
        x = ad.constant(np.ones((3, 2)))
        with ad.recording():
            y = ad.spmm((s, s), x)
            total = ad.add(y, x)
            loss = ad.sum_all(total)
        product = weakref.ref(y.value)
        del y
        assert product() is None
        assert ad.tape_size() == 3
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full((3, 2), 2.0))

    def test_read_value_lives_until_its_vjp_runs(self):
        x = ad.constant(np.full((2, 2), 0.5))
        w = ad.constant(np.ones((2, 2)))
        with ad.recording():
            h = ad.matmul(x, w)
            prod = ad.hadamard(h, w)  # its VJP reads h's value
            loss = ad.sum_all(prod)
        hidden = weakref.ref(h.value)
        alive_at_call = []

        def watched(vjp):
            def wrapper(g):
                alive_at_call.append(hidden() is not None)
                vjp(g)
            return wrapper

        prod.vjp = watched(prod.vjp)
        del h, prod
        assert hidden() is not None
        ad.backward(loss)
        assert alive_at_call == [True]
        assert hidden() is None
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_tape_holds_nodes_with_the_tensor_fields(self):
        x = ad.constant(np.ones((2, 3)))
        with ad.recording():
            y = ad.scale(x, 2.0)
            loss = ad.sum_all(y)
        tape = list(ad._tape)
        assert tape == [y.node, loss.node]
        assert all(type(node) is ad.Node for node in tape)
        assert not hasattr(tape[0], "value")
        assert y.parents == (x.node,) and loss.parents == (y.node,)
        assert (y.op, loss.op, x.op) == ("scale", "sum_all", "leaf")
        assert y.vjp is tape[0].vjp and y.grad is tape[0].grad is None
        assert (tape[0].shape, tape[0].dtype) == ((2, 3), x.value.dtype)
        pushed = []
        vjp = y.vjp
        y.vjp = lambda g: (pushed.append(g.copy()), vjp(g))
        assert tape[0].vjp is y.vjp
        ad.backward(loss)
        np.testing.assert_array_equal(pushed[0], np.ones((2, 3)))
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        assert ad.tape_size() == 0

    def test_unreached_nodes_keep_no_grad(self):
        x = ad.constant(np.ones((2, 2)))
        with ad.recording():
            unused = ad.matmul(x, x)
            loss = ad.sum_all(ad.sigmoid(x))
        ad.backward(loss)
        assert unused.grad is None
        assert ad.tape_size() == 0
        with ad.recording(False):
            assert ad.matmul(x, x).grad is None
        assert x.grad.any()


class TestGradCheckPerPrimitive:
    """Every primitive against central differences: eps 1e-3, tol 1e-4."""

    EPS = 1e-3
    TOL = 1e-4

    def check(self, build, params):
        report = ad.grad_check(build, params, epsilon=self.EPS, tolerance=self.TOL)
        assert report.passed, str(report)

    def test_matmul(self, float64_mode):
        rng = np.random.default_rng(10)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(4, 3)))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.matmul(a, b))), {"a": a, "b": b})

    def test_gram(self, float64_mode):
        # the hadamard factor makes the gram's upstream gradient asymmetric
        rng = np.random.default_rng(29)
        a = ad.constant(rng.normal(size=(5, 4)))
        c = ad.constant(rng.normal(size=(4, 4)))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.hadamard(ad.gram(a), c))),
                   {"a": a})

    def test_spmm(self, float64_mode):
        rng = np.random.default_rng(11)
        s = sp.csr_matrix((rng.random((6, 5)) < 0.5) * 1.0)
        pair = (s, s.T.tocsr())
        x = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.spmm(pair, x))), {"x": x})

    def test_transpose(self, float64_mode):
        rng = np.random.default_rng(12)
        a = ad.constant(rng.normal(size=(5, 4)))
        c = ad.constant(rng.normal(size=(4, 5)))
        self.check(lambda: ad.sum_all(ad.hadamard(ad.transpose(a), c)), {"a": a})

    def test_add_sub_scale(self, float64_mode):
        rng = np.random.default_rng(13)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 4)))
        self.check(
            lambda: ad.sum_all(ad.sigmoid(ad.scale(ad.sub(ad.add(a, b), b), 1.7))),
            {"a": a, "b": b})

    def test_hadamard(self, float64_mode):
        rng = np.random.default_rng(14)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.sum_all(ad.hadamard(a, b)), {"a": a, "b": b})

    def test_add_row(self, float64_mode):
        rng = np.random.default_rng(15)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(1, 4)))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.add(a, b))), {"a": a, "b": b})

    def test_concat_slice(self, float64_mode):
        # concat's VJP hands each operand its slice of the output gradient
        rng = np.random.default_rng(16)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 2)))

        def build():
            cat = ad.concat_cols(a, b)
            return ad.sum_all(ad.hadamard(cat, cat))

        self.check(build, {"a": a, "b": b})

    def test_gather_rows(self, float64_mode):
        rng = np.random.default_rng(17)
        a = ad.constant(rng.normal(size=(5, 4)))
        idx = np.array([0, 2, 2, 4])
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.gather_rows(a, idx))), {"a": a})

    def test_row_sum_mean_sum(self, float64_mode):
        # row sums as dot products with a row of ones; the mean as a scaled
        # sum
        rng = np.random.default_rng(18)
        a = ad.constant(rng.normal(size=(5, 4)))
        ones = ad.constant(np.ones((1, 4)))
        self.check(lambda: ad.scale(ad.sum_all(ad.dot_pairs(
            a, ones, np.arange(5), np.zeros(5, int))), 1 / 20), {"a": a})
        self.check(lambda: ad.scale(ad.sum_all(ad.sigmoid(a)), 0.1), {"a": a})

    def test_sigmoid(self, float64_mode):
        rng = np.random.default_rng(19)
        a = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.sum_all(ad.sigmoid(a)), {"a": a})

    def test_leaky_relu(self, float64_mode):
        rng = np.random.default_rng(20)
        # keep inputs away from the kink so finite differences are smooth
        vals = rng.normal(size=(5, 4))
        vals += np.where(vals >= 0, 0.2, -0.2)
        a = ad.constant(vals)
        self.check(lambda: ad.sum_all(ad.leaky_relu(a, 0.5)), {"a": a})

    def test_hinge(self, float64_mode):
        rng = np.random.default_rng(21)
        # keep inputs away from the kink at 1
        vals = rng.normal(size=(5, 4))
        vals += np.where(vals >= 0, 0.2, -0.2)
        a = ad.constant(1.0 + vals)
        self.check(lambda: ad.sum_all(ad.hinge(a)), {"a": a})

    def test_dot_pairs(self, float64_mode):
        rng = np.random.default_rng(22)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(3, 4)))
        rows_a, rows_b = [4, 0, 4, 2, 1, 0], [0, 2, 2, 1, 0, 0]
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.dot_pairs(
            a, b, rows_a, rows_b))), {"a": a, "b": b})

    def test_tensor_contract(self, float64_mode):
        rng = np.random.default_rng(23)
        t3 = ad.constant(rng.normal(size=(20, 3)))
        v = ad.constant(rng.normal(size=(3, 1)).T)
        self.check(
            lambda: ad.sum_all(ad.sigmoid(ad.tensor_contract(t3, v, out_rows=5))),
            {"t3": t3, "v": v})

    def test_scale_by_keep_mask(self, float64_mode):
        rng = np.random.default_rng(26)
        a = ad.constant(rng.normal(size=(5, 4)))
        keep = rng.random((5, 4)) >= 0.3
        assert keep.any() and not keep.all()
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.scale(a, 1.7, keep))),
                   {"a": a})

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_linear_attention(self, float64_mode, heads):
        rng = np.random.default_rng(27)
        q = ad.constant(rng.normal(size=(3, 8)) * 0.5)
        k = ad.constant(rng.normal(size=(5, 8)) * 0.5)
        v = ad.constant(rng.normal(size=(5, 8)) * 0.5)
        self.check(
            lambda: ad.sum_all(ad.sigmoid(ad.linear_attention(q, k, v, heads))),
            {"q": q, "k": k, "v": v})

    def test_sum_squares(self, float64_mode):
        rng = np.random.default_rng(28)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(1, 3)))
        self.check(lambda: ad.sigmoid(ad.scale(
            ad.add(ad.sum_squares(a), ad.sum_squares(b)), 0.1)),
            {"a": a, "b": b})

    def test_composed_expression(self, float64_mode):
        rng = np.random.default_rng(25)
        e = ad.constant(rng.normal(size=(6, 4)) * 0.5)
        w = ad.constant(rng.normal(size=(4, 4)) * 0.5)
        b = ad.constant(rng.normal(size=(1, 4)) * 0.5)

        def build():
            h = ad.leaky_relu(ad.add(ad.matmul(e, w), b), 0.5)
            scores = ad.dot_pairs(h, e, np.arange(6), np.arange(6))
            return ad.sum_all(ad.hinge(scores))

        self.check(build, {"e": e, "w": w, "b": b})

    def test_constant_function_exact_zero(self, float64_mode):
        a = ad.constant(np.ones((5, 4)))
        c = ad.constant(np.full((1, 1), 2.0))
        report = ad.grad_check(lambda: ad.scale(c, 1.0), {"a": a}, epsilon=self.EPS)
        assert report.errors["a"] == 0.0


IMPORT_CHILD = """
import json, sys, types
import hypercf
from hypercf import autodiff
print(json.dumps({
    "scipy_special": "scipy.special" in sys.modules,
    "scipy_globals": sorted(name for name, value in vars(autodiff).items()
                            if isinstance(value, types.ModuleType)
                            and value.__name__.split(".")[0] == "scipy"),
}))
"""


def run_child(code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter that imports this hypercf, since
    this one may have scipy.special or scipy.sparse loaded already."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code, *args], env=env,
                           capture_output=True, text=True, timeout=120.0)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_import_loads_no_scipy_special():
    loaded = json.loads(run_child(IMPORT_CHILD))
    assert loaded == {"scipy_special": False, "scipy_globals": []}


SPARSE_CHILD = """
import json, sys
import numpy as np
import hypercf
from hypercf import autodiff as ad
adj = hypercf.build_normalized_adjacency(hypercf.synthetic_blocks(
    30, 20, num_blocks=3, edges_per_user=4, seed=0))
x = ad.constant(np.ones((20, 3)), dtype=np.float32)
with ad.recording():
    loss = ad.sum_all(ad.spmm(adj.pair, x))
ad.backward(loss)
assert x.grad.any()
print(json.dumps([name for name in ("scipy.sparse", "scipy._lib._array_api")
                  if name in sys.modules]))
"""


def test_spmm_runs_without_scipy_sparse():
    # the compiled kernels are bound without running scipy.sparse's
    # __init__, whose array-API layer loads numpy.f2py, .testing and .ma
    assert json.loads(run_child(SPARSE_CHILD)) == []


def test_missing_kernels_name_scipy_version_and_path(tmp_path):
    # no fallback: a scipy without the compiled extension fails the import
    fake = tmp_path / "scipy"
    fake.mkdir()
    (fake / "__init__.py").write_text('__version__ = "0.0.fake"\n')
    message = run_child(
        "import sys\nsys.path.insert(0, sys.argv[1])\n"
        "try:\n    import hypercf\nexcept ImportError as err:\n"
        "    print(err)\n", str(tmp_path))
    assert f"scipy 0.0.fake at {fake} has no compiled" in message


REFERENCE_CHILD = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.sparse as sp
from hypercf import autodiff as ad
from hypercf import data as D

rng = np.random.default_rng(5)
# users 2 and 6 and items 0 and 4 have no edges
edges = np.stack([rng.choice([0, 1, 3, 4, 5, 7], 40),
                  rng.choice([1, 2, 3, 5], 40)], axis=1)
ds = D.InteractionDataset.from_edges(edges, 8, 6)
assert (ds.user_degree() == 0).sum() == 2
assert (ds.item_degree() == 0).sum() == 2
adj = D.build_normalized_adjacency(ds)


def spmm_and_vjp(x, g):
    ad.set_default_dtype(x.dtype.type)
    xt = ad.constant(x, dtype=x.dtype)
    with ad.recording():
        y = ad.spmm(adj.pair, xt)
        loss = ad.sum_all(ad.hadamard(y, ad.constant(g, dtype=g.dtype)))
    ad.backward(loss)
    return y.value, xt.grad


cases = []
for dtype in (np.float32, np.float64):
    x = rng.normal(size=(6, 3)).astype(dtype)
    g = rng.normal(size=(8, 3)).astype(dtype)
    cases.append((x, g, spmm_and_vjp(x, g)))

if sys.argv[1] == "after":
    assert "scipy.sparse" not in sys.modules
    import scipy.sparse as sp
u, v = ds.edges[:, 0], ds.edges[:, 1]
du, dv = ds.user_degree(), ds.item_degree()
w = 1.0 / (np.sqrt(du[u]) * np.sqrt(dv[v]))
s = sp.csr_matrix((w.astype(np.float32), (u, v)), shape=(8, 6))
s_t = s.T.tocsr()
for ours, ref in ((adj.matrix, s), (adj.matrix_t, s_t)):
    assert ours.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
for x, g, (y, grad) in cases:
    for ours, ref in ((y, s @ x), (grad, s_t @ g)):
        assert ours.dtype == ref.dtype == x.dtype
        assert ours.tobytes() == ref.tobytes()
# the kernels hypercf bound still agree with the ones scipy.sparse uses
assert np.array_equal(spmm_and_vjp(*cases[0][:2])[0], cases[0][2][0])
print("ok")
"""


@pytest.mark.parametrize("scipy_sparse", ["before", "after"])
def test_adjacency_and_spmm_equal_scipy_sparse(scipy_sparse):
    # scipy.sparse imported before hypercf, whose kernels then come from
    # it, or after, once hypercf has loaded the extension on its own
    assert run_child(REFERENCE_CHILD, scipy_sparse).split() == ["ok"]


class TestErrors:
    def test_shape_mismatch_names_primitive(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((2, 3)))
        with pytest.raises(ad.ShapeMismatchError, match="matmul"):
            ad.matmul(a, b)
        with pytest.raises(ad.ShapeMismatchError, match="concat_cols"):
            ad.concat_cols(a, ad.constant(np.ones((3, 3))))
        with pytest.raises(ad.ShapeMismatchError, match=r"2, 3"):
            ad.add(a, ad.constant(np.ones((3, 2))))

    def test_dot_pairs_checks_rows_and_widths(self):
        a, b = ad.constant(np.ones((4, 3))), ad.constant(np.ones((2, 3)))
        for args in ((a, b, [0, 4], [0, 1]), (a, b, [0, 1], [0, -1]),
                     (a, b, [0, 1], [0]), (a, b, [[0]], [[0]]),
                     (a, ad.constant(np.ones((2, 2))), [0], [0])):
            with pytest.raises(ad.ShapeMismatchError, match="dot_pairs"):
                ad.dot_pairs(*args)

    @staticmethod
    def csr_pair():
        """A 2 x 3 adjacency's CSR arrays and its transpose's."""
        ds = D.InteractionDataset.from_edges([(0, 0), (0, 2), (1, 1)], 2, 3)
        return D.build_normalized_adjacency(ds, dtype=np.float64).pair

    def test_spmm_rejects_row_pointers_of_wrong_length(self):
        s, st = self.csr_pair()
        x = ad.constant(np.ones((3, 2)))
        short = dataclasses.replace(s, indptr=s.indptr[:-1])
        with pytest.raises(ad.ShapeMismatchError,
                           match="S has 2 row pointers for 2 rows"):
            ad.spmm((short, st), x)
        truncated = dataclasses.replace(s, data=s.data[:-1])
        with pytest.raises(ad.ShapeMismatchError,
                           match="S's row pointers end at 3, with 3 indices "
                                 "and 2 values"):
            ad.spmm((truncated, st), x)
        # scipy's S.T is CSC: its indptr runs over S_T's columns
        csc = sp.csr_matrix(np.array([[1.0, 0, 2], [0, 3, 0]])).T
        with pytest.raises(ad.ShapeMismatchError,
                           match="S_T has 3 row pointers for 3 rows"):
            ad.spmm((s, csc), x)

    def test_spmm_rejects_index_arrays_not_of_one_dtype(self):
        s, st = self.csr_pair()
        x = ad.constant(np.ones((3, 2)))
        for indptr, indices in ((st.indptr, st.indices.astype(np.int64)),
                                (st.indptr, st.indices.astype(np.float64)),
                                (st.indptr.astype(np.int16),
                                 st.indices.astype(np.int16))):
            bad = dataclasses.replace(st, indptr=indptr, indices=indices)
            with pytest.raises(ad.ShapeMismatchError,
                               match="S_T's indptr .* not one int32 or int64"):
                ad.spmm((s, bad), x)

    def test_spmm_rejects_a_transpose_of_the_wrong_shape(self):
        s, _ = self.csr_pair()
        with pytest.raises(ad.ShapeMismatchError,
                           match=r"S_T has shape \(2, 3\)"):
            ad.spmm((s, s), ad.constant(np.ones((3, 2))))

    def test_spmm_rejects_x_with_the_wrong_rows(self):
        with pytest.raises(ad.ShapeMismatchError,
                           match=r"spmm: incompatible shapes \(2, 3\)"):
            ad.spmm(self.csr_pair(), ad.constant(np.ones((2, 2))))

    def test_linear_attention_shapes(self):
        q, k = ad.constant(np.ones((2, 6))), ad.constant(np.ones((3, 6)))
        with pytest.raises(ad.ShapeMismatchError, match="divisible"):
            ad.linear_attention(q, k, k, 4)
        with pytest.raises(ad.ShapeMismatchError, match="linear_attention"):
            ad.linear_attention(q, k, ad.constant(np.ones((4, 6))), 2)
        with pytest.raises(ad.ShapeMismatchError, match="scale"):
            ad.scale(q, 2.0, np.ones((2, 1), dtype=bool))

    def test_leaky_relu_slope_precondition(self):
        a = ad.constant(np.ones((2, 2)))
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(a, 0.0)

    def test_grad_check_requires_float64(self):
        a = ad.constant(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            ad.grad_check(lambda: ad.sum_all(a), {"a": a})
