"""Core autodiff: forward values, backward gradients, finite-difference checks."""

import decimal
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from hypercf import autodiff as ad


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
        v = ad.constant(np.array([[1.0], [2.0]]))
        out = ad.tensor_contract(t3, v, out_rows=2)
        assert out.value.shape == (2, 2)
        np.testing.assert_allclose(out.value, np.full((2, 2), 3.0))

    def test_tensor_contract_loop_oracle(self):
        rng = np.random.default_rng(7)
        p, q, r = 3, 4, 5
        t3 = rng.normal(size=(p * q, r))
        v = rng.normal(size=(r, 1))
        out = ad.tensor_contract(ad.constant(t3), ad.constant(v), out_rows=p)
        expect = np.zeros((p, q))
        for i in range(p):
            for j in range(q):
                for k in range(r):
                    expect[i, j] += t3[i * q + j, k] * v[k, 0]
        np.testing.assert_allclose(out.value, expect, rtol=1e-6)

    def test_hinge_and_leaky(self):
        x = ad.constant([[-2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(ad.hinge(x).value, [[0.0, 0.0, 3.0]])
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

    def test_dot_rows_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        out = ad.dot_rows(ad.constant(a), ad.constant(b))
        assert out.value.shape == (5, 1)
        for i in range(5):
            assert abs(out.value[i, 0] - float(a[i] @ b[i])) < 1e-6

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
            t = ad.add_scalar(d, 1.0)
            u = ad.add_bias(t, b)
            w = ad.transpose(u)
            c = ad.concat_cols(w, w)
            r = ad.dot_rows(c, c)
            half = ad.scale(r, 0.5)
            rs = ad.add_scalar(r, 2.0)  # walked before half: r adopts a copy
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

    def test_add_bias(self, float64_mode):
        rng = np.random.default_rng(15)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(1, 4)))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.add_bias(a, b))), {"a": a, "b": b})

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
        # row sums as dot products with ones; the mean as a scaled sum
        rng = np.random.default_rng(18)
        a = ad.constant(rng.normal(size=(5, 4)))
        ones = ad.constant(np.ones((5, 4)))
        self.check(lambda: ad.scale(ad.sum_all(ad.dot_rows(a, ones)), 1 / 20),
                   {"a": a})
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
        vals = rng.normal(size=(5, 4))
        vals += np.where(vals >= 0, 0.2, -0.2)
        a = ad.constant(vals)
        self.check(lambda: ad.sum_all(ad.hinge(a)), {"a": a})

    def test_dot_rows(self, float64_mode):
        rng = np.random.default_rng(22)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.dot_rows(a, b))), {"a": a, "b": b})

    def test_tensor_contract(self, float64_mode):
        rng = np.random.default_rng(23)
        t3 = ad.constant(rng.normal(size=(20, 3)))
        v = ad.constant(rng.normal(size=(3, 1)))
        self.check(
            lambda: ad.sum_all(ad.sigmoid(ad.tensor_contract(t3, v, out_rows=5))),
            {"t3": t3, "v": v})

    def test_add_scalar(self, float64_mode):
        rng = np.random.default_rng(24)
        a = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.add_scalar(a, 0.3))), {"a": a})

    def test_scale_by_constant_array(self, float64_mode):
        rng = np.random.default_rng(26)
        a = ad.constant(rng.normal(size=(5, 4)))
        mask = rng.random((5, 4))
        self.check(lambda: ad.sum_all(ad.sigmoid(ad.scale(a, mask))), {"a": a})

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
        self.check(lambda: ad.sigmoid(ad.scale(ad.sum_squares([a, b]), 0.1)),
                   {"a": a, "b": b})

    def test_composed_expression(self, float64_mode):
        rng = np.random.default_rng(25)
        e = ad.constant(rng.normal(size=(6, 4)) * 0.5)
        w = ad.constant(rng.normal(size=(4, 4)) * 0.5)
        b = ad.constant(rng.normal(size=(1, 4)) * 0.5)

        def build():
            h = ad.leaky_relu(ad.add_bias(ad.matmul(e, w), b), 0.5)
            scores = ad.dot_rows(h, e)
            return ad.sum_all(ad.hinge(ad.add_scalar(ad.scale(scores, -1.0), 1.0)))

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


def test_import_loads_no_scipy_special():
    # a fresh interpreter: this one may have scipy.special loaded already
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env,
                           capture_output=True, text=True, timeout=120.0)
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stdout)
    assert loaded == {"scipy_special": False, "scipy_globals": []}


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

    def test_linear_attention_shapes(self):
        q, k = ad.constant(np.ones((2, 6))), ad.constant(np.ones((3, 6)))
        with pytest.raises(ad.ShapeMismatchError, match="divisible"):
            ad.linear_attention(q, k, k, 4)
        with pytest.raises(ad.ShapeMismatchError, match="linear_attention"):
            ad.linear_attention(q, k, ad.constant(np.ones((4, 6))), 2)
        with pytest.raises(ad.ShapeMismatchError, match="scale"):
            ad.scale(q, np.ones((6, 2)))
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
