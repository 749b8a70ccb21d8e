"""Core autodiff: forward values, backward gradients, finite-difference checks."""

import numpy as np
import pytest
import scipy.sparse as sp

from hypercf import autodiff as ad


def tensors(*arrays):
    return [ad.constant(np.asarray(a, dtype=np.float64)) for a in arrays]


class TestForward:
    def test_matmul_identity(self):
        a = ad.constant(np.arange(9.0).reshape(3, 3))
        eye = ad.constant(np.eye(3))
        out = ad.matmul(eye, a)
        np.testing.assert_array_equal(out.value, a.value)

    def test_sigmoid_zero_is_half(self):
        z = ad.constant(np.zeros((2, 3)))
        np.testing.assert_array_equal(ad.sigmoid(z).value, np.full((2, 3), 0.5))

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

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(0)
        a = ad.constant(rng.normal(size=(3, 2)))
        b = ad.constant(rng.normal(size=(3, 4)))
        cat = ad.concat_cols(a, b)
        np.testing.assert_array_equal(ad.slice_cols(cat, 0, 2).value, a.value)
        np.testing.assert_array_equal(ad.slice_cols(cat, 2, 6).value, b.value)

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
            loss = ad.mean_all(ad.hadamard(x, x))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0 / 3, 4.0 / 3, 6.0 / 3]])

    def test_matmul_rowsum_gradient_fd(self, float64_mode):
        # mean of row sums of x @ W: analytic grad is the broadcast row sums
        # of W divided by the number of rows of x.
        rng = np.random.default_rng(3)
        x = ad.constant(rng.normal(size=(4, 3)))
        w = ad.constant(rng.normal(size=(3, 5)))
        with ad.recording():
            loss = ad.mean_all(ad.row_sum(ad.matmul(x, w)))
        ad.backward(loss)
        expect = np.broadcast_to(w.value.sum(axis=1), (4, 3)) / 4.0
        np.testing.assert_allclose(x.grad, expect, rtol=1e-8)

        report = ad.grad_check(
            lambda: ad.mean_all(ad.row_sum(ad.matmul(x, w))), {"x": x}, epsilon=1e-4)
        assert report.passed, str(report)

    def test_disconnected_parameter_stays_zero(self, float64_mode):
        x = ad.constant(np.ones((2, 2)))
        unused = ad.constant(np.ones((2, 2)))
        with ad.recording():
            loss = ad.mean_all(x)
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
            loss = ad.mean_all(x)
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
                f = ad.mean_all(ad.sigmoid(ad.matmul(x, x)))
                loss = ad.scale(f, c) if scaled else f
            ad.backward(loss)
            return x.grad.copy()

        np.testing.assert_allclose(run(True), c * run(False), rtol=1e-12)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            x = ad.constant(rng.normal(size=(4, 4)).astype(np.float32))
            with ad.recording():
                loss = ad.mean_all(ad.sigmoid(ad.matmul(x, ad.transpose(x))))
            ad.backward(loss)
            return loss.value.copy(), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


class TestLazyGrad:
    """Non-leaf grads start as None; the first arrival is adopted and fan-in
    accumulates."""

    def test_node_consumed_twice_gets_summed_grad(self, float64_mode):
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
        np.testing.assert_array_equal(y.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(z.grad, 2.0 + c.value, rtol=1e-15)
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
            rs = ad.row_sum(r)  # walked before half: r adopts from row_sum
            loss = ad.sum_all(ad.add(rs, half))
        ad.backward(loss)
        nodes = [x, b, y, s, d, t, u, w, c, r, half, rs]
        snapshots = [n.grad.copy() for n in nodes]
        for i, node in enumerate(nodes):
            node.grad[...] = np.nan
            for j, other in enumerate(nodes):
                if j != i:
                    np.testing.assert_array_equal(other.grad, snapshots[j])
            node.grad[...] = snapshots[i]

    def test_unreached_nodes_keep_no_grad(self):
        x = ad.constant(np.ones((2, 2)))
        with ad.recording():
            unused = ad.matmul(x, x)
            loss = ad.mean_all(ad.sigmoid(x))
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
        self.check(lambda: ad.mean_all(ad.sigmoid(ad.matmul(a, b))), {"a": a, "b": b})

    def test_spmm(self, float64_mode):
        rng = np.random.default_rng(11)
        s = sp.csr_matrix((rng.random((6, 5)) < 0.5) * 1.0)
        pair = (s, s.T.tocsr())
        x = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.mean_all(ad.sigmoid(ad.spmm(pair, x))), {"x": x})

    def test_transpose(self, float64_mode):
        rng = np.random.default_rng(12)
        a = ad.constant(rng.normal(size=(5, 4)))
        c = ad.constant(rng.normal(size=(4, 5)))
        self.check(lambda: ad.mean_all(ad.hadamard(ad.transpose(a), c)), {"a": a})

    def test_add_sub_scale(self, float64_mode):
        rng = np.random.default_rng(13)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 4)))
        self.check(
            lambda: ad.mean_all(ad.sigmoid(ad.scale(ad.sub(ad.add(a, b), b), 1.7))),
            {"a": a, "b": b})

    def test_hadamard(self, float64_mode):
        rng = np.random.default_rng(14)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.mean_all(ad.hadamard(a, b)), {"a": a, "b": b})

    def test_add_bias(self, float64_mode):
        rng = np.random.default_rng(15)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(1, 4)))
        self.check(lambda: ad.mean_all(ad.sigmoid(ad.add_bias(a, b))), {"a": a, "b": b})

    def test_concat_slice(self, float64_mode):
        rng = np.random.default_rng(16)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 2)))

        def build():
            cat = ad.concat_cols(a, b)
            return ad.mean_all(ad.hadamard(ad.slice_cols(cat, 1, 5), ad.slice_cols(cat, 1, 5)))

        self.check(build, {"a": a, "b": b})

    def test_gather_rows(self, float64_mode):
        rng = np.random.default_rng(17)
        a = ad.constant(rng.normal(size=(5, 4)))
        idx = np.array([0, 2, 2, 4])
        self.check(lambda: ad.mean_all(ad.sigmoid(ad.gather_rows(a, idx))), {"a": a})

    def test_row_sum_mean_sum(self, float64_mode):
        rng = np.random.default_rng(18)
        a = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.mean_all(ad.row_sum(a)), {"a": a})
        self.check(lambda: ad.scale(ad.sum_all(ad.sigmoid(a)), 0.1), {"a": a})

    def test_sigmoid(self, float64_mode):
        rng = np.random.default_rng(19)
        a = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.mean_all(ad.sigmoid(a)), {"a": a})

    def test_leaky_relu(self, float64_mode):
        rng = np.random.default_rng(20)
        # keep inputs away from the kink so finite differences are smooth
        vals = rng.normal(size=(5, 4))
        vals += np.where(vals >= 0, 0.2, -0.2)
        a = ad.constant(vals)
        self.check(lambda: ad.mean_all(ad.leaky_relu(a, 0.5)), {"a": a})

    def test_hinge(self, float64_mode):
        rng = np.random.default_rng(21)
        vals = rng.normal(size=(5, 4))
        vals += np.where(vals >= 0, 0.2, -0.2)
        a = ad.constant(vals)
        self.check(lambda: ad.mean_all(ad.hinge(a)), {"a": a})

    def test_dot_rows(self, float64_mode):
        rng = np.random.default_rng(22)
        a = ad.constant(rng.normal(size=(5, 4)))
        b = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.mean_all(ad.sigmoid(ad.dot_rows(a, b))), {"a": a, "b": b})

    def test_tensor_contract(self, float64_mode):
        rng = np.random.default_rng(23)
        t3 = ad.constant(rng.normal(size=(20, 3)))
        v = ad.constant(rng.normal(size=(3, 1)))
        self.check(
            lambda: ad.mean_all(ad.sigmoid(ad.tensor_contract(t3, v, out_rows=5))),
            {"t3": t3, "v": v})

    def test_add_scalar(self, float64_mode):
        rng = np.random.default_rng(24)
        a = ad.constant(rng.normal(size=(5, 4)))
        self.check(lambda: ad.mean_all(ad.sigmoid(ad.add_scalar(a, 0.3))), {"a": a})

    def test_scale_by_constant_array(self, float64_mode):
        rng = np.random.default_rng(26)
        a = ad.constant(rng.normal(size=(5, 4)))
        mask = rng.random((5, 4))
        self.check(lambda: ad.mean_all(ad.sigmoid(ad.scale(a, mask))), {"a": a})

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_linear_attention(self, float64_mode, heads):
        rng = np.random.default_rng(27)
        q = ad.constant(rng.normal(size=(3, 8)) * 0.5)
        k = ad.constant(rng.normal(size=(5, 8)) * 0.5)
        v = ad.constant(rng.normal(size=(5, 8)) * 0.5)
        self.check(
            lambda: ad.mean_all(ad.sigmoid(ad.linear_attention(q, k, v, heads))),
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
            return ad.mean_all(ad.hinge(ad.add_scalar(ad.scale(scores, -1.0), 1.0)))

        self.check(build, {"e": e, "w": w, "b": b})

    def test_constant_function_exact_zero(self, float64_mode):
        a = ad.constant(np.ones((5, 4)))
        c = ad.constant(np.full((1, 1), 2.0))
        report = ad.grad_check(lambda: ad.scale(c, 1.0), {"a": a}, epsilon=self.EPS)
        assert report.errors["a"] == 0.0


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

    def test_leaky_relu_slope_precondition(self):
        a = ad.constant(np.ones((2, 2)))
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(a, 0.0)

    def test_checked_mode_rejects_nonfinite(self):
        ad.set_checked(True)
        try:
            with pytest.raises(ad.NonFiniteError):
                ad.constant(np.array([[np.nan, 1.0]]))
            a = ad.constant(np.ones((2, 2)))
            a.value[0, 0] = np.inf
            with pytest.raises(ad.NonFiniteError):
                ad.add(a, a)
        finally:
            ad.set_checked(False)

    def test_grad_check_requires_float64(self):
        a = ad.constant(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            ad.grad_check(lambda: ad.mean_all(a), {"a": a})
