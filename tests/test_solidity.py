"""Meta-network weight generation, solidity labels, and the ranking loss."""

import numpy as np
import pytest

from hypercf import autodiff as ad
from hypercf import solidity as S


def leak(x, slope=0.5):
    return np.where(x > 0, x, slope * x)


def swap_v1(v1):
    """Swap the first two index axes of a (d*d) x d contraction tensor:
    the paper's layout, where row i*d + j adapts W[i, j], to the stored
    right factor's, where row j*d + i does, and back."""
    d = v1.shape[1]
    return v1.reshape(d, d, d).transpose(1, 0, 2).reshape(d * d, d)


def make_meta(d, rng):
    """Weights drawn in the paper's W @ e orientation, handed to the
    program as the right factors it stores."""
    return S.MetaNetParams(
        v1=ad.constant(swap_v1(rng.normal(size=(d * d, d)))),
        w0=ad.constant(rng.normal(size=(d, d)).T),
        v2=ad.constant(rng.normal(size=(d, d))),
        b0=ad.constant(rng.normal(size=(1, d))))


def make_head(d, rng):
    return S.SolidityHead(
        d_vec=ad.constant(rng.normal(size=(d, 1))),
        t=ad.constant(rng.normal(size=(d, 2 * d)).T),
        c=ad.constant(rng.normal(size=(1, d))))


class TestMetaTransform:
    def test_identity_configuration(self, float64_mode):
        d = 4
        p = S.MetaNetParams(v1=ad.constant(np.zeros((d * d, d))),
                            w0=ad.constant(np.eye(d)),
                            v2=ad.constant(np.zeros((d, d))),
                            b0=ad.constant(np.zeros((1, d))))
        x = np.abs(np.random.default_rng(2).normal(size=(3, d)))
        z = ad.constant(np.random.default_rng(3).normal(size=(5, d)))
        out = S.meta_transform(ad.constant(x), z, p, 0.5)
        np.testing.assert_allclose(out.value, x, rtol=1e-12)

    def test_zero_summary_gives_base_weights(self, float64_mode):
        d = 4
        rng = np.random.default_rng(4)
        p = make_meta(d, rng)
        x = rng.normal(size=(3, d))
        z = ad.constant(np.zeros((2, d)))  # mean pooling gives 0
        out = S.meta_transform(ad.constant(x), z, p, 0.5)
        w0 = p.w0.value.T  # the paper's W0
        expect = leak(x @ w0.T + p.b0.value)
        np.testing.assert_allclose(out.value, expect, rtol=1e-12)

    def test_loop_contraction_oracle(self, float64_mode):
        d = 4
        rng = np.random.default_rng(5)
        p = make_meta(d, rng)
        x = rng.normal(size=(3, d))
        z_table = rng.normal(size=(6, d))
        out = S.meta_transform(ad.constant(x), ad.constant(z_table), p, 0.5)
        v1, w0 = swap_v1(p.v1.value), p.w0.value.T  # the paper's layout

        z_bar = z_table.mean(axis=0)
        w = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    w[i, j] += v1[i * d + j, k] * z_bar[k]
        w += w0
        b = p.v2.value @ z_bar + p.b0.value[0]
        expect = np.stack([leak(w @ x[r] + b) for r in range(3)])
        np.testing.assert_allclose(out.value, expect, rtol=1e-9)

    def test_plain_transform_skips_adaptation(self, float64_mode):
        d = 4
        rng = np.random.default_rng(6)
        p = make_meta(d, rng)
        p = S.MetaNetParams(v1=None, w0=p.w0, v2=None, b0=p.b0)
        x = rng.normal(size=(3, d))
        # the meta-network ablation never reads the hyperedge summary
        z = ad.constant(np.full((5, d), np.nan))
        out = S.meta_transform(ad.constant(x), z, p, 0.5)
        w0 = p.w0.value.T  # the paper's W0
        np.testing.assert_allclose(
            out.value, leak(x @ w0.T + p.b0.value), rtol=1e-12)

    def test_shape_mismatch(self, float64_mode):
        p = make_meta(4, np.random.default_rng(7))
        with pytest.raises(ad.ShapeMismatchError, match="meta_transform"):
            S.meta_transform(ad.constant(np.zeros((2, 5))),
                             ad.constant(np.zeros((3, 4))), p, 0.5)


class TestSolidityLabel:
    def test_zero_head_vector_gives_half(self, float64_mode):
        d = 4
        rng = np.random.default_rng(8)
        head = make_head(d, rng)
        head.d_vec = ad.constant(np.zeros((d, 1)))
        s = S.solidity_label(ad.constant(rng.normal(size=(5, d))),
                            ad.constant(rng.normal(size=(5, d))), head, 0.5)
        np.testing.assert_array_equal(s.value, np.full((5, 1), 0.5))

    def test_open_unit_interval(self, float64_mode):
        # moderate inputs: float64 rounds sigmoid to exactly 1.0 above ~37
        rng = np.random.default_rng(9)
        head = make_head(6, rng)
        s = S.solidity_label(ad.constant(rng.normal(size=(40, 6)) * 0.5),
                            ad.constant(rng.normal(size=(40, 6)) * 0.5), head,
                            0.5)
        assert (s.value > 0).all() and (s.value < 1).all()

    def test_symmetric_blocks_commute(self, float64_mode):
        d = 4
        rng = np.random.default_rng(10)
        head = make_head(d, rng)
        block = rng.normal(size=(d, d))
        head.t = ad.constant(np.concatenate([block, block], axis=1).T)
        a = ad.constant(rng.normal(size=(6, d)))
        b = ad.constant(rng.normal(size=(6, d)))
        np.testing.assert_allclose(
            S.solidity_label(a, b, head, 0.5).value,
            S.solidity_label(b, a, head, 0.5).value, rtol=1e-12)

    def test_formula_against_loops(self, float64_mode):
        d = 4
        rng = np.random.default_rng(11)
        head = make_head(d, rng)
        ga = rng.normal(size=(3, d))
        gb = rng.normal(size=(3, d))
        s = S.solidity_label(ad.constant(ga), ad.constant(gb), head, 0.5)
        t = head.t.value.T  # the paper's d x 2d T
        for r in range(3):
            inner = t @ np.concatenate([ga[r], gb[r]]) \
                + ga[r] + gb[r] + head.c.value[0]
            expect = 1.0 / (1.0 + np.exp(-(head.d_vec.value[:, 0] @ leak(inner))))
            assert abs(s.value[r, 0] - expect) < 1e-10


class TestPredictAndLoss:
    def col(self, *vals):
        return ad.constant(np.array(vals, dtype=np.float64).reshape(-1, 1))

    def test_hinge_closed(self, float64_mode):
        # prediction gap 1 with label gap 1: the margin is met exactly
        loss = S.sa_loss(self.col(1.0), self.col(0.0),
                         self.col(1.0), self.col(0.0))
        assert loss.value[0, 0] == 0.0

    def test_arithmetic_case(self, float64_mode):
        # gap product 0.5 * (-2) = -1, so the term is 1 - (-1) = 2
        loss = S.sa_loss(self.col(0.5), self.col(0.0),
                         self.col(-1.0), self.col(1.0))
        assert loss.value[0, 0] == 2.0

    def test_equal_labels_give_unit_term_zero_grad(self, float64_mode):
        pred_1, pred_2 = self.col(0.7), self.col(0.1)
        with ad.recording():
            loss = S.sa_loss(pred_1, pred_2, self.col(0.4), self.col(0.4))
        assert loss.value[0, 0] == 1.0
        ad.backward(loss)
        assert not pred_1.grad.any() and not pred_2.grad.any()

    def test_gradient_proportional_to_label_gap(self, float64_mode):
        pred_1, pred_2 = self.col(0.2), self.col(0.1)
        label_1, label_2 = self.col(0.9), self.col(0.3)
        with ad.recording():
            loss = S.sa_loss(pred_1, pred_2, label_1, label_2)
        ad.backward(loss)
        # active hinge: d/d pred_1 = -(label gap)
        np.testing.assert_allclose(pred_1.grad, [[-0.6]], rtol=1e-12)
        np.testing.assert_allclose(pred_2.grad, [[0.6]], rtol=1e-12)

    def test_pair_swap_invariance(self, float64_mode):
        rng = np.random.default_rng(13)
        p1, p2 = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        l1, l2 = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        a = S.sa_loss(ad.constant(p1), ad.constant(p2),
                      ad.constant(l1), ad.constant(l2))
        b = S.sa_loss(ad.constant(p2), ad.constant(p1),
                      ad.constant(l2), ad.constant(l1))
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12)

    def test_nonnegative_terms(self, float64_mode):
        rng = np.random.default_rng(14)
        loss = S.sa_loss(ad.constant(rng.normal(size=(20, 1))),
                         ad.constant(rng.normal(size=(20, 1))),
                         ad.constant(rng.uniform(size=(20, 1))),
                         ad.constant(rng.uniform(size=(20, 1))))
        assert loss.value[0, 0] >= 0.0

    def test_grad_check_full_branch(self, float64_mode):
        d = 4
        rng = np.random.default_rng(15)
        meta = make_meta(d, rng)
        head = make_head(d, rng)
        keys_u = ad.constant(rng.normal(size=(5, d)) * 0.5)
        keys_v = ad.constant(rng.normal(size=(4, d)) * 0.5)
        z_u = ad.constant(rng.normal(size=(3, d)) * 0.5)
        embed_u = ad.constant(rng.normal(size=(5, d)) * 0.5)
        embed_v = ad.constant(rng.normal(size=(4, d)) * 0.5)
        uu = np.array([0, 1, 2])
        vv = np.array([0, 1, 3])
        uu2 = np.array([4, 3, 2])
        vv2 = np.array([2, 0, 1])

        def build():
            gamma_u = S.meta_transform(keys_u, z_u, meta, 0.5)
            gamma_v = S.meta_transform(keys_v, z_u, meta, 0.5)
            lab1 = S.solidity_label(ad.gather_rows(gamma_u, uu),
                                    ad.gather_rows(gamma_v, vv), head, 0.5)
            lab2 = S.solidity_label(ad.gather_rows(gamma_u, uu2),
                                    ad.gather_rows(gamma_v, vv2), head, 0.5)
            pr1 = ad.dot_pairs(embed_u, embed_v, uu, vv)
            pr2 = ad.dot_pairs(embed_u, embed_v, uu2, vv2)
            return S.sa_loss(pr1, pr2, lab1, lab2)

        params = {"keys_u": keys_u, "keys_v": keys_v, "z_u": z_u,
                  "embed_u": embed_u, "embed_v": embed_v,
                  "v1": meta.v1, "w0": meta.w0, "v2": meta.v2, "b0": meta.b0,
                  "d_vec": head.d_vec, "t": head.t, "c": head.c}
        report = ad.grad_check(build, params, epsilon=1e-4)
        assert report.passed, str(report)
