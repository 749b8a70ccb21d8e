"""Model assembly: full-loss gradients, ablation wiring, loss arithmetic."""

import numpy as np
import pytest

from hypercf import autodiff as ad
from hypercf import data as D
from hypercf.config import Config
from hypercf.model import Model
from hypercf.rng import make_rng


def toy_setup(**overrides):
    """The small instance used for end-to-end gradient checking:
    6 users, 5 items, d=8, K=3, H=2, L=2."""
    fields = dict(d=8, hyperedges=3, heads=2, layers=2, batch=32,
                  lambda1=1e-2, lambda2=1e-4, seed=0)
    fields.update(overrides)
    cfg = Config(**fields)
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 4),
             (3, 2), (4, 3), (4, 0), (5, 1), (5, 4), (2, 2), (1, 4)]
    ds = D.InteractionDataset.from_edges(edges, 6, 5)
    adj = D.build_normalized_adjacency(ds, dtype=ad.default_dtype())
    model = Model(cfg, 6, 5)
    rng = make_rng(cfg.seed + 100)
    main = D.sample_main_pairs(ds, 6, rng)
    sal = D.sample_sal_pairs(ds, 6, rng)
    return model, adj, main, sal


class TestFullLossGradient:
    # epsilon 1e-5: small enough that finite differences never step across
    # an activation kink with a consequential value at the pinned seeds
    EPS = 1e-5

    def test_joint_mode(self, float64_mode):
        model, adj, main, sal = toy_setup()

        def build():
            return model.total_loss(model.forward(adj), main, sal)

        report = ad.grad_check(build, model.params, epsilon=self.EPS)
        assert report.passed, str(report)

    def test_joint_mode_reaches_label_branch(self, float64_mode):
        model, adj, main, sal = toy_setup()
        for p in model.params.values():
            p.zero_grad()
        with ad.recording():
            state = model.forward(adj)
            loss = model.total_loss(state, main, sal)
        ad.backward(loss)
        decay_only = 2 * model.cfg.lambda2 * model.params["sal.T"].value
        assert not np.allclose(model.params["sal.T"].grad, decay_only)


class TestLossComponents:
    def test_total_is_sum_of_parts(self, float64_mode):
        model, adj, main, sal = toy_setup()

        def grads_of(build):
            for p in model.params.values():
                p.zero_grad()
            with ad.recording():
                loss = build()
            value = loss.value[0, 0]
            ad.backward(loss)
            return value, {n: p.grad.copy() for n, p in model.params.items()}

        lam1, lam2 = model.cfg.lambda1, model.cfg.lambda2
        v_main, g_main = grads_of(
            lambda: model.main_loss(model.forward(adj), main))
        v_sa, g_sa = grads_of(lambda: model.sal_loss(model.forward(adj), sal))
        v_reg, g_reg = grads_of(model.reg_loss)
        v_tot, g_tot = grads_of(
            lambda: model.total_loss(model.forward(adj), main, sal))

        assert abs(v_tot - (v_main + lam1 * v_sa + lam2 * v_reg)) < 1e-9
        for name in model.params:
            combined = g_main[name] + lam1 * g_sa[name] + lam2 * g_reg[name]
            np.testing.assert_allclose(g_tot[name], combined, atol=1e-10,
                                       err_msg=name)
            # weight decay contributes exactly 2 * lambda2 * theta
            np.testing.assert_allclose(
                lam2 * g_reg[name], 2 * lam2 * model.params[name].value,
                rtol=1e-12)

    def test_main_loss_margin_values(self, float64_mode):
        # fix embeddings so the positive/negative gap takes chosen values
        cfg = Config(d=2, hyperedges=2, heads=1, layers=1, batch=32,
                     ablate=("hyper", "pos"))
        model = Model(cfg, 1, 2)
        model.params["user.embed"].value[...] = [[1.0, 0.0]]

        def loss_for(gap):
            model.params["item.embed"].value[...] = [[gap, 0.0], [0.0, 0.0]]
            batch = D.EdgePairBatch("main", np.array([0]), np.array([0]),
                                    np.array([0]), np.array([1]))
            state = model.forward(None)
            return model.main_loss(state, batch).value[0, 0]

        assert loss_for(1.0) == 0.0      # margin met
        assert loss_for(0.0) == 1.0      # equal scores
        assert loss_for(-0.5) == 1.5     # inverted by half

    def test_reg_zero_for_zero_params(self, float64_mode):
        model, _, _, _ = toy_setup()
        for p in model.params.values():
            p.value[...] = 0.0
        assert model.reg_loss().value[0, 0] == 0.0

    def test_reg_oracle_random_values(self, float64_mode):
        model, _, _, _ = toy_setup()
        expect = sum(np.sum(p.value ** 2) for p in model.params.values())
        assert abs(model.reg_loss().value[0, 0] - expect) < 1e-8


class TestAblations:
    def names(self, **overrides):
        model, _, _, _ = toy_setup(**overrides)
        return set(model.params)

    def test_hyper_strips_everything(self, float64_mode):
        assert self.names(ablate=("hyper",)) == {"user.embed", "item.embed"}

    def test_trans_swaps_attention_for_incidence(self, float64_mode):
        names = self.names(ablate=("trans",))
        assert "user.hyper.incidence" in names
        assert not any(".hyper.Z" in n or ".hyper.K" in n for n in names)

    def test_deeph_removes_second_mixing(self, float64_mode):
        names = self.names(ablate=("deeph",))
        assert "user.hyper.H1" in names and "user.hyper.H2" not in names

    def test_highh_forces_single_layer(self, float64_mode):
        model, _, _, _ = toy_setup(ablate=("highh",), layers=3)
        assert model.cfg.effective_layers == 1

    def test_sal_strips_label_machinery(self, float64_mode):
        names = self.names(ablate=("sal",))
        assert not any(n.startswith("sal.") or ".meta." in n for n in names)
        model, _, _, _ = toy_setup(ablate=("sal",))
        assert model.cfg.effective_lambda1 == 0.0

    def test_meta_uses_plain_perceptron(self, float64_mode):
        names = self.names(ablate=("meta",))
        assert "user.meta.W0" in names and "user.meta.V1" not in names

    def test_pos_skips_topology(self, float64_mode):
        model, adj, _, _ = toy_setup(ablate=("pos",))
        with ad.recording(False):
            state = model.forward(adj)
        np.testing.assert_array_equal(state.fused_user.value,
                                      model.params["user.embed"].value)

    def test_ablated_variants_train_one_step(self, float64_mode):
        # every variant builds a finite differentiable loss
        for flag in ("pos", "trans", "deeph", "highh", "hyper", "meta", "sal"):
            model, adj, main, sal = toy_setup(ablate=(flag,))
            with ad.recording():
                state = model.forward(adj)
                loss = model.total_loss(
                    state, main, sal if model.supports_solidity else None)
            assert np.isfinite(loss.value[0, 0]), flag
            ad.backward(loss)
            assert model.params["user.embed"].grad.any(), flag

    def test_trans_grad_check(self, float64_mode):
        # seed pinned away from leaky-relu kink crossings at this step size
        model, adj, main, sal = toy_setup(ablate=("trans",), seed=6)

        def build():
            return model.total_loss(model.forward(adj), main, sal)

        report = ad.grad_check(build, model.params, epsilon=1e-5)
        assert report.passed, str(report)


class TestInference:
    def test_tables_are_tape_free(self, float64_mode):
        model, adj, _, _ = toy_setup()
        u, v = model.embedding_tables(adj)
        assert u.shape == (6, 8) and v.shape == (5, 8)
        assert ad.tape_size() == 0

    def test_solidity_scores_in_range(self, float64_mode):
        model, adj, _, _ = toy_setup()
        edges = np.array([[0, 0], [1, 2], [5, 4]])
        s = model.solidity_of_edges(adj, edges)
        assert s.shape == (3,) and ((s > 0) & (s < 1)).all()
        assert ad.tape_size() == 0

    def test_solidity_raises_when_ablated(self, float64_mode):
        model, adj, _, _ = toy_setup(ablate=("sal",))
        with pytest.raises(RuntimeError, match="ablation"):
            model.solidity_of_edges(adj, np.array([[0, 0]]))

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.75])
    def test_dropout_mask_is_a_plain_array(self, rate):
        # same draw, same float32 values as keep / (1 - rate)
        model, _, _, _ = toy_setup(dropout=rate)
        rng, twin = make_rng(5), make_rng(5)
        mask = model._dropout_fn(True, rng)((7, 8))
        keep = (twin.random((7, 8)) >= rate).astype(np.float32)
        expect = keep / (1.0 - rate)
        assert type(mask) is np.ndarray and mask.dtype == np.float32
        assert np.array_equal(mask.view(np.uint32), expect.view(np.uint32))
        assert rng.random() == twin.random()

    def test_dropout_training_only(self, float64_mode):
        model, adj, _, _ = toy_setup(dropout=0.5)
        with ad.recording(False):
            eval_a = model.forward(adj, training=False)
            eval_b = model.forward(adj, training=False)
            train = model.forward(adj, training=True, dropout_rng=make_rng(3))
        np.testing.assert_array_equal(eval_a.final_user.value,
                                      eval_b.final_user.value)
        assert not np.array_equal(train.final_user.value,
                                  eval_a.final_user.value)
