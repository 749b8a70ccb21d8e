"""Model assembly: full-loss gradients, ablation wiring, loss arithmetic."""

import inspect

import numpy as np
import pytest
from numpy.random import default_rng

from hypercf import autodiff as ad
from hypercf import data as D
from hypercf import solidity
from hypercf import transformer as T
from hypercf.config import Config
from hypercf.model import Model


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
    rng = default_rng(cfg.seed + 100)
    main = D.sample_main_pairs(ds, 6, rng, users=np.arange(6))
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


# public autodiff functions that record no tape node
NON_RECORDING = frozenset({
    "constant", "parameter", "matrix", "linear_attention_value", "grad_check",
    "backward", "set_default_dtype", "default_dtype", "tape_size",
    "clear_tape"})


class TestPrimitiveCoverage:
    def test_one_step_records_every_primitive(self, float64_mode):
        # a primitive no model step records is dead code in the autodiff
        model, adj, main, sal = toy_setup()
        with ad.recording():
            loss = model.total_loss(model.forward(adj), main, sal)
        recorded, seen, stack = set(), set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.op != "leaf":
                recorded.add(node.op)
            stack.extend(node.parents)
        public = {name for name, value in vars(ad).items()
                  if inspect.isfunction(value) and not name.startswith("_")
                  and value.__module__ == ad.__name__}
        assert NON_RECORDING <= public
        assert recorded == public - NON_RECORDING
        assert len(recorded) == 20


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
            batch = D.EdgePairBatch(np.array([0]), np.array([0]),
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
        assert not model.supports_solidity

    def test_meta_uses_plain_perceptron(self, float64_mode):
        names = self.names(ablate=("meta",))
        assert "user.meta.W0" in names and "user.meta.V1" not in names

    def test_pos_skips_topology(self, float64_mode):
        model, adj, _, _ = toy_setup(ablate=("pos",))
        with ad.recording(False):
            state = model.forward(adj)
        np.testing.assert_array_equal(state["user"].fused.value,
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


# registry name suffix -> field of the view that holds it
VIEW_FIELDS = {"hyper": {"Z": "z", "K": "k_map", "V": "v_map", "H1": "h1",
                         "H2": "h2", "incidence": "incidence"},
               "meta": {"V1": "v1", "W0": "w0", "V2": "v2", "b0": "b0"}}


class TestParameterViews:
    @staticmethod
    def views_of(model):
        out = {}
        for side in ("user", "item"):
            for group, names in VIEW_FIELDS.items():
                view = getattr(model, group)[side]
                for name, attr in names.items():
                    out[f"{side}.{group}.{name}"] = getattr(view, attr)
        for name, attr in (("d", "d_vec"), ("T", "t"), ("c", "c")):
            out[f"sal.{name}"] = getattr(model.head, attr)
        return out

    @pytest.mark.parametrize("flags", [(), ("trans",), ("deeph",), ("meta",),
                                       ("sal",), ("hyper",)],
                             ids=lambda flags: ",".join(flags) or "default")
    def test_views_are_the_registry_tensors(self, flags):
        model, _, _, _ = toy_setup(ablate=flags)
        views = self.views_of(model)
        for name, tensor in model.params.items():
            if not name.endswith(".embed"):
                assert views[name] is tensor, name
        assert all(views[name] is None for name in views
                   if name not in model.params)


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
        # a bool keep-mask from the same draw; scaling by it gives the bits
        # of the float32 mask keep / (1 - rate), forward and VJP, zero signs
        # included
        model, _, _, _ = toy_setup(dropout=rate)
        rng, twin = default_rng(5), default_rng(5)
        kept, keep = model._dropout_fn(True, rng)((7, 8))
        expect = twin.random((7, 8)) >= rate
        mask = expect.astype(np.float32) / (1.0 - rate)
        assert type(keep) is np.ndarray and keep.dtype == np.bool_
        assert np.array_equal(keep, expect)
        assert rng.random() == twin.random()
        values = twin.normal(size=(7, 8))
        values[0, :4] = [0.0, -0.0, np.inf, -np.inf]
        x = ad.constant(values, dtype=np.float32)
        w = ad.constant(twin.normal(size=(7, 8)), dtype=np.float32)
        x.grad = None  # adopts the VJP's array: no += onto zeros
        # inf times a dropped entry is nan on both sides
        with np.errstate(invalid="ignore"), ad.recording():
            out = ad.scale(x, kept, keep)
            ad.backward(ad.sum_all(ad.hadamard(out, w)))
            want = x.value * mask
        assert np.array_equal(out.value.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(x.grad.view(np.uint32),
                              (w.value * mask).view(np.uint32))
        assert np.signbit(x.grad[~keep]).any()  # a dropped negative weight

    def test_dropout_training_only(self, float64_mode):
        model, adj, _, _ = toy_setup(dropout=0.5)
        with ad.recording(False):
            eval_a = model.forward(adj, training=False)
            eval_b = model.forward(adj, training=False)
            train = model.forward(adj, training=True,
                                  dropout_rng=default_rng(3))
            finals = [model.final_rows(s, "user", np.arange(6)).value
                      for s in (eval_a, eval_b, train)]
        np.testing.assert_array_equal(finals[0], finals[1])
        assert not np.array_equal(finals[2], finals[0])


# batches that touch some rows of each side, some of them twice
SUBSET_MAIN = D.EdgePairBatch(np.array([0, 2, 2, 5]), np.array([0, 0, 3, 1]),
                              np.array([0, 2, 2, 5]), np.array([2, 1, 1, 0]))
SUBSET_SAL = D.EdgePairBatch(np.array([1, 3, 3]), np.array([1, 4, 2]),
                             np.array([4, 1, 2]), np.array([3, 2, 4]))


def full_table_loss(model, state, main, sal):
    """Total loss with every final and adapted-key row computed first and
    the pairs gathered from those whole tables."""
    user = model.final_rows(state, "user", np.arange(model.num_users))
    item = model.final_rows(state, "item", np.arange(model.num_items))
    loss = solidity.margin_loss(ad.sub(
        model.dot_pairs(user, item, main.u1, main.v1),
        model.dot_pairs(user, item, main.u2, main.v2)))
    if model.supports_solidity:
        slope = model.cfg.slope
        gammas = []
        for side in ("user", "item"):
            s, p = state[side], model.meta[side]
            keys = (s.fused if s.key_map is None
                    else ad.matmul(s.fused, s.key_map))
            gammas.append(solidity.plain_transform(keys, p, slope)
                          if "meta" in model.ablations else
                          solidity.meta_transform(keys, s.zsrc, p, slope))
        labels = [solidity.solidity_label(
            ad.gather_rows(gammas[0], u), ad.gather_rows(gammas[1], v),
            model.head, slope)
            for u, v in ((sal.u1, sal.v1), (sal.u2, sal.v2))]
        preds = [model.dot_pairs(state["user"].fused, state["item"].fused,
                                 u, v)
                 for u, v in ((sal.u1, sal.v1), (sal.u2, sal.v2))]
        sal_loss = solidity.sa_loss(*preds, *labels)
        loss = ad.add(loss, ad.scale(sal_loss, model.cfg.lambda1))
    return ad.add(loss, ad.scale(model.reg_loss(), model.cfg.lambda2))


class TestGatheredReadout:
    CASES = {"default": {}, "layers=1": {"layers": 1},
             "layers=3": {"layers": 3},
             **{flag: {"ablate": (flag,)} for flag in
                ("pos", "trans", "deeph", "highh", "hyper", "meta", "sal")}}

    @staticmethod
    def loss_and_grads(model, adj, training, seed, build):
        for p in model.params.values():
            p.zero_grad()
        rng = default_rng(seed) if training else None
        with ad.recording():
            state = model.forward(adj, training=training, dropout_rng=rng)
            loss = build(state)
        ad.backward(loss)
        return loss.value[0, 0], {n: p.grad.copy()
                                  for n, p in model.params.items()}

    @pytest.mark.parametrize("training", [False, True],
                             ids=["eval", "dropout"])
    @pytest.mark.parametrize("overrides", CASES.values(), ids=CASES)
    def test_matches_full_table_path(self, float64_mode, overrides, training):
        model, adj, _, _ = toy_setup(**overrides)
        sal = SUBSET_SAL if model.supports_solidity else None
        v_rows, g_rows = self.loss_and_grads(
            model, adj, training, 3,
            lambda state: model.total_loss(state, SUBSET_MAIN, sal))
        v_full, g_full = self.loss_and_grads(
            model, adj, training, 3,
            lambda state: full_table_loss(model, state, SUBSET_MAIN, sal))
        assert v_rows == pytest.approx(v_full, rel=1e-12)
        for name in model.params:
            np.testing.assert_allclose(g_rows[name], g_full[name],
                                       rtol=1e-10, atol=1e-14, err_msg=name)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_rng_advances_by_full_mask_draws(self, float64_mode, layers):
        model, adj, _, _ = toy_setup(dropout=0.25, layers=layers)
        rng, twin = default_rng(9), default_rng(9)
        with ad.recording():
            state = model.forward(adj, training=True, dropout_rng=rng)
            model.total_loss(state, SUBSET_MAIN, SUBSET_SAL)
        for rows in (6, 5):
            for _ in range(layers):
                twin.random((rows, model.cfg.d))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_no_full_side_rows_after_last_hhgn(self, float64_mode,
                                               monkeypatch):
        # after the last hyperedge mixing, a training step works on the
        # batch's rows only; a full-side activation here means the last
        # layer, the key map or the key adaptation ran over the whole table
        # again
        model, adj, _, _ = toy_setup()
        events = []

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                events.append((name, out.rows, args))
                return out
            return wrapper

        monkeypatch.setattr(T, "hhgn", logged("hhgn", T.hhgn))
        for name in ("leaky_relu", "scale", "matmul", "gram"):
            monkeypatch.setattr(ad, name, logged(name, getattr(ad, name)))
        with ad.recording():
            state = model.forward(adj, training=True,
                                  dropout_rng=default_rng(2))
            loss = model.total_loss(state, SUBSET_MAIN, SUBSET_SAL)
        ad.backward(loss)
        last = max(i for i, (name, *_) in enumerate(events)
                   if name == "hhgn")
        tail = events[last + 1:]
        maps = [state[side].tail.m for side in ("user", "item")]
        readouts = [rows for name, rows, args in tail
                    if name == "matmul" and any(args[1] is m for m in maps)]
        # the distinct users and items of SUBSET_MAIN
        assert readouts == [3, 4]
        full = {model.num_users, model.num_items}
        assert not [event[:2] for event in tail if event[1] in full], tail
