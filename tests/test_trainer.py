"""Optimizer, training loop, and checkpoint round trips."""

import json
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import default_rng

from hypercf import autodiff as ad
from hypercf import data as D
from hypercf import evaluation as E
from hypercf import trainer as T
from hypercf.config import Config
from hypercf.model import Model
from hypercf.rng import STREAM_TRAIN, spawn_rng


def edit_record(change):
    """A header edit that applies ``change`` to the decoded JSON record."""
    def edit(header):
        record = json.loads(header)
        change(record)
        return json.dumps(record).encode("utf-8")
    return edit


def rewrite_header(path, edit):
    """Rewrite a checkpoint with ``edit`` applied to its JSON header."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(T.MAGIC) + 4
    end = start + int.from_bytes(data[len(T.MAGIC):start], "little")
    header = edit(data[start:end])
    with open(path, "wb") as fh:
        fh.write(T.MAGIC + len(header).to_bytes(4, "little") + header
                 + data[end:])


def set_first_shape(value):
    return edit_record(lambda r: r["layout"][0].__setitem__(1, value))


def small_setup(seed=0, **overrides):
    """Block dataset small enough for a few-second training run."""
    fields = dict(d=8, hyperedges=4, heads=2, layers=2, batch=32,
                  lambda1=1e-2, lambda2=1e-4, epochs=3, seed=seed)
    fields.update(overrides)
    cfg = Config(**fields)
    ds = D.synthetic_blocks(num_users=48, num_items=24, num_blocks=4,
                            edges_per_user=6, seed=seed)
    splits = D.split(ds, seed)
    adj = D.build_normalized_adjacency(splits.train, dtype=ad.default_dtype())
    model = Model(cfg, ds.num_users, ds.num_items)
    return model, adj, splits


class Crash(Exception):
    """Raised from a log_fn to stop a run the way a crash would."""


def interrupted_fit(model, adj, splits, out_dir, epoch):
    """Fit until ``log_fn`` sees ``epoch``'s row and crash there; returns
    the rows logged before it. last.ckpt then holds epoch - 1."""
    rows = []

    def log(row):
        if row["epoch"] == epoch:
            raise Crash
        rows.append(row)

    with pytest.raises(Crash):
        T.fit(model, adj, splits, out_dir=out_dir, log_fn=log)
    return rows


def tiny_graph(**overrides):
    fields = dict(d=4, hyperedges=2, heads=2, layers=1, batch=32,
                  lambda1=1e-2, lambda2=1e-4, seed=0)
    fields.update(overrides)
    cfg = Config(**fields)
    edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 4),
             (3, 2), (4, 3), (4, 0), (5, 1), (5, 4)]
    ds = D.InteractionDataset.from_edges(edges, 6, 5)
    adj = D.build_normalized_adjacency(ds, dtype=ad.default_dtype())
    model = Model(cfg, 6, 5)
    rng = default_rng(17)
    main = D.sample_main_pairs(ds, 6, rng, users=np.arange(6))
    sal = D.sample_sal_pairs(ds, 6, rng)
    return model, adj, main, sal


def assert_packed(model):
    """Every registry tensor's value and grad are views into the store's
    flat vectors, back to back in sorted-name order."""
    flat = model.params.flat
    vectors = flat.value.reshape(-1), flat.grad.reshape(-1)
    start = 0
    for name in sorted(model.params):
        p = model.params[name]
        stop = start + p.value.size
        for view, vector in zip((p.value, p.grad), vectors):
            assert view.base is vector.base, name
            assert view.ctypes.data == vector[start:].ctypes.data, name
        start = stop
    assert start == vectors[0].size


class TestLearningRate:
    def test_schedule_closed_form(self):
        for n in range(31):
            assert T.learning_rate(1e-3, 0.96, n) == 1e-3 * 0.96 ** n
        assert T.learning_rate(1e-3, 0.96, 0) == 1e-3

    def test_train_epoch_applies_schedule(self):
        model, adj, splits = small_setup()
        opt = T.Adam(model.params, lr=model.cfg.lr)
        rng = spawn_rng(0, STREAM_TRAIN)
        row = T.train_epoch(model, adj, splits.train, opt, rng, epoch=3)
        assert opt.lr == 1e-3 * 0.96 ** 3
        assert row["lr"] == opt.lr


class TestAdam:
    def test_first_step_bound_on_quadratic_bowl(self, float64_mode):
        # f(x) = 0.5 ||x - c||^2, gradient x - c
        rng = default_rng(0)
        params = ad.Store({"x": rng.normal(0, 2, size=(3, 4))})
        x = params["x"]
        c = rng.normal(0, 2, size=(3, 4))
        lr = 0.01
        opt = T.Adam(params, lr=lr)
        before = x.value.copy()
        x.grad[...] = before - c
        opt.step(params)
        delta = x.value - before
        # every coordinate moves toward the minimum, by at most lr
        assert (np.sign(delta) == -np.sign(before - c)).all()
        assert np.abs(delta).max() <= lr * (1 + 1e-12)

    def test_converges_on_bowl(self):
        params = ad.Store({"x": np.full((2, 2), 5.0)})
        x = params["x"]
        c = np.array([[1.0, -2.0], [0.5, 3.0]])
        opt = T.Adam(params, lr=0.05)
        for _ in range(800):
            x.grad[...] = x.value - c
            opt.step(params)
        assert np.abs(x.value - c).max() < 1e-2

    def test_matches_scalar_oracle(self, float64_mode):
        # independent reimplementation with plain python floats
        grads = [0.3, -1.2, 0.05, 0.7, -0.01]
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta, m, v = 2.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * mhat / (math.sqrt(vhat) + eps)

        params = ad.Store({"x": np.array([[2.0]])})
        x = params["x"]
        opt = T.Adam(params, lr=lr)
        for g in grads:
            x.grad[...] = g
            opt.step(params)
        assert x.value.item() == pytest.approx(theta, abs=1e-14)

    def test_bit_identical_to_allocating_formula(self):
        # the update written with temporaries, as before the scratch buffers
        rng = default_rng(4)
        shapes = {"a": (4, 3), "b": (1, 7), "c": (60, 5)}
        params = ad.Store({n: rng.normal(size=s).astype(np.float32)
                           for n, s in shapes.items()})
        ref = {n: p.value.copy() for n, p in params.items()}
        m = {n: np.zeros_like(v) for n, v in ref.items()}
        v = {n: np.zeros_like(val) for n, val in ref.items()}
        opt = T.Adam(params, lr=3e-3)
        b1, b2, eps, lr = T.BETA1, T.BETA2, T.EPS, opt.lr
        for step in range(1, 7):
            for p in params.values():
                scale = 10.0 ** rng.integers(-4, 4, size=p.value.shape)
                p.grad[...] = rng.normal(size=p.value.shape) * scale
                p.grad[0, 0] = 0.0
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for n in sorted(params):
                g = params[n].grad
                m[n] *= b1
                m[n] += (1.0 - b1) * g
                v[n] *= b2
                v[n] += (1.0 - b2) * np.square(g)
                ref[n] -= lr * (m[n] / c1) / (np.sqrt(v[n] / c2) + eps)
            opt.step(params)
            moments_m = opt.params.views(opt.m)
            moments_v = opt.params.views(opt.v)
            for n, p in params.items():
                assert p.value.dtype == np.float32
                assert np.array_equal(p.value.view(np.uint32),
                                      ref[n].view(np.uint32)), (step, n)
                assert np.array_equal(moments_m[n].view(np.uint32),
                                      m[n].view(np.uint32))
                assert np.array_equal(moments_v[n].view(np.uint32),
                                      v[n].view(np.uint32))

    def test_owns_only_the_moments(self):
        # m and v over the packed vector and nothing else: a step's scratch
        # pair is freed when the step returns
        rng = default_rng(5)
        shapes = {"a": (300, 16), "b": (1, 16), "c": (40, 16)}
        params = ad.Store({n: rng.normal(size=s) for n, s in shapes.items()})
        tracemalloc.start()
        try:
            opt = T.Adam(params, lr=1e-3)
            for _ in range(2):
                for p in params.values():
                    p.grad[...] = rng.normal(size=p.value.shape)
                opt.step(params)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert set(vars(opt)) == {"lr", "steps", "m", "v", "params"}
        moments = [opt.m, opt.v]
        assert opt.m.shape == opt.v.shape == (params.flat.value.size,)
        assert opt.m.base is None and opt.v.base is None
        assert [a.shape for vector in moments
                for a in opt.params.views(vector).values()] == \
            list(shapes.values()) * 2
        moment_bytes = sum(m.nbytes for m in moments)
        # 4 KB of room for the dicts and array headers; one scratch pair
        # alone would be 2 x 300 x 16 x 4 bytes
        assert moment_bytes <= held <= moment_bytes + 4096, held

    def test_missing_grad_means_no_motion(self):
        # a parameter the loss never reached keeps its zero grad
        params = ad.Store({"x": np.ones((2, 2))})
        x = params["x"]
        opt = T.Adam(params, lr=0.5)
        x.grad[...] = 0.0
        opt.step(params)
        assert (x.value == 1.0).all()

    def test_moment_tensors_round_trip(self):
        # each parameter's moments are its slots of m and v, written
        # through to the vectors
        params = ad.Store({"x": np.ones((2, 3))})
        opt = T.Adam(params, lr=0.1)
        params["x"].grad[...] = 0.25
        opt.step(params)
        stored = {key: opt.params.views(vector)
                  for key, vector in (("m", opt.m), ("v", opt.v))}
        assert [set(views) for views in stored.values()] == [{"x"}, {"x"}]
        assert stored["m"]["x"].all() and stored["v"]["x"].all()
        opt2 = T.Adam(params, lr=0.1)
        for key, vector in (("m", opt2.m), ("v", opt2.v)):
            opt2.params.views(vector)["x"][...] = stored[key]["x"]
        assert np.array_equal(opt2.m, opt.m)
        assert np.array_equal(opt2.v, opt.v)


class TestParameterStore:
    @pytest.mark.parametrize("flags", [(), ("trans",), ("sal",), ("hyper",)],
                             ids=lambda flags: ",".join(flags) or "default")
    def test_registry_is_packed_in_sorted_order(self, flags):
        model, _, _ = small_setup(ablate=flags)
        assert_packed(model)

    def test_still_packed_after_loading_and_resuming(self, tmp_path):
        model, adj, splits = small_setup(epochs=3)
        out = str(tmp_path / "run")
        interrupted_fit(model, adj, splits, out, epoch=2)
        best = T.load_checkpoint(os.path.join(out, "best.ckpt"))
        T.load_values(model, best.parameters())
        assert_packed(model)
        last = os.path.join(out, "last.ckpt")
        ckpt = T.load_checkpoint(last)
        built = T.build_model(ckpt)
        assert_packed(built)
        for name, p in built.params.items():
            assert np.array_equal(p.value, ckpt.parameters()[name]), name
        resumed, _ = T.resume(last, adj, splits)
        assert_packed(resumed)

    def test_adam_refuses_what_is_not_one_packed_registry(self):
        model, _, _ = small_setup()
        loose = {"x": ad.parameter(np.ones((2, 2)))}
        part = {"user.embed": model.params["user.embed"]}
        for params in (loose, part, dict(model.params)):
            with pytest.raises(ValueError, match="registry"):
                T.Adam(params, lr=0.1)
        opt = T.Adam(model.params, lr=0.1)
        # another model's store, even of the same config, is refused too
        for params in (small_setup()[0].params, dict(model.params)):
            with pytest.raises(ValueError, match="registry"):
                opt.step(params)
        assert opt.steps == 0

    def test_checkpoint_refuses_another_models_optimizer(self, tmp_path):
        model, other = small_setup()[0], small_setup()[0]
        opt = T.Adam(other.params, lr=0.1)
        path = tmp_path / "model.ckpt"
        rng = spawn_rng(0, STREAM_TRAIN)
        with pytest.raises(ValueError, match="does not update this model"):
            T.save_checkpoint(str(path), model, T.Progress(), opt, rng)
        assert not os.path.exists(path)
        T.save_checkpoint(str(path), other, T.Progress(), opt, rng)

    def test_packed_grad_is_written_in_place_not_rebound(self):
        # a rebound grad would leave the gradient vector Adam reads stale
        params = ad.Store({"x": np.zeros((2, 3))})
        x = params["x"]
        opt = T.Adam(params, lr=0.1)
        with pytest.raises(ValueError, match="in place") as caught:
            x.grad = np.full((2, 3), 0.25)
        assert repr(x) in str(caught.value)
        x.grad[...] = 0.25
        opt.step(params)
        assert (opt.m != 0).all() and (x.value < 0).all()

    def test_step_scratch_is_one_block(self):
        # the update runs block by block: a step peaks one scratch pair of
        # ad.BLOCK entries above the moments, not one of the vector's size
        rng = default_rng(6)
        params = ad.Store({n: rng.normal(size=(ad.BLOCK, 2)) for n in "abc"})
        opt = T.Adam(params, lr=1e-3)
        params.flat.grad[...] = rng.normal(size=params.flat.grad.shape)
        tracemalloc.start()
        try:
            opt.step(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ad.BLOCK * opt.m.itemsize + 4096, peak


class TestComponentGradients:
    def test_total_grad_is_sum_of_parts(self, float64_mode):
        model, adj, main, sal = tiny_graph()
        assert model.supports_solidity
        lam1 = model.cfg.lambda1
        lam2 = model.cfg.lambda2

        def grads_of(build):
            ad.clear_tape()
            for p in model.params.values():
                p.zero_grad()
            with ad.recording():
                loss = build()
            ad.backward(loss)
            return {n: (np.zeros_like(p.value) if p.grad is None
                        else p.grad.copy())
                    for n, p in model.params.items()}

        g_main = grads_of(lambda: model.main_loss(model.forward(adj), main))
        g_sal = grads_of(lambda: model.sal_loss(model.forward(adj), sal))
        g_total = grads_of(
            lambda: model.total_loss(model.forward(adj), main, sal))
        for name, p in model.params.items():
            expected = (g_main[name] + lam1 * g_sal[name]
                        + 2.0 * lam2 * p.value)
            np.testing.assert_allclose(g_total[name], expected,
                                       rtol=1e-9, atol=1e-12, err_msg=name)


class TestDescentSanity:
    def test_loss_non_increasing_majority(self, float64_mode):
        ok = 0
        for seed in (0, 1, 2):
            model, adj, main, sal = tiny_graph(seed=seed)
            opt = T.Adam(model.params, lr=1e-4)
            losses = []
            for _ in range(10):
                with ad.recording():
                    loss = model.total_loss(model.forward(adj), main, sal)
                losses.append(float(loss.value.item()))
                for p in model.params.values():
                    p.zero_grad()
                ad.backward(loss)
                opt.step(model.params)
            diffs = np.diff(losses)
            if (diffs <= 1e-10).all():
                ok += 1
        assert ok >= 2, f"descent failed on {3 - ok} of 3 seeds"


class TestTrainEpoch:
    def test_runs_and_updates_parameters(self):
        model, adj, splits = small_setup()
        opt = T.Adam(model.params, lr=model.cfg.lr)
        rng = spawn_rng(0, STREAM_TRAIN)
        before = model.params["user.embed"].value.copy()
        row = T.train_epoch(model, adj, splits.train, opt, rng, epoch=0)
        assert row["batches"] == 2  # 48 users / batch 32
        assert np.isfinite(row["loss"])
        assert row["sal"] > 0.0 and row["reg"] > 0.0
        assert not np.array_equal(before, model.params["user.embed"].value)
        assert ad.tape_size() == 0

    def test_row_reports_mean_tape_nodes(self):
        model, adj, splits = small_setup()
        rng = spawn_rng(0, STREAM_TRAIN)
        main = D.sample_main_pairs(splits.train, 32, rng,
                                   users=np.arange(32))
        sal = D.sample_sal_pairs(splits.train, 32, rng)
        with ad.recording():
            model.total_loss(model.forward(adj, dropout_rng=rng), main, sal)
        per_step = ad.tape_size()
        ad.clear_tape()
        assert per_step > 0
        opt = T.Adam(model.params, lr=model.cfg.lr)
        row = T.train_epoch(model, adj, splits.train, opt, rng, epoch=0)
        assert row["tape_nodes"] == per_step

    # tape nodes per step of a 400x200 epoch, Config(hyperedges=16), by
    # ablation: a change to how many nodes a step records shows here
    TAPE_NODES = {"default": 123, "trans": 107, "meta": 113, "sal": 74,
                  "hyper": 18, "deeph": 111, "highh": 93, "pos": 115}

    @pytest.mark.parametrize("flag", sorted(TAPE_NODES))
    def test_tape_nodes_per_step_are_pinned(self, flag):
        ablate = () if flag == "default" else (flag,)
        ds = D.synthetic_blocks(num_users=400, num_items=200, seed=0)
        splits = D.split(ds, 0)
        adj = D.build_normalized_adjacency(splits.train)
        model = Model(Config(hyperedges=16, seed=0, ablate=ablate), 400, 200)
        opt = T.Adam(model.params, lr=model.cfg.lr)
        row = T.train_epoch(model, adj, splits.train, opt,
                            spawn_rng(0, STREAM_TRAIN), epoch=0)
        assert row["tape_nodes"] == self.TAPE_NODES[flag]

    def test_deterministic_under_seed(self):
        results = []
        for _ in range(2):
            model, adj, splits = small_setup()
            opt = T.Adam(model.params, lr=model.cfg.lr)
            rng = spawn_rng(0, STREAM_TRAIN)
            row = T.train_epoch(model, adj, splits.train, opt, rng, epoch=0)
            results.append((row, {n: p.value.copy()
                                  for n, p in model.params.items()}))
        assert results[0][0] == results[1][0]
        for name in results[0][1]:
            assert np.array_equal(results[0][1][name], results[1][1][name])

    def test_divergence_guard_names_batch(self):
        model, adj, splits = small_setup()
        model.params["user.embed"].value[...] = 1e30  # overflow in scores
        opt = T.Adam(model.params, lr=model.cfg.lr)
        rng = spawn_rng(0, STREAM_TRAIN)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.DivergenceError, match="epoch 0, batch 0"):
                T.train_epoch(model, adj, splits.train, opt, rng, epoch=0)
        assert ad.tape_size() == 0  # guard must not leak the graph

    def test_skips_batches_without_training_edges(self):
        # only user 0 interacts; exactly one of the two batches contains it
        cfg = Config(d=8, hyperedges=2, heads=2, layers=1, batch=32,
                     lambda1=1e-2, lambda2=1e-4, seed=0)
        ds = D.InteractionDataset.from_edges(
            [(0, j) for j in range(5)], 64, 10)
        adj = D.build_normalized_adjacency(ds)
        model = Model(cfg, 64, 10)
        opt = T.Adam(model.params, lr=cfg.lr)
        rng = spawn_rng(0, STREAM_TRAIN)
        row = T.train_epoch(model, adj, ds, opt, rng, epoch=0)
        assert row["batches"] == 1 and row["skipped"] == 1

    def test_sal_skipped_when_ablated(self):
        model, adj, splits = small_setup(ablate=("sal",))
        opt = T.Adam(model.params, lr=model.cfg.lr)
        rng = spawn_rng(0, STREAM_TRAIN)
        row = T.train_epoch(model, adj, splits.train, opt, rng, epoch=0)
        assert row["sal"] == 0.0


class TestStepMemory:
    @staticmethod
    def stepper():
        """A 400x200 training step without Adam, warmed up once; called with
        ``record_only`` it stops before backward."""
        ds = D.synthetic_blocks(num_users=400, num_items=200, seed=0)
        splits = D.split(ds, 0)
        adj = D.build_normalized_adjacency(splits.train)
        model = Model(Config(hyperedges=16, seed=0), 400, 200)
        rng = spawn_rng(0, STREAM_TRAIN)

        def step(record_only=False):
            main = D.sample_main_pairs(splits.train, 32, rng,
                                       users=np.arange(32))
            sal = D.sample_sal_pairs(splits.train, 32, rng)
            with ad.recording():
                state = model.forward(adj, dropout_rng=rng)
                loss = model.total_loss(state, main, sal)
            if not record_only:
                ad.backward(loss)
            return state, loss

        step()  # warm up lazily built views and caches
        return step

    def test_held_step_does_not_hold_its_graph(self):
        # a caller that keeps a step's outputs keeps their values only: the
        # grads and VJP closures of that step's graph are freed by backward,
        # so the next step peaks little above one step on its own
        # (1.2x at 400x200; 2.0x when the whole graph stays alive)
        step = self.stepper()
        tracemalloc.start()
        try:
            held = step()  # (state, loss), held while the next step runs
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            step()
            second = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(held[1].value).all()
        assert second <= 1.5 * first, (second, first)

    def test_recorded_step_keeps_only_what_backward_reads(self):
        # before backward, a recorded step holds the caller's tensors and
        # the arrays its VJPs read; a value no VJP reads (a two-hop product,
        # a topology sum, a layer output that only feeds an add) is already
        # gone. 0.55 MB at 400x200; 1.46 MB when the tape held every value
        step = self.stepper()
        tracemalloc.start()
        try:
            state, loss = step(record_only=True)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ad.tape_size() == 123
        ad.backward(loss)
        assert live <= 1.1e6, live


class TestCheckpointFormat:
    def trained(self, tmp_path, **overrides):
        model, adj, splits = small_setup(**overrides)
        opt = T.Adam(model.params, lr=model.cfg.lr)
        rng = spawn_rng(0, STREAM_TRAIN)
        T.train_epoch(model, adj, splits.train, opt, rng, epoch=0)
        path = str(tmp_path / "model.ckpt")
        T.save_checkpoint(path, model, self.PROGRESS, opt, rng)
        return model, opt, rng, path

    PROGRESS = T.Progress(epoch=0, best_epoch=0, best_metric=0.25, stale=1)

    def test_round_trip_values(self, tmp_path):
        model, opt, rng, path = self.trained(tmp_path)
        ckpt = T.load_checkpoint(path)
        assert ckpt.progress == self.PROGRESS
        assert ckpt.config == model.cfg
        assert ckpt.record["users"] == model.num_users
        assert ckpt.record["adam_steps"] == opt.steps
        for name, p in model.params.items():
            assert np.array_equal(ckpt.parameters()[name], p.value)
        assert np.array_equal(ckpt.vectors[1], opt.m)
        assert np.array_equal(ckpt.vectors[2], opt.v)
        # restored rng continues the stream identically
        a, b = ckpt.rng(), rng
        assert a.integers(0, 1 << 30, 8).tolist() == \
            b.integers(0, 1 << 30, 8).tolist()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model, opt, rng, path = self.trained(tmp_path)
        ckpt = T.load_checkpoint(path)
        model2 = T.build_model(ckpt)
        opt2 = T.Adam(model2.params, lr=opt.lr)
        opt2.steps = ckpt.record["adam_steps"]
        opt2.m[...], opt2.v[...] = ckpt.vectors[1:]
        path2 = str(tmp_path / "again.ckpt")
        T.save_checkpoint(path2, model2, ckpt.progress, opt2, ckpt.rng())
        with open(path, "rb") as fh:
            first = fh.read()
        with open(path2, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_data_is_values_then_moments(self, tmp_path):
        # the blob after the record is the value vector, m and v, as bytes:
        # 12 + header + 12·P bytes in all
        model, opt, _, path = self.trained(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        start = len(T.MAGIC) + 4
        blob = data[start + int.from_bytes(data[len(T.MAGIC):start],
                                           "little"):]
        assert opt.m.any() and opt.v.any()
        assert blob == b"".join(a.astype("<f4").tobytes() for a in
                                (model.params.flat.value, opt.m, opt.v))
        assert len(blob) == 12 * model.params.flat.value.size
        assert T.load_checkpoint(path).vectors.shape == (3, opt.m.size)

    def test_record_names_each_parameter_once(self, tmp_path):
        model, _, _, path = self.trained(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        start = len(T.MAGIC) + 4
        record = json.loads(data[start:start + int.from_bytes(
            data[len(T.MAGIC):start], "little")])
        assert record["layout"] == [[name, list(p.shape)]
                                    for name, p in model.params.items()]
        assert "tensors" not in record
        ckpt = T.load_checkpoint(path)
        assert list(ckpt.layout) == list(model.params)
        for name, view in ckpt.parameters().items():
            assert view.dtype == np.float32 and not view.flags.writeable
            assert np.shares_memory(view, ckpt.vectors[0]), name

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOTACKPTjunkjunkjunk")
        with pytest.raises(T.CheckpointError, match="bad magic"):
            T.load_checkpoint(path)

    # SHTCKPT1 stored the run state in three places, SHTCKPT2 put a binary
    # header before each tensor, SHTCKPT3 held K, V, W0 and V1 in the
    # paper's orientation, in the shapes later formats store their right
    # factors in, and SHTCKPT4 listed m, v and the values tensor by tensor;
    # none is read
    @pytest.mark.parametrize("magic", [b"SHTCKPT1", b"SHTCKPT2", b"SHTCKPT3",
                                       b"SHTCKPT4"])
    def test_old_format_magic_rejected(self, tmp_path, magic):
        _, _, _, path = self.trained(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(magic + data[len(T.MAGIC):])
        with pytest.raises(T.CheckpointError,
                           match=f"{re.escape(path)}.*bad magic"):
            T.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, _, path = self.trained(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 4)
        with pytest.raises(T.CheckpointError,
                           match="trailing bytes after") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)

    def test_header_length_past_end_is_truncated(self, tmp_path):
        _, _, _, path = self.trained(tmp_path)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[len(T.MAGIC):len(T.MAGIC) + 4] = len(data).to_bytes(4, "little")
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(T.CheckpointError, match="truncated checkpoint"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda header: header[:-1],
        # a record keyed as SHTCKPT4 keyed it
        edit_record(lambda r: r.__setitem__("tensors", r.pop("layout"))),
        set_first_shape([-1, 8]),
        set_first_shape([2.5, 8]),
        set_first_shape(8),
        set_first_shape([3, 8, 1]),
    ], ids=["not-json", "tensors-not-layout", "negative-dim", "float-dim",
            "shape-not-list", "three-dims"])
    def test_malformed_header_names_file(self, tmp_path, edit):
        _, _, _, path = self.trained(tmp_path)
        rewrite_header(path, edit)
        with pytest.raises(T.CheckpointError,
                           match="malformed checkpoint header") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)

    @pytest.mark.parametrize("key", ["config", "users", "items", "progress",
                                     "adam_steps", "rng", "layout"])
    def test_missing_record_key_names_file_and_key(self, tmp_path, key):
        _, _, _, path = self.trained(tmp_path)
        rewrite_header(path, edit_record(lambda r: r.pop(key)))
        with pytest.raises(T.CheckpointError,
                           match="malformed checkpoint header") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)
        assert repr(key) in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("users", "x"), ("users", -1), ("items", 2.0), ("items", True),
        ("progress", [1]), ("progress", {"epoch": 0}),
        ("progress", {"epoch": 0, "best_epoch": 0, "best_metric": 0.25,
                      "stale": 1, "extra": 0}),
        ("progress", {"epoch": 0, "best_epoch": 0, "best_metric": 0.25,
                      "stale": "1"}),
        ("adam_steps", -1), ("adam_steps", "3"), ("rng", "zz"),
        ("rng", [1]), ("rng", {}), ("rng", {"bit_generator": "MT19937"}),
        ("rng", {"bit_generator": "PCG64", "state": "zz", "has_uint32": 0,
                 "uinteger": 0}),
        ("rng", {"bit_generator": "PCG64", "state": {"state": 1.5, "inc": 1},
                 "has_uint32": 0, "uinteger": 0}),
        ("rng", {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2.5},
                 "has_uint32": 0, "uinteger": 0}),
        ("config", 5),
        # every file is a resume point: no run state may be left out
        ("adam_steps", None), ("rng", None)])
    def test_wrongly_typed_record_value_names_file_and_key(
            self, tmp_path, key, value):
        _, _, _, path = self.trained(tmp_path)
        rewrite_header(path, edit_record(lambda r: r.__setitem__(key, value)))
        with pytest.raises(T.CheckpointError,
                           match="malformed checkpoint header") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)
        assert repr(key) in str(err.value)

    def test_tensor_listed_twice_names_file(self, tmp_path):
        _, _, _, path = self.trained(tmp_path)
        # the second tensor takes the first one's name
        rewrite_header(path, edit_record(
            lambda r: r["layout"][1].__setitem__(0, r["layout"][0][0])))
        with pytest.raises(T.CheckpointError,
                           match="names are not unique and sorted") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)

    def test_unsorted_layout_names_file(self, tmp_path):
        # the store lays the vectors out in sorted-name order; a layout in
        # another order would read each slot under another name
        _, _, _, path = self.trained(tmp_path)
        rewrite_header(path, edit_record(lambda r: r["layout"].reverse()))
        with pytest.raises(T.CheckpointError,
                           match="names are not unique and sorted") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)

    @pytest.mark.parametrize("line, key", [
        ("include_input_in_sum = False", "include_input_in_sum"),
        ("lr = nan", "lr")], ids=["deleted-key", "non-finite"])
    def test_config_that_does_not_load_names_file_and_key(
            self, tmp_path, line, key):
        # the first case is a file written while Config still had the
        # include_input_in_sum switch, which came right after `ablate`
        def add_line(record):
            record["config"] = record["config"].replace(
                "ablate = \n", f"ablate = \n{line}\n")
        _, _, _, path = self.trained(tmp_path)
        rewrite_header(path, edit_record(add_line))
        with pytest.raises(T.CheckpointError,
                           match=f"checkpoint config: .*{key}") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)

    def test_truncated_rejected(self, tmp_path):
        _, _, _, path = self.trained(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-10])
        with pytest.raises(T.CheckpointError,
                           match="truncated checkpoint") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)

    def test_values_only_file_is_truncated(self, tmp_path):
        # every file holds the values, m and v; the values alone are a
        # file cut short
        model, _, _, path = self.trained(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        size = 4 * model.params.flat.value.size
        with open(path, "wb") as fh:
            fh.write(data[:len(data) - 2 * size])
        with pytest.raises(T.CheckpointError,
                           match="truncated checkpoint") as err:
            T.load_checkpoint(path)
        assert path in str(err.value)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        _, _, _, path = self.trained(tmp_path)
        ckpt = T.load_checkpoint(path)
        other, _, _ = small_setup(d=16)
        with pytest.raises(T.CheckpointError, match="shape mismatch"):
            T.load_values(other, ckpt.parameters())

    def test_moment_shape_mismatch_names_tensor(self, tmp_path):
        # the moments share the values' layout: a file whose layout is not
        # the model's is refused by name before any moment is copied
        def reshape_user_embed(record):
            for entry in record["layout"]:
                if entry[0] == "user.embed":
                    entry[1] = [math.prod(entry[1]), 1]

        def drop_ablation(record):
            record["config"] = record["config"].replace(
                "ablate = sal\n", "ablate = \n")

        for edit, error in ((reshape_user_embed,
                             "shape mismatch for 'user.embed'"),
                            (drop_ablation,
                             "missing value for 'item.meta.V1'")):
            _, _, _, path = self.trained(tmp_path, ablate=("sal",))
            rewrite_header(path, edit_record(edit))
            with pytest.raises(T.CheckpointError, match=error):
                T.resume(path, None, None)

    def test_missing_and_unexpected_tensors(self, tmp_path):
        _, _, _, path = self.trained(tmp_path, ablate=("sal",))
        ckpt = T.load_checkpoint(path)
        full, _, _ = small_setup()
        with pytest.raises(T.CheckpointError, match="missing"):
            T.load_values(full, ckpt.parameters())
        _, _, _, full_path = self.trained(tmp_path)
        ablated, _, _ = small_setup(ablate=("sal",))
        with pytest.raises(T.CheckpointError):
            T.load_values(ablated, T.load_checkpoint(full_path).parameters())


class TestFitAndResume:
    def test_history_and_best_tracking(self, tmp_path):
        model, adj, splits = small_setup(epochs=3)
        out = str(tmp_path / "run")
        result = T.fit(model, adj, splits, out_dir=out)
        assert len(result.history) == 3
        recalls = [r["val_recall"] for r in result.history]
        assert result.best_metric == max(recalls)
        assert result.best_epoch == recalls.index(max(recalls))
        assert result.best_values is not None
        assert os.path.exists(os.path.join(out, "last.ckpt"))
        assert os.path.exists(os.path.join(out, "best.ckpt"))

        # evaluating the persisted best model reproduces the logged metric
        best = T.build_model(T.load_checkpoint(os.path.join(out, "best.ckpt")))
        metrics = E.evaluate_model(best, adj, splits.train, splits.validation,
                                   cutoffs=(T.SELECTION_CUTOFF,))
        assert metrics["recall@20"] == result.best_metric

    def test_eval_every_skips_epochs(self):
        model, adj, splits = small_setup(epochs=3, eval_every=2)
        result = T.fit(model, adj, splits)
        assert not math.isnan(result.history[0]["val_recall"])
        assert math.isnan(result.history[1]["val_recall"])
        assert not math.isnan(result.history[2]["val_recall"])  # final epoch

    def test_patience_stops_on_plateau(self):
        # lr far below float32 resolution: parameters never change, so the
        # validation metric plateaus immediately
        model, adj, splits = small_setup(epochs=6, lr=1e-12, patience=1)
        result = T.fit(model, adj, splits)
        assert result.stopped_early
        assert len(result.history) < 6

    def test_resume_equals_uninterrupted(self, tmp_path):
        model_a, adj, splits = small_setup(epochs=4)
        result_a = T.fit(model_a, adj, splits)

        model_b, adj_b, splits_b = small_setup(epochs=4)
        out = str(tmp_path / "interrupted")
        part1 = interrupted_fit(model_b, adj_b, splits_b, out, epoch=2)
        model_b2, part2 = T.resume(os.path.join(out, "last.ckpt"),
                                   adj_b, splits_b)

        assert len(part1) == 2 and len(part2.history) == 2
        assert part1 + part2.history == result_a.history
        for name, p in model_a.params.items():
            assert np.array_equal(p.value, model_b2.params[name].value), name
        assert part2.best_metric == result_a.best_metric

    def test_resume_equals_uninterrupted_with_sparse_validation(self,
                                                                tmp_path):
        # validation runs on every third epoch and on the schedule's last
        # epoch, wherever a run was interrupted
        def validated(history):
            return {r["epoch"]: r["val_recall"] for r in history
                    if not math.isnan(r["val_recall"])}

        overrides = dict(epochs=6, eval_every=3, patience=1)
        model_a, adj, splits = small_setup(**overrides)
        result_a = T.fit(model_a, adj, splits)

        model_b, adj_b, splits_b = small_setup(**overrides)
        out = str(tmp_path / "interrupted")
        part1 = interrupted_fit(model_b, adj_b, splits_b, out, epoch=2)
        model_b2, part2 = T.resume(os.path.join(out, "last.ckpt"),
                                   adj_b, splits_b)

        history = part1 + part2.history
        assert [r["epoch"] for r in history] == \
            [r["epoch"] for r in result_a.history]
        assert validated(history) == validated(result_a.history)
        assert part2.best_epoch == result_a.best_epoch
        assert part2.stopped_early == result_a.stopped_early
        for name, p in model_a.params.items():
            assert np.array_equal(p.value, model_b2.params[name].value), name

    def test_loaded_and_resumed_models_read_their_values(self, tmp_path):
        # the per-side views are built once; a model that was loaded or
        # resumed must embed like one built from its values alone (the
        # reference starts from another seed's initial values)
        def tables_match_fresh(model):
            values = {name: p.value.copy() for name, p in model.params.items()}
            fresh = Model(replace(model.cfg, seed=model.cfg.seed + 1),
                          model.num_users, model.num_items)
            before = fresh.embedding_tables(adj)[0]
            T.load_values(fresh, values)
            want = fresh.embedding_tables(adj)
            assert not np.array_equal(before, want[0])
            return all(np.array_equal(got, expect) for got, expect
                       in zip(model.embedding_tables(adj), want))

        model, adj, splits = small_setup(epochs=3)
        out = str(tmp_path / "run")
        interrupted_fit(model, adj, splits, out, epoch=2)
        best = T.load_checkpoint(os.path.join(out, "best.ckpt"))
        T.load_values(model, best.parameters())
        assert tables_match_fresh(model)
        resumed, _ = T.resume(os.path.join(out, "last.ckpt"), adj, splits)
        assert tables_match_fresh(resumed)

    def test_load_values_restores_best(self):
        model, adj, splits = small_setup(epochs=2)
        result = T.fit(model, adj, splits)
        T.load_values(model, result.best_values)
        metrics = E.evaluate_model(model, adj, splits.train, splits.validation,
                                   cutoffs=(20,))
        assert metrics["recall@20"] == result.best_metric
