"""Harness tests on miniature problems: wiring, determinism, and the
ratio-0-equals-clean-run invariant."""

import numpy as np
import pytest

from hypercf import data as D
from hypercf.config import ABLATIONS, Config
from hypercf.experiments import (ablation_study, ablation_variants,
                                 noise_robustness, sparsity_report, sweep,
                                 train_on_split)
from hypercf.model import Model
from hypercf.trainer import fit


def tiny_config(**overrides):
    fields = dict(d=8, hyperedges=4, heads=2, layers=2, batch=32,
                  lambda1=1e-2, lambda2=1e-4, epochs=2, seed=0)
    fields.update(overrides)
    return Config(**fields)


@pytest.fixture(scope="module")
def tiny_splits():
    ds = D.synthetic_blocks(num_users=48, num_items=24, num_blocks=4,
                            edges_per_user=8, seed=0)
    return D.split(ds, seed=0)


class TestTrainOnSplit:
    def test_returns_evaluable_run(self, tiny_splits):
        run = train_on_split(tiny_splits, tiny_config())
        metrics = run.test_metrics((5, 20))
        assert set(metrics) == {"recall@5", "ndcg@5", "recall@20", "ndcg@20"}
        assert all(0.0 <= v <= 1.0 for v in metrics.values())
        assert len(run.result.history) == 2

    def test_restore_best_changes_parameters(self, tiny_splits):
        cfg = tiny_config(epochs=3)
        kept = train_on_split(tiny_splits, cfg)
        last = Model(cfg, tiny_splits.num_users, tiny_splits.num_items)
        result = fit(last, D.build_normalized_adjacency(tiny_splits.train),
                     tiny_splits)
        assert kept.result.best_epoch == result.best_epoch
        name = "user.embed"
        best = kept.result.best_values[name]
        assert np.array_equal(kept.model.params[name].value, best)
        if kept.result.best_epoch < 2:
            assert not np.array_equal(last.params[name].value, best)


class TestNoiseRobustness:
    def test_ratio_zero_equals_clean_run(self, tiny_splits):
        cfg = tiny_config()
        rows = noise_robustness(
            D.synthetic_blocks(num_users=48, num_items=24, num_blocks=4,
                               edges_per_user=8, seed=0),
            [0.0], cfg)
        clean = train_on_split(tiny_splits, cfg)
        metrics = clean.test_metrics((20,))
        assert rows[0]["ratio"] == 0.0
        assert rows[0]["recall"] == metrics["recall@20"]
        assert rows[0]["ndcg"] == metrics["ndcg@20"]
        assert rows[0]["recall_rel"] == 1.0

    def test_prepends_baseline_and_reports_relatives(self):
        ds = D.synthetic_blocks(num_users=48, num_items=24, num_blocks=4,
                                edges_per_user=8, seed=1)
        rows = noise_robustness(ds, [0.2], tiny_config(seed=1))
        assert [r["ratio"] for r in rows] == [0.0, 0.2]
        base = rows[0]
        assert base["recall_rel"] == 1.0 and base["ndcg_rel"] == 1.0
        noisy = rows[1]
        if base["recall"] > 0:
            assert noisy["recall_rel"] == pytest.approx(
                noisy["recall"] / base["recall"])

    @pytest.mark.parametrize("ratios", [[0.1, 0.0], [0.1, 0.1]],
                             ids=["zero-last", "repeated"])
    def test_baseline_first_then_each_ratio_once(self, ratios):
        ds = D.synthetic_blocks(num_users=48, num_items=24, num_blocks=4,
                                edges_per_user=8, seed=1)
        rows = noise_robustness(ds, ratios, tiny_config(seed=1))
        assert [r["ratio"] for r in rows] == [0.0, 0.1]
        assert rows[0]["recall_rel"] == 1.0 and rows[0]["ndcg_rel"] == 1.0


class TestSparsityReport:
    def test_buckets_cover_both_sides(self, tiny_splits):
        run = train_on_split(tiny_splits, tiny_config())
        rows = sparsity_report(run.model, run.adj, tiny_splits,
                               user_bounds=(4, 8), item_bounds=(10,), n=20)
        axes = [r["axis"] for r in rows]
        assert axes == ["user", "user", "item"]
        assert rows[0]["bound"] == 4 and rows[1]["bound"] == 8
        total_edges = sum(r["test_edges"] for r in rows if r["axis"] == "user")
        assert total_edges == tiny_splits.test.num_edges

    def test_every_bound_gets_a_row(self, tiny_splits):
        # an empty last bucket reads like an empty first one: no test
        # edges, no users, nan metrics
        run = train_on_split(tiny_splits, tiny_config())
        rows = sparsity_report(run.model, run.adj, tiny_splits,
                               user_bounds=(2, 100, 200), item_bounds=None,
                               n=20)
        assert [r["bound"] for r in rows] == [2, 100, 200]
        assert (rows[2]["test_edges"], rows[2]["users"]) == (0, 0)
        assert np.isnan(rows[2]["recall"]) and np.isnan(rows[2]["ndcg"])
        assert sum(r["test_edges"] for r in rows) == tiny_splits.test.num_edges

    def test_weighted_user_average_matches_global(self, tiny_splits):
        run = train_on_split(tiny_splits, tiny_config())
        rows = sparsity_report(run.model, run.adj, tiny_splits,
                               user_bounds=(6,), item_bounds=None, n=20)
        global_recall = run.test_metrics((20,))["recall@20"]
        users = sum(r["users"] for r in rows)
        weighted = sum(r["recall"] * r["users"] for r in rows
                       if r["users"]) / users
        assert weighted == pytest.approx(global_recall, abs=1e-12)


class TestAblationStudy:
    def test_variant_listing(self):
        assert ablation_variants()[0] == ("full", ())
        assert len(ablation_variants()) == len(ABLATIONS) + 1
        assert ablation_variants(["hyper"]) == [("full", ()),
                                                ("-hyper", ("hyper",))]

    def test_each_distinct_flag_once(self):
        # a repeated or re-spelled flag would train the same variant again
        assert ablation_variants(["sal", "sal", "-sal", " Hyper"]) == [
            ("full", ()), ("-sal", ("sal",)), ("-hyper", ("hyper",))]

    def test_trains_each_variant(self, tiny_splits):
        rows = ablation_study(tiny_splits, tiny_config(epochs=1),
                              flags=["sal", "hyper"])
        assert [r["variant"] for r in rows] == ["full", "-sal", "-hyper"]
        for row in rows:
            assert 0.0 <= row["recall@20"] <= 1.0


class TestSweep:
    def test_reports_relative_drops(self, tiny_splits):
        rows = sweep(tiny_splits, tiny_config(epochs=1),
                     {"layers": [1], "d": [4]})
        assert rows[0]["param"] == "base"
        assert rows[0]["recall_drop"] == 0.0
        assert [(r["param"], r["value"]) for r in rows[1:]] == [
            ("d", 4), ("layers", 1)]
        for row in rows[1:]:
            if rows[0]["recall"] > 0:
                assert row["recall_drop"] == pytest.approx(
                    1.0 - row["recall"] / rows[0]["recall"])

    def test_each_distinct_value_once(self, tiny_splits):
        # a repeated value, or an ablation flag spelled another way,
        # trains the same variant: one row each, in the order given
        rows = sweep(tiny_splits, tiny_config(epochs=1),
                     {"d": [4, 4, 2], "ablate": [("sal",), ("-SAL",),
                                                 (" hyper",)]})
        assert [(r["param"], r["value"]) for r in rows] == [
            ("base", ""), ("ablate", ("sal",)), ("ablate", ("hyper",)),
            ("d", 4), ("d", 2)]
