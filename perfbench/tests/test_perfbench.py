"""Checks on the benchmark itself: its oracle, its span arithmetic and its
patching. Run with ``python -m pytest perfbench/tests``."""

import numpy as np
import pytest

from hypercf import autodiff as ad
from hypercf import data, evaluation, experiments, trainer
from hypercf.model import Model

import oracle
import tracing
import workloads


# -- eval oracle -------------------------------------------------------------

def tied_instance():
    """One user, eight items; items 2 and 6 tie for the top score and
    item 0 is a training item."""
    user_emb = np.array([[1.0, 0.5]])
    item_emb = np.array([[9.0, 9.0], [0.1, 0.0], [2.0, 2.0], [0.3, 0.1],
                         [1.0, 0.0], [0.2, 0.4], [2.0, 2.0], [0.5, 0.5]])
    train = data.InteractionDataset.from_edges([[0, 0]], 1, 8)
    return user_emb, item_emb, train


def test_oracle_agrees_with_program_on_ties():
    user_emb, item_emb, train = tied_instance()
    ranked = evaluation.rank_all(evaluation.score_matrix(user_emb, item_emb),
                                 train, 5)
    expected = oracle.brute_force_top_n(user_emb, item_emb, train.items_of,
                                        [0], 5)
    assert expected[0].tolist()[:2] == [2, 6]
    assert oracle.ranking_mismatches(expected, ranked.items, [0]) == []


def test_oracle_rejects_one_swapped_tie():
    user_emb, item_emb, train = tied_instance()
    expected = oracle.brute_force_top_n(user_emb, item_emb, train.items_of,
                                        [0], 5)
    swapped = expected.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    problems = oracle.ranking_mismatches(expected, swapped, [0])
    assert len(problems) == 1 and "user 0" in problems[0]


def test_oracle_metrics_match_program_on_random_instance():
    rng = np.random.default_rng(3)
    users, items = 30, 25
    edges = np.stack([rng.integers(0, users, 200), rng.integers(0, items, 200)],
                     axis=1)
    split = data.split(data.InteractionDataset.from_edges(edges, users, items), 0)
    user_emb, item_emb = rng.normal(size=(users, 4)), rng.normal(size=(items, 4))
    ranked = evaluation.rank_all(evaluation.score_matrix(user_emb, item_emb),
                                 split.train, 10)
    sample = np.arange(users)
    expected = oracle.brute_force_top_n(user_emb, item_emb,
                                        split.train.items_of, sample, 10)
    assert oracle.ranking_mismatches(expected, ranked.items, sample) == []
    recall, ndcg = oracle.mean_recall_ndcg(expected, sample,
                                           split.test.items_of, 10)
    assert oracle.close(recall, evaluation.recall_at_n(ranked, split.test, 10))
    assert oracle.close(ndcg, evaluation.ndcg_at_n(ranked, split.test, 10))


# -- span arithmetic ---------------------------------------------------------

def test_self_times_on_hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    records = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
               ("a1", 2.0, 3.0, 1, 0), ("b", 5.0, 9.0, 0, 1)]
    self_s = tracing.self_times(records)
    assert self_s == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_s) == 10.0
    assert tracing.in_subtree(records, {"a"}) == [False, True, True, False]
    assert tracing.totals_by_name(records, self_s, [False, True, True, True]) \
        == {"a": 2.0, "a1": 1.0, "b": 4.0}


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    with tracer.span("outer"):
        inner()
        tracer.step += 1
        inner()
    assert tracer.records() == [("outer", 0.0, 5.0, -1, 0),
                                ("inner", 1.0, 2.0, 0, 0),
                                ("inner", 3.0, 4.0, 0, 1)]
    assert tracing.self_times(tracer.records()) == [3.0, 1.0, 1.0]


# -- patching ----------------------------------------------------------------

def bindings():
    """Every patched name in the program, bound to what it is now."""
    return {
        "trainer.train_epoch": trainer.train_epoch,
        "trainer.sample_main_pairs": trainer.sample_main_pairs,
        "trainer.save_checkpoint": trainer.save_checkpoint,
        "experiments.score_matrix": experiments.score_matrix,
        "experiments.evaluate_scores": experiments.evaluate_scores,
        "evaluation.rank_all": evaluation.rank_all,
        "ad.matmul": ad.matmul, "ad.constant": ad.constant,
        "ad.parameter": ad.parameter, "ad.backward": ad.backward,
        "Adam.step": trainer.Adam.__dict__["step"],
        "Model.forward": Model.__dict__["forward"],
    }


@pytest.mark.parametrize("kind", ["train", "eval", "fit"])
def test_wrappers_are_gone_after_the_traced_run(kind, tmp_path):
    before = bindings()
    runner = workloads.Runner(workloads.Spec("tiny", 40, 20, kind, epochs=2),
                              seed=0, workdir=str(tmp_path))
    tracer = tracing.Tracer()
    untraced = runner.measure(0.0)
    traced = runner.measure(0.0, tracer)
    runner.check_repeatable(untraced, traced)

    names = set(tracer.names)
    assert "model.forward" in names
    if kind == "eval":
        assert {"evaluation.rank_all", "perfbench.eval_pass"} <= names
    else:
        assert tracer.counts["autodiff.nodes.matmul"] > 0
        assert "autodiff.backward.matmul" in names
    if kind == "fit":
        assert {"trainer.save_checkpoint", "trainer.load_checkpoint",
                "evaluation.evaluate_model"} <= names
    assert runner.tally.failed == 0, runner.tally.problems
    assert all(bindings()[k] is v for k, v in before.items())
    assert tracing.leftover_wrappers("hypercf", (Model, trainer.Adam)) == []


def test_patcher_restores_after_an_exception(tmp_path):
    runner = workloads.Runner(workloads.Spec("tiny", 40, 20, "train"),
                              seed=0, workdir=str(tmp_path))
    before = bindings()
    runner._train = lambda *args: (_ for _ in ()).throw(KeyError("boom"))
    with pytest.raises(KeyError):
        runner.measure(0.0, tracing.Tracer())
    assert all(bindings()[k] is v for k, v in before.items())
    assert tracing.leftover_wrappers("hypercf", (Model, trainer.Adam)) == []
