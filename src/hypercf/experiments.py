"""Study harnesses built on the trainer: noise robustness, sparsity
breakdowns, component ablations, and hyperparameter sweeps.

Each harness retrains from scratch where the procedure demands it and
returns plain row dicts ready for CSV export, so the command line and the
tests share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import data as data_mod
from .config import ABLATIONS, Config, normalize_flag
from .data import InteractionDataset, SplitDataset, build_normalized_adjacency
from .evaluation import evaluate_model, group_metrics, rank_embeddings
# not called here; kept because perfbench's patch tests read these bindings
from .evaluation import evaluate_scores, score_matrix  # noqa: F401
from .model import Model
from .trainer import TrainResult, fit, load_values


@dataclass
class TrainedRun:
    """A fitted model plus everything needed to evaluate it."""

    model: Model
    adj: object
    splits: SplitDataset
    result: TrainResult

    def test_metrics(self, cutoffs=(20,)) -> dict:
        return evaluate_model(self.model, self.adj, self.splits.train,
                              self.splits.test, cutoffs)


def train_on_split(splits: SplitDataset, cfg: Config, out_dir: str = None,
                   log_fn=None) -> TrainedRun:
    """Fit a fresh model on the split and restore its best epoch."""
    cfg = cfg.validate()
    adj = build_normalized_adjacency(splits.train)
    model = Model(cfg, splits.num_users, splits.num_items)
    result = fit(model, adj, splits, out_dir=out_dir, log_fn=log_fn)
    if result.best_values is not None:
        load_values(model, result.best_values)
    return TrainedRun(model, adj, splits, result)


def _test_metrics(splits: SplitDataset, cfg: Config, cutoffs) -> dict:
    """Fit a fresh model on the split; its best epoch's test metrics."""
    return train_on_split(splits, cfg).test_metrics(cutoffs)


def _relative(x: float, base: float) -> float:
    """``x`` as a fraction of ``base``; nan when ``base`` is 0."""
    return x / base if base else float("nan")


def noise_robustness(dataset: InteractionDataset, ratios, cfg: Config,
                     cutoff: int = 20) -> list:
    """Retrain per corruption ratio; evaluate every run on the clean test set.

    Noise goes into the training edges only, so the reported drop measures
    how much the corrupted graph damages what the model learns, not a change
    of the exam. The clean run (ratio 0) comes first whether or not
    ``ratios`` lists it, then each other distinct ratio once, in order. The
    clean row is bit-identical to a plain clean run under the same seed.
    """
    ratios = list(dict.fromkeys([0.0, *map(float, ratios)]))
    splits = data_mod.split(dataset, cfg.seed)
    rows = []
    for ratio in ratios:
        noisy, _ = data_mod.inject_noise(splits.train, ratio, seed=cfg.seed)
        metrics = _test_metrics(
            SplitDataset(noisy, splits.validation, splits.test), cfg,
            (cutoff,))
        recall, ndcg = metrics[f"recall@{cutoff}"], metrics[f"ndcg@{cutoff}"]
        if ratio == 0.0:
            base_recall, base_ndcg = recall, ndcg
        rows.append({"ratio": ratio, "recall": recall, "ndcg": ndcg,
                     "recall_rel": _relative(recall, base_recall),
                     "ndcg_rel": _relative(ndcg, base_ndcg)})
    return rows


def sparsity_report(model: Model, adj, splits: SplitDataset,
                    user_bounds, item_bounds, n: int = 40) -> list:
    """Recall/NDCG per interaction-count bucket, user side then item side.

    A row's ``bound`` is its bucket's upper bound; the last bucket also
    holds every count above its bound. Every bound gets a row, and a bucket
    without test edges reads nan metrics.
    """
    user_emb, item_emb = model.embedding_tables(adj)
    result = rank_embeddings(user_emb, item_emb, splits.train, n)
    rows = []
    for axis, bounds in (("user", user_bounds), ("item", item_bounds)):
        if bounds is None:
            continue
        assignment = data_mod.sparsity_groups(splits.train, axis, bounds)
        rows += [dict(row, bound=bounds[row["group"]]) for row in
                 group_metrics(result, splits.test, assignment, len(bounds),
                               axis, n)]
    return rows


def ablation_variants(flags=None) -> list:
    """The full model plus one single-flag variant per component toggle:
    each distinct flag once, in the order given, however it is spelled."""
    flags = dict.fromkeys(map(normalize_flag,
                              ABLATIONS if flags is None else flags))
    return [("full", ())] + [(f"-{flag}", (flag,)) for flag in flags]


def ablation_study(splits: SplitDataset, cfg: Config, flags=None,
                   cutoffs=(20,)) -> list:
    """Train the full model and each ablated variant on the same split."""
    return [{"variant": label,
             **_test_metrics(splits, replace(cfg, ablate=ablate), cutoffs)}
            for label, ablate in ablation_variants(flags)]


def sweep(splits: SplitDataset, cfg: Config, grid: dict,
          cutoff: int = 20) -> list:
    """One-axis-at-a-time hyperparameter study against the base config.

    ``grid`` maps config field names to value lists; each distinct value of
    a field trains once, in the order given (an ``ablate`` value is compared
    by its normalized flags). Each row reports the metric and its relative
    decrease versus the base run, mirroring the usual "how much do we lose
    by shrinking d / K / L" tables.
    """
    def row(param, value, change):
        metrics = _test_metrics(splits, replace(cfg, **change), (cutoff,))
        return {"param": param, "value": value,
                "recall": metrics[f"recall@{cutoff}"],
                "ndcg": metrics[f"ndcg@{cutoff}"]}

    base = row("base", "", {})
    base.update(recall_drop=0.0, ndcg_drop=0.0)
    rows = [base]
    for param in sorted(grid):
        values = grid[param]
        if param == "ablate":
            values = [tuple(dict.fromkeys(map(normalize_flag, flags)))
                      for flags in values]
        for value in dict.fromkeys(values):
            r = row(param, value, {param: value})
            r["recall_drop"] = 1.0 - _relative(r["recall"], base["recall"])
            r["ndcg_drop"] = 1.0 - _relative(r["ndcg"], base["ndcg"])
            rows.append(r)
    return rows
