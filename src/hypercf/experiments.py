"""Study harnesses built on the trainer: noise robustness, sparsity
breakdowns, component ablations, and hyperparameter sweeps.

Each harness retrains from scratch where the procedure demands it and
returns plain row dicts ready for CSV export, so the command line and the
tests share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import data as data_mod
from .config import ABLATIONS, Config, format_config, normalize_flag
from .data import SplitDataset, build_normalized_adjacency
from .evaluation import bucket_metrics, evaluate_model, rank_embeddings
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


def study(splits: SplitDataset, configs, ratios=(0.0,),
          cutoffs=(20,)) -> list:
    """Test metrics of each config fitted under each training-noise ratio,
    config-major: one dict per (config, ratio), each distinct pair fitted
    once. The noise is drawn under the config's seed; the test set is clean.
    """
    fits, rows = {}, []
    for cfg in configs:
        for ratio in ratios:
            key = (format_config(cfg), float(ratio))
            if key not in fits:
                noisy, _ = data_mod.inject_noise(splits.train, ratio, cfg.seed)
                fits[key] = train_on_split(
                    SplitDataset(noisy, splits.validation, splits.test),
                    cfg).test_metrics(cutoffs)
            rows.append(dict(fits[key]))
    return rows


def _versus(labels, metrics, cutoff: int, suffix: str, change) -> list:
    """Each label with its recall and NDCG at ``cutoff``, then ``change`` of
    their fractions of the first row's (nan if 0) as ``<metric><suffix>``."""
    rows = [dict(label, recall=m[f"recall@{cutoff}"], ndcg=m[f"ndcg@{cutoff}"])
            for label, m in zip(labels, metrics)]
    return [dict(row, **{name + suffix: change(
        row[name] / rows[0][name] if rows[0][name] else float("nan"))
        for name in ("recall", "ndcg")}) for row in rows]


def noise_robustness(splits: SplitDataset, ratios, cfg: Config,
                     cutoff: int = 20) -> list:
    """Retrain per corruption ratio; evaluate every run on the clean test set.

    The clean run (ratio 0) comes first whether or not ``ratios`` lists it,
    then each other distinct ratio once, in order. The clean row is
    bit-identical to a plain clean run under the same seed.
    """
    ratios = list(dict.fromkeys([0.0, *map(float, ratios)]))
    return _versus([{"ratio": r} for r in ratios],
                   study(splits, [cfg], ratios, (cutoff,)), cutoff, "_rel",
                   lambda r: r)


def sparsity_report(model: Model, adj, splits: SplitDataset,
                    user_bounds, item_bounds, n: int = 40) -> list:
    """``evaluation.bucket_metrics`` rows of the test split at cutoff
    ``n``, user side then item side, from one ranking; a side whose bounds
    are None is skipped."""
    result = rank_embeddings(*model.embedding_tables(adj), splits.train, n)
    rows = []
    for axis, bounds in (("user", user_bounds), ("item", item_bounds)):
        if bounds is not None:
            rows += bucket_metrics(result, splits.train, splits.test, axis,
                                   bounds)
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
    variants = ablation_variants(flags)
    configs = [replace(cfg, ablate=ablate) for _, ablate in variants]
    return [{"variant": label, **m} for (label, _), m in
            zip(variants, study(splits, configs, cutoffs=cutoffs))]


def sweep(splits: SplitDataset, cfg: Config, grid: dict,
          cutoff: int = 20) -> list:
    """One-axis-at-a-time hyperparameter study against the base config.

    ``grid`` maps config field names to value lists; each distinct value of
    a field gets one row, in the order given (an ``ablate`` value is
    compared by its normalized flags), and a value equal to the base's
    reuses the base fit. Each row reports the metric and its relative
    decrease versus the base run, mirroring the usual "how much do we lose
    by shrinking d / K / L" tables.
    """
    changes = [("base", "")]
    for param in sorted(grid):
        values = grid[param]
        if param == "ablate":
            values = [tuple(dict.fromkeys(map(normalize_flag, flags)))
                      for flags in values]
        changes += [(param, value) for value in dict.fromkeys(values)]
    configs = [cfg] + [replace(cfg, **{p: v}) for p, v in changes[1:]]
    return _versus([{"param": p, "value": v} for p, v in changes],
                   study(splits, configs, cutoffs=(cutoff,)), cutoff,
                   "_drop", lambda r: 1.0 - r)
