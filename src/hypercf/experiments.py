"""Study harnesses built on the trainer: noise robustness, sparsity
breakdowns, component ablations, and hyperparameter sweeps.

Each harness retrains from scratch where the procedure demands it and
returns plain row dicts ready for CSV export, so the command line and the
tests share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import data as data_mod
from .config import ABLATIONS, Config
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


def noise_robustness(dataset: InteractionDataset, ratios, cfg: Config,
                     cutoff: int = 20, log_fn=None) -> list:
    """Retrain per corruption ratio; evaluate every run on the clean test set.

    Noise goes into the training edges only, so the reported drop measures
    how much the corrupted graph damages what the model learns, not a change
    of the exam. The ratio-0 row goes through the same pipeline and is
    bit-identical to a plain clean run under the same seed.
    """
    ratios = [float(r) for r in ratios]
    if 0.0 not in ratios:
        ratios = [0.0] + ratios
    splits = data_mod.split(dataset, cfg.seed)
    rows = []
    baseline = None
    for ratio in ratios:
        noisy, _ = data_mod.inject_noise(splits.train, ratio, seed=cfg.seed)
        run = train_on_split(
            SplitDataset(noisy, splits.validation, splits.test, cfg.seed),
            cfg, log_fn=log_fn)
        metrics = run.test_metrics((cutoff,))
        recall = metrics[f"recall@{cutoff}"]
        ndcg = metrics[f"ndcg@{cutoff}"]
        if ratio == 0.0:
            baseline = (recall, ndcg)
        rows.append({
            "ratio": ratio,
            "recall": recall,
            "ndcg": ndcg,
            "recall_rel": recall / baseline[0] if baseline[0] else float("nan"),
            "ndcg_rel": ndcg / baseline[1] if baseline[1] else float("nan"),
        })
    return rows


def sparsity_report(model: Model, adj, splits: SplitDataset,
                    user_bounds, item_bounds, n: int = 40) -> list:
    """Recall/NDCG per interaction-count bucket, user side then item side."""
    user_emb, item_emb = model.embedding_tables(adj)
    result = rank_embeddings(user_emb, item_emb, splits.train, n)
    rows = []
    for axis, bounds in (("user", user_bounds), ("item", item_bounds)):
        if bounds is None:
            continue
        assignment = data_mod.sparsity_groups(splits.train, axis, bounds)
        for row in group_metrics(result, splits.test, assignment, axis, n):
            bounds_list = list(bounds)
            g = row["group"]
            row["bound"] = bounds_list[g] if g < len(bounds_list) else float("inf")
            rows.append(row)
    return rows


def ablation_variants(flags=None) -> list:
    """The full model plus one single-flag variant per component toggle."""
    flags = list(ABLATIONS if flags is None else flags)
    return [("full", ())] + [(f"-{flag}", (flag,)) for flag in flags]


def ablation_study(splits: SplitDataset, cfg: Config, flags=None,
                   cutoffs=(20,), log_fn=None) -> list:
    """Train the full model and each ablated variant on the same split."""
    rows = []
    for label, ablate in ablation_variants(flags):
        run = train_on_split(splits, replace(cfg, ablate=ablate),
                             log_fn=log_fn)
        row = {"variant": label}
        row.update(run.test_metrics(cutoffs))
        rows.append(row)
    return rows


def sweep(splits: SplitDataset, cfg: Config, grid: dict, cutoff: int = 20,
          log_fn=None) -> list:
    """One-axis-at-a-time hyperparameter study against the base config.

    ``grid`` maps config field names to value lists. Each row reports the
    metric and its relative decrease versus the base run, mirroring the
    usual "how much do we lose by shrinking d / K / L" tables.
    """
    base = train_on_split(splits, cfg, log_fn=log_fn)
    base_metrics = base.test_metrics((cutoff,))
    base_recall = base_metrics[f"recall@{cutoff}"]
    base_ndcg = base_metrics[f"ndcg@{cutoff}"]
    rows = [{"param": "base", "value": "", "recall": base_recall,
             "ndcg": base_ndcg, "recall_drop": 0.0, "ndcg_drop": 0.0}]
    for param in sorted(grid):
        for value in grid[param]:
            run = train_on_split(splits, replace(cfg, **{param: value}),
                                 log_fn=log_fn)
            metrics = run.test_metrics((cutoff,))
            recall = metrics[f"recall@{cutoff}"]
            ndcg = metrics[f"ndcg@{cutoff}"]
            rows.append({
                "param": param,
                "value": value,
                "recall": recall,
                "ndcg": ndcg,
                "recall_drop": 1.0 - recall / base_recall if base_recall else float("nan"),
                "ndcg_drop": 1.0 - ndcg / base_ndcg if base_ndcg else float("nan"),
            })
    return rows
