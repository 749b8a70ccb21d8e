"""Command-line entry point.

Every run writes its artifacts under a timestamped directory: the effective
configuration (after file and flag overrides), checkpoints where training is
involved, and the metric CSVs. That directory is enough to re-run the job
bit-identically.

Override precedence per key: command-line flag > config file > built-in
default. Flag values are parsed by the same code that parses the config
file, so `--batch 64` and a `batch = 64` line behave identically.

Exit codes: 0 success, 1 usage error (bad flags, bad config, missing
inputs), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from dataclasses import fields, replace

from . import data as data_mod
from . import evaluation, experiments, trainer
from .config import (Config, ConfigError, config_from_mapping, format_config,
                     format_value, load_config)

ENV_OUT = "HYPERCF_OUT"


class UsageError(Exception):
    """Bad invocation: wrong flags, malformed values, missing inputs."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "config overrides", "any config-file key as a flag of the same name")
    for f in fields(Config):
        group.add_argument(f"--{f.name}", type=str, default=None, metavar="V")


def _effective_config(args, base: Config = None) -> Config:
    cfg = base or Config()
    if args.config:
        if not os.path.exists(args.config):
            raise UsageError(f"config file not found: {args.config!r}")
        cfg = load_config(args.config, cfg)
    overrides = {}
    for f in fields(Config):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = raw
    return config_from_mapping(overrides, cfg).validate()


def _load_dataset(cfg: Config):
    if not cfg.data:
        raise UsageError("missing required config key 'data' "
                         "(path to the interactions file)")
    if not os.path.exists(cfg.data):
        raise UsageError(f"config key 'data': no such file {cfg.data!r}")
    return data_mod.load_interactions(cfg.data)


def _run_dir(cfg: Config, command: str) -> str:
    root = cfg.out or os.environ.get(ENV_OUT) or "runs"
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(root, f"{command}-{stamp}")
    bump = 0
    while os.path.exists(path):
        bump += 1
        path = os.path.join(root, f"{command}-{stamp}-{bump}")
    os.makedirs(path)
    with open(os.path.join(path, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
    return path


def _print_rows(rows: list) -> None:
    for row in rows:
        print("  ".join(f"{k}={v}" for k, v in row.items()))


def _report(run_dir: str, filename: str, rows: list) -> int:
    """Write ``rows`` to the run's CSV, then print the run dir and the rows."""
    evaluation.write_csv(os.path.join(run_dir, filename), rows)
    print(f"run dir: {run_dir}")
    _print_rows(rows)
    return 0


def _metric_rows(model, adj, splits, split_names, cutoffs) -> list:
    """Recall and NDCG per split and cutoff, from one embedding pass and
    one ranking at the deepest cutoff."""
    cutoffs = sorted(set(int(c) for c in cutoffs))
    ranked = evaluation.rank_embeddings(*model.embedding_tables(adj),
                                        splits.train, cutoffs[-1])
    tests = {name: getattr(splits, name) for name in split_names}
    return [{"split": name, "cutoff": c,
             "recall": evaluation.recall_at_n(ranked, test, c),
             "ndcg": evaluation.ndcg_at_n(ranked, test, c)}
            for name, test in tests.items() for c in cutoffs]


def _parse_list(raw: str, flag: str, kind=int) -> list:
    """Comma-separated ``kind`` values, each stripped; empty parts skipped."""
    try:
        return [kind(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated "
                         f"{kind.__name__} values, got {raw!r}") from exc


def _check(flag: str, raw, ok: bool, rule: str) -> None:
    """Usage error naming ``flag`` unless its value ``raw`` keeps ``rule``."""
    if not ok:
        raise UsageError(f"{flag}: {rule}, got {raw!r}")


def _check_variant(cfg: Config, flag: str, **change) -> None:
    """Usage error naming ``flag`` unless ``cfg`` with ``change`` is valid."""
    try:
        replace(cfg, **change).validate()
    except ConfigError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_bounds(raw, flag: str):
    if raw is None:
        return None
    bounds = _parse_list(raw, flag)
    _check(flag, raw, bounds and bounds == sorted(set(bounds)),
           "need strictly increasing bounds")
    return bounds


def _epoch_log(run_dir: str):
    """Print and collect each epoch's row, with the process's peak RSS so
    far and the minor page faults since the previous row (allocator churn)
    added to the printed and written copy only."""
    rows = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def log(row):
        nonlocal faults
        usage = resource.getrusage(resource.RUSAGE_SELF)
        rows.append(dict(row, peak_rss_mb=round(usage.ru_maxrss / 1024, 1),
                         minor_faults=usage.ru_minflt - faults))
        faults = usage.ru_minflt
        _print_rows(rows[-1:])

    def flush():
        if rows:
            evaluation.write_csv(os.path.join(run_dir, "epochs.csv"), rows)

    return log, flush


def _checkpoint_setup(args):
    """Model, config and rebuilt splits for checkpoint-consuming commands."""
    if not os.path.exists(args.checkpoint):
        raise UsageError(f"checkpoint not found: {args.checkpoint!r}")
    ckpt = trainer.load_checkpoint(args.checkpoint)
    cfg = _effective_config(args, base=ckpt.config)
    # the model is the checkpoint's: only the data and output paths may vary
    for f in fields(Config):
        saved, given = getattr(ckpt.config, f.name), getattr(cfg, f.name)
        if f.name not in ("data", "out") and given != saved:
            raise UsageError(f"{f.name} = {given} differs from the "
                             f"checkpoint's {f.name} = {saved}; a checkpoint "
                             f"command cannot apply it")
    splits = data_mod.split(_load_dataset(cfg), cfg.seed)
    model = trainer.build_model(ckpt)
    if (model.num_users, model.num_items) != (splits.num_users,
                                              splits.num_items):
        raise UsageError(
            f"checkpoint was trained on {model.num_users} users x "
            f"{model.num_items} items but the data has {splits.num_users} x "
            f"{splits.num_items}")
    adj = data_mod.build_normalized_adjacency(splits.train)
    return model, cfg, splits, adj


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    splits = data_mod.split(dataset, cfg.seed)
    run_dir = _run_dir(cfg, "train")
    log, flush = _epoch_log(run_dir)
    try:
        run = experiments.train_on_split(splits, cfg, out_dir=run_dir,
                                         log_fn=log)
    finally:
        flush()
    rows = _metric_rows(run.model, run.adj, run.splits,
                        ("validation", "test"), (20, 40))
    print(f"best epoch {run.result.best_epoch} "
          f"(validation recall@{trainer.SELECTION_CUTOFF} = "
          f"{run.result.best_metric})")
    return _report(run_dir, "metrics.csv", rows)


def cmd_evaluate(args) -> int:
    _check("--split", args.split, args.split in ("validation", "test"),
           "must be validation or test")
    cutoffs = _parse_list(args.cutoffs, "--cutoffs")
    _check("--cutoffs", args.cutoffs, cutoffs and min(cutoffs) >= 1,
           "need one or more cutoffs >= 1")
    model, cfg, splits, adj = _checkpoint_setup(args)
    rows = _metric_rows(model, adj, splits, (args.split,), cutoffs)
    return _report(_run_dir(cfg, "evaluate"), "metrics.csv", rows)


def cmd_noise_test(args) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    ratios = _parse_list(args.ratios, "--ratios", float)
    _check("--ratios", args.ratios,
           all(0.0 <= r < data_mod.MAX_NOISE_RATIO for r in ratios),
           f"each ratio must be in [0, {data_mod.MAX_NOISE_RATIO})")
    _check("--cutoff", args.cutoff, args.cutoff >= 1, "need a cutoff >= 1")
    run_dir = _run_dir(cfg, "noise-test")
    rows = experiments.noise_robustness(dataset, ratios, cfg,
                                        cutoff=args.cutoff)
    return _report(run_dir, "noise.csv", rows)


def cmd_sparsity_report(args) -> int:
    user_bounds = _parse_bounds(args.user_bounds, "--user-bounds")
    item_bounds = _parse_bounds(args.item_bounds, "--item-bounds")
    if user_bounds is None and item_bounds is None:
        raise UsageError("need --user-bounds and/or --item-bounds")
    _check("--cutoff", args.cutoff, args.cutoff >= 1, "need a cutoff >= 1")
    model, cfg, splits, adj = _checkpoint_setup(args)
    rows = experiments.sparsity_report(model, adj, splits, user_bounds,
                                       item_bounds, n=args.cutoff)
    return _report(_run_dir(cfg, "sparsity-report"), "sparsity.csv", rows)


def cmd_ablate(args) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    flags = _parse_list(args.flags, "--flags", str) if args.flags else None
    for flag in flags or ():
        _check_variant(cfg, "--flags", ablate=(flag,))
    splits = data_mod.split(dataset, cfg.seed)
    run_dir = _run_dir(cfg, "ablate")
    rows = experiments.ablation_study(splits, cfg, flags=flags,
                                      cutoffs=(20, 40))
    return _report(run_dir, "ablation.csv", rows)


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    _check("--vary", args.vary, args.vary, "need one or more param=v1,v2,...")
    grid = {}
    for spec in args.vary:
        _check("--vary", spec, "=" in spec, "expected param=v1,v2,...")
        param, raw = spec.split("=", 1)
        param = param.strip()
        _check(f"--vary {param}", raw, param not in ("data", "out"),
               "a sweep reads one data file into one run directory")
        parts = _parse_list(raw, f"--vary {param}", str)
        _check(f"--vary {param}", raw, parts, "no values")
        for part in parts:
            # reuse the config parser so each value gets the field's type
            value = getattr(config_from_mapping({param: part}, cfg), param)
            _check_variant(cfg, f"--vary {param}", **{param: value})
            grid.setdefault(param, []).append(value)
    _check("--cutoff", args.cutoff, args.cutoff >= 1, "need a cutoff >= 1")
    splits = data_mod.split(dataset, cfg.seed)
    run_dir = _run_dir(cfg, "sweep")
    rows = experiments.sweep(splits, cfg, grid, cutoff=args.cutoff)
    return _report(run_dir, "sweep.csv",
                   [dict(row, value=format_value(row["value"]))
                    for row in rows])


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="hypercf",
                     description="hypergraph-transformer recommender runs")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", default=None,
                       help="flat key = value config file")
        _add_config_flags(p)
        p.set_defaults(fn=fn)
        return p

    command("train", cmd_train, help="fit a model and checkpoint it")

    p = command("evaluate", cmd_evaluate, help="score a saved checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--split", default="test",
                   help="validation or test (default test)")
    p.add_argument("--cutoffs", default="20,40",
                   help="comma-separated cutoffs (default 20,40)")

    p = command("noise-test", cmd_noise_test,
                help="retrain under corrupted training edges")
    p.add_argument("--ratios", default="0.05,0.1,0.15,0.2,0.25",
                   help="noise ratios (default 0.05..0.25)")
    p.add_argument("--cutoff", type=int, default=20)

    p = command("sparsity-report", cmd_sparsity_report,
                help="metrics per interaction-count bucket")
    p.add_argument("checkpoint")
    p.add_argument("--user-bounds", default=None,
                   help="bucket upper bounds for user degree, e.g. 15,30")
    p.add_argument("--item-bounds", default=None)
    p.add_argument("--cutoff", type=int, default=40)

    p = command("ablate", cmd_ablate,
                help="train the full model and each component ablation")
    p.add_argument("--flags", default=None,
                   help="comma-separated subset (default: all ablations)")

    p = command("sweep", cmd_sweep,
                help="one-axis hyperparameter study")
    p.add_argument("--vary", action="append", default=[],
                   metavar="PARAM=V1,V2",
                   help="repeatable; e.g. --vary d=16,32 --vary layers=1,2")
    p.add_argument("--cutoff", type=int, default=20)

    parser.commands = tuple(sub.choices)  # in registration order
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing command; expected one of "
                             + ", ".join(parser.commands))
        return args.fn(args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: one-line diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
