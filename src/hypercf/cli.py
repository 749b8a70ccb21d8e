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
import sys
import time
from dataclasses import fields, replace

from . import data as data_mod
from . import evaluation, experiments, trainer, viz
from .config import (Config, ConfigError, config_from_mapping, format_config,
                     load_config)
from .transformer import bench_factorization

ENV_OUT = "HYPERCF_OUT"

COMMANDS = ("train", "evaluate", "noise-test", "sparsity-report", "ablate",
            "bench", "colorize", "sweep")


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


def _metric_rows(run: experiments.TrainedRun, split_name: str,
                 cutoffs) -> list:
    test = getattr(run.splits, split_name)
    metrics = evaluation.evaluate_model(run.model, run.adj, run.splits.train,
                                        test, cutoffs)
    return [{"split": split_name, "cutoff": c,
             "recall": metrics[f"recall@{c}"], "ndcg": metrics[f"ndcg@{c}"]}
            for c in sorted(set(int(c) for c in cutoffs))]


def _parse_int_list(raw: str, flag: str) -> list:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated integers, "
                         f"got {raw!r}") from exc


def _parse_float_list(raw: str, flag: str) -> list:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers, "
                         f"got {raw!r}") from exc


def _parse_palette(raw: str) -> list:
    colors = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        triple = _parse_float_list(part, "--palette")
        if len(triple) != 3:
            raise UsageError(f"--palette: each color needs 3 components, "
                             f"got {part!r}")
        colors.append(triple)
    return colors


def _epoch_log(run_dir: str):
    rows = []

    def log(row):
        rows.append(row)
        print("  ".join(f"{k}={v}" for k, v in row.items()))

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
    dataset = _load_dataset(cfg)
    splits = data_mod.split(dataset, cfg.seed)
    model = trainer.build_model(ckpt)
    if (model.num_users, model.num_items) != (splits.num_users,
                                              splits.num_items):
        raise UsageError(
            f"checkpoint was trained on {model.num_users} users x "
            f"{model.num_items} items but the data has {splits.num_users} x "
            f"{splits.num_items}")
    adj = data_mod.build_normalized_adjacency(splits.train)
    return model, cfg, dataset, splits, adj


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
    rows = (_metric_rows(run, "validation", (20, 40)) +
            _metric_rows(run, "test", (20, 40)))
    evaluation.write_csv(os.path.join(run_dir, "metrics.csv"), rows)
    print(f"run dir: {run_dir}")
    print(f"best epoch {run.result.best_epoch} "
          f"(validation recall@{trainer.SELECTION_CUTOFF} = "
          f"{run.result.best_metric})")
    _print_rows(rows)
    return 0


def cmd_evaluate(args) -> int:
    model, cfg, dataset, splits, adj = _checkpoint_setup(args)
    if args.split not in ("validation", "test"):
        raise UsageError(f"--split must be validation or test, "
                         f"got {args.split!r}")
    cutoffs = _parse_int_list(args.cutoffs, "--cutoffs")
    if not cutoffs:
        raise UsageError("--cutoffs: need at least one cutoff")
    target = getattr(splits, args.split)
    metrics = evaluation.evaluate_model(model, adj, splits.train, target,
                                        cutoffs)
    rows = [{"split": args.split, "cutoff": c,
             "recall": metrics[f"recall@{c}"], "ndcg": metrics[f"ndcg@{c}"]}
            for c in sorted(set(cutoffs))]
    run_dir = _run_dir(cfg, "evaluate")
    evaluation.write_csv(os.path.join(run_dir, "metrics.csv"), rows)
    print(f"run dir: {run_dir}")
    _print_rows(rows)
    return 0


def cmd_noise_test(args) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    ratios = _parse_float_list(args.ratios, "--ratios")
    run_dir = _run_dir(cfg, "noise-test")
    rows = experiments.noise_robustness(dataset, ratios, cfg,
                                        cutoff=args.cutoff)
    evaluation.write_csv(os.path.join(run_dir, "noise.csv"), rows)
    print(f"run dir: {run_dir}")
    _print_rows(rows)
    return 0


def cmd_sparsity_report(args) -> int:
    model, cfg, dataset, splits, adj = _checkpoint_setup(args)
    user_bounds = (_parse_int_list(args.user_bounds, "--user-bounds")
                   if args.user_bounds else None)
    item_bounds = (_parse_int_list(args.item_bounds, "--item-bounds")
                   if args.item_bounds else None)
    if user_bounds is None and item_bounds is None:
        raise UsageError("need --user-bounds and/or --item-bounds")
    rows = experiments.sparsity_report(model, adj, splits, user_bounds,
                                       item_bounds, n=args.cutoff)
    run_dir = _run_dir(cfg, "sparsity-report")
    evaluation.write_csv(os.path.join(run_dir, "sparsity.csv"), rows)
    print(f"run dir: {run_dir}")
    _print_rows(rows)
    return 0


def cmd_ablate(args) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    flags = ([f.strip() for f in args.flags.split(",") if f.strip()]
             if args.flags else None)
    splits = data_mod.split(dataset, cfg.seed)
    run_dir = _run_dir(cfg, "ablate")
    rows = experiments.ablation_study(splits, cfg, flags=flags,
                                      cutoffs=(20, 40))
    evaluation.write_csv(os.path.join(run_dir, "ablation.csv"), rows)
    print(f"run dir: {run_dir}")
    _print_rows(rows)
    return 0


def cmd_bench(args) -> int:
    cfg = _effective_config(args)
    sizes = _parse_int_list(args.nodes, "--nodes")
    rows = [bench_factorization(n, cfg.hyperedges, cfg.d, cfg.heads,
                                repeats=args.repeats, seed=cfg.seed)
            for n in sizes]
    run_dir = _run_dir(cfg, "bench")
    evaluation.write_csv(os.path.join(run_dir, "bench.csv"), rows)
    print(f"run dir: {run_dir}")
    _print_rows(rows)
    return 0


def cmd_colorize(args) -> int:
    model, cfg, dataset, splits, adj = _checkpoint_setup(args)
    palette = (_parse_palette(args.palette) if args.palette
               else viz.DEFAULT_PALETTE)
    _, item_emb = model.embedding_tables(adj)
    colors = viz.embedding_to_color(item_emb, palette, steps=args.steps,
                                    mu=args.mu, seed=cfg.seed)
    run_dir = _run_dir(cfg, "colorize")
    path = os.path.join(run_dir, "colors.csv")
    viz.write_colors_csv(path, colors, item_ids=dataset.item_ids)
    print(f"run dir: {run_dir}")
    print(f"wrote {colors.shape[0]} colors to {path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    dataset = _load_dataset(cfg)
    if not args.vary:
        raise UsageError("need at least one --vary param=v1,v2,...")
    grid = {}
    for spec in args.vary:
        if "=" not in spec:
            raise UsageError(f"--vary: expected param=v1,v2,..., got {spec!r}")
        param, raw = spec.split("=", 1)
        param = param.strip()
        values = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            # reuse the config parser so each value gets the field's type
            values.append(getattr(config_from_mapping({param: part}, cfg),
                                  param))
        if not values:
            raise UsageError(f"--vary: no values for {param!r}")
        grid[param] = values
    splits = data_mod.split(dataset, cfg.seed)
    run_dir = _run_dir(cfg, "sweep")
    rows = experiments.sweep(splits, cfg, grid, cutoff=args.cutoff)
    evaluation.write_csv(os.path.join(run_dir, "sweep.csv"), rows)
    print(f"run dir: {run_dir}")
    _print_rows(rows)
    return 0


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

    p = command("bench", cmd_bench,
                help="time naive vs factorized attention")
    p.add_argument("--nodes", default="1000,10000,100000",
                   help="node counts to benchmark")
    p.add_argument("--repeats", type=int, default=3)

    p = command("colorize", cmd_colorize,
                help="export item-embedding colors")
    p.add_argument("checkpoint")
    p.add_argument("--palette", default=None,
                   help="semicolon-separated r,g,b triples in [0,1]")
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--mu", type=float, default=1.0)

    p = command("sweep", cmd_sweep,
                help="one-axis hyperparameter study")
    p.add_argument("--vary", action="append", default=[],
                   metavar="PARAM=V1,V2",
                   help="repeatable; e.g. --vary d=16,32 --vary layers=1,2")
    p.add_argument("--cutoff", type=int, default=20)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing command; expected one of "
                             + ", ".join(COMMANDS))
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: one-line diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
