"""hypercf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-4k --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports ``hypercf`` from the
checkout's ``src`` and nowhere else, and exits non-zero without a result
when that is missing. Generated data, checkpoints and span dumps go under
``.perfbench_out/`` in the checkout.

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` runs the same loop untraced and then traced, each for half
the seconds, and reports the per-layer metrics. Human-readable lines come first; the last line of
standard output is the JSON result.
"""

import os

# pinned before numpy is imported anywhere
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-4k", "eval-10k", "fit-400"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import hypercf from the checkout's src, or explain why not."""
    if not os.path.isdir(os.path.join(SRC, "hypercf")):
        raise ImportError(f"no hypercf package under {SRC}")
    sys.path.insert(0, SRC)
    import hypercf
    where = os.path.dirname(os.path.abspath(hypercf.__file__))
    if where != os.path.join(SRC, "hypercf"):
        raise ImportError(f"hypercf imported from {where}, not from {SRC}")
    return hypercf


def environment(args) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{key: os.environ[key] for key in BLAS_ENV},
    }


def readable_lines(spec, phase, e2e, tally) -> list:
    """End-to-end metrics under their per-workload names, with units."""
    rows = [("setup_s", e2e["setup_s"][0], "s", f"median of {len(phase.setup_s)}")]
    if phase.step_s:
        n = len(phase.step_s)
        p90 = statistics.quantiles(phase.step_s, n=10, method="inclusive")[8]
        rows += [("train.step_ms.p50", 1e3 * statistics.median(phase.step_s), "ms", f"n={n}"),
                 ("train.step_ms.p90", 1e3 * p90, "ms", f"n={n}")]
    if phase.pass_s:
        rows.append(("eval.pass_s.p50", statistics.median(phase.pass_s), "s",
                     f"n={len(phase.pass_s)}"))
    if spec.kind == "fit":
        rows += [("fit.wall_s", e2e["job_s"][0], "s", f"median of {len(phase.job_s)}"),
                 ("quality.recall20", phase.quality["recall"], "ratio", "test split"),
                 ("quality.ndcg20", phase.quality["ndcg"], "ratio", "test split")]
    elif spec.kind == "train":
        rows.append(("train.epoch_s", e2e["job_s"][0], "s", f"median of {len(phase.job_s)}"))
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", "ru_maxrss"))
    rows.append(("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
                 f"{tally.failed} of {tally.attempted}"))
    return [f"  {name:<22s} {value:14.6f} {unit:<6s} ({note})"
            for name, value, unit, note in rows]


def write_spans(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent,step\n")
        for name, start, end, parent, step in records:
            fh.write(f"{name},{start!r},{end!r},{parent},{step}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_program()
    except ImportError as err:
        print(f"cannot import the program: {err}", file=sys.stderr)
        return 2
    import workloads
    import tracing

    env = environment(args)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    spec = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        runner = workloads.Runner(spec, args.seed, workdir)
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = runner.measure(seconds)
        phases = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            traced = runner.measure(seconds, tracer)
            phases.append(traced)
            leftover = tracing.leftover_wrappers(
                workloads.PACKAGE, (workloads.Model, workloads.trainer.Adam))
            runner.tally.check(not leftover,
                               f"wrappers left after tracing: {leftover}")
        runner.check_repeatable(*phases)

    tally = runner.tally
    e2e = workloads.end_to_end(untraced)
    print(f"{spec.name}: end-to-end, tracing off")
    print("\n".join(readable_lines(spec, untraced, e2e, tally)))
    if args.trace:
        summary = workloads.summarize(tracer, traced)
        metrics = workloads.per_layer(summary, traced, untraced, tracer.counts)
        for lines in (
                workloads.accounting(
                    summary, summary.train_mask, workloads.TRAIN_ROOTS,
                    summary.steps, "traced training step",
                    statistics.fmean(traced.step_s or [0])),
                workloads.accounting(
                    summary, summary.eval_mask, workloads.EVAL_ROOTS,
                    summary.passes, "traced evaluation pass",
                    workloads.mean_pass_s(summary))):
            for line in lines:
                print(line)
        print(f"{spec.name}: per-layer, tracing on")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40s} {value:16.6f} {unit}")
        spans = os.path.join(OUT, f"spans-{spec.name}.csv")
        write_spans(spans, summary.records)
        print(f"spans: {len(summary.records)} written to {spans}")
    else:
        metrics = e2e
    for problem in tally.problems[:10]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
