"""The three benchmark workloads, their correctness checks and their metrics.

Every workload is a closed loop in one process: a step, pass or fit starts
when the previous one has ended. Before each unit the run sets up (TSV
parse, split, adjacency, model init) for ``SETUP_SLICE_S``, at least once,
and the unit runs on the last set-up's fresh model. Spreading the set-ups
over the whole run lets their median see the same machine phases as the
units do. Units repeat until the requested seconds have passed.

Untraced phases carry only the step clock: one timestamp per ``Adam.step``
call and one at each epoch start. A traced phase adds span wrappers around
the public functions of each ``hypercf`` module (see ``install_tracing``);
every original is restored when the phase ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from hypercf import autodiff as ad
from hypercf import data, encoder, evaluation, experiments, solidity
from hypercf import trainer, transformer
from hypercf.config import Config
from hypercf.model import Model
from hypercf.rng import STREAM_TRAIN, spawn_rng

import oracle
import tracing

CUTOFF = 20
SETUP_SLICE_S = 0.4
ORACLE_USERS = 64
BLOCKS = 8
EDGES_PER_USER = 20
PACKAGE = "hypercf"

OPS = ("matmul", "slice_cols", "concat_cols", "add", "transpose", "hadamard",
       "sum_all", "gather_rows", "spmm")

# autodiff names that control the tape rather than record a node
TAPE_CONTROL = frozenset({
    "backward", "grad_check", "set_default_dtype", "default_dtype",
    "set_checked", "is_recording", "tape_size", "clear_tape"})


@dataclass(frozen=True)
class Spec:
    name: str
    users: int
    items: int
    kind: str          # "train", "eval" or "fit"
    epochs: int = 50

    def config(self, seed: int) -> Config:
        return Config(seed=seed, hyperedges=16, epochs=self.epochs)


WORKLOADS = {
    "train-4k": Spec("train-4k", 4000, 2000, "train"),
    "eval-10k": Spec("eval-10k", 10000, 5000, "eval"),
    "fit-400": Spec("fit-400", 400, 200, "fit"),
}


@dataclass
class Tally:
    """Operations attempted and failed, with a message per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
        return ok


@dataclass
class Phase:
    """What one untraced or traced pass over a workload measured."""

    setup_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)     # training steps
    pass_s: list = field(default_factory=list)     # evaluation passes
    job_s: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0
    rss_delta_mb: float = 0.0

    @property
    def unit_s(self) -> list:
        """Durations of the closed loop's steps: training steps, or
        evaluation passes where the workload trains nothing."""
        return self.step_s or self.pass_s


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class StepClock:
    """Step boundaries from one timestamp per ``Adam.step`` call.

    A step runs from the previous ``Adam.step`` return (or the start of its
    epoch) to its own return. After each step the tape must be empty.
    """

    def __init__(self, phase: Phase, tally: Tally, tracer=None):
        self.phase = phase
        self.tally = tally
        self.tracer = tracer
        self.last = 0.0

    def install(self, patcher: tracing.Patcher) -> None:
        step = trainer.Adam.step
        epoch = trainer.train_epoch
        clock = self

        @functools.wraps(step)
        def timed_step(opt, params):
            step(opt, params)
            now = time.perf_counter()
            clock.phase.step_s.append(now - clock.last)
            clock.last = now
            clock.tally.check(ad.tape_size() == 0,
                              f"tape holds {ad.tape_size()} nodes after a step")
            if clock.tracer is not None:
                clock.tracer.step += 1

        @functools.wraps(epoch)
        def timed_epoch(*args, **kwargs):
            clock.last = time.perf_counter()
            return epoch(*args, **kwargs)

        patcher.replace(trainer.Adam, "step", tracing.mark(timed_step))
        patcher.replace_everywhere(epoch, tracing.mark(timed_epoch), PACKAGE)


# -- tracing ---------------------------------------------------------------

# (module or class, attribute, span name)
TRACED = (
    (data, "load_interactions", "data.load_interactions"),
    (data, "split", "data.split"),
    (data, "build_normalized_adjacency", "data.build_normalized_adjacency"),
    (data, "sample_main_pairs", "data.sample_main_pairs"),
    (data, "sample_sal_pairs", "data.sample_sal_pairs"),
    (encoder, "topo_embed", "encoder.topo_embed"),
    (transformer, "forward", "transformer.forward"),
    (solidity, "meta_transform", "solidity.meta_transform"),
    (solidity, "solidity_label", "solidity.solidity_label"),
    (Model, "forward", "model.forward"),
    (Model, "main_loss", "model.main_loss"),
    (Model, "sal_loss", "model.sal_loss"),
    (Model, "reg_loss", "model.reg_loss"),
    (Model, "embedding_tables", "model.embedding_tables"),
    (ad, "backward", "autodiff.backward"),
    (trainer.Adam, "step", "trainer.adam_step"),
    (trainer, "train_epoch", "trainer.train_epoch"),
    (trainer, "fit", "trainer.fit"),
    (trainer, "save_checkpoint", "trainer.save_checkpoint"),
    (trainer, "load_checkpoint", "trainer.load_checkpoint"),
    (evaluation, "evaluate_model", "evaluation.evaluate_model"),
    (evaluation, "evaluate_scores", "evaluation.evaluate_scores"),
    (evaluation, "score_matrix", "evaluation.score_matrix"),
    (evaluation, "rank_all", "evaluation.rank_all"),
    (evaluation, "recall_at_n", "evaluation.metrics"),
    (evaluation, "ndcg_at_n", "evaluation.metrics"),
)


def primitive_names() -> list:
    """Public functions of the autodiff module other than tape control."""
    return sorted(name for name, value in vars(ad).items()
                  if callable(value) and not isinstance(value, type)
                  and getattr(value, "__module__", None) == ad.__name__
                  and not name.startswith("_") and name not in TAPE_CONTROL)


def _node_counter(tracer: tracing.Tracer, fn):
    """Count each recorded tape node by op and time its VJP as a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        vjp = getattr(out, "vjp", None)
        if vjp is not None:
            name = "autodiff.backward." + out.op
            tracer.counts["autodiff.nodes." + out.op] += 1

            def timed_vjp(g):
                idx = tracer.open(name)
                try:
                    vjp(g)
                finally:
                    tracer.close(idx)

            out.vjp = timed_vjp
        return out

    return tracing.mark(wrapper)


def install_tracing(tracer: tracing.Tracer, patcher: tracing.Patcher) -> None:
    """Wrap every traced function at each place the program looks it up."""
    for owner, attr, span in TRACED:
        current = owner.__dict__[attr]
        wrapped = tracer.wrap(current, span)
        if isinstance(owner, type):
            patcher.replace(owner, attr, wrapped)
        elif not patcher.replace_everywhere(current, wrapped, PACKAGE):
            raise RuntimeError(f"{owner.__name__}.{attr} is bound nowhere")
    primitives = {id(vars(ad)[name]): vars(ad)[name]
                  for name in primitive_names()}
    for fn in primitives.values():
        patcher.replace_everywhere(fn, _node_counter(tracer, fn), PACKAGE)


# -- workload runner -------------------------------------------------------

class Runner:
    """Data, set-up and the closed loop of one workload at one seed."""

    def __init__(self, spec: Spec, seed: int, workdir: str):
        self.spec = spec
        self.seed = seed
        self.cfg = spec.config(seed)
        self.workdir = workdir
        self.tsv = os.path.join(workdir, "interactions.tsv")
        dataset = data.synthetic_blocks(spec.users, spec.items, BLOCKS,
                                        EDGES_PER_USER, seed=seed)
        data.write_interactions(self.tsv, dataset)
        self.tally = Tally()
        self.tracer = None

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def set_up(self, phase: Phase):
        """Set up for ``SETUP_SLICE_S``, at least once; return the last."""
        slice_start = time.perf_counter()
        while True:
            with self.span("perfbench.setup"):
                start = time.perf_counter()
                dataset = data.load_interactions(self.tsv)
                splits = data.split(dataset, self.seed)
                adj = data.build_normalized_adjacency(splits.train)
                model = Model(self.cfg, splits.num_users, splits.num_items)
                phase.setup_s.append(time.perf_counter() - start)
            if time.perf_counter() - slice_start >= SETUP_SLICE_S:
                return splits, adj, model

    def measure(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        self.tracer = tracer
        patcher = tracing.Patcher()
        try:
            StepClock(phase, self.tally, tracer).install(patcher)
            if tracer is not None:
                install_tracing(tracer, patcher)
            unit = getattr(self, "_" + self.spec.kind)
            start = time.perf_counter()
            while True:
                unit(phase, *self.set_up(phase))
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            patcher.restore()
            self.tracer = None
        return phase

    def _train(self, phase: Phase, splits, adj, model) -> None:
        optimizer = trainer.Adam(model.params, lr=self.cfg.lr)
        rng = spawn_rng(self.seed, STREAM_TRAIN)
        start = time.perf_counter()
        try:
            row = trainer.train_epoch(model, adj, splits.train, optimizer,
                                      rng, 0)
        except trainer.DivergenceError as err:
            self.tally.check(False, str(err))
            return
        phase.job_s.append(time.perf_counter() - start)
        phase.fingerprints.append(row["loss"])

    def _eval(self, phase: Phase, splits, adj, model) -> None:
        train, validation = splits.train, splits.validation
        first = not phase.pass_s
        rss_before = current_rss_mb() if first else 0.0
        with self.span("perfbench.eval_pass"):
            start = time.perf_counter()
            user_emb, item_emb = model.embedding_tables(adj)
            scores = evaluation.score_matrix(user_emb, item_emb)
            ranked = evaluation.rank_all(scores, train, CUTOFF)
            del scores
            recall = evaluation.recall_at_n(ranked, validation, CUTOFF)
            ndcg = evaluation.ndcg_at_n(ranked, validation, CUTOFF)
            elapsed = time.perf_counter() - start
        if first:
            phase.rss_delta_mb = max(0.0, peak_rss_mb() - rss_before)
        phase.pass_s.append(elapsed)
        phase.job_s.append(elapsed)
        phase.fingerprints.append((recall, ndcg))
        with self.span("perfbench.check"):
            problems = self._oracle_problems(user_emb, item_emb, ranked,
                                             train, validation)
        self.tally.check(not problems, "; ".join(problems[:3]))

    def _oracle_problems(self, user_emb, item_emb, ranked, train,
                         validation) -> list:
        rng = np.random.default_rng([self.seed, 7919])
        with_items = np.flatnonzero(validation.user_degree() > 0)
        users = np.sort(rng.choice(with_items, replace=False,
                                   size=min(ORACLE_USERS, len(with_items))))
        expected = oracle.brute_force_top_n(user_emb, item_emb,
                                            train.items_of, users, CUTOFF)
        problems = oracle.ranking_mismatches(expected, ranked.items[users],
                                             users)
        want = oracle.mean_recall_ndcg(expected, users, validation.items_of,
                                       CUTOFF)
        sample = data.InteractionDataset.from_edges(
            validation.edges[np.isin(validation.edges[:, 0], users)],
            validation.num_users, validation.num_items)
        got = (evaluation.recall_at_n(ranked, sample, CUTOFF),
               evaluation.ndcg_at_n(ranked, sample, CUTOFF))
        for name, w, g in zip(("recall", "ndcg"), want, got):
            if not oracle.close(w, g):
                problems.append(f"sampled {name}@{CUTOFF}: brute force {w!r}, "
                                f"program {g!r}")
        return problems

    def _fit(self, phase: Phase, splits, adj, model) -> None:
        with tempfile.TemporaryDirectory(dir=self.workdir) as out:
            start = time.perf_counter()
            try:
                result = trainer.fit(model, adj, splits, out_dir=out)
            except trainer.DivergenceError as err:
                self.tally.check(False, str(err))
                return
            phase.job_s.append(time.perf_counter() - start)
            trainer.load_values(model, result.best_values)
            with self.span("perfbench.test_scoring"):
                run = experiments.TrainedRun(model, adj, splits, result)
                metrics = run.test_metrics((CUTOFF,))
            best = os.path.join(out, "best.ckpt")
            phase.checkpoint_bytes = os.path.getsize(best)
            ckpt = trainer.load_checkpoint(best)
            with self.span("perfbench.check"):
                saved = ckpt.parameters()
                same = (sorted(saved) == sorted(model.params) and all(
                    saved[name].dtype == p.value.dtype
                    and np.array_equal(saved[name], p.value)
                    for name, p in model.params.items()))
            self.tally.check(same, "best.ckpt differs from the restored model")
        phase.quality = {"recall": metrics[f"recall@{CUTOFF}"],
                         "ndcg": metrics[f"ndcg@{CUTOFF}"]}
        phase.fingerprints.append((phase.quality["recall"],
                                   phase.quality["ndcg"]))

    def check_repeatable(self, *phases: Phase) -> None:
        """Every unit of every phase must give bit-identical results."""
        prints = [fp for phase in phases for fp in phase.fingerprints]
        for i, fp in enumerate(prints[1:], start=1):
            self.tally.check(fp == prints[0],
                             f"unit {i} gave {fp!r}, unit 0 gave {prints[0]!r}")


# -- metrics ---------------------------------------------------------------

def end_to_end(phase: Phase) -> dict:
    """The metrics every workload reports with tracing off."""
    return {
        "setup_s": (statistics.median(phase.setup_s), "s"),
        "step_ms.p50": (1e3 * statistics.median(phase.unit_s), "ms"),
        "job_s": (statistics.median(phase.job_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


TRAIN_LAYERS = ("transformer.forward", "encoder.topo_embed",
                "solidity.meta_transform", "solidity.solidity_label",
                "model.forward", "model.main_loss", "model.sal_loss",
                "model.reg_loss", "trainer.adam_step",
                "data.sample_main_pairs", "data.sample_sal_pairs",
                "autodiff.backward")
EVAL_LAYERS = ("evaluation.score_matrix", "evaluation.rank_all",
               "evaluation.metrics")
SETUP_LAYERS = ("data.load_interactions", "data.split",
                "data.build_normalized_adjacency")
TRAIN_ROOTS = frozenset({"trainer.train_epoch"})
EVAL_ROOTS = frozenset({"perfbench.eval_pass", "evaluation.evaluate_model",
                        "perfbench.test_scoring"})


@dataclass
class TraceSummary:
    records: list
    self_s: list
    train_mask: list
    eval_mask: list
    steps: int
    passes: int


def summarize(tracer: tracing.Tracer, phase: Phase) -> TraceSummary:
    records = tracer.records()
    eval_mask = tracing.in_subtree(records, EVAL_ROOTS)
    # every pass ranks exactly once
    passes = sum(1 for rec, ev in zip(records, eval_mask)
                 if ev and rec[0] == "evaluation.rank_all")
    return TraceSummary(records, tracing.self_times(records),
                        tracing.in_subtree(records, TRAIN_ROOTS), eval_mask,
                        len(phase.step_s), passes)


def per_layer(summary: TraceSummary, traced: Phase, untraced: Phase,
              counts) -> dict:
    """Per-layer metrics of one traced phase: self times per step, per
    pass, per set-up or per call, tape counts per step."""
    recs, self_s = summary.records, summary.self_s
    train = tracing.totals_by_name(recs, self_s, summary.train_mask)
    evals = tracing.totals_by_name(recs, self_s, summary.eval_mask)
    every = tracing.totals_by_name(recs, self_s)
    calls = tracing.totals_by_name(recs, [1] * len(recs))
    steps, passes = summary.steps, summary.passes

    def per(total, n):
        return total / n if n else 0.0

    out = {}
    nodes = sum(v for k, v in counts.items() if k.startswith("autodiff.nodes."))
    out["autodiff.tape_nodes"] = (per(nodes, steps), "count")
    for op in OPS:
        out[f"autodiff.nodes.{op}"] = (
            per(counts.get(f"autodiff.nodes.{op}", 0), steps), "count")
    vjps_run = sum(n for name, n in tracing.totals_by_name(
        recs, [1] * len(recs), summary.train_mask).items()
        if name.startswith("autodiff.backward."))
    for name in TRAIN_LAYERS:
        out[name + "_ms"] = (1e3 * per(train.get(name, 0.0), steps), "ms")
    for op in OPS:
        out[f"autodiff.backward.{op}_ms"] = (
            1e3 * per(train.get(f"autodiff.backward.{op}", 0.0), steps), "ms")
    out["autodiff.vjp_run_frac"] = (per(vjps_run, nodes), "ratio")
    for name in SETUP_LAYERS:
        out[name + "_s"] = (per(every.get(name, 0.0), len(traced.setup_s)),
                            "s")
    fits = calls.get("trainer.fit", 0)
    out["trainer.save_checkpoint_ms"] = (1e3 * per(
        every.get("trainer.save_checkpoint", 0.0),
        calls.get("trainer.save_checkpoint", 0)), "ms")
    out["trainer.checkpoint_bytes"] = (traced.checkpoint_bytes, "bytes")
    out["trainer.load_checkpoint_ms"] = (1e3 * per(
        every.get("trainer.load_checkpoint", 0.0),
        calls.get("trainer.load_checkpoint", 0)), "ms")
    validation = [e - s for (name, s, e, _, _) in recs
                  if name == "evaluation.evaluate_model"]
    out["trainer.validation_s"] = (per(sum(validation), fits), "s")
    for name in EVAL_LAYERS:
        out[name + "_s"] = (per(evals.get(name, 0.0), passes), "s")
    tables = [e - s for (name, s, e, _, _), ev in zip(recs, summary.eval_mask)
              if ev and name == "model.embedding_tables"]
    out["model.embedding_tables_s"] = (per(sum(tables), passes), "s")
    out["evaluation.rss_delta_mb"] = (untraced.rss_delta_mb, "MB")
    unit = 1e3 * (statistics.median(traced.unit_s)
                  - statistics.median(untraced.unit_s))
    out["trace.overhead_ms"] = (unit, "ms")
    out["quality.recall20"] = (traced.quality.get("recall", 0.0), "ratio")
    out["quality.ndcg20"] = (traced.quality.get("ndcg", 0.0), "ratio")
    return out


def accounting(summary: TraceSummary, mask, roots, unit_count: int,
               title: str, measured_s: float) -> list:
    """Lines showing how span self times add up to the traced unit time.

    The self time of the root spans (the loop or pass itself) is the
    remainder: time spent outside every layer span.
    """
    if not unit_count:
        return []
    totals = tracing.totals_by_name(summary.records, summary.self_s, mask)
    total = sum(totals.values())
    lines = [f"{title}: self time per unit by span (n={unit_count})"]
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        note = "  <- remainder" if name in roots else ""
        lines.append(f"  {name:<40s} {1e3 * value / unit_count:12.4f} ms "
                     f"{100 * value / total:6.2f}%{note}")
    lines.append(f"  {'sum of self times':<40s} "
                 f"{1e3 * total / unit_count:12.4f} ms")
    lines.append(f"  {'unit time (step clock or pass span), mean':<40s} "
                 f"{1e3 * measured_s:12.4f} ms")
    return lines


def mean_pass_s(summary: TraceSummary) -> float:
    """Mean inclusive duration of the evaluation passes' root spans."""
    durations = [end - start for (name, start, end, parent, _) in
                 summary.records if name in EVAL_ROOTS
                 and (parent < 0 or not summary.eval_mask[parent])]
    return statistics.fmean(durations) if durations else 0.0
