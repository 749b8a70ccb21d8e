"""Optimization loop: Adam with per-epoch learning-rate decay, mini-batch
pair sampling, per-epoch validation with best-model retention, and a binary
checkpoint format that restores training bit-for-bit.

A run's position is one ``Progress`` record: ``fit`` continues from it and
updates it, every checkpoint stores it, and ``resume`` hands it back to
``fit``.

One optimizer, one tape, one thread. Parameter iteration order is sorted by
name everywhere so update order (and therefore the trained result) is
deterministic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import evaluation
from .config import Config, ConfigError, format_config, parse_config_text
from .data import sample_main_pairs, sample_sal_pairs
from .model import Model
from .rng import STREAM_TRAIN, spawn_rng

SELECTION_CUTOFF = 20  # validation metric used to pick the best epoch

# Adam's decay rates and epsilon; fixed, so a checkpoint need not store them
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    """Unrecoverable training-loop failure."""


class DivergenceError(TrainingError):
    """Loss became non-finite; reports the offending epoch and batch."""

    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(
            f"non-finite loss {value!r} in epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.value = value


class CheckpointError(RuntimeError):
    """Malformed checkpoint file or checkpoint/model mismatch."""


def learning_rate(lr0: float, decay: float, epoch: int) -> float:
    """Step-decayed rate for a zero-based epoch index: lr0 * decay**epoch."""
    return lr0 * decay ** epoch


class Adam:
    """Adam with bias correction over a parameter store (``ad.Store``).

    The store holds every parameter in one value vector and one gradient
    vector, the leaf ``params.flat``. The optimizer keeps the store it was
    built on and owns exactly the moments ``m`` and ``v``, two vectors laid
    out as the store's. A step runs the update over the vectors in blocks of
    ``ad.BLOCK`` entries, each block's intermediates in one scratch pair of
    that size, allocated per step and freed on return.
    """

    def __init__(self, params: ad.Store, lr: float):
        if not isinstance(params, ad.Store):
            raise ValueError("Adam needs a parameter registry built as an "
                             f"ad.Store, got {type(params).__name__}")
        self.lr = lr
        self.steps = 0
        self.params = params
        self.m = np.zeros(params.flat.value.size, params.flat.value.dtype)
        self.v = np.zeros_like(self.m)

    def step(self, params: ad.Store) -> None:
        """One update of every parameter of the registry ``params``, the
        one this optimizer was built on.

        Per entry: m = b1·m + (1-b1)·g, v = b2·v + (1-b2)·g², then
        p -= lr·(m/c1) / (sqrt(v/c2) + eps), with c1, c2 the bias
        corrections; each operation in this order, in the parameters'
        dtype, so the result does not depend on the blocking.
        """
        if params is not self.params:
            raise ValueError("Adam.step: not the registry it was built on")
        self.steps += 1
        c1 = 1.0 - BETA1 ** self.steps
        c2 = 1.0 - BETA2 ** self.steps
        scratch = np.empty((2, min(ad.BLOCK, self.m.size)), self.m.dtype)
        vectors = (params.flat.value.reshape(-1),
                   params.flat.grad.reshape(-1), self.m, self.v)
        for lo in range(0, self.m.size, ad.BLOCK):
            p, g, m, v = (a[lo:lo + ad.BLOCK] for a in vectors)
            step, denom = scratch[:, :len(m)]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=step)
            m += step
            v *= BETA2
            np.square(g, out=step)
            step *= 1.0 - BETA2
            v += step
            np.divide(m, c1, out=step)
            step *= self.lr
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            p -= step


def train_epoch(model: Model, adj, train_ds, optimizer: Adam,
                rng: np.random.Generator, epoch: int) -> dict:
    """One pass over shuffled user mini-batches.

    Per batch: forward over the whole graph, ranking pairs drawn from the
    batch users, solidity pairs drawn from all training edges, backward,
    Adam step. Aborts on a non-finite loss, naming the batch. The row holds
    the epoch's mean loss parts and ``tape_nodes``, the mean tape length a
    backward walked.
    """
    cfg = model.cfg
    optimizer.lr = learning_rate(cfg.lr, cfg.decay, epoch)
    perm = rng.permutation(model.num_users)
    degrees = train_ds.user_degree()

    sums = {"loss": 0.0, "main": 0.0, "sal": 0.0, "reg": 0.0,
            "tape_nodes": 0}
    batches = skipped = 0
    for start in range(0, len(perm), cfg.batch):
        users = perm[start:start + cfg.batch]
        if not degrees[users].any():
            skipped += 1
            continue
        main = sample_main_pairs(train_ds, cfg.main_pair_count, rng,
                                 users=users)
        sal = (sample_sal_pairs(train_ds, cfg.sal_pair_count, rng)
               if model.supports_solidity else None)
        parts: dict = {}
        with ad.recording():
            state = model.forward(adj, dropout_rng=rng)
            loss = model.total_loss(state, main, sal, parts=parts)
        value = float(loss.value.item())
        if not np.isfinite(value):
            ad.clear_tape()
            raise DivergenceError(epoch, batches + skipped, value)
        # parameters are persistent leaves: drop the previous batch's grads
        model.params.flat.zero_grad()
        sums["tape_nodes"] += ad.tape_size()
        ad.backward(loss)
        optimizer.step(model.params)
        sums["loss"] += value
        for key in ("main", "sal", "reg"):
            sums[key] += parts[key]
        batches += 1
    if batches == 0:
        raise TrainingError("no user batch had training interactions")

    row = {"epoch": epoch, "lr": optimizer.lr, "batches": batches,
           "skipped": skipped}
    row.update({key: total / batches for key, total in sums.items()})
    return row


@dataclass
class Progress:
    """Where a run stands: its last finished epoch (-1 before the first),
    the best validation epoch and metric so far, and the validations since
    that best without improvement."""

    epoch: int = -1
    best_epoch: int = -1
    best_metric: float = float("-inf")
    stale: int = 0


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = float("-inf")
    best_values: Optional[dict] = None
    stopped_early: bool = False


def fit(model: Model, adj, splits, out_dir: str = None,
        optimizer: Adam = None, rng: np.random.Generator = None,
        progress: Progress = None, stop_after: int = None,
        log_fn=None) -> TrainResult:
    """Run epochs, validate, retain the best-validation-recall parameters.

    Starts after ``progress.epoch`` and updates ``progress`` as epochs
    finish. With ``out_dir`` set, writes last.ckpt every epoch (resume
    point) and best.ckpt on improvement. ``stop_after`` caps the epoch
    index exclusive of cfg.epochs, which lets tests interrupt and resume a
    run; it does not change which epochs validate.
    """
    cfg = model.cfg
    if optimizer is None:
        optimizer = Adam(model.params, cfg.lr)
    if rng is None:
        rng = spawn_rng(cfg.seed, STREAM_TRAIN)
    if progress is None:
        progress = Progress()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    history = []
    best_values = None
    stopped = False
    end_epoch = cfg.epochs if stop_after is None else min(cfg.epochs,
                                                          stop_after)
    for epoch in range(progress.epoch + 1, end_epoch):
        row = train_epoch(model, adj, splits.train, optimizer, rng, epoch)
        row["val_recall"] = row["val_ndcg"] = float("nan")
        progress.epoch = epoch
        validate = (epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1)
        if validate and splits.validation.num_edges > 0:
            metrics = evaluation.evaluate_model(
                model, adj, splits.train, splits.validation,
                cutoffs=(SELECTION_CUTOFF,))
            row["val_recall"] = metrics[f"recall@{SELECTION_CUTOFF}"]
            row["val_ndcg"] = metrics[f"ndcg@{SELECTION_CUTOFF}"]
            if row["val_recall"] > progress.best_metric:
                progress.best_epoch = epoch
                progress.best_metric = row["val_recall"]
                progress.stale = 0
                best_values = {name: p.value.copy()
                               for name, p in model.params.items()}
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, "best.ckpt"),
                                    model, progress, optimizer, rng)
            else:
                progress.stale += 1
        history.append(row)
        if log_fn is not None:
            log_fn(row)
        if out_dir:
            save_checkpoint(os.path.join(out_dir, "last.ckpt"), model,
                            progress, optimizer, rng)
        if cfg.patience > 0 and progress.stale > cfg.patience:
            stopped = True
            break
    return TrainResult(history, progress.best_epoch, progress.best_metric,
                       best_values, stopped)


def load_values(model: Model, values: dict) -> None:
    """Strict copy of a checkpoint's parameters or a retained best epoch
    into a model: any missing, unexpected, or reshaped array is an error."""
    for name, p in model.params.items():
        if name not in values:
            raise CheckpointError(f"missing value for {name!r}")
        arr = np.asarray(values[name])
        if arr.shape != p.value.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: value {arr.shape}, "
                f"target {p.value.shape}")
        p.value[...] = arr
    unexpected = sorted(set(values) - set(model.params))
    if unexpected:
        raise CheckpointError(
            f"values for tensors the target does not hold: {unexpected[:3]}")


# ---------------------------------------------------------------------------
# Checkpoint format
#
# magic "SHTCKPT5", a uint32 byte length, one utf-8 JSON record of that
# length, then k float32 vectors of the store's P entries: the values, then
# Adam's m and v exactly when `adam_steps` is not null (k = 1 or 3). All
# little-endian. The record holds `layout` (each parameter's [name, shape]
# once, in the store's sorted-name order, which lays out every vector), the
# `format_config` text, users, items, the Progress fields, Adam's step count
# and the rng's `bit_generator.state` (the last two null when not saved).
# Any other magic is refused, SHTCKPT1-4 included (SHTCKPT4 named each
# tensor of m, v and the values; SHTCKPT3 held K, V, W0 and V1 in the
# paper's orientation, in these same shapes), and so is a config text
# naming a key `Config` no longer has.
# ---------------------------------------------------------------------------

MAGIC = b"SHTCKPT5"


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _pcg64_state(value) -> bool:
    """Whether a scratch PCG64 takes ``value`` as its state and reads it
    back unchanged, with an int ``state`` and ``inc``: numpy truncates a
    float there, which would resume from another stream."""
    scratch = np.random.PCG64()
    try:
        scratch.state = value
    except (ValueError, TypeError, KeyError, OverflowError):
        return False
    return scratch.state == value and all(
        type(word) is int for word in value["state"].values())


# the record's keys, each with the test its value passes
RECORD_KEYS = {
    "layout": lambda v: isinstance(v, list) and all(
        type(name) is str and isinstance(shape, list) and len(shape) == 2
        and all(map(_count, shape)) for name, shape in v),
    "config": lambda v: type(v) is str,
    "users": _count,
    "items": _count,
    "progress": lambda v: isinstance(v, dict) and {
        key: type(x) for key, x in v.items()} == {
        f.name: type(f.default) for f in fields(Progress)},
    "adam_steps": lambda v: v is None or _count(v),
    "rng": lambda v: v is None or _pcg64_state(v),
}


@dataclass
class Checkpoint:
    """A read file's layout (name -> shape), its k × P float32 vectors
    (values, then m and v when saved; read-only), record and config."""

    layout: dict
    vectors: np.ndarray
    record: dict
    config: Config

    @property
    def progress(self) -> Progress:
        return Progress(**self.record["progress"])

    def parameters(self) -> dict:
        return ad.Store.slots(self.layout, self.vectors[0])

    def rng(self):
        if self.record["rng"] is None:
            return None
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.record["rng"]
        return rng


def save_checkpoint(path: str, model: Model, progress: Progress = None,
                    optimizer: Adam = None, rng=None) -> None:
    """Write the model's parameters and the run state; a file saved with
    an optimizer and an rng can be resumed."""
    vectors = [model.params.flat.value]
    if optimizer is not None:
        if optimizer.params is not model.params:
            raise ValueError("the optimizer does not update this model")
        vectors += [optimizer.m, optimizer.v]
    record = {
        "layout": [[name, list(p.shape)] for name, p in model.params.items()],
        "config": format_config(model.cfg),
        "users": model.num_users,
        "items": model.num_items,
        "progress": asdict(progress or Progress()),
        "adam_steps": None if optimizer is None else optimizer.steps,
        "rng": None if rng is None else rng.bit_generator.state,
    }
    header = json.dumps(record, sort_keys=True).encode("utf-8")

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + len(header).to_bytes(4, "little") + header)
        for vector in vectors:
            fh.write(np.ascontiguousarray(vector, dtype="<f4"))
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC.decode()} checkpoint "
                              f"file (bad magic)")
    start = len(MAGIC) + 4
    off = start + int.from_bytes(data[len(MAGIC):start], "little")
    if len(data) < off:
        raise CheckpointError(f"{path}: truncated checkpoint")
    try:  # the header is outside input: check every shape before using it
        record = json.loads(data[start:off])
        wrong = [key for key, ok in RECORD_KEYS.items()
                 if key not in record or not ok(record[key])]
        if wrong:
            raise ValueError(f"record keys missing or mistyped: {wrong}")
        names = [name for name, _ in record["layout"]]
        if names != sorted(set(names)):
            raise ValueError("the layout's names are not unique and sorted")
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CheckpointError(
            f"{path}: malformed checkpoint header ({exc!r})") from exc
    try:
        config = parse_config_text(record["config"]).validate()
    except ConfigError as exc:
        raise CheckpointError(f"{path}: checkpoint config: {exc}") from exc
    layout = {name: tuple(shape) for name, shape in record.pop("layout")}
    size = sum(math.prod(shape) for shape in layout.values())
    k = 1 if record["adam_steps"] is None else 3
    end = off + 4 * k * size
    if len(data) != end:
        raise CheckpointError(
            f"{path}: " + ("truncated checkpoint" if len(data) < end
                           else "trailing bytes after checkpoint"))
    vectors = np.frombuffer(data, "<f4", k * size, off).reshape(k, size)
    return Checkpoint(layout, vectors, record, config)


def build_model(ckpt: Checkpoint) -> Model:
    model = Model(ckpt.config, ckpt.record["users"], ckpt.record["items"])
    load_values(model, ckpt.parameters())
    return model


def resume(source, adj, splits, out_dir: str = None, stop_after: int = None,
           log_fn=None):
    """Continue a run from a checkpoint; returns (model, TrainResult).

    Bit-identical to the uninterrupted run: parameters, Adam moments and
    step count, the rng stream and the run's Progress all come from the
    file. The learning rate follows from the schedule.
    """
    ckpt = load_checkpoint(source) if isinstance(source, str) else source
    rng = ckpt.rng()
    if ckpt.record["adam_steps"] is None or rng is None:
        raise CheckpointError(
            "checkpoint has no optimizer and rng state to resume")
    # load_values matched every name and shape, so the file's layout is the
    # store's and its moment vectors copy whole
    model = build_model(ckpt)
    optimizer = Adam(model.params, model.cfg.lr)
    optimizer.steps = ckpt.record["adam_steps"]
    optimizer.m[...] = ckpt.vectors[1]
    optimizer.v[...] = ckpt.vectors[2]
    result = fit(model, adj, splits, out_dir=out_dir, optimizer=optimizer,
                 rng=rng, progress=ckpt.progress, stop_after=stop_after,
                 log_fn=log_fn)
    return model, result
