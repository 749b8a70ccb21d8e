"""Optimization loop: Adam with per-epoch learning-rate decay, mini-batch
pair sampling, per-epoch validation with best-model retention, and a binary
checkpoint format that restores training bit-for-bit.

One optimizer, one tape, one thread. Parameter iteration order is sorted by
name everywhere so update order (and therefore the trained result) is
deterministic.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import evaluation
from .config import config_from_snapshot, config_to_mapping
from .data import sample_main_pairs, sample_sal_pairs
from .model import Model
from .rng import STREAM_TRAIN, rng_from_json, spawn_rng, state_to_json

SELECTION_CUTOFF = 20  # validation metric used to pick the best epoch


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
    """Adam with bias correction; moments live beside the parameter registry.

    Decay rates 0.9/0.999 and epsilon 1e-8; all three are recorded in saved
    checkpoints so a resumed run reproduces the original bit-for-bit. Two
    scratch arrays per parameter hold the update's intermediates, so a step
    allocates no arrays.
    """

    def __init__(self, params: dict = None, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.steps = 0
        self.m: dict = {}
        self.v: dict = {}
        self.scratch: dict = {}
        if params is not None:
            self.register(params)

    def register(self, params: dict) -> None:
        for name in sorted(params):
            value = params[name].value
            if name not in self.m:
                self.m[name] = np.zeros_like(value)
                self.v[name] = np.zeros_like(value)
                self.scratch[name] = (np.empty_like(value),
                                      np.empty_like(value))

    def step(self, params: dict) -> None:
        """One update over every parameter, in sorted-name order.

        Per parameter: m = b1·m + (1-b1)·g, v = b2·v + (1-b2)·g², then
        p -= lr·(m/c1) / (sqrt(v/c2) + eps), with c1, c2 the bias
        corrections; each operation in this order, in the parameter's dtype.
        """
        self.steps += 1
        c1 = 1.0 - self.beta1 ** self.steps
        c2 = 1.0 - self.beta2 ** self.steps
        for name in sorted(params):
            p = params[name]
            g = p.grad if p.grad is not None else 0.0
            m, v = self.m[name], self.v[name]
            step, denom = self.scratch[name]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=step)
            m += step
            v *= self.beta2
            np.square(g, out=step)
            step *= 1.0 - self.beta2
            v += step
            np.divide(m, c1, out=step)
            step *= self.lr
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.value -= step

    def moment_tensors(self) -> dict:
        out = {}
        for name in sorted(self.m):
            out["adam.m." + name] = self.m[name]
            out["adam.v." + name] = self.v[name]
        return out

    def load_moments(self, tensors: dict, params: dict) -> None:
        self.register(params)
        for name in sorted(self.m):
            for prefix, store in (("adam.m.", self.m), ("adam.v.", self.v)):
                key = prefix + name
                if key not in tensors:
                    raise CheckpointError(f"checkpoint missing tensor {key!r}")
                arr = tensors[key]
                if arr.shape != store[name].shape:
                    raise CheckpointError(
                        f"shape mismatch for {key!r}: checkpoint "
                        f"{arr.shape}, optimizer {store[name].shape}")
                store[name][...] = arr.astype(store[name].dtype)


def train_epoch(model: Model, adj, train_ds, optimizer: Adam,
                rng: np.random.Generator, epoch: int) -> dict:
    """One pass over shuffled user mini-batches.

    Per batch: forward over the whole graph, ranking pairs drawn from the
    batch users, solidity pairs drawn from all training edges, backward,
    Adam step. Aborts on a non-finite loss, naming the batch.
    """
    cfg = model.cfg
    optimizer.lr = learning_rate(cfg.lr, cfg.decay, epoch)
    perm = rng.permutation(model.num_users)
    degrees = train_ds.user_degree()

    sums = {"loss": 0.0, "main": 0.0, "sal": 0.0, "reg": 0.0}
    batches = skipped = 0
    for start in range(0, len(perm), cfg.batch):
        users = perm[start:start + cfg.batch]
        active = users[degrees[users] > 0]
        if not len(active):
            skipped += 1
            continue
        main = sample_main_pairs(train_ds, cfg.main_pair_count, rng,
                                 users=active)
        sal = (sample_sal_pairs(train_ds, cfg.sal_pair_count, rng)
               if model.supports_solidity else None)
        parts: dict = {}
        with ad.recording():
            state = model.forward(adj, training=True, dropout_rng=rng)
            loss = model.total_loss(state, main, sal, parts=parts)
        value = float(loss.value.item())
        if not np.isfinite(value):
            ad.clear_tape()
            raise DivergenceError(epoch, batches + skipped, value)
        # parameters are persistent leaves: drop the previous batch's grads
        for p in model.params.values():
            p.zero_grad()
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
class TrainResult:
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = float("-inf")
    best_values: Optional[dict] = None
    stopped_early: bool = False


def fit(model: Model, adj, splits, out_dir: str = None, start_epoch: int = 0,
        optimizer: Adam = None, rng: np.random.Generator = None,
        best: dict = None, stale: int = 0, stop_after: int = None,
        log_fn=None) -> TrainResult:
    """Run epochs, validate, retain the best-validation-recall parameters.

    With ``out_dir`` set, writes last.ckpt every epoch (resume point) and
    best.ckpt on improvement. ``stop_after`` caps the epoch index exclusive
    of cfg.epochs, which lets tests interrupt and resume a run.
    """
    cfg = model.cfg
    if optimizer is None:
        optimizer = Adam(model.params, lr=cfg.lr)
    if rng is None:
        rng = spawn_rng(cfg.seed, STREAM_TRAIN)
    best = dict(best or {})
    best.setdefault("epoch", -1)
    best.setdefault("metric", float("-inf"))
    best.setdefault("values", None)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    history = []
    stopped = False
    end_epoch = cfg.epochs if stop_after is None else min(cfg.epochs,
                                                          stop_after)
    for epoch in range(start_epoch, end_epoch):
        row = train_epoch(model, adj, splits.train, optimizer, rng, epoch)
        row["val_recall"] = row["val_ndcg"] = float("nan")
        validate = (epoch % cfg.eval_every == 0 or epoch == end_epoch - 1)
        if validate and splits.validation.num_edges > 0:
            metrics = evaluation.evaluate_model(
                model, adj, splits.train, splits.validation,
                cutoffs=(SELECTION_CUTOFF,))
            row["val_recall"] = metrics[f"recall@{SELECTION_CUTOFF}"]
            row["val_ndcg"] = metrics[f"ndcg@{SELECTION_CUTOFF}"]
            if row["val_recall"] > best["metric"]:
                best = {"epoch": epoch, "metric": row["val_recall"],
                        "values": {name: p.value.copy()
                                   for name, p in model.params.items()}}
                stale = 0
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, "best.ckpt"),
                                    model, optimizer=optimizer, epoch=epoch,
                                    rng=rng, extra=_best_extra(best, stale))
            else:
                stale += 1
        history.append(row)
        if log_fn is not None:
            log_fn(row)
        if out_dir:
            save_checkpoint(os.path.join(out_dir, "last.ckpt"), model,
                            optimizer=optimizer, epoch=epoch, rng=rng,
                            extra=_best_extra(best, stale))
        if cfg.patience > 0 and stale > cfg.patience:
            stopped = True
            break
    return TrainResult(history, best["epoch"], best["metric"],
                       best.get("values"), stopped)


def _best_extra(best: dict, stale: int) -> dict:
    return {"best_epoch": best["epoch"], "best_metric": best["metric"],
            "stale": stale}


def load_values(model: Model, values: dict) -> None:
    """Strict copy of plain arrays (a checkpoint's parameters or a retained
    best epoch) into a model; any missing, unexpected, or reshaped tensor is
    an error."""
    for name, p in model.params.items():
        if name not in values:
            raise CheckpointError(f"missing value for parameter {name!r}")
        arr = np.asarray(values[name])
        if arr.shape != p.value.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: value {arr.shape}, "
                f"model {p.value.shape}")
        p.value[...] = arr.astype(p.value.dtype)
    unexpected = sorted(set(values) - set(model.params))
    if unexpected:
        raise CheckpointError(
            f"values for tensors the model does not hold: {unexpected[:3]}")


# ---------------------------------------------------------------------------
# Checkpoint format
#
# magic "SHTCKPT1", uint32 tensor count, then per tensor: uint16 name length,
# utf-8 name, uint8 rank, uint32 per-dim sizes, float32 row-major data; then
# a length-prefixed utf-8 config snapshot (JSON) and a length-prefixed rng
# state block. All integers little-endian.
# ---------------------------------------------------------------------------

MAGIC = b"SHTCKPT1"


@dataclass
class Checkpoint:
    tensors: dict
    snapshot: dict
    rng_json: str

    @property
    def config(self):
        return config_from_snapshot(self.snapshot["config"])

    @property
    def epoch(self) -> int:
        return int(self.snapshot["epoch"])

    @property
    def extra(self) -> dict:
        return self.snapshot.get("extra", {})

    def parameters(self) -> dict:
        return {name: arr for name, arr in self.tensors.items()
                if not name.startswith("adam.")}

    def rng(self):
        return rng_from_json(self.rng_json) if self.rng_json else None


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise CheckpointError(f"tensor name too long: {name[:40]!r}...")
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = struct.pack("<H", len(encoded)) + encoded
    header += struct.pack("<B", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def save_checkpoint(path: str, model: Model, optimizer: Adam = None,
                    epoch: int = 0, rng=None, extra: dict = None) -> None:
    tensors = {name: p.value for name, p in model.params.items()}
    if optimizer is not None:
        tensors.update(optimizer.moment_tensors())
    snapshot = {
        "config": config_to_mapping(model.cfg),
        "users": model.num_users,
        "items": model.num_items,
        "epoch": int(epoch),
        "optimizer": None if optimizer is None else {
            "steps": optimizer.steps, "lr": optimizer.lr,
            "beta1": optimizer.beta1, "beta2": optimizer.beta2,
            "eps": optimizer.eps},
        "extra": extra or {},
    }
    blob = bytearray(MAGIC)
    blob += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        blob += _pack_tensor(name, tensors[name])
    config_block = json.dumps(snapshot, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(config_block)) + config_block
    rng_block = (state_to_json(rng) if rng is not None else "").encode("utf-8")
    blob += struct.pack("<I", len(rng_block)) + rng_block

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        chunk = self.data[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (count,) = reader.unpack("<I")
    tensors = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8")
        (rank,) = reader.unpack("<B")
        dims = reader.unpack(f"<{rank}I") if rank else ()
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = reader.take(4 * size)
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    (config_len,) = reader.unpack("<I")
    snapshot = json.loads(reader.take(config_len).decode("utf-8"))
    (rng_len,) = reader.unpack("<I")
    rng_json = reader.take(rng_len).decode("utf-8")
    if reader.off != len(reader.data):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint")
    return Checkpoint(tensors, snapshot, rng_json)


def build_model(ckpt: Checkpoint) -> Model:
    model = Model(ckpt.config, int(ckpt.snapshot["users"]),
                  int(ckpt.snapshot["items"]))
    load_values(model, ckpt.parameters())
    return model


def resume(source, adj, splits, out_dir: str = None, stop_after: int = None,
           log_fn=None):
    """Continue a run from a checkpoint; returns (model, TrainResult).

    Bit-identical to the uninterrupted run: parameters, Adam moments, the
    epoch counter, the rng stream, and the early-stop bookkeeping all come
    from the file.
    """
    ckpt = load_checkpoint(source) if isinstance(source, str) else source
    model = build_model(ckpt)
    opt_snap = ckpt.snapshot.get("optimizer")
    if opt_snap is None:
        raise CheckpointError("checkpoint has no optimizer state to resume")
    optimizer = Adam(model.params, lr=opt_snap["lr"], beta1=opt_snap["beta1"],
                     beta2=opt_snap["beta2"], eps=opt_snap["eps"])
    optimizer.steps = int(opt_snap["steps"])
    optimizer.load_moments(ckpt.tensors, model.params)
    rng = ckpt.rng()
    if rng is None:
        raise CheckpointError("checkpoint has no rng state to resume")
    extra = ckpt.extra
    best = {"epoch": int(extra.get("best_epoch", -1)),
            "metric": float(extra.get("best_metric", float("-inf"))),
            "values": None}
    result = fit(model, adj, splits, out_dir=out_dir,
                 start_epoch=ckpt.epoch + 1, optimizer=optimizer, rng=rng,
                 best=best, stale=int(extra.get("stale", 0)),
                 stop_after=stop_after, log_fn=log_fn)
    return model, result
