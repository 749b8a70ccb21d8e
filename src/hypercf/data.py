"""Interaction data: loading, splitting, adjacency, samplers, noise injection.

Interaction files are plain text, one `user-id<TAB>item-id` per line; ids are
arbitrary strings remapped to dense indices in order of first appearance.
All randomized operations take explicit seeds or generators and are
deterministic under them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .rng import STREAM_NOISE, STREAM_SPLIT, spawn_rng

TRAIN_RATIO, VALID_RATIO, TEST_RATIO = 0.7, 0.2, 0.1


class DataError(ValueError):
    """Malformed input files or violated data preconditions."""


class SamplingError(RuntimeError):
    """A sampler could not satisfy its constraints (e.g. no negative exists)."""


def pack_edges(edges: np.ndarray, num_items: int) -> np.ndarray:
    """Encode (u, v) rows as single int64 keys u * J + v."""
    return edges[:, 0].astype(np.int64) * num_items + edges[:, 1].astype(np.int64)


@dataclass
class InteractionDataset:
    """A deduplicated user-item interaction graph with dense indices."""

    num_users: int
    num_items: int
    edges: np.ndarray  # (E, 2) int64, lexicographically sorted, unique
    user_ids: list = None  # dense index -> external id (None for synthetic)
    item_ids: list = None

    # derived lookup structures, built lazily
    _packed: np.ndarray = field(default=None, repr=False)
    _user_ptr: np.ndarray = field(default=None, repr=False)

    @classmethod
    def from_edges(cls, edges, num_users: int, num_items: int,
                   user_ids=None, item_ids=None) -> "InteractionDataset":
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= num_users:
                raise DataError("user index out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= num_items:
                raise DataError("item index out of range")
        keys = arr[:, 0] * num_items + arr[:, 1]
        keys = np.unique(keys)
        arr = np.stack([keys // num_items, keys % num_items], axis=1)
        return cls(num_users, num_items, arr, user_ids, item_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def packed(self) -> np.ndarray:
        if self._packed is None:
            self._packed = pack_edges(self.edges, self.num_items)
        return self._packed

    def _ptr(self) -> np.ndarray:
        if self._user_ptr is None:
            counts = np.bincount(self.edges[:, 0], minlength=self.num_users)
            self._user_ptr = np.concatenate([[0], np.cumsum(counts)])
        return self._user_ptr

    def items_of(self, user: int) -> np.ndarray:
        """Items this user interacted with (sorted); relies on edge ordering."""
        ptr = self._ptr()
        return self.edges[ptr[user]:ptr[user + 1], 1]

    def user_degree(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], minlength=self.num_users)

    def item_degree(self) -> np.ndarray:
        return np.bincount(self.edges[:, 1], minlength=self.num_items)

    def has_edge(self, user: int, item: int) -> bool:
        key = np.int64(user) * self.num_items + item
        i = np.searchsorted(self.packed, key)
        return i < len(self.packed) and self.packed[i] == key

    def contains(self, edges: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (n, 2) edge array."""
        keys = pack_edges(np.asarray(edges, dtype=np.int64), self.num_items)
        idx = np.searchsorted(self.packed, keys)
        idx = np.minimum(idx, len(self.packed) - 1) if len(self.packed) else idx
        if not len(self.packed):
            return np.zeros(len(keys), dtype=bool)
        return self.packed[idx] == keys


def load_interactions(path: str) -> InteractionDataset:
    """Parse a TSV interaction file into a dense-indexed dataset.

    Blank lines and lines starting with '#' are skipped; duplicate
    interactions are dropped. External ids keep their order of first
    appearance in the dense index space.
    """
    user_index: dict = {}
    item_index: dict = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(
                    f"{path}:{lineno}: expected 'user<TAB>item', got {line!r}")
            u = user_index.setdefault(parts[0], len(user_index))
            v = item_index.setdefault(parts[1], len(item_index))
            rows.append((u, v))
    if not rows:
        raise DataError(f"{path}: no interactions found")
    return InteractionDataset.from_edges(
        rows, len(user_index), len(item_index),
        user_ids=list(user_index), item_ids=list(item_index))


def split_sizes(n: int) -> tuple:
    """7:2:1 edge counts: floor for train and validation, remainder to test."""
    n_train = int(np.floor(TRAIN_RATIO * n))
    n_valid = int(np.floor(VALID_RATIO * n))
    return n_train, n_valid, n - n_train - n_valid


@dataclass
class SplitDataset:
    """Train/validation/test edge partition over one shared index space."""

    train: InteractionDataset
    validation: InteractionDataset
    test: InteractionDataset
    seed: int

    @property
    def num_users(self) -> int:
        return self.train.num_users

    @property
    def num_items(self) -> int:
        return self.train.num_items


def split(dataset: InteractionDataset, seed: int) -> SplitDataset:
    """Uniform random 7:2:1 edge partition, deterministic under seed."""
    n = dataset.num_edges
    if n < 10:
        raise DataError(f"need at least 10 edges to split, have {n}")
    rng = spawn_rng(seed, STREAM_SPLIT)
    perm = rng.permutation(n)
    n_train, n_valid, _ = split_sizes(n)
    parts = (perm[:n_train], perm[n_train:n_train + n_valid],
             perm[n_train + n_valid:])

    def view(idx):
        return InteractionDataset.from_edges(
            dataset.edges[idx], dataset.num_users, dataset.num_items,
            dataset.user_ids, dataset.item_ids)

    return SplitDataset(*(view(p) for p in parts), seed=seed)


@dataclass
class NormalizedAdjacency:
    """Degree-normalized bipartite adjacency: weight = 1/(sqrt(Du) sqrt(Dv)).

    Stored as CSR with its transpose precomputed; both matrices are constants
    from autodiff's point of view.
    """

    matrix: sp.csr_matrix       # I x J
    matrix_t: sp.csr_matrix     # J x I

    @property
    def pair(self):
        """(S, S_T) for autodiff.spmm computing S @ X."""
        return (self.matrix, self.matrix_t)

    @property
    def pair_t(self):
        return (self.matrix_t, self.matrix)


def build_normalized_adjacency(train: InteractionDataset,
                               dtype=np.float32) -> NormalizedAdjacency:
    du = train.user_degree()
    dv = train.item_degree()
    u, v = train.edges[:, 0], train.edges[:, 1]
    # isolated nodes have no edges, so the formula never divides by zero
    w = 1.0 / (np.sqrt(du[u]) * np.sqrt(dv[v]))
    mat = sp.csr_matrix((w.astype(dtype), (u, v)),
                        shape=(train.num_users, train.num_items))
    return NormalizedAdjacency(mat, mat.T.tocsr())


@dataclass
class EdgePairBatch:
    """Paired edges for ranking losses.

    kind "main": (u, pos-item) observed, (u, neg-item) unobserved, same user.
    kind "self-augmented": two distinct observed edges.
    """

    kind: str
    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray


_MAX_RESAMPLE = 200


def sample_main_pairs(train: InteractionDataset, count: int,
                      rng: np.random.Generator,
                      users: np.ndarray) -> EdgePairBatch:
    """Positive/negative item pairs for the pairwise ranking loss.

    Each pair shares a user; the positive is an observed training edge of
    one of ``users`` (mini-batch user sampling; users without training
    edges are ignored) and the negative is uniform over that user's
    non-interacted items.
    """
    if count < 1:
        raise ValueError(f"pair count must be >= 1, got {count}")
    ptr = train._ptr()
    # the batch's edges, in edge order: each distinct user's CSR range
    batch = np.unique(users)
    starts, lengths = ptr[batch], ptr[batch + 1] - ptr[batch]
    if not lengths.sum():
        raise SamplingError("no training edges for the sampled user batch")
    ends = np.cumsum(lengths)
    pool = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
    rows = pool[rng.integers(0, len(pool), size=count)]
    u = train.edges[rows, 0]
    v_pos = train.edges[rows, 1]

    degrees = ptr[u + 1] - ptr[u]
    if np.any(degrees >= train.num_items):
        full = int(u[degrees >= train.num_items][0])
        raise SamplingError(
            f"user {full} interacted with every item; no negative exists")

    v_neg = rng.integers(0, train.num_items, size=count)
    pending = train.contains(np.stack([u, v_neg], axis=1))
    tries = 0
    while pending.any():
        tries += 1
        if tries > _MAX_RESAMPLE:
            raise SamplingError("negative sampling exceeded the resample cap")
        idx = np.flatnonzero(pending)
        v_neg[idx] = rng.integers(0, train.num_items, size=len(idx))
        pending[idx] = train.contains(
            np.stack([u[idx], v_neg[idx]], axis=1))
    return EdgePairBatch("main", u, v_pos, u.copy(), v_neg)


def sample_sal_pairs(train: InteractionDataset, count: int,
                     rng: np.random.Generator) -> EdgePairBatch:
    """Pairs of distinct observed edges for the self-augmented ranking task."""
    if count < 1:
        raise ValueError(f"pair count must be >= 1, got {count}")
    if train.num_edges < 2:
        raise SamplingError("need at least 2 training edges to form pairs")
    first = rng.integers(0, train.num_edges, size=count)
    second = rng.integers(0, train.num_edges, size=count)
    tries = 0
    while np.any(first == second):
        tries += 1
        if tries > _MAX_RESAMPLE:
            raise SamplingError("pair sampling exceeded the resample cap")
        clash = first == second
        second[clash] = rng.integers(0, train.num_edges, size=clash.sum())
    e1, e2 = train.edges[first], train.edges[second]
    return EdgePairBatch("self-augmented", e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1])


def inject_noise(dataset: InteractionDataset, ratio: float, seed: int = 0):
    """Replace floor(ratio * E) random edges with random non-edges.

    Returns (noisy dataset, fake mask aligned with its edge array). The
    replacements avoid every original edge and each other, so the edge count
    is preserved exactly and surviving real edges never collide with fakes.
    """
    if not 0.0 <= ratio < 0.5:
        raise ValueError(f"noise ratio must be in [0, 0.5), got {ratio}")
    rng = spawn_rng(seed, STREAM_NOISE)
    n_fake = int(np.floor(ratio * dataset.num_edges))
    drop = rng.choice(dataset.num_edges, size=n_fake, replace=False)
    keep = np.ones(dataset.num_edges, dtype=bool)
    keep[drop] = False

    fakes = np.zeros(0, dtype=np.int64)
    tries = 0
    while len(fakes) < n_fake:
        tries += 1
        if tries > _MAX_RESAMPLE:
            raise SamplingError("noise injection exceeded the resample cap")
        need = n_fake - len(fakes)
        cand_u = rng.integers(0, dataset.num_users, size=need)
        cand_v = rng.integers(0, dataset.num_items, size=need)
        keys = cand_u * dataset.num_items + cand_v
        ok = ~np.isin(keys, dataset.packed) & ~np.isin(keys, fakes)
        keys = np.unique(keys[ok])
        fakes = np.union1d(fakes, keys)
    fake_edges = np.stack([fakes // dataset.num_items,
                           fakes % dataset.num_items], axis=1)

    out = InteractionDataset.from_edges(
        np.concatenate([dataset.edges[keep], fake_edges]),
        dataset.num_users, dataset.num_items,
        dataset.user_ids, dataset.item_ids)
    mask = np.isin(out.packed, fakes)
    return out, mask


def sparsity_groups(train: InteractionDataset, axis: str,
                    boundaries) -> np.ndarray:
    """Bucket users or items by training interaction count.

    ``boundaries`` are strictly increasing upper bounds; node n lands in the
    first bucket whose bound covers its count, and anything above the last
    bound joins the final bucket, so the buckets always partition the side.
    """
    bounds = list(boundaries)
    if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError("boundaries must be nonempty and strictly increasing")
    if axis == "user":
        counts = train.user_degree()
    elif axis == "item":
        counts = train.item_degree()
    else:
        raise ValueError(f"axis must be 'user' or 'item', got {axis!r}")
    groups = np.searchsorted(np.asarray(bounds), counts, side="left")
    return np.minimum(groups, len(bounds) - 1)


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------

def write_interactions(path: str, dataset: InteractionDataset) -> None:
    """Emit the TSV interaction format, using external ids when present."""
    uid = dataset.user_ids or [str(i) for i in range(dataset.num_users)]
    vid = dataset.item_ids or [str(j) for j in range(dataset.num_items)]
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in dataset.edges:
            fh.write(f"{uid[u]}\t{vid[v]}\n")


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def synthetic_blocks(num_users: int = 400, num_items: int = 200,
                     num_blocks: int = 8, edges_per_user: int = 20,
                     within_prob: float = 0.8, seed: int = 0) -> InteractionDataset:
    """Block-structured dataset: users mostly interact inside their block.

    Users and items are assigned round-robin to ``num_blocks`` communities;
    each user draws ``edges_per_user`` items, from its own block with
    probability ``within_prob`` and uniformly elsewhere otherwise. The planted
    structure is what a recommender should recover.
    """
    rng = spawn_rng(seed, STREAM_SPLIT)
    user_block = np.arange(num_users) % num_blocks
    item_block = np.arange(num_items) % num_blocks
    block_items = [np.flatnonzero(item_block == b) for b in range(num_blocks)]
    rows = []
    for u in range(num_users):
        own = block_items[user_block[u]]
        others = np.flatnonzero(item_block != user_block[u])
        n_in = int(np.round(edges_per_user * within_prob))
        n_in = min(n_in, len(own))
        n_out = min(edges_per_user - n_in, len(others))
        picked_in = rng.choice(own, size=n_in, replace=False)
        picked_out = rng.choice(others, size=n_out, replace=False)
        for v in np.concatenate([picked_in, picked_out]):
            rows.append((u, int(v)))
    return InteractionDataset.from_edges(rows, num_users, num_items)
