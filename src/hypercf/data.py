"""Interaction data: loading, splitting, adjacency, samplers, noise injection.

Interaction files are plain text, one `user-id<TAB>item-id` per line; ids are
arbitrary strings remapped to dense indices in order of first appearance.
All randomized operations take explicit seeds or generators and are
deterministic under them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._sparsetools import csr_tocsc as _csr_tocsc
from .rng import STREAM_NOISE, STREAM_SPLIT, spawn_rng

TRAIN_RATIO, VALID_RATIO, TEST_RATIO = 0.7, 0.2, 0.1
MAX_NOISE_RATIO = 0.5  # exclusive bound: most training edges stay real


class DataError(ValueError):
    """Malformed input files or violated data preconditions."""


class SamplingError(RuntimeError):
    """A sampler could not satisfy its constraints (e.g. no negative exists)."""


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, as `np.unique` gives them.

    A sort and an adjacent-difference mask: numpy's hash-based `np.unique`
    is about 50x slower on int64 edge keys.
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` occurs in the sorted array ``sorted_keys``."""
    idx = np.searchsorted(sorted_keys, keys)
    hit = idx < len(sorted_keys)
    hit[hit] = sorted_keys[idx[hit]] == keys[hit]
    return hit


def pack_edges(edges: np.ndarray, num_items: int) -> np.ndarray:
    """Encode (u, v) rows as single int64 keys u * J + v."""
    return (edges[:, 0].astype(np.int64, copy=False) * num_items
            + edges[:, 1].astype(np.int64, copy=False))


@dataclass
class InteractionDataset:
    """A deduplicated user-item interaction graph with dense indices."""

    num_users: int
    num_items: int
    edges: np.ndarray  # (E, 2) int64, lexicographically sorted, unique
    user_ids: list = None  # dense index -> external id (None for synthetic)
    item_ids: list = None

    # derived once: the sorted edge keys u * J + v, and the CSR row pointer
    # (user u's edges are edges[ptr[u]:ptr[u + 1]])
    packed: np.ndarray = field(init=False, repr=False)
    ptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.packed = pack_edges(self.edges, self.num_items)
        counts = np.bincount(self.edges[:, 0], minlength=self.num_users)
        self.ptr = np.concatenate([[0], np.cumsum(counts)])

    @classmethod
    def from_edges(cls, edges, num_users: int, num_items: int,
                   user_ids=None, item_ids=None) -> "InteractionDataset":
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= num_users:
                raise DataError("user index out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= num_items:
                raise DataError("item index out of range")
        keys = _unique(pack_edges(arr, num_items))
        arr = np.stack([keys // num_items, keys % num_items], axis=1)
        return cls(num_users, num_items, arr, user_ids, item_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def items_of(self, user: int) -> np.ndarray:
        """Items this user interacted with (sorted); relies on edge ordering."""
        return self.edges[self.ptr[user]:self.ptr[user + 1], 1]

    def user_degree(self) -> np.ndarray:
        return np.diff(self.ptr)

    def item_degree(self) -> np.ndarray:
        return np.bincount(self.edges[:, 1], minlength=self.num_items)

    def contains(self, edges: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (n, 2) edge array."""
        keys = pack_edges(np.asarray(edges, dtype=np.int64), self.num_items)
        return _member(keys, self.packed)


# Characters of the file parsed at a time. The loader's transient memory (a
# block's text, its fields and their index arrays) is bounded by this, not by
# the file's size.
READ_BLOCK = 1 << 14

# First bytes of a line that may be skipped: '#', an empty line, or the first
# UTF-8 byte of a character `str.isspace` accepts: ASCII whitespace, 0xC2
# (U+0085, U+00A0), 0xE1 (U+1680), 0xE2 (U+2000..U+205F), 0xE3 (U+3000).
_MAYBE_SKIPPED = np.zeros(256, dtype=bool)
_MAYBE_SKIPPED[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, ord("#"),
                0xC2, 0xE1, 0xE2, 0xE3]] = True


def _skipped(line: str) -> bool:
    """Blank, whitespace-only and comment lines carry no interaction."""
    return not line.strip() or line.lstrip().startswith("#")


def _is_edge(line: str) -> bool:
    parts = line.split("\t")
    return len(parts) == 2 and bool(parts[0]) and bool(parts[1])


class _DenseIndex(dict):
    """External id -> dense index; an unseen id takes the next index."""

    def __missing__(self, key):
        value = self[key] = len(self)
        return value

    def lookup(self, ids: list) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, ids), dtype=np.int64,
                           count=len(ids))


def _parse_block(text: str, path: str, first_line: int) -> tuple:
    """Split a block of whole '\\n'-terminated lines into (users, items) ids.

    Every line that is not skipped must hold exactly one tab between two
    non-empty fields. In the encoded block those lines' separators then
    alternate tab, newline, and no two are adjacent; one vectorised test
    checks that, and only a failed test walks the lines to name the first
    bad one.
    """
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # an escaped undecodable byte
        head = text.rfind("\n", 0, exc.start) + 1
        if head:  # a malformed line before it is named first
            _parse_block(text[:head], path, first_line)
        line = first_line + text.count("\n", 0, exc.start)
        byte = ord(text[exc.start]) - 0xDC00
        raise DataError(f"{path}:{line}: not UTF-8 text "
                        f"(byte 0x{byte:02x})") from None
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(b == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    drop = [i for i in np.flatnonzero(_MAYBE_SKIPPED[b[starts]])
            if _skipped(raw[starts[i]:ends[i]].decode())]
    kept = text
    if drop:
        keep = np.ones(len(ends), dtype=bool)
        keep[drop] = False
        b = b[np.repeat(keep, ends - starts + 1)]
        kept = b.tobytes().decode()
    sep = np.flatnonzero((b == 9) | (b == 10))
    kind = b[sep]
    if not ((kind[0::2] == 9).all() and (kind[1::2] == 10).all()
            and (np.diff(sep, prepend=-1) > 1).all()):
        offset, line = next(
            (k, line) for k, line in enumerate(text.split("\n"))
            if not _skipped(line) and not _is_edge(line))
        raise DataError(f"{path}:{first_line + offset}: "
                        f"expected 'user<TAB>item', got {line!r}")
    fields = kept.replace("\n", "\t").split("\t")
    return fields[0:-1:2], fields[1::2]


def load_interactions(path: str) -> InteractionDataset:
    """Parse a TSV interaction file into a dense-indexed dataset.

    The file is UTF-8 with an optional byte-order mark; '\\n', '\\r\\n'
    and '\\r' all end a line. Blank lines, whitespace-only lines and lines
    whose first non-blank character is '#' are skipped; every other line is
    ``user<TAB>item`` with two non-empty fields. Duplicate interactions are
    dropped. External ids keep their order of first appearance in the dense
    index space.
    """
    user_index, item_index = _DenseIndex(), _DenseIndex()
    blocks = []
    line, pending = 1, ""
    # undecodable bytes become lone surrogates, which `_parse_block` reports
    # with their line when it encodes the block again
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        while True:
            chunk = fh.read(READ_BLOCK)
            text = pending + chunk
            if chunk:  # parse whole lines, keep the unfinished one
                cut = text.rfind("\n") + 1
                text, pending = text[:cut], text[cut:]
            elif text:  # the last line has no final newline
                text += "\n"
            if text:
                u, v = _parse_block(text, path, line)
                blocks.append(np.stack([user_index.lookup(u),
                                        item_index.lookup(v)], axis=1))
                line += text.count("\n")
            if not chunk:
                break
    if not user_index:
        raise DataError(f"{path}: no interactions found")
    edges = np.concatenate(blocks)
    del blocks  # only the joined copy stays alive through the dedup
    return InteractionDataset.from_edges(
        edges, len(user_index), len(item_index),
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

    def view(idx):  # a sorted subset of sorted, unique edges needs no dedup
        return InteractionDataset(
            dataset.num_users, dataset.num_items, dataset.edges[np.sort(idx)],
            dataset.user_ids, dataset.item_ids)

    return SplitDataset(*(view(p) for p in parts))


@dataclass(frozen=True)
class CSRMatrix:
    """A sparse matrix as scipy's CSR arrays: row r holds ``data[k]`` in
    column ``indices[k]`` for k in ``indptr[r]:indptr[r + 1]``, columns
    ascending. ``indptr`` and ``indices`` share one integer dtype."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


@dataclass
class NormalizedAdjacency:
    """Degree-normalized bipartite adjacency: weight = 1/(sqrt(Du) sqrt(Dv)).

    Both directions are plain CSR arrays, the arrays that scipy's
    ``csr_matrix((w, (u, v)))`` and its ``.T.tocsr()`` hold: the same
    values, index dtype (int32 while every size fits) and entry order.
    ``autodiff.spmm`` multiplies by them with scipy's compiled kernel, and
    autodiff treats both as constants.
    """

    matrix: CSRMatrix       # I x J
    matrix_t: CSRMatrix     # J x I

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
    w = (1.0 / (np.sqrt(du[u]) * np.sqrt(dv[v]))).astype(dtype)
    rows, cols = shape = (train.num_users, train.num_items)
    index = (np.int32 if max(rows, cols, len(w)) <= np.iinfo(np.int32).max
             else np.int64)
    # sorted, unique edges are already in CSR order, with row pointer ptr
    mat = CSRMatrix(shape, train.ptr.astype(index), v.astype(index), w)
    mat_t = CSRMatrix((cols, rows), np.empty(cols + 1, dtype=index),
                      np.empty(len(w), dtype=index), np.empty_like(w))
    # the CSC arrays of S are the CSR arrays of S_T
    _csr_tocsc(rows, cols, mat.indptr, mat.indices, mat.data,
               mat_t.indptr, mat_t.indices, mat_t.data)
    return NormalizedAdjacency(mat, mat_t)


@dataclass
class EdgePairBatch:
    """Paired edges for ranking losses: (u1, v1) against (u2, v2).

    Main pairs: (u, pos-item) observed, (u, neg-item) unobserved, same user.
    Self-augmented pairs: two distinct observed edges.
    """

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
    ptr = train.ptr
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
    return EdgePairBatch(u, v_pos, u.copy(), v_neg)


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
    return EdgePairBatch(e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1])


def inject_noise(dataset: InteractionDataset, ratio: float, seed: int = 0):
    """Replace floor(ratio * E) random edges with random non-edges.

    Returns (noisy dataset, fake mask aligned with its edge array). The
    replacements avoid every original edge and each other, so the edge count
    is preserved exactly and surviving real edges never collide with fakes.
    """
    if not 0.0 <= ratio < MAX_NOISE_RATIO:
        raise ValueError(f"noise ratio {ratio} outside [0, {MAX_NOISE_RATIO})")
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
        keys = pack_edges(np.stack([cand_u, cand_v], axis=1),
                          dataset.num_items)
        ok = ~_member(keys, dataset.packed) & ~_member(keys, fakes)
        fakes = _unique(np.concatenate([fakes, keys[ok]]))
    fake_edges = np.stack([fakes // dataset.num_items,
                           fakes % dataset.num_items], axis=1)

    out = InteractionDataset.from_edges(
        np.concatenate([dataset.edges[keep], fake_edges]),
        dataset.num_users, dataset.num_items,
        dataset.user_ids, dataset.item_ids)
    mask = _member(out.packed, fakes)
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
    other_items = [np.flatnonzero(item_block != b) for b in range(num_blocks)]
    n_within = int(np.round(edges_per_user * within_prob))
    counts = np.zeros(num_users, dtype=np.int64)
    picked = [np.empty(0, dtype=np.int64)]  # concatenable with zero users
    for u in range(num_users):
        own, others = block_items[user_block[u]], other_items[user_block[u]]
        n_in = min(n_within, len(own))
        n_out = min(edges_per_user - n_in, len(others))
        picked.append(rng.choice(own, size=n_in, replace=False))
        picked.append(rng.choice(others, size=n_out, replace=False))
        counts[u] = n_in + n_out
    edges = np.stack([np.repeat(np.arange(num_users), counts),
                      np.concatenate(picked)], axis=1)
    return InteractionDataset.from_edges(edges, num_users, num_items)
