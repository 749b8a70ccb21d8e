"""All-rank evaluation: mask training items, rank everything else, score the
top-N lists with Recall and NDCG.

Every user is scored against every item they have not interacted with in
training; no sampled candidate sets. Ties break by ascending item index so
runs are reproducible across platforms. Users without test interactions are
excluded from metric averages (the denominator is the evaluated-user count).

Memory: ranking runs ``ROW_CHUNK`` users at a time through one float64
scratch block of ROW_CHUNK x items (padded to a multiple of ``GROUP``),
allocated once per call and refilled for every chunk; about 1.3 MB at 5000
items, so each pass over it after the fill stays in cache. Above the
caller's own score matrix it holds that block, small per-row candidate
arrays and the users x n result. ``evaluate_model`` and ``rank_embeddings``
write each chunk's scores into the block from the embeddings, so they never
build the users x items matrix.

Speed: a row is ordered only over the items at or above its floor, the
n-th largest of its strided group maxima (``_rank_rows``): about n items
per row, found by one partition of the group maxima and one compare over
the block. In a small catalog, of at most ``GROUP`` x n items (200 items
at n = 20), each item is its own group.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset

# users scored and ranked per block (see the memory note above)
ROW_CHUNK = 32
# items per strided candidate group (see ``_rank_rows``)
GROUP = 16


class EvaluationError(ValueError):
    """Raised when inputs cannot produce a meaningful metric."""


@dataclass
class RankingResult:
    """Per-user top-N item lists; rows padded with -1 past each user's
    valid length min(N, items - training items of the user)."""

    items: np.ndarray  # (num_users, n) int64
    n: int

    @property
    def num_users(self) -> int:
        return self.items.shape[0]


def score_matrix(user_emb: np.ndarray, item_emb: np.ndarray) -> np.ndarray:
    """Dot-product preference scores, users by items."""
    return np.asarray(user_emb, dtype=np.float64) @ np.asarray(
        item_emb, dtype=np.float64).T


def _rank_rows(block: np.ndarray, train: InteractionDataset, lo: int,
               n: int) -> np.ndarray:
    """Top-n lists of users ``lo .. lo + len(block)``. ``block`` is the
    scratch block: their float64 scores in the first ``train.num_items``
    columns, -inf padding up to a multiple of ``GROUP``; it is overwritten.

    Item j belongs to the strided group j mod G, with G = width / GROUP.
    A row's floor is the k-th largest of its G group maxima, k = min(n,
    items): k distinct groups each hold an item at or above it, so the k-th
    largest untrained score is at least the floor. The items scoring at or
    above it (and above -inf, which marks trained items and padding)
    therefore hold the row's top k and every item tied with the k-th score,
    and ordering just them by descending score, then ascending item index,
    gives the exact list: no tie can reach past them, so no fallback is
    needed. With G <= k, as in small catalogs (200 items at n = 20), each
    item is its own group and the floor is the k-th largest score itself.
    """
    rows, width = block.shape
    seen = train.edges[train.ptr[lo]:train.ptr[lo + rows]]
    at_seen = seen[:, 0] - lo, seen[:, 1]
    low, trained = block[:, :train.num_items].min(), block[at_seen]
    block[at_seen] = -np.inf
    k = min(n, train.num_items)
    num_groups = width // GROUP
    peaks = block if num_groups <= k else block.reshape(
        rows, GROUP, num_groups).max(axis=1)
    # NaN and -inf show in the minimum, +inf on a trained item in
    # ``trained`` and on an untrained one in the largest group maximum
    if not (np.isfinite(low) and np.isfinite(trained).all()
            and peaks.max() < np.inf):
        raise EvaluationError("scores contain non-finite values")
    cut = peaks.shape[1] - k
    floor = np.partition(peaks, cut, axis=1)[:, cut:cut + 1]
    hits = np.flatnonzero(block >= np.maximum(floor, -np.finfo(float).max))
    row = hits // width
    # ``hits`` ascends by row, then item: two stable sorts order each row's
    # candidates by descending score, then ascending item index; the row
    # index fits a small integer type, which numpy's stable sort orders by
    # radix
    order = np.argsort(-block.ravel()[hits], kind="stable")
    order = order[np.argsort(row[order].astype(np.min_scalar_type(rows)),
                             kind="stable")]
    # ``row`` is sorted, and so equals ``row[order]``: ``rank`` is each
    # ordered candidate's place in its row's list
    starts = np.searchsorted(row, np.arange(rows))
    rank = np.arange(len(hits)) - starts[row]
    keep = rank < k
    ranked = np.full((rows, n), -1, dtype=np.int64)
    ranked[row[keep], rank[keep]] = hits[order[keep]] % width
    return ranked


def _rank_blocks(train: InteractionDataset, n: int, fill) -> RankingResult:
    """Rank every user, ``fill(lo, hi, out)`` writing the float64 scores
    of users ``lo .. hi`` into ``out``, a view of one scratch block that
    every ``ROW_CHUNK``-user chunk reuses.

    Every chunk holds min(ROW_CHUNK, users) users; a short last chunk starts
    early instead, since BLAS can round a one-row or few-row product's scores
    differently in the last bits and so reorder tied items."""
    if n < 1:
        raise EvaluationError(f"cutoff must be >= 1, got {n}")
    users, items = train.num_users, train.num_items
    width = -(-items // GROUP) * GROUP
    scratch = np.full((min(ROW_CHUNK, users), width), -np.inf)
    ranked = np.empty((users, n), dtype=np.int64)
    for start in range(0, users, ROW_CHUNK):
        lo = min(start, users - len(scratch))
        fill(lo, lo + len(scratch), scratch[:, :items])
        ranked[lo:lo + len(scratch)] = _rank_rows(scratch, train, lo, n)
    return RankingResult(ranked, n)


def rank_all(scores: np.ndarray, train: InteractionDataset,
             n: int) -> RankingResult:
    """Top-n items per user by score, training items removed.

    Order is descending score, then ascending item index. Slots past a
    user's candidate count hold -1. ``scores`` is read, never written; the
    ranking copies ``ROW_CHUNK`` rows at a time into one scratch block.
    """
    scores = np.asarray(scores)
    if scores.shape != (train.num_users, train.num_items):
        raise EvaluationError(
            f"score matrix {scores.shape} does not match dataset "
            f"({train.num_users}, {train.num_items})")
    return _rank_blocks(train, n, lambda lo, hi, out: np.copyto(
        out, scores[lo:hi]))


def rank_embeddings(user_emb: np.ndarray, item_emb: np.ndarray,
                    train: InteractionDataset, n: int) -> RankingResult:
    """``rank_all(score_matrix(user_emb, item_emb), train, n)`` without the
    users-by-items matrix: scores ``ROW_CHUNK`` users at a time."""
    if (len(user_emb), len(item_emb)) != (train.num_users, train.num_items):
        raise EvaluationError(
            f"embeddings ({len(user_emb)}, {len(item_emb)}) do not match "
            f"dataset ({train.num_users}, {train.num_items})")
    item_t = np.asarray(item_emb, dtype=np.float64).T
    return _rank_blocks(train, n, lambda lo, hi, out: np.matmul(
        np.asarray(user_emb[lo:hi], dtype=np.float64), item_t, out=out))


def _check_cutoff(result: RankingResult, n) -> int:
    if n is None:
        return result.n
    if not 1 <= n <= result.n:
        raise EvaluationError(
            f"cutoff {n} outside the ranked depth {result.n}")
    return n


def _hits(result: RankingResult, test: InteractionDataset, n):
    """Hit mask of the top-n lists of the users with test items, and those
    users' test degrees. A hit is a (user, item) pair that ``test``
    contains."""
    n = _check_cutoff(result, n)
    if result.num_users != test.num_users:
        raise EvaluationError(
            f"ranking has {result.num_users} users, test set "
            f"{test.num_users}")
    degree = test.user_degree()
    users = np.flatnonzero(degree)
    if not len(users):
        raise EvaluationError("no users with test interactions")
    top = result.items[users, :n]
    pairs = np.stack(np.broadcast_arrays(users[:, None], top), axis=-1)
    found = test.contains(pairs.reshape(-1, 2)).reshape(top.shape)
    # a -1 pad packs to the key of the previous user's last item
    return (top >= 0) & found, degree[users]


def _recall(hit: np.ndarray, degree: np.ndarray) -> float:
    return float(np.mean(np.count_nonzero(hit, axis=1) / degree))


def _ndcg(hit: np.ndarray, degree: np.ndarray) -> float:
    discounts = 1.0 / np.log2(np.arange(2, hit.shape[1] + 2))
    dcg = hit @ discounts
    idcg = np.cumsum(discounts)[np.minimum(degree, hit.shape[1]) - 1]
    return float(np.mean(dcg / idcg))


def recall_at_n(result: RankingResult, test: InteractionDataset,
                n: int = None) -> float:
    """Mean over evaluated users of |top-n hits| / |test items|."""
    return _recall(*_hits(result, test, n))


def ndcg_at_n(result: RankingResult, test: InteractionDataset,
              n: int = None) -> float:
    """Binary-relevance NDCG: gain 1/log2(rank+1), ideal list of length
    min(n, |test items|), averaged over evaluated users."""
    return _ndcg(*_hits(result, test, n))


def _report(result: RankingResult, test: InteractionDataset,
            cutoffs) -> dict:
    """``recall_at_n`` and ``ndcg_at_n`` at each cutoff, from one hit mask
    per cutoff."""
    out = {}
    for c in cutoffs:
        hit, degree = _hits(result, test, c)
        out[f"recall@{c}"] = _recall(hit, degree)
        out[f"ndcg@{c}"] = _ndcg(hit, degree)
    return out


def evaluate_scores(scores: np.ndarray, train: InteractionDataset,
                    test: InteractionDataset, cutoffs=(20,)) -> dict:
    """Recall and NDCG at each cutoff, ranking once at the deepest one."""
    cutoffs = sorted(set(int(c) for c in cutoffs))
    return _report(rank_all(scores, train, max(cutoffs)), test, cutoffs)


def evaluate_model(model, adj, train: InteractionDataset,
                   test: InteractionDataset, cutoffs=(20,)) -> dict:
    """Embed, then rank and report like ``evaluate_scores`` without ever
    holding the users-by-items score matrix."""
    cutoffs = sorted(set(int(c) for c in cutoffs))
    user_emb, item_emb = model.embedding_tables(adj)
    return _report(rank_embeddings(user_emb, item_emb, train, max(cutoffs)),
                   test, cutoffs)


def group_metrics(result: RankingResult, test: InteractionDataset,
                  assignment: np.ndarray, groups: int, axis: str,
                  n: int = None) -> list:
    """Recall/NDCG rows of buckets ``0 .. groups - 1``, ``assignment``
    giving each user's (or item's) bucket. A bucket scores its test edges
    whose user (or item) it holds; one without test edges reads nan
    metrics, and any other bad input raises as ``recall_at_n`` does."""
    bucket = assignment[test.edges[:, 0 if axis == "user" else 1]]
    rows = []
    for g in range(groups):
        # a subset of sorted, unique edges needs no dedup
        sub = InteractionDataset(test.num_users, test.num_items,
                                 test.edges[bucket == g])
        row = {"group": g, "axis": axis, "test_edges": sub.num_edges,
               "recall": float("nan"), "ndcg": float("nan"), "users": 0}
        if sub.num_edges:
            hit, degree = _hits(result, sub, n)
            row.update(recall=_recall(hit, degree), ndcg=_ndcg(hit, degree),
                       users=len(degree))
        rows.append(row)
    return rows


def write_csv(path: str, rows: list) -> None:
    """CSV with unix line endings; float formatting is str()'s shortest
    round-trip form, so equal runs give byte-equal files."""
    if not rows:
        raise EvaluationError("refusing to write an empty report")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

