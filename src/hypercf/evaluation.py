"""All-rank evaluation: mask training items, rank everything else, score the
top-N lists with Recall and NDCG.

Every user is scored against every item they have not interacted with in
training; no sampled candidate sets. Ties break by ascending item index so
runs are reproducible across platforms. Users without test interactions are
excluded from metric averages (the denominator is the evaluated-user count).

Memory: ranking runs ``ROW_CHUNK`` users at a time. Above the caller's own
score matrix it holds one ROW_CHUNK x items float64 block of scores (plus
the same-sized int64 candidate index from ``np.argpartition``) and the
users x n result. ``evaluate_model`` and ``rank_embeddings`` score each
block from the embeddings, so they never build the users x items matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset

# users scored and ranked per block (see the memory note above)
ROW_CHUNK = 256


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

    def user_list(self, u: int) -> np.ndarray:
        row = self.items[u]
        return row[row >= 0]


def score_matrix(user_emb: np.ndarray, item_emb: np.ndarray) -> np.ndarray:
    """Dot-product preference scores, users by items."""
    return np.asarray(user_emb, dtype=np.float64) @ np.asarray(
        item_emb, dtype=np.float64).T


def _rank_rows(block: np.ndarray, train: InteractionDataset, lo: int,
               n: int) -> np.ndarray:
    """Top-n lists of users ``lo .. lo + len(block)`` from their float64
    score rows; ``block`` is the caller's scratch copy and is overwritten.

    ``np.argpartition`` picks min(n, items) candidates per row, ordered
    by descending score and ascending item index. The candidates are exact
    unless items beyond them tie with the n-th score; those rows (including
    rows with fewer than n untrained items) take a stable argsort instead.
    """
    # NaN propagates through min and max, so both are finite iff all are
    if not (np.isfinite(block.min()) and np.isfinite(block.max())):
        raise EvaluationError("scores contain non-finite values")
    rows, items = block.shape
    # negated in place: ascending order now ranks best first, and a stable
    # sort keeps ties in ascending item order
    np.negative(block, out=block)
    start, stop = np.searchsorted(train.edges[:, 0], [lo, lo + rows])
    seen = train.edges[start:stop]
    block[seen[:, 0] - lo, seen[:, 1]] = np.inf

    k = min(n, items)
    top = np.argpartition(block, k - 1, axis=1)[:, :k]
    top.sort(axis=1)
    order = np.argsort(np.take_along_axis(block, top, axis=1), axis=1,
                       kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    kth = np.take_along_axis(block, top[:, -1:], axis=1)
    tied = np.flatnonzero(np.count_nonzero(block <= kth, axis=1) > k)
    if len(tied):
        top[tied] = np.argsort(block[tied], axis=1, kind="stable")[:, :k]
    ranked = np.full((rows, n), -1, dtype=np.int64)
    ranked[:, :k] = np.where(
        np.take_along_axis(block, top, axis=1) == np.inf, -1, top)
    return ranked


def _rank_blocks(train: InteractionDataset, n: int,
                 block_of) -> RankingResult:
    """Rank every user, ``block_of(lo, hi)`` giving a fresh float64 score
    block for users ``lo .. hi`` (clipped at the user count)."""
    if n < 1:
        raise EvaluationError(f"cutoff must be >= 1, got {n}")
    ranked = np.empty((train.num_users, n), dtype=np.int64)
    for lo in range(0, train.num_users, ROW_CHUNK):
        block = block_of(lo, lo + ROW_CHUNK)
        ranked[lo:lo + len(block)] = _rank_rows(block, train, lo, n)
    return RankingResult(ranked, n)


def rank_all(scores: np.ndarray, train: InteractionDataset,
             n: int) -> RankingResult:
    """Top-n items per user by score, training items removed.

    Order is descending score, then ascending item index. Slots past a
    user's candidate count hold -1. ``scores`` is read, never written; the
    ranking works on one ``ROW_CHUNK``-row copy at a time.
    """
    scores = np.asarray(scores)
    if scores.shape != (train.num_users, train.num_items):
        raise EvaluationError(
            f"score matrix {scores.shape} does not match dataset "
            f"({train.num_users}, {train.num_items})")
    return _rank_blocks(train, n, lambda lo, hi: np.array(
        scores[lo:hi], dtype=np.float64))


def rank_embeddings(user_emb: np.ndarray, item_emb: np.ndarray,
                    train: InteractionDataset, n: int) -> RankingResult:
    """``rank_all(score_matrix(user_emb, item_emb), train, n)`` without the
    users-by-items matrix: scores ``ROW_CHUNK`` users at a time."""
    if (len(user_emb), len(item_emb)) != (train.num_users, train.num_items):
        raise EvaluationError(
            f"embeddings ({len(user_emb)}, {len(item_emb)}) do not match "
            f"dataset ({train.num_users}, {train.num_items})")
    return _rank_blocks(train, n, lambda lo, hi: score_matrix(
        user_emb[lo:hi], item_emb))


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


def recall_at_n(result: RankingResult, test: InteractionDataset,
                n: int = None) -> float:
    """Mean over evaluated users of |top-n hits| / |test items|."""
    hit, degree = _hits(result, test, n)
    return float(np.mean(np.count_nonzero(hit, axis=1) / degree))


def ndcg_at_n(result: RankingResult, test: InteractionDataset,
              n: int = None) -> float:
    """Binary-relevance NDCG: gain 1/log2(rank+1), ideal list of length
    min(n, |test items|), averaged over evaluated users."""
    hit, degree = _hits(result, test, n)
    discounts = 1.0 / np.log2(np.arange(2, hit.shape[1] + 2))
    dcg = hit @ discounts
    idcg = np.cumsum(discounts)[np.minimum(degree, hit.shape[1]) - 1]
    return float(np.mean(dcg / idcg))


def _report(result: RankingResult, test: InteractionDataset,
            cutoffs) -> dict:
    out = {}
    for c in cutoffs:
        out[f"recall@{c}"] = recall_at_n(result, test, c)
        out[f"ndcg@{c}"] = ndcg_at_n(result, test, c)
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


def subset_by_group(test: InteractionDataset, assignment: np.ndarray,
                    group: int, axis: str) -> InteractionDataset:
    """Test edges whose user (or item) falls in the given bucket."""
    col = 0 if axis == "user" else 1
    keep = assignment[test.edges[:, col]] == group
    return InteractionDataset.from_edges(test.edges[keep], test.num_users,
                                         test.num_items)


def group_metrics(result: RankingResult, test: InteractionDataset,
                  assignment: np.ndarray, axis: str,
                  n: int = None) -> list:
    """Per-bucket Recall/NDCG rows; empty buckets report nan metrics."""
    rows = []
    for g in range(int(assignment.max()) + 1):
        sub = subset_by_group(test, assignment, g, axis)
        row = {"group": g, "axis": axis, "test_edges": sub.num_edges}
        try:
            row["recall"] = recall_at_n(result, sub, n)
            row["ndcg"] = ndcg_at_n(result, sub, n)
            row["users"] = int(np.count_nonzero(sub.user_degree()))
        except EvaluationError:
            row["recall"] = float("nan")
            row["ndcg"] = float("nan")
            row["users"] = 0
        rows.append(row)
    return rows


def write_csv(path: str, rows: list, fieldnames=None) -> None:
    """CSV with unix line endings; float formatting is str()'s shortest
    round-trip form, so equal runs give byte-equal files."""
    if not rows:
        raise EvaluationError("refusing to write an empty report")
    fieldnames = fieldnames or list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
