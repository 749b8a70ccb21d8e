"""Independent brute-force check of one all-rank evaluation pass.

For a sample of users it ranks every item from the embedding tables in
float64, drops the user's training items, orders by descending score and
then ascending item id, and recomputes Recall and NDCG from those lists.
Nothing here calls the program's ranking or metric code.
"""

from __future__ import annotations

import math

import numpy as np


def brute_force_top_n(user_emb, item_emb, train_items, users, n: int):
    """Top-n item ids per sampled user; rows padded with -1.

    ``train_items(u)`` gives the items user ``u`` interacted with in training.
    """
    items = np.asarray(item_emb, dtype=np.float64)
    out = np.full((len(users), n), -1, dtype=np.int64)
    for row, u in enumerate(users):
        scores = items @ np.asarray(user_emb[u], dtype=np.float64)
        keep = np.ones(len(items), dtype=bool)
        keep[np.asarray(train_items(u), dtype=np.int64)] = False
        candidates = np.flatnonzero(keep)
        # lexsort orders by the last key first: score descending, then id
        order = np.lexsort((candidates, -scores[candidates]))
        top = candidates[order[:n]]
        out[row, :len(top)] = top
    return out


def user_recall_ndcg(ranked, relevant, n: int):
    """Recall and binary-relevance NDCG of one ranked list at cutoff n."""
    relevant = set(int(j) for j in relevant)
    hits = [int(j) in relevant for j in ranked[:n] if j >= 0]
    dcg = sum(1.0 / math.log2(rank + 2) for rank, hit in enumerate(hits) if hit)
    idcg = sum(1.0 / math.log2(rank + 2)
               for rank in range(min(n, len(relevant))))
    return sum(hits) / len(relevant), dcg / idcg


def mean_recall_ndcg(lists, users, test_items, n: int):
    """Mean Recall and NDCG over the users that have test items."""
    pairs = [user_recall_ndcg(lists[row], test_items(u), n)
             for row, u in enumerate(users) if len(test_items(u))]
    if not pairs:
        raise ValueError("no sampled user has test items")
    return (sum(p[0] for p in pairs) / len(pairs),
            sum(p[1] for p in pairs) / len(pairs))


def ranking_mismatches(expected, got, users) -> list:
    """One message per sampled user whose ranked list differs."""
    out = []
    for row, u in enumerate(users):
        if not np.array_equal(expected[row], got[row]):
            out.append(f"user {u}: expected top list {expected[row].tolist()}, "
                       f"got {got[row].tolist()}")
    return out


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
