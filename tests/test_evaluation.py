"""Ranking metrics against a brute-force reference and hand-worked values."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng

from hypercf import data as D
from hypercf import evaluation as E
from hypercf.data import InteractionDataset
from rankings import user_list


def dataset(edges, users, items):
    return InteractionDataset.from_edges(edges, users, items)


# -- brute-force reference: full python sort, naive set intersection --------

def rank_loops(scores, train, n):
    out = []
    for u in range(train.num_users):
        banned = set(int(j) for j in train.items_of(u))
        candidates = [j for j in range(train.num_items) if j not in banned]
        candidates.sort(key=lambda j: (-scores[u][j], j))
        out.append(candidates[:n])
    return out


def recall_loops(lists, test):
    vals = []
    for u, top in enumerate(lists):
        relevant = set(int(j) for j in test.items_of(u))
        if not relevant:
            continue
        vals.append(len(relevant & set(top)) / len(relevant))
    return sum(vals) / len(vals)


def ndcg_loops(lists, test, n):
    vals = []
    for u, top in enumerate(lists):
        relevant = set(int(j) for j in test.items_of(u))
        if not relevant:
            continue
        dcg = sum(1.0 / math.log2(rank + 2)
                  for rank, j in enumerate(top) if j in relevant)
        idcg = sum(1.0 / math.log2(i + 2)
                   for i in range(min(n, len(relevant))))
        vals.append(dcg / idcg)
    return sum(vals) / len(vals)


def assert_matches_loops(scores, train, n):
    result = E.rank_all(scores, train, n)
    oracle_lists = rank_loops(scores, train, n)
    assert result.items.shape == (train.num_users, n)
    for u, expected in enumerate(oracle_lists):
        got = result.items[u]
        assert got[got >= 0].tolist() == expected, (n, u)
        assert (got[len(expected):] == -1).all(), (n, u)


class TestRankAll:
    def test_orders_by_score_descending(self):
        train = dataset(np.empty((0, 2)), 1, 4)
        scores = np.array([[0.1, 0.9, 0.5, 0.3]])
        result = E.rank_all(scores, train, 4)
        assert result.items[0].tolist() == [1, 2, 3, 0]

    def test_training_items_masked(self):
        train = dataset([[0, 1]], 1, 3)
        result = E.rank_all(np.array([[0.0, 9.0, 1.0]]), train, 3)
        assert 1 not in result.items[0]
        assert user_list(result, 0).tolist() == [2, 0]

    def test_tie_break_ascending_index(self):
        train = dataset(np.empty((0, 2)), 1, 5)
        result = E.rank_all(np.ones((1, 5)), train, 5)
        assert result.items[0].tolist() == [0, 1, 2, 3, 4]

    def test_list_length_contract(self):
        # 4 items, 3 in training -> one real slot, rest padded
        train = dataset([[0, 0], [0, 1], [0, 2]], 1, 4)
        result = E.rank_all(np.zeros((1, 4)), train, 3)
        assert result.items[0].tolist() == [3, -1, -1]
        assert len(user_list(result, 0)) == min(3, 4 - 3)

    def test_cutoff_beyond_item_count_pads(self):
        train = dataset(np.empty((0, 2)), 2, 3)
        result = E.rank_all(np.zeros((2, 3)), train, 10)
        assert result.items.shape == (2, 10)
        assert (result.items[:, 3:] == -1).all()

    def test_shape_mismatch_rejected(self):
        train = dataset([[0, 0]], 2, 2)
        with pytest.raises(E.EvaluationError):
            E.rank_all(np.zeros((3, 2)), train, 2)
        with pytest.raises(E.EvaluationError):
            E.rank_embeddings(np.zeros((3, 4)), np.zeros((2, 4)), train, 2)

    def test_nonfinite_scores_rejected(self):
        train = dataset([[0, 0]], 1, 2)
        with pytest.raises(E.EvaluationError):
            E.rank_all(np.array([[np.nan, 0.0]]), train, 2)

    @pytest.mark.parametrize("path", ["rank_all", "rank_embeddings"])
    @pytest.mark.parametrize("items", [40, 200])  # n = 5: G = 3 and 13
    @pytest.mark.parametrize("trained", [True, False])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected_anywhere(self, value, trained, items,
                                               path):
        # item j scores ``value`` for every user: (1, 1) . (value, 0)
        users, j = 3, items - 7
        user_emb = np.ones((users, 2))
        item_emb = default_rng(3).normal(size=(items, 2))
        item_emb[j] = [value, 0.0]
        scored = j if trained else j - 1  # the trained item of each user
        train = dataset([[u, scored] for u in range(users)], users, items)
        scores = E.score_matrix(user_emb, item_emb)
        assert np.array_equal(scores[:, j], np.full(users, value),
                              equal_nan=True)
        assert np.isfinite(np.delete(scores, j, axis=1)).all()
        with pytest.raises(E.EvaluationError, match="non-finite"):
            if path == "rank_all":
                E.rank_all(scores, train, 5)
            else:
                E.rank_embeddings(user_emb, item_emb, train, 5)

    def test_masking_exhaustive_random(self):
        rng = default_rng(5)
        for _ in range(20):
            users, items = rng.integers(2, 12, size=2)
            edges = np.stack([rng.integers(0, users, 30),
                              rng.integers(0, items, 30)], axis=1)
            train = dataset(edges, users, items)
            result = E.rank_all(rng.normal(size=(users, items)), train, items)
            for u in range(users):
                assert not set(train.items_of(u)) & set(user_list(result, u))


class TestChunkedRanking:
    """Ranking runs ROW_CHUNK users at a time; results must not depend on
    where the chunk edges fall."""

    @pytest.mark.parametrize("chunk", [7, None])
    def test_matches_loops_across_chunk_edges(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(E, "ROW_CHUNK", chunk)
        rng = default_rng(17)
        users, items = 2 * E.ROW_CHUNK + 5, 9
        edges = np.stack([rng.integers(0, users, 3 * users),
                          rng.integers(0, items, 3 * users)], axis=1)
        # users whose every item is in train, on both sides of a chunk edge
        full = [0, E.ROW_CHUNK - 1, E.ROW_CHUNK, users - 1]
        edges = np.concatenate(
            [edges] + [[[u, j] for j in range(items)] for u in full])
        train = dataset(edges, users, items)
        scores = np.round(rng.normal(size=(users, items)), 0)  # many ties
        for n in (1, items - 1, items, items + 5):
            assert_matches_loops(scores, train, n)

    def test_scores_left_unmodified(self):
        rng = default_rng(4)
        users, items = E.ROW_CHUNK + 3, 6
        train = dataset(np.stack([rng.integers(0, users, 50),
                                  rng.integers(0, items, 50)], 1),
                        users, items)
        scores = rng.normal(size=(users, items))
        before = scores.copy()
        E.rank_all(scores, train, 3)
        assert np.array_equal(scores, before)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_embeddings_path_bit_identical(self, quantized):
        for items in (40, 400):  # 400 items take the grouped path at n=20
            self.check_embeddings_path(quantized, items)

    @pytest.mark.parametrize("users", [1, 2, E.ROW_CHUNK, E.ROW_CHUNK + 1,
                                       2 * E.ROW_CHUNK + 5])
    def test_every_chunk_holds_row_chunk_users(self, users, monkeypatch):
        chunks = []
        rank_rows = E._rank_rows

        def logged(block, train, lo, n):
            chunks.append(range(lo, lo + len(block)))
            return rank_rows(block, train, lo, n)

        monkeypatch.setattr(E, "_rank_rows", logged)
        E.rank_all(np.zeros((users, 3)), dataset(np.zeros((0, 2), int),
                                                 users, 3), 2)
        assert {len(c) for c in chunks} == {min(E.ROW_CHUNK, users)}
        assert set().union(*chunks) == set(range(users))

    @pytest.mark.parametrize("d", [8, 32])
    @pytest.mark.parametrize("users", [E.ROW_CHUNK + 1, E.ROW_CHUNK + 2,
                                       2 * E.ROW_CHUNK + 1])
    def test_short_last_chunk_ranks_like_the_score_matrix(self, users, d):
        # 1-decimal embeddings tie often; a one-row or few-row product can
        # round differently from the full product and reorder the ties
        items = 200
        for seed in range(40):
            rng = default_rng(seed)
            user_emb = np.round(rng.normal(size=(users, d)), 1)
            item_emb = np.round(rng.normal(size=(items, d)), 1)
            train = dataset(np.stack([rng.integers(0, users, 4 * users),
                                      rng.integers(0, items, 4 * users)], 1),
                            users, items)
            dense = E.rank_all(E.score_matrix(user_emb, item_emb), train, 20)
            chunked = E.rank_embeddings(user_emb, item_emb, train, 20)
            assert np.array_equal(chunked.items, dense.items), seed

    def check_embeddings_path(self, quantized, items):
        rng = default_rng(8)
        users, d = 2 * E.ROW_CHUNK + 1, 5
        user_emb, item_emb = (rng.normal(size=(users, d)),
                              rng.normal(size=(items, d)))
        if quantized:  # exact ties between items
            user_emb, item_emb = np.round(user_emb), np.round(item_emb)
        train = dataset(np.stack([rng.integers(0, users, 4 * users),
                                  rng.integers(0, items, 4 * users)], 1),
                        users, items)
        test = dataset(np.stack([rng.integers(0, users, 2 * users),
                                 rng.integers(0, items, 2 * users)], 1),
                       users, items)
        dense = E.rank_all(E.score_matrix(user_emb, item_emb), train, 20)
        chunked = E.rank_embeddings(user_emb, item_emb, train, 20)
        assert np.array_equal(chunked.items, dense.items)

        class Tables:
            def embedding_tables(self, adj):
                return user_emb, item_emb

        assert E.evaluate_model(Tables(), None, train, test, (5, 20)) == \
            E.evaluate_scores(E.score_matrix(user_emb, item_emb), train,
                              test, (5, 20))


class TestGroupedRanking:
    """A row ranks only the items at or above its floor, the n-th largest
    maximum of its strided groups (item j is in group j mod G), or, with
    G <= n, its n-th largest score. Ties at the n-th group maximum or at
    the n-th score widen that set and need no other step. Every case must
    equal the brute-force sort."""

    N = 3

    def tricky_scores(self, rng, users, items):
        """Rounded random rows, then rows built to tie at the n-th score
        inside one group, to tie two groups or every group past the first
        n - 1 at the n-th group maximum, and to be all equal. With fewer
        than n + 1 groups, the groups picked may repeat."""
        groups = -(-items // E.GROUP)
        scores = np.round(rng.normal(size=(users, items)), 0)
        for u in range(0, users - 2, 3):
            row = -10.0 - rng.random(items)
            a, b, c, d = rng.choice(groups, 4, replace=groups < 4)
            row[[a, b]] = [5.0, 4.0]
            if u % 2 == 0:  # two items of one group tie at the n-th score
                row[c + groups * rng.choice(items // groups, 2,
                                            replace=False)] = 3.0
            elif u % 9 == 3:  # two groups tie at the n-th group maximum
                row[[c + groups * rng.integers(0, items // groups),
                     d + groups * rng.integers(0, items // groups)]] = 3.0
            else:  # every group but a and b ties at the n-th maximum
                rest = np.setdiff1d(np.arange(groups), [a, b])
                row[rest + groups * rng.integers(0, items // groups,
                                                 len(rest))] = 3.0
            scores[u] = row
        scores[users - 1] = 0.5
        return scores

    # G = n - 1, n, n + 1 (twice), 2n and 9 groups
    @pytest.mark.parametrize("items", [E.GROUP * (N - 1) - 3,
                                       E.GROUP * N - 3, E.GROUP * N + 5,
                                       E.GROUP * (N + 1) - 3,
                                       E.GROUP * 2 * N - 3,
                                       E.GROUP * 9 - 3])
    @pytest.mark.parametrize("chunk", [5, None])
    def test_matches_loops(self, items, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(E, "ROW_CHUNK", chunk)
        rng = default_rng(items)
        users = 2 * E.ROW_CHUNK + 7
        edges = np.stack([rng.integers(0, users, 4 * users),
                          rng.integers(0, items, 4 * users)], axis=1)
        short = [[1, j] for j in range(items - 2)]  # 2 untrained items
        full = [[u, j] for u in (E.ROW_CHUNK - 1, E.ROW_CHUNK)
                for j in range(items)]
        train = dataset(np.concatenate([edges, short, full]), users, items)
        scores = self.tricky_scores(rng, users, items)
        # identity item embeddings make the product the scores, bit for bit
        eye = np.eye(items)
        for n in (1, self.N, items - 1, items + 4):
            assert_matches_loops(scores, train, n)
            assert np.array_equal(
                E.rank_embeddings(scores, eye, train, n).items,
                E.rank_all(scores, train, n).items), n


class TestSmallCatalog:
    """With G <= k groups each item is its own group, so a row's floor is
    its k-th largest score. On either side of that boundary
    ``evaluate_model`` reports what the public metric functions report on
    the dense ranking, and the ranking is the brute-force sort."""

    @pytest.mark.parametrize("groups", [19, 20, 21])  # k = 20: G <, =, > k
    def test_evaluate_model_equals_public_functions(self, groups):
        rng = default_rng(groups)
        users, items, d = 2 * E.ROW_CHUNK + 3, E.GROUP * groups - 3, 4
        # integer embeddings: many exact ties between items
        user_emb = np.round(rng.normal(size=(users, d)))
        item_emb = np.round(rng.normal(size=(items, d)))
        train, test = (dataset(np.stack([rng.integers(0, users, k * users),
                                         rng.integers(0, items, k * users)],
                                        1), users, items) for k in (6, 3))

        class Tables:
            def embedding_tables(self, adj):
                return user_emb, item_emb

        scores = E.score_matrix(user_emb, item_emb)
        ranked = E.rank_all(scores, train, 20)
        want = {}
        for c in (5, 20):
            want[f"recall@{c}"] = E.recall_at_n(ranked, test, c)
            want[f"ndcg@{c}"] = E.ndcg_at_n(ranked, test, c)
        assert E.evaluate_model(Tables(), None, train, test, (5, 20)) == want
        assert_matches_loops(scores, train, 20)


class TestMemoryBound:
    """Ranking holds one ROW_CHUNK x items scratch block, never a copy of
    the users x items scores, so its peak does not grow with the users."""

    @pytest.mark.parametrize("path", ["rank_all", "rank_embeddings"])
    def test_peak_fixed_as_users_double(self, path):
        items, d, n = 3000, 8, 20
        peaks = []
        for users in (2048, 4096):
            rng = default_rng(0)
            user_emb = rng.normal(size=(users, d))
            item_emb = rng.normal(size=(items, d))
            train = dataset(np.stack([rng.integers(0, users, 4 * users),
                                      rng.integers(0, items, 4 * users)], 1),
                            users, items)
            scores = E.score_matrix(user_emb, item_emb)
            tracemalloc.start()
            try:
                if path == "rank_all":
                    result = E.rank_all(scores, train, n)
                else:
                    result = E.rank_embeddings(user_emb, item_emb, train, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - result.items.nbytes)
        assert max(peaks) < 2 * 2**20, peaks
        assert peaks[1] <= peaks[0] + 64 * 2**10, peaks


class TestMetricValues:
    def test_hand_example(self):
        # test items {A=0, B=1}; A ranked first, B never retrieved
        train = dataset([[0, 2]], 1, 25)
        test = dataset([[0, 0], [0, 1]], 1, 25)
        scores = np.zeros((1, 25))
        scores[0, 0] = 5.0  # item A on top
        scores[0, 1] = -5.0  # item B dead last
        result = E.rank_all(scores, train, 20)
        assert E.recall_at_n(result, test) == pytest.approx(0.5)
        expected = 1.0 / (1.0 + 1.0 / math.log2(3.0))
        assert E.ndcg_at_n(result, test) == pytest.approx(expected, abs=1e-4)
        assert round(expected, 4) == 0.6131

    def test_perfect_ranking(self):
        train = dataset(np.empty((0, 2)), 1, 10)
        test = dataset([[0, 3], [0, 7]], 1, 10)
        scores = np.zeros((1, 10))
        scores[0, [3, 7]] = [2.0, 1.0]
        result = E.rank_all(scores, train, 5)
        assert E.recall_at_n(result, test) == 1.0
        assert E.ndcg_at_n(result, test) == 1.0

    def test_no_hits(self):
        train = dataset(np.empty((0, 2)), 1, 10)
        test = dataset([[0, 9]], 1, 10)
        scores = np.arange(10, 0, -1, dtype=float).reshape(1, 10)
        result = E.rank_all(scores, train, 3)
        assert E.recall_at_n(result, test) == 0.0
        assert E.ndcg_at_n(result, test) == 0.0

    def test_users_without_test_items_excluded(self):
        train = dataset(np.empty((0, 2)), 3, 4)
        test = dataset([[1, 0]], 3, 4)  # only user 1 evaluated
        scores = np.zeros((3, 4))
        scores[1, 0] = 1.0
        result = E.rank_all(scores, train, 2)
        assert E.recall_at_n(result, test) == 1.0

    def test_all_users_empty_raises(self):
        train = dataset([[0, 0]], 1, 2)
        test = dataset(np.empty((0, 2)), 1, 2)
        result = E.rank_all(np.zeros((1, 2)), train, 2)
        with pytest.raises(E.EvaluationError):
            E.recall_at_n(result, test)

    def test_user_count_mismatch_rejected(self):
        result = E.rank_all(np.zeros((2, 3)), dataset([[0, 0]], 2, 3), 2)
        with pytest.raises(E.EvaluationError):
            E.recall_at_n(result, dataset([[0, 1]], 3, 3))

    def test_cutoff_validation(self):
        train = dataset([[0, 0]], 1, 5)
        result = E.rank_all(np.zeros((1, 5)), train, 3)
        with pytest.raises(E.EvaluationError):
            E.recall_at_n(result, dataset([[0, 1]], 1, 5), 4)

    def test_permuting_below_cutoff_is_invisible(self):
        rng = default_rng(11)
        scores = rng.normal(size=(6, 30))
        train = dataset([[u, u] for u in range(6)], 6, 30)
        test = dataset([[u, (u + 3) % 30] for u in range(6)], 6, 30)
        n = 5
        base = E.rank_all(scores, train, n)
        shuffled = scores.copy()
        for u in range(6):
            tail = np.setdiff1d(np.arange(30), base.items[u, :n])
            perm = rng.permutation(len(tail))
            low = shuffled[u, tail].min() - 1.0
            # rewrite tail scores to an arbitrary order strictly below top-n
            shuffled[u, tail] = low - perm
        after = E.rank_all(shuffled, train, n)
        assert E.recall_at_n(after, test, n) == E.recall_at_n(base, test, n)
        assert E.ndcg_at_n(after, test, n) == E.ndcg_at_n(base, test, n)


class TestBruteForceEquivalence:
    def test_200_random_instances(self):
        rng = default_rng(99)
        for trial in range(200):
            users = int(rng.integers(1, 51))
            items = int(rng.integers(2, 101))
            n_train = int(rng.integers(0, users * 2 + 1))
            n_test = int(rng.integers(1, users * 2 + 1))
            tr = np.stack([rng.integers(0, users, n_train),
                           rng.integers(0, items, n_train)], axis=1)
            te = np.stack([rng.integers(0, users, n_test),
                           rng.integers(0, items, n_test)], axis=1)
            train = dataset(tr.reshape(-1, 2), users, items)
            test = dataset(te, users, items)
            if not any(len(test.items_of(u)) for u in range(users)):
                continue
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=(users, items)), 1)
            n = int(rng.integers(1, 30))
            result = E.rank_all(scores, train, n)
            oracle_lists = rank_loops(scores, train, n)
            for u in range(users):
                assert user_list(result, u).tolist() == oracle_lists[u], trial
            assert E.recall_at_n(result, test) == pytest.approx(
                recall_loops(oracle_lists, test), abs=1e-12)
            assert E.ndcg_at_n(result, test) == pytest.approx(
                ndcg_loops(oracle_lists, test, n), abs=1e-12)


class TestReports:
    def test_evaluate_scores_multiple_cutoffs(self):
        train = dataset([[0, 0]], 2, 40)
        test = dataset([[0, 1], [1, 2]], 2, 40)
        scores = default_rng(3).normal(size=(2, 40))
        out = E.evaluate_scores(scores, train, test, cutoffs=(20, 40))
        assert set(out) == {"recall@20", "ndcg@20", "recall@40", "ndcg@40"}
        assert out["recall@40"] >= out["recall@20"]
        assert all(0.0 <= v <= 1.0 for v in out.values())

    def test_csv_round_trip(self, tmp_path):
        rows = [{"epoch": 0, "recall": 0.125, "ndcg": 0.0625},
                {"epoch": 1, "recall": 0.25, "ndcg": 0.5}]
        path = str(tmp_path / "metrics.csv")
        E.write_csv(path, rows)
        with open(path, encoding="utf-8", newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [float(r["recall"]) for r in back] == [0.125, 0.25]
        with open(path, "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw  # unix endings for byte-stable reports

    def test_csv_refuses_empty(self, tmp_path):
        with pytest.raises(E.EvaluationError):
            E.write_csv(str(tmp_path / "x.csv"), [])


# -- degree buckets ------------------------------------------------------------

def node_buckets(train, axis, bounds):
    """Each node's bucket, read off ``bucket_metrics`` with one test edge on
    that node alone."""
    nodes = train.num_users if axis == "user" else train.num_items
    result = E.RankingResult(np.zeros((train.num_users, 1), np.int64), 1)
    out = []
    for node in range(nodes):
        test = dataset([(node, 0) if axis == "user" else (0, node)],
                       train.num_users, train.num_items)
        rows = E.bucket_metrics(result, train, test, axis, bounds)
        out.append([r["test_edges"] for r in rows].index(1))
    return np.array(out)


def bucket_loops(result, train, test, axis, bounds):
    """Reference bucket rows: each bucket's test edges filtered by their
    node's training degree in plain python, scored by the public metric
    functions."""
    col = 0 if axis == "user" else 1
    degree = [0] * (train.num_users if axis == "user" else train.num_items)
    for edge in train.edges.tolist():
        degree[edge[col]] += 1
    rows = []
    for g, bound in enumerate(bounds):
        low = bounds[g - 1] if g else -math.inf
        high = bound if g < len(bounds) - 1 else math.inf
        keep = [e for e in test.edges.tolist() if low < degree[e[col]] <= high]
        row = {"group": g, "axis": axis, "test_edges": len(keep),
               "recall": None, "ndcg": None, "users": 0, "bound": bound}
        if keep:
            sub = dataset(keep, test.num_users, test.num_items)
            row.update(recall=E.recall_at_n(result, sub),
                       ndcg=E.ndcg_at_n(result, sub),
                       users=len({u for u, _ in keep}))
        rows.append(row)
    return rows


class TestBucketMetrics:
    def make(self):
        edges = [(u, j) for u in range(6) for j in range(u + 1)]
        return D.InteractionDataset.from_edges(edges, 6, 6)

    def test_single_boundary_one_group(self):
        ds = self.make()
        groups = node_buckets(ds, "user", [1000])
        assert (groups == 0).all() and len(groups) == 6

    def test_populations_partition(self):
        ds = self.make()
        for axis, total in (("user", 6), ("item", 6)):
            groups = node_buckets(ds, axis, [2, 4])
            assert len(groups) == total
            assert sum((groups == g).sum() for g in range(3)) == total

    def test_first_bucket_includes_low_degree(self):
        # degree sequence for users is 1..6; boundary 2 puts degrees <= 2 first
        ds = self.make()
        groups = node_buckets(ds, "user", [2, 4, 8])
        assert groups.tolist() == [0, 0, 1, 1, 2, 2]
        # zero-degree items (none here for users, item 5 unused) join bucket 0
        item_groups = node_buckets(ds, "item", [2, 4, 8])
        assert item_groups[5] == 0

    def test_bad_boundaries(self):
        ds = self.make()
        result = E.RankingResult(np.zeros((6, 1), np.int64), 1)
        with pytest.raises(ValueError):
            E.bucket_metrics(result, ds, ds, "user", [4, 4])
        with pytest.raises(ValueError):
            E.bucket_metrics(result, ds, ds, "banana", [4])

    def test_group_weighted_average_matches_global(self):
        rng = default_rng(21)
        users, items = 30, 50
        train = dataset(np.stack([rng.integers(0, users, 60),
                                  rng.integers(0, items, 60)], 1), users, items)
        test = dataset(np.stack([rng.integers(0, users, 40),
                                 rng.integers(0, items, 40)], 1), users, items)
        scores = rng.normal(size=(users, items))
        result = E.rank_all(scores, train, 10)
        rows = E.bucket_metrics(result, train, test, "user", [1, 2, 3])
        weighted = sum(r["recall"] * r["users"] for r in rows if r["users"])
        count = sum(r["users"] for r in rows)
        assert weighted / count == pytest.approx(
            E.recall_at_n(result, test, 10), abs=1e-12)

    def test_item_group_subsets_partition_test_edges(self):
        # bucket 2 holds no item: it still gets a row, with nan metrics
        train = dataset([[0, 2], [1, 1]], 2, 3)  # item degrees 0, 1, 1
        test = dataset([[0, 0], [0, 1], [1, 2]], 2, 3)
        result = E.RankingResult(np.array([[1, 0, 2], [2, 0, 1]]), 3)
        rows = E.bucket_metrics(result, train, test, "item", [0, 1, 2])
        assert [r["group"] for r in rows] == [0, 1, 2]
        assert [r["test_edges"] for r in rows] == [1, 2, 0]
        assert [r["users"] for r in rows] == [1, 2, 0]
        assert [r["recall"] for r in rows[:2]] == [1.0, 1.0]
        assert np.isnan(rows[2]["recall"]) and np.isnan(rows[2]["ndcg"])

    def test_group_errors_raise_instead_of_reading_empty(self):
        # only a bucket without test edges reads nan; a ranking of other
        # users is an error
        train = dataset([[0, 2], [1, 1]], 2, 3)
        test = dataset([[0, 0], [0, 1], [1, 2]], 2, 3)
        other = E.RankingResult(np.array([[1, 0, 2]]), 3)
        with pytest.raises(E.EvaluationError, match="users"):
            E.bucket_metrics(other, train, test, "item", [0, 1])

    @pytest.mark.parametrize("axis, bounds", [
        # user degrees are 0, 2, 4 and 6: (0, 1] and the last bucket are
        # empty
        ("user", [0, 1, 2, 4, 6, 9]),
        # item degrees are 0 (items 0 and 7..15), 6, 12 and 18: (6, 9]
        # and the last bucket are empty
        ("item", [0, 6, 9, 12, 18, 30]),
    ])
    def test_rows_equal_brute_force(self, axis, bounds):
        rng = default_rng(5)
        users, items = 24, 16
        train = dataset([(u, j) for u in range(users)
                         for j in range(1, 2 * (u % 4) + 1)], users, items)
        test = dataset(np.stack([rng.integers(0, users, 60),
                                 rng.integers(0, items, 60)], 1), users, items)
        result = E.rank_all(np.round(rng.normal(size=(users, items)), 1),
                            train, 7)
        rows = E.bucket_metrics(result, train, test, axis, bounds)
        want = bucket_loops(result, train, test, axis, bounds)
        # zero-degree nodes with test edges, an empty middle bucket and an
        # empty last one
        edges = [r["test_edges"] for r in want]
        assert edges[0] > 0 and 0 in edges[1:-1] and edges[-1] == 0
        assert [list(r) for r in rows] == [list(r) for r in want]
        for got, ref in zip(rows, want):
            if ref["recall"] is None:
                assert np.isnan(got.pop("recall")) and np.isnan(
                    got.pop("ndcg"))
                del ref["recall"], ref["ndcg"]
            assert got == ref
