"""Ranking metrics against a brute-force reference and hand-worked values."""

import csv
import math

import numpy as np
import pytest
from numpy.random import default_rng

from hypercf import evaluation as E
from hypercf.data import InteractionDataset


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
        assert result.user_list(0).tolist() == [2, 0]

    def test_tie_break_ascending_index(self):
        train = dataset(np.empty((0, 2)), 1, 5)
        result = E.rank_all(np.ones((1, 5)), train, 5)
        assert result.items[0].tolist() == [0, 1, 2, 3, 4]

    def test_list_length_contract(self):
        # 4 items, 3 in training -> one real slot, rest padded
        train = dataset([[0, 0], [0, 1], [0, 2]], 1, 4)
        result = E.rank_all(np.zeros((1, 4)), train, 3)
        assert result.items[0].tolist() == [3, -1, -1]
        assert len(result.user_list(0)) == min(3, 4 - 3)

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

    def test_masking_exhaustive_random(self):
        rng = default_rng(5)
        for _ in range(20):
            users, items = rng.integers(2, 12, size=2)
            edges = np.stack([rng.integers(0, users, 30),
                              rng.integers(0, items, 30)], axis=1)
            train = dataset(edges, users, items)
            result = E.rank_all(rng.normal(size=(users, items)), train, items)
            for u in range(users):
                assert not set(train.items_of(u)) & set(result.user_list(u))


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
            result = E.rank_all(scores, train, n)
            oracle_lists = rank_loops(scores, train, n)
            assert result.items.shape == (users, n)
            for u in range(users):
                got = result.items[u]
                assert got[got >= 0].tolist() == oracle_lists[u], (n, u)
                assert (got[len(oracle_lists[u]):] == -1).all()
            for u in full:
                assert (result.items[u] == -1).all()

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
        rng = default_rng(8)
        users, items, d = 2 * E.ROW_CHUNK + 1, 40, 5
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
                assert result.user_list(u).tolist() == oracle_lists[u], trial
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

    def test_group_weighted_average_matches_global(self):
        rng = default_rng(21)
        users, items = 30, 50
        train = dataset(np.stack([rng.integers(0, users, 60),
                                  rng.integers(0, items, 60)], 1), users, items)
        test = dataset(np.stack([rng.integers(0, users, 40),
                                 rng.integers(0, items, 40)], 1), users, items)
        scores = rng.normal(size=(users, items))
        result = E.rank_all(scores, train, 10)
        assignment = (np.arange(users) % 3)  # arbitrary user partition
        rows = E.group_metrics(result, test, assignment, "user", 10)
        weighted = sum(r["recall"] * r["users"] for r in rows if r["users"])
        count = sum(r["users"] for r in rows)
        assert weighted / count == pytest.approx(
            E.recall_at_n(result, test, 10), abs=1e-12)

    def test_item_group_subsets_partition_test_edges(self):
        test = dataset([[0, 0], [0, 1], [1, 2]], 2, 3)
        assignment = np.array([0, 1, 1])
        subs = [E.subset_by_group(test, assignment, g, "item")
                for g in (0, 1)]
        assert subs[0].num_edges + subs[1].num_edges == test.num_edges

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
