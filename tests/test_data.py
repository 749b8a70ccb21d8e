"""Dataset loading, splitting, adjacency weights, samplers, noise, grouping."""

import numpy as np
import pytest
from numpy.random import default_rng

from hypercf import data as D


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLoad:
    def test_three_line_file(self, tmp_path):
        p = write_lines(tmp_path / "x.tsv", ["a\tx", "a\ty", "b\tx"])
        ds = D.load_interactions(p)
        assert (ds.num_users, ds.num_items, ds.num_edges) == (2, 2, 3)
        assert ds.user_ids == ["a", "b"] and ds.item_ids == ["x", "y"]

    def test_duplicate_line_deduplicated(self, tmp_path):
        p = write_lines(tmp_path / "x.tsv", ["a\tx", "a\tx", "b\ty"])
        assert D.load_interactions(p).num_edges == 2

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        p = write_lines(tmp_path / "x.tsv", ["# header", "", "a\tx", "  ", "b\ty"])
        assert D.load_interactions(p).num_edges == 2

    def test_parse_error_names_line(self, tmp_path):
        p = write_lines(tmp_path / "x.tsv", ["a\tx", "broken line"])
        with pytest.raises(D.DataError, match=":2:"):
            D.load_interactions(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_lines(tmp_path / "x.tsv", ["# nothing"])
        with pytest.raises(D.DataError, match="no interactions"):
            D.load_interactions(p)


class TestSplit:
    def make(self, n_edges, num_items=50):
        edges = [(i // num_items, i % num_items) for i in range(n_edges)]
        return D.InteractionDataset.from_edges(
            edges, n_edges // num_items + 1, num_items)

    def test_100_edges_70_20_10(self):
        sp = D.split(self.make(100), seed=1)
        assert (sp.train.num_edges, sp.validation.num_edges,
                sp.test.num_edges) == (70, 20, 10)

    def test_same_seed_identical(self):
        ds = self.make(200)
        a, b = D.split(ds, seed=9), D.split(ds, seed=9)
        assert np.array_equal(a.train.edges, b.train.edges)
        assert np.array_equal(a.test.edges, b.test.edges)
        c = D.split(ds, seed=10)
        assert not np.array_equal(a.train.edges, c.train.edges)

    def test_paper_scale_rounding(self):
        # documented policy: floor for train and validation, remainder to test
        assert D.split_sizes(1517326) == (1062128, 303465, 151733)
        assert sum(D.split_sizes(1517326)) == 1517326

    def test_partition_property(self):
        ds = self.make(137)
        sp = D.split(ds, seed=3)
        merged = np.concatenate([sp.train.edges, sp.validation.edges, sp.test.edges])
        merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
        assert np.array_equal(merged, ds.edges)

    def test_too_few_edges_rejected(self):
        with pytest.raises(D.DataError, match="10 edges"):
            D.split(self.make(9), seed=0)


class TestAdjacency:
    def test_single_edge_weight_one(self):
        ds = D.InteractionDataset.from_edges([(0, 0)], 1, 1)
        adj = D.build_normalized_adjacency(ds)
        assert adj.matrix[0, 0] == 1.0

    def test_shared_item_weights(self):
        # two users, one shared item: both weights 1/(sqrt(1) sqrt(2))
        ds = D.InteractionDataset.from_edges([(0, 0), (1, 0)], 2, 1)
        adj = D.build_normalized_adjacency(ds, dtype=np.float64)
        np.testing.assert_allclose(adj.matrix.toarray(),
                                   [[1 / np.sqrt(2)], [1 / np.sqrt(2)]])

    def test_four_items_degree_one(self):
        ds = D.InteractionDataset.from_edges([(0, j) for j in range(4)], 1, 4)
        adj = D.build_normalized_adjacency(ds, dtype=np.float64)
        np.testing.assert_allclose(adj.matrix.toarray(), np.full((1, 4), 0.5))

    def test_exhaustive_weight_formula(self):
        rng = default_rng(11)
        edges = {(int(rng.integers(0, 6)), int(rng.integers(0, 7)))
                 for _ in range(20)}
        ds = D.InteractionDataset.from_edges(sorted(edges), 6, 7)
        adj = D.build_normalized_adjacency(ds, dtype=np.float64)
        du, dv = ds.user_degree(), ds.item_degree()
        for u, v in ds.edges:
            expect = 1.0 / np.sqrt(du[u] * dv[v])
            assert abs(adj.matrix[u, v] - expect) < 1e-12
        # transpose and row neighborhoods agree with the forward matrix
        assert (adj.matrix_t.toarray() == adj.matrix.toarray().T).all()
        row = adj.matrix[int(ds.edges[0, 0])]
        assert row.nnz == du[ds.edges[0, 0]]

    def test_isolated_nodes_flagged(self):
        ds = D.InteractionDataset.from_edges([(0, 0)], 2, 3)
        adj = D.build_normalized_adjacency(ds)
        assert np.diff(adj.matrix.indptr).tolist() == [1, 0]
        assert np.diff(adj.matrix_t.indptr).tolist() == [1, 0, 0]


class TestMainPairs:
    def test_forced_negative(self):
        # user 0 saw every item except item 3
        ds = D.InteractionDataset.from_edges(
            [(0, j) for j in range(5) if j != 3], 1, 5)
        batch = D.sample_main_pairs(ds, 32, default_rng(0), users=np.arange(1))
        assert batch.kind == "main"
        assert (batch.v2 == 3).all() and (batch.u1 == batch.u2).all()

    def test_count_precondition(self):
        ds = D.InteractionDataset.from_edges([(0, 0)], 1, 2)
        with pytest.raises(ValueError):
            D.sample_main_pairs(ds, 0, default_rng(0), users=np.arange(1))

    def test_saturated_user_rejected(self):
        ds = D.InteractionDataset.from_edges([(0, j) for j in range(4)], 1, 4)
        with pytest.raises(D.SamplingError, match="every item"):
            D.sample_main_pairs(ds, 4, default_rng(0), users=np.arange(1))

    def test_positives_observed_negatives_not(self):
        ds = D.synthetic_blocks(num_users=20, num_items=15, num_blocks=3,
                                edges_per_user=5, seed=2)
        batch = D.sample_main_pairs(ds, 500, default_rng(3),
                                     users=np.arange(20))
        assert ds.contains(np.stack([batch.u1, batch.v1], 1)).all()
        assert not ds.contains(np.stack([batch.u2, batch.v2], 1)).any()

    def test_negative_frequency_uniform(self):
        # one user, positives {0, 1}: negatives uniform over the other 4 items
        ds = D.InteractionDataset.from_edges([(0, 0), (0, 1)], 1, 6)
        batch = D.sample_main_pairs(ds, 100_000, default_rng(42),
                                     users=np.arange(1))
        counts = np.bincount(batch.v2, minlength=6)
        assert counts[0] == counts[1] == 0
        n, p = 100_000, 0.25
        sigma = np.sqrt(n * p * (1 - p))
        assert (np.abs(counts[2:] - n * p) <= 3 * sigma).all(), counts

    def test_user_restriction(self):
        ds = D.synthetic_blocks(num_users=12, num_items=10, num_blocks=2,
                                edges_per_user=4, seed=5)
        batch = D.sample_main_pairs(ds, 64, default_rng(1),
                                    users=np.array([3, 7]))
        assert set(batch.u1.tolist()) <= {3, 7}

    def test_user_pool_matches_membership_formula(self):
        # positives are drawn from the edges whose user is in the batch, in
        # edge order: the same draws as an np.isin mask over every edge
        # users 0, 4, 7 and 9 have no edges; batches repeat users, unsorted
        edges = [(u, v) for u in (1, 2, 3, 5, 6, 8) for v in range(u % 4, 9, 3)]
        ds = D.InteractionDataset.from_edges(edges, 10, 9)
        for seed, users in enumerate(([5, 1, 5, 0, 8, 1], [9, 3, 3, 7],
                                      [2, 4, 6, 2, 6, 0, 9, 8, 1])):
            users = np.array(users)
            rng, twin = default_rng(seed), default_rng(seed)
            batch = D.sample_main_pairs(ds, 40, rng, users=users)
            pool = np.flatnonzero(np.isin(ds.edges[:, 0], users))
            rows = pool[twin.integers(0, len(pool), size=40)]
            assert np.array_equal(batch.u1, ds.edges[rows, 0])
            assert np.array_equal(batch.v1, ds.edges[rows, 1])
        with pytest.raises(D.SamplingError, match="no training edges"):
            D.sample_main_pairs(ds, 4, default_rng(0),
                                users=np.array([0, 7, 0]))


class TestSalPairs:
    def test_two_edge_graph_only_pair(self):
        ds = D.InteractionDataset.from_edges([(0, 0), (1, 1)], 2, 2)
        batch = D.sample_sal_pairs(ds, 50, default_rng(0))
        assert batch.kind == "self-augmented"
        for u1, v1, u2, v2 in zip(batch.u1, batch.v1, batch.u2, batch.v2):
            assert {(int(u1), int(v1)), (int(u2), int(v2))} == {(0, 0), (1, 1)}

    def test_all_edges_observed(self):
        ds = D.synthetic_blocks(num_users=15, num_items=12, num_blocks=3,
                                edges_per_user=4, seed=7)
        batch = D.sample_sal_pairs(ds, 300, default_rng(2))
        assert ds.contains(np.stack([batch.u1, batch.v1], 1)).all()
        assert ds.contains(np.stack([batch.u2, batch.v2], 1)).all()
        # members of a pair are distinct edges
        same = (batch.u1 == batch.u2) & (batch.v1 == batch.v2)
        assert not same.any()

    def test_pair_frequency_uniform(self):
        # 4 edges -> 12 ordered pairs, each with probability 1/12
        ds = D.InteractionDataset.from_edges([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2)
        batch = D.sample_sal_pairs(ds, 12_000, default_rng(8))
        key1 = batch.u1 * 2 + batch.v1
        key2 = batch.u2 * 2 + batch.v2
        counts = np.bincount(key1 * 4 + key2, minlength=16)
        possible = [k for k in range(16) if k // 4 != k % 4]
        assert counts.sum() == 12_000 and counts[[k for k in range(16)
                                                  if k // 4 == k % 4]].sum() == 0
        n, p = 12_000, 1 / 12
        sigma = np.sqrt(n * p * (1 - p))
        assert (np.abs(counts[possible] - n * p) <= 3 * sigma).all(), counts


class TestNoise:
    def test_ratio_zero_identity(self):
        ds = D.synthetic_blocks(num_users=10, num_items=8, num_blocks=2,
                                edges_per_user=3, seed=1)
        noisy, mask = D.inject_noise(ds, 0.0, seed=4)
        assert np.array_equal(noisy.edges, ds.edges)
        assert mask.sum() == 0

    def test_quarter_ratio_counts(self):
        ds = D.synthetic_blocks(num_users=100, num_items=40, num_blocks=4,
                                edges_per_user=10, seed=3)
        assert ds.num_edges == 1000
        noisy, mask = D.inject_noise(ds, 0.25, seed=4)
        assert noisy.num_edges == 1000
        assert mask.sum() == 250

    def test_fakes_never_collide_with_real(self):
        ds = D.synthetic_blocks(num_users=12, num_items=10, num_blocks=2,
                                edges_per_user=4, seed=6)
        noisy, mask = D.inject_noise(ds, 0.2, seed=9)
        fake_edges = noisy.edges[mask]
        real_kept = noisy.edges[~mask]
        assert not ds.contains(fake_edges).any()
        assert ds.contains(real_kept).all()
        assert len(fake_edges) + len(real_kept) == ds.num_edges

    def test_bad_ratio_rejected(self):
        ds = D.synthetic_blocks(num_users=10, num_items=8, num_blocks=2,
                                edges_per_user=3, seed=1)
        with pytest.raises(ValueError):
            D.inject_noise(ds, 0.5, seed=0)


class TestSparsityGroups:
    def make(self):
        edges = [(u, j) for u in range(6) for j in range(u + 1)]
        return D.InteractionDataset.from_edges(edges, 6, 6)

    def test_single_boundary_one_group(self):
        ds = self.make()
        groups = D.sparsity_groups(ds, "user", [1000])
        assert (groups == 0).all() and len(groups) == 6

    def test_populations_partition(self):
        ds = self.make()
        for axis, total in (("user", 6), ("item", 6)):
            groups = D.sparsity_groups(ds, axis, [2, 4])
            assert len(groups) == total
            assert sum((groups == g).sum() for g in range(3)) == total

    def test_first_bucket_includes_low_degree(self):
        # degree sequence for users is 1..6; boundary 2 puts degrees <= 2 first
        ds = self.make()
        groups = D.sparsity_groups(ds, "user", [2, 4, 8])
        assert groups.tolist() == [0, 0, 1, 1, 2, 2]
        # zero-degree items (none here for users, item 5 unused) join bucket 0
        item_groups = D.sparsity_groups(ds, "item", [2, 4, 8])
        assert item_groups[5] == 0

    def test_bad_boundaries(self):
        ds = self.make()
        with pytest.raises(ValueError):
            D.sparsity_groups(ds, "user", [4, 4])
        with pytest.raises(ValueError):
            D.sparsity_groups(ds, "banana", [4])


class TestSynthetic:
    def test_deterministic_and_shaped(self):
        a = D.synthetic_blocks(seed=5)
        b = D.synthetic_blocks(seed=5)
        assert np.array_equal(a.edges, b.edges)
        assert a.num_users == 400 and a.num_items == 200
        # about 20 interactions per user, mostly within the planted block
        assert 15 <= a.num_edges / a.num_users <= 20
        user_block = np.arange(400) % 8
        item_block = np.arange(200) % 8
        within = user_block[a.edges[:, 0]] == item_block[a.edges[:, 1]]
        assert within.mean() > 0.7
