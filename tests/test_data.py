"""Dataset loading, splitting, adjacency weights, samplers, noise, grouping."""

import hashlib
import random
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.random import default_rng

from hypercf import data as D


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def oracle_load(path):
    """The reference loader: one Python step per line, as the TSV format
    was first implemented; `load_interactions` must agree with it."""
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
                raise D.DataError(
                    f"{path}:{lineno}: expected 'user<TAB>item', got {line!r}")
            u = user_index.setdefault(parts[0], len(user_index))
            v = item_index.setdefault(parts[1], len(item_index))
            rows.append((u, v))
    if not rows:
        raise D.DataError(f"{path}: no interactions found")
    return D.InteractionDataset.from_edges(
        rows, len(user_index), len(item_index),
        user_ids=list(user_index), item_ids=list(item_index))


def assert_same_dataset(got, want):
    assert got.edges.dtype == np.int64 and np.array_equal(got.edges, want.edges)
    assert got.user_ids == want.user_ids and got.item_ids == want.item_ids
    assert (got.num_users, got.num_items, got.num_edges) == \
        (want.num_users, want.num_items, want.num_edges)


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


class TestLoadEncoding:
    def test_bom_before_header_dropped(self, tmp_path):
        p = tmp_path / "bom.tsv"
        p.write_bytes("\ufeff# header\na\tx\n".encode("utf-8"))
        ds = D.load_interactions(str(p))
        assert ds.user_ids == ["a"] and ds.item_ids == ["x"]

    def test_bom_before_first_id_dropped(self, tmp_path):
        p = tmp_path / "bom.tsv"
        p.write_bytes("\ufeffa\tx\nb\tx\n".encode("utf-8"))
        assert D.load_interactions(str(p)).user_ids == ["a", "b"]

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        p = tmp_path / "latin1.tsv"
        p.write_bytes(b"a\tx\r\n# note\ncaf\xe9\tx\n")
        with pytest.raises(D.DataError, match=r"latin1\.tsv:3: .*0xe9"):
            D.load_interactions(str(p))

    def test_undecodable_comment_line_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(D, "READ_BLOCK", 8)
        p = tmp_path / "bad.tsv"
        p.write_bytes(b"a\tx\nb\ty\nc\tz\n# \xff\n")
        with pytest.raises(D.DataError, match=r"bad\.tsv:4: "):
            D.load_interactions(str(p))

    def test_first_bad_line_named_before_later_bad_byte(self, tmp_path):
        p = tmp_path / "both.tsv"
        p.write_bytes(b"a\tx\nbroken\ncaf\xe9\tx\n")
        with pytest.raises(D.DataError, match=r"both\.tsv:2: expected"):
            D.load_interactions(str(p))

    def test_balanced_tab_count_is_not_a_check(self, tmp_path):
        # one line without a tab and one with two add up to the right count
        p = tmp_path / "pair.tsv"
        p.write_bytes(b"a\nb\tc\td\n")
        with pytest.raises(D.DataError) as exc:
            D.load_interactions(str(p))
        assert str(exc.value) == \
            f"{p}:1: expected 'user<TAB>item', got 'a'"

    def test_skip_table_covers_every_whitespace_lead_byte(self):
        lead = {chr(c).encode("utf-8")[0] for c in range(sys.maxunicode + 1)
                if not 0xD800 <= c < 0xE000 and chr(c).isspace()}
        expected = lead | {ord("#"), ord("\n")}
        assert set(np.flatnonzero(D._MAYBE_SKIPPED)) == expected


USERS = ["a", "a#1", "user 7", "ü", "用户", "x\x0cy", "\xa0lead", " pad "] \
    + [f"u{i}" for i in range(24)]
ITEMS = ["x", "it em", "ß", "物品", "#tag", "end "] + [f"i{i}" for i in range(40)]
SKIPPED = ["  # x", "# header\twith\ttabs", "\u3000# wide", "", "   ",
           " \t ", "\t", "\x0b", "\x1c"]
ENDINGS = ["\n", "\r\n", "\r"]


def random_tsv(rng: random.Random, lines: int) -> str:
    out = []
    for _ in range(lines):
        if rng.random() < 0.2:
            line = rng.choice(SKIPPED)
        else:  # small pools, so edges repeat
            line = f"{rng.choice(USERS)}\t{rng.choice(ITEMS)}"
        out.append(line + rng.choice(ENDINGS))
    text = "".join(out)
    return text.rstrip("\r\n") if rng.random() < 0.5 else text


class TestLoadParity:
    """The block parser against the per-line oracle."""

    @pytest.mark.parametrize("block", [1, 3, 7, 64, None])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_files(self, tmp_path, monkeypatch, seed, block):
        if block:
            monkeypatch.setattr(D, "READ_BLOCK", block)
        p = tmp_path / "r.tsv"
        p.write_bytes(random_tsv(random.Random(seed), 300).encode("utf-8"))
        assert_same_dataset(D.load_interactions(str(p)), oracle_load(str(p)))

    def test_file_spanning_default_blocks(self, tmp_path):
        p = tmp_path / "big.tsv"
        p.write_bytes(random_tsv(random.Random(99), 8000).encode("utf-8"))
        assert p.stat().st_size > 3 * D.READ_BLOCK
        assert_same_dataset(D.load_interactions(str(p)), oracle_load(str(p)))

    @pytest.mark.parametrize("bad", [["no tab"], ["a", "b"], ["a\tb\tc"],
                                     ["a\tb\tc\td"], ["\tx"], ["a\t"],
                                     ["a", "b\tc\td"]],
                             ids=["no-tab", "two-no-tab", "two-tabs",
                                  "three-tabs", "empty-user", "empty-item",
                                  "balanced-pair"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_malformed_line_named_like_oracle(self, tmp_path, monkeypatch,
                                              bad, where, final_newline):
        monkeypatch.setattr(D, "READ_BLOCK", 64)
        rng = random.Random(5)
        lines = [f"{rng.choice(USERS)}\t{rng.choice(ITEMS)}"
                 for _ in range(120)]
        at = {"first": 1, "middle": 60, "last": len(lines)}[where]
        lines[at:at] = bad
        p = tmp_path / "bad.tsv"
        ending = "\r\n" if where == "middle" else "\n"
        text = ending.join(lines) + (ending if final_newline else "")
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(D.DataError) as want:
            oracle_load(str(p))
        with pytest.raises(D.DataError) as got:
            D.load_interactions(str(p))
        assert str(got.value) == str(want.value)
        assert f":{at + 1}: " in str(got.value)


class TestUnique:
    """The sort-based dedup against `np.unique`."""

    @pytest.mark.parametrize("keys", [
        default_rng(0).integers(-50, 50, size=5000),
        default_rng(1).integers(0, 2**62, size=300) % 97 * 2**40,
        np.full(64, 7, dtype=np.int64),
        np.array([3], dtype=np.int64),
        D.pack_edges(np.zeros((0, 2), dtype=np.int64), 5),
    ], ids=["many-duplicates", "large-keys", "all-equal", "one", "empty"])
    def test_matches_np_unique(self, keys):
        got, want = D._unique(keys), np.unique(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_empty_edge_array(self):
        ds = D.InteractionDataset.from_edges(np.zeros((0, 2), dtype=np.int64),
                                             3, 4)
        assert ds.edges.shape == (0, 2) and ds.edges.dtype == np.int64

    def test_from_edges_range_errors(self):
        with pytest.raises(D.DataError, match="user index out of range"):
            D.InteractionDataset.from_edges([(3, 0)], 3, 4)
        with pytest.raises(D.DataError, match="item index out of range"):
            D.InteractionDataset.from_edges([(0, -1)], 3, 4)


class TestMemoryBound:
    """The loader holds one block of text at a time, never the whole file
    or a Python object per line."""

    def test_peak_under_per_line_loader(self, tmp_path):
        p = str(tmp_path / "4k.tsv")
        D.write_interactions(p, D.synthetic_blocks(4000, 2000, 8, 20, seed=0))
        tracemalloc.start()
        try:
            D.load_interactions(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-line loader peaked at 9.8 MB on this file
        assert peak < 9.8e6, peak


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

    def test_parts_sorted_and_unique(self):
        ds = D.synthetic_blocks(num_users=60, num_items=30, num_blocks=3,
                                edges_per_user=6, seed=2)
        sp = D.split(ds, seed=4)
        for part in (sp.train, sp.validation, sp.test):
            assert (np.diff(part.packed) > 0).all()
            again = D.InteractionDataset.from_edges(
                part.edges[::-1], part.num_users, part.num_items)
            assert np.array_equal(part.edges, again.edges)
            assert np.array_equal(part.ptr, again.ptr)

    def test_too_few_edges_rejected(self):
        with pytest.raises(D.DataError, match="10 edges"):
            D.split(self.make(9), seed=0)


def scipy_csr(m: D.CSRMatrix) -> sp.csr_matrix:
    """The scipy matrix over an adjacency direction's CSR arrays."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


class TestAdjacency:
    def test_single_edge_weight_one(self):
        ds = D.InteractionDataset.from_edges([(0, 0)], 1, 1)
        adj = D.build_normalized_adjacency(ds)
        assert scipy_csr(adj.matrix)[0, 0] == 1.0

    def test_shared_item_weights(self):
        # two users, one shared item: both weights 1/(sqrt(1) sqrt(2))
        ds = D.InteractionDataset.from_edges([(0, 0), (1, 0)], 2, 1)
        adj = D.build_normalized_adjacency(ds, dtype=np.float64)
        np.testing.assert_allclose(scipy_csr(adj.matrix).toarray(),
                                   [[1 / np.sqrt(2)], [1 / np.sqrt(2)]])

    def test_four_items_degree_one(self):
        ds = D.InteractionDataset.from_edges([(0, j) for j in range(4)], 1, 4)
        adj = D.build_normalized_adjacency(ds, dtype=np.float64)
        np.testing.assert_allclose(scipy_csr(adj.matrix).toarray(),
                                   np.full((1, 4), 0.5))

    def test_exhaustive_weight_formula(self):
        rng = default_rng(11)
        edges = {(int(rng.integers(0, 6)), int(rng.integers(0, 7)))
                 for _ in range(20)}
        ds = D.InteractionDataset.from_edges(sorted(edges), 6, 7)
        adj = D.build_normalized_adjacency(ds, dtype=np.float64)
        mat, mat_t = scipy_csr(adj.matrix), scipy_csr(adj.matrix_t)
        du, dv = ds.user_degree(), ds.item_degree()
        for u, v in ds.edges:
            expect = 1.0 / np.sqrt(du[u] * dv[v])
            assert abs(mat[u, v] - expect) < 1e-12
        # transpose and row neighborhoods agree with the forward matrix
        assert (mat_t.toarray() == mat.toarray().T).all()
        row = mat[int(ds.edges[0, 0])]
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

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(num_users=400, num_items=200, seed=0),
         "d186cd29bafca4bb4f70a5bdde422b9965a829c346e02220adbb349df12c7525"),
        (dict(num_users=4000, num_items=2000, seed=3),
         "84c6fb72491e899ba3000257f5baa0798c4e98ff4803599fdfabc7311820d8bd"),
        # 3 blocks of 10 items: the 16 within-block draws are capped at 10
        (dict(num_users=60, num_items=30, num_blocks=3, edges_per_user=20,
              within_prob=0.8, seed=7),
         "df22f9c8e30553f13b198ce7971871312483c0058467c0169a26b23a4101bbd1"),
    ])
    def test_edges_pinned(self, kwargs, digest):
        # sha256 of the little-endian int64 edges as first generated: later
        # tests and recorded results rely on this exact data
        edges = D.synthetic_blocks(**kwargs).edges
        data = np.ascontiguousarray(edges, dtype="<i8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest
