"""Hypergraph transformer: attention factorization, mixing, stacking, bench."""

import numpy as np
import pytest

from hypercf import autodiff as ad
from hypercf import data as D
from hypercf import encoder
from hypercf import transformer as T
from hypercf.config import Config
from hypercf.model import Model


def node_to_hyperedge_loops(nodes, z, k_map, v_map, heads):
    """Per-(hyperedge, node) double loop, the definitional oracle."""
    n, d = nodes.shape
    num_k = z.shape[0]
    keys = nodes @ k_map.T
    vals = nodes @ v_map.T
    out = np.zeros((num_k, d))
    for lo, hi in T.head_slices(d, heads):
        for k in range(num_k):
            q = z[k, lo:hi]
            for i in range(n):
                out[k, lo:hi] += vals[i, lo:hi] * float(keys[i, lo:hi] @ q)
    return out


def hyperedge_to_node_loops(z_hat, keys, z, v_map, heads):
    n, d = keys.shape
    num_k = z_hat.shape[0]
    vals = z_hat @ v_map.T
    out = np.zeros((n, d))
    for lo, hi in T.head_slices(d, heads):
        for i in range(n):
            q = keys[i, lo:hi]
            for k in range(num_k):
                out[i, lo:hi] += vals[k, lo:hi] * float(z[k, lo:hi] @ q)
    return out


def to_hyperedges(nodes, p):
    return T.node_to_hyperedge(ad.constant(nodes), p, T.transposed_maps(p))


def to_nodes(z_hat, nodes, p):
    """A layer's output on ``nodes``: the nodes times the map of ``z_hat``."""
    return ad.matmul(ad.constant(nodes), T.hyperedge_to_node(
        ad.constant(z_hat), p, T.transposed_maps(p)))


def make_params(num_k, d, heads, rng, deep=True):
    return T.HyperSideParams(
        z=ad.constant(rng.normal(size=(num_k, d))),
        k_map=ad.constant(rng.normal(size=(d, d))),
        v_map=ad.constant(rng.normal(size=(d, d))),
        h1=ad.constant(rng.normal(size=(num_k, num_k))),
        h2=ad.constant(rng.normal(size=(num_k, num_k))) if deep else None,
        heads=heads)


class TestNodeToHyperedge:
    def test_zero_nodes_zero_output(self, float64_mode):
        rng = np.random.default_rng(0)
        p = make_params(3, 8, 2, rng)
        out = to_hyperedges(np.zeros((5, 8)), p)
        assert not out.value.any()

    def test_single_node_identity_maps(self, float64_mode):
        # one head, identity transforms: z = e * (e . q)
        rng = np.random.default_rng(1)
        e = rng.normal(size=(1, 6))
        q = rng.normal(size=(1, 6))
        p = T.HyperSideParams(z=ad.constant(q), k_map=ad.constant(np.eye(6)),
                              v_map=ad.constant(np.eye(6)),
                              h1=ad.constant(np.zeros((1, 1))), h2=None, heads=1)
        out = to_hyperedges(e, p)
        np.testing.assert_allclose(out.value, e * (e @ q.T).item(), rtol=1e-12)

    def test_matches_double_loop(self, float64_mode):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = make_params(3, 8, 2, rng)
            nodes = rng.normal(size=(7, 8))
            out = to_hyperedges(nodes, p)
            oracle = node_to_hyperedge_loops(
                nodes, p.z.value, p.k_map.value, p.v_map.value, p.heads)
            np.testing.assert_allclose(out.value, oracle, atol=1e-5)

    def test_homogeneity_degree_two(self, float64_mode):
        # keys and values are both linear in the nodes
        rng = np.random.default_rng(9)
        p = make_params(4, 8, 4, rng)
        nodes = rng.normal(size=(6, 8))
        base = to_hyperedges(nodes, p)
        scaled = to_hyperedges(3.0 * nodes, p)
        np.testing.assert_allclose(scaled.value, 9.0 * base.value, rtol=1e-9)

    def test_keys_equal_transform_product(self, float64_mode):
        # the transposed maps turn node rows into their keys and values
        rng = np.random.default_rng(2)
        p = make_params(3, 8, 2, rng)
        nodes = rng.normal(size=(4, 8))
        key_map, val_map = T.transposed_maps(p)
        keys = ad.matmul(ad.constant(nodes), key_map)
        vals = ad.matmul(ad.constant(nodes), val_map)
        np.testing.assert_allclose(keys.value, nodes @ p.k_map.value.T, rtol=1e-12)
        np.testing.assert_allclose(vals.value, nodes @ p.v_map.value.T, rtol=1e-12)


    def test_float32_gram_form_at_4000_rows(self, tmp_path):
        # the Gram matrix sums 4000 products per entry in float32: the
        # summary of the benchmark's 4000 x 2000 initial fused user table
        # stays within 1e-5 of the largest entry of a float64 key-value
        # evaluation (2.1e-7 measured; 1.0e-7 with N x d key and value
        # tables)
        path = str(tmp_path / "interactions.tsv")
        D.write_interactions(path, D.synthetic_blocks(4000, 2000, seed=0))
        splits = D.split(D.load_interactions(path), 0)
        adj = D.build_normalized_adjacency(splits.train)
        model = Model(Config(hyperedges=16, seed=0), splits.num_users,
                      splits.num_items)
        embed = [model.params[f"{side}.embed"] for side in ("user", "item")]
        fused, _ = encoder.fuse_inputs(*embed, *encoder.topo_embed(*embed, adj))
        p = model.hyper["user"]
        got = T.node_to_hyperedge(fused, p, T.transposed_maps(p)).value

        x, z, k_map, v_map = (t.value.astype(np.float64)
                              for t in (fused, p.z, p.k_map, p.v_map))
        want = ad.linear_attention_value(z, x @ k_map.T, x @ v_map.T,
                                         p.heads)[0]
        assert got.dtype == np.float32 and x.shape == (4000, 32)
        error = np.abs(got - want).max() / np.abs(want).max()
        assert error <= 1e-5, error


class TestHHGN:
    def test_zero_mixing_is_double_activation(self, float64_mode):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 6))
        p = T.HyperSideParams(z=None, k_map=None, v_map=None,
                              h1=ad.constant(np.zeros((4, 4))),
                              h2=ad.constant(np.zeros((4, 4))), heads=1)
        out = T.hhgn(ad.constant(z), p, slope=0.5)
        leak = lambda x: np.where(x > 0, x, 0.5 * x)
        np.testing.assert_allclose(out.value, leak(leak(z)), rtol=1e-12)

    def test_zero_input_zero_output(self, float64_mode):
        rng = np.random.default_rng(4)
        p = make_params(4, 8, 2, rng)
        out = T.hhgn(ad.constant(np.zeros((4, 8))), p, 0.5)
        assert not out.value.any()

    def test_negative_identity_cancels(self, float64_mode):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 5))
        p = T.HyperSideParams(z=None, k_map=None, v_map=None,
                              h1=ad.constant(-np.eye(3)), h2=None, heads=1)
        out = T.hhgn(ad.constant(z), p, 0.5)
        assert not out.value.any()

    def test_single_step_mode(self, float64_mode):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 6))
        deep = make_params(4, 6, 2, rng, deep=True)
        shallow = T.HyperSideParams(z=None, k_map=None, v_map=None,
                                    h1=deep.h1, h2=None, heads=2)
        one = T.hhgn(ad.constant(z), shallow, 0.5)
        leak = lambda x: np.where(x > 0, x, 0.5 * x)
        np.testing.assert_allclose(one.value, leak(deep.h1.value @ z + z), rtol=1e-12)


class TestHyperedgeToNode:
    def test_zero_features_zero_output(self, float64_mode):
        rng = np.random.default_rng(7)
        p = make_params(3, 8, 2, rng)
        nodes = rng.normal(size=(5, 8))
        out = to_nodes(np.zeros((3, 8)), nodes, p)
        assert not out.value.any()

    def test_linear_in_values(self, float64_mode):
        rng = np.random.default_rng(8)
        p = make_params(3, 8, 2, rng)
        nodes = rng.normal(size=(5, 8))
        z_hat = rng.normal(size=(3, 8))
        base = to_nodes(z_hat, nodes, p)
        scaled = to_nodes(2.5 * z_hat, nodes, p)
        np.testing.assert_allclose(scaled.value, 2.5 * base.value, rtol=1e-10)

    def test_matches_double_loop(self, float64_mode):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            p = make_params(4, 8, 2, rng)
            nodes = rng.normal(size=(6, 8))
            z_hat = rng.normal(size=(4, 8))
            out = to_nodes(z_hat, nodes, p)
            oracle = hyperedge_to_node_loops(
                z_hat, nodes @ p.k_map.value.T, p.z.value, p.v_map.value,
                p.heads)
            np.testing.assert_allclose(out.value, oracle, atol=1e-5)


class TestForward:
    def run_layers(self, nodes, p, n, slope=0.5):
        tail = T.forward(ad.constant(nodes), p, n, slope)
        return (T.readout(tail, np.arange(len(nodes))).value,
                tail.first_edges.value)

    def test_one_layer_is_single_output(self, float64_mode):
        rng = np.random.default_rng(10)
        p = make_params(3, 8, 2, rng)
        nodes = rng.normal(size=(5, 8)) * 0.5
        total, _ = self.run_layers(nodes, p, 1)
        z_hat = T.hhgn(to_hyperedges(nodes, p), p, 0.5)
        single = to_nodes(z_hat.value, nodes, p)
        np.testing.assert_allclose(total, single.value, rtol=1e-12)

    def test_three_layers_scripted_oracle(self, float64_mode):
        rng = np.random.default_rng(12)
        p = make_params(3, 8, 2, rng)
        nodes = rng.normal(size=(5, 8)) * 0.3
        total, edges = self.run_layers(nodes, p, 3)

        current, acc = nodes, np.zeros_like(nodes)
        leak = lambda x: np.where(x > 0, x, 0.5 * x)
        for step in range(3):
            z_t = node_to_hyperedge_loops(
                current, p.z.value, p.k_map.value, p.v_map.value, p.heads)
            z_h = leak(p.h2.value @ leak(p.h1.value @ z_t + z_t)
                       + leak(p.h1.value @ z_t + z_t))
            k_mat = current @ p.k_map.value.T
            out = hyperedge_to_node_loops(z_h, k_mat, p.z.value,
                                          p.v_map.value, p.heads)
            if step == 0:
                np.testing.assert_allclose(edges, z_t, atol=1e-8)
            acc += out
            current = out
        np.testing.assert_allclose(total, acc, atol=1e-5)

    def test_layer_count_precondition(self, float64_mode):
        rng = np.random.default_rng(13)
        p = make_params(3, 8, 2, rng)
        with pytest.raises(ValueError, match="layer"):
            T.forward(ad.constant(np.zeros((4, 8))), p, 0, 0.5)

    def test_node_permutation_equivariance(self, float64_mode):
        rng = np.random.default_rng(14)
        p = make_params(4, 8, 2, rng)
        nodes = rng.normal(size=(6, 8)) * 0.5
        perm = rng.permutation(6)
        base, _ = self.run_layers(nodes, p, 2)
        permuted, _ = self.run_layers(nodes[perm], p, 2)
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-9)

    def test_hyperedge_permutation_invariance(self, float64_mode):
        rng = np.random.default_rng(15)
        p = make_params(5, 8, 2, rng)
        nodes = rng.normal(size=(6, 8)) * 0.5
        perm = rng.permutation(5)
        p2 = T.HyperSideParams(
            z=ad.constant(p.z.value[perm]), k_map=p.k_map, v_map=p.v_map,
            h1=ad.constant(p.h1.value[np.ix_(perm, perm)]),
            h2=ad.constant(p.h2.value[np.ix_(perm, perm)]), heads=2)
        base, _ = self.run_layers(nodes, p, 2)
        shuffled, _ = self.run_layers(nodes, p2, 2)
        np.testing.assert_allclose(shuffled, base, rtol=1e-9)

    def test_grad_check_through_layer(self, float64_mode):
        rng = np.random.default_rng(16)
        p = make_params(3, 4, 2, rng)
        nodes = ad.constant(rng.normal(size=(4, 4)) * 0.5)
        params = {"nodes": nodes, "z": p.z, "k_map": p.k_map,
                  "v_map": p.v_map, "h1": p.h1, "h2": p.h2}

        def build():
            total = T.readout(T.forward(nodes, p, 2, 0.5), np.arange(4))
            return ad.sum_all(ad.sigmoid(total))

        report = ad.grad_check(build, params, epsilon=1e-4)
        assert report.passed, str(report)


class TestBench:
    def test_small_outputs_agree(self):
        report = T.bench_factorization(7, 3, 8, 2, repeats=1, check_rows=3)
        assert report["max_abs_diff"] < 1e-3
        assert set(report) == {"I", "K", "d", "H", "naive_ms",
                               "factorized_ms", "max_abs_diff"}

    def test_degenerate_single_hyperedge_runs(self):
        report = T.bench_factorization(64, 1, 8, 1, repeats=1)
        assert report["naive_ms"] > 0 and report["factorized_ms"] > 0
