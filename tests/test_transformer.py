"""Hypergraph transformer: attention factorization, mixing, stacking."""

from dataclasses import fields

import numpy as np
import pytest

from hypercf import autodiff as ad
from hypercf import data as D
from hypercf import encoder
from hypercf import transformer as T
from hypercf.config import Config
from hypercf.model import Model
from hypercf.rng import STREAM_INIT, spawn_rng


def head_slices(d, heads):
    """Column ranges [(h-1)*d/H, h*d/H) covering each attention head."""
    step = d // heads
    return [(h * step, (h + 1) * step) for h in range(heads)]


def node_to_hyperedge_loops(nodes, z, k_map, v_map, heads):
    """Per-(hyperedge, node) double loop, the definitional oracle."""
    n, d = nodes.shape
    num_k = z.shape[0]
    keys = nodes @ k_map.T
    vals = nodes @ v_map.T
    out = np.zeros((num_k, d))
    for lo, hi in head_slices(d, heads):
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
    for lo, hi in head_slices(d, heads):
        for i in range(n):
            q = keys[i, lo:hi]
            for k in range(num_k):
                out[i, lo:hi] += vals[k, lo:hi] * float(z[k, lo:hi] @ q)
    return out


def to_hyperedges(nodes, p):
    return T.node_to_hyperedge(ad.constant(nodes), p)


def to_nodes(z_hat, nodes, p):
    """A layer's output on ``nodes``: the nodes times the map of ``z_hat``."""
    return ad.matmul(ad.constant(nodes), T.hyperedge_to_node(
        ad.constant(z_hat), p))


def paper_maps(p):
    """The key and value transforms in the paper's W @ e orientation, as
    the loop oracles take them: the program stores their transposes."""
    return p.k_map.value.T, p.v_map.value.T


def make_params(num_k, d, heads, rng, deep=True):
    # the maps are drawn as the paper's W and handed over as right factors
    return T.HyperSideParams(
        z=ad.constant(rng.normal(size=(num_k, d))),
        k_map=ad.constant(rng.normal(size=(d, d)).T),
        v_map=ad.constant(rng.normal(size=(d, d)).T),
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
                nodes, p.z.value, *paper_maps(p), p.heads)
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
        # the model draws each map as the paper's W, applied as W @ e, and
        # stores its right factor: a node row times k_map is its key W @ e
        model = Model(Config(d=8, hyperedges=3, heads=2, seed=2), 5, 4)
        rng = spawn_rng(2, STREAM_INIT)
        for shape in ((5, 8), (4, 8), (3, 8)):  # the embeddings, then Z
            rng.normal(size=shape)
        w_key, w_val = (rng.normal(0.0, 1.0 / np.sqrt(8), size=(8, 8))
                        for _ in range(2))
        p = model.hyper["user"]
        np.testing.assert_array_equal(p.k_map.value, w_key.T)
        np.testing.assert_array_equal(p.v_map.value, w_val.T)
        nodes = rng.normal(size=(4, 8))
        keys = ad.matmul(ad.constant(nodes), p.k_map)
        vals = ad.matmul(ad.constant(nodes), p.v_map)
        np.testing.assert_allclose(keys.value, (w_key @ nodes.T).T, rtol=1e-12)
        np.testing.assert_allclose(vals.value, (w_val @ nodes.T).T, rtol=1e-12)


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
        got = T.node_to_hyperedge(fused, p).value

        x, z = (t.value.astype(np.float64) for t in (fused, p.z))
        k_map, v_map = (w.astype(np.float64) for w in paper_maps(p))
        want = ad.linear_attention(
            *(ad.constant(a, dtype=np.float64)
              for a in (z, x @ k_map.T, x @ v_map.T)), p.heads).value
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
            k_map, v_map = paper_maps(p)
            oracle = hyperedge_to_node_loops(
                z_hat, nodes @ k_map.T, p.z.value, v_map, p.heads)
            np.testing.assert_allclose(out.value, oracle, atol=1e-5)


class TestForward:
    def run_layers(self, nodes, p, n, slope=0.5):
        tail = T.forward(ad.constant(nodes), p, n, slope)
        assert tail.edges is p.z  # the label branch summarizes Z
        return (T.readout(tail, np.arange(len(nodes))).value,
                T.node_to_hyperedge(ad.constant(nodes), p).value)

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
        k_map, v_map = paper_maps(p)
        for step in range(3):
            z_t = node_to_hyperedge_loops(
                current, p.z.value, k_map, v_map, p.heads)
            z_h = leak(p.h2.value @ leak(p.h1.value @ z_t + z_t)
                       + leak(p.h1.value @ z_t + z_t))
            k_mat = current @ k_map.T
            out = hyperedge_to_node_loops(z_h, k_mat, p.z.value,
                                          v_map, p.heads)
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

    def test_no_transformer_reads_the_fused_rows(self, float64_mode):
        # the graph-only ablation: no transformer parameters, no mask draw
        nodes = ad.constant(np.random.default_rng(17).normal(size=(5, 8)))
        p = T.HyperSideParams(z=None, k_map=None, v_map=None, h1=None,
                              h2=None, heads=2)
        drawn = []
        with ad.recording():
            tail = T.forward(nodes, p, 2, 0.5, dropout_mask=drawn.append)
            assert ad.tape_size() == 0
            out = T.readout(tail, np.array([3, 0, 3]))
            assert ad.tape_size() == 1
        assert drawn == [] and tail.fused is nodes
        assert all(getattr(tail, f.name) is None
                   for f in fields(T.Tail) if f.name != "fused")
        assert out.op == "gather_rows"
        np.testing.assert_array_equal(out.value, nodes.value[[3, 0, 3]])

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

