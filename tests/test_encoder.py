"""Topology embeddings: GCN formula, locality, linearity, fusion."""

import numpy as np
import pytest
import scipy.sparse as sp

from hypercf import autodiff as ad
from hypercf import data as D
from hypercf import encoder


def dense_oracle(adj_dense, e_u, e_v):
    a = adj_dense
    topo_u = a @ a.T @ e_u + a @ e_v
    topo_v = a.T @ a @ e_v + a.T @ e_u
    return topo_u, topo_v


def make_graph(edges, num_users, num_items):
    ds = D.InteractionDataset.from_edges(edges, num_users, num_items)
    return D.build_normalized_adjacency(ds, dtype=np.float64)


class TestTopoEmbed:
    def test_zero_embeddings_zero_output(self, float64_mode):
        adj = make_graph([(0, 0), (1, 1), (0, 1)], 2, 2)
        t_u, t_v = encoder.topo_embed(ad.constant(np.zeros((2, 3))),
                                      ad.constant(np.zeros((2, 3))), adj)
        assert not t_u.value.any() and not t_v.value.any()

    def test_single_edge_passes_item_through(self, float64_mode):
        # one user, one item, weight 1: user topo row equals the item vector
        adj = make_graph([(0, 0)], 1, 1)
        x = np.array([[1.5, -2.0, 0.25]])
        t_u, _ = encoder.topo_embed(ad.constant(np.zeros((1, 3))),
                                    ad.constant(x), adj)
        np.testing.assert_allclose(t_u.value, x)

    def test_symmetric_users_identical_rows(self, float64_mode):
        # users 0 and 1 share the exact same neighborhood {0, 1}
        adj = make_graph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], 3, 3)
        rng = np.random.default_rng(0)
        e_u = rng.normal(size=(3, 4))
        e_u[1] = e_u[0]
        e_v = rng.normal(size=(3, 4))
        t_u, _ = encoder.topo_embed(ad.constant(e_u), ad.constant(e_v), adj)
        np.testing.assert_allclose(t_u.value[0], t_u.value[1], rtol=1e-12)

    def test_linearity_in_embeddings(self, float64_mode):
        adj = make_graph([(0, 0), (1, 0), (1, 1), (2, 1)], 3, 2)
        rng = np.random.default_rng(1)
        e_u, e_v = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        alpha = 2.5
        base_u, base_v = encoder.topo_embed(ad.constant(e_u), ad.constant(e_v), adj)
        scaled_u, scaled_v = encoder.topo_embed(
            ad.constant(alpha * e_u), ad.constant(alpha * e_v), adj)
        np.testing.assert_allclose(scaled_u.value, alpha * base_u.value, rtol=1e-10)
        np.testing.assert_allclose(scaled_v.value, alpha * base_v.value, rtol=1e-10)

    def test_two_hop_locality(self, float64_mode):
        # path u0 - i0 - u1 - i1 - u2: perturbing u2 (4 hops from u0)
        # cannot change u0's topology embedding
        adj = make_graph([(0, 0), (1, 0), (1, 1), (2, 1)], 3, 2)
        rng = np.random.default_rng(2)
        e_u, e_v = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        base, _ = encoder.topo_embed(ad.constant(e_u), ad.constant(e_v), adj)
        e_u2 = e_u.copy()
        e_u2[2] += 10.0
        pert, _ = encoder.topo_embed(ad.constant(e_u2), ad.constant(e_v), adj)
        np.testing.assert_allclose(pert.value[0], base.value[0], rtol=1e-12)
        assert not np.allclose(pert.value[1], base.value[1])

    def test_dense_oracle_small_graphs(self, float64_mode):
        rng = np.random.default_rng(3)
        for trial in range(5):
            num_u, num_v = rng.integers(3, 15), rng.integers(3, 15)
            edges = {(int(rng.integers(0, num_u)), int(rng.integers(0, num_v)))
                     for _ in range(num_u * 2)}
            ds = D.InteractionDataset.from_edges(sorted(edges), num_u, num_v)
            adj = D.build_normalized_adjacency(ds, dtype=np.float64)
            e_u = rng.normal(size=(num_u, 6))
            e_v = rng.normal(size=(num_v, 6))
            t_u, t_v = encoder.topo_embed(ad.constant(e_u), ad.constant(e_v), adj)
            m = adj.matrix
            dense = sp.csr_matrix((m.data, m.indices, m.indptr),
                                  shape=m.shape).toarray()
            o_u, o_v = dense_oracle(dense, e_u, e_v)
            np.testing.assert_allclose(t_u.value, o_u, atol=1e-6)
            np.testing.assert_allclose(t_v.value, o_v, atol=1e-6)

    def test_isolated_nodes_get_zero(self, float64_mode):
        adj = make_graph([(0, 0)], 2, 2)  # user 1 and item 1 isolated
        rng = np.random.default_rng(4)
        t_u, t_v = encoder.topo_embed(ad.constant(rng.normal(size=(2, 3))),
                                      ad.constant(rng.normal(size=(2, 3))), adj)
        assert not t_u.value[1].any() and not t_v.value[1].any()

    def test_shape_mismatch(self, float64_mode):
        adj = make_graph([(0, 0)], 1, 1)
        with pytest.raises(ad.ShapeMismatchError, match="topo_embed"):
            encoder.topo_embed(ad.constant(np.zeros((2, 3))),
                               ad.constant(np.zeros((1, 3))), adj)
        with pytest.raises(ad.ShapeMismatchError, match="widths"):
            encoder.topo_embed(ad.constant(np.zeros((1, 3))),
                               ad.constant(np.zeros((1, 4))), adj)

    def test_grad_check_through_gcn(self, float64_mode):
        adj = make_graph([(0, 0), (1, 0), (1, 1), (2, 1)], 3, 2)
        rng = np.random.default_rng(5)
        e_u = ad.constant(rng.normal(size=(3, 4)))
        e_v = ad.constant(rng.normal(size=(2, 4)))

        def build():
            t_u, t_v = encoder.topo_embed(e_u, e_v, adj)
            f_u, f_v = encoder.fuse_inputs(e_u, e_v, t_u, t_v)
            return ad.add(ad.sum_all(ad.sigmoid(f_u)),
                          ad.sum_all(ad.sigmoid(f_v)))

        report = ad.grad_check(build, {"e_u": e_u, "e_v": e_v}, epsilon=1e-4)
        assert report.passed, str(report)


class TestFuse:
    def test_zero_topology_identity(self):
        e = ad.constant(np.arange(6.0).reshape(2, 3))
        z = ad.constant(np.zeros((2, 3)))
        f_u, f_v = encoder.fuse_inputs(e, e, z, z)
        np.testing.assert_array_equal(f_u.value, e.value)
        np.testing.assert_array_equal(f_v.value, e.value)

    def test_fuse_minus_topo_is_id(self):
        rng = np.random.default_rng(6)
        e = ad.constant(rng.normal(size=(3, 4)).astype(np.float32))
        t = ad.constant(rng.normal(size=(3, 4)).astype(np.float32))
        f, _ = encoder.fuse_inputs(e, e, t, t)
        np.testing.assert_allclose(f.value - t.value, e.value, rtol=1e-6)

    def test_loop_oracle(self):
        rng = np.random.default_rng(7)
        e = rng.normal(size=(3, 4)).astype(np.float32)
        t = rng.normal(size=(3, 4)).astype(np.float32)
        f, _ = encoder.fuse_inputs(ad.constant(e), ad.constant(e),
                                   ad.constant(t), ad.constant(t))
        for i in range(3):
            for j in range(4):
                assert f.value[i, j] == e[i, j] + t[i, j]
