"""Graph-convolution layers against a dense-matrix oracle."""

import numpy as np
import pytest

from sebrange.datagen import GeneratorConfig, generate
from sebrange.errors import ShapeError
from sebrange.gnn import GcnLayer, NodeFeatureTable, build_layers, gcn_layer_forward, gnn_encode
from sebrange.gradcheck import grad_check, grad_check_params
from sebrange.graph import TemporalGraph
from sebrange.optim import Param
from sebrange.rng import Rng
from sebrange.tensor import Tensor, gather_rows, mul, sum_
from test_graph import random_temporal


def dense_reference(h, g, w, b, activation, t=0, window=0):
    """sigma(D^-1 A h W + h B) over the snapshots t - window .. t, with
    0^-1 := 0, built from dense matrices. A pair that swaps again in the
    window sets the same entry of A, so only its first occurrence counts."""
    n = g.n_nodes
    a = np.zeros((n, n))
    edges = g.columns()
    in_window = (edges.t >= t - window) & (edges.t <= t)
    for u, bt in zip(edges.user[in_window], edges.battery[in_window]):
        i, j = u, g.n_users + bt
        a[i, j] = a[j, i] = 1.0
    deg = a.sum(axis=1)
    d_inv = np.diag(np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0))
    out = d_inv @ a @ h @ w + h @ b
    return np.maximum(out, 0.0) if activation == "relu" else out


def random_bipartite(r, max_nodes=8):
    n_users = int(r.integers(max_nodes // 2)) + 1
    n_batteries = int(r.integers(max_nodes // 2)) + 1
    g = TemporalGraph(n_users, n_batteries, 1)
    seen = set()
    for _ in range(int(r.integers(2 * max_nodes))):
        u, b = int(r.integers(n_users)), int(r.integers(n_batteries))
        if (u, b) in seen:
            continue
        seen.add((u, b))
        g.add_edges([0], [u], [b], [0])
    return g


def encode_all(layers, g, h0, t, window=0):
    """gnn_encode over every node row of g, reading input rows from h0."""
    return gnn_encode(layers, g, lambda idx: gather_rows(h0, idx), t,
                      np.arange(g.n_nodes), window)


def identity_layer(d):
    return GcnLayer(Param(np.eye(d)), Param(np.eye(d)), "identity")


class TestGcnLayer:
    def test_isolated_node_self_term_only(self):
        g = TemporalGraph(1, 1, 1)  # no edges at all
        r = Rng(2)
        h = r.normal(size=(2, 3))
        b = r.normal(size=(3, 3))
        layer = GcnLayer(Param(r.normal(size=(3, 3))), Param(b), "identity")
        out = gcn_layer_forward(layer, Tensor(h), g, 0)
        assert np.abs(out.array - h @ b).max() < 1e-14

    def test_single_edge_identity_weights(self):
        g = TemporalGraph(1, 1, 1)
        g.add_edges([0], [0], [0], [0])
        h = np.array([[1.0, 2.0], [10.0, 20.0]])
        out = gcn_layer_forward(identity_layer(2), Tensor(h), g, 0)
        # each endpoint's mean neighborhood is exactly the other row
        assert np.array_equal(out.array, [[11.0, 22.0], [11.0, 22.0]])

    def test_dense_oracle_50_random_graphs(self):
        r = Rng(7)
        for i in range(50):
            rr = r.spawn(i)
            g = random_bipartite(rr)
            d_in, d_out = int(rr.integers(3)) + 1, int(rr.integers(3)) + 1
            h = rr.normal(size=(g.n_nodes, d_in))
            act = "relu" if i % 2 == 0 else "identity"
            layer = GcnLayer(Param(rr.normal(size=(d_in, d_out))),
                             Param(rr.normal(size=(d_in, d_out))), act)
            got = gcn_layer_forward(layer, Tensor(h), g, 0).array
            ref = dense_reference(h, g, layer.w.value, layer.b.value, act)
            assert np.abs(got - ref).max() <= 1e-10

    @pytest.mark.parametrize("window", [0, 2])
    def test_dense_oracle_two_layers_recurring_pairs(self, window):
        recurring = 0
        for seed in range(10):
            g, edges = random_temporal(seed)
            r = Rng(100 + seed)
            layers = build_layers(r, [3, 4, 2])
            h0 = r.normal(size=(g.n_nodes, 3))
            for t in range(g.horizon):
                got = encode_all(layers, g, h0, t, window).array
                ref = h0
                for layer in layers:
                    ref = dense_reference(ref, g, layer.w.value, layer.b.value,
                                          layer.activation, t, window)
                assert np.abs(got - ref).max() <= 1e-10
                pairs = [(u, b) for te, u, b in edges if t - window <= te <= t]
                recurring += len(pairs) - len(set(pairs))
        # The windowed cases merge pairs that swap again.
        assert (recurring > 0) == (window > 0)

    def test_row_count_mismatch(self):
        g = TemporalGraph(2, 2, 1)
        layer = identity_layer(3)
        with pytest.raises(ShapeError):
            gcn_layer_forward(layer, Tensor(np.ones((3, 3))), g, 0)

    def test_gradient_through_layer(self):
        r = Rng(9)
        g = random_bipartite(r)
        layer = GcnLayer.init(r, 3, 3, "relu")
        c = r.normal(size=(g.n_nodes, 3))
        err = grad_check(
            lambda t: sum_(mul(gcn_layer_forward(layer, t, g, 0), c)),
            r.normal(size=(g.n_nodes, 3)))
        assert err <= 1e-4

    def test_locality_bit_for_bit(self):
        g = TemporalGraph(3, 2, 1)
        g.add_edges([0], [0], [0], [0])
        r = Rng(11)
        layer = GcnLayer.init(r, 3, 2, "relu")
        h = r.normal(size=(5, 3))
        base = gcn_layer_forward(layer, Tensor(h), g, 0).array
        h2 = h.copy()
        h2[2] += 100.0  # user 2 is not a neighbor of user 0 or battery 0
        pert = gcn_layer_forward(layer, Tensor(h2), g, 0).array
        assert np.array_equal(base[0], pert[0])
        assert np.array_equal(base[3], pert[3])

    def test_permutation_consistency(self):
        r = Rng(13)
        for i in range(10):
            rr = r.spawn(i)
            g = random_bipartite(rr)
            nu, nb = g.n_users, g.n_batteries
            layer = GcnLayer.init(rr, 3, 3, "relu")
            h = rr.normal(size=(nu + nb, 3))
            base = gcn_layer_forward(layer, Tensor(h), g, 0).array
            pu = rr.permutation(nu)  # pu[old] = new index
            pb = rr.permutation(nb)
            g2 = TemporalGraph(nu, nb, 1)
            edges = g.columns()
            g2.add_edges(edges.t, pu[edges.user], pb[edges.battery], edges.station)
            h2 = np.empty_like(h)
            h2[pu] = h[:nu]
            h2[nu + pb] = h[nu:]
            out2 = gcn_layer_forward(layer, Tensor(h2), g2, 0).array
            expected = np.empty_like(base)
            expected[pu] = base[:nu]
            expected[nu + pb] = base[nu:]
            assert np.abs(out2 - expected).max() <= 1e-12


class TestGnnEncode:
    def test_zero_layers_identity(self):
        g = TemporalGraph(2, 2, 1)
        h0 = Rng(1).normal(size=(4, 3))
        out = encode_all([], g, h0, 0)
        assert np.array_equal(out.array, h0)

    def test_empty_snapshot_one_identity_layer(self):
        g = TemporalGraph(2, 2, 2)
        r = Rng(3)
        h0 = r.normal(size=(4, 3))
        b = r.normal(size=(3, 2))
        layer = GcnLayer(Param(r.normal(size=(3, 2))), Param(b), "identity")
        out = encode_all([layer], g, h0, 1)
        assert np.abs(out.array - h0 @ b).max() < 1e-14

    def test_two_layers_equals_manual_composition(self):
        g = TemporalGraph(2, 2, 1)
        # path-like: u0-b0, b0-u1, u1-b1
        g.add_edges([0, 0, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0])
        r = Rng(5)
        layers = build_layers(r, [3, 3, 2])
        h0 = r.normal(size=(4, 3))
        got = encode_all(layers, g, h0, 0).array
        step1 = gcn_layer_forward(layers[0], Tensor(h0), g, 0)
        step2 = gcn_layer_forward(layers[1], step1, g, 0)
        assert np.array_equal(got, step2.array)

    def test_dim_chain_validation(self):
        g = TemporalGraph(2, 2, 1)
        r = Rng(6)
        bad = [GcnLayer.init(r, 3, 3), GcnLayer.init(r, 4, 2)]
        with pytest.raises(ShapeError):
            encode_all(bad, g, np.ones((4, 3)), 0)

    def test_windowed_encode_uses_merged_edges(self):
        g = TemporalGraph(1, 1, 2)
        g.add_edges([0], [0], [0], [0])
        h0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        layer = identity_layer(2)
        lonely = encode_all([layer], g, h0, 1, window=0).array
        merged = encode_all([layer], g, h0, 1, window=1).array
        assert np.array_equal(lonely, h0)          # snapshot 1 has no edges
        assert np.array_equal(merged, h0 + h0[::-1])


# A fleet large enough that a batch's receptive field is a small part of it.
FLEET_GEN = GeneratorConfig(n_orders=300, n_users=2000, n_batteries=600,
                            n_stations=8, horizon=10, seed=5)


@pytest.fixture(scope="module")
def fleet():
    orders, g = generate(FLEET_GEN)
    buckets = {}
    for o in orders:
        buckets.setdefault(o.t, []).append(o)
    targets = {
        t: np.unique([g.node_row(o.battery) for o in bucket]
                     + [g.node_row(o.user) for o in bucket])
        for t, bucket in buckets.items()
    }
    return g, targets


def fleet_encoder(g, seed=17):
    r = Rng(seed)
    return build_layers(r, [8, 8, 8]), NodeFeatureTable(r, g.n_users, g.n_batteries, 8)


class TestReceptiveField:
    @pytest.mark.parametrize("window", [0, 4])
    def test_rows_bit_identical_to_full_graph(self, fleet, window):
        g, targets = fleet
        layers, table = fleet_encoder(g)
        assert g.n_users >= 2000
        for t, rows in targets.items():
            full = table.rows(np.arange(g.n_nodes))
            for layer in layers:
                full = gcn_layer_forward(layer, full, g, t, window)
            got = gnn_encode(layers, g, table.rows, t, rows, window)
            assert got.shape[0] == rows.size
            assert np.array_equal(got.array, full.array[rows])

    @pytest.mark.parametrize("window", [0, 4])
    def test_param_gradients_match_full_graph(self, fleet, window):
        g, targets = fleet
        layers, table = fleet_encoder(g)
        params = table.params() + [p for layer in layers for p in layer.params()]
        t = sorted(targets)[3]
        rows = targets[t]
        c = Rng(19).normal(size=(rows.size, 8))

        def grads(out):
            for p in params:
                p.zero_grad()
            sum_(mul(out, c)).backward()
            return [p.grad.copy() for p in params]

        local = grads(gnn_encode(layers, g, table.rows, t, rows, window))
        everything = gnn_encode(layers, g, table.rows, t, np.arange(g.n_nodes), window)
        full = grads(gather_rows(everything, rows))
        for a, b in zip(local, full):
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)

    def test_isolated_target_is_self_term(self):
        g = TemporalGraph(3, 2, 2)
        g.add_edges([1], [0], [0], [0])
        r = Rng(23)
        table = NodeFeatureTable(r, 3, 2, 3)
        b = r.normal(size=(3, 3))
        layer = GcnLayer(Param(r.normal(size=(3, 3))), Param(b), "relu")
        rows = np.array([1, 4])  # user 1 and battery 1 have no edge at t=1
        got = gnn_encode([layer], g, table.rows, 1, rows).array
        h0 = table.rows(np.arange(g.n_nodes)).array
        assert np.array_equal(got, np.maximum(h0[rows] @ b, 0.0))
        full = gcn_layer_forward(layer, table.rows(np.arange(g.n_nodes)), g, 1).array
        assert np.array_equal(got, full[rows])

    def test_repeated_and_unordered_targets(self, fleet):
        g, targets = fleet
        layers, table = fleet_encoder(g)
        t = sorted(targets)[5]
        rows = targets[t]
        expect = gnn_encode(layers, g, table.rows, t, rows, 4).array
        picks = np.array([3, 0, 3, 1, 0])
        got = gnn_encode(layers, g, table.rows, t, rows[picks], 4).array
        assert np.array_equal(got, expect[picks])

    def test_sees_edge_added_after_lookup(self):
        g = TemporalGraph(2, 2, 2)
        g.add_edges([0], [0], [0], [0])
        h0 = np.arange(8.0).reshape(4, 2)
        layer = identity_layer(2)
        before = encode_all([layer], g, h0, 1, window=1).array
        g.add_edges([1], [1], [1], [0])
        after = encode_all([layer], g, h0, 1, window=1).array
        full = gcn_layer_forward(layer, Tensor(h0), g, 1, 1).array
        assert not np.array_equal(before, after)
        assert np.array_equal(after, full)


class TestNodeFeatureRows:
    def test_rows_match_build_in_any_order(self):
        table = NodeFeatureTable(Rng(29), n_users=4, n_batteries=3, dim=2)
        idx = np.array([5, 0, 6, 6, 2, 4])
        full = table.rows(np.arange(7)).array
        assert np.array_equal(table.rows(idx).array, full[idx])
        assert np.array_equal(full[:4], np.tile(table.user_vec.value, (4, 1)))
        assert np.array_equal(full[4:], table.battery_bias.value + table.battery_vec.value)

    def test_rows_gradient(self):
        r = Rng(31)
        table = NodeFeatureTable(r, n_users=4, n_batteries=3, dim=2)
        idx = np.array([5, 0, 6, 6, 2])
        c = r.normal(size=(5, 2))
        err = grad_check_params(lambda: sum_(mul(table.rows(idx), c)),
                                table.params())
        assert err <= 1e-6


def test_node_feature_table_layout():
    r = Rng(8)
    table = NodeFeatureTable(r, n_users=3, n_batteries=2, dim=4)
    h0 = table.rows(np.arange(5)).array
    assert h0.shape == (5, 4)
    # all user rows share the user vector
    assert np.array_equal(h0[0], table.user_vec.value)
    assert np.array_equal(h0[1], h0[0])
    # battery rows are kind vector plus per-battery bias
    expect = table.battery_vec.value + table.battery_bias.value
    assert np.array_equal(h0[3:], expect)
