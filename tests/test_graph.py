"""Temporal bipartite graph contracts and file round trips."""

import numpy as np
import pytest

from sebrange.errors import BipartiteViolation, DuplicateEdgeError, ParseError, VersionError
from sebrange.graph import (
    NodeKind,
    NodeRef,
    SwapEdge,
    TemporalGraph,
    battery,
    load_graph,
    save_graph,
    user,
)
from sebrange.rng import Rng


def small_graph():
    return TemporalGraph(n_users=3, n_batteries=2, horizon=4)


class TestAddEdge:
    def test_single_edge_neighbors(self):
        g = small_graph()
        g.add_edge(SwapEdge(user(0), battery(0), 0, station=5))
        assert g.neighbors(battery(0), 0) == (user(0),)
        assert g.neighbors(user(0), 0) == (battery(0),)

    def test_same_kind_is_bipartite_violation(self):
        g = small_graph()
        with pytest.raises(BipartiteViolation):
            g.add_edge(SwapEdge(user(0), user(1), 0))

    def test_out_of_range_index(self):
        g = small_graph()
        with pytest.raises(IndexError):
            g.add_edge(SwapEdge(user(99), battery(0), 0))
        with pytest.raises(IndexError):
            g.add_edge(SwapEdge(user(0), battery(0), 99))

    def test_duplicate_same_timestep_rejected(self):
        g = small_graph()
        g.add_edge(SwapEdge(user(0), battery(0), 0))
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(SwapEdge(user(0), battery(0), 0, station=9))

    def test_same_pair_distinct_timesteps_ok(self):
        g = small_graph()
        g.add_edge(SwapEdge(user(0), battery(0), 0))
        g.add_edge(SwapEdge(user(1), battery(0), 1))
        assert g.snapshots[0].degree(battery(0)) == 1
        assert g.snapshots[1].degree(battery(0)) == 1


class TestNeighbors:
    def test_isolated_node_empty(self):
        g = small_graph()
        assert g.neighbors(user(2), 0) == ()

    def test_star_enumeration(self):
        g = small_graph()
        for u in (2, 0, 1):  # insertion order differs from index order
            g.add_edge(SwapEdge(user(u), battery(0), 1))
        assert g.neighbors(battery(0), 1) == (user(0), user(1), user(2))

    def test_neighbors_opposite_kind(self):
        g = small_graph()
        g.add_edge(SwapEdge(user(1), battery(1), 2))
        for n in g.neighbors(user(1), 2):
            assert n.kind is NodeKind.BATTERY
        for n in g.neighbors(battery(1), 2):
            assert n.kind is NodeKind.USER

    def test_invalid_timestep(self):
        g = small_graph()
        with pytest.raises(IndexError):
            g.neighbors(user(0), 7)


class TestDegreeHistogram:
    def test_empty_snapshot(self):
        g = small_graph()
        assert g.degree_histogram(3) == {0: 5}

    def test_single_edge(self):
        g = small_graph()
        g.add_edge(SwapEdge(user(0), battery(0), 0))
        assert g.degree_histogram(0) == {0: 3, 1: 2}

    def test_matches_brute_force_recount(self):
        g = TemporalGraph(6, 4, 3)
        r = Rng(17)
        for t in range(3):
            pairs = set()
            for _ in range(8):
                u, b = int(r.integers(6)), int(r.integers(4))
                if (u, b) in pairs:
                    continue
                pairs.add((u, b))
                g.add_edge(SwapEdge(user(u), battery(b), t))
        for t in range(3):
            counts = {}
            for kind, n in ((NodeKind.USER, 6), (NodeKind.BATTERY, 4)):
                for i in range(n):
                    d = sum(1 for e in g.snapshots[t].edges
                            if (kind is NodeKind.USER and e.user.index == i)
                            or (kind is NodeKind.BATTERY and e.battery.index == i))
                    counts[d] = counts.get(d, 0) + 1
            hist = g.degree_histogram(t)
            assert hist == counts
            assert sum(hist.values()) == 10


def test_degree_sums_match_edge_count():
    g = TemporalGraph(5, 5, 2)
    r = Rng(23)
    for t in range(2):
        seen = set()
        for _ in range(10):
            u, b = int(r.integers(5)), int(r.integers(5))
            if (u, b) in seen:
                continue
            seen.add((u, b))
            g.add_edge(SwapEdge(user(u), battery(b), t))
    for t in range(2):
        snap = g.snapshots[t]
        user_deg = sum(snap.degree(user(i)) for i in range(5))
        batt_deg = sum(snap.degree(battery(i)) for i in range(5))
        assert user_deg == batt_deg == len(snap.edges)


def test_merged_snapshot_window_dedupes_pairs():
    g = small_graph()
    g.add_edge(SwapEdge(user(0), battery(0), 0, station=1))
    g.add_edge(SwapEdge(user(0), battery(0), 1, station=2))
    g.add_edge(SwapEdge(user(1), battery(1), 1, station=3))
    merged = g.merged_snapshot(1, window=1)
    assert len(merged.edges) == 2
    assert merged.degree(battery(0)) == 1
    # window=0 is the plain snapshot
    assert g.merged_snapshot(1, window=0) is g.snapshots[1]


def random_temporal(seed, n_users=12, n_batteries=6, horizon=6, swaps=9):
    """Graph whose (user, battery) pairs recur across timesteps."""
    g = TemporalGraph(n_users, n_batteries, horizon)
    r = Rng(seed)
    for t in range(horizon):
        seen = set()
        for _ in range(swaps):
            u, b = int(r.integers(n_users)), int(r.integers(n_batteries))
            if (u, b) not in seen:
                seen.add((u, b))
                g.add_edge(SwapEdge(user(u), battery(b), t))
    return g


@pytest.mark.parametrize("window", [0, 1, 3])
def test_window_edges_keep_merged_snapshot_order(window):
    g = random_temporal(41)
    for t in range(g.horizon):
        merged = g.merged_snapshot(t, window)
        entry = g.window_edges(t, window)
        pairs = [(e.user.index, e.battery.index) for e in merged.edges]
        assert list(zip(entry.users.tolist(), entry.batteries.tolist())) == pairs
        src, dst = merged.edge_arrays()
        rows = np.arange(g.n_nodes)
        got_src, owner, degree = entry.in_edges(rows)
        for v in rows:
            assert got_src[owner == v].tolist() == src[dst == v].tolist()
        inv = np.zeros(g.n_nodes)
        inv[degree > 0] = 1.0 / degree[degree > 0]
        assert np.array_equal(inv, merged.inverse_degrees())
        assert g.window_edges(t, window) is entry


def test_window_edges_see_later_add_edge():
    g = small_graph()
    g.add_edge(SwapEdge(user(0), battery(0), 0))
    before = g.window_edges(1, 1)
    assert before.users.tolist() == [0]
    g.add_edge(SwapEdge(user(2), battery(1), 1))
    after = g.window_edges(1, 1)
    assert list(zip(after.users.tolist(), after.batteries.tolist())) == [(0, 0), (2, 1)]


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        g = TemporalGraph(10, 6, 5)
        r = Rng(31)
        for t in range(5):
            seen = set()
            for _ in range(7):
                u, b = int(r.integers(10)), int(r.integers(6))
                if (u, b) in seen:
                    continue
                seen.add((u, b))
                g.add_edge(SwapEdge(user(u), battery(b), t, int(r.integers(4))))
        p1 = tmp_path / "g1.seb"
        p2 = tmp_path / "g2.seb"
        save_graph(g, p1)
        g2 = load_graph(p1)
        save_graph(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for t in range(5):
            assert [
                (e.user.index, e.battery.index, e.t, e.station)
                for e in g.snapshots[t].edges
            ] == [
                (e.user.index, e.battery.index, e.t, e.station)
                for e in g2.snapshots[t].edges
            ]

    def test_version_error(self, tmp_path):
        p = tmp_path / "bad.seb"
        p.write_text("#seb-graph v99\n#dims,1,1,1\n")
        with pytest.raises(VersionError):
            load_graph(p)

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "bad.seb"
        p.write_text("#seb-graph v1\n#dims,2,2,2\n0,0,0,0\n1,zap,0,0\n")
        with pytest.raises(ParseError, match=":4:"):
            load_graph(p)


def test_node_row_layout():
    g = small_graph()
    assert g.node_row(user(2)) == 2
    assert g.node_row(battery(0)) == 3
    with pytest.raises(IndexError):
        g.node_row(battery(5))


def test_node_ref_identity():
    assert NodeRef(NodeKind.USER, 3) == user(3)
    assert user(3) != battery(3)
