"""Temporal bipartite graph contracts and file round trips."""

import itertools
from collections import Counter

import numpy as np
import pytest

from sebrange.errors import DuplicateEdgeError, ParseError, VersionError
from sebrange.graph import (
    NodeKind,
    NodeRef,
    TemporalGraph,
    battery,
    load_graph,
    save_graph,
    user,
)
from sebrange.rng import Rng


def small_graph():
    return TemporalGraph(n_users=3, n_batteries=2, horizon=4)


def in_rows(g, row, t, window=0):
    """Source rows of global row ``row``'s in-edges, in summation order."""
    return g.window_edges(t, window).in_edges([row])[0].tolist()


def degree_histogram(g, t):
    """Map degree -> node count at snapshot t."""
    degree = g.window_edges(t).in_edges(np.arange(g.n_nodes))[2]
    return dict(Counter(degree.tolist()))


def merged_pairs(edges, t, window):
    """Reference for ``window_edges``: the (user, battery) pairs of the
    ``(t, user, battery)`` edges of snapshots t - window .. t, scanned old
    to new (insertion order within a timestep), each kept at its first
    occurrence."""
    pairs, seen = [], set()
    for te, u, b in sorted(edges, key=lambda e: e[0]):
        if t - window <= te <= t and (u, b) not in seen:
            seen.add((u, b))
            pairs.append((u, b))
    return pairs


class TestAddEdge:
    def test_single_edge_neighbors(self):
        g = small_graph()
        g.add_edges([0], [0], [0], [5])
        assert in_rows(g, g.node_row(battery(0)), 0) == [0]
        assert in_rows(g, 0, 0) == [g.node_row(battery(0))]

    def test_out_of_range_index(self):
        g = small_graph()
        with pytest.raises(IndexError):
            g.add_edges([0], [99], [0], [0])
        with pytest.raises(IndexError):
            g.add_edges([99], [0], [0], [0])

    def test_duplicate_same_timestep_rejected(self):
        g = small_graph()
        g.add_edges([0], [0], [0], [0])
        with pytest.raises(DuplicateEdgeError):
            g.add_edges([0], [0], [0], [9])

    def test_same_pair_distinct_timesteps_ok(self):
        g = small_graph()
        g.add_edges([0, 1], [0, 1], [0, 0], [0, 0])
        assert len(in_rows(g, g.node_row(battery(0)), 0)) == 1
        assert len(in_rows(g, g.node_row(battery(0)), 1)) == 1


class TestNeighbors:
    def test_isolated_node_empty(self):
        g = small_graph()
        assert in_rows(g, 2, 0) == []

    def test_star_enumeration(self):
        g = small_graph()
        # insertion order differs from index order
        g.add_edges([1, 1, 1], [2, 0, 1], [0, 0, 0], [0, 0, 0])
        # a destination sums its neighbours in insertion order
        assert in_rows(g, g.node_row(battery(0)), 1) == [2, 0, 1]

    def test_neighbors_opposite_kind(self):
        g = small_graph()
        g.add_edges([2], [1], [1], [0])
        assert all(r >= g.n_users for r in in_rows(g, 1, 2))
        assert all(r < g.n_users for r in in_rows(g, g.node_row(battery(1)), 2))

    def test_invalid_timestep(self):
        g = small_graph()
        with pytest.raises(IndexError):
            g.window_edges(7)


class TestDegreeHistogram:
    def test_empty_snapshot(self):
        g = small_graph()
        assert degree_histogram(g, 3) == {0: 5}

    def test_single_edge(self):
        g = small_graph()
        g.add_edges([0], [0], [0], [0])
        assert degree_histogram(g, 0) == {0: 3, 1: 2}

    def test_matches_brute_force_recount(self):
        g = TemporalGraph(6, 4, 3)
        r = Rng(17)
        edges = []
        for t in range(3):
            pairs = set()
            for _ in range(8):
                u, b = int(r.integers(6)), int(r.integers(4))
                if (u, b) in pairs:
                    continue
                pairs.add((u, b))
                edges.append((t, u, b))
                g.add_edges([t], [u], [b], [0])
        for t in range(3):
            counts = {}
            for end, n in ((1, 6), (2, 4)):
                for i in range(n):
                    d = sum(1 for e in edges if e[0] == t and e[end] == i)
                    counts[d] = counts.get(d, 0) + 1
            hist = degree_histogram(g, t)
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
            g.add_edges([t], [u], [b], [0])
    for t in range(2):
        degree = g.window_edges(t).in_edges(np.arange(g.n_nodes))[2]
        user_deg, batt_deg = degree[:5].sum(), degree[5:].sum()
        assert user_deg == batt_deg == np.count_nonzero(g.columns().t == t)


def test_merged_snapshot_window_dedupes_pairs():
    g = small_graph()
    g.add_edges([0, 1, 1], [0, 0, 1], [0, 0, 1], [1, 2, 3])
    merged = g.window_edges(1, window=1)
    assert merged.users.size == 2
    assert len(in_rows(g, g.node_row(battery(0)), 1, window=1)) == 1
    # window=0 is the plain snapshot
    plain = g.window_edges(1, window=0)
    assert list(zip(plain.users.tolist(), plain.batteries.tolist())) == [(0, 0), (1, 1)]


def random_temporal(seed, n_users=12, n_batteries=6, horizon=6, swaps=9):
    """Graph whose (user, battery) pairs recur across timesteps, with its
    edges as (t, user, battery) in insertion order."""
    g = TemporalGraph(n_users, n_batteries, horizon)
    r = Rng(seed)
    edges = []
    for t in range(horizon):
        seen = set()
        for _ in range(swaps):
            u, b = int(r.integers(n_users)), int(r.integers(n_batteries))
            if (u, b) not in seen:
                seen.add((u, b))
                edges.append((t, u, b))
                g.add_edges([t], [u], [b], [0])
    return g, edges


@pytest.mark.parametrize("window", [0, 1, 3])
def test_window_edges_keep_merged_snapshot_order(window):
    g, edges = random_temporal(41)
    for t in range(g.horizon):
        pairs = merged_pairs(edges, t, window)
        entry = g.window_edges(t, window)
        assert list(zip(entry.users.tolist(), entry.batteries.tolist())) == pairs
        users = np.array([p[0] for p in pairs], dtype=np.int64)
        b_rows = g.n_users + np.array([p[1] for p in pairs], dtype=np.int64)
        src, dst = np.concatenate([users, b_rows]), np.concatenate([b_rows, users])
        rows = np.arange(g.n_nodes)
        got_src, owner, degree = entry.in_edges(rows)
        for v in rows:
            assert got_src[owner == v].tolist() == src[dst == v].tolist()
        inv = np.zeros(g.n_nodes)
        inv[degree > 0] = 1.0 / degree[degree > 0]
        expect = np.bincount(dst, minlength=g.n_nodes).astype(float)
        expect[expect > 0] = 1.0 / expect[expect > 0]
        assert np.array_equal(inv, expect)
        assert g.window_edges(t, window) is entry


def test_columns_in_snapshot_order():
    g = small_graph()
    records = [(2, 0, 1, 7), (0, 1, 0, 3), (2, 2, 0, 5), (0, 0, 0, 4)]
    for t, u, b, s in records:
        g.add_edges([t], [u], [b], [s])
    c = g.columns()
    assert all(col.dtype == np.int64 for col in c)
    assert np.column_stack(c).tolist() == [
        [0, 1, 0, 3], [0, 0, 0, 4], [2, 0, 1, 7], [2, 2, 0, 5]]


def test_has_edges_matches_records():
    g = small_graph()
    g.add_edges([2, 3], [1, 2], [0, 1], [0, 0])
    got = g.has_edges([2, 3, 2, 3], [1, 2, 2, 1], [0, 1, 0, 1])
    assert got.tolist() == [True, True, False, False]


def test_empty_graph_allocates_under_1mb(traced):
    # One city-sized fleet over 50 timesteps; nothing is stored per node or
    # per timestep until an edge arrives.
    _, _, peak = traced(TemporalGraph, 40000, 12000, 50)
    assert peak < 1 << 20, f"empty graph peaked at {peak} bytes"


def test_window_edges_see_later_add_edge():
    g = small_graph()
    g.add_edges([0], [0], [0], [0])
    before = g.window_edges(1, 1)
    assert before.users.tolist() == [0]
    g.add_edges([1], [2], [1], [0])
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
                g.add_edges([t], [u], [b], [int(r.integers(4))])
        p1 = tmp_path / "g1.seb"
        p2 = tmp_path / "g2.seb"
        save_graph(g, p1)
        g2 = load_graph(p1)
        save_graph(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(g.columns(), g2.columns()):
            assert np.array_equal(a, b)

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

    @pytest.mark.parametrize("dims", [
        "#dims,0,2,2", "#dims,2,2", "#dims,2,x,2",
        "#dims,4294967296,4294967296,1",  # edge keys would overflow int64
    ])
    def test_bad_dims_is_parse_error(self, tmp_path, dims):
        p = tmp_path / "bad.seb"
        p.write_text(f"#seb-graph v1\n{dims}\n")
        with pytest.raises(ParseError, match="bad.seb:2: bad #dims line"):
            load_graph(p)

    @pytest.mark.parametrize("record, why", [
        ("0,2,0,0", "user index 2"),
        ("0,0,-1,0", "battery index -1"),
        ("2,0,0,0", "timestep 2"),
        ("0,0,0,3", "already present"),
        ("0,0,0,9223372036854775808", "station 9223372036854775808"),
    ])
    def test_bad_record_is_parse_error(self, tmp_path, record, why):
        p = tmp_path / "bad.seb"
        p.write_text(f"#seb-graph v1\n#dims,2,2,2\n0,0,0,0\n{record}\n")
        with pytest.raises(ParseError, match=f"bad.seb:4: .*{why}"):
            load_graph(p)


# Records that break one rule each, as (field, value); fields are t, user,
# battery, station. The values beyond int64 must be reported, not overflowed.
OUT_OF_RANGE = [(0, 3), (0, -1), (1, 4), (1, 2**64), (2, -1), (2, 3),
                (3, 2**63), (3, -2**63 - 1)]


def edge_stream(r, stored):
    """A shuffled stream of fresh records for a 4-user, 3-battery, 3-step
    graph holding ``stored``, with 0-3 injected faults: an out-of-range
    value, a repeat of an earlier record or a repeat of a stored edge."""
    fresh = [k for k in itertools.product(range(3), range(4), range(3))
             if k not in {tuple(e[:3]) for e in stored}]
    stream = [[*fresh[j], int(r.integers(9)) - 4]
              for j in r.permutation(len(fresh))[:1 + int(r.integers(12))].tolist()]
    for _ in range(int(r.integers(4))):
        j, kind = int(r.integers(len(stream))), int(r.integers(3))
        if kind == 0:
            field, value = OUT_OF_RANGE[int(r.integers(len(OUT_OF_RANGE)))]
            stream[j][field] = value
        elif kind == 1 and j > 0:
            stream[j][:3] = stream[int(r.integers(j))][:3]
        elif kind == 2 and stored:
            stream[j][:3] = stored[int(r.integers(len(stored)))][:3]
    return stream


def first_bad(stream, stored):
    """Sequential reference: index and error type of the first bad record."""
    seen = {tuple(e[:3]) for e in stored}
    for i, (t, u, b, s) in enumerate(stream):
        if not (0 <= t < 3 and 0 <= u < 4 and 0 <= b < 3 and -2**63 <= s < 2**63):
            return i, IndexError
        if (t, u, b) in seen:
            return i, DuplicateEdgeError
        seen.add((t, u, b))
    return len(stream), None


def test_add_edge_add_edges_and_load_graph_agree(tmp_path):
    r = Rng(77)
    path = tmp_path / "g.seb"
    faults = 0
    for _ in range(120):
        stored = [[*k, 0] for k in [(2, 1, 0), (0, 3, 2), (1, 0, 0)][:int(r.integers(4))]]
        stream = edge_stream(r, stored)
        expect = first_bad(stream, stored)
        faults += expect[1] is not None

        def graph_with_stored():
            g = TemporalGraph(4, 3, 3)
            for t, u, b, s in stored:
                g.add_edges([t], [u], [b], [s])
            return g

        looped, got_loop, loop_error = graph_with_stored(), (len(stream), None), None
        for i, (t, u, b, s) in enumerate(stream):
            try:
                looped.add_edges([t], [u], [b], [s])
            except (IndexError, DuplicateEdgeError) as exc:
                got_loop, loop_error = (i, type(exc)), exc
                break
        bulk, got_bulk = graph_with_stored(), (len(stream), None)
        before = bulk.columns()
        try:
            bulk.add_edges(*zip(*stream))
        except (IndexError, DuplicateEdgeError) as exc:
            got_bulk = (exc.record, type(exc))
            assert str(exc) == str(loop_error)
            assert all(np.array_equal(a, b) for a, b in zip(bulk.columns(), before))
        path.write_text("\n".join(["#seb-graph v1", "#dims,4,3,3"] + [
            ",".join(map(str, rec)) for rec in stored + stream]) + "\n")
        try:
            loaded = load_graph(path)
        except ParseError as exc:
            assert exc.line_no == 3 + len(stored) + expect[0]
            assert str(exc).endswith(str(loop_error))
        else:
            assert expect[1] is None
            for a, b, c in zip(looped.columns(), bulk.columns(), loaded.columns()):
                assert np.array_equal(a, b) and np.array_equal(a, c)
        assert got_loop == got_bulk == expect
    assert 30 <= faults <= 100


BAD_RECORDS = {
    "unparsable": ("1,x,0,0", "non-integer field"),
    "out of range": ("0,0,5,0", "battery index 5"),
    "duplicate": ("0,0,0,7", "already present"),
}


@pytest.mark.parametrize("first, second", itertools.permutations(BAD_RECORDS, 2))
def test_load_graph_reports_earlier_of_two_bad_lines(tmp_path, first, second):
    p = tmp_path / "bad.seb"
    p.write_text("#seb-graph v1\n#dims,2,2,2\n0,0,0,0\n1,1,1,1\n"
                 f"{BAD_RECORDS[first][0]}\n1,0,1,0\n{BAD_RECORDS[second][0]}\n")
    with pytest.raises(ParseError, match=f"bad.seb:5: .*{BAD_RECORDS[first][1]}"):
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


@pytest.mark.parametrize("bad", BAD_RECORDS)
def test_load_graph_non_utf8_byte_keeps_line_order(tmp_path, bad):
    # A stray byte is a ParseError at its line, after an earlier bad line's.
    p = tmp_path / "bad.seb"
    head = b"#seb-graph v1\n#dims,2,2,2\n0,0,0,0\n"
    record, why = BAD_RECORDS[bad][0].encode(), BAD_RECORDS[bad][1]
    p.write_bytes(head + record + b"\n1,\xe91,0,0\n")
    with pytest.raises(ParseError, match=f"bad.seb:4: .*{why}"):
        load_graph(p)
    p.write_bytes(head + b"1,\xe91,0,0\n" + record + b"\n")
    with pytest.raises(ParseError, match="bad.seb:4: invalid UTF-8 byte 0xe9"):
        load_graph(p)
