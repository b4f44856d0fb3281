"""Temporal bipartite user-battery interaction graph.

The fleet's swap history is a sequence of per-timestep snapshots. Nodes are
users and batteries (dense indices per kind); an edge records that a user
swapped to a battery at a station during a timestep. Edges only ever connect
a user to a battery, and a given (user, battery) pair appears at most once
per timestep; the same pair swapping again later is a distinct edge.

A finalized graph is immutable by convention and safe to share read-only.
Message passing reads a (windowed) snapshot through :class:`WindowEdges`,
a numpy edge index grouped by destination row that the graph builds on
first use per ``(t, window)`` and drops whenever an edge is added. Two
readers that fill the same entry at once build equal values, so sharing
stays safe.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BipartiteViolation, DuplicateEdgeError, ParseError, VersionError

GRAPH_HEADER = "#seb-graph v1"


class NodeKind(enum.Enum):
    USER = "user"
    BATTERY = "battery"


@dataclass(frozen=True)
class NodeRef:
    """(kind, index) node handle; indices are dense per kind."""

    kind: NodeKind
    index: int


def user(index: int) -> NodeRef:
    return NodeRef(NodeKind.USER, index)


def battery(index: int) -> NodeRef:
    return NodeRef(NodeKind.BATTERY, index)


@dataclass(frozen=True)
class SwapEdge:
    """One swap interaction: user takes battery at station during step t."""

    user: NodeRef
    battery: NodeRef
    t: int
    station: int = 0


class GraphSnapshot:
    """Edges of a single timestep plus both-direction adjacency lists."""

    def __init__(self, t: int, n_users: int, n_batteries: int):
        self.t = t
        self.n_users = n_users
        self.n_batteries = n_batteries
        self.edges = []
        self._user_nb = [[] for _ in range(n_users)]
        self._batt_nb = [[] for _ in range(n_batteries)]
        self._pairs = set()

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_batteries

    def _add(self, edge: SwapEdge):
        pair = (edge.user.index, edge.battery.index)
        if pair in self._pairs:
            raise DuplicateEdgeError(
                f"edge (user {pair[0]}, battery {pair[1]}) already present at t={self.t}"
            )
        self._pairs.add(pair)
        self.edges.append(edge)
        self._user_nb[edge.user.index].append(edge.battery.index)
        self._batt_nb[edge.battery.index].append(edge.user.index)

    def neighbors(self, v: NodeRef):
        """Opposite-kind neighbors of v, ascending by index."""
        if v.kind is NodeKind.USER:
            self._check_index(v.index, self.n_users, "user")
            return tuple(battery(i) for i in sorted(self._user_nb[v.index]))
        self._check_index(v.index, self.n_batteries, "battery")
        return tuple(user(i) for i in sorted(self._batt_nb[v.index]))

    def degree(self, v: NodeRef) -> int:
        if v.kind is NodeKind.USER:
            return len(self._user_nb[v.index])
        return len(self._batt_nb[v.index])

    @staticmethod
    def _check_index(index, count, kind):
        if not 0 <= index < count:
            raise IndexError(f"{kind} index {index} out of range [0, {count})")

    def edge_arrays(self):
        """(src, dst) global-index arrays covering both directions.

        Global row layout: users occupy rows [0, n_users), batteries
        [n_users, n_users + n_batteries). Each edge contributes user->battery
        and battery->user entries, in insertion order.
        """
        m = len(self.edges)
        src = np.empty(2 * m, dtype=np.int64)
        dst = np.empty(2 * m, dtype=np.int64)
        for i, e in enumerate(self.edges):
            u = e.user.index
            b = self.n_users + e.battery.index
            src[i], dst[i] = u, b
            src[m + i], dst[m + i] = b, u
        return src, dst

    def inverse_degrees(self) -> np.ndarray:
        """1/degree per global node row, 0 for isolated nodes."""
        deg = np.zeros(self.n_nodes, dtype=np.float64)
        for e in self.edges:
            deg[e.user.index] += 1.0
            deg[self.n_users + e.battery.index] += 1.0
        out = np.zeros_like(deg)
        nz = deg > 0
        out[nz] = 1.0 / deg[nz]
        return out


class Hop(NamedTuple):
    """One round of message passing over a receptive field.

    Destination i is input row ``self_rows[i]``; edge e carries input row
    ``src[e]`` to destination ``dst[e]``; ``inv_degree`` is 1/degree per
    destination, 0 where it has no edge.
    """

    self_rows: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    inv_degree: np.ndarray


class WindowEdges:
    """Both-direction edges of ``merged_snapshot(t, window)`` by destination.

    ``users`` and ``batteries`` are the merged (user, battery) pairs in
    ``merged_snapshot`` order. ``nodes`` holds the distinct destination rows,
    ascending; destination ``nodes[i]`` has ``degree[i]`` in-edges whose
    source rows are ``src[start[i]:start[i] + degree[i]]``, in the order
    ``GraphSnapshot.edge_arrays`` lists them. Every array is sized by the
    window's edges, not by the node count.
    """

    def __init__(self, users: np.ndarray, batteries: np.ndarray, n_users: int):
        self.users = users
        self.batteries = batteries
        b_rows = n_users + batteries
        src = np.concatenate([users, b_rows])
        dst = np.concatenate([b_rows, users])
        order = np.argsort(dst, kind="stable")
        self.src = src[order]
        self.nodes, self.start, self.degree = np.unique(
            dst[order], return_index=True, return_counts=True)
        self._fields = {}

    def receptive_field(self, rows, hops: int):
        """Rows and edges that ``hops`` rounds of message passing need to
        produce ``rows``: the exact in-neighbourhood, no sampling.

        Walking back from the targets S_L, round l needs the rows
        S_{l-1} = S_l plus the in-neighbours of S_l. Returns ``(S_0, plan)``
        with one :class:`Hop` per round, first round first, mapping
        S_{l-1}'s rows onto S_l's. Each destination keeps its edges
        in ``src`` order.

        Fields are memoized per target set. Training and evaluation reuse
        the same batches every epoch, so the memo holds one field per
        distinct batch, each sized by its receptive field's edges.
        """
        rows = np.asarray(rows, dtype=np.int64)
        key = (hops, rows.tobytes())
        if key not in self._fields:
            need, plan = rows, []
            for _ in range(hops):
                src, dst, degree = self.in_edges(need)
                prev = np.union1d(need, src)
                inv_degree = np.zeros(degree.shape)
                np.divide(1.0, degree, out=inv_degree, where=degree > 0)
                plan.append(Hop(np.searchsorted(prev, need),
                                np.searchsorted(prev, src), dst, inv_degree))
                need = prev
            self._fields[key] = (need, plan[::-1])
        return self._fields[key]

    def in_edges(self, rows: np.ndarray):
        """In-edges of each of ``rows`` (global rows, any order).

        Returns ``(src, owner, degree)``: the source row of every in-edge,
        the position in ``rows`` of its destination, and the in-degree of
        each row (0 for rows with no edge in the window). Edges are listed
        row by row, each row's in the ``src`` order above.
        """
        rows = np.asarray(rows, dtype=np.int64)
        degree = np.zeros(rows.shape, dtype=np.int64)
        start = np.zeros(rows.shape, dtype=np.int64)
        hit = np.isin(rows, self.nodes)
        pos = np.searchsorted(self.nodes, rows[hit])
        degree[hit] = self.degree[pos]
        start[hit] = self.start[pos]
        owner = np.repeat(np.arange(rows.shape[0]), degree)
        first = np.cumsum(degree) - degree
        edge = np.repeat(start - first, degree) + np.arange(owner.shape[0])
        return self.src[edge], owner, degree


class TemporalGraph:
    """Snapshot sequence for t = 0..horizon-1 over fixed node populations."""

    node_kinds = (NodeKind.USER, NodeKind.BATTERY)

    def __init__(self, n_users: int, n_batteries: int, horizon: int):
        if min(n_users, n_batteries, horizon) <= 0:
            raise ValueError("node counts and horizon must be positive")
        self.n_users = n_users
        self.n_batteries = n_batteries
        self.horizon = horizon
        self.snapshots = [
            GraphSnapshot(t, n_users, n_batteries) for t in range(horizon)
        ]
        self._windows = {}

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_batteries

    def node_row(self, v: NodeRef) -> int:
        """Global embedding-row index of a node."""
        if v.kind is NodeKind.USER:
            GraphSnapshot._check_index(v.index, self.n_users, "user")
            return v.index
        GraphSnapshot._check_index(v.index, self.n_batteries, "battery")
        return self.n_users + v.index

    def _check_t(self, t: int):
        if not 0 <= t < self.horizon:
            raise IndexError(f"timestep {t} out of range [0, {self.horizon})")

    def add_edge(self, edge: SwapEdge):
        if edge.user.kind is not NodeKind.USER or edge.battery.kind is not NodeKind.BATTERY:
            raise BipartiteViolation(
                f"edge endpoints must be (user, battery), got "
                f"({edge.user.kind.value}, {edge.battery.kind.value})"
            )
        GraphSnapshot._check_index(edge.user.index, self.n_users, "user")
        GraphSnapshot._check_index(edge.battery.index, self.n_batteries, "battery")
        self._check_t(edge.t)
        self.snapshots[edge.t]._add(edge)
        self._windows.clear()

    def neighbors(self, v: NodeRef, t: int):
        self._check_t(t)
        return self.snapshots[t].neighbors(v)

    def degree_histogram(self, t: int) -> dict:
        """Map degree -> node count at snapshot t; counts sum to all nodes."""
        self._check_t(t)
        snap = self.snapshots[t]
        hist = {}
        for kind, count in ((NodeKind.USER, self.n_users),
                            (NodeKind.BATTERY, self.n_batteries)):
            for i in range(count):
                d = snap.degree(NodeRef(kind, i))
                hist[d] = hist.get(d, 0) + 1
        return hist

    def edge_count(self) -> int:
        return sum(len(s.edges) for s in self.snapshots)

    def merged_snapshot(self, t: int, window: int = 0) -> GraphSnapshot:
        """Union of snapshots t-window..t with (user, battery) pairs deduped.

        window=0 returns snapshot t itself. The merged snapshot keeps the
        earliest occurrence of each pair, scanning old-to-new.
        """
        self._check_t(t)
        if window == 0:
            return self.snapshots[t]
        merged = GraphSnapshot(t, self.n_users, self.n_batteries)
        for ti in range(max(0, t - window), t + 1):
            for e in self.snapshots[ti].edges:
                pair = (e.user.index, e.battery.index)
                if pair not in merged._pairs:
                    merged._add(e)
        return merged

    def window_edges(self, t: int, window: int = 0) -> WindowEdges:
        """Edge index of ``merged_snapshot(t, window)``, built on first use.

        Keeps the first occurrence of each (user, battery) pair, scanning
        snapshots old to new, as ``merged_snapshot`` does.
        """
        self._check_t(t)
        entry = self._windows.get((t, window))
        if entry is None:
            pairs = np.array(
                [(e.user.index, e.battery.index)
                 for ti in range(max(0, t - window), t + 1)
                 for e in self.snapshots[ti].edges],
                dtype=np.int64).reshape(-1, 2)
            keys = pairs[:, 0] * self.n_batteries + pairs[:, 1]
            first = np.sort(np.unique(keys, return_index=True)[1])
            entry = WindowEdges(pairs[first, 0], pairs[first, 1], self.n_users)
            self._windows[(t, window)] = entry
        return entry


def save_graph(g: TemporalGraph, path):
    """Write the line-delimited swap-record format (LF endings).

    Layout: the version header, a ``#dims`` line carrying the node counts
    and horizon (not recoverable from edges alone), then one
    ``t,user,battery,station`` record per edge in snapshot order.
    """
    lines = [GRAPH_HEADER, f"#dims,{g.n_users},{g.n_batteries},{g.horizon}"]
    for snap in g.snapshots:
        for e in snap.edges:
            lines.append(f"{e.t},{e.user.index},{e.battery.index},{e.station}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> TemporalGraph:
    with open(path, newline="\n") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != GRAPH_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise VersionError(path, 1, f"expected header {GRAPH_HEADER!r}, found {found!r}")
    if len(lines) < 2 or not lines[1].startswith("#dims,"):
        raise ParseError(path, 2, "missing #dims line")
    try:
        n_users, n_batteries, horizon = (int(x) for x in lines[1][6:].split(","))
    except ValueError:
        raise ParseError(path, 2, f"bad #dims line: {lines[1]!r}") from None
    g = TemporalGraph(n_users, n_batteries, horizon)
    for line_no, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(path, line_no, f"expected 4 fields, got {len(parts)}")
        try:
            t, u, b, station = (int(x) for x in parts)
        except ValueError:
            raise ParseError(path, line_no, f"non-integer field in {line!r}") from None
        g.add_edge(SwapEdge(user(u), battery(b), t, station))
    return g
