"""Temporal bipartite user-battery interaction graph.

The fleet's swap history is a sequence of per-timestep snapshots. Nodes are
users and batteries (dense indices per kind); an edge records that a user
swapped to a battery at a station during a timestep. Edges only ever connect
a user to a battery, and a given (user, battery) pair appears at most once
per timestep; the same pair swapping again later is a distinct edge.

The graph stores its edges once, as four int64 columns (t, user, battery,
station) in snapshot order, so an empty graph costs nothing per node or
timestep, and every edge enters through one batch check and merge,
:meth:`TemporalGraph.add_edges`. A finalized graph is immutable by convention
and safe to share read-only. Message passing reads a (windowed) snapshot
through :class:`WindowEdges`, a numpy edge index grouped by destination row
that the graph builds from a slice of the columns on first use per
``(t, window)``; every index is dropped when edges are added. Two readers
that fill the same entry at once build equal values, so sharing stays safe.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DuplicateEdgeError, ParseError, VersionError, utf8_error

GRAPH_HEADER = "#seb-graph v1"


class NodeKind(enum.Enum):
    USER = "user"
    BATTERY = "battery"


@dataclass(frozen=True, slots=True)
class NodeRef:
    """(kind, index) node handle; indices are dense per kind."""

    kind: NodeKind
    index: int


def user(index: int) -> NodeRef:
    return NodeRef(NodeKind.USER, index)


def battery(index: int) -> NodeRef:
    return NodeRef(NodeKind.BATTERY, index)


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
    """Both-direction edges of the snapshots ``t - window .. t`` by destination.

    Built from the window's distinct (user, battery) pairs, each at its
    first occurrence scanning old to new. ``nodes`` holds the distinct
    destination rows, ascending; destination ``nodes[i]`` has ``degree[i]``
    in-edges whose source rows are ``src[start[i]:start[i] + degree[i]]``,
    in pair order. Every array is sized by the window's edges, not by the
    node count.
    """

    def __init__(self, users: np.ndarray, batteries: np.ndarray, n_users: int):
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


class EdgeColumns(NamedTuple):
    """Every edge as int64 columns, sorted by ``t`` and in insertion order
    within a ``t`` (snapshot order)."""

    t: np.ndarray
    user: np.ndarray
    battery: np.ndarray
    station: np.ndarray


class TemporalGraph:
    """Swap edges for t = 0..horizon-1 over fixed node populations.

    Edges are stored once, as :class:`EdgeColumns`; snapshot ``t`` is the
    slice of the columns whose ``t`` column equals ``t``.
    """

    def __init__(self, n_users: int, n_batteries: int, horizon: int):
        if min(n_users, n_batteries, horizon) <= 0 or n_users * n_batteries * horizon >= 2**63:
            raise ValueError("node counts and horizon must be positive, their "
                             "product below 2**63 so int64 edge keys are exact")
        self.n_users = n_users
        self.n_batteries = n_batteries
        self.horizon = horizon
        self._columns = EdgeColumns(*(np.empty(0, dtype=np.int64) for _ in range(4)))
        self._windows = {}

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_batteries

    def node_row(self, v: NodeRef) -> int:
        """Global embedding-row index of a node."""
        count, base = ((self.n_users, 0) if v.kind is NodeKind.USER
                       else (self.n_batteries, self.n_users))
        if not 0 <= v.index < count:
            raise IndexError(f"{v.kind.value} index {v.index} out of range [0, {count})")
        return base + v.index

    def add_edges(self, t, users, batteries, stations):
        """Store the records ``(t[i], users[i], batteries[i], stations[i])``
        in order, or none of them: the first record outside the graph (see
        :meth:`first_outside`) or repeating the ``(t, user, battery)`` of an
        earlier record or a stored edge raises, its index as ``record``."""
        i, message = self.first_outside(t, users, batteries, stations)
        new = EdgeColumns(*(np.asarray(c[:i], dtype=np.int64)
                            for c in (t, users, batteries, stations)))
        repeat = np.ones(i, dtype=bool)
        repeat[np.unique(self._key(*new[:3]), return_index=True)[1]] = False
        repeat |= self.has_edges(*new[:3])
        error = None if message is None else IndexError(message)
        if repeat.any():
            i = int(repeat.argmax())
            error = DuplicateEdgeError(f"edge (user {new.user[i]}, battery "
                                       f"{new.battery[i]}) already present at t={new.t[i]}")
        if error is not None:
            error.record = i
            raise error
        merged = [np.concatenate(pair) for pair in zip(self._columns, new)]
        order = np.argsort(merged[0], kind="stable")  # stored edges first within a t
        self._columns = EdgeColumns(*(c[order] for c in merged))
        self._windows.clear()

    def first_outside(self, t, users, batteries, stations=None):
        """``(i, message)`` for the first record with a user, battery or
        timestep outside the graph or a station outside int64, checked in
        that order, else ``(len(t), None)``. Values compare as Python ints,
        so one beyond int64 is reported, not overflowed."""
        fields = [(users, 0, self.n_users, "user index {} out of range [0, {})"),
                  (batteries, 0, self.n_batteries, "battery index {} out of range [0, {})"),
                  (t, 0, self.horizon, "timestep {} out of range [0, {})")]
        if stations is not None:
            fields.append((stations, -2**63, 2**63, "station {} out of int64 range"))
        i, message = len(t), None
        for values, lo, hi, text in fields:
            v = np.asarray(values[:i], dtype=object)
            bad = np.flatnonzero((v < lo) | (v >= hi))
            if bad.size:
                i = int(bad[0])
                message = text.format(values[i], hi)
        return i, message

    def columns(self) -> EdgeColumns:
        """The stored edge columns; read-only by convention."""
        return self._columns

    def has_edges(self, t, users, batteries) -> np.ndarray:
        """Whether each in-range ``(t[i], users[i], batteries[i])`` is an edge."""
        c = self._columns
        return np.isin(self._key(t, users, batteries),
                       self._key(c.t, c.user, c.battery))

    def _key(self, t, users, batteries):
        t, users, batteries = (np.asarray(v, dtype=np.int64) for v in (t, users, batteries))
        return (t * self.n_users + users) * self.n_batteries + batteries

    def window_edges(self, t: int, window: int = 0) -> WindowEdges:
        """Edge index of the snapshots ``t - window .. t``, built on first use.

        Keeps the first occurrence of each (user, battery) pair, scanning
        snapshots old to new and each in insertion order.
        """
        if not 0 <= t < self.horizon:
            raise IndexError(f"timestep {t} out of range [0, {self.horizon})")
        entry = self._windows.get((t, window))
        if entry is None:
            c = self._columns
            lo, hi = np.searchsorted(c.t, [t - window, t + 1])
            users, batteries = c.user[lo:hi], c.battery[lo:hi]
            first = np.sort(np.unique(self._key(0, users, batteries),
                                      return_index=True)[1])
            entry = WindowEdges(users[first], batteries[first], self.n_users)
            self._windows[(t, window)] = entry
        return entry


def save_graph(g: TemporalGraph, path):
    """Write the line-delimited swap-record format (LF endings).

    Layout: the version header, a ``#dims`` line carrying the node counts
    and horizon (not recoverable from edges alone), then one
    ``t,user,battery,station`` record per edge in snapshot order.
    """
    lines = [GRAPH_HEADER, f"#dims,{g.n_users},{g.n_batteries},{g.horizon}"]
    lines += (f"{t},{u},{b},{s}" for t, u, b, s in np.column_stack(g.columns()).tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> TemporalGraph:
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != GRAPH_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise VersionError(path, 1, f"expected header {GRAPH_HEADER!r}, found {found!r}")
    if len(lines) < 2 or not lines[1].startswith("#dims,"):
        raise ParseError(path, 2, "missing #dims line")
    try:
        g = TemporalGraph(*(int(x) for x in lines[1][6:].split(",")))
    except (TypeError, ValueError):
        raise ParseError(path, 2, f"bad #dims line: {lines[1]!r}") from None
    # Records before the first unparsable line go in as one batch; their errors come first.
    records, error = [], None
    for line_no, line in enumerate(lines[2:], start=3):
        if bad := utf8_error(line):
            error = ParseError(path, line_no, bad)
            break
        parts = line.split(",")
        if len(parts) != 4:
            error = ParseError(path, line_no, f"expected 4 fields, got {len(parts)}")
            break
        try:
            records.append([int(x) for x in parts])
        except ValueError:
            error = ParseError(path, line_no, f"non-integer field in {line!r}")
            break
    try:
        g.add_edges(*(list(zip(*records)) or [()] * 4))
    except (IndexError, DuplicateEdgeError) as exc:
        raise ParseError(path, 3 + exc.record, str(exc)) from None
    if error is not None:
        raise error
    return g
