"""Graph-convolution encoder over swap-graph snapshots.

One layer updates each node as

    h_v' = act( mean_{u in N(v)} h_u @ W  +  h_v @ B )

where the mean over an empty neighborhood is the zero vector (the 1/degree
normalization with 0 mapped to 0). Stacking layers over a snapshot yields
the structural embedding consumed by the fused range predictor.

``gnn_encode`` computes only the rows a batch reads: its exact L-hop
receptive field, the full-neighbourhood form of GraphSAGE minibatching
(Hamilton et al., 2017), with no sampling. Walking back from the target
rows S_L, layer l needs S_{l-1} = S_l plus the in-neighbours of S_l, so
input features are gathered for S_0 only and layer l runs on S_l alone.
Each destination sums its edges in snapshot order, so the rows are
bit-identical to stacking ``gcn_layer_forward`` over the whole snapshot;
both run the same ``_propagate`` core.

Node input features are learned: one shared vector per node kind plus a
per-battery bias row, so the graph branch is purely structural.
"""

import numpy as np

from .errors import ConfigError, ShapeError
from .graph import TemporalGraph
from .optim import Param, RowTable, glorot_uniform
from .tensor import Tensor, _record, add, gather_rows, matmul, neighbor_mean, relu

ACTIVATIONS = ("relu", "identity")


class GcnLayer:
    """Neighbor-mix weight W and self-loop weight B, same d_in x d_out shape."""

    def __init__(self, w: Param, b: Param, activation: str = "relu"):
        if w.shape != b.shape:
            raise ShapeError(f"W and B must match: {w.shape} vs {b.shape}")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        self.w = w
        self.b = b
        self.activation = activation

    @classmethod
    def init(cls, rng, d_in: int, d_out: int, activation: str = "relu",
             name: str = "gcn") -> "GcnLayer":
        return cls(
            Param(glorot_uniform(rng, d_in, d_out, (d_in, d_out)), f"{name}.w"),
            Param(glorot_uniform(rng, d_in, d_out, (d_in, d_out)), f"{name}.b"),
            activation,
        )

    def params(self):
        return [self.w, self.b]


def build_layers(rng, dims):
    """One layer per pair of widths d_0..d_L; hidden layers relu, final
    layer identity."""
    n = len(dims) - 1
    return [GcnLayer.init(rng, dims[i], dims[i + 1],
                          "relu" if i < n - 1 else "identity", f"gcn{i}")
            for i in range(n)]


def _propagate(layer: GcnLayer, h: Tensor, h_self: Tensor, src, dst,
               inv_deg) -> Tensor:
    """One layer for the destination rows of ``h_self``.

    ``src``/``dst`` index the rows of ``h`` and of ``h_self``; ``inv_deg``
    holds 1/degree per destination row, 0 where it has no edge.
    """
    m = neighbor_mean(h, src, dst, h_self.shape[0], inv_deg)
    out = add(matmul(m, layer.w), matmul(h_self, layer.b))
    if layer.activation == "relu":
        out = relu(out)
    return out


def gcn_layer_forward(layer: GcnLayer, h: Tensor, g: TemporalGraph, t: int,
                      window: int = 0) -> Tensor:
    """One round of message passing over every node of the (windowed)
    snapshot t: the full-graph reference for ``gnn_encode``."""
    n = g.n_nodes
    if h.shape[0] != n:
        raise ShapeError(
            f"feature rows ({h.shape[0]}) must equal node count ({n})"
        )
    edges = g.window_edges(t, window)
    b_rows = g.n_users + edges.batteries
    src = np.concatenate([edges.users, b_rows])
    dst = np.concatenate([b_rows, edges.users])
    degree = np.bincount(dst, minlength=n)
    inv_deg = np.zeros(n)
    np.divide(1.0, degree, out=inv_deg, where=degree > 0)
    return _propagate(layer, h, h, src, dst, inv_deg)


def gnn_encode(layers, g: TemporalGraph, features, t: int, rows,
               window: int = 0) -> Tensor:
    """Encoder output at the (windowed) snapshot t for global node ``rows``.

    Output row i belongs to node ``rows[i]``. ``features`` supplies input
    rows through ``features.rows(idx)``, as a :class:`NodeFeatureTable`
    does. Only the rows in the receptive field of ``rows`` are computed;
    zero layers return ``features.rows(rows)``.
    """
    inputs, hops = g.window_edges(t, window).receptive_field(rows, len(layers))
    h = features.rows(inputs)
    for layer, hop in zip(layers, hops):
        h = _propagate(layer, h, gather_rows(h, hop.self_rows), hop.src, hop.dst,
                       hop.inv_degree)
    return h


class NodeFeatureTable:
    """Learned initial node features: per-kind vectors + per-battery bias."""

    def __init__(self, rng, n_users: int, n_batteries: int, dim: int):
        self.n_users = n_users
        self.n_batteries = n_batteries
        self.dim = dim
        self.user_vec = Param(glorot_uniform(rng, dim, dim, (dim,)), "h0.user")
        self.battery_vec = Param(glorot_uniform(rng, dim, dim, (dim,)), "h0.battery")
        self.battery_bias = RowTable(
            glorot_uniform(rng, dim, dim, (n_batteries, dim)), "h0.battery_bias"
        )

    def params(self):
        return [self.user_vec, self.battery_vec, self.battery_bias]

    def rows(self, idx) -> Tensor:
        """Feature rows for global node rows ``idx`` (any order), as one op.

        A user row is the user vector; battery row ``n_users + j`` is
        ``battery_bias[j] + battery_vec``. The bias rows come through one
        row read, so a backward touches only the batteries in ``idx``.
        """
        idx = np.asarray(idx, dtype=np.int64)
        is_batt = idx >= self.n_users
        bias = self.battery_bias.rows(idx[is_batt] - self.n_users)
        out = np.empty((idx.shape[0], self.dim))
        out[is_batt] = bias.value + self.battery_vec.value
        out[~is_batt] = 0.0 + self.user_vec.value

        def vjp(g):
            g_batt = g[is_batt]
            return g[~is_batt].sum(axis=0), g_batt.sum(axis=0), g_batt

        return _record(out, (self.user_vec, self.battery_vec, bias), vjp)
