"""Graph-convolution encoder over swap-graph snapshots.

One layer updates each node as

    h_v' = act( mean_{u in N(v)} h_u @ W  +  h_v @ B )

where the mean over an empty neighborhood is the zero vector (the 1/degree
normalization with 0 mapped to 0). ``gcn_layer`` runs a layer as one tape
node; stacked, layers give the structural embedding the range predictor fuses.

``gnn_encode`` computes only the rows a batch reads: its exact L-hop
receptive field, the full-neighbourhood form of GraphSAGE minibatching
(Hamilton et al., 2017), with no sampling. Walking back from the target
rows S_L, layer l needs S_{l-1} = S_l plus the in-neighbours of S_l, so
input features are gathered for S_0 only and layer l runs on S_l alone.
Each destination sums its edges in snapshot order, so the rows equal the
whole snapshot's bit for bit wherever BLAS rounds a product row alike for
any row count: OpenBLAS's SkylakeX kernel does from two rows on, its
Haswell kernel rounds the last row of an odd count differently.

Node input features are learned: one shared vector per node kind plus a
per-battery bias row, so the graph branch is purely structural.
"""

import numpy as np

from .errors import ConfigError, ShapeError
from .graph import TemporalGraph
from .optim import Param, RowTable, glorot_uniform
from .tensor import Tensor, _record, _relu, _value, gather_rows, scatter_add_rows

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


def gcn_layer(h, w, b, hop, activation: str = "relu") -> Tensor:
    """A layer over a ``graph.Hop`` as one node, a fused gather-aggregate-transform (Wang
    et al., 2019) with the float operations of ``gather_rows``, a scatter mean, two ``matmul``,
    ``add`` and ``relu``: h's gradient sums two scatters, alike in either order."""
    x, wa, ba = _value(h), _value(w), _value(b)
    if x.shape[-1] != wa.shape[0] or wa.shape != ba.shape:
        raise ShapeError(f"GCN input {x.shape} does not fit W {wa.shape} and B {ba.shape}")
    h_self, scale, n_in = x[hop.self_rows], hop.inv_degree[:, None], x.shape[0]
    m = scatter_add_rows(x, hop.src, hop.dst, h_self.shape[0]) * scale
    out = np.matmul(m, wa)
    out += np.matmul(h_self, ba)
    mask = _relu(out, out=out) > 0.0 if activation == "relu" else None

    def vjp(g):
        g = g if mask is None else g * mask
        gh = scatter_add_rows(np.matmul(g, ba.T), np.arange(len(h_self)), hop.self_rows, n_in)
        gh += scatter_add_rows(np.matmul(g, wa.T) * scale, hop.dst, hop.src, n_in)
        return gh, np.matmul(m.T, g), np.matmul(h_self.T, g)

    return _record(out, (h, w, b), vjp)


def gcn_layer_forward(layer: GcnLayer, h: Tensor, g: TemporalGraph, t: int,
                      window: int = 0) -> Tensor:
    """One round of message passing over every node of the (windowed)
    snapshot t: ``gnn_encode`` over every row, reading its input from ``h``."""
    n = g.n_nodes
    if h.shape[0] != n:
        raise ShapeError(
            f"feature rows ({h.shape[0]}) must equal node count ({n})"
        )
    return gnn_encode([layer], g, lambda idx: gather_rows(h, idx), t,
                      np.arange(n), window)


def gnn_encode(layers, g: TemporalGraph, read_rows, t: int, rows,
               window: int = 0) -> Tensor:
    """Encoder output at the (windowed) snapshot t for global node ``rows``.

    Output row i belongs to node ``rows[i]``. ``read_rows(idx)`` returns the
    input rows of global nodes ``idx``, as :meth:`NodeFeatureTable.rows`
    does. Only the rows in the receptive field of ``rows`` are computed;
    zero layers return ``read_rows(rows)``.
    """
    inputs, hops = g.window_edges(t, window).receptive_field(rows, len(layers))
    h = read_rows(inputs)
    for layer, hop in zip(layers, hops):
        h = gcn_layer(h, layer.w, layer.b, hop, layer.activation)
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
