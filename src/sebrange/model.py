"""Range-prediction models: the fused graph+attention predictor, an MLP
baseline, and a ridge linear-regression baseline.

The fused model runs two branches per order and concatenates three pieces
for the output head: the mean-pooled projected telemetry, the order's
battery-row and user-row slices of the graph encoder output, and the
mean-pooled attention encoder output. The "vanilla transformer" baseline is
the identical code path with the graph slice zeroed and the graph-side
parameters frozen, which keeps the ablation apples-to-apples.
"""

from dataclasses import dataclass, fields

import numpy as np

from .attention import MlpHead, TransformerBlock, encode_sequence, mlp_forward
from .errors import ConfigError, NumericError, ShapeError
from .gnn import NodeFeatureTable, build_layers, gnn_encode
from .optim import Param, glorot_uniform
from .tensor import Tensor, concat, gather_rows, linear, mean, reshape


@dataclass
class ModelConfig:
    """Architecture dimensions shared by the fused model and baselines."""

    embed_dim: int = 16
    dqk: int = 16
    ffn_dim: int = 32
    node_dim: int = 8
    gnn_layers: int = 2
    gnn_hidden: int = 8
    window: int = 0
    mlp_hidden: int = 32
    baseline_hidden: int = 64
    seq_len: int = 64
    n_features: int = 6
    use_graph: bool = True

    def validate(self):
        """Raise ConfigError unless each field has its default's type and each
        integer is at least 1 (``gnn_layers`` and ``window`` at least 0)."""
        for f in fields(self):
            value = getattr(self, f.name)
            low = 0 if f.name in ("gnn_layers", "window") else 1
            if type(value) is not type(f.default) or (type(value) is int and value < low):
                kind = "a bool" if type(f.default) is bool else f"an integer >= {low}"
                raise ConfigError(f"model.{f.name} must be {kind}, got {value!r}")

    @property
    def gnn_dims(self):
        return [self.node_dim] + [self.gnn_hidden] * self.gnn_layers

    @property
    def graph_slice_dim(self) -> int:
        return 2 * self.gnn_dims[-1]

    @property
    def fusion_in(self) -> int:
        return 2 * self.embed_dim + self.graph_slice_dim


class FeatureScaler:
    """Per-channel telemetry normalization fitted on the training split."""

    def __init__(self, mean=None, sd=None, n_features=6):
        self.mean = np.zeros(n_features) if mean is None else np.asarray(mean, float)
        self.sd = np.ones(n_features) if sd is None else np.asarray(sd, float)

    def fit(self, orders):
        """Mean and sd over all telemetry rows, read 64 orders at a time. Each
        sum adds the rows in sequence, as numpy's axis-0 reduction does, so
        both equal a fit on every row at once, bit for bit. Raises
        NumericError when a channel's mean or sd is NaN or overflows float64."""
        def blocks():
            for i in range(0, len(orders), 64):
                yield np.concatenate([o.telemetry for o in orders[i:i + 64]])

        n = sum(len(o.telemetry) for o in orders)
        self.mean = _sum_rows_in_order(blocks()) / n
        sd = np.sqrt(_sum_rows_in_order(np.square(b - self.mean) for b in blocks()) / n)
        _check_finite(np.concatenate([self.mean, sd]), "scaler's mean or sd", sd.size)
        sd[sd == 0.0] = 1.0
        self.sd = sd

    def apply(self, telemetry: np.ndarray) -> np.ndarray:
        return (telemetry - self.mean) / self.sd


def _sum_rows_in_order(blocks) -> np.ndarray:
    """Row sum of 2-D blocks, carried from one block into the next."""
    total = None
    for b in blocks:
        if total is not None:
            b = np.concatenate([total[None], b])
        total = b.sum(axis=0)
    return total


def _check_finite(values, what: str, n_channels: int):
    """Raise NumericError when an entry of ``values`` (the ``what``) is NaN or
    overflowed float64, naming the first one's telemetry channel: entry j is
    channel j % n_channels."""
    bad = ~np.isfinite(values)
    if bad.any():
        j = int(np.argmax(bad))
        problem = "is NaN" if np.isnan(values[j]) else "overflows float64"
        raise NumericError(f"telemetry channel {j % n_channels} {problem} in the {what}")


def _stack_telemetry(orders) -> np.ndarray:
    return np.stack([o.telemetry for o in orders], axis=0)


class _TrainedModel:
    """What the gradient-trained models share: a telemetry scaler, an output
    ``head`` (an MlpHead) and a taped ``forward_batch``."""

    def prepare(self, train_orders):
        """Fit the telemetry scaler and center the output at the label mean."""
        self.scaler.fit(train_orders)
        labels = np.array([o.label for o in train_orders])
        self.head.out_bias.value[...] = labels.mean()

    def trainable_params(self):
        return self.params()

    def predict(self, orders, graph=None) -> np.ndarray:
        return self.forward_batch(orders, graph).array.copy()

    def checkpoint_arrays(self) -> dict:
        """The live arrays a checkpoint holds, by key."""
        arrays = {"param:" + p.name: p.value for p in self.params()}
        return {**arrays, "scaler_mean": self.scaler.mean, "scaler_sd": self.scaler.sd}


class SebTransformer(_TrainedModel):
    """Graph branch + sequence branch fused into one scalar km prediction."""

    def __init__(self, cfg: ModelConfig, n_users: int, n_batteries: int, rng):
        self.cfg = cfg
        self.n_users = n_users
        self.n_batteries = n_batteries
        self.kind = "seb" if cfg.use_graph else "transformer"
        self.scaler = FeatureScaler(n_features=cfg.n_features)
        self.nodes = NodeFeatureTable(rng, n_users, n_batteries, cfg.node_dim)
        self.gcn_layers = build_layers(rng, cfg.gnn_dims)
        f, d = cfg.n_features, cfg.embed_dim
        self.proj_w = Param(glorot_uniform(rng, f, d, (f, d)), "proj.w")
        self.proj_b = Param(np.zeros(d), "proj.b")
        self.block = TransformerBlock(rng, d, cfg.dqk, cfg.ffn_dim, cfg.seq_len)
        self.head = MlpHead(rng, cfg.fusion_in, cfg.mlp_hidden, "fusion")

    def params(self):
        return (
            [self.proj_w, self.proj_b]
            + self.block.params()
            + self.nodes.params()
            + [p for layer in self.gcn_layers for p in layer.params()]
            + self.head.params()
        )

    def trainable_params(self):
        """Graph-side params are frozen when the graph branch is disabled."""
        if self.cfg.use_graph:
            return self.params()
        return [self.proj_w, self.proj_b] + self.block.params() + self.head.params()

    def forward_batch(self, orders, graph) -> Tensor:
        """Predictions (B,) for a batch of orders sharing one swap timestep."""
        if not orders:
            raise ConfigError("forward_batch needs at least one order")
        t = orders[0].t
        if any(o.t != t for o in orders):
            raise ConfigError("orders in one batch must share a swap timestep")
        batch = len(orders)
        telemetry = self.scaler.apply(_stack_telemetry(orders))
        x0 = linear(telemetry, self.proj_w, self.proj_b)
        x0_pooled = mean(x0, axis=-2)
        x2 = encode_sequence(self.block, x0)
        x2_pooled = mean(x2, axis=-2)
        if self.cfg.use_graph:
            # Each order's battery row, then its user row: (2B,) -> (B, 2 d).
            rows = [graph.node_row(n) for o in orders for n in (o.battery, o.user)]
            targets, at = np.unique(rows, return_inverse=True)
            x1 = gnn_encode(self.gcn_layers, graph, self.nodes.rows, t, targets,
                            self.cfg.window)
            graph_slice = reshape(gather_rows(x1, at), (batch, -1))
        else:
            graph_slice = np.zeros((batch, self.cfg.graph_slice_dim))
        fused = concat([x0_pooled, graph_slice, x2_pooled], axis=-1)
        return reshape(mlp_forward(self.head, fused), (batch,))


class MlpBaseline(_TrainedModel):
    """Two-layer perceptron on the flattened, normalized telemetry."""

    kind = "mlp"

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        self.scaler = FeatureScaler(n_features=cfg.n_features)
        self.in_dim = cfg.seq_len * cfg.n_features
        self.head = MlpHead(rng, self.in_dim, cfg.baseline_hidden, "mlp")

    def params(self):
        return self.head.params()

    def forward_batch(self, orders, graph=None) -> Tensor:
        flat = self.scaler.apply(_stack_telemetry(orders)).reshape(
            len(orders), self.in_dim)
        return reshape(mlp_forward(self.head, flat), (len(orders),))


def fit_linear_regression(features: np.ndarray, labels: np.ndarray,
                          ridge: float = 1e-8, channels: int = 1) -> np.ndarray:
    """Ridge-damped normal equations; returns slopes plus trailing intercept.
    Feature column j is telemetry channel j % channels."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ShapeError(
            f"features {x.shape} and labels {y.shape} do not align"
        )
    aug = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    gram = aug.T @ aug
    # A bad value in column j spreads along row and column j; the diagonal names j.
    _check_finite(np.diagonal(gram), "Gram matrix", channels)
    gram[np.diag_indices_from(gram)] += ridge
    try:
        coef = np.linalg.solve(gram, aug.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"normal equations are degenerate: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise NumericError("normal equations produced non-finite coefficients")
    return coef


class LinearBaseline:
    """Ridge linear regression on the flattened raw telemetry, fitted in
    closed form by ``prepare``; it has no trainable params."""

    kind = "lr"

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.coef = Param(np.zeros(cfg.seq_len * cfg.n_features + 1), "coef")

    def params(self):
        return [self.coef]

    def trainable_params(self):
        return []

    def prepare(self, train_orders):
        x = _stack_telemetry(train_orders).reshape(len(train_orders), -1)
        y = np.array([o.label for o in train_orders])
        self.coef.value[...] = fit_linear_regression(x, y, channels=self.cfg.n_features)

    def predict(self, orders, graph=None) -> np.ndarray:
        x = _stack_telemetry(orders).reshape(len(orders), -1)
        aug = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        return aug @ self.coef.value

    def checkpoint_arrays(self) -> dict:
        return {"coef": self.coef.value}
