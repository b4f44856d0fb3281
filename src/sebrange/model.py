"""Range-prediction models: the fused graph+attention predictor, an MLP
baseline, and a ridge linear-regression baseline.

The fused model runs two branches per order and concatenates three pieces
for the output head: the mean-pooled projected telemetry, the order's
battery-row and user-row slices of the graph encoder output, and the
mean-pooled attention encoder output. The "vanilla transformer" baseline is
the identical code path with the graph slice zeroed and the graph-side
parameters frozen, which keeps the ablation apples-to-apples.
"""

from dataclasses import dataclass

import numpy as np

from .attention import MlpHead, TransformerBlock, encode_sequence, mlp_forward
from .errors import ConfigError, NumericError, ShapeError
from .gnn import GnnConfig, NodeFeatureTable, build_layers, gnn_encode
from .optim import Param, glorot_uniform
from .tensor import Tensor, concat, gather_rows, linear, mean, reshape


@dataclass
class ModelConfig:
    """Architecture dimensions shared by the fused model and baselines."""

    embed_dim: int = 16
    dqk: int = 16
    dv: int = 16
    ffn_dim: int = 32
    node_dim: int = 8
    gnn_layers: int = 2
    gnn_hidden: int = 8
    window: int = 0
    mlp_hidden: int = 32
    baseline_hidden: int = 64
    residual: bool = True
    layer_norm: bool = True
    seq_len: int = 64
    n_features: int = 6
    use_graph: bool = True

    @property
    def gnn_dims(self):
        return [self.node_dim] + [self.gnn_hidden] * self.gnn_layers

    @property
    def graph_slice_dim(self) -> int:
        return 2 * self.gnn_dims[-1]

    @property
    def fusion_in(self) -> int:
        return self.embed_dim + self.graph_slice_dim + self.dv


class FeatureScaler:
    """Per-channel telemetry normalization fitted on the training split."""

    def __init__(self, mean=None, sd=None, n_features=6):
        self.mean = np.zeros(n_features) if mean is None else np.asarray(mean, float)
        self.sd = np.ones(n_features) if sd is None else np.asarray(sd, float)

    def fit(self, orders):
        rows = np.concatenate([o.telemetry for o in orders], axis=0)
        self.mean = rows.mean(axis=0)
        sd = rows.std(axis=0)
        sd[sd == 0.0] = 1.0
        self.sd = sd

    def apply(self, telemetry: np.ndarray) -> np.ndarray:
        return (telemetry - self.mean) / self.sd


def _stack_telemetry(orders) -> np.ndarray:
    return np.stack([o.telemetry for o in orders], axis=0)


class SebTransformer:
    """Graph branch + sequence branch fused into one scalar km prediction."""

    def __init__(self, cfg: ModelConfig, n_users: int, n_batteries: int, rng):
        self.cfg = cfg
        self.n_users = n_users
        self.n_batteries = n_batteries
        self.kind = "seb" if cfg.use_graph else "transformer"
        self.scaler = FeatureScaler(n_features=cfg.n_features)
        self.nodes = NodeFeatureTable(rng, n_users, n_batteries, cfg.node_dim)
        self.gnn_cfg = GnnConfig(dims=cfg.gnn_dims, window=cfg.window)
        self.gcn_layers = build_layers(rng, self.gnn_cfg)
        f, d = cfg.n_features, cfg.embed_dim
        self.proj_w = Param(glorot_uniform(rng, f, d, (f, d)), "proj.w")
        self.proj_b = Param(np.zeros(d), "proj.b")
        self.block = TransformerBlock.init(
            rng, d, cfg.dqk, cfg.dv, cfg.ffn_dim, cfg.seq_len,
            cfg.residual, cfg.layer_norm,
        )
        self.fusion = MlpHead([cfg.fusion_in, cfg.mlp_hidden, 1], rng, "fusion")

    def params(self):
        return (
            [self.proj_w, self.proj_b]
            + self.block.params()
            + self.nodes.params()
            + [p for layer in self.gcn_layers for p in layer.params()]
            + self.fusion.params()
        )

    def trainable_params(self):
        """Graph-side params are frozen when the graph branch is disabled."""
        graph_side = set(
            id(p) for p in self.nodes.params()
        ) | set(id(p) for layer in self.gcn_layers for p in layer.params())
        if self.cfg.use_graph:
            return self.params()
        return [p for p in self.params() if id(p) not in graph_side]

    def prepare(self, train_orders):
        """Fit the telemetry scaler and center the output at the label mean."""
        self.scaler.fit(train_orders)
        labels = np.array([o.label for o in train_orders])
        self.fusion.out_bias.value[...] = labels.mean()

    def forward_batch(self, orders, graph, zero_graph_slice=False) -> Tensor:
        """Predictions (B,) for a batch of orders sharing one swap timestep."""
        if not orders:
            raise ConfigError("forward_batch needs at least one order")
        t = orders[0].t
        if any(o.t != t for o in orders):
            raise ConfigError("orders in one batch must share a swap timestep")
        batch = len(orders)
        telemetry = self.scaler.apply(_stack_telemetry(orders))
        x0 = linear(Tensor(telemetry), self.proj_w.tensor(), self.proj_b.tensor())
        x0_pooled = mean(x0, axis=-2)
        x2 = encode_sequence(self.block, x0)
        x2_pooled = mean(x2, axis=-2)
        if self.cfg.use_graph and not zero_graph_slice:
            rows = [graph.node_row(o.battery) for o in orders]
            rows += [graph.node_row(o.user) for o in orders]
            targets = sorted(set(rows))
            position = {r: i for i, r in enumerate(targets)}
            at = [position[r] for r in rows]
            x1 = gnn_encode(self.gnn_cfg, self.gcn_layers, graph, self.nodes,
                            t, targets)
            graph_slice = concat(
                [gather_rows(x1, at[:batch]), gather_rows(x1, at[batch:])],
                axis=-1,
            )
        else:
            graph_slice = Tensor(np.zeros((batch, self.cfg.graph_slice_dim)))
        fused = concat([x0_pooled, graph_slice, x2_pooled], axis=-1)
        return reshape(mlp_forward(self.fusion, fused), (batch,))

    def forward(self, order, graph) -> float:
        """Predicted remaining range (km) for one order."""
        return self.forward_batch([order], graph).item()

    def predict(self, orders, graph) -> np.ndarray:
        return self.forward_batch(orders, graph).array.copy()


class MlpBaseline:
    """Two-layer perceptron on the flattened, normalized telemetry."""

    kind = "mlp"

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        self.scaler = FeatureScaler(n_features=cfg.n_features)
        self.in_dim = cfg.seq_len * cfg.n_features
        self.mlp = MlpHead([self.in_dim, cfg.baseline_hidden, 1], rng, "mlp")

    def params(self):
        return self.mlp.params()

    def trainable_params(self):
        return self.params()

    def prepare(self, train_orders):
        self.scaler.fit(train_orders)
        labels = np.array([o.label for o in train_orders])
        self.mlp.out_bias.value[...] = labels.mean()

    def forward_batch(self, orders, graph=None, zero_graph_slice=False) -> Tensor:
        flat = self.scaler.apply(_stack_telemetry(orders)).reshape(
            len(orders), self.in_dim)
        return reshape(mlp_forward(self.mlp, Tensor(flat)), (len(orders),))

    def predict(self, orders, graph=None) -> np.ndarray:
        return self.forward_batch(orders).array.copy()


def fit_linear_regression(features: np.ndarray, labels: np.ndarray,
                          ridge: float = 1e-8) -> np.ndarray:
    """Ridge-damped normal equations; returns slopes plus trailing intercept."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ShapeError(
            f"features {x.shape} and labels {y.shape} do not align"
        )
    aug = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    gram = aug.T @ aug
    gram[np.diag_indices_from(gram)] += ridge
    try:
        coef = np.linalg.solve(gram, aug.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"normal equations are degenerate: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise NumericError("normal equations produced non-finite coefficients")
    return coef


class LinearBaseline:
    """Ridge linear regression on the flattened raw telemetry."""

    kind = "lr"

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.coef = None

    def fit(self, train_orders):
        x = _stack_telemetry(train_orders).reshape(len(train_orders), -1)
        y = np.array([o.label for o in train_orders])
        self.coef = fit_linear_regression(x, y)
        return self

    def predict(self, orders, graph=None) -> np.ndarray:
        if self.coef is None:
            raise ConfigError("linear baseline is not fitted")
        x = _stack_telemetry(orders).reshape(len(orders), -1)
        aug = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        return aug @ self.coef
