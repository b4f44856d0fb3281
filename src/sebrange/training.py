"""Training objective, loop, data splits and MAE evaluation.

Orders are bucketed by their swap timestep; each bucket (chunked to the
batch-size cap) contributes one mean-squared-error term plus, when enabled,
one structural-similarity term to the objective. The loop runs adaptive-
moment minibatch descent over the chunks, records train/validation loss per
epoch, and returns the parameters of the best-validation-MAE epoch.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .optim import AdamState, optimizer_step
from .rng import Rng, derive_seed
from .s3im import S3imConfig, s3im_regularizer
from .tensor import add, mean, mul, sub

_SPLIT_KEY = 101
_SHUFFLE_KEY = 102


@dataclass
class TrainConfig:
    epochs: int = 25
    lr: float = 3e-3
    batch_size: int = 64
    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 42
    s3im_enabled: bool = False
    s3im_weight: float = 1.0
    s3im_L: object = "auto"
    s3im: S3imConfig = field(default_factory=S3imConfig)

    def validate(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        # Each float check is written so that NaN fails it.
        if not (all(f > 0 for f in fracs) and abs(sum(fracs) - 1.0) <= 1e-9):
            raise ConfigError(f"split fractions must be positive and sum to 1, got {fracs}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigError("epochs and batch size must be positive")
        if not self.lr >= 0:
            raise ConfigError(f"learning rate must be nonnegative, got {self.lr}")
        if not self.s3im_weight >= 0:
            raise ConfigError(f"regularizer weight must be nonnegative, got {self.s3im_weight}")
        if self.s3im_L != "auto" and not self.s3im_L > 0:
            raise ConfigError(f"s3im.L must be 'auto' or positive, got {self.s3im_L}")

    def make_s3im(self, train_labels) -> S3imConfig:
        """``s3im`` with its dynamic range; L='auto' uses the label range."""
        if self.s3im_L == "auto":
            labels = np.asarray(train_labels, dtype=np.float64)
            dynamic_range = max(float(labels.max() - labels.min()), 1e-6)
        else:
            dynamic_range = float(self.s3im_L)
        return replace(self.s3im, dynamic_range=dynamic_range)


def objective(pairs, cfg: TrainConfig, s3im_cfg: S3imConfig = None):
    """Sum over ``(predictions, labels)`` pairs, one per timestep batch and
    in the order given, of mean squared error plus the weighted similarity
    regularizer (skipped for single-element batches). Labels are float64
    arrays in km.

    Returns a scalar Tensor; differentiable when predictions are Tensors.
    """
    if cfg.s3im_enabled and s3im_cfg is None:
        s3im_cfg = cfg.make_s3im(np.concatenate([y for _, y in pairs]))
    total = None
    for i, (pred, y) in enumerate(pairs):
        if pred.size != y.size:
            raise ShapeError(f"batch {i}: {pred.size} predictions vs {y.size} labels")
        diff = sub(pred, y)
        term = mean(mul(diff, diff))
        if cfg.s3im_enabled and y.size >= 2:
            reg = s3im_regularizer(pred, y, s3im_cfg)
            term = add(term, mul(reg, cfg.s3im_weight))
        total = term if total is None else add(total, term)
    if total is None:
        raise ConfigError("objective needs at least one timestep batch")
    return total


def split_orders(orders, cfg: TrainConfig):
    """Deterministic train/val/test split, identical for every model."""
    rng = Rng(derive_seed(cfg.seed, _SPLIT_KEY))
    perm = rng.permutation(len(orders))
    n_train = int(round(cfg.train_frac * len(orders)))
    n_val = int(round(cfg.val_frac * len(orders)))
    train = [orders[i] for i in perm[:n_train]]
    val = [orders[i] for i in perm[n_train:n_train + n_val]]
    test = [orders[i] for i in perm[n_train + n_val:]]
    return train, val, test


def bucket_by_t(orders):
    """Orders grouped by swap timestep, buckets and members in stable order."""
    buckets = {}
    for o in sorted(orders, key=lambda o: o.order_id):
        buckets.setdefault(o.t, []).append(o)
    return [buckets[t] for t in sorted(buckets)]


def make_chunks(orders, batch_size):
    """Each timestep bucket cut into runs of at most ``batch_size`` orders."""
    return [bucket[i:i + batch_size] for bucket in bucket_by_t(orders)
            for i in range(0, len(bucket), batch_size)]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_mae: float


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    splits: tuple

    @property
    def best(self) -> EpochStats:
        return self.history[self.best_epoch - 1]


@dataclass
class MaeResult:
    mean: float
    std: float
    residuals: np.ndarray


def _collect_predictions(model, orders, graph):
    """``(predictions, labels)`` pairs, one per timestep bucket in order."""
    return [(model.predict(bucket, graph), np.array([o.label for o in bucket]))
            for bucket in bucket_by_t(orders)]


def _score(model, orders, graph, cfg: TrainConfig, s3im_cfg):
    """``objective`` and the MAE over one predict per timestep bucket."""
    pairs = _collect_predictions(model, orders, graph)
    loss = objective(pairs, cfg, s3im_cfg).item()
    return loss, float(np.abs(np.concatenate([p - y for p, y in pairs])).mean())


def train(model, orders, graph, cfg: TrainConfig) -> TrainResult:
    """Minibatch descent on the objective; keeps the best-validation epoch.

    Each step minimizes ``objective`` over one chunk, the same function that
    validation and the gradient audit evaluate. A model with no trainable
    params (lr) is fitted by ``prepare``, and one pseudo-epoch scores it.

    Raises NumericError naming the first order with a non-finite label,
    before any fit, and when no epoch reaches a finite validation MAE.
    With lr == 0 the loop runs without applying updates, leaving the
    weights bit-identical to initialization (optimizer smoke contract).
    """
    cfg.validate()
    if not orders:
        raise ConfigError("cannot train on an empty dataset")
    all_labels = np.array([o.label for o in orders], dtype=np.float64)
    if not np.isfinite(all_labels).all():
        o = orders[np.isfinite(all_labels).argmin()]  # the first non-finite
        raise NumericError(f"order {o.order_id} has non-finite label {o.label}")
    train_split, val_split, _ = splits = split_orders(orders, cfg)
    if not train_split or not val_split:
        raise ConfigError(
            f"split produced empty train/val sets from {len(orders)} orders"
        )
    model.prepare(train_split)
    # The train split's labels; objective reads s3im_cfg only with S3IM on.
    s3im_cfg = cfg.make_s3im(split_orders(all_labels, cfg)[0])
    params = model.trainable_params()
    if not params:
        train_loss, _ = _score(model, train_split, graph, cfg, s3im_cfg)
        val_loss, val_mae = _score(model, val_split, graph, cfg, s3im_cfg)
        return TrainResult([EpochStats(1, train_loss, val_loss, val_mae)], 1, splits)
    adam = AdamState(params)
    chunks = make_chunks(train_split, cfg.batch_size)
    chunk_labels = [np.array([o.label for o in c]) for c in chunks]
    shuffle = Rng(derive_seed(cfg.seed, _SHUFFLE_KEY))

    history = []
    best_epoch = 0
    best_mae = np.inf
    best_values = None
    for epoch in range(1, cfg.epochs + 1):
        epoch_loss = 0.0
        for ci in shuffle.permutation(len(chunks)):
            chunk, labels = chunks[int(ci)], chunk_labels[int(ci)]
            for p in params:
                p.zero_grad()
            pred = model.forward_batch(chunk, graph)
            loss = objective([(pred, labels)], cfg, s3im_cfg)
            loss.backward()
            if cfg.lr > 0:
                optimizer_step(adam, cfg.lr)
            epoch_loss += loss.item()
            # The graph's forward arrays would otherwise live through the next forward.
            del pred, loss
        val_loss, val_mae = _score(model, val_split, graph, cfg, s3im_cfg)
        history.append(EpochStats(epoch, epoch_loss, val_loss, val_mae))
        if val_mae < best_mae:
            best_mae = val_mae
            best_epoch = epoch
            best_values = [p.snapshot() for p in model.params()]
    if best_values is None:
        raise NumericError(
            f"validation MAE was non-finite in all {cfg.epochs} epochs "
            f"(last: {history[-1].val_mae})"
        )
    for p, v in zip(model.params(), best_values):
        p.restore(v)
    return TrainResult(history, best_epoch, splits)


def evaluate_mae(model, orders, graph) -> MaeResult:
    """Mean absolute error in km plus the residuals, in the order of ``orders``."""
    if not orders:
        raise ConfigError("cannot evaluate on an empty set")
    pairs = _collect_predictions(model, orders, graph)
    # bucket_by_t's order: by (t, order_id), ties in input order.
    in_buckets = np.lexsort(([o.order_id for o in orders], [o.t for o in orders]))
    residuals = np.empty(len(orders))
    residuals[in_buckets] = np.concatenate([p - y for p, y in pairs])
    absolute = np.abs(residuals)
    return MaeResult(float(absolute.mean()), float(absolute.std(ddof=0)),
                     residuals)
