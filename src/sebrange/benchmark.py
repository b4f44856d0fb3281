"""Benchmark harness: trains every retained model on an identical split
and reports test MAE plus relative improvement over the vanilla
transformer baseline.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .model import LinearBaseline, MlpBaseline, ModelConfig, SebTransformer
from .rng import Rng, derive_seed
from .training import TrainConfig, TrainResult, evaluate_mae, train

BENCH_MODELS = ("lr", "mlp", "transformer", "seb", "seb-s3im")
_MODEL_RNG_KEYS = {"lr": 11, "mlp": 12, "transformer": 13, "seb": 14, "seb-s3im": 15}


def relative_improvement(base_mae: float, new_mae: float) -> float:
    """(base - new) / base, as a percentage."""
    return (base_mae - new_mae) / base_mae * 100.0


def build_model(kind: str, mcfg: ModelConfig, n_users: int, n_batteries: int,
                seed: int):
    if kind not in BENCH_MODELS:
        raise ConfigError(f"unknown model {kind!r}, expected one of {BENCH_MODELS}")
    mcfg.validate()
    rng = Rng(derive_seed(seed, _MODEL_RNG_KEYS[kind]))
    if kind == "lr":
        return LinearBaseline(mcfg)
    if kind == "mlp":
        return MlpBaseline(mcfg, rng)
    cfg = replace(mcfg, use_graph=(kind != "transformer"))
    return SebTransformer(cfg, n_users, n_batteries, rng)


def train_model(kind: str, model, orders, graph, cfg: TrainConfig) -> TrainResult:
    model_cfg = replace(cfg, s3im_enabled=(kind == "seb-s3im"))
    return train(model, orders, graph, model_cfg)


@dataclass
class BenchRow:
    model: str
    mae_mean: float
    mae_std: float
    improvement_vs_transformer_pct: float = float("nan")
    weights_sha256: str = ""
    residuals_sha256: str = ""


@dataclass
class BenchmarkResult:
    rows: list
    histories: dict
    improvement_pct: float


def run_benchmark(orders, graph, mcfg: ModelConfig, cfg: TrainConfig,
                  models=BENCH_MODELS) -> BenchmarkResult:
    """Train and evaluate every model on the same train/val/test split."""
    rows = []
    histories = {}
    for kind in models:
        model = build_model(kind, mcfg, graph.n_users, graph.n_batteries,
                            cfg.seed)
        result = train_model(kind, model, orders, graph, cfg)
        test_split = result.splits[2]
        mae = evaluate_mae(model, test_split, graph)
        rows.append(BenchRow(kind, mae.mean, mae.std,
                             weights_sha256=_sha256(p.value for p in model.params()),
                             residuals_sha256=_sha256([mae.residuals])))
        histories[kind] = result.history
    by_kind = {r.model: r for r in rows}
    improvement = float("nan")
    if "transformer" in by_kind:
        base = by_kind["transformer"].mae_mean
        for r in rows:
            r.improvement_vs_transformer_pct = relative_improvement(base, r.mae_mean)
        if "seb-s3im" in by_kind:
            improvement = by_kind["seb-s3im"].improvement_vs_transformer_pct
    return BenchmarkResult(rows, histories, improvement)


def _sha256(arrays) -> str:
    """SHA-256 of the arrays' bytes, in order."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def metrics_csv_text(result: BenchmarkResult) -> str:
    lines = ["model,mae_mean,mae_std,improvement_vs_transformer_pct"]
    for r in result.rows:
        lines.append(
            f"{r.model},{r.mae_mean!r},{r.mae_std!r},"
            f"{r.improvement_vs_transformer_pct!r}"
        )
    return "\n".join(lines) + "\n"


def loss_csv_text(history) -> str:
    lines = ["epoch,train_loss,val_loss"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.val_loss!r}")
    return "\n".join(lines) + "\n"
