"""Versioned model checkpoints with bit-exact reload.

A checkpoint is an npz container holding every parameter array as float64
plus a JSON metadata record: format tag, model kind, architecture config,
node counts, and the hash of the resolved run configuration that produced
it. Loading rebuilds the model and overwrites every parameter, so reloaded
predictions match the saved model bit for bit.
"""

import json
from dataclasses import asdict

import numpy as np

from .errors import CheckpointMismatch, NumericError
from .model import LinearBaseline, MlpBaseline, ModelConfig, SebTransformer
from .rng import Rng

CKPT_FORMAT = "seb-ckpt v1"


def save_checkpoint(path, model, config_hash: str, trained_as: str = None):
    """Write the model to ``path``; raises NumericError, writing nothing,
    when any parameter is non-finite."""
    meta = {
        "format": CKPT_FORMAT,
        "kind": model.kind,
        "trained_as": trained_as or model.kind,
        "config_hash": config_hash,
        "model_config": asdict(model.cfg),
        "n_users": getattr(model, "n_users", 0),
        "n_batteries": getattr(model, "n_batteries", 0),
    }
    arrays = {}
    if model.kind == "lr":
        arrays["coef"] = model.coef
    else:
        for p in model.params():
            if not np.isfinite(p.value).all():
                raise NumericError(
                    f"parameter {p.name} has non-finite values; checkpoint not saved")
            arrays["param:" + p.name] = p.value
        arrays["scaler_mean"] = model.scaler.mean
        arrays["scaler_sd"] = model.scaler.sd
    np.savez(path, __meta__=json.dumps(meta, sort_keys=True), **arrays)


def load_checkpoint(path):
    """Rebuild the saved model; returns (model, meta)."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format") != CKPT_FORMAT:
            raise CheckpointMismatch(
                f"unsupported checkpoint format {meta.get('format')!r}"
            )
        cfg = ModelConfig(**meta["model_config"])
        kind = meta["kind"]
        if kind == "lr":
            model = LinearBaseline(cfg)
            model.coef = np.array(data["coef"], dtype=np.float64)
            return model, meta
        # Init values are fully overwritten below; the rng is a placeholder.
        rng = Rng(0)
        if kind == "mlp":
            model = MlpBaseline(cfg, rng)
        elif kind in ("seb", "transformer"):
            model = SebTransformer(cfg, meta["n_users"], meta["n_batteries"], rng)
        else:
            raise CheckpointMismatch(f"unknown model kind {kind!r}")
        for p in model.params():
            key = "param:" + p.name
            if key not in data:
                raise CheckpointMismatch(f"checkpoint is missing {key}")
            p.value[...] = data[key]
        model.scaler.mean = np.array(data["scaler_mean"], dtype=np.float64)
        model.scaler.sd = np.array(data["scaler_sd"], dtype=np.float64)
        return model, meta


def verify_config_hash(meta: dict, expected_hash: str):
    if meta.get("config_hash") != expected_hash:
        raise CheckpointMismatch(
            "checkpoint was produced under a different resolved configuration "
            f"(stored {meta.get('config_hash')!r}, current {expected_hash!r})"
        )
