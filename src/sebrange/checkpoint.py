"""Versioned model checkpoints with bit-exact reload.

A checkpoint is an npz container holding the float64 arrays the model's
``checkpoint_arrays`` names, plus a JSON metadata record: format tag, model
kind, architecture config, node counts, and the hash of the resolved run
configuration that produced it. Loading rebuilds the model and overwrites
each of those arrays, so reloaded predictions match the saved model bit for bit.
"""

import io
import json
import zipfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile

from .benchmark import BENCH_MODELS, build_model
from .errors import CheckpointMismatch, ConfigError, InputError, NumericError
from .model import ModelConfig

CKPT_FORMAT = "seb-ckpt v2"
META_KEYS = ("format", "kind", "trained_as", "config_hash", "model_config",
             "n_users", "n_batteries")


def save_checkpoint(path, model, config_hash: str, trained_as: str = None):
    """Write the model to ``path``; raises NumericError, writing nothing,
    when any saved array, a parameter or the scaler's, is non-finite."""
    meta = {
        "format": CKPT_FORMAT,
        "kind": model.kind,
        "trained_as": trained_as or model.kind,
        "config_hash": config_hash,
        "model_config": asdict(model.cfg),
        "n_users": getattr(model, "n_users", 0),
        "n_batteries": getattr(model, "n_batteries", 0),
    }
    arrays = model.checkpoint_arrays()
    for key, value in arrays.items():
        if not np.isfinite(value).all():
            raise NumericError(f"{key} has non-finite values; checkpoint not saved")
    np.savez(path, __meta__=json.dumps(meta, sort_keys=True), **arrays)


def load_checkpoint(path):
    """Rebuild the saved model; returns (model, meta). Raises InputError when
    ``path`` is not an npz archive, CheckpointMismatch when its contents are
    not a checkpoint this code can rebuild."""
    try:
        # Read whole: np.load leaves the file it opened unclosed when the archive is bad.
        data = np.load(io.BytesIO(Path(path).read_bytes()), allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise InputError(f"checkpoint {path} is not a readable npz archive "
                         f"({type(exc).__name__})") from None
    if not isinstance(data, NpzFile):
        raise InputError(f"checkpoint {path} is not an npz archive (a single array)")
    with data:
        meta = _saved_meta(data)
        if meta.get("format") != CKPT_FORMAT:
            raise CheckpointMismatch(
                f"unsupported checkpoint format {meta.get('format')!r}, "
                f"expected {CKPT_FORMAT!r}; retrain the model"
            )
        if missing := [key for key in META_KEYS if key not in meta]:
            raise CheckpointMismatch(f"checkpoint metadata lacks {', '.join(missing)}")
        for key in ("n_users", "n_batteries"):
            if type(meta[key]) is not int or meta[key] < 0:
                raise CheckpointMismatch(
                    f"checkpoint {key} must be an integer >= 0, got {meta[key]!r}")
        _check_model_config(meta["model_config"])
        # Init values are fully overwritten below; the seed is a placeholder.
        # A saved kind is a model's own kind, so "seb-s3im" (a seb) is unknown.
        kind = meta["kind"]
        model = build_model(kind, ModelConfig(**meta["model_config"]), meta["n_users"],
                            meta["n_batteries"], seed=0) if kind in BENCH_MODELS else None
        if getattr(model, "kind", None) != kind:
            raise CheckpointMismatch(f"unknown model kind {kind!r}")
        for key, live in model.checkpoint_arrays().items():
            live[...] = _saved_array(data, key, live.shape)
        return model, meta


def _saved_meta(data) -> dict:
    """The checkpoint's JSON metadata record."""
    if "__meta__" not in data:
        raise CheckpointMismatch("checkpoint has no __meta__ record")
    try:
        meta = json.loads(str(data["__meta__"]))
    except ValueError as exc:
        raise CheckpointMismatch(f"checkpoint __meta__ is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointMismatch(f"checkpoint __meta__ is not a record: {meta!r}")
    return meta


def _saved_array(data, key: str, shape) -> np.ndarray:
    """The float64 array ``key`` of a checkpoint, which must have ``shape``."""
    if key not in data:
        raise CheckpointMismatch(f"checkpoint is missing {key}")
    array = data[key]
    if array.dtype != np.float64 or array.shape != shape:
        raise CheckpointMismatch(
            f"checkpoint {key} is {array.dtype} {array.shape}, the model needs "
            f"float64 {shape}")
    return array


def _check_model_config(saved):
    """Raise CheckpointMismatch unless ``saved`` has exactly ModelConfig's
    fields and passes ``ModelConfig.validate``."""
    if not isinstance(saved, dict):
        raise CheckpointMismatch(f"checkpoint model_config is not a record: {saved!r}")
    names = {f.name for f in fields(ModelConfig)}
    problems = []
    if unknown := sorted(set(saved) - names):
        problems.append(f"unknown fields {', '.join(unknown)}")
    if missing := sorted(names - set(saved)):
        problems.append(f"missing fields {', '.join(missing)}")
    if problems:
        raise CheckpointMismatch(f"checkpoint model_config has {' and '.join(problems)}")
    try:
        ModelConfig(**saved).validate()
    except ConfigError as exc:
        raise CheckpointMismatch(f"checkpoint model_config: {exc}") from None


def verify_config_hash(meta: dict, expected_hash: str):
    if meta.get("config_hash") != expected_hash:
        raise CheckpointMismatch(
            "checkpoint was produced under a different resolved configuration "
            f"(stored {meta.get('config_hash')!r}, current {expected_hash!r})"
        )
