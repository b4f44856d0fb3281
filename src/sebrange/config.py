"""Flat dotted-key run configuration: file + flag overrides, strict keys.

The config file format is one ``key=value`` per line; ``#`` starts a
comment. Command-line ``--set key=value`` overrides file values; dedicated
flags (``--seed``, ``--orders``, ...) override both. Unknown keys are
rejected. The fully resolved configuration serializes to a canonical sorted
text block that is echoed into every output directory as ``config.resolved``
and hashed into checkpoints.

Each key sets one field of a config dataclass (``seed`` sets two), and its
default is that field's default: this module holds the key names and the
text format, the dataclasses hold the values.
"""

import hashlib
import os

from .datagen import GeneratorConfig
from .errors import ConfigError, utf8_error
from .model import ModelConfig
from .s3im import S3imConfig
from .training import TrainConfig


def _same(group, *names):
    """Keys ``group.name`` that set the field of the same name."""
    return {f"{group}.{name}": name for name in names}


# Config key -> the field it sets, per dataclass. ``seed`` seeds both the
# generator and the split/shuffle streams.
KEY_FIELDS = {
    GeneratorConfig: {
        "seed": "seed", "gen.orders": "n_orders", "gen.users": "n_users",
        "gen.batteries": "n_batteries", "gen.stations": "n_stations",
        **_same("gen", "horizon", "ride_mean", "ride_sd", "noise"),
    },
    TrainConfig: {
        "seed": "seed", "train.batch": "batch_size", "s3im.L": "s3im_L",
        **_same("train", "epochs", "lr", "train_frac", "val_frac", "test_frac",
                "s3im_weight"),
    },
    S3imConfig: _same("s3im", "k1", "k2"),
    ModelConfig: _same("model", "embed_dim", "dqk", "ffn_dim", "node_dim",
                       "gnn_layers", "gnn_hidden", "window", "mlp_hidden",
                       "baseline_hidden"),
}

DEFAULTS = {key: getattr(cls, name)
            for cls, keys in KEY_FIELDS.items() for key, name in keys.items()}

# Keys that accept either "auto" or a float.
_AUTO_FLOAT_KEYS = {key for key, value in DEFAULTS.items() if value == "auto"}

RESOLVED_FILENAME = "config.resolved"


def _coerce(key: str, raw):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    if key in _AUTO_FLOAT_KEYS:
        if raw == "auto":
            return "auto"
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key} must be 'auto' or a number, got {raw!r}") from None
    if isinstance(DEFAULTS[key], int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


class RunConfig:
    """Resolved configuration with canonical serialization and hashing."""

    def __init__(self, values: dict):
        self.values = dict(values)

    @classmethod
    def load(cls, path=None, overrides=()) -> "RunConfig":
        values = dict(DEFAULTS)
        if path is not None:
            values.update(cls._parse_file(path))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must look like key=value, got {item!r}")
            key, raw = item.split("=", 1)
            key = key.strip()
            values[key] = _coerce(key, raw)
        return cls(values)

    @staticmethod
    def _parse_file(path) -> dict:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        out = {}
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                if bad := utf8_error(line):
                    raise ConfigError(f"{path}:{line_no}: {bad}")
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{line_no}: expected key=value, got {line!r}"
                    )
                key, raw = line.split("=", 1)
                key = key.strip()
                out[key] = _coerce(key, raw)
        return out

    def get(self, key: str):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, value):
        self.values[key] = _coerce(key, value)

    def resolved_text(self) -> str:
        lines = [f"{k}={_format_value(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()

    def write_resolved(self, dirpath):
        os.makedirs(dirpath, exist_ok=True)
        with open(os.path.join(dirpath, RESOLVED_FILENAME), "w", newline="\n") as fh:
            fh.write(self.resolved_text())

    # -- dataclass factories -------------------------------------------------

    def _build(self, cls, **extra):
        """A ``cls`` whose keyed fields take this config's values."""
        kwargs = {name: self.get(key) for key, name in KEY_FIELDS[cls].items()}
        return cls(**kwargs, **extra)

    def generator_config(self) -> GeneratorConfig:
        return self._build(GeneratorConfig)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, s3im=self._build(S3imConfig))

    def model_config(self) -> ModelConfig:
        return self._build(ModelConfig)
