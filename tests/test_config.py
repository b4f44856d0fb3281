"""Run configuration: parsing, overrides, strict keys, canonical hashing."""

from dataclasses import MISSING, fields, replace

import pytest

from sebrange.config import DEFAULTS, KEY_FIELDS, RunConfig
from sebrange.datagen import GeneratorConfig
from sebrange.errors import ConfigError
from sebrange.model import ModelConfig
from sebrange.s3im import S3imConfig
from sebrange.training import TrainConfig


def test_defaults_load():
    rc = RunConfig.load()
    assert rc.get("seed") == 42
    assert rc.get("gen.orders") == 2000
    assert rc.get("s3im.L") == "auto"


def test_file_parse_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# benchmark overrides\n"
        "gen.orders = 500   # smaller run\n"
        "\n"
        "train.lr=0.001\n"
        "model.window=2\n"
    )
    rc = RunConfig.load(path)
    assert rc.get("gen.orders") == 500
    assert rc.get("train.lr") == 0.001
    assert rc.get("model.window") == 2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gen.bogus=1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.load(path)
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.load(overrides=["nope=3"])


def test_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=7\n")
    rc = RunConfig.load(path, overrides=["seed=9"])
    assert rc.get("seed") == 9


def test_type_coercion_errors():
    with pytest.raises(ConfigError):
        RunConfig.load(overrides=["gen.orders=2.5"])
    with pytest.raises(ConfigError):
        RunConfig.load(overrides=["train.lr=fast"])
    with pytest.raises(ConfigError):
        RunConfig.load(overrides=["s3im.L=sometimes"])


def test_auto_keys_accept_numbers():
    rc = RunConfig.load(overrides=["s3im.L=35.5"])
    assert rc.get("s3im.L") == 35.5


def test_resolved_text_covers_all_keys_sorted():
    rc = RunConfig.load()
    lines = rc.resolved_text().strip().split("\n")
    assert len(lines) == len(DEFAULTS)
    keys = [l.split("=", 1)[0] for l in lines]
    assert keys == sorted(keys)


def test_hash_changes_with_values():
    a = RunConfig.load()
    b = RunConfig.load(overrides=["seed=43"])
    assert a.hash() != b.hash()
    assert a.hash() == RunConfig.load().hash()


def test_write_resolved_round_trips(tmp_path):
    rc = RunConfig.load(overrides=["gen.noise=0.05"])
    rc.write_resolved(tmp_path)
    body = (tmp_path / "config.resolved").read_text()
    assert "gen.noise=0.05" in body
    reloaded = RunConfig.load(tmp_path / "config.resolved")
    assert reloaded.hash() == rc.hash()


def test_missing_config_file():
    with pytest.raises(FileNotFoundError):
        RunConfig.load("/nonexistent/path.cfg")


def test_factories_produce_valid_dataclasses():
    rc = RunConfig.load(overrides=["gen.orders=300"])
    gcfg = rc.generator_config()
    gcfg.validate()
    assert gcfg.n_orders == 300
    tcfg = replace(rc.train_config(), s3im_enabled=True)
    tcfg.validate()
    assert tcfg.s3im_enabled
    mcfg = rc.model_config()
    assert mcfg.fusion_in == 2 * mcfg.embed_dim + 2 * mcfg.gnn_hidden


# One value off its default for every key, distinct within each dataclass.
OFF_DEFAULT = {
    "seed": "7", "gen.orders": "300", "gen.users": "50", "gen.batteries": "30",
    "gen.stations": "5", "gen.horizon": "20", "gen.ride_mean": "250.5",
    "gen.ride_sd": "30.25", "gen.noise": "0.05",
    "train.epochs": "3", "train.lr": "0.01", "train.batch": "16",
    "train.train_frac": "0.5", "train.val_frac": "0.3", "train.test_frac": "0.2",
    "train.s3im_weight": "0.75",
    "model.embed_dim": "8", "model.dqk": "12", "model.ffn_dim": "24",
    "model.node_dim": "6", "model.gnn_layers": "3", "model.gnn_hidden": "5",
    "model.window": "2", "model.mlp_hidden": "20", "model.baseline_hidden": "40",
    "s3im.k1": "0.02", "s3im.k2": "0.05", "s3im.L": "25.0",
}


def _off(*keys):
    return RunConfig.load(overrides=[f"{k}={OFF_DEFAULT[k]}" for k in keys])


def _built(rc):
    tcfg = rc.train_config()
    return {GeneratorConfig: rc.generator_config(), TrainConfig: tcfg,
            S3imConfig: tcfg.s3im, ModelConfig: rc.model_config()}


def test_resolved_hashes_pinned():
    # config.resolved, and so every checkpoint's config hash, is the same
    # text whichever module holds the defaults.
    assert RunConfig.load().hash() == (
        "78e50e635150a84ba797b3ae006d479c2b74fb44c3b322c7f159f71963d74459")
    assert _off(*OFF_DEFAULT).hash() == (
        "0362229ee2d1df2fe1fb14bcb98b47220b3efc677aaabd33e558e8ef42b68dbe")


def test_each_key_sets_only_its_field():
    assert set(OFF_DEFAULT) == set(DEFAULTS)
    base = _built(RunConfig.load())
    for cls, obj in base.items():
        for f in fields(cls):
            if f.default is not MISSING:
                assert getattr(obj, f.name) == f.default, (cls, f.name)
    for key in OFF_DEFAULT:
        rc = _off(key)
        built = _built(rc)
        changed = {(cls, f.name) for cls, obj in built.items() for f in fields(cls)
                   if f.name != "s3im" and getattr(obj, f.name) != getattr(base[cls], f.name)}
        named = {(cls, keys[key]) for cls, keys in KEY_FIELDS.items() if key in keys}
        assert changed == named and len(named) == (2 if key == "seed" else 1), key
        for cls, name in named:
            assert getattr(built[cls], name) == rc.get(key) != DEFAULTS[key], key


def test_fields_without_a_key():
    keyed = {(cls, name) for cls, keys in KEY_FIELDS.items() for name in keys.values()}
    unkeyed = {(cls.__name__, f.name) for cls in KEY_FIELDS for f in fields(cls)
               if (cls, f.name) not in keyed}
    assert unkeyed == {
        ("ModelConfig", "seq_len"), ("ModelConfig", "n_features"),
        ("ModelConfig", "use_graph"), ("TrainConfig", "s3im_enabled"),
        ("TrainConfig", "s3im"), ("S3imConfig", "dynamic_range"),
    }


def test_non_utf8_config_file_names_its_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"# seeds\nseed=4\xff2\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: invalid UTF-8 byte 0xff"):
        RunConfig.load(path)
    path.write_bytes(b"gen.bogus=1\nseed=4\xff2\n")
    with pytest.raises(ConfigError, match="unknown config key 'gen.bogus'"):
        RunConfig.load(path)
    path.write_bytes("seed=4  # café\n".encode())
    assert RunConfig.load(path).get("seed") == 4
