"""CLI command flows, exit codes, output files."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sebrange
from sebrange.cli import main

# Small-but-real settings so command flows finish quickly.
FAST = [
    "--set", "gen.orders=160", "--set", "gen.users=80",
    "--set", "gen.batteries=30", "--set", "gen.stations=4",
    "--set", "gen.horizon=8", "--set", "train.epochs=2",
    "--set", "model.embed_dim=6", "--set", "model.dqk=6",
    "--set", "model.ffn_dim=8", "--set", "model.node_dim=4",
    "--set", "model.gnn_layers=1", "--set", "model.gnn_hidden=4",
    "--set", "model.mlp_hidden=8", "--set", "model.baseline_hidden=8",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["gen", *FAST, "--seed", "42", "--out", str(out)]) == 0
    return out


def test_gen_writes_dataset_and_config(dataset_dir):
    names = set(os.listdir(dataset_dir))
    assert {"orders.seb", "graph.seb", "config.resolved"} <= names


def test_gen_deterministic(tmp_path, dataset_dir):
    again = tmp_path / "again"
    assert main(["gen", *FAST, "--seed", "42", "--out", str(again)]) == 0
    for name in ("orders.seb", "graph.seb", "config.resolved"):
        assert (again / name).read_bytes() == (dataset_dir / name).read_bytes()


def test_gen_zero_orders_exit_2(tmp_path):
    code = main(["gen", "--orders", "0", "--out", str(tmp_path / "x")])
    assert code == 2


def test_train_eval_flow(dataset_dir, tmp_path):
    run = tmp_path / "run"
    code = main(["train", *FAST, "--seed", "42", "--model", "seb",
                 "--data", str(dataset_dir), "--out", str(run)])
    assert code == 0
    assert (run / "model.ckpt.npz").exists()
    loss = (run / "loss.csv").read_text().strip().split("\n")
    assert loss[0] == "epoch,train_loss,val_loss"
    assert len(loss) == 3  # header + 2 epochs

    code = main(["eval", *FAST, "--seed", "42", "--data", str(dataset_dir),
                 "--ckpt", str(run / "model.ckpt.npz")])
    assert code == 0


@pytest.fixture(scope="module")
def one_epoch_run(dataset_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("one_epoch")
    assert main(["train", *FAST, "--seed", "42", "--model", "seb", "--epochs", "1",
                 "--data", str(dataset_dir), "--out", str(run)]) == 0
    return run


def test_epochs_flag_sets_the_epoch_count(one_epoch_run):
    loss = (one_epoch_run / "loss.csv").read_text().strip().split("\n")
    assert len(loss) == 2  # header + 1 epoch
    assert "train.epochs=1\n" in (one_epoch_run / "config.resolved").read_text()


def test_eval_out_writes_scores_and_config(dataset_dir, one_epoch_run, tmp_path, capsys):
    out = tmp_path / "scores"
    code = main(["eval", *FAST, "--seed", "42", "--set", "train.epochs=1", "--data",
                 str(dataset_dir), "--ckpt", str(one_epoch_run / "model.ckpt.npz"),
                 "--out", str(out)])
    assert code == 0
    mae_mean, mae_std = capsys.readouterr().out.split()[1::3]
    assert (out / "eval.csv").read_text() == (
        f"model,mae_mean,mae_std\nseb,{mae_mean},{mae_std}\n")
    assert (out / "config.resolved").read_bytes() == (
        one_epoch_run / "config.resolved").read_bytes()


def test_eval_missing_checkpoint_exit_3(dataset_dir, tmp_path, capsys):
    ckpt = tmp_path / "none.ckpt.npz"
    code, err = _one_error_line(capsys, ["eval", *FAST, "--data", str(dataset_dir),
                                         "--ckpt", str(ckpt)])
    assert code == 3
    assert err == f"missing input: checkpoint not found: {ckpt}\n"


def test_eval_config_mismatch_exit_4(dataset_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train", *FAST, "--seed", "42", "--model", "mlp",
                 "--data", str(dataset_dir), "--out", str(run)]) == 0
    code = main(["eval", *FAST, "--seed", "99", "--data", str(dataset_dir),
                 "--ckpt", str(run / "model.ckpt.npz")])
    assert code == 4


def _drop_n_batteries(meta, arrays):
    del meta["n_batteries"]


def _add_old_block_fields(meta, arrays):
    # Fields that checkpoints written before the encoder block lost its
    # toggles still carry.
    meta["model_config"].update(dv=6, residual=True, layer_norm=True)


def _format_v1(meta, arrays):
    # Format v1 stored the attention weights as (d_out, d).
    meta["format"] = "seb-ckpt v1"


def _model_config_int(meta, arrays):
    meta["model_config"] = 5


def _text_width(meta, arrays):
    meta["model_config"]["baseline_hidden"] = "x"


def _cut_first_layer(meta, arrays):
    arrays["param:mlp.w0"] = arrays["param:mlp.w0"][:1]


def _cut_scaler_sd(meta, arrays):
    arrays["scaler_sd"] = arrays["scaler_sd"][:5]


def _drop_first_layer(meta, arrays):
    del arrays["param:mlp.w0"]


def _drop_model_config_field(meta, arrays):
    del meta["model_config"]["dqk"]


# The edits below replace the whole __meta__ record; None leaves it out.
def _no_meta(meta, arrays):
    arrays["__meta__"] = None


def _meta_not_json(meta, arrays):
    arrays["__meta__"] = "{format: v2"


def _meta_array(meta, arrays):
    arrays["__meta__"] = json.dumps([meta])


def _text_n_batteries(meta, arrays):
    meta["n_batteries"] = "x"


def _float_n_users(meta, arrays):
    meta["n_users"] = 80.0


@pytest.mark.parametrize("kind, edit, message", [
    ("seb", _add_old_block_fields,
     "checkpoint model_config has unknown fields dv, layer_norm, residual"),
    ("seb", _drop_n_batteries, "checkpoint metadata lacks n_batteries"),
    ("seb", _format_v1,
     "unsupported checkpoint format 'seb-ckpt v1', expected 'seb-ckpt v2'; retrain the model"),
    ("mlp", _model_config_int, "checkpoint model_config is not a record: 5"),
    ("mlp", _text_width,
     "checkpoint model_config: model.baseline_hidden must be an integer >= 1, got 'x'"),
    ("mlp", _cut_first_layer,
     "checkpoint param:mlp.w0 is float64 (1, 8), the model needs float64 (384, 8)"),
    ("seb", _cut_scaler_sd,
     "checkpoint scaler_sd is float64 (5,), the model needs float64 (6,)"),
    ("mlp", _drop_first_layer, "checkpoint is missing param:mlp.w0"),
    ("seb", _drop_model_config_field, "checkpoint model_config has missing fields dqk"),
    ("mlp", _no_meta, "checkpoint has no __meta__ record"),
    ("mlp", _meta_not_json, "checkpoint __meta__ is not JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("mlp", _meta_array, "checkpoint __meta__ is not a record: [{"),
    ("seb", _text_n_batteries, "checkpoint n_batteries must be an integer >= 0, got 'x'"),
    ("seb", _float_n_users, "checkpoint n_users must be an integer >= 0, got 80.0"),
], ids=["old-model-config", "missing-meta-key", "format-v1", "model-config-int",
        "text-width", "cut-weight", "cut-scaler", "dropped-weight",
        "dropped-model-config-field", "no-meta", "meta-not-json",
        "meta-array", "text-n-batteries", "float-n-users"])
def test_eval_bad_checkpoint_metadata_exit_4(dataset_dir, tmp_path, capsys, kind, edit,
                                             message):
    run = tmp_path / "run"
    assert main(["train", *FAST, "--seed", "42", "--model", kind,
                 "--data", str(dataset_dir), "--out", str(run)]) == 0
    ckpt = run / "model.ckpt.npz"
    with np.load(ckpt) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays.pop("__meta__")))
    edit(meta, arrays)
    arrays.setdefault("__meta__", json.dumps(meta, sort_keys=True))
    np.savez(ckpt, **{key: a for key, a in arrays.items() if a is not None})
    capsys.readouterr()
    code = main(["eval", *FAST, "--seed", "42", "--data", str(dataset_dir),
                 "--ckpt", str(ckpt)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint mismatch: {message}") and err.count("\n") == 1


def _write_npy(ckpt):
    with open(ckpt, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("make, message", [
    (lambda ckpt: ckpt.write_text("model = seb\n"), "a readable npz archive (ValueError)"),
    (lambda ckpt: ckpt.write_bytes(b""), "a readable npz archive (EOFError)"),
    (lambda ckpt: ckpt.write_bytes(ckpt.read_bytes()[:2000]),
     "a readable npz archive (BadZipFile)"),
    (lambda ckpt: (ckpt.unlink(), ckpt.mkdir()),
     "a readable npz archive (IsADirectoryError)"),
    (_write_npy, "an npz archive (a single array)"),
], ids=["text", "empty", "truncated", "directory", "npy"])
def test_eval_unreadable_checkpoint_exit_3(dataset_dir, tmp_path, capsys, make, message):
    run = tmp_path / "run"
    assert main(["train", *FAST, "--seed", "42", "--model", "mlp",
                 "--data", str(dataset_dir), "--out", str(run)]) == 0
    ckpt = run / "model.ckpt.npz"
    make(ckpt)
    capsys.readouterr()
    code = main(["eval", *FAST, "--seed", "42", "--data", str(dataset_dir),
                 "--ckpt", str(ckpt)])
    assert code == 3
    assert capsys.readouterr().err == f"input error: checkpoint {ckpt} is not {message}\n"


def test_missing_dataset_exit_3(tmp_path):
    code = main(["train", *FAST, "--model", "seb",
                 "--data", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o")])
    assert code == 3


def test_corrupt_dataset_exit_3(dataset_dir, tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "orders.seb").write_text("#seb-orders v1 F=6\n0,0,0,0,banana,1\n")
    (bad / "graph.seb").write_text((dataset_dir / "graph.seb").read_text())
    code = main(["train", *FAST, "--model", "mlp", "--data", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def _corrupt_field(src, dst, line_no, field, value):
    """Copy a dataset, replacing one comma-separated field of one orders.seb
    line (1-based)."""
    dst.mkdir()
    lines = (src / "orders.seb").read_text().split("\n")
    parts = lines[line_no - 1].split(",")
    parts[field] = value
    lines[line_no - 1] = ",".join(parts)
    (dst / "orders.seb").write_text("\n".join(lines))
    (dst / "graph.seb").write_text((src / "graph.seb").read_text())


def _one_error_line(capsys, argv):
    """Run ``main(argv)``: its exit code and its one line of stderr."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return code, err


def _input_error(capsys, argv):
    code, err = _one_error_line(capsys, argv)
    assert err.startswith("input error: ")
    return code, err


# Line 2 is order 0's metadata; line 67 is order 1's; line 8 is order 0's
# sixth telemetry row.
@pytest.mark.parametrize("where, line_no, field, value", [
    ("telemetry", 8, 2, "nan"),
    ("ride_length", 2, 4, "nan"),
    ("label", 67, 5, "inf"),
])
def test_non_finite_input_exit_3(dataset_dir, tmp_path, capsys,
                                 where, line_no, field, value):
    bad = tmp_path / where
    _corrupt_field(dataset_dir, bad, line_no, field, value)
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"orders.seb:{line_no}: non-finite" in err


@pytest.mark.parametrize("field, value", [
    (1, "-1"), (2, "30"), (3, "8"),
    (1, "100000000000000000000"), (2, "-100000000000000000000"),
])
def test_order_outside_graph_exit_3(dataset_dir, tmp_path, capsys, field, value):
    # FAST has 80 users, 30 batteries and horizon 8: each value is one past
    # the graph's #dims (or below 0) for its column, or beyond int64.
    bad = tmp_path / "outside"
    _corrupt_field(dataset_dir, bad, 67, field, value)
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "orders.seb:67: order " in err and "outside the graph's #dims" in err


# Line 3 of graph.seb is its first swap record; each case rewrites line 4,
# the second, and None makes it repeat the first.
@pytest.mark.parametrize("field, value, why", [
    (1, "80", "user index 80 out of range"),
    (2, "-1", "battery index -1 out of range"),
    (0, "8", "timestep 8 out of range"),
    (None, None, "already present"),
])
def test_bad_graph_record_exit_3(dataset_dir, tmp_path, capsys, field, value, why):
    bad = tmp_path / "graph"
    shutil.copytree(dataset_dir, bad)
    lines = (bad / "graph.seb").read_text().split("\n")
    parts = lines[2 if field is None else 3].split(",")
    if field is not None:
        parts[field] = value
    lines[3] = ",".join(parts)
    (bad / "graph.seb").write_text("\n".join(lines))
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "graph.seb:4: " in err and why in err


@pytest.mark.parametrize("lines, line_no, why", [
    (lambda lines: lines[:1] + lines[2:], 2, "missing #dims line"),
    (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:], 4,
     "expected 4 fields, got 3"),
], ids=["no-dims", "three-fields"])
def test_bad_graph_layout_exit_3(dataset_dir, tmp_path, capsys, lines, line_no, why):
    bad = tmp_path / "graph"
    shutil.copytree(dataset_dir, bad)
    text = (bad / "graph.seb").read_text().split("\n")
    (bad / "graph.seb").write_text("\n".join(lines(text)))
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"graph.seb:{line_no}: {why}" in err


def test_negative_label_exit_3(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "negative"
    _corrupt_field(dataset_dir, bad, 2, 5, "-1.0")
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "orders.seb:2: label must be nonnegative, got -1.0" in err


def test_duplicate_order_id_exit_3(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "dup"
    _corrupt_field(dataset_dir, bad, 67, 0, "0")  # order 1 takes order 0's id
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "orders.seb:67: duplicate order id 0" in err


def test_order_without_swap_edge_exit_3(dataset_dir, tmp_path, capsys):
    # A battery serves one user per timestep, so order 1's battery with
    # another in-range user has no swap edge.
    meta = (dataset_dir / "orders.seb").read_text().split("\n")[66].split(",")
    bad = tmp_path / "no_edge"
    _corrupt_field(dataset_dir, bad, 67, 1, str((int(meta[1]) + 1) % 80))
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "orders.seb:67: order 1 " in err and "has no swap edge" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_exit_6(dataset_dir, tmp_path, capsys):
    capsys.readouterr()
    code = main(["train", *FAST, "--seed", "42", "--model", "seb",
                 "--lr", "1e300", "--data", str(dataset_dir),
                 "--out", str(tmp_path / "o")])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_diverging_run_prints_one_stderr_line(tmp_path):
    # A fresh interpreter shows numpy's RuntimeWarnings, which pytest filters.
    data = tmp_path / "d"
    assert main(["gen", "--seed", "3", "--orders", "120", "--out", str(data)]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sebrange.__file__)))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "sebrange.cli", "train", "--model", "seb",
         "--lr", "1e300", "--set", "train.epochs=2", "--data", str(data),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 6
    assert proc.stderr.startswith("numeric failure: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("model", ["lr", "seb"])
def test_overflowing_telemetry_exit_6(dataset_dir, tmp_path, capsys, model):
    # 1e200 is finite, but its square is not: the scaler's sd and the lr Gram
    # matrix overflow, and both models once trained with the channel zeroed.
    bad = tmp_path / "overflow"
    bad.mkdir()
    lines = (dataset_dir / "orders.seb").read_text().split("\n")
    for i in range(2, len(lines), 65):  # each order's first telemetry row
        lines[i] = "1e200" + lines[i][lines[i].index(","):]
    (bad / "orders.seb").write_text("\n".join(lines))
    (bad / "graph.seb").write_text((dataset_dir / "graph.seb").read_text())
    code, err = _one_error_line(capsys, [
        "train", *FAST, "--seed", "42", "--model", model,
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 6
    assert err.startswith("numeric failure: telemetry channel 0 overflows float64")
    assert not (tmp_path / "o" / "model.ckpt.npz").exists()


def test_train_twice_identical_loss_csv(dataset_dir, tmp_path):
    outs = (tmp_path / "t1", tmp_path / "t2")
    for out in outs:
        assert main(["train", *FAST, "--seed", "42", "--model", "seb-s3im",
                     "--data", str(dataset_dir), "--out", str(out)]) == 0
    assert (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()


def test_train_zero_lr_smoke(dataset_dir, tmp_path):
    run = tmp_path / "zero_lr"
    code = main(["train", *FAST, "--seed", "42", "--model", "transformer",
                 "--lr", "0", "--data", str(dataset_dir), "--out", str(run)])
    assert code == 0


def test_report_writes_five_rows(dataset_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["report", *FAST, "--seed", "42", "--data", str(dataset_dir),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "model,mae_mean,mae_std,improvement_vs_transformer_pct"
    assert [l.split(",")[0] for l in lines[1:]] == [
        "lr", "mlp", "transformer", "seb", "seb-s3im"]
    for kind in ("lr", "mlp", "transformer", "seb", "seb-s3im"):
        assert (out / f"loss_{kind}.csv").exists()
    printed = capsys.readouterr().out
    assert "relative improvement of seb-s3im over transformer" in printed


def test_eval_perfect_label_fixture(tmp_path, capsys):
    # labels made exactly affine in the flattened telemetry, so the ridge
    # baseline is a perfect-label checkpoint and eval reports MAE ~ 0
    from sebrange.datagen import Order, generate, write_dataset
    from sebrange.config import RunConfig
    from sebrange.rng import Rng

    # enough training rows (0.7 * 900) to pin down all 384 + 1 coefficients
    affine_cfg = [
        "gen.orders=900", "gen.users=300", "gen.batteries=100",
        "gen.stations=4", "gen.horizon=12",
    ]
    rc = RunConfig.load(overrides=affine_cfg)
    orders, graph = generate(rc.generator_config())
    coefs = Rng(77).uniform(-0.001, 0.001, size=(64 * 6,))
    fixed = [
        Order(o.order_id, o.user, o.battery, o.t, o.telemetry, o.ride_length,
              float(30.0 + o.telemetry.reshape(-1) @ coefs))
        for o in orders
    ]
    data = tmp_path / "affine"
    write_dataset(fixed, graph, data)
    set_flags = [f for pair in affine_cfg for f in ("--set", pair)]
    run = tmp_path / "run"
    assert main(["train", *set_flags, "--seed", "42", "--model", "lr",
                 "--data", str(data), "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", *set_flags, "--seed", "42", "--data", str(data),
                 "--ckpt", str(run / "model.ckpt.npz")]) == 0
    printed = capsys.readouterr().out
    mae = float(printed.split()[1])
    assert mae <= 1e-6


def test_gradcheck_single_op(capsys):
    assert main(["gradcheck", "--op", "s3im"]) == 0
    out = capsys.readouterr().out
    assert "s3im" in out and "worst offender" in out


def test_gradcheck_impossible_tolerance_exit_5():
    assert main(["gradcheck", "--op", "s3im", "--tolerance", "1e-12"]) == 5


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan"])
def test_gradcheck_nonpositive_tolerance_exit_2(capsys, tolerance):
    assert main(["gradcheck", "--op", "s3im", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: tolerance")
    assert captured.err.count("\n") == 1


def test_unknown_set_key_exit_2(tmp_path):
    code = main(["gen", "--set", "bogus.key=1", "--out", str(tmp_path / "x")])
    assert code == 2


def test_set_without_equals_exit_2(tmp_path, capsys):
    code, err = _one_error_line(capsys, ["gen", "--set", "seed", "--out", str(tmp_path / "x")])
    assert code == 2
    assert err == "config error: override must look like key=value, got 'seed'\n"


def test_config_line_without_equals_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=4\n# a comment\ngen.orders 120\n")
    code, err = _one_error_line(capsys, ["gen", "--config", str(cfg),
                                         "--out", str(tmp_path / "x")])
    assert code == 2
    assert err == f"config error: {cfg}:3: expected key=value, got 'gen.orders 120'\n"


@pytest.mark.parametrize("setting", ["train.epochs=0", "train.batch=0"])
def test_nonpositive_epochs_or_batch_exit_2(dataset_dir, tmp_path, capsys, setting):
    code, err = _one_error_line(capsys, ["train", *FAST, "--set", setting, "--model", "seb",
                                         "--data", str(dataset_dir),
                                         "--out", str(tmp_path / "o")])
    assert code == 2
    assert err == "config error: epochs and batch size must be positive\n"
    assert not (tmp_path / "o").exists()


# Keys the encoder block and the similarity index no longer have, each with
# the value it used to default to (model.dv at FAST's embed_dim).
@pytest.mark.parametrize("setting", [
    "s3im.alpha=1.0", "s3im.beta=1.0", "s3im.gamma=1.0", "s3im.c3=auto",
    "s3im.sign=one_minus", "s3im.c1_mode=squared", "model.residual=true",
    "model.layer_norm=true", "model.dv=6",
])
def test_deleted_key_exit_2(dataset_dir, tmp_path, capsys, setting):
    capsys.readouterr()
    code = main(["train", *FAST, "--set", setting, "--model", "seb-s3im",
                 "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    key = setting.split("=")[0]
    assert err == f"config error: unknown config key {key!r}\n"


def _with_byte(src, dst, name, line_no, byte=b"\xff"):
    """Copy a dataset, putting ``byte`` after the first comma of one line of ``name``."""
    shutil.copytree(src, dst)
    lines = (dst / name).read_bytes().split(b"\n")
    lines[line_no - 1] = lines[line_no - 1].replace(b",", b"," + byte, 1)
    (dst / name).write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("name, line_no", [
    ("orders.seb", 6), ("orders.seb", 67), ("graph.seb", 6),
])
def test_non_utf8_byte_exit_3(dataset_dir, tmp_path, capsys, name, line_no):
    bad = tmp_path / "bytes"
    _with_byte(dataset_dir, bad, name, line_no)
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"{name}:{line_no}: invalid UTF-8 byte 0xff" in err


def test_non_utf8_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=4\xff2\n")
    capsys.readouterr()
    code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: {cfg}:1: invalid UTF-8 byte 0xff\n"


# Each model key at its first out-of-range value: widths must be at least 1,
# gnn_layers and window at least 0.
MODEL_SETTINGS = ["model.gnn_layers=-1", "model.window=-1", "model.node_dim=0",
                  "model.embed_dim=0", "model.dqk=0", "model.ffn_dim=0",
                  "model.gnn_hidden=0", "model.mlp_hidden=0", "model.baseline_hidden=0"]


@pytest.mark.parametrize("setting", MODEL_SETTINGS)
@pytest.mark.parametrize("kind", ["lr", "mlp", "transformer", "seb", "seb-s3im"])
def test_out_of_range_model_setting_exit_2_for_every_model(
        dataset_dir, tmp_path, capsys, kind, setting):
    capsys.readouterr()
    code = main(["train", *FAST, "--set", setting, "--model", kind,
                 "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    key, value = setting.split("=")
    low = 0 if key in ("model.gnn_layers", "model.window") else 1
    assert code == 2
    assert err == f"config error: {key} must be an integer >= {low}, got {value}\n"
    assert not (tmp_path / "o").exists()


# NaN fails no comparison, so each range check must be one that NaN fails.
@pytest.mark.parametrize("command, setting, message", [
    pytest.param(command, f"{key}=nan", message, id=key)
    for command, key, message in [
        ("train", "train.lr", "learning rate must be nonnegative, got nan"),
        ("train", "train.s3im_weight", "regularizer weight must be nonnegative, got nan"),
        ("train", "s3im.L", "s3im.L must be 'auto' or positive, got nan"),
        ("train", "train.train_frac",
         "split fractions must be positive and sum to 1, got (nan, 0.15, 0.15)"),
        ("gen", "gen.ride_mean", "ride length mean and sd must be positive, got nan, 40.0"),
        ("gen", "gen.ride_sd", "ride length mean and sd must be positive, got 275.0, nan"),
        ("gen", "gen.noise", "noise must be nonnegative, got nan"),
    ]
])
def test_nan_setting_exit_2(dataset_dir, tmp_path, capsys, command, setting, message):
    args = ["--model", "seb-s3im", "--data", str(dataset_dir)] if command == "train" else []
    capsys.readouterr()
    code = main([command, "--seed", "3", "--set", "gen.orders=120", "--set", setting,
                 *args, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("setting, message", [
    ("s3im.k1=0.5", "K1, K2 must lie in (0, 0.1]"),
    ("s3im.L=-3", "s3im.L must be 'auto' or positive, got -3.0"),
    ("s3im.L=0", "s3im.L must be 'auto' or positive, got 0.0"),
])
@pytest.mark.parametrize("kind", ["lr", "mlp", "transformer", "seb", "seb-s3im"])
def test_out_of_range_s3im_setting_exit_2_for_every_model(
        dataset_dir, tmp_path, capsys, kind, setting, message):
    capsys.readouterr()
    code = main(["train", *FAST, "--set", setting, "--model", kind,
                 "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
