"""CLI command flows, exit codes, output files."""

import os

import pytest

from sebrange.cli import main

# Small-but-real settings so command flows finish quickly.
FAST = [
    "--set", "gen.orders=160", "--set", "gen.users=80",
    "--set", "gen.batteries=30", "--set", "gen.stations=4",
    "--set", "gen.horizon=8", "--set", "train.epochs=2",
    "--set", "model.embed_dim=6", "--set", "model.dqk=6",
    "--set", "model.dv=6", "--set", "model.ffn_dim=8",
    "--set", "model.node_dim=4", "--set", "model.gnn_layers=1",
    "--set", "model.gnn_hidden=4", "--set", "model.mlp_hidden=8",
    "--set", "model.baseline_hidden=8",
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


def test_eval_config_mismatch_exit_4(dataset_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train", *FAST, "--seed", "42", "--model", "mlp",
                 "--data", str(dataset_dir), "--out", str(run)]) == 0
    code = main(["eval", *FAST, "--seed", "99", "--data", str(dataset_dir),
                 "--ckpt", str(run / "model.ckpt.npz")])
    assert code == 4


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


def _input_error(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
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


@pytest.mark.parametrize("field, value", [(1, "-1"), (2, "30"), (3, "8")])
def test_order_outside_graph_exit_3(dataset_dir, tmp_path, capsys, field, value):
    # FAST has 80 users, 30 batteries and horizon 8: each value is one past
    # the graph's #dims (or below 0) for its column.
    bad = tmp_path / "outside"
    _corrupt_field(dataset_dir, bad, 67, field, value)
    code, err = _input_error(capsys, [
        "train", *FAST, "--seed", "42", "--model", "seb",
        "--data", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "orders.seb:67: order " in err and "outside the graph's #dims" in err


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
    assert main(["gradcheck", "--op", "model", "--tolerance", "1e-12"]) == 5


def test_unknown_set_key_exit_2(tmp_path):
    code = main(["gen", "--set", "bogus.key=1", "--out", str(tmp_path / "x")])
    assert code == 2
