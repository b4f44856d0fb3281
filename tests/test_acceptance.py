"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the frozen-benchmark criteria share one module-scoped run
(seed 42, 2,000 orders, default config).
"""

import ctypes
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from sebrange.audit import run_gradient_audit
from sebrange.benchmark import relative_improvement, run_benchmark
from sebrange.cli import main
from sebrange.config import RunConfig
from sebrange.datagen import GeneratorConfig, generate, read_dataset, write_dataset
from sebrange.gnn import GcnLayer, gcn_layer_forward
from sebrange.graph import TemporalGraph
from sebrange.optim import Param
from sebrange.rng import Rng
from sebrange.s3im import S3imConfig
from sebrange.tensor import Tensor
from sebrange.training import TrainConfig, objective
from test_s3im import s3im_value


def _report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS — {text}")


@pytest.fixture(scope="module")
def frozen_benchmark():
    """Seed-42 default benchmark: 2,000 orders, default model/training."""
    rc = RunConfig.load()
    start = time.perf_counter()
    orders, graph = generate(rc.generator_config())
    result = run_benchmark(orders, graph, rc.model_config(), rc.train_config())
    elapsed = time.perf_counter() - start
    return result, elapsed, orders, graph


def test_criterion_01_gradient_audit():
    start = time.perf_counter()
    rows = run_gradient_audit()
    elapsed = time.perf_counter() - start
    for row in rows:
        assert row.passed, f"{row.op}: {row.max_err:.3e} > {row.tolerance:.0e}"
    assert elapsed < 30.0, f"audit took {elapsed:.1f}s"
    _report(1, f"gradient audit over {len(rows)} ops, "
               f"worst {max(r.max_err for r in rows):.2e}, {elapsed:.1f}s")


def test_criterion_02_similarity_axioms():
    cfg = S3imConfig(dynamic_range=8.0)
    r = Rng(2025)
    start = time.perf_counter()
    for i in range(1000):
        rr = r.spawn(i)
        n = 2 + int(rr.integers(255))
        x = rr.normal(size=(n,))
        y = rr.normal(size=(n,))
        sxy = s3im_value(x, y, cfg)
        assert abs(sxy - s3im_value(y, x, cfg)) <= 1e-15
        assert sxy <= 1.0 + 1e-12
        assert abs(s3im_value(x, x, cfg) - 1.0) <= 1e-12
        assert sxy < 1.0 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"axiom sweep took {elapsed:.1f}s"
    _report(2, f"1000 pairs (n in [2,256]): symmetric, bounded, "
               f"uniquely maximized; {elapsed:.1f}s")


def test_criterion_03_gcn_oracle_and_permutation():
    start = time.perf_counter()
    r = Rng(303)
    worst_oracle = 0.0
    for i in range(50):
        rr = r.spawn(i)
        n_users = 1 + int(rr.integers(4))
        n_batteries = 1 + int(rr.integers(4))
        g = TemporalGraph(n_users, n_batteries, 1)
        seen = set()
        for _ in range(int(rr.integers(12))):
            u, b = int(rr.integers(n_users)), int(rr.integers(n_batteries))
            if (u, b) not in seen:
                seen.add((u, b))
                g.add_edges([0], [u], [b], [0])
        edges = g.columns()
        n = g.n_nodes
        d_in, d_out = 1 + int(rr.integers(3)), 1 + int(rr.integers(3))
        h = rr.normal(size=(n, d_in))
        act = "relu" if i % 2 else "identity"
        layer = GcnLayer(Param(rr.normal(size=(d_in, d_out))),
                         Param(rr.normal(size=(d_in, d_out))), act)
        got = gcn_layer_forward(layer, Tensor(h), g, 0).array

        adj = np.zeros((n, n))
        for u, b in zip(edges.user, edges.battery):
            a, b2 = u, n_users + b
            adj[a, b2] = adj[b2, a] = 1.0
        deg = adj.sum(axis=1)
        inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
        ref = np.diag(inv) @ adj @ h @ layer.w.value + h @ layer.b.value
        if act == "relu":
            ref = np.maximum(ref, 0.0)
        worst_oracle = max(worst_oracle, np.abs(got - ref).max())
        assert np.abs(got - ref).max() <= 1e-10

        # permutation consistency
        pu, pb = rr.permutation(n_users), rr.permutation(n_batteries)
        g2 = TemporalGraph(n_users, n_batteries, 1)
        for u, b in zip(edges.user, edges.battery):
            g2.add_edges([0], [int(pu[u])], [int(pb[b])], [0])
        h2 = np.empty_like(h)
        h2[pu] = h[:n_users]
        h2[n_users + pb] = h[n_users:]
        out2 = gcn_layer_forward(layer, Tensor(h2), g2, 0).array
        expected = np.empty_like(got)
        expected[pu] = got[:n_users]
        expected[n_users + pb] = got[n_users:]
        assert np.abs(out2 - expected).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"GCN oracle sweep took {elapsed:.1f}s"
    _report(3, f"50 random graphs: dense-oracle worst {worst_oracle:.2e}, "
               f"permutation-consistent; {elapsed:.1f}s")


def test_criterion_04_attention_invariants():
    from sebrange.attention import attend
    from sebrange.tensor import softmax_rows

    r = Rng(404)
    x = r.normal(0.0, 30.0, size=(25, 9))
    soft = softmax_rows(Tensor(x)).array
    assert np.abs(soft.sum(axis=-1) - 1.0).max() <= 1e-12

    q1 = Tensor(r.normal(size=(1, 4)))
    k1 = Tensor(r.normal(size=(1, 4)))
    v1 = Tensor(r.normal(size=(1, 3)))
    assert np.array_equal(attend(q1, k1, v1).array, v1.array)

    k_same = Tensor(np.tile(r.normal(size=(4,)), (6, 1)))
    q = Tensor(r.normal(size=(6, 4)))
    v = Tensor(r.normal(size=(6, 3)))
    out = attend(q, k_same, v).array
    assert np.abs(out - v.array.mean(axis=0)).max() <= 1e-12
    _report(4, "softmax rows sum to 1; N=1 returns the value row; "
               "identical keys average the values")


def test_criterion_05_objective_decomposition():
    cfg = TrainConfig(s3im_enabled=True, s3im_weight=1.0, s3im_L=30.0)
    s3cfg = cfg.make_s3im(None)
    r = Rng(505)
    worst = 0.0
    for trial in range(20):
        rr = r.spawn(trial)
        pairs, expected = [], 0.0
        for _ in range(int(rr.integers(4)) + 1):
            n = 2 + int(rr.integers(30))
            y = rr.normal(35.0, 6.0, size=(n,))
            p = y + rr.normal(0.0, 3.0, size=(n,))
            pairs.append((Tensor(p), y))
            expected += ((p - y) ** 2).mean() + (1.0 - s3im_value(p, y, s3cfg))
        got = objective(pairs, cfg, s3cfg).item()
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-12
    _report(5, f"objective equals term-wise recomputation, worst gap {worst:.2e}")


def test_criterion_06_benchmark_ordering(frozen_benchmark):
    result, elapsed, _, _ = frozen_benchmark
    mae = {row.model: row.mae_mean for row in result.rows}
    assert mae["seb-s3im"] <= mae["seb"], mae
    assert mae["seb"] < mae["transformer"], mae
    assert mae["seb"] < mae["mlp"], mae
    assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s"
    _report(6, "MAE ordering seb-s3im ({:.3f}) <= seb ({:.3f}) < "
               "transformer ({:.3f}), seb < mlp ({:.3f}); {:.0f}s".format(
                   mae["seb-s3im"], mae["seb"], mae["transformer"],
                   mae["mlp"], elapsed))


def test_criterion_07_training_sanity(frozen_benchmark):
    result, _, _, _ = frozen_benchmark
    history = result.histories["seb-s3im"]
    first, last = history[0], history[-1]
    assert last.train_loss < 0.5 * first.train_loss, (
        f"final {last.train_loss:.1f} vs first {first.train_loss:.1f}")
    selected = min(history, key=lambda e: e.val_mae)
    assert selected.val_loss < first.val_loss
    _report(7, f"train loss {first.train_loss:.0f} -> {last.train_loss:.0f} "
               f"(<0.5x); selected-epoch val loss {selected.val_loss:.0f} < "
               f"first-epoch {first.val_loss:.0f}")


REPORT_FLAGS = [
    "--seed", "42",
    "--set", "gen.orders=400", "--set", "gen.users=200",
    "--set", "gen.batteries=80", "--set", "gen.horizon=20",
    "--set", "train.epochs=5",
]


def test_criterion_08_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["report", *REPORT_FLAGS, "--out", str(out1)]) == 0
    assert main(["report", *REPORT_FLAGS, "--out", str(out2)]) == 0
    names = ["metrics.csv", "config.resolved"] + [
        f"loss_{kind}.csv" for kind in ("lr", "mlp", "transformer",
                                        "seb", "seb-s3im")]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _report(8, f"two report runs produced bit-identical {len(names)} files")


def test_criterion_09_data_contracts(frozen_benchmark, tmp_path):
    _, _, orders, graph = frozen_benchmark
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(orders, graph, d1)
    ro, rg = read_dataset(d1)
    write_dataset(ro, rg, d2)
    assert (d1 / "orders.seb").read_bytes() == (d2 / "orders.seb").read_bytes()
    assert (d1 / "graph.seb").read_bytes() == (d2 / "graph.seb").read_bytes()
    assert all(o.telemetry.shape[0] == 64 for o in orders)

    full_scale = GeneratorConfig(n_orders=16000, seed=42)
    big_orders, _ = generate(full_scale)
    ride_mean = float(np.mean([o.ride_length for o in big_orders]))
    assert 270.0 <= ride_mean <= 280.0, ride_mean
    _report(9, f"round trips bit-exact; 64-row telemetry; 16k ride-length "
               f"mean {ride_mean:.2f} in [270, 280]")


def test_criterion_10_reporting_fidelity():
    # external reference MAEs used purely as reporting targets for the
    # improvement formula: transformer 2.3772, fused 1.5020, fused+reg 1.4552
    base, fused, fused_reg = 2.3772, 1.5020, 1.4552
    imp_fused = relative_improvement(base, fused)
    imp_reg = relative_improvement(base, fused_reg)
    assert imp_fused > 36.7
    assert imp_reg > 36.7
    _report(10, f"improvement formula on reference MAEs: fused {imp_fused:.1f}%, "
                f"regularized {imp_reg:.1f}% (> 36.7%)")


FROZEN_PIN = Path(__file__).parent / "data" / "frozen_seed42.json"
# Outside a pinned environment the MAEs must agree within this relative
# tolerance. On a pinned machine, float-environment changes moved them by at
# most 2.0e-12 (lr, one BLAS thread against two), and one ulp added to one
# initial weight, or to half the elements of every matmul output, by at most
# 3 ulps (5e-16). The margin is for a libm or SIMD width not tried there.
FROZEN_MAE_RTOL = 1e-6


def _openblas_state():
    """The thread count, core name and build line that numpy's bundled
    OpenBLAS reports, each ``"unknown"`` when the library or its symbol is
    not found."""
    root = Path(np.__file__).parent
    libs = sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(
        root.glob(".dylibs/*openblas*"))
    lib = ctypes.CDLL(str(libs[0])) if libs else None

    def text(symbol):
        if not hasattr(lib, symbol):
            return "unknown"
        read = getattr(lib, symbol)
        read.restype = ctypes.c_char_p
        return read().decode()

    threads = "unknown"
    if hasattr(lib, "scipy_openblas_get_num_threads64_"):
        threads = lib.scipy_openblas_get_num_threads64_()
    return (threads, text("scipy_openblas_get_corename64_"),
            text("scipy_openblas_get_config64_"))


def _float_environment():
    """What the frozen bits depend on besides the code: numpy, its BLAS
    build, the SIMD extensions numpy dispatches to, the threads and kernel
    core that BLAS runs with, and the C library."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    threads, core, config = _openblas_state()
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd_found": info["SIMD Extensions"]["found"],
        "blas_threads": threads,
        "blas_core": core,
        "blas_config": config,
        "libc": " ".join(filter(None, platform.libc_ver())) or "unknown",
    }


def _frozen_values(result):
    """Each model's test MAE, its std and its history, all by ``repr``."""
    return {
        row.model: {
            "mae": repr(row.mae_mean),
            "mae_std": repr(row.mae_std),
            "history": [[repr(e.train_loss), repr(e.val_loss), repr(e.val_mae)]
                        for e in result.histories[row.model]],
        }
        for row in result.rows
    }


def test_frozen_seed42_pin(frozen_benchmark):
    pins = json.loads(FROZEN_PIN.read_text())["pins"]
    got = _frozen_values(frozen_benchmark[0])
    exact = [p["values"] for p in pins if p["environment"] == _float_environment()]
    if exact:
        mode = "exact: every MAE, std and history entry bit for bit"
        assert got == exact[0]
    else:
        mode = (f"tolerance: environment not pinned, MAEs within "
                f"{FROZEN_MAE_RTOL:.0e} relative")
        for kind, want in pins[0]["values"].items():
            assert float(got[kind]["mae"]) == pytest.approx(
                float(want["mae"]), rel=FROZEN_MAE_RTOL), kind
    print(f"\n[acceptance] frozen seed-42 pin: PASS ({mode})")

