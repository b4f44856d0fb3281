"""Fused model, objective, training loop, evaluation, baselines."""

import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sebrange.benchmark import BENCH_MODELS, build_model, run_benchmark, train_model
from sebrange.checkpoint import load_checkpoint, save_checkpoint, verify_config_hash
from sebrange.datagen import GeneratorConfig, generate
from sebrange.errors import CheckpointMismatch, ConfigError, NumericError
from sebrange.graph import TemporalGraph, battery, user
from sebrange.model import (
    FeatureScaler,
    MlpBaseline,
    ModelConfig,
    SebTransformer,
    fit_linear_regression,
)
from sebrange.rng import Rng
from sebrange.tensor import Tensor
from sebrange.training import (
    TrainConfig,
    bucket_by_t,
    evaluate_mae,
    make_chunks,
    objective,
    split_orders,
    train,
)
from test_s3im import s3im_value

TINY_GEN = GeneratorConfig(n_orders=120, n_users=60, n_batteries=20,
                           n_stations=4, horizon=8, seed=3)
TINY_MODEL = ModelConfig(embed_dim=6, dqk=6, ffn_dim=8, node_dim=4,
                         gnn_layers=1, gnn_hidden=4, mlp_hidden=8,
                         baseline_hidden=8)
TINY_TRAIN = TrainConfig(epochs=3, lr=3e-3, batch_size=32, seed=3)


@pytest.fixture(scope="module")
def tiny_data():
    return generate(TINY_GEN)


def fresh_model(use_graph=True, seed=1):
    cfg = ModelConfig(**{**TINY_MODEL.__dict__, "use_graph": use_graph})
    return SebTransformer(cfg, TINY_GEN.n_users, TINY_GEN.n_batteries, Rng(seed))


def forward_one(model, order, graph) -> float:
    """Predicted remaining range (km) for one order."""
    return model.forward_batch([order], graph).item()


class TestForward:
    def test_zero_weights_predicts_fusion_bias(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        for p in model.params():
            p.value[...] = 0.0
        model.head.out_bias.value[...] = 12.25
        assert forward_one(model, orders[0], graph) == 12.25

    def test_deterministic_bit_equal(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        a = forward_one(model, orders[5], graph)
        b = forward_one(model, orders[5], graph)
        assert a == b

    def test_graph_ablation_changes_prediction(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        order = orders[0]
        assert graph.window_edges(order.t).in_edges([graph.node_row(order.battery)])[0].size
        full = model.forward_batch([order], graph).item()
        # The same weights with the graph branch off, as the transformer
        # baseline runs them.
        model.cfg = replace(model.cfg, use_graph=False)
        ablated = model.forward_batch([order], graph).item()
        assert full != ablated

    def test_mixed_timesteps_rejected(self, tiny_data):
        orders, graph = tiny_data
        a = next(o for o in orders if o.t == 0)
        b = next(o for o in orders if o.t == 1)
        with pytest.raises(ConfigError):
            fresh_model().forward_batch([a, b], graph)

    def test_batch_matches_singles(self, tiny_data):
        orders, graph = tiny_data
        bucket = [o for o in orders if o.t == 2][:4]
        model = fresh_model()
        batch = model.predict(bucket, graph)
        singles = [forward_one(model, o, graph) for o in bucket]
        assert np.abs(batch - singles).max() < 1e-12

    def test_shared_battery_in_one_bucket(self, tiny_data):
        orders, _ = tiny_data
        g = TemporalGraph(TINY_GEN.n_users, TINY_GEN.n_batteries, 1)
        g.add_edges([0, 0], [0, 1], [3, 3], [0, 0])
        bucket = [replace(o, user=user(u), battery=battery(3), t=0)
                  for o, u in zip(orders[:2], (0, 1))]
        model = fresh_model()
        batch = model.predict(bucket, g)
        singles = [forward_one(model, o, g) for o in bucket]
        assert np.abs(batch - singles).max() < 1e-12


class TestFeatureScaler:
    @staticmethod
    def whole_array_fit(orders):
        """The fit over every row at once: the oracle for the block fit."""
        rows = np.concatenate([o.telemetry for o in orders], axis=0)
        mean, sd = rows.mean(axis=0), rows.std(axis=0)
        sd[sd == 0.0] = 1.0
        return mean, sd

    @pytest.fixture(scope="class")
    def orders(self):
        """Seed-42 telemetry, with channel 2 held constant and channel 4
        shifted far from zero so that a change of summation order shows."""
        out = []
        for o in generate(GeneratorConfig())[0][:1400]:
            t = o.telemetry.copy()
            t[:, 2] = 0.75
            t[:, 4] = t[:, 4] * 1e3 + 1e8
            out.append(SimpleNamespace(telemetry=t))
        return out

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1400])
    def test_block_fit_equals_whole_array_fit(self, orders, n):
        scaler = FeatureScaler()
        scaler.fit(orders[:n])
        mean, sd = self.whole_array_fit(orders[:n])
        assert scaler.mean.tobytes() == mean.tobytes()
        assert scaler.sd.tobytes() == sd.tobytes()
        assert scaler.sd[2] == 1.0

    def test_overflowing_channel_is_named(self, orders):
        # 1e200 is finite, but its square is not: the sd would be inf.
        t = orders[0].telemetry.copy()
        t[5, 3] = 1e200
        with pytest.raises(NumericError, match="channel 3 overflows"), \
                np.errstate(over="ignore"):
            FeatureScaler().fit([SimpleNamespace(telemetry=t)] + orders[1:64])

    def test_fit_peak(self, orders, traced):
        # Fitting on all 1,400 orders' rows at once peaked at 8.27 MiB.
        _, _, peak = traced(FeatureScaler().fit, orders)
        assert peak <= 2**20, f"fit peaked at {peak} bytes"


class TestObjective:
    def test_perfect_predictions_zero_loss(self):
        cfg = TrainConfig(s3im_enabled=True, s3im_L=10.0)
        y0 = np.array([30.0, 31.5, 29.0])
        y1 = np.array([40.0, 38.0])
        pairs = [(Tensor(y0.copy()), y0), (Tensor(y1.copy()), y1)]
        assert abs(objective(pairs, cfg).item()) <= 1e-12

    def test_single_timestep_mse(self):
        cfg = TrainConfig(s3im_enabled=False)
        pairs = [(Tensor(np.array([3.0, -3.0])), np.array([0.0, 0.0]))]
        assert objective(pairs, cfg).item() == 9.0

    def test_matches_term_wise_oracle(self):
        cfg = TrainConfig(s3im_enabled=True, s3im_weight=0.7, s3im_L=25.0)
        s3cfg = cfg.make_s3im(None)
        r = Rng(4)
        pairs, expected = [], 0.0
        for _ in range(3):
            n = int(r.integers(6)) + 2
            y = r.normal(35.0, 5.0, size=(n,))
            p = y + r.normal(0.0, 2.0, size=(n,))
            pairs.append((Tensor(p), y))
            expected += ((p - y) ** 2).mean()
            expected += 0.7 * (1.0 - s3im_value(p, y, s3cfg))
        got = objective(pairs, cfg, s3cfg).item()
        assert abs(got - expected) <= 1e-12

    def test_singleton_bucket_skips_similarity_term(self):
        cfg = TrainConfig(s3im_enabled=True, s3im_L=10.0)
        pairs = [(Tensor(np.array([5.0])), np.array([3.0]))]
        assert objective(pairs, cfg).item() == 4.0


class TestEvaluateMae:
    class _Const:
        def __init__(self, c):
            self.c = c

        def predict(self, orders, graph=None):
            return np.full(len(orders), self.c)

    def test_perfect_model_zero_mae(self, tiny_data):
        orders, graph = tiny_data

        class Perfect:
            def predict(self, os_, graph=None):
                return np.array([o.label for o in os_])

        res = evaluate_mae(Perfect(), orders[:50], graph)
        assert res.mean == 0.0 and res.std == 0.0

    def test_constant_predictor_known_mae(self, tiny_data):
        _, graph = tiny_data
        from types import SimpleNamespace

        orders = [
            SimpleNamespace(order_id=0, t=0, label=9.0),
            SimpleNamespace(order_id=1, t=0, label=11.0),
        ]
        res = evaluate_mae(self._Const(10.0), orders, graph)
        assert res.mean == 1.0

    def test_matches_streaming_recomputation(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        model.prepare(orders)
        res = evaluate_mae(model, orders[:40], graph)
        total = 0.0
        for o in orders[:40]:
            total += abs(forward_one(model, o, graph) - o.label)
        assert abs(res.mean - total / 40.0) <= 1e-12
        assert res.residuals.shape == (40,)

    def test_empty_set_rejected(self, tiny_data):
        _, graph = tiny_data
        with pytest.raises(ConfigError):
            evaluate_mae(self._Const(1.0), [], graph)

    def test_repeated_order_id_gets_its_own_residual(self, tiny_data):
        # the readers reject a repeated id; orders built in memory may repeat one
        orders, graph = tiny_data
        model = fresh_model()
        model.prepare(orders)
        some = orders[:9] + [replace(orders[9], order_id=orders[0].order_id)]
        res = evaluate_mae(model, some, graph)
        expected = {}
        for bucket in bucket_by_t(some):
            for o, v in zip(bucket, model.predict(bucket, graph)):
                expected[id(o)] = v - o.label
        assert res.residuals.tolist() == [expected[id(o)] for o in some]


class TestLinearRegression:
    def test_recovers_exact_affine_labels(self):
        r = Rng(6)
        x = r.normal(size=(200, 5))
        true = np.array([1.5, -2.0, 0.0, 3.0, 0.5])
        y = x @ true + 7.0
        coef = fit_linear_regression(x, y)
        assert np.abs(coef[:-1] - true).max() <= 1e-6
        assert abs(coef[-1] - 7.0) <= 1e-6

    def test_constant_labels(self):
        r = Rng(7)
        x = r.normal(size=(50, 3))
        coef = fit_linear_regression(x, np.full(50, 4.0))
        assert np.abs(coef[:-1]).max() <= 1e-6
        assert abs(coef[-1] - 4.0) <= 1e-6

    def test_overflowing_gram_names_the_channel(self):
        x = Rng(9).normal(size=(40, 6))
        x[7, 4] = 1e200  # column 4 is channel 1 of two-channel rows
        with pytest.raises(NumericError, match="channel 1 overflows float64 in the Gram"), \
                np.errstate(over="ignore"):
            fit_linear_regression(x, np.ones(40), channels=3)

    def test_duplicated_column_survives_ridge(self):
        r = Rng(8)
        base = r.normal(size=(60, 2))
        x = np.concatenate([base, base[:, :1]], axis=1)  # exact duplicate
        y = base @ np.array([1.0, 2.0]) + 3.0
        coef = fit_linear_regression(x, y)
        pred = np.concatenate([x, np.ones((60, 1))], axis=1) @ coef
        assert np.abs(pred - y).max() <= 1e-5


class TestTraining:
    def test_zero_lr_leaves_weights_bit_identical(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        model.prepare(split_orders(orders, TINY_TRAIN)[0])
        before = [p.value.copy() for p in model.params()]
        cfg = TrainConfig(epochs=2, lr=0.0, batch_size=32, seed=3)
        train(model, orders, graph, cfg)
        # prepare() re-centers the output bias; every other weight is frozen
        for p, b in zip(model.params(), before):
            if p is model.head.out_bias:
                continue
            assert np.array_equal(p.value, b)

    def test_trained_loss_is_the_objective(self, tiny_data):
        # at lr=0 every step sees the initial weights, so an epoch's train
        # loss is the objective summed over the chunks in any order
        orders, graph = tiny_data
        cfg = TrainConfig(epochs=1, lr=0.0, batch_size=32, seed=3,
                          s3im_enabled=True)
        history = train(fresh_model(seed=5), orders, graph, cfg).history
        train_split = split_orders(orders, cfg)[0]
        model = fresh_model(seed=5)
        model.prepare(train_split)
        s3cfg = cfg.make_s3im(np.array([o.label for o in train_split]))
        expected = 0.0
        for chunk in make_chunks(train_split, cfg.batch_size):
            labels = np.array([o.label for o in chunk])
            expected += objective([(model.forward_batch(chunk, graph), labels)],
                                  cfg, s3cfg).item()
        assert abs(history[0].train_loss - expected) <= 1e-12 * abs(expected)

        # lr takes no steps: its pseudo-epoch scores both splits by bucket
        lr = build_model("lr", TINY_MODEL, graph.n_users, graph.n_batteries, 3)
        lr_epoch = train_model("lr", lr, orders, graph, cfg).history[0]
        for split, loss in zip(split_orders(orders, cfg),
                               (lr_epoch.train_loss, lr_epoch.val_loss)):
            pairs = [(lr.predict(b, graph), np.array([o.label for o in b]))
                     for b in bucket_by_t(split)]
            expected = objective(pairs, replace(cfg, s3im_enabled=False)).item()
            assert abs(loss - expected) <= 1e-12 * abs(expected)

    def test_fixed_seed_identical_history_and_weights(self, tiny_data):
        orders, graph = tiny_data
        m1, m2 = fresh_model(seed=2), fresh_model(seed=2)
        h1 = train(m1, orders, graph, TINY_TRAIN).history
        h2 = train(m2, orders, graph, TINY_TRAIN).history
        assert [(e.train_loss, e.val_loss) for e in h1] == \
               [(e.train_loss, e.val_loss) for e in h2]
        for p1, p2 in zip(m1.params(), m2.params()):
            assert np.array_equal(p1.value, p2.value)

    def test_training_reduces_loss(self, tiny_data):
        orders, graph = tiny_data
        cfg = TrainConfig(epochs=8, lr=5e-3, batch_size=32, seed=3)
        result = train(fresh_model(), orders, graph, cfg)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_best_checkpoint_selected_by_val_mae(self, tiny_data):
        orders, graph = tiny_data
        result = train(fresh_model(), orders, graph, TINY_TRAIN)
        maes = [e.val_mae for e in result.history]
        assert result.best_epoch == int(np.argmin(maes)) + 1

    def test_bad_fractions_rejected(self, tiny_data):
        orders, graph = tiny_data
        with pytest.raises(ConfigError):
            train(fresh_model(), orders, graph,
                  TrainConfig(train_frac=0.9, val_frac=0.2, test_frac=0.1))

    def test_non_finite_validation_raises(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        model.head.w0.value[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite in all 3 epochs"):
            train(model, orders, graph, TINY_TRAIN)

    @pytest.mark.parametrize("kind", ["lr", "seb"])
    def test_nan_telemetry_fails_at_the_fit(self, tiny_data, kind):
        orders, graph = tiny_data
        what = "Gram matrix" if kind == "lr" else "scaler's mean or sd"
        nan_orders = []
        for o in orders:
            bad = replace(o, telemetry=o.telemetry.copy())
            bad.telemetry[3, 2] = np.nan  # the constructor rejects NaN; a later write does not
            nan_orders.append(bad)
        model = build_model(kind, TINY_MODEL, graph.n_users, graph.n_batteries, 3)
        model.forward_batch = lambda *args: pytest.fail("a training step ran")
        with pytest.raises(NumericError, match=f"^telemetry channel 2 is NaN in the {what}$"):
            train_model(kind, model, nan_orders, graph, TINY_TRAIN)

    @pytest.mark.parametrize("kind", ["lr", "seb"])
    def test_nan_label_fails_at_the_door(self, tiny_data, kind):
        orders, graph = tiny_data
        bad = replace(orders[57])
        bad.label = np.nan  # the constructor rejects NaN; a later write does not
        nan_orders = orders[:57] + [bad] + orders[58:]
        model = build_model(kind, TINY_MODEL, graph.n_users, graph.n_batteries, 3)
        model.prepare = lambda *args: pytest.fail("the model was fitted")
        model.forward_batch = lambda *args: pytest.fail("a training step ran")
        with pytest.raises(NumericError,
                           match=f"^order {bad.order_id} has non-finite label nan$"):
            train_model(kind, model, nan_orders, graph, TINY_TRAIN)

    def test_empty_dataset_rejected(self, tiny_data):
        _, graph = tiny_data
        with pytest.raises(ConfigError):
            train(fresh_model(), [], graph, TINY_TRAIN)

    def test_empty_val_split_is_one_error_for_lr_and_mlp(self, tiny_data):
        orders, graph = tiny_data  # 3 orders split 2 / 0 / 1
        for kind in ("lr", "mlp"):
            model = build_model(kind, TINY_MODEL, graph.n_users, graph.n_batteries, 3)
            with pytest.raises(ConfigError,
                               match="^split produced empty train/val sets from 3 orders$"):
                train_model(kind, model, orders[:3], graph, TINY_TRAIN)


def test_split_deterministic_and_disjoint(tiny_data):
    orders, _ = tiny_data
    a = split_orders(orders, TINY_TRAIN)
    b = split_orders(orders, TINY_TRAIN)
    assert [o.order_id for o in a[0]] == [o.order_id for o in b[0]]
    ids = [o.order_id for part in a for o in part]
    assert sorted(ids) == [o.order_id for o in orders]


class TestCheckpoint:
    def test_default_seb_param_layout(self):
        """A checkpoint stores one array per name; these names, shapes and
        their order are what a seb-ckpt v2 file holds."""
        model = build_model("seb", ModelConfig(), 10, 5, 1)
        assert [(p.name, p.shape) for p in model.params()] == [
            ("proj.w", (6, 16)), ("proj.b", (16,)),
            ("attn.wq", (16, 16)), ("attn.wk", (16, 16)), ("attn.wv", (16, 16)),
            ("block.pos", (64, 16)), ("block.w1", (16, 32)), ("block.b1", (32,)),
            ("block.w2", (32, 16)), ("block.b2", (16,)),
            ("block.ln1_g", (16,)), ("block.ln1_b", (16,)),
            ("block.ln2_g", (16,)), ("block.ln2_b", (16,)),
            ("h0.user", (8,)), ("h0.battery", (8,)), ("h0.battery_bias", (5, 8)),
            ("gcn0.w", (8, 8)), ("gcn0.b", (8, 8)), ("gcn1.w", (8, 8)), ("gcn1.b", (8, 8)),
            ("fusion.w0", (48, 32)), ("fusion.b0", (32,)),
            ("fusion.w1", (32, 1)), ("fusion.b1", (1,)),
        ]
        vanilla = build_model("transformer", ModelConfig(), 10, 5, 1)
        frozen = {"h0.user", "h0.battery", "h0.battery_bias", "gcn0.w", "gcn0.b",
                  "gcn1.w", "gcn1.b"}
        assert [p.name for p in vanilla.trainable_params()] == [
            p.name for p in vanilla.params() if p.name not in frozen]

    def test_round_trip_bit_exact_predictions(self, tiny_data, tmp_path):
        orders, graph = tiny_data
        model = fresh_model()
        result = train(model, orders, graph, TINY_TRAIN)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, "hash123", trained_as="seb")
        loaded, meta = load_checkpoint(path)
        assert meta["trained_as"] == "seb"
        bucket = [o for o in orders if o.t == 1][:5]
        assert np.array_equal(model.predict(bucket, graph),
                              loaded.predict(bucket, graph))

    def test_hash_verification(self, tiny_data, tmp_path):
        orders, graph = tiny_data
        model = fresh_model()
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, "confighash")
        _, meta = load_checkpoint(path)
        verify_config_hash(meta, "confighash")
        with pytest.raises(CheckpointMismatch):
            verify_config_hash(meta, "otherhash")

    def test_non_finite_parameter_refused(self, tmp_path):
        model = fresh_model()
        model.block.w1.value[2, 3] = np.nan
        path = tmp_path / "m.npz"
        with pytest.raises(NumericError, match="block.w1"):
            save_checkpoint(path, model, "h")
        assert not path.exists()

    @pytest.mark.parametrize("key", ["mean", "sd"])
    def test_non_finite_scaler_refused(self, tmp_path, key):
        model = fresh_model()
        getattr(model.scaler, key)[1] = np.inf
        path = tmp_path / "m.npz"
        with pytest.raises(NumericError, match=f"scaler_{key}"):
            save_checkpoint(path, model, "h")
        assert not path.exists()

    def test_baseline_checkpoints(self, tiny_data, tmp_path):
        orders, graph = tiny_data
        bucket = [o for o in orders if o.t == 1][:5]
        for kind in BENCH_MODELS:
            model = build_model(kind, TINY_MODEL, graph.n_users,
                                graph.n_batteries, 3)
            train_model(kind, model, orders, graph, TINY_TRAIN)
            path = tmp_path / f"{kind}.npz"
            save_checkpoint(path, model, "h")
            with np.load(path) as data:
                keys = data.files
            if kind == "lr":
                assert keys == ["__meta__", "coef"]
            else:
                assert keys == (["__meta__"] + [f"param:{p.name}" for p in model.params()]
                                + ["scaler_mean", "scaler_sd"])
            loaded, _ = load_checkpoint(path)
            assert model.predict(bucket, graph).tobytes() == \
                loaded.predict(bucket, graph).tobytes()

    def test_transformer_checkpoint_rebuilds_without_graph(self, tiny_data, tmp_path):
        orders, graph = tiny_data
        model = build_model("transformer", TINY_MODEL, graph.n_users,
                            graph.n_batteries, 3)
        train_model("transformer", model, orders, graph, TINY_TRAIN)
        path = tmp_path / "t.npz"
        save_checkpoint(path, model, "h")
        loaded, meta = load_checkpoint(path)
        assert meta["kind"] == "transformer" and not loaded.cfg.use_graph
        bucket = [o for o in orders if o.t == 1][:5]
        assert np.array_equal(model.predict(bucket, graph),
                              loaded.predict(bucket, graph))

    def test_unknown_kind_is_a_mismatch(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, fresh_model(), "h")
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays.pop("__meta__")))
        for kind in ("bogus", "seb-s3im"):
            np.savez(path, __meta__=json.dumps({**meta, "kind": kind}), **arrays)
            with pytest.raises(CheckpointMismatch, match=f"unknown model kind '{kind}'"):
                load_checkpoint(path)


def test_weights_digest_is_the_params_bytes(tiny_data):
    orders, graph = tiny_data
    for row in run_benchmark(orders, graph, TINY_MODEL, TINY_TRAIN).rows:
        model = build_model(row.model, TINY_MODEL, graph.n_users, graph.n_batteries,
                            TINY_TRAIN.seed)
        train_model(row.model, model, orders, graph, TINY_TRAIN)
        weights = b"".join(p.value.tobytes() for p in model.params())
        assert hashlib.sha256(weights).hexdigest() == row.weights_sha256


def test_graph_sensitivity_smoke(tiny_data):
    # deleting all of an order's battery edges changes its prediction
    orders, graph = tiny_data
    cfg = TrainConfig(epochs=4, lr=5e-3, batch_size=32, seed=3)
    model = fresh_model()
    train(model, orders, graph, cfg)
    order = orders[0]
    pruned = TemporalGraph(graph.n_users, graph.n_batteries, graph.horizon)
    for t, u, b, s in np.column_stack(graph.columns()).tolist():
        if b != order.battery.index:
            pruned.add_edges([t], [u], [b], [s])
    assert forward_one(model, order, graph) != forward_one(model, order, pruned)


def test_mlp_baseline_shapes(tiny_data):
    orders, graph = tiny_data
    model = MlpBaseline(TINY_MODEL, Rng(5))
    model.prepare(orders[:80])
    out = model.predict(orders[:6])
    assert out.shape == (6,)
    assert np.all(np.isfinite(out))
