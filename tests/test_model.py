"""Fused model, objective, training loop, evaluation, baselines."""

from dataclasses import replace

import numpy as np
import pytest

from sebrange.benchmark import build_model, train_model
from sebrange.checkpoint import load_checkpoint, save_checkpoint, verify_config_hash
from sebrange.datagen import GeneratorConfig, generate
from sebrange.errors import AlignmentError, CheckpointMismatch, ConfigError, NumericError
from sebrange.graph import SwapEdge, TemporalGraph, battery, user
from sebrange.model import (
    MlpBaseline,
    ModelConfig,
    SebTransformer,
    fit_linear_regression,
)
from sebrange.rng import Rng
from sebrange.tensor import Tensor
from sebrange.training import (
    LabelBatch,
    Prediction,
    TrainConfig,
    evaluate_mae,
    make_chunks,
    objective,
    split_orders,
    train,
)

TINY_GEN = GeneratorConfig(n_orders=120, n_users=60, n_batteries=20,
                           n_stations=4, horizon=8, seed=3)
TINY_MODEL = ModelConfig(embed_dim=6, dqk=6, dv=6, ffn_dim=8, node_dim=4,
                         gnn_layers=1, gnn_hidden=4, mlp_hidden=8,
                         baseline_hidden=8)
TINY_TRAIN = TrainConfig(epochs=3, lr=3e-3, batch_size=32, seed=3)


@pytest.fixture(scope="module")
def tiny_data():
    return generate(TINY_GEN)


def fresh_model(use_graph=True, seed=1):
    cfg = ModelConfig(**{**TINY_MODEL.__dict__, "use_graph": use_graph})
    return SebTransformer(cfg, TINY_GEN.n_users, TINY_GEN.n_batteries, Rng(seed))


class TestForward:
    def test_zero_weights_predicts_fusion_bias(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        for p in model.params():
            p.value[...] = 0.0
        model.fusion.out_bias.value[...] = 12.25
        assert model.forward(orders[0], graph) == 12.25

    def test_deterministic_bit_equal(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        a = model.forward(orders[5], graph)
        b = model.forward(orders[5], graph)
        assert a == b

    def test_graph_ablation_changes_prediction(self, tiny_data):
        orders, graph = tiny_data
        model = fresh_model()
        order = orders[0]
        assert graph.neighbors(order.battery, order.t)
        full = model.forward_batch([order], graph).item()
        ablated = model.forward_batch([order], graph,
                                      zero_graph_slice=True).item()
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
        singles = [model.forward(o, graph) for o in bucket]
        assert np.abs(batch - singles).max() < 1e-12

    def test_shared_battery_in_one_bucket(self, tiny_data):
        orders, _ = tiny_data
        g = TemporalGraph(TINY_GEN.n_users, TINY_GEN.n_batteries, 1)
        g.add_edge(SwapEdge(user(0), battery(3), 0))
        g.add_edge(SwapEdge(user(1), battery(3), 0))
        bucket = [replace(o, user=user(u), battery=battery(3), t=0)
                  for o, u in zip(orders[:2], (0, 1))]
        model = fresh_model()
        batch = model.predict(bucket, g)
        singles = [model.forward(o, g) for o in bucket]
        assert np.abs(batch - singles).max() < 1e-12


class TestObjective:
    def test_perfect_predictions_zero_loss(self):
        cfg = TrainConfig(s3im_enabled=True, s3im_L=10.0)
        y0 = np.array([30.0, 31.5, 29.0])
        y1 = np.array([40.0, 38.0])
        preds = [Prediction(0, Tensor(y0.copy())), Prediction(1, Tensor(y1.copy()))]
        labels = [LabelBatch(0, y0), LabelBatch(1, y1)]
        assert abs(objective(preds, labels, cfg).item()) <= 1e-12

    def test_single_timestep_mse(self):
        cfg = TrainConfig(s3im_enabled=False)
        preds = [Prediction(0, Tensor(np.array([3.0, -3.0])))]
        labels = [LabelBatch(0, np.array([0.0, 0.0]))]
        assert objective(preds, labels, cfg).item() == 9.0

    def test_matches_term_wise_oracle(self):
        from sebrange.s3im import s3im_value

        cfg = TrainConfig(s3im_enabled=True, s3im_weight=0.7, s3im_L=25.0)
        s3cfg = cfg.make_s3im(None)
        r = Rng(4)
        preds, labels, expected = [], [], 0.0
        for t in range(3):
            n = int(r.integers(6)) + 2
            y = r.normal(35.0, 5.0, size=(n,))
            p = y + r.normal(0.0, 2.0, size=(n,))
            preds.append(Prediction(t, Tensor(p)))
            labels.append(LabelBatch(t, y))
            expected += ((p - y) ** 2).mean()
            expected += 0.7 * (1.0 - s3im_value(p, y, s3cfg))
        got = objective(preds, labels, cfg, s3cfg).item()
        assert abs(got - expected) <= 1e-12

    def test_misaligned_timesteps(self):
        cfg = TrainConfig()
        preds = [Prediction(0, Tensor(np.array([1.0, 2.0])))]
        labels = [LabelBatch(1, np.array([1.0, 2.0]))]
        with pytest.raises(AlignmentError):
            objective(preds, labels, cfg)

    def test_singleton_bucket_skips_similarity_term(self):
        cfg = TrainConfig(s3im_enabled=True, s3im_L=10.0)
        preds = [Prediction(0, Tensor(np.array([5.0])))]
        labels = [LabelBatch(0, np.array([3.0]))]
        assert objective(preds, labels, cfg).item() == 4.0


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
            total += abs(model.forward(o, graph) - o.label)
        assert abs(res.mean - total / 40.0) <= 1e-12
        assert res.residuals.shape == (40,)

    def test_empty_set_rejected(self, tiny_data):
        _, graph = tiny_data
        with pytest.raises(ConfigError):
            evaluate_mae(self._Const(1.0), [], graph)


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
            if p is model.fusion.out_bias:
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
            pred = Prediction(chunk[0].t, model.forward_batch(chunk, graph))
            label = LabelBatch(chunk[0].t, [o.label for o in chunk])
            expected += objective([pred], [label], cfg, s3cfg).item()
        assert abs(history[0].train_loss - expected) <= 1e-12 * abs(expected)

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
        nan_orders = []
        for o in orders:
            telemetry = o.telemetry.copy()
            telemetry[0, 0] = np.nan
            nan_orders.append(replace(o, telemetry=telemetry))
        with pytest.raises(NumericError, match="non-finite in all 3 epochs"):
            train(fresh_model(), nan_orders, graph, TINY_TRAIN)

    def test_empty_dataset_rejected(self, tiny_data):
        _, graph = tiny_data
        with pytest.raises(ConfigError):
            train(fresh_model(), [], graph, TINY_TRAIN)


def test_split_deterministic_and_disjoint(tiny_data):
    orders, _ = tiny_data
    a = split_orders(orders, TINY_TRAIN)
    b = split_orders(orders, TINY_TRAIN)
    assert [o.order_id for o in a[0]] == [o.order_id for o in b[0]]
    ids = [o.order_id for part in a for o in part]
    assert sorted(ids) == [o.order_id for o in orders]


class TestCheckpoint:
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

    def test_baseline_checkpoints(self, tiny_data, tmp_path):
        orders, graph = tiny_data
        for kind in ("lr", "mlp"):
            model = build_model(kind, TINY_MODEL, graph.n_users,
                                graph.n_batteries, 3)
            train_model(kind, model, orders, graph, TINY_TRAIN)
            path = tmp_path / f"{kind}.npz"
            save_checkpoint(path, model, "h")
            loaded, _ = load_checkpoint(path)
            assert np.array_equal(model.predict(orders[:7], graph),
                                  loaded.predict(orders[:7], graph))


def test_graph_sensitivity_smoke(tiny_data):
    # deleting all of an order's battery edges changes its prediction
    orders, graph = tiny_data
    cfg = TrainConfig(epochs=4, lr=5e-3, batch_size=32, seed=3)
    model = fresh_model()
    train(model, orders, graph, cfg)
    order = orders[0]
    pruned = TemporalGraph(graph.n_users, graph.n_batteries, graph.horizon)
    for snap in graph.snapshots:
        for e in snap.edges:
            if e.battery != order.battery:
                pruned.add_edge(e)
    assert model.forward(order, graph) != model.forward(order, pruned)


def test_mlp_baseline_shapes(tiny_data):
    orders, graph = tiny_data
    model = MlpBaseline(TINY_MODEL, Rng(5))
    model.prepare(orders[:80])
    out = model.predict(orders[:6])
    assert out.shape == (6,)
    assert np.all(np.isfinite(out))
