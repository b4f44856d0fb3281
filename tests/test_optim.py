"""Row-sparse gradients and the live-row Adam update against dense Adam."""

from types import SimpleNamespace

import numpy as np
import pytest

from sebrange import audit, training
from sebrange.benchmark import build_model, train_model
from sebrange.datagen import GeneratorConfig, generate
from sebrange.gradcheck import dense_grad
from sebrange.model import ModelConfig
from sebrange.optim import AdamState, Param, RowTable, optimizer_step
from sebrange.rng import Rng
from sebrange.tensor import add, gather_rows, mul, sum_
from sebrange.training import TrainConfig


class DenseAdam:
    """Adam over every element of every param, one param at a time."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = list(params)
        self.step = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]


def dense_adam_step(state, lr):
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, m, v in zip(state.params, state.m, state.v):
        g = dense_grad(p)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def table_moments(state, table):
    """The sparse state's moments of ``table`` as full arrays."""
    ((m_rows, v_rows),) = [mv for t, mv in zip(state.tables, state.row_moments)
                           if t is table]
    m, v = np.zeros_like(table.value), np.zeros_like(table.value)
    m[table.live] = m_rows
    v[table.live] = v_rows
    return m, v


N_ROWS = 12


def row_schedule(r, steps):
    """Rows read per step, with the row gradients to send back.

    Row 0 is read once at step 0 and never again, so its moments only decay.
    Rows 1 and 2 are always read with a gradient of exactly 0.0 and -0.0.
    Rows 3.. are read at random, with repeats; from step 15 every row is.
    """
    plan = []
    for step in range(steps):
        rows = [1, 2] + list(3 + r.integers(N_ROWS - 3, size=int(r.integers(6))))
        if step == 0:
            rows.append(0)
        if step >= 15:
            rows += list(range(N_ROWS))
        rows = np.array(rows, dtype=np.int64)
        c = r.normal(size=(rows.size, 3))
        c[rows == 1] = 0.0
        c[rows == 2] = -0.0
        plan.append((rows, c))
    return plan


def test_row_sparse_adam_matches_dense_adam_bit_for_bit():
    r = Rng(5)
    init = [r.normal(size=(4, 3)), r.normal(size=(N_ROWS, 3)), r.normal(size=(3,))]
    sparse = [kind(a.copy(), f"p{i}")
              for i, (kind, a) in enumerate(zip((Param, RowTable, Param), init))]
    dense = [Param(a.copy(), f"p{i}") for i, a in enumerate(init)]
    c_w, c_b = r.normal(size=(4, 3)), r.normal(size=(3,))
    live = set()

    def run(steps):
        """Fresh sparse and dense Adam states through ``steps`` scheduled steps."""
        s_state, d_state = AdamState(sparse), DenseAdam(dense)
        for step, (rows, c) in enumerate(row_schedule(r, steps)):
            for ps in (sparse, dense):
                for p in ps:
                    p.zero_grad()
                assert all(np.all(p.grad == 0.0) for p in ps)
            # The sparse table is read through a row read, the dense one whole
            # with the same rows' gradients scattered in.
            w, table, b = sparse
            sum_(add(add(sum_(mul(table.rows(rows), c)), sum_(mul(w, c_w))),
                     sum_(mul(b, c_b)))).backward()
            np.add.at(dense[1].grad, rows, c)
            dense[0].grad += c_w
            dense[2].grad += c_b
            assert dense_grad(sparse[1]).tobytes() == dense[1].grad.tobytes()
            assert sparse[1].grad.shape == (sparse[1].live.size, 3)
            optimizer_step(s_state, lr=0.05)
            dense_adam_step(d_state, lr=0.05)
            live.update(rows.tolist())
            for ps, pd in zip(sparse, dense):
                assert ps.value.tobytes() == pd.value.tobytes(), (step, ps.name)
            s_m, s_v = table_moments(s_state, table)
            assert s_m.tobytes() == d_state.m[1].tobytes(), step
            assert s_v.tobytes() == d_state.v[1].tobytes(), step
            assert s_state.m.tobytes() == np.concatenate(
                [d_state.m[0].ravel(), d_state.m[2].ravel()]).tobytes()
            assert s_state.v.tobytes() == np.concatenate(
                [d_state.v[0].ravel(), d_state.v[2].ravel()]).tobytes()
            assert sorted(table.live.tolist()) == sorted(live)

    run(25)
    # Row 0 kept decaying after its one read; rows 1 and 2 never moved.
    assert not np.array_equal(sparse[1].value[0], init[1][0])
    assert np.array_equal(sparse[1].value[1:3], init[1][1:3])
    assert len(live) == N_ROWS
    # A second state starts with every row of the table live, with zero
    # moments and, until read, a zero gradient.
    run(8)
    assert np.array_equal(sparse[1].value[1:3], init[1][1:3])
    for p in sparse:
        p.zero_grad()
        assert np.all(p.grad == 0.0)


def test_zero_grad_clears_a_row_table_read_whole():
    p = RowTable(np.ones((5, 2)))
    q = p.rows([1, 1, 3])
    sum_(add(sum_(q), sum_(p))).backward()
    assert np.array_equal(dense_grad(p)[:, 0], [1.0, 3.0, 1.0, 2.0, 1.0])
    p.zero_grad()
    assert np.all(p.grad == 0.0)
    assert p.live.tolist() == [1, 3, 0, 2, 4]


def test_adam_state_is_laid_out_when_made():
    w, table = Param(np.ones((2, 3))), RowTable(np.ones((5, 3)))
    state = AdamState([w, table])
    assert state.dense == [w]
    assert state.m.shape == state.v.shape == (6,)
    assert state.tables == [table]
    ((m, v),) = state.row_moments
    assert table.live.size == 0 and m.shape == v.shape == (0, 3)


def test_adam_moments_take_only_the_rows_training_reaches(traced):
    table = RowTable(np.ones((100_000, 8)))
    r = Rng(11)
    pool = r.integers(100_000, size=100)
    c = r.normal(size=(40, 8))

    def train():
        state = AdamState([table])
        for _ in range(4):
            table.zero_grad()
            sum_(mul(table.rows(pool[r.integers(100, size=40)]), c)).backward()
            optimizer_step(state, lr=0.01)
        return state

    state, _, peak = traced(train)
    ((m, v),) = state.row_moments
    # A fleet-sized pair of moments would take 12.8 MB.
    assert peak < 1_000_000
    assert 0 < table.live.size <= 100
    assert m.shape == v.shape == (table.live.size, 8)


def test_row_table_read_whole_makes_every_row_live_once():
    init = Rng(4).normal(size=(5, 3))
    table, dense = RowTable(init.copy()), Param(init.copy())
    s_state, d_state = AdamState([table]), DenseAdam([dense])
    c = Rng(6).normal(size=(5, 3))
    # Row 4 read as -1 and as 4 becomes live once, before the whole read.
    sum_(add(sum_(table.rows([-1, 4, 1])), sum_(mul(table, c)))).backward()
    dense.grad += c
    np.add.at(dense.grad, [4, 4, 1], 1.0)
    optimizer_step(s_state, lr=0.05)
    dense_adam_step(d_state, lr=0.05)
    assert table.live.tolist() == [1, 4, 0, 2, 3]
    assert table.value.tobytes() == dense.value.tobytes()
    s_m, s_v = table_moments(s_state, table)
    assert s_m.tobytes() == d_state.m[0].tobytes()
    assert s_v.tobytes() == d_state.v[0].tobytes()


def test_deposit_into_live_rows_keeps_the_table_arrays():
    table = RowTable(Rng(7).normal(size=(6, 2)))
    table.accumulate(np.ones((2, 2)), np.array([4, 1]))
    live, grad, live_init = table.live, table.grad, table.live_init
    # Rows 1 and 4 are live already, row -2 as row 4: nothing to add.
    table.accumulate(np.full((3, 2), 2.0), np.array([1, -2, 1]))
    assert table.live is live and table.grad is grad and table.live_init is live_init
    assert table.live.tolist() == [1, 4]
    assert table.grad.tolist() == [[5.0, 5.0], [3.0, 3.0]]


def test_plain_param_has_no_row_leaf():
    p = Param(np.ones((4, 2)))
    assert not hasattr(p, "rows")
    assert not hasattr(p, "live")


@pytest.fixture(scope="module")
def sparse_fleet():
    return generate(GeneratorConfig(
        n_orders=160, n_users=60, n_batteries=400, n_stations=6, horizon=10,
        seed=7))


def test_sparse_fleet_training_matches_dense_adam(sparse_fleet, monkeypatch):
    orders, graph = sparse_fleet
    cfg = TrainConfig(epochs=3, batch_size=16, seed=7)
    states = []

    def fit(step):
        """History, weights after every step and the best-epoch weights."""
        trail = []

        def recorded(state, lr):
            states.append(state)
            step(state, lr)
            trail.append(b"".join(p.value.tobytes() for p in state.params))

        monkeypatch.setattr(training, "optimizer_step", recorded)
        model = build_model("seb", ModelConfig(), graph.n_users,
                            graph.n_batteries, 7)
        result = train_model("seb", model, orders, graph, cfg)
        return result.history, trail, [p.value.tobytes() for p in model.params()]

    sparse = fit(optimizer_step)
    (table,) = states[-1].tables
    monkeypatch.setattr(training, "AdamState", DenseAdam)
    dense = fit(dense_adam_step)

    assert sparse[0] == dense[0]
    assert len(sparse[1]) == len(dense[1]) >= 3 * 5
    assert sparse[1] == dense[1]
    assert sparse[2] == dense[2]
    # The table is row-sparse and most batteries were never reached.
    assert table.name == "h0.battery_bias"
    assert 0 < table.live.size < graph.n_batteries // 2


def test_training_again_from_the_same_weights_repeats_bit_for_bit(sparse_fleet):
    """A second train() on one model starts with the table's rows live from
    the first, and must still end with the same history and weights."""
    orders, graph = sparse_fleet
    cfg = TrainConfig(epochs=1, batch_size=16, seed=7)
    model = build_model("seb", ModelConfig(), graph.n_users, graph.n_batteries, 7)
    start = [p.value.copy() for p in model.params()]
    runs = []
    for _ in range(2):
        for p, v in zip(model.params(), start):
            p.value[...] = v
        history = train_model("seb", model, orders, graph, cfg).history
        runs.append((history, [p.value.tobytes() for p in model.params()]))
    (table,) = [p for p in model.params() if isinstance(p, RowTable)]
    assert 0 < table.live.size < graph.n_batteries // 2
    assert runs[0] == runs[1]


def test_audit_model_check_reads_table_through_row_leaf(monkeypatch):
    deposits = []
    accumulate = RowTable.accumulate

    def record(self, g, rows=None):
        deposits.append((self.name, rows is None))
        accumulate(self, g, rows)

    monkeypatch.setattr(RowTable, "accumulate", record)
    (row,) = audit.run_gradient_audit(ops=["model"], points=1)
    assert row.passed
    assert ("h0.battery_bias", False) in deposits
    assert ("h0.battery_bias", True) not in deposits


class _TableModel:
    """A model over one 100,000 x 8 table and a weight vector: an order's
    prediction is its row times the weights, summed. From the second epoch
    each order also reads a row 50,000 higher, which no earlier step read.
    Validation predicts the number of validation calls so far, so with zero
    labels the first epoch is the best."""

    def __init__(self, table):
        self.table = table
        self.w = Param(Rng(13).normal(size=(8,)), "w")
        self.evals = 0

    def params(self):
        return [self.table, self.w]

    trainable_params = params

    def prepare(self, orders):
        pass

    def read(self, rows):
        if isinstance(self.table, RowTable):
            return self.table.rows(rows)
        return gather_rows(self.table, rows)

    def forward_batch(self, chunk, graph):
        rows = np.array([o.row for o in chunk])
        pred = sum_(mul(self.read(rows), self.w), axis=1)
        if self.evals:
            pred = add(pred, sum_(mul(self.read(rows + 50_000), self.w), axis=1))
        return pred

    def predict(self, bucket, graph):
        self.evals += 1
        return np.full(len(bucket), float(self.evals))


def test_best_epoch_restores_rows_gone_live_since(traced):
    init = Rng(12).normal(size=(100_000, 8))
    r = Rng(14)
    orders = [SimpleNamespace(order_id=i, t=i % 3, label=0.0, row=int(k))
              for i, k in enumerate(r.integers(50_000, size=(60,)))]
    cfg = TrainConfig(epochs=3, batch_size=8, seed=3)
    dense = _TableModel(Param(init.copy(), "table"))
    want = training.train(dense, orders, None, cfg)
    # A first train() of a row table also loads what numpy imports on first use.
    training.train(_TableModel(RowTable(init.copy())), orders, None, cfg)
    table = RowTable(init.copy(), "table")
    model = _TableModel(table)
    result, _, peak = traced(training.train, model, orders, None, cfg)
    # A table-sized gradient, snapshot or pair of moments would take 6.4 MB.
    assert peak < 0.1 * table.value.nbytes, f"train() peaked at {peak} bytes"
    assert result.history == want.history and result.best_epoch == 1
    for p, q in zip(model.params(), dense.params()):
        assert p.value.tobytes() == q.value.tobytes(), p.name
    late = np.array([o.row for o in result.splits[0]]) + 50_000
    assert np.isin(late, table.live[-late.size:]).all()
    # The late rows moved in epochs 2 and 3 and are back at their initial values.
    assert table.value[late].tobytes() == init[late].tobytes()
