"""Tensor op contracts: frozen numeric examples plus brute-force oracles."""

import numpy as np
import pytest

from sebrange.errors import ContractError, ShapeError
from sebrange.gradcheck import dense_grad
from sebrange.optim import Param, RowTable
from sebrange.rng import Rng
from sebrange.s3im import S3imConfig, s3im
from sebrange.tensor import (
    Tensor,
    _pairwise_sum_rows,
    add,
    attention_core,
    concat,
    gather_rows,
    layer_norm,
    linear,
    matmul,
    mean,
    mul,
    neighbor_mean,
    relu,
    reshape,
    scatter_add_rows,
    softmax_rows,
    sub,
    sum_,
)
from test_fused import transpose_last


def naive_matmul(a, b):
    """Triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(matmul(a, b).array, [[17.0], [39.0]])

    def test_identity(self):
        r = Rng(1)
        a = r.normal(size=(5, 5))
        assert np.array_equal(matmul(Tensor(a), Tensor(np.eye(5))).array, a)

    def test_annihilator(self):
        a = Rng(2).normal(size=(4, 3))
        out = matmul(Tensor(a), Tensor(np.zeros((3, 2)))).array
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_matches_triple_loop_oracle(self):
        r = Rng(3)
        for _ in range(20):
            m, k, n = (int(r.integers(16)) + 1 for _ in range(3))
            a = r.normal(size=(m, k))
            b = r.normal(size=(k, n))
            got = matmul(Tensor(a), Tensor(b)).array
            assert np.abs(got - naive_matmul(a, b)).max() <= 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched(self):
        r = Rng(4)
        a = r.normal(size=(6, 3, 4))
        b = r.normal(size=(4, 2))
        got = matmul(Tensor(a), Tensor(b)).array
        assert got.shape == (6, 3, 2)
        for i in range(6):
            assert np.allclose(got[i], a[i] @ b)


class TestSoftmax:
    def test_uniform_by_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]])).array
        assert np.array_equal(out, [[1 / 3, 1 / 3, 1 / 3]])

    def test_single_element_row(self):
        assert np.array_equal(softmax_rows(Tensor([[123.4]])).array, [[1.0]])

    def test_overflow_guard_analytic(self):
        # softmax([c, c + ln 2]) = [1/3, 2/3] for any c, even huge c
        out = softmax_rows(Tensor([[1000.0, 1000.0 + np.log(2.0)]])).array
        assert np.abs(out - [1 / 3, 2 / 3]).max() < 1e-12

    def test_rows_sum_to_one_and_bounded(self):
        x = Rng(5).normal(0, 50, size=(40, 17))
        out = softmax_rows(Tensor(x)).array
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestBackward:
    def test_requires_scalar(self):
        t = mul(Tensor([1.0, 2.0]), 2.0)
        with pytest.raises(ContractError):
            t.backward()

    def test_broadcast_add_grads(self):
        r = Rng(6)
        a = Tensor(r.normal(size=(4, 3)))
        b = Tensor(r.normal(size=(3,)))
        out = sum_(add(a, b))
        out.backward()
        assert np.array_equal(a.grad, np.ones((4, 3)))
        assert np.array_equal(b.grad, np.full(3, 4.0))

    def test_shared_node_accumulates(self):
        x = Tensor([2.0])
        y = sum_(add(mul(x, 3.0), mul(x, 5.0)))
        y.backward()
        assert np.array_equal(x.grad, [8.0])


def test_relu_values():
    assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).array, [0.0, 0.0, 2.0])


def test_relu_passes_nan_and_keeps_finite_values():
    x = np.array([np.nan, -1.0, -0.0, 0.0, 2.5, np.inf, -np.inf])
    out = relu(x).array
    assert np.isnan(out[0])
    assert np.array_equal(out[1:], [0.0, 0.0, 0.0, 2.5, np.inf, 0.0])
    # finite inputs, -0.0 included, give the bits of where(a > 0, a, 0)
    finite = x[1:]
    assert out[1:].tobytes() == np.where(finite > 0.0, finite, 0.0).tobytes()


def test_relu_bits_match_where_on_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  1.5, -2.0])
    x = np.stack([x, x[::-1]])  # every value at two alignments
    with np.errstate(all="raise"):
        out = relu(x).array
        oracle = np.where(x <= 0.0, 0.0, x)
    assert out.tobytes() == oracle.tobytes()


def assert_numpy_row_sums(a):
    """``_pairwise_sum_rows(a)`` has the bits of numpy's own sum of axis -2,
    taken along a contiguous copy, and NaN wherever that sum is NaN."""
    with np.errstate(invalid="ignore"):
        got = _pairwise_sum_rows(a)
        want = np.ascontiguousarray(np.swapaxes(a, -1, -2)).sum(axis=-1)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), a.shape
    assert got[~nan].tobytes() == want[~nan].tobytes(), a.shape
    return want


class TestPairwiseSumRows:
    """``_pairwise_sum_rows`` repeats numpy's summation order; a numpy release
    that sums in another order fails here."""

    def test_bits_for_every_length_up_to_300(self):
        # n < 8, 8 <= n <= 128 and the recursive split above 128.
        rng = np.random.default_rng(21)
        for n in range(1, 301):
            a = rng.choice([-1.0, 1.0], size=(2, n, 9)) * 10.0 ** rng.uniform(
                -5, 5, size=(2, n, 9))
            assert not np.isnan(assert_numpy_row_sums(a)).any()

    def test_bits_on_zeros_infinities_and_subnormals(self):
        rng = np.random.default_rng(22)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                            2.5e-310, -1e-308, 1.0, -3.5])
        for n in (1, 2, 7, 8, 9, 16, 64, 127, 128, 129, 200, 300):
            for values in (special, special[[0, 1]], special[[1, 4, 5, 6]]):
                assert_numpy_row_sums(rng.choice(values, size=(3, n, 11)))

    def test_nan_wherever_numpy_gives_nan(self):
        rng = np.random.default_rng(23)
        for n in (1, 5, 8, 33, 64, 128, 129, 257):
            a = rng.normal(size=(2, n, 7))
            a[rng.random(a.shape) < 0.02] = np.nan
            a[0, -1, 0] = np.nan
            assert np.isnan(assert_numpy_row_sums(a)[0, 0])


def test_mean_axis():
    x = np.arange(12.0).reshape(3, 4)
    assert np.allclose(mean(Tensor(x), axis=-2).array, x.mean(axis=0))
    assert np.allclose(mean(Tensor(x)).array, x.mean())


def test_concat_and_split_grads():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 1)))
    out = concat([a, b], axis=-1)
    assert out.shape == (2, 4)
    sum_(mul(out, np.arange(8.0).reshape(2, 4))).backward()
    assert np.array_equal(a.grad, [[0, 1, 2], [4, 5, 6]])
    assert np.array_equal(b.grad, [[3], [7]])


def test_gather_rows_scatter_grad():
    x = Tensor(np.arange(8.0).reshape(4, 2))
    out = gather_rows(x, np.array([1, 1, 3]))
    assert np.array_equal(out.array, [[2, 3], [2, 3], [6, 7]])
    sum_(out).backward()
    assert np.array_equal(x.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_neighbor_mean_isolated_rows_zero():
    h = Tensor(np.ones((3, 2)))
    src = np.array([0, 1])
    dst = np.array([2, 2])
    inv = np.array([0.0, 0.0, 0.5])
    out = neighbor_mean(h, src, dst, 3, inv)
    assert np.array_equal(out.array, [[0, 0], [0, 0], [1, 1]])


def test_scatter_empty_edges():
    out = scatter_add_rows(np.ones((3, 2)), np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64), 3)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_transpose_and_reshape_round_trip():
    x = Rng(7).normal(size=(3, 5))
    t = transpose_last(Tensor(x))
    assert np.array_equal(t.array, x.T)
    p = Param(x)
    c = Rng(9).normal(size=(5, 3))
    sum_(mul(transpose_last(p), c)).backward()
    assert np.array_equal(p.grad, c.T)
    r = reshape(Tensor(x), (5, 3))
    assert np.array_equal(r.array, x.reshape(5, 3))


def test_outputs_finite_on_finite_inputs():
    r = Rng(8)
    x = Tensor(r.normal(0, 100, size=(6, 6)))
    for out in (softmax_rows(x), relu(x), mul(x, x), add(x, 1e300 * 0.0)):
        assert np.all(np.isfinite(out.array))


def test_tensor_data_flat_row_major():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.array.flags.c_contiguous
    assert np.array_equal(t.array.reshape(-1), [0, 1, 2, 3, 4, 5])
    assert t.shape == (2, 3)
    assert t.size == 6


# -- constants: an operand that is not a Tensor is not on the tape -------------

_r = Rng(12)
_a, _b, _row = _r.normal(size=(3, 4)), _r.normal(size=(3, 4)), _r.normal(size=(4,))
_q, _k, _v = (_r.normal(size=(2, 5, 4)) for _ in range(3))
_x3 = _r.normal(size=(2, 3, 4))

# (name, op over its operands, operand values); each case is run once per
# operand made a constant.
CONSTANT_CASES = [
    ("add", add, [_a, _row]),
    ("add-float", add, [_a, 2.5]),
    ("sub", sub, [_a, _b]),
    ("sub-float", sub, [1.0, _a]),
    ("mul", mul, [_a, _row]),
    ("mul-float", mul, [_a, 0.75]),
    ("relu", relu, [_a]),
    ("matmul", matmul, [_a, _b.T]),
    ("linear", linear, [_x3, _b.T, _r.normal(size=(3,))]),
    ("sum", lambda t: sum_(t, axis=-1), [_a]),
    ("mean", lambda t: mean(t, axis=-2), [_x3]),
    ("reshape", lambda t: reshape(t, (4, 3)), [_a]),
    ("concat", lambda s, t: concat([s, t], axis=-1), [_a, _b]),
    ("softmax", softmax_rows, [_a]),
    ("attention", attention_core, [_q, _k, _v]),
    ("layer-norm", layer_norm, [_x3, _row, _r.normal(size=(4,))]),
    ("gather", lambda t: gather_rows(t, np.array([2, 0, 2])), [_a]),
    ("neighbor-mean", lambda t: neighbor_mean(
        t, np.array([0, 1, 2]), np.array([1, 1, 0]), 2, np.array([1.0, 0.5])), [_a]),
    ("s3im", lambda t: s3im(t, _b, S3imConfig()), [_a]),
]


def _run_with(op, values, constant, as_leaf):
    """``op`` with operand ``constant`` passed as its value, or as a
    ``Tensor`` leaf, and every other operand a Param. Returns the output's
    bytes, its parents, the Tensor operands' nodes and the Param grads of
    sum(out * c)."""
    params = [Param(v) for v in values]
    operands = list(params)
    operands[constant] = Tensor(values[constant]) if as_leaf else values[constant]
    out = op(*operands)
    parents = out._parents
    sum_(mul(out, Rng(3).normal(size=out.shape))).backward()
    nodes = [t.node for t in operands if isinstance(t, Tensor)]
    grads = [p.grad.tobytes() for i, p in enumerate(params) if i != constant]
    return out.array.tobytes(), parents, nodes, grads


@pytest.mark.parametrize("name, op, values", CONSTANT_CASES,
                         ids=[c[0] for c in CONSTANT_CASES])
def test_constant_operand_matches_a_leaf(name, op, values):
    for constant in range(len(values)):
        out, parents, nodes, grads = _run_with(op, values, constant, False)
        leaf_out, leaf_parents, leaf_nodes, leaf_grads = _run_with(
            op, values, constant, True)
        assert out == leaf_out, constant
        assert parents == tuple(nodes), constant
        assert len(leaf_parents) == len(parents) + 1, constant
        assert grads == leaf_grads, constant


# -- broadcasting: every gradient comes back in its operand's shape -------------

_broadcast_rng = Rng(13)


def _normal(*shape):
    return _broadcast_rng.normal(size=shape)


# (name, op over its operands, operand values, trailing axes each operand
# keeps as its own: 0 for elementwise broadcasting, 2 for numpy matmul's).
BROADCAST_CASES = [
    ("add", add, [_normal(1, 4, 3), _normal(5, 4, 3)], 0),
    ("sub", sub, [_normal(5, 4, 3), _normal(1, 4, 3)], 0),
    ("mul", mul, [_normal(1, 4, 3), _normal(5, 1, 3)], 0),
    ("matmul-1", matmul, [_normal(1, 4, 3), _normal(5, 3, 2)], 2),
    ("matmul-2d-left", matmul, [_normal(4, 3), _normal(5, 3, 2)], 2),
    ("matmul-2d-right", matmul, [_normal(5, 4, 3), _normal(3, 2)], 2),
    ("attention-query", attention_core,
     [_normal(1, 6, 4), _normal(3, 6, 4), _normal(3, 6, 4)], 2),
    ("attention-keys", attention_core,
     [_normal(3, 6, 4), _normal(1, 6, 4), _normal(3, 6, 4)], 2),
    ("layer-norm", layer_norm, [_normal(2, 3, 4), _normal(4), _normal(1, 1, 4)], 0),
]


def _leaf_grads(op, values):
    """Each operand as a Tensor leaf: the leaves' gradients of
    sum(op(...) * c), in the shapes the VJP returned them."""
    leaves = [Tensor(v) for v in values]
    out = op(*leaves)
    sum_(mul(out, Rng(4).normal(size=out.shape))).backward()
    return [t.grad.shape for t in leaves], [t.grad for t in leaves]


@pytest.mark.parametrize("name, op, values, core", BROADCAST_CASES,
                         ids=[c[0] for c in BROADCAST_CASES])
def test_broadcast_operand_gets_its_own_shape(name, op, values, core):
    leading = np.broadcast_shapes(*(v.shape[:v.ndim - core] for v in values))
    targets = [leading + v.shape[v.ndim - core:] for v in values]
    shapes, grads = _leaf_grads(op, values)
    _, full = _leaf_grads(op, [np.broadcast_to(v, s).copy()
                                for v, s in zip(values, targets)])
    for i, (v, target) in enumerate(zip(values, targets)):
        assert shapes[i] == v.shape, i
        # The broadcast is a gather; its transpose sums each element's copies.
        owner = np.broadcast_to(np.arange(v.size).reshape(v.shape), target)
        want = np.bincount(owner.reshape(-1), weights=full[i].reshape(-1),
                           minlength=v.size).reshape(v.shape)
        assert np.abs(grads[i] - want).max() <= 1e-12, i


def test_accumulate_rejects_a_gradient_of_another_shape():
    p = RowTable(np.zeros((4, 3)))
    with pytest.raises(ContractError, match=r"\(3, 4\)"):
        p.accumulate(np.ones((3, 4)))
    rows = np.array([0, 2])
    with pytest.raises(ContractError, match=r"\(2, 4\)"):
        p.accumulate(np.ones((2, 4)), rows)
    assert not p.grad.any()


# -- operands: a Tensor's gradient goes to its node, a param's into its grad ---

class _CountingParam(Param):
    """A Param that keeps a copy of every gradient deposited into it."""

    def __init__(self, value):
        super().__init__(value)
        self.deposits = []

    def accumulate(self, g, rows=None):
        self.deposits.append(g.copy())
        super().accumulate(g, rows)


def test_param_as_linear_input_gets_its_gradient():
    r = Rng(21)
    x, w, b = r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)), r.normal(size=(5,))
    c = r.normal(size=(2, 3, 5))
    p, leaf = Param(x), Tensor(x)
    for operand in (p, leaf):
        sum_(mul(linear(operand, w, b), c)).backward()
    assert p.grad.tobytes() == np.matmul(c, w.T).tobytes()
    assert p.grad.tobytes() == leaf.grad.tobytes()


def test_each_use_of_a_param_deposits_once():
    v = np.array([1.5, -2.0, 0.25])
    p = _CountingParam(v)
    sum_(mul(p, p)).backward()
    assert [d.tobytes() for d in p.deposits] == [v.tobytes()] * 2
    assert p.grad.tobytes() == (v + v).tobytes()


def test_row_read_deposits_only_its_rows():
    table = RowTable(Rng(22).normal(size=(5, 2)))
    idx = np.array([3, 1, 3])
    read = table.rows(idx)
    assert read.value.tobytes() == table.value[idx].tobytes()
    c = Rng(23).normal(size=(3, 2))
    sum_(mul(read, c)).backward()
    want = np.zeros((5, 2))
    want[1] = c[1]
    want[3] = c[0] + c[2]
    assert dense_grad(table).tobytes() == want.tobytes()
    assert table.live.tolist() == [1, 3]
    assert table.grad.tobytes() == want[[1, 3]].tobytes()


def test_constant_operand_receives_nothing():
    c = np.array([[2.0, -1.0], [0.5, 3.0]])
    before = c.copy()
    p = Param(np.ones((2, 2)))
    out = mul(p, c)
    assert out._parents == () and out.node._sinks[1] is None
    sum_(out).backward()
    assert c.tobytes() == before.tobytes()
    assert p.grad.tobytes() == c.tobytes()


def test_second_backward_through_a_spent_node_raises():
    p = Param(np.array([1.0, 2.0]))
    loss = sum_(mul(p, p))
    loss.backward()
    grad = p.grad.copy()
    with pytest.raises(ContractError, match="already ran"):
        loss.backward()
    with pytest.raises(ContractError, match="already ran"):
        mul(loss, 2.0).backward()
    assert p.grad.tobytes() == grad.tobytes()
