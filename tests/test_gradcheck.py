"""Gradient checker contracts and the optimizer."""

import numpy as np
import pytest

from sebrange.audit import run_gradient_audit
from sebrange.errors import ConfigError, ContractError
from sebrange.gradcheck import grad_check, grad_check_params
from sebrange.optim import AdamState, Param, optimizer_step
from sebrange.rng import Rng
from sebrange.tensor import Tensor, layer_norm, linear, mul, relu, sum_


def pack_params(params) -> np.ndarray:
    """Flatten a param list into one vector."""
    return np.concatenate([p.value.reshape(-1) for p in params])


def unpack_params(params, vec: np.ndarray):
    """Write a flat vector back into the params, in order."""
    offset = 0
    for p in params:
        n = p.value.size
        p.value[...] = vec[offset:offset + n].reshape(p.value.shape)
        offset += n
    if offset != vec.size:
        raise ContractError(
            f"vector length {vec.size} does not match params ({offset})"
        )


def grad_check_oracle(f, point, h=1e-5):
    """The central-difference loop ``grad_check`` once ran on its own: it
    perturbs ``point`` in place and calls ``f`` on fresh constants."""
    point = np.asarray(point, dtype=np.float64)
    p = Param(point.copy())
    f(p).backward()
    analytic = p.grad.reshape(-1).copy()

    worst = 0.0
    flat = point.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = f(Tensor(point.copy())).item()
        flat[i] = saved - h
        f_minus = f(Tensor(point.copy())).item()
        flat[i] = saved
        numeric = (f_plus - f_minus) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
        if err > worst:
            worst = err
    return worst


def _oracle_cases():
    """(name, f, point) for sum, sum of squares, relu, layer norm and linear."""
    r = Rng(7)
    c = r.normal(size=(3, 4))
    gain, bias = r.normal(size=(4,)), r.normal(size=(4,))
    w, b = r.normal(size=(4, 2)), r.normal(size=(2,))
    c2 = r.normal(size=(3, 2))
    return [
        ("sum", lambda t: sum_(t), r.normal(size=(5,))),
        ("squares", lambda t: sum_(mul(t, t)), r.normal(size=(2, 3))),
        ("relu", lambda t: sum_(mul(relu(t), c)), r.normal(size=(3, 4))),
        ("layer-norm", lambda t: sum_(mul(layer_norm(t, gain, bias), c)),
         r.normal(size=(3, 4))),
        ("linear", lambda t: sum_(mul(linear(t, w, b), c2)), r.normal(size=(3, 4))),
    ]


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("f,point", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_grad_check_matches_old_loop_bit_for_bit(f, point):
    assert grad_check(f, point).hex() == grad_check_oracle(f, point).hex()


def test_grad_check_leaves_read_only_point_unchanged():
    point = np.array([[0.5, -0.7], [1.2, -2.0]])
    before = point.copy()
    point.flags.writeable = False
    assert grad_check(lambda t: sum_(mul(t, t)), point) <= 1e-8
    assert point.tobytes() == before.tobytes()


# Worst errors of a 2-point audit at seed 42, taken before the checks became
# functions of one point's substream; a refactor must keep every bit.
AUDIT_2_POINTS = {
    "matmul": 6.893020876308498e-11,
    "softmax": 1.6765443850916273e-11,
    "relu": 3.2399638527635943e-11,
    "layer-norm": 7.808814705967393e-11,
    "linear": 1.840771979289002e-10,
    # Re-pinned when the check became two hops at window 1 over a target subset.
    "gcn-layer": 9.883138057942276e-11,
    # Re-pinned when the checks moved to the one-node FFN (the "qkv" row's
    # place, 1.0418366169773208e-10) and the one-node attention sublayer over
    # ATTENTION_TILE + 1 sequences, checked in x, W_Q, W_K and W_V. The
    # attention_core check across two tiles it replaced read
    # 1.9396267925131383e-10 natively and 2.1410134776189693e-10 under X86_V3
    # and Haswell; the new one reads the same bits in all three pinned float
    # environments.
    "ffn": 1.612299183051391e-10,
    "attention": 3.59767323879878e-10,
    "block": 2.2555224068476838e-10,
    # Replaced the "mlp" row (1.9034371301351882e-11), which checked the same
    # feed_forward op as "ffn", when table gradients became compact.
    "node-table": 2.5726141332974783e-11,
    "s3im": 1.900393037379544e-11,
    "regularizer": 1.6708079364491368e-11,
    "model": 3.0298202896812295e-08,
}


def test_audit_two_points_bit_for_bit():
    got = {r.op: r.max_err for r in run_gradient_audit(points=2)}
    assert got == AUDIT_2_POINTS


# 0, -1 and nan tolerances are covered through the CLI in test_cli.py.
@pytest.mark.parametrize("kwargs", [{"tolerance": float("inf")}, {"points": 0}],
                         ids=["tolerance-inf", "points-0"])
def test_audit_rejects_bad_tolerance_and_points(kwargs):
    with pytest.raises(ConfigError):
        run_gradient_audit(ops=["s3im"], **kwargs)


def test_constant_gradient_sum():
    err = grad_check(lambda t: sum_(t), np.array([1.0, -2.0, 0.5]))
    assert err <= 1e-10


def test_sum_of_squares_analytic():
    point = np.array([1.0, 2.0, 3.0])
    p = Param(point.copy())
    out = sum_(mul(p, p))
    out.backward()
    assert np.abs(p.grad - [2.0, 4.0, 6.0]).max() < 1e-12
    assert grad_check(lambda t: sum_(mul(t, t)), point) <= 1e-8


def test_non_scalar_target_is_contract_error():
    with pytest.raises(ContractError):
        grad_check(lambda t: mul(t, 2.0), np.array([1.0, 2.0]))


def test_bad_step_rejected():
    with pytest.raises(ContractError):
        grad_check(lambda t: sum_(t), np.array([1.0]), h=0.0)


def test_grad_check_params_restores_values():
    p = Param(np.array([1.0, 2.0]))
    before = p.value.copy()
    err = grad_check_params(lambda: sum_(mul(p, p)), [p])
    assert err <= 1e-8
    assert np.array_equal(p.value, before)


def test_nan_gradient_is_an_infinite_error(monkeypatch):
    accumulate = Param.accumulate
    monkeypatch.setattr(Param, "accumulate",
                        lambda self, g, rows=None: accumulate(self, g * np.nan, rows))
    p = Param(np.array([1.0, 2.0]))
    assert grad_check_params(lambda: sum_(mul(p, p)), [p]) == np.inf


def test_pack_unpack_round_trip():
    params = [Param(np.arange(4.0).reshape(2, 2)), Param(np.array([9.0]))]
    vec = pack_params(params)
    assert np.array_equal(vec, [0, 1, 2, 3, 9])
    unpack_params(params, vec * 2.0)
    assert np.array_equal(params[0].value, [[0, 2], [4, 6]])
    assert np.array_equal(params[1].value, [18.0])


class TestOptimizer:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Param(np.array([1.5, -2.5]))
        before = p.value.copy()
        state = AdamState([p])
        for _ in range(10):
            p.zero_grad()
            optimizer_step(state, lr=0.1)
        assert np.array_equal(p.value, before)

    def test_constant_positive_gradient_decreases_value(self):
        p = Param(np.array(0.0))
        state = AdamState([p])
        prev = float(p.value)
        for _ in range(20):
            p.zero_grad()
            p.grad += 1.0
            optimizer_step(state, lr=0.01)
            assert float(p.value) < prev
            prev = float(p.value)

    def test_quadratic_bowl_converges(self):
        w = Param(np.array(1.0))
        state = AdamState([w])
        for _ in range(200):
            w.zero_grad()
            loss = mul(w, w)
            loss.backward()
            optimizer_step(state, lr=0.05)
        assert abs(float(w.value)) < 0.01

    def test_nonpositive_lr_rejected(self):
        p = Param(np.array(1.0))
        state = AdamState([p])
        for bad in (0.0, -1e-3):
            with pytest.raises(ConfigError):
                optimizer_step(state, lr=bad)

    def test_grads_untouched_by_step(self):
        p = Param(np.array([1.0]))
        state = AdamState([p])
        p.grad += 3.0
        optimizer_step(state, lr=0.01)
        assert np.array_equal(p.grad, [3.0])


def test_param_invariants():
    p = Param(np.ones((2, 3)), name="w")
    assert p.grad.shape == p.value.shape
    p.grad += 1.0
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros((2, 3)))


def test_relu_gradient_matches_finite_difference():
    # points away from the kink
    point = np.array([[0.5, -0.7], [1.2, -2.0]])
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    err = grad_check(lambda t: sum_(mul(relu(t), c)), point)
    assert err <= 1e-8
