"""Gradient checker contracts and the optimizer."""

import numpy as np
import pytest

from sebrange.errors import ConfigError, ContractError
from sebrange.gradcheck import grad_check, grad_check_params
from sebrange.optim import AdamState, Param, optimizer_step
from sebrange.tensor import mul, relu, sum_


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


def test_constant_gradient_sum():
    err = grad_check(lambda t: sum_(t), np.array([1.0, -2.0, 0.5]))
    assert err <= 1e-10


def test_sum_of_squares_analytic():
    point = np.array([1.0, 2.0, 3.0])
    p = Param(point.copy())
    out = sum_(mul(p.tensor(), p.tensor()))
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
    err = grad_check_params(lambda: sum_(mul(p.tensor(), p.tensor())), [p])
    assert err <= 1e-8
    assert np.array_equal(p.value, before)


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
            optimizer_step([p], state, lr=0.1)
        assert np.array_equal(p.value, before)

    def test_constant_positive_gradient_decreases_value(self):
        p = Param(np.array(0.0))
        state = AdamState([p])
        prev = float(p.value)
        for _ in range(20):
            p.zero_grad()
            p.grad += 1.0
            optimizer_step([p], state, lr=0.01)
            assert float(p.value) < prev
            prev = float(p.value)

    def test_quadratic_bowl_converges(self):
        w = Param(np.array(1.0))
        state = AdamState([w])
        for _ in range(200):
            w.zero_grad()
            loss = mul(w.tensor(), w.tensor())
            loss.backward()
            optimizer_step([w], state, lr=0.05)
        assert abs(float(w.value)) < 0.01

    def test_nonpositive_lr_rejected(self):
        p = Param(np.array(1.0))
        state = AdamState([p])
        for bad in (0.0, -1e-3):
            with pytest.raises(ConfigError):
                optimizer_step([p], state, lr=bad)

    def test_grads_untouched_by_step(self):
        p = Param(np.array([1.0]))
        state = AdamState([p])
        p.grad += 3.0
        optimizer_step([p], state, lr=0.01)
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
