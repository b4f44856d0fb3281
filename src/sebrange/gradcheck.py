"""Central-finite-difference validation of analytic gradients."""

import numpy as np

from .errors import ContractError
from .optim import Param
from .tensor import Tensor


def grad_check(f, point, h: float = 1e-5) -> float:
    """Compare analytic and central-difference gradients of a scalar function.

    ``f`` maps a Tensor to a scalar Tensor. Returns the max over coordinates
    of ``|analytic - numeric| / max(1, |numeric|)`` where ``numeric`` is the
    central difference ``(f(x + h e_i) - f(x - h e_i)) / 2h``.
    """
    if h <= 0:
        raise ContractError(f"step h must be positive, got {h}")
    point = np.asarray(point, dtype=np.float64)
    leaf = Param(point.copy())
    out = f(leaf.tensor())
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("grad_check target must return a scalar Tensor")
    out.backward()
    analytic = leaf.grad.reshape(-1).copy()

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


def grad_check_params(loss_fn, params, h: float = 1e-5) -> float:
    """Finite-difference check of a loss against a list of Params.

    ``loss_fn`` takes no arguments, reads the current param values and
    returns a scalar Tensor. Every coordinate of every param is perturbed
    in place; values are restored afterwards. Error metric matches
    :func:`grad_check`.
    """
    if h <= 0:
        raise ContractError(f"step h must be positive, got {h}")
    for p in params:
        p.zero_grad()
    out = loss_fn()
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("grad_check target must return a scalar Tensor")
    out.backward()
    analytic = pack_params_grads(params)

    worst = 0.0
    i = 0
    for p in params:
        flat = p.value.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + h
            f_plus = loss_fn().item()
            flat[j] = saved - h
            f_minus = loss_fn().item()
            flat[j] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
            i += 1
    return worst


def pack_params_grads(params) -> np.ndarray:
    """Flatten the gradient accumulators of a param list into one vector."""
    return np.concatenate([p.grad.reshape(-1) for p in params])
