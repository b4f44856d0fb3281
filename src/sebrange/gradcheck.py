"""Central-finite-difference validation of analytic gradients."""

import math

import numpy as np

from .errors import ContractError
from .optim import Param, RowTable
from .tensor import Tensor


def grad_check(f, point, h: float = 1e-5) -> float:
    """Compare analytic and central-difference gradients of a scalar function.

    ``f`` maps a Param to a scalar Tensor. The check runs on a copy of
    ``point``, which is never written. Error metric as in
    :func:`grad_check_params`.
    """
    p = Param(point)
    return grad_check_params(lambda: f(p), [p], h)


def grad_check_params(loss_fn, params, h: float = 1e-5) -> float:
    """Finite-difference check of a loss against a list of Params.

    ``loss_fn`` takes no arguments, reads the current param values and
    returns a scalar Tensor. Every coordinate of every param is perturbed
    in place; values are restored afterwards. Returns the max over
    coordinates of ``|analytic - numeric| / max(1, |numeric|)`` where
    ``numeric`` is the central difference ``(f(x + h e_i) - f(x - h e_i)) / 2h``.
    A non-finite error (a NaN gradient or loss) counts as ``inf``.
    """
    if not h > 0:
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
            if not math.isfinite(err):
                err = math.inf
            if err > worst:
                worst = err
            i += 1
    return worst


def dense_grad(p: Param) -> np.ndarray:
    """``p.grad`` in ``p.value``'s shape, a RowTable's rows scattered into zeros."""
    if not isinstance(p, RowTable):
        return p.grad
    out = np.zeros_like(p.value)
    out[p.live] = p.grad
    return out


def pack_params_grads(params) -> np.ndarray:
    """Flatten the dense gradients of a param list into one vector."""
    return np.concatenate([dense_grad(p).reshape(-1) for p in params])
