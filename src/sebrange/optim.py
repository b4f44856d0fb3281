"""Trainable parameters and the adaptive-moment optimizer."""

from collections import namedtuple
from functools import partial

import numpy as np

from .errors import ConfigError, ContractError


class Param:
    """A trainable float64 array paired with its gradient accumulator.

    ``grad`` always has the same shape as ``value`` and is all zeros right
    after :meth:`zero_grad`. Backward adds each use's gradient into
    ``grad``; the caller zeroes it between steps.
    """

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name: str = ""):
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def accumulate(self, g: np.ndarray, rows=None):
        """Add one use's gradient into ``grad``: into the whole array, or
        into ``rows`` only, in their order. ``g`` must have the used shape."""
        shape = self.shape if rows is None else rows.shape + self.shape[1:]
        if g.shape != shape:
            raise ContractError(f"{self!r} got a gradient of shape {g.shape}, "
                                f"expected {shape}")
        if rows is None:
            self.grad += g
        else:
            np.add.at(self.grad, rows, g)

    def __repr__(self):
        return f"{type(self).__name__}({self.name or 'unnamed'}, shape={self.shape})"


class RowTable(Param):
    """A param read row by row through :meth:`rows`, such as one feature
    row per node.

    It records in ``touched`` every deposit since the last
    :meth:`zero_grad`, ``slice(None)`` for a whole read, and zeroes only
    those rows, so its ``grad`` must change only through backward passes.
    """

    __slots__ = ("touched",)

    def __init__(self, value, name: str = ""):
        super().__init__(value, name)
        self.touched = []  # the row indices added into since zero_grad

    def zero_grad(self):
        for rows in self.touched:
            self.grad[rows] = 0.0
        self.touched.clear()

    def rows(self, idx) -> "RowRead":
        """Rows ``idx`` (repeats allowed) as an op operand; backward adds
        its gradient into only those rows of ``grad``."""
        idx = np.asarray(idx, dtype=np.int64)
        return RowRead(self.value[idx], partial(self.accumulate, rows=idx))

    def accumulate(self, g: np.ndarray, rows=None):
        super().accumulate(g, rows)
        self.touched.append(slice(None) if rows is None else rows)


# Rows of a RowTable read as an op operand: a copy of their values, and the
# sink that adds a gradient into those rows only.
RowRead = namedtuple("RowRead", ["value", "accumulate"])


def glorot_uniform(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class _RowMoments:
    """Adam moments of a row table's live rows only, in the order the rows
    became live: row ``idx[i]`` has moments ``m[i]`` and ``v[i]``, 16 bytes
    per live element. Past those, ``live`` takes one byte per table row."""

    def __init__(self, param: RowTable):
        self.param = param
        self.live = np.zeros(param.shape[0], dtype=bool)
        self.idx = np.zeros(0, dtype=np.int64)
        self.m = np.zeros((0,) + param.shape[1:])
        self.v = np.zeros_like(self.m)

    def grow(self):
        """Append the rows backward reached since the last zero_grad that
        were not live yet, with zero moments, copying m and v once per call."""
        for rows in self.param.touched:
            rows = np.arange(self.live.size) if isinstance(rows, slice) else rows
            new = np.unique(rows[~self.live[rows]] % self.live.size)
            self.live[new] = True
            self.idx = np.concatenate([self.idx, new])
        if self.idx.size > len(self.m):
            pad = np.zeros((self.idx.size - len(self.m),) + self.m.shape[1:])
            self.m, self.v = np.concatenate([self.m, pad]), np.concatenate([self.v, pad])


class AdamState:
    """First/second moment buffers for a fixed list of params.

    Decay rates 0.9 / 0.999 with epsilon 1e-8; moments are bias-corrected.

    A :class:`RowTable` is updated on its live rows only: the rows any
    backward has reached. Any other row has m = v = 0 and a zero gradient,
    for which the update leaves its value, m and v unchanged bit for bit,
    so skipping it is exact, not lazy Adam. The other params share one flat
    moment buffer, updated in one pass.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = list(params)
        self.step = 0
        self.dense = [p for p in self.params if not isinstance(p, RowTable)]
        self.bounds = np.cumsum([0] + [p.value.size for p in self.dense])
        self.m = np.zeros(self.bounds[-1])
        self.v = np.zeros(self.bounds[-1])
        self.tables = [_RowMoments(p) for p in self.params if isinstance(p, RowTable)]

    def _decrement(self, g, m, v, lr):
        """Advance ``m`` and ``v`` in place by gradient ``g``; returns the
        amount to subtract from the values."""
        b1, b2 = self.beta1, self.beta2
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        return (lr * (m / (1.0 - b1**self.step))
                / (np.sqrt(v / (1.0 - b2**self.step)) + self.eps))


def optimizer_step(state: AdamState, lr: float):
    """One adaptive-moment update of ``state.params``. Gradients are left
    untouched."""
    if not lr > 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    state.step += 1
    if state.dense:
        g = np.concatenate([p.grad.reshape(-1) for p in state.dense])
        dec = state._decrement(g, state.m, state.v, lr)
        for p, lo, hi in zip(state.dense, state.bounds[:-1], state.bounds[1:]):
            p.value -= dec[lo:hi].reshape(p.shape)
    for table in state.tables:
        table.grow()
        p, idx = table.param, table.idx
        p.value[idx] -= state._decrement(p.grad[idx], table.m, table.v, lr)
