"""Trainable parameters and the adaptive-moment optimizer."""

from collections import namedtuple
from functools import partial

import numpy as np

from .errors import ConfigError, ContractError


class Param:
    """A trainable float64 array paired with its gradient accumulator.

    ``grad`` has the same shape as ``value``, except in a :class:`RowTable`,
    and is all zeros right after :meth:`zero_grad`. Backward adds each use's
    gradient into ``grad``; the caller zeroes it between steps.
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

    def snapshot(self) -> np.ndarray:
        """A copy of ``value``, which :meth:`restore` writes back."""
        return self.value.copy()

    def restore(self, saved: np.ndarray):
        self.value[...] = saved

    def __repr__(self):
        return f"{type(self).__name__}({self.name or 'unnamed'}, shape={self.shape})"


class RowTable(Param):
    """A param read row by row through :meth:`rows`, such as one feature
    row per node. It keeps the ``value`` array it is given, uncopied.

    ``live`` lists the rows any backward has added into, each once, in the
    order they were first reached; a whole read makes every row live.
    ``grad`` is compact: its row ``i`` belongs to ``live[i]``. ``slot`` maps
    a row to its place in ``live`` (-1 if not live), 4 bytes a row; a
    deposit adds into the slots with ``np.add.at`` in deposit order, so each
    row sums as a dense ``grad`` would. ``live_init`` keeps each live row's
    value from when it went live. ``live`` outlives an :class:`AdamState`:
    a later one starts with rows live that have a zero gradient and zero
    moments, which the update leaves unchanged bit for bit, +-0.0 included.
    """

    __slots__ = ("live", "slot", "live_init")

    def __init__(self, value, name: str = ""):
        self.value, self.name = np.asarray(value, dtype=np.float64), name
        self.live = np.zeros(0, dtype=np.int64)
        self.slot = np.full(self.shape[0], -1, dtype=np.int32)
        self.grad = np.zeros((0,) + self.shape[1:])
        self.live_init = self.grad.copy()

    def rows(self, idx) -> "RowRead":
        """Rows ``idx`` (repeats allowed) as an op operand; backward adds
        its gradient into only those rows' slots of ``grad``."""
        idx = np.asarray(idx, dtype=np.int64)
        return RowRead(self.value[idx], partial(self.accumulate, rows=idx))

    def accumulate(self, g: np.ndarray, rows=None):
        rows = np.arange(self.shape[0]) if rows is None else rows
        if g.shape == rows.shape + self.shape[1:]:  # else Param.accumulate raises
            new = np.unique(rows[self.slot[rows] < 0] % self.shape[0])
            self.slot[new] = np.arange(self.live.size, self.live.size + new.size)
            self.live = np.concatenate([self.live, new])
            self.grad = np.concatenate([self.grad, np.zeros((new.size,) + self.shape[1:])])
            self.live_init = np.concatenate([self.live_init, self.value[new]])
        super().accumulate(g, self.slot[rows])

    def snapshot(self) -> np.ndarray:
        """The live rows' values. :meth:`restore` sets a row that went live
        since back to its ``live_init``, its value at the snapshot: only an
        update moves a row, and only a live one."""
        return self.value[self.live]

    def restore(self, saved: np.ndarray):
        self.value[self.live] = np.concatenate([saved, self.live_init[len(saved):]])


# Rows of a RowTable read as an op operand: a copy of their values, and the
# sink that adds a gradient into those rows only.
RowRead = namedtuple("RowRead", ["value", "accumulate"])


def glorot_uniform(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class AdamState:
    """First/second moment buffers for a fixed list of params.

    Decay rates 0.9 / 0.999 with epsilon 1e-8; moments are bias-corrected.

    A :class:`RowTable` is updated on its live rows only: the rows any
    backward has reached. Their moments are one ``(len(live), d)`` pair per
    table in ``row_moments``, row ``i`` for ``live[i]`` as in its compact
    ``grad``, padded with zero rows as rows become live. Any other row has
    m = v = 0 and a zero gradient, for which the update leaves its value, m
    and v unchanged bit for bit, so skipping it is exact, not lazy Adam. The
    other params share one flat moment buffer, updated in one pass.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = list(params)
        self.step = 0
        self.dense = [p for p in self.params if not isinstance(p, RowTable)]
        self.bounds = np.cumsum([0] + [p.value.size for p in self.dense])
        self.m = np.zeros(self.bounds[-1])
        self.v = np.zeros(self.bounds[-1])
        self.tables = [p for p in self.params if isinstance(p, RowTable)]
        self.row_moments = [[np.zeros((0,) + p.shape[1:]) for _ in "mv"]
                            for p in self.tables]

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
    for p, moments in zip(state.tables, state.row_moments):
        if p.live.size > len(moments[0]):
            pad = np.zeros((p.live.size - len(moments[0]),) + p.shape[1:])
            moments[:] = [np.concatenate([a, pad]) for a in moments]
        p.value[p.live] -= state._decrement(p.grad, *moments, lr)
