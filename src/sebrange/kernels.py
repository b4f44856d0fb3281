"""Hot numeric kernels with numba-jitted and pure-numpy implementations.

Three inner loops dominate the non-BLAS runtime of this package: the
64-bit mixer behind every random draw, the row scatter-adds used by the
graph aggregation forward/backward passes, and the motor-temperature
recursion inside the scenario generator. Each exists in two variants,
``*_numba`` and ``*_numpy``, written so that both produce bit-identical
results (same accumulation order, same elementwise expressions).

numba is an optional extra (``pip install -e '.[numba]'``). The
module-level dispatchers pick the numba variant when it is importable,
unless the environment variable ``SEBRANGE_NUMBA`` is set to ``0``/``false``/
``off``, which forces the numpy fallback. ``benchmarks/benchmark_kernels.py``
times the two paths against each other.
"""

import os

import numpy as np


def _env_wants_numba() -> bool:
    flag = os.environ.get("SEBRANGE_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


NUMBA_ENABLED = False
if _env_wants_numba():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is the optional ``numba`` extra
        NUMBA_ENABLED = False

_U64 = np.uint64
# splitmix64 constants (Steele, Lea & Flood's mixer).
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# ---------------------------------------------------------------------------
# 64-bit finalizing mixer. Draw i of the stream with seed s is
# mix64(s + (i+1) * gamma); substream derivation goes through the same
# primitive. All wrap-around arithmetic is modulo 2**64.
# ---------------------------------------------------------------------------

def mix64_numpy(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


# ---------------------------------------------------------------------------
# scatter-add of rows: out[put[e]] += x[take[e]]
# Shared by the neighbor-mean forward pass, its backward pass, and the
# backward pass of row gathers. np.add.at applies updates in index order,
# matching the sequential loop.
# ---------------------------------------------------------------------------

def scatter_add_rows_numpy(x, take, put, n_out):
    out = np.zeros((n_out, x.shape[1]), dtype=np.float64)
    np.add.at(out, put, x[take])
    return out


# ---------------------------------------------------------------------------
# motor-temperature recursion over telemetry steps:
#   T[k] = T[k-1] + heat * power[:, k] - cool * (T[k-1] - ambient)
# ---------------------------------------------------------------------------

def temperature_scan_numpy(power, ambient, heat, cool, t0):
    n, steps = power.shape
    out = np.empty((n, steps), dtype=np.float64)
    temp = t0.copy()
    for k in range(steps):
        temp = temp + heat * power[:, k] - cool * (temp - ambient)
        out[:, k] = temp
    return out


if NUMBA_ENABLED:

    @njit(cache=True)
    def mix64_numba(z):  # pragma: no cover - jitted
        out = np.empty(z.shape[0], dtype=np.uint64)
        m1 = _U64(_MIX1)
        m2 = _U64(_MIX2)
        for i in range(z.shape[0]):
            w = z[i]
            w = (w ^ (w >> _U64(30))) * m1
            w = (w ^ (w >> _U64(27))) * m2
            out[i] = w ^ (w >> _U64(31))
        return out

    @njit(cache=True)
    def scatter_add_rows_numba(x, take, put, n_out):  # pragma: no cover
        cols = x.shape[1]
        out = np.zeros((n_out, cols), dtype=np.float64)
        for e in range(take.shape[0]):
            s = take[e]
            d = put[e]
            for j in range(cols):
                out[d, j] += x[s, j]
        return out

    @njit(cache=True)
    def temperature_scan_numba(power, ambient, heat, cool, t0):  # pragma: no cover
        n, steps = power.shape
        out = np.empty((n, steps), dtype=np.float64)
        for i in range(n):
            temp = t0[i]
            amb = ambient[i]
            for k in range(steps):
                temp = temp + heat * power[i, k] - cool * (temp - amb)
                out[i, k] = temp
        return out


def mix64(z: np.ndarray) -> np.ndarray:
    """Finalize an array of uint64 words (any shape)."""
    z = np.ascontiguousarray(z, dtype=np.uint64)
    if NUMBA_ENABLED:
        return mix64_numba(z.reshape(-1)).reshape(z.shape)
    return mix64_numpy(z)


def splitmix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Stream words mix64(seed + (counter+1) * gamma) for an array of counters."""
    counters = np.asarray(counters, dtype=np.uint64)
    return mix64(_U64(seed) + (counters + _U64(1)) * _U64(SPLITMIX_GAMMA))


def splitmix64_block(seeds: np.ndarray, n_cols: int) -> np.ndarray:
    """Row i holds the first ``n_cols`` stream words of ``seeds[i]``.

    Row i equals ``splitmix64(seeds[i], arange(n_cols))``, so a batch of
    substreams can be filled in one call.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.arange(n_cols, dtype=np.uint64)
    z = seeds[:, None] + (counters[None, :] + _U64(1)) * _U64(SPLITMIX_GAMMA)
    return mix64(z)


def scatter_add_rows(x, take, put, n_out):
    """Accumulate rows ``x[take[e]]`` into ``out[put[e]]`` over all edges e."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    take = np.ascontiguousarray(take, dtype=np.int64)
    put = np.ascontiguousarray(put, dtype=np.int64)
    if NUMBA_ENABLED:
        return scatter_add_rows_numba(x, take, put, n_out)
    return scatter_add_rows_numpy(x, take, put, n_out)


def temperature_scan(power, ambient, heat, cool, t0):
    """Run the first-order heating/cooling recursion for a batch of rides."""
    power = np.ascontiguousarray(power, dtype=np.float64)
    ambient = np.ascontiguousarray(ambient, dtype=np.float64)
    t0 = np.ascontiguousarray(t0, dtype=np.float64)
    if NUMBA_ENABLED:
        return temperature_scan_numba(power, ambient, float(heat), float(cool), t0)
    return temperature_scan_numpy(power, ambient, float(heat), float(cool), t0)
