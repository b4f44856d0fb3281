"""Structural-similarity index over prediction vectors and its loss form.

The index compares two equal-length vectors through three terms computed
from their first and second moments:

    luminance  r1 = (2 mu_x mu_y + C1) / (mu_x^2 + mu_y^2 + C1)
    contrast   r2 = (2 sd_x sd_y + C2) / (sd_x^2 + sd_y^2 + C2)
    structure  r3 = (cov_xy + C3) / (sd_x sd_y + C3)

    index = r1^alpha * r2^beta * r3^gamma

with (n-1)-normalized standard deviations and covariance. The stabilizers
C1, C2, C3 are strictly positive, derived from small constants K1, K2 and
the dynamic range L of the target. The index is symmetric, bounded above
by 1, and equals 1 when the vectors agree elementwise; as a training term
it enters the objective as ``1 - index`` (optionally the raw index, for
ablating the sign convention).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SampleSizeError, ShapeError
from .tensor import Tensor, as_tensor, sub

SIGN_MODES = ("one_minus", "literal")
C1_MODES = ("squared", "linear")


@dataclass
class S3imConfig:
    """Exponents, stabilizer constants and derived C1/C2/C3."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0
    c3_override: float | None = None
    sign: str = "one_minus"
    c1_mode: str = "squared"

    def __post_init__(self):
        if not (0.0 < self.k1 <= 0.1 and 0.0 < self.k2 <= 0.1):
            raise ConfigError(
                f"K1, K2 must lie in (0, 0.1], got {self.k1}, {self.k2}"
            )
        if self.dynamic_range <= 0:
            raise ConfigError(f"dynamic range must be positive, got {self.dynamic_range}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("exponents must be nonnegative")
        if self.sign not in SIGN_MODES:
            raise ConfigError(f"sign must be one of {SIGN_MODES}, got {self.sign!r}")
        if self.c1_mode not in C1_MODES:
            raise ConfigError(f"c1_mode must be one of {C1_MODES}, got {self.c1_mode!r}")
        if self.c3_override is not None and self.c3_override <= 0:
            raise ConfigError(f"C3 must be positive, got {self.c3_override}")

    @property
    def c1(self) -> float:
        kl = self.k1 * self.dynamic_range
        return kl * kl if self.c1_mode == "squared" else kl

    @property
    def c2(self) -> float:
        kl = self.k2 * self.dynamic_range
        return kl * kl

    @property
    def c3(self) -> float:
        return self.c2 / 2.0 if self.c3_override is None else self.c3_override


def _check_pair(nx: int, ny: int):
    if nx != ny:
        raise ShapeError(f"vector lengths differ: {nx} vs {ny}")
    if nx < 2:
        raise SampleSizeError(f"need at least 2 samples, got {nx}")


def _power(r, p: float, clamp: bool):
    """``r ** p`` and a function that returns its derivative in ``r``.

    Under ``clamp`` and a non-integer ``p``, ``r`` is first clamped to
    [0, 1] as ``1 - relu(1 - relu(r))``, which is flat outside (0, 1).
    """
    if p == 1.0:
        return r, lambda: 1.0
    inside = True
    if clamp and p != np.floor(p):
        inside = 0.0 < r < 1.0
        r = 1.0 - np.maximum(1.0 - np.maximum(r, 0.0), 0.0)
    r = np.asarray(r)
    return r**p, lambda: p * r ** (p - 1.0) if inside else 0.0


def s3im(x, y, cfg: S3imConfig) -> Tensor:
    """Similarity index in (-M, M] with M = 1, as one tape node.

    ``y`` is a constant: the gradient flows into ``x`` only, in closed form
    through the two means, the deviation of ``x`` and the covariance (Wang
    et al., 2004). The structure term can be negative; under a non-integer
    exponent it is clamped to [0, 1] first so the power stays real.
    """
    x = as_tensor(x)
    x_shape = x.shape
    xv, yv = x.array.reshape(-1), as_tensor(y).array.reshape(-1)
    _check_pair(xv.size, yv.size)
    n = xv.size
    scale = 1.0 / n
    mx, my = xv.sum() * scale, yv.sum() * scale
    cx, cy = xv - mx, yv - my
    vx, vy = (cx * cx).sum() / (n - 1), (cy * cy).sum() / (n - 1)
    cov = (cx * cy).sum() / (n - 1)
    sx, sy = np.sqrt(vx), np.sqrt(vy)
    d1 = mx * mx + my * my + cfg.c1
    d2 = vx + vy + cfg.c2
    d3 = sx * sy + cfg.c3
    r1 = ((mx * my) * 2.0 + cfg.c1) / d1
    r2 = ((sx * sy) * 2.0 + cfg.c2) / d2
    r3 = (cov + cfg.c3) / d3
    p1, slope1 = _power(r1, cfg.alpha, clamp=False)
    p2, slope2 = _power(r2, cfg.beta, clamp=False)
    p3, slope3 = _power(r3, cfg.gamma, clamp=True)
    out = (p1 * p2) * p3

    def vjp(g):
        g1 = g * (p2 * p3) * slope1()
        g2 = g * (p1 * p3) * slope2()
        g3 = g * (p1 * p2) * slope3()
        # Chain rule through dmx/dx = 1/n, dsx/dx = cx / ((n-1) sx) and
        # dcov/dx = cy / (n-1); at sx = 0 every cx is 0 and so is that term.
        g_mx = g1 * 2.0 * (my - r1 * mx) / d1
        g_sx = g2 * 2.0 * (sy - r2 * sx) / d2 - g3 * r3 * sy / d3
        g_dev = g_sx / sx * cx if sx > 0 else 0.0
        gx = g_mx * scale + (g_dev + g3 / d3 * cy) / (n - 1)
        return (gx.reshape(x_shape),)

    return Tensor(out, (x,), vjp)


def s3im_value(x, y, cfg: S3imConfig) -> float:
    """The index as a float, for reporting paths and tests."""
    return s3im(x, y, cfg).item()


def s3im_regularizer(pred, target, cfg: S3imConfig) -> Tensor:
    """Loss form of the index: zero at elementwise-equal prediction.

    ``target`` is a constant, so gradients flow to ``pred`` only.
    With ``cfg.sign == "literal"`` the raw index is returned instead (the
    sign-ablation mode, which rewards dissimilarity when minimized).
    """
    value = s3im(pred, target, cfg)
    if cfg.sign == "literal":
        return value
    return sub(1.0, value)
