"""Structural-similarity index over prediction vectors and its loss form.

The index compares two equal-length vectors through three terms computed
from their first and second moments (Wang et al., 2004):

    luminance  r1 = (2 mu_x mu_y + C1) / (mu_x^2 + mu_y^2 + C1)
    contrast   r2 = (2 sd_x sd_y + C2) / (sd_x^2 + sd_y^2 + C2)
    structure  r3 = (cov_xy + C3) / (sd_x sd_y + C3)

    index = r1 * r2 * r3

with (n-1)-normalized standard deviations and covariance, and stabilizers
C1 = (K1 L)^2, C2 = (K2 L)^2 and C3 = C2 / 2 from small constants K1, K2
and the dynamic range L of the target. The index is symmetric, bounded above
by 1, and equals 1 when the vectors agree elementwise; as a training term
it enters the objective as ``1 - index``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SampleSizeError, ShapeError
from .tensor import Tensor, _record, _value, sub


@dataclass
class S3imConfig:
    """Stabilizer constants and derived C1/C2/C3."""

    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.k1 <= 0.1 and 0.0 < self.k2 <= 0.1):
            raise ConfigError(
                f"K1, K2 must lie in (0, 0.1], got {self.k1}, {self.k2}"
            )
        if not self.dynamic_range > 0:
            raise ConfigError(f"dynamic range must be positive, got {self.dynamic_range}")

    @property
    def c1(self) -> float:
        kl = self.k1 * self.dynamic_range
        return kl * kl

    @property
    def c2(self) -> float:
        kl = self.k2 * self.dynamic_range
        return kl * kl

    @property
    def c3(self) -> float:
        return self.c2 / 2.0


def _terms(xv, yv, cfg: S3imConfig):
    """The terms (r1, r2, r3) of two flat vectors, and the moments and
    denominators (mx, my, cx, cy, sx, sy, d1, d2, d3) their gradient reuses."""
    n = xv.size
    if n != yv.size:
        raise ShapeError(f"vector lengths differ: {n} vs {yv.size}")
    if n < 2:
        raise SampleSizeError(f"need at least 2 samples, got {n}")
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
    return (r1, r2, r3), (mx, my, cx, cy, sx, sy, d1, d2, d3)


def s3im(x, y, cfg: S3imConfig) -> Tensor:
    """Similarity index in (-M, M] with M = 1, as one tape node.

    ``y`` is a constant: the gradient flows into ``x`` only, in closed form
    through the two means, the deviation of ``x`` and the covariance (Wang
    et al., 2004).
    """
    xa = _value(x)
    x_shape = xa.shape
    xv, yv = xa.reshape(-1), _value(y).reshape(-1)
    (r1, r2, r3), (mx, my, cx, cy, sx, sy, d1, d2, d3) = _terms(xv, yv, cfg)
    n = xv.size
    out = (r1 * r2) * r3

    def vjp(g):
        g1 = g * (r2 * r3)
        g2 = g * (r1 * r3)
        g3 = g * (r1 * r2)
        # Chain rule through dmx/dx = 1/n, dsx/dx = cx / ((n-1) sx) and
        # dcov/dx = cy / (n-1); at sx = 0 every cx is 0 and so is that term.
        g_mx = g1 * 2.0 * (my - r1 * mx) / d1
        g_sx = g2 * 2.0 * (sy - r2 * sx) / d2 - g3 * r3 * sy / d3
        g_dev = g_sx / sx * cx if sx > 0 else 0.0
        gx = g_mx * (1.0 / n) + (g_dev + g3 / d3 * cy) / (n - 1)
        return (gx.reshape(x_shape),)

    return _record(out, (x,), vjp)


def s3im_regularizer(pred, target, cfg: S3imConfig) -> Tensor:
    """Loss form of the index: zero at elementwise-equal prediction.

    ``target`` is a constant, so gradients flow to ``pred`` only.
    """
    return sub(1.0, s3im(pred, target, cfg))
