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
from .tensor import (
    Tensor,
    as_tensor,
    div,
    mean,
    mul,
    pow_const,
    relu,
    reshape,
    sqrt,
    sub,
    sum_,
)

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


def _stats(t: Tensor):
    """Differentiable mean, (n-1) variance and centered values of a vector."""
    n = t.size
    mu = mean(t)
    centered = sub(t, mu)
    var = div(sum_(mul(centered, centered)), n - 1)
    return mu, centered, var


def _as_vector(x) -> Tensor:
    t = as_tensor(x)
    return t if t.ndim == 1 else reshape(t, (-1,))


def luminance(x, y, cfg: S3imConfig) -> Tensor:
    """Mean-agreement term; 1 exactly when the two means coincide."""
    x, y = _as_vector(x), _as_vector(y)
    _check_pair(x.size, y.size)
    mu_x, mu_y = mean(x), mean(y)
    c1 = cfg.c1
    num = mul(mul(mu_x, mu_y), 2.0) + c1
    den = mul(mu_x, mu_x) + mul(mu_y, mu_y) + c1
    return div(num, den)


def contrast(x, y, cfg: S3imConfig) -> Tensor:
    """Spread-agreement term; 1 exactly when the two deviations coincide."""
    x, y = _as_vector(x), _as_vector(y)
    _check_pair(x.size, y.size)
    _, _, var_x = _stats(x)
    _, _, var_y = _stats(y)
    sd_x, sd_y = sqrt(var_x), sqrt(var_y)
    c2 = cfg.c2
    num = mul(mul(sd_x, sd_y), 2.0) + c2
    den = var_x + var_y + c2
    return div(num, den)


def structure(x, y, cfg: S3imConfig) -> Tensor:
    """Normalized-covariance term; at most 1, reached on matched variation."""
    x, y = _as_vector(x), _as_vector(y)
    _check_pair(x.size, y.size)
    _, cx, var_x = _stats(x)
    _, cy, var_y = _stats(y)
    cov = div(sum_(mul(cx, cy)), x.size - 1)
    c3 = cfg.c3
    return div(cov + c3, mul(sqrt(var_x), sqrt(var_y)) + c3)


def _clamp01(t: Tensor) -> Tensor:
    return sub(1.0, relu(sub(1.0, relu(t))))


def _apply_exponent(term: Tensor, p: float, clamp: bool) -> Tensor:
    if p == 1.0:
        return term
    if clamp and p != np.floor(p):
        term = _clamp01(term)
    return pow_const(term, p)


def s3im(x, y, cfg: S3imConfig) -> Tensor:
    """Similarity index in (-M, M] with M = 1; differentiable in both args.

    The structure term can be negative; under a non-integer exponent it is
    clamped to [0, 1] first so the power stays real.
    """
    r1 = _apply_exponent(luminance(x, y, cfg), cfg.alpha, clamp=False)
    r2 = _apply_exponent(contrast(x, y, cfg), cfg.beta, clamp=False)
    r3 = _apply_exponent(structure(x, y, cfg), cfg.gamma, clamp=True)
    return mul(mul(r1, r2), r3)


def s3im_value(x, y, cfg: S3imConfig) -> float:
    """The index as a float: runs the autodiff ``s3im`` on constant inputs
    and reads out the scalar, for reporting paths and tests."""
    return s3im(as_tensor(np.asarray(x, dtype=np.float64)),
                as_tensor(np.asarray(y, dtype=np.float64)), cfg).item()


def s3im_regularizer(pred, target, cfg: S3imConfig) -> Tensor:
    """Loss form of the index: zero at elementwise-equal prediction.

    ``target`` is treated as a constant, so gradients flow to ``pred`` only.
    With ``cfg.sign == "literal"`` the raw index is returned instead (the
    sign-ablation mode, which rewards dissimilarity when minimized).
    """
    target = np.asarray(target, dtype=np.float64)
    value = s3im(pred, Tensor(target), cfg)
    if cfg.sign == "literal":
        return value
    return sub(1.0, value)
