"""Structural-similarity index: frozen numeric cases, axioms, gradients."""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from sebrange.errors import ConfigError, SampleSizeError, ShapeError
from sebrange.gradcheck import grad_check
from sebrange.rng import Rng
from sebrange.s3im import S3imConfig, _terms, s3im, s3im_regularizer
from sebrange.tensor import Tensor


def s3im_value(x, y, cfg):
    """The index as a float."""
    return s3im(x, y, cfg).item()


# One term of the index, as s3im() computes it.
def term(i, x, y, cfg):
    flat = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (x, y))
    return _terms(*flat, cfg)[0][i]


def luminance(x, y, cfg):
    return term(0, x, y, cfg)


def contrast(x, y, cfg):
    return term(1, x, y, cfg)


def structure(x, y, cfg):
    return term(2, x, y, cfg)


@dataclass
class MomentStats:
    """Sample mean and (n-1)-normalized standard deviation."""

    mu: float
    sigma: float
    n: int


def moments(x) -> MomentStats:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.size
    if n < 2:
        raise SampleSizeError(f"need at least 2 samples, got {n}")
    mu = x.mean()
    sigma = np.sqrt(((x - mu) ** 2).sum() / (n - 1))
    return MomentStats(float(mu), float(sigma), n)


def paired_moments(x, y):
    """Moments of both vectors plus their (n-1)-normalized cross-covariance."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise ShapeError(f"vector lengths differ: {x.size} vs {y.size}")
    mx, my = moments(x), moments(y)
    cov = ((x - mx.mu) * (y - my.mu)).sum() / (x.size - 1)
    return mx, my, float(cov)


def straight_line_index(x, y, cfg):
    """Independent scalar evaluation of the three-term product."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    n = x.size
    mx, my = x.mean(), y.mean()
    sx = np.sqrt(((x - mx) ** 2).sum() / (n - 1))
    sy = np.sqrt(((y - my) ** 2).sum() / (n - 1))
    cov = ((x - mx) * (y - my)).sum() / (n - 1)
    r1 = (2 * mx * my + cfg.c1) / (mx**2 + my**2 + cfg.c1)
    r2 = (2 * sx * sy + cfg.c2) / (sx**2 + sy**2 + cfg.c2)
    r3 = (cov + cfg.c3) / (sx * sy + cfg.c3)
    return r1 * r2 * r3


class TestMoments:
    def test_constant_vector(self):
        m = moments([4.2, 4.2, 4.2])
        assert m.mu == 4.2 and m.sigma == 0.0 and m.n == 3

    def test_two_point_hand_computation(self):
        m = moments([0.0, 2.0])
        assert m.mu == 1.0
        assert abs(m.sigma - np.sqrt(2.0)) < 1e-15

    def test_permutation_invariant(self):
        a = moments([1.0, 5.0, -2.0, 7.0])
        b = moments([7.0, -2.0, 5.0, 1.0])
        assert a.mu == b.mu and abs(a.sigma - b.sigma) < 1e-15

    def test_too_few_samples(self):
        with pytest.raises(SampleSizeError):
            moments([1.0])

    def test_paired_moments_covariance(self):
        x, y = np.array([0.0, 2.0]), np.array([0.0, 4.0])
        mx, my, cov = paired_moments(x, y)
        assert cov == 4.0 and mx.sigma == np.sqrt(2.0)


class TestLuminance:
    def test_equal_means_is_one(self):
        cfg = S3imConfig(dynamic_range=5.0)
        x = [1.0, 2.0, 3.0]
        y = [3.0, 2.0, 1.0]
        assert abs(luminance(x, y, cfg) - 1.0) <= 1e-15

    def test_zero_means_stabilizer_only(self):
        cfg = S3imConfig(dynamic_range=5.0)
        v = luminance([-1.0, 1.0], [-2.0, 2.0], cfg)
        assert v == 1.0

    def test_frozen_numeric_case(self):
        # C1 = (K1 L)^2 = 0.01 via K1 = 0.01, L = 10
        cfg = S3imConfig(k1=0.01, dynamic_range=10.0)
        assert abs(cfg.c1 - 0.01) < 1e-15
        v = luminance([1.0, 1.0], [3.0, 3.0], cfg)
        assert abs(v - 6.01 / 10.01) <= 1e-15

    def test_length_mismatch(self):
        cfg = S3imConfig(dynamic_range=1.0)
        with pytest.raises(ShapeError):
            luminance([1.0, 2.0], [1.0, 2.0, 3.0], cfg)


class TestContrast:
    def test_equal_spreads_is_one(self):
        cfg = S3imConfig(dynamic_range=5.0)
        v = contrast([0.0, 2.0], [10.0, 12.0], cfg)
        assert abs(v - 1.0) <= 1e-15

    def test_both_constant_stabilizer_only(self):
        cfg = S3imConfig(dynamic_range=5.0)
        assert contrast([3.0, 3.0], [8.0, 8.0], cfg) == 1.0

    def test_frozen_numeric_case(self):
        # C2 = (K2 L)^2 = 0.03 via K2 = sqrt(0.03)/10, L = 10
        cfg = S3imConfig(k2=np.sqrt(0.03) / 10.0, dynamic_range=10.0)
        assert abs(cfg.c2 - 0.03) < 1e-15
        # sigma_x = 1, sigma_y = 2
        x = [0.0, np.sqrt(2.0)]
        y = [0.0, 2.0 * np.sqrt(2.0)]
        v = contrast(x, y, cfg)
        assert abs(v - 4.03 / 5.03) <= 1e-12


class TestStructure:
    def test_identical_vectors(self):
        cfg = S3imConfig(dynamic_range=5.0)
        x = [1.0, 4.0, 2.0]
        assert abs(structure(x, x, cfg) - 1.0) <= 1e-12

    def test_sign_flip_below_one(self):
        cfg = S3imConfig(dynamic_range=5.0)
        x = np.array([-2.0, 0.0, 2.0])
        v = structure(x, -x, cfg)
        var = ((x - x.mean()) ** 2).sum() / 2
        expect = (cfg.c3 - var) / (var + cfg.c3)
        assert abs(v - expect) <= 1e-12
        assert v < 1.0

    def test_positive_affine_image_is_one(self):
        cfg = S3imConfig(dynamic_range=5.0)
        x = np.array([0.0, 2.0])
        y = 2.0 * x
        _, _, cov = paired_moments(x, y)
        sx, sy = moments(x).sigma, moments(y).sigma
        assert abs(cov - sx * sy) < 1e-15  # exact affine alignment
        assert abs(structure(x, y, cfg) - 1.0) <= 1e-12


class TestS3im:
    def test_self_similarity_is_one(self):
        cfg = S3imConfig(dynamic_range=7.0)
        r = Rng(1)
        for _ in range(10):
            x = r.normal(3.0, 2.0, size=(int(r.integers(30)) + 2,))
            assert abs(s3im(x, x, cfg).item() - 1.0) <= 1e-12

    def test_symmetry_bit_exact(self):
        cfg = S3imConfig(dynamic_range=7.0)
        r = Rng(2)
        for _ in range(50):
            n = int(r.integers(20)) + 2
            x = r.normal(size=(n,))
            y = r.normal(size=(n,))
            assert s3im(x, y, cfg).item() == s3im(y, x, cfg).item()

    def test_frozen_reversal_case_matches_oracle(self):
        cfg = S3imConfig(dynamic_range=2.0)
        x = [1.0, 2.0, 3.0]
        y = [3.0, 2.0, 1.0]
        got = s3im(x, y, cfg).item()
        assert got < 1.0
        assert abs(got - straight_line_index(x, y, cfg)) <= 1e-15

    def test_product_decomposition(self):
        cfg = S3imConfig(dynamic_range=4.0)
        r = Rng(3)
        for _ in range(20):
            n = int(r.integers(40)) + 2
            x, y = r.normal(size=(n,)), r.normal(size=(n,))
            lhs = s3im(x, y, cfg).item()
            rhs = (luminance(x, y, cfg)
                   * contrast(x, y, cfg)
                   * structure(x, y, cfg))
            assert abs(lhs - rhs) <= 1e-15

    def test_fast_value_matches_tensor_path(self):
        cfg = S3imConfig(dynamic_range=3.0)
        r = Rng(5)
        x, y = r.normal(size=(9,)), r.normal(size=(9,))
        assert s3im_value(x, y, cfg) == s3im(Tensor(x), y, cfg).item()


class TestRegularizer:
    def test_zero_at_equality(self):
        cfg = S3imConfig(dynamic_range=6.0)
        x = Rng(6).normal(30.0, 4.0, size=(16,))
        assert abs(s3im_regularizer(Tensor(x), x, cfg).item()) <= 1e-12

    def test_nonnegative_on_random_pairs(self):
        cfg = S3imConfig(dynamic_range=6.0)
        r = Rng(7)
        for i in range(1000):
            rr = r.spawn(i)
            n = int(rr.integers(30)) + 2
            x, y = rr.normal(size=(n,)), rr.normal(size=(n,))
            assert s3im_regularizer(Tensor(x), y, cfg).item() >= 0.0

    def test_gradient_small_tolerance(self):
        cfg = S3imConfig(dynamic_range=8.0)
        r = Rng(8)
        worst = 0.0
        for i in range(20):
            rr = r.spawn(i)
            y = rr.normal(25.0, 4.0, size=(10,))
            x = rr.normal(25.0, 4.0, size=(10,))
            err = grad_check(lambda t: s3im_regularizer(t, y, cfg), x)
            worst = max(worst, err)
        assert worst <= 1e-6

    def test_constant_target(self):
        # Labels can be equal across a chunk; the target's deviation is then
        # 0, which must not reach the backward as a division.
        cfg = S3imConfig(dynamic_range=10.0)
        x = Tensor([1.0, 2.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss = s3im_regularizer(x, [5.0, 5.0, 5.0], cfg)
            loss.backward()
        assert abs(loss.item() - 0.971533010347157) <= 1e-12
        expect = [-0.018273648390437002, -0.0065266100192500813, 0.016967466723123761]
        assert np.abs(x.grad - expect).max() <= 1e-12

    def test_constant_prediction_gradient_is_finite(self):
        # Equal predictions have zero deviation and zero centred values, so
        # the deviation term drops out and the mean and covariance terms stay.
        cfg = S3imConfig(dynamic_range=60.0)
        x = Tensor([30.0, 30.0, 30.0])
        y = np.array([28.0, 31.0, 33.0])
        with np.errstate(all="raise"):
            s3im_regularizer(x, y, cfg).backward()
        n, mx, my, cy = 3, 30.0, y.mean(), y - y.mean()
        d1 = mx * mx + my * my + cfg.c1
        r1 = (2.0 * mx * my + cfg.c1) / d1
        r2 = cfg.c2 / ((cy * cy).sum() / (n - 1) + cfg.c2)  # r3 = c3 / c3 = 1
        mean_term = -r2 * 2.0 * (my - r1 * mx) / d1 / n
        cov_term = -(r1 * r2) / cfg.c3 * cy / (n - 1)
        assert np.all(np.isfinite(x.grad))
        assert np.abs(x.grad - (mean_term + cov_term)).max() <= 1e-12 * np.abs(cov_term).max()


class TestConfigValidation:
    def test_k_constants_bounded(self):
        with pytest.raises(ConfigError):
            S3imConfig(k1=0.5)
        with pytest.raises(ConfigError):
            S3imConfig(k2=0.0)

    def test_stabilizers_positive(self):
        cfg = S3imConfig(dynamic_range=42.0)
        assert cfg.c1 > 0 and cfg.c2 > 0 and cfg.c3 > 0

    def test_c3_default_is_half_c2(self):
        cfg = S3imConfig(dynamic_range=10.0)
        assert cfg.c3 == cfg.c2 / 2.0
