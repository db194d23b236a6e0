import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import logsumexp

from statdiv.density import (
    Bandwidth,
    fit_kde,
    isotropic_silverman_bandwidth,
    log_density,
    log_density_batch,
    silverman_bandwidth,
)


def unit_sd_samples(n, seed=0):
    """1-D samples rescaled so the (n-1)-denominator sd is exactly 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    x -= x.mean()
    return x / x.std(ddof=1)


class TestSilvermanBandwidth:
    def test_hand_value_for_unit_sd(self):
        bw = silverman_bandwidth(unit_sd_samples(100))
        assert bw.diag[0] == pytest.approx((4.0 / 300.0) ** 0.4, rel=1e-10)
        assert bw.diag[0] == pytest.approx(0.178, abs=5e-4)

    def test_constant_dimension_hits_floor(self):
        rng = np.random.default_rng(1)
        mat = np.column_stack([rng.standard_normal(50), np.full(50, 3.0)])
        bw = silverman_bandwidth(mat)
        sd = mat.std(axis=0, ddof=1)
        floor = 1e-12 * (1.0 + np.mean(sd**2))
        assert bw.diag[1] == pytest.approx(floor)
        assert bw.diag[1] > 0

    @pytest.mark.parametrize("scale", [0.5, 2.0, 100.0])
    def test_homogeneous_in_sample_scale(self, scale):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((40, 3))
        base = silverman_bandwidth(mat)
        scaled = silverman_bandwidth(scale * mat)
        np.testing.assert_allclose(scaled.diag, scale**2 * base.diag, rtol=1e-12)

    def test_isotropic_variant_is_rotation_invariant(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((30, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = isotropic_silverman_bandwidth(mat)
        rotated = isotropic_silverman_bandwidth(mat @ rot)
        np.testing.assert_allclose(rotated.diag, base.diag, rtol=1e-10)
        assert np.ptp(base.diag) == 0.0


class TestFitKde:
    def test_smallest_legal_fit_evaluates_everywhere(self):
        model = fit_kde(np.array([[0.0], [1.0]]), Bandwidth([1.0]))
        for x in (-50.0, 0.0, 0.5, 50.0):
            assert np.isfinite(log_density(model, [x]))

    def test_auto_bandwidth_matches_silverman(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((25, 2))
        np.testing.assert_array_equal(fit_kde(mat).bandwidth.diag, silverman_bandwidth(mat).diag)

    def test_fit_is_pure(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((15, 3))
        probes = rng.standard_normal((10, 3))
        a = log_density_batch(fit_kde(mat), probes)
        b = log_density_batch(fit_kde(mat.copy()), probes)
        np.testing.assert_array_equal(a, b)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="n >= 2"):
            fit_kde(np.array([[1.0, 2.0, 3.0]]))


class TestLogDensity:
    def test_gaussian_normalizer_at_center(self):
        # both samples at 0 with unit bandwidth reduce to one standard normal
        model = fit_kde(np.array([[0.0], [0.0]]), Bandwidth([1.0]))
        assert log_density(model, [0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-14)

    def test_far_point_is_finite(self):
        model = fit_kde(np.array([[0.0], [1.0]]), Bandwidth([1.0]))
        value = log_density(model, [1e4])
        assert np.isfinite(value)
        assert value < -1e6

    @pytest.mark.parametrize("seed", range(3))
    def test_integrates_to_one_1d(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.normal(0.0, 2.0, size=(30, 1))
        model = fit_kde(mat)
        h = np.sqrt(model.bandwidth.diag[0])
        grid = np.linspace(mat.min() - 8 * h, mat.max() + 8 * h, 4001)
        pdf = np.exp(log_density_batch(model, grid[:, None]))
        assert trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-3)

    def test_integrates_to_one_2d(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(20, 2))
        model = fit_kde(mat)
        hs = np.sqrt(model.bandwidth.diag)
        xs = np.linspace(mat[:, 0].min() - 8 * hs[0], mat[:, 0].max() + 8 * hs[0], 301)
        ys = np.linspace(mat[:, 1].min() - 8 * hs[1], mat[:, 1].max() + 8 * hs[1], 301)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        pdf = np.exp(log_density_batch(model, pts)).reshape(xx.shape)
        mass = trapezoid(trapezoid(pdf, ys, axis=1), xs)
        assert mass == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rotation_equivariant_with_isotropic_bandwidth(self, dim):
        rng = np.random.default_rng(21)
        mat = rng.standard_normal((25, dim))
        rot, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        bw = Bandwidth(np.full(dim, 0.7))
        probes = rng.standard_normal((12, dim))
        base = log_density_batch(fit_kde(mat, bw), probes)
        rotated = log_density_batch(fit_kde(mat @ rot.T, bw), probes @ rot.T)
        np.testing.assert_allclose(rotated, base, atol=1e-10)

    def test_never_nan_or_inf(self):
        rng = np.random.default_rng(31)
        model = fit_kde(rng.standard_normal((10, 4)) * 1e-6)
        probes = np.vstack([
            rng.standard_normal((5, 4)) * 1e6,
            np.zeros((1, 4)),
        ])
        values = log_density_batch(model, probes)
        assert np.all(np.isfinite(values))


class TestLeaveOneOut:
    def test_differs_from_inclusive_self_evaluation(self):
        from statdiv.density import log_density_loo

        rng = np.random.default_rng(17)
        model = fit_kde(rng.standard_normal((12, 2)))
        inclusive = log_density_batch(model, model.samples)
        loo = log_density_loo(model)
        assert np.all(loo < inclusive)  # dropping the self kernel can only lower mass
        assert np.all(np.isfinite(loo))

    def test_needs_three_samples(self):
        from statdiv.density import log_density_loo

        model = fit_kde(np.array([[0.0], [1.0]]), Bandwidth([1.0]))
        with pytest.raises(ValueError, match="at least 3"):
            log_density_loo(model)


class TestRowLogSumExp:
    """The KDE's row log-sum-exp is a numpy port of scipy's algorithm;
    scipy.special.logsumexp is the reference."""

    def test_equals_scipy_bit_for_bit(self):
        from statdiv.density import _row_logsumexp

        rng = np.random.default_rng(8)
        for trial in range(300):
            m = int(rng.integers(1, 40))
            n = m if trial % 3 == 0 else int(rng.integers(1, 40))
            a = -rng.exponential(5.0, size=(m, n))
            if trial % 2:
                a = np.round(a)  # tied maxima
            a[rng.random((m, n)) < 0.2] = -np.inf
            a[rng.integers(0, m)] = -np.inf  # an all -inf row
            if m == n:
                np.fill_diagonal(a, -np.inf)  # the leave-one-out diagonal
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _row_logsumexp(a)
            np.testing.assert_array_equal(got, logsumexp(a, axis=1))


class TestBandwidthValidation:
    @pytest.mark.parametrize("diag", [[0.0], [-1.0], [np.nan], [np.inf]])
    def test_rejects_bad_diagonals(self, diag):
        with pytest.raises(ValueError):
            Bandwidth(diag)

    def test_dimension_mismatch_at_fit(self):
        with pytest.raises(ValueError, match="does not match"):
            fit_kde(np.zeros((3, 2)) + np.arange(3)[:, None], Bandwidth([1.0, 1.0, 1.0]))


class TestCentredKernel:
    """The log kernel is a GEMM expansion in coordinates centred on the
    samples' mean; uncentred, it would lose digits far from the origin."""

    @staticmethod
    def extended_reference(samples, diag, points):
        s = samples.astype(np.longdouble)
        x = points.astype(np.longdouble)
        d = diag.astype(np.longdouble)
        log_k = -0.5 * np.sum((x[:, None, :] - s[None, :, :]) ** 2 / d, axis=2)
        peak = log_k.max(axis=1)
        lse = peak + np.log(np.sum(np.exp(log_k - peak[:, None]), axis=1))
        log_norm = -np.log(np.longdouble(len(s))) - 0.5 * np.sum(np.log(2 * np.pi * d))
        return lse + log_norm

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_matches_extended_precision_reference(self, offset):
        rng = np.random.default_rng(21)
        samples = offset + rng.normal(0.0, [1.0, 2.0, 0.5], size=(40, 3))
        probes = offset + rng.normal(0.3, 1.5, size=(25, 3))
        model = fit_kde(samples)
        reference = self.extended_reference(model.samples, model.bandwidth.diag, probes)
        got = log_density_batch(model, probes)
        assert np.max(np.abs(got - reference.astype(float))) <= 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_small_explicit_bandwidth_loses_about_eps_r_squared(self, offset):
        # Shared variance 1e-6 on unit-scale data: whitened distances R ~ 4e3
        # from the samples' mean. Probes include the samples themselves, where
        # the log kernel peaks at 0, so the loss there is measured too.
        rng = np.random.default_rng(23)
        samples = offset + rng.normal(0.0, [1.0, 2.0, 0.5], size=(40, 3))
        probes = np.vstack([samples[:10], offset + rng.normal(0.3, 1.5, size=(10, 3))])
        model = fit_kde(samples, Bandwidth(np.full(3, 1e-6)))
        reference = self.extended_reference(model.samples, model.bandwidth.diag, probes)
        got = log_density_batch(model, probes)
        rows = np.vstack([samples, probes]) - samples.mean(axis=0)
        r_squared = np.max(np.sum(rows**2 / model.bandwidth.diag, axis=1))
        assert np.max(np.abs(got - reference.astype(float))) <= 2 * np.finfo(float).eps * r_squared

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_log_kernel_is_an_error(self):
        model = fit_kde([[0.0], [1e155]], Bandwidth(np.array([1.0])))
        with pytest.raises(ValueError, match="log kernel is NaN"):
            log_density_batch(model, model.samples)

    def test_collection_block_is_log_density_batch_bit_for_bit(self):
        from statdiv.density import _KdeCollection

        rng = np.random.default_rng(22)
        sets = [rng.normal(k, 1.0, size=(12 + 5 * k, 3)) for k in range(3)]
        bandwidths = [silverman_bandwidth(s) for s in sets]
        kdes = _KdeCollection(sets, bandwidths)
        points = rng.normal(1.0, 2.0, size=(17, 3))
        for b, (s, bw) in enumerate(zip(sets, bandwidths)):
            np.testing.assert_array_equal(kdes.block(points, b)[0],
                                          log_density_batch(fit_kde(s, bw), points))
