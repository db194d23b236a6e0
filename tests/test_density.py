import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import logsumexp

from statdiv.density import (
    Bandwidth,
    DensityModel,
    isotropic_silverman_bandwidth,
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
        assert bw.diag[1] == pytest.approx(floor, abs=0)  # the default abs=1e-12 would span the whole floor
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


class TestDensityModel:
    def test_smallest_legal_fit_evaluates_everywhere(self):
        model = DensityModel(np.array([[0.0], [1.0]]), Bandwidth([1.0]))
        for x in (-50.0, 0.0, 0.5, 50.0):
            assert np.isfinite(log_density_batch(model, [[x]])[0])

    def test_fit_is_pure(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((15, 3))
        probes = rng.standard_normal((10, 3))
        a = log_density_batch(DensityModel(mat, silverman_bandwidth(mat)), probes)
        copy = mat.copy()
        b = log_density_batch(DensityModel(copy, silverman_bandwidth(copy)), probes)
        np.testing.assert_array_equal(a, b)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="n >= 2"):
            DensityModel(np.array([[1.0, 2.0, 3.0]]), Bandwidth([1.0, 1.0, 1.0]))


class TestLogDensity:
    def test_gaussian_normalizer_at_center(self):
        # both samples at 0 with unit bandwidth reduce to one standard normal
        model = DensityModel(np.array([[0.0], [0.0]]), Bandwidth([1.0]))
        assert log_density_batch(model, [[0.0]])[0] == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-14)

    def test_far_point_is_finite(self):
        model = DensityModel(np.array([[0.0], [1.0]]), Bandwidth([1.0]))
        value = log_density_batch(model, [[1e4]])[0]
        assert np.isfinite(value)
        assert value < -1e6

    @pytest.mark.parametrize("seed", range(3))
    def test_integrates_to_one_1d(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.normal(0.0, 2.0, size=(30, 1))
        model = DensityModel(mat, silverman_bandwidth(mat))
        h = np.sqrt(model.bandwidth.diag[0])
        grid = np.linspace(mat.min() - 8 * h, mat.max() + 8 * h, 4001)
        pdf = np.exp(log_density_batch(model, grid[:, None]))
        assert trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-3)

    def test_integrates_to_one_2d(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(20, 2))
        model = DensityModel(mat, silverman_bandwidth(mat))
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
        base = log_density_batch(DensityModel(mat, bw), probes)
        rotated = log_density_batch(DensityModel(mat @ rot.T, bw), probes @ rot.T)
        np.testing.assert_allclose(rotated, base, atol=1e-10)

    def test_never_nan_or_inf(self):
        rng = np.random.default_rng(31)
        mat = rng.standard_normal((10, 4)) * 1e-6
        model = DensityModel(mat, silverman_bandwidth(mat))
        probes = np.vstack([
            rng.standard_normal((5, 4)) * 1e6,
            np.zeros((1, 4)),
        ])
        values = log_density_batch(model, probes)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("m", [2, 3])
    def test_refuses_a_stack_of_kdes(self, m):
        # at m == K points a stack of K KDEs would broadcast, one KDE per row, without an error
        rng = np.random.default_rng(32)
        model = DensityModel(rng.standard_normal((3, 20, 2)), Bandwidth(np.full((3, 2), 0.5)))
        with pytest.raises(ValueError, match="needs one KDE, got a stack of 3"):
            log_density_batch(model, rng.standard_normal((m, 2)))


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

    # Widths on both sides of 48 (the long-row branch) and chunks on both sides of half `_LSE_BLOCK`
    # (32768 entries): 600 x 40 and 900 x 40 are short and long rows of 40, 20 x 2000 a long chunk.
    @pytest.mark.parametrize("m, n", [(30, 47), (30, 48), (30, 49), (100, 100), (600, 40), (900, 40),
                                      (20, 2000), (3, 40000)])
    @pytest.mark.parametrize("case", ["rounded", "duplicate_columns", "clamped_zeros", "signed_zeros"])
    def test_long_rows_equal_scipy_bit_for_bit(self, m, n, case):
        """Tied maxima in each branch: rounded values, duplicated columns, several
        entries clamped to 0 in a row as in a KDE's own block, -0.0 beside +0.0;
        a -inf sprinkle and an all -inf row."""
        from statdiv.density import _row_logsumexp

        rng = np.random.default_rng(m * n)
        a = -rng.exponential(5.0, size=(m, n))
        if case == "rounded":
            a = np.round(a)
        elif case == "duplicate_columns":
            a[:, n // 2:] = a[:, :n - n // 2]
        elif case == "clamped_zeros":
            a[rng.random((m, n)) < 3.0 / n] = 0.0
            np.fill_diagonal(a, 0.0)
            a[0, [0, n // 3, n - 1]] = 0.0
        else:
            a[rng.random((m, n)) < 0.1] = 0.0
            a[rng.random((m, n)) < 0.1] = -0.0
            a[0, :2] = (-0.0, 0.0)
            a[1, :2] = (0.0, -0.0)
        a[rng.random((m, n)) < 0.2] = -np.inf
        a[m // 2] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _row_logsumexp(a)
        want = logsumexp(a, axis=1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("m, n", [(3, 47), (3, 48), (20, 2000)])
    def test_nan_in_a_row_with_ties_is_an_error(self, m, n):
        from statdiv.density import _row_logsumexp

        a = np.round(-np.random.default_rng(n).exponential(5.0, size=(m, n)))
        a[1, :3] = 0.0  # tied maxima
        a[1, 5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="log kernel is NaN"):
                _row_logsumexp(a)

    @pytest.mark.parametrize("shape", [(97, 2000), (2001, 40), (3, 70000), (300, 300)], ids="{0[0]}x{0[1]}".format)
    def test_row_blocks_equal_scipy_bit_for_bit(self, shape):
        """Arrays spanning several row blocks, the first three ending in a
        partial one; a 3 x 70000 row is longer than a block, so is one."""
        from statdiv.density import _LSE_BLOCK, _row_logsumexp

        m, n = shape
        assert m * n > _LSE_BLOCK
        rng = np.random.default_rng(m * n)
        a = np.round(-rng.exponential(5.0, size=(m, n)))  # tied maxima
        a[rng.random((m, n)) < 0.2] = -np.inf
        a[m // 2] = -np.inf  # an all -inf row
        if m == n:
            np.fill_diagonal(a, -np.inf)  # the leave-one-out diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _row_logsumexp(a)
        np.testing.assert_array_equal(got, logsumexp(a, axis=1))

    def test_nan_in_a_later_row_block_is_an_error(self):
        from statdiv.density import _LSE_BLOCK, _row_logsumexp

        a = -np.random.default_rng(0).exponential(5.0, size=(64, 2000))
        assert 50 >= _LSE_BLOCK // a.shape[1]  # row 50 is past the first block
        a[50, 7] = np.nan
        with pytest.raises(ValueError, match="log kernel is NaN"):
            _row_logsumexp(a)

    def test_peak_memory_is_the_kernel_block(self):
        """The reduction's temporaries are one row block, so one 2000 x 2000
        evaluation peaks near its 32 MB log-kernel matrix, not twice it."""
        import tracemalloc

        rng = np.random.default_rng(3)
        samples, points = rng.normal(size=(2000, 1)), rng.normal(size=(2000, 1))
        model = DensityModel(samples, silverman_bandwidth(samples))
        log_density_batch(model, points)  # warm-up
        tracemalloc.start()
        try:
            log_density_batch(model, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2000 * 2000 * 8


class TestChunkedBlocks:
    """A block over `_LSE_BLOCK` entries is formed and reduced in chunks of
    rows; every row still matches a direct-difference reference."""

    @staticmethod
    def reference(model, points):
        log_k = -0.5 * np.sum((points[:, None, :] - model.samples[None, :, :]) ** 2 / model.bandwidth.diag, axis=2)
        return logsumexp(log_k, axis=1) + model.log_norm

    @pytest.mark.parametrize("m, n", [(2000, 2000), (1000, 777), (3, 70000)], ids=["2000x2000", "1000x777", "3x70000"])
    def test_matches_direct_differences(self, m, n):
        """Whole chunks, a KDE size that does not divide `_LSE_BLOCK` (so the
        last chunk is partial), and a KDE so large that a chunk is one row."""
        from statdiv.density import _LSE_BLOCK

        assert m * n > _LSE_BLOCK and (n > _LSE_BLOCK or m % (_LSE_BLOCK // n))
        rng = np.random.default_rng(m + n)
        samples, points = rng.normal(size=(n, 1)), rng.normal(0.5, 1.5, size=(m, 1))
        model = DensityModel(samples, silverman_bandwidth(samples))
        got, reference = log_density_batch(model, points), self.reference(model, points)
        r_squared = np.max(np.vstack([samples, points]) ** 2 / model.bandwidth.diag)
        assert np.max(np.abs(got - reference)) <= 8 * np.finfo(float).eps * r_squared

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_in_a_later_chunk_is_an_error(self):
        from statdiv.density import _LSE_BLOCK

        samples = np.vstack([np.zeros((1999, 1)), [[1e155]]])
        points = np.vstack([np.zeros((1000, 1)), [[1e155]]])  # its row overflows to inf - inf
        assert 1000 >= _LSE_BLOCK // len(samples)  # its row is past the first chunk
        model = DensityModel(samples, Bandwidth(np.array([1.0])))
        with pytest.raises(ValueError, match="log kernel is NaN"):
            log_density_batch(model, points)

    def test_peak_memory_is_a_few_chunks(self):
        """One 2000 x 2000 evaluation holds a few chunks, not its 32 MB block."""
        import tracemalloc

        from statdiv.density import _LSE_BLOCK

        rng = np.random.default_rng(3)
        samples, points = rng.normal(size=(2000, 1)), rng.normal(size=(2000, 1))
        model = DensityModel(samples, silverman_bandwidth(samples))
        log_density_batch(model, points)  # warm-up
        tracemalloc.start()
        try:
            log_density_batch(model, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * _LSE_BLOCK * 8


def record_blocks(monkeypatch):
    """Each `_log_kernel_matrix` call's chunks, copied as the GEMM forms them (before any
    clamp or in-place reduction), one list per call."""
    from statdiv import density

    blocks = []
    kernel = density._log_kernel_matrix

    def recording(*args):
        chunks = []
        blocks.append(chunks)
        for first, chunk in kernel(*args):
            chunks.append(chunk.copy())
            yield first, chunk

    monkeypatch.setattr(density, "_log_kernel_matrix", recording)
    return blocks


def dyadic_samples(rng, n, dim):
    """n samples of eighths, in pairs x, -x and two at 0, so their mean is exactly 0 and
    the rows of the two at it peak at exactly 0."""
    half = np.round(8 * rng.normal(size=(n // 2 - 1, dim))) / 8
    return np.vstack([half, -half, np.zeros((2, dim))])


class TestRowsAboveZero:
    """A log kernel is at most 0, but its GEMM rounds above 0 near a sample; every density
    is still the log-sum-exp of the block clamped at 0, bit for bit."""

    # 24 wide: short rows; 100 wide: long rows in one chunk; 2000 x 10: a chunked own block
    @pytest.mark.parametrize("n, dim", [(24, 20), (100, 10), (2000, 10)], ids=["24x20", "100x10", "2000x10"])
    @pytest.mark.parametrize("draw", ["normal", "dyadic"])
    def test_own_block_equals_scipy_on_the_clamped_block(self, monkeypatch, n, dim, draw):
        rng = np.random.default_rng(n + dim)
        samples = rng.normal(size=(n, dim)) if draw == "normal" else dyadic_samples(rng, n, dim)
        model = DensityModel(samples, silverman_bandwidth(samples))
        blocks = record_blocks(monkeypatch)
        got = log_density_batch(model, samples)
        (chunks,) = blocks
        log_k = np.concatenate(chunks)
        peaks = log_k.max(axis=1)
        assert np.mean(peaks > 0) >= 0.2  # about a quarter of the rows round above 0
        assert draw == "normal" or np.count_nonzero(peaks == 0) >= 2
        np.testing.assert_array_equal(got, logsumexp(np.minimum(log_k, 0.0), axis=1) + model.log_norm)

    @pytest.mark.parametrize("m, n", [(30, 24), (30, 100), (40, 2000)])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_rows_above_zero_equal_scipy_on_the_clamped_rows(self, m, n, in_place):
        """Rows above 0 by rounding and by far, beside rows that peak at -0.0 and +0.0."""
        from statdiv.density import _row_logsumexp

        rng = np.random.default_rng(m * n)
        a = -rng.exponential(5.0, size=(m, n))
        a[rng.random((m, n)) < 0.1] = 0.0
        a[rng.random((m, n)) < 0.1] = -0.0
        a[rng.random((m, n)) < 0.2] = -np.inf
        above = np.flatnonzero(rng.random(m) < 0.3)
        a[above, rng.integers(0, n, size=above.size)] = 1e-15 * rng.exponential(size=above.size)
        a[0, :] = -1.0
        a[0, :3] = (-0.0, -2.0, -0.0)  # peaks at -0.0
        a[1, :] = -1.0
        a[1, :2] = (-0.0, 0.0)  # peaks at a signed zero tied with the other
        a[2, :3] = (1e-15, 0.0, 3.0)  # above 0, then tied at 0
        a[3] = -np.inf
        want = logsumexp(np.minimum(a, 0.0), axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _row_logsumexp(a.copy(), in_place)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("m, n", [(30, 24), (30, 100), (40, 2000)])
    def test_leaves_rows_at_or_under_zero_unchanged(self, m, n):
        from statdiv.density import _row_logsumexp

        rng = np.random.default_rng(m + n)
        a = -rng.exponential(5.0, size=(m, n))
        a[rng.random((m, n)) < 0.1] = 0.0
        a[rng.random((m, n)) < 0.1] = -0.0
        a[rng.random((m, n)) < 0.2] = -np.inf
        before = a.copy()
        _row_logsumexp(a)
        assert a.tobytes() == before.tobytes()


class TestKeptAndFormedAgainKernels:
    """The log kernels a caller reads after the reduction, a single chunk's kept matrix or
    the chunks formed again for the DR gradient, equal the block clamped at 0; only a block
    of several chunks, formed again on demand, is reduced in place."""

    @staticmethod
    def dr_gradient():
        """A DR gradient whose tiles include a chunked own block (300 x 300) and single-chunk
        ones, among them an own block (60 x 60); both own blocks have rows above 0."""
        from statdiv.dimred import AffinityMatrix, dr_euclidean_gradient, project_sets
        from statdiv.divergence import DivergenceKind, resolve_bandwidths
        from statdiv.manifold import random_orthonormal

        rng = np.random.default_rng(62)
        mats = [rng.normal(0.0, 1.0, size=(300, 8)), rng.normal(0.5, 1.0, size=(60, 8))]
        affinity = AffinityMatrix(values=np.array([[0, -1], [-1, 0]]), nu_w=0, nu_b=1)
        w = random_orthonormal(8, 4, rng)  # 2 projected dimensions round above 0 on no row on some cores
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        dr_euclidean_gradient(w, mats, affinity, DivergenceKind.HELLINGER_SQUARED, bandwidths)

    def test_gradient_reads_the_clamped_blocks(self, monkeypatch):
        from statdiv import dimred

        blocks = record_blocks(monkeypatch)
        reads = []
        gradient = dimred._tile_gradient

        def reading(total, tile, kdes, mats, omega, points_proj, kernels, lse):
            read = []
            reads.append((read, callable(kernels)))
            if callable(kernels):
                def kernels(formed_again=kernels):
                    for first, chunk in formed_again():
                        read.append(chunk.copy())
                        yield first, chunk
            else:
                read.append(kernels.copy())
            gradient(total, tile, kdes, mats, omega, points_proj, kernels, lse)

        monkeypatch.setattr(dimred, "_tile_gradient", reading)
        self.dr_gradient()
        assert {chunked for _, chunked in reads} == {False, True}
        above = {False: 0, True: 0}
        for (read, chunked), chunks in zip(reads, blocks):  # the cost forms every tile first, in order
            log_k = np.concatenate(chunks)
            above[chunked] += np.count_nonzero(log_k.max(axis=1) > 0)
            np.testing.assert_array_equal(np.concatenate(read), np.minimum(log_k, 0.0))
        assert min(above.values()) > 0

    def test_only_blocks_over_the_lse_block_are_reduced_in_place(self, monkeypatch):
        from statdiv import density
        from statdiv.divergence import hellinger_empirical

        calls, entries = [], []
        kernel, reduce = density._log_kernel_matrix, density._row_logsumexp

        def forming(points, centre, scale, runs):
            entries[:] = [len(points) * runs[0][2].shape[2]]
            return kernel(points, centre, scale, runs)

        def reducing(a, in_place=False):
            calls.append((entries[0], in_place))
            return reduce(a, in_place)

        monkeypatch.setattr(density, "_log_kernel_matrix", forming)
        monkeypatch.setattr(density, "_row_logsumexp", reducing)
        rng = np.random.default_rng(63)
        hellinger_empirical(rng.normal(size=(2000, 1)), rng.normal(1.0, 1.0, size=(2000, 1)))
        self.dr_gradient()
        assert {in_place for _, in_place in calls} == {False, True}
        assert all(in_place == (size > density._LSE_BLOCK) for size, in_place in calls)


class TestBandwidthValidation:
    @pytest.mark.parametrize("diag", [[0.0], [-1.0], [np.nan], [np.inf]])
    def test_rejects_bad_diagonals(self, diag):
        with pytest.raises(ValueError):
            Bandwidth(diag)

    def test_dimension_mismatch_at_fit(self):
        with pytest.raises(ValueError, match="does not match"):
            DensityModel(np.zeros((3, 2)) + np.arange(3)[:, None], Bandwidth([1.0, 1.0, 1.0]))


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
        model = DensityModel(samples, silverman_bandwidth(samples))
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
        model = DensityModel(samples, Bandwidth(np.full(3, 1e-6)))
        reference = self.extended_reference(model.samples, model.bandwidth.diag, probes)
        got = log_density_batch(model, probes)
        rows = np.vstack([samples, probes]) - samples.mean(axis=0)
        r_squared = np.max(np.sum(rows**2 / model.bandwidth.diag, axis=1))
        assert np.max(np.abs(got - reference.astype(float))) <= 2 * np.finfo(float).eps * r_squared

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_log_kernel_is_an_error(self):
        model = DensityModel([[0.0], [1e155]], Bandwidth(np.array([1.0])))
        with pytest.raises(ValueError, match="log kernel is NaN"):
            log_density_batch(model, model.samples)

    def test_model_whitens_its_anchors_once(self, monkeypatch):
        from statdiv import density

        calls = []
        anchors = density._anchors

        def counting(*args):
            calls.append(args)
            return anchors(*args)

        monkeypatch.setattr(density, "_anchors", counting)
        rng = np.random.default_rng(24)
        samples = rng.normal(size=(20, 3))
        model = DensityModel(samples, silverman_bandwidth(samples))
        points = rng.normal(size=(7, 3))
        first = log_density_batch(model, points)
        np.testing.assert_array_equal(log_density_batch(model, points), first)
        assert len(calls) == 1


class TestStackedCollection:
    """Each KDE evaluated once at the stacked samples of all its pairs' sets
    gives every set's log ratios bit for bit as a collection of that pair
    alone, and as one block per (KDE, set)."""

    @staticmethod
    def ratios_of(kdes, pairs):
        from statdiv import density

        layout = density.plan(kdes, pairs)
        return density.log_ratios(layout, density.tiles(kdes, layout))

    @staticmethod
    def problem(rng, dim):
        count = int(rng.integers(3, 8))
        sizes = [2] + [int(rng.integers(2, 60)) for _ in range(count - 1)]
        sets = [rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=(n, dim)) for n in sizes]
        bandwidths = [Bandwidth(rng.uniform(0.1, 2.0, size=dim)) for _ in sets]
        sets.append(sets[1].copy())  # a duplicated set, with its bandwidth
        bandwidths.append(bandwidths[1])
        dup = len(sets) - 1
        pairs = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))]
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        pairs += [(j, i) for i, j in pairs[:5]] + pairs[:3] + [(dup, 1)]
        return sets, bandwidths, pairs, dup

    @pytest.mark.parametrize("stack_block", [None, 150])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_equals_one_collection_per_pair_bit_for_bit(self, dim, stack_block, monkeypatch):
        from statdiv import density

        if stack_block is not None:  # small blocks: stacks split, large sets alone
            monkeypatch.setattr(density, "_STACK_BLOCK", stack_block)
        rng = np.random.default_rng(600 + dim)
        sets, bandwidths, pairs, dup = self.problem(rng, dim)
        models = [density.DensityModel(s, bw) for s, bw in zip(sets, bandwidths)]
        seen = []
        for s, partners, z in self.ratios_of([(m, 0) for m in models], pairs):
            seen.append(s)
            assert sorted(partners) == sorted({j for i, j in pairs if i == s} | {i for i, j in pairs if j == s})
            assert z.shape == (len(partners), sets[s].shape[0])
            own = log_density_batch(models[s], sets[s])
            for r, row in zip(partners, z):
                two = [(density.DensityModel(sets[t], bandwidths[t]), 0) for t in (s, r)]
                [two_row] = {t: zz for t, _, zz in self.ratios_of(two, [(0, 1)])}[0]
                np.testing.assert_array_equal(row, two_row)
                np.testing.assert_array_equal(row, own - log_density_batch(models[r], sets[s]))
                if {s, r} == {1, dup}:
                    np.testing.assert_array_equal(row, 0.0)
        assert sorted(seen) == sorted({k for pair in pairs for k in pair})
