import warnings

import numpy as np
import pytest

from statdiv import oracles
from statdiv.density import Bandwidth, silverman_bandwidth
from statdiv.divergence import (
    _TERMS,
    T_CLAMP,
    DivergenceKind,
    DivergenceMatrix,
    cross_divergence_matrix,
    divergence_matrix,
    hellinger_empirical,
    hellinger_naive,
    jeffrey_empirical,
    load_divergence_matrix,
    pair_divergence,
    _kde_collection,
    save_divergence_matrix,
    t_ratio,
)
from statdiv.oracles import GaussianParams

TRUE_HELLINGER = oracles.hellinger_gaussian_closed_form(
    GaussianParams([0.0], [[1.0]]), GaussianParams([1.0], [[1.0]])
)
TRUE_JEFFREY = 1.0


def gaussian_pair(seed, n, shift=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, 1)), rng.normal(shift, 1.0, size=(n, 1))


def random_set(rng, n=15, dim=2, spread=1.0):
    return rng.normal(rng.uniform(-spread, spread, size=dim), 1.0, size=(n, dim))


class TestTRatio:
    def test_equal_logs_give_half(self):
        assert t_ratio(-3.7, -3.7) == 0.5

    def test_saturates_to_clamp(self):
        assert t_ratio(60.0, 0.0) == 1.0 - T_CLAMP
        assert t_ratio(0.0, 60.0) == T_CLAMP

    def test_log_ratio_ln3_gives_three_quarters(self):
        assert t_ratio(np.log(3.0), 0.0) == pytest.approx(0.75, rel=1e-14)

    def test_vectorized(self):
        values = t_ratio(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(values, [0.5, 0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            t_ratio(np.inf, 0.0)


KINDS = list(DivergenceKind)
Z_CLAMP = np.log((1.0 - T_CLAMP) / T_CLAMP)


class TestClosedFormTerms:
    """The per-sample terms and their slopes as functions of z = logit T."""

    grid = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6, 0.5, 3.0, Z_CLAMP, 40.0, 800.0, 1e300],
                           np.random.default_rng(0).uniform(-60.0, 60.0, 200)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_term_is_even_bit_for_bit(self, kind):
        term, _ = _TERMS[kind]
        assert term(self.grid).tobytes() == term(-self.grid).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_at_equal_densities(self, kind):
        term, slope = _TERMS[kind]
        assert term(np.zeros(1))[0] == 0.0
        assert slope(np.zeros(1))[0] == 0.0

    def test_hellinger_term_in_unit_interval(self):
        values = _TERMS[DivergenceKind.HELLINGER_SQUARED][0](self.grid)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_jeffrey_term_bounded_by_clamp(self):
        values = _TERMS[DivergenceKind.JEFFREY][0](self.grid)
        assert np.all(values >= 0.0)
        assert np.all(values <= Z_CLAMP * np.tanh(Z_CLAMP / 2.0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_slope_matches_central_differences(self, kind):
        term, slope = _TERMS[kind]
        magnitudes = np.logspace(-3, np.log10(25.0), 60)
        z = np.concatenate([magnitudes, -magnitudes])
        step = 1e-6 * np.maximum(1.0, np.abs(z))
        numeric = (term(z + step) - term(z - step)) / (2.0 * step)
        np.testing.assert_allclose(slope(z), numeric, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_infinite_log_ratio_is_finite(self, kind):
        term, slope = _TERMS[kind]
        z = np.array([np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(np.isfinite(term(z)))
            np.testing.assert_array_equal(slope(z), [0.0, 0.0])

    def test_hellinger_matches_series_at_tiny_log_ratios(self):
        # q is p moved by ~1e-7, so |z| < 1e-6, where (sqrt(T) - sqrt(1-T))^2
        # formed from T itself loses most of its digits to cancellation
        rng = np.random.default_rng(50)
        p = rng.standard_normal((40, 2))
        q = p + 1e-7 * rng.standard_normal((40, 2))
        bw = Bandwidth([0.4, 0.6])
        z_p, z_q = _kde_collection([p, q], [bw, bw]).logits(0, 1)
        assert 0.0 < np.max(np.abs(np.concatenate([z_p, z_q]))) < 1e-6
        series = sum(float(np.mean(z**2 / 8.0 - 5.0 * z**4 / 384.0)) for z in (z_p, z_q))
        value = pair_divergence(p, q, DivergenceKind.HELLINGER_SQUARED, bw, bw)
        assert value == pytest.approx(series, rel=1e-12, abs=0.0)


class TestHellingerEmpirical:
    def test_identical_sets_give_exact_zero(self):
        rng = np.random.default_rng(0)
        p = random_set(rng)
        assert hellinger_empirical(p, p.copy()) == 0.0

    def test_disjoint_support_saturates_to_two(self):
        # gap of 100 with shared unit bandwidth: far beyond 40 bandwidths
        p = np.linspace(0.0, 1.0, 10)[:, None]
        q = p + 100.0
        assert hellinger_empirical(p, q, bw_policy=1.0) == pytest.approx(2.0, abs=1e-6)

    def test_swap_is_exactly_symmetric(self):
        p, q = gaussian_pair(3, 80)
        assert hellinger_empirical(p, q) == hellinger_empirical(q, p)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, q = random_set(rng), random_set(rng, spread=3.0)
            value = hellinger_empirical(p, q)
            assert 0.0 <= value <= 2.0


class TestHugeSeparation:
    """Sets 1e160 apart: every squared distance between them overflows to
    inf, so each cross row of log kernels is all -inf."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_estimates_saturate_and_matrices_build(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((50, 2))
        q = rng.standard_normal((50, 2)) + 1e160
        hellinger = hellinger_empirical(p, q)
        jeffrey = jeffrey_empirical(p, q)
        assert hellinger == 2.0
        assert np.isfinite(jeffrey)
        for kind, value in ((DivergenceKind.HELLINGER_SQUARED, hellinger), (DivergenceKind.JEFFREY, jeffrey)):
            assert divergence_matrix([p, q], kind).values[0, 1] == value


class TestJeffreyEmpirical:
    def test_identical_sets_give_exact_zero(self):
        rng = np.random.default_rng(1)
        p = random_set(rng)
        assert jeffrey_empirical(p, p.copy()) == 0.0

    def test_swap_is_exactly_symmetric(self):
        p, q = gaussian_pair(4, 80)
        assert jeffrey_empirical(p, q) == jeffrey_empirical(q, p)

    def test_matches_gaussian_closed_form(self):
        p, q = gaussian_pair(0, 2000)
        assert jeffrey_empirical(p, q) == pytest.approx(TRUE_JEFFREY, rel=0.10)

    def test_clamped_terms_keep_value_in_range(self):
        p = np.linspace(0.0, 1.0, 10)[:, None]
        q = p + 100.0
        bound = 2.0 * (1.0 - 2.0 * T_CLAMP) * np.log((1.0 - T_CLAMP) / T_CLAMP)
        value = jeffrey_empirical(p, q, bw_policy=1.0)
        assert 0.0 <= value <= bound
        assert value == pytest.approx(bound, rel=1e-6)


class TestDefaultBandwidths:
    """Only the default ("silverman") Hellinger estimate is undersmoothed."""

    @staticmethod
    def undersmoothed(mat):
        n, d = mat.shape
        return Bandwidth(silverman_bandwidth(mat).diag * n ** (2.0 / (d + 4) - 2.0 / (d + 3)))

    @pytest.mark.parametrize("n,dim", [(80, 1), (40, 3)])
    def test_jeffrey_uses_silverman_diagonals(self, n, dim):
        rng = np.random.default_rng(20 + dim)
        p, q = random_set(rng, n=n, dim=dim), random_set(rng, n=n, dim=dim)
        expected = pair_divergence(p, q, DivergenceKind.JEFFREY,
                                   silverman_bandwidth(p), silverman_bandwidth(q))
        assert jeffrey_empirical(p, q) == expected

    @pytest.mark.parametrize("n,dim", [(80, 1), (40, 3)])
    def test_hellinger_uses_undersmoothed_diagonals(self, n, dim):
        rng = np.random.default_rng(30 + dim)
        p, q = random_set(rng, n=n, dim=dim), random_set(rng, n=n, dim=dim)
        expected = pair_divergence(p, q, DivergenceKind.HELLINGER_SQUARED,
                                   self.undersmoothed(p), self.undersmoothed(q))
        assert hellinger_empirical(p, q) == expected
        assert expected != pair_divergence(p, q, DivergenceKind.HELLINGER_SQUARED,
                                           silverman_bandwidth(p), silverman_bandwidth(q))

    def test_explicit_hellinger_bandwidths_are_not_rescaled(self):
        rng = np.random.default_rng(40)
        p, q = random_set(rng, n=30), random_set(rng, n=30)
        bw_p, bw_q = Bandwidth(np.array([0.3, 0.5])), Bandwidth(np.array([0.4, 0.2]))
        kind = DivergenceKind.HELLINGER_SQUARED
        assert hellinger_empirical(p, q, bw_policy=[bw_p, bw_q]) == pair_divergence(p, q, kind, bw_p, bw_q)
        shared = Bandwidth(np.full(2, 0.7))
        assert hellinger_empirical(p, q, bw_policy=0.7) == pair_divergence(p, q, kind, shared, shared)
        matrix = divergence_matrix([p, q], kind, bw_policy=[bw_p, bw_q])
        assert matrix.values[0, 1] == pair_divergence(p, q, kind, bw_p, bw_q)


class TestHellingerNaive:
    def test_identical_sets_give_zero(self):
        rng = np.random.default_rng(2)
        p = random_set(rng)
        assert hellinger_naive(p, p.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_directions_differ(self):
        p, q = gaussian_pair(6, 60, shift=1.5)
        over_p = hellinger_naive(p, q, direction="overP")
        over_q = hellinger_naive(p, q, direction="overQ")
        assert over_p != pytest.approx(over_q, rel=1e-3)

    def test_rejects_unknown_direction(self):
        p, q = gaussian_pair(7, 10)
        with pytest.raises(ValueError, match="direction"):
            hellinger_naive(p, q, direction="both")

    def test_symmetric_estimator_beats_naive_on_most_trials(self):
        # the one-sided estimator should lose to the T-ratio form on >= 80%
        # of seeded 2000-sample Gaussian trials
        wins = 0
        trials = 50
        for seed in range(trials):
            p, q = gaussian_pair(10_000 + seed, 2000)
            naive_err = abs(hellinger_naive(p, q, direction="overP") - TRUE_HELLINGER)
            sym_err = abs(hellinger_empirical(p, q) - TRUE_HELLINGER)
            wins += naive_err >= sym_err
        assert wins >= 0.8 * trials


class TestConsistency:
    @pytest.mark.parametrize(
        "kind,truth",
        [(DivergenceKind.HELLINGER_SQUARED, TRUE_HELLINGER), (DivergenceKind.JEFFREY, TRUE_JEFFREY)],
    )
    def test_median_error_shrinks_with_sample_size(self, kind, truth):
        estimator = hellinger_empirical if kind is DivergenceKind.HELLINGER_SQUARED else jeffrey_empirical
        medians = []
        for n in (100, 500, 2000):
            errors = []
            for seed in range(5):
                p, q = gaussian_pair(500 + seed, n)
                errors.append(abs(estimator(p, q) - truth))
            medians.append(np.median(errors))
        assert medians[0] >= medians[1] >= medians[2]


class TestOrthogonalInvariance:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_rotation_leaves_divergence_unchanged(self, dim, kind):
        rng = np.random.default_rng(40 + dim)
        p = rng.normal(0.0, 1.0, size=(25, dim))
        q = rng.normal(0.4, 1.2, size=(25, dim))
        rot, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        estimator = hellinger_empirical if kind is DivergenceKind.HELLINGER_SQUARED else jeffrey_empirical
        base = estimator(p, q, bw_policy=0.5)
        rotated = estimator(p @ rot.T, q @ rot.T, bw_policy=0.5)
        assert rotated == pytest.approx(base, abs=1e-8)


class TestDivergenceMatrix:
    def test_single_set_gives_zero_matrix(self):
        rng = np.random.default_rng(8)
        matrix = divergence_matrix([random_set(rng)], DivergenceKind.HELLINGER_SQUARED)
        np.testing.assert_array_equal(matrix.values, np.zeros((1, 1)))

    def test_duplicated_set_collapses(self):
        rng = np.random.default_rng(9)
        a, b = random_set(rng), random_set(rng, spread=2.0)
        matrix = divergence_matrix([a, b, a.copy()], DivergenceKind.HELLINGER_SQUARED)
        assert matrix.values[0, 2] == 0.0
        np.testing.assert_allclose(matrix.values[0], matrix.values[2], atol=1e-12)

    def test_separated_classes_order_rows(self):
        rng = np.random.default_rng(10)
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        sets, labels = [], []
        for c, center in enumerate(centers):
            for _ in range(3):
                sets.append(center + 0.2 * rng.standard_normal(2) + rng.standard_normal((20, 2)))
                labels.append(c)
        labels = np.array(labels)
        matrix = divergence_matrix(sets, DivergenceKind.JEFFREY)
        for i in range(len(sets)):
            same = matrix.values[i, (labels == labels[i]) & (np.arange(9) != i)]
            other = matrix.values[i, labels != labels[i]]
            assert same.max() < other.min()

    def test_identical_across_thread_counts(self, monkeypatch):
        rng = np.random.default_rng(11)
        sets = [random_set(rng) for _ in range(5)]
        monkeypatch.setenv("STATDIV_THREADS", "1")
        serial = divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)
        monkeypatch.setenv("STATDIV_THREADS", "4")
        threaded = divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)
        np.testing.assert_array_equal(serial.values, threaded.values)

    def test_cross_matrix_matches_pairwise_estimates(self):
        rng = np.random.default_rng(12)
        gallery = [random_set(rng) for _ in range(3)]
        probe = [random_set(rng) for _ in range(2)]
        cross = cross_divergence_matrix(gallery, probe, DivergenceKind.HELLINGER_SQUARED)
        for i, g in enumerate(gallery):
            for j, p in enumerate(probe):
                assert cross[i, j] == hellinger_empirical(g, p)

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    @pytest.mark.parametrize("bw", ["silverman", "isotropic", 0.3])
    def test_cross_of_a_collection_with_itself_equals_square(self, kind, bw):
        rng = np.random.default_rng(14)
        sets = [random_set(rng, n=12 + i, dim=3) for i in range(4)]
        cross = cross_divergence_matrix(sets, sets, kind, bw)
        square = divergence_matrix(sets, kind, bw).values
        assert cross.tobytes() == square.tobytes()

    def test_round_trip_serialization(self, tmp_path):
        rng = np.random.default_rng(13)
        sets = [random_set(rng) for _ in range(4)]
        matrix = divergence_matrix(sets, DivergenceKind.JEFFREY)
        save_divergence_matrix(matrix, tmp_path / "div.csv")
        loaded = load_divergence_matrix(tmp_path / "div.csv")
        np.testing.assert_array_equal(loaded.values, matrix.values)
        assert loaded.kind is matrix.kind
        assert loaded.set_ids == matrix.set_ids

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hellinger_empirical(np.zeros((5, 2)) + np.arange(5)[:, None],
                                np.zeros((5, 3)) + np.arange(5)[:, None])

    def test_matrix_invariant_rejects_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            DivergenceMatrix(values=bad, kind=DivergenceKind.JEFFREY)

    @pytest.mark.parametrize("raw", ["zero", "0", "-2"])
    def test_thread_count_env_validation(self, raw, monkeypatch):
        from statdiv.divergence import thread_count

        monkeypatch.setenv("STATDIV_THREADS", raw)
        with pytest.raises(ValueError, match="STATDIV_THREADS"):
            thread_count()


class TestCentring:
    """Shifting both sets by a constant leaves the estimates unchanged, up
    to the rounding of the shifted inputs themselves."""

    @pytest.mark.parametrize("estimator", [hellinger_empirical, jeffrey_empirical])
    @pytest.mark.parametrize("offset, rel", [(1e3, 1e-12), (1e6, 1e-9)])
    def test_estimate_is_translation_invariant(self, estimator, offset, rel):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((60, 4))
        q = rng.standard_normal((50, 4)) + 0.7
        assert estimator(p + offset, q + offset) == pytest.approx(estimator(p, q), rel=rel, abs=0.0)


class TestKernelBlockCount:
    @pytest.fixture
    def blocks(self, monkeypatch):
        from statdiv import density

        calls = []
        kernel = density._log_kernel_matrix

        def counting(points, anchors):
            calls.append(points.shape[0])
            return kernel(points, anchors)

        monkeypatch.setattr(density, "_log_kernel_matrix", counting)
        return calls

    @pytest.mark.parametrize("direction", ["overP", "overQ"])
    def test_naive_estimate_forms_two_blocks(self, blocks, direction):
        rng = np.random.default_rng(4)
        p, q = rng.standard_normal((30, 2)), rng.standard_normal((20, 2)) + 0.5
        hellinger_naive(p, q, direction)
        own = 30 if direction == "overP" else 20
        assert blocks == [own, own]

    def test_symmetric_pair_forms_four_blocks(self, blocks):
        rng = np.random.default_rng(5)
        p, q = rng.standard_normal((30, 2)), rng.standard_normal((20, 2)) + 0.5
        hellinger_empirical(p, q)
        assert sorted(blocks) == [20, 20, 30, 30]
