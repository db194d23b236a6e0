import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statdiv import oracles
from statdiv.dataset import FeatureSet
from statdiv.density import Bandwidth, DensityModel, log_density_batch, log_ratios, plan, silverman_bandwidth, tiles
from statdiv.divergence import (
    _TERMS,
    T_CLAMP,
    DivergenceKind,
    DivergenceMatrix,
    cross_divergence_matrix,
    divergence_matrix,
    hellinger_empirical,
    jeffrey_empirical,
    load_divergence_matrix,
    pair_divergence,
    resolve_bandwidths,
    _kde_collection,
    _square_and_cross,
    save_divergence_matrix,
)
from statdiv.dimred import AffinityMatrix, dr_cost, dr_euclidean_gradient, project_sets
from statdiv.manifold import random_orthonormal
from statdiv.oracles import GaussianParams

TRUE_HELLINGER = oracles.hellinger_gaussian_closed_form(
    GaussianParams([0.0], [[1.0]]), GaussianParams([1.0], [[1.0]])
)
TRUE_JEFFREY = 1.0


def ratios_of(kdes, pairs):
    """Each set's log ratios against its partners in `pairs`, from one plan of `kdes`."""
    layout = plan(kdes, pairs)
    return log_ratios(layout, tiles(kdes, layout))


def gaussian_pair(seed, n, shift=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, 1)), rng.normal(shift, 1.0, size=(n, 1))


def random_set(rng, n=15, dim=2, spread=1.0):
    return rng.normal(rng.uniform(-spread, spread, size=dim), 1.0, size=(n, dim))


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
        z = {s: z for s, _, [z] in ratios_of(_kde_collection([p, q], [bw, bw]), [(0, 1)])}
        z_p, z_q = z[0], z[1]
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


class TestSharedVariancePolicy:
    @pytest.mark.parametrize("policy, equal", [(True, None), (False, None), (np.float32(0.5), 0.5),
                                               (np.float64(0.3), 0.3), (np.int64(1), 1.0)], ids=repr)
    def test_numbers_are_a_shared_variance_and_bools_are_rejected(self, policy, equal):
        rng = np.random.default_rng(41)
        sets = [random_set(rng, n=10, dim=2) for _ in range(3)]
        kind = DivergenceKind.HELLINGER_SQUARED
        if equal is None:
            with pytest.raises(ValueError, match="positive number"):
                divergence_matrix(sets, kind, policy)
            return
        got, want = divergence_matrix(sets, kind, policy), divergence_matrix(sets, kind, equal)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.bw_policy == want.bw_policy == f"shared-isotropic:{float(equal)!r}"


class TestHellingerNaive:
    """The one-sided estimate E_p[(1 - sqrt(q/p))^2] at the samples of p,
    from the two Silverman KDEs: asymmetric, and it blows up where q dominates."""

    @staticmethod
    def one_sided(p, q):
        z = (log_density_batch(DensityModel(p, silverman_bandwidth(p)), p)
             - log_density_batch(DensityModel(q, silverman_bandwidth(q)), p))
        return float(np.mean(np.expm1(np.minimum(-0.5 * z, 350.0)) ** 2))

    def test_symmetric_estimator_beats_naive_on_most_trials(self):
        # the one-sided estimator should lose to the T-ratio form on >= 80%
        # of seeded 2000-sample Gaussian trials
        wins = 0
        trials = 50
        for seed in range(trials):
            p, q = gaussian_pair(10_000 + seed, 2000)
            naive_err = abs(self.one_sided(p, q) - TRUE_HELLINGER)
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

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_duplicated_set_at_any_position_gives_exact_zero(self, kind):
        # stacked sets of any size and dimension, so a copy's rows come out
        # of another GEMM than the original's; exact on any BLAS core
        for trial in range(60):
            rng = np.random.default_rng(900 + trial)
            dim = int(rng.integers(1, 13))
            sets = [random_set(rng, n=int(rng.integers(2, 40)), dim=dim, spread=2.0)
                    for _ in range(int(rng.integers(2, 7)))]
            k, at = int(rng.integers(len(sets))), int(rng.integers(len(sets) + 1))
            sets.insert(at, sets[k].copy())
            values = divergence_matrix(sets, kind).values
            assert values[k + (k >= at), at] == 0.0

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

    def test_repeated_call_is_bit_identical(self):
        rng = np.random.default_rng(11)
        sets = [random_set(rng) for _ in range(5)]
        first = divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)
        second = divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)
        assert first.values.tobytes() == second.values.tobytes()

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

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    @pytest.mark.parametrize("bw", ["silverman", "isotropic", 0.3])
    def test_one_pass_square_and_cross_equal_the_separate_matrices(self, kind, bw):
        # ragged sizes, some shared across the two sides, and one set on both sides
        rng = np.random.default_rng(16)
        gallery = [random_set(rng, n=n, dim=3) for n in (12, 20, 12, 31, 7)]
        probe = [random_set(rng, n=n, dim=3) for n in (20, 17, 12)] + [gallery[3]]
        square, cross = _square_and_cross(gallery, probe, kind, bw)
        alone = divergence_matrix(gallery, kind, bw)
        assert np.array_equal(square.values, alone.values)
        assert (square.set_ids, square.bw_policy) == (alone.set_ids, alone.bw_policy)
        assert np.array_equal(cross, cross_divergence_matrix(gallery, probe, kind, bw))
        assert cross[3, -1] == 0.0

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_cross_matrix_over_several_term_runs_matches_pairwise_estimates(self, kind):
        from statdiv.density import _STACK_BLOCK

        rng = np.random.default_rng(15)
        gallery = [random_set(rng, n=n) for n in (2, 900, 1500)]
        probe = [random_set(rng, n=n) for n in (2000, 3, 1200)]
        assert sum(g.shape[0] + p.shape[0] for g in gallery for p in probe) > 2 * _STACK_BLOCK
        cross = cross_divergence_matrix(gallery, probe, kind)
        estimator = hellinger_empirical if kind is DivergenceKind.HELLINGER_SQUARED else jeffrey_empirical
        for i, g in enumerate(gallery):
            for j, p in enumerate(probe):
                assert cross[i, j] == estimator(g, p)

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    @pytest.mark.parametrize("seed", range(4))
    def test_permuting_the_sets_permutes_the_entries_exactly(self, kind, seed):
        rng = np.random.default_rng(70 + seed)
        sets = [random_set(rng, n=int(rng.integers(2, 30)), dim=int(seed) + 1, spread=2.0)
                for _ in range(6)]
        order = rng.permutation(len(sets))
        values = divergence_matrix(sets, kind).values
        permuted = divergence_matrix([sets[k] for k in order], kind).values
        assert permuted.tobytes() == values[np.ix_(order, order)].tobytes()

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

    def test_matrix_names_the_set_of_another_dimension(self):
        rng = np.random.default_rng(14)
        sets = [FeatureSet(f"s{d}", 0, random_set(rng, dim=d)) for d in (2, 2, 3)]
        with pytest.raises(ValueError, match=r"^set 's3': dimension mismatch: D=3, but the first set has D=2$"):
            divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)

    def test_matrix_names_a_set_of_one_row(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match=r"^set 2: n >= 2 violated: got 1 samples$"):
            cross_divergence_matrix([random_set(rng)] * 2, [random_set(rng, n=1)], DivergenceKind.JEFFREY)

    def test_matrix_names_a_set_with_a_nan(self):
        rng = np.random.default_rng(16)
        sets = [random_set(rng) for _ in range(3)]
        sets[1][4, 0] = np.nan
        with pytest.raises(ValueError, match=r"^set 1: sample matrix contains non-finite entries$"):
            divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)

    @pytest.mark.parametrize("kind, policy", [(DivergenceKind.HELLINGER_SQUARED, "silverman"),
                                              (DivergenceKind.JEFFREY, "silverman"),
                                              (DivergenceKind.HELLINGER_SQUARED, "isotropic")])
    @pytest.mark.parametrize("named", [False, True])
    def test_matrix_names_the_set_whose_bandwidth_overflows(self, kind, policy, named):
        rng = np.random.default_rng(17)
        sets = [rng.standard_normal((20, 3)), 1e155 * rng.standard_normal((20, 3))]
        name = "1"
        if named:
            sets, name = [FeatureSet(f"s{i}", 0, s) for i, s in enumerate(sets)], "'s1'"
        with pytest.raises(ValueError, match=rf"^set {name}: bandwidth diagonal entries must be positive and finite$"):
            divergence_matrix(sets, kind, policy)

    @pytest.mark.parametrize("kind, policy", [(DivergenceKind.HELLINGER_SQUARED, "silverman"),
                                              (DivergenceKind.JEFFREY, "silverman"),
                                              (DivergenceKind.HELLINGER_SQUARED, "isotropic")])
    def test_matrix_of_a_set_whose_variance_underflows_is_estimated(self, kind, policy):
        """The mirror of the overflow above: the floor stays a positive normal float, so a
        set of scale 1e-160 with a constant column gets a bandwidth and an estimate."""
        rng = np.random.default_rng(17)
        sets = [rng.standard_normal((20, 3)), 1e-160 * rng.standard_normal((20, 3))]
        sets[1][:, 1] = 0.0
        values = divergence_matrix(sets, kind, policy).values
        assert np.all(np.isfinite(values)) and values[0, 1] > 0

    def test_matrix_invariant_rejects_asymmetry(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            DivergenceMatrix(values=bad, kind=DivergenceKind.JEFFREY)


@st.composite
def adversarial_sets(draw, pool=None, offsets=(0.0, 1e6), min_dim=1, degenerate=True, sizes=st.integers(2, 40)):
    """2-6 sets of `sizes` rows (2-40) in D = 1-12, D >= n in some; each set may
    have a duplicate row and a constant column (if `degenerate`) and an offset
    of 1e6. With `pool`, the sizes are drawn from that many sizes, so sets
    share sizes and a tile's runs hold several blocks."""
    dim = draw(st.integers(min_dim, 12))
    if pool:
        sizes = st.sampled_from(draw(st.lists(sizes, min_size=pool, max_size=pool)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for _ in range(draw(st.integers(2, 6))):
        s = rng.normal(size=(draw(sizes), dim))
        if degenerate and draw(st.booleans()):
            s[-1] = s[0]
        if degenerate and draw(st.booleans()):
            s[:, -1] = 3.0
        sets.append(s + draw(st.sampled_from(offsets)))
    return sets


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)


class TestMatrixProperties:
    """Invariants of `divergence_matrix` on adversarial sets, for both kinds."""

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets())
    def test_exactly_symmetric(self, kind, sets):
        values = divergence_matrix(sets, kind).values
        assert values.tobytes() == values.T.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(), data=st.data())
    def test_duplicated_set_at_any_position_gives_exact_zero(self, kind, sets, data):
        k = data.draw(st.integers(0, len(sets) - 1))
        at = data.draw(st.integers(0, len(sets)))
        sets.insert(at, sets[k].copy())
        assert divergence_matrix(sets, kind).values[k + (k >= at), at] == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets())
    def test_entries_in_range(self, kind, sets):
        values = divergence_matrix(sets, kind).values
        assert np.all(values >= 0.0)
        if kind is DivergenceKind.HELLINGER_SQUARED:
            assert np.all(values <= 2.0)

    # Scaling by 2**k is exact on the inputs and the bandwidths, so only the log normalizers
    # round: the worst seen over 300 examples was 1.2e-13 relative. It holds while every
    # variance and 1e-12 of the mean variance are normal floats (sets of unit scale: k in
    # about [-490, 509]). A set that varies in no dimension keeps the absolute floor 1e-12,
    # so the sets here each vary in some dimension.
    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(), k=st.integers(-400, 400))
    def test_estimates_do_not_depend_on_the_units(self, kind, sets, k):
        assume(all(np.ptp(s, axis=0).any() for s in sets))
        np.testing.assert_allclose(divergence_matrix([np.ldexp(s, k) for s in sets], kind).values,
                                   divergence_matrix(sets, kind).values, rtol=1e-12, atol=0.0)


# Sizes of short rows (up to 40) or long ones (48-120), whose tiles stack
# several blocks up to half `_LSE_BLOCK` entries.
SHORT_OR_LONG_ROWS = st.integers(2, 40) | st.integers(48, 120)


class TestTileProperties:
    """The tiles on sets that share sizes, where one batched matmul serves
    several blocks and one fit several sets, in tiles of short or long rows."""

    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(pool=2, sizes=SHORT_OR_LONG_ROWS))
    def test_each_log_ratio_row_is_its_blocks_alone(self, sets):
        bandwidths = resolve_bandwidths(sets, "silverman")
        models = [DensityModel(s, bw) for s, bw in zip(sets, bandwidths)]
        pairs = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))]
        for s, partners, z in ratios_of(_kde_collection(sets, bandwidths), pairs):
            own = log_density_batch(models[s], sets[s])
            for r, row in zip(partners, z):
                np.testing.assert_array_equal(row, own - log_density_batch(models[r], sets[s]))

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(pool=2, sizes=SHORT_OR_LONG_ROWS), data=st.data())
    def test_matrix_is_exactly_symmetric_and_zero_at_a_copy(self, kind, sets, data):
        k = data.draw(st.integers(0, len(sets) - 1))
        sets.append(sets[k].copy())
        values = divergence_matrix(sets, kind).values
        assert values.tobytes() == values.T.tobytes()
        assert values[k, -1] == 0.0

    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(pool=2, sizes=SHORT_OR_LONG_ROWS), data=st.data())
    def test_duplicated_set_gives_zero_log_ratios(self, sets, data):
        k = data.draw(st.integers(0, len(sets) - 1))
        at = data.draw(st.integers(0, len(sets)))
        sets.insert(at, sets[k].copy())
        kdes = _kde_collection(sets, "silverman")
        pairs = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))]
        copies = {k + (k >= at), at}
        for s, partners, z in ratios_of(kdes, pairs):
            if s in copies:
                np.testing.assert_array_equal(z[partners.index((copies - {s}).pop())], 0.0)

    # Gaussian sets of one size: a constant column can leave a projected
    # bandwidth near 1e-4, where the terms cancel and the sum misses by up to
    # 1e-12 of the largest entry however the blocks are grouped.
    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(pool=1, offsets=(0.0,), min_dim=2, degenerate=False, sizes=SHORT_OR_LONG_ROWS),
           data=st.data())
    def test_dr_gradient_is_the_sum_of_one_pair_gradients(self, kind, sets, data):
        count, dim = len(sets), sets[0].shape[1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = np.triu(rng.integers(-1, 2, size=(count, count)), 1)
        values[0, 1] = 1  # at least one active pair
        w = random_orthonormal(dim, data.draw(st.integers(1, dim - 1)), rng)
        bandwidths = resolve_bandwidths(project_sets(sets, w), "isotropic")
        total = dr_euclidean_gradient(w, sets, AffinityMatrix(values + values.T, 1, 1), kind, bandwidths)
        parts = np.zeros_like(total)
        for i, j in zip(*np.nonzero(values)):
            single = np.zeros((count, count), dtype=int)
            single[i, j] = single[j, i] = values[i, j]
            parts += dr_euclidean_gradient(w, sets, AffinityMatrix(single, 1, 1), kind, bandwidths)
        assert np.max(np.abs(total - parts)) <= 1e-13 * np.max(np.abs(total))


class TestDrInvariance:
    """The DR objective depends on the subspace of W, not on its basis: its isotropic
    bandwidths leave each projected distance unchanged by a rotation Q of the basis."""

    @staticmethod
    def problem(sets, data):
        count, dim = len(sets), sets[0].shape[1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = np.triu(rng.integers(-1, 2, size=(count, count)), 1)
        values[0, 1] = 1  # at least one active pair
        w = random_orthonormal(dim, data.draw(st.integers(1, dim - 1)), rng)
        rotation, _ = np.linalg.qr(rng.standard_normal((w.shape[1], w.shape[1])))
        bandwidths = resolve_bandwidths(project_sets(sets, w), "isotropic")
        return w, rotation, AffinityMatrix(values + values.T, 1, 1), bandwidths

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(offsets=(0.0,), min_dim=2), data=st.data())
    def test_cost_is_invariant_to_a_rotation_of_the_basis(self, kind, sets, data):
        w, rotation, affinity, bandwidths = self.problem(sets, data)
        assert dr_cost(w @ rotation, sets, affinity, kind, bandwidths) == pytest.approx(
            dr_cost(w, sets, affinity, kind, bandwidths), rel=0.0, abs=1e-8)

    # the non-degenerate sets of the one-pair gradient property above
    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(pool=1, offsets=(0.0,), min_dim=2, degenerate=False), data=st.data())
    def test_gradient_is_equivariant_to_a_rotation_of_the_basis(self, kind, sets, data):
        w, rotation, affinity, bandwidths = self.problem(sets, data)
        gradient = dr_euclidean_gradient(w, sets, affinity, kind, bandwidths)
        rotated = dr_euclidean_gradient(w @ rotation, sets, affinity, kind, bandwidths)
        assert np.max(np.abs(rotated - gradient @ rotation)) <= 1e-10 * np.max(np.abs(gradient))

    @PROPERTY_SETTINGS
    @given(sets=adversarial_sets(pool=2, offsets=(0.0,), min_dim=2), data=st.data())
    def test_a_plan_serves_every_frame(self, sets, data):
        """A plan built on the fits at one frame evaluates the fits at another bit for
        bit as a plan of their own: it reads only which sets share a fit, and sizes."""
        w, _, affinity, bandwidths = self.problem(sets, data)
        other = random_orthonormal(w.shape[0], w.shape[1], np.random.default_rng(data.draw(st.integers(0, 99))))
        pairs = list(zip(*np.nonzero(np.triu(affinity.values, 1))))
        kept = plan(_kde_collection(project_sets(sets, w), bandwidths), pairs)
        kdes = _kde_collection(project_sets(sets, other), bandwidths)
        fresh = plan(kdes, pairs)
        for a, b in zip(tiles(kdes, kept), tiles(kdes, fresh), strict=True):
            for x, y in zip(a, b, strict=True):
                assert x.tobytes() == y.tobytes()
        for (s, partners, z), (t, others, y) in zip(log_ratios(kept, tiles(kdes, kept)),
                                                    log_ratios(fresh, tiles(kdes, fresh)), strict=True):
            assert (s, partners, z.tobytes()) == (t, others, y.tobytes())


class TestRowOrder:
    """Permuting the rows of each set permutes its KDE's components and its
    points, so the estimates move by rounding only. Sets of 300-400 rows have
    blocks of several chunks, so the permutation moves samples across chunks."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(PROPERTY_SETTINGS, max_examples=25)
    @given(sets=adversarial_sets(offsets=(0.0,), sizes=st.integers(300, 400) | st.integers(2, 40)), data=st.data())
    def test_permuting_rows_moves_estimates_by_rounding_only(self, kind, sets, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shuffled = [s[rng.permutation(len(s))] for s in sets]
        np.testing.assert_allclose(divergence_matrix(shuffled, kind).values, divergence_matrix(sets, kind).values,
                                   rtol=1e-13, atol=0.0)
        bandwidths = resolve_bandwidths(sets[:2], "silverman")
        assert pair_divergence(*shuffled[:2], kind, *bandwidths) == pytest.approx(
            pair_divergence(*sets[:2], kind, *bandwidths), rel=1e-13, abs=0.0)


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


@pytest.fixture
def tile_calls(monkeypatch):
    """(rows, KDE size, [(count, n) per run]) per `_log_kernel_matrix` call, which is one per tile."""
    from statdiv import density

    calls = []
    kernel = density._log_kernel_matrix

    def spying(points, centre, scale, runs):
        calls.append((points.shape[0], runs[0][2].shape[2], [(count, n) for count, n, _ in runs]))
        return kernel(points, centre, scale, runs)

    monkeypatch.setattr(density, "_log_kernel_matrix", spying)
    return calls


def shapes(calls):
    """(rows, KDE size) per tile of the `tile_calls` spy."""
    return [(rows, cols) for rows, cols, _ in calls]


class TestKernelBlockCount:
    """One `_log_kernel_matrix` call per tile: the blocks of the KDEs of one
    size, cut at the window of their row length."""

    def test_symmetric_pair_forms_two_tiles(self, tile_calls):
        # sets of two sizes: each KDE at the 30 + 20 samples of both sets
        rng = np.random.default_rng(5)
        p, q = rng.standard_normal((30, 2)), rng.standard_normal((20, 2)) + 0.5
        hellinger_empirical(p, q)
        assert shapes(tile_calls) == [(50, 30), (50, 20)]

    def test_equal_sizes_form_one_tile(self, tile_calls):
        # both KDEs at both sets: four 20 x 20 blocks
        rng = np.random.default_rng(5)
        p, q = rng.standard_normal((20, 2)), rng.standard_normal((20, 2)) + 0.5
        hellinger_empirical(p, q)
        assert shapes(tile_calls) == [(80, 20)]

    @staticmethod
    def matrix_of_small_sets():
        rng = np.random.default_rng(6)
        sizes = [int(n) for n in rng.integers(2, 60, size=6)]
        sizes += sizes[:2]  # two sizes shared by two sets
        sets = [random_set(rng, n=n) for n in sizes]
        divergence_matrix(sets, DivergenceKind.JEFFREY)
        return sizes

    def test_matrix_of_small_sets_forms_one_tile_per_size(self, tile_calls, monkeypatch):
        from statdiv import density

        monkeypatch.setattr(density, "_STACK_BLOCK", 2**40)  # short rows never cut
        monkeypatch.setattr(density, "_LSE_BLOCK", 2**41)  # nor long ones, nor a block cut into chunks
        sizes = self.matrix_of_small_sets()
        # each KDE at every set, so each size's tile has all samples once per KDE
        assert sorted(shapes(tile_calls)) == sorted((sizes.count(n) * sum(sizes), n) for n in set(sizes))

    def test_tiles_are_cut_at_the_window(self, tile_calls):
        """A tile of several blocks stays within its window: `_STACK_BLOCK` entries for rows
        under 48, half `_LSE_BLOCK` for longer ones. The next tile of its KDE size starts with
        a block that would have carried it past the window."""
        from statdiv.density import _LSE_BLOCK, _STACK_BLOCK

        sizes = self.matrix_of_small_sets()
        assert sum(rows * cols for rows, cols in shapes(tile_calls)) == sum(sizes) ** 2  # each block once
        assert len(tile_calls) > len(set(sizes))
        assert {cols for _, cols, _ in tile_calls} == set(sizes)
        assert max(sizes) >= 48 > min(sizes)  # both windows
        for (rows, cols, runs), following in zip(tile_calls, tile_calls[1:] + [None]):
            window = _LSE_BLOCK // 2 if cols >= 48 else _STACK_BLOCK
            assert rows * cols <= window or runs == [(1, rows)]
            if following is not None and following[1] == cols:
                assert (rows + following[2][0][1]) * cols > window


class TestKernelBlockMemory:
    """No tile grows past what one set's own block already needs."""

    def test_large_sets_are_evaluated_alone(self, tile_calls):
        p, q = gaussian_pair(7, 2000)
        hellinger_empirical(p, q)
        assert shapes(tile_calls) == [(2000, 2000)] * 4

    def test_large_pair_holds_one_block_at_a_time(self):
        import tracemalloc

        p, q = gaussian_pair(7, 2000)
        hellinger_empirical(p, q)  # warm-up
        tracemalloc.start()
        try:
            hellinger_empirical(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2000 * 2000 * 8

    def test_large_pair_holds_a_few_chunks(self):
        """Blocks over `_LSE_BLOCK` entries are reduced chunk by chunk, so
        no 2000 x 2000 log-kernel matrix is held."""
        import tracemalloc

        from statdiv.density import _LSE_BLOCK

        p, q = gaussian_pair(7, 2000)
        hellinger_empirical(p, q)  # warm-up
        tracemalloc.start()
        try:
            hellinger_empirical(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _LSE_BLOCK * 8

    def test_a_block_that_would_carry_a_tile_past_the_window_starts_the_next(self, tile_calls):
        # KDE 1 (2000 samples) at 3 points, then at 2000: a tile over `_LSE_BLOCK` entries is one block
        from statdiv import density

        hellinger_empirical(gaussian_pair(9, 3)[0], gaussian_pair(9, 2000)[1])
        assert sorted(tile_calls) == [(3, 2000, [(1, 3)]), (2000, 2000, [(1, 2000)]), (2003, 3, [(1, 3), (1, 2000)])]
        assert all(runs == [(1, rows)] for rows, n_b, runs in tile_calls if rows * n_b > density._LSE_BLOCK)

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_chunked_blocks_equal_each_block_alone(self, kind):
        """Blocks of several chunks agree bit for bit on every path: each log
        ratio row is its two blocks alone, a copied set is at exactly 0, and
        the cross matrix of the sets with themselves is the square one."""
        rng = np.random.default_rng(10)
        sets = [random_set(rng, n=n, dim=2) for n in (3, 300, 2000)]
        sets.append(sets[2].copy())
        bandwidths = resolve_bandwidths(sets, "silverman")
        models = [DensityModel(s, bw) for s, bw in zip(sets, bandwidths)]
        pairs = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))]
        for s, partners, z in ratios_of(_kde_collection(sets, bandwidths), pairs):
            own = log_density_batch(models[s], sets[s])
            for r, row in zip(partners, z):
                np.testing.assert_array_equal(row, own - log_density_batch(models[r], sets[s]))
        square = divergence_matrix(sets, kind).values
        assert square[2, 3] == 0.0
        assert cross_divergence_matrix(sets, sets, kind).tobytes() == square.tobytes()

    def test_tiles_stay_within_the_lse_block(self, tile_calls):
        """The `match` benchmark's shape: 100 x 100 blocks are long rows, stacked three to a
        tile within half `_LSE_BLOCK` entries, so no tile is cut into chunks."""
        from statdiv.density import _LSE_BLOCK

        rng = np.random.default_rng(8)
        gallery = [random_set(rng, n=100, dim=10) for _ in range(16)]
        probe = [random_set(rng, n=100, dim=10) for _ in range(16)]
        divergence_matrix(gallery, DivergenceKind.HELLINGER_SQUARED)
        cross_divergence_matrix(gallery, probe, DivergenceKind.HELLINGER_SQUARED)
        assert 3 * 100 * 100 <= _LSE_BLOCK // 2 < 4 * 100 * 100
        # the square's 16 x 16 blocks, then the cross's 2 x 16 x 16 plus each set's own: 3 a tile, 1 left
        assert shapes(tile_calls) == [(300, 100)] * 85 + [(100, 100)] + [(300, 100)] * 181 + [(100, 100)]
