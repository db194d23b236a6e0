import warnings

import numpy as np
import pytest

from statdiv import oracles
from statdiv.kernels import (
    SIGMA_GRID,
    KernelFamily,
    KernelSpec,
    cross_gram,
    gram,
    kernel_from_divergence,
    load_gram_matrix,
    min_eigenvalue,
    save_gram_matrix,
    set_to_covariance,
    set_to_subspace,
)


def random_sets(rng, count=5, n=15, dim=2):
    return [rng.normal(rng.uniform(-2, 2, size=dim), 1.0, size=(n, dim)) for _ in range(count)]


def exact_hellinger_matrix(hists):
    m = len(hists)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = oracles.hellinger_discrete_exact(hists[i], hists[j])
    return out


class TestKernelFromDivergence:
    @pytest.mark.parametrize("family", [KernelFamily.HELLINGER_GAUSSIAN,
                                        KernelFamily.HELLINGER_LAPLACE,
                                        KernelFamily.JEFFREY_EXPONENTIAL])
    def test_zero_divergence_maps_to_one(self, family):
        assert kernel_from_divergence(0.0, KernelSpec(family=family, sigma=0.3)) == 1.0

    @pytest.mark.parametrize("sigma", [True, False, 0, -1.0, float("nan"), float("inf"), "0.5"])
    def test_spec_rejects_sigma_that_is_not_a_positive_number(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a positive number"):
            KernelSpec(family=KernelFamily.HELLINGER_GAUSSIAN, sigma=sigma)

    def test_gaussian_at_max_distance(self):
        spec = KernelSpec(family=KernelFamily.HELLINGER_GAUSSIAN, sigma=1.0)
        assert kernel_from_divergence(2.0, spec) == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_laplace_uses_square_root(self):
        spec = KernelSpec(family=KernelFamily.HELLINGER_LAPLACE, sigma=1.0)
        assert kernel_from_divergence(1.0, spec) == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert kernel_from_divergence(1.96, spec) == pytest.approx(np.exp(-1.4), rel=1e-12)

    def test_laplace_rejects_out_of_range(self):
        spec = KernelSpec(family=KernelFamily.HELLINGER_LAPLACE, sigma=1.0)
        with pytest.raises(ValueError, match="<= 2"):
            kernel_from_divergence(4.0, spec)

    def test_rejects_negative_divergence(self):
        spec = KernelSpec(family=KernelFamily.JEFFREY_EXPONENTIAL, sigma=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            kernel_from_divergence(-0.1, spec)

    def test_values_in_unit_interval(self):
        spec = KernelSpec(family=KernelFamily.JEFFREY_EXPONENTIAL, sigma=0.5)
        values = kernel_from_divergence(np.array([0.0, 1.0, 30.0]), spec)
        assert np.all((values > 0.0) & (values <= 1.0))

    @pytest.mark.parametrize("spec", [KernelSpec(KernelFamily.GRASSMANN_PROJECTION, subspace_dim=2),
                                      KernelSpec(KernelFamily.SPD_LOG_EUCLIDEAN)])
    @pytest.mark.parametrize("delta", [0.5, 4.0])
    def test_refuses_a_baseline(self, spec, delta):
        with pytest.raises(ValueError, match="is not a divergence-based kernel"):
            kernel_from_divergence(delta, spec)

    def test_every_family_is_in_exactly_one_table(self):
        from statdiv.kernels import _BASELINES, _DIVERGENCE_FAMILIES

        for family in KernelFamily:
            assert (family in _DIVERGENCE_FAMILIES) + (family in _BASELINES) == 1, family


class TestGram:
    def test_identical_sets_give_all_ones(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((12, 2))
        spec = KernelSpec(family=KernelFamily.HELLINGER_GAUSSIAN, sigma=0.5)
        matrix = gram([base.copy() for _ in range(4)], spec)
        np.testing.assert_array_equal(matrix.values, np.ones((4, 4)))
        eigs = np.linalg.eigvalsh(matrix.values)
        np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 4.0], atol=1e-12)

    @pytest.mark.parametrize("family", [KernelFamily.HELLINGER_GAUSSIAN,
                                        KernelFamily.HELLINGER_LAPLACE,
                                        KernelFamily.JEFFREY_EXPONENTIAL])
    def test_unit_diagonal(self, family):
        rng = np.random.default_rng(1)
        matrix = gram(random_sets(rng), KernelSpec(family=family, sigma=0.1))
        np.testing.assert_array_equal(np.diag(matrix.values), np.ones(5))

    def test_order_invariance_up_to_permutation(self):
        rng = np.random.default_rng(2)
        sets = random_sets(rng, count=4)
        spec = KernelSpec(family=KernelFamily.HELLINGER_GAUSSIAN, sigma=0.2)
        base = gram(sets, spec).values
        perm = [2, 0, 3, 1]
        permuted = gram([sets[i] for i in perm], spec).values
        np.testing.assert_array_equal(permuted, base[np.ix_(perm, perm)])

    def test_jeffrey_gram_empirically_psd_is_logged_not_asserted(self):
        # positive definiteness of the Jeffrey map is an open question, so a
        # violation only produces a warning here
        rng = np.random.default_rng(3)
        matrix = gram(random_sets(rng, count=6), KernelSpec(family=KernelFamily.JEFFREY_EXPONENTIAL, sigma=0.1))
        smallest = min_eigenvalue(matrix)
        if smallest < -1e-10:
            warnings.warn(f"Jeffrey gram has negative eigenvalue {smallest:.3e}")

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_cross_gram_matches_square_blocks(self, family):
        rng = np.random.default_rng(4)
        sets = random_sets(rng, count=5)
        spec = KernelSpec(family=family, sigma=0.3, subspace_dim=1)
        square = gram(sets, spec).values
        cross = cross_gram(sets[:3], sets[3:], spec)
        np.testing.assert_array_equal(cross, square[:3, 3:])

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("side", ["gallery", "probe"])
    def test_cross_gram_refuses_an_empty_side(self, family, side):
        sets = random_sets(np.random.default_rng(12), count=2)
        spec = KernelSpec(family=family, subspace_dim=1)
        with pytest.raises(ValueError, match="^cross_gram needs non-empty collections"):
            cross_gram([] if side == "gallery" else sets, sets if side == "gallery" else [], spec)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_gram_refuses_an_empty_list(self, family):
        with pytest.raises(ValueError, match="^gram needs at least one set"):
            gram([], KernelSpec(family=family, subspace_dim=1))

    def test_round_trip_serialization(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = gram(random_sets(rng, count=3),
                      KernelSpec(family=KernelFamily.HELLINGER_LAPLACE, sigma=0.05))
        save_gram_matrix(matrix, tmp_path / "gram.csv")
        loaded = load_gram_matrix(tmp_path / "gram.csv")
        np.testing.assert_array_equal(loaded.values, matrix.values)
        assert loaded.spec == matrix.spec


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones(self):
        assert min_eigenvalue(np.ones((6, 6))) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("family", [KernelFamily.HELLINGER_GAUSSIAN,
                                        KernelFamily.HELLINGER_LAPLACE])
    def test_exact_histogram_grams_stay_psd(self, family):
        # 500 random 12-set collections over the exact discrete distance
        rng = np.random.default_rng(6)
        worst = np.inf
        for _ in range(500):
            hists = rng.uniform(0.02, 1.0, size=(12, int(rng.integers(2, 17))))
            hists /= hists.sum(axis=1, keepdims=True)
            deltas = exact_hellinger_matrix(list(hists))
            sigma = SIGMA_GRID[int(rng.integers(len(SIGMA_GRID)))]
            values = np.asarray(kernel_from_divergence(deltas, KernelSpec(family=family, sigma=sigma)))
            np.fill_diagonal(values, 1.0)
            worst = min(worst, min_eigenvalue(values))
        assert worst >= -1e-8


class TestSetSummaries:
    def test_rank_one_data_recovers_direction(self):
        rng = np.random.default_rng(7)
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        coords = rng.standard_normal(30)
        mat = np.outer(coords, direction)
        basis = set_to_subspace(mat, p=1)
        cosine = abs(float(basis[:, 0] @ direction))
        assert cosine >= 1.0 - 1e-10

    def test_projection_kernel_is_basis_invariant(self):
        rng = np.random.default_rng(8)
        a = set_to_subspace(rng.standard_normal((20, 5)), p=2)
        b = set_to_subspace(rng.standard_normal((20, 5)), p=2)
        rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        value = float(np.sum((a.T @ b) ** 2))
        remixed = float(np.sum(((a @ rot).T @ b) ** 2))
        assert remixed == pytest.approx(value, abs=1e-10)

    def test_subspace_dim_validation(self):
        with pytest.raises(ValueError, match="p="):
            set_to_subspace(np.zeros((4, 3)) + np.arange(4)[:, None], p=4)

    def test_covariance_of_isotropic_data(self):
        rng = np.random.default_rng(9)
        sd = 1.5
        mat = rng.normal(0.0, sd, size=(10_000, 3))
        cov = set_to_covariance(mat)
        ridge = 1e-3 * np.trace((mat - mat.mean(0)).T @ (mat - mat.mean(0)) / len(mat)) / 3
        np.testing.assert_allclose(np.diag(cov), sd**2 + ridge, rtol=0.06)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_covariance_always_spd(self):
        mat = np.ones((5, 3))
        mat[0, 0] = 1.0 + 1e-15
        cov = set_to_covariance(mat)
        assert np.min(np.linalg.eigvalsh(cov)) > 0

    def test_log_euclidean_self_kernel(self):
        rng = np.random.default_rng(10)
        sets = random_sets(rng, count=3, dim=3)
        matrix = gram(sets, KernelSpec(family=KernelFamily.SPD_LOG_EUCLIDEAN))
        for k, s in enumerate(sets):
            cov = set_to_covariance(s)
            w, v = np.linalg.eigh(cov)
            log_cov = (v * np.log(w)) @ v.T
            assert matrix.values[k, k] == pytest.approx(np.sum(log_cov**2), rel=1e-10)

    def test_projection_kernel_gram(self):
        rng = np.random.default_rng(11)
        sets = random_sets(rng, count=4, n=20, dim=4)
        spec = KernelSpec(family=KernelFamily.GRASSMANN_PROJECTION, subspace_dim=2)
        matrix = gram(sets, spec)
        # diagonal is ||A'A||_F^2 = p for orthonormal bases
        np.testing.assert_allclose(np.diag(matrix.values), 2.0, atol=1e-10)

    def test_grassmann_spec_requires_subspace_dim(self):
        with pytest.raises(ValueError, match="subspace_dim"):
            KernelSpec(family=KernelFamily.GRASSMANN_PROJECTION)

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", 0, -1])
    def test_grassmann_spec_rejects_subspace_dim_that_is_not_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="integer subspace_dim >= 1"):
            KernelSpec(KernelFamily.GRASSMANN_PROJECTION, 0.1, dim)

    def test_grassmann_spec_takes_a_numpy_integer(self):
        spec = KernelSpec(KernelFamily.GRASSMANN_PROJECTION, 0.1, np.int64(2))
        assert spec.subspace_dim == 2 and type(spec.subspace_dim) is int
