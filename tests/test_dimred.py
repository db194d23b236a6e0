import numpy as np
import pytest

from statdiv.dataset import SyntheticSpec, generate_synthetic
from statdiv.density import Bandwidth
from statdiv.divergence import DivergenceKind, divergence_matrix, pair_divergence, resolve_bandwidths
from statdiv.dimred import (
    AffinityMatrix,
    DrConfig,
    affinity_from_divergences,
    build_affinity,
    dr_cost,
    dr_euclidean_gradient,
    learn_projection,
    project_sets,
)
from statdiv.manifold import CgOptions, cg_minimize, is_orthonormal, random_orthonormal


def finite_difference(fn, w, step=1e-6):
    out = np.zeros_like(w)
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            plus = w.copy(); plus[a, b] += step
            minus = w.copy(); minus[a, b] -= step
            out[a, b] = (fn(plus) - fn(minus)) / (2 * step)
    return out


def toy_problem(seed, count=4, n=6, dim=4):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(rng.uniform(-1, 1), 1.0, size=(n, dim)) for _ in range(count)]
    labels = np.arange(count) % 2
    div = rng.uniform(0.1, 1.5, size=(count, count))
    div = 0.5 * (div + div.T)
    np.fill_diagonal(div, 0.0)
    affinity = affinity_from_divergences(div, labels, nu_w=1, nu_b=1)
    return mats, labels, affinity, rng


class TestAffinity:
    def test_two_class_construction(self):
        # within-class divergences 0.1, cross 5.0
        values = np.array([
            [0.0, 0.1, 5.0, 5.0],
            [0.1, 0.0, 5.0, 5.0],
            [5.0, 5.0, 0.0, 0.1],
            [5.0, 5.0, 0.1, 0.0],
        ])
        labels = [0, 0, 1, 1]
        affinity = affinity_from_divergences(values, labels, nu_w=1, nu_b=1)
        assert affinity.values[0, 1] == 1
        assert affinity.values[2, 3] == 1
        assert affinity.values[0, 2] == -1  # nearest cross neighbor by index tie
        assert np.all(np.diag(affinity.values) == 0)

    def test_zero_between_neighbors(self):
        values = np.array([
            [0.0, 0.1, 5.0, 5.0],
            [0.1, 0.0, 5.0, 5.0],
            [5.0, 5.0, 0.0, 0.1],
            [5.0, 5.0, 0.1, 0.0],
        ])
        affinity = affinity_from_divergences(values, [0, 0, 1, 1], nu_w=1, nu_b=0)
        assert not np.any(affinity.values == -1)

    def test_or_rule_symmetry(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.1, 2.0, size=(9, 9))
        values = 0.5 * (values + values.T)
        np.fill_diagonal(values, 0.0)
        labels = rng.permutation([0, 0, 0, 1, 1, 1, 2, 2, 2])
        affinity = affinity_from_divergences(values, labels, nu_w="auto", nu_b=1)
        np.testing.assert_array_equal(affinity.values, affinity.values.T)

    def test_auto_nu_w_is_min_class_size_minus_one(self):
        values = np.zeros((5, 5))
        affinity = affinity_from_divergences(values, [0, 0, 0, 1, 1], nu_w="auto", nu_b=1)
        assert affinity.nu_w == 1

    def test_nu_b_must_not_exceed_nu_w(self):
        values = np.zeros((4, 4))
        with pytest.raises(ValueError, match="nu_b"):
            affinity_from_divergences(values, [0, 0, 1, 1], nu_w=1, nu_b=2)

    def test_build_affinity_uses_full_dimensional_divergences(self):
        rng = np.random.default_rng(1)
        sets = [rng.normal(c, 1.0, size=(15, 2)) for c in (0.0, 0.2, 6.0, 6.2)]
        labels = [0, 0, 1, 1]
        affinity = build_affinity(sets, labels, nu_w=1, nu_b=1,
                                  kind=DivergenceKind.HELLINGER_SQUARED)
        div = divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)
        expected = affinity_from_divergences(div.values, labels, nu_w=1, nu_b=1)
        np.testing.assert_array_equal(affinity.values, expected.values)

    def test_matrix_invariants(self):
        with pytest.raises(ValueError, match="symmetric"):
            AffinityMatrix(values=np.array([[0, 1], [0, 0]]), nu_w=1, nu_b=1)
        with pytest.raises(ValueError, match="diagonal"):
            AffinityMatrix(values=np.array([[1, 0], [0, 0]]), nu_w=1, nu_b=1)


class TestDrCost:
    def test_zero_affinity_gives_zero(self):
        mats, _, _, rng = toy_problem(2)
        affinity = AffinityMatrix(values=np.zeros((4, 4), dtype=int), nu_w=0, nu_b=0)
        w = random_orthonormal(4, 2, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        assert dr_cost(w, mats, affinity, DivergenceKind.HELLINGER_SQUARED, bandwidths) == 0.0

    def test_identical_sets_with_positive_affinity_give_zero(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((8, 4))
        mats = [base.copy() for _ in range(3)]
        values = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        affinity = AffinityMatrix(values=values, nu_w=2, nu_b=0)
        w = random_orthonormal(4, 2, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        assert dr_cost(w, mats, affinity, DivergenceKind.HELLINGER_SQUARED, bandwidths) == 0.0

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_invariant_to_basis_rotation(self, kind):
        mats, _, affinity, rng = toy_problem(4)
        w = random_orthonormal(4, 2, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        base = dr_cost(w, mats, affinity, kind, bandwidths)
        for _ in range(5):
            rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            rotated = dr_cost(w @ rot, mats, affinity, kind, bandwidths)
            assert rotated == pytest.approx(base, abs=1e-8)

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_equals_signed_sum_of_pair_divergences(self, kind):
        # the cost is the paper's pair estimator on the projected sets, bit for bit
        rng = np.random.default_rng(13)
        mats = [rng.normal(c, 1.0, size=(n, 5)) for c, n in ((0.0, 7), (0.4, 11), (2.0, 9), (2.5, 14))]
        values = np.array([[0, 1, -1, 0], [1, 0, 0, -1], [-1, 0, 0, 1], [0, -1, 1, 0]])
        affinity = AffinityMatrix(values=values, nu_w=1, nu_b=1)
        w = random_orthonormal(5, 2, rng)
        bandwidths = [Bandwidth(rng.uniform(0.2, 1.0, size=2)) for _ in mats]
        expected = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                if values[i, j]:
                    expected += float(values[i, j]) * pair_divergence(
                        mats[i] @ w, mats[j] @ w, kind, bandwidths[i], bandwidths[j])
        assert dr_cost(w, mats, affinity, kind, bandwidths) == expected


def _objective_and_gradients(w, mats, affinity, bandwidths):
    kind = DivergenceKind.HELLINGER_SQUARED
    return {
        "dr_cost": lambda: dr_cost(w, mats, affinity, kind, bandwidths),
        "dr_euclidean_gradient": lambda: dr_euclidean_gradient(w, mats, affinity, kind, bandwidths),
    }


class TestSharedInputChecks:
    @pytest.mark.parametrize("fn", ["dr_cost", "dr_euclidean_gradient"])
    def test_bandwidth_dimension_must_match_frame(self, fn):
        mats, _, affinity, rng = toy_problem(14)
        w = random_orthonormal(4, 2, rng)
        bandwidths = [Bandwidth([0.5]) for _ in mats]
        with pytest.raises(ValueError, match="bandwidth dimension 1"):
            _objective_and_gradients(w, mats, affinity, bandwidths)[fn]()

    @pytest.mark.parametrize("fn", ["dr_cost", "dr_euclidean_gradient"])
    def test_nan_frame_is_rejected(self, fn):
        mats, _, affinity, rng = toy_problem(15)
        w = random_orthonormal(4, 2, rng)
        w[1, 0] = np.nan
        bandwidths = [Bandwidth([0.5, 0.5]) for _ in mats]
        with pytest.raises(ValueError, match="non-finite"):
            _objective_and_gradients(w, mats, affinity, bandwidths)[fn]()

    @pytest.mark.parametrize("policy", ["isotropic", "silverman"])
    @pytest.mark.parametrize("fn", ["dr_cost", "dr_euclidean_gradient"])
    def test_bandwidth_policy_is_rejected(self, fn, policy):
        # a policy would follow W, and the gradient would not be the cost's derivative
        mats, _, affinity, rng = toy_problem(16)
        w = random_orthonormal(4, 2, rng)
        with pytest.raises(ValueError, match="bandwidths"):
            _objective_and_gradients(w, mats, affinity, policy)[fn]()


class TestObjectiveGradient:
    def test_zero_affinity_gives_zero_matrix(self):
        mats, _, _, rng = toy_problem(7)
        affinity = AffinityMatrix(values=np.zeros((4, 4), dtype=int), nu_w=0, nu_b=0)
        w = random_orthonormal(4, 2, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        gradient = dr_euclidean_gradient(w, mats, affinity, DivergenceKind.JEFFREY, bandwidths)
        np.testing.assert_array_equal(gradient, np.zeros((4, 2)))

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    @pytest.mark.parametrize("trial", range(5))
    def test_matches_central_differences(self, kind, trial):
        mats, _, affinity, rng = toy_problem(200 + trial)
        w = random_orthonormal(4, 2, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        analytic = dr_euclidean_gradient(w, mats, affinity, kind, bandwidths)
        numeric = finite_difference(
            lambda frame: dr_cost(frame, mats, affinity, kind, bandwidths), w
        )
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale <= 1e-3

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    @pytest.mark.parametrize("trial", range(10))
    def test_one_pair_with_distinct_bandwidths_matches_central_differences(self, kind, trial):
        # each set keeps its own anisotropic projected bandwidth
        rng = np.random.default_rng(100 + trial)
        mats = [rng.normal(0.0, 1.0, size=(6, 4)), rng.normal(0.5, 1.0, size=(6, 4))]
        affinity = AffinityMatrix(values=np.array([[0, 1], [1, 0]]), nu_w=1, nu_b=0)
        w = random_orthonormal(4, 2, rng)
        bandwidths = [Bandwidth(rng.uniform(0.3, 1.0, size=2)) for _ in mats]
        analytic = dr_euclidean_gradient(w, mats, affinity, kind, bandwidths)
        numeric = finite_difference(
            lambda frame: dr_cost(frame, mats, affinity, kind, bandwidths), w
        )
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale <= 1e-4

    def test_identical_projected_sets_contribute_nothing(self):
        # T = 1/2 everywhere zeroes the per-sample weight
        rng = np.random.default_rng(8)
        base = rng.standard_normal((8, 4))
        mats = [base.copy(), base.copy()]
        values = np.array([[0, 1], [1, 0]], dtype=int)
        affinity = AffinityMatrix(values=values, nu_w=1, nu_b=0)
        w = random_orthonormal(4, 2, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        gradient = dr_euclidean_gradient(w, mats, affinity,
                                         DivergenceKind.HELLINGER_SQUARED, bandwidths)
        np.testing.assert_allclose(gradient, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_invariant_to_duplicating_every_set(self, kind):
        # duplicating every kernel term leaves each density, hence each
        # per-sample term and its mean, unchanged
        mats, _, affinity, rng = toy_problem(17, n=5, dim=3)
        w = random_orthonormal(3, 2, rng)
        bandwidths = [Bandwidth(rng.uniform(0.3, 0.8, size=2)) for _ in mats]
        doubled = [np.vstack([m, m]) for m in mats]
        base = dr_cost(w, mats, affinity, kind, bandwidths)
        assert dr_cost(w, doubled, affinity, kind, bandwidths) == pytest.approx(base, abs=1e-12)
        np.testing.assert_allclose(dr_euclidean_gradient(w, doubled, affinity, kind, bandwidths),
                                   dr_euclidean_gradient(w, mats, affinity, kind, bandwidths),
                                   rtol=0.0, atol=1e-12)


class TestLearnProjection:
    def benchmark(self, seed):
        spec = SyntheticSpec(classes=3, sets_per_class=4, samples_per_set=24, dim=20,
                             class_separation=4.0, within_class_jitter=1.0, seed=seed)
        return generate_synthetic(spec)

    def compactness_ratio(self, sets, labels, kind):
        values = divergence_matrix(sets, kind).values
        labels = np.asarray(labels)
        same = (labels[:, None] == labels[None, :]) & ~np.eye(len(labels), dtype=bool)
        return values[same].mean() / values[labels[:, None] != labels[None, :]].mean()

    def test_cost_trace_settles_within_fifty_iterations(self):
        ds = self.benchmark(0)
        config = DrConfig(target_dim=3, cg=CgOptions(max_iters=50, rel_cost_tol=1e-4), seed=0)
        result = learn_projection(ds.sets, ds.labels, config)
        costs = result.cg.costs
        assert np.all(np.diff(costs) <= 0.0)
        assert result.cg.iterations <= 50
        rel = abs(costs[-1] - costs[-2]) / max(abs(costs[-2]), 1e-12)
        assert rel < 1e-4

    def test_classes_become_more_compact(self):
        ds = self.benchmark(1)
        config = DrConfig(target_dim=3, cg=CgOptions(max_iters=50, rel_cost_tol=1e-4), seed=1)
        result = learn_projection(ds.sets, ds.labels, config)
        pre = self.compactness_ratio([fs.features for fs in ds.sets], ds.labels, config.kind)
        post = self.compactness_ratio(project_sets(ds.sets, result.point), ds.labels, config.kind)
        assert post < pre

    def test_near_full_dimension_keeps_invariants(self):
        rng = np.random.default_rng(9)
        sets = [rng.normal(c, 1.0, size=(10, 4)) for c in (0.0, 0.1, 3.0, 3.1)]
        labels = [0, 0, 1, 1]
        config = DrConfig(target_dim=3, cg=CgOptions(max_iters=10), seed=2)
        result = learn_projection(sets, labels, config)
        assert is_orthonormal(result.point)
        assert result.point.shape == (4, 3)

    def test_random_init_is_seed_deterministic(self):
        rng = np.random.default_rng(10)
        sets = [rng.normal(c, 1.0, size=(10, 5)) for c in (0.0, 0.2, 2.0, 2.2)]
        labels = [0, 0, 1, 1]
        config = DrConfig(target_dim=2, cg=CgOptions(max_iters=5), init="random", seed=11)
        a = learn_projection(sets, labels, config)
        b = learn_projection(sets, labels, config)
        np.testing.assert_array_equal(a.point, b.point)

    def test_target_dim_validation(self):
        rng = np.random.default_rng(12)
        sets = [rng.standard_normal((8, 3)) for _ in range(4)]
        with pytest.raises(ValueError, match="target_dim"):
            learn_projection(sets, [0, 0, 1, 1], DrConfig(target_dim=3))
        with pytest.raises(ValueError, match="target_dim"):
            DrConfig(target_dim=0)


class TestOnePassPerFrame:
    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_one_tiles_call_per_objective_evaluation(self, kind, monkeypatch):
        from statdiv import density, dimred

        ds = TestLearnProjection().benchmark(2)
        calls = {"tiles": 0, "objective": 0, "tiles_before_cg": None}
        tiles, cg = density.tiles, dimred.cg_minimize

        def counting_tiles(*args):
            calls["tiles"] += 1
            return tiles(*args)

        def counting_cg(objective, *args):
            calls["tiles_before_cg"] = calls["tiles"]

            def counted(w):
                calls["objective"] += 1
                return objective(w)

            return cg(counted, *args)

        for module in (density, dimred):  # dimred reads the name it imported
            monkeypatch.setattr(module, "tiles", counting_tiles)
        monkeypatch.setattr(dimred, "cg_minimize", counting_cg)
        config = DrConfig(target_dim=3, kind=kind, cg=CgOptions(max_iters=10, rel_cost_tol=1e-4))
        result = learn_projection(ds.sets, ds.labels, config)
        assert calls["objective"] > result.cg.trace.shape[0]  # some trial frames were rejected
        assert calls["tiles"] - calls["tiles_before_cg"] == calls["objective"]

        # the same run as a cost and a gradient formed apart
        mats = [fs.features for fs in ds.sets]
        args = (mats, result.affinity, kind, result.bandwidths)
        apart = cg_minimize(lambda w: (dr_cost(w, *args), lambda: dr_euclidean_gradient(w, *args)),
                            result.initial_point, config.cg)
        np.testing.assert_array_equal(result.cg.trace, apart.trace)
        np.testing.assert_array_equal(result.point, apart.point)


    def test_one_plan_per_objective(self, monkeypatch):
        from statdiv import density, dimred

        ds = TestLearnProjection().benchmark(2)
        calls, cg = [], dimred.cg_minimize
        plan = density.plan

        def counting_plan(*args):
            calls.append("plan")
            return plan(*args)

        def marking_cg(*args):
            calls.append("cg")
            return cg(*args)

        for module in (density, dimred):  # dimred reads the name it imported
            monkeypatch.setattr(module, "plan", counting_plan)
        monkeypatch.setattr(dimred, "cg_minimize", marking_cg)
        result = learn_projection(ds.sets, ds.labels, DrConfig(target_dim=3, cg=CgOptions(max_iters=10)))
        assert result.cg.iterations > 1
        assert calls[calls.index("cg"):] == ["cg", "plan"]


class TestGradientBlockCount:
    @pytest.mark.parametrize("fn", [dr_cost, dr_euclidean_gradient])
    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_one_tile_per_set_an_active_pair_touches(self, fn, kind, monkeypatch):
        from statdiv import density

        mats, _, affinity, rng = toy_problem(31)
        mats = [m[: 3 + k] for k, m in enumerate(mats)]  # ragged: 3, 4, 5, 6 samples
        w = random_orthonormal(4, 2, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        calls = []
        kernel = density._log_kernel_matrix

        def counting(points, centre, scale, runs):
            calls.append((points.shape[0], runs[0][2].shape[2]))  # rows, KDE size
            return kernel(points, centre, scale, runs)

        monkeypatch.setattr(density, "_log_kernel_matrix", counting)
        fn(w, mats, affinity, kind, bandwidths)
        sizes = np.array([m.shape[0] for m in mats])
        partners = affinity.values != 0
        assert np.count_nonzero(partners) > 0
        # each touched set's KDE at its own samples and its partners'
        expected = [(sizes[b] + sizes[partners[b]].sum(), sizes[b])
                    for b in range(len(mats)) if partners[b].any()]
        assert sorted(calls) == sorted(expected)


class TestGradientOfChunkedBlocks:
    """Projected blocks of 300 x 300, over `_LSE_BLOCK` entries, are formed in
    chunks of rows, and the gradient is summed over the chunks."""

    @staticmethod
    def problem(seed):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(0.0, 1.0, size=(300, 6)), rng.normal(0.5, 1.0, size=(300, 6))]
        affinity = AffinityMatrix(values=np.array([[0, -1], [-1, 0]]), nu_w=0, nu_b=1)
        w = random_orthonormal(6, 2, rng)
        return w, mats, affinity, resolve_bandwidths(project_sets(mats, w), "isotropic")

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_matches_central_differences(self, kind):
        from statdiv.density import _LSE_BLOCK

        w, mats, affinity, bandwidths = self.problem(60)
        assert 300 * 300 > _LSE_BLOCK
        analytic = dr_euclidean_gradient(w, mats, affinity, kind, bandwidths)
        numeric = finite_difference(lambda frame: dr_cost(frame, mats, affinity, kind, bandwidths), w)
        assert np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric)) <= 1e-4

    @pytest.mark.parametrize("kind", list(DivergenceKind))
    def test_equals_the_one_chunk_gradient(self, kind, monkeypatch):
        from statdiv import density

        w, mats, affinity, bandwidths = self.problem(61)
        chunked = dr_euclidean_gradient(w, mats, affinity, kind, bandwidths)
        monkeypatch.setattr(density, "_LSE_BLOCK", 2**40)  # every block one chunk
        whole = dr_euclidean_gradient(w, mats, affinity, kind, bandwidths)
        assert np.max(np.abs(chunked - whole)) <= 1e-13 * np.max(np.abs(whole))


class TestGradientOfStackedBlocks:
    @pytest.mark.parametrize("kind", list(DivergenceKind))
    @pytest.mark.parametrize("trial", range(8))
    def test_equals_sum_of_one_pair_gradients(self, kind, trial):
        rng = np.random.default_rng(400 + trial)
        count, dim = int(rng.integers(3, 7)), int(rng.integers(2, 8))
        mats = [rng.normal(rng.uniform(-1, 1), 1.0, size=(int(rng.integers(2, 30)), dim))
                for _ in range(count)]
        values = np.triu(rng.integers(-1, 2, size=(count, count)), 1)
        values[0, 1] = 1  # at least one active pair
        affinity = AffinityMatrix(values=values + values.T, nu_w=1, nu_b=1)
        w = random_orthonormal(dim, int(rng.integers(1, dim)), rng)
        bandwidths = resolve_bandwidths(project_sets(mats, w), "isotropic")
        total = dr_euclidean_gradient(w, mats, affinity, kind, bandwidths)
        parts = np.zeros_like(total)
        for i, j in zip(*np.nonzero(np.triu(affinity.values, 1))):
            single = np.zeros((count, count), dtype=int)
            single[i, j] = single[j, i] = affinity.values[i, j]
            parts += dr_euclidean_gradient(w, mats, AffinityMatrix(single, 1, 1), kind, bandwidths)
        assert np.max(np.abs(total - parts)) <= 1e-13 * np.max(np.abs(total))
