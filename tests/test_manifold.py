import weakref

import numpy as np
import pytest

from statdiv.dataset import SyntheticSpec, generate_synthetic
from statdiv.dimred import _objective, _pca_frame, build_affinity, project_sets
from statdiv.divergence import DivergenceKind, resolve_bandwidths
from statdiv.manifold import (
    ARMIJO_C1,
    BACKTRACK_FACTOR,
    INITIAL_STEP,
    MAX_BACKTRACKS,
    CgOptions,
    _inner,
    cg_minimize,
    is_orthonormal,
    random_orthonormal,
    retract,
    save_trace,
    tangent_project,
)


def objective(cost, egrad):
    """The one callback of `cg_minimize`, from a cost and its ambient gradient."""
    return lambda w: (cost(w), lambda: egrad(w))


def backtracking_from_one(objective, w0, opts):
    """(trace, point) of the same conjugate gradient with every line search backtracking
    from INITIAL_STEP and accepting the first step that passes: the largest of 1, 1/2, 1/4, ..."""
    w = w0
    f, gradient = objective(w)
    g = tangent_project(w, gradient())
    rows = [(0, f, float(np.linalg.norm(g)), 0.0)]
    if rows[0][2] <= opts.grad_tol:
        return np.array(rows), w
    direction = -g
    for iteration in range(1, opts.max_iters + 1):
        slope = _inner(g, direction)
        if slope >= 0:
            direction, slope = -g, -_inner(g, g)
        step = INITIAL_STEP
        for _ in range(MAX_BACKTRACKS):
            try:
                w_new = retract(w, direction, step)
            except np.linalg.LinAlgError:
                step *= BACKTRACK_FACTOR
                continue
            f_new, gradient = objective(w_new)
            if f_new <= f + ARMIJO_C1 * step * slope:
                break
            step *= BACKTRACK_FACTOR
        else:
            break
        g_new = tangent_project(w_new, gradient())
        g_norm = float(np.linalg.norm(g_new))
        rows.append((iteration, f_new, g_norm, step))
        rel_change = abs(f - f_new) / max(abs(f), 1e-12)
        denom = _inner(g, g)
        beta = max(0.0, _inner(g_new, g_new - tangent_project(w_new, g)) / denom) if denom > 0 else 0.0
        direction = -g_new + beta * tangent_project(w_new, direction)
        w, f, g = w_new, f_new, g_new
        if g_norm <= opts.grad_tol or rel_change <= opts.rel_cost_tol:
            break
    return np.array(rows), w


def counted(objective, calls):
    """`objective`, appending each point it is called at to `calls`."""
    def count(w):
        calls.append(w)
        return objective(w)
    return count


def dr_problem(kind, seed, classes=3, sets_per_class=4, samples_per_set=24, dim=20, target_dim=3):
    """The DR objective and PCA start of `learn_projection` on a synthetic problem (by default
    the shape of acceptance criterion 8)."""
    ds = generate_synthetic(SyntheticSpec(classes=classes, sets_per_class=sets_per_class,
                                          samples_per_set=samples_per_set, dim=dim, class_separation=4.0,
                                          within_class_jitter=1.0, seed=seed))
    mats = [fs.features for fs in ds.sets]
    affinity = build_affinity(ds.sets, ds.labels, kind=kind)
    w0 = _pca_frame(mats, target_dim)
    bandwidths = tuple(resolve_bandwidths(project_sets(mats, w0), "isotropic"))
    return lambda: _objective(mats, affinity, kind, bandwidths), w0


def subspace_distance(a, b):
    """Chordal distance between the column spans of two orthonormal frames."""
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.sqrt(max(0.0, a.shape[1] - float(np.sum(s**2))))


class TestTangentProject:
    def test_vertical_direction_annihilated(self):
        rng = np.random.default_rng(0)
        w = random_orthonormal(6, 2, rng)
        np.testing.assert_allclose(tangent_project(w, w), 0.0, atol=1e-12)

    def test_horizontal_direction_unchanged(self):
        rng = np.random.default_rng(1)
        w = random_orthonormal(6, 2, rng)
        h = tangent_project(w, rng.standard_normal((6, 2)))
        np.testing.assert_allclose(tangent_project(w, h), h, atol=1e-12)

    def test_idempotent_and_horizontal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = random_orthonormal(8, 3, rng)
            g = rng.standard_normal((8, 3))
            h = tangent_project(w, g)
            np.testing.assert_allclose(w.T @ h, 0.0, atol=1e-10)
            np.testing.assert_allclose(tangent_project(w, h), h, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            tangent_project(np.eye(3)[:, :2], np.zeros((3, 3)))


class TestRetract:
    def test_zero_step_returns_point_exactly(self):
        rng = np.random.default_rng(3)
        w = random_orthonormal(5, 2, rng)
        h = tangent_project(w, rng.standard_normal((5, 2)))
        np.testing.assert_array_equal(retract(w, h, 0.0), w)

    @pytest.mark.parametrize("seed", range(10))
    def test_output_is_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        w = random_orthonormal(7, 3, rng)
        h = tangent_project(w, rng.standard_normal((7, 3)))
        t = float(rng.uniform(0.0, 5.0))
        assert is_orthonormal(retract(w, h, t))

    def test_second_order_agreement_with_line(self):
        rng = np.random.default_rng(4)
        w = random_orthonormal(8, 3, rng)
        h = tangent_project(w, rng.standard_normal((8, 3)))
        steps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        gaps = np.array([
            np.linalg.norm(retract(w, h, t) - (w + t * h)) for t in steps
        ])
        slope = np.polyfit(np.log(steps), np.log(gaps), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestCgMinimize:
    def trace_problem(self, seed=3, dim=12, rank=2):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((dim, dim))
        spd = mat @ mat.T + 0.1 * np.eye(dim)
        cost = lambda w: -float(np.trace(w.T @ spd @ w))
        egrad = lambda w: -2.0 * spd @ w
        return spd, cost, egrad, random_orthonormal(dim, rank, rng)

    def test_converges_to_dominant_subspace(self):
        spd, cost, egrad, w0 = self.trace_problem()
        result = cg_minimize(objective(cost, egrad), w0,
                             CgOptions(max_iters=400, grad_tol=1e-9, rel_cost_tol=1e-14))
        _, eigvecs = np.linalg.eigh(spd)
        assert subspace_distance(eigvecs[:, -2:], result.point) < 1e-6

    def test_zero_gradient_start_stops_immediately(self):
        spd, cost, egrad, _ = self.trace_problem()
        _, eigvecs = np.linalg.eigh(spd)
        result = cg_minimize(objective(cost, egrad), eigvecs[:, -2:], CgOptions(grad_tol=1e-6))
        assert result.trace.shape[0] == 1
        assert result.converged
        assert result.stop_reason == "grad_tol"

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_never_increases(self, seed):
        _, cost, egrad, w0 = self.trace_problem(seed=seed)
        result = cg_minimize(objective(cost, egrad), w0, CgOptions(max_iters=60))
        assert np.all(np.diff(result.costs) <= 0.0)

    def test_iterates_stay_orthonormal(self):
        _, cost, egrad, w0 = self.trace_problem(seed=8)
        seen = []
        def recording_cost(w):
            seen.append(w)
            return cost(w)
        cg_minimize(objective(recording_cost, egrad), w0, CgOptions(max_iters=30))
        # the recorded points include line-search candidates; all come from
        # the retraction and must satisfy the frame invariant
        assert all(is_orthonormal(w) for w in seen)

    def test_gradient_is_asked_only_at_accepted_points_and_one_point_is_held(self):
        _, cost, egrad, w0 = self.trace_problem(seed=8)
        held, asked = [], []

        def tracked(w):
            assert all(ref() is None for ref in held)  # every earlier point's work is released

            def gradient():
                asked.append(w)
                return egrad(w)

            held.append(weakref.ref(gradient))
            return cost(w), gradient

        result = cg_minimize(tracked, w0, CgOptions(max_iters=30))
        assert len(held) > len(asked) == result.trace.shape[0]  # some trial points were rejected
        assert [cost(w) for w in asked] == result.costs.tolist()
        np.testing.assert_array_equal(asked[-1], result.point)

    def test_line_search_failure_returns_best_so_far(self):
        # an adversarial "gradient" pointing uphill defeats every backtrack
        rng = np.random.default_rng(9)
        spd = np.diag(np.arange(1.0, 7.0))
        cost = lambda w: float(np.trace(w.T @ spd @ w))
        bad_egrad = lambda w: -2.0 * spd @ w  # negated true gradient
        w0 = random_orthonormal(6, 2, rng)
        result = cg_minimize(objective(cost, bad_egrad), w0, CgOptions(max_iters=10))
        assert result.stop_reason == "line_search_failed"
        assert not result.converged
        assert result.cost == pytest.approx(cost(w0))

    @pytest.mark.parametrize("kind", [DivergenceKind.HELLINGER_SQUARED, DivergenceKind.JEFFREY])
    def test_accepts_the_steps_of_backtracking_from_one_in_fewer_calls(self, kind):
        problems = [dr_problem(kind, seed) for seed in range(4)]
        problems.append(dr_problem(kind, 0, classes=2, sets_per_class=3, samples_per_set=10, dim=5, target_dim=2))
        opts = CgOptions(max_iters=50, rel_cost_tol=1e-4)
        calls, reference_calls, grown = [], [], 0
        for make_objective, w0 in problems:
            result = cg_minimize(counted(make_objective(), calls), w0, opts)
            trace, point = backtracking_from_one(counted(make_objective(), reference_calls), w0, opts)
            np.testing.assert_array_equal(result.trace, trace)
            np.testing.assert_array_equal(result.point, point)
            steps = result.trace[1:, 3]
            grown += int(np.sum(steps[1:] > 2 * steps[:-1]))  # accepted above the search's first trial
        # A run whose steps stay near 1 can take one call more (the small shape's Hellinger run: 40
        # against 39); over the problems the warm start makes fewer.
        assert len(calls) < len(reference_calls)
        assert grown > 0

    def test_growth_re_evaluates_the_accepted_point_and_holds_one_point(self):
        # Armijo outcomes of the new points in call order: accept 1/8 after three failures, grow
        # from 1/4 back to 1.0, fail from 1.0 down to 1/8, then pass 1/4, fail 1/2 and accept 1/4.
        script = [False, False, False, True, True, True, True, False, False, False, True, True, False]
        dim, rank = 6, 2
        egrad = 1e-3 * np.random.default_rng(11).standard_normal((dim, rank))
        w0 = random_orthonormal(dim, rank, np.random.default_rng(12))
        seen, evaluated, held, asked, accepted_cost = {}, [], [], [], [None]

        def scripted(w):
            assert all(ref() is None for ref in held)
            evaluated.append(w)
            key = w.tobytes()
            if not seen:
                seen[key] = 100.0
            elif key not in seen:  # a new trial point passes (one below the accepted cost) or fails
                seen[key] = accepted_cost[0] + (-1.0 if script.pop(0) else 1.0)
            cost = seen[key]

            def gradient():
                asked.append(w)
                accepted_cost[0] = cost
                return egrad

            held.append(weakref.ref(gradient))
            return cost, gradient

        result = cg_minimize(scripted, w0, CgOptions(max_iters=4))
        assert script == []
        assert result.trace[:, 3].tolist() == [0.0, 0.125, 1.0, 0.125, 0.25]
        assert result.costs.tolist() == [100.0, 99.0, 98.0, 97.0, 96.0]
        assert len(evaluated) == 15 and len(seen) == 14  # one point was evaluated twice: the last one,
        np.testing.assert_array_equal(evaluated[-1], evaluated[-3])  # after a failed larger step,
        np.testing.assert_array_equal(asked[-1], evaluated[-1])  # and it was accepted
        np.testing.assert_array_equal(result.point, evaluated[-1])
        assert len(asked) == 5
        assert [seen[w.tobytes()] for w in asked] == result.costs.tolist()

    def test_objective_linalg_error_is_not_swallowed(self):
        _, cost, egrad, w0 = self.trace_problem(seed=4)
        calls = []
        def failing(w):
            calls.append(w)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("from the objective")
            return cost(w), lambda: egrad(w)
        with pytest.raises(np.linalg.LinAlgError, match="from the objective"):
            cg_minimize(failing, w0)

    def test_rejects_non_orthonormal_start(self):
        with pytest.raises(ValueError, match="orthonormal"):
            cg_minimize(objective(lambda w: 0.0, lambda w: np.zeros((4, 2))), np.ones((4, 2)))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            CgOptions(max_iters=0)

    @pytest.mark.parametrize("name", ["grad_tol", "rel_cost_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-6, float("nan"), float("inf"), 1e400, True])
    def test_tolerances_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a positive number, got "):
            CgOptions(**{name: value})


class TestTraceSerialization:
    def test_csv_columns(self, tmp_path):
        _, cost, egrad, w0 = TestCgMinimize().trace_problem(seed=10)
        result = cg_minimize(objective(cost, egrad), w0, CgOptions(max_iters=5))
        save_trace(result.trace, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,cost,grad_norm,step"
        assert len(lines) == result.trace.shape[0] + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(result.costs[0])

    def test_makes_a_missing_directory(self, tmp_path):
        save_trace(np.array([[0, 2.5, 0.5, 0.0], [1, 1.25, 0.125, 0.5]]), tmp_path / "a" / "trace.csv")
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (
            b"iteration,cost,grad_norm,step\n0,2.5,0.5,0\n1,1.25,0.125,0.5\n")
