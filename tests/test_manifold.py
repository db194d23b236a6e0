import weakref

import numpy as np
import pytest

from statdiv.manifold import (
    CgOptions,
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

    def test_rejects_non_orthonormal_start(self):
        with pytest.raises(ValueError, match="orthonormal"):
            cg_minimize(objective(lambda w: 0.0, lambda w: np.zeros((4, 2))), np.ones((4, 2)))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            CgOptions(max_iters=0)


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
