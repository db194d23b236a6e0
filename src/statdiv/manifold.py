"""Subspace-manifold primitives and a projection-based conjugate gradient.

Points are orthonormal D x d matrices identified with their column span.
The optimizer consumes one callback for the cost and the plain matrix of
partial derivatives; it projects to the tangent space, takes Polak-Ribiere
(non-negative) conjugate directions with re-projection in place of
parallel transport, and retracts with a sign-fixed thin QR.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "CgOptions",
    "CgResult",
    "random_orthonormal",
    "is_orthonormal",
    "tangent_project",
    "retract",
    "cg_minimize",
    "save_trace",
]

ORTHONORMAL_TOL = 1e-10

# Backtracking line search: Armijo sufficient-decrease constant, step
# shrink factor, first trial step of every search, and trials per search.
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
INITIAL_STEP = 1.0
MAX_BACKTRACKS = 40


def random_orthonormal(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random D x d orthonormal matrix with a deterministic sign fix."""
    if rank > dim:
        raise ValueError(f"rank {rank} exceeds ambient dimension {dim}")
    gauss = rng.standard_normal((dim, rank))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def is_orthonormal(w: np.ndarray, tol: float = ORTHONORMAL_TOL) -> bool:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] < w.shape[1]:
        return False
    gram = w.T @ w
    return bool(np.max(np.abs(gram - np.eye(w.shape[1]))) <= tol)


def _check_point(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if not is_orthonormal(w):
        raise ValueError("expected a column-orthonormal D x d matrix")
    return w


def tangent_project(w: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Horizontal component (I - W W') G of an ambient direction."""
    w = np.asarray(w, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != w.shape:
        raise ValueError(f"shape mismatch: point {w.shape} vs direction {grad.shape}")
    return grad - w @ (w.T @ grad)


def retract(w: np.ndarray, direction: np.ndarray, step: float) -> np.ndarray:
    """First-order retraction: orthonormal factor of W + step * H.

    The R factor's diagonal signs are fixed so the output is a
    deterministic function of the inputs. Raises if W + step*H loses rank
    (the caller should shrink the step).
    """
    w = np.asarray(w, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != w.shape:
        raise ValueError(f"shape mismatch: point {w.shape} vs direction {direction.shape}")
    if step == 0.0 or not np.any(direction):
        return w.copy()
    moved = w + step * direction
    q, r = np.linalg.qr(moved)
    diag = np.diag(r)
    if np.min(np.abs(diag)) < 1e-14 * max(1.0, float(np.max(np.abs(moved)))):
        raise np.linalg.LinAlgError("retraction input is rank deficient; shrink the step")
    signs = np.sign(diag)
    return q * signs


@dataclass(frozen=True)
class CgOptions:
    """Stopping controls for the conjugate gradient loop."""

    max_iters: int = 50
    grad_tol: float = 1e-5
    rel_cost_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("grad_tol", "rel_cost_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CgResult:
    """Optimized point plus the per-iterate record (iteration, cost,
    gradient norm, accepted step)."""

    point: np.ndarray
    cost: float
    trace: np.ndarray  # columns: iteration, cost, grad_norm, step
    converged: bool
    stop_reason: str

    @property
    def costs(self) -> np.ndarray:
        return self.trace[:, 1]

    @property
    def iterations(self) -> int:
        return int(self.trace[-1, 0])


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def cg_minimize(objective: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
                w0: np.ndarray,
                opts: CgOptions = CgOptions()) -> CgResult:
    """Minimize a cost over orthonormal frames: `objective(w)` returns the cost at w and a
    function of no arguments for the ambient gradient at w, called only at w0 and at accepted
    points and released before the next point is evaluated, so one point's work is held at a time.

    Every accepted iterate satisfies the orthonormality invariant, the
    recorded cost sequence is non-increasing (Armijo acceptance), and the
    whole run is a pure function of (objective, w0, opts).
    """
    w = _check_point(w0)
    f, gradient = objective(w)
    g = tangent_project(w, gradient())
    g_norm = float(np.linalg.norm(g))
    rows = [(0, f, g_norm, 0.0)]

    if g_norm <= opts.grad_tol:
        return CgResult(point=w, cost=f, trace=np.array(rows), converged=True,
                        stop_reason="grad_tol")

    direction = -g
    converged = False
    stop_reason = "max_iters"
    for iteration in range(1, opts.max_iters + 1):
        slope = _inner(g, direction)
        if slope >= 0:
            direction = -g
            slope = -_inner(g, g)

        step = INITIAL_STEP
        for _ in range(MAX_BACKTRACKS):
            try:
                w_new = retract(w, direction, step)
            except np.linalg.LinAlgError:
                step *= BACKTRACK_FACTOR
                continue
            gradient = None  # drop the last point's closure, and the work it holds, before forming this one's
            f_new, gradient = objective(w_new)
            if f_new <= f + ARMIJO_C1 * step * slope:
                break
            step *= BACKTRACK_FACTOR
        else:  # no trial point was accepted
            stop_reason = "line_search_failed"
            break

        g_new = tangent_project(w_new, gradient())
        g_norm = float(np.linalg.norm(g_new))
        rows.append((iteration, f_new, g_norm, step))

        rel_change = abs(f - f_new) / max(abs(f), 1e-12)

        # Polak-Ribiere with the previous gradient re-projected to the new
        # tangent space; clamping at 0 restarts along steepest descent.
        g_old_moved = tangent_project(w_new, g)
        denom = _inner(g, g)
        beta = max(0.0, _inner(g_new, g_new - g_old_moved) / denom) if denom > 0 else 0.0
        direction = -g_new + beta * tangent_project(w_new, direction)

        w, f, g = w_new, f_new, g_new

        if g_norm <= opts.grad_tol:
            converged = True
            stop_reason = "grad_tol"
            break
        if rel_change <= opts.rel_cost_tol:
            converged = True
            stop_reason = "rel_cost_tol"
            break

    return CgResult(point=w, cost=f, trace=np.array(rows), converged=converged,
                    stop_reason=stop_reason)


def save_trace(result_or_trace, csv_path) -> None:
    """Write the iterate record as CSV with columns
    iteration,cost,grad_norm,step."""
    if isinstance(result_or_trace, CgResult):
        trace = result_or_trace.trace
    else:
        trace = result_or_trace
    csv_path = Path(csv_path)
    with csv_path.open("w", encoding="utf-8") as fh:
        fh.write("iteration,cost,grad_norm,step\n")
        for row in np.asarray(trace):
            fh.write(f"{int(row[0])},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n")
