"""Subspace-manifold primitives and a projection-based conjugate gradient.

Points are orthonormal D x d matrices identified with their column span.
The optimizer consumes one callback for the cost and the plain matrix of
partial derivatives; it projects to the tangent space, takes Polak-Ribiere
(non-negative) conjugate directions with re-projection in place of
parallel transport, and retracts with a sign-fixed thin QR. Its Armijo line
search starts next to the last accepted step, not at step 1. Frames made
elsewhere (kFDA directions, subspace bases, the PCA start) share one
column sign convention, `_fix_column_signs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import _write_csv
from .divergence import _is_positive_number

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

# Line search: Armijo sufficient-decrease constant, step factor, largest
# step, and the bound on the step exponent k (step = INITIAL_STEP * BACKTRACK_FACTOR**k).
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


def is_orthonormal(w: np.ndarray) -> bool:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] < w.shape[1]:
        return False
    gram = w.T @ w
    return bool(np.max(np.abs(gram - np.eye(w.shape[1]))) <= ORTHONORMAL_TOL)


def _fix_column_signs(mat: np.ndarray) -> np.ndarray:
    """Flip columns of `mat` in place so that each column's largest-magnitude
    entry (the first one, on ties) is positive; returns `mat`."""
    for j in range(mat.shape[1]):
        k = int(np.argmax(np.abs(mat[:, j])))
        if mat[k, j] < 0:
            mat[:, j] = -mat[:, j]
    return mat


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
        for name, value in (("grad_tol", self.grad_tol), ("rel_cost_tol", self.rel_cost_tol)):
            if not _is_positive_number(value):
                raise ValueError(f"{name} must be a positive number, got {value!r}")


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
    Each search starts one step above the last accepted one, grows while trials pass (up to
    INITIAL_STEP) and, after a failure, shrinks to the first step that passes; a passed step
    above a failed one is evaluated again, so the accepted point is the last one evaluated.

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
    k = 0  # exponent of the last accepted step
    converged = False
    stop_reason = "max_iters"
    for iteration in range(1, opts.max_iters + 1):
        slope = _inner(g, direction)
        if slope >= 0:
            direction = -g
            slope = -_inner(g, g)

        k, shrinking = max(k - 1, 0), False
        while k < MAX_BACKTRACKS:
            step = INITIAL_STEP * BACKTRACK_FACTOR ** k
            try:
                w_new = retract(w, direction, step)
            except np.linalg.LinAlgError:
                passed = False
            else:
                gradient = None  # drop the last point's closure, and the work it holds, before forming this one's
                f_new, gradient = objective(w_new)
                passed = f_new <= f + ARMIJO_C1 * step * slope
            if passed and (shrinking or k == 0):
                break
            shrinking = not passed
            k += 1 if shrinking else -1
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


def save_trace(trace: np.ndarray, csv_path) -> None:
    """Write the iterate record as CSV with columns
    iteration,cost,grad_norm,step."""
    _write_csv(csv_path, trace, "iteration,cost,grad_norm,step", ["%d", "%.17g", "%.17g", "%.17g"])
