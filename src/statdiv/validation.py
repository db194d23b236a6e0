"""The paper's checkable claims, one function each, and the suites behind `statdiv validate`.

Each check draws its own random problems from a seed and returns its worst
value; the acceptance criteria and the suites call the same function, each
at its own seeds and trials and with its own tolerance. A suite prints one
PASS/FAIL line; `statdiv validate` exits 0 only when every suite passes.
"""

from __future__ import annotations

import numpy as np

from . import oracles
from .dimred import _objective, affinity_from_divergences, project_sets
from .divergence import DivergenceKind, hellinger_empirical, jeffrey_empirical, resolve_bandwidths
from .kernels import SIGMA_GRID, KernelFamily, KernelSpec, kernel_from_divergence, min_eigenvalue
from .manifold import random_orthonormal, tangent_project

__all__ = ["stein_identity_gap", "hellinger_quadratic_form_max", "exact_gram_floor", "gradient_error",
           "estimator_errors", "tangent_residual", "run_validation", "VALIDATION_SUITES"]


def stein_identity_gap(seed: int, trials: int) -> float:
    """Largest |-ln B(N(0,A), N(0,B)) - S(A,B)/2| over `trials` random SPD pairs of
    dimension 1 to 6: the Bhattacharyya-Stein identity, exact up to rounding."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 7))
        a, b = (m @ m.T + 0.05 * dim * np.eye(dim) for m in rng.standard_normal((2, dim, dim)))
        zero = np.zeros(dim)
        lhs = -np.log(oracles.bhattacharyya_coefficient_gaussian(
            oracles.GaussianParams(zero, a), oracles.GaussianParams(zero, b)))
        worst = max(worst, abs(lhs - 0.5 * oracles.stein_divergence(a, b)))
    return worst


def _histograms(rng: np.random.Generator, count: int, bins: int, low: float) -> np.ndarray:
    hists = rng.uniform(low, 1.0, size=(count, bins))
    return hists / hists.sum(axis=1, keepdims=True)


def hellinger_quadratic_form_max(seed: int, trials: int, low: float) -> float:
    """Largest zero-sum form c'Hc over `trials` exact squared-Hellinger matrices H of 2 to 8
    histograms (bins from U(low, 1)): <= 0, as squared Hellinger is conditionally negative definite."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        count = int(rng.integers(2, 9))
        hists = _histograms(rng, count, int(rng.integers(2, 17)), low)
        coeff = rng.standard_normal(count)
        coeff -= coeff.mean()
        quad = sum(
            coeff[i] * coeff[j] * oracles.hellinger_discrete_exact(hists[i], hists[j])
            for i in range(count) for j in range(count)
        )
        worst = max(worst, quad)
    return worst


def exact_gram_floor(seed: int, trials: int, low: float) -> float:
    """Smallest eigenvalue of the `hg` and `hl` grams at every sigma of SIGMA_GRID over `trials` exact
    distance matrices of 12 histograms (bins from U(low, 1)): >= 0, as both kernels are positive definite."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        hists = _histograms(rng, 12, int(rng.integers(2, 17)), low)
        deltas = np.zeros((12, 12))
        for i in range(12):
            for j in range(i + 1, 12):
                deltas[i, j] = deltas[j, i] = oracles.hellinger_discrete_exact(hists[i], hists[j])
        for sigma in SIGMA_GRID:
            for family in (KernelFamily.HELLINGER_GAUSSIAN, KernelFamily.HELLINGER_LAPLACE):
                values = np.asarray(kernel_from_divergence(
                    deltas, KernelSpec(family=family, sigma=sigma)))
                np.fill_diagonal(values, 1.0)
                worst = min(worst, min_eigenvalue(values))
    return worst


def gradient_error(seed: int, trials: int) -> float:
    """Largest relative error of the DR objective's analytic gradient against central differences, for
    both divergences, over `trials` problems of four 6 x 4 sets at rank 2, the t-th seeded seed + t."""
    dim, rank = 4, 2
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        mats = [rng.normal(rng.uniform(-1, 1), 1.0, size=(6, dim)) for _ in range(4)]
        div = rng.uniform(0.1, 1.5, size=(4, 4))
        div = 0.5 * (div + div.T)
        np.fill_diagonal(div, 0.0)
        affinity = affinity_from_divergences(div, np.array([0, 0, 1, 1]), nu_w=1, nu_b=1)
        frame = random_orthonormal(dim, rank, rng)
        bandwidths = resolve_bandwidths(project_sets(mats, frame), "isotropic")
        for kind in (DivergenceKind.HELLINGER_SQUARED, DivergenceKind.JEFFREY):
            objective = _objective(mats, affinity, kind, bandwidths)  # one tile plan for every frame
            analytic = objective(frame)[1]()
            numeric = np.zeros_like(frame)
            step = 1e-6
            for a in range(dim):
                for b in range(rank):
                    plus = frame.copy(); plus[a, b] += step
                    minus = frame.copy(); minus[a, b] -= step
                    numeric[a, b] = (objective(plus)[0] - objective(minus)[0]) / (2 * step)
            err = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
            worst = max(worst, err)
    return worst


def estimator_errors(seeds) -> tuple[float, float]:
    """Relative errors of the median Hellinger and Jeffrey estimates against their closed forms,
    for N(0,1) vs N(1,1) at n = 2000, one pair of sets per seed."""
    p_params, q_params = oracles.GaussianParams([0.0], [[1.0]]), oracles.GaussianParams([1.0], [[1.0]])
    true_h = oracles.hellinger_gaussian_closed_form(p_params, q_params)
    true_j = oracles.jeffrey_gaussian_closed_form(p_params, q_params)
    est_h, est_j = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        p = rng.normal(0.0, 1.0, size=(2000, 1))
        q = rng.normal(1.0, 1.0, size=(2000, 1))
        est_h.append(hellinger_empirical(p, q))
        est_j.append(jeffrey_empirical(p, q))
    return (abs(float(np.median(est_h)) - true_h) / true_h,
            abs(float(np.median(est_j)) - true_j) / true_j)


def tangent_residual(seed: int, trials: int) -> float:
    """Largest entry of W'P and of P's change when projected again, over `trials` random frames W and
    projected directions P: tangent projection is horizontal and idempotent."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(3, 10))
        rank = int(rng.integers(1, dim))
        frame = random_orthonormal(dim, rank, rng)
        horizontal = tangent_project(frame, rng.standard_normal((dim, rank)))
        worst = max(worst, float(np.max(np.abs(frame.T @ horizontal))))
        worst = max(worst, float(np.max(np.abs(tangent_project(frame, horizontal) - horizontal))))
    return worst


# (name, check, pass predicate on its value, detail format of its value)
VALIDATION_SUITES = (
    ("stein-identity", lambda: stein_identity_gap(11, 100),
     lambda gap: gap <= 1e-10, "max |(-ln B) - S/2| = {:.3e} (tol 1e-10)"),
    ("hellinger-negative-definite", lambda: hellinger_quadratic_form_max(12, 200, 0.05),
     lambda worst: worst <= 1e-10, "max zero-sum quadratic form = {:.3e} (tol 1e-10)"),
    ("kernel-psd-exact", lambda: exact_gram_floor(13, 100, 0.05),
     lambda floor: floor >= -1e-10, "min eigenvalue over exact grams = {:.3e} (tol -1e-10)"),
    ("tangent-projection", lambda: tangent_residual(15, 50),
     lambda worst: worst <= 1e-10, "max vertical residual = {:.3e} (tol 1e-10)"),
    ("objective-gradients", lambda: gradient_error(140, 10),
     lambda err: err <= 1e-3, "max relative gradient error = {:.3e} (tol 1e-3)"),
    ("estimator-agreement", lambda: estimator_errors(range(5)),
     lambda errs: errs[0] <= 0.05 and errs[1] <= 0.10,
     "median rel err: hellinger {0[0]:.3f} (tol 0.05), jeffrey {0[1]:.3f} (tol 0.10)"),
)


def run_validation() -> bool:
    """Run every suite, print one line each, return overall pass."""
    all_ok = True
    for name, check, passes, detail in VALIDATION_SUITES:
        value = check()
        ok = passes(value)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail.format(value)}")
        all_ok = all_ok and ok
    return all_ok
