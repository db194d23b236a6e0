"""Self-check suites behind the `validate` CLI command.

Each suite prints one PASS/FAIL line; `statdiv validate` exits 0 only
when every suite passes. The estimator-agreement suite compares the
default sample estimators against closed forms at the target tolerances
(5% for squared Hellinger, 10% for Jeffrey, at n = 2000).
"""

from __future__ import annotations

import numpy as np

from . import oracles
from .dimred import _objective, affinity_from_divergences, project_sets
from .divergence import DivergenceKind, hellinger_empirical, jeffrey_empirical, resolve_bandwidths
from .kernels import SIGMA_GRID, KernelFamily, KernelSpec, kernel_from_divergence, min_eigenvalue
from .manifold import random_orthonormal, tangent_project

__all__ = ["run_validation", "VALIDATION_SUITES"]


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.standard_normal((dim, dim))
    return mat @ mat.T + dim * 0.05 * np.eye(dim)


def _random_histograms(rng: np.random.Generator, count: int, bins: int) -> list[np.ndarray]:
    raw = rng.uniform(0.05, 1.0, size=(count, bins))
    return [row / row.sum() for row in raw]


def check_stein_identity(trials: int = 100) -> tuple[bool, str]:
    """-ln B(N(0,A), N(0,B)) must equal S(A,B)/2 for SPD pairs."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 7))
        a, b = _random_spd(rng, dim), _random_spd(rng, dim)
        zero = np.zeros(dim)
        lhs = -np.log(oracles.bhattacharyya_coefficient_gaussian(
            oracles.GaussianParams(zero, a), oracles.GaussianParams(zero, b)))
        rhs = 0.5 * oracles.stein_divergence(a, b)
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, f"max |(-ln B) - S/2| = {worst:.3e} (tol 1e-10)"


def check_negative_definiteness(trials: int = 200) -> tuple[bool, str]:
    """Zero-sum quadratic forms of exact discrete Hellinger matrices are <= 0."""
    rng = np.random.default_rng(12)
    worst = -np.inf
    for _ in range(trials):
        count = int(rng.integers(2, 9))
        bins = int(rng.integers(2, 17))
        hists = _random_histograms(rng, count, bins)
        coeff = rng.standard_normal(count)
        coeff -= coeff.mean()
        quad = sum(
            coeff[i] * coeff[j] * oracles.hellinger_discrete_exact(hists[i], hists[j])
            for i in range(count) for j in range(count)
        )
        worst = max(worst, quad)
    return worst <= 1e-10, f"max zero-sum quadratic form = {worst:.3e} (tol 1e-10)"


def check_kernel_psd_exact(trials: int = 100) -> tuple[bool, str]:
    """Gaussian/Laplace maps of exact discrete Hellinger matrices stay PSD."""
    rng = np.random.default_rng(13)
    worst = np.inf
    for _ in range(trials):
        hists = _random_histograms(rng, 12, int(rng.integers(2, 17)))
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
    return worst >= -1e-10, f"min eigenvalue over exact grams = {worst:.3e} (tol -1e-10)"


def check_gradients(trials: int = 10) -> tuple[bool, str]:
    """Analytic objective gradient vs central finite differences."""
    dim, rank = 4, 2
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(140 + trial)
        mats = [rng.normal(rng.uniform(-1, 1), 1.0, size=(6, dim)) for _ in range(4)]
        labels = np.array([0, 0, 1, 1])
        div = rng.uniform(0.1, 1.5, size=(4, 4))
        div = 0.5 * (div + div.T)
        np.fill_diagonal(div, 0.0)
        affinity = affinity_from_divergences(div, labels, nu_w=1, nu_b=1)
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
    return worst <= 1e-3, f"max relative gradient error = {worst:.3e} (tol 1e-3)"


def check_estimator_agreement(seeds: int = 5) -> tuple[bool, str]:
    """Empirical divergences vs Gaussian closed forms at target tolerances.

    Same setting as acceptance criterion 1 (N(0,1) vs N(1,1), n = 2000):
    median relative error within 5% for Hellinger and 10% for Jeffrey.
    """
    true_h = oracles.hellinger_gaussian_closed_form(
        oracles.GaussianParams([0.0], [[1.0]]), oracles.GaussianParams([1.0], [[1.0]]))
    true_j = oracles.jeffrey_gaussian_closed_form(
        oracles.GaussianParams([0.0], [[1.0]]), oracles.GaussianParams([1.0], [[1.0]]))
    est_h, est_j = [], []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        p = rng.normal(0.0, 1.0, size=(2000, 1))
        q = rng.normal(1.0, 1.0, size=(2000, 1))
        est_h.append(hellinger_empirical(p, q))
        est_j.append(jeffrey_empirical(p, q))
    err_h = abs(np.median(est_h) - true_h) / true_h
    err_j = abs(np.median(est_j) - true_j) / true_j
    ok = err_h <= 0.05 and err_j <= 0.10
    return ok, (
        f"median rel err: hellinger {err_h:.3f} (tol 0.05), "
        f"jeffrey {err_j:.3f} (tol 0.10)"
    )


def check_tangent_projection(trials: int = 50) -> tuple[bool, str]:
    """Projected directions are horizontal and projection is idempotent."""
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(3, 10))
        rank = int(rng.integers(1, dim))
        frame = random_orthonormal(dim, rank, rng)
        ambient = rng.standard_normal((dim, rank))
        horizontal = tangent_project(frame, ambient)
        worst = max(worst, float(np.max(np.abs(frame.T @ horizontal))))
        worst = max(worst, float(np.max(np.abs(tangent_project(frame, horizontal) - horizontal))))
    return worst <= 1e-10, f"max vertical residual = {worst:.3e} (tol 1e-10)"


VALIDATION_SUITES = (
    ("stein-identity", check_stein_identity),
    ("hellinger-negative-definite", check_negative_definiteness),
    ("kernel-psd-exact", check_kernel_psd_exact),
    ("tangent-projection", check_tangent_projection),
    ("objective-gradients", check_gradients),
    ("estimator-agreement", check_estimator_agreement),
)


def run_validation() -> bool:
    """Run every suite, print one line each, return overall pass."""
    all_ok = True
    for name, check in VALIDATION_SUITES:
        ok, detail = check()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
