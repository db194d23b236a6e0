"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line. Criterion 1
asserts the stated 5% Hellinger tolerance; the default Hellinger estimate
meets it because its bandwidth is undersmoothed to the rate n^(-1/(D+3)),
while the Jeffrey estimate keeps Silverman's density-optimal bandwidth.
Criteria 1, 3, 4 (exact grams), 5 and 6 run the checks of `statdiv.validation`
that `statdiv validate` runs too, each at its own seeds and trials.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from statdiv import oracles
from statdiv.dataset import SyntheticSpec, generate_synthetic
from statdiv.divergence import (
    DivergenceKind,
    divergence_matrix,
    hellinger_empirical,
    jeffrey_empirical,
    resolve_bandwidths,
)
from statdiv.dimred import DrConfig, affinity_from_divergences, dr_cost, learn_projection, project_sets
from statdiv.experiment import ExperimentConfig, run_experiment
from statdiv.kernels import SIGMA_GRID, KernelFamily, KernelSpec, kernel_from_divergence, min_eigenvalue
from statdiv.manifold import CgOptions, random_orthonormal
from statdiv.oracles import GaussianParams
from statdiv.validation import (
    estimator_errors,
    exact_gram_floor,
    gradient_error,
    hellinger_quadratic_form_max,
    stein_identity_gap,
)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")


def test_criterion_01_estimator_oracle_agreement():
    true_h = oracles.hellinger_gaussian_closed_form(
        GaussianParams([0.0], [[1.0]]), GaussianParams([1.0], [[1.0]]))
    true_j = oracles.jeffrey_gaussian_closed_form(
        GaussianParams([0.0], [[1.0]]), GaussianParams([1.0], [[1.0]]))
    assert true_h == pytest.approx(2.0 - 2.0 * np.exp(-0.125), rel=1e-12)
    assert true_j == pytest.approx(1.0, rel=1e-12)

    start = time.perf_counter()
    err_h, err_j = estimator_errors(range(20))
    elapsed = time.perf_counter() - start

    ok = err_h <= 0.05 and err_j <= 0.10 and elapsed < 30.0
    report_line(1, ok,
                f"median estimate rel err: hellinger {err_h:.4f} (tol 0.05), "
                f"jeffrey {err_j:.4f} (tol 0.10), runtime {elapsed:.1f}s (< 30s); "
                f"hellinger at Silverman bandwidths undersmoothed to n^(-1/(D+3)), "
                f"jeffrey at Silverman bandwidths")
    assert err_j <= 0.10
    assert elapsed < 30.0
    assert err_h <= 0.05


def test_criterion_02_symmetry_and_identity():
    rng = np.random.default_rng(2)
    worst_gap = 0.0
    worst_self = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(10, 25))
        p = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 1.5), size=(n, dim))
        q = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 1.5), size=(n, dim))
        for estimator in (hellinger_empirical, jeffrey_empirical):
            worst_gap = max(worst_gap, abs(estimator(p, q) - estimator(q, p)))
            worst_self = max(worst_self, abs(estimator(p, p.copy())))
    ok = worst_gap <= 1e-12 and worst_self == 0.0
    report_line(2, ok, f"max |d(P,Q)-d(Q,P)| = {worst_gap:.2e} (tol 1e-12), "
                       f"max d(P,P) = {worst_self:.2e} (exact 0)")
    assert worst_gap <= 1e-12
    assert worst_self == 0.0


def test_criterion_03_hellinger_negative_definiteness():
    worst = hellinger_quadratic_form_max(3, 200, 0.01)
    ok = worst <= 1e-10
    report_line(3, ok, f"max zero-sum quadratic form = {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def _empirical_gram_floor(rng, trials):
    # pairs of sets per anchor keep genuine estimator noise in the
    # within-pair entries; anchors far apart keep the true gram well
    # conditioned, which is what lets the empirical one stay PSD
    worst = np.inf
    for _ in range(trials):
        sets = []
        anchors = rng.permutation(6) * 30.0 + rng.uniform(0.0, 3.0, size=6)
        for anchor in anchors:
            sd = rng.uniform(0.8, 1.2)
            for _ in range(2):
                n = int(rng.integers(40, 81))
                sets.append(rng.normal(anchor, sd, size=(n, 1)))
        div = divergence_matrix(sets, DivergenceKind.HELLINGER_SQUARED)
        for sigma in SIGMA_GRID:
            for family in (KernelFamily.HELLINGER_GAUSSIAN, KernelFamily.HELLINGER_LAPLACE):
                values = np.asarray(kernel_from_divergence(
                    div.values, KernelSpec(family=family, sigma=sigma)))
                np.fill_diagonal(values, 1.0)
                worst = min(worst, min_eigenvalue(values))
    return worst


def test_criterion_04_kernel_positive_definiteness():
    exact_floor = exact_gram_floor(4, 500, 0.02)
    empirical_floor = _empirical_gram_floor(np.random.default_rng(44), 500)
    ok = exact_floor >= -1e-10 and empirical_floor >= -1e-6
    report_line(4, ok, f"min eigenvalue: exact grams {exact_floor:.2e} (tol -1e-10), "
                       f"empirical grams {empirical_floor:.2e} (tol -1e-6)")
    assert exact_floor >= -1e-10
    assert empirical_floor >= -1e-6


def test_criterion_05_bhattacharyya_stein_identity():
    worst = stein_identity_gap(5, 100)
    ok = worst <= 1e-10
    report_line(5, ok, f"max |(-ln B) - S/2| = {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_06_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = gradient_error(600, 20)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    report_line(6, ok, f"max relative gradient error = {worst:.2e} (tol 1e-3), "
                       f"runtime {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_07_cost_invariant_to_basis_choice():
    rng = np.random.default_rng(7)
    mats = [rng.normal(rng.uniform(-1, 1), 1.0, size=(10, 6)) for _ in range(6)]
    labels = np.array([0, 0, 1, 1, 2, 2])
    div = divergence_matrix(mats, DivergenceKind.HELLINGER_SQUARED)
    affinity = affinity_from_divergences(div.values, labels, nu_w=1, nu_b=1)
    frame = random_orthonormal(6, 2, rng)
    bandwidths = resolve_bandwidths(project_sets(mats, frame), "isotropic")
    worst = 0.0
    for kind in (DivergenceKind.HELLINGER_SQUARED, DivergenceKind.JEFFREY):
        base = dr_cost(frame, mats, affinity, kind, bandwidths)
        for _ in range(20):
            rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            worst = max(worst, abs(dr_cost(frame @ rot, mats, affinity, kind, bandwidths) - base))
    ok = worst <= 1e-8
    report_line(7, ok, f"max |cost(W) - cost(WR)| = {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


@pytest.fixture(scope="module")
def dr_benchmark_runs():
    runs = []
    for seed in range(10):
        spec = SyntheticSpec(classes=3, sets_per_class=4, samples_per_set=24, dim=20,
                             class_separation=4.0, within_class_jitter=1.0, seed=seed)
        ds = generate_synthetic(spec)
        config = DrConfig(target_dim=3, kind=DivergenceKind.HELLINGER_SQUARED,
                          cg=CgOptions(max_iters=50, rel_cost_tol=1e-4), seed=seed)
        result = learn_projection(ds.sets, ds.labels, config)
        runs.append((ds, config, result))
    return runs


def _compactness_ratio(sets, labels, kind):
    values = divergence_matrix(sets, kind).values
    labels = np.asarray(labels)
    same = (labels[:, None] == labels[None, :]) & ~np.eye(len(labels), dtype=bool)
    return values[same].mean() / values[labels[:, None] != labels[None, :]].mean()


def test_criterion_08_optimizer_settles_quickly(dr_benchmark_runs):
    good = 0
    details = []
    for ds, config, result in dr_benchmark_runs:
        costs = result.cg.costs
        non_increasing = bool(np.all(np.diff(costs) <= 0.0))
        if len(costs) >= 2:
            rel = abs(costs[-1] - costs[-2]) / max(abs(costs[-2]), 1e-12)
        else:
            rel = 0.0
        converged = non_increasing and rel < 1e-4 and result.cg.iterations <= 50
        good += converged
        details.append(result.cg.iterations)
    ok = good >= 9
    report_line(8, ok, f"{good}/10 seeds settled (non-increasing, rel change < 1e-4, "
                       f"<= 50 iterations; iteration counts {details})")
    assert good >= 9


def test_criterion_09_classes_become_more_compact(dr_benchmark_runs):
    improved = 0
    ratios = []
    for ds, config, result in dr_benchmark_runs:
        pre = _compactness_ratio([fs.features for fs in ds.sets], ds.labels, config.kind)
        post = _compactness_ratio(project_sets(ds.sets, result.point), ds.labels, config.kind)
        improved += post < pre
        ratios.append(round(float(post / pre), 3))
    ok = improved == 10
    report_line(9, ok, f"{improved}/10 seeds reduced the within/between ratio "
                       f"(post/pre ratios {ratios})")
    assert improved == 10


def test_criterion_10_end_to_end_synthetic_classification():
    start = time.perf_counter()
    base = {
        "data": {"synthetic": {"classes": 3, "sets_per_class": 8, "samples_per_set": 50,
                                "dim": 5, "class_separation": 10.0,
                                "within_class_jitter": 0.3, "seed": 10}},
        "split": {"per_class_gallery": 3},
        "repetitions": 5,
        "seed": 100,
    }
    scores = {}
    for name, kind in (("NN-H", "hellinger"), ("NN-J", "jeffrey")):
        raw = dict(base, pipeline="nn", divergence=kind)
        scores[name] = run_experiment(ExperimentConfig.from_dict(raw)).mean_accuracy
    for name, family in (("kFDA-HG", "hg"), ("kFDA-HL", "hl"), ("kFDA-J", "j")):
        raw = dict(base, pipeline="kfda", kernel={"family": family, "sigma": "grid"})
        scores[name] = run_experiment(ExperimentConfig.from_dict(raw)).mean_accuracy
    elapsed = time.perf_counter() - start

    nn_ok = scores["NN-H"] >= 0.95 and scores["NN-J"] >= 0.95
    kfda_ok = (scores["kFDA-HG"] >= scores["NN-H"] - 0.02
               and scores["kFDA-HL"] >= scores["NN-H"] - 0.02
               and scores["kFDA-J"] >= scores["NN-J"] - 0.02)
    ok = nn_ok and kfda_ok and elapsed < 300.0
    report_line(10, ok, f"mean accuracies {scores}, runtime {elapsed:.1f}s (< 300s)")
    assert nn_ok
    assert kfda_ok
    assert elapsed < 300.0


def test_criterion_11_reports_are_byte_identical(tmp_path):
    config = {
        "data": {"synthetic": {"classes": 3, "sets_per_class": 5, "samples_per_set": 25,
                                "dim": 4, "class_separation": 8.0,
                                "within_class_jitter": 0.3, "seed": 11}},
        "pipeline": "nn",
        "divergence": "hellinger",
        "split": {"per_class_gallery": 3},
        "repetitions": 2,
        "seed": 1234,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for run, threads in (("a", "1"), ("b", "2")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "statdiv.cli", "eval",
             "--config", str(config_path), "--out", str(tmp_path / run)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((
            (tmp_path / run / "report.json").read_bytes(),
            (tmp_path / run / "accuracy.csv").read_bytes(),
        ))
    identical = outputs[0] == outputs[1]
    report_line(11, identical, "report.json and accuracy.csv byte-identical across "
                               "OPENBLAS_NUM_THREADS=1 and 2")
    assert identical
