"""The benchmark's workloads: input generation, one op, and its output check.

Every input is generated here from the workload seed; statdiv sees only a
manifest on disk (`match`, `dr`) or sample arrays (`estimator`). Each op
runs through the public API (`statdiv.cli.main` in-process, or the
divergence estimators) and raises `OpFailed` when its output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

class OpFailed(Exception):
    """An op returned non-zero or produced output that failed its check."""


def _seed_list(seed: int, tag: int, count: int) -> list[int]:
    """The op seeds of one pass, derived from the workload seed."""
    rng = np.random.default_rng(np.random.SeedSequence([tag, seed]))
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _write_gaussian_sets(rng, out_dir: Path, classes: int, sets_per_class: int,
                         n: int, dim: int, separation: float, jitter: float) -> Path:
    """Gaussian-cloud sets as CSVs plus a manifest: class means on orthogonal
    directions at distance `separation`, a jitter-scaled offset per set."""
    out_dir.mkdir(parents=True, exist_ok=True)
    frame, _ = np.linalg.qr(rng.standard_normal((dim, classes)))
    entries = []
    for c in range(classes):
        for s in range(sets_per_class):
            center = separation * frame[:, c] + jitter * rng.standard_normal(dim)
            features = center + rng.standard_normal((n, dim))
            path = f"set_c{c}_s{s}.csv"
            np.savetxt(out_dir / path, features, delimiter=",", fmt="%.17g")
            entries.append({"id": f"c{c}s{s}", "label": f"class{c}", "path": path})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({"sets": entries}, indent=2) + "\n")
    return manifest


class EvalWorkload:
    """`statdiv eval` on a generated manifest; one op is one eval with one
    split seed. Checks: exit code 0, accuracies in [0, 1], and report.json
    bytes equal to those of the first op with the same seed."""

    name = ""
    tag = 0
    seeds_per_pass = 8  # a run repeats whole passes over this many op seeds
    shape: dict = {}
    config: dict = {}

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.seeds = _seed_list(seed, self.tag, self.seeds_per_pass)
        self.reports: dict[int, bytes] = {}

    def prepare(self) -> None:
        """One dataset and config per op seed, so a run averages over
        independent draws of the data as well as of the split."""
        self.configs = {}
        for op_seed in self.seeds:
            inputs = self.work_dir / f"inputs_{op_seed}"
            manifest = _write_gaussian_sets(np.random.default_rng(op_seed), inputs, **self.shape)
            config = dict(self.config, data={"manifest": str(manifest)}, repetitions=1, seed=0)
            self.configs[op_seed] = inputs / "config.json"
            self.configs[op_seed].write_text(json.dumps(config, indent=2) + "\n")

    def op(self, op_seed: int) -> None:
        import statdiv.cli

        out = self.work_dir / "out"
        argv = ["eval", "--config", str(self.configs[op_seed]), "--seed", str(op_seed),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = statdiv.cli.main(argv)
        if code != 0:
            raise OpFailed(f"statdiv eval exited with {code}")
        raw = (out / "report.json").read_bytes()
        first = self.reports.setdefault(op_seed, raw)
        if raw != first:
            raise OpFailed(f"report.json for seed {op_seed} differs from its first run")
        report = json.loads(raw)
        accs = [report["mean_accuracy"]] + [r["accuracy"] for r in report["repetitions"]]
        if not all(0.0 <= a <= 1.0 for a in accs):
            raise OpFailed(f"accuracy outside [0, 1]: {accs}")

    def expected_counts(self) -> dict[str, int]:
        """Per-op counts implied by the workload shape, for the trace self-check."""
        return {}

    def quality(self) -> dict[str, float]:
        """Mean probe accuracy over this run's seeds (every seed runs equally often)."""
        accs = [json.loads(raw)["mean_accuracy"] for raw in self.reports.values()]
        return {"classify.accuracy": sum(accs) / len(accs) if accs else 0.0}


class Match(EvalWorkload):
    """kFDA with a Hellinger-Gaussian kernel and a sigma grid search."""

    name = "match"
    tag = 1
    shape = dict(classes=4, sets_per_class=8, n=100, dim=10, separation=3.0, jitter=1.0)
    config = {"pipeline": "kfda", "kernel": {"family": "hg", "sigma": "grid"},
              "split": {"per_class_gallery": 4}}

    def expected_counts(self) -> dict[str, int]:
        """Per-op log-density blocks and pairs implied by the shapes: the
        gallery matrix twice (sigma search, Gram) and the gallery x probe matrix."""
        c, g = self.shape["classes"], self.config["split"]["per_class_gallery"]
        gallery, probe = c * g, c * (self.shape["sets_per_class"] - g)
        square = gallery * (gallery - 1) // 2
        cross = gallery * probe
        return {
            "density.log_density_batch.calls": 2 * (gallery + 2 * square) + gallery + probe + 2 * cross,
            "divergence.pairs": 2 * square + cross,
        }


class Dr(EvalWorkload):
    """Nearest-neighbour matching after a learned Grassmann projection."""

    name = "dr"
    tag = 2
    seeds_per_pass = 20  # op cost varies with the data and split, so average more draws
    shape = dict(classes=3, sets_per_class=6, n=24, dim=20, separation=4.0, jitter=1.0)
    config = {"pipeline": "nn_dr", "divergence": "hellinger",
              "dr": {"target_dim": 3, "rel_cost_tol": 1e-4, "max_iters": 10},
              "split": {"per_class_gallery": 4}}


class Estimator:
    """Criterion 1's estimates: p ~ N(0, 1), q ~ N(1, 1), n = 2000, D = 1.
    One op is one seed: hellinger_empirical, then jeffrey_empirical. Checks:
    finite, Hellinger in [0, 2], Jeffrey >= 0, and equal to the first op
    with the same seed."""

    name = "estimator"
    tag = 3
    seeds_per_pass = 8
    n = 2000

    def __init__(self, seed: int, work_dir: Path):
        self.seeds = _seed_list(seed, self.tag, self.seeds_per_pass)
        self.estimates: dict[int, tuple[float, float]] = {}

    def prepare(self) -> None:
        self.samples = {}
        for s in self.seeds:
            rng = np.random.default_rng(s)
            self.samples[s] = (rng.normal(0.0, 1.0, size=(self.n, 1)),
                               rng.normal(1.0, 1.0, size=(self.n, 1)))

    def op(self, op_seed: int) -> None:
        import statdiv.divergence

        p, q = self.samples[op_seed]
        h = statdiv.divergence.hellinger_empirical(p, q)
        j = statdiv.divergence.jeffrey_empirical(p, q)
        if not (math.isfinite(h) and math.isfinite(j) and 0.0 <= h <= 2.0 and j >= 0.0):
            raise OpFailed(f"estimates out of range: hellinger {h}, jeffrey {j}")
        if self.estimates.setdefault(op_seed, (h, j)) != (h, j):
            raise OpFailed(f"estimates for seed {op_seed} differ from its first run")

    def quality(self) -> dict[str, float]:
        """|median estimate - closed form| / closed form over this run's seeds."""
        from statdiv.oracles import GaussianParams, hellinger_gaussian_closed_form, jeffrey_gaussian_closed_form

        p, q = GaussianParams([0.0], [[1.0]]), GaussianParams([1.0], [[1.0]])
        out = {}
        for i, (key, truth) in enumerate((("hellinger", hellinger_gaussian_closed_form(p, q)),
                                          ("jeffrey", jeffrey_gaussian_closed_form(p, q)))):
            median = float(np.median([e[i] for e in self.estimates.values()]))
            out[f"divergence.rel_err_{key}"] = abs(median - truth) / truth
        return out

    def expected_counts(self) -> dict[str, int]:
        return {"density.log_density_batch.calls": 8, "divergence.pairs": 2}


WORKLOADS = {w.name: w for w in (Match, Dr, Estimator)}
