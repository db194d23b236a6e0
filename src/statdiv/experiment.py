"""Declarative experiment runner: split, (optionally) learn, classify, score.

A run is a pure function of its config: all randomness flows from one seed
through per-repetition child seeds, pair-level parallelism cannot reorder
any reduction, and reports serialize to byte-identical JSON across runs
and thread counts. Wall-clock timings are kept out of the report proper.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classify import KfdaModel, accuracy, kfda_fit, latent_nn_classify, nn_classify
from .dataset import Dataset, SyntheticSpec, generate_synthetic, load_dataset, split_gallery_probe, standardize_dataset
from .dimred import DrConfig, learn_projection, project_sets
from .divergence import DivergenceKind, DivergenceMatrix, cross_divergence_matrix, divergence_matrix
from .kernels import _DIVERGENCE_FAMILIES, SIGMA_GRID, KernelFamily, KernelSpec, _gram_from_divergences, cross_gram, gram
from .manifold import CgOptions, save_trace

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "emit_report",
]

PIPELINES = ("nn", "kfda", "nn_dr")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _divergence_kind(raw, path: str) -> DivergenceKind:
    """`raw` as a DivergenceKind; a ConfigError naming `path` otherwise."""
    try:
        return DivergenceKind(raw)
    except ValueError:
        raise ConfigError(f"{path}: must be 'hellinger' or 'jeffrey', got {raw!r}") from None


def _kernel_family(raw, path: str) -> KernelFamily:
    """`raw` as a KernelFamily; a ConfigError naming `path` otherwise."""
    try:
        return KernelFamily(raw)
    except ValueError:
        raise ConfigError(
            f"{path}: must be one of {[f.value for f in KernelFamily]}, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment."""

    data_manifest: str | None
    data_synthetic: SyntheticSpec | None
    pipeline: str
    divergence: DivergenceKind | None
    kernel: KernelSpec | None
    sigma_grid_search: bool
    per_class_gallery: int
    repetitions: int
    seed: int
    standardize: bool
    bandwidth_policy: object
    kfda_latent_dim: int | None
    kfda_regularization: float
    dr_target_dim: int | None
    dr_nu_w: int | str
    dr_nu_b: int
    dr_init: str
    dr_cg: CgOptions

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config", "must be a JSON object")
        pipeline = raw.get("pipeline")
        _require(pipeline in PIPELINES, "pipeline", f"must be one of {PIPELINES}, got {pipeline!r}")

        data = raw.get("data")
        _require(isinstance(data, dict), "data", "must be an object with 'manifest' or 'synthetic'")
        manifest = data.get("manifest")
        synthetic_raw = data.get("synthetic")
        _require((manifest is None) != (synthetic_raw is None), "data",
                 "exactly one of 'manifest' or 'synthetic' is required")
        synthetic = None
        if synthetic_raw is not None:
            _require(isinstance(synthetic_raw, dict), "data.synthetic", "must be an object")
            try:
                synthetic = SyntheticSpec(
                    classes=int(synthetic_raw["classes"]),
                    sets_per_class=int(synthetic_raw["sets_per_class"]),
                    samples_per_set=int(synthetic_raw["samples_per_set"]),
                    dim=int(synthetic_raw["dim"]),
                    class_separation=float(synthetic_raw["class_separation"]),
                    within_class_jitter=float(synthetic_raw["within_class_jitter"]),
                    seed=int(synthetic_raw.get("seed", 0)),
                )
            except KeyError as exc:
                raise ConfigError(f"data.synthetic.{exc.args[0]}: missing field") from exc
            except ValueError as exc:
                raise ConfigError(f"data.synthetic: {exc}") from exc

        divergence = None
        if raw.get("divergence") is not None:
            divergence = _divergence_kind(raw["divergence"], "divergence")

        kernel = None
        sigma_grid_search = False
        kernel_raw = raw.get("kernel")
        if kernel_raw is not None:
            _require(pipeline == "kfda", "kernel", "only valid with the kfda pipeline")
            _require(isinstance(kernel_raw, dict), "kernel", "must be an object")
            family = _kernel_family(kernel_raw.get("family"), "kernel.family")
            sigma = kernel_raw.get("sigma", 0.1)
            if sigma == "grid":
                sigma_grid_search = True
                sigma = SIGMA_GRID[0]
            try:
                kernel = KernelSpec(family=family, sigma=float(sigma),
                                    subspace_dim=kernel_raw.get("subspace_dim"))
            except ValueError as exc:
                raise ConfigError(f"kernel: {exc}") from exc

        if pipeline == "kfda":
            _require(kernel is not None, "kernel", "required by the kfda pipeline")
            _require(divergence is None, "divergence",
                     "not allowed with kfda (the kernel family implies it)")
        else:
            _require(divergence is not None, "divergence", f"required by the {pipeline} pipeline")

        dr_raw = raw.get("dr")
        if pipeline == "nn_dr":
            _require(isinstance(dr_raw, dict), "dr", "required by the nn_dr pipeline")
            _require("target_dim" in dr_raw, "dr.target_dim", "missing field")
        else:
            _require(dr_raw is None, "dr", "only valid with the nn_dr pipeline")
            dr_raw = {}

        split_raw = raw.get("split", {})
        _require(isinstance(split_raw, dict), "split", "must be an object")
        per_class_gallery = int(split_raw.get("per_class_gallery", 3))
        _require(per_class_gallery >= 1, "split.per_class_gallery", "must be >= 1")

        repetitions = int(raw.get("repetitions", 1))
        _require(repetitions >= 1, "repetitions", "must be >= 1")

        kfda_raw = raw.get("kfda", {})
        _require(isinstance(kfda_raw, dict), "kfda", "must be an object")

        try:
            dr_cg = CgOptions(
                max_iters=int(dr_raw.get("max_iters", 50)),
                grad_tol=float(dr_raw.get("grad_tol", 1e-5)),
                rel_cost_tol=float(dr_raw.get("rel_cost_tol", 1e-6)),
            )
        except ValueError as exc:
            raise ConfigError(f"dr: {exc}") from exc

        return ExperimentConfig(
            data_manifest=manifest,
            data_synthetic=synthetic,
            pipeline=pipeline,
            divergence=divergence,
            kernel=kernel,
            sigma_grid_search=sigma_grid_search,
            per_class_gallery=per_class_gallery,
            repetitions=repetitions,
            seed=int(raw.get("seed", 0)),
            standardize=bool(raw.get("standardize", False)),
            bandwidth_policy=raw.get("bandwidth_policy", "silverman"),
            kfda_latent_dim=(int(kfda_raw["latent_dim"]) if kfda_raw.get("latent_dim") is not None else None),
            kfda_regularization=float(kfda_raw.get("regularization", 1e-4)),
            dr_target_dim=(int(dr_raw["target_dim"]) if "target_dim" in dr_raw else None),
            dr_nu_w=dr_raw.get("nu_w", "auto"),
            dr_nu_b=int(dr_raw.get("nu_b", 1)),
            dr_init=str(dr_raw.get("init", "pca")),
            dr_cg=dr_cg,
        )

    def to_dict(self) -> dict:
        data = (
            {"manifest": self.data_manifest}
            if self.data_manifest is not None
            else {"synthetic": {
                "classes": self.data_synthetic.classes,
                "sets_per_class": self.data_synthetic.sets_per_class,
                "samples_per_set": self.data_synthetic.samples_per_set,
                "dim": self.data_synthetic.dim,
                "class_separation": self.data_synthetic.class_separation,
                "within_class_jitter": self.data_synthetic.within_class_jitter,
                "seed": self.data_synthetic.seed,
            }}
        )
        out = {
            "data": data,
            "pipeline": self.pipeline,
            "split": {"per_class_gallery": self.per_class_gallery},
            "repetitions": self.repetitions,
            "seed": self.seed,
            "standardize": self.standardize,
            "bandwidth_policy": self.bandwidth_policy
            if isinstance(self.bandwidth_policy, (str, int, float))
            else "fixed",
        }
        if self.divergence is not None:
            out["divergence"] = self.divergence.value
        if self.kernel is not None:
            out["kernel"] = {
                "family": self.kernel.family.value,
                "sigma": "grid" if self.sigma_grid_search else self.kernel.sigma,
                "subspace_dim": self.kernel.subspace_dim,
            }
            out["kfda"] = {
                "latent_dim": self.kfda_latent_dim,
                "regularization": self.kfda_regularization,
            }
        if self.pipeline == "nn_dr":
            out["dr"] = {
                "target_dim": self.dr_target_dim,
                "nu_w": self.dr_nu_w,
                "nu_b": self.dr_nu_b,
                "init": self.dr_init,
                "max_iters": self.dr_cg.max_iters,
                "grad_tol": self.dr_cg.grad_tol,
                "rel_cost_tol": self.dr_cg.rel_cost_tol,
            }
        return out


@dataclass
class Report:
    """Everything a run produced, minus wall-clock noise."""

    config: dict
    repetitions: list[dict]
    mean_accuracy: float
    std_accuracy: float
    hyperparameters: dict
    traces: list[np.ndarray] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "repetitions": self.repetitions,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "hyperparameters": self.hyperparameters,
        }


def _load_data(config: ExperimentConfig) -> Dataset:
    if config.data_manifest is not None:
        dataset = load_dataset(config.data_manifest)
    else:
        dataset = generate_synthetic(config.data_synthetic)
    if config.standardize:
        dataset = standardize_dataset(dataset)
    return dataset


def _gallery_loo_accuracy(model: KfdaModel) -> float:
    """Leave-one-out NN accuracy inside the gallery latent space."""
    latent = model.train_latent
    diff = latent[:, None, :] - latent[None, :, :]
    distances = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(distances, np.inf)
    nearest = np.argmin(distances, axis=0)
    return accuracy(model.labels[nearest], model.labels)


def _choose_sigma(gallery_div: DivergenceMatrix, labels, config: ExperimentConfig) -> float:
    """Grid search over the kernel scale, scored by gallery-only LOO-NN on
    Grams of the given gallery divergence matrix; ties prefer the smallest
    scale."""
    best_sigma, best_score = None, -1.0
    for sigma in SIGMA_GRID:
        values = _gram_from_divergences(gallery_div, replace(config.kernel, sigma=sigma)).values
        model = kfda_fit(values, labels, config.kfda_latent_dim, config.kfda_regularization)
        score = _gallery_loo_accuracy(model)
        if score > best_score:
            best_sigma, best_score = sigma, score
    return best_sigma


def _run_repetition(dataset: Dataset, config: ExperimentConfig,
                    split_seed: int, dr_seed: int) -> tuple[dict, np.ndarray | None]:
    gallery, probe = split_gallery_probe(dataset, config.per_class_gallery, split_seed)
    record: dict = {
        "gallery_ids": [fs.id for fs in gallery.sets],
        "probe_ids": [fs.id for fs in probe.sets],
    }
    trace = None
    truth = probe.labels

    if config.pipeline == "nn":
        cross = cross_divergence_matrix(gallery.sets, probe.sets, config.divergence,
                                        config.bandwidth_policy)
        predicted = nn_classify(cross, gallery.labels)
    elif config.pipeline == "kfda":
        spec = config.kernel
        if spec.family in _DIVERGENCE_FAMILIES:
            # One gallery matrix serves the sigma search and the training Gram.
            gallery_div = divergence_matrix(gallery.sets, _DIVERGENCE_FAMILIES[spec.family],
                                            config.bandwidth_policy)
            if config.sigma_grid_search:
                spec = replace(spec, sigma=_choose_sigma(gallery_div, gallery.labels, config))
            gram_train = _gram_from_divergences(gallery_div, spec)
        else:
            gram_train = gram(gallery.sets, spec, config.bandwidth_policy)
        model = kfda_fit(gram_train.values, gallery.labels,
                         config.kfda_latent_dim, config.kfda_regularization)
        gram_cross = cross_gram(gallery.sets, probe.sets, spec, config.bandwidth_policy)
        predicted = latent_nn_classify(model, gram_cross)
        record["sigma"] = spec.sigma
    else:  # nn_dr
        dr_config = DrConfig(
            target_dim=config.dr_target_dim,
            kind=config.divergence,
            nu_w=config.dr_nu_w,
            nu_b=config.dr_nu_b,
            cg=config.dr_cg,
            init=config.dr_init,
            seed=dr_seed,
            affinity_bw_policy=config.bandwidth_policy,
        )
        learned = learn_projection(gallery.sets, gallery.labels, dr_config)
        gallery_proj = project_sets(gallery.sets, learned.point)
        probe_proj = project_sets(probe.sets, learned.point)
        cross = cross_divergence_matrix(gallery_proj, probe_proj, config.divergence,
                                        config.bandwidth_policy)
        predicted = nn_classify(cross, gallery.labels)
        trace = learned.trace
        record["dr_iterations"] = int(learned.cg.iterations)
        record["dr_stop_reason"] = learned.cg.stop_reason
    record["accuracy"] = accuracy(predicted, truth)
    record["predicted"] = [int(v) for v in predicted]
    record["truth"] = [int(v) for v in truth]
    return record, trace


def run_experiment(config: ExperimentConfig) -> Report:
    """Run every repetition of `config` and aggregate accuracies."""
    dataset = _load_data(config)
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.repetitions)

    records: list[dict] = []
    traces: list[np.ndarray] = []
    wall_times: list[float] = []
    for rep, child in enumerate(children):
        split_seed, dr_seed = (int(s) for s in child.generate_state(2))
        start = time.perf_counter()
        record, trace = _run_repetition(dataset, config, split_seed, dr_seed)
        wall_times.append(time.perf_counter() - start)
        record["index"] = rep
        records.append(record)
        if trace is not None:
            traces.append(trace)

    accuracies = np.array([r["accuracy"] for r in records])
    hyper: dict = {"bandwidth_policy": config.to_dict()["bandwidth_policy"]}
    if config.pipeline == "kfda":
        hyper["sigma_grid"] = list(SIGMA_GRID) if config.sigma_grid_search else None
        hyper["chosen_sigmas"] = [r["sigma"] for r in records]
        hyper["regularization"] = config.kfda_regularization
    return Report(
        config=config.to_dict(),
        repetitions=records,
        mean_accuracy=float(accuracies.mean()),
        std_accuracy=float(accuracies.std(ddof=1)) if accuracies.size > 1 else 0.0,
        hyperparameters=hyper,
        traces=traces,
        wall_times=wall_times,
    )


def emit_report(report: Report, out_dir) -> None:
    """Write report.json, accuracy.csv, per-repetition trace CSVs (when a
    projection was learned), and a separate timings.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    with (out_dir / "accuracy.csv").open("w") as fh:
        fh.write("repetition,accuracy\n")
        for record in report.repetitions:
            fh.write(f"{record['index']},{record['accuracy']:.17g}\n")
    for rep, trace in enumerate(report.traces):
        save_trace(trace, out_dir / f"trace_rep{rep}.csv")
    (out_dir / "timings.json").write_text(
        json.dumps({"wall_times_seconds": report.wall_times}, indent=2) + "\n"
    )


def load_report(out_dir) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())
