"""Declarative experiment runner: split, (optionally) learn, classify, score.

A run is a pure function of its config: all randomness flows from one seed
through per-repetition child seeds, pairs are evaluated serially in a
fixed order, and reports serialize to byte-identical JSON across runs.
Wall-clock timings are kept out of the report. A kFDA repetition on a
divergence kernel takes its gallery matrix (sigma search, training Gram)
and its gallery x probe matrix from one pass over the two sides' KDEs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .classify import KfdaModel, accuracy, kfda_fit, latent_nn_classify, nn_classify
from .dataset import (ConfigError, Dataset, SyntheticSpec, _checked, _field, _no_unread_keys, _write_json,
                      generate_synthetic, load_dataset, split_gallery_probe, standardize_dataset)
from .dimred import DrConfig, learn_projection, project_sets
from .divergence import (DivergenceKind, DivergenceMatrix, _divergence_kind, _is_positive_number, _square_and_cross,
                         cross_divergence_matrix)
from .kernels import (_DIVERGENCE_FAMILIES, SIGMA_GRID, KernelSpec, _gram_from_divergences, _kernel_family,
                      _spec_record, cross_gram, gram, kernel_from_divergence)
from .manifold import CgOptions, save_trace

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "emit_report",
]

PIPELINES = ("nn", "kfda", "nn_dr")


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _bandwidth_policy(value, path: str, parse=lambda v: v):
    """`parse(value)` if it is "silverman", "isotropic" or a positive number
    (one shared variance); a ConfigError naming `path` and `value` otherwise."""
    policy = parse(value)
    _require(policy in ("silverman", "isotropic") or _is_positive_number(policy), path,
             f"must be 'silverman', 'isotropic' or a positive number, got {value!r}")
    return policy


def _read_dataclass(cls, raw: dict, path: str):
    """A `cls` whose every field is read from `raw` as its annotated type,
    with the dataclass's own default."""
    hints = get_type_hints(cls)
    values = {f.name: _field(raw, f.name, path, hints[f.name], f.default) for f in fields(cls)}
    return _checked(lambda: cls(**values), path)


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
    dr: DrConfig | None  # with the divergence, bandwidth policy and CG options; seed 0

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Read a parsed JSON config; every key is read once as its type, and
        a wrong type, an unknown key or a failed check is a ConfigError
        naming the field path."""
        _require(isinstance(raw, dict), "config", "must be a JSON object")
        raw = dict(raw)
        pipeline = _field(raw, "pipeline", "", str)
        _require(pipeline in PIPELINES, "pipeline", f"must be one of {PIPELINES}, got {pipeline!r}")

        data = _field(raw, "data", "", dict)
        manifest = _field(data, "manifest", "data", str, None)
        synthetic = _field(data, "synthetic", "data", dict, None)
        _no_unread_keys(data, "data")
        _require((manifest is None) != (synthetic is None), "data",
                 "exactly one of 'manifest' or 'synthetic' is required")
        if synthetic is not None:
            spec = _read_dataclass(SyntheticSpec, synthetic, "data.synthetic")
            _no_unread_keys(synthetic, "data.synthetic")
            synthetic = spec

        divergence = _field(raw, "divergence", "", str, None)
        if divergence is not None:
            divergence = _divergence_kind(divergence, "divergence")

        kernel = _field(raw, "kernel", "", dict, None)
        sigma_grid_search = False
        if kernel is not None:
            _require(pipeline == "kfda", "kernel", "only valid with the kfda pipeline")
            family = _kernel_family(_field(kernel, "family", "kernel", str), "kernel.family")
            sigma_grid_search = kernel.get("sigma") == "grid"
            if sigma_grid_search:
                kernel["sigma"] = SIGMA_GRID[0]
            sigma = _field(kernel, "sigma", "kernel", float, 0.1)
            subspace_dim = _field(kernel, "subspace_dim", "kernel", int, None)
            _no_unread_keys(kernel, "kernel")
            kernel = _checked(lambda: KernelSpec(family, sigma, subspace_dim), "kernel")

        if pipeline == "kfda":
            _require(kernel is not None, "kernel", "required by the kfda pipeline")
            _require(divergence is None, "divergence",
                     "not allowed with kfda (the kernel family implies it)")
        else:
            _require(divergence is not None, "divergence", f"required by the {pipeline} pipeline")
            _require("kfda" not in raw, "kfda", "only valid with the kfda pipeline")

        kfda = _field(raw, "kfda", "", dict, {})
        kfda_latent_dim = _field(kfda, "latent_dim", "kfda", int, None)
        _require(kfda_latent_dim is None or kfda_latent_dim >= 1, "kfda.latent_dim", "must be >= 1")
        kfda_regularization = _field(kfda, "regularization", "kfda", float, 1e-4)
        _require(kfda_regularization > 0, "kfda.regularization", "must be > 0")
        _no_unread_keys(kfda, "kfda")

        split = _field(raw, "split", "", dict, {})
        per_class_gallery = _field(split, "per_class_gallery", "split", int, 3)
        _no_unread_keys(split, "split")
        _require(per_class_gallery >= 1, "split.per_class_gallery", "must be >= 1")

        repetitions = _field(raw, "repetitions", "", int, 1)
        _require(repetitions >= 1, "repetitions", "must be >= 1")

        # One shared variance, not a per-set list: the gallery, the probe and
        # their union have different set counts.
        bw_policy = _bandwidth_policy(_field(raw, "bandwidth_policy", "", object, "silverman"), "bandwidth_policy")

        dr = _field(raw, "dr", "", dict, None)
        if pipeline == "nn_dr":
            _require(dr is not None, "dr", "required by the nn_dr pipeline")
            cg = _read_dataclass(CgOptions, dr, "dr")
            target_dim = _field(dr, "target_dim", "dr", int)
            nu_w = _field(dr, "nu_w", "dr", (int, str), "auto")
            _require(nu_w == "auto" or isinstance(nu_w, int) and nu_w >= 0, "dr.nu_w",
                     f"must be 'auto' or an integer >= 0, got {nu_w!r}")
            nu_b = _field(dr, "nu_b", "dr", int, 1)
            init = _field(dr, "init", "dr", str, "pca")
            _no_unread_keys(dr, "dr")
            dr = _checked(lambda: DrConfig(target_dim=target_dim, kind=divergence, nu_w=nu_w, nu_b=nu_b,
                                           cg=cg, init=init, affinity_bw_policy=bw_policy), "dr")
        else:
            _require(dr is None, "dr", "only valid with the nn_dr pipeline")

        seed = _field(raw, "seed", "", int, 0)
        standardize = _field(raw, "standardize", "", bool, False)
        _no_unread_keys(raw, "")
        return ExperimentConfig(
            data_manifest=manifest, data_synthetic=synthetic, pipeline=pipeline, divergence=divergence,
            kernel=kernel, sigma_grid_search=sigma_grid_search, per_class_gallery=per_class_gallery,
            repetitions=repetitions, seed=seed, standardize=standardize, bandwidth_policy=bw_policy,
            kfda_latent_dim=kfda_latent_dim, kfda_regularization=kfda_regularization, dr=dr)

    def to_dict(self) -> dict:
        data = ({"manifest": self.data_manifest} if self.data_manifest is not None
                else {"synthetic": asdict(self.data_synthetic)})
        out = {
            "data": data,
            "pipeline": self.pipeline,
            "split": {"per_class_gallery": self.per_class_gallery},
            "repetitions": self.repetitions,
            "seed": self.seed,
            "standardize": self.standardize,
            "bandwidth_policy": self.bandwidth_policy,
        }
        if self.divergence is not None:
            out["divergence"] = self.divergence.value
        if self.kernel is not None:
            out["kernel"] = {**_spec_record(self.kernel), **({"sigma": "grid"} if self.sigma_grid_search else {})}
            out["kfda"] = {"latent_dim": self.kfda_latent_dim, "regularization": self.kfda_regularization}
        if self.dr is not None:
            out["dr"] = {"target_dim": self.dr.target_dim, "nu_w": self.dr.nu_w, "nu_b": self.dr.nu_b,
                         "init": self.dr.init, **asdict(self.dr.cg)}
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
            # One pass gives the gallery matrix (sigma search and training Gram) and the cross one.
            gallery_div, cross = _square_and_cross(gallery.sets, probe.sets, _DIVERGENCE_FAMILIES[spec.family],
                                                   config.bandwidth_policy)
            if config.sigma_grid_search:
                spec = replace(spec, sigma=_choose_sigma(gallery_div, gallery.labels, config))
            gram_train = _gram_from_divergences(gallery_div, spec)
            gram_cross = kernel_from_divergence(cross, spec)
        else:
            gram_train = gram(gallery.sets, spec, config.bandwidth_policy)
            gram_cross = cross_gram(gallery.sets, probe.sets, spec, config.bandwidth_policy)
        model = kfda_fit(gram_train.values, gallery.labels,
                         config.kfda_latent_dim, config.kfda_regularization)
        predicted = latent_nn_classify(model, gram_cross)
        record["sigma"] = spec.sigma
    else:  # nn_dr
        learned = learn_projection(gallery.sets, gallery.labels, replace(config.dr, seed=dr_seed))
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
    hyper: dict = {"bandwidth_policy": config.bandwidth_policy}
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
    _write_json(out_dir / "report.json", report.to_dict())
    with (out_dir / "accuracy.csv").open("w", encoding="utf-8") as fh:
        fh.write("repetition,accuracy\n")
        for record in report.repetitions:
            fh.write(f"{record['index']},{record['accuracy']:.17g}\n")
    for rep, trace in enumerate(report.traces):
        save_trace(trace, out_dir / f"trace_rep{rep}.csv")
    _write_json(out_dir / "timings.json", {"wall_times_seconds": report.wall_times})
