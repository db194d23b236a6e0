"""Command-line entry points.

Subcommands: gen (synthetic dataset to manifest+CSVs), dist (pairwise
divergence matrix), gram (kernel matrix), train-dr (learn a projection),
classify (apply a saved discriminant model or straight NN matching), eval
(full experiment from a JSON config), validate (self-check suites).

Exit codes: 0 success, 1 validation failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .classify import accuracy, kfda_fit, latent_nn_classify, load_kfda_model, nn_classify, save_kfda_model
from .dataset import (SyntheticSpec, _read_json, _save_with_sidecar, _write_csv, _write_json, generate_synthetic,
                      load_dataset, save_dataset)
from .dimred import DrConfig, learn_projection
from .divergence import (
    DivergenceKind,
    _divergence_kind,
    cross_divergence_matrix,
    divergence_matrix,
    save_divergence_matrix,
)
from .experiment import ConfigError, ExperimentConfig, _bandwidth_policy, emit_report, run_experiment
from .kernels import KernelSpec, _kernel_family, _load_spec, _spec_record, cross_gram, gram, save_gram_matrix
from .manifold import CgOptions, save_trace
from .validation import run_validation


def _parse_bw(raw: str):
    try:
        return float(raw)
    except ValueError:
        return raw


def _divergence_arg(raw: str) -> DivergenceKind:
    """A --divergence value; the CLI also accepts "h" and "j"."""
    aliases = {"h": "hellinger", "j": "jeffrey"}
    return _divergence_kind(aliases.get(raw, raw), "divergence")


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(
        classes=args.classes,
        sets_per_class=args.sets_per_class,
        samples_per_set=args.samples_per_set,
        dim=args.dim,
        class_separation=args.separation,
        within_class_jitter=args.jitter,
        seed=args.seed,
    )
    dataset = generate_synthetic(spec)
    out = Path(args.out)
    save_dataset(dataset, out / "manifest.json")
    print(f"wrote {dataset.size} sets ({dataset.num_classes} classes, D={dataset.dim}) "
          f"to {out / 'manifest.json'}")
    return 0


def _cmd_dist(args) -> int:
    dataset = load_dataset(args.manifest)
    kind = _divergence_arg(args.divergence)
    matrix = divergence_matrix(dataset.sets, kind, _bandwidth_policy(args.bw, "--bw", _parse_bw))
    out = Path(args.out)
    save_divergence_matrix(matrix, out / "divergences.csv")
    print(f"wrote {matrix.size}x{matrix.size} {kind.value} matrix to {out / 'divergences.csv'}")
    return 0


def _cmd_gram(args) -> int:
    dataset = load_dataset(args.manifest)
    family = _kernel_family(args.kernel, "kernel")
    spec = KernelSpec(family=family, sigma=args.sigma, subspace_dim=args.dim)
    matrix = gram(dataset.sets, spec, _bandwidth_policy(args.bw, "--bw", _parse_bw))
    out = Path(args.out)
    save_gram_matrix(matrix, out / "gram.csv")
    print(f"wrote {matrix.size}x{matrix.size} {family.value} gram to {out / 'gram.csv'}")
    return 0


def _cmd_train_dr(args) -> int:
    dataset = load_dataset(args.manifest)
    config = DrConfig(
        target_dim=args.dim,
        kind=_divergence_arg(args.divergence),
        nu_b=args.nu_b,
        cg=CgOptions(max_iters=args.max_iters),
        init=args.init,
        seed=args.seed,
    )
    result = learn_projection(dataset.sets, dataset.labels, config)
    out = Path(args.out)
    save_trace(result.trace, out / "trace.csv")
    settings = {
        "target_dim": config.target_dim,
        "divergence": config.kind.value,
        "nu_w": result.affinity.nu_w,
        "nu_b": result.affinity.nu_b,
        "init": config.init,
        "seed": config.seed,
        "max_iters": config.cg.max_iters,
    }
    digest = hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()
    _save_with_sidecar(out / "projection.csv", result.point, {
        **settings,
        "config_hash": digest,
        "iterations": result.cg.iterations,
        "stop_reason": result.cg.stop_reason,
        "final_cost": result.cg.cost,
        "trace_file": "trace.csv",
    })
    print(f"learned D={result.point.shape[0]} -> d={result.point.shape[1]} projection "
          f"in {result.cg.iterations} iterations ({result.cg.stop_reason})")
    return 0


def _cmd_classify(args) -> int:
    gallery = load_dataset(args.gallery)
    probe = load_dataset(args.probe)
    if (args.model is None) == (args.divergence is None):
        raise ConfigError("classify: exactly one of --model or --divergence is required")
    if args.model is not None and args.bw is not None:
        raise ConfigError("--bw: not allowed with --model, whose kernel.json holds the bandwidth policy")
    if args.model is not None:
        model = load_kfda_model(args.model)
        path = Path(args.model) / "kernel.json"
        spec, meta = _load_spec(path, {"bandwidth_policy": str})
        bw_policy = _bandwidth_policy(meta["bandwidth_policy"], f"{path}.bandwidth_policy", _parse_bw)
        cross = cross_gram(gallery.sets, probe.sets, spec, bw_policy)
        predicted = latent_nn_classify(model, cross)
    else:
        kind = _divergence_arg(args.divergence)
        bw_policy = _bandwidth_policy("silverman" if args.bw is None else args.bw, "--bw", _parse_bw)
        cross = cross_divergence_matrix(gallery.sets, probe.sets, kind, bw_policy)
        predicted = nn_classify(cross, gallery.labels)
    out = Path(args.out)
    # the two manifests number their labels apart, so the sides meet by label name
    predicted = [gallery.label_names[label] for label in predicted]
    score = accuracy(predicted, probe.named_labels)
    _write_csv(out / "predictions.csv", [[fs.id, label, truth] for fs, label, truth in
                                         zip(probe.sets, predicted, probe.named_labels)],
               "probe_id,predicted_label,true_label", "%s")
    _write_json(out / "score.json", {"accuracy": score})
    print(f"classified {probe.size} probes, accuracy {score:.4f}")
    return 0


def _cmd_train_kfda(args) -> int:
    dataset = load_dataset(args.manifest)
    spec = KernelSpec(family=_kernel_family(args.kernel, "kernel"), sigma=args.sigma, subspace_dim=args.dim)
    gram_train = gram(dataset.sets, spec, _bandwidth_policy(args.bw, "--bw", _parse_bw))
    model = kfda_fit(gram_train.values, dataset.labels,
                     latent_dim=args.latent_dim, regularization=args.regularization)
    out = Path(args.out)
    save_kfda_model(model, out)
    _write_json(out / "kernel.json", {**_spec_record(spec), "bandwidth_policy": args.bw})
    print(f"fitted discriminant model on {dataset.size} sets -> {out}")
    return 0


def _object_at(raw: dict, key: str) -> dict:
    """`raw[key]` (an empty object if absent) for an override; a ConfigError if not an object."""
    if not isinstance(value := raw.setdefault(key, {}), dict):
        raise ConfigError(f"{key}: must be an object, got {value!r}")
    return value


def _cmd_eval(args) -> int:
    raw = _read_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("config: must be a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.pipeline is not None:
        raw["pipeline"] = args.pipeline
    if args.divergence is not None:
        raw["divergence"] = _divergence_arg(args.divergence).value
    if args.kernel is not None:
        _object_at(raw, "kernel")["family"] = args.kernel
    if args.sigma is not None:
        _object_at(raw, "kernel")["sigma"] = (
            "grid" if args.sigma == "grid" else float(args.sigma)
        )
    if args.dim is not None:
        _object_at(raw, "dr")["target_dim"] = args.dim
    config = ExperimentConfig.from_dict(raw)
    report = run_experiment(config)
    emit_report(report, args.out)
    print(f"{config.pipeline}: mean accuracy {report.mean_accuracy:.4f} "
          f"+/- {report.std_accuracy:.4f} over {config.repetitions} repetitions "
          f"-> {Path(args.out) / 'report.json'}")
    return 0


def _cmd_validate(args) -> int:
    return 0 if run_validation() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="statdiv",
                                     description="Feature-set divergences, kernels, and projections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--sets-per-class", type=int, required=True)
    p.add_argument("--samples-per-set", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--jitter", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dist", help="pairwise divergence matrix of a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--divergence", required=True)
    p.add_argument("--bw", default="silverman")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("gram", help="kernel matrix of a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kernel", required=True, help="hg|hl|j|gda|cdl")
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--dim", type=int, default=None, help="subspace dimension (gda)")
    p.add_argument("--bw", default="silverman")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("train-dr", help="learn a discriminative projection")
    p.add_argument("--manifest", required=True)
    p.add_argument("--divergence", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--nu-b", type=int, default=1)
    p.add_argument("--init", choices=("pca", "random"), default="pca")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_dr)

    p = sub.add_parser("train-kfda", help="fit a kernel discriminant model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--regularization", type=float, default=1e-4)
    p.add_argument("--bw", default="silverman")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_kfda)

    p = sub.add_parser("classify", help="label probe sets against a gallery")
    p.add_argument("--gallery", required=True)
    p.add_argument("--probe", required=True)
    p.add_argument("--model", default=None, help="saved discriminant model directory")
    p.add_argument("--divergence", default=None, help="NN matching instead of a model")
    p.add_argument("--bw", default=None, help="bandwidth policy with --divergence (default silverman)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eval", help="run a full experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pipeline", choices=("nn", "kfda", "nn_dr"), default=None)
    p.add_argument("--divergence", default=None)
    p.add_argument("--kernel", default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("validate", help="run the self-check suites")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
