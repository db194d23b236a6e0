import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from statdiv.cli import main
from statdiv.experiment import ConfigError, ExperimentConfig, emit_report, run_experiment


def synthetic_config(pipeline="nn", **overrides):
    raw = {
        "data": {"synthetic": {"classes": 3, "sets_per_class": 5, "samples_per_set": 30,
                                "dim": 4, "class_separation": 10.0,
                                "within_class_jitter": 0.3, "seed": 1}},
        "pipeline": pipeline,
        "divergence": "hellinger",
        "split": {"per_class_gallery": 3},
        "repetitions": 2,
        "seed": 11,
    }
    if pipeline == "kfda":
        raw.pop("divergence")
        raw["kernel"] = {"family": "hg", "sigma": 0.1}
    if pipeline == "nn_dr":
        raw["dr"] = {"target_dim": 2, "max_iters": 8}
    raw.update(overrides)
    return raw


# Values of the wrong type and unknown keys: each is an error, never coerced
# or ignored, and its message starts with the field path.
REJECTED = [
    ("nn", "standardize", "false", "standardize: must be true or false"),
    ("nn", "repetitions", 2.9, "repetitions: must be an integer"),
    ("nn", "split.per_class_gallery", 2.5, "split.per_class_gallery: must be an integer"),
    ("kfda", "kernel.sigma", True, "kernel.sigma: must be a number"),
    ("nn_dr", "dr.init", "bogus", "dr: init must be 'pca' or 'random'"),
    ("nn_dr", "dr.target_dim", 0, "dr: target_dim must be >= 1"),
    ("nn", "repetition", 5, "repetition: unknown key"),
    ("nn", "seed", "7", "seed: must be an integer"),
    ("nn_dr", "dr.max_iters", 2.5, "dr.max_iters: must be an integer"),
    ("kfda", "kfda.latent_dim", 1.7, "kfda.latent_dim: must be an integer"),
    ("nn", "data.synthetic.classes", 2.5, "data.synthetic.classes: must be an integer"),
    ("nn_dr", "dr.maxiters", 8, "dr.maxiters: unknown key"),
    ("nn_dr", "dr.nu_w", -1, "dr.nu_w: must be 'auto' or an integer >= 0"),
    ("kfda", "kfda.latent_dim", 0, "kfda.latent_dim: must be >= 1"),
    ("kfda", "kfda.regularization", -1.0, "kfda.regularization: must be > 0"),
    ("kfda", "kfda.regularization", 0, "kfda.regularization: must be > 0"),
]


# A JSON null written into a saved file, where None in a table means "delete the field".
JSON_NULL = object()


# Edits of a saved file's text.
def _cut_last_line(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _add_column(text):
    return "".join(f"{line},0\n" for line in text.splitlines())


def _set_field(name, value):
    def edit(text):
        return json.dumps({**json.loads(text), name: value})

    edit.__name__ = f"set_{name}"  # the test id
    return edit


def rejected_config(pipeline, path, value):
    raw = synthetic_config(pipeline)
    *parents, key = path.split(".")
    node = raw
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return raw


class TestConfigValidation:
    def test_unknown_pipeline_names_field(self):
        with pytest.raises(ConfigError, match="pipeline:"):
            ExperimentConfig.from_dict(synthetic_config(pipeline="svm"))

    def test_kernel_only_with_kfda(self):
        raw = synthetic_config("nn")
        raw["kernel"] = {"family": "hg"}
        with pytest.raises(ConfigError, match="kernel: only valid"):
            ExperimentConfig.from_dict(raw)

    def test_dr_only_with_nn_dr(self):
        raw = synthetic_config("nn")
        raw["dr"] = {"target_dim": 2}
        with pytest.raises(ConfigError, match="dr: only valid"):
            ExperimentConfig.from_dict(raw)

    def test_missing_divergence(self):
        raw = synthetic_config("nn")
        raw.pop("divergence")
        with pytest.raises(ConfigError, match="divergence: required"):
            ExperimentConfig.from_dict(raw)

    def test_bad_kernel_family(self):
        raw = synthetic_config("kfda")
        raw["kernel"]["family"] = "rbf"
        with pytest.raises(ConfigError, match="kernel.family"):
            ExperimentConfig.from_dict(raw)

    def test_bad_divergence_names_field(self):
        with pytest.raises(ConfigError, match="^divergence: must be 'hellinger' or 'jeffrey'"):
            ExperimentConfig.from_dict(synthetic_config("nn", divergence="h"))

    def test_bad_synthetic_field(self):
        raw = synthetic_config("nn")
        raw["data"]["synthetic"]["classes"] = 0
        with pytest.raises(ConfigError, match="data.synthetic"):
            ExperimentConfig.from_dict(raw)

    def test_exactly_one_data_source(self):
        raw = synthetic_config("nn")
        raw["data"]["manifest"] = "somewhere.json"
        with pytest.raises(ConfigError, match="data: exactly one"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("policy", [True, False, "foo", "fixed", [0.5, 0.5], {"h": 1.0},
                                        None, 0, -1.0, float("nan"), float("inf")])
    def test_bad_bandwidth_policy_names_field(self, policy):
        with pytest.raises(ConfigError, match="^bandwidth_policy: must be 'silverman', 'isotropic'"):
            ExperimentConfig.from_dict(synthetic_config("nn", bandwidth_policy=policy))

    @pytest.mark.parametrize("policy", ["silverman", "isotropic", 1, 0.25])
    def test_valid_bandwidth_policy_is_reported_as_given(self, policy):
        config = ExperimentConfig.from_dict(synthetic_config("nn", bandwidth_policy=policy))
        assert json.dumps(config.to_dict()["bandwidth_policy"]) == json.dumps(policy)

    @pytest.mark.parametrize("pipeline, path, value, message", REJECTED)
    def test_wrong_type_or_unknown_key_names_field(self, pipeline, path, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            ExperimentConfig.from_dict(rejected_config(pipeline, path, value))

    @pytest.mark.parametrize("raw", [
        synthetic_config("nn"),
        synthetic_config("nn", data={"manifest": "sets/manifest.json"}, standardize=True,
                         bandwidth_policy=0.5),
        synthetic_config("kfda"),
        synthetic_config("kfda", kernel={"family": "hg", "sigma": "grid"},
                         kfda={"latent_dim": 1, "regularization": 1e-3}),
        synthetic_config("kfda", kernel={"family": "gda", "subspace_dim": 2}),
        synthetic_config("nn_dr"),
        synthetic_config("nn_dr", dr={"target_dim": 2, "nu_w": 2, "nu_b": 0, "init": "random",
                                      "max_iters": 8, "grad_tol": 1e-3, "rel_cost_tol": 1}),
    ])
    def test_to_dict_round_trips(self, raw):
        config = ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(config.to_dict()) == config


class TestRunExperiment:
    def test_nn_pipeline_on_separable_data(self):
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn")))
        assert report.mean_accuracy >= 0.95
        assert len(report.repetitions) == 2

    def test_gallery_probe_hygiene(self):
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn")))
        for record in report.repetitions:
            assert set(record["gallery_ids"]).isdisjoint(record["probe_ids"])
            assert len(record["gallery_ids"]) == 9

    def test_learning_touches_only_gallery_sets(self, monkeypatch):
        # provenance guard: projection learning and discriminant fitting must
        # never see probe sets
        import statdiv.experiment as experiment_mod

        seen_dr: list[set] = []
        real_learn = experiment_mod.learn_projection

        def spy_learn(sets, labels, config):
            seen_dr.append({fs.id for fs in sets})
            return real_learn(sets, labels, config)

        monkeypatch.setattr(experiment_mod, "learn_projection", spy_learn)
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn_dr")))
        for record, trained_on in zip(report.repetitions, seen_dr):
            assert trained_on == set(record["gallery_ids"])

        seen_kfda: list[int] = []
        real_fit = experiment_mod.kfda_fit

        def spy_fit(gram_train, labels, *args, **kwargs):
            seen_kfda.append(np.asarray(gram_train).shape[0])
            return real_fit(gram_train, labels, *args, **kwargs)

        monkeypatch.setattr(experiment_mod, "kfda_fit", spy_fit)
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("kfda")))
        assert all(size == len(report.repetitions[0]["gallery_ids"]) for size in seen_kfda)

    def test_same_seed_reproduces_report(self):
        config = ExperimentConfig.from_dict(synthetic_config("kfda"))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.to_dict() == b.to_dict()

    def test_repeated_run_gives_identical_report(self):
        config = ExperimentConfig.from_dict(synthetic_config("nn"))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.to_dict() == b.to_dict()

    def test_grid_search_reports_chosen_sigma(self):
        raw = synthetic_config("kfda")
        raw["kernel"]["sigma"] = "grid"
        report = run_experiment(ExperimentConfig.from_dict(raw))
        from statdiv.kernels import SIGMA_GRID
        assert all(r["sigma"] in SIGMA_GRID for r in report.repetitions)
        assert report.hyperparameters["sigma_grid"] == list(SIGMA_GRID)

    @pytest.mark.parametrize("sigma", [0.1, "grid"])
    def test_kfda_repetition_forms_each_kde_block_once(self, monkeypatch, sigma):
        # one pass over gallery and probe serves the sigma search, the training Gram and the
        # cross Gram: every set's own block, and both blocks of each gallery and cross pair
        from statdiv import density

        blocks = []
        kernel = density._log_kernel_matrix

        def counting(points, centre, scale, runs):
            blocks.append(sum(count for count, _, _ in runs))
            return kernel(points, centre, scale, runs)

        monkeypatch.setattr(density, "_log_kernel_matrix", counting)
        raw = synthetic_config("kfda", repetitions=1)
        raw["kernel"]["sigma"] = sigma
        record = run_experiment(ExperimentConfig.from_dict(raw)).repetitions[0]
        g, p = len(record["gallery_ids"]), len(record["probe_ids"])
        assert sum(blocks) == g + p + g * (g - 1) + 2 * g * p

    def test_dr_pipeline_produces_traces(self):
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn_dr")))
        assert len(report.traces) == 2
        for trace in report.traces:
            assert np.all(np.diff(trace[:, 1]) <= 0.0)


class TestEmitReport:
    def test_round_trip_and_companions(self, tmp_path):
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn_dr")))
        emit_report(report, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text()) == report.to_dict()
        lines = (tmp_path / "accuracy.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.repetitions)
        assert (tmp_path / "trace_rep0.csv").exists()
        assert (tmp_path / "trace_rep1.csv").exists()
        assert (tmp_path / "timings.json").exists()

    def test_trace_absent_without_dr(self, tmp_path):
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn")))
        emit_report(report, tmp_path)
        assert not list(tmp_path.glob("trace_rep*.csv"))


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_full_command_round_trip(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "3", "--sets-per-class", "5",
                        "--samples-per-set", "25", "--dim", "4", "--separation", "9",
                        "--jitter", "0.3", "--seed", "2", "--out", str(data)) == 0
        manifest = data / "manifest.json"

        assert self.run("dist", "--manifest", str(manifest), "--divergence", "hellinger",
                        "--out", str(tmp_path / "dist")) == 0
        assert (tmp_path / "dist" / "divergences.csv").exists()
        assert (tmp_path / "dist" / "divergences.json").exists()

        assert self.run("gram", "--manifest", str(manifest), "--kernel", "hl",
                        "--sigma", "0.5", "--out", str(tmp_path / "gram")) == 0
        assert (tmp_path / "gram" / "gram.json").exists()

        assert self.run("train-dr", "--manifest", str(manifest), "--divergence", "jeffrey",
                        "--dim", "2", "--max-iters", "6",
                        "--out", str(tmp_path / "dr")) == 0
        projection = np.loadtxt(tmp_path / "dr" / "projection.csv", delimiter=",")
        assert projection.shape == (4, 2)
        np.testing.assert_allclose(projection.T @ projection, np.eye(2), atol=1e-10)
        assert (tmp_path / "dr" / "trace.csv").exists()

        assert self.run("train-kfda", "--manifest", str(manifest), "--kernel", "hg",
                        "--sigma", "0.1", "--out", str(tmp_path / "model")) == 0
        assert self.run("classify", "--gallery", str(manifest), "--probe", str(manifest),
                        "--model", str(tmp_path / "model"),
                        "--out", str(tmp_path / "cls")) == 0
        score = json.loads((tmp_path / "cls" / "score.json").read_text())
        assert score["accuracy"] == 1.0  # probes identical to the gallery

        assert self.run("classify", "--gallery", str(manifest), "--probe", str(manifest),
                        "--divergence", "hellinger", "--out", str(tmp_path / "cls_nn")) == 0
        score = json.loads((tmp_path / "cls_nn" / "score.json").read_text())
        assert score["accuracy"] == 1.0

    def test_eval_exit_codes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(synthetic_config("nn")))
        assert self.run("eval", "--config", str(config), "--out", str(tmp_path / "run")) == 0
        assert (tmp_path / "run" / "report.json").exists()

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(synthetic_config("svm")))
        assert self.run("eval", "--config", str(bad), "--out", str(tmp_path / "run2")) == 1

    @pytest.mark.parametrize("pipeline, path, value, message", REJECTED)
    def test_eval_rejects_config_naming_field(self, tmp_path, capsys, pipeline, path, value, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(rejected_config(pipeline, path, value)))
        assert self.run("eval", "--config", str(config), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("raw, flags, message", [
        ([1], ["--seed", "3"], "config: must be a JSON object"),
        (dict(synthetic_config("kfda"), kernel=[1]), ["--kernel", "hl"], "kernel: must be an object"),
        (dict(synthetic_config("kfda"), kernel="hg"), ["--sigma", "0.5"], "kernel: must be an object"),
        (dict(synthetic_config("nn_dr"), dr=2), ["--dim", "2"], "dr: must be an object"),
    ], ids=["config", "kernel-family", "kernel-sigma", "dr-dim"])
    def test_eval_override_into_a_non_object_names_it(self, tmp_path, capsys, raw, flags, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert self.run("eval", "--config", str(config), *flags, "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["{\n", "", '{"pipeline": "nn",}'])
    def test_eval_config_that_is_not_json_names_the_file(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert self.run("eval", "--config", str(config), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config} is not valid JSON: ") and "Traceback" not in err

    def test_gda_kernel_without_dim_is_validation_error(self, tmp_path):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "3",
                        "--samples-per-set", "10", "--dim", "3", "--out", str(data)) == 0
        assert self.run("gram", "--manifest", str(data / "manifest.json"),
                        "--kernel", "gda", "--out", str(tmp_path / "g")) == 1

    def test_train_dr_sidecar_carries_config_hash(self, tmp_path):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "3",
                        "--samples-per-set", "15", "--dim", "3", "--separation", "6",
                        "--out", str(data)) == 0
        assert self.run("train-dr", "--manifest", str(data / "manifest.json"),
                        "--divergence", "hellinger", "--dim", "2", "--max-iters", "3",
                        "--out", str(tmp_path / "dr1")) == 0
        assert self.run("train-dr", "--manifest", str(data / "manifest.json"),
                        "--divergence", "hellinger", "--dim", "2", "--max-iters", "3",
                        "--out", str(tmp_path / "dr2")) == 0
        a = json.loads((tmp_path / "dr1" / "projection.json").read_text())
        b = json.loads((tmp_path / "dr2" / "projection.json").read_text())
        assert a["config_hash"] == b["config_hash"]
        assert a["trace_file"] == "trace.csv"

    @pytest.mark.parametrize("command, flag, value, message", [
        ("dist", "--divergence", "kl", "error: divergence: must be 'hellinger' or 'jeffrey'"),
        ("dist", "--divergence", "h", None),
        ("gram", "--kernel", "rbf", "error: kernel: must be one of"),
    ])
    def test_enum_arguments(self, tmp_path, capsys, command, flag, value, message):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "2",
                        "--samples-per-set", "8", "--dim", "2", "--out", str(data)) == 0
        capsys.readouterr()
        code = self.run(command, "--manifest", str(data / "manifest.json"), flag, value,
                        "--out", str(tmp_path / "out"))
        if message is None:
            assert code == 0
        else:
            assert code == 1
            assert capsys.readouterr().err.startswith(message)

    def test_eval_accepts_divergence_alias(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(synthetic_config("nn", divergence="jeffrey", repetitions=1)))
        assert self.run("eval", "--config", str(config), "--divergence", "h",
                        "--out", str(tmp_path / "run")) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["divergence"] == "hellinger"

    def test_train_dr_writes_projection_with_sidecar(self, tmp_path):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "3",
                        "--samples-per-set", "15", "--dim", "3", "--separation", "6",
                        "--out", str(data)) == 0
        assert self.run("train-dr", "--manifest", str(data / "manifest.json"),
                        "--divergence", "j", "--dim", "2", "--max-iters", "3",
                        "--out", str(tmp_path / "dr")) == 0
        point = np.loadtxt(tmp_path / "dr" / "projection.csv", delimiter=",", ndmin=2)
        assert point.shape == (3, 2)
        np.testing.assert_allclose(point.T @ point, np.eye(2), atol=1e-12)
        raw = (tmp_path / "dr" / "projection.json").read_text()
        sidecar = json.loads(raw)
        assert raw == json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        assert sidecar["divergence"] == "jeffrey" and sidecar["target_dim"] == 2

    def test_missing_manifest_is_validation_error(self, tmp_path):
        assert self.run("dist", "--manifest", str(tmp_path / "nope.json"),
                        "--divergence", "hellinger", "--out", str(tmp_path / "out")) == 1

    def test_manifest_not_an_object_is_validation_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        assert self.run("dist", "--manifest", str(manifest), "--divergence", "hellinger",
                        "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest") and str(manifest) in err

    @pytest.mark.parametrize("filename, field, value", [("kernel.json", "sigma", None),
                                                        ("kernel.json", "family", None),
                                                        ("model.json", "labels", None),
                                                        ("model.json", "latent_dim", None),
                                                        ("kernel.json", "sigma", "abc"),
                                                        ("kernel.json", "family", "svm"),
                                                        ("kernel.json", "bandwidth_policy", JSON_NULL),
                                                        ("kernel.json", "bandwidth_policy", [1]),
                                                        ("kernel.json", "bandwidth_policy", True),
                                                        ("kernel.json", "bandwidth_policy", "bogus"),
                                                        ("kernel.json", "bandwidth_policy", "-1"),
                                                        ("kernel.json", "subspace_dim", 2.7),
                                                        ("model.json", "latent_dim", JSON_NULL),
                                                        ("model.json", "labels", JSON_NULL),
                                                        ("model.json", "regularization", JSON_NULL),
                                                        ("model.json", "latent_dim", 1.7),
                                                        ("model.json", "regularization", True),
                                                        ("model.json", "labels", [0, 1.5]),
                                                        # a model of 6 sets and latent_dim 1 whose files disagree:
                                                        # `field` is the file the error names, `value` the edit
                                                        ("train_row_means.csv", "expected (6, 1)", _cut_last_line),
                                                        ("coefficients.csv", "expected (6, 1)", _cut_last_line),
                                                        ("train_latent.csv", "expected (6, 1)", _add_column),
                                                        ("model.json", "coefficients.csv",
                                                         _set_field("latent_dim", 2)),
                                                        ("model.json", "coefficients.csv",
                                                         _set_field("labels", [0, 1, 0, 1]))])
    def test_classify_with_bad_model_directory(self, tmp_path, capsys, filename, field, value):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "3",
                        "--samples-per-set", "10", "--dim", "3", "--out", str(data)) == 0
        manifest = str(data / "manifest.json")
        model = tmp_path / "model"
        assert self.run("train-kfda", "--manifest", manifest, "--kernel", "hg",
                        "--out", str(model)) == 0
        if callable(value):
            (model / filename).write_text(value((model / filename).read_text()))
        else:
            meta = json.loads((model / filename).read_text())
            if value is None:
                del meta[field]
            else:
                meta[field] = None if value is JSON_NULL else value
            (model / filename).write_text(json.dumps(meta))
        capsys.readouterr()
        assert self.run("classify", "--gallery", manifest, "--probe", manifest,
                        "--model", str(model), "--out", str(tmp_path / "cls")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if value is None:
            assert str(model / filename) in err and repr(field) in err
        elif not callable(value):
            assert repr(None if value is JSON_NULL else value) in err
        assert str(model / filename) in err and field in err

    def test_classify_reads_a_numeric_bandwidth_stored_as_a_string(self, tmp_path):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "3",
                        "--samples-per-set", "10", "--dim", "3", "--out", str(data)) == 0
        manifest, model = str(data / "manifest.json"), tmp_path / "model"
        assert self.run("train-kfda", "--manifest", manifest, "--kernel", "hg", "--bw", "0.5",
                        "--out", str(model)) == 0
        assert json.loads((model / "kernel.json").read_text())["bandwidth_policy"] == "0.5"
        assert self.run("classify", "--gallery", manifest, "--probe", manifest,
                        "--model", str(model), "--out", str(tmp_path / "cls")) == 0

    def test_kernel_json_holds_the_fitted_spec(self, tmp_path):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "3",
                        "--samples-per-set", "10", "--dim", "3", "--out", str(data)) == 0
        manifest, model = str(data / "manifest.json"), tmp_path / "model"
        assert self.run("train-kfda", "--manifest", manifest, "--kernel", "gda", "--dim", "2",
                        "--out", str(model)) == 0
        raw = (model / "kernel.json").read_text()
        assert raw == json.dumps({"bandwidth_policy": "silverman", "family": "gda", "sigma": 0.1,
                                  "subspace_dim": 2}, indent=2, sort_keys=True) + "\n"
        assert self.run("classify", "--gallery", manifest, "--probe", manifest,
                        "--model", str(model), "--out", str(tmp_path / "cls")) == 0

    @pytest.mark.parametrize("command, filename, field, value", [
        ("dist", "divergences.json", "set_ids", 5),
        ("dist", "divergences.json", "set_ids", ["c0s0", 1]),
        ("dist", "divergences.json", "kind", "kl"),
        ("dist", "divergences.json", "extra", 1),
        ("gram", "gram.json", "set_ids", JSON_NULL),
        ("gram", "gram.json", "sigma", True),
        ("gram", "gram.json", "subspace_dim", 2.7),
        ("gram", "gram.json", "family", None),
    ])
    def test_bad_matrix_sidecar_names_file_and_field(self, tmp_path, command, filename, field, value):
        from statdiv.divergence import load_divergence_matrix
        from statdiv.kernels import load_gram_matrix

        data, out = tmp_path / "data", tmp_path / "out"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "2",
                        "--samples-per-set", "8", "--dim", "2", "--out", str(data)) == 0
        flag = ("--divergence", "hellinger") if command == "dist" else ("--kernel", "hg")
        assert self.run(command, "--manifest", str(data / "manifest.json"), *flag, "--out", str(out)) == 0
        sidecar = out / filename
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[field]
        else:
            meta[field] = None if value is JSON_NULL else value
        sidecar.write_text(json.dumps(meta))
        load = load_divergence_matrix if command == "dist" else load_gram_matrix
        with pytest.raises(ConfigError) as info:
            load(sidecar.with_suffix(".csv"))
        assert str(sidecar) in str(info.value) and field in str(info.value)

    @pytest.mark.parametrize("command", ["dist", "gram", "train-kfda"])
    @pytest.mark.parametrize("fault, column", [("nan", 1), ("comment", 1), ("ragged", None), ("not_utf8", 1)])
    def test_malformed_saved_csv_names_file_row_and_column(self, tmp_path, command, fault, column):
        from statdiv.classify import load_kfda_model
        from statdiv.divergence import load_divergence_matrix
        from statdiv.kernels import load_gram_matrix

        data, out = tmp_path / "data", tmp_path / "out"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "2",
                        "--samples-per-set", "8", "--dim", "2", "--out", str(data)) == 0
        flag = ("--divergence", "hellinger") if command == "dist" else ("--kernel", "hg")
        assert self.run(command, "--manifest", str(data / "manifest.json"), *flag, "--out", str(out)) == 0
        csv, load = {"dist": (out / "divergences.csv", load_divergence_matrix),
                     "gram": (out / "gram.csv", load_gram_matrix),
                     "train-kfda": (out / "coefficients.csv", lambda _: load_kfda_model(out))}[command]
        lines = csv.read_text().splitlines()
        width = len(lines[1].split(","))
        if fault == "nan":
            lines[1] = ",".join(["nan"] + lines[1].split(",")[1:])
        elif fault == "comment":
            lines.insert(1, "# comment")
        elif fault == "not_utf8":
            lines[1] = "\udcff" + lines[1]  # the byte 0xff
        else:
            lines[1] += ",0"
        csv.write_bytes(("\n".join(lines) + "\n").encode(errors="surrogateescape"))
        with pytest.raises(ValueError) as info:
            load(csv)
        message = str(info.value)
        assert str(csv) in message and "at row 2, " in message
        assert f"column {column or width + 1}" in message

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(synthetic_config("nn")))
        assert self.run("eval", "--config", str(config),
                        "--out", str(blocker / "sub")) == 2

    def test_eval_seed_override_changes_report(self, tmp_path):
        config = tmp_path / "config.json"
        raw = synthetic_config("nn", repetitions=1)
        config.write_text(json.dumps(raw))
        assert self.run("eval", "--config", str(config), "--out", str(tmp_path / "a")) == 0
        assert self.run("eval", "--config", str(config), "--seed", "99",
                        "--out", str(tmp_path / "b")) == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["config"]["seed"] == 11 and b["config"]["seed"] == 99
        assert a["repetitions"][0]["gallery_ids"] != b["repetitions"][0]["gallery_ids"]

    def test_dist_under_an_ascii_locale_reads_and_writes_utf8(self, tmp_path):
        # without UTF-8 mode or locale coercion, the C locale's text encoding is ASCII
        (tmp_path / "a.csv").write_text("1.0,2.0\n3.0,4.5\n2.0,1.0\n")
        (tmp_path / "b.csv").write_text("1.5,2.0\n3.0,4.0\n0.5,0.5\n")
        entries = [{"id": "Zo\u00eb", "label": 0, "path": "a.csv"}, {"id": "s", "label": 1, "path": "b.csv"}]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"sets": entries}, ensure_ascii=False), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "statdiv.cli", "dist", "--manifest", str(manifest),
             "--divergence", "hellinger", "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        )
        assert (result.returncode, result.stderr) == (0, "")
        sidecar = json.loads((tmp_path / "out" / "divergences.json").read_text(encoding="utf-8"))
        assert sidecar["set_ids"] == ["Zo\u00eb", "s"]

    def test_cli_entry_point_in_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "statdiv.cli", "gen", "--classes", "2",
             "--sets-per-class", "3", "--samples-per-set", "10", "--dim", "2",
             "--out", str(tmp_path / "d")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "d" / "manifest.json").exists()
