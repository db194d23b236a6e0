import json
import subprocess
import sys

import numpy as np
import pytest

from statdiv.cli import main
from statdiv.experiment import ConfigError, ExperimentConfig, emit_report, load_report, run_experiment


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

    def test_thread_count_does_not_change_report(self, monkeypatch):
        config = ExperimentConfig.from_dict(synthetic_config("nn"))
        monkeypatch.setenv("STATDIV_THREADS", "1")
        a = run_experiment(config)
        monkeypatch.setenv("STATDIV_THREADS", "4")
        b = run_experiment(config)
        assert a.to_dict() == b.to_dict()

    def test_grid_search_reports_chosen_sigma(self):
        raw = synthetic_config("kfda")
        raw["kernel"]["sigma"] = "grid"
        report = run_experiment(ExperimentConfig.from_dict(raw))
        from statdiv.kernels import SIGMA_GRID
        assert all(r["sigma"] in SIGMA_GRID for r in report.repetitions)
        assert report.hyperparameters["sigma_grid"] == list(SIGMA_GRID)

    def test_sigma_grid_builds_gallery_matrix_once_per_repetition(self, monkeypatch):
        # the sigma search and the training Gram share one gallery matrix
        import statdiv.divergence as divergence_mod
        import statdiv.experiment as experiment_mod
        import statdiv.kernels as kernels_mod

        real = divergence_mod.divergence_matrix
        calls = []

        def counting(sets, *args, **kwargs):
            sets = list(sets)
            calls.append(len(sets))
            return real(sets, *args, **kwargs)

        for module in (divergence_mod, kernels_mod, experiment_mod):
            monkeypatch.setattr(module, "divergence_matrix", counting, raising=False)
        raw = synthetic_config("kfda")
        raw["kernel"]["sigma"] = "grid"
        report = run_experiment(ExperimentConfig.from_dict(raw))
        assert calls == [len(r["gallery_ids"]) for r in report.repetitions]

    def test_dr_pipeline_produces_traces(self):
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn_dr")))
        assert len(report.traces) == 2
        for trace in report.traces:
            assert np.all(np.diff(trace[:, 1]) <= 0.0)


class TestEmitReport:
    def test_round_trip_and_companions(self, tmp_path):
        report = run_experiment(ExperimentConfig.from_dict(synthetic_config("nn_dr")))
        emit_report(report, tmp_path)
        assert load_report(tmp_path) == report.to_dict()
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
                                                        ("kernel.json", "family", "svm")])
    def test_classify_with_bad_model_directory(self, tmp_path, capsys, filename, field, value):
        data = tmp_path / "data"
        assert self.run("gen", "--classes", "2", "--sets-per-class", "3",
                        "--samples-per-set", "10", "--dim", "3", "--out", str(data)) == 0
        manifest = str(data / "manifest.json")
        model = tmp_path / "model"
        assert self.run("train-kfda", "--manifest", manifest, "--kernel", "hg",
                        "--out", str(model)) == 0
        meta = json.loads((model / filename).read_text())
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        (model / filename).write_text(json.dumps(meta))
        capsys.readouterr()
        assert self.run("classify", "--gallery", manifest, "--probe", manifest,
                        "--model", str(model), "--out", str(tmp_path / "cls")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if value is None:
            assert str(model / filename) in err and repr(field) in err
        else:
            assert repr(value) in err

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

    def test_cli_entry_point_in_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "statdiv.cli", "gen", "--classes", "2",
             "--sets-per-class", "3", "--samples-per-set", "10", "--dim", "2",
             "--out", str(tmp_path / "d")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "d" / "manifest.json").exists()
