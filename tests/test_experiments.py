import hashlib
import json
from pathlib import Path

import pytest

from shellwalk import experiments
from shellwalk.errors import ConfigurationError
from shellwalk.experiments import build_model, preset_config, run_experiment


class TestPresetConfig:
    def test_ferro_paper_parameters(self):
        config = preset_config("ferro2d", "paper")
        assert config.generator_args["side"] == 60
        assert config.beta == pytest.approx(1 / 2.27)
        assert config.gamma == pytest.approx(1 / 2.27)
        assert config.k_min == config.k_max == 90
        assert config.shell_distance == 1800
        assert config.im_moves == 100_000
        assert config.fair_ratio == 50  # metropolis gets 5e6 moves

    def test_glass_paper_parameters(self):
        config = preset_config("glass3d", "paper")
        assert config.generator_args["side"] == 9
        assert config.shell_distance == 364
        assert (config.k_min, config.k_max) == (1, 25)
        assert config.gamma == 0.8
        assert config.beta == 1.0
        assert config.im_moves == 100_000
        assert config.fair_ratio == 10

    def test_rbm_paper_parameters(self):
        config = preset_config("rbm", "paper")
        assert config.generator_args["num_visible"] == 784
        assert config.generator_args["num_hidden"] == 500
        assert config.shell_distance == 1284 // 3 == 428
        assert (config.k_min, config.k_max) == (1, 20)
        assert config.im_moves == 10_000
        assert config.fair_ratio == 10
        assert config.engine == "scan"

    def test_desk_scale_sizes(self):
        assert preset_config("ferro2d", "desk").generator_args["side"] == 16
        assert preset_config("glass3d", "desk").generator_args["side"] == 5
        rbm = preset_config("rbm", "desk")
        assert rbm.generator_args["num_visible"] == 64
        assert rbm.generator_args["num_hidden"] == 32
        assert rbm.shell_distance == 32

    def test_desk_keeps_ratios(self):
        for preset in ("ferro2d", "glass3d", "rbm"):
            paper = preset_config(preset, "paper")
            desk = preset_config(preset, "desk")
            assert desk.fair_ratio == paper.fair_ratio
            assert desk.gamma == paper.gamma
            assert desk.beta == paper.beta

    def test_unknown_names(self):
        with pytest.raises(ConfigurationError):
            preset_config("nope", "desk")
        with pytest.raises(ConfigurationError):
            preset_config("ferro2d", "galactic")

    @pytest.mark.parametrize("fraction",
                             [-2, -0.5, float("inf"), float("nan"), 1e308])
    def test_bad_burn_in_fraction(self, tmp_path, fraction):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ConfigurationError, match="burn_in_fraction"):
            run_experiment("glass3d", out_dir=out, trials=1, seed=1, im_moves=40,
                           burn_in_fraction=fraction)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name, value", [
        ("im_moves", 0), ("fair_ratio", 0), ("max_lag", 0), ("max_lag", -1),
    ])
    def test_bad_counts_write_nothing(self, tmp_path, name, value):
        out = tmp_path / "out"
        out.mkdir()
        kwargs = dict(trials=1, seed=1, im_moves=40)
        kwargs[name] = value
        with pytest.raises(ConfigurationError, match=name):
            run_experiment("glass3d", out_dir=out, **kwargs)
        assert list(out.iterdir()) == []

    def test_build_model_counts(self):
        model = build_model(preset_config("glass3d", "desk"))
        assert model.num_vars == 125
        assert model.num_edges == 300


def digest_directory(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# sha256 of the whole trace files (header and rows) of one desk trial of 400
# walk moves at seed 4; pins both samplers' trajectories and trace headers
TRACE_FILE_DIGESTS = {
    "ferro2d": {
        "trace_im_000.csv":
            "74204a13fd968b245b04054ff53b8da5aa86a8fc6caba460aac59b7ebb04e286",
        "trace_metropolis_000.csv":
            "a9778129f5be9399524fae5e0151a2e3a6b7c123e9adc79bd17edacc81fd4300",
    },
    "glass3d": {
        "trace_im_000.csv":
            "4c65b2716b52997cada234e1a29dbbeb5d7c80af666718cdfbed797d667b12d9",
        "trace_metropolis_000.csv":
            "12fd9fae649f9b431bedf2d1c225f32e87b86fa3e09c0681b8fd231614fa8644",
    },
    # the scan engine's walk
    "rbm": {
        "trace_im_000.csv":
            "596480e963802c2ad6d7eefc72757cbb952630827a0841a17e56ea0435e02ce7",
        "trace_metropolis_000.csv":
            "6b6235cdfc197c1169d786cf278c0f53ec0b6863eb4be9b566cb5c6ff37c023e",
    },
}

# sha256 of every file but the traces (pinned above) of a two-trial desk
# run at seed 4 with 300 walk moves: the model, the ACF tables, both
# figures, the summary and the manifest
OUTPUT_DIGESTS = {
    "ferro2d": {
        "acf_im.csv":
            "0a2eb8e5daef6801e44f88c1b11b0c93cf5fc059add505afd7915cee3e8da99c",
        "acf_metropolis.csv":
            "453fe4e2548d7e455799724f62213c09f0d15588e9a745c455708504f3feaf08",
        "acf_overlay.svg":
            "bddcaf381249a2087ad3e0a9213065c827756bf730c5e88cabe4bcaceba083d1",
        "energy_overlay.svg":
            "b3f4641613efe205e1b89518d20718cb5fb177eb9b65c59e74dae650971f8f9c",
        "manifest.json":
            "7f20988c664710aee1bd49d9f66bfb3bb7b96a3cb937678092bfa9d57b23a576",
        "model.json":
            "bb4c5b6b34e7877e080c9b424c8b453eca1e214d3e65bde186c95cab2ac24d13",
        "summary.json":
            "8308c111eebc350ff0fe1a20a18c228f1d1b96dfa314398cde935f67a6164945",
    },
    "glass3d": {
        "acf_im.csv":
            "1c3f20d61e2b54f66eb4221ec0a4652353b118e36fbb4f5aca84db20416997a1",
        "acf_metropolis.csv":
            "8293775f3c999c01fb9cde36817eaf4b54372807ee046088ad871bdb91f92770",
        "acf_overlay.svg":
            "540772059da0c92f8cbc78118fbac84cbae9fdf15f8aaa61e4b0f4550c708ca9",
        "energy_overlay.svg":
            "6b3570a52198908bbe8daae04f2367a8c1e3adebc4bdc47d6435b94736d559cb",
        "manifest.json":
            "bd4ace4c8ef61670005dc1ffef4a635438776629d43c6b7bfe17fd86dd441581",
        "model.json":
            "3435005436d2b774a9be4513a0ddf97d6b9b9d826b32d988cb13bba6bc247d5d",
        "summary.json":
            "7da1f0dba72c0d53f4d91ac326ba918fa811d6949c4e939a7a4887bdd5067a9f",
    },
    "rbm": {
        "acf_im.csv":
            "3daf15f4e04e160a8375c11f95c325b3845d0a3d4b5016b6583374962b59ce50",
        "acf_metropolis.csv":
            "f524b529b9bdcfab5dc69673c092c995fcc4e2a305aa6784af76a5b913be11e1",
        "acf_overlay.svg":
            "5be69f3ca4e7267eac5b83668da1cb9da90ace1f9e85e3ce4d51a929307b0f97",
        "energy_overlay.svg":
            "f5dc107d1f026ff3ddbdee41bfb852f2d55d0bf73483a2332628a7a0aac0ef5e",
        "manifest.json":
            "044044588d2ddb6da7dfc9fe22413d4f369210f32a468762473fe8c4d2f90ec2",
        "model.json":
            "ab9ea0f9f65b62dcc4aa9f9f002a3d95968e6de2ac2da14456c46c7f51279472",
        "summary.json":
            "243cf4d04d28b35f9cc5cba3bc3c82806afb19023476b00307fa347c598b0d2f",
    },
}


class TestRunExperiment:
    def test_small_run_outputs(self, tmp_path):
        summary = run_experiment(
            "glass3d", scale="desk", out_dir=tmp_path / "out",
            trials=2, seed=5, im_moves=120, max_lag=20,
        )
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert names == {
            "model.json", "summary.json", "manifest.json",
            "acf_im.csv", "acf_metropolis.csv",
            "acf_overlay.svg", "energy_overlay.svg",
            "trace_im_000.csv", "trace_im_001.csv",
            "trace_metropolis_000.csv", "trace_metropolis_001.csv",
        }
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {entry["path"] for entry in manifest["files"]}
        assert listed == names
        for sampler in ("im", "metropolis"):
            stats = summary["samplers"][sampler]
            assert len(stats["tau_int"]) == 2
            assert len(stats["final_quarter_energy"]) == 2
            assert 0.0 <= stats["acceptance_rate_mean"] <= 1.0
        assert summary["tau_ratio_met_over_im"] > 0

    @pytest.mark.parametrize("preset", sorted(TRACE_FILE_DIGESTS))
    def test_trace_files_are_pinned(self, tmp_path, preset):
        run_experiment(preset, scale="desk", out_dir=tmp_path, trials=1, seed=4,
                       im_moves=400)
        digests = digest_directory(tmp_path)
        for name, digest in TRACE_FILE_DIGESTS[preset].items():
            assert digests[name] == digest, name

    def test_output_files_are_pinned(self, tmp_path):
        for preset, pinned in OUTPUT_DIGESTS.items():
            run_experiment(preset, scale="desk", out_dir=tmp_path / preset,
                           trials=2, seed=4, im_moves=300)
            digests = digest_directory(tmp_path / preset)
            for name, digest in pinned.items():
                assert digests[name] == digest, (preset, name)
            assert {n for n in digests if not n.startswith("trace_")} == set(pinned)

    def test_rerun_is_byte_identical(self, tmp_path):
        kwargs = dict(scale="desk", trials=2, seed=9, im_moves=100, max_lag=15)
        run_experiment("glass3d", out_dir=tmp_path / "a", **kwargs)
        run_experiment("glass3d", out_dir=tmp_path / "b", **kwargs)
        assert digest_directory(tmp_path / "a") == digest_directory(tmp_path / "b")

    def test_worker_pool_matches_serial(self, tmp_path):
        kwargs = dict(scale="desk", trials=2, seed=3, im_moves=80, max_lag=10)
        run_experiment("glass3d", out_dir=tmp_path / "serial", workers=1, **kwargs)
        run_experiment("glass3d", out_dir=tmp_path / "pooled", workers=2, **kwargs)
        assert digest_directory(tmp_path / "serial") == digest_directory(
            tmp_path / "pooled"
        )

    def test_serial_run_builds_the_model_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config)
            return build_model(config)

        monkeypatch.setattr(experiments, "build_model", counted)
        run_experiment("glass3d", out_dir=tmp_path / "out", workers=1,
                       trials=2, seed=3, im_moves=40, max_lag=10)
        assert len(calls) == 1

    def test_metropolis_gets_fair_ratio_moves(self, tmp_path):
        summary = run_experiment(
            "rbm", scale="desk", out_dir=tmp_path / "out",
            trials=2, seed=1, im_moves=60, max_lag=10,
        )
        im = summary["samplers"]["im"]
        met = summary["samplers"]["metropolis"]
        assert met["moves_per_trial"] == 10 * im["moves_per_trial"]
        assert met["record_stride"] == 10
