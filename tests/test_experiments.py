import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from shellwalk import experiments
from shellwalk.errors import ConfigurationError
from shellwalk.experiments import (
    build_model,
    chain_specs,
    preset_config,
    run_experiment,
)
from shellwalk.samplers import ChainSpec


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

    def test_fractional_seed_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            preset_config("glass3d", "desk", seed=1.5)
        config = preset_config("glass3d", "desk", seed=2.0)
        assert config == preset_config("glass3d", "desk", seed=2)
        assert type(config.generator_args["seed"]) is int

    @pytest.mark.parametrize("name, value", [
        ("trials", 2.0), ("trials", np.int64(2)), ("im_moves", 40.0),
        ("im_moves", np.int64(40)), ("fair_ratio", 2.0),
        ("fair_ratio", np.int64(2)), ("max_lag", 5.0), ("max_lag", np.int64(5)),
    ])
    def test_whole_number_settings_are_stored_as_int(self, name, value):
        kwargs = dict(im_moves=40)
        kwargs[name] = value
        config = preset_config("glass3d", "desk", **kwargs)
        assert getattr(config, name) == value
        assert type(getattr(config, name)) is int

    @pytest.mark.parametrize("fraction",
                             [-2, -0.5, float("inf"), float("nan"), 1e308])
    def test_bad_burn_in_fraction(self, tmp_path, fraction):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ConfigurationError, match="burn_in_fraction"):
            run_experiment("glass3d", out_dir=out, trials=1, seed=1, im_moves=40,
                           burn_in_fraction=fraction)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name, value, error", [
        ("im_moves", 0, ConfigurationError), ("fair_ratio", 0, ConfigurationError),
        ("max_lag", 0, ConfigurationError), ("max_lag", -1, ConfigurationError),
        ("trials", 0, ConfigurationError),
        # refused, not truncated to 1, 40, 2 and 5
        ("trials", 1.5, ValueError), ("im_moves", 40.7, ValueError),
        ("fair_ratio", 2.9, ValueError), ("max_lag", 5.5, ValueError),
    ])
    def test_bad_counts_write_nothing(self, tmp_path, name, value, error):
        out = tmp_path / "out"
        out.mkdir()
        kwargs = dict(trials=1, seed=1, im_moves=40)
        kwargs[name] = value
        with pytest.raises(error, match=name):
            run_experiment("glass3d", out_dir=out, **kwargs)
        assert list(out.iterdir()) == []

    def test_build_model_counts(self):
        model = build_model(preset_config("glass3d", "desk"))
        assert model.num_vars == 125
        assert model.num_edges == 300


@pytest.fixture
def start_method(request):
    """Start the test's process pools by the method it is parametrized with,
    and restore the previous method afterwards."""
    method = request.param
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    yield method
    multiprocessing.set_start_method(previous, force=True)


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
    # the scan engine's walk, and swaps that read the scan engine's fields
    "rbm": {
        "trace_im_000.csv":
            "596480e963802c2ad6d7eefc72757cbb952630827a0841a17e56ea0435e02ce7",
        "trace_metropolis_000.csv":
            "b3f03ff523161ae1efa9b957bc2537833903ff610295c66b4c6e59f96c11a895",
    },
}

# sha256 of both trace files of one paper-scale glass3d trial of 200 walk
# moves at seed 4: M = 729 on a 1024-leaf sum tree, so 295 leaves are padding
# and neighbours 81 apart meet a flipped bit's leaf-to-root path near the root
PAPER_GLASS_TRACE_DIGESTS = {
    "trace_im_000.csv":
        "1219234e724a5ef4ff2a2cf375033fc3917e9dcf0f064a9fa5bf65dad9efcf42",
    "trace_metropolis_000.csv":
        "b75303b403e90b2e6b87a0d1aa1131c13f38ec86a52350099df7d4461c8a9b69",
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
            "7b64c49be9393adf80165967b7b8212e69dc53a7e44269d81f25d5719153777b",
        "acf_overlay.svg":
            "5be69f3ca4e7267eac5b83668da1cb9da90ace1f9e85e3ce4d51a929307b0f97",
        "energy_overlay.svg":
            "f5dc107d1f026ff3ddbdee41bfb852f2d55d0bf73483a2332628a7a0aac0ef5e",
        "manifest.json":
            "044044588d2ddb6da7dfc9fe22413d4f369210f32a468762473fe8c4d2f90ec2",
        "model.json":
            "ab9ea0f9f65b62dcc4aa9f9f002a3d95968e6de2ac2da14456c46c7f51279472",
        "summary.json":
            "f3866c05dfbc3909e7ee91c9578dab2f9578d03cab14761315bdd2bc889e179d",
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

    def test_paper_glass_traces_are_pinned(self, tmp_path):
        run_experiment("glass3d", scale="paper", out_dir=tmp_path, trials=1,
                       seed=4, im_moves=200, workers=1)
        digests = digest_directory(tmp_path)
        for name, digest in PAPER_GLASS_TRACE_DIGESTS.items():
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

    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"],
                             indirect=True)
    def test_worker_pool_matches_serial(self, tmp_path, start_method):
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

    @pytest.mark.parametrize("start_method", ["fork"], indirect=True)
    def test_forked_pool_reuses_the_coordinator_model(self, tmp_path, monkeypatch,
                                                      start_method):
        builds = tmp_path / "builds"

        def counted(config):
            with open(builds, "a") as log:
                log.write(f"{os.getpid()}\n")
            return build_model(config)

        monkeypatch.setattr(experiments, "build_model", counted)
        run_experiment("glass3d", out_dir=tmp_path / "out", workers=2,
                       trials=4, seed=3, im_moves=40, max_lag=10)
        assert builds.read_text().split() == [str(os.getpid())]
        assert experiments._worker_model is None

    def test_failed_pooled_run_leaves_no_model_in_the_coordinator(self, tmp_path):
        def interrupted(spec):
            raise RuntimeError("stopped after the first chain")

        with pytest.raises(RuntimeError, match="stopped"):
            run_experiment("glass3d", out_dir=tmp_path / "out", workers=2,
                           trials=2, seed=3, im_moves=40, max_lag=10,
                           progress=interrupted)
        assert experiments._worker_model is None

    @pytest.mark.parametrize("start_method", ["fork"], indirect=True)
    def test_failed_pooled_run_cancels_chains_no_worker_started(
            self, tmp_path, monkeypatch, start_method):
        runs = tmp_path / "runs"
        run = ChainSpec.run

        def counted(spec, model, audit=False):
            with open(runs, "a") as log:
                log.write(f"{spec.sampler}-{spec.trial}\n")
            return run(spec, model, audit)

        def interrupted(spec):
            raise RuntimeError("stopped after the first chain")

        # forked workers inherit the counting run
        monkeypatch.setattr(ChainSpec, "run", counted)
        config = preset_config("glass3d", "desk", trials=10, seed=3,
                               im_moves=1500, max_lag=10)
        with pytest.raises(RuntimeError, match="stopped"):
            experiments.run_config(config, out_dir=tmp_path / "out", workers=2,
                                   progress=interrupted)
        assert len(runs.read_text().split()) < len(chain_specs(config))

    def test_metropolis_gets_fair_ratio_moves(self, tmp_path):
        summary = run_experiment(
            "rbm", scale="desk", out_dir=tmp_path / "out",
            trials=2, seed=1, im_moves=60, max_lag=10,
        )
        im = summary["samplers"]["im"]
        met = summary["samplers"]["metropolis"]
        assert met["moves_per_trial"] == 10 * im["moves_per_trial"]
        assert met["record_stride"] == 10
