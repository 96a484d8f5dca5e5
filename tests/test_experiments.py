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

    @pytest.mark.parametrize("fraction", [-2, -0.5, float("inf"), float("nan")])
    def test_bad_burn_in_fraction(self, tmp_path, fraction):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ConfigurationError, match="burn_in_fraction"):
            run_experiment("glass3d", out_dir=out, trials=1, seed=1, im_moves=40,
                           burn_in_fraction=fraction)
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
