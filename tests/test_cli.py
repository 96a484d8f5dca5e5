import hashlib
import json

import pytest

from shellwalk.cli import main
from shellwalk.generators import load_model


def run_cli(*args):
    return main([str(a) for a in args])


class TestGen:
    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert run_cli("gen", "grid2d", "--side", 60, "--coupling", 1,
                       "--field", 0, "--out", out) == 0
        assert "3600 variables, 7080 edges" in capsys.readouterr().out
        model = load_model(out)
        assert model.num_vars == 3600

    def test_cube(self, tmp_path, capsys):
        out = tmp_path / "cube.json"
        assert run_cli("gen", "cube3d", "--side", 9, "--seed", 7,
                       "--out", out) == 0
        assert "729 variables, 1944 edges" in capsys.readouterr().out

    def test_rbm_counts(self, tmp_path, capsys):
        out = tmp_path / "rbm.json"
        assert run_cli("gen", "rbm", "--visible", 16, "--hidden", 4,
                       "--seed", 1, "--out", out) == 0
        assert "20 variables, 64 edges" in capsys.readouterr().out

    def test_rbm_from_weights(self, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("0.5,0.5,0.5\n-1,0,1\n", encoding="utf-8")
        out = tmp_path / "rbm.json"
        assert run_cli("gen", "rbm", "--weights", weights, "--out", out) == 0
        assert load_model(out).num_edges == 6

    def test_usage_error_exit_code(self, tmp_path):
        assert run_cli("gen", "grid2d", "--side", 0,
                       "--out", tmp_path / "x.json") == 1

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "m.json"
        assert run_cli("gen", "grid2d", "--side", 2, "--out", missing_dir) == 3


@pytest.fixture
def small_model(tmp_path):
    path = tmp_path / "model.json"
    run_cli("gen", "grid2d", "--side", 3, "--coupling", 1, "--field", 0,
            "--out", path)
    return path


# sha256 of every trace file written by the two sample runs of
# test_trace_files_are_pinned
SAMPLE_TRACE_DIGESTS = {
    "trace_im_000.csv":
        "44126f6a1df9498ded6449ae5ff20a8b2a718e73ab7dc5ae3734af438ddebc75",
    "trace_im_001.csv":
        "2dd5e474021eb647695d38cc3044f0cdb4c25028d53ae1ee567ded6108d83419",
    "trace_metropolis_000.csv":
        "026f5168dcf69c0c7f99485fbc9ee4fe9f476f752ac3ef259c03aa09f64c19b3",
    "trace_metropolis_001.csv":
        "77bd55f82af7dd021fbac2447697aa58bc954c4ae4a2c544cae3ad79f114a7b4",
}

# the same for test_float_coupling_traces_are_pinned: couplings and fields
# that are not integers, so a reordered floating-point sum changes the bytes
FLOAT_TRACE_DIGESTS = {
    "trace_im_000.csv":
        "b683d989abfe0a5af7707b1cfaa9f2f93d2bb780ee2c8957061b8ce7f114d108",
    "trace_im_001.csv":
        "09dd49bd18d14a392e1d9114b7f4d1266f3c39f24d8316b5c13750d057eaaefd",
    "trace_metropolis_000.csv":
        "b1c52905050a5218213c43d3f38e9e48ee170dd62b3a551df0c02f68f8b66f30",
    "trace_metropolis_001.csv":
        "2c52a4699a796140d9d70ed075bcc102fd7882b152fa812eeb0a53ae47891c47",
}


def trace_digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.glob("trace_*.csv")
    }


class TestSample:
    def test_writes_traces_and_manifest(self, small_model, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(
            "sample", "--model", small_model, "--sampler", "im",
            "--beta", 0.44, "--gamma", 0.4405, "--k", 2, "--n", 4,
            "--moves", 300, "--trials", 2, "--seed", 11, "--out", out,
        )
        assert code == 0
        assert (out / "trace_im_000.csv").exists()
        assert (out / "trace_im_001.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sample"
        text = (out / "trace_im_000.csv").read_text()
        assert "# gamma=0.4405\n" in text
        assert "# beta=0.44\n" in text

    def test_deterministic_rerun(self, small_model, tmp_path):
        args = ("sample", "--model", small_model, "--sampler", "metropolis",
                "--beta", 0.5, "--n", 4, "--moves", 200, "--seed", 3)
        run_cli(*args, "--out", tmp_path / "a")
        run_cli(*args, "--out", tmp_path / "b")
        assert (tmp_path / "a" / "trace_metropolis_000.csv").read_bytes() == (
            tmp_path / "b" / "trace_metropolis_000.csv"
        ).read_bytes()

    def test_zero_moves_is_usage_error(self, small_model, tmp_path):
        assert run_cli("sample", "--model", small_model, "--sampler", "im",
                       "--beta", 0.4, "--n", 4, "--moves", 0,
                       "--out", tmp_path / "o") == 1

    def test_infeasible_shell(self, small_model, tmp_path):
        assert run_cli("sample", "--model", small_model, "--sampler", "im",
                       "--beta", 0.4, "--n", 10, "--moves", 10,
                       "--out", tmp_path / "o") == 1

    def test_trace_files_are_pinned(self, small_model, tmp_path, monkeypatch):
        # whole files, header included; the relative model path keeps the
        # header free of the temporary directory
        monkeypatch.chdir(tmp_path)
        run_cli("sample", "--model", "model.json", "--sampler", "im",
                "--beta", 0.44, "--gamma", 0.4405, "--k-min", 1, "--k-max", 3,
                "--n", 4, "--moves", 300, "--trials", 2, "--seed", 11,
                "--out", "runs")
        run_cli("sample", "--model", "model.json", "--sampler", "metropolis",
                "--beta", 0.5, "--n", 4, "--moves", 2000, "--stride", 10,
                "--trials", 2, "--seed", 3, "--out", "runs")
        assert trace_digests(tmp_path / "runs") == SAMPLE_TRACE_DIGESTS

    def test_float_coupling_traces_are_pinned(self, tmp_path, monkeypatch):
        # audited chains; the Metropolis chains cross the periodic energy
        # refresh several times
        monkeypatch.chdir(tmp_path)
        run_cli("gen", "grid2d", "--side", 4, "--coupling", 0.37,
                "--field", 0.11, "--out", "model.json")
        run_cli("sample", "--model", "model.json", "--sampler", "im",
                "--beta", 0.5, "--gamma", 0.45, "--k-min", 1, "--k-max", 3,
                "--order", "random", "--n", 6, "--moves", 400, "--trials", 2,
                "--seed", 13, "--debug", "--out", "runs")
        run_cli("sample", "--model", "model.json", "--sampler", "metropolis",
                "--beta", 0.5, "--n", 6, "--moves", 40000, "--stride", 20,
                "--trials", 2, "--seed", 7, "--debug", "--out", "runs")
        assert trace_digests(tmp_path / "runs") == FLOAT_TRACE_DIGESTS

    def test_bad_model_values_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"num_vars": 2, "edges": [[0, 1, Infinity]], '
                        '"fields": [0.0, 0.0]}', encoding="utf-8")
        assert run_cli("sample", "--model", path, "--sampler", "im",
                       "--beta", 0.4, "--n", 1, "--moves", 10,
                       "--out", tmp_path / "o") == 3
        assert not (tmp_path / "o").exists()

    def test_missing_model_file(self, tmp_path):
        assert run_cli("sample", "--model", tmp_path / "nope.json",
                       "--sampler", "im", "--beta", 0.4, "--n", 4,
                       "--moves", 10, "--out", tmp_path / "o") == 3


class TestAnalyze:
    def make_traces(self, small_model, tmp_path, moves=2000):
        out = tmp_path / "runs"
        run_cli("sample", "--model", small_model, "--sampler", "im",
                "--beta", 0.44, "--gamma", 0.44, "--k-min", 1, "--k-max", 3,
                "--n", 4, "--moves", moves, "--trials", 2, "--seed", 2,
                "--out", out)
        run_cli("sample", "--model", small_model, "--sampler", "metropolis",
                "--beta", 0.44, "--n", 4, "--moves", moves * 10, "--stride", 10,
                "--trials", 2, "--seed", 4, "--out", out)
        return sorted(out.glob("trace_*.csv"))

    def test_overlay_outputs(self, small_model, tmp_path):
        traces = self.make_traces(small_model, tmp_path)
        out = tmp_path / "acf"
        assert run_cli("analyze", *traces, "--max-lag", 50,
                       "--fair-ratio", 10, "--out", out) == 0
        assert (out / "acf_im.csv").exists()
        assert (out / "acf_metropolis.csv").exists()
        assert (out / "acf_overlay.svg").exists()
        header = (out / "acf_im.csv").read_text().splitlines()[0]
        assert header == "lag,mean,variance"

    def test_identical_inputs_identical_curves(self, small_model, tmp_path):
        traces = self.make_traces(small_model, tmp_path)
        im_traces = [t for t in traces if "im" in t.name]
        run_cli("analyze", *im_traces, "--max-lag", 40, "--out", tmp_path / "x")
        run_cli("analyze", *im_traces, "--max-lag", 40, "--out", tmp_path / "y")
        assert (tmp_path / "x" / "acf_im.csv").read_bytes() == (
            tmp_path / "y" / "acf_im.csv"
        ).read_bytes()

    def test_degenerate_trace_names_file(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{i},5.0,1,0" for i in range(50))
        path.write_text(
            "# sampler=im\n# stride=1\nstep,energy,accepted,k\n" + rows + "\n",
            encoding="utf-8",
        )
        assert run_cli("analyze", path, "--max-lag", 10,
                       "--out", tmp_path / "o") == 1
        assert "flat.csv" in capsys.readouterr().err


class TestVerify:
    def test_passing_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli("verify", "--pathwise-moves", 300,
                       "--tv-samples", 150_000, "--seed", 7,
                       "--out", report_path)
        captured = capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert code == 0, captured.out
        assert report["passed"] is True
        assert report["stationarity_gap"] <= 1e-12
        assert report["max_db_gap"] <= 1e-12
        assert report["max_pathwise_gap"] <= 1e-10
        assert report["tv"] <= 0.02

    def test_corruption_injection_fails(self, tmp_path):
        code = run_cli("verify", "--pathwise-moves", 200,
                       "--tv-samples", 20000, "--seed", 7,
                       "--inject-log-rev-offset", 0.1)
        assert code == 2


class TestExperiment:
    def test_small_experiment(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = run_cli("experiment", "glass3d", "--scale", "desk",
                       "--trials", 2, "--seed", 5, "--im-moves", 100,
                       "--max-lag", 15, "--workers", 1, "--out", out)
        captured = capsys.readouterr()
        assert code == 0
        assert "n=63" in captured.out
        assert (out / "summary.json").exists()
        assert (out / "acf_overlay.svg").exists()
        assert len(list(out.glob("trace_*.csv"))) == 4

    def test_unknown_preset(self, tmp_path):
        assert run_cli("experiment", "quantum", "--out", tmp_path / "x") == 1

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHELLWALK_SEED", "123")
        out = tmp_path / "exp"
        code = run_cli("experiment", "glass3d", "--scale", "desk",
                       "--trials", 1, "--im-moves", 50, "--max-lag", 5,
                       "--out", out)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 123


@pytest.mark.parametrize("command", ["sample", "experiment"])
@pytest.mark.parametrize("fraction", ["-0.5", "inf"])
def test_bad_burn_in_fraction(small_model, tmp_path, command, fraction):
    if command == "sample":
        args = ("sample", "--model", small_model, "--sampler", "im",
                "--beta", 0.4, "--n", 4, "--moves", 200)
    else:
        args = ("experiment", "glass3d", "--trials", 1, "--im-moves", 50,
                "--workers", 1)
    assert run_cli(*args, "--burn-in-fraction", fraction,
                   "--out", tmp_path / "o") == 1
    assert not list(tmp_path.rglob("trace_*.csv"))
