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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rbm_non_finite_weight_is_a_file_error(self, tmp_path, capsys, value):
        weights = tmp_path / "w.csv"
        weights.write_text(f"0.5,0.5,0.5\n-1,{value},1\n", encoding="utf-8")
        out = tmp_path / "rbm.json"
        assert run_cli("gen", "rbm", "--weights", weights, "--out", out) == 3
        assert "file error: line 2" in capsys.readouterr().err
        assert not out.exists()

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
        "1e5f4ca7462fc18d12a93ae98f1da582014d74679e02de741f5eba9faffddd11",
    "trace_im_001.csv":
        "49564582a0ffa5723f5f4491fe64f59ce67039eee8a656118508b334c49db8a8",
    "trace_metropolis_000.csv":
        "6acb55901a931bdf2f8ccfc315f767ba85b12f345b73645432ffb88520f1b0df",
    "trace_metropolis_001.csv":
        "ad34b3a4cd995b4fb51862360fa0a93e493b1ae50b54f424c05ab82e52d8c32d",
}

# the same for test_float_coupling_traces_are_pinned: couplings and fields
# that are not integers, so a reordered floating-point sum changes the bytes
FLOAT_TRACE_DIGESTS = {
    "trace_im_000.csv":
        "c58dcf0779f5cac09ed901595ad7f88df5cbb7ffe4203063936e2899fb024b76",
    "trace_im_001.csv":
        "a3d7bd8947ff016b1fcf8e5c76ecc0ff99933f45340c8e0e46b16a24426c9d43",
    "trace_metropolis_000.csv":
        "eaf62d8f9d68f78aeb24efdc3ffc872b1f30eba82c709e65b979a4a267dcd09a",
    "trace_metropolis_001.csv":
        "9fb273d51b411a5d707c84054ad16786d85f1225e5ea6d8f92b791e2c78fe3a0",
}


# sha256 of the analyze directory of test_overlay_outputs_are_pinned: an
# overlay of walk and Metropolis sample traces at --fair-ratio 10
ANALYZE_DIGESTS = {
    "acf_im.csv":
        "3628b168b339745d29af162e3ff428d161a3813ff66d6bcfaa048697a3cbc481",
    "acf_metropolis.csv":
        "dfc54d7d898f886f4fd46901ef385e38c4df617b641169c0cc0348df7e8c9987",
    "acf_overlay.svg":
        "eb0be61fd9d3aa33b42463836b6fd33579dfb135a47a12c09172089844974245",
    "manifest.json":
        "38cd501740a6699e9ace300ffb4fb3c60fae5535126ce8c2340ad65bc7d3a07a",
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

    def test_n_fraction_floors_the_shell_distance(self, small_model, tmp_path):
        # half of the 9 grid bits, rounded down
        out = tmp_path / "o"
        assert run_cli("sample", "--model", small_model, "--sampler", "im",
                       "--beta", 0.4, "--n-fraction", 0.5, "--moves", 20,
                       "--out", out) == 0
        assert "# n=4\n" in (out / "trace_im_000.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["n"] == 4

    @pytest.mark.parametrize("fraction", ["inf", "nan", "1e308"])
    def test_bad_n_fraction_is_usage_error(self, small_model, tmp_path, capsys,
                                           fraction):
        out = tmp_path / "o"
        assert run_cli("sample", "--model", small_model, "--sampler", "im",
                       "--beta", 0.4, "--n-fraction", fraction, "--moves", 10,
                       "--out", out) == 1
        assert "--n-fraction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("temperatures", [
        ("--beta", "-1"), ("--beta", "nan"), ("--beta", "0.4", "--gamma", "inf")],
        ids=["beta-negative", "beta-nan", "gamma-inf"])
    def test_bad_temperature_names_its_flag(self, small_model, tmp_path, capsys,
                                            temperatures):
        # gamma defaults to beta, so a bad beta must not read as a bad gamma
        out = tmp_path / "o"
        assert run_cli("sample", "--model", small_model, "--sampler", "metropolis",
                       *temperatures, "--n", 4, "--moves", 10, "--out", out) == 1
        flag, value = temperatures[-2:]
        err = capsys.readouterr().err
        assert f"argument {flag}: must be finite and >= 0, got {value}" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("args", [
        ("--sampler", "metropolis", "--n", 0),
        ("--sampler", "im", "--n", 2, "--k", 5),
        # every trace header records the walk settings, so both samplers
        # refuse invalid ones
        ("--sampler", "im", "--n", 4, "--gamma", -1),
        ("--sampler", "im", "--n", 4, "--k-min", 3, "--k-max", 2),
        ("--sampler", "metropolis", "--n", 4, "--gamma", -1),
        ("--sampler", "metropolis", "--n", 4, "--k-min", 3, "--k-max", 2),
        # --k fixes both walk bounds, so it cannot go with either of them
        ("--sampler", "im", "--n", 4, "--k", 2, "--k-min", 1, "--k-max", 3),
        ("--sampler", "im", "--n", 4, "--k", 2, "--k-max", 2),
    ])
    def test_refused_configuration_writes_nothing(self, small_model, tmp_path,
                                                  args):
        out = tmp_path / "o"
        assert run_cli("sample", "--model", small_model, "--beta", 0.4,
                       "--moves", 10, *args, "--out", out) == 1
        assert not out.exists()

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

    def test_overlay_outputs_are_pinned(self, small_model, tmp_path,
                                        monkeypatch):
        traces = self.make_traces(small_model, tmp_path)
        # relative trace paths keep the manifest free of the temporary
        # directory
        monkeypatch.chdir(tmp_path)
        assert run_cli("analyze", *[t.relative_to(tmp_path) for t in traces],
                       "--max-lag", 50, "--fair-ratio", 10, "--out", "acf") == 0
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "acf").iterdir()
        } == ANALYZE_DIGESTS

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


    def test_fair_ratio_off_a_stride_multiple(self, small_model, tmp_path):
        # a walk sample costs 4 Metropolis moves and a Metropolis sample 10:
        # the walk curve keeps every sample, at lag unit 0.4
        traces = self.make_traces(small_model, tmp_path)
        out = tmp_path / "acf"
        assert run_cli("analyze", *traces, "--max-lag", 50,
                       "--fair-ratio", 4, "--out", out) == 0
        im_lags = acf_lags(out / "acf_im.csv")
        assert len(im_lags) == 126
        assert im_lags == pytest.approx([0.4 * t for t in range(126)])
        assert acf_lags(out / "acf_metropolis.csv") == [float(t) for t in range(51)]

    def test_reproduces_experiment_acf(self, tmp_path):
        exp = tmp_path / "exp"
        assert run_cli("experiment", "glass3d", "--trials", 2, "--seed", 5,
                       "--im-moves", 120, "--max-lag", 20, "--workers", 1,
                       "--out", exp) == 0
        out = tmp_path / "acf"
        assert run_cli("analyze", *sorted(exp.glob("trace_*.csv")),
                       "--max-lag", 20, "--out", out) == 0
        for name in ("acf_im.csv", "acf_metropolis.csv"):
            assert (out / name).read_bytes() == (exp / name).read_bytes()

    def test_unpriced_overlay_names_fair_ratio(self, small_model, tmp_path, capsys):
        traces = self.make_traces(small_model, tmp_path, moves=200)
        assert run_cli("analyze", *traces, "--out", tmp_path / "acf") == 1
        assert "--fair-ratio" in capsys.readouterr().err
        assert not (tmp_path / "acf").exists()

    def test_one_sampler_at_two_costs_is_refused(self, small_model, tmp_path,
                                                  capsys):
        traces = []
        for stride in (10, 5):
            out = tmp_path / f"stride{stride}"
            run_cli("sample", "--model", small_model, "--sampler", "metropolis",
                    "--beta", 0.44, "--n", 4, "--moves", 1000,
                    "--stride", stride, "--seed", 4, "--out", out)
            traces.append(out / "trace_metropolis_000.csv")
        assert run_cli("analyze", *traces, "--fair-ratio", 10, "--max-lag", 10,
                       "--out", tmp_path / "acf") == 1
        err = capsys.readouterr().err
        assert "10.0 in" in err and "5.0 in" in err

    @pytest.mark.parametrize("header", ["", "# sampler=gibbs\n"],
                             ids=["no-sampler", "unknown-sampler"])
    def test_unpriceable_sampler_in_an_overlay_is_refused(
            self, small_model, tmp_path, capsys, header):
        # once priced as a Metropolis trace: lag unit 0.1 beside its own copy
        traces = self.make_traces(small_model, tmp_path, moves=200)
        walk = traces[0]
        assert walk.name == "trace_im_000.csv"
        stripped = tmp_path / "stripped.csv"
        text = walk.read_text(encoding="utf-8")
        assert "# sampler=im\n" in text
        stripped.write_text(text.replace("# sampler=im\n", header), encoding="utf-8")
        assert run_cli("analyze", walk, stripped, "--fair-ratio", 10,
                       "--out", tmp_path / "acf") == 1
        assert "stripped.csv" in capsys.readouterr().err
        assert not (tmp_path / "acf").exists()

    @pytest.mark.parametrize("rows, where", [
        ("0,1.0,1,0\n1\n", "bad.csv:4"),
        ("0,1.0,1,0\n1,nan,1,0\n", "bad.csv:4"),
        ("0,1.0,1,0\n1,high,1,0\n", "bad.csv:4"),
        ("0,1.0,1,0\nx,1.0,y,z\n", "bad.csv:4"),
        ("", "bad.csv: no data rows"),
    ], ids=["one-field", "nan", "not-a-number", "not-integers", "no-rows"])
    def test_malformed_trace_is_a_file_error(self, tmp_path, capsys, rows, where):
        path = tmp_path / "bad.csv"
        path.write_text("# sampler=im\nstep,energy,accepted,k\n" + rows,
                        encoding="utf-8")
        assert run_cli("analyze", path, "--max-lag", 1,
                       "--out", tmp_path / "o") == 3
        assert where in capsys.readouterr().err
        assert not list(tmp_path.rglob("acf_*.csv"))

    @pytest.mark.parametrize("header, where, key", [
        ("# sampler=im\n# stride=abc\n", "bad.csv:2", "stride"),
        ("# sampler=im\n# moves=12\n# seed=inf\n", "bad.csv:3", "seed"),
        ("# beta=\n# sampler=im\n", "bad.csv:1", "beta"),
        ("# sampler=im\n# stride=0\n", "bad.csv:2", "stride"),
        ("# sampler=im\n# cost_per_sample=inf\n", "bad.csv:2", "cost_per_sample"),
        # integer keys must be spelled as integers
        ("# sampler=im\n# stride=2.5\n", "bad.csv:2", "stride"),
        ("# moves=1e3\n# sampler=im\n", "bad.csv:1", "moves"),
        ("# sampler=im\n# seed=7.0\n", "bad.csv:2", "seed"),
        ("# sampler=im\n# trial=0.5\n", "bad.csv:2", "trial"),
    ], ids=["stride", "seed-inf", "beta-empty", "stride-0", "cost-inf",
            "stride-fraction", "moves-exponent", "seed-float", "trial-fraction"])
    def test_bad_header_value_is_a_file_error(self, tmp_path, capsys, header,
                                              where, key):
        path = tmp_path / "bad.csv"
        rows = "".join(f"{i},{(-1.0) ** i},1,0\n" for i in range(10))
        path.write_text(header + "step,energy,accepted,k\n" + rows,
                        encoding="utf-8")
        assert run_cli("analyze", path, "--max-lag", 2,
                       "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert where in err and key in err
        assert not list(tmp_path.rglob("acf_*.csv"))

    def test_short_trace_caps_lag_with_a_note(self, small_model, tmp_path,
                                              capsys):
        run_cli("sample", "--model", small_model, "--sampler", "im",
                "--beta", 0.44, "--k-min", 1, "--k-max", 3, "--n", 4,
                "--moves", 3, "--seed", 2, "--out", tmp_path / "runs")
        trace = tmp_path / "runs" / "trace_im_000.csv"
        capsys.readouterr()
        assert run_cli("analyze", trace, "--max-lag", 5,
                       "--out", tmp_path / "long") == 0
        captured = capsys.readouterr()
        assert f"{trace} has 3 rows, so its lags stop at 1, not 5" in captured.err
        assert "tau_int" in captured.out
        # the same bytes as asking for the lag that fits, which prints no note
        assert run_cli("analyze", trace, "--max-lag", 1,
                       "--out", tmp_path / "fits") == 0
        assert "note" not in capsys.readouterr().err
        assert acf_lags(tmp_path / "long" / "acf_im.csv") == [0.0, 1.0]
        assert ((tmp_path / "long" / "acf_im.csv").read_bytes()
                == (tmp_path / "fits" / "acf_im.csv").read_bytes())

    @pytest.mark.parametrize("ratio", ["0", "-3"])
    def test_nonpositive_fair_ratio_is_usage_error(self, tmp_path, ratio):
        assert run_cli("analyze", tmp_path / "t.csv", "--fair-ratio", ratio,
                       "--out", tmp_path / "o") == 1


def acf_lags(path):
    return [float(row.split(",")[0]) for row in path.read_text().splitlines()[1:]]


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
        assert report_path.read_bytes() == captured.out.encode()

    def test_missing_out_directory_runs_nothing(self, tmp_path, capsys,
                                                monkeypatch):
        def battery_ran(report):
            raise AssertionError("the battery ran before --out was checked")

        monkeypatch.setattr("shellwalk.cli._verify_kernel", battery_ran)
        code = run_cli("verify", "--pathwise-moves", 10, "--tv-samples", 500,
                       "--out", tmp_path / "nodir" / "r.json")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("I/O error:")
        assert "nodir" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_directory_as_out_runs_nothing(self, tmp_path, capsys,
                                           monkeypatch):
        def battery_ran(report):
            raise AssertionError("the battery ran before --out was checked")

        monkeypatch.setattr("shellwalk.cli._verify_kernel", battery_ran)
        out = tmp_path / "report.json"
        out.mkdir()
        code = run_cli("verify", "--pathwise-moves", 10, "--tv-samples", 500,
                       "--out", out)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("I/O error:")
        assert "report.json" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    def test_failed_write_still_prints_the_report(self, tmp_path, capsys,
                                                  monkeypatch):
        def refuse(path, doc):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("shellwalk.analysis.write_json", refuse)
        code = run_cli("verify", "--pathwise-moves", 10, "--tv-samples", 500,
                       "--seed", 7, "--out", tmp_path / "r.json")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("I/O error:")
        assert set(json.loads(captured.out)) >= {"passed", "thresholds", "tv"}

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

    def test_verbose_reports_each_chain(self, tmp_path, capsys):
        assert run_cli("experiment", "glass3d", "--trials", 2, "--im-moves", 20,
                       "--max-lag", 3, "--workers", 1, "--verbose",
                       "--out", tmp_path / "exp") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == [
            "finished im trial 0 (20 moves)",
            "finished metropolis trial 0 (200 moves)",
            "finished im trial 1 (20 moves)",
            "finished metropolis trial 1 (200 moves)",
        ]
        assert lines[4].startswith("glass3d (desk): n=63")

    def test_short_run_caps_the_default_lag(self, tmp_path, capsys):
        # 5 recorded rows per chain: the longest lag that fits is 3
        out = tmp_path / "exp"
        assert run_cli("experiment", "glass3d", "--trials", 1, "--im-moves", 5,
                       "--workers", 1, "--out", out) == 0
        for name in ("acf_im.csv", "acf_metropolis.csv"):
            assert acf_lags(out / name) == [0.0, 1.0, 2.0, 3.0]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["max_lag"] == 3
        assert "note" not in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (("--im-moves", 2), ("im_moves", "2")),
        (("--im-moves", 5, "--max-lag", 4), ("max_lag 4", "im_moves 5")),
    ], ids=["im-moves-2", "max-lag-past-trace"])
    def test_lag_past_the_trace_is_refused(self, tmp_path, capsys, args, named):
        out = tmp_path / "exp"
        out.mkdir()
        assert run_cli("experiment", "glass3d", "--trials", 1, "--workers", 1,
                       *args, "--out", out) == 1
        err = capsys.readouterr().err
        assert all(text in err for text in named), err
        assert list(out.iterdir()) == []

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
@pytest.mark.parametrize("fraction", ["-0.5", "inf", "1e308"])
def test_bad_burn_in_fraction(small_model, tmp_path, capsys, command, fraction):
    if command == "sample":
        args = ("sample", "--model", small_model, "--sampler", "im",
                "--beta", 0.4, "--n", 4, "--moves", 200)
    else:
        args = ("experiment", "glass3d", "--trials", 1, "--im-moves", 50,
                "--workers", 1)
    assert run_cli(*args, "--burn-in-fraction", fraction,
                   "--out", tmp_path / "o") == 1
    # the flag, or the preset_config argument for an overflowing product
    assert "burn-in-fraction" in capsys.readouterr().err.replace("_", "-")
    assert not list(tmp_path.rglob("trace_*.csv"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen", "sample", "verify", "experiment"])
def test_non_integer_env_seed_is_a_usage_error(small_model, tmp_path, capsys,
                                               monkeypatch, command):
    monkeypatch.setenv("SHELLWALK_SEED", "abc")
    out = tmp_path / "o"
    args = {
        "gen": ("gen", "cube3d", "--side", 2),
        "sample": ("sample", "--model", small_model, "--sampler", "im",
                   "--beta", 0.4, "--n", 4, "--moves", 20),
        "verify": ("verify",),
        "experiment": ("experiment", "glass3d", "--trials", 1,
                       "--im-moves", 50, "--workers", 1),
    }[command]
    assert run_cli(*args, "--out", out) == 1
    err = capsys.readouterr().err
    assert "error: SHELLWALK_SEED must be an integer, got 'abc'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "analyze", "gen"])
def test_non_utf8_file_is_a_file_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe{}\n")
    out = tmp_path / "o"
    args = {
        "sample": ("sample", "--model", path, "--sampler", "im", "--beta", 0.4,
                   "--n", 1, "--moves", 10),
        "analyze": ("analyze", path),
        "gen": ("gen", "rbm", "--weights", path),
    }[command]
    assert run_cli(*args, "--out", out) == 3
    assert capsys.readouterr().err.startswith("file error: 'utf-8' codec")
    assert not out.exists()
