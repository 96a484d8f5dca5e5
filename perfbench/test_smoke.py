"""Seconds-long smoke test of the benchmark at its tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
from pathlib import Path

import pytest

import run
from shellwalk import cli, experiments
from tracer import Tracer

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def _last_json(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_unit(capsys, workload, trace):
    result = _last_json(capsys, ["--workload", workload, "--seed", str(SEED),
                                 "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
    assert result["attempted"] >= 1
    if workload != "verify-small":
        # the TV threshold needs the full sample count, so only the
        # experiment workloads must come out correct at the tiny size
        assert result["correct"] and result["failed"] == 0
    if trace:
        calls = result["metrics"]["weighted_index.calls"]["value"]
        # the filter model runs the scan engine, which has no sum tree
        assert (calls == 0) == (workload == "rbm-desk")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.EXPERIMENTS))
def test_pipeline_writes_the_experiment_bytes(tmp_path, workload):
    config = run.experiment_config(workload, SEED, tiny=True)
    result = run.experiment_pass(workload, SEED, True, tmp_path / "bench", traced=False)
    assert not result.failures
    experiments.run_experiment(
        config.preset, scale=config.scale, out_dir=tmp_path / "cli",
        trials=config.trials, seed=SEED, workers=1, im_moves=config.im_moves)
    written = sorted(p.name for p in (tmp_path / "bench").iterdir())
    assert "trace_im_000.csv" in written and "acf_overlay.svg" in written
    for name in written:
        assert (tmp_path / "bench" / name).read_bytes() == \
            (tmp_path / "cli" / name).read_bytes(), name


def test_verify_pass_matches_the_cli_battery():
    sizes = run.VERIFY["tiny"]
    with Tracer(full=False) as tracer:
        result = run.verify_pass(SEED, True, tracer, traced=False)
    report = {}
    cli._verify_kernel(report)
    cli._verify_pathwise(report, sizes["pathwise_moves"], SEED, 0.0)
    cli._verify_tv(report, sizes["tv_samples"], SEED)
    for key, value in result.report.items():
        assert value == report[key], key
