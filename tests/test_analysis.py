import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy import signal

from shellwalk.analysis import (
    AcfCurve,
    EnergyTrace,
    PlotCurve,
    acf,
    average_acf,
    bootstrap_ratio_ci95,
    check_lag_units,
    curve_from_acf,
    emit_svg,
    integrated_time,
    load_trace,
    trial_acf,
    write_acf_csv,
)
from shellwalk.errors import DegenerateTraceError


def ar1_series(coeff, length, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(length)
    series = signal.lfilter([1.0], [1.0, -coeff], noise)
    # discard the transient from the zero initial condition
    return series[min(1000, length // 10):]


class TestAcf:
    def test_lag_zero_is_one(self):
        values = np.random.default_rng(0).standard_normal(500)
        assert acf(values, 10)[0] == 1.0

    def test_white_noise_decorrelates(self):
        rng = np.random.default_rng(1)
        rho = acf(rng.standard_normal(100_000), 50)
        assert np.max(np.abs(rho[1:])) < 0.02

    def test_ar1_closed_form(self):
        series = ar1_series(0.9, 1_000_000, seed=2)
        rho = acf(series, 20)
        expected = 0.9 ** np.arange(21)
        assert np.max(np.abs(rho - expected)) < 0.01

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(5000)
        base = acf(values, 30)
        assert np.allclose(acf(values + 1000.0, 30), base, atol=1e-10)
        assert np.allclose(acf(values * 17.0, 30), base, atol=1e-10)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            acf(np.arange(10.0), 9)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateTraceError):
            acf(np.full(1000, 3.25), 10)


class TestAverageAcf:
    def test_identical_trials_have_zero_variance(self):
        rho = acf(ar1_series(0.5, 20_000, seed=5), 20)
        curve = average_acf([rho, rho, rho])
        assert np.allclose(curve.variance, 0.0)
        assert np.allclose(curve.mean, rho)

    def test_two_trial_formulas(self):
        a = np.array([1.0, 0.5, 0.2])
        b = np.array([1.0, 0.3, 0.0])
        curve = average_acf([a, b], lag_unit=2.0)
        assert np.allclose(curve.mean, [(x + y) / 2 for x, y in zip(a, b)])
        assert np.allclose(curve.variance, [((x - y) / 2) ** 2 for x, y in zip(a, b)])
        assert curve.lags.tolist() == [0.0, 2.0, 4.0]

    def test_ar1_trial_mean(self):
        curves = [acf(ar1_series(0.9, 200_000, seed=10 + t), 10) for t in range(10)]
        curve = average_acf(curves)
        expected = 0.9 ** np.arange(11)
        assert np.max(np.abs(curve.mean - expected)) < 0.02

    def test_single_trial_is_its_own_curve(self):
        rho = np.array([1.0, 0.5, 0.2])
        curve = average_acf([rho], lag_unit=3.0)
        assert curve.mean.tobytes() == rho.tobytes()
        assert curve.variance.tobytes() == np.zeros(3).tobytes()
        assert curve.lags.tobytes() == (np.arange(3.0) * 3.0).tobytes()
        assert curve.num_trials == 1
        with pytest.raises(ValueError):
            average_acf([])


class TestTrialAcf:
    def test_lag_is_capped_by_the_shortest_trace(self):
        rng = np.random.default_rng(1)
        short = EnergyTrace(rng.standard_normal(12))
        long = EnergyTrace(rng.standard_normal(500))
        curve, per_trial = trial_acf([long, short], 100, lag_unit=2.0, label="x")
        assert [len(c) for c in per_trial] == [11, 11]
        assert curve.lags[-1] == 20.0
        assert curve.label == "x"
        assert np.array_equal(curve.mean, (per_trial[0] + per_trial[1]) / 2)

    def test_thinned_trace_on_scaled_lags(self):
        # every other sample of an AR(1) chain, at lag unit 2, traces the
        # full chain's 0.9 ** lag
        series = ar1_series(0.9, 1_000_000, seed=4)
        curve, _ = trial_acf([EnergyTrace(series[::2])], 10, lag_unit=2.0)
        assert curve.lags.tolist() == [2.0 * t for t in range(11)]
        assert np.max(np.abs(curve.mean - 0.9 ** curve.lags)) < 0.01

    def test_degenerate_trace_names_its_path(self):
        flat = EnergyTrace(np.full(20, 3.0), {"path": "flat.csv"})
        with pytest.raises(DegenerateTraceError, match="flat.csv"):
            trial_acf([flat], 5)


class TestIntegratedTime:
    def test_white_noise(self):
        rng = np.random.default_rng(6)
        tau = integrated_time(acf(rng.standard_normal(100_000), 100))
        assert abs(tau - 1.0) < 0.1

    def test_exact_geometric(self):
        rho = 0.5 ** np.arange(60)
        assert integrated_time(rho) == pytest.approx(3.0, abs=1e-12)

    def test_ar1_value(self):
        tau = integrated_time(acf(ar1_series(0.9, 1_000_000, seed=7), 2000))
        assert abs(tau - 19.0) <= 1.9

    def test_truncates_at_first_nonpositive(self):
        rho = np.array([1.0, 0.5, 0.25, -0.1, 0.4])
        assert integrated_time(rho) == pytest.approx(1.0 + 2.0 * 0.75)


class TestBootstrapRatioCi:
    def test_constant_ratio_is_exact(self):
        low, high = bootstrap_ratio_ci95([3.0, 6.0, 9.0], [1.0, 2.0, 3.0])
        assert low == pytest.approx(3.0) and high == pytest.approx(3.0)

    def test_brackets_trial_mean_and_is_deterministic(self):
        rng = np.random.default_rng(8)
        num, den = rng.uniform(50, 150, 10), rng.uniform(40, 80, 10)
        ratios = num / den
        low, high = bootstrap_ratio_ci95(num, den)
        assert ratios.min() < low < ratios.mean() < high < ratios.max()
        assert bootstrap_ratio_ci95(num, den) == (low, high)


class TestFairness:
    def test_lag_unit_guard(self):
        a = AcfCurve(np.arange(3.0), np.ones(3), np.zeros(3), 2, lag_unit=1.0)
        b = AcfCurve(np.arange(3.0), np.ones(3), np.zeros(3), 2, lag_unit=1.04)
        check_lag_units([a, b])
        c = AcfCurve(np.arange(3.0), np.ones(3), np.zeros(3), 2, lag_unit=1.2)
        with pytest.raises(ValueError, match="lag units"):
            check_lag_units([a, c])


class TestOutputs:
    def test_acf_csv_full_precision(self, tmp_path):
        curve = AcfCurve(
            lags=np.array([0.0, 1.0]),
            mean=np.array([1.0, 1.0 / 3.0]),
            variance=np.array([0.0, 0.12345678901234567]),
            num_trials=3,
        )
        path = tmp_path / "acf.csv"
        write_acf_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag,mean,variance"
        _, mean, variance = lines[2].split(",")
        assert float(mean) == 1.0 / 3.0
        assert float(variance) == 0.12345678901234567

    def test_svg_single_flat_curve(self):
        curve = PlotCurve("flat", np.arange(5.0), np.zeros(5))
        svg = emit_svg([curve], title="t", x_label="x", y_label="y")
        root = ET.fromstring(svg)
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        ys = {p.split(",")[1] for p in polylines[0].attrib["points"].split()}
        assert len(ys) == 1

    def test_svg_two_curves_with_legend(self):
        a = PlotCurve("alpha", np.arange(4.0), np.arange(4.0))
        b = PlotCurve("bravo", np.arange(4.0), np.arange(4.0)[::-1],
                      spread=np.full(4, 0.1))
        svg = emit_svg([a, b])
        root = ET.fromstring(svg)
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
        labels = {el.text for el in root.iter() if el.tag.endswith("text")}
        assert {"alpha", "bravo"} <= labels

    def test_svg_deterministic(self):
        curve = PlotCurve("c", np.linspace(0, 1, 20), np.sin(np.linspace(0, 4, 20)),
                          spread=np.full(20, 0.05))
        assert emit_svg([curve]) == emit_svg([curve])

    def test_svg_requires_curves(self):
        with pytest.raises(ValueError):
            emit_svg([])

    def test_curve_from_acf_uses_std_bars(self):
        curve = AcfCurve(np.arange(3.0), np.array([1.0, 0.5, 0.2]),
                         np.array([0.0, 0.04, 0.01]), 5, label="x")
        plot = curve_from_acf(curve)
        assert plot.label == "x"
        assert np.allclose(plot.spread, [0.0, 0.2, 0.1])

    def test_load_trace_requires_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# sampler=im\nstep;energy\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_trace(path)
