"""The trace format, energy-trace statistics (autocorrelation on a compute
axis), plots, and the writers of the ACF outputs, JSON files and manifests.

Comparing samplers with different per-move costs is only fair on a common
compute axis: each sampler's ACF stays on its own recorded grid, and its lag
unit (its cost per sample over the dearest sampler's) scales the lags.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from xml.sax.saxutils import escape as _xml_escape

import numpy as np

from .errors import DegenerateTraceError, ModelFormatError

# Curves whose compute-normalized lag units differ by more than this cannot
# be overlaid on one axis.
LAG_UNIT_TOLERANCE = 0.05

BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0

# The column line between a trace's '# key=value' header and its rows.
TRACE_COLUMNS = "step,energy,accepted,k"
# Header keys written first, in this order; the rest follow sorted.
TRACE_META_ORDER = (
    "model", "sampler", "beta", "gamma", "seed", "moves", "stride",
)

ACF_TABLE = "acf_{sampler}.csv"
ACF_OVERLAY = "acf_overlay.svg"
MANIFEST = "manifest.json"


@dataclass
class EnergyTrace:
    """A recorded energy series plus its provenance metadata (the trace
    header's keys, and ``path`` for traces read from a file)."""

    energies: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=np.float64)

    def __len__(self):
        return len(self.energies)


def _format_value(value):
    """A trace or table value as text: floats with 17 significant digits,
    which read back as the same double; anything else through ``str``."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_trace_csv(record, path, meta=None):
    """Serialize a ``ChainRecord`` in the trace format: '# key=value' comment
    lines, then the ``TRACE_COLUMNS`` line and one row per recorded move."""
    merged = {"moves": record.num_moves, **(meta or {})}
    lines = []
    for key in TRACE_META_ORDER:
        if key in merged:
            lines.append(f"# {key}={_format_value(merged.pop(key))}")
    for key in sorted(merged):
        lines.append(f"# {key}={_format_value(merged[key])}")
    lines.append(TRACE_COLUMNS)
    for step, energy, acc, k in zip(
        record.steps, record.energies, record.accepted, record.ks
    ):
        lines.append(f"{int(step)},{_format_value(energy)},{int(acc)},{int(k)}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def load_trace(path):
    """Read a trace CSV written by ``write_trace_csv``; a malformed header or
    row, or no rows at all, raise ``ModelFormatError`` naming the file and
    line. The integer keys (moves, stride, seed, trial) must be spelled as
    integers."""
    meta = {}
    lines = {}
    energies = []
    with open(path, encoding="utf-8") as handle:
        header_seen = False
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                    lines[key.strip()] = number
                continue
            if not header_seen:
                if line != TRACE_COLUMNS:
                    raise ModelFormatError(
                        f"{path}:{number}: unexpected header {line!r}"
                    )
                header_seen = True
                continue
            try:
                step, energy, accepted, k = line.split(",")
                int(step), int(accepted), int(k)
                energy = float(energy)
            except ValueError:
                energy = math.nan
            if not math.isfinite(energy):
                raise ModelFormatError(f"{path}:{number}: expected integer step, "
                                       f"accepted and k and a finite energy, got {line!r}")
            energies.append(energy)
    if not energies:
        raise ModelFormatError(f"{path}: no data rows")
    numeric = {"beta": float, "gamma": float, "evals_per_move": float,
               "cost_per_sample": float, "moves": int, "stride": int,
               "seed": int, "trial": int}
    for key, kind in numeric.items():
        if key in meta:
            try:
                value = kind(meta[key])
                # analyze divides by these two
                positive = key in ("cost_per_sample", "stride")
                if positive and not 0 < value < math.inf:
                    raise ValueError
            except (ValueError, OverflowError):
                raise ModelFormatError(
                    f"{path}:{lines[key]}: header {key}={meta[key]!r} is not "
                    f"a valid {'integer' if kind is int else 'number'}"
                ) from None
            meta[key] = value
    meta["path"] = str(path)
    return EnergyTrace(np.array(energies, dtype=np.float64), meta)


def acf(trace, max_lag):
    """Normalized autocorrelation of the energies for lags 0..max_lag.

    Uses the biased single-mean estimator
    rho(t) = sum_s (E_s - mean)(E_{s+t} - mean) / sum_s (E_s - mean)^2,
    which is invariant to shifting or positively scaling the trace.
    """
    values = trace.energies if isinstance(trace, EnergyTrace) else np.asarray(trace, dtype=np.float64)
    length = len(values)
    if length < max_lag + 2:
        raise ValueError(
            f"trace of length {length} too short for max_lag={max_lag}"
        )
    centered = values - values.mean()
    denom = float(centered @ centered)
    if denom <= 0.0:
        raise DegenerateTraceError(
            "trace has zero variance; autocorrelation is undefined"
        )
    out = np.empty(max_lag + 1, dtype=np.float64)
    out[0] = 1.0
    for t in range(1, max_lag + 1):
        out[t] = float(centered[: length - t] @ centered[t:]) / denom
    return out


@dataclass
class AcfCurve:
    """Trial-averaged autocorrelation on a compute-normalized lag axis."""

    lags: np.ndarray          # lag values in compute units (index * lag_unit)
    mean: np.ndarray
    variance: np.ndarray      # population variance across trials, per lag
    num_trials: int
    lag_unit: float = 1.0
    label: str = ""


def average_acf(per_trial, lag_unit=1.0, label=""):
    """Combine per-trial ACF arrays into a mean curve with spread (zero for
    a single trial)."""
    if not per_trial:
        raise ValueError("need at least 1 trial to average")
    curves = [np.asarray(c, dtype=np.float64) for c in per_trial]
    if len({c.shape for c in curves}) > 1:
        raise ValueError("per-trial curves must share one lag grid")
    stacked = np.vstack(curves)
    mean = stacked.mean(axis=0)
    variance = stacked.var(axis=0)
    lags = np.arange(stacked.shape[1], dtype=np.float64) * lag_unit
    return AcfCurve(
        lags=lags,
        mean=mean,
        variance=variance,
        num_trials=stacked.shape[0],
        lag_unit=lag_unit,
        label=label,
    )


def trial_acf(traces, max_lag, lag_unit=1.0, label=""):
    """Per-trial ACFs of ``traces`` and their average on one lag grid.

    The lag is capped at the shortest trace's length minus 2, the longest
    lag ``acf`` accepts for it. Returns ``(curve, per_trial)``.
    """
    max_lag = min(max_lag, min(len(t) for t in traces) - 2)
    per_trial = []
    for trace in traces:
        try:
            per_trial.append(acf(trace, max_lag))
        except DegenerateTraceError as exc:
            raise DegenerateTraceError(
                f"{trace.meta.get('path', '<trace>')}: {exc}"
            ) from exc
    return average_acf(per_trial, lag_unit=lag_unit, label=label), per_trial


def integrated_time(curve):
    """Integrated autocorrelation time 1 + 2*sum rho(t).

    The sum runs over positive lags and stops at the first non-positive
    autocorrelation value.
    """
    values = curve.mean if isinstance(curve, AcfCurve) else np.asarray(curve, dtype=np.float64)
    total = 0.0
    for rho in values[1:]:
        if rho <= 0.0:
            break
        total += float(rho)
    return 1.0 + 2.0 * total


def bootstrap_ratio_ci95(numerators, denominators):
    """Percentile bootstrap 95% interval of the trial mean of per-trial ratios.

    Trials are resampled with replacement; the fixed resampling seed keeps
    the interval identical from run to run.
    """
    ratios = (np.asarray(numerators, dtype=np.float64)
              / np.asarray(denominators, dtype=np.float64))
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, ratios.size, size=(BOOTSTRAP_RESAMPLES, ratios.size))
    low, high = np.percentile(ratios[picks].mean(axis=1), [2.5, 97.5])
    return float(low), float(high)


def sample_cost(sampler, stride, fair_ratio):
    """Metropolis moves one recorded sample stands for: ``stride`` moves,
    each worth ``fair_ratio`` for the walk sampler ("im"), 1 for any other."""
    return float(fair_ratio * stride if sampler == "im" else stride)


def check_lag_units(curves):
    """Refuse overlays whose compute-normalized lag units disagree."""
    units = [c.lag_unit for c in curves]
    reference = units[0]
    for unit in units[1:]:
        if abs(unit - reference) > LAG_UNIT_TOLERANCE * reference:
            raise ValueError(
                f"lag units differ by more than {LAG_UNIT_TOLERANCE:.0%}: {units}"
            )


def write_acf_csv(curve: AcfCurve, path):
    """lag,mean,variance rows with full (17 significant digit) precision."""
    lines = ["lag,mean,variance"]
    for lag, mean, var in zip(curve.lags, curve.mean, curve.variance):
        lines.append(",".join(map(_format_value, (lag, mean, var))))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_acf_outputs(out_dir, groups, max_lag, title, labels=None):
    """Write each sampler's ACF table and their overlay into ``out_dir``.

    ``groups`` maps a sampler to ``(traces, lag_unit)``; a sampler gets
    ``max_lag / lag_unit`` lags, fewer (with a note on stderr) when its
    shortest trace cuts them. ``labels`` names the overlay's curves (default:
    the sampler names). Returns ``{sampler: (curve, per_trial)}``.
    """
    acfs = {}
    for sampler, (traces, unit) in sorted(groups.items()):
        # the slack keeps a quotient that lands just below an integer from
        # losing a lag
        lags = math.floor(max_lag / unit + 1e-9)
        curve, per_trial = trial_acf(traces, lags, unit,
                                     (labels or {}).get(sampler, sampler))
        used = len(curve.mean) - 1
        if used < lags:
            shortest = min(traces, key=len)
            print(f"note: {sampler}: shortest trace {shortest.meta['path']} has "
                  f"{len(shortest)} rows, so its lags stop at {used}, not "
                  f"{lags}", file=sys.stderr)
        write_acf_csv(curve, os.path.join(out_dir, ACF_TABLE.format(sampler=sampler)))
        acfs[sampler] = (curve, per_trial)
    svg = emit_svg([curve_from_acf(curve) for curve, _ in acfs.values()],
                   title=title, x_label="compute-normalized lag", y_label="ACF")
    with open(os.path.join(out_dir, ACF_OVERLAY), "w", encoding="utf-8") as fh:
        fh.write(svg)
    return acfs


def json_text(doc):
    """``doc`` as JSON with sorted keys, indent 1 and a final newline."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc))


def write_manifest(out_dir, files, **fields):
    """Write the manifest of ``out_dir``: ``fields`` plus the ``files`` list,
    which ends with the manifest itself."""
    entry = {"path": MANIFEST, "kind": "manifest", "params": {}}
    write_json(os.path.join(out_dir, MANIFEST), {**fields, "files": files + [entry]})


# deterministic, dependency-free SVG emission

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 28, 46


def _fmt(x):
    return format(float(x), ".6g")


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(count - 1, 1)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * power
        if span / step <= count:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * span:
        ticks.append(value)
        value += step
    return ticks


@dataclass
class PlotCurve:
    """One polyline with optional per-point spread (drawn as vertical bars)."""

    label: str
    x: np.ndarray
    y: np.ndarray
    spread: np.ndarray | None = None


def curve_from_acf(curve: AcfCurve, label=None):
    return PlotCurve(
        label=label if label is not None else curve.label,
        x=curve.lags,
        y=curve.mean,
        spread=np.sqrt(curve.variance),
    )


def emit_svg(curves, title="", x_label="", y_label=""):
    """Standalone SVG overlay of the given curves; byte-deterministic.

    Vertical bars show the per-point spread at every 10th point.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve to plot")
    xs = np.concatenate([np.asarray(c.x, dtype=np.float64) for c in curves])
    ys = np.concatenate([np.asarray(c.y, dtype=np.float64) for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{_xml_escape(title)}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{_xml_escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 16, _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{_xml_escape(y_label)}</text>'
        )
    for idx, curve in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}"
            for x, y in zip(curve.x, curve.y)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        if curve.spread is not None:
            for j in range(0, len(curve.x), 10):
                s = float(curve.spread[j])
                if s <= 0.0:
                    continue
                x = px(float(curve.x[j]))
                y1 = py(float(curve.y[j]) - s)
                y2 = py(float(curve.y[j]) + s)
                parts.append(
                    f'<line x1="{x:.2f}" y1="{y1:.2f}" x2="{x:.2f}" '
                    f'y2="{y2:.2f}" stroke="{color}" stroke-width="1"/>'
                )
        ly = _MARGIN_T + 16 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">{_xml_escape(str(curve.label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
