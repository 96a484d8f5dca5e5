"""Preset experiment pipelines comparing both samplers at equal compute.

Each preset runs the walk sampler and the Metropolis baseline for independent
trials, records energy traces, computes trial-averaged autocorrelation on a
common compute axis, and writes traces, ACF tables, overlay figures, a
summary, and a manifest into one output directory.

The Metropolis chain gets ``fair_ratio`` times more moves than the walk
sampler and its trace is recorded at that stride, so one recorded sample of
either sampler stands for the same amount of compute.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis
from .errors import ConfigurationError
from .generators import cube3d_pm_j, grid2d, rbm_gabor, save_model
from .model import integral
from .samplers import ChainSpec, ImConfig, burn_in_moves
from .saw_proposal import SawParams

SCALES = ("paper", "desk")
PRESET_NAMES = ("ferro2d", "glass3d", "rbm")
SAMPLERS = ("im", "metropolis")
# the samplers' names in the figures
LABELS = {"im": "walk sampler", "metropolis": "metropolis"}
MODEL_FILE = "model.json"
ENERGY_OVERLAY = "energy_overlay.svg"
SUMMARY = "summary.json"

CRITICAL_BETA = 1.0 / 2.27

ACF_DROP_THRESHOLD = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one preset run."""

    preset: str
    scale: str
    generator: str
    generator_args: dict
    beta: float
    gamma: float
    k_min: int
    k_max: int
    order_policy: str
    shell_distance: int
    im_moves: int
    fair_ratio: int
    trials: int
    seed: int
    burn_in_fraction: float
    engine: str
    max_lag: int


def preset_config(preset, scale, seed=0, trials=10, im_moves=None,
                  fair_ratio=None, burn_in_fraction=0.1, max_lag=None):
    """Parameters for a named experiment at paper or desk scale."""
    if preset not in PRESET_NAMES:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose from {PRESET_NAMES}"
        )
    if scale not in SCALES:
        raise ConfigurationError(f"unknown scale {scale!r}; choose from {SCALES}")
    trials = integral(trials, "trials")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    seed = integral(seed, "seed")
    paper = scale == "paper"
    if preset == "ferro2d":
        side = 60 if paper else 16
        num = side * side
        spec = dict(
            generator="grid2d",
            generator_args={"side": side, "coupling": 1.0, "field": 0.0},
            beta=CRITICAL_BETA,
            gamma=CRITICAL_BETA,
            k_min=90 if paper else 24,
            k_max=90 if paper else 24,
            shell_distance=num // 2,
            im_moves=100_000 if paper else 6_000,
            fair_ratio=50,
            engine="auto",
        )
    elif preset == "glass3d":
        side = 9 if paper else 5
        num = side ** 3
        spec = dict(
            generator="cube3d_pm_j",
            generator_args={"side": side, "seed": seed},
            beta=1.0,
            gamma=0.8,
            k_min=1,
            k_max=25 if paper else 10,
            shell_distance=364 if paper else 63,
            im_moves=100_000 if paper else 1_500,
            fair_ratio=10,
            engine="auto",
        )
    else:
        visible, hidden = (784, 500) if paper else (64, 32)
        num = visible + hidden
        spec = dict(
            generator="rbm_gabor",
            generator_args={
                "num_visible": visible,
                "num_hidden": hidden,
                "seed": seed,
            },
            beta=1.0,
            gamma=0.8,
            k_min=1,
            k_max=20 if paper else 8,
            shell_distance=num // 3,
            im_moves=10_000 if paper else 2_000,
            # dense bipartite graph: per-step candidate rescans beat the tree
            engine="scan",
            fair_ratio=10,
        )
    if im_moves is not None:
        spec["im_moves"] = integral(im_moves, "im_moves")
    if fair_ratio is not None:
        spec["fair_ratio"] = integral(fair_ratio, "fair_ratio")
    # each chain records im_moves rows, and an ACF needs 2 rows past its lag
    recorded = spec["im_moves"]
    if max_lag is None:
        max_lag = min(max(10, recorded // 5), 2000, recorded - 2)
    max_lag = integral(max_lag, "max_lag")
    for name, value, least in (("im_moves", recorded, 3),
                               ("fair_ratio", spec["fair_ratio"], 1),
                               ("max_lag", max_lag, 1)):
        if value < least:
            raise ConfigurationError(f"{name} must be >= {least}, got {value}")
    if max_lag > recorded - 2:
        raise ConfigurationError(f"max_lag {max_lag} needs im_moves >= "
                                 f"{max_lag + 2}, got im_moves {recorded}")
    # the Metropolis chain is the longer one
    burn_in_moves(burn_in_fraction, recorded * spec["fair_ratio"])
    return ExperimentConfig(
        preset=preset,
        scale=scale,
        order_policy="up_down",
        trials=trials,
        seed=seed,
        burn_in_fraction=float(burn_in_fraction),
        max_lag=max_lag,
        **spec,
    )


def build_model(config: ExperimentConfig):
    args = config.generator_args
    if config.generator == "grid2d":
        return grid2d(**args)
    if config.generator == "cube3d_pm_j":
        return cube3d_pm_j(**args)
    if config.generator == "rbm_gabor":
        return rbm_gabor(**args)
    raise ConfigurationError(f"unknown generator {config.generator!r}")


def chain_specs(config: ExperimentConfig):
    """The chains of a preset run: per trial a walk chain and a Metropolis
    chain with ``fair_ratio`` times the moves, recorded at that stride."""
    walk = ImConfig(beta=config.beta, seed=config.seed, engine=config.engine,
                    saw=SawParams(gamma=config.gamma, k_min=config.k_min,
                                  k_max=config.k_max,
                                  order_policy=config.order_policy))
    specs = []
    for trial in range(config.trials):
        for index, sampler in enumerate(SAMPLERS):
            stride = 1 if sampler == "im" else config.fair_ratio
            moves = config.im_moves * stride
            specs.append(ChainSpec(
                sampler=sampler,
                walk=walk,
                shell_distance=config.shell_distance,
                moves=moves,
                stride=stride,
                burn_in=burn_in_moves(config.burn_in_fraction, moves),
                trial=trial,
                chain_index=2 * trial + index,
            ))
    return specs


# a pool worker's model, which the pool's initializer hands it once
_worker_model = None


def _adopt_model(model):
    global _worker_model
    _worker_model = model


def run_trial(spec: ChainSpec):
    """Run one chain in a pool worker, on the model ``_adopt_model`` stored."""
    return spec.run(_worker_model)


def _first_drop_lag(curve: analysis.AcfCurve):
    below = np.nonzero(curve.mean < ACF_DROP_THRESHOLD)[0]
    if below.size == 0:
        return float(curve.lags[-1] + curve.lag_unit)
    return float(curve.lags[int(below[0])])


def run_experiment(preset, scale="desk", out_dir=".", trials=10, seed=0,
                   workers=1, im_moves=None, fair_ratio=None,
                   burn_in_fraction=0.1, max_lag=None, progress=None):
    """Run a full two-sampler comparison of a named preset; returns the
    summary dict.

    All randomness derives from ``seed``; rerunning with the same arguments
    rewrites byte-identical outputs. Only the coordinator writes files.
    """
    config = preset_config(
        preset, scale, seed=seed, trials=trials, im_moves=im_moves,
        fair_ratio=fair_ratio, burn_in_fraction=burn_in_fraction,
        max_lag=max_lag,
    )
    return run_config(config, out_dir, workers=workers, progress=progress)


def run_config(config: ExperimentConfig, out_dir=".", workers=1,
               progress=None):
    """Run the two-sampler comparison that ``config`` resolves; returns the
    summary dict and writes the same files as ``run_experiment``.
    """
    os.makedirs(out_dir, exist_ok=True)
    model = build_model(config)
    save_model(model, os.path.join(out_dir, MODEL_FILE))
    produced = [{"path": MODEL_FILE, "kind": "model",
                 "params": {"generator": config.generator, **config.generator_args}}]

    chains = {sampler: [] for sampler in SAMPLERS}
    specs = chain_specs(config)
    with ExitStack() as stack:
        results = (spec.run(model) for spec in specs)
        if workers > 1:
            # a forked worker inherits the model, others unpickle it once
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, initializer=_adopt_model, initargs=(model,)))
            # runs before the pool's own exit: a failing run drops the
            # chains no worker has started instead of waiting for them
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(run_trial, specs)
        for spec, record in zip(specs, results):
            if progress:
                progress(spec)
            cost = analysis.sample_cost(spec.sampler, spec.stride, config.fair_ratio)
            name = spec.write_trace(record, out_dir, MODEL_FILE, cost_per_sample=cost)
            produced.append({"path": name, "kind": "trace",
                             "params": {"sampler": spec.sampler, "trial": spec.trial,
                                        "moves": spec.moves, "stride": spec.stride}})
            chains[spec.sampler].append((spec, record))

    # both samplers' samples cost the same, so one lag = one recorded sample
    groups = {sampler: ([analysis.EnergyTrace(record.energies, {
                             "path": os.path.join(out_dir, spec.trace_name)})
                         for spec, record in runs], 1.0)
              for sampler, runs in chains.items()}
    acfs = analysis.write_acf_outputs(
        out_dir, groups, config.max_lag,
        f"{config.preset} ({config.scale}): energy autocorrelation", LABELS)
    summary = {
        "preset": config.preset,
        "scale": config.scale,
        "config": asdict(config),
        "lag_unit": f"{config.fair_ratio} metropolis moves (= 1 walk move)",
        "samplers": {},
    }
    for sampler, (curve, per_trial) in acfs.items():
        records = [record for _, record in chains[sampler]]
        produced.append({"path": analysis.ACF_TABLE.format(sampler=sampler),
                         "kind": "acf",
                         "params": {"sampler": sampler,
                                    "trials": config.trials,
                                    "max_lag": len(curve.lags) - 1}})
        taus = [analysis.integrated_time(c) for c in per_trial]
        final_quarter = [
            float(np.mean(r.energies[3 * len(r) // 4 :])) for r in records
        ]
        summary["samplers"][sampler] = {
            "moves_per_trial": int(records[0].num_moves),
            "record_stride": int(chains[sampler][0][0].stride),
            "acceptance_rate_mean": float(np.mean([r.acceptance_rate for r in records])),
            "evals_per_move_mean": float(np.mean([r.evals_per_move for r in records])),
            "tau_int": [float(t) for t in taus],
            "tau_int_mean": float(np.mean(taus)),
            "acf_drop_lag": _first_drop_lag(curve),
            "final_quarter_energy": final_quarter,
            "final_quarter_energy_mean": float(np.mean(final_quarter)),
        }
    summary["tau_ratio_met_over_im"] = (
        summary["samplers"]["metropolis"]["tau_int_mean"]
        / summary["samplers"]["im"]["tau_int_mean"]
    )

    produced.append({"path": analysis.ACF_OVERLAY, "kind": "figure",
                     "params": {"curves": ["im", "metropolis"]}})

    energy_curves = []
    for sampler, label in LABELS.items():
        energies = chains[sampler][0][1].energies
        energy_curves.append(analysis.PlotCurve(
            label, np.arange(len(energies), dtype=np.float64), energies))
    energy_svg = analysis.emit_svg(
        energy_curves,
        title=f"{config.preset} ({config.scale}): energy trajectory, trial 0",
        x_label="compute-normalized time",
        y_label="energy",
    )
    with open(os.path.join(out_dir, ENERGY_OVERLAY), "w", encoding="utf-8") as fh:
        fh.write(energy_svg)
    produced.append({"path": ENERGY_OVERLAY, "kind": "figure",
                     "params": {"curves": ["im", "metropolis"], "trial": 0}})

    analysis.write_json(os.path.join(out_dir, SUMMARY), summary)
    produced.append({"path": SUMMARY, "kind": "summary", "params": {}})
    analysis.write_manifest(out_dir, produced, preset=config.preset,
                            scale=config.scale, seed=config.seed,
                            trials=config.trials)
    return summary
