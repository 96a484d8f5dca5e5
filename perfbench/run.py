"""Benchmark for shellwalk: cost per move, set-up and ESS per second.

Run from the repository root:

    python3 perfbench/run.py --workload ferro2d-desk --seed 0 --seconds 20 --trace 0

One run makes two passes of the workload at the same seed, in one
single-threaded process; the second must reproduce the first pass's
determinism fingerprints. The run prints a readable report and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` then times until ``--seconds`` have passed (at least
``MIN_TIMING_S``): it repeats the workload's set-up, and replays fixed
stretches of one chain per sampler, timed in blocks of 2-4 ms, each round
restarted from the same states and random streams so that every round does
the same work. The speed of a core of a shared 2-core Xeon VM swings by up to 2x,
within milliseconds and over minutes, with the other tenants' load, so each
block and each set-up is timed next to a unit of a fixed reference loop
(``Reference``) and the bounded timings are reported as their median ratio
to it, scaled by ``REF_UNIT_S``, the unit's time on an uncontended core: the
program's time at a fixed core speed. The times as measured are printed
beside them.

``--trace 1`` alternates untraced and traced passes until ``--seconds`` have
passed, and reports the per-layer metrics: spans recorded around the
program's public functions by ``tracer.Tracer``, plus the figures that need
an untraced pass beside them (wall time, ESS per second, the cost ratios,
the tracing overhead). ``--tiny`` shrinks every workload to a seconds-long
smoke size.
"""

from __future__ import annotations

import os

# pinned before numpy loads so BLAS stays single-threaded; the imports
# below must therefore follow this assignment
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import copy
import gc
import hashlib
import json
import math
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"

if not (SRC / "shellwalk" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program sources at {SRC / 'shellwalk'}")
sys.path.insert(0, str(SRC))

import numpy as np

from shellwalk import analysis, experiments
from shellwalk.cli import VERIFY_THRESHOLDS
from shellwalk.generators import grid2d
from shellwalk.model import COHERENCE_RTOL, IsingModel, ShellConstraint
from shellwalk.oracle import (
    check_pathwise_db,
    detailed_balance_gap,
    empirical_distribution,
    enumerate_shell,
    exact_distribution,
    exact_im_kernel,
    stationarity_gap,
    tv_distance,
)
from shellwalk.samplers import (
    ImConfig,
    MetropolisConfig,
    chain_rng,
    make_sampler,
    random_shell_state,
    run_chain,
    write_trace_csv,
)
from shellwalk.saw_proposal import SawParams, choose_engine_kind, propose

from tracer import Tracer

if not Path(experiments.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: shellwalk imported from outside {SRC}")

SAMPLERS = ("im", "metropolis")

# Experiment workloads run a preset through the experiment pipeline as
# (preset, scale, trials, walk moves); the sizes keep one pass at a few
# seconds on one core.
EXPERIMENTS = {
    "ferro2d-desk": ("ferro2d", "desk", 2, 1500),
    "glass3d-paper": ("glass3d", "paper", 2, 2000),
    # the paper-scale filter model (784+500) was dropped: one set-up of it
    # (0.9 s generation, then 0.95 s parse per chain) is too slow to repeat
    # within a run, and timed by medians its memory-bound per-move times
    # spread by 0.25-0.33 over ten seeds on a shared 2-core Xeon VM
    "rbm-desk": ("rbm", "desk", 2, 2000),
}
TINY_MOVES = 60  # smoke size of every experiment workload
# The ``shellwalk verify`` battery; TV samples are the fewest at which the
# TV threshold holds with margin on every seed tried.
VERIFY = {"full": {"pathwise_moves": 1000, "tv_samples": 100_000},
          "tiny": {"pathwise_moves": 50, "tv_samples": 2000}}
WORKLOADS = (*EXPERIMENTS, "verify-small")
# the TV chains of the battery as (sampler, record stride, chain index)
TV_CHAINS = (("im", 2, 2), ("metropolis", 5, 3))

# Timing rounds replay STRETCHES stretches of BLOCKS timed blocks of
# sampler steps per sampler, each block right after one reference unit;
# (walk, Metropolis) moves per block, 2-4 ms each on a 2-core Xeon VM.
STRETCHES = 4
BLOCKS = {"full": 32, "tiny": 1}
BLOCK_MOVES = {
    "ferro2d-desk": (2, 400),
    "glass3d-paper": (6, 400),
    "rbm-desk": (6, 130),
    "verify-small": (50, 400),
}
TINY_BLOCK_MOVES = (2, 50)
MIN_TIMING_S = 8.0  # timing rounds run at least this long after the passes
MIN_ROUNDS = 3
REF_ITERATIONS = 250  # one reference unit, about 0.35 ms
REF_SEED = 7
# Seconds of one reference unit on an uncontended core of a 2-core Xeon VM
# (Python 3.11, numpy 2.4); bounded timings are reported at this speed.
REF_UNIT_S = 0.35e-3


@dataclass
class ChainResult:
    sampler: str
    trial: int
    samples: int
    tau_int: float
    wall_s: float  # parse, state draw, sampler build, burn-in and recording
    seconds_per_move: float
    evals_per_move: float
    fingerprint: str  # hash of the recorded energies, accept flags and ks


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    build_s: float = 0.0
    parse_s: list = field(default_factory=list)
    acf: list = field(default_factory=list)  # (seconds, N, L) per call
    outputs_s: float = 0.0
    chains: list = field(default_factory=list)
    per_move_s: dict = field(default_factory=lambda: {s: [] for s in SAMPLERS})
    kernel_s: float = 0.0
    kernel_paths: int = 0
    proposal_s: list = field(default_factory=list)  # propose + check
    check_s: list = field(default_factory=list)
    report: dict = field(default_factory=dict)  # the keys ``shellwalk verify`` reports
    fingerprints: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, label, ok):
        """Count one operation and record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok


def fingerprint(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def coherent(state, model, distance):
    """Cached energy matches a from-scratch sum and the shell is kept."""
    scratch = model.energy(state.bits)
    drift_ok = abs(state.energy - scratch) <= COHERENCE_RTOL * (1.0 + abs(scratch))
    return drift_ok and state.distance == distance


def experiment_config(name, seed, tiny):
    preset, scale, trials, im_moves = EXPERIMENTS[name]
    return experiments.preset_config(preset, scale, seed=seed, trials=trials,
                                     im_moves=TINY_MOVES if tiny else im_moves)


def shell_of(config, model):
    return ShellConstraint(tuple([0] * model.num_vars), config.shell_distance)


def chain_config(config, sampler):
    """The sampler settings ``experiments.run_trial`` builds from a preset."""
    if sampler == "im":
        return ImConfig(
            beta=config.beta,
            saw=SawParams(gamma=config.gamma, k_min=config.k_min,
                          k_max=config.k_max, order_policy=config.order_policy),
            seed=config.seed, engine=config.engine)
    return MetropolisConfig(beta=config.beta, seed=config.seed)


def tv_config(sampler, seed):
    """The sampler settings of the battery's TV chains."""
    if sampler == "im":
        return ImConfig(beta=0.44, saw=SawParams(gamma=0.44, k_min=1, k_max=3), seed=seed)
    return MetropolisConfig(beta=0.44, seed=seed)


def _chain(config, doc, sampler, trial, result):
    """One chain as ``experiments.run_trial`` runs it, with its parse timed."""
    index = SAMPLERS.index(sampler)
    stride = 1 if sampler == "im" else config.fair_ratio
    moves = config.im_moves * stride
    burn_in = int(round(config.burn_in_fraction * moves))
    start = time.perf_counter()
    model = IsingModel.from_dict(doc)
    parsed = time.perf_counter()
    rng = chain_rng(config.seed, 2 * trial + index)
    init = random_shell_state(model, shell_of(config, model), rng)
    record = run_chain(model, init, sampler, moves, record_stride=stride,
                       config=chain_config(config, sampler), rng=rng, burn_in=burn_in)
    wall = time.perf_counter() - start
    result.parse_s.append(parsed - start)
    # the trace header ``run_experiment`` writes
    meta = {
        "model": "model.json", "sampler": sampler, "beta": config.beta,
        "gamma": config.gamma, "seed": config.seed, "moves": moves,
        "stride": stride, "trial": trial, "burn_in": burn_in,
        "n": config.shell_distance, "k_min": config.k_min, "k_max": config.k_max,
        "order": config.order_policy,
        "engine": config.engine if sampler == "im" else "-",
        "evals_per_move": record.evals_per_move,
        "cost_per_sample": float(config.fair_ratio),
        "acceptance_rate": record.acceptance_rate,
    }
    return record, wall, coherent(init, model, config.shell_distance), meta


def experiment_pass(name, seed, tiny, out_dir, traced):
    """Model generation, every chain, ACF and outputs, as ``run_experiment``
    does them with ``workers=1``; returns the timings and checks."""
    result = PassResult(traced)
    start = time.perf_counter()
    config = experiment_config(name, seed, tiny)
    model = experiments.build_model(config)
    result.build_s = time.perf_counter() - start
    doc = model.to_dict()
    out_dir.mkdir(parents=True, exist_ok=True)

    traces = {s: [] for s in SAMPLERS}
    records = {s: [] for s in SAMPLERS}
    walls = {s: [] for s in SAMPLERS}
    for trial in range(config.trials):
        for sampler in SAMPLERS:
            label = f"{sampler}-{trial}"
            try:
                record, wall, ok, meta = _chain(config, doc, sampler, trial, result)
            except Exception:  # a raising chain is one failed operation
                traceback.print_exc()
                result.check(label, False)
                continue
            result.check(label, ok)
            result.fingerprints[label] = fingerprint(
                record.energies, record.accepted, record.ks)
            result.per_move_s[sampler].append(record.seconds_per_move)
            written = time.perf_counter()
            write_trace_csv(record, out_dir / f"trace_{sampler}_{trial:03d}.csv", meta)
            result.outputs_s += time.perf_counter() - written
            traces[sampler].append(analysis.EnergyTrace(
                record.energies, {"cost_per_sample": meta["cost_per_sample"]}))
            records[sampler].append(record)
            walls[sampler].append(wall)
    if result.failures:
        result.wall_s = time.perf_counter() - start
        return result

    curves = {}
    for sampler in SAMPLERS:
        group = traces[sampler]
        max_lag = min(config.max_lag, min(len(t) for t in group) - 2)
        per_trial = []
        for trace in group:
            began = time.perf_counter()
            per_trial.append(analysis.acf(trace, max_lag))
            result.acf.append((time.perf_counter() - began, len(trace), max_lag))
        if len(per_trial) >= 2:
            curve = analysis.average_acf(per_trial, lag_unit=1.0, label=sampler)
        else:
            curve = analysis.AcfCurve(
                lags=np.arange(max_lag + 1, dtype=np.float64),
                mean=per_trial[0], variance=np.zeros(max_lag + 1),
                num_trials=1, lag_unit=1.0, label=sampler)
        curves[sampler] = curve
        written = time.perf_counter()
        analysis.write_acf_csv(curve, out_dir / f"acf_{sampler}.csv")
        result.outputs_s += time.perf_counter() - written
        for trial, (record, acf, wall) in enumerate(
                zip(records[sampler], per_trial, walls[sampler])):
            label = f"{sampler}-{trial}"
            tau = analysis.integrated_time(acf)
            result.chains.append(ChainResult(
                sampler, trial, len(record), tau, wall, record.seconds_per_move,
                record.evals_per_move, result.fingerprints[label]))
            result.fingerprints[label] += f" tau_int={tau!r}"

    written = time.perf_counter()
    analysis.check_lag_units(list(curves.values()))
    labels = {"im": "walk sampler", "metropolis": "metropolis"}
    overlay = analysis.emit_svg(
        [analysis.curve_from_acf(curves[s], labels[s]) for s in SAMPLERS],
        title=f"{config.preset} ({config.scale}): energy autocorrelation",
        x_label="compute-normalized lag", y_label="ACF")
    (out_dir / "acf_overlay.svg").write_text(overlay, encoding="utf-8")
    energy_svg = analysis.emit_svg(
        [analysis.PlotCurve(label=labels[s],
                            x=np.arange(len(records[s][0].energies), dtype=np.float64),
                            y=records[s][0].energies) for s in SAMPLERS],
        title=f"{config.preset} ({config.scale}): energy trajectory, trial 0",
        x_label="compute-normalized time", y_label="energy")
    (out_dir / "energy_overlay.svg").write_text(energy_svg, encoding="utf-8")
    result.outputs_s += time.perf_counter() - written
    result.wall_s = time.perf_counter() - start
    return result


def verify_pass(seed, tiny, tracer, traced):
    """The ``shellwalk verify`` battery through its public pieces: the exact
    kernel, pathwise balance, then the TV chains."""
    size = VERIFY["tiny" if tiny else "full"]
    result = PassResult(traced)
    start = time.perf_counter()

    # exact kernel: 6-variable open chain, n=3, fixed k=2, gamma=beta=0.7
    side = 6
    model = IsingModel(side, [(i, i + 1, 1.0) for i in range(side - 1)], [0.0] * side)
    constraint = ShellConstraint((0,) * side, 3)
    params = SawParams(gamma=0.7, k_min=2, k_max=2)
    began = time.perf_counter()
    paths_before = tracer.calls["oracle.path_log_prob"]
    kernel = exact_im_kernel(model, 0.7, params, constraint)
    report = result.report
    report["stationarity_gap"] = stationarity_gap(kernel)
    report["max_db_gap"] = detailed_balance_gap(kernel)
    result.kernel_s = time.perf_counter() - began
    result.kernel_paths = (tracer.calls["oracle.path_log_prob"] - paths_before) // 2
    for key in ("stationarity_gap", "max_db_gap"):
        result.check(key, report[key] <= VERIFY_THRESHOLDS[key])

    # pathwise balance on random 3x3 grids, 100 proposals per grid
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    gaps = []
    while len(gaps) < size["pathwise_moves"]:
        model = grid2d(3, rng.uniform(-1.0, 1.0), float(rng.uniform(-0.3, 0.3)))
        beta = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, model.num_vars))
        state = random_shell_state(model, ShellConstraint((0,) * model.num_vars, n), rng)
        params = SawParams(gamma=gamma, k_min=1, k_max=3, order_policy="random")
        for _ in range(min(100, size["pathwise_moves"] - len(gaps))):
            began = time.perf_counter()
            move = propose(model, state, params, rng)
            proposed = time.perf_counter()
            _, _, gap = check_pathwise_db(model, beta, move, state)
            checked = time.perf_counter()
            result.proposal_s.append(checked - began)
            result.check_s.append(checked - proposed)
            result.check("pathwise", gap <= VERIFY_THRESHOLDS["max_pathwise_gap"])
            gaps.append(gap)
    report["max_pathwise_gap"] = max(gaps)
    result.fingerprints["pathwise"] = fingerprint(np.array(gaps))

    # TV against the exact shell distribution: 3x3 ferromagnet, n=4
    began = time.perf_counter()
    model = grid2d(3, 1.0, 0.0)
    constraint = ShellConstraint((0,) * 9, 4)
    shell = exact_distribution(model, 0.44, enumerate_shell(constraint))
    result.build_s = time.perf_counter() - began
    samples = size["tv_samples"]
    for sampler, stride, chain_index in TV_CHAINS:
        rng = chain_rng(seed, chain_index)
        init = random_shell_state(model, constraint, rng)
        config = tv_config(sampler, seed)
        drawn = time.perf_counter()
        builds = len(tracer.sampler_builds)
        empirical = empirical_distribution(
            model, init, sampler, config, rng, shell,
            samples=samples, stride=stride, burn_in=samples // 10)
        ran = time.perf_counter() - drawn
        build = sum(tracer.sampler_builds[builds:])
        result.per_move_s[sampler].append(
            (ran - build) / (samples // 10 + samples * stride))
        report[f"tv_{sampler}"] = tv_distance(empirical, shell.probabilities)
        result.check(f"tv_{sampler}", report[f"tv_{sampler}"] <= VERIFY_THRESHOLDS["tv"]
                     and coherent(init, model, constraint.distance))
        result.fingerprints[f"tv_{sampler}"] = fingerprint(empirical)
    result.fingerprints["report"] = repr(sorted(report.items()))
    result.wall_s = time.perf_counter() - start
    return result


class Reference:
    """A fixed loop of the operations the samplers' inner loops make: scalar
    draws from a numpy Generator, list reads and writes, float arithmetic and
    ``math.exp``. It calls no shellwalk code, so a change to the program
    leaves its time alone; timed next to the program's work, it measures how
    fast the core runs at that moment."""

    def __init__(self):
        self.rng = np.random.default_rng(REF_SEED)
        self.data = [0.1 * i for i in range(64)]
        self.seconds = []

    def __call__(self):
        """Run one unit; returns its seconds."""
        rng, data, acc = self.rng, self.data, 0.0
        start = time.perf_counter()
        for _ in range(REF_ITERATIONS):
            j = int(rng.integers(0, 64))
            acc += data[j] * 0.5 + math.exp(-data[(j + 1) & 63])
            data[j] = acc % 1.0
        elapsed = time.perf_counter() - start
        self.seconds.append(elapsed)
        return elapsed


class Replay:
    """Fixed stretches of one chain, replayed for timing.

    The stretches start from snapshots of the chain taken ``burn_in`` moves
    apart, so that together they sample more of its states than one stretch
    of the same length would. Each round copies every snapshot's state and
    random stream, builds the sampler with ``make_sampler`` and times
    ``blocks`` consecutive blocks of ``moves`` steps, the loop ``run_chain``
    times, each right after one reference unit. Every round does the same
    work; ``ratios[b]`` collects block ``b``'s seconds over the reference
    unit's, round by round.
    """

    def __init__(self, model, snapshots, sampler, config, moves, blocks):
        self.model, self.snapshots, self.sampler = model, snapshots, sampler
        self.config, self.moves, self.blocks = config, moves, blocks
        self.ratios = [[] for _ in range(blocks * len(snapshots))]
        self.seconds = [[] for _ in range(blocks * len(snapshots))]
        self.fingerprint = None

    def round(self, result, reference):
        """Time one round; it fails unless it stays coherent and reproduces
        the first round's energy and accept count after every block."""
        label = f"replay-{self.sampler}"
        clock, moves = time.perf_counter, range(self.moves)
        trail, coherent_ok = [], True
        try:
            for index, (snapshot, snapshot_rng) in enumerate(self.snapshots):
                state, rng = snapshot.copy(), copy.deepcopy(snapshot_rng)
                driver = make_sampler(self.model, state, self.sampler, self.config, rng=rng)
                first = index * self.blocks
                for block in range(first, first + self.blocks):
                    unit = reference()
                    start = clock()
                    for _ in moves:
                        driver.step()
                    elapsed = clock() - start
                    self.ratios[block].append(elapsed / unit)
                    self.seconds[block].append(elapsed)
                    trail.append((state.energy, driver.accepts))
                coherent_ok &= coherent(state, self.model, snapshot.distance)
        except Exception:  # a raising round is one failed operation
            traceback.print_exc()
            return result.check(label, False)
        digest = hashlib.sha256(repr(trail).encode()).hexdigest()[:16]
        if self.fingerprint is None:
            self.fingerprint = digest
        return result.check(label, digest == self.fingerprint and coherent_ok)

    def per_move_s(self):
        """Seconds per move at the reference speed: each block's median
        ratio over the rounds, summed over the stretches."""
        return REF_UNIT_S * self._per_move(self.ratios)

    def measured_per_move_s(self):
        """The same with each block's median measured seconds."""
        return self._per_move(self.seconds)

    def _per_move(self, blocks):
        return sum(statistics.median(block) for block in blocks) / (len(blocks) * self.moves)


def replay(model, constraint, sampler, config, rng, burn_in, moves, blocks):
    """A ``Replay`` of STRETCHES snapshots, each ``burn_in`` moves after the
    one before, the first ``burn_in`` moves after a random shell state."""
    state = random_shell_state(model, constraint, rng)
    snapshots = []
    for _ in range(STRETCHES):
        run_chain(model, state, sampler, burn_in, config=config, rng=rng)
        snapshots.append((state.copy(), copy.deepcopy(rng)))
    return Replay(model, snapshots, sampler, config, moves, blocks)


def experiment_setup(config):
    """Model generation, then per chain the parse, state draw and sampler
    build that ``run_trial`` makes; returns the seconds taken."""
    start = time.perf_counter()
    doc = experiments.build_model(config).to_dict()
    for trial in range(config.trials):
        for index, sampler in enumerate(SAMPLERS):
            model = IsingModel.from_dict(doc)
            rng = chain_rng(config.seed, 2 * trial + index)
            init = random_shell_state(model, shell_of(config, model), rng)
            make_sampler(model, init, sampler, chain_config(config, sampler), rng=rng)
    return time.perf_counter() - start


def verify_setup(seed, size):
    """The models, shells and samplers the verify battery builds; returns
    the seconds taken."""
    start = time.perf_counter()
    IsingModel(6, [(i, i + 1, 1.0) for i in range(5)], [0.0] * 6)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    for _ in range(-(-size["pathwise_moves"] // 100)):
        model = grid2d(3, rng.uniform(-1.0, 1.0), float(rng.uniform(-0.3, 0.3)))
        rng.uniform(0.0, 1.0, size=2)  # beta and gamma
        n = int(rng.integers(1, model.num_vars))
        random_shell_state(model, ShellConstraint((0,) * model.num_vars, n), rng)
    model = grid2d(3, 1.0, 0.0)
    constraint = ShellConstraint((0,) * 9, 4)
    exact_distribution(model, 0.44, enumerate_shell(constraint))
    for sampler, _, chain_index in TV_CHAINS:
        rng = chain_rng(seed, chain_index)
        init = random_shell_state(model, constraint, rng)
        make_sampler(model, init, sampler, tv_config(sampler, seed), rng=rng)
    return time.perf_counter() - start


@dataclass
class Timing:
    """What the timing rounds measured."""
    replays: dict  # Replay by sampler
    reference: Reference
    result: PassResult  # the replay checks
    setup_ratios: list = field(default_factory=list)  # set-up over reference seconds
    setup_seconds: list = field(default_factory=list)

    def setup_s(self):
        return REF_UNIT_S * statistics.median(self.setup_ratios)


def timing_phase(workload, seed, tiny, deadline):
    """Alternate set-up and replay rounds until ``deadline`` (at least
    ``MIN_ROUNDS``); each set-up is timed between two reference units."""
    blocks = BLOCKS["tiny" if tiny else "full"]
    moves = dict(zip(SAMPLERS, TINY_BLOCK_MOVES if tiny else BLOCK_MOVES[workload]))
    replays = {}
    if workload == "verify-small":
        size = VERIFY["tiny" if tiny else "full"]
        model, constraint = grid2d(3, 1.0, 0.0), ShellConstraint((0,) * 9, 4)
        for sampler, _, chain_index in TV_CHAINS:
            replays[sampler] = replay(
                model, constraint, sampler, tv_config(sampler, seed),
                chain_rng(seed, chain_index), size["tv_samples"] // 10,
                moves[sampler], blocks)
        set_up = lambda: verify_setup(seed, size)  # noqa: E731
    else:
        config = experiment_config(workload, seed, tiny)
        model = experiments.build_model(config)
        for index, sampler in enumerate(SAMPLERS):
            stride = 1 if sampler == "im" else config.fair_ratio
            burn_in = int(round(config.burn_in_fraction * config.im_moves * stride))
            replays[sampler] = replay(
                model, shell_of(config, model), sampler, chain_config(config, sampler),
                chain_rng(config.seed, index), burn_in, moves[sampler], blocks)
        set_up = lambda: experiment_setup(config)  # noqa: E731
    timing = Timing(replays, Reference(), PassResult(traced=False))
    reference = timing.reference
    while len(timing.setup_seconds) < MIN_ROUNDS or time.perf_counter() < deadline:
        gc.collect()
        before = reference()
        elapsed = set_up()
        timing.setup_ratios.append(2.0 * elapsed / (before + reference()))
        timing.setup_seconds.append(elapsed)
        for item in replays.values():
            item.round(timing.result, reference)
    return timing


def _median(values):
    return statistics.median(values) if values else 0.0


def ess_per_s(chains, sampler):
    """Sum over chains of samples / tau_int, over their summed wall seconds."""
    mine = [c for c in chains if c.sampler == sampler]
    seconds = sum(c.wall_s for c in mine)
    return sum(c.samples / c.tau_int for c in mine) / seconds if seconds else 0.0


def cost_figures(passes, fair_ratio):
    """Walk-move cost in Metropolis moves, by wall time and by evals."""
    walk = _median([s for p in passes for s in p.per_move_s["im"]])
    swap = _median([s for p in passes for s in p.per_move_s["metropolis"]])
    chains = [c for p in passes for c in p.chains]
    evals = {s: _median([c.evals_per_move for c in chains if c.sampler == s])
             for s in SAMPLERS}
    return {
        "cost_ratio_wall": walk / swap if swap else 0.0,
        "cost_ratio_evals": evals["im"] / evals["metropolis"] if evals["metropolis"] else 0.0,
        "fair_ratio": float(fair_ratio),
    }


def end_to_end(timing):
    return {
        "setup_s": (timing.setup_s(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "walk_ms_per_move": (1e3 * timing.replays["im"].per_move_s(), "ms"),
        "metropolis_us_per_move": (1e6 * timing.replays["metropolis"].per_move_s(), "us"),
    }


def measured_lines(timing):
    """The bounded timings as measured, before the reference scaling."""
    reference = statistics.median(timing.reference.seconds)
    rounds = len(timing.setup_seconds)
    walk, swap = timing.replays["im"], timing.replays["metropolis"]
    return [
        f"  reference unit: median {1e3 * reference:.4g} ms over "
        f"{len(timing.reference.seconds)} units (REF_UNIT_S {1e3 * REF_UNIT_S:.4g} ms), "
        f"{rounds} rounds",
        f"  setup_s measured: median {statistics.median(timing.setup_seconds):.6g} s",
        f"  walk_ms_per_move measured: {1e3 * walk.measured_per_move_s():.6g} ms "
        f"({STRETCHES} x {walk.blocks} blocks of {walk.moves} moves)",
        f"  metropolis_us_per_move measured: {1e6 * swap.measured_per_move_s():.6g} us "
        f"({STRETCHES} x {swap.blocks} blocks of {swap.moves} moves)",
    ]


def untraced_figures(passes, fair_ratio):
    """Figures read off untraced passes that carry no bound: the pass wall
    time swings with the host's speed, and ESS per second moves with tau_int,
    which varies from seed to seed."""
    chains = [c for p in passes for c in p.chains]
    figures = {
        "wall_s": (_median([p.wall_s for p in passes]), "s"),
        "walk_ess_per_s": (ess_per_s(chains, "im"), "1/s"),
        "metropolis_ess_per_s": (ess_per_s(chains, "metropolis"), "1/s"),
        "kernel_s": (_median([p.kernel_s for p in passes]), "s"),
        "pathwise_us_per_proposal": (
            1e6 * _median([s for p in passes for s in p.proposal_s]), "us"),
    }
    for name, value in cost_figures(passes, fair_ratio).items():
        figures[name] = (value, "ratio")
    return figures


def per_layer(untraced, traced, tracer, doc_bytes, fair_ratio):
    tr = tracer
    chains = [c for p in traced for c in p.chains]
    acf = [a for p in traced for a in p.acf]
    walk, swap = "samplers.walk_step", "samplers.metropolis_step"
    engine_flips = tr.walk_calls["saw_proposal.engine_flip"]

    def tau(sampler):
        return _median([c.tau_int for c in chains if c.sampler == sampler])

    metrics = {
        "generators.build_s": (_median([p.build_s for p in traced]), "s"),
        "model.from_dict_s": (_median([s for p in traced for s in p.parse_s]), "s"),
        "model.doc_mb": (doc_bytes / 1e6, "MB"),
        "model.state_flip_us": (tr.mean_us("model.state_flip"), "us"),
        "model.state_flips_per_walk_move": (tr.per_walk_move("model.state_flip"), "count"),
        "model.state_copy_us": (tr.mean_us("model.state_copy"), "us"),
        "model.state_copies_per_walk_move": (tr.per_walk_move("model.state_copy"), "count"),
        "weighted_index.update_us": (tr.mean_us("weighted_index.update"), "us"),
        "weighted_index.sample_us": (tr.mean_us("weighted_index.sample"), "us"),
        "weighted_index.updates_per_walk_move": (
            tr.per_walk_move("weighted_index.update"), "count"),
        "weighted_index.calls": (
            tr.calls["weighted_index.update"] + tr.calls["weighted_index.sample"], "count"),
        "saw_proposal.engine_build_ms": (1e-3 * tr.mean_us("saw_proposal.engine_build"), "ms"),
        "saw_proposal.engine_flip_us": (tr.mean_us("saw_proposal.engine_flip"), "us"),
        "saw_proposal.engine_flips_per_walk_move": (
            tr.per_walk_move("saw_proposal.engine_flip"), "count"),
        "saw_proposal.replay_flip_share": (
            tr.walk_calls["saw_proposal.replay_flip"] / engine_flips if engine_flips else 0.0,
            "ratio"),
        "saw_proposal.engine_sample_us": (tr.mean_us("saw_proposal.engine_sample"), "us"),
        "saw_proposal.engine_log_prob_us": (tr.mean_us("saw_proposal.engine_log_prob"), "us"),
        "samplers.walk_step_ms_accepted": (1e-3 * tr.mean_us(f"{walk}.accepted"), "ms"),
        "samplers.walk_step_ms_rejected": (1e-3 * tr.mean_us(f"{walk}.rejected"), "ms"),
        "samplers.metropolis_step_us": (
            tr.mean_us(f"{swap}.accepted", f"{swap}.rejected"), "us"),
        "samplers.walk_acceptance": (tr.acceptance(walk), "ratio"),
        "samplers.metropolis_acceptance": (tr.acceptance(swap), "ratio"),
        "analysis.acf_s": (_median([a[0] for a in acf]), "s"),
        "analysis.acf_n": (float(max((a[1] for a in acf), default=0)), "count"),
        "analysis.acf_max_lag": (float(max((a[2] for a in acf), default=0)), "count"),
        "analysis.tau_int_walk": (tau("im"), "samples"),
        "analysis.tau_int_metropolis": (tau("metropolis"), "samples"),
        "analysis.outputs_s": (_median([p.outputs_s for p in traced]), "s"),
        "oracle.kernel_s": (_median([p.kernel_s for p in traced]), "s"),
        "oracle.kernel_paths": (float(max(p.kernel_paths for p in traced)), "count"),
        "oracle.path_log_prob_us": (tr.mean_us("oracle.path_log_prob"), "us"),
        "oracle.pathwise_check_us": (1e6 * _median([s for p in traced for s in p.check_s]), "us"),
        "trace_overhead_s": (
            _median([p.wall_s for p in traced]) - _median([p.wall_s for p in untraced]), "s"),
    }
    metrics.update(untraced_figures(untraced, fair_ratio))
    return metrics


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def _format(metrics):
    return [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]


def run(workload, seed, seconds, trace, tiny=False):
    """Make the workload's passes and, untraced, the timing rounds until
    ``seconds`` have passed; print the report and return the result object
    that ``main`` prints last.

    With ``trace`` the passes alternate untraced and traced until
    ``seconds`` have passed, so that both sides of the tracing overhead see
    the same warm-up and machine load.
    """
    if workload == "verify-small":
        fair_ratio, doc_bytes = 0, 0
        engine = choose_engine_kind(grid2d(3, 1.0, 0.0), 0.44)
        print(f"workload verify-small: seed {seed}, {VERIFY['tiny' if tiny else 'full']}, "
              f"engine {engine}")
    else:
        config = experiment_config(workload, seed, tiny)
        model = experiments.build_model(config)
        fair_ratio = config.fair_ratio
        doc_bytes = len(pickle.dumps(model.to_dict()))
        engine = choose_engine_kind(model, config.gamma, config.engine)
        print(f"workload {workload}: preset {config.preset} ({config.scale}), seed {seed}, "
              f"{config.trials} trials x {config.im_moves} walk moves, fair ratio "
              f"{fair_ratio}, max_lag {config.max_lag}, engine {engine}")
        del model
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine().items()))

    light, full = Tracer(full=False), Tracer(full=True)
    passes = []
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    started = time.perf_counter()
    try:
        while len(passes) < 2 or (trace and time.perf_counter() - started < seconds):
            traced = bool(trace) and len(passes) % 2 == 1
            gc.collect()
            with (full if traced else light) as tracer:
                if workload == "verify-small":
                    result = verify_pass(seed, tiny, tracer, traced)
                else:
                    result = experiment_pass(workload, seed, tiny,
                                             work / f"pass-{len(passes)}", traced)
            shutil.rmtree(work / f"pass-{len(passes)}", ignore_errors=True)
            passes.append(result)
            print(f"pass {len(passes) - 1} ({'traced' if traced else 'untraced'}): "
                  f"wall {result.wall_s:.3f} s, "
                  f"{result.attempted} operations, {len(result.failures)} failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = passes[0].fingerprints
    compared = len(reference) * (len(passes) - 1)
    mismatched = 0
    for index, result in enumerate(passes[1:], start=1):
        for label, value in reference.items():
            if result.fingerprints.get(label) != value:
                mismatched += 1
                print(f"determinism FAILED: pass {index} {label} "
                      f"{result.fingerprints.get(label)} != {value}")
    for chain in passes[0].chains:
        print(f"  chain {chain.sampler} trial {chain.trial}: {chain.samples} samples, "
              f"tau_int {chain.tau_int:.4g}, ESS {chain.samples / chain.tau_int:.4g}, "
              f"{chain.wall_s:.3f} s, fingerprint {chain.fingerprint}")
    for key, value in sorted(passes[0].report.items()):
        threshold = VERIFY_THRESHOLDS["tv" if key.startswith("tv_") else key]
        print(f"  {key} = {value!r} (threshold {threshold})")
    if workload == "verify-small":
        print("  fingerprints: " + ", ".join(f"{k} {v}" for k, v in reference.items()
                                           if k != "report"))

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if traced:
        metrics = per_layer(untraced, traced, full, doc_bytes, fair_ratio)
        print("per-layer (traced passes):")
        for line in _format(metrics):
            print(line)
    else:
        print("without a bound (untraced passes):")
        for line in _format(untraced_figures(untraced, fair_ratio)):
            print(line)
        deadline = max(started + seconds, time.perf_counter() + (0.0 if tiny else MIN_TIMING_S))
        timing = timing_phase(workload, seed, tiny, deadline)
        passes.append(timing.result)
        metrics = end_to_end(timing)
        print("end-to-end (timing rounds, at the reference speed):")
        for line in _format(metrics):
            print(line)
        for line in measured_lines(timing):
            print(line)
    failures = [f for p in passes for f in p.failures]
    if failures:
        print("failed operations: " + ", ".join(failures))
    failed = len(failures) + mismatched
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes) + compared,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: every workload in about a second")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
