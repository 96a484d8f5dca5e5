"""Chain drivers: the intracluster walk sampler and the Metropolis bit swap."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CoherenceError, ConfigurationError
from .model import IsingModel, ShellConstraint, ShellState
from .saw_proposal import (
    SawParams,
    check_walk_lengths,
    draw_move_shape,
    make_engine,
    run_walks,
)


def chain_rng(master_seed, chain_index=0):
    """Per-chain generator derived from (master seed, chain index).

    The split uses numpy's SeedSequence with the chain index as spawn key, so
    distinct chains get independent streams and reruns are reproducible.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(chain_index),))
    return np.random.default_rng(seq)


def random_shell_state(model, constraint: ShellConstraint, rng, audit=False):
    """Uniform draw from the shell via a partial Fisher-Yates selection."""
    num = constraint.num_vars
    if model.num_vars != num:
        raise ValueError(
            f"model has {model.num_vars} variables, constraint has {num}"
        )
    n = constraint.distance
    idx = list(range(num))
    for t in range(n):
        r = t + int(rng.integers(0, num - t))
        idx[t], idx[r] = idx[r], idx[t]
    bits = list(constraint.reference)
    for t in range(n):
        bits[idx[t]] ^= 1
    return ShellState(model, bits, constraint.reference, audit=audit)


@dataclass(frozen=True)
class ImConfig:
    """Intracluster sampler settings: target temperature plus walk parameters."""

    beta: float
    saw: SawParams
    seed: int = 0
    engine: str = "auto"

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass(frozen=True)
class MetropolisConfig:
    beta: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass
class ChainRecord:
    """Recorded move data plus whole-run diagnostics.

    The parallel arrays hold one entry per recorded move (every
    ``record_stride``-th attempted move, starting with the first).
    ``seconds_per_move`` is a wall-clock estimate and is deliberately kept out
    of serialized traces so reruns produce byte-identical files;
    ``evals_per_move`` is the deterministic candidate-evaluation count, a
    diagnostic that prices nothing. It counts forward-walk work only: a
    rejected move is rolled back from a checkpoint, which costs no evals.
    """

    steps: np.ndarray
    energies: np.ndarray
    accepted: np.ndarray
    ks: np.ndarray
    num_moves: int
    acceptance_rate: float
    seconds_per_move: float
    evals_per_move: float
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.steps)


class ImSampler:
    """One chain of the intracluster-move sampler.

    Per move the random stream is consumed in a fixed order: walk length,
    order (random policy only), one uniform per walk step, accept uniform.
    The move is accepted with probability
    ``min(1, exp(-beta*(E1 - E0)) * f_rev / f_fwd)``; the shell normalizer
    cancels in the ratio and is never computed. A rejected move restores the
    engine's pre-move checkpoint instead of walking the flips back. With an
    audited state every move checks that the state kept its shell.
    """

    name = "im"

    def __init__(self, model: IsingModel, state: ShellState, config: ImConfig,
                 rng=None):
        self.model = model
        self.state = state
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.shell_distance = state.distance
        check_walk_lengths(config.saw, state.distance, model.num_vars)
        self.engine = make_engine(model, state, config.saw.gamma, config.engine)
        self.accepts = 0

    @property
    def evals(self):
        return self.engine.evals

    def step(self):
        """Attempt one move; returns (accepted, walk length k)."""
        state = self.state
        engine = self.engine
        rng = self.rng
        energy_before = state.energy
        k, order = draw_move_shape(
            self.config.saw, rng, state.distance, self.model.num_vars
        )
        saved = engine.checkpoint()
        _, _, log_fwd, log_rev = run_walks(engine, rng, k, order)
        log_alpha = -self.config.beta * (state.energy - energy_before) + log_rev - log_fwd
        if log_alpha > 0.0:
            log_alpha = 0.0
        accepted = rng.random() < math.exp(log_alpha)
        if not accepted:
            engine.restore(saved)
        self.accepts += accepted
        if state.audit and state.distance != self.shell_distance:
            raise CoherenceError(
                f"sampler left the shell: distance {state.distance} != "
                f"{self.shell_distance}"
            )
        return accepted, k


class MetropolisSampler:
    """Baseline pair-swap sampler on the shell.

    Picks one disagreeing and one agreeing bit uniformly, proposes flipping
    both, and accepts with min(1, exp(-beta * deltaE)). The energy change is
    evaluated exactly, including the coupling correction when the two bits are
    graph neighbors. Random stream order per move: disagree pick, agree pick,
    accept uniform. An accepted swap hands each bit's energy change to
    ``ShellState.flip``, except the second bit's when the two are neighbors,
    since the first flip changes its field.

    The picks index the sampler's own slot order, a permutation of the bits
    with the ``distance`` disagreeing ones first, built ascending on each
    side from the state at construction. An accepted swap moves the
    disagreeing bit to the last disagreeing slot, then the agreeing bit into
    that slot and the first bit into the agreeing bit's old slot. The
    sampler must be the only one to flip its state.
    """

    name = "metropolis"

    def __init__(self, model: IsingModel, state: ShellState,
                 config: MetropolisConfig, rng=None):
        n = state.distance
        if n == 0 or n == model.num_vars:
            raise ConfigurationError(
                f"bit swaps need both sets nonempty; shell distance {n} of "
                f"{model.num_vars} leaves one side empty"
            )
        self.model = model
        self.state = state
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.shell_distance = n
        agree, disagree = state.partition()
        self._slots = disagree + agree
        self.accepts = 0
        self.evals = 0

    def step(self):
        """Attempt one swap; returns (accepted, (disagree_bit, agree_bit))."""
        state = self.state
        model = self.model
        rng = self.rng
        slots = self._slots
        n = self.shell_distance
        a = int(rng.integers(0, n))
        b = n + int(rng.integers(0, len(slots) - n))
        i = slots[a]
        j = slots[b]
        spins = state.spins
        acc_i = model.fields[i]
        coupling_ij = 0.0
        adjacent = False
        for nb, coupling in model.adjacency[i]:
            acc_i += coupling * spins[nb]
            if nb == j:
                coupling_ij = coupling
                adjacent = True
        acc_j = model.fields[j]
        for nb, coupling in model.adjacency[j]:
            acc_j += coupling * spins[nb]
        delta_i = 2.0 * spins[i] * acc_i
        delta_j = 2.0 * spins[j] * acc_j
        delta = delta_i + delta_j - 4.0 * spins[i] * spins[j] * coupling_ij
        self.evals += 2
        log_alpha = -self.config.beta * delta
        if log_alpha > 0.0:
            log_alpha = 0.0
        accepted = rng.random() < math.exp(log_alpha)
        if accepted:
            state.flip(i, delta_i)
            state.flip(j, None if adjacent else delta_j)
            slots[a] = slots[n - 1]
            slots[n - 1] = j
            slots[b] = i
        self.accepts += accepted
        if state.audit and state.distance != self.shell_distance:
            raise CoherenceError(
                f"sampler left the shell: distance {state.distance} != "
                f"{self.shell_distance}"
            )
        return accepted, (i, j)


def make_sampler(model, state, sampler, config, rng=None):
    if sampler == "im":
        if not isinstance(config, ImConfig):
            raise ConfigurationError("sampler 'im' requires an ImConfig")
        return ImSampler(model, state, config, rng=rng)
    if sampler == "metropolis":
        if not isinstance(config, MetropolisConfig):
            raise ConfigurationError("sampler 'metropolis' requires a MetropolisConfig")
        return MetropolisSampler(model, state, config, rng=rng)
    raise ConfigurationError(f"unknown sampler {sampler!r}")


def run_chain(model, init: ShellState, sampler: str, num_moves, record_stride=1,
              config=None, rng=None, burn_in=0):
    """Run one chain, recording energy every ``record_stride`` attempted moves.

    Burn-in moves run before recording starts and are not recorded. The
    recorded arrays are deterministic given the seed; only the wall-clock
    estimate varies between reruns.
    """
    if num_moves < 1:
        raise ValueError(f"num_moves must be >= 1, got {num_moves}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    driver = make_sampler(model, init, sampler, config, rng=rng)
    for _ in range(burn_in):
        driver.step()
    evals_before = driver.evals
    accepts_before = driver.accepts
    steps, energies, accepted_flags, ks = [], [], [], []
    start = time.perf_counter()
    for move_index in range(num_moves):
        accepted, outcome = driver.step()
        if move_index % record_stride == 0:
            steps.append(move_index)
            energies.append(init.energy)
            accepted_flags.append(accepted)
            ks.append(outcome if sampler == "im" else 0)
    elapsed = time.perf_counter() - start
    return ChainRecord(
        steps=np.array(steps, dtype=np.int64),
        energies=np.array(energies, dtype=np.float64),
        accepted=np.array(accepted_flags, dtype=bool),
        ks=np.array(ks, dtype=np.int64),
        num_moves=num_moves,
        acceptance_rate=(driver.accepts - accepts_before) / num_moves,
        seconds_per_move=elapsed / num_moves,
        evals_per_move=(driver.evals - evals_before) / num_moves,
        meta={"sampler": sampler, "beta": config.beta},
    )


def burn_in_moves(fraction, moves, name="burn_in_fraction"):
    """The unrecorded moves before a chain of ``moves`` recorded ones;
    ``ConfigurationError`` names ``name`` when ``fraction * moves`` is not
    finite."""
    burn_in = fraction * moves
    if not math.isfinite(burn_in):
        raise ConfigurationError(
            f"{name} {fraction} times {moves} moves is not finite")
    return int(round(burn_in))


@dataclass(frozen=True)
class ChainSpec:
    """One recorded chain: its sampler settings, run length and random stream.

    ``chain_index`` selects the chain's stream under ``seed`` (see
    ``chain_rng``); the start state and every move draw from that stream.
    """

    sampler: str
    beta: float
    gamma: float
    k_min: int
    k_max: int
    order: str
    engine: str
    shell_distance: int
    moves: int
    stride: int
    burn_in: int
    seed: int
    trial: int
    chain_index: int

    def run(self, model, audit=False):
        """Draw a uniform start state on the shell and run the chain;
        ``audit`` turns on the state's coherence checks."""
        constraint = ShellConstraint(tuple([0] * model.num_vars), self.shell_distance)
        rng = chain_rng(self.seed, self.chain_index)
        init = random_shell_state(model, constraint, rng, audit=audit)
        if self.sampler == "im":
            config = ImConfig(
                beta=self.beta,
                saw=SawParams(gamma=self.gamma, k_min=self.k_min,
                              k_max=self.k_max, order_policy=self.order),
                seed=self.seed,
                engine=self.engine,
            )
        else:
            config = MetropolisConfig(beta=self.beta, seed=self.seed)
        return run_chain(
            model, init, self.sampler, self.moves, record_stride=self.stride,
            config=config, rng=rng, burn_in=self.burn_in,
        )

    def write_trace(self, record: ChainRecord, out_dir, model_path, **extra):
        """Write this chain's ``record`` to its trace file in ``out_dir``, with
        ``extra`` added to the header; returns the file name."""
        name = f"trace_{self.sampler}_{self.trial:03d}.csv"
        write_trace_csv(record, os.path.join(out_dir, name), {
            "model": model_path,
            "sampler": self.sampler,
            "beta": self.beta,
            "gamma": self.gamma,
            "seed": self.seed,
            "moves": self.moves,
            "stride": self.stride,
            "trial": self.trial,
            "burn_in": self.burn_in,
            "n": self.shell_distance,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "order": self.order,
            "engine": self.engine if self.sampler == "im" else "-",
            "evals_per_move": record.evals_per_move,
            "acceptance_rate": record.acceptance_rate,
            **extra,
        })
        return name


TRACE_META_ORDER = (
    "model", "sampler", "beta", "gamma", "seed", "moves", "stride",
)


def _format_value(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_trace_csv(record: ChainRecord, path, meta=None):
    """Serialize a record in the trace format: '# key=value' comment lines,
    then a ``step,energy,accepted,k`` header and one row per recorded move."""
    merged = dict(record.meta)
    if meta:
        merged.update(meta)
    merged.setdefault("moves", record.num_moves)
    lines = []
    for key in TRACE_META_ORDER:
        if key in merged:
            lines.append(f"# {key}={_format_value(merged.pop(key))}")
    for key in sorted(merged):
        lines.append(f"# {key}={_format_value(merged[key])}")
    lines.append("step,energy,accepted,k")
    for step, energy, acc, k in zip(
        record.steps, record.energies, record.accepted, record.ks
    ):
        lines.append(f"{int(step)},{format(float(energy), '.17g')},{int(acc)},{int(k)}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
