"""Chain drivers: the intracluster walk sampler and the Metropolis bit swap."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .analysis import write_trace_csv
from .errors import CoherenceError, ConfigurationError
from .model import IsingModel, ShellConstraint, ShellState, integral
from .saw_proposal import (
    BitDraws,
    SawParams,
    ScanWalkEngine,
    check_walk_lengths,
    draw_move_shape,
    is_dense,
    make_engine,
    run_walks,
)


def chain_rng(master_seed, chain_index=0):
    """Per-chain generator derived from (master seed, chain index).

    The split uses numpy's SeedSequence with the chain index as spawn key, so
    distinct chains get independent streams and reruns are reproducible.
    """
    seq = np.random.SeedSequence(entropy=integral(master_seed, "seed"),
                                 spawn_key=(integral(chain_index, "chain_index"),))
    return np.random.default_rng(seq)


def random_shell_state(model, constraint: ShellConstraint, rng, audit=False):
    """Uniform draw from the shell via a partial Fisher-Yates selection."""
    num = constraint.num_vars
    if model.num_vars != num:
        raise ValueError(
            f"model has {model.num_vars} variables, constraint has {num}"
        )
    n = constraint.distance
    below = BitDraws(rng).below
    idx = list(range(num))
    for t in range(n):
        r = t + below(num - t)
        idx[t], idx[r] = idx[r], idx[t]
    bits = list(constraint.reference)
    for t in range(n):
        bits[idx[t]] ^= 1
    return ShellState(model, bits, constraint.reference, audit=audit)


def check_shell(state: ShellState, distance):
    """Raise ``CoherenceError`` if ``state`` has left the shell at ``distance``."""
    if state.distance != distance:
        raise CoherenceError(
            f"sampler left the shell: distance {state.distance} != {distance}"
        )


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

    def __len__(self):
        return len(self.steps)


class ImSampler:
    """One chain of the intracluster-move sampler.

    Per move the random stream is consumed in a fixed order: walk length
    (nothing for a fixed length), order (random policy only), one uniform
    per walk step, accept uniform. The length, order and accept draws go
    through ``BitDraws``, so they are the values ``rng.integers`` and
    ``rng.random`` would give.
    The move is accepted with probability
    ``min(1, exp(-beta*(E1 - E0)) * f_rev / f_fwd)``; the shell normalizer
    cancels in the ratio and is never computed. A rejected move restores the
    engine's pre-move checkpoint instead of walking the flips back. With an
    audited state every move checks that the state kept its shell.
    """

    def __init__(self, model: IsingModel, state: ShellState, config: ImConfig,
                 rng=None):
        self.model = model
        self.state = state
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._draws = BitDraws(self.rng)
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
        draws = self._draws
        energy_before = state.energy
        k, order = draw_move_shape(
            self.config.saw, draws, state.distance, self.model.num_vars
        )
        saved = engine.checkpoint()
        _, _, log_fwd, log_rev = run_walks(engine, self.rng, k, order)
        log_alpha = -self.config.beta * (state.energy - energy_before) + log_rev - log_fwd
        if log_alpha > 0.0:
            log_alpha = 0.0
        accepted = draws.uniform() < math.exp(log_alpha)
        if not accepted:
            engine.restore(saved)
        self.accepts += accepted
        if state.audit:
            check_shell(state, self.shell_distance)
        return accepted, k


class MetropolisSampler:
    """Baseline pair-swap sampler on the shell.

    Picks one disagreeing and one agreeing bit uniformly, proposes flipping
    both, and accepts with min(1, exp(-beta * deltaE)). The energy change is
    evaluated exactly, including the coupling correction
    -4 * s_i * s_j * J_ij when the two bits are graph neighbors. Random
    stream order per move: disagree pick, agree pick, accept uniform, all
    three through ``BitDraws``, so they are the values ``rng.integers`` and
    ``rng.random`` would give.

    On a dense model (``is_dense``) the sampler binds a ``ScanWalkEngine``
    and reads each bit's deltaE = 2 * s * (local + field) off its local
    fields; an accepted swap is two engine flips. It never calls ``sample``
    or ``log_prob``, so the engine computes no logits. On a sparse model the
    sampler keeps each bit's field sum ``fields[i] + sum_j J_ij * s_j`` as
    the last swap that read it computed it, and recomputes it only once an
    accepted swap has flipped a neighbour and marked it stale; a bit's own
    flip leaves its sum alone, as the model has no self-couplings. On
    either model J_ij comes from bit i's ``{j: J_ij}`` dict, built when bit
    i is first picked. An accepted swap hands each bit's energy change to
    ``ShellState.flip``, except the second bit's when the two are
    neighbors, since the first flip changes its field. An audited state has
    every sum a swap reads compared with a fresh one, exactly.

    The picks index the sampler's own slot order, a permutation of the bits
    with the ``distance`` disagreeing ones first, built ascending on each
    side from the state at construction. An accepted swap moves the
    disagreeing bit to the last disagreeing slot, then the agreeing bit into
    that slot and the first bit into the agreeing bit's old slot. The
    sampler must be the only one to flip its state: its sums and the
    state's spins are kept together.
    """

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
        self._draws = BitDraws(self.rng)
        self.shell_distance = n
        self._slots = state.disagree_indices() + state.agree_indices()
        # a swap exponentiates only its own deltaE: no overflow rule, gamma 0
        self._engine = ScanWalkEngine(model, state, 0.0) if is_dense(model) else None
        # sparse path: field sums (None when stale); both: coupling dicts by bit
        self._sums = [None] * model.num_vars
        self._rows = [None] * model.num_vars
        self.accepts = 0
        self.evals = 0

    def step(self):
        """Attempt one swap; returns (accepted, (disagree_bit, agree_bit))."""
        state = self.state
        model = self.model
        engine = self._engine
        draws = self._draws
        slots = self._slots
        n = self.shell_distance
        a = draws.below(n)
        b = n + draws.below(len(slots) - n)
        i = slots[a]
        j = slots[b]
        spins = state.spins
        fields = model.fields
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = dict(model.adjacency[i])
        coupling_ij = row.get(j, 0.0)
        if engine is None:
            # ShellState.delta_energy's sum: field first, then adjacency order
            sums = self._sums
            acc_i = sums[i]
            if acc_i is None:
                acc_i = fields[i]
                for nb, coupling in model.adjacency[i]:
                    acc_i += coupling * spins[nb]
                sums[i] = acc_i
            acc_j = sums[j]
            if acc_j is None:
                acc_j = fields[j]
                for nb, coupling in model.adjacency[j]:
                    acc_j += coupling * spins[nb]
                sums[j] = acc_j
            if state.audit:
                for bit in (i, j):
                    # doubling keeps the comparison of the two sums exact
                    if 2.0 * spins[bit] * sums[bit] != state.delta_energy(bit):
                        raise CoherenceError(f"cached field sum of bit {bit} is stale")
        else:
            # a resync replaces the engine's vector
            local = engine._local
            acc_i = local.item(i) + fields[i]
            acc_j = local.item(j) + fields[j]
        delta_i = 2.0 * spins[i] * acc_i
        delta_j = 2.0 * spins[j] * acc_j
        delta = delta_i + delta_j - 4.0 * spins[i] * spins[j] * coupling_ij
        self.evals += 2
        log_alpha = -self.config.beta * delta
        if log_alpha > 0.0:
            log_alpha = 0.0
        accepted = draws.uniform() < math.exp(log_alpha)
        if accepted:
            if engine is None:
                state.flip(i, delta_i)
                state.flip(j, None if j in row else delta_j)
                for nb in row:
                    sums[nb] = None
                for nb, _ in model.adjacency[j]:
                    sums[nb] = None
            else:
                engine.flip(i)
                engine.flip(j)
            slots[a] = slots[n - 1]
            slots[n - 1] = j
            slots[b] = i
        self.accepts += accepted
        if state.audit:
            check_shell(state, self.shell_distance)
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
    num_moves = integral(num_moves, "num_moves", 1)
    record_stride = integral(record_stride, "record_stride", 1)
    burn_in = integral(burn_in, "burn_in", 0)
    driver = make_sampler(model, init, sampler, config, rng=rng)
    for _ in range(burn_in):
        driver.step()
    evals_before = driver.evals
    accepts_before = driver.accepts
    walk = sampler == "im"
    energies, accepted_flags, ks = [], [], []
    start = time.perf_counter()
    for move_index in range(num_moves):
        accepted, outcome = driver.step()
        if move_index % record_stride == 0:
            energies.append(init.energy)
            accepted_flags.append(accepted)
            ks.append(outcome if walk else 0)
    elapsed = time.perf_counter() - start
    return ChainRecord(
        steps=np.arange(0, num_moves, record_stride, dtype=np.int64),
        energies=np.array(energies, dtype=np.float64),
        accepted=np.array(accepted_flags, dtype=bool),
        ks=np.array(ks, dtype=np.int64),
        num_moves=num_moves,
        acceptance_rate=(driver.accepts - accepts_before) / num_moves,
        seconds_per_move=elapsed / num_moves,
        evals_per_move=(driver.evals - evals_before) / num_moves,
    )


def burn_in_moves(fraction, moves, name="burn_in_fraction"):
    """The unrecorded moves before a chain of ``moves`` recorded ones;
    ``ConfigurationError`` names ``name`` when ``fraction`` is negative or
    ``fraction * moves`` is not finite."""
    burn_in = fraction * moves
    if not (fraction >= 0.0 and math.isfinite(burn_in)):
        raise ConfigurationError(f"{name} must be >= 0 with a finite product, "
                                 f"got {fraction} times {moves} moves")
    return int(round(burn_in))


@dataclass(frozen=True)
class ChainSpec:
    """One recorded chain: its sampler, run length and random stream, and
    the run's ``walk`` settings, which every trace header records. A
    Metropolis chain runs only their ``beta`` and ``seed``.

    ``chain_index`` selects the chain's stream under ``walk.seed`` (see
    ``chain_rng``); the start state and every move draw from that stream.
    """

    sampler: str
    walk: ImConfig
    shell_distance: int
    moves: int
    stride: int
    burn_in: int
    trial: int
    chain_index: int

    def run(self, model, audit=False):
        """Draw a uniform start state on the shell and run the chain;
        ``audit`` turns on the state's coherence checks."""
        constraint = ShellConstraint(tuple([0] * model.num_vars), self.shell_distance)
        rng = chain_rng(self.walk.seed, self.chain_index)
        init = random_shell_state(model, constraint, rng, audit=audit)
        config = self.walk
        if self.sampler != "im":
            config = MetropolisConfig(beta=config.beta, seed=config.seed)
        return run_chain(
            model, init, self.sampler, self.moves, record_stride=self.stride,
            config=config, rng=rng, burn_in=self.burn_in,
        )

    @property
    def trace_name(self):
        """The file name of this chain's trace."""
        return f"trace_{self.sampler}_{self.trial:03d}.csv"

    def write_trace(self, record: ChainRecord, out_dir, model_path, **extra):
        """Write this chain's ``record`` to its trace file in ``out_dir``, with
        ``extra`` added to the header; returns the file name."""
        walk, saw = self.walk, self.walk.saw
        write_trace_csv(record, os.path.join(out_dir, self.trace_name), {
            "model": model_path,
            "sampler": self.sampler,
            "beta": walk.beta,
            "gamma": saw.gamma,
            "seed": walk.seed,
            "moves": self.moves,
            "stride": self.stride,
            "trial": self.trial,
            "burn_in": self.burn_in,
            "n": self.shell_distance,
            "k_min": saw.k_min,
            "k_max": saw.k_max,
            "order": saw.order_policy,
            "engine": walk.engine if self.sampler == "im" else "-",
            "evals_per_move": record.evals_per_move,
            "acceptance_rate": record.acceptance_rate,
            **extra,
        })
        return self.trace_name
