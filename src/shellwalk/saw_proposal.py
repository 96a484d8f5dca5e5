"""Energy-biased walk moves on a fixed Hamming shell.

A move is a pair of walks of equal length k: one toward the reference state
(each step flips a currently disagreeing bit, lowering the distance) and one
away from it (flipping agreeing bits). No bit repeats within one walk, but
the second walk's candidates include the bits the first walk just flipped,
so it may flip them back (29% of second-walk flips on the ferro2d desk
preset, 16% on the rbm desk preset). A variant that forbids re-flips
sampled the 3x3 shell correctly but stopped accepting moves on the ferro2d
desk preset. Per step, candidate bit i is chosen with probability
proportional to exp(-gamma * deltaE_i / 2), equivalent after normalization
to weighting each neighbor state by exp(-gamma * E(state) / 2).

The half-delta scale pins the meaning of gamma: both walks of a move bias in
the traveled direction, so the move's accept ratio carries a net factor
exp((gamma - beta) * (E1 - E0)) times state-dependent normalizer terms.
gamma = beta is therefore the neutral setting where the walk bias exactly
offsets the target's reweighting; useful settings sit at or slightly below
beta, with smaller values under-biasing (high-energy proposals) and larger
ones over-biasing (reverse paths become improbable). The move returns to the
starting shell, and the exact forward and reverse log path probabilities are
produced for the acceptance ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoherenceError, ConfigurationError
from .model import COHERENCE_RTOL, IsingModel, ShellState
from .weighted_index import WeightedIndexTree

ORDER_UP_DOWN = "up_down"  # toward the reference first, then away
ORDER_DOWN_UP = "down_up"
ORDER_POLICIES = (ORDER_UP_DOWN, ORDER_DOWN_UP, "random")

NEG_INF = float("-inf")

# Exponents beyond this magnitude are shifted by the per-step maximum before
# exponentiation (scan engine), or force the scan engine outright (the tree
# stores raw exponentials and cannot shift per step).
MAX_SAFE_EXPONENT = 500.0

DENSE_DEGREE_FRACTION = 0.25
# A model only counts as dense when its average degree also clears this
# floor; the fraction-of-M rule alone would misclassify small sparse
# lattices, where per-step rescans cost more than tree updates.
MIN_DENSE_DEGREE = 8.0

# State flips between an engine's rebuilds from scratch, which check the old
# local fields of an audited state; a multiple of ENERGY_REFRESH_INTERVAL.
RESYNC_INTERVAL = 1 << 16


@dataclass(frozen=True)
class SawParams:
    """Walk configuration: bias strength, length range, and walk order."""

    gamma: float
    k_min: int
    k_max: int
    order_policy: str = ORDER_UP_DOWN

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0 <= self.k_min <= self.k_max:
            raise ValueError(
                f"need 0 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]"
            )
        if self.order_policy not in ORDER_POLICIES:
            raise ValueError(
                f"order_policy must be one of {ORDER_POLICIES}, got {self.order_policy!r}"
            )


@dataclass
class SawMove:
    """One proposed shell-preserving move and its exact proposal probabilities.

    ``first_walk`` and ``second_walk`` are the flipped bit indices of the two
    walks in the order applied; ``proposed`` is the final state, back on the
    starting shell. ``log_fwd`` is the log probability of generating exactly
    this walk pair from the start state; ``log_rev`` is the log probability of
    the reversed pair (second walk reversed, then first walk reversed) from
    ``proposed``.
    """

    order: str
    k: int
    gamma: float
    first_walk: tuple
    second_walk: tuple
    proposed: ShellState
    log_fwd: float
    log_rev: float


def reverse_sequences(first_seq, second_seq):
    """Map a walk pair to the walk pair of the reversed move."""
    return tuple(reversed(second_seq)), tuple(reversed(first_seq))


def feasible_k_max(distance, num_vars, order):
    """Longest walk that keeps every intermediate state on a valid shell."""
    if order == ORDER_UP_DOWN:
        return distance
    if order == ORDER_DOWN_UP:
        return num_vars - distance
    raise ValueError(f"unknown order {order!r}")


def check_walk_lengths(params, distance, num_vars):
    """Raise ``ConfigurationError`` unless ``k_min`` is feasible for every
    order the policy can draw on this shell."""
    orders = (ORDER_UP_DOWN, ORDER_DOWN_UP)
    if params.order_policy != "random":
        orders = (params.order_policy,)
    for order in orders:
        limit = feasible_k_max(distance, num_vars, order)
        if params.k_min > limit:
            raise ConfigurationError(
                f"k_min={params.k_min} exceeds the feasible walk length "
                f"{limit} for order {order!r} at shell distance "
                f"{distance} of {num_vars} variables"
            )


def choose_engine_kind(model, gamma, kind="auto"):
    """Pick the candidate-weight engine.

    The sum-tree engine wins for sparse models; a dense model (average degree
    above ``DENSE_DEGREE_FRACTION * num_vars``) is cheaper to rescan per
    step. Models whose worst-case |gamma * deltaE| could overflow exp() also
    fall back to the scanning engine, which shifts exponents per step.
    """
    if kind in ("tree", "scan"):
        return kind
    if kind != "auto":
        raise ValueError(f"engine must be 'auto', 'tree', or 'scan', got {kind!r}")
    if model.num_vars == 0:
        return "scan"
    if model.average_degree > max(DENSE_DEGREE_FRACTION * model.num_vars, MIN_DENSE_DEGREE):
        return "scan"
    if 0.5 * gamma * model.max_flip_delta() > MAX_SAFE_EXPONENT:
        return "scan"
    return "tree"


def check_local_fields(state, cached, scratch):
    """With an audited state, raise ``CoherenceError`` when a cached local
    field (None on the first build) drifted from its from-scratch value."""
    if state.audit and cached is not None:
        for i, (old, new) in enumerate(zip(cached, scratch)):
            if abs(old - new) > COHERENCE_RTOL * (1.0 + abs(new)):
                raise CoherenceError(
                    f"local field {i} is {float(old)!r}, recomputed {float(new)!r}")


def make_engine(model, state, gamma, kind="auto"):
    resolved = choose_engine_kind(model, gamma, kind)
    if resolved == "tree":
        return TreeWalkEngine(model, state, gamma)
    return ScanWalkEngine(model, state, gamma)


class TreeWalkEngine:
    """Sum-tree candidate weights for sparse models.

    Keeps two trees over all variables, one holding exp(-gamma * deltaE_i / 2)
    for currently disagreeing bits (candidates of toward-steps) and one for
    agreeing bits, plus the local fields sum_j J_ij s_j so a flip only touches
    the flipped bit and its graph neighbors: O(degree * log M) per flip.
    Every bit of a walk is flipped through ``flip``, which also flips the
    bound state with the energy change read off the local field.
    """

    kind = "tree"

    def __init__(self, model: IsingModel, state: ShellState, gamma: float):
        self.model = model
        self.state = state
        self.gamma = gamma
        self.evals = 0
        # a disagreeing bit's spin: -1.0 where the reference bit is 1
        self._disagree_spin = [1.0 - 2.0 * r for r in state.reference]
        self._local = None
        self.sync()

    def sync(self):
        """Rebuild local fields and both trees from the bound state; with an
        audited state, a drifted local field raises ``CoherenceError``."""
        model = self.model
        state = self.state
        spins = state.spins
        gamma = self.gamma
        fields = model.fields
        num = model.num_vars
        local = [0.0] * num
        toward_w = [0.0] * num
        away_w = [0.0] * num
        for i in range(num):
            acc = 0.0
            for j, coupling in model.adjacency[i]:
                acc += coupling * spins[j]
            local[i] = acc
            # half of deltaE_i = spins[i] * (local field + external field)
            w = math.exp(-gamma * spins[i] * (acc + fields[i]))
            if state.in_disagree(i):
                toward_w[i] = w
            else:
                away_w[i] = w
        check_local_fields(state, self._local, local)
        self._local = local
        self._toward = WeightedIndexTree(toward_w)
        self._away = WeightedIndexTree(away_w)
        self._base = self._toward._base  # both trees hold num leaves
        self.evals += num

    def flip(self, i):
        """Flip bit ``i`` of the bound state and refresh what the flip touches:
        each touched leaf is written into its tree's nodes and its ancestors
        recomputed by ``WeightedIndexTree.update``'s own rule, so every node
        equals a fresh build's from the same leaves."""
        model = self.model
        state = self.state
        spins = state.spins
        local = self._local
        fields = model.fields
        neg_gamma = -self.gamma
        exp = math.exp
        base = self._base
        toward = self._toward._nodes
        away = self._away._nodes
        # bit i's field is untouched by its own flip (no self-couplings)
        field_i = local[i] + fields[i]
        state.flip(i, 2.0 * spins[i] * field_i)
        disagree_spin = self._disagree_spin
        s_new = spins[i]
        step = 2.0 * s_new
        neighbors = model.adjacency[i]
        for j, coupling in neighbors:
            local[j] = local_j = local[j] + step * coupling
            s_j = spins[j]
            nodes = toward if s_j == disagree_spin[j] else away
            p = base + j
            nodes[p] = exp(neg_gamma * s_j * (local_j + fields[j]))
            p >>= 1
            while p:
                nodes[p] = nodes[2 * p] + nodes[2 * p + 1]
                p >>= 1
        # bit i moves from one candidate set to the other: both trees climb
        # from its leaf together
        old, new = (away, toward) if s_new == disagree_spin[i] else (toward, away)
        p = base + i
        old[p] = 0.0
        new[p] = exp(neg_gamma * s_new * field_i)
        p >>= 1
        while p:
            old[p] = old[2 * p] + old[2 * p + 1]
            new[p] = new[2 * p] + new[2 * p + 1]
            p >>= 1
        self.evals += len(neighbors) + 1
        if state._flips % RESYNC_INTERVAL == 0:
            self.sync()

    def checkpoint(self):
        """Copies of the bound state, the local fields and both trees."""
        return (self.state.checkpoint(), list(self._local),
                self._toward.checkpoint(), self._away.checkpoint())

    def restore(self, saved):
        """Return the bound state and the engine in place to a ``checkpoint``."""
        state, self._local[:], toward, away = saved
        self.state.restore(state)
        self._toward.restore(toward)
        self._away.restore(away)

    def sample(self, toward, u):
        tree = self._toward if toward else self._away
        i = tree.sample(u)
        return i, tree.log_weight_fraction(i)

    def log_prob(self, toward, i):
        if self.state.in_disagree(i) != toward:
            return NEG_INF
        tree = self._toward if toward else self._away
        return tree.log_weight_fraction(i)


class ScanWalkEngine:
    """Per-step candidate scan for dense models or extreme exponents.

    Keeps the local fields as a vector and reads spins from the bound state;
    every step recomputes all flip energy changes in O(M) (cached until the
    next flip, so the reverse-factor lookup after a flip reuses the scan of
    the next sampling step). ``flip`` also flips the bound state.
    """

    kind = "scan"

    def __init__(self, model: IsingModel, state: ShellState, gamma: float):
        self.model = model
        self.state = state
        self.gamma = gamma
        self.evals = 0
        self._nbr_idx = [np.array([j for j, _ in row], dtype=np.intp)
                         for row in model.adjacency]
        self._nbr_coup = [np.array([c for _, c in row], dtype=np.float64)
                          for row in model.adjacency]
        self._fields = np.array(model.fields, dtype=np.float64)
        # gamma * rho, rho = 2 * reference - 1: a disagreeing bit's spin is -rho
        self._gamma_rho = gamma * (2.0 * np.array(state.reference, dtype=np.float64) - 1.0)
        # skip the per-step shift when no flip can push exp() near overflow
        self._may_overflow = 0.5 * gamma * model.max_flip_delta() > MAX_SAFE_EXPONENT
        self._local = None
        self.sync()

    def sync(self):
        """Rebuild local fields and the partition mask from the bound state,
        checking the old fields as ``TreeWalkEngine.sync`` does."""
        state = self.state
        spins = np.array(state.spins, dtype=np.float64)
        num = self.model.num_vars
        local = np.zeros(num, dtype=np.float64)
        for i in range(num):
            idx = self._nbr_idx[i]
            if idx.size:
                local[i] = float(self._nbr_coup[i] @ spins[idx])
        check_local_fields(state, self._local, local)
        self._local = local
        self._disagree = np.zeros(num, dtype=bool)
        self._disagree[state.disagree_indices()] = True
        self._logits = None

    def flip(self, i):
        """Flip bit ``i`` of the bound state and its neighbors' local fields."""
        state = self.state
        s = state.spins[i]
        state.flip(i, 2.0 * s * (float(self._local[i]) + float(self._fields[i])))
        idx = self._nbr_idx[i]
        if idx.size:
            self._local[idx] += -2.0 * s * self._nbr_coup[i]
        self._disagree[i] = not self._disagree[i]
        self._logits = None
        if state._flips % RESYNC_INTERVAL == 0:
            self.sync()

    def checkpoint(self):
        """Copies of the bound state, local fields and partition mask."""
        return (self.state.checkpoint(), self._local.copy(), self._disagree.copy())

    def restore(self, saved):
        """Return the bound state and the engine in place to a ``checkpoint``."""
        state, self._local[:], self._disagree[:] = saved
        self.state.restore(state)
        self._logits = None

    def _candidate_logits(self, toward):
        # -gamma * deltaE / 2 of every bit as a toward candidate, cached until
        # the next flip; an away candidate's logit is its negation. Sign flips
        # are exact: these are the doubles of -gamma * (s * (L + h)).
        logits = self._logits
        if logits is None:
            logits = self._logits = self._gamma_rho * (self._local + self._fields)
        if toward:
            idx = np.nonzero(self._disagree)[0]
            z = logits[idx]
        else:
            idx = np.nonzero(~self._disagree)[0]
            z = -logits[idx]
        self.evals += idx.size
        shift = float(z.max()) if self._may_overflow and z.size else 0.0
        return idx, z, shift

    def sample(self, toward, u):
        idx, z, shift = self._candidate_logits(toward)
        if idx.size == 0:
            raise ValueError("candidate set is empty")
        weights = np.exp(z - shift)
        cumulative = np.cumsum(weights)
        total = cumulative[-1]
        pos = min(int(np.searchsorted(cumulative, u * total, side="right")),
                  idx.size - 1)
        while weights[pos] <= 0.0 and pos > 0:
            pos -= 1
        log_prob = float(z[pos] - shift) - math.log(float(total))
        return int(idx[pos]), log_prob

    def log_prob(self, toward, i):
        if bool(self._disagree[i]) != toward:
            return NEG_INF
        idx, z, shift = self._candidate_logits(toward)
        total = float(np.exp(z - shift).sum())
        z_i = float(self._logits[i]) if toward else -float(self._logits[i])
        return (z_i - shift) - math.log(total)


def draw_move_shape(params, rng, distance, num_vars):
    """Draw (k, order) for one move; k is clamped to the feasible range.

    One integer is always consumed for k (even for a fixed length) so the
    stream layout does not depend on parameter values; the random order policy
    consumes one extra uniform. The feasible range depends only on the shell,
    which is invariant along a chain, so the clamping cancels in the accept
    ratio. Callers check ``k_min`` once with ``check_walk_lengths``.
    """
    k_raw = int(rng.integers(params.k_min, params.k_max + 1))
    order = params.order_policy
    if order == "random":
        order = ORDER_UP_DOWN if rng.random() < 0.5 else ORDER_DOWN_UP
    return min(k_raw, feasible_k_max(distance, num_vars, order)), order


def run_walks(engine, rng, k, order):
    """Generate both walks in place, accumulating forward and reverse logs.

    Flips the engine and its bound state to the proposed configuration and
    returns (first walk, second walk, log_fwd, log_rev). The
    reverse log probability is accumulated in the same sweep: immediately
    after each flip the walked bit sits in the opposite candidate set, and the
    current state is exactly the intermediate state the reversed move would
    pass through, so its selection probability can be read off directly.
    """
    first_toward = order == ORDER_UP_DOWN
    log_fwd = log_rev = 0.0
    first, second = [], []
    # the same doubles as 2k scalar draws; nothing else draws in between
    uniforms = iter(rng.random(2 * k).tolist())
    for toward, walk in ((first_toward, first), (not first_toward, second)):
        for _ in range(k):
            i, log_p = engine.sample(toward, next(uniforms))
            log_fwd += log_p
            engine.flip(i)
            log_rev += engine.log_prob(not toward, i)
            walk.append(i)
    return first, second, log_fwd, log_rev


def propose(model, state, params, rng, engine="auto"):
    """Draw one move from ``state``; the input state is left untouched.

    Draw order from ``rng``: walk length, then order (random policy only),
    then one uniform per walk step.
    """
    check_walk_lengths(params, state.distance, model.num_vars)
    work = state.copy()
    eng = make_engine(model, work, params.gamma, engine)
    k, order = draw_move_shape(params, rng, work.distance, model.num_vars)
    first, second, log_fwd, log_rev = run_walks(eng, rng, k, order)
    return SawMove(
        order=order,
        k=k,
        gamma=params.gamma,
        first_walk=tuple(first),
        second_walk=tuple(second),
        proposed=work,
        log_fwd=log_fwd,
        log_rev=log_rev,
    )


def path_log_prob(model, start, first_seq, second_seq, gamma, order=ORDER_UP_DOWN):
    """Log probability of walking exactly the given flip pair from ``start``.

    Replays the flips on a copy of ``start``, evaluating each step's selection
    probability over the full candidate set of the intermediate state. Returns
    -inf when any step's index is not in its candidate set.
    """
    if len(first_seq) != len(second_seq):
        raise ValueError(
            f"walks must have equal length, got {len(first_seq)} and {len(second_seq)}"
        )
    if order not in (ORDER_UP_DOWN, ORDER_DOWN_UP):
        raise ValueError(f"unknown order {order!r}")
    work = start.copy()
    first_toward = order == ORDER_UP_DOWN
    total = 0.0
    half_gamma = 0.5 * gamma
    for toward, seq in ((first_toward, first_seq), (not first_toward, second_seq)):
        for i in seq:
            if work.in_disagree(i) != toward:
                return NEG_INF
            candidates = (
                work.disagree_indices() if toward else work.agree_indices()
            )
            logits = [-half_gamma * work.delta_energy(j) for j in candidates]
            shift = 0.0
            top = max(logits)
            if top > MAX_SAFE_EXPONENT or min(logits) < -MAX_SAFE_EXPONENT:
                shift = top
            norm = math.log(math.fsum(math.exp(z - shift) for z in logits))
            total += (-half_gamma * work.delta_energy(i) - shift) - norm
            work.flip(i)
    return total
