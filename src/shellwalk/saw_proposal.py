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
from operator import itemgetter

import numpy as np

from .errors import CoherenceError, ConfigurationError
from .model import COHERENCE_RTOL, IsingModel, ShellState, integral
from .weighted_index import WeightedIndexTree

ORDER_UP_DOWN = "up_down"  # toward the reference first, then away
ORDER_DOWN_UP = "down_up"
ORDER_POLICIES = (ORDER_UP_DOWN, ORDER_DOWN_UP, "random")

NEG_INF = float("-inf")

# Exponents beyond this magnitude are shifted by their side's largest logit
# before exponentiation (scan engine); the tree stores raw exponentials and
# cannot shift them, so it refuses such a model when it is built.
MAX_SAFE_EXPONENT = 500.0

DENSE_DEGREE_FRACTION = 0.25
# A model only counts as dense when its average degree also clears this
# floor; the fraction-of-M rule alone would misclassify small sparse
# lattices, where per-step rescans cost more than tree updates.
MIN_DENSE_DEGREE = 8.0

# State flips between an engine's rebuilds from scratch, which check the old
# local fields of an audited state; a multiple of ENERGY_REFRESH_INTERVAL.
RESYNC_INTERVAL = 1 << 16


class BitDraws:
    """``int(rng.integers(0, n))`` and ``rng.random()`` without numpy's
    per-call overhead: the same values, drawn from the same stream.

    ``below(n)`` is numpy's 32-bit Lemire draw (Lemire 2019, *Fast random
    integer generation in an interval*): the high word of
    ``next_uint32 * n``, redrawn while the low word falls below
    ``(2**32 - n) % n``. Its values are numpy's for 1 <= n <= 2**32 only;
    ``n == 1`` consumes nothing, as in numpy. ``uniform()`` is the bit
    generator's ``next_double``, which ``rng.random()`` returns. Both call
    the generator's own functions on its own state through its ctypes
    interface, so its 32-bit buffer and every later draw of ``rng`` stay as
    numpy's calls would leave them. No lock is taken: one chain owns its
    generator, as everywhere in this package.
    """

    __slots__ = ("_rng", "_state", "_next_uint32", "_next_double")

    def __init__(self, rng):
        interface = rng.bit_generator.ctypes
        self._rng = rng  # the interface holds raw pointers into it
        self._state = interface.state
        self._next_uint32 = interface.next_uint32
        self._next_double = interface.next_double

    def below(self, n):
        """A uniform integer in [0, n), for 1 <= n <= 2**32."""
        if n == 1:
            return 0
        m = self._next_uint32(self._state) * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next_uint32(self._state) * n
        return m >> 32

    def uniform(self):
        """A uniform double in [0, 1)."""
        return self._next_double(self._state)


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
        for name in ("k_min", "k_max"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        if not 0 <= self.k_min <= self.k_max:
            raise ValueError(
                f"need 0 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]"
            )
        # BitDraws.below draws k from at most 2**32 lengths
        if self.k_max - self.k_min >= 1 << 32:
            raise ValueError(
                f"k_max - k_min must be below 2**32, got [{self.k_min}, {self.k_max}]"
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


def policy_orders(policy):
    """The walk orders ``policy`` can draw: both for ``"random"``, else its own."""
    return (ORDER_UP_DOWN, ORDER_DOWN_UP) if policy == "random" else (policy,)


def check_walk_lengths(params, distance, num_vars):
    """Raise ``ConfigurationError`` unless ``k_min`` is feasible for every
    order the policy can draw on this shell."""
    for order in policy_orders(params.order_policy):
        limit = feasible_k_max(distance, num_vars, order)
        if params.k_min > limit:
            raise ConfigurationError(
                f"k_min={params.k_min} exceeds the feasible walk length "
                f"{limit} for order {order!r} at shell distance "
                f"{distance} of {num_vars} variables"
            )


def may_overflow(model, gamma):
    """Whether some flip's |gamma * deltaE / 2| can exceed ``MAX_SAFE_EXPONENT``;
    at ``gamma == 0`` none can, and the O(E) bound is not computed."""
    return gamma > 0.0 and 0.5 * gamma * model.max_flip_delta() > MAX_SAFE_EXPONENT


def is_dense(model):
    """Whether the model's average degree exceeds both
    ``DENSE_DEGREE_FRACTION * num_vars`` and ``MIN_DENSE_DEGREE``."""
    return model.average_degree > max(DENSE_DEGREE_FRACTION * model.num_vars, MIN_DENSE_DEGREE)


def choose_engine_kind(model, gamma, kind="auto"):
    """Pick the candidate-weight engine.

    The sum-tree engine wins for sparse models; a dense model (``is_dense``)
    is cheaper to rescan per step. Models whose worst-case |gamma * deltaE|
    could overflow exp() also fall back to the scanning engine, which shifts
    each side's exponents by their maximum; a forced ``"tree"`` is returned
    as is, and ``TreeWalkEngine`` refuses such a model itself.
    """
    if kind in ("tree", "scan"):
        return kind
    if kind != "auto":
        raise ValueError(f"engine must be 'auto', 'tree', or 'scan', got {kind!r}")
    if is_dense(model) or may_overflow(model, gamma):
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
    the flipped bit and its graph neighbors. ``walk`` runs a whole walk in
    one frame; ``flip`` runs one step of the same loop on a given bit, so
    the flip rule is written once. ``sample`` and ``log_prob`` read a step's
    draw and reverse weight off the trees. A flip also flips the bound state
    with the energy change read off the local field.

    A model on which some flip's exponent could pass ``MAX_SAFE_EXPONENT``
    (``may_overflow``) raises ``ConfigurationError`` here, so every
    candidate's leaf lies in [e^-500, e^500]: no sum overflows, and a
    nonempty side's weights and total are positive.
    """

    def __init__(self, model: IsingModel, state: ShellState, gamma: float):
        if may_overflow(model, gamma):
            bound = model.max_flip_delta()
            raise ConfigurationError(
                f"the tree engine overflows exp() on this model: its flip bound "
                f"{bound!r} allows gamma <= {2.0 * MAX_SAFE_EXPONENT / bound!r}, "
                f"got {gamma!r}; use engine 'scan' or 'auto'")
        self.model = model
        self.state = state
        self.gamma = gamma
        self.evals = 0
        # each bit's junction row, built by its first flip (see ``_steps``)
        self._rows = [None] * model.num_vars
        self._local = None
        self.sync()

    def sync(self):
        """Rebuild local fields and both trees from the bound state; with an
        audited state, a drifted local field raises ``CoherenceError``."""
        model = self.model
        state = self.state
        spins = state.spins
        disagree_spin = state.disagree_spin
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
            if spins[i] == disagree_spin[i]:
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
        """Flip bit ``i`` of the bound state: one step of ``walk`` on bit ``i``."""
        self._steps(self.state.in_disagree(i), (i,), False, 0.0, 0.0)

    def walk(self, toward, uniforms, log_fwd, log_rev):
        """Walk one step per uniform; returns the picked bits, and ``log_fwd``
        and ``log_rev`` with each step's log probabilities added."""
        return self._steps(toward, uniforms, True, log_fwd, log_rev)

    def _steps(self, toward, sources, drawn, log_fwd, log_rev):
        """The step loop of ``walk`` and ``flip``, returning ``walk``'s
        values: each source is a uniform for the source tree's draw when
        ``drawn``, else the bit to flip.

        Fields and trees are bound once and again after a ``sync``, which
        replaces them. A neighbour j's climb stops below its junction, the
        lowest ancestor its leaf shares with bit i's:
        ``(base + j) >> (i ^ j).bit_length()``. Bit i's first flip builds
        its row, one ``(j, coupling, leaf, stop)`` per neighbour, with
        ``leaf = base + j`` and ``stop = 2 * junction + 1``: the climb writes
        parents while the node is above ``stop``, so it ends on the
        junction's child. A row depends on the model alone; an isolated
        bit's is empty, hence the ``is None`` test. Bit i's climb runs last
        and rewrites its whole path in both trees, every junction included.
        Each climb carries the running sum, the value just written plus its
        sibling: bit for bit the fresh build's left + right, as IEEE
        addition commutes. Any later climb that changes a node's subtree
        passes through that node again, so every node is rewritten after all
        the changes beneath it and equals a fresh ``WeightedIndexTree``
        build's from the same leaves."""
        state = self.state
        spins = state.spins
        state_flip = state.flip
        fields = self.model.fields
        adjacency = self.model.adjacency
        rows = self._rows
        disagree_spin = state.disagree_spin
        neg_gamma = -self.gamma
        base = self._base
        exp = math.exp
        log = math.log
        evals = 0
        picks = []
        local, toward_nodes, away_nodes, sample, old, new = self._walk_frame(toward)
        for u in sources:
            i = sample(u) if drawn else u
            p = base + i
            log_fwd += log(old[p]) - log(old[1])
            # bit i's field is untouched by its own flip (no self-couplings)
            field_i = local[i] + fields[i]
            state_flip(i, 2.0 * spins[i] * field_i)
            s_new = spins[i]
            step = 2.0 * s_new
            row = rows[i]
            if row is None:
                row = rows[i] = [
                    (j, coupling, (leaf := base + j),
                     (leaf >> (i ^ j).bit_length()) * 2 + 1)
                    for j, coupling in adjacency[i]]
            for j, coupling, q, stop in row:
                local[j] = local_j = local[j] + step * coupling
                s_j = spins[j]
                nodes = toward_nodes if s_j == disagree_spin[j] else away_nodes
                nodes[q] = v = exp(neg_gamma * s_j * (local_j + fields[j]))
                while q > stop:
                    v += nodes[q ^ 1]
                    q >>= 1
                    nodes[q] = v
            # bit i leaves the source set: both trees climb from its leaf
            old[p] = v_old = 0.0
            new[p] = v_new = exp(neg_gamma * s_new * field_i)
            while p > 1:
                q = p ^ 1
                v_old += old[q]
                v_new += new[q]
                p >>= 1
                old[p] = v_old
                new[p] = v_new
            evals += len(row) + 1
            if state._flips % RESYNC_INTERVAL == 0:
                self.sync()
                local, toward_nodes, away_nodes, sample, old, new = self._walk_frame(toward)
            log_rev += log(new[base + i]) - log(new[1])
            picks.append(i)
        self.evals += evals
        return picks, log_fwd, log_rev

    def _walk_frame(self, toward):
        """What the step loop binds: the local fields, both trees' nodes, the
        source tree's draw, and the source and target trees' nodes."""
        src, dst = (self._toward, self._away) if toward else (self._away, self._toward)
        return (self._local, self._toward._nodes, self._away._nodes,
                src.sample, src._nodes, dst._nodes)

    def checkpoint(self):
        """Copies of the bound state, the local fields and both trees' nodes."""
        return (self.state.checkpoint(), list(self._local),
                list(self._toward._nodes), list(self._away._nodes))

    def restore(self, saved):
        """Return to a ``checkpoint`` by taking its lists as the bound state's
        and the engine's own, not copying them; each checkpoint restores once."""
        state, self._local, self._toward._nodes, self._away._nodes = saved
        self.state.restore(state)

    def sample(self, toward, u):
        i = (self._toward if toward else self._away).sample(u)
        return i, self.log_prob(toward, i)

    def log_prob(self, toward, i):
        """log(w_i) - log(total) off the ``toward`` tree's nodes."""
        if self.state.in_disagree(i) != toward:
            return NEG_INF
        nodes = (self._toward if toward else self._away)._nodes
        return math.log(nodes[self._base + i]) - math.log(nodes[1])


def draw_index(weights, u):
    """The index of ``weights`` that the uniform ``u`` draws, by inverse
    cumulative sums in index order, and the log of their total.

    A weight of 0.0 adds exactly 0.0 to every later partial sum, so zeroed
    entries (a masked-out side, an underflowed weight) leave the partial sums
    of the others, the total and the drawn entry as their compacted vector
    would give. For u < 1 and a normal total, ``u * total`` rounds below the
    total, so the draw lands on a positive weight; the scan engine's totals
    are at least e^-500, or 1 after a shift. A zero total raises
    ``ValueError``.
    """
    cumulative = weights.cumsum()
    total = cumulative.item(-1)
    return int(cumulative.searchsorted(u * total, side="right")), math.log(total)


def log_total(weights):
    """The log of the pairwise sum ``np.add.reduce`` of compacted weights."""
    return math.log(np.add.reduce(weights))


class ScanWalkEngine:
    """Per-step candidate scan for dense models or extreme exponents.

    Keeps the local fields as a vector, each bit's neighbours and 2 * J_ij,
    the logit coefficient ``_coef = -gamma * s`` of each bit's spin s, and
    the boolean masks ``_masks[toward]`` (disagreeing bits, the toward
    candidates, and their complement for away), which select a side's
    candidates in ascending bit order; ``sync`` builds both from the state
    and ``flip`` keeps them current. Spins are read from the bound state;
    ``flip``, the one flip rule, also flips it and adds the bit's 2 * J row
    to its neighbours' fields.

    Per state, every bit's logit as a candidate of its own side is
    ``z = _coef * (local + fields)``, -gamma / 2 times the energy change
    2 * s * (local + fields) of its flip. ``_weights``, the one weights
    rule of ``walk``, ``sample`` and ``log_prob``, gives a side's shifted
    logits ``z - shift`` and weights ``w = exp(z - shift)``: when no flip
    can push exp() near overflow, the shift is 0.0 and ``exp(z)`` is one
    exp per state, cached until the next flip, restore or resync;
    otherwise the shift is the side's largest logit. A draw reads the source side's
    weights as ``w * mask`` (``draw_index``); a reverse factor sums the
    target side's compacted weights (``log_total``); each adds the shifted
    logit of bit i minus the log of its total. ``MetropolisSampler`` binds
    one at gamma 0 on a dense model for its local fields alone and computes
    no logits.
    """

    def __init__(self, model: IsingModel, state: ShellState, gamma: float):
        self.model = model
        self.state = state
        self.gamma = gamma
        self.evals = 0
        # each bit's neighbours and 2 * J_ij, read off its (j, J_ij) pairs
        first, second = itemgetter(0), itemgetter(1)
        self._nbr_idx = []
        self._two_j = []
        for row in model.adjacency:
            self._nbr_idx.append(np.fromiter(map(first, row), np.intp, len(row)))
            two_j = np.fromiter(map(second, row), np.float64, len(row))
            two_j += two_j
            self._two_j.append(two_j)
        self._fields = np.array(model.fields, dtype=np.float64)
        # exp(z) is cached as _w unless a flip could push exp() near overflow
        self._may_overflow = may_overflow(model, gamma)
        self._local = self._w = None
        self.sync()

    def sync(self):
        """Rebuild local fields, the logit coefficients and the masks from
        the bound state, checking the old fields as ``TreeWalkEngine.sync`` does."""
        state = self.state
        spins = np.array(state.spins, dtype=np.float64)
        num = self.model.num_vars
        local = np.zeros(num, dtype=np.float64)
        for i in range(num):
            # halving is exact: the dot product's every term and partial sum
            # is twice the one over the couplings themselves
            local[i] = 0.5 * float(self._two_j[i] @ spins[self._nbr_idx[i]])
        check_local_fields(state, self._local, local)
        self._local = local
        # every entry is +/-gamma exactly
        self._coef = -self.gamma * spins
        self._set_masks(spins == state.disagree_spin)

    def _set_masks(self, toward):
        """Take ``toward`` as the toward mask and its complement as away."""
        self._masks = (~toward, toward)
        self._z = None

    def flip(self, i):
        """Flip bit ``i`` of the bound state, its neighbours' local fields,
        its logit coefficient and both masks."""
        state = self.state
        local = self._local
        s = state.spins[i]
        state.flip(i, 2.0 * s * (local.item(i) + self._fields.item(i)))
        # each neighbour's field changes by -2 * s * J_ij
        if s > 0.0:
            local[self._nbr_idx[i]] -= self._two_j[i]
        else:
            local[self._nbr_idx[i]] += self._two_j[i]
        self._coef[i] = -self._coef.item(i)
        away_mask, toward_mask = self._masks
        # an agreeing bit starts to disagree: a toward candidate
        toward = away_mask.item(i)
        away_mask[i] = not toward
        toward_mask[i] = toward
        self._z = None
        if state._flips % RESYNC_INTERVAL == 0:
            self.sync()

    def checkpoint(self):
        """Copies of the bound state, local fields, logit coefficients and
        toward mask."""
        return (self.state.checkpoint(), self._local.copy(), self._coef.copy(),
                self._masks[True].copy())

    def restore(self, saved):
        """Return to a ``checkpoint`` as ``TreeWalkEngine.restore`` does; the
        away mask is the restored toward mask's complement."""
        state, self._local, self._coef, toward = saved
        self.state.restore(state)
        self._set_masks(toward)

    def walk(self, toward, uniforms, log_fwd, log_rev):
        """Walk one step per uniform; returns the picked bits, and ``log_fwd``
        and ``log_rev`` with each step's log probabilities added, in one frame
        by the ``_weights`` rule; each step scans M + 1 candidates, the
        source side before the flip and the target side after it."""
        size = self._side_size(toward)
        picks = []
        for u in uniforms:
            if size == 0:
                raise ValueError("candidate set is empty")
            z, w = self._weights(toward)
            i, log_norm = draw_index(w * self._masks[toward], u)
            log_fwd += z.item(i) - log_norm
            self.flip(i)
            z, w = self._weights(not toward)
            log_rev += z.item(i) - log_total(w[self._masks[not toward]])
            picks.append(i)
            size -= 1
        self.evals += (self.model.num_vars + 1) * len(picks)
        return picks, log_fwd, log_rev

    def _side_size(self, toward):
        """How many bits are ``toward`` candidates, read off the state."""
        distance = self.state.distance
        return distance if toward else self.model.num_vars - distance

    def _weights(self, toward):
        """The bound state's logits less side ``toward``'s shift, and a
        weight vector whose entries on that side are their exp; shifted
        weights are zero off the side.

        Each coefficient is +/-gamma exactly, so a logit is the once-rounded
        product -gamma * s * (local + field), and exp works element by
        element, so a side's compacted weights are the doubles of ``exp`` of
        its compacted shifted logits."""
        z = self._z
        if z is None:
            z = self._z = self._coef * (self._local + self._fields)
            if not self._may_overflow:
                self._w = np.exp(z)
        if not self._may_overflow:
            return z, self._w
        mask = self._masks[toward]
        z = z - z[mask].max().item()
        return z, np.exp(z, where=mask, out=np.zeros_like(z))

    def sample(self, toward, u):
        """One ``walk`` draw from side ``toward``; for step-loop twins and perfbench."""
        size = self._side_size(toward)
        if size == 0:
            raise ValueError("candidate set is empty")
        self.evals += size
        z, w = self._weights(toward)
        i, log_norm = draw_index(w * self._masks[toward], u)
        return i, z.item(i) - log_norm

    def log_prob(self, toward, i):
        """Bit ``i``'s ``walk`` log probability on side ``toward`` (twins, perfbench)."""
        mask = self._masks[toward]
        if not mask.item(i):
            return NEG_INF
        self.evals += self._side_size(toward)
        z, w = self._weights(toward)
        return z.item(i) - log_total(w[mask])


def draw_move_shape(params, draws, distance, num_vars):
    """Draw (k, order) for one move through ``draws``, a ``BitDraws``; k is
    clamped to the feasible range.

    k is ``int(rng.integers(k_min, k_max + 1))``'s value and draw: one
    bounded integer when the range holds more than one length, nothing for
    a fixed length. The random order policy then draws one uniform. The
    feasible range depends only on the shell, which is invariant along a
    chain, so the clamping cancels in the accept ratio. Callers check
    ``k_min`` once with ``check_walk_lengths``.
    """
    k_raw = params.k_min + draws.below(params.k_max - params.k_min + 1)
    order = params.order_policy
    if order == "random":
        order = ORDER_UP_DOWN if draws.uniform() < 0.5 else ORDER_DOWN_UP
    return min(k_raw, feasible_k_max(distance, num_vars, order)), order


def run_walks(engine, rng, k, order):
    """Generate both walks in place, accumulating forward and reverse logs.

    Flips the engine and its bound state to the proposed configuration and
    returns (first walk, second walk, log_fwd, log_rev). Each walk is one
    ``engine.walk`` call on its own k of the move's 2k uniforms; the second
    carries on the first's running sums, so the logs are added step by step
    in walk order. The reverse log
    probability is accumulated in the same sweep: immediately after each
    flip the walked bit sits in the opposite candidate set, and the current
    state is exactly the intermediate state the reversed move would pass
    through, so its selection probability can be read off directly.
    """
    first_toward = order == ORDER_UP_DOWN
    # the same doubles as 2k scalar draws; nothing else draws in between
    uniforms = rng.random(2 * k).tolist()
    first, log_fwd, log_rev = engine.walk(first_toward, uniforms[:k], 0.0, 0.0)
    second, log_fwd, log_rev = engine.walk(not first_toward, uniforms[k:],
                                           log_fwd, log_rev)
    return first, second, log_fwd, log_rev


def propose(model, state, params, rng, engine="auto"):
    """Draw one move from ``state``; the input state is left untouched.

    Draw order from ``rng``: walk length (none for a fixed length), then
    order (random policy only), then one uniform per walk step.
    """
    check_walk_lengths(params, state.distance, model.num_vars)
    work = state.copy()
    eng = make_engine(model, work, params.gamma, engine)
    k, order = draw_move_shape(params, BitDraws(rng), work.distance, model.num_vars)
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
