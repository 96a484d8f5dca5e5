import copy
import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shellwalk import IsingModel, ShellConstraint, ShellState
from shellwalk.errors import CoherenceError, ConfigurationError
from shellwalk.generators import cube3d_pm_j, grid2d, rbm_gabor
from shellwalk.oracle import check_pathwise_db
from shellwalk.samplers import ImConfig, ImSampler, random_shell_state
from shellwalk.saw_proposal import (
    MAX_SAFE_EXPONENT,
    NEG_INF,
    ORDER_DOWN_UP,
    ORDER_UP_DOWN,
    RESYNC_INTERVAL,
    SawParams,
    ScanWalkEngine,
    TreeWalkEngine,
    check_walk_lengths,
    choose_engine_kind,
    draw_index,
    feasible_k_max,
    is_dense,
    may_overflow,
    path_log_prob,
    policy_orders,
    propose,
    reverse_sequences,
    run_walks,
)
from shellwalk.weighted_index import WeightedIndexTree


def chain_model(num_vars, coupling=1.0, fields=None):
    edges = [(i, i + 1, coupling) for i in range(num_vars - 1)]
    return IsingModel(num_vars, edges, fields or [0.0] * num_vars)


def replayed(start, walk):
    """A copy of ``start`` with the bits of ``walk`` flipped."""
    state = start.copy()
    for i in walk:
        state.flip(i)
    return state


def brute_step_log_prob(model, state, flip_index, toward, gamma):
    """Selection log probability from scratch: full energies per candidate."""
    candidates = (
        sorted(state.disagree_indices()) if toward else sorted(state.agree_indices())
    )
    base = model.energy(state.bits)
    weights = []
    for j in candidates:
        neighbor = list(state.bits)
        neighbor[j] ^= 1
        weights.append(math.exp(-0.5 * gamma * (model.energy(neighbor) - base)))
    return math.log(weights[candidates.index(flip_index)] / math.fsum(weights))


def brute_path_log_prob(model, start, first_seq, second_seq, gamma, order):
    state = start.copy()
    first_toward = order == ORDER_UP_DOWN
    total = 0.0
    for toward, seq in ((first_toward, first_seq), (not first_toward, second_seq)):
        for i in seq:
            total += brute_step_log_prob(model, state, i, toward, gamma)
            state.flip(i)
    return total


def random_grid_state(seed, side=3, n=4):
    rng = np.random.default_rng(seed)
    model = grid2d(side, float(rng.uniform(-1, 1)), float(rng.uniform(-0.3, 0.3)))
    constraint = ShellConstraint((0,) * model.num_vars, n)
    return model, random_shell_state(model, constraint, rng), rng


class TestSawParams:
    def test_validation(self):
        SawParams(gamma=0.0, k_min=0, k_max=5)
        with pytest.raises(ValueError):
            SawParams(gamma=-0.1, k_min=1, k_max=2)
        with pytest.raises(ValueError):
            SawParams(gamma=1.0, k_min=3, k_max=2)
        with pytest.raises(ValueError):
            SawParams(gamma=1.0, k_min=1, k_max=2, order_policy="sideways")
        SawParams(gamma=1.0, k_min=1, k_max=2**32)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            SawParams(gamma=1.0, k_min=0, k_max=2**32)
        with pytest.raises(ValueError, match="k_max must be an integer"):
            SawParams(gamma=1.0, k_min=1, k_max=1.5)


class TestReverseSequences:
    def test_reversal(self):
        assert reverse_sequences([2, 3, 1, 4], [])[1] == (4, 1, 3, 2)

    def test_walk_pair(self):
        assert reverse_sequences((3, 1, 4), (4, 6, 1)) == ((1, 6, 4), (4, 1, 3))

    @given(
        st.lists(st.integers(0, 30), max_size=8),
        st.lists(st.integers(0, 30), max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_double_reversal_is_identity(self, first, second):
        once = reverse_sequences(first, second)
        again = reverse_sequences(*once)
        assert again == (tuple(first), tuple(second))


class TestWalkGeometry:
    def test_worked_example(self):
        # 7 bits, start on shell 5; walk toward the reference through
        # [3, 1, 4], then away through [4, 6, 1]
        model = chain_model(7, 0.5)
        start = ShellState(model, [1, 1, 1, 1, 1, 0, 0], (0,) * 7)
        mid = start.copy()
        for i in (3, 1, 4):
            mid.flip(i)
        assert mid.bits == [1, 0, 1, 0, 0, 0, 0]
        assert mid.distance == 2
        for i in (4, 6, 1):
            mid.flip(i)
        assert mid.bits == [1, 1, 1, 0, 1, 0, 1]
        assert mid.distance == 5
        # the reversed pair is allowable from the final state
        rev_first, rev_second = reverse_sequences((3, 1, 4), (4, 6, 1))
        assert rev_first == (1, 6, 4)
        log_rev = path_log_prob(model, mid, rev_first, rev_second, 0.7)
        assert math.isfinite(log_rev)

    def test_proposed_returns_to_shell(self):
        for seed in range(8):
            model, state, rng = random_grid_state(seed)
            params = SawParams(
                gamma=float(rng.uniform(0, 1)), k_min=1, k_max=3,
                order_policy="random",
            )
            move = propose(model, state, params, rng)
            assert move.proposed.distance == state.distance
            offset = -move.k if move.order == ORDER_UP_DOWN else move.k
            assert replayed(state, move.first_walk).distance == state.distance + offset

    def test_self_avoidance_within_walks(self):
        for seed in range(8):
            model, state, rng = random_grid_state(seed)
            params = SawParams(gamma=0.5, k_min=3, k_max=3)
            move = propose(model, state, params, rng)
            assert len(set(move.first_walk)) == move.k
            assert len(set(move.second_walk)) == move.k

    def test_flip_composition_reaches_proposed(self):
        model, state, rng = random_grid_state(3)
        params = SawParams(gamma=0.8, k_min=2, k_max=3)
        move = propose(model, state, params, rng)
        replay = state.copy()
        for i in move.first_walk + move.second_walk:
            replay.flip(i)
        assert replay.bits == move.proposed.bits

    def test_input_state_untouched(self):
        model, state, rng = random_grid_state(4)
        before = list(state.bits)
        propose(model, state, SawParams(gamma=0.3, k_min=2, k_max=2), rng)
        assert state.bits == before


class TestPathLogProb:
    def test_uniform_at_zero_bias(self):
        model = chain_model(6)
        state = ShellState(model, [1, 1, 1, 0, 0, 0], (0,) * 6)
        rng = np.random.default_rng(0)
        params = SawParams(gamma=0.0, k_min=2, k_max=2)
        move = propose(model, state, params, rng)
        n, num, k = 3, 6, 2
        expected = -sum(
            math.log(n - i) for i in range(k)
        ) - sum(math.log(num - n + k - i) for i in range(k))
        assert move.log_fwd == pytest.approx(expected, abs=1e-12)
        assert move.log_rev == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_chain(self):
        # every reachable walk pair on a 4-variable chain, one step each way
        model = chain_model(4)
        state = ShellState(model, [1, 1, 0, 0], (0,) * 4)
        gamma = 1.0
        k = 1
        count = 0
        for first in itertools.permutations(sorted(state.disagree_indices()), k):
            mid = state.copy()
            for i in first:
                mid.flip(i)
            for second in itertools.permutations(sorted(mid.agree_indices()), k):
                got = path_log_prob(model, state, first, second, gamma)
                want = brute_path_log_prob(
                    model, state, first, second, gamma, ORDER_UP_DOWN
                )
                assert got == pytest.approx(want, abs=1e-10)
                count += 1
        assert count == 2 * 3

    def test_propose_matches_replay(self):
        for seed in range(10):
            model, state, rng = random_grid_state(seed)
            gamma = float(rng.uniform(0, 1))
            params = SawParams(gamma=gamma, k_min=1, k_max=3, order_policy="random")
            move = propose(model, state, params, rng)
            assert path_log_prob(
                model, state, move.first_walk, move.second_walk, gamma, move.order
            ) == pytest.approx(move.log_fwd, abs=1e-10)
            rev_first, rev_second = reverse_sequences(
                move.first_walk, move.second_walk
            )
            assert path_log_prob(
                model, move.proposed, rev_first, rev_second, gamma, move.order
            ) == pytest.approx(move.log_rev, abs=1e-10)

    def test_reverse_pair_always_allowable(self):
        for seed in range(12):
            model, state, rng = random_grid_state(seed)
            params = SawParams(gamma=0.6, k_min=1, k_max=4, order_policy="random")
            move = propose(model, state, params, rng)
            rev_first, rev_second = reverse_sequences(
                move.first_walk, move.second_walk
            )
            assert math.isfinite(
                path_log_prob(model, move.proposed, rev_first, rev_second,
                              0.6, move.order)
            )

    def test_unallowable_step_is_minus_inf(self):
        model = chain_model(5)
        state = ShellState(model, [1, 1, 0, 0, 0], (0,) * 5)
        # first index 3 agrees with the reference, so a toward-step cannot flip it
        assert path_log_prob(model, state, (3,), (3,), 0.5) == -math.inf

    def test_length_mismatch(self):
        model = chain_model(5)
        state = ShellState(model, [1, 1, 0, 0, 0], (0,) * 5)
        with pytest.raises(ValueError):
            path_log_prob(model, state, (0, 1), (2,), 0.5)

    def test_step_probabilities_normalize(self):
        # summing exp(log path prob) over all one-step pairs gives one
        model, state, rng = random_grid_state(6, n=3)
        total = 0.0
        for first in sorted(state.disagree_indices()):
            mid = state.copy()
            mid.flip(first)
            for second in sorted(mid.agree_indices()):
                total += math.exp(
                    path_log_prob(model, state, (first,), (second,), 0.7)
                )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_delta_weights_equal_state_energy_weights(self):
        # exp(-g*deltaE/2) and exp(-g*E(neighbor)/2) give the same selection
        # probabilities once normalized
        model, state, rng = random_grid_state(9, n=4)
        gamma = 0.9
        base = model.energy(state.bits)
        candidates = sorted(state.disagree_indices())
        delta_w = [math.exp(-0.5 * gamma * state.delta_energy(j)) for j in candidates]
        state_w = []
        for j in candidates:
            neighbor = list(state.bits)
            neighbor[j] ^= 1
            state_w.append(math.exp(-0.5 * gamma * model.energy(neighbor)))
        delta_p = np.array(delta_w) / math.fsum(delta_w)
        state_p = np.array(state_w) / math.fsum(state_w)
        assert np.allclose(delta_p, state_p, atol=1e-10)


class TestEngines:
    def test_tree_and_scan_agree(self):
        model, state, _ = random_grid_state(11, n=4)
        gamma = 0.7
        params = SawParams(gamma=gamma, k_min=3, k_max=3)
        moves = {}
        for kind in ("tree", "scan"):
            rng = np.random.default_rng(999)
            moves[kind] = propose(model, state, params, rng, engine=kind)
        assert moves["tree"].first_walk == moves["scan"].first_walk
        assert moves["tree"].second_walk == moves["scan"].second_walk
        assert moves["tree"].log_fwd == pytest.approx(
            moves["scan"].log_fwd, abs=1e-10
        )
        assert moves["tree"].log_rev == pytest.approx(
            moves["scan"].log_rev, abs=1e-10
        )

    def test_engine_state_survives_flip_undo(self):
        model, state, rng = random_grid_state(13, n=4)
        engine = TreeWalkEngine(model, state, gamma=0.5)
        reference = TreeWalkEngine(model, state.copy(), gamma=0.5)
        path = [int(rng.integers(0, model.num_vars)) for _ in range(6)]
        for i in path + path[::-1]:
            engine.flip(i)
        for toward in (True, False):
            for i in range(model.num_vars):
                got = engine.log_prob(toward, i)
                want = reference.log_prob(toward, i)
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("engine_class", [TreeWalkEngine, ScanWalkEngine],
                             ids=["tree", "scan"])
    def test_resync_audit_catches_field_drift(self, engine_class):
        model = grid2d(3, 1.0, 0.0)
        state = ShellState(model, [0] * 9, (0,) * 9, audit=True)
        engine = engine_class(model, state, gamma=0.5)
        # bit 8 is no neighbor of bit 0, so only the periodic rebuild reads it
        engine._local[8] += 1.0
        with pytest.raises(CoherenceError, match="local field 8"):
            for _ in range(RESYNC_INTERVAL):
                engine.flip(0)

    def test_kind_selection(self):
        sparse = grid2d(8, 1.0, 0.0)
        assert choose_engine_kind(sparse, 0.5) == "tree"
        dense = rbm_gabor(16, 8, seed=0)
        assert choose_engine_kind(dense, 0.5) == "scan"
        assert not is_dense(sparse) and is_dense(dense)
        # extreme couplings overflow raw exponential weights
        hot = IsingModel(4, [(0, 1, 4000.0)], [0.0] * 4)
        assert choose_engine_kind(hot, 1.0) == "scan"
        # a forced kind is only chosen: the tree engine refuses when built
        assert choose_engine_kind(hot, 1.0, kind="tree") == "tree"
        with pytest.raises(ValueError):
            choose_engine_kind(sparse, 0.5, kind="bogus")

    def test_forced_tree_refuses_a_ring_whose_flips_overflow(self):
        # fields of 705 bound a flip by 1412, so gamma = 1 puts exponents
        # past MAX_SAFE_EXPONENT: the tree's sums would overflow to inf
        model = IsingModel(40, [(i, (i + 1) % 40, 0.5) for i in range(40)],
                           [705.0] * 40)
        state = ShellState(model, [1] * 20 + [0] * 20, (0,) * 40)
        params = SawParams(gamma=1.0, k_min=1, k_max=3)
        largest = repr(2 * MAX_SAFE_EXPONENT / 1412.0)
        with pytest.raises(ConfigurationError, match=largest):
            ImSampler(model, state, ImConfig(beta=1.0, saw=params, engine="tree"))
        with pytest.raises(ConfigurationError, match="flip bound 1412.0"):
            propose(model, state, params, np.random.default_rng(0), engine="tree")
        sampler = ImSampler(model, state, ImConfig(beta=1.0, saw=params))
        assert isinstance(sampler.engine, ScanWalkEngine)

    @pytest.mark.parametrize("model,bits", [
        (IsingModel(40, [(i, (i + 1) % 40, 0.5) for i in range(40)],
                    [705.0] * 40), [1] * 20 + [0] * 20),
        # from these bits an unrefused build would hold zero leaves
        (IsingModel(4, [(0, 1, 4000.0)], [0.0] * 4), [1, 1, 0, 0]),
    ], ids=["ring", "hot"])
    def test_direct_tree_build_refuses_a_model_whose_flips_overflow(self, model, bits):
        bound = model.max_flip_delta()
        reference = (0,) * model.num_vars
        with pytest.raises(ConfigurationError, match=f"flip bound {bound!r}"):
            TreeWalkEngine(model, ShellState(model, bits, reference), 1.0)
        # at the largest safe gamma every leaf stays within exp()'s range
        engine = TreeWalkEngine(model, ShellState(model, bits, reference),
                                2 * MAX_SAFE_EXPONENT / bound)
        for toward in (True, False):
            tree = engine._toward if toward else engine._away
            assert 0.0 < tree._nodes[1] < math.inf
            for i in range(model.num_vars):
                if engine.state.in_disagree(i) == toward:
                    assert math.isfinite(engine.log_prob(toward, i))

    def test_zero_gamma_never_overflows_and_skips_the_bound(self, monkeypatch):
        hot = IsingModel(4, [(0, 1, 4000.0)], [0.0] * 4)
        assert may_overflow(hot, 1.0)

        def refused(model):
            raise AssertionError("max_flip_delta scanned at gamma 0")

        monkeypatch.setattr(IsingModel, "max_flip_delta", refused)
        assert not may_overflow(hot, 0.0)
        assert choose_engine_kind(hot, 0.0) == "tree"

    @pytest.mark.parametrize("kind", ["tree", "scan", "auto"])
    def test_zero_variable_model_proposes_empty_move(self, kind):
        model = IsingModel(0, [], [])
        state = ShellState(model, [], ())
        params = SawParams(gamma=0.5, k_min=0, k_max=2)
        move = propose(model, state, params, np.random.default_rng(0), engine=kind)
        assert (move.k, move.first_walk, move.second_walk) == (0, (), ())
        assert (move.log_fwd, move.log_rev) == (0.0, 0.0)

    def test_scan_handles_extreme_couplings(self):
        model = IsingModel(
            6, [(i, i + 1, 2000.0) for i in range(5)], [0.0] * 6
        )
        state = ShellState(model, [1, 1, 1, 0, 0, 0], (0,) * 6)
        rng = np.random.default_rng(1)
        move = propose(model, state, SawParams(gamma=1.0, k_min=2, k_max=2),
                       rng, engine="scan")
        assert math.isfinite(move.log_fwd)
        assert math.isfinite(move.log_rev)


def chorded_ring(seed, scale, field_scale, strong=None):
    """A 16-bit ring with the 8 chords (i, i + 8), couplings drawn
    N(0, scale) and fields N(0, field_scale), and a random reference; the
    chord (0, 8) is set to ``strong`` when given."""
    rng = np.random.default_rng(seed)
    pairs = [(i, (i + 1) % 16) for i in range(16)] + [(i, i + 8) for i in range(8)]
    couplings = rng.normal(0.0, scale, len(pairs))
    if strong is not None:
        couplings[16] = strong
    edges = [(i, j, float(c)) for (i, j), c in zip(pairs, couplings)]
    model = IsingModel(16, edges, rng.normal(0.0, field_scale, 16).tolist())
    return model, tuple(int(b) for b in rng.integers(0, 2, 16))


# Models whose flip bound passes MAX_SAFE_EXPONENT at gamma = 1, so the scan
# engine shifts every step's exponents by their maximum
SHIFTED_MODELS = {
    # nearly deterministic steps; most weights underflow after the shift
    "wild": lambda: chorded_ring(5, 300.0, 50.0),
    # one bond of 700 among unit-scale ones: moderate shifts, busy walks
    "strong-bond": lambda: chorded_ring(2, 1.0, 0.5, strong=700.0),
}

# sha256 of the walks, log_fwd and log_rev (as float.hex) of 200
# propose(..., engine="scan") calls at gamma = 1, k from 1 to 3, random
# order, each move accepted or rejected by Metropolis at beta = 1. The
# strong-bond digest holds only where numpy's float64 exp takes its AVX512
# path: elsewhere exp differs in the last bit on some arguments, and the
# hashed log doubles pass through it (ROADMAP item 13).
SHIFTED_SCAN_DIGESTS = {
    "strong-bond":
        "3bf4d6f6fe65beca4dc6f07f5f5e989a2ffebe52e4efbc4086e548470e5040f2",
    "wild":
        "21326e1822fe570573f22dc9f59270537120fd6b47a31963f0c60b825247709d",
}


def shifted_scan_digest(name):
    model, reference = SHIFTED_MODELS[name]()
    rng = np.random.default_rng(7)
    state = random_shell_state(model, ShellConstraint(reference, 8), rng)
    params = SawParams(gamma=1.0, k_min=1, k_max=3, order_policy="random")
    digest = hashlib.sha256()
    for _ in range(200):
        move = propose(model, state, params, rng, engine="scan")
        digest.update(f"{move.first_walk} {move.second_walk} {move.log_fwd.hex()} "
                      f"{move.log_rev.hex()}\n".encode())
        log_alpha = state.energy - move.proposed.energy + move.log_rev - move.log_fwd
        if math.log(rng.random()) < log_alpha:
            state = move.proposed
    return digest.hexdigest()


def simd_dispatch():
    """numpy's dispatched SIMD targets, where its build reports them."""
    core = getattr(np, "_core", None) or np.core
    return getattr(core._multiarray_umath, "__cpu_dispatch__", "not reported")


def reference_candidates(engine, toward):
    """One side's candidates, logits and shift, by the per-side formula:
    the compact logits of that side and, when a flip could overflow exp(),
    their maximum as the shift."""
    state = engine.state
    rho = -np.array(state.disagree_spin, dtype=np.float64)
    fields = np.array(engine.model.fields, dtype=np.float64)
    logits = (engine.gamma * rho) * (engine._local + fields)
    idx = np.array(state.disagree_indices() if toward else state.agree_indices(),
                   dtype=np.intp)
    z = logits[idx] if toward else -logits[idx]
    overflow = 0.5 * engine.gamma * engine.model.max_flip_delta() > MAX_SAFE_EXPONENT
    shift = float(z.max()) if overflow and z.size else 0.0
    return idx, z, shift


def reference_sample(engine, toward, u):
    idx, z, shift = reference_candidates(engine, toward)
    weights = np.exp(z - shift)
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    pos = min(int(np.searchsorted(cumulative, u * total, side="right")),
              idx.size - 1)
    while weights[pos] <= 0.0 and pos > 0:
        pos -= 1
    return int(idx[pos]), float(z[pos] - shift) - math.log(float(total))


def reference_log_prob(engine, toward, i):
    idx, z, shift = reference_candidates(engine, toward)
    candidates = idx.tolist()
    if i not in candidates:
        return NEG_INF
    pos = candidates.index(i)
    total = float(np.exp(z - shift).sum())
    return float(z[pos] - shift) - math.log(total)


# positive weights whose sums of up to 26 never overflow
POSITIVE_WEIGHTS = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@st.composite
def padded_weights(draw):
    """A weight vector with zeros at its front, among its entries and at its
    back, holding at least one positive weight and a normal total."""
    body = draw(st.lists(st.one_of(st.just(0.0), POSITIVE_WEIGHTS),
                         min_size=1, max_size=20))
    front, back = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    weights = np.array([0.0] * front + body + [0.0] * back)
    total = weights.cumsum().item(-1)
    assume(total >= sys.float_info.min)
    return weights


UNIFORMS = st.one_of(st.just(0.0), st.just(math.nextafter(1.0, 0.0)),
                     st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


class TestDrawIndex:
    @given(weights=padded_weights(), u=UNIFORMS)
    @settings(max_examples=300, deadline=None)
    def test_draws_a_positive_weight_as_the_compacted_vector_would(self, weights, u):
        i, log_norm = draw_index(weights, u)
        assert weights[i] > 0.0
        positive = np.flatnonzero(weights)
        j, compact_log_norm = draw_index(weights[positive], u)
        assert i == positive[j]
        assert log_norm == compact_log_norm

    @given(size=st.integers(1, 10), u=UNIFORMS)
    def test_zero_total_raises(self, size, u):
        with pytest.raises(ValueError):
            draw_index(np.zeros(size), u)


class TestScanExactDoubles:
    """The scan engine's draws and log probabilities are the doubles of the
    per-side formula, with or without the exponent shift."""

    MODELS = {
        "rbm-desk": lambda: (rbm_gabor(64, 32, seed=4),
                             tuple(np.random.default_rng(4).integers(0, 2, 96).tolist())),
        **SHIFTED_MODELS,
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sample_and_log_prob_match_reference(self, name):
        model, reference = self.MODELS[name]()
        num = model.num_vars
        rng = np.random.default_rng(41)
        state = random_shell_state(model, ShellConstraint(reference, num // 3), rng)
        engine = ScanWalkEngine(model, state, gamma=0.8 if name == "rbm-desk" else 1.0)
        assert engine._may_overflow == (name != "rbm-desk")
        for _ in range(40):
            for toward in (True, False):
                size = state.distance if toward else num - state.distance
                if size:
                    u = float(rng.random())
                    evals = engine.evals
                    assert engine.sample(toward, u) == reference_sample(engine, toward, u)
                    assert engine.evals - evals == size
            for i in rng.permutation(num)[:24].tolist():
                for toward in (False, True):
                    evals = engine.evals
                    assert engine.log_prob(toward, i) == reference_log_prob(
                        engine, toward, i)
                    own_side = state.in_disagree(i) == toward
                    size = state.distance if toward else num - state.distance
                    assert engine.evals - evals == (size if own_side else 0)
            engine.flip(int(rng.integers(0, num)))

    @pytest.mark.parametrize("name", sorted(SHIFTED_SCAN_DIGESTS))
    def test_shifted_walks_are_pinned(self, name):
        assert shifted_scan_digest(name) == SHIFTED_SCAN_DIGESTS[name], (
            f"numpy's dispatched SIMD targets: {simd_dispatch()}")

    @pytest.mark.parametrize("name", sorted(SHIFTED_MODELS))
    def test_shifted_moves_keep_pathwise_balance(self, name):
        # the oracle replays each move with path_log_prob, whose exponents
        # need the same shift here, and keeps both sides in logs
        model, reference = SHIFTED_MODELS[name]()
        rng = np.random.default_rng(11)
        state = random_shell_state(model, ShellConstraint(reference, 8), rng)
        params = SawParams(gamma=1.0, k_min=1, k_max=3, order_policy="random")
        for _ in range(2000):
            move = propose(model, state, params, rng, engine="scan")
            _, _, gap = check_pathwise_db(model, 1.0, move, state)
            assert gap <= 1e-10
            log_alpha = state.energy - move.proposed.energy + move.log_rev - move.log_fwd
            if math.log(rng.random()) < log_alpha:
                state = move.proposed


def dyadic_grid():
    """A 4x4 grid whose coupling and field are exact binary fractions, so
    local fields kept by incremental updates equal a fresh build's."""
    return grid2d(4, 0.375, 0.125)


def scan_vectors(engine):
    """Every per-bit vector a scan engine keeps, as exactly comparable lists:
    local fields, logit coefficients, both masks, both neighbour row sets,
    and the logits, with the cached weights unless shifted, while a state's
    are cached."""
    parts = [engine._local.tolist(), engine._coef.tolist(),
             [mask.tolist() for mask in engine._masks],
             [row.tolist() for row in engine._nbr_idx],
             [row.tolist() for row in engine._two_j]]
    if engine._z is not None:
        parts.append(engine._z.tolist())
        if engine._w is not None:
            parts.append(engine._w.tolist())
    return parts


def assert_scan_matches_fresh(engine):
    """Every kept vector, the next sample and every log_prob equal a fresh
    engine's on a copy."""
    fresh = ScanWalkEngine(engine.model, engine.state.copy(), engine.gamma)
    if engine._z is not None:
        fresh._weights(True)
    assert scan_vectors(engine) == scan_vectors(fresh)
    num, distance = engine.model.num_vars, engine.state.distance
    for toward in (True, False):
        if (distance if toward else num - distance):
            for u in (0.0, 0.37, 0.999):
                assert engine.sample(toward, u) == fresh.sample(toward, u)
        for i in range(num):
            assert engine.log_prob(toward, i) == fresh.log_prob(toward, i)


class TestScanCacheCoherence:
    @pytest.fixture(params=[RESYNC_INTERVAL, 7], ids=["default", "resync-7"])
    def resync(self, request, monkeypatch):
        monkeypatch.setattr("shellwalk.saw_proposal.RESYNC_INTERVAL",
                            request.param)
        return request.param

    def test_after_restore_and_resync(self, resync):
        model = dyadic_grid()
        rng = np.random.default_rng(43)
        state = random_shell_state(model, ShellConstraint((0,) * 16, 7), rng)
        config = ImConfig(beta=1.2, saw=SawParams(gamma=0.8, k_min=1, k_max=5),
                          engine="scan")
        sampler = ImSampler(model, state, config, rng=rng)
        rejected = 0
        for _ in range(300):
            accepted, _ = sampler.step()
            rejected += not accepted
            assert_scan_matches_fresh(sampler.engine)
        assert rejected >= 100
        assert sampler.state._flips >= 1000

    def test_random_flips(self, resync):
        model = dyadic_grid()
        rng = np.random.default_rng(47)
        state = random_shell_state(model, ShellConstraint((0,) * 16, 7), rng)
        engine = ScanWalkEngine(model, state, gamma=0.8)
        for _ in range(200):
            engine.flip(int(rng.integers(0, 16)))
            assert_scan_matches_fresh(engine)


class TestTreeLogProb:
    """``TreeWalkEngine.log_prob`` is log(w_i) - log(total) in the tree of
    bit i's side, and ``sample`` pairs its draw with that value."""

    def test_uniform_at_gamma_zero(self):
        model = grid2d(4, 0.37, 0.11)
        state = ShellState(model, [1] * 5 + [0] * 11, (0,) * 16)
        engine = TreeWalkEngine(model, state, gamma=0.0)
        for i in range(16):
            toward = state.in_disagree(i)
            assert engine.log_prob(toward, i) == -math.log(5 if toward else 11)
            assert engine.log_prob(not toward, i) == NEG_INF

    def test_single_support(self):
        model = grid2d(3, 0.37, 0.11)
        state = ShellState(model, [0] * 4 + [1] + [0] * 4, (0,) * 9)
        engine = TreeWalkEngine(model, state, gamma=0.8)
        assert engine.log_prob(True, 4) == 0.0
        assert engine.sample(True, 0.7) == (4, 0.0)

    def test_matches_naive(self):
        model = field_grid(5)
        rng = np.random.default_rng(5)
        state = random_shell_state(model, ShellConstraint((0,) * 36, 12), rng)
        engine = TreeWalkEngine(model, state, gamma=0.8)
        spins = state.spins
        weights = [math.exp(-0.8 * spins[i] * (model.fields[i] + sum(
            c * spins[j] for j, c in model.adjacency[i]))) for i in range(36)]
        for toward in (True, False):
            side = [i for i in range(36) if state.in_disagree(i) == toward]
            total = math.fsum(weights[i] for i in side)
            for i in side:
                naive = math.log(weights[i] / total)
                assert engine.log_prob(toward, i) == pytest.approx(naive, abs=1e-12)
            for u in rng.random(20):
                i, log_p = engine.sample(toward, float(u))
                assert i in side
                assert log_p == pytest.approx(math.log(weights[i] / total), abs=1e-12)

    def test_zero_weight_is_domain_error(self):
        model, state, _ = random_grid_state(17, n=4)
        engine = TreeWalkEngine(model, state, gamma=0.5)
        i = state.disagree_indices()[0]
        engine._toward.update(i, 0.0)
        # a built engine never holds a zero candidate leaf; forced, log raises
        with pytest.raises(ValueError, match="math domain error"):
            engine.log_prob(True, i)


def field_grid(seed):
    """A 6x6 grid with a non-integer coupling and random non-integer fields."""
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-0.4, 0.4, 36).tolist()
    return IsingModel(36, grid2d(6, 0.37, 0.0).edges, fields)


def assert_trees_are_exact(engine):
    """Each tree's nodes equal a fresh build from the engine's own leaves,
    and each leaf is its bit's weight in its own set's tree, 0.0 in the other."""
    model, state = engine.model, engine.state
    toward, away = (tree._nodes[tree._base:tree._base + tree._n]
                    for tree in (engine._toward, engine._away))
    assert engine._toward._nodes == WeightedIndexTree(toward)._nodes
    assert engine._away._nodes == WeightedIndexTree(away)._nodes
    for j in range(model.num_vars):
        assert engine._local[j] == pytest.approx(
            sum(c * state.spins[n] for n, c in model.adjacency[j]), abs=1e-12)
        w = math.exp(-engine.gamma * state.spins[j]
                     * (engine._local[j] + model.fields[j]))
        own, other = (toward, away) if state.in_disagree(j) else (away, toward)
        assert own[j] == w
        assert other[j] == 0.0


def float_ring(num_vars, seed):
    """A periodic chain with a non-integer coupling and random fields."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % num_vars, 0.43) for i in range(num_vars)]
    return IsingModel(num_vars, edges, rng.uniform(-0.4, 0.4, num_vars).tolist())


# Layouts where a neighbour's leaf meets a flipped bit's leaf at many tree
# levels: wrap edges of a periodic cube (125 of 128 leaves); a grid that
# fills its tree (M = 16 leaves); a 17-bit ring on a 32-leaf tree, whose
# wrap edge 0-16 meets only at the root; a one-level tree of 2 bits; a
# chain with an isolated bit, whose junction row is empty.
JUNCTION_LAYOUTS = {
    "cube5-periodic": lambda: cube3d_pm_j(5, 13, periodic=True),
    "grid4": lambda: grid2d(4, 0.37, 0.11),
    "ring17": lambda: float_ring(17, 5),
    "pair": lambda: IsingModel(2, [(0, 1, 0.61)], [0.2, -0.35]),
    "isolated": lambda: IsingModel(
        6, [(0, 1, 0.61), (1, 3, -0.47), (3, 4, 0.29), (4, 5, 0.83)],
        [0.2, -0.35, 0.41, 0.05, -0.15, 0.3]),
}


class TestFusedFlip:
    @pytest.fixture(params=[RESYNC_INTERVAL, 7], ids=["default", "resync-7"])
    def resync(self, request, monkeypatch):
        monkeypatch.setattr("shellwalk.saw_proposal.RESYNC_INTERVAL",
                            request.param)
        return request.param

    def test_random_flips_keep_trees_exact(self, resync):
        model = field_grid(3)
        rng = np.random.default_rng(17)
        state = random_shell_state(model, ShellConstraint((0,) * 36, 14), rng)
        engine = TreeWalkEngine(model, state, gamma=0.8)
        for step in range(1, 2001):
            engine.flip(int(rng.integers(0, 36)))
            if step % 250 == 0:
                assert_trees_are_exact(engine)

    def test_rejected_walks_keep_trees_exact(self, resync):
        model = field_grid(5)
        rng = np.random.default_rng(19)
        state = random_shell_state(model, ShellConstraint((0,) * 36, 14), rng)
        config = ImConfig(beta=1.2, saw=SawParams(gamma=0.8, k_min=1, k_max=6),
                          engine="tree")
        sampler = ImSampler(model, state, config, rng=rng)
        rejected = 0
        for _ in range(300):
            accepted, _ = sampler.step()
            rejected += not accepted
            assert_trees_are_exact(sampler.engine)
        # at interval 7, a resync falls inside most walks of 2 to 12 flips
        assert rejected >= 50
        assert sampler.state._flips >= 1000

    @pytest.mark.parametrize("layout", sorted(JUNCTION_LAYOUTS))
    def test_random_flips_keep_trees_exact_at_every_junction(self, resync, layout):
        model = JUNCTION_LAYOUTS[layout]()
        num = model.num_vars
        rng = np.random.default_rng(29)
        state = random_shell_state(model, ShellConstraint((0,) * num, num // 2), rng)
        engine = TreeWalkEngine(model, state, gamma=0.8)
        for step in range(1, 1001):
            engine.flip(int(rng.integers(0, num)))
            if step % 125 == 0:
                assert_trees_are_exact(engine)

    @pytest.mark.parametrize("layout", sorted(JUNCTION_LAYOUTS))
    def test_rejected_walks_keep_trees_exact_at_every_junction(self, resync, layout):
        model = JUNCTION_LAYOUTS[layout]()
        num = model.num_vars
        rng = np.random.default_rng(31)
        state = random_shell_state(model, ShellConstraint((0,) * num, num // 2), rng)
        config = ImConfig(beta=1.2, saw=SawParams(gamma=0.8, k_min=1, k_max=6),
                          engine="tree")
        sampler = ImSampler(model, state, config, rng=rng)
        rejected = 0
        for _ in range(200):
            accepted, _ = sampler.step()
            rejected += not accepted
            assert_trees_are_exact(sampler.engine)
        assert rejected >= 10


def stepped_walks(engine, uniforms, k, order):
    """``run_walks`` as a loop of per-step ``sample``, ``flip`` and
    ``log_prob`` calls. Each engine's ``walk`` and these share its flip,
    draw and reverse rules, so this checks the walk's frame; the
    independent oracles for the rules are ``assert_trees_are_exact``, a
    fresh ``WeightedIndexTree`` build, and ``TestScanExactDoubles``, the
    per-side formula."""
    uniforms = iter(uniforms)
    first_toward = order == ORDER_UP_DOWN
    picks = []
    log_fwd = log_rev = 0.0
    for toward in (first_toward,) * k + (not first_toward,) * k:
        i, log_p = engine.sample(toward, next(uniforms))
        log_fwd += log_p
        engine.flip(i)
        log_rev += engine.log_prob(not toward, i)
        picks.append(i)
    return picks, log_fwd, log_rev


def assert_twins_equal(fused, stepped):
    if isinstance(fused, TreeWalkEngine):
        assert fused._toward._nodes == stepped._toward._nodes
        assert fused._away._nodes == stepped._away._nodes
        assert fused._local == stepped._local
    else:
        assert scan_vectors(fused) == scan_vectors(stepped)
    assert fused.state.spins == stepped.state.spins
    assert (fused.state.energy, fused.state.distance, fused.evals) == \
        (stepped.state.energy, stepped.state.distance, stepped.evals)


def walk_twins(model, n, seed, audit=False, engine_class=TreeWalkEngine, gamma=0.8):
    rng = np.random.default_rng(seed)
    state = random_shell_state(model, ShellConstraint((0,) * model.num_vars, n), rng,
                               audit=audit)
    return (engine_class(model, state, gamma),
            engine_class(model, state.copy(), gamma))


def assert_walks_match(fused, stepped, k, order, seed):
    first, second, log_fwd, log_rev = run_walks(
        fused, np.random.default_rng(seed), k, order)
    uniforms = np.random.default_rng(seed).random(2 * k).tolist()
    assert (first + second, log_fwd, log_rev) == stepped_walks(stepped, uniforms, k, order)
    assert_twins_equal(fused, stepped)


class TestFusedWalk:
    @pytest.mark.parametrize("order", [ORDER_UP_DOWN, ORDER_DOWN_UP])
    @pytest.mark.parametrize("layout", ["grid5-float", "cube3-pm-j"])
    def test_walks_equal_the_step_loop(self, layout, order):
        model = grid2d(5, 0.37, 0.11) if layout == "grid5-float" else cube3d_pm_j(3, 7)
        fused, stepped = walk_twins(model, model.num_vars // 2, 41)
        limit = feasible_k_max(fused.state.distance, model.num_vars, order)
        # each walk pair returns to the shell, so the twins walk on from
        # where the last pair left them
        for k in range(1, limit + 1):
            assert_walks_match(fused, stepped, k, order, seed=100 + k)

    @pytest.mark.parametrize("order", [ORDER_UP_DOWN, ORDER_DOWN_UP])
    def test_audited_walk_across_a_resync(self, order):
        fused, stepped = walk_twins(grid2d(5, 0.37, 0.11), 12, 43, audit=True)
        for engine in (fused, stepped):
            engine.state._flips = RESYNC_INTERVAL - 3
        evals = fused.evals
        # the rebuild falls on the third flip of the first walk
        assert_walks_match(fused, stepped, 6, order, seed=7)
        assert fused.state._flips == RESYNC_INTERVAL + 9
        assert fused.evals > evals + fused.model.num_vars

    def test_zero_total_raises_before_a_pick(self):
        fused, stepped = walk_twins(grid2d(5, 0.37, 0.11), 12, 47)
        for engine in (fused, stepped):
            for i in range(engine.model.num_vars):
                engine._toward.update(i, 0.0)
        spins = list(fused.state.spins)
        with pytest.raises(ValueError) as per_step:
            stepped.sample(True, 0.5)
        with pytest.raises(ValueError) as walked:
            run_walks(fused, np.random.default_rng(0), 3, ORDER_UP_DOWN)
        assert str(walked.value) == str(per_step.value)
        assert (fused.state.spins, fused.state._flips) == (spins, 0)


SCAN_WALK_MODELS = {
    "rbm-desk": lambda: rbm_gabor(64, 32, seed=4),
    "dyadic-grid": dyadic_grid,
}


class TestScanFusedWalk:
    """``ScanWalkEngine.walk`` in one frame equals the per-step loop on a
    twin: picks, log doubles, evals, state and every kept vector."""

    @pytest.mark.parametrize("order", [ORDER_UP_DOWN, ORDER_DOWN_UP])
    @pytest.mark.parametrize("name", sorted(SCAN_WALK_MODELS))
    def test_walks_equal_the_step_loop(self, name, order):
        model = SCAN_WALK_MODELS[name]()
        fused, stepped = walk_twins(model, model.num_vars // 3, 41,
                                    engine_class=ScanWalkEngine)
        assert not fused._may_overflow
        limit = feasible_k_max(fused.state.distance, model.num_vars, order)
        for k in range(1, limit + 1):
            assert_walks_match(fused, stepped, k, order, seed=100 + k)

    @pytest.mark.parametrize("order", [ORDER_UP_DOWN, ORDER_DOWN_UP])
    def test_audited_walk_across_a_resync(self, order, monkeypatch):
        fused, stepped = walk_twins(SCAN_WALK_MODELS["rbm-desk"](), 32, 43, audit=True,
                                    engine_class=ScanWalkEngine)
        for engine in (fused, stepped):
            engine.state._flips = RESYNC_INTERVAL - 3
        synced = []
        sync = ScanWalkEngine.sync
        monkeypatch.setattr(ScanWalkEngine, "sync",
                            lambda engine: (synced.append(engine), sync(engine)))
        # the rebuild falls on the third flip of the first walk
        assert_walks_match(fused, stepped, 6, order, seed=7)
        assert fused.state._flips == RESYNC_INTERVAL + 9
        assert synced == [fused, stepped]

    @pytest.mark.parametrize("name", sorted(SHIFTED_MODELS))
    def test_shifted_walks_in_one_frame_equal_the_step_loop(self, name):
        model, _ = SHIFTED_MODELS[name]()
        fused, stepped = walk_twins(model, 8, 37, engine_class=ScanWalkEngine, gamma=1.0)
        assert fused._may_overflow
        for order in (ORDER_UP_DOWN, ORDER_DOWN_UP):
            for k in range(1, 9):
                assert_walks_match(fused, stepped, k, order, seed=200 + k)

    @pytest.mark.parametrize("name", sorted(SHIFTED_MODELS))
    def test_shifted_walks_call_neither_sample_nor_log_prob(self, name, monkeypatch):
        model, _ = SHIFTED_MODELS[name]()
        engine, _ = walk_twins(model, 8, 37, engine_class=ScanWalkEngine, gamma=1.0)
        assert engine._may_overflow

        def refuse(*args):
            raise AssertionError("walk took the per-step loop")

        monkeypatch.setattr(ScanWalkEngine, "sample", refuse)
        monkeypatch.setattr(ScanWalkEngine, "log_prob", refuse)
        for order in (ORDER_UP_DOWN, ORDER_DOWN_UP):
            first, second, _, _ = run_walks(engine, np.random.default_rng(3), 4, order)
            assert len(first) == len(second) == 4

    @pytest.mark.parametrize("order", [ORDER_UP_DOWN, ORDER_DOWN_UP])
    def test_empty_source_side_raises_before_a_flip(self, order):
        model = dyadic_grid()
        # no bit disagrees for a toward walk, none agrees for an away walk
        fused, stepped = walk_twins(model, 0 if order == ORDER_UP_DOWN else 16, 5,
                                    engine_class=ScanWalkEngine)
        with pytest.raises(ValueError) as per_step:
            stepped.sample(order == ORDER_UP_DOWN, 0.5)
        spins = list(fused.state.spins)
        with pytest.raises(ValueError) as walked:
            run_walks(fused, np.random.default_rng(0), 3, order)
        assert str(walked.value) == str(per_step.value) == "candidate set is empty"
        assert (fused.state.spins, fused.state._flips, fused.evals) == (spins, 0, 0)
        assert_twins_equal(fused, stepped)


def draws_of_one_move(rng, params, k, step):
    """Advance ``rng`` by the scalar draws one walk move makes, in order."""
    rng.integers(params.k_min, params.k_max + 1)
    if params.order_policy == "random":
        rng.random()
    for _ in range(2 * k):
        rng.random()
    if step:
        rng.random()


class TestRngUse:
    @pytest.mark.parametrize("k_min, k_max, policy", [
        (3, 3, ORDER_UP_DOWN), (1, 5, "random"), (0, 2, ORDER_DOWN_UP),
    ], ids=["fixed-k", "random-order", "k-min-0"])
    def test_walk_move_draws_are_unchanged(self, k_min, k_max, policy):
        model = grid2d(4, 0.37, 0.11)
        rng = np.random.default_rng(23)
        state = random_shell_state(model, ShellConstraint((0,) * 16, 7), rng)
        params = SawParams(gamma=0.8, k_min=k_min, k_max=k_max,
                           order_policy=policy)
        ks = set()
        for _ in range(40):
            mirror = copy.deepcopy(rng)
            move = propose(model, state, params, rng)
            draws_of_one_move(mirror, params, move.k, step=False)
            assert rng.bit_generator.state == mirror.bit_generator.state
            ks.add(move.k)
        sampler = ImSampler(model, state, ImConfig(beta=1.0, saw=params), rng=rng)
        for _ in range(40):
            mirror = copy.deepcopy(rng)
            _, k = sampler.step()
            draws_of_one_move(mirror, params, k, step=True)
            assert rng.bit_generator.state == mirror.bit_generator.state
            ks.add(k)
        assert ks == set(range(k_min, k_max + 1))


class TestKDraw:
    def test_clamped_to_feasible(self):
        model = chain_model(6)
        state = ShellState(model, [1, 1, 0, 0, 0, 0], (0,) * 6)
        rng = np.random.default_rng(0)
        params = SawParams(gamma=0.2, k_min=1, k_max=5)
        for _ in range(20):
            move = propose(model, state, params, rng)
            assert move.k <= 2  # only two disagreeing bits to walk through

    def test_infeasible_k_min(self):
        model = chain_model(6)
        state = ShellState(model, [1, 1, 0, 0, 0, 0], (0,) * 6)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            propose(model, state, SawParams(gamma=0.2, k_min=3, k_max=5), rng)

    def test_policy_orders(self):
        assert policy_orders("random") == (ORDER_UP_DOWN, ORDER_DOWN_UP)
        assert policy_orders(ORDER_UP_DOWN) == (ORDER_UP_DOWN,)
        assert policy_orders(ORDER_DOWN_UP) == (ORDER_DOWN_UP,)

    def test_check_walk_lengths(self):
        up_down = SawParams(gamma=0.2, k_min=2, k_max=4)
        down_up = SawParams(gamma=0.2, k_min=4, k_max=4, order_policy=ORDER_DOWN_UP)
        check_walk_lengths(up_down, 2, 6)
        check_walk_lengths(down_up, 2, 6)
        with pytest.raises(ConfigurationError, match="k_min=2"):
            check_walk_lengths(up_down, 1, 6)
        with pytest.raises(ConfigurationError, match="'down_up'"):
            check_walk_lengths(down_up, 3, 6)

    def test_random_order_needs_both_orders_feasible(self):
        # at distance 5 of 6 bits, up_down allows k = 5 but down_up only 1,
        # so every move, whichever order it would draw, is refused up front
        model = chain_model(6)
        state = ShellState(model, [1, 1, 1, 1, 1, 0], (0,) * 6)
        params = SawParams(gamma=0.2, k_min=2, k_max=3, order_policy="random")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            with pytest.raises(ConfigurationError, match="'down_up'"):
                propose(model, state, params, rng)
            with pytest.raises(ConfigurationError, match="'down_up'"):
                ImSampler(model, state, ImConfig(beta=0.5, saw=params), rng=rng)
        assert state.distance == 5

    def test_down_up_feasibility(self):
        assert feasible_k_max(2, 6, ORDER_UP_DOWN) == 2
        assert feasible_k_max(2, 6, ORDER_DOWN_UP) == 4

    def test_down_up_order_walks_away_first(self):
        model = chain_model(6)
        state = ShellState(model, [1, 1, 0, 0, 0, 0], (0,) * 6)
        rng = np.random.default_rng(5)
        params = SawParams(gamma=0.4, k_min=3, k_max=3,
                           order_policy=ORDER_DOWN_UP)
        move = propose(model, state, params, rng)
        assert replayed(state, move.first_walk).distance == 5
        assert move.proposed.distance == 2
