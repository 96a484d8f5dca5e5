import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellwalk import IsingModel, ShellConstraint, ShellState
from shellwalk.errors import CoherenceError, ConfigurationError
from shellwalk.generators import grid2d, rbm_gabor
from shellwalk.samplers import ImConfig, ImSampler, random_shell_state
from shellwalk.saw_proposal import (
    ORDER_DOWN_UP,
    ORDER_UP_DOWN,
    RESYNC_INTERVAL,
    SawParams,
    TreeWalkEngine,
    check_walk_lengths,
    choose_engine_kind,
    feasible_k_max,
    path_log_prob,
    propose,
    reverse_sequences,
)


def chain_model(num_vars, coupling=1.0, fields=None):
    edges = [(i, i + 1, coupling) for i in range(num_vars - 1)]
    return IsingModel(num_vars, edges, fields or [0.0] * num_vars)


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
            assert move.bridge.distance == state.distance + offset

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

    def test_resync_audit_catches_field_drift(self):
        model = grid2d(3, 1.0, 0.0)
        state = ShellState(model, [0] * 9, (0,) * 9, audit=True)
        engine = TreeWalkEngine(model, state, gamma=0.5)
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
        # extreme couplings overflow raw exponential weights
        hot = IsingModel(4, [(0, 1, 4000.0)], [0.0] * 4)
        assert choose_engine_kind(hot, 1.0) == "scan"
        assert choose_engine_kind(hot, 1.0, kind="tree") == "tree"
        with pytest.raises(ValueError):
            choose_engine_kind(sparse, 0.5, kind="bogus")

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
        assert move.bridge.distance == 5
        assert move.proposed.distance == 2
