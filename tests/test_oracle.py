import math

import numpy as np
import pytest

from shellwalk import (
    ImConfig,
    IsingModel,
    SawParams,
    ShellConstraint,
    ShellState,
    chain_rng,
    random_shell_state,
)
from shellwalk.errors import EnumerationBudgetError
from shellwalk.generators import grid2d
from shellwalk.oracle import (
    bits_key,
    check_pathwise_db,
    detailed_balance_gap,
    empirical_distribution,
    enumerate_shell,
    exact_distribution,
    exact_im_kernel,
    stationarity_gap,
    tv_distance,
)
from shellwalk.saw_proposal import propose


def chain_model(num_vars, coupling=1.0):
    return IsingModel(
        num_vars, [(i, i + 1, coupling) for i in range(num_vars - 1)],
        [0.0] * num_vars,
    )


class TestEnumerateShell:
    def test_single_flip_shell(self):
        states = enumerate_shell(ShellConstraint((1, 1, 1), 1))
        assert states == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_zero_distance(self):
        assert enumerate_shell(ShellConstraint((1, 0, 1), 0)) == [(1, 0, 1)]

    def test_count(self):
        states = enumerate_shell(ShellConstraint((0,) * 9, 4))
        assert len(states) == math.comb(9, 4)
        assert states == sorted(states)

    def test_cap(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_shell(ShellConstraint((0,) * 30, 15), cap=1000)


class TestExactDistribution:
    def test_infinite_temperature_is_uniform(self):
        model = chain_model(6)
        states = enumerate_shell(ShellConstraint((0,) * 6, 3))
        shell = exact_distribution(model, 0.0, states)
        assert np.allclose(shell.probabilities, 1.0 / 20)

    def test_normalization(self):
        model = grid2d(3, 1.0, 0.0)
        states = enumerate_shell(ShellConstraint((0,) * 9, 4))
        shell = exact_distribution(model, 0.44, states)
        assert abs(shell.probabilities.sum() - 1.0) <= 1e-12

    def test_mean_energy_cross_check(self):
        # second, independently coded pass: python loop, fsum, fresh energies
        model = grid2d(3, 1.0, 0.0)
        states = enumerate_shell(ShellConstraint((0,) * 9, 4))
        shell = exact_distribution(model, 0.44, states)
        energies = np.array([model.energy(list(s)) for s in states])
        fast = float(shell.probabilities @ energies)
        slow = math.fsum(
            p * model.energy(list(s))
            for p, s in zip(shell.probabilities.tolist(), states)
        )
        assert fast == pytest.approx(slow, abs=1e-10)


class TestTvDistance:
    def test_identical(self):
        p = np.array([0.25, 0.75])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_known_value(self):
        assert tv_distance([0.25] * 4, [0.4, 0.3, 0.2, 0.1]) == pytest.approx(0.2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.5], [1.0])


def uniform_path_kernel(model, beta, constraint, k):
    """Independent combinatorial kernel for zero walk bias.

    At zero bias every step is uniform over its candidate set, so the path
    probability is a state-independent constant and paths between two states
    can be counted: choosing which disagreeing bits to clear is forced by the
    state difference, the rest of the first walk overlaps the second.
    """
    states = enumerate_shell(constraint)
    shell = exact_distribution(model, beta, states)
    num = model.num_vars
    n = constraint.distance
    f_const = 1.0
    for t in range(k):
        f_const /= (n - t) * (num - n + k - t)
    f_const *= math.factorial(k) ** 2  # orderings of each walk's index set
    kernel = np.zeros((len(states), len(states)))
    for row, x0 in enumerate(states):
        e0 = model.energy(list(x0))
        for col, x1 in enumerate(states):
            if row == col:
                continue
            diff = [i for i in range(num) if x0[i] != x1[i]]
            d_clear = sum(1 for i in diff if x0[i] != constraint.reference[i])
            d_set = len(diff) - d_clear
            if d_clear != d_set or d_clear > k:
                continue
            overlap_choices = math.comb(n - d_clear, k - d_clear)
            count = overlap_choices
            f_total = count * f_const
            e1 = model.energy(list(x1))
            alpha = min(1.0, math.exp(-beta * (e1 - e0)))
            kernel[row, col] = f_total * alpha
    return shell, kernel


class TestExactImKernel:
    def setup_method(self):
        self.model = chain_model(6)
        self.constraint = ShellConstraint((0,) * 6, 3)

    def test_rows_stochastic(self):
        params = SawParams(gamma=0.7, k_min=2, k_max=2)
        result = exact_im_kernel(self.model, 0.7, params, self.constraint)
        assert np.max(np.abs(result.matrix.sum(axis=1) - 1.0)) <= 1e-12

    def test_stationarity_and_detailed_balance(self):
        params = SawParams(gamma=0.7, k_min=2, k_max=2)
        result = exact_im_kernel(self.model, 0.7, params, self.constraint)
        assert stationarity_gap(result) <= 1e-12
        assert detailed_balance_gap(result) <= 1e-12

    def test_zero_bias_matches_counting_oracle(self):
        params = SawParams(gamma=0.0, k_min=2, k_max=2)
        result = exact_im_kernel(self.model, 0.7, params, self.constraint)
        shell, counted = uniform_path_kernel(self.model, 0.7, self.constraint, 2)
        off_diag = ~np.eye(len(shell.states), dtype=bool)
        assert np.max(
            np.abs(result.matrix[off_diag] - counted[off_diag])
        ) <= 1e-12

    def test_effective_and_marginal_accept_rates_differ(self):
        params = SawParams(gamma=0.7, k_min=2, k_max=2)
        result = exact_im_kernel(self.model, 0.7, params, self.constraint)
        support = result.proposal > 0
        gap = np.max(np.abs(
            result.alpha_effective[support] - result.alpha_marginal[support]
        ))
        assert gap > 0.01

    def test_requires_fixed_length(self):
        with pytest.raises(ValueError):
            exact_im_kernel(self.model, 0.7,
                            SawParams(gamma=0.7, k_min=1, k_max=2),
                            self.constraint)

    def test_infeasible_walk_length(self):
        # up_down walks at most n = 3 bits toward the reference
        with pytest.raises(ValueError, match="walk length 4 infeasible"):
            exact_im_kernel(self.model, 0.7,
                            SawParams(gamma=0.7, k_min=4, k_max=4),
                            self.constraint)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            exact_im_kernel(self.model, 0.7,
                            SawParams(gamma=0.7, k_min=2, k_max=2),
                            self.constraint, budget=10)

    def test_random_order_policy_kernel(self):
        params = SawParams(gamma=0.5, k_min=1, k_max=1, order_policy="random")
        result = exact_im_kernel(self.model, 0.5, params, self.constraint)
        assert stationarity_gap(result) <= 1e-12
        assert detailed_balance_gap(result) <= 1e-12


class TestCheckPathwiseDb:
    def sample_move(self, seed, interior=False):
        rng = np.random.default_rng(seed)
        model = grid2d(3, float(rng.uniform(-1, 1)), float(rng.uniform(-0.3, 0.3)))
        constraint = ShellConstraint((0,) * 9, int(rng.integers(2, 8)))
        state = random_shell_state(model, constraint, rng)
        params = SawParams(gamma=float(rng.uniform(0, 1)), k_min=1, k_max=3)
        beta = float(rng.uniform(0, 1))
        for _ in range(200):
            move = propose(model, state, params, rng)
            log_alpha = (
                -beta * (move.proposed.energy - state.energy)
                + move.log_rev - move.log_fwd
            )
            if not interior or log_alpha < -0.2:
                return model, beta, state, move
        raise AssertionError("no interior move found")

    def test_sampled_moves_balance(self):
        for seed in range(15):
            model, beta, state, move = self.sample_move(seed)
            lhs, rhs, gap = check_pathwise_db(model, beta, move, state)
            assert gap <= 1e-10

    def test_symmetric_move(self):
        model = IsingModel(4, [], [0.0] * 4)
        state = ShellState(model, [1, 1, 0, 0], (0,) * 4)
        rng = np.random.default_rng(0)
        move = propose(model, state, SawParams(gamma=0.5, k_min=1, k_max=1), rng)
        lhs, rhs, gap = check_pathwise_db(model, 1.0, move, state)
        assert lhs == pytest.approx(rhs)
        assert gap <= 1e-12

    def test_detects_corrupted_reverse_probability(self):
        # pick a move whose accept ratio is strictly interior so the claimed
        # reverse probability actually enters the flow
        model, beta, state, move = self.sample_move(3, interior=True)
        move.log_rev += 0.1
        _, _, gap = check_pathwise_db(model, beta, move, state)
        assert gap > 0.09


class TestEmpiricalDistribution:
    def test_free_model_is_uniform(self):
        model = IsingModel(6, [], [0.0] * 6)
        constraint = ShellConstraint((0,) * 6, 3)
        states = enumerate_shell(constraint)
        shell = exact_distribution(model, 1.0, states)
        rng = chain_rng(4)
        init = random_shell_state(model, constraint, rng)
        config = ImConfig(beta=1.0, saw=SawParams(gamma=0.6, k_min=1, k_max=2))
        empirical = empirical_distribution(model, init, "im", config, rng, shell,
                                           samples=20_000, burn_in=1000)
        assert tv_distance(empirical, shell.probabilities) < 0.03

    def test_bits_key_round_trip(self):
        states = enumerate_shell(ShellConstraint((0,) * 5, 2))
        keys = [bits_key(s) for s in states]
        assert len(set(keys)) == len(states)
