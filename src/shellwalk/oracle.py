"""Exhaustive small-instance ground truth for the shell samplers.

Everything here is brute force on purpose: exact shell enumeration, the exact
restricted distribution, the exact marginal transition kernel of the walk
sampler obtained by enumerating every allowable walk pair between every pair
of shell states, and the exact kernel of the Metropolis pair swap. These are
the independent oracles the statistical tests and the ``verify`` command
check the samplers against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import ConfigurationError, EnumerationBudgetError
from .model import IsingModel, ShellConstraint, ShellState, integral
from .saw_proposal import (
    ORDER_UP_DOWN,
    SawMove,
    SawParams,
    check_walk_lengths,
    path_log_prob,
    policy_orders,
    reverse_sequences,
)

ENUMERATION_CAP = 1_000_000
PATH_BUDGET = 5_000_000


def enumerate_shell(constraint: ShellConstraint, cap=ENUMERATION_CAP):
    """All states at the constraint's distance, in lexicographic order."""
    num = constraint.num_vars
    n = constraint.distance
    count = math.comb(num, n)
    if count > cap:
        raise EnumerationBudgetError(
            f"shell has {count} states, above the cap of {cap}"
        )
    states = []
    for flipped in combinations(range(num), n):
        bits = list(constraint.reference)
        for i in flipped:
            bits[i] ^= 1
        states.append(tuple(bits))
    states.sort()
    return states


@dataclass
class ExactShell:
    """Exact restricted distribution over an enumerated shell."""

    states: tuple
    probabilities: np.ndarray
    index: dict


def exact_distribution(model: IsingModel, beta, states):
    """Boltzmann weights over the enumerated states, subtract-max stabilized."""
    energies = np.array([model.energy(list(s)) for s in states], dtype=np.float64)
    logits = -beta * energies
    weights = np.exp(logits - logits.max())
    index = {tuple(s): row for row, s in enumerate(states)}
    return ExactShell(
        states=tuple(states),
        probabilities=weights / weights.sum(),
        index=index,
    )


def tv_distance(p, q):
    """Total variation distance (1/2) * sum |p_i - q_i|."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass
class ExactKernel:
    """A fully enumerated transition kernel over a shell's ``states``, with
    their exact ``probabilities``; ``matrix`` is row-stochastic, rejected
    mass on the diagonal."""

    states: tuple
    probabilities: np.ndarray
    matrix: np.ndarray


def _kernel_paths(num_states, num_vars, n, k, orders):
    total = 0
    for order in orders:
        if order == ORDER_UP_DOWN:
            first, second = n, num_vars - n + k
        else:
            first, second = num_vars - n, n + k
        total += num_states * math.perm(first, k) * math.perm(second, k)
    return total


def exact_im_kernel(model: IsingModel, beta, params: SawParams, constraint,
                    budget=PATH_BUDGET):
    """Enumerate every ordered walk pair from every shell state.

    Requires a fixed walk length (k_min == k_max). The enumeration replays
    each pair with ``path_log_prob`` in both directions, so the accumulated
    flows satisfy pathwise detailed balance identically. The path-averaged
    accept rate between two states generally differs from the ratio the
    intractable marginal proposal would give, which is why the sampler
    accepts pathwise.
    """
    if params.k_min != params.k_max:
        raise ValueError("kernel enumeration requires a fixed walk length")
    k = params.k_min
    states = enumerate_shell(constraint)
    shell = exact_distribution(model, beta, states)
    num_states = len(states)
    num = model.num_vars
    n = constraint.distance
    orders = policy_orders(params.order_policy)
    check_walk_lengths(params, n, num)
    total_paths = _kernel_paths(num_states, num, n, k, orders)
    if total_paths > budget:
        raise EnumerationBudgetError(
            f"kernel enumeration needs {total_paths} paths, above the "
            f"budget of {budget}"
        )
    order_weight = 1.0 / len(orders)
    gamma = params.gamma
    kernel = np.zeros((num_states, num_states), dtype=np.float64)

    for row, bits in enumerate(states):
        start = ShellState(model, list(bits), constraint.reference)
        e0 = start.energy
        for order in orders:
            first_toward = order == ORDER_UP_DOWN
            first_cands = (
                start.disagree_indices() if first_toward else start.agree_indices()
            )
            for first_seq in permutations(first_cands, k):
                mid = start.copy()
                for i in first_seq:
                    mid.flip(i)
                second_cands = (
                    mid.agree_indices() if first_toward else mid.disagree_indices()
                )
                for second_seq in permutations(second_cands, k):
                    log_fwd = path_log_prob(
                        model, start, first_seq, second_seq, gamma, order
                    )
                    end = mid.copy()
                    for i in second_seq:
                        end.flip(i)
                    col = shell.index[tuple(end.bits)]
                    rev_first, rev_second = reverse_sequences(first_seq, second_seq)
                    log_rev = path_log_prob(
                        model, end, rev_first, rev_second, gamma, order
                    )
                    log_alpha = -beta * (end.energy - e0) + log_rev - log_fwd
                    alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
                    f = order_weight * math.exp(log_fwd)
                    kernel[row, col] += f * alpha
                    kernel[row, row] += f * (1.0 - alpha)

    return ExactKernel(states=shell.states, probabilities=shell.probabilities,
                       matrix=kernel)


def exact_metropolis_kernel(model: IsingModel, beta, constraint):
    """The pair swap's kernel, by enumeration: from each shell state every
    (disagreeing bit, agreeing bit) pair is proposed with probability
    1 / (n * (M - n)) and accepted with min(1, exp(-beta * (E1 - E0))),
    both energies summed from scratch."""
    n = constraint.distance
    if not 0 < n < constraint.num_vars:
        raise ConfigurationError(
            f"pair swaps need both sets nonempty, got distance {n} of "
            f"{constraint.num_vars}")
    states = enumerate_shell(constraint)
    shell = exact_distribution(model, beta, states)
    energies = [model.energy(list(bits)) for bits in states]
    reference = constraint.reference
    kernel = np.zeros((len(states), len(states)), dtype=np.float64)
    for row, bits in enumerate(states):
        disagree = [i for i, b in enumerate(bits) if b != reference[i]]
        agree = [i for i, b in enumerate(bits) if b == reference[i]]
        q = 1.0 / (len(disagree) * len(agree))
        for i in disagree:
            for j in agree:
                swapped = list(bits)
                swapped[i] ^= 1
                swapped[j] ^= 1
                col = shell.index[tuple(swapped)]
                log_alpha = -beta * (energies[col] - energies[row])
                alpha = 1.0 if log_alpha >= 0.0 else math.exp(log_alpha)
                kernel[row, col] += q * alpha
                kernel[row, row] += q * (1.0 - alpha)
    return ExactKernel(states=shell.states, probabilities=shell.probabilities,
                       matrix=kernel)


def stationarity_gap(result: ExactKernel):
    """max_i |(pi K)_i - pi_i| for the enumerated kernel."""
    pi = result.probabilities
    return float(np.max(np.abs(pi @ result.matrix - pi)))


def detailed_balance_gap(result: ExactKernel):
    """max over pairs of |pi_i K(j|i) - pi_j K(i|j)|."""
    flows = result.probabilities[:, None] * result.matrix
    return float(np.max(np.abs(flows - flows.T)))


def empirical_distribution(model, init, sampler, config, rng, shell: ExactShell,
                           samples, stride=1, burn_in=0):
    """Histogram of visited shell states, aligned with the exact distribution.

    Runs ``samples * stride`` moves after burn-in and counts the state after
    every ``stride``-th move against the enumerated shell's row order.
    ``samples`` and ``stride`` must be whole numbers >= 1 and ``burn_in``
    one >= 0, as in ``run_chain``.
    """
    from .samplers import make_sampler

    samples = integral(samples, "samples", 1)
    stride = integral(stride, "stride", 1)
    burn_in = integral(burn_in, "burn_in", 0)
    driver = make_sampler(model, init, sampler, config, rng=rng)
    for _ in range(burn_in):
        driver.step()
    counts = np.zeros(len(shell.states), dtype=np.int64)
    for _ in range(samples):
        for _ in range(stride):
            driver.step()
        counts[shell.index[tuple(init.bits)]] += 1
    return counts / float(samples)


def check_pathwise_db(model: IsingModel, beta, move: SawMove, start: ShellState):
    """Evaluate both sides of the pathwise balance identity for one move.

    The left side uses the move's own recorded log probabilities (exactly the
    quantities its accept ratio used); the right side is rebuilt from scratch:
    independent path replays in both directions and from-scratch energies.
    Returns (lhs_log, rhs_log, relative_gap): the logs of both sides with
    the unnormalized shell weights (the normalizer cancels), kept in logs
    because the weights themselves can overflow a double.
    """
    e0 = model.energy(start.bits)
    e1 = model.energy(move.proposed.bits)
    lhs_base = -beta * e0 + move.log_fwd
    lhs_other = -beta * e1 + move.log_rev
    lhs_log = lhs_base + min(0.0, lhs_other - lhs_base)

    rev_first, rev_second = reverse_sequences(move.first_walk, move.second_walk)
    log_fwd_ind = path_log_prob(
        model, start, move.first_walk, move.second_walk, move.gamma, move.order
    )
    log_rev_ind = path_log_prob(
        model, move.proposed, rev_first, rev_second, move.gamma, move.order
    )
    rhs_base = -beta * e1 + log_rev_ind
    rhs_other = -beta * e0 + log_fwd_ind
    rhs_log = rhs_base + min(0.0, rhs_other - rhs_base)

    gap = 1.0 - math.exp(-abs(lhs_log - rhs_log))
    return lhs_log, rhs_log, gap
