import copy
import math

import numpy as np
import pytest

from shellwalk import (
    ImConfig,
    ImSampler,
    IsingModel,
    MetropolisConfig,
    MetropolisSampler,
    SawParams,
    ShellConstraint,
    ShellState,
    chain_rng,
    random_shell_state,
    run_chain,
    write_trace_csv,
)
from shellwalk.analysis import load_trace
from shellwalk.errors import CoherenceError, ConfigurationError
from shellwalk.generators import cube3d_pm_j, grid2d
from shellwalk.oracle import check_pathwise_db
from shellwalk.saw_proposal import propose


def free_model(num_vars):
    return IsingModel(num_vars, [], [0.0] * num_vars)


class TestImSampler:
    def test_always_accepts_on_free_model(self):
        # no couplings, no fields: uniform walks, forward and reverse paths
        # have identical probability, so the ratio is exactly one
        model = free_model(8)
        constraint = ShellConstraint((0,) * 8, 4)
        rng = chain_rng(0)
        state = random_shell_state(model, constraint, rng)
        config = ImConfig(beta=1.3, saw=SawParams(gamma=0.7, k_min=1, k_max=3))
        sampler = ImSampler(model, state, config, rng=rng)
        assert all(sampler.step()[0] for _ in range(100))

    def test_pathwise_identity_on_random_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            model = grid2d(3, float(rng.uniform(-1, 1)), float(rng.uniform(-0.3, 0.3)))
            beta = float(rng.uniform(0, 1))
            constraint = ShellConstraint((0,) * 9, int(rng.integers(1, 9)))
            state = random_shell_state(model, constraint, rng)
            config = ImConfig(
                beta=beta,
                saw=SawParams(gamma=float(rng.uniform(0, 1)), k_min=1, k_max=3,
                              order_policy="random"),
            )
            sampler = ImSampler(model, state, config, rng=rng)
            for _ in range(10):
                # the move step() draws, proposed from copies of its inputs
                start = state.copy()
                move = propose(model, start, config.saw, copy.deepcopy(sampler.rng))
                _, _, gap = check_pathwise_db(model, beta, move, start)
                assert gap <= 1e-10
                sampler.step()
                assert state.bits in (move.proposed.bits, start.bits)

    def test_shell_preserved(self):
        model = grid2d(4, 1.0, 0.0)
        constraint = ShellConstraint((0,) * 16, 7)
        rng = chain_rng(5)
        state = random_shell_state(model, constraint, rng, audit=True)
        config = ImConfig(beta=0.6, saw=SawParams(gamma=0.3, k_min=1, k_max=4))
        sampler = ImSampler(model, state, config, rng=rng)
        for _ in range(300):
            sampler.step()
        assert state.distance == 7
        assert state.energy == pytest.approx(
            model.energy(state.bits), abs=1e-9 * (1 + abs(state.energy))
        )

    def test_infinite_temperature_is_uniform(self):
        # at beta=0 only the path-probability ratio decides acceptance, and
        # the stationary distribution must be uniform over the shell
        from shellwalk.oracle import (
            empirical_distribution,
            enumerate_shell,
            exact_distribution,
            tv_distance,
        )

        rng = np.random.default_rng(31)
        edges = [(i, i + 1, float(rng.uniform(-1, 1))) for i in range(5)]
        model = IsingModel(6, edges, rng.uniform(-0.5, 0.5, size=6).tolist())
        constraint = ShellConstraint((0,) * 6, 3)
        shell = exact_distribution(model, 0.0, enumerate_shell(constraint))
        assert np.allclose(shell.probabilities, 1.0 / 20)
        init = random_shell_state(model, constraint, rng)
        config = ImConfig(beta=0.0, saw=SawParams(gamma=0.7, k_min=1, k_max=3))
        empirical = empirical_distribution(
            model, init, "im", config, rng, shell,
            samples=40_000, stride=2, burn_in=4_000,
        )
        assert tv_distance(empirical, shell.probabilities) <= 0.02

    def test_infeasible_walk_length(self):
        model = grid2d(3, 1.0, 0.0)
        constraint = ShellConstraint((0,) * 9, 2)
        rng = chain_rng(1)
        state = random_shell_state(model, constraint, rng)
        config = ImConfig(beta=0.5, saw=SawParams(gamma=0.5, k_min=5, k_max=6))
        with pytest.raises(ConfigurationError):
            ImSampler(model, state, config, rng=rng)


def engine_snapshot(engine):
    """Every per-bit value a walk move changes, as exactly comparable lists."""
    state = engine.state
    parts = [list(state.bits), list(state.spins), state.energy, state.distance,
             state.disagree_indices(), state.agree_indices()]
    if engine.kind == "tree":
        return parts + [list(engine._local), engine._toward.checkpoint(),
                        engine._away.checkpoint()]
    return parts + [engine._local.tolist(), engine._disagree.tolist()]


def rejecting_chain(engine, seed):
    """A 4x4 grid with non-integer coupling and field, and a walk sampler
    that rejects about half of its moves."""
    model = grid2d(4, 0.37, 0.11)
    rng = chain_rng(seed)
    state = random_shell_state(model, ShellConstraint((0,) * 16, 7), rng)
    config = ImConfig(beta=1.2, saw=SawParams(gamma=0.8, k_min=1, k_max=5),
                      engine=engine)
    return model, state, config, rng


class TestRollback:
    @pytest.mark.parametrize("engine", ["tree", "scan"])
    def test_rejected_step_restores_everything(self, engine):
        model, state, config, rng = rejecting_chain(engine, 8)
        sampler = ImSampler(model, state, config, rng=rng)
        rejected = 0
        for _ in range(300):
            before = engine_snapshot(sampler.engine)
            accepted, _ = sampler.step()
            if not accepted:
                rejected += 1
                assert engine_snapshot(sampler.engine) == before
        assert rejected >= 100

    def test_tree_and_scan_chains_agree(self):
        records, states = {}, {}
        for engine in ("tree", "scan"):
            model, states[engine], config, rng = rejecting_chain(engine, 12)
            records[engine] = run_chain(model, states[engine], "im", 3000,
                                        config=config, rng=rng)
        tree, scan = records["tree"], records["scan"]
        assert tree.acceptance_rate <= 2 / 3
        assert np.array_equal(tree.accepted, scan.accepted)
        assert np.array_equal(tree.ks, scan.ks)
        assert np.allclose(tree.energies, scan.energies, rtol=1e-12, atol=1e-12)
        assert states["tree"].bits == states["scan"].bits

    def test_evals_count_forward_flips_only(self):
        # integer couplings: propose() from copies draws the same walks as
        # the sampler's incrementally kept engine
        model = grid2d(4, 1.0, 0.0)
        constraint = ShellConstraint((0,) * 16, 7)
        config = ImConfig(beta=0.9, saw=SawParams(gamma=0.9, k_min=1, k_max=5),
                          engine="tree")
        rng = chain_rng(4)
        state = random_shell_state(model, constraint, rng)
        init, init_rng = state.copy(), copy.deepcopy(rng)
        sampler = ImSampler(model, state, config, rng=rng)
        expected = 0
        for _ in range(200):
            move = propose(model, state, config.saw, copy.deepcopy(rng), engine="tree")
            flips = move.first_walk + move.second_walk
            assert len(flips) == 2 * move.k
            cost = sum(len(model.adjacency[i]) + 1 for i in flips)
            before = sampler.evals
            sampler.step()
            assert sampler.evals - before == cost
            expected += cost
        assert sampler.accepts < 200
        record = run_chain(model, init, "im", 200, config=config, rng=init_rng)
        assert record.evals_per_move == expected / 200


class TestMetropolisSampler:
    def test_always_accepts_on_free_model(self):
        model = free_model(7)
        constraint = ShellConstraint((0,) * 7, 3)
        rng = chain_rng(2)
        state = random_shell_state(model, constraint, rng)
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=2.0),
                                    rng=rng)
        assert all(sampler.step()[0] for _ in range(100))

    def test_swaps_one_bit_each_way(self):
        model = grid2d(3, 0.5, 0.1)
        state = ShellState(model, [1, 1, 1, 0, 0, 0, 0, 0, 0], (0,) * 9, audit=True)
        rng = chain_rng(3)
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=0.4),
                                    rng=rng)
        for _ in range(200):
            accepted, (i, j) = sampler.step()
            assert i != j
        assert state.distance == 3

    def test_adjacent_pair_delta_is_exact(self):
        # swapping graph neighbors exercises the coupling correction; the
        # cached energy must track a from-scratch recomputation
        rng = np.random.default_rng(17)
        model = grid2d(3, 1.5, 0.2)
        constraint = ShellConstraint((0,) * 9, 4)
        state = random_shell_state(model, constraint, rng)
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=0.8),
                                    rng=rng)
        for _ in range(2000):
            sampler.step()
        assert state.energy == pytest.approx(
            model.energy(state.bits), abs=1e-9 * (1 + abs(state.energy))
        )

    def test_accepted_swap_reuses_its_deltas(self, monkeypatch):
        # only a swap of graph neighbors has the second bit's field changed
        # by the first flip, so only it recomputes an energy change
        model = grid2d(4, 0.37, 0.11)
        rng = chain_rng(8)
        state = random_shell_state(model, ShellConstraint((0,) * 16, 6), rng)
        recomputed = []
        original = ShellState.delta_energy

        def counted(self, i):
            recomputed.append(i)
            return original(self, i)

        monkeypatch.setattr(ShellState, "delta_energy", counted)
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=0.5), rng=rng)
        adjacent = 0
        accepted_total = 0
        for _ in range(3000):
            accepted, (i, j) = sampler.step()
            accepted_total += accepted
            if accepted and any(nb == j for nb, _ in model.adjacency[i]):
                adjacent += 1
                assert recomputed[-1] == j
        assert 0 < adjacent < accepted_total
        assert len(recomputed) == adjacent
        assert state.energy == pytest.approx(model.energy(state.bits), abs=1e-9)

    @pytest.mark.parametrize("flipped_first", [False, True])
    def test_slot_order_tracks_the_partition(self, flipped_first):
        # swaps of graph neighbors occur on this grid; the sampler draws
        # slots directly, so the slot list is all it keeps
        model = grid2d(4, 0.37, 0.11)
        rng = chain_rng(21)
        state = random_shell_state(model, ShellConstraint((0,) * 16, 6), rng,
                                   audit=True)
        if flipped_first:
            state.flip(state.disagree_indices()[-1])
            state.flip(state.agree_indices()[0])
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=0.5), rng=rng)
        slots = sampler._slots
        assert slots == state.disagree_indices() + state.agree_indices()
        adjacent = 0
        for _ in range(2000):
            accepted, (i, j) = sampler.step()
            adjacent += accepted and any(nb == j for nb, _ in model.adjacency[i])
        assert adjacent > 0
        assert sorted(slots[:state.distance]) == state.disagree_indices()
        assert sorted(slots) == list(range(16))

    def test_empty_side_rejected(self):
        model = free_model(4)
        rng = chain_rng(0)
        for n in (0, 4):
            state = random_shell_state(model, ShellConstraint((0,) * 4, n), rng)
            with pytest.raises(ConfigurationError):
                MetropolisSampler(model, state, MetropolisConfig(beta=1.0), rng=rng)


@pytest.mark.parametrize("sampler", ["im", "metropolis"])
def test_audited_state_checks_the_shell_every_move(sampler):
    model = grid2d(3, 1.0, 0.1)
    constraint = ShellConstraint((0,) * 9, 4)
    for audit in (False, True):
        rng = chain_rng(4)
        state = random_shell_state(model, constraint, rng, audit=audit)
        if sampler == "im":
            config = ImConfig(beta=0.5, saw=SawParams(gamma=0.5, k_min=1, k_max=2))
            driver = ImSampler(model, state, config, rng=rng)
        else:
            driver = MetropolisSampler(model, state, MetropolisConfig(beta=0.5), rng=rng)
        driver.shell_distance = 3  # as if the state had left its shell
        if audit:
            with pytest.raises(CoherenceError, match="left the shell"):
                driver.step()
        else:
            driver.step()


class TestRandomShellState:
    def test_degenerate_shells(self):
        model = free_model(5)
        rng = chain_rng(0)
        ref = (0, 1, 0, 1, 1)
        state = random_shell_state(model, ShellConstraint(ref, 0), rng)
        assert tuple(state.bits) == ref
        state = random_shell_state(model, ShellConstraint(ref, 5), rng)
        assert tuple(state.bits) == tuple(1 - b for b in ref)

    def test_uniform_over_shell(self):
        model = free_model(6)
        constraint = ShellConstraint((0,) * 6, 3)
        rng = chain_rng(11)
        counts = {}
        draws = 100_000
        for _ in range(draws):
            state = random_shell_state(model, constraint, rng)
            key = tuple(state.bits)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 20
        for count in counts.values():
            assert abs(count / draws - 0.05) < 0.005


class TestRunChain:
    def test_record_counts(self):
        model = free_model(6)
        constraint = ShellConstraint((0,) * 6, 3)
        rng = chain_rng(0)
        state = random_shell_state(model, constraint, rng)
        config = MetropolisConfig(beta=1.0)
        record = run_chain(model, state, "metropolis", 1, record_stride=1,
                           config=config, rng=rng)
        assert len(record) == 1
        state = random_shell_state(model, constraint, rng)
        record = run_chain(model, state, "metropolis", 10, record_stride=3,
                           config=config, rng=rng)
        assert len(record) == math.ceil(10 / 3)
        assert record.steps.tolist() == [0, 3, 6, 9]

    def test_deterministic_given_seed(self):
        model = grid2d(3, 1.0, 0.0)
        constraint = ShellConstraint((0,) * 9, 4)

        def one_run():
            rng = chain_rng(42, 0)
            state = random_shell_state(model, constraint, rng)
            config = ImConfig(beta=0.44,
                              saw=SawParams(gamma=0.44, k_min=1, k_max=3))
            return run_chain(model, state, "im", 500, record_stride=2,
                             config=config, rng=rng)

        first, second = one_run(), one_run()
        assert np.array_equal(first.energies, second.energies)
        assert np.array_equal(first.accepted, second.accepted)
        assert np.array_equal(first.ks, second.ks)
        assert first.acceptance_rate == second.acceptance_rate
        assert first.evals_per_move == second.evals_per_move

    def test_glass_checkpoint_energies(self):
        # long enough to cross the periodic from-scratch refresh, with audit
        # comparing the cache against full recomputation at each checkpoint
        model = cube3d_pm_j(3, seed=4)
        constraint = ShellConstraint((0,) * 27, 13)
        rng = chain_rng(9)
        state = random_shell_state(model, constraint, rng, audit=True)
        config = MetropolisConfig(beta=0.3)
        record = run_chain(model, state, "metropolis", 40_000, record_stride=100,
                           config=config, rng=rng)
        assert state._flips > (1 << 14)
        assert state.energy == pytest.approx(model.energy(state.bits), abs=1e-9)
        assert len(record) == 400

    def test_argument_validation(self):
        model = free_model(4)
        constraint = ShellConstraint((0,) * 4, 2)
        rng = chain_rng(0)
        state = random_shell_state(model, constraint, rng)
        with pytest.raises(ValueError):
            run_chain(model, state, "metropolis", 0, config=MetropolisConfig(beta=1.0))
        with pytest.raises(ValueError):
            run_chain(model, state, "metropolis", 5, record_stride=0,
                      config=MetropolisConfig(beta=1.0))
        with pytest.raises(ConfigurationError):
            run_chain(model, state, "unknown", 5, config=MetropolisConfig(beta=1.0))
        with pytest.raises(ConfigurationError):
            run_chain(model, state, "im", 5, config=MetropolisConfig(beta=1.0))


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        model = grid2d(3, 1.0, 0.0)
        constraint = ShellConstraint((0,) * 9, 4)
        rng = chain_rng(7)
        state = random_shell_state(model, constraint, rng)
        config = MetropolisConfig(beta=0.44)
        record = run_chain(model, state, "metropolis", 200, record_stride=5,
                           config=config, rng=rng)
        path = tmp_path / "trace.csv"
        meta = {"model": "m.json", "gamma": 0.4405, "seed": 7, "stride": 5,
                "evals_per_move": record.evals_per_move}
        write_trace_csv(record, path, meta)
        trace = load_trace(path)
        assert np.allclose(trace.energies, record.energies)
        assert trace.meta["sampler"] == "metropolis"
        assert trace.meta["gamma"] == 0.4405
        assert trace.meta["beta"] == 0.44
        assert trace.meta["stride"] == 5
        # eval counts are a diagnostic: they price nothing
        assert "cost_per_sample" not in trace.meta

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = free_model(6)
        constraint = ShellConstraint((0,) * 6, 3)

        def produce(path):
            rng = chain_rng(1)
            state = random_shell_state(model, constraint, rng)
            record = run_chain(model, state, "metropolis", 100, record_stride=2,
                               config=MetropolisConfig(beta=1.0), rng=rng)
            write_trace_csv(record, path, {"model": "m.json", "seed": 1,
                                           "stride": 2})

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        produce(a)
        produce(b)
        assert a.read_bytes() == b.read_bytes()
