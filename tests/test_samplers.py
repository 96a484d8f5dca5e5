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
from shellwalk.generators import cube3d_pm_j, grid2d, rbm_gabor
from shellwalk.model import COHERENCE_RTOL
from shellwalk.oracle import check_pathwise_db
from shellwalk.samplers import BitDraws
from shellwalk.saw_proposal import (
    ORDER_DOWN_UP,
    ORDER_POLICIES,
    ORDER_UP_DOWN,
    RESYNC_INTERVAL,
    ScanWalkEngine,
    TreeWalkEngine,
    draw_move_shape,
    feasible_k_max,
    propose,
)


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
    if isinstance(engine, TreeWalkEngine):
        return parts + [list(engine._local), list(engine._toward._nodes),
                        list(engine._away._nodes)]
    return parts + [engine._local.tolist(), engine._side.tolist()]


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
    # at interval 7 most rejected walks resync mid-walk, so restore hands
    # the pre-walk containers to the rebuilt trees or the scan engine
    @pytest.mark.parametrize("engine, resync", [
        pytest.param("tree", None, id="tree"),
        pytest.param("scan", None, id="scan"),
        pytest.param("tree", 7, id="tree-resync-7"),
        pytest.param("scan", 7, id="scan-resync-7"),
    ])
    def test_rejected_step_restores_everything(self, engine, resync, monkeypatch):
        if resync is not None:
            monkeypatch.setattr("shellwalk.saw_proposal.RESYNC_INTERVAL", resync)
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


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox)


def twin_generators(bit_generator, seed):
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


def assert_same_stream(rng, twin):
    """Both generators are at the same point of the same stream."""
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)
    assert rng.integers(0, 2**32, size=5, dtype=np.uint32).tolist() == \
        twin.integers(0, 2**32, size=5, dtype=np.uint32).tolist()
    assert rng.random(3).tolist() == twin.random(3).tolist()


class TestBitDraws:
    # 2**31 + 1 rejects about half of its words; 2**32 takes each word whole
    RANGES = (1, 2, 3, 7, 729, 2**31 + 1, 2**32)

    @pytest.mark.parametrize("odd_start", [False, True])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_values_and_stream_match_numpy(self, bit_generator, odd_start):
        rng, twin = twin_generators(bit_generator, 13)
        if odd_start:
            for generator in (rng, twin):
                generator.integers(0, 2**32, dtype=np.uint32)
        if "has_uint32" in rng.bit_generator.state:
            assert rng.bit_generator.state["has_uint32"] == odd_start
        draws = BitDraws(twin)
        order = np.random.default_rng(3)
        for _ in range(3000):
            pick = int(order.integers(0, len(self.RANGES) + 1))
            if pick == len(self.RANGES):
                assert draws.uniform() == rng.random()
            else:
                n = self.RANGES[pick]
                assert draws.below(n) == int(rng.integers(0, n))
        assert_same_stream(rng, twin)


def parent_move_shape(params, rng, distance, num_vars):
    """The walk length and order as drawn with numpy's calls."""
    k_raw = int(rng.integers(params.k_min, params.k_max + 1))
    order = params.order_policy
    if order == "random":
        order = ORDER_UP_DOWN if rng.random() < 0.5 else ORDER_DOWN_UP
    return min(k_raw, feasible_k_max(distance, num_vars, order)), order


class TestMoveShapeDraws:
    # distance 20 of 60 bits: up_down walks are clamped to 20, down_up to 40
    @pytest.mark.parametrize("policy", ORDER_POLICIES)
    @pytest.mark.parametrize("k_min, k_max", [(24, 24), (1, 25), (0, 3)])
    def test_matches_numpy_draws(self, k_min, k_max, policy):
        params = SawParams(gamma=0.5, k_min=k_min, k_max=k_max, order_policy=policy)
        rng, twin = twin_generators(np.random.PCG64, 17)
        draws = BitDraws(twin)
        shapes = set()
        for _ in range(400):
            before = repr(twin.bit_generator.state)
            shape = draw_move_shape(params, draws, 20, 60)
            assert shape == parent_move_shape(params, rng, 20, 60)
            if k_min == k_max and policy != "random":
                # a fixed length draws nothing
                assert repr(twin.bit_generator.state) == before
            assert draws.uniform() == rng.random()
            shapes.add(shape)
        assert_same_stream(rng, twin)
        orders = {ORDER_UP_DOWN, ORDER_DOWN_UP} if policy == "random" else {policy}
        assert {order for _, order in shapes} == orders
        assert len(shapes) > 1 or k_min == k_max

    def test_int64_bounds_draw_numpys_values(self):
        # kept as numpy int64, these bounds would overflow below()'s product
        params = SawParams(gamma=0.5, k_min=np.int64(0), k_max=np.int64(2**32 - 1))
        assert (type(params.k_min), type(params.k_max)) == (int, int)
        rng, twin = twin_generators(np.random.PCG64, 23)
        draws = BitDraws(twin)
        # a shell far wider than the span, so no length is clamped
        for _ in range(200):
            assert draw_move_shape(params, draws, 2**40, 2**41) == \
                parent_move_shape(params, rng, 2**40, 2**41)
        assert_same_stream(rng, twin)


class ParentMetropolis:
    """The pair swap as written with numpy's draws, kept as the reference
    for ``MetropolisSampler``: same picks, neighbour sums and slot order."""

    def __init__(self, model, state, beta, rng):
        self.model, self.state, self.beta, self.rng = model, state, beta, rng
        self.slots = state.disagree_indices() + state.agree_indices()
        self.shell_distance = state.distance

    def step(self):
        state = self.state
        model = self.model
        rng = self.rng
        slots = self.slots
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
        log_alpha = -self.beta * delta
        if log_alpha > 0.0:
            log_alpha = 0.0
        accepted = rng.random() < math.exp(log_alpha)
        if accepted:
            state.flip(i, delta_i)
            state.flip(j, None if adjacent else delta_j)
            slots[a] = slots[n - 1]
            slots[n - 1] = j
            slots[b] = i
        return accepted, (i, j)


def parent_shell_bits(constraint, rng):
    """The start state's bits as drawn with numpy's integers."""
    num = constraint.num_vars
    idx = list(range(num))
    for t in range(constraint.distance):
        r = t + int(rng.integers(0, num - t))
        idx[t], idx[r] = idx[r], idx[t]
    bits = list(constraint.reference)
    for t in range(constraint.distance):
        bits[idx[t]] ^= 1
    return bits


# name -> (model, reference, shell distance, beta)
SWAP_MODELS = {
    "rbm-desk": lambda: (rbm_gabor(64, 32, seed=4),
                         tuple(np.random.default_rng(4).integers(0, 2, 96).tolist()),
                         32, 1.0),
    "glass3d-desk": lambda: (cube3d_pm_j(5, seed=2), (0,) * 125, 63, 1.0),
    "grid4": lambda: (grid2d(4, 0.37, 0.11), (0,) * 16, 6, 0.5),
    "grid4-n1": lambda: (grid2d(4, 0.37, 0.11), (0,) * 16, 1, 0.5),
    "grid4-n15": lambda: (grid2d(4, 0.37, 0.11), (0,) * 16, 15, 0.5),
}


def assert_coherent(energy, other):
    assert abs(energy - other) <= COHERENCE_RTOL * (1.0 + abs(other))


class TestSwapsMatchParent:
    @pytest.mark.parametrize("name", sorted(SWAP_MODELS))
    def test_swap_by_swap(self, name):
        """Picks, outcomes, slots and the random stream equal the parent's.
        On sparse models so does every energy. The dense filter model's
        swap reads the scan engine's incrementally updated fields, whose
        sums differ from the parent's in the last bits, so its energy is
        held within ``COHERENCE_RTOL`` of the parent's and of a from-scratch
        sum."""
        model, reference, n, beta = SWAP_MODELS[name]()
        rng = chain_rng(31)
        state = random_shell_state(model, ShellConstraint(reference, n), rng)
        twin_rng = copy.deepcopy(rng)
        twin = state.copy()
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=beta), rng=rng)
        parent = ParentMetropolis(model, twin, beta, twin_rng)
        dense = name == "rbm-desk"
        assert (sampler._engine is not None) == dense
        accepted_total = 0
        for swap in range(1, 2001):
            outcome = sampler.step()
            assert outcome == parent.step()
            if dense:
                assert_coherent(state.energy, twin.energy)
                assert_coherent(state.energy, model.energy(state.bits))
            else:
                assert state.energy == twin.energy
            accepted_total += outcome[0]
            assert sampler.evals == 2 * swap
        assert 0 < accepted_total < 2000
        assert sampler._slots == parent.slots
        assert_same_stream(rng, twin_rng)

    @pytest.mark.parametrize("name", ["glass3d-desk", "grid4", "rbm-desk"])
    def test_start_state(self, name):
        # at n = num the last pick has range 1 and consumes no draw
        model, reference, _, _ = SWAP_MODELS[name]()
        num = model.num_vars
        for n in (0, 1, num // 2, num - 1, num):
            constraint = ShellConstraint(reference, n)
            rng, twin = twin_generators(np.random.PCG64, n)
            state = random_shell_state(model, constraint, rng)
            assert state.bits == parent_shell_bits(constraint, twin)
            assert_same_stream(rng, twin)


class TestDenseSwap:
    def test_only_a_dense_model_binds_an_engine(self):
        for model, dense in ((rbm_gabor(16, 6, seed=3), True),
                             (rbm_gabor(4, 6, seed=3), False),  # degree 4.8
                             (grid2d(4, 1.0, 0.1), False),
                             (cube3d_pm_j(3, seed=1), False)):
            constraint = ShellConstraint((0,) * model.num_vars, 2)
            state = random_shell_state(model, constraint, chain_rng(1))
            sampler = MetropolisSampler(model, state, MetropolisConfig(beta=0.5))
            engine = sampler._engine
            assert (engine is not None) == dense
            if dense:
                assert isinstance(engine, ScanWalkEngine)
                assert engine.state is state and engine.gamma == 0.0

    def test_swaps_compute_no_logits(self):
        model = rbm_gabor(16, 6, seed=3)
        constraint = ShellConstraint((0,) * model.num_vars, 2)
        rng = chain_rng(2)
        state = random_shell_state(model, constraint, rng)
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=0.5), rng=rng)
        for _ in range(500):
            sampler.step()
        assert sampler.accepts > 0
        assert sampler._engine._z is None and sampler._engine.evals == 0

    def test_audited_chain_crosses_a_resync(self):
        # beta 0.5 accepts about 40 % of swaps, so 2^16 flips take about
        # 80 000 swaps; the engine rebuilds its fields once, checking them
        model = rbm_gabor(16, 6, seed=3)
        constraint = ShellConstraint((0,) * model.num_vars, 2)
        rng = chain_rng(8)
        state = random_shell_state(model, constraint, rng, audit=True)
        sampler = MetropolisSampler(model, state, MetropolisConfig(beta=0.5), rng=rng)
        engine = sampler._engine
        syncs = []
        rebuild = engine.sync

        def counted():
            syncs.append(state._flips)
            rebuild()

        engine.sync = counted
        while state._flips < RESYNC_INTERVAL + 1000:
            sampler.step()
        assert syncs == [RESYNC_INTERVAL]
        assert_coherent(state.energy, model.energy(state.bits))
        spins = state.spins
        for i, row in enumerate(model.adjacency):
            assert_coherent(engine._local.item(i), sum(c * spins[j] for j, c in row))


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

    def test_integral_walk_bounds_of_any_type_run_the_int_chain(self):
        records = []
        for k_max in (2, 2.0):
            model, state, config, rng = rejecting_chain("tree", 3)
            config = ImConfig(beta=config.beta, saw=SawParams(
                gamma=config.saw.gamma, k_min=1, k_max=k_max))
            records.append(run_chain(model, state, "im", 200, config=config, rng=rng))
        assert type(config.saw.k_max) is int
        assert records[0].energies.tolist() == records[1].energies.tolist()
        assert records[0].ks.tolist() == records[1].ks.tolist()

    def test_fractional_seed_or_chain_index_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            chain_rng(1.5)
        with pytest.raises(ValueError, match="chain_index must be an integer"):
            chain_rng(1, 0.5)
        assert chain_rng(np.int64(3), 2.0).random() == chain_rng(3, 2).random()

    @pytest.mark.parametrize("moves, name, kwargs", [
        (0, "num_moves", {}), (5, "record_stride", {"record_stride": 0}),
        # refused, not truncated or run as no burn-in
        (2.5, "num_moves", {}), (5, "record_stride", {"record_stride": 1.5}),
        (5, "burn_in", {"burn_in": 2.5}), (5, "burn_in", {"burn_in": -1}),
    ])
    def test_argument_validation(self, moves, name, kwargs):
        model = free_model(4)
        constraint = ShellConstraint((0,) * 4, 2)
        rng = chain_rng(0)
        state = random_shell_state(model, constraint, rng)
        with pytest.raises(ValueError, match=name):
            run_chain(model, state, "metropolis", moves,
                      config=MetropolisConfig(beta=1.0), **kwargs)
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
        meta = {"model": "m.json", "sampler": "metropolis", "beta": 0.44,
                "gamma": 0.4405, "seed": 7, "stride": 5,
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
