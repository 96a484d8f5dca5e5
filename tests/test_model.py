import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellwalk import IsingModel, ShellConstraint, ShellState
from shellwalk.errors import CoherenceError
from shellwalk.generators import cube3d_pm_j, grid2d, rbm_gabor


def naive_energy(model, bits):
    # independent full-sum oracle: every edge and field, no shared code path
    spins = [2 * b - 1 for b in bits]
    total = 0.0
    for i, j, coupling in model.edges:
        total -= coupling * spins[i] * spins[j]
    for i in range(model.num_vars):
        total -= model.fields[i] * spins[i]
    return total


def random_model(rng, num_vars=8, edge_prob=0.4):
    edges = []
    for i in range(num_vars):
        for j in range(i + 1, num_vars):
            if rng.random() < edge_prob:
                edges.append((i, j, float(rng.uniform(-2, 2))))
    fields = [float(rng.uniform(-1, 1)) for _ in range(num_vars)]
    return IsingModel(num_vars, edges, fields)


class TestEnergy:
    def test_ferromagnet_all_aligned(self):
        model = grid2d(2, 1.0, 0.0)
        assert model.energy([1, 1, 1, 1]) == -4.0

    def test_two_frustrated_bonds_cancel(self):
        model = grid2d(2, 1.0, 0.0)
        # spins (+1, +1, -1, -1): edges (0,1) and (2,3) satisfied, the two
        # column edges frustrated
        assert model.energy([1, 1, 0, 0]) == 0.0

    def test_matches_naive_oracle_on_glass(self):
        model = cube3d_pm_j(5, seed=123)
        rng = np.random.default_rng(5)
        for _ in range(5):
            bits = rng.integers(0, 2, size=model.num_vars).tolist()
            assert model.energy(bits) == pytest.approx(
                naive_energy(model, bits), abs=1e-9
            )

    def test_length_mismatch(self):
        model = grid2d(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            model.energy([1, 0, 1])

    def test_spin_flip_symmetry_without_fields(self):
        model = random_model(np.random.default_rng(0))
        model = IsingModel(model.num_vars, model.edges, [0.0] * model.num_vars)
        rng = np.random.default_rng(1)
        for _ in range(10):
            bits = rng.integers(0, 2, size=model.num_vars).tolist()
            flipped = [1 - b for b in bits]
            assert model.energy(bits) == model.energy(flipped)


class TestDeltaEnergy:
    def test_two_aligned_neighbors(self):
        model = grid2d(2, 1.0, 0.0)
        state = ShellState(model, [1, 1, 1, 1], (0, 0, 0, 0))
        assert state.delta_energy(0) == pytest.approx(4.0)

    def test_field_only(self):
        model = IsingModel(1, [], [0.5])
        state = ShellState(model, [0], (0,))
        assert state.delta_energy(0) == pytest.approx(-1.0)

    def test_matches_full_recomputation(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        bits = rng.integers(0, 2, size=model.num_vars).tolist()
        state = ShellState(model, bits, tuple([0] * model.num_vars))
        base = model.energy(bits)
        for i in range(model.num_vars):
            flipped = list(bits)
            flipped[i] ^= 1
            assert state.delta_energy(i) == pytest.approx(
                model.energy(flipped) - base, abs=1e-9
            )

    def test_index_out_of_range(self):
        model = grid2d(2, 1.0, 0.0)
        state = ShellState(model, [1, 1, 1, 1], (0, 0, 0, 0))
        with pytest.raises(IndexError):
            state.delta_energy(4)


class TestFlip:
    def test_single_bit_inversion(self):
        model = IsingModel(7, [(i, i + 1, 1.0) for i in range(6)], [0.0] * 7)
        state = ShellState(model, [1, 1, 1, 1, 1, 0, 0], (0,) * 7)
        state.flip(3)
        assert state.bits == [1, 1, 1, 0, 1, 0, 0]

    def test_bits_are_derived_from_spins(self):
        model = IsingModel(4, [(0, 1, 1.0)], [0.0] * 4)
        state = ShellState(model, [1, 0, 0, 1], (0,) * 4)
        assert "bits" not in ShellState.__slots__
        assert state.spins == [1.0, -1.0, -1.0, 1.0]
        bits = state.bits
        assert bits == [1, 0, 0, 1] and bits is not state.bits
        bits[0] = 0  # a caller's copy, not the state
        assert state.bits == [1, 0, 0, 1]
        assert len(state.checkpoint()) == 3

    @given(st.integers(0, 6), st.lists(st.integers(0, 1), min_size=7, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, index, bits):
        model = IsingModel(7, [(i, i + 1, 0.5) for i in range(6)], [0.1] * 7)
        state = ShellState(model, bits, (0,) * 7)
        before = list(state.bits)
        d_before = state.distance
        state.flip(index)
        assert abs(state.distance - d_before) == 1
        state.flip(index)
        assert state.bits == before
        assert state.distance == d_before

    def test_cache_coherence_after_many_flips(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, num_vars=10)
        bits = rng.integers(0, 2, size=10).tolist()
        reference = tuple(rng.integers(0, 2, size=10).tolist())
        state = ShellState(model, bits, reference)
        for _ in range(500):
            state.flip(int(rng.integers(0, 10)))
        scratch = model.energy(state.bits)
        assert state.energy == pytest.approx(scratch, abs=1e-9 * (1 + abs(scratch)))
        differs = [b != r for b, r in zip(state.bits, reference)]
        assert state.disagree_indices() == [i for i in range(10) if differs[i]]
        assert state.agree_indices() == [i for i in range(10) if not differs[i]]
        assert state.distance == sum(differs)

    def test_audit_catches_corruption(self):
        model = grid2d(3, 1.0, 0.0)
        state = ShellState(model, [0] * 9, (0,) * 9, audit=True)
        state.energy += 1.0  # simulate cache drift
        with pytest.raises(CoherenceError):
            for i in range(1 << 15):
                state.flip(i % 9)
                state.flip(i % 9)

    def test_periodic_refresh_clears_drift(self):
        model = grid2d(3, 1.0, 0.0)
        state = ShellState(model, [0] * 9, (0,) * 9)
        rng = np.random.default_rng(3)
        for _ in range((1 << 14) + 50):
            state.flip(int(rng.integers(0, 9)))
        assert state.energy == pytest.approx(model.energy(state.bits), abs=1e-9)


def free_model(num_vars):
    return IsingModel(num_vars, [], [0.0] * num_vars)


class TestSideIndices:
    def test_reference_all_zero(self):
        state = ShellState(free_model(7), [1, 1, 1, 1, 1, 0, 0], [0] * 7)
        assert state.disagree_indices() == [0, 1, 2, 3, 4]
        assert state.agree_indices() == [5, 6]

    def test_identical_states(self):
        state = ShellState(free_model(3), [1, 0, 1], [1, 0, 1])
        assert state.disagree_indices() == []
        assert state.agree_indices() == [0, 1, 2]

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=20),
        st.lists(st.integers(0, 1), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_everything(self, bits, reference):
        size = min(len(bits), len(reference))
        bits, reference = bits[:size], reference[:size]
        state = ShellState(free_model(size), bits, reference)
        agree, disagree = state.agree_indices(), state.disagree_indices()
        assert len(disagree) == state.distance
        assert sorted(agree + disagree) == list(range(size))
        assert all(bits[i] != reference[i] for i in disagree)

    def test_disagree_spin_is_built_once_and_shared(self):
        rng = np.random.default_rng(11)
        reference = rng.integers(0, 2, 40).tolist()
        state = ShellState(free_model(40), rng.integers(0, 2, 40).tolist(), reference)
        assert state.disagree_spin == tuple(1 - 2 * r for r in reference)
        assert state.copy().disagree_spin is state.disagree_spin

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ShellState(free_model(2), [1, 0], [1, 0, 1])

    def test_reference_must_be_binary(self):
        # a reference value of 2 would count every flip of its bit as agreeing
        with pytest.raises(ValueError, match=r"reference must be a \{0,1\} vector"):
            ShellState(free_model(3), [1, 0, 0], [2, 0, 0])

    def test_fractional_bits_are_refused_not_truncated(self):
        model = grid2d(2)
        with pytest.raises(ValueError, match=r"bits must be a \{0,1\} vector"):
            ShellState(model, [0.5, 1.9, 0, 0], (0, 0, 0, 0))
        with pytest.raises(ValueError, match=r"reference must be a \{0,1\} vector"):
            ShellState(model, [0, 0, 0, 0], (0, 0.5, 0, 0))

    def test_integral_values_of_any_type_are_bits(self):
        bits = [1.0, True, np.int64(1), np.uint8(0)]
        state = ShellState(grid2d(2), bits, np.array([0, 1, 0.0, False], dtype=object))
        assert state.bits == [1, 1, 1, 0]
        assert state.disagree_spin == (1.0, -1.0, 1.0, 1.0)
        assert state.distance == 2


class TestModelValidation:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            IsingModel(3, [(0, 1, 1.0), (1, 0, 2.0)], [0.0] * 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            IsingModel(3, [(1, 1, 1.0)], [0.0] * 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            IsingModel(3, [(0, 3, 1.0)], [0.0] * 3)

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValueError):
            IsingModel(3, [], [0.0, 0.0])

    @pytest.mark.parametrize("num_vars, edges, fields, named", [
        (2.9, [], [0.0, 0.0], "2.9"),
        (3, [(0, 1.7, 1.0)], None, "1.7"),
        (3, [(0, 1, 1.0), (1.2, 2, 2.0)], None, "1.2"),
    ])
    def test_fractional_counts_are_refused_not_truncated(self, num_vars, edges,
                                                         fields, named):
        with pytest.raises(ValueError, match=named):
            IsingModel(num_vars, edges, fields)

    def test_integral_counts_of_any_type_are_accepted(self):
        model = IsingModel(np.int64(3), [(np.int64(2), 1.0, 1.0)], [0.0] * 3)
        assert model.num_vars == 3 and type(model.num_vars) is int
        assert model.edges == ((1, 2, 1.0),)

    def test_normalizes_edge_order(self):
        model = IsingModel(3, [(2, 0, 1.5)], [0.0] * 3)
        assert model.edges == ((0, 2, 1.5),)

    def test_adjacency_is_symmetric_closure(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        for i, row in enumerate(model.adjacency):
            for j, coupling in row:
                assert (min(i, j), max(i, j), coupling) in model.edges
        assert sum(len(r) for r in model.adjacency) == 2 * len(model.edges)

    def test_adjacency_rows_are_ascending(self):
        # each bit's field sum is added in row order, so a row order set by
        # the bits alone gives the same doubles however the edges are listed
        rng = np.random.default_rng(5)
        edges = [(j, i, c) if rng.random() < 0.5 else (i, j, c)
                 for i, j, c in random_model(rng, num_vars=12, edge_prob=0.5).edges]
        shuffled = IsingModel(12, [edges[t] for t in rng.permutation(len(edges))],
                              [0.0] * 12)
        for model in (shuffled, grid2d(5, 1.0, 0.0), cube3d_pm_j(3, seed=1),
                      rbm_gabor(16, 6, seed=3)):
            for row in model.adjacency:
                neighbours = [j for j, _ in row]
                assert neighbours == sorted(set(neighbours))


class TestFlipBound:
    class RefusedRows:
        def __getitem__(self, i):
            raise AssertionError("adjacency read again")

        def __iter__(self):
            raise AssertionError("adjacency read again")

    def test_computed_once_per_model(self):
        model = IsingModel(4, [(0, 1, 1.5), (1, 2, -2.0), (2, 3, 0.25)],
                           [0.5, -3.0, 0.0, 1.0])
        expected = max(2.0 * (sum(abs(c) for _, c in row) + abs(h))
                       for row, h in zip(model.adjacency, model.fields))
        assert expected == 13.0  # bit 1: 2 * (1.5 + 2.0 + 3.0)
        assert model.max_flip_delta() == expected
        model.adjacency = self.RefusedRows()
        assert model.max_flip_delta() == expected


class TestShellConstraint:
    def test_distance_bounds(self):
        ShellConstraint((0, 1, 0), 3)
        with pytest.raises(ValueError):
            ShellConstraint((0, 1, 0), 4)
        with pytest.raises(ValueError):
            ShellConstraint((0, 1, 0), -1)

    def test_fractional_reference_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match=r"reference must be a \{0,1\} vector"):
            ShellConstraint((0.7, 0, 0, 0), 1)
        assert ShellConstraint((1.0, 0, np.int64(1), False), 1).reference == (1, 0, 1, 0)

    def test_fractional_distance_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="distance must be an integer"):
            ShellConstraint((0,) * 9, 2.5)
        assert type(ShellConstraint((0,) * 9, 2.0).distance) is int
