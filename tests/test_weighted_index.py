import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellwalk.weighted_index import WeightedIndexTree


def naive_sample(weights, u):
    # linear-scan interval sampler used as the distributional oracle
    total = math.fsum(weights)
    target = u * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if target < acc and w > 0:
            return i
    return max(i for i, w in enumerate(weights) if w > 0)


class TestBuild:
    def test_uniform_total(self):
        assert WeightedIndexTree([1, 1, 1, 1])._nodes[1] == 4.0

    def test_empty_tree(self):
        tree = WeightedIndexTree([])
        assert tree._nodes[1] == 0.0
        with pytest.raises(ValueError):
            tree.sample(0.5)

    def test_total_matches_naive_sum(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0, 10, size=1000)
        tree = WeightedIndexTree(weights)
        assert tree._nodes[1] == pytest.approx(math.fsum(weights), abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightedIndexTree([1.0, -0.5])


class TestSample:
    def test_single_support_point(self):
        tree = WeightedIndexTree([0, 0, 5])
        for u in (0.0, 0.3, 0.999):
            assert tree.sample(u) == 2

    def test_prefix_interval_placement(self):
        tree = WeightedIndexTree([1, 1, 1, 1])
        assert tree.sample(0.3) == 1

    def test_matches_naive_distribution(self):
        rng = np.random.default_rng(42)
        weights = rng.uniform(0, 3, size=37)
        weights[rng.integers(0, 37, size=5)] = 0.0
        tree = WeightedIndexTree(weights)
        draws = 100_000
        counts = np.zeros(37, dtype=int)
        for u in rng.random(draws):
            counts[tree.sample(u)] += 1
        expected = draws * weights / weights.sum()
        keep = expected >= 5
        from scipy import stats

        pooled = np.append(counts[keep], counts[~keep].sum())
        pooled_exp = np.append(expected[keep], expected[~keep].sum())
        if pooled_exp[-1] == 0:
            assert pooled[-1] == 0
            pooled, pooled_exp = pooled[:-1], pooled_exp[:-1]
        _, p = stats.chisquare(pooled, pooled_exp)
        assert p > 0.001

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=25).filter(
            lambda ws: sum(ws) > 1e-9
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_partition(self, weights):
        # evaluating just inside each leaf's prefix interval must return it
        tree = WeightedIndexTree(weights)
        total = tree._nodes[1]
        eps = 1e-9
        acc = 0.0
        for i, w in enumerate(weights):
            if w / total > 1e-6:
                lo = acc / total + eps
                hi = (acc + w) / total - eps
                assert tree.sample(lo) == i
                assert tree.sample(hi) == i
            acc += w

    def test_zero_weights_never_sampled(self):
        tree = WeightedIndexTree([0.0, 2.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(3)
        seen = {tree.sample(u) for u in rng.random(2000)}
        assert seen <= {1, 3}

    def test_descent_matches_two_child_reads(self):
        # the descent reads the right child only when the target passes the
        # left; it must pick the leaf of the descent that reads both children
        # first, at every prefix boundary and next to it
        rng = np.random.default_rng(11)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            weights = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.integers(-3, 4, size)
            weights[rng.random(size) < 0.4] = 0.0
            if weights.sum() <= 0.0:
                continue
            tree = WeightedIndexTree(weights)
            total = tree._nodes[1]
            us = set(rng.random(20).tolist())
            for acc in np.cumsum(weights).tolist():
                u = acc / total
                us.update(x for x in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0))
                          if 0.0 <= x < 1.0)
            for u in us:
                i = tree.sample(u)
                assert i == two_child_descent(tree, u)
                assert weights[i] > 0.0


class TestUpdate:
    def test_update_to_zero_removes_support(self):
        tree = WeightedIndexTree([1.0, 1.0])
        tree.update(0, 0.0)
        rng = np.random.default_rng(1)
        assert all(tree.sample(u) == 1 for u in rng.random(200))

    def test_total_additivity(self):
        tree = WeightedIndexTree([1.0, 2.0, 3.0])
        old_total = tree._nodes[1]
        tree.update(1, 5.0)
        assert tree._nodes[1] == pytest.approx(old_total - 2.0 + 5.0, abs=1e-9)

    def test_many_updates_match_rebuild(self):
        rng = np.random.default_rng(9)
        weights = rng.uniform(0, 1, size=1000)
        tree = WeightedIndexTree(weights)
        for _ in range(10_000):
            i = int(rng.integers(0, 1000))
            weights[i] = float(rng.uniform(0, 1))
            tree.update(i, weights[i])
        fresh = WeightedIndexTree(weights)
        # internal nodes, then leaves
        assert tree._nodes[1:tree._base] == fresh._nodes[1:fresh._base]
        assert (tree._nodes[tree._base:tree._base + tree._n]
                == fresh._nodes[fresh._base:fresh._base + fresh._n])

    def test_rejects_negative(self):
        tree = WeightedIndexTree([1.0])
        with pytest.raises(ValueError):
            tree.update(0, -1.0)

    def test_index_range(self):
        tree = WeightedIndexTree([1.0, 2.0])
        with pytest.raises(IndexError):
            tree.update(2, 1.0)


def two_child_descent(tree, u):
    """The sum-tree descent reading both children at each level."""
    nodes, base = tree._nodes, tree._base
    target = u * nodes[1]
    node = 1
    while node < base:
        left = 2 * node
        lw = nodes[left]
        rw = nodes[left + 1]
        if rw <= 0.0:
            node = left
        elif target < lw:
            node = left
        else:
            node = left + 1
            target -= lw
    return node - base


class _CountingNodes(list):
    """Node list that counts element reads and writes."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.reads = self.writes = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


class TestComplexity:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 100, 1000])
    def test_visit_counts(self, size):
        # a sample reads the total and both children at each level it
        # descends; an update writes the leaf and every ancestor, reading both
        # children of each ancestor; the path has ceil(log2(l)) + 1 nodes
        rng = np.random.default_rng(size)
        tree = WeightedIndexTree(rng.uniform(0.1, 1.0, size=size))
        nodes = tree._nodes = _CountingNodes(tree._nodes)
        bound = math.ceil(math.log2(size)) + 1 if size > 1 else 1
        for _ in range(50):
            nodes.reads = nodes.writes = 0
            tree.sample(float(rng.random()))
            assert nodes.reads <= 1 + 2 * (bound - 1)
            assert nodes.writes == 0
            nodes.reads = nodes.writes = 0
            tree.update(int(rng.integers(0, size)), float(rng.uniform(0, 1)))
            assert nodes.writes <= bound
            assert nodes.reads <= 2 * (bound - 1)
