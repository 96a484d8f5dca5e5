"""Array-backed sum-tree for proportional index sampling with O(log l) updates."""

from __future__ import annotations


class WeightedIndexTree:
    """Complete binary tree of partial sums over nonnegative leaf weights.

    ``sample(u)`` maps a uniform draw u in [0,1) to the unique leaf whose
    prefix-sum interval [sum(w[:i]), sum(w[:i+1])) / total contains u*total,
    so P(i) = w_i / total. Both sampling and single-leaf updates touch a
    leaf and its ancestors, ceil(log2(l)) + 1 nodes. An update recomputes
    every ancestor from its two children, so the internal sums always equal
    a fresh build's and never drift.

    The tree engine's walk climbs ``_nodes`` itself; ``update`` stays as the
    climb the benchmark harness times and the tests' reference climb.
    """

    __slots__ = ("_n", "_base", "_nodes")

    def __init__(self, weights=()):
        weights = [float(w) for w in weights]
        for i, w in enumerate(weights):
            if w < 0.0:
                raise ValueError(f"weight {i} is negative: {w}")
        self._n = len(weights)
        base = 1
        while base < max(self._n, 1):
            base <<= 1
        self._base = base
        nodes = self._nodes = [0.0] * (2 * base)
        nodes[base : base + self._n] = weights
        for p in range(base - 1, 0, -1):
            nodes[p] = nodes[2 * p] + nodes[2 * p + 1]

    def update(self, i, w):
        """Set leaf ``i`` to ``w`` and fix every ancestor sum."""
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        w = float(w)
        if w < 0.0:
            raise ValueError(f"weight must be nonnegative, got {w}")
        nodes = self._nodes
        p = self._base + i
        nodes[p] = w
        p >>= 1
        while p:
            nodes[p] = nodes[2 * p] + nodes[2 * p + 1]
            p >>= 1

    def sample(self, u):
        """Deterministic descent for the leaf whose interval contains u*total."""
        total = self._nodes[1]
        if total <= 0.0:
            raise ValueError("cannot sample from a tree with zero total weight")
        if not 0.0 <= u < 1.0:
            raise ValueError(f"u must lie in [0, 1), got {u}")
        nodes = self._nodes
        base = self._base
        target = u * total
        node = 1
        while node < base:
            node += node
            lw = nodes[node]
            # never descend into an empty subtree, so zero-weight leaves are
            # unreachable even when rounding pushes target onto a boundary
            if not (target < lw or nodes[node + 1] <= 0.0):
                node += 1
                target -= lw
        return node - base
