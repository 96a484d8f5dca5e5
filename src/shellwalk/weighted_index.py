"""Array-backed sum-tree for proportional index sampling with O(log l) updates."""

from __future__ import annotations

import math


class WeightedIndexTree:
    """Complete binary tree of partial sums over nonnegative leaf weights.

    ``sample(u)`` maps a uniform draw u in [0,1) to the unique leaf whose
    prefix-sum interval [sum(w[:i]), sum(w[:i+1])) / total contains u*total,
    so P(i) = w_i / total. Both sampling and single-leaf updates touch
    ``last_visits`` = ceil(log2(l)) + 1 nodes. An update recomputes every
    ancestor from its two children, so the internal sums always equal a
    fresh build's and never drift.
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

    @property
    def last_visits(self):
        """Nodes one sample or update touches: the leaf and its ancestors."""
        return self._base.bit_length()

    @property
    def total(self):
        return self._nodes[1]

    def weights(self):
        return list(self._nodes[self._base : self._base + self._n])

    def internal_sums(self):
        return list(self._nodes[1 : self._base])

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
            left = 2 * node
            lw = nodes[left]
            rw = nodes[left + 1]
            # never descend into an empty subtree, so zero-weight leaves are
            # unreachable even when rounding pushes target onto a boundary
            if rw <= 0.0:
                node = left
            elif target < lw:
                node = left
            else:
                node = left + 1
                target -= lw
        return node - base

    def log_weight_fraction(self, i):
        """log(w_i) - log(total); raises on zero weight or empty support."""
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        w = self._nodes[self._base + i]
        total = self._nodes[1]
        if w <= 0.0 or total <= 0.0:
            raise ValueError(
                f"log weight fraction undefined for weight {w} of total {total}"
            )
        return math.log(w) - math.log(total)

    def checkpoint(self):
        """A copy of every node, for ``restore``."""
        return list(self._nodes)

    def restore(self, nodes):
        """Return in place to a ``checkpoint`` of this tree."""
        self._nodes[:] = nodes
