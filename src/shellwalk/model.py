"""Binary pairwise models, shell-constrained states, and per-bit bookkeeping.

A ``ShellState`` keeps +/-1 spins and exposes the {0,1} ``bits`` on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoherenceError, ModelFormatError

# Flips between from-scratch energy refreshes of a ShellState's cached energy.
# Keeps additive drift from long flip/unflip sequences below audit tolerance.
ENERGY_REFRESH_INTERVAL = 1 << 14

COHERENCE_RTOL = 1e-9


class IsingModel:
    """Sparse pairwise binary model: couplings on edges plus per-variable fields.

    Energies are evaluated in the +/-1 spin convention,
    ``E(s) = -sum_(i,j) J_ij*s_i*s_j - sum_i h_i*s_i`` with ``s_i = 2*x_i - 1``,
    while configurations are passed in and out as {0,1} bits.

    Instances are immutable after construction and safe to share across
    concurrently running chains.
    """

    __slots__ = (
        "num_vars",
        "edges",
        "fields",
        "adjacency",
        "meta",
    )

    def __init__(self, num_vars, edges, fields=None, meta=None):
        if num_vars < 0:
            raise ValueError(f"num_vars must be nonnegative, got {num_vars}")
        self.num_vars = int(num_vars)

        if fields is None:
            fields = [0.0] * self.num_vars
        fields = [float(h) for h in fields]
        if len(fields) != self.num_vars:
            raise ValueError(
                f"fields has length {len(fields)}, expected {self.num_vars}"
            )
        for i, h in enumerate(fields):
            if not math.isfinite(h):
                raise ValueError(f"fields[{i}] is not finite: {h}")
        self.fields = fields

        normalized = []
        for row, (i, j, coupling) in enumerate(edges):
            i, j, coupling = int(i), int(j), float(coupling)
            if i == j:
                raise ValueError(f"edge {row} is a self-loop: ({i}, {j})")
            if i > j:
                i, j = j, i
            if not (0 <= i < self.num_vars and 0 <= j < self.num_vars):
                raise ValueError(
                    f"edge {row} ({i}, {j}) out of range [0, {self.num_vars})"
                )
            if not math.isfinite(coupling):
                raise ValueError(f"edge {row} has non-finite coupling {coupling}")
            normalized.append((i, j, coupling))
        normalized.sort(key=lambda e: (e[0], e[1]))
        for a, b in zip(normalized, normalized[1:]):
            if a[0] == b[0] and a[1] == b[1]:
                raise ValueError(f"edge ({a[0]}, {a[1]}) duplicates another edge")
        self.edges = tuple(normalized)

        adj = [[] for _ in range(self.num_vars)]
        for i, j, coupling in self.edges:
            adj[i].append((j, coupling))
            adj[j].append((i, coupling))
        self.adjacency = tuple(tuple(row) for row in adj)

        self.meta = dict(meta) if meta else {}

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def average_degree(self):
        if self.num_vars == 0:
            return 0.0
        return 2.0 * len(self.edges) / self.num_vars

    def max_flip_delta(self):
        """Upper bound on |delta E| over all single-bit flips and states."""
        best = 0.0
        for i in range(self.num_vars):
            scale = 2.0 * (sum(abs(c) for _, c in self.adjacency[i]) + abs(self.fields[i]))
            if scale > best:
                best = scale
        return best

    def energy(self, bits):
        """Full energy of a {0,1} configuration.

        Edges are summed in sorted index order so repeated evaluations within
        one build give bit-identical results regardless of input edge order.
        """
        if len(bits) != self.num_vars:
            raise ValueError(
                f"state has length {len(bits)}, expected {self.num_vars}"
            )
        spins = [2.0 * b - 1.0 for b in bits]
        total = 0.0
        for i, j, coupling in self.edges:
            total -= coupling * spins[i] * spins[j]
        for i, h in enumerate(self.fields):
            total -= h * spins[i]
        return total

    def to_dict(self):
        out = {
            "num_vars": self.num_vars,
            "edges": [[i, j, c] for i, j, c in self.edges],
            "fields": list(self.fields),
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    @classmethod
    def from_dict(cls, data):
        """Build a model from the JSON object form, rejecting malformed input:
        shape and types are checked here, values by the constructor."""
        if not isinstance(data, dict):
            raise ModelFormatError("model document must be a JSON object")
        for key in ("num_vars", "edges", "fields"):
            if key not in data:
                raise ModelFormatError(f"missing required key {key!r}")
        num_vars = data["num_vars"]
        if not isinstance(num_vars, int) or num_vars < 0:
            raise ModelFormatError(f"num_vars must be a nonnegative integer, got {num_vars!r}")
        edges = data["edges"]
        if not isinstance(edges, list):
            raise ModelFormatError("edges must be an array")
        for row, entry in enumerate(edges):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ModelFormatError(f"edges[{row}] must be [i, j, J]")
            i, j, coupling = entry
            if not isinstance(i, int) or not isinstance(j, int):
                raise ModelFormatError(f"edges[{row}] endpoints must be integers")
            if i > j:
                raise ModelFormatError(f"edges[{row}] must have i < j, got ({i}, {j})")
            if not isinstance(coupling, (int, float)):
                raise ModelFormatError(f"edges[{row}] coupling must be a number")
        fields = data["fields"]
        if not isinstance(fields, list) or len(fields) != num_vars:
            raise ModelFormatError(f"fields must be an array of {num_vars} numbers")
        for i, h in enumerate(fields):
            if not isinstance(h, (int, float)):
                raise ModelFormatError(f"fields[{i}] must be a number")
        meta = data.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ModelFormatError("meta must be an object when present")
        try:
            return cls(num_vars, edges, fields, meta)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc


def partition_sets(bits, reference):
    """Split indices into (agree, disagree) relative to the reference state."""
    if len(bits) != len(reference):
        raise ValueError(
            f"state length {len(bits)} != reference length {len(reference)}"
        )
    agree, disagree = [], []
    for i, (b, r) in enumerate(zip(bits, reference)):
        if b == r:
            agree.append(i)
        else:
            disagree.append(i)
    return agree, disagree


@dataclass(frozen=True)
class ShellConstraint:
    """The shell of states at Hamming distance ``distance`` from ``reference``."""

    reference: tuple
    distance: int

    def __post_init__(self):
        object.__setattr__(self, "reference", tuple(int(b) for b in self.reference))
        if any(b not in (0, 1) for b in self.reference):
            raise ValueError("reference must be a {0,1} vector")
        if not 0 <= self.distance <= len(self.reference):
            raise ValueError(
                f"distance {self.distance} out of range [0, {len(self.reference)}]"
            )

    @property
    def num_vars(self):
        return len(self.reference)


class ShellState:
    """A configuration, kept once as +/-1 ``spins``, with its cached energy
    and Hamming distance to a reference state.

    Which side of the agree/disagree partition a bit is on is read off its
    spin and the reference; the index lists are derived on demand. The
    cached energy is refreshed from scratch every ``ENERGY_REFRESH_INTERVAL``
    flips; with ``audit=True`` the refresh also asserts coherence of the
    cache, and the samplers check after every move that the state kept its
    shell.

    Each instance is exclusively owned by one chain; the referenced model is
    immutable and may be shared.
    """

    __slots__ = (
        "model",
        "spins",
        "reference",
        "distance",
        "energy",
        "_flips",
        "audit",
    )

    def __init__(self, model: IsingModel, bits, reference, audit=False):
        m = model.num_vars
        if len(bits) != m:
            raise ValueError(f"bits has length {len(bits)}, expected {m}")
        if len(reference) != m:
            raise ValueError(f"reference has length {len(reference)}, expected {m}")
        self.model = model
        bits = [int(b) for b in bits]
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be a {0,1} vector")
        self.spins = [2.0 * b - 1.0 for b in bits]
        self.reference = tuple(int(r) for r in reference)
        self.distance = sum(b != r for b, r in zip(bits, self.reference))
        self.energy = model.energy(bits)
        self._flips = 0
        self.audit = audit

    def copy(self):
        new = object.__new__(ShellState)
        new.model = self.model
        new.spins = list(self.spins)
        new.reference = self.reference
        new.distance = self.distance
        new.energy = self.energy
        new._flips = self._flips
        new.audit = self.audit
        return new

    @property
    def bits(self):
        """The {0,1} configuration; each call builds a new list, so per-flip
        and per-move code reads ``spins`` instead."""
        return [1 if s > 0.0 else 0 for s in self.spins]

    @property
    def num_vars(self):
        return len(self.spins)

    def delta_energy(self, i):
        """Energy change if bit ``i`` were flipped; O(degree(i))."""
        if not 0 <= i < len(self.spins):
            raise IndexError(f"index {i} out of range [0, {len(self.spins)})")
        spins = self.spins
        acc = self.model.fields[i]
        for j, coupling in self.model.adjacency[i]:
            acc += coupling * spins[j]
        return 2.0 * spins[i] * acc

    def flip(self, i, delta=None):
        """Invert bit ``i`` in place, updating energy and distance.

        ``delta`` is the flip's energy change, computed here unless the
        caller holds it. Returns the energy change that was applied.
        """
        if delta is None:
            delta = self.delta_energy(i)
        self.energy += delta
        s = self.spins[i]
        self.spins[i] = -s
        # an agreeing bit (its bit equals the reference's) starts to disagree
        self.distance += 1 if (s > 0.0) == self.reference[i] else -1
        self._flips += 1
        if self._flips % ENERGY_REFRESH_INTERVAL == 0:
            self._refresh_energy()
        return delta

    def checkpoint(self):
        """Copies of everything a flip changes, for ``restore``."""
        return list(self.spins), self.distance, self.energy

    def restore(self, saved):
        """Return in place to a ``checkpoint``; ``spins`` stays the same list."""
        self.spins[:], self.distance, self.energy = saved

    def _refresh_energy(self):
        scratch = self.model.energy(self.bits)
        if self.audit:
            tol = COHERENCE_RTOL * (1.0 + abs(scratch))
            if abs(self.energy - scratch) > tol:
                raise CoherenceError(
                    f"cached energy {self.energy!r} drifted from recomputed "
                    f"{scratch!r} after {self._flips} flips"
                )
        self.energy = scratch

    def in_disagree(self, i):
        return (self.spins[i] > 0.0) != self.reference[i]

    def disagree_indices(self):
        """Ascending indices where the state differs from the reference."""
        return self.partition()[1]

    def agree_indices(self):
        """Ascending indices where the state equals the reference."""
        return self.partition()[0]

    def partition(self):
        """The (agree, disagree) index lists, each ascending."""
        return partition_sets(self.bits, self.reference)
