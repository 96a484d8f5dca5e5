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


def bit_tuple(values, name):
    """``values`` as ints; refuses a value other than 0 or 1, such as 0.5."""
    if any(v not in (0, 1) for v in values):
        raise ValueError(f"{name} must be a {{0,1}} vector")
    return tuple(int(v) for v in values)


def integral(value, name, least=None):
    """``value`` as an int; refuses a fractional value such as 1.5, and one
    below ``least`` when given."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


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
        "_max_flip_delta",
    )

    def __init__(self, num_vars, edges, fields=None, meta=None):
        self.num_vars = integral(num_vars, "num_vars", 0)

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
        for row, (a, b, coupling) in enumerate(edges):
            i, j, coupling = int(a), int(b), float(coupling)
            if i != a or j != b:
                raise ValueError(f"edge {row} endpoints must be integers: ({a!r}, {b!r})")
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
        self._max_flip_delta = None

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def average_degree(self):
        if self.num_vars == 0:
            return 0.0
        return 2.0 * len(self.edges) / self.num_vars

    def max_flip_delta(self):
        """Upper bound on |delta E| over all single-bit flips and states;
        the first call scans the adjacency, later ones return its result."""
        if self._max_flip_delta is None:
            best = 0.0
            for i in range(self.num_vars):
                scale = 2.0 * (sum(abs(c) for _, c in self.adjacency[i]) + abs(self.fields[i]))
                if scale > best:
                    best = scale
            self._max_flip_delta = best
        return self._max_flip_delta

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
        shape and types are checked here, values by the constructor.

        Integers are tested with ``type(x) is int``: JSON true and false
        parse to ``bool``, which ``isinstance`` counts as an ``int``."""
        if not isinstance(data, dict):
            raise ModelFormatError("model document must be a JSON object")
        for key in ("num_vars", "edges", "fields"):
            if key not in data:
                raise ModelFormatError(f"missing required key {key!r}")
        num_vars = data["num_vars"]
        if type(num_vars) is not int or num_vars < 0:
            raise ModelFormatError(f"num_vars must be a nonnegative integer, got {num_vars!r}")
        edges = data["edges"]
        if not isinstance(edges, list):
            raise ModelFormatError("edges must be an array")
        for row, entry in enumerate(edges):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ModelFormatError(f"edges[{row}] must be [i, j, J]")
            i, j, coupling = entry
            if type(i) is not int or type(j) is not int:
                raise ModelFormatError(f"edges[{row}] endpoints must be integers")
            if i > j:
                raise ModelFormatError(f"edges[{row}] must have i < j, got ({i}, {j})")
            if not (isinstance(coupling, float) or type(coupling) is int):
                raise ModelFormatError(f"edges[{row}] coupling must be a number")
        fields = data["fields"]
        if not isinstance(fields, list) or len(fields) != num_vars:
            raise ModelFormatError(f"fields must be an array of {num_vars} numbers")
        for i, h in enumerate(fields):
            if not (isinstance(h, float) or type(h) is int):
                raise ModelFormatError(f"fields[{i}] must be a number")
        meta = data.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ModelFormatError("meta must be an object when present")
        try:
            return cls(num_vars, edges, fields, meta)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc


@dataclass(frozen=True)
class ShellConstraint:
    """The shell of states at Hamming distance ``distance`` from ``reference``."""

    reference: tuple
    distance: int

    def __post_init__(self):
        object.__setattr__(self, "reference", bit_tuple(self.reference, "reference"))
        object.__setattr__(self, "distance", integral(self.distance, "distance"))
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

    Bit i disagrees with the reference exactly when ``spins[i] ==
    disagree_spin[i]``, the spin ``1.0 - 2.0 * reference[i]``; every side
    test reads this tuple, built once and shared by each ``copy``. The
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
        "disagree_spin",
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
        bits = bit_tuple(bits, "bits")
        self.spins = [2.0 * b - 1.0 for b in bits]
        self.disagree_spin = tuple(
            [1.0 - 2.0 * r for r in bit_tuple(reference, "reference")])
        self.distance = sum(s == d for s, d in zip(self.spins, self.disagree_spin))
        self.energy = model.energy(bits)
        self._flips = 0
        self.audit = audit

    def copy(self):
        new = object.__new__(ShellState)
        new.model = self.model
        new.spins = list(self.spins)
        new.disagree_spin = self.disagree_spin
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
        caller holds it.
        """
        if delta is None:
            delta = self.delta_energy(i)
        self.energy += delta
        s = self.spins[i]
        self.spins[i] = -s
        # an agreeing bit starts to disagree
        self.distance += 1 if s != self.disagree_spin[i] else -1
        self._flips += 1
        if self._flips % ENERGY_REFRESH_INTERVAL == 0:
            self._refresh_energy()

    def checkpoint(self):
        """Copies of everything a flip changes, for ``restore``."""
        return list(self.spins), self.distance, self.energy

    def restore(self, saved):
        """Return to a ``checkpoint`` by taking its spin list as this state's
        own instead of copying it back; each checkpoint restores once."""
        self.spins, self.distance, self.energy = saved

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
        return self.spins[i] == self.disagree_spin[i]

    def disagree_indices(self):
        """Ascending indices where the state differs from the reference."""
        return [i for i, s in enumerate(self.spins) if s == self.disagree_spin[i]]

    def agree_indices(self):
        """Ascending indices where the state equals the reference."""
        return [i for i, s in enumerate(self.spins) if s != self.disagree_spin[i]]
