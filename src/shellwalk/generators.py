"""Model family constructors and model-file serialization.

Three families: a ferromagnetic square grid, a +/-1 random-coupling cube, and
a bipartite visible/hidden model whose couplings are randomly parameterized
Gabor filters over the visible pixel grid. Grid and cube take their
nearest-neighbour edges from one lattice builder, with open (free)
boundaries by default and periodic ones behind a flag.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ModelFormatError
from .model import IsingModel


def _lattice_edges(side, dims, periodic, coupling):
    """Nearest-neighbour edges ``(i, j, coupling)``, ``i < j``, of a
    ``side^dims`` lattice with row-major site numbering: site by site and,
    per site, along the slowest-varying axis first. Periodic boundaries add
    the wrap-around edges, for ``side > 2`` only: at side 2 they would
    repeat an edge."""
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    wrap = periodic and side > 2
    # per axis, slowest first: the stride between neighbours; the span of a
    # block of sites that share every slower coordinate; and the offset,
    # within a block, of the sites at the axis's last coordinate
    axes = []
    span = side ** dims
    for _ in range(dims):
        stride = span // side
        axes.append((stride, span, span - stride))
        span = stride
    edges = []
    add = edges.append
    for v, (stride, span, last) in product(range(side ** dims), axes):
        if v % span < last:
            add((v, v + stride, coupling))
        elif wrap:
            add((v - last, v, coupling))
    return edges


def grid2d(side, coupling=1.0, field=0.0, periodic=False):
    """Square-lattice nearest-neighbor model with uniform coupling and field.

    Open boundaries give 2*side*(side-1) edges; periodic gives 2*side^2.
    """
    edges = _lattice_edges(side, 2, periodic, coupling)
    num = side * side
    meta = {
        "generator": "grid2d",
        "side": side,
        "coupling": coupling,
        "field": field,
        "periodic": periodic,
    }
    return IsingModel(num, edges, [field] * num, meta)


def cube3d_pm_j(side, seed, periodic=False):
    """Cubic-lattice model with couplings drawn uniformly from {-1, +1}, one
    per lattice edge in ``_lattice_edges`` order."""
    lattice = _lattice_edges(side, 3, periodic, 0.0)
    num = side * side * side
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=len(lattice)) * 2 - 1
    edges = [(i, j, float(s)) for (i, j, _), s in zip(lattice, signs)]
    meta = {"generator": "cube3d_pm_j", "side": side, "seed": seed, "periodic": periodic}
    return IsingModel(num, edges, [0.0] * num, meta)


@dataclass(frozen=True)
class GaborSpec:
    """Parameters of one oriented local filter over a square pixel grid."""

    center_u: float
    center_v: float
    theta: float      # orientation, radians
    freq: float       # spatial frequency, cycles per pixel
    phase: float
    sigma: float      # envelope scale, pixels
    aspect: float     # envelope anisotropy, multiplies the off-axis falloff

    def values(self, side):
        """Filter weights over a side x side pixel grid, row-major order."""
        if self.sigma <= 0 or self.freq <= 0:
            raise ValueError("sigma and freq must be positive")
        out = np.empty(side * side, dtype=np.float64)
        cos_t = math.cos(self.theta)
        sin_t = math.sin(self.theta)
        for u in range(side):
            du = u - self.center_u
            for v in range(side):
                dv = v - self.center_v
                u_rot = du * cos_t + dv * sin_t
                v_rot = -du * sin_t + dv * cos_t
                envelope = math.exp(
                    -(u_rot * u_rot + self.aspect * self.aspect * v_rot * v_rot)
                    / (2.0 * self.sigma * self.sigma)
                )
                out[u * side + v] = envelope * math.cos(
                    2.0 * math.pi * self.freq * u_rot + self.phase)
        return out


def draw_gabor_spec(side, rng):
    """Random filter parameters; the row is scaled afterwards by its L2 norm."""
    return GaborSpec(
        center_u=float(rng.uniform(0.0, side - 1.0)) if side > 1 else 0.0,
        center_v=float(rng.uniform(0.0, side - 1.0)) if side > 1 else 0.0,
        theta=float(rng.uniform(0.0, math.pi)),
        freq=float(rng.uniform(0.05, 0.25)),
        phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        sigma=float(rng.uniform(2.0, 6.0)),
        aspect=float(rng.uniform(0.5, 1.0)),
    )


def _bipartite_model(weights, meta):
    num_hidden, num_visible = weights.shape
    num = num_visible + num_hidden
    edges = []
    for v in range(num_visible):
        for h in range(num_hidden):
            edges.append((v, num_visible + h, float(weights[h, v])))
    fields = [0.0] * num
    return IsingModel(num, edges, fields, meta)


def rbm_gabor(num_visible, num_hidden, seed, weight_scale=1.0):
    """Bipartite visible/hidden model with Gabor-filter couplings.

    The visible units form a square pixel grid (num_visible must be a perfect
    square); each hidden unit's coupling row is one randomly drawn filter,
    normalized to unit L2 norm and scaled by ``weight_scale``.
    """
    side = math.isqrt(num_visible)
    if side * side != num_visible:
        raise ValueError(
            f"num_visible must be a perfect square for the pixel grid, got "
            f"{num_visible}; load explicit weights instead"
        )
    if num_hidden < 1:
        raise ValueError(f"num_hidden must be >= 1, got {num_hidden}")
    rng = np.random.default_rng(seed)
    weights = np.empty((num_hidden, num_visible), dtype=np.float64)
    for h in range(num_hidden):
        spec = draw_gabor_spec(side, rng)
        row = spec.values(side)
        # nonzero: the pixel nearest the centre has envelope >= 0.94, cos != 0
        weights[h] = row * (weight_scale / float(np.linalg.norm(row)))
    meta = {
        "generator": "rbm_gabor",
        "num_visible": num_visible,
        "num_hidden": num_hidden,
        "seed": seed,
        "weight_scale": weight_scale,
    }
    return _bipartite_model(weights, meta)


def rbm_from_weights(weights):
    """Bipartite model from an explicit (num_hidden x num_visible) matrix."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    return _bipartite_model(weights, {
        "generator": "rbm_weights", "num_hidden": weights.shape[0],
        "num_visible": weights.shape[1]})


def load_weights_csv(path):
    """Read a weight matrix (one hidden unit per row) from CSV."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            line = f"line {reader.line_num}"
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise ModelFormatError(f"{line}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise ModelFormatError(f"{line} holds a non-finite weight")
            if rows and len(values) != len(rows[0]):
                raise ModelFormatError(f"{line} has {len(values)} columns, "
                                       f"expected {len(rows[0])}")
            rows.append(values)
    if not rows:
        raise ModelFormatError("weight file has no rows")
    return np.array(rows, dtype=np.float64)


def save_model(model: IsingModel, path):
    """Write the model JSON document; couplings keep full precision."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_dict(), handle, indent=1)
        handle.write("\n")


def load_model(path):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return IsingModel.from_dict(data)
