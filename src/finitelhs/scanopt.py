"""Orientation optimization and scans along the axial boundary family.

For axial T0 = diag(t0x, t0x, t0z) the maximum visibility over icosahedron
orientations is reached with a symmetry axis (vertex, face center, or edge
midpoint) on the z axis, and each case has a closed form for the weight
normalization S = 12 / sum_i |T0 v_i|.  The visibility is then
S * gamma * l / 6 with gamma = 1 + sqrt5 and l the icosahedron inradius.
S is homogeneous of degree -1 in (t0x, t0z), so the regime crossovers are
solved in r = t0x / t0z alone and put on the boundary by homogeneity.

A scan solves the boundary on its t0z grid, then classifies and sizes every
grid point in one array pass (``_axial_points``): the three S constants,
the regime, t_max, the weight entropy and the concurrence.  The result is
one :class:`AxialScan`, a record of those columns, which the summary reads
with array reductions and ``scan_csv`` writes column by column.  The weights
come from ``lhsmodel.mapped_norms`` on the winning regime's vertices
(``geometry.special_vertices``); the random orientation search forms the
same sums on contiguous coordinate planes.  What does not depend on the
grid, those vertices, the two crossovers and the Werner reference, is
computed on first use and kept for the life of the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import serialize
from .boundary import (
    DEFAULT_T0Z_MIN,
    bisect,
    norm_integral,
    sample_axial_family,
)
from .geometry import (
    ICOSAHEDRON_VERTICES,
    SOLID_CONSTANTS,
    Rotation,
    quaternion_matrices,
    special_vertices,
)
from .lhsmodel import mapped_norms
from .qstate import DiagMat3, axial_concurrence

REGIMES = ("vertex", "face", "edge")

_ALPHA_PLUS = 5.0 + np.sqrt(5.0)
_ALPHA_MINUS = 5.0 - np.sqrt(5.0)
_BETA_PLUS = 2.5 + np.sqrt(5.0)
_BETA_MINUS = 2.5 - np.sqrt(5.0)

# visibility = S * this factor, for any orientation
VISIBILITY_PER_S = SOLID_CONSTANTS["icosahedron"].numerator / 12.0


def analytic_norm_constants(t0x, t0z) -> tuple:
    """S = 12 / sum_i |T0 v_i| for the vertex-, face-, and edge-aligned
    icosahedron, as closed forms in X = t0x^2 and Z = t0z^2.

    Elementwise: three floats for scalar entries, three arrays otherwise.
    """
    t0x, t0z = np.asarray(t0x, dtype=float), np.asarray(t0z, dtype=float)
    bad = (t0x <= 0) | (t0z <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        x, z = (float(np.broadcast_to(a, bad.shape).flat[i]) for a in (t0x, t0z))
        raise ValueError(f"axial entries must be positive, got ({x!r}, {z!r})"
                         + (f" at index {i}" if bad.ndim else ""))
    big_x, big_z = t0x * t0x, t0z * t0z
    s_vertex = 6.0 / (np.sqrt(big_z) + np.sqrt(20.0 * big_x + 5.0 * big_z))
    s_face = np.sqrt(30.0) / (
        np.sqrt(big_x * _ALPHA_PLUS + big_z * _BETA_MINUS)
        + np.sqrt(big_x * _ALPHA_MINUS + big_z * _BETA_PLUS)
    )
    s_edge = 3.0 * np.sqrt(10.0) / (
        np.sqrt(10.0 * big_x)
        + np.sqrt(big_x * _ALPHA_PLUS + big_z * _ALPHA_MINUS)
        + np.sqrt(big_x * _ALPHA_MINUS + big_z * _ALPHA_PLUS)
    )
    if s_vertex.ndim == 0:
        return float(s_vertex), float(s_face), float(s_edge)
    return s_vertex, s_face, s_edge


def random_orientation_search(target: DiagMat3, n_rotations: int,
                              seed: int = 0) -> tuple[float, Rotation]:
    """Best visibility over ``n_rotations`` Haar-random orientations.

    Deterministic for a fixed seed.  Returns (best visibility, rotation).
    """
    if n_rotations < 1:
        raise ValueError(f"need at least one rotation, got {n_rotations}")
    if target.is_singular:
        raise ValueError("target diagonal must be nonsingular")
    rng = np.random.default_rng(seed)
    quats = rng.standard_normal((n_rotations, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    # coordinate i of T0 R v for every matrix and vertex as one contiguous
    # (n, V) plane, with the products and sums of ``mapped_norms``
    m, v = quaternion_matrices(quats), ICOSAHEDRON_VERTICES.T
    a, b, c = ((m[:, i, 0, None] * v[0] + m[:, i, 1, None] * v[1] + m[:, i, 2, None] * v[2]) * d
               for i, d in enumerate(target.as_array()))
    sums = np.sqrt(a * a + b * b + c * c).sum(axis=1)
    best = int(np.argmin(sums))
    visibility = SOLID_CONSTANTS["icosahedron"].numerator / float(sums[best])
    return visibility, Rotation(quats[best])


@dataclass(frozen=True)
class AxialScan:
    """A scan of the axial boundary family: one array per column, over the
    t0z grid, in CSV order; ``regime`` is a list of regime names."""

    t0z: np.ndarray
    t0x: np.ndarray
    s_vertex: np.ndarray
    s_face: np.ndarray
    s_edge: np.ndarray
    regime: list[str]
    t_max: np.ndarray
    entropy_bits: np.ndarray
    concurrence: np.ndarray


REGIME_TIE_TOL = 1e-9


def best_regime(s_values):
    """Index of the winning regime, ties going to the earlier entry.

    Near-ties within REGIME_TIE_TOL (notably the isotropic point, where all
    three constants are equal and solver noise splits them) resolve in the
    order vertex > face > edge.  Elementwise over the trailing axes of
    ``s_values`` = (s_vertex, s_face, s_edge): an int for three scalars,
    an index array for three arrays.
    """
    s = np.asarray(s_values)
    idx = np.argmax(s >= s.max(axis=0) - REGIME_TIE_TOL, axis=0)
    return int(idx) if idx.ndim == 0 else idx


def _axial_points(t0z: np.ndarray, t0x: np.ndarray) -> AxialScan:
    """Classify and size the model at the boundary points (t0z, t0x), all
    at once: the regime with the largest S, t_max = S * VISIBILITY_PER_S,
    the entropy of the weights |T0 v_i| / sum_j |T0 v_j| over that regime's
    vertices, and the concurrence at t_max."""
    s_values = analytic_norm_constants(t0x, t0z)
    idx = best_regime(s_values)
    t_max = np.choose(idx, s_values) * VISIBILITY_PER_S
    norms, total = mapped_norms(special_vertices()[idx], np.stack([t0x, t0x, t0z], axis=1))
    q = norms / total[:, None]
    return AxialScan(t0z, t0x, *s_values, [REGIMES[i] for i in idx], t_max,
                     -(q * np.log2(q)).sum(axis=1), axial_concurrence(t0x, t0z, t_max))


def scan_axial_family(n: int, t0z_min: float = DEFAULT_T0Z_MIN) -> AxialScan:
    """Solve, classify, and size the model at n points of the boundary."""
    curve = sample_axial_family(n, t0z_min=t0z_min)
    return _axial_points(curve.t0z, curve.t0x)


def zero_entanglement_interval(scan: AxialScan) -> tuple[float, float] | None:
    """Longest contiguous t0z interval of the scan with concurrence <= 1e-12,
    the first on a tie; None when every point is entangled."""
    zero = np.concatenate(([False], scan.concurrence <= 1e-12, [False]))
    # the padded mask changes at each run's first point and just past its last
    edges = np.flatnonzero(np.diff(zero))
    if not len(edges):
        return None
    first, last = edges[0::2], edges[1::2] - 1
    run = int(np.argmax(scan.t0z[last] - scan.t0z[first]))
    return float(scan.t0z[first[run]]), float(scan.t0z[last[run]])


@cache
def vertex_face_crossover() -> float:
    """The t0z on the boundary where the vertex and face maxima exchange:
    the isotropic point t0x = t0z, at t0z = 1 / norm_integral(1, 1) = 1/2.
    """
    return float(1.0 / norm_integral(1.0, 1.0))


def _face_edge_quintic(x):
    """With t0z = 1 and x = t0x^2, s_face = s_edge reads
    sqrt3 (u + v) = p + q + w for the five square roots u, v, p, q, w in
    the two constants.  u^2 + v^2 and q^2 + w^2 are rational in x, and
    u v = sqrt(20 x^2 + 35 x + 5/4) and q w = sqrt(20 x^2 + 60 x + 20), so
    sqrt5 leaves with two squarings and the remaining roots with two more.
    What is left is (x - 1)^3, the isotropic point, times this quintic.
    Its roots in (0, 1) are 0.0564, the crossover, and 0.135 and 0.340,
    which solve the equation with a sign flipped."""
    return ((((479.0 * x + 1605.0) * x - 47810.0) * x + 25010.0) * x - 3405.0) * x + 121.0


@cache
def face_edge_crossover() -> float:
    """The t0z on the boundary where the face and edge maxima exchange.

    r = t0x / t0z there has r^2 the root of _face_edge_quintic in (0, 0.1),
    bisected until the bracket closes; norm_integral is homogeneous of
    degree 1, so the boundary point is t0z = 1 / norm_integral(r, 1).
    """
    x = bisect(lambda x: -_face_edge_quintic(x), 0.0, 0.1)
    return float(1.0 / norm_integral(np.sqrt(x), 1.0))


@cache
def _werner_values() -> tuple[float, float, float]:
    t0 = np.array([vertex_face_crossover()])
    scan = _axial_points(t0, t0)
    return float(scan.t_max[0]), float(scan.entropy_bits[0]), float(scan.concurrence[0])


def werner_reference() -> dict:
    """Visibility, entropy, and concurrence at the isotropic boundary point
    t0x = t0z = 1/2 (the vertex/face crossover), computed through the same
    pipeline as the scan, once per process; each call returns a new dict."""
    return dict(zip(("t", "entropy", "concurrence"), _werner_values()))


def scan_csv(scan: AxialScan) -> str:
    return serialize.csv_text(vars(scan))


def scan_summary(scan: AxialScan) -> dict:
    interval = zero_entanglement_interval(scan)
    return {
        "min_entropy_bits": float(scan.entropy_bits.min()),
        "regime_crossovers": [vertex_face_crossover(), face_edge_crossover()],
        "zero_entanglement_interval": list(interval) if interval else None,
        "werner_refs": werner_reference(),
    }
