"""Scan quantities one point at a time: an oracle for the array pass in
``scanopt.scan_axial_family``.

``axial_point`` classifies and sizes the model at a single boundary point
from the scalar forms of the package's closed forms; ``max_visibility``
rotates a fresh icosahedron and sums the norms it needs directly.
"""

import numpy as np

from finitelhs.geometry import (
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    Rotation,
    icosahedron,
    special_orientations,
)
from finitelhs.qstate import DiagMat3, concurrence_axial
from finitelhs.scanopt import (
    REGIMES,
    VISIBILITY_PER_S,
    AxialPoint,
    analytic_norm_constants,
    best_regime,
)


def max_visibility(target: DiagMat3, orientation: Rotation) -> float:
    """Maximum visibility of the icosahedron model at one orientation."""
    verts = orientation.apply(icosahedron().vertices)
    norms = np.linalg.norm(verts * target.as_array(), axis=1)
    return float(ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / norms.sum())


def special_vertices() -> list[np.ndarray]:
    """The icosahedron vertices at the vertex, face and edge orientations."""
    return [icosahedron(rot).vertices for rot in special_orientations()]


def axial_point(t0z: float, t0x: float, rotated: list[np.ndarray]) -> AxialPoint:
    """Classify and size the model at one boundary point; ``rotated`` holds
    the icosahedron vertices at the three special orientations."""
    s_values = analytic_norm_constants(t0x, t0z)
    idx = best_regime(s_values)
    t_max = s_values[idx] * VISIBILITY_PER_S
    q = np.linalg.norm(rotated[idx] * np.array([t0x, t0x, t0z]), axis=1)
    q /= q.sum()
    return AxialPoint(
        t0z=float(t0z), t0x=float(t0x),
        s_vertex=s_values[0], s_face=s_values[1], s_edge=s_values[2],
        s_best=s_values[idx], regime=REGIMES[idx], t_max=float(t_max),
        entropy_bits=float(-(q * np.log2(q)).sum()),
        concurrence=float(concurrence_axial(DiagMat3(t0x, t0x, t0z), t_max)),
    )
