"""Scan quantities one point at a time: an oracle for the array pass in
``scanopt.scan_axial_family``.

``axial_point`` classifies and sizes the model at a single boundary point
from the scalar forms of the package's closed forms; ``max_visibility``
rotates a fresh icosahedron and sums the norms it needs directly;
``optimal_axial_model`` builds the full model at the winning orientation.
``zero_entanglement_interval`` walks the scan point by point, and
``csv_text`` writes CSV row by row, cell by cell: oracles for the array
versions in ``scanopt`` and ``serialize``.
"""

import numpy as np

from finitelhs.geometry import (
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    Rotation,
    icosahedron,
    special_orientations,
)
from finitelhs.lhsmodel import FiniteLhsModel, build_polyhedron_model
from finitelhs.qstate import DiagMat3, concurrence_axial
from finitelhs.scanopt import (
    REGIMES,
    VISIBILITY_PER_S,
    analytic_norm_constants,
    best_regime,
)
from finitelhs.serialize import CSV_FLOAT_DIGITS, format_float


def max_visibility(target: DiagMat3, orientation: Rotation) -> float:
    """Maximum visibility of the icosahedron model at one orientation."""
    verts = orientation.apply(icosahedron().vertices)
    norms = np.linalg.norm(verts * target.as_array(), axis=1)
    return float(ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / norms.sum())


def special_vertices() -> list[np.ndarray]:
    """The icosahedron vertices at the vertex, face and edge orientations."""
    return [icosahedron(rot).vertices for rot in special_orientations()]


def axial_point(t0z: float, t0x: float, rotated: list[np.ndarray]) -> tuple:
    """Classify and size the model at one boundary point; ``rotated`` holds
    the icosahedron vertices at the three special orientations.  Returns
    the scan's row: t0z, t0x, s_vertex, s_face, s_edge, regime, t_max,
    entropy_bits and concurrence."""
    s_values = analytic_norm_constants(t0x, t0z)
    idx = best_regime(s_values)
    t_max = s_values[idx] * VISIBILITY_PER_S
    q = np.linalg.norm(rotated[idx] * np.array([t0x, t0x, t0z]), axis=1)
    q /= q.sum()
    return (float(t0z), float(t0x), *s_values, REGIMES[idx], float(t_max),
            float(-(q * np.log2(q)).sum()),
            float(concurrence_axial(DiagMat3(t0x, t0x, t0z), t_max)))


def zero_entanglement_interval(t0z, concurrence) -> tuple[float, float] | None:
    """Longest contiguous t0z interval with concurrence <= 1e-12, the first
    on a tie, found by walking the points in order."""
    best: tuple[float, float] | None = None
    start = None
    for i, c in enumerate(concurrence):
        if c <= 1e-12:
            if start is None:
                start = i
            if best is None or t0z[i] - t0z[start] > best[1] - best[0]:
                best = (float(t0z[start]), float(t0z[i]))
        else:
            start = None
    return best


def csv_text(header, rows) -> str:
    """CSV text written row by row: a string cell as it is, any other cell
    through ``format_float`` with CSV_FLOAT_DIGITS."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else format_float(v, CSV_FLOAT_DIGITS) for v in row))
    return "\n".join(lines) + "\n"


def optimal_axial_model(t0x: float, t0z: float) -> tuple[FiniteLhsModel, str]:
    """The icosahedron model at the best special orientation for the axial
    state diag(-t0x, -t0x, -t0z), together with the regime name.

    The diagonal is negative by convention (the family contains the Werner
    line); the weights and visibility only depend on the magnitudes.
    """
    idx = best_regime(analytic_norm_constants(t0x, t0z))
    model = build_polyhedron_model(DiagMat3(-t0x, -t0x, -t0z),
                                   icosahedron(special_orientations()[idx]))
    return model, REGIMES[idx]
