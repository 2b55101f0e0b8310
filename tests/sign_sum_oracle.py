"""The sign-sum constant of a vertex set, measured: an oracle for the
closed-form c of ``geometry.SOLID_CONSTANTS``."""

import numpy as np

from finitelhs.geometry import Polyhedron, vertex_signs


def sign_sum_constant(p: Polyhedron, tol: float = 1e-9) -> float:
    """The constant c with  sum_j sign(v_j . v_i) v_j = c v_i  for every vertex.

    c is 2(1 + sqrt5) = ICOSAHEDRON_SIGN_SUM for any icosahedron, 4 for a
    cube, 2 for an octahedron or a tetrahedron.  Raises ValueError when no
    single constant fits; that rules the polyhedron out as a
    response-mixture carrier.
    """
    v = p.vertices
    sums = vertex_signs(v, v) @ v
    c = np.einsum("ij,ij->i", sums, v)
    residual = np.linalg.norm(sums - c[:, None] * v, axis=1).max()
    if residual > tol or c.max() - c.min() > tol:
        raise ValueError(
            f"unsupported polyhedron {p.kind!r}: vertex sign-sums are not a "
            f"uniform multiple of the vertices (residual {residual:.3e})"
        )
    return float(c.mean())
