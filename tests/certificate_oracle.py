"""The certificate of ``lhsmodel.verify_model`` in exact rational arithmetic:
an oracle for its float ``certificate_err``.

A model's arrays are binary floats, hence exact rationals, and a sign
mixture's response reads a fixed integer sign matrix (``vertex_signs``).
On face F the response map is A_F = scale * inradius * inv_F^T signs[F],
with inv_F the inverse of the matrix whose columns are the face's corners,
taken here as adjugate / det in ``fractions.Fraction``.  The region is
correct exactly when a_F = A_F q vanishes and M_F = A_F Q equals T, where
Q has rows q_i bloch_i.  A linear response is one region with A = eta^T.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from finitelhs.geometry import Polyhedron, vertex_signs
from finitelhs.lhsmodel import FiniteLhsModel, SignMixture
from finitelhs.qstate import TState


def _exact(a) -> list:
    """A float array as nested lists of Fractions, value for value."""
    a = np.asarray(a, dtype=float)
    return [_exact(row) for row in a] if a.ndim else Fraction(float(a))


def _inverse(m: list) -> list:
    """The inverse of a 3x3 matrix of Fractions, adjugate / det."""
    (a, b, c), (d, e, f), (g, h, i) = m
    cof = [[e * i - f * h, f * g - d * i, d * h - e * g],
           [c * h - b * i, a * i - c * g, b * g - a * h],
           [b * f - c * e, c * d - a * f, a * e - b * d]]
    det = a * cof[0][0] + b * cof[0][1] + c * cof[0][2]
    return [[cof[j][k] / det for j in range(3)] for k in range(3)]


def _deviation(a: list, m: list, corr: list) -> Fraction:
    """max(|a|^2, |M - T|_F^2) of one region, exactly."""
    return max(sum(x * x for x in a),
               sum((m[i][j] - (corr[i] if i == j else 0)) ** 2
                   for i in range(3) for j in range(3)))


def exact_certificate(model: FiniteLhsModel, state: TState) -> float:
    """The largest max(|a_F|, |M_F - T|_F) / 2 over the regions of the
    model's response, computed exactly and rounded once at the end."""
    q = _exact(model.weights)
    blochs = _exact(model.blochs)
    corr = _exact(state.corr.as_array())
    atoms = range(len(q))
    if isinstance(model.response, SignMixture):
        poly = model.response.polyhedron
        signs = vertex_signs(poly.vertices, model.preimages).astype(int).tolist()
        # per vertex: sum_i sign(v . p_i) q_i and sum_i sign(v . p_i) q_i bloch_i
        w = [sum(s[k] * q[k] for k in atoms if s[k]) for s in signs]
        wb = [[sum(s[k] * q[k] * blochs[k][j] for k in atoms if s[k]) for j in range(3)]
              for s in signs]
        factor = Fraction(model.response.scale) * Fraction(poly.inradius)
        vertices = _exact(poly.vertices)
        worst = Fraction(0)
        for face in poly.faces.tolist():
            inv = _inverse([[vertices[c][r] for c in face] for r in range(3)])
            a = [factor * sum(inv[c][i] * w[face[c]] for c in range(3)) for i in range(3)]
            m = [[factor * sum(inv[c][i] * wb[face[c]][j] for c in range(3)) for j in range(3)]
                 for i in range(3)]
            worst = max(worst, _deviation(a, m, corr))
    else:
        etas = _exact(model.etas)
        a = [sum(etas[k][i] * q[k] for k in atoms) for i in range(3)]
        m = [[sum(etas[k][i] * q[k] * blochs[k][j] for k in atoms) for j in range(3)]
             for i in range(3)]
        worst = _deviation(a, m, corr)
    return 0.5 * math.sqrt(worst)


def frame_is_exact(poly: Polyhedron) -> bool:
    """Whether a face frame holds, without tolerances: every directed edge
    once and its reverse once, the origin strictly behind every face
    plane, and every vertex on or behind it, the signed volumes taken
    exactly.  ``geometry.canonical_frame`` rests on it for the four
    built-in solids."""
    edges = [(f[k], f[(k + 1) % 3]) for f in poly.faces.tolist() for k in range(3)]
    if len(set(edges)) != len(edges) or set(edges) != {(b, a) for a, b in edges}:
        return False
    v = _exact(poly.vertices)
    for i, j, k in poly.faces.tolist():
        e = [v[j][r] - v[i][r] for r in range(3)]
        f = [v[k][r] - v[i][r] for r in range(3)]
        n = [e[1] * f[2] - e[2] * f[1], e[2] * f[0] - e[0] * f[2], e[0] * f[1] - e[1] * f[0]]
        offset = sum(n[r] * v[i][r] for r in range(3))
        if not offset > 0 or any(sum(n[r] * x[r] for r in range(3)) > offset for x in v):
            return False
    return True
