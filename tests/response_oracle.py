"""Per-atom response of a model, one direction at a time: an oracle for
``lhsmodel.verify_model``, which evaluates the response through one
linear map per face cone.

Each value comes from the full convex decomposition of the direction over
the polyhedron vertices (``geometry.decompose_directions``), uniform
remainder included.

``row_verify_model`` is ``verify_model`` direction-major: the products
from an ``einsum`` over the gathered (n, 3, 4) region maps, on the faces
of ``decompose_oracle.row_exit_faces``, then copied into rows, and a
square root per direction for the Bloch deviation.
"""

import numpy as np

from finitelhs.geometry import Polyhedron, decompose_directions, vertex_signs
from finitelhs.lhsmodel import (
    FiniteLhsModel,
    SignMixture,
    VerificationReport,
    response_maps,
)
from finitelhs.qstate import TState, as_unit_rows, as_unit_vector

from decompose_oracle import row_exit_faces
from qstate_oracle import Measurement


def convex_decompose(p: Polyhedron, x) -> np.ndarray:
    """Weights w >= 0 with sum 1 and  w @ vertices = inradius * x."""
    x = as_unit_vector(x, "direction")
    return decompose_directions(p, x[None, :])[0]


def response_value(model: FiniteLhsModel, i: int, x) -> float:
    """Alice's outcome bias f(x, atom i), in [-1, 1]."""
    x = as_unit_vector(x, "measurement axis")
    if isinstance(model.response, SignMixture):
        weights = convex_decompose(model.response.polyhedron, x)
        signs = vertex_signs(model.response.polyhedron.vertices, model.preimages[i])
        return float(model.response.scale * (weights @ signs))
    return float(x @ model.etas[i])


def response_probability(model: FiniteLhsModel, i: int, m: Measurement) -> float:
    """p(outcome | axis, atom i) = (1 + outcome * f) / 2."""
    return 0.5 * (1.0 + m.outcome * response_value(model, i, m.axis))


def _column_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a (3, n) array, row by row."""
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def row_verify_model(model: FiniteLhsModel, state: TState,
                     directions: np.ndarray) -> VerificationReport:
    """``lhsmodel.verify_model`` with the grid products formed per
    direction: ``einsum`` over ``coeffs[hit]``, then ``.T.copy()``."""
    x = as_unit_rows(directions, "verification directions")
    q = model.weights
    blochs = model.blochs
    coeffs = response_maps(model) @ np.column_stack([q, q[:, None] * blochs])
    corr = state.corr.as_array()
    per_region = 0.5 * np.maximum(np.linalg.norm(coeffs[:, :, 0], axis=1),
                                  np.linalg.norm(coeffs[:, :, 1:] - np.diag(corr), axis=(1, 2)))
    if isinstance(model.response, SignMixture):
        hit = row_exit_faces(model.response.polyhedron, x)
        products = np.einsum("ni,nij->nj", x, coeffs[hit])
        worst_face = int(np.argmax(per_region))
    else:
        products = x @ coeffs[0]
        worst_face = None
    products = products.T.copy()                   # (4, n): x . a, then x M
    bias = products[0]
    gap = products[1:] - corr[:, None] * x.T
    bob = q @ blochs
    max_bloch = 0.5 * np.maximum(_column_norms(bob[:, None] + gap),
                                 _column_norms(bob[:, None] - gap)).max()
    return VerificationReport(
        max_trace_err=float(0.5 * (abs(q.sum() - 1.0) + np.abs(bias).max())),
        max_bloch_err=float(max_bloch),
        alice_marginal_err=float(np.abs(bias).mean()),
        bob_marginal_err=float(np.linalg.norm(bob)),
        certificate_err=float(per_region.max()),
        n_directions=len(x),
        worst_face=worst_face,
    )
