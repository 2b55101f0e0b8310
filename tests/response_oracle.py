"""Per-atom response of a model, one direction at a time: an oracle for
``lhsmodel.verify_model``, which evaluates the response through one
linear map per face cone.

Each value comes from the full convex decomposition of the direction over
the polyhedron vertices (``geometry.decompose_directions``), uniform
remainder included.
"""

import numpy as np

from finitelhs.geometry import Polyhedron, decompose_directions, vertex_signs
from finitelhs.lhsmodel import FiniteLhsModel, SignMixture
from finitelhs.qstate import as_unit_vector

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
