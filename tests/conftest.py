import numpy as np
import pytest

from finitelhs.geometry import Polyhedron
from finitelhs.qstate import DiagMat3

# correlation diagonals of the four Bell states, in the weight order used
# by qstate.bell_weights_of_diag; every physical T-state is a convex mix of these
BELL_CORNERS = np.array([
    [1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0],
    [-1.0, -1.0, -1.0],
])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_physical_diag(rng, n=1):
    """Uniform-ish draws from the Bell tetrahedron (all physical)."""
    w = rng.dirichlet(np.ones(4), size=n)
    return w @ BELL_CORNERS


def random_axial_physical_diag(rng, n=1):
    """Physical diagonals with dx = dy (axial symmetry).

    Swapping dx and dy permutes two Bell weights, so averaging the two
    stays inside the physical set.
    """
    d = random_physical_diag(rng, n)
    a = 0.5 * (d[:, 0] + d[:, 1])
    d[:, 0] = a
    d[:, 1] = a
    return d


def as_diag(row) -> DiagMat3:
    return DiagMat3(float(row[0]), float(row[1]), float(row[2]))


def random_unit_vectors(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def tie_directions(p: Polyhedron, lam: float) -> np.ndarray:
    """Directions whose ray leaves through more than one face: the
    vertices and their antipodes, the face centres, and the points at
    1/4, 1/2, 3/4 and ``lam`` of every triangle edge, which include the
    diagonals of a cube's squares."""
    a, b, c = np.moveaxis(p.vertices[p.faces], 1, 0)
    points = [p.vertices, -p.vertices, a + b + c]
    for t in (0.25, 0.5, 0.75, lam):
        points += [(1.0 - t) * e + t * f for e, f in ((a, b), (b, c), (c, a))]
    x = np.vstack(points)
    return x / np.linalg.norm(x, axis=1, keepdims=True)
