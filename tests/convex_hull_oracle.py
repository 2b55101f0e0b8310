"""scipy's Qhull: an oracle for the numpy hull ``geometry._hull``,
independent of its facet test; and ``hull_polyhedron``, that hull as a
polyhedron of any vertex set, for the tests that need a solid that is not
built in."""

import numpy as np
from scipy.spatial import ConvexHull

from finitelhs.geometry import Polyhedron, _hull
from finitelhs.qstate import as_unit_rows

PLANE_TOL = 1e-9


def hull_facets(vertices) -> list[tuple[np.ndarray, float, float]]:
    """(outward unit normal, offset, area) of each distinct facet plane.

    Qhull splits a facet with more than three vertices into triangles that
    share its plane; those are merged here and their areas summed.
    """
    v = np.asarray(vertices, dtype=float)
    hull = ConvexHull(v)
    corners = v[hull.simplices]
    areas = 0.5 * np.linalg.norm(
        np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1)
    facets: list[list] = []
    for eq, area in zip(hull.equations, areas):
        normal, offset = eq[:3], -eq[3]
        for facet in facets:
            if np.abs(facet[0] - normal).max() <= PLANE_TOL and abs(facet[1] - offset) <= PLANE_TOL:
                facet[2] += area
                break
        else:
            facets.append([normal, offset, area])
    return [(n, float(d), float(a)) for n, d, a in facets]


def hull_polyhedron(vertices) -> Polyhedron:
    """The convex hull of unit vectors, triangulated into 2n - 4 outward
    faces, with the hull's inradius and the kind "hull".  Raises ValueError
    for rows that are not unit 3-vectors, duplicated points, or an origin
    not strictly inside the hull."""
    v = as_unit_rows(vertices, "vertices")
    faces, inradius = _hull(v)
    return Polyhedron(vertices=v, faces=faces, inradius=inradius, kind="hull")
