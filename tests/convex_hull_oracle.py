"""``_hull``, the numpy convex hull of unit vectors that derived the
faces of the built-in solids in ``geometry.SOLID_CONSTANTS``; scipy's
Qhull, an oracle for it independent of its facet test; and
``hull_polyhedron``, that hull as a polyhedron of any vertex set, for the
tests that need a solid that is not built in."""

from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull

from finitelhs.geometry import HULL_TOL, Polyhedron
from finitelhs.qstate import as_unit_rows

PLANE_TOL = 1e-9


def _hull(v: np.ndarray) -> tuple[np.ndarray, float]:
    """(faces, inradius) of the hull of the unit rows of ``v``: the faces of
    a facet with m > 3 vertices fanned from its lowest vertex, each face
    outward; raises ValueError for a duplicated vertex, an origin not
    strictly inside, or a vertex set with other than 2n - 4 triangles."""
    n = len(v)
    if n < 4:
        raise ValueError(f"need at least 4 vertices, got {n}")
    dots = v @ v.T
    np.fill_diagonal(dots, -1.0)
    if dots.max() >= 1.0 - HULL_TOL:
        raise ValueError("vertices must be in convex position: a vertex is duplicated")

    triples = np.array(list(combinations(range(n), 3)))
    a, b, c = v[triples].transpose(1, 0, 2)        # the corners, (T, 3) each
    normal = np.cross(b - a, c - a)
    scale = np.linalg.norm(normal, axis=1)
    offset = np.einsum("ti,ti->t", normal, a) / scale
    normal /= scale[:, None]
    height = v @ normal.T - offset                 # (n, T)
    inside = height.max(axis=0) <= HULL_TOL
    outside = height.min(axis=0) >= -HULL_TOL
    facet = inside | outside
    flip = outside & ~inside                       # the normal points inwards
    offset[flip] *= -1.0
    inradius = float(offset[facet].min())
    if inradius <= HULL_TOL:
        raise ValueError(f"the origin is not strictly inside the hull of the vertices "
                         f"(nearest face plane at {inradius:.3e})")

    # A facet with m > 3 vertices is spanned by all C(m, 3) of its triples;
    # keep the fan from its lowest vertex i: the triples (i, j, k) whose
    # chord jk has every vertex of the facet on one side.
    on_plane = np.abs(height) <= HULL_TOL
    keep = facet & (on_plane.sum(axis=0) == 3)
    polygon = np.nonzero(facet & ~keep)[0]
    if len(polygon):
        i, j, k = triples[polygon].T
        r = np.arange(n)[:, None]
        lowest = ~(on_plane[:, polygon] & (r < i)).any(axis=0)
        w = np.cross(normal[polygon], v[k] - v[j])
        side = np.where(on_plane[:, polygon], v @ w.T - np.einsum("ti,ti->t", w, v[j]), 0.0)
        chord = (side.min(axis=0) >= -HULL_TOL) | (side.max(axis=0) <= HULL_TOL)
        keep[polygon[lowest & chord]] = True
    outward = np.where(flip[:, None], triples[:, [0, 2, 1]], triples)
    faces = outward[keep]
    if len(faces) != 2 * n - 4:
        raise ValueError(f"degenerate vertex set: {len(faces)} hull triangles for {n} "
                         f"vertices, expected {2 * n - 4}")
    return faces, inradius


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
