"""Rotations, unit-sphere polyhedra, and convex vertex decompositions.

The built-in solids are constants: each has one read-only canonical vertex
array, one cached hull for its faces, since a rotation cannot change them,
and one row of ``SOLID_CONSTANTS``, the exact sign-sum constant c and
inradius l in closed form.  A rotated solid is its rotated vertices, those
faces and that inradius; no hull is built for it.  A hull is built for
every vertex set given to ``polyhedron_from_vertices``, such as a loaded
model's.  The special orientations and their rotated icosahedron vertices
are read from the canonical array too.

``exit_faces`` finds the face cone of each direction face-major, on the
columns of x.T: the scores x.n/d of all directions are one (faces, n)
product, and the first maximum of each column names the face, on a face
frame checked once per polyhedron.  Only columns on a split facet get
barycentric coordinates, and ``_exit_candidates``, which compares every
candidate exit face of a row, runs only for rows on a facet of three or
more pieces or on an edge or vertex of a split facet, and for every row
of ``decompose_directions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .qstate import UNIT_TOL, as_unit_rows, as_unit_vector

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

# Inradius of the icosahedron inscribed in the unit sphere, and the constant
# c in the vertex identity  sum_j sign(v_j . v_i) v_j = c v_i  (c = 2(1+sqrt 5)).
ICOSAHEDRON_INRADIUS = np.sqrt((5.0 + 2.0 * np.sqrt(5.0)) / 15.0)
ICOSAHEDRON_SIGN_SUM = 2.0 * (1.0 + np.sqrt(5.0))

# The canonical icosahedron's vertices, the cyclic permutations of
# (0, +-1, +-phi) normalized; read-only, shared by every icosahedron.
ICOSAHEDRON_VERTICES = np.array([
    row for a in (1.0, -1.0) for b in (1.0, -1.0) for row in (
        (0.0, a, b * GOLDEN_RATIO), (a, b * GOLDEN_RATIO, 0.0), (b * GOLDEN_RATIO, 0.0, a))
]) / np.sqrt(1.0 + GOLDEN_RATIO * GOLDEN_RATIO)
ICOSAHEDRON_VERTICES.flags.writeable = False

# |v . w| at or below this counts as orthogonal: rotated solids leave
# ~1e-17 of rounding noise where the exact dot product is 0.
SIGN_TOL = 1e-12

# A vertex within this distance of a plane through three vertices lies on it.
# Unit vectors whose dot product reaches 1 - HULL_TOL, i.e. closer than
# sqrt(2 HULL_TOL) ~ 1.4e-5, are one duplicated vertex: at this tolerance
# the hull cannot tell them apart.
HULL_TOL = 1e-10

_Z = np.array([0.0, 0.0, 1.0])


def quaternion_matrices(quats: np.ndarray) -> np.ndarray:
    """Rotation matrices (n, 3, 3) of the unit quaternions (w, x, y, z) in
    the rows of ``quats``."""
    w, x, y, z = np.asarray(quats, dtype=float).T
    mats = np.empty((len(w), 3, 3))
    mats[:, 0, 0] = 1 - 2 * (y * y + z * z)
    mats[:, 0, 1] = 2 * (x * y - w * z)
    mats[:, 0, 2] = 2 * (x * z + w * y)
    mats[:, 1, 0] = 2 * (x * y + w * z)
    mats[:, 1, 1] = 1 - 2 * (x * x + z * z)
    mats[:, 1, 2] = 2 * (y * z - w * x)
    mats[:, 2, 0] = 2 * (x * z - w * y)
    mats[:, 2, 1] = 2 * (y * z + w * x)
    mats[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return mats


@dataclass(frozen=True, eq=False)
class Rotation:
    """A proper rotation stored as a unit quaternion (w, x, y, z)."""

    quat: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.quat, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError(f"quaternion components must be finite, got {q.tolist()}")
        if abs(np.linalg.norm(q) - 1.0) > UNIT_TOL:
            raise ValueError(f"quaternion must be unit length, |q| = {float(np.linalg.norm(q))!r}")
        object.__setattr__(self, "quat", q)

    @cached_property
    def matrix(self) -> np.ndarray:
        return quaternion_matrices(self.quat[None, :])[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Rotate a (3,) vector or the rows of an (n, 3) array."""
        return np.asarray(v, dtype=float) @ self.matrix.T

    @staticmethod
    def from_quat(q) -> "Rotation":
        q = np.asarray(q, dtype=float)
        n = np.linalg.norm(q)
        if q.shape != (4,) or n == 0:
            raise ValueError("quaternion must be a nonzero length-4 vector")
        # Rotation rejects a non-finite q; q / |q| would warn first
        return Rotation(q / n if np.isfinite(n) else q)


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Draw a rotation from the uniform (Haar) distribution.

    A 4d standard normal, normalized, is uniform on the quaternion sphere.
    """
    q = rng.standard_normal(4)
    return Rotation(q / np.linalg.norm(q))


def rotation_to_z(u) -> Rotation:
    """The rotation carrying the unit vector ``u`` onto +z.

    Uses the half-angle quaternion (1 + u.z, u x z) normalized, which is
    stable everywhere except u = -z (handled as a half turn about x).
    """
    u = as_unit_vector(u, "direction")
    c = float(u @ _Z)
    if c < -1.0 + 1e-12:
        return Rotation(np.array([0.0, 1.0, 0.0, 0.0]))
    axis = np.cross(u, _Z)
    q = np.concatenate(([1.0 + c], axis))
    return Rotation(q / np.linalg.norm(q))


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """A convex polyhedron with unit vertices and triangulated faces.

    ``faces`` holds vertex-index triples; ``inradius`` is the distance from
    the origin to the nearest face plane.  The face frame is not checked
    when the polyhedron is made: ``exit_faces`` checks it on first use
    (``_partners``), once per polyhedron.
    """

    vertices: np.ndarray
    faces: np.ndarray
    inradius: float
    kind: str

    @cached_property
    def _face_frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(outward unit normals (F,3), plane offsets (F,), inverse corner matrices (F,3,3)).

        Raises RuntimeError before inverting a corner matrix when a face
        plane passes within HULL_TOL of the origin, where that matrix is
        singular or nearly so.
        """
        corners = self.vertices[self.faces]           # (F, 3, 3)
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        n = np.cross(b - a, c - a)
        flip = np.einsum("fi,fi->f", n, a) < 0
        n[flip] *= -1.0
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        d = np.einsum("fi,fi->f", n, a)
        if not d.min() > HULL_TOL:
            raise RuntimeError(f"ray-face intersection failed: a face plane passes "
                               f"{d.min():.3e} from the origin")
        inv = np.linalg.inv(corners.transpose(0, 2, 1))  # columns are the corners
        return n, d, inv

    @cached_property
    def _partners(self) -> np.ndarray:
        """The coplanar partner of each face (F,): the face itself for a
        triangle, the other piece for a facet split in two, -1 for a facet
        of three or more pieces.

        Checks the face frame first: the faces must close into one
        oriented surface (every directed edge once, and its reverse once),
        every plane must pass strictly outside the origin (checked by
        ``_face_frames``), and every vertex must lie within HULL_TOL
        behind every plane.  On such a frame the ray along x leaves
        through the face whose plane it meets first.  Raises RuntimeError
        otherwise.
        """
        n = len(self.vertices)
        edges = self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        forward = np.sort(edges[:, 0] * n + edges[:, 1])
        if (np.diff(forward) == 0).any() or not np.array_equal(
                forward, np.sort(edges[:, 1] * n + edges[:, 0])):
            raise RuntimeError("ray-face intersection failed: the faces do not close "
                               "into one oriented surface")
        normals, offsets, _ = self._face_frames
        height = self.vertices @ normals.T - offsets  # (n, F)
        if height.max() > HULL_TOL:
            vertex, face = np.unravel_index(np.argmax(height), height.shape)
            raise RuntimeError(f"ray-face intersection failed: vertex {vertex} lies "
                               f"{height.max():.3e} beyond the plane of face {face}")
        # coplanar[f, g]: the corners of face g lie on the plane of face f
        coplanar = (np.abs(height[self.faces]) <= HULL_TOL).all(axis=1).T
        count = coplanar.sum(axis=1)
        partner = np.where(count == 1, np.arange(len(count)), -1)
        pair = np.flatnonzero(count == 2)
        coplanar[pair, pair] = False
        partner[pair] = np.argmax(coplanar[pair], axis=1)
        partner.setflags(write=False)
        return partner

    @cached_property
    def is_inversion_symmetric(self) -> bool:
        v = self.vertices
        dists = np.linalg.norm(v[:, None, :] + v[None, :, :], axis=2)
        return bool(np.all(dists.min(axis=1) <= 1e-9))


def _cross(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row-wise e x f of (m, 3) arrays, the arithmetic of np.cross at a
    fraction of its call overhead."""
    ee, ff = np.concatenate((e, e), axis=1), np.concatenate((f, f), axis=1)
    return ee[:, 1:4] * ff[:, 2:5] - ee[:, 2:5] * ff[:, 1:4]


@lru_cache(maxsize=32)
def _triples(n: int) -> np.ndarray:
    """All index triples i < j < k below n, in lexicographic order (read-only)."""
    r = np.arange(n)
    t = np.stack(np.nonzero((r[:, None, None] < r[None, :, None])
                            & (r[None, :, None] < r[None, None, :])), axis=1)
    t.setflags(write=False)
    return t


def polyhedron_from_vertices(vertices) -> Polyhedron:
    """The convex hull of unit vectors, triangulated into 2n - 4 outward
    (counter-clockwise seen from outside) faces.

    On the sphere every distinct point is a vertex of the hull, and a triple
    spans a facet exactly when no other point lies beyond its plane.  A
    facet with m > 3 vertices (a cube's square) is split into the m - 2
    triangles of a fan from its lowest-index vertex.  Raises ValueError for
    duplicated points or when the origin is not strictly inside the hull.
    """
    v = as_unit_rows(vertices, "vertices")
    faces, inradius = _hull(v)
    return Polyhedron(vertices=v, faces=faces, inradius=inradius, kind="custom")


def _hull(v: np.ndarray) -> tuple[np.ndarray, float]:
    """(faces, inradius) of the hull of the unit rows of ``v``."""
    n = len(v)
    if n < 4:
        raise ValueError(f"need at least 4 vertices, got {n}")
    dots = v @ v.T
    np.fill_diagonal(dots, -1.0)
    if dots.max() >= 1.0 - HULL_TOL:
        raise ValueError("vertices must be in convex position: a vertex is duplicated")

    triples = _triples(n)
    a, b, c = v[triples].transpose(1, 0, 2)        # the corners, (T, 3) each
    normal = _cross(b - a, c - a)
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
        w = _cross(normal[polygon], v[k] - v[j])
        side = np.where(on_plane[:, polygon], v @ w.T - np.einsum("ti,ti->t", w, v[j]), 0.0)
        chord = (side.min(axis=0) >= -HULL_TOL) | (side.max(axis=0) <= HULL_TOL)
        keep[polygon[lowest & chord]] = True
    outward = np.where(flip[:, None], triples[:, [0, 2, 1]], triples)
    faces = outward[keep]
    if len(faces) != 2 * n - 4:
        raise ValueError(f"degenerate vertex set: {len(faces)} hull triangles for {n} "
                         f"vertices, expected {2 * n - 4}")
    return faces, inradius


def _rotated(v: np.ndarray, orientation: Rotation | None) -> np.ndarray:
    """The rows of ``v`` rotated by ``orientation`` and renormalized to
    unit length; ``v`` itself when there is no orientation."""
    if orientation is None:
        return v
    v = orientation.apply(v)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# The canonical vertices of the built-in solids (read-only).
_SOLID_VERTICES = {
    "icosahedron": ICOSAHEDRON_VERTICES,
    "tetrahedron": _read_only(np.array([
        [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0],
    ]) / np.sqrt(3.0)),
    "cube": _read_only(np.array([
        (a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)
    ]) / np.sqrt(3.0)),
    "octahedron": _read_only(np.array([
        [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0],
    ])),
}


class SolidConstants(NamedTuple):
    """A built-in solid's c in  sum_j sign(v_j . v_i) v_j = c v_i  and its
    inradius l, the distance from the origin to every face plane."""

    sign_sum: float
    inradius: float

    @property
    def numerator(self) -> float:
        """c * l: a model on the solid reaches visibility c l / sum_i |T0 v_i|."""
        return self.sign_sum * self.inradius


# The one source of each built-in solid's c and l, in closed form and
# correctly rounded; a built-in solid's kind is its key here (read-only).
SOLID_CONSTANTS = MappingProxyType({
    "icosahedron": SolidConstants(float(ICOSAHEDRON_SIGN_SUM), float(ICOSAHEDRON_INRADIUS)),
    "cube": SolidConstants(4.0, float(np.sqrt(3.0)) / 3.0),
    "octahedron": SolidConstants(2.0, float(np.sqrt(3.0)) / 3.0),
    "tetrahedron": SolidConstants(2.0, 1.0 / 3.0),
})


@cache
def _solid_faces(name: str) -> np.ndarray:
    """The faces of a built-in solid's canonical hull (read-only): no rotation changes them."""
    return _read_only(_hull(_SOLID_VERTICES[name])[0])


def _solid(name: str, orientation: Rotation | None) -> Polyhedron:
    """A built-in solid rotated by ``orientation``: its rotated vertices,
    the canonical faces and the exact inradius, without building a hull."""
    return Polyhedron(vertices=_rotated(_SOLID_VERTICES[name], orientation),
                      faces=_solid_faces(name), inradius=SOLID_CONSTANTS[name].inradius,
                      kind=name)


def icosahedron(orientation: Rotation | None = None) -> Polyhedron:
    """The regular icosahedron inscribed in the unit sphere.

    Canonical vertices are ``ICOSAHEDRON_VERTICES``; ``orientation``
    rotates the whole solid.
    """
    return _solid("icosahedron", orientation)


def tetrahedron() -> Polyhedron:
    return _solid("tetrahedron", None)


def cube(orientation: Rotation | None = None) -> Polyhedron:
    return _solid("cube", orientation)


def octahedron(orientation: Rotation | None = None) -> Polyhedron:
    return _solid("octahedron", orientation)


def vertex_signs(vertices: np.ndarray, others: np.ndarray) -> np.ndarray:
    """sign(v . w) for the rows v of ``vertices`` against ``others`` (rows,
    or a single vector), with |v . w| <= SIGN_TOL read as 0."""
    dots = vertices @ others.T
    return np.where(np.abs(dots) <= SIGN_TOL, 0.0, np.sign(dots))


def _exit_candidates(p: Polyhedron, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exit face, exit distance s, barycentric coordinates of the exit
    point on that face) for each unit direction in the rows of ``x``.

    Only the exit distances are computed for every face.  The candidate
    exit faces of a direction are those within a relative 1e-9 of its
    nearest: one face, or several where the ray leaves through an edge, a
    vertex or a non-triangular facet split into coplanar pieces.
    Barycentric coordinates are computed for the candidates alone, and
    the candidate with the largest minimum coordinate, the piece that
    contains the exit point, is kept (the lowest face index on a tie).
    Raises RuntimeError when even that piece misses the exit point.
    """
    normals, offsets, inv = p._face_frames
    along = x @ normals.T                          # (n, F)
    with np.errstate(divide="ignore", over="ignore"):
        s_all = offsets / along
    s_all[along <= 0] = np.inf
    s = s_all.min(axis=1)                          # exit distance per direction
    # (direction, face) candidate pairs, grouped by direction in face order
    rows, cand = np.nonzero(s_all <= s[:, None] * (1.0 + 1e-9))
    bary = s[rows, None] * np.einsum("pij,pj->pi", inv[cand], x[rows])
    # length-3 rows are reduced column by column, far faster than axis=1
    score = np.minimum(np.minimum(bary[:, 0], bary[:, 1]), bary[:, 2])
    first = np.r_[True, rows[1:] != rows[:-1]]     # each direction's first pair
    best = np.maximum.reduceat(score, np.flatnonzero(first))
    top = np.flatnonzero(score == best[rows])      # pairs at their direction's best
    pick = top[np.r_[True, rows[top[1:]] != rows[top[:-1]]]]  # lowest face of those
    hit, bary = cand[pick], bary[pick]
    if bary.min() < -1e-12:
        raise RuntimeError(f"ray-face intersection failed: barycentric coordinate "
                           f"{bary.min():.3e}")
    return hit, s, bary


def decompose_directions(p: Polyhedron, directions: np.ndarray) -> np.ndarray:
    """Convex weights over vertices for each unit direction (vectorized).

    Row k of the result satisfies  w >= 0,  sum w = 1  and
    ``w @ p.vertices = p.inradius * directions[k]``.  The ray along x is
    intersected with its exit face, the candidate that contains the exit
    point (see ``_exit_candidates``); the face's barycentric coordinates
    are scaled by inradius/s and the remainder spread uniformly over all
    vertices, which cancels because the vertex set is inversion symmetric.
    """
    x = as_unit_rows(directions)
    if not p.is_inversion_symmetric:
        raise ValueError(f"polyhedron {p.kind!r} is not inversion symmetric")
    hit, s, bary = _exit_candidates(p, x)
    bary = np.maximum(bary, 0.0)
    bary /= (bary[:, 0] + bary[:, 1] + bary[:, 2])[:, None]

    n_dirs, n_verts = len(x), len(p.vertices)
    face_part = p.inradius / s
    weights = np.empty((n_dirs, n_verts))
    weights[:] = (np.maximum(1.0 - face_part, 0.0) / n_verts)[:, None]
    # a face's three vertices are distinct, so no index repeats in a row
    weights[np.arange(n_dirs)[:, None], p.faces[hit]] += face_part[:, None] * bary
    return weights


def exit_faces(p: Polyhedron, x: np.ndarray) -> np.ndarray:
    """The face whose cone contains each unit direction in the rows of
    ``x`` (already checked by ``as_unit_rows``), on any convex solid.

    The face frame is checked on first use (``Polyhedron._partners``);
    a bad one raises RuntimeError.  On a closed convex frame the face
    plane the ray along x meets first, the one maximizing x.n/d, holds
    the exit point, so a triangular facet needs no further test.  The
    work runs face-major, on the columns of x.T: the scores are one
    (F, n) product, and ``_first_max`` takes the first maximum of each
    column, as ``np.argmax`` would.  The coplanar pieces of a split facet
    tie on that score, and the first maximum then names the same piece
    wherever x lies in the facet, so only columns on a split piece get
    barycentric coordinates.  A column where one is below -1e-12 takes
    the piece's partner when all of the partner's exceed 1e-12.  The
    rest, on a facet of three or more pieces or on an edge or vertex of
    the partner, take the piece ``_exit_candidates`` picks.  On an edge
    or vertex the faces that meet there agree to rounding, so any of them
    would do.
    """
    partner = p._partners
    normals, offsets, inv = p._face_frames
    hit = _first_max((normals / offsets[:, None]) @ x.T)
    cols = np.flatnonzero(partner[hit] != hit)
    if len(cols):
        corners = inv.reshape(-1, 9).T             # row 3i + j holds inv[:, i, j]
        cols = cols[_below(corners, hit[cols], np.take(x, cols, axis=0).T, -1e-12)]
        other = partner[hit[cols]]
        inside = other >= 0
        inside[inside] = ~_below(corners, other[inside],
                                 np.take(x, cols[inside], axis=0).T, 1e-12)
        hit[cols[inside]] = other[inside]
        if not inside.all():
            hit[cols[~inside]] = _exit_candidates(p, x[cols[~inside]])[0]
    return hit


def _first_max(scores: np.ndarray) -> np.ndarray:
    """The row of the first maximum in each column of ``scores`` (F, n),
    ``np.argmax(scores, axis=0)`` without its per-column cost.

    One product of [0, 1, ..., F-1; 1, ..., 1] with the 0/1 matrix of the
    column maxima gives each column's maximal row and its count of maxima
    at once; only columns whose count is not 1 (a tie, or a NaN) go to
    ``np.argmax``.  The sums are integers, exact in float32 for fewer
    than 2**24 rows.
    """
    top = np.empty(scores.shape, dtype=np.float32)
    np.equal(scores, scores.max(axis=0), out=top)
    rows = np.ones((2, len(scores)), dtype=np.float32)
    rows[0] = np.arange(len(scores))
    index, count = rows @ top
    hit = index.astype(np.intp)
    tie = np.flatnonzero(count != 1.0)
    if len(tie):
        hit[tie] = np.argmax(scores[:, tie], axis=0)
    return hit


def _below(corners: np.ndarray, faces: np.ndarray, xT: np.ndarray, bound: float) -> np.ndarray:
    """Whether the ray along each column of ``xT`` (3, m) meets the plane of
    its face in ``faces`` at a point whose lowest barycentric coordinate is
    below ``bound`` (the coordinates summing to 1); ``corners`` (9, F) holds
    the inverse corner matrices, row 3i + j for entry (i, j)."""
    # coordinates divided by s: they sum to 1/s, the exit point being on the plane
    bary = np.take(corners, faces, axis=1).reshape(3, 3, -1)
    bary *= xT
    # summed (j = 0 + j = 2) + j = 1, the order of np.einsum("nij,nj->ni"):
    # on an edge or a vertex the face picked depends on these bits
    bary = bary[:, 0] + bary[:, 2] + bary[:, 1]
    low = np.minimum(np.minimum(bary[0], bary[1]), bary[2])
    return low < bound * (bary[0] + bary[1] + bary[2])


def special_orientations() -> tuple[Rotation, Rotation, Rotation]:
    """Rotations putting an icosahedron vertex, face center, and edge
    midpoint on the +z axis (in that order)."""
    v = ICOSAHEDRON_VERTICES
    v0 = v[0]
    partner = v[int(np.argsort(v @ v0)[-2])]
    edge_mid = v0 + partner
    edge_mid /= np.linalg.norm(edge_mid)
    # the face of vertex 0 with its neighbours 7 and 5, summed in this order
    center = v[[7, 0, 5]].mean(axis=0)
    center /= np.linalg.norm(center)
    return rotation_to_z(v0), rotation_to_z(center), rotation_to_z(edge_mid)


@cache
def special_vertices() -> np.ndarray:
    """The icosahedron vertices at the three special orientations, bit for
    bit those of ``icosahedron(rot)``, as one read-only (3, 12, 3) array
    built on first use."""
    vertices = np.stack([_rotated(ICOSAHEDRON_VERTICES, rot) for rot in special_orientations()])
    vertices.flags.writeable = False
    return vertices
