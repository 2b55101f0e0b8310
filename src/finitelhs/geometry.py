"""Rotations, unit-sphere polyhedra, and convex vertex decompositions.

Every polyhedron is one of four built-in solids, and each solid is one
read-only row of ``SOLID_CONSTANTS``: its canonical vertices, its faces,
and its exact sign-sum constant c and inradius l.  No rotation changes the
faces or l, so a rotated solid is its rotated vertices and that row's
faces and inradius; no hull is built at run time.
``polyhedron_from_vertices`` matches a vertex set, such as a loaded
model's, to a row by its Gram matrix.  The special orientations and their
rotated icosahedron vertices are read from the canonical vertices too.

``exit_faces`` names the face cone of each direction on a checked face
frame.  The icosahedron, cube and octahedron are the same under every
coordinate sign flip in their canonical frame, so there it folds each
direction into the first octant and reads its face from a table derived
once per solid (``octant_table``).  Only directions within OCTANT_MARGIN
of a boundary of that rule, and those of any other solid, take the exact
rule: the face of largest x.n/d, or where the exit point misses it, the
candidate of ``_exit_candidates``, which also serves every row of
``decompose_directions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
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

# The face frame checks: a face plane must pass farther than this from the
# origin, a vertex within this distance of a face plane lies on it, and none
# may lie farther beyond it.
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
    the origin to the nearest face plane; ``kind`` names the built-in solid,
    its key in ``SOLID_CONSTANTS``, whose faces and inradius these are.
    The vertices may be that solid's rotated or mirrored, so the face frame
    is checked, not trusted: every reader of it goes through
    ``checked_frame``, which checks it on first use, once per polyhedron.
    Where the vertices are the canonical ones turned (``_canonical_turn``),
    ``exit_faces`` reads the canonical frame, checked once per solid.
    """

    vertices: np.ndarray
    faces: np.ndarray
    inradius: float
    kind: str

    @cached_property
    def checked_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(outward unit normals (F,3), plane offsets (F,), inverse corner
        matrices (F,3,3)) of a checked face frame: the faces must close
        into one oriented surface (every directed edge once, and its
        reverse once), every plane must pass farther than HULL_TOL from the
        origin (checked before a corner matrix, singular or nearly so
        there, is inverted), and every vertex must lie within HULL_TOL
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
        corners = self.vertices[self.faces]           # (F, 3, 3)
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        normals = np.cross(b - a, c - a)
        flip = np.einsum("fi,fi->f", normals, a) < 0
        normals[flip] *= -1.0
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = np.einsum("fi,fi->f", normals, a)
        if not offsets.min() > HULL_TOL:
            raise RuntimeError(f"ray-face intersection failed: a face plane passes "
                               f"{offsets.min():.3e} from the origin")
        height = self.vertices @ normals.T - offsets  # (n, F)
        if height.max() > HULL_TOL:
            vertex, face = np.unravel_index(np.argmax(height), height.shape)
            raise RuntimeError(f"ray-face intersection failed: vertex {vertex} lies "
                               f"{height.max():.3e} beyond the plane of face {face}")
        inv = np.linalg.inv(corners.transpose(0, 2, 1))  # columns are the corners
        return normals, offsets, inv

    @cached_property
    def _canonical_turn(self) -> np.ndarray | None:
        """M^T when the vertices are the canonical C of a built-in solid
        with an ``octant_table``, turned by an orthogonal M (a rotation,
        or a mirror image), V = C M^T, with the canonical faces; None
        otherwise.  M = (3/n) V^T C, since C^T C = (n/3) I; V = C M^T and
        M^T M = I are checked to SIGN_TOL."""
        solid = SOLID_CONSTANTS.get(self.kind)
        if (solid is None or octant_table(self.kind) is None
                or self.vertices.shape != solid.vertices.shape
                or not np.array_equal(self.faces, solid.faces)):
            return None
        m = (3.0 / len(self.vertices)) * (self.vertices.T @ solid.vertices)
        if (np.abs(self.vertices - solid.vertices @ m.T).max() > SIGN_TOL
                or np.abs(m.T @ m - np.eye(3)).max() > SIGN_TOL):
            return None
        return m.T.copy()

    @cached_property
    def is_inversion_symmetric(self) -> bool:
        v = self.vertices
        dists = np.linalg.norm(v[:, None, :] + v[None, :, :], axis=2)
        return bool(np.all(dists.min(axis=1) <= 1e-9))


def _rotated(v: np.ndarray, orientation: Rotation | None) -> np.ndarray:
    """The rows of ``v`` rotated by ``orientation`` and renormalized to
    unit length; ``v`` itself when there is no orientation."""
    if orientation is None:
        return v
    v = orientation.apply(v)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _read_only(a) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


class SolidConstants(NamedTuple):
    """A built-in solid: its canonical unit vertices, its outward faces
    (vertex-index triples, in the order the exit-face tie rules read), its
    c in  sum_j sign(v_j . v_i) v_j = c v_i  and its inradius l, the
    distance from the origin to every face plane."""

    vertices: np.ndarray
    faces: np.ndarray
    sign_sum: float
    inradius: float

    @property
    def numerator(self) -> float:
        """c * l: a model on the solid reaches visibility c l / sum_i |T0 v_i|."""
        return self.sign_sum * self.inradius


# The one source of each built-in solid, as constants: the faces are the
# canonical hull's, which no rotation changes, and c and l are closed forms,
# correctly rounded; a built-in solid's kind is its key here (read-only).
SOLID_CONSTANTS = MappingProxyType({
    "icosahedron": SolidConstants(ICOSAHEDRON_VERTICES, _read_only([
        [0, 2, 1], [0, 1, 7], [0, 6, 2], [0, 5, 6], [0, 7, 5], [1, 2, 8], [1, 3, 7],
        [1, 8, 3], [2, 6, 4], [2, 4, 8], [3, 11, 7], [3, 8, 9], [3, 9, 11], [4, 6, 10],
        [4, 9, 8], [4, 10, 9], [5, 10, 6], [5, 7, 11], [5, 11, 10], [9, 10, 11],
    ]), float(ICOSAHEDRON_SIGN_SUM), float(ICOSAHEDRON_INRADIUS)),
    "tetrahedron": SolidConstants(_read_only(np.array([
        [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0],
    ]) / np.sqrt(3.0)), _read_only([
        [0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2],
    ]), 2.0, 1.0 / 3.0),
    "cube": SolidConstants(_read_only(np.array([
        (a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)
    ]) / np.sqrt(3.0)), _read_only([
        [0, 3, 1], [0, 1, 5], [0, 2, 3], [0, 6, 2], [0, 5, 4], [0, 4, 6],
        [1, 3, 7], [1, 7, 5], [2, 7, 3], [2, 6, 7], [4, 5, 7], [4, 7, 6],
    ]), 4.0, float(np.sqrt(3.0)) / 3.0),
    "octahedron": SolidConstants(_read_only([
        [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0],
    ]), _read_only([
        [0, 2, 4], [0, 5, 2], [0, 4, 3], [0, 3, 5], [1, 4, 2], [1, 2, 5], [1, 3, 4], [1, 5, 3],
    ]), 2.0, float(np.sqrt(3.0)) / 3.0),
})


# A column within this distance of a boundary of the closed-form exit
# face (a tie of candidate scores, a coordinate plane, a diagonal plane)
# takes the exact rule: rounding moves the closed form's inputs by ~1e-16.
OCTANT_MARGIN = 1e-9


@cache
def octant_table(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """(normals, faces, diagonals), read-only: the face cones of a built-in
    solid that is the same under every coordinate sign flip, from its
    SOLID_CONSTANTS row; None for any other (the tetrahedron).

    ``normals`` (K, 3) holds n/d of the K candidate facets, whose normals
    lie in the closed first octant: on a = |y| the top candidate is the
    facet of a, since a.n <= a.|n| for every facet normal n.  Key 8k + s,
    for candidate k and s = [y0 < 0] + 2 [y1 < 0] + 4 [y2 < 0], names the
    mirror image of candidate k in the octant of y; ``faces[:, key]`` are
    its pieces in front of and behind its diagonal plane, whose unit
    normal is column ``key`` of ``diagonals`` (None when none is split).
    """
    solid = SOLID_CONSTANTS[kind]
    normals, offsets, _ = Polyhedron(solid.vertices, solid.faces, 1.0, kind).checked_frame
    candidates = [f for f in range(len(normals)) if normals[f].min() >= -HULL_TOL and not (
        np.abs(normals[:f] - normals[f]).max(axis=1, initial=0.0) <= HULL_TOL).any()]
    faces = np.empty((2, 8 * len(candidates)), dtype=np.intp)
    diagonals = np.zeros((3, faces.shape[1]))
    for key in range(faces.shape[1]):
        mirror = normals[candidates[key // 8]] * [1 - 2 * (key >> i & 1) for i in range(3)]
        facet = np.flatnonzero(np.abs(normals - mirror).max(axis=1) <= HULL_TOL)
        if len(facet) not in (1, 2):
            return None
        faces[:, key] = facet[0], facet[-1]
        if len(facet) == 2:
            # normal to the shared edge, the first piece's third corner in front
            first, second = solid.faces[facet].tolist()
            w = np.cross(*solid.vertices[list(set(first) & set(second))])
            w *= np.sign(w @ solid.vertices[first].sum(axis=0))
            diagonals[:, key] = w / np.linalg.norm(w)
    if set(faces.ravel().tolist()) != set(range(len(normals))):
        return None
    return (_read_only(normals[candidates] / offsets[candidates, None]), _read_only(faces),
            _read_only(diagonals) if diagonals.any() else None)


def polyhedron_from_vertices(vertices) -> Polyhedron:
    """The built-in solid whose vertices are the unit rows of ``vertices``,
    in its canonical vertex order, at any orientation or its mirror image.

    The row count names the one candidate (4, 6, 8 or 12 vertices), and
    the rows match when their Gram matrix V V^T is within SIGN_TOL of the
    canonical C C^T everywhere; then ``vertex_signs`` reads the canonical
    sign matrix off them.  The polyhedron is the rows and the solid's
    faces and inradius.  Raises ValueError for any other vertex set,
    before forming a product when the count fits no solid.
    """
    v = as_unit_rows(vertices, "vertices")
    for name, solid in SOLID_CONSTANTS.items():
        c = solid.vertices
        if len(c) == len(v) and np.abs(v @ v.T - c @ c.T).max() <= SIGN_TOL:
            return Polyhedron(v, solid.faces, solid.inradius, name)
    counts = ", ".join(f"{name} {len(s.vertices)}" for name, s in SOLID_CONSTANTS.items())
    raise ValueError(f"{len(v)} vertices match no built-in solid in its canonical vertex "
                     f"order ({counts} vertices)")


def _solid(name: str, orientation: Rotation | None) -> Polyhedron:
    """A built-in solid rotated by ``orientation``: its rotated vertices,
    faces and inradius."""
    solid = SOLID_CONSTANTS[name]
    return Polyhedron(_rotated(solid.vertices, orientation), solid.faces, solid.inradius, name)


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
    normals, offsets, inv = p.checked_frame
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

    An icosahedron, cube or octahedron V = C M^T is the same under every
    sign flip of y = M^T x, so its face is read in closed form from its
    ``octant_table``: the top candidate on a = |y| and the sign bits of y,
    and for a split square the side of its diagonal plane.  Its frame is
    the canonical one turned, checked once per solid.  The columns within
    OCTANT_MARGIN of a boundary of that rule, and all columns of any other
    solid, take the exact rule of ``_exact_exit_faces``, which checks the
    frame on first use (``Polyhedron.checked_frame``); a bad one raises
    RuntimeError.
    """
    turn = p._canonical_turn
    if turn is None:
        return _exact_exit_faces(p, x, np.arange(len(x)))
    normals, faces, diagonals = octant_table(p.kind)
    y = turn @ x.T                                 # (3, n): x in the canonical frame
    a = np.abs(y)
    scores = normals @ a                           # (K, n)
    flags = np.empty((3 + len(scores), len(x)), dtype=np.float32)
    np.less(y, 0.0, out=flags[:3])
    np.greater_equal(scores, scores.max(axis=0) - OCTANT_MARGIN, out=flags[3:])
    # row 0 sums the key 8k + s, row 1 counts the candidates at the top:
    # integers, exact in float32; a column with more than one has no key,
    # and takes a clipped one until the exact rule overwrites it
    key, count = np.array([[1, 2, 4, 0, 8, 16, 24], [0, 0, 0, 1, 1, 1, 1]],
                          dtype=np.float32)[:, :len(flags)] @ flags
    key = key.astype(np.intp)
    near = (count != 1.0) | (a.min(axis=0) <= OCTANT_MARGIN)
    if diagonals is None:
        hit = np.take(faces[0], key, mode="clip")
    else:
        w = np.take(diagonals, key, axis=1, mode="clip") * y
        side = w[0] + w[1] + w[2]
        near |= np.abs(side) <= OCTANT_MARGIN
        hit = np.take(faces, key + faces.shape[1] * (side < 0), mode="clip")
    cols = np.flatnonzero(near)
    if len(cols):
        hit[cols] = _exact_exit_faces(p, x, cols)
    return hit


def _exact_exit_faces(p: Polyhedron, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The exit face of the rows ``rows`` of ``x``, by the exact rule: the
    face whose plane the ray meets first, maximizing x.n/d, when its lowest
    barycentric coordinate is >= 0, and otherwise the piece that
    ``_exit_candidates`` picks.  On an edge or vertex the faces that meet
    there agree to rounding, so any of them would do.  The scores are
    read off the product of all of x: a one-row product rounds
    differently, and a tie could go the other way."""
    normals, offsets, inv = p.checked_frame
    hit = np.argmax((x @ (normals / offsets[:, None]).T)[rows], axis=1)
    bary = np.einsum("nij,nj->ni", inv[hit], x[rows])
    out = np.flatnonzero(bary.min(axis=1) < 0.0)
    if len(out):
        hit[out] = _exit_candidates(p, x[rows[out]])[0]
    return hit


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
