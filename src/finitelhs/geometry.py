"""Rotations, unit-sphere polyhedra, and convex vertex decompositions.

Every polyhedron is one of four built-in solids turned, and each solid is
one read-only row of ``SOLID_CONSTANTS``: its canonical vertices C, its
faces, and its exact sign-sum constant c and inradius l.  A polyhedron's
vertices are V = C M^T for an orthogonal M (a rotation or a mirror image),
which ``_fit_turn`` fits, also to accept a loaded model's vertices in
``polyhedron_from_vertices``, which keeps that fit; its face frame is the
row's ``canonical_frame`` turned by M, and no hull or frame is built.

A polyhedron carries a sign mixture exactly when its kind has an
``octant_table``: a row that every coordinate sign flip, inversion
included, maps to itself (the icosahedron, cube and octahedron).
``exit_faces`` folds each direction into the first octant and reads its
face cone from that table.  Only directions within OCTANT_MARGIN of a
boundary of that rule take the exact rule: the face of largest x.n/d, or
where the exit point misses it, the candidate of ``_exit_candidates``,
which also serves every row of ``decompose_directions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .qstate import UNIT_TOL, as_unit_rows

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

# Two unit face normals within this distance of each other are one facet's
# (``octant_table``).
HULL_TOL = 1e-10


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
        """The rotation of q / |q|.  q is first divided by the power of two
        of its largest |component|, exactly, so that |q| neither overflows
        nor loses digits to underflow."""
        q = np.asarray(q, dtype=float)
        if q.shape != (4,) or not q.any():
            raise ValueError("quaternion must be a nonzero length-4 vector")
        big = float(np.abs(q).max())
        if not math.isfinite(big):
            return Rotation(q)      # which rejects it; q / |q| would warn first
        q = np.ldexp(q, -math.frexp(big)[1])
        return Rotation(q / np.linalg.norm(q))


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Draw a rotation from the uniform (Haar) distribution.

    A 4d standard normal, normalized, is uniform on the quaternion sphere.
    """
    q = rng.standard_normal(4)
    return Rotation(q / np.linalg.norm(q))


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """A convex polyhedron with unit vertices and triangulated faces.

    ``faces`` holds vertex-index triples; ``inradius`` is the distance from
    the origin to the nearest face plane; ``kind`` names the built-in solid,
    its key in ``SOLID_CONSTANTS``, whose faces and inradius these are.
    The vertices are that solid's canonical ones turned, V = C M^T for an
    orthogonal M, and every reader of the face frame goes through
    ``turn``, which fits M on first use, once per polyhedron, and raises
    RuntimeError when the kind, faces or vertices are not a row turned.
    """

    vertices: np.ndarray
    faces: np.ndarray
    inradius: float
    kind: str

    @cached_property
    def turn(self) -> np.ndarray:
        """M^T, for the vertices V = C M^T of the built-in solid ``kind``
        on its faces (``_fit_turn``); raises RuntimeError otherwise."""
        solid = SOLID_CONSTANTS.get(self.kind)
        rows = solid is not None and self.vertices.shape == solid.vertices.shape
        if not (rows and np.array_equal(self.faces, solid.faces)) or (
                turn := _fit_turn(solid.vertices, self.vertices)) is None:
            raise RuntimeError(f"ray-face intersection failed: the polyhedron is not a built-in "
                               f"solid turned by an orthogonal matrix (kind {self.kind!r})")
        return turn

    @cached_property
    def checked_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(outward unit normals (F,3), plane offsets (F,), inverse corner
        matrices (F,3,3)): the canonical frame of the solid turned, N_C M^T,
        the canonical offsets and inv_C M^T.  On it the ray along x leaves
        through the face whose plane it meets first."""
        normals, offsets, inv = canonical_frame(self.kind)
        return normals @ self.turn, offsets, inv @ self.turn


def _fit_turn(c: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """M^T when the rows ``v`` are the canonical vertices ``c`` of a
    built-in solid turned by an orthogonal M (a rotation, or a mirror
    image), V = C M^T; None otherwise.  M = (3/n) V^T C, since
    C^T C = (n/3) I; V = C M^T and M^T M = I are checked to SIGN_TOL."""
    m = (3.0 / len(v)) * (v.T @ c)
    if not (np.abs(v - c @ m.T).max() <= SIGN_TOL
            and np.abs(m.T @ m - np.eye(3)).max() <= SIGN_TOL):
        return None
    return m.T.copy()


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
def canonical_frame(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(outward unit normals (F,3), plane offsets (F,), inverse corner
    matrices (F,3,3)), read-only, of the built-in solid ``kind`` at its
    canonical vertices, whose faces are outward: every directed edge once
    and its reverse once, the origin strictly behind every face plane and
    every vertex on or behind it, as the tests check in exact arithmetic."""
    solid = SOLID_CONSTANTS[kind]
    corners = solid.vertices[solid.faces]          # (F, 3, 3)
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    normals = np.cross(b - a, c - a)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return (_read_only(normals), _read_only(np.einsum("fi,fi->f", normals, a)),
            _read_only(np.linalg.inv(corners.transpose(0, 2, 1))))  # columns are the corners


@cache
def octant_table(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """(normals, faces, diagonals), read-only: the face cones of a built-in
    solid that is the same under every coordinate sign flip, from its
    SOLID_CONSTANTS row, inversion included; None for any other kind (the
    tetrahedron, or no row).  The one rule of which solids carry a sign
    mixture: on them the uniform remainder of a decomposition cancels.

    ``normals`` (K, 3) holds n/d of the K candidate facets, whose normals
    lie in the closed first octant: on a = |y| the top candidate is the
    facet of a, since a.n <= a.|n| for every facet normal n.  Key 8k + s,
    for candidate k and s = [y0 < 0] + 2 [y1 < 0] + 4 [y2 < 0], names the
    mirror image of candidate k in the octant of y; ``faces[:, key]`` are
    its pieces in front of and behind its diagonal plane, whose unit
    normal is column ``key`` of ``diagonals`` (None when none is split).
    """
    solid = SOLID_CONSTANTS.get(kind)
    if solid is None:
        return None
    normals, offsets, _ = canonical_frame(kind)
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
    the rows match when they are its canonical vertices turned by an
    orthogonal matrix (``_fit_turn``).  The polyhedron is the rows, the
    solid's faces and inradius, and as its cached ``turn`` the fit that
    accepted them.  Raises ValueError for any other vertex set, before
    forming a product when the count fits no solid.
    """
    v = as_unit_rows(vertices, "vertices")
    for name, solid in SOLID_CONSTANTS.items():
        if len(solid.vertices) == len(v) and (turn := _fit_turn(solid.vertices, v)) is not None:
            p = Polyhedron(v, solid.faces, solid.inradius, name)
            object.__setattr__(p, "turn", turn)     # the cached_property's slot
            return p
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
    vertices, which cancels where ``octant_table`` exists (else ValueError).
    """
    x = as_unit_rows(directions)
    if octant_table(p.kind) is None:
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
    ``x`` (already checked by ``as_unit_rows``).

    A polyhedron V = C M^T that carries a sign mixture is the same under
    every sign flip of y = M^T x, so its face is read in closed form from
    its ``octant_table``: the top candidate on a = |y| and the sign bits
    of y, and for a split square the side of its diagonal plane.  The
    columns within OCTANT_MARGIN of a boundary of that rule take the exact
    rule of ``_exact_exit_faces``.  A polyhedron that is not a built-in
    solid turned raises RuntimeError (``Polyhedron.turn``) before anything
    else, and a row with no table (the tetrahedron) raises ValueError.
    """
    turn, table = p.turn, octant_table(p.kind)
    if table is None:
        raise ValueError(f"polyhedron {p.kind!r} is not inversion symmetric")
    normals, faces, diagonals = table
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
    """The exit face of the rows ``rows`` of ``x`` near a boundary of the
    closed form, by the exact rule: the face whose plane the ray meets
    first, maximizing x.n/d, when its lowest barycentric coordinate is
    >= 0, and otherwise the piece that ``_exit_candidates`` picks.  On an
    edge or vertex the faces that meet there agree to rounding, so any of
    them would do.  The scores are read off the product of all of x: a
    one-row product rounds differently, and a tie could go the other way."""
    normals, offsets, inv = p.checked_frame
    hit = np.argmax((x @ (normals / offsets[:, None]).T)[rows], axis=1)
    bary = np.einsum("nij,nj->ni", inv[hit], x[rows])
    out = np.flatnonzero(bary.min(axis=1) < 0.0)
    if len(out):
        hit[out] = _exit_candidates(p, x[rows[out]])[0]
    return hit


def special_orientations() -> tuple[Rotation, Rotation, Rotation]:
    """Rotations putting an icosahedron vertex, face center, and edge
    midpoint on the +z axis (in that order): vertex 0, the center of its
    face (0, 7, 5) and the midpoint of its edge to vertex 6, each turned
    onto +z by the half-angle quaternion (1 + u.z, u x z) normalized."""
    return (Rotation(np.array([0.9619383577839176, 0.2732665289126717, 0.0, 0.0])),
            Rotation(np.array([0.8880738339771151, 0.32505758367186816,
                               0.32505758367186816, 0.0])),
            Rotation(np.array([1.0, 0.0, 0.0, 0.0])))


@cache
def special_vertices() -> np.ndarray:
    """The icosahedron vertices at the three special orientations, bit for
    bit those of ``icosahedron(rot)``, as one read-only (3, 12, 3) array
    built on first use."""
    vertices = np.stack([_rotated(ICOSAHEDRON_VERTICES, rot) for rot in special_orientations()])
    vertices.flags.writeable = False
    return vertices
