"""Lookups done the long way, as oracles for the package's fast paths.

``computed_frame`` builds a polyhedron's face frame from its own vertices,
for ``Polyhedron.checked_frame``, which turns its solid's canonical frame,
and for the solids that are not built in.  ``rotation_to_z`` is the
half-angle construction of ``geometry.special_orientations``' literals.
``all_faces_decompose`` computes barycentric coordinates of every direction
on every face, for ``geometry.decompose_directions``, which computes them
only for the candidate exit faces of each direction.
``checked_exit_faces`` checks the argmax face of every direction, for
``geometry.exit_faces``, which reads the face of a built-in solid in
closed form and checks only the rows near a boundary of that form.
``row_exit_faces`` finds the same faces direction-major: a per-row
``np.argmax``, an (n, 3, 3) gather of the inverse corner matrices, and
on a split facet the coplanar partner of ``partners``, which reads
``computed_frame``.
``first_max`` is ``np.argmax(axis=0)`` through one float32 product, the
first-maximum rule ``exit_faces`` once took its faces by.
``einsum_mapped_norms`` and ``einsum_orientation_search`` rotate with
``einsum`` and take norms with ``np.linalg.norm``, for
``lhsmodel.mapped_norms`` and ``scanopt.random_orientation_search``.
"""

import numpy as np

from finitelhs.geometry import (
    HULL_TOL,
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    ICOSAHEDRON_VERTICES,
    Polyhedron,
    Rotation,
    _exit_candidates,
    quaternion_matrices,
)
from finitelhs.qstate import UNIT_TOL, DiagMat3

from qstate_oracle import as_unit_vector


def computed_frame(p: Polyhedron) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(outward unit normals (F,3), plane offsets (F,), inverse corner
    matrices (F,3,3)) of the faces of ``p``, from its own vertices: each
    normal the cross product of two edges, turned to point away from the
    origin and normalized.  Computation only; ``certificate_oracle``'s
    ``frame_is_exact`` checks a frame."""
    corners = p.vertices[p.faces]                  # (F, 3, 3)
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    normals = np.cross(b - a, c - a)
    normals[np.einsum("fi,fi->f", normals, a) < 0] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, np.einsum("fi,fi->f", normals, a), np.linalg.inv(corners.transpose(0, 2, 1))


def rotation_to_z(u) -> Rotation:
    """The rotation carrying the unit vector ``u`` onto +z.

    Uses the half-angle quaternion (1 + u.z, u x z) normalized, which is
    stable everywhere except u = -z (handled as a half turn about x).
    """
    u = as_unit_vector(u, "direction")
    z = np.array([0.0, 0.0, 1.0])
    c = float(u @ z)
    if c < -1.0 + 1e-12:
        return Rotation(np.array([0.0, 1.0, 0.0, 0.0]))
    q = np.concatenate(([1.0 + c], np.cross(u, z)))
    return Rotation(q / np.linalg.norm(q))


def all_faces_decompose(p: Polyhedron, directions) -> np.ndarray:
    """Convex weights over vertices for each unit direction.

    Builds the (n, F, 3) array of barycentric coordinates on all F faces;
    among the faces whose exit distance is within 1e-9 of the nearest, keeps
    the one with the largest minimum coordinate (the lowest index on a tie)
    and scatters it with ``np.add.at``.
    """
    x = np.atleast_2d(np.asarray(directions, dtype=float))
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError(f"directions must have shape (n, 3), got {x.shape}")
    if np.abs(np.linalg.norm(x, axis=1) - 1.0).max() > UNIT_TOL:
        raise ValueError("directions must be unit vectors")
    if not p.is_inversion_symmetric:
        raise ValueError(f"polyhedron {p.kind!r} is not inversion symmetric")

    normals, offsets, inv = p.checked_frame
    along = x @ normals.T                          # (n, F)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s_all = np.where(along > 0, offsets[None, :] / along, np.inf)
    s = s_all.min(axis=1)                          # exit distance per direction
    near = s_all <= s[:, None] * (1.0 + 1e-9)
    bary_all = s[:, None, None] * np.einsum("fij,nj->nfi", inv, x)
    score = np.where(near, bary_all.min(axis=2), -np.inf)
    hit = np.argmax(score, axis=1)
    bary = bary_all[np.arange(len(x)), hit]
    if bary.min() < -1e-12:
        raise RuntimeError(
            f"ray-face intersection failed: barycentric coordinate {bary.min():.3e}"
        )
    bary = np.maximum(bary, 0.0)
    bary /= bary.sum(axis=1, keepdims=True)

    n_dirs, n_verts = len(x), len(p.vertices)
    face_part = p.inradius / s
    weights = np.empty((n_dirs, n_verts))
    weights[:] = (np.maximum(1.0 - face_part, 0.0) / n_verts)[:, None]
    np.add.at(weights, (np.arange(n_dirs)[:, None], p.faces[hit]),
              face_part[:, None] * bary)
    return weights


def checked_exit_faces(p: Polyhedron, x: np.ndarray) -> np.ndarray:
    """The face whose cone contains each unit direction in the rows of
    ``x``: an oracle for ``geometry.exit_faces``, which reads most faces
    in closed form.

    Takes the argmax of x.n/d over the faces and checks the barycentric
    coordinates on that face for every row; rows where one is below 0
    take the containing piece from ``_exit_candidates``.
    """
    normals, offsets, inv = p.checked_frame
    hit = np.argmax(x @ (normals / offsets[:, None]).T, axis=1)
    # coordinates divided by s: they sum to 1/s, the exit point being on the plane
    bary = np.einsum("nij,nj->ni", inv[hit], x)
    low = np.minimum(np.minimum(bary[:, 0], bary[:, 1]), bary[:, 2])
    outside = np.flatnonzero(low < 0.0)
    if len(outside):
        hit[outside] = _exit_candidates(p, x[outside])[0]
    return hit


def partners(p: Polyhedron) -> np.ndarray:
    """The coplanar partner of each face (F,) of any convex polyhedron:
    the face itself for a triangle, the other piece for a facet split in
    two, -1 for a facet of three or more pieces."""
    normals, offsets, _ = computed_frame(p)
    height = p.vertices @ normals.T - offsets      # (n, F)
    # coplanar[f, g]: the corners of face g lie on the plane of face f
    coplanar = (np.abs(height[p.faces]) <= HULL_TOL).all(axis=1).T
    count = coplanar.sum(axis=1)
    partner = np.where(count == 1, np.arange(len(count)), -1)
    pair = np.flatnonzero(count == 2)
    coplanar[pair, pair] = False
    partner[pair] = np.argmax(coplanar[pair], axis=1)
    return partner


def row_exit_faces(p: Polyhedron, x: np.ndarray) -> np.ndarray:
    """The faces of ``checked_exit_faces`` on the rows of ``x``, another
    way: the argmax of x.n/d per row, barycentric coordinates from an
    ``einsum`` over the gathered (n, 3, 3) inverse corner matrices, and
    for the rows where one is below 0 the coplanar partner (``partners``)
    where all of its coordinates exceed 1e-12, ``_exit_candidates`` for
    the rest."""
    partner = partners(p)
    normals, offsets, inv = p.checked_frame
    hit = np.argmax(x @ (normals / offsets[:, None]).T, axis=1)
    rows = np.flatnonzero(_rows_below(inv, hit, x, 0.0))
    other = partner[hit[rows]]
    inside = (other >= 0) & (other != hit[rows])
    inside[inside] = ~_rows_below(inv, other[inside], x[rows[inside]], 1e-12)
    hit[rows[inside]] = other[inside]
    if not inside.all():
        hit[rows[~inside]] = _exit_candidates(p, x[rows[~inside]])[0]
    return hit


def _rows_below(inv: np.ndarray, faces: np.ndarray, x: np.ndarray, bound: float) -> np.ndarray:
    """Whether the lowest barycentric coordinate of each row of ``x`` on
    its face in ``faces`` is below ``bound`` (the coordinates summing to 1)."""
    bary = np.einsum("nij,nj->ni", inv[faces], x)
    low = np.minimum(np.minimum(bary[:, 0], bary[:, 1]), bary[:, 2])
    return low < bound * (bary[:, 0] + bary[:, 1] + bary[:, 2])


def first_max(scores: np.ndarray) -> np.ndarray:
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


def einsum_mapped_norms(vertices: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|T0 v_i| over the last axis through ``np.linalg.norm``, and their sum."""
    norms = np.linalg.norm(vertices * diag[..., None, :], axis=-1)
    return norms, norms.sum(axis=-1)


def einsum_orientation_search(target: DiagMat3, n_rotations: int,
                              seed: int = 0) -> tuple[float, Rotation]:
    """The random orientation search with the vertices rotated by ``einsum``."""
    rng = np.random.default_rng(seed)
    quats = rng.standard_normal((n_rotations, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    rotated = np.einsum("nij,vj->nvi", quaternion_matrices(quats), ICOSAHEDRON_VERTICES)
    _, sums = einsum_mapped_norms(rotated, target.as_array())
    best = int(np.argmin(sums))
    visibility = ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / float(sums[best])
    return visibility, Rotation(quats[best])
