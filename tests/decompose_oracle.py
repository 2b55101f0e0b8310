"""Barycentric coordinates of every direction on every face: an oracle for
``geometry.decompose_directions``, which computes them only for the
candidate exit faces of each direction."""

import numpy as np

from finitelhs.geometry import Polyhedron
from finitelhs.qstate import UNIT_TOL


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

    normals, offsets, inv = p._face_frames
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
