from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

from finitelhs.geometry import (
    GOLDEN_RATIO,
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    Polyhedron,
    Rotation,
    cube,
    decompose_directions,
    exit_faces,
    icosahedron,
    octahedron,
    polyhedron_from_vertices,
    quaternion_matrices,
    random_rotation,
    rotation_to_z,
    sign_sum_constant,
    special_orientations,
    tetrahedron,
)

from conftest import random_unit_vectors, tie_directions
from convex_hull_oracle import PLANE_TOL, hull_facets
from decompose_oracle import all_faces_decompose
from response_oracle import convex_decompose
from sphere_quadrature import fibonacci_sphere


def test_icosahedron_basic_shape():
    ico = icosahedron()
    assert ico.vertices.shape == (12, 3)
    assert len(ico.faces) == 20
    assert np.allclose(np.linalg.norm(ico.vertices, axis=1), 1.0, atol=1e-12)
    assert ico.inradius == pytest.approx(np.sqrt((5 + 2 * np.sqrt(5)) / 15), abs=1e-12)
    assert ico.inradius == pytest.approx(ICOSAHEDRON_INRADIUS)


def test_icosahedron_inversion_symmetric_any_rotation(rng):
    for _ in range(5):
        ico = icosahedron(random_rotation(rng))
        v = ico.vertices
        # for every vertex the antipode is present
        dists = np.linalg.norm(v[:, None, :] + v[None, :, :], axis=2)
        assert dists.min(axis=1).max() < 1e-12
        assert np.allclose(v.sum(axis=0), 0.0, atol=1e-12)
        assert ico.is_inversion_symmetric


def test_tetrahedron_is_the_canonical_one():
    tet = tetrahedron()
    expected = np.array([
        [1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1],
    ]) / np.sqrt(3)
    assert np.allclose(tet.vertices, expected, atol=1e-15)


def test_tetrahedron_frame_and_angles():
    v = tetrahedron().vertices
    assert np.allclose(v.T @ v, (4 / 3) * np.eye(3), atol=1e-12)
    assert np.allclose(v.sum(axis=0), 0.0, atol=1e-15)
    dots = v @ v.T
    off = dots[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1 / 3, atol=1e-12)


def test_gamma_identity_on_icosahedra(rng):
    """sum_j sign(v_j . v_i) v_j = 2(1+sqrt5) v_i on every vertex: at
    tol=1e-12 the per-vertex residual and the spread of c are each at most
    1e-12, so the identity holds to 3e-12."""
    for rot in [None] + [random_rotation(rng) for _ in range(10)]:
        c = sign_sum_constant(icosahedron(rot), tol=1e-12)
        assert abs(c - ICOSAHEDRON_SIGN_SUM) <= 1e-12


def test_gamma_identity_fails_for_tetrahedron():
    assert abs(sign_sum_constant(tetrahedron()) - ICOSAHEDRON_SIGN_SUM) > 1.0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(icosahedron, ICOSAHEDRON_SIGN_SUM), (cube, 4.0), (octahedron, 2.0)]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4))
@example((icosahedron, ICOSAHEDRON_SIGN_SUM), (1.0, 0.0, 0.0, 0.0))
@example((octahedron, 2.0), (np.cos(np.pi / 8), 0.0, 0.0, np.sin(np.pi / 8)))
def test_sign_sum_constant_is_rotation_invariant(solid_and_c, quat):
    """The constant is a property of the solid, not of its orientation,
    including where rotated vertices leave ~1e-17 on orthogonal pairs."""
    solid, c = solid_and_c
    assume(np.linalg.norm(quat) > 0.1)
    assert abs(sign_sum_constant(solid(Rotation.from_quat(quat)), tol=1e-12) - c) <= 1e-12


def test_sign_sum_constants():
    assert sign_sum_constant(icosahedron()) == pytest.approx(2 * (1 + np.sqrt(5)), abs=1e-10)
    assert sign_sum_constant(icosahedron()) == pytest.approx(ICOSAHEDRON_SIGN_SUM)
    assert sign_sum_constant(cube()) == pytest.approx(4.0, abs=1e-10)
    assert sign_sum_constant(octahedron()) == pytest.approx(2.0, abs=1e-10)


def test_sign_sum_rejects_inconsistent_vertex_set():
    mixed = np.vstack([cube().vertices, octahedron().vertices])
    poly = polyhedron_from_vertices(mixed)
    with pytest.raises(ValueError):
        sign_sum_constant(poly)


def test_convex_decompose_face_center():
    """A face-center direction is the insphere tangency point: uniform
    barycentric weights on that face and nothing else."""
    ico = icosahedron()
    face = ico.faces[0]
    center = ico.vertices[face].mean(axis=0)
    center /= np.linalg.norm(center)
    w = convex_decompose(ico, center)
    assert w[face] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)
    others = np.delete(w, face)
    assert np.abs(others).max() < 1e-12


def test_convex_decompose_vertex_direction():
    ico = icosahedron()
    for k in (0, 5, 11):
        w = convex_decompose(ico, ico.vertices[k])
        assert np.linalg.norm(w @ ico.vertices - ico.inradius * ico.vertices[k]) < 1e-10


def test_convex_decompose_properties(rng):
    ico = icosahedron()
    xs = random_unit_vectors(rng, 2000)
    weights = decompose_directions(ico, xs)
    assert weights.min() >= 0.0
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    recon = weights @ ico.vertices
    err = np.linalg.norm(recon - ico.inradius * xs, axis=1)
    assert err.max() < 1e-10


def test_convex_decompose_rotation_equivariance(rng):
    base = icosahedron()
    for _ in range(4):
        rot = random_rotation(rng)
        rotated = icosahedron(rot)
        xs = random_unit_vectors(rng, 100)
        w_rot = decompose_directions(rotated, xs)
        back = xs @ rot.matrix  # R^{-1} x for each row
        w_base = decompose_directions(base, back)
        assert np.abs(w_rot - w_base).max() < 1e-10


def test_convex_decompose_rejects_non_unit():
    with pytest.raises(ValueError):
        convex_decompose(icosahedron(), np.array([0.0, 0.0, 0.5]))


def test_convex_decompose_needs_inversion_symmetry():
    with pytest.raises(ValueError):
        convex_decompose(tetrahedron(), np.array([0.0, 0.0, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_rejects_non_finite_directions(bad):
    x = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        decompose_directions(icosahedron(), x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solid", [cube, octahedron])
def test_decompose_subnormal_components_warn_nothing(solid):
    """A subnormal component makes some x . n subnormal, and the exit
    distance d / (x . n) overflows to inf: no exit there, and no warning."""
    tiny = 5e-324
    x = np.array([[1.0, tiny, 0.0], [tiny, 0.0, 1.0], [0.0, 1.0, -tiny], [1.0, tiny, -tiny]])
    p = solid()
    assert np.array_equal(decompose_directions(p, x), all_faces_decompose(p, x))
    assert len(exit_faces(p, x)) == len(x)


@pytest.mark.parametrize("x,message", [
    (np.empty((0, 3)), "n >= 1"),
    (np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]), "unit"),
    (np.zeros((2, 2)), "shape"),
])
def test_decompose_rejects_malformed_directions(x, message):
    with pytest.raises(ValueError, match=message):
        decompose_directions(icosahedron(), x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0))
@example(icosahedron, (1.0, 0.0, 0.0, 0.0), 0, 0.5)
@example(cube, (1.0, 0.0, 0.0, 0.0), 0, 0.5)
@example(octahedron, (1.0, 0.0, 0.0, 0.0), 0, 0.5)
def test_decompose_matches_all_faces_oracle(solid, quat, seed, lam):
    """Bit for bit the weights of the all-faces oracle, on random
    directions and on directions that tie between faces, in one batch and
    one row at a time."""
    assume(np.linalg.norm(quat) > 0.1)
    p = solid(Rotation.from_quat(quat))
    ties = tie_directions(p, lam)
    x = np.vstack([random_unit_vectors(np.random.default_rng(seed), 300), ties])
    assert np.array_equal(decompose_directions(p, x), all_faces_decompose(p, x))
    for row in ties[:: len(ties) // 7]:
        assert np.array_equal(decompose_directions(p, row[None, :]),
                              all_faces_decompose(p, row[None, :]))


def test_decompose_rejects_a_corrupted_face_frame():
    """With face 0 replaced by a copy of face 1 the surface has a hole;
    the ray through the hole meets only planes outside their triangles."""
    ico = icosahedron()
    faces = ico.faces.copy()
    faces[0] = faces[1]
    holed = Polyhedron(vertices=ico.vertices, faces=faces, inradius=ico.inradius, kind="holed")
    centre = ico.vertices[ico.faces[0]].sum(axis=0)
    x = np.vstack([ico.vertices, centre / np.linalg.norm(centre)])
    for decompose in (decompose_directions, all_faces_decompose, exit_faces):
        with pytest.raises(RuntimeError, match="ray-face intersection failed"):
            decompose(holed, x)


def test_random_rotation_reproducible_and_orthogonal():
    r1 = random_rotation(np.random.default_rng(42))
    r2 = random_rotation(np.random.default_rng(42))
    assert np.array_equal(r1.quat, r2.quat)
    m = r1.matrix
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_random_rotation_is_roughly_uniform():
    """100,000 draws of random_rotation, made in one batch: the (n, 4)
    normals are the stream of n calls, as the first thousand confirm."""
    n = 100_000
    quats = np.random.default_rng(7).standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    replay = np.random.default_rng(7)
    calls = np.array([random_rotation(replay).quat for _ in range(1000)])
    assert np.abs(calls - quats[:1000]).max() <= 1e-15
    # R e_z is the last column of R
    mean = quaternion_matrices(quats)[:, :, 2].mean(axis=0)
    # |mean| ~ 1/sqrt(n) for a uniform distribution; allow 3 sigma
    assert np.linalg.norm(mean) < 3.0 / np.sqrt(n)


def test_rotation_roundtrip(rng):
    rot = random_rotation(rng)
    x = random_unit_vectors(rng, 10)
    inverse = Rotation(rot.quat * np.array([1.0, -1.0, -1.0, -1.0]))
    assert np.allclose(inverse.apply(rot.apply(x)), x, atol=1e-12)
    assert np.allclose(Rotation(np.array([1.0, 0.0, 0.0, 0.0])).apply(x), x)


def test_rotation_rejects_non_unit_quaternion():
    with pytest.raises(ValueError):
        Rotation(np.array([1.0, 1.0, 0.0, 0.0]))
    # the norm prints as a plain float, not as np.float64(...)
    with pytest.raises(ValueError, match=r"unit length, \|q\| = 2\.0$"):
        Rotation(np.array([2.0, 0.0, 0.0, 0.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rotation_rejects_non_finite_quaternion(bad):
    """A NaN quaternion once passed the unit check (|q| - 1 is NaN)."""
    with pytest.raises(ValueError, match="finite"):
        Rotation(np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        Rotation.from_quat([bad, 1.0, 0.0, 0.0])


def test_rotation_to_z_cases(rng):
    for u in random_unit_vectors(rng, 20):
        assert np.allclose(rotation_to_z(u).apply(u), [0, 0, 1], atol=1e-12)
    assert np.allclose(rotation_to_z(np.array([0.0, 0.0, -1.0])).apply([0, 0, -1]),
                       [0, 0, 1], atol=1e-12)
    with pytest.raises(ValueError, match=r"direction must be a unit vector, \|v\| = 2\.0$"):
        rotation_to_z(np.array([0.0, 0.0, 2.0]))


def test_special_orientations_are_pinned():
    """The special quaternions, and with them every ``--orientation
    vertex|face|edge`` artifact, do not depend on the hull's face order."""
    assert [r.quat.tolist() for r in special_orientations()] == [
        [0.9619383577839176, 0.2732665289126717, 0.0, 0.0],
        [0.8880738339771151, 0.32505758367186816, 0.32505758367186816, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]


def test_special_orientations_alignment():
    z = np.array([0.0, 0.0, 1.0])
    vertex_rot, face_rot, edge_rot = special_orientations()

    v = icosahedron(vertex_rot).vertices
    assert np.max(v @ z) == pytest.approx(1.0, abs=1e-12)

    # face orientation: +z leaves the solid through a face at distance l
    fico = icosahedron(face_rot)
    normals, offsets, _ = fico._face_frames
    along = normals @ z
    s = np.min(np.where(along > 1e-12, offsets / np.where(along > 0, along, 1.0), np.inf))
    assert s == pytest.approx(fico.inradius, abs=1e-12)

    # edge orientation: the two nearest vertices straddle +z symmetrically
    e = icosahedron(edge_rot).vertices
    top = np.sort(e @ z)[::-1]
    assert top[0] == pytest.approx(top[1], abs=1e-12)
    pair = e[np.argsort(e @ z)[-2:]]
    mid = pair.sum(axis=0)
    assert np.allclose(mid / np.linalg.norm(mid), z, atol=1e-12)


def test_icosa_werner_identity(rng):
    """The decomposition-weighted sign sums reproduce the isotropic map:
    -(1/12) sum_j [sum_i w_i(x) sign(v_i . v_j)] v_j = -(gamma l / 6) x."""
    ico = icosahedron()
    v = ico.vertices
    xs = random_unit_vectors(rng, 1000)
    w = decompose_directions(ico, xs)
    f = w @ np.sign(v @ v.T)  # f[n, j] = sum_i w_i(x_n) sign(v_i . v_j)
    lhs = -(f @ v) / 12.0
    target = -(1 + np.sqrt(5)) * ico.inradius / 6.0 * xs
    assert np.linalg.norm(lhs - target, axis=1).max() < 1e-10


def test_tetrahedron_frame_identity(rng):
    """sum_i (1/4) (x . -v_i) v_i = -(1/3) x."""
    v = tetrahedron().vertices
    xs = random_unit_vectors(rng, 1000)
    lhs = ((xs @ -v.T) / 4.0) @ v
    assert np.abs(lhs + xs / 3.0).max() < 1e-12


def test_polyhedron_from_vertices_validation():
    with pytest.raises(ValueError, match="vertices must be unit vectors"):
        polyhedron_from_vertices(np.array([[0.0, 0.0, 2.0], [1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    with pytest.raises(ValueError, match="need at least 4 vertices, got 3"):
        polyhedron_from_vertices(np.eye(3))
    with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
        polyhedron_from_vertices(np.ones((4, 2)))
    nan_vertex = cube().vertices.copy()
    nan_vertex[0] = np.nan
    with pytest.raises(ValueError, match="vertices must be finite"):
        polyhedron_from_vertices(nan_vertex)
    dup = np.vstack([tetrahedron().vertices, tetrahedron().vertices[:1]])
    with pytest.raises(ValueError, match="duplicated"):
        polyhedron_from_vertices(dup)
    angles = np.arange(6) * np.pi / 3
    great_circle = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
    with pytest.raises(ValueError, match="origin"):
        polyhedron_from_vertices(great_circle)
    hemisphere = np.vstack([great_circle[:3], [[0.0, 0.0, 1.0]]])
    with pytest.raises(ValueError, match="origin"):
        polyhedron_from_vertices(hemisphere)


def assert_hull_matches_oracle(v):
    """Same facet planes as Qhull, 2n - 4 outward triangles, and the
    triangles on each plane tile its facet without overlap."""
    p = polyhedron_from_vertices(v)
    assert len(p.faces) == 2 * len(v) - 4
    corners = p.vertices[p.faces]
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    normals = cross / (2.0 * areas[:, None])
    offsets = np.einsum("fi,fi->f", normals, corners[:, 0])
    assert offsets.min() > 0.0      # counter-clockwise seen from outside
    assert p.inradius == pytest.approx(offsets.min(), abs=1e-12)
    matched = np.zeros(len(p.faces), dtype=bool)
    for normal, offset, area in hull_facets(v):
        on = ((np.abs(normals - normal).max(axis=1) <= PLANE_TOL)
              & (np.abs(offsets - offset) <= PLANE_TOL))
        assert areas[on].sum() == pytest.approx(area, abs=1e-12)
        matched |= on
    assert matched.all()


@pytest.mark.parametrize("vertices", [
    tetrahedron().vertices,
    cube().vertices,
    octahedron().vertices,
    icosahedron().vertices,
    np.vstack([cube().vertices, octahedron().vertices]),
], ids=["tetrahedron", "cube", "octahedron", "icosahedron", "cube+octahedron"])
def test_hull_matches_qhull_on_solids(vertices):
    assert_hull_matches_oracle(vertices)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([cube, octahedron, icosahedron]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4))
def test_hull_matches_qhull_on_rotated_solids(solid, quat):
    assume(np.linalg.norm(quat) > 0.1)
    assert_hull_matches_oracle(solid(Rotation.from_quat(quat)).vertices)


def _in_general_position(v) -> bool:
    """Vertices at least 1e-3 apart, each within 1e-12 of a plane through
    three others or at least 1e-6 off it: no tolerance decides the hull."""
    gaps = np.linalg.norm(v[:, None] - v[None], axis=2) + 2.0 * np.eye(len(v))
    if gaps.min() < 1e-3:
        return False
    i, j, k = np.array(list(combinations(range(len(v)), 3))).T
    normal = np.cross(v[j] - v[i], v[k] - v[i])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    height = np.abs(v @ normal.T - np.einsum("ti,ti->t", normal, v[i]))
    return not ((height > 1e-12) & (height < 1e-6)).any()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=2, max_size=20),
       st.booleans())
def test_hull_matches_qhull_on_random_points(points, symmetric):
    """4 to 20 unit vectors; with ``symmetric``, up to ten of them and their
    antipodes, an inversion-symmetric set like the model solids."""
    raw = np.array(points)
    if symmetric:
        raw = np.vstack([raw[:10], -raw[:10]])
    assume(len(raw) >= 4)
    norms = np.linalg.norm(raw, axis=1)
    assume(norms.min() > 1e-3)
    v = raw / norms[:, None]
    assume(_in_general_position(v))
    try:
        depth = min(offset for _, offset, _ in hull_facets(v))
    except QhullError:          # all points on one plane
        depth = 0.0
    assume(not 1e-12 < depth < 1e-6)
    event("origin outside" if depth <= 1e-12 else "origin inside")
    if depth <= 1e-12:
        with pytest.raises(ValueError, match="origin"):
            polyhedron_from_vertices(v)
    else:
        assert_hull_matches_oracle(v)


def test_fibonacci_sphere():
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(pts.mean(axis=0)) < 0.01
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_golden_ratio_constant():
    assert GOLDEN_RATIO == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-16)
