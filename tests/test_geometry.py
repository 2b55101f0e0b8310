import re
from dataclasses import replace
from decimal import Decimal, localcontext
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

from finitelhs import geometry
from finitelhs.geometry import (
    GOLDEN_RATIO,
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    SOLID_CONSTANTS,
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
    special_orientations,
    tetrahedron,
)
from finitelhs.lhsmodel import (
    FiniteLhsModel,
    SignMixture,
    build_polyhedron_model,
    mapped_norms,
    verify_model,
)
from finitelhs.qstate import DiagMat3

from conftest import random_unit_vectors, tie_directions
from convex_hull_oracle import PLANE_TOL, _hull, hull_facets, hull_polyhedron
from decompose_oracle import (
    all_faces_decompose,
    checked_exit_faces,
    first_max,
    partners,
    row_exit_faces,
)
from response_oracle import convex_decompose, row_verify_model
from sign_sum_oracle import sign_sum_constant
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
    poly = hull_polyhedron(mixed)
    with pytest.raises(ValueError):
        sign_sum_constant(poly)


@pytest.mark.parametrize("name", sorted(SOLID_CONSTANTS))
def test_solid_constants_match_the_sign_sum_oracle_and_the_hull(name):
    """At 500 Haar-random orientations the measured c is within 4 ulps of
    the table's and the hull's inradius within 1e-15 of the table's l.
    The oracle's own rounding moves c by 0, 1 or 3 ulps (2.7e-15 on an
    icosahedron, at about one orientation in seven)."""
    solid = SOLID_CONSTANTS[name]
    c, inradius = solid.sign_sum, solid.inradius
    rng = np.random.default_rng(7)
    for _ in range(500):
        v = geometry._rotated(solid.vertices, random_rotation(rng))
        hull = hull_polyhedron(v)
        assert abs(sign_sum_constant(hull, tol=1e-12) - c) <= 4 * np.spacing(c)
        assert abs(hull.inradius - inradius) <= 1e-15


def test_solid_constants_are_the_correctly_rounded_closed_forms():
    """Each c and l is its closed form in 40 digits, rounded once, as a
    Python float."""
    with localcontext() as ctx:
        ctx.prec = 40
        root5, third = Decimal(5).sqrt(), Decimal(1) / Decimal(3)
        exact = {"icosahedron": (2 * (1 + root5), ((5 + 2 * root5) / 15).sqrt()),
                 "cube": (4, third.sqrt()), "octahedron": (2, third.sqrt()),
                 "tetrahedron": (2, third)}
    table = {name: (s.sign_sum, s.inradius) for name, s in SOLID_CONSTANTS.items()}
    assert {name: (float(c), float(l)) for name, (c, l) in exact.items()} == table
    assert all(type(v) is float for row in table.values() for v in row)


@pytest.mark.parametrize("name", sorted(SOLID_CONSTANTS))
def test_solid_faces_are_the_hull_of_the_canonical_vertices(name):
    """Each row's faces are the hull's of its canonical vertices, bit for
    bit and in the same order, since face indices reach ``worst_face`` and
    the exit-face tie rules; the hull's inradius is within 1e-15 of the
    row's l.  The row's arrays are read-only."""
    solid = SOLID_CONSTANTS[name]
    faces, inradius = _hull(solid.vertices)
    assert faces.dtype == solid.faces.dtype and np.array_equal(faces, solid.faces)
    assert abs(inradius - solid.inradius) <= 1e-15
    assert not solid.vertices.flags.writeable and not solid.faces.flags.writeable


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


def hexagonal_prism(orientation: Rotation | None = None) -> Polyhedron:
    """A prism on a regular hexagon, inscribed in the unit sphere: each
    hexagon is one facet of four coplanar pieces, each side one of two."""
    angle = np.arange(6) * np.pi / 3
    ring = np.sqrt(0.75) * np.column_stack([np.cos(angle), np.sin(angle), np.zeros(6)])
    v = np.vstack([ring + [0.0, 0.0, 0.5], ring - [0.0, 0.0, 0.5]])
    return hull_polyhedron(v if orientation is None else orientation.apply(v))


def test_partners_pair_the_pieces_of_each_facet(rng):
    """A triangle is its own partner, the two pieces of a square name each
    other, and the four pieces of a hexagon get -1."""
    for p in (icosahedron(random_rotation(rng)), octahedron(), tetrahedron()):
        assert np.array_equal(partners(p), np.arange(len(p.faces)))
    for p in (cube(), cube(random_rotation(rng))):
        partner = partners(p)
        assert np.all(partner != np.arange(12)) and np.array_equal(partner[partner], np.arange(12))
        normals = p.checked_frame[0]
        assert np.abs(normals[partner] - normals).max() <= 1e-12
    prism = hexagonal_prism()
    hexagon = np.abs(prism.checked_frame[0][:, 2]) > 0.5
    assert hexagon.sum() == 8 and np.all(partners(prism)[hexagon] == -1)
    side = partners(prism)[~hexagon]
    assert np.all(side >= 0) and np.array_equal(partners(prism)[side], np.flatnonzero(~hexagon))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron, hexagonal_prism]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0))
@example(cube, (1.0, 0.0, 0.0, 0.0), 0, 0.5)
@example(hexagonal_prism, (1.0, 0.0, 0.0, 0.0), 0, 0.5)
def test_exit_faces_match_the_checked_oracle(solid, quat, seed, lam):
    """Bit for bit the faces of the oracle that checks the argmax face of
    every row, on random directions and on directions that tie between
    faces: vertices, edge points and the diagonals of split facets, in one
    batch and one tie at a time among random rows."""
    assume(np.linalg.norm(quat) > 0.1)
    p = solid(Rotation.from_quat(quat))
    ties = tie_directions(p, lam)
    x = np.vstack([random_unit_vectors(np.random.default_rng(seed), 300), ties])
    assert np.array_equal(exit_faces(p, x), checked_exit_faces(p, x))
    # one tie among random rows: a one-row product rounds differently
    for row in ties[:: len(ties) // 7]:
        y = np.vstack([x[:50], row])
        assert np.array_equal(exit_faces(p, y), checked_exit_faces(p, y))


@pytest.fixture
def exact_rows(monkeypatch):
    """The row count of each call of the exact exit-face rule."""
    calls = []
    original = geometry._exact_exit_faces

    def spy(p, x, rows):
        calls.append(len(rows))
        return original(p, x, rows)

    monkeypatch.setattr(geometry, "_exact_exit_faces", spy)
    return calls


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       st.sampled_from(["built", "loaded", "mirror image"]),
       st.sampled_from([1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6]),
       st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0))
@example(icosahedron, (1.0, 0.0, 0.0, 0.0), "built", 1e-9, 0, 0.5)
@example(cube, (1.0, 0.0, 0.0, 0.0), "mirror image", 1e-9, 0, 0.5)
@example(octahedron, (1.0, 0.0, 0.0, 0.0), "loaded", 1e-9, 0, 0.5)
def test_exit_faces_near_a_boundary_match_the_checked_oracle(solid, quat, make, eps, seed, lam):
    """Bit for bit the faces of the oracle on directions that tie between
    faces, pushed eps off their boundary along random tangents: inside
    OCTANT_MARGIN they take the exact rule, outside it the closed form,
    on a built solid, on the one loaded from its vertices and on a
    mirror image of it."""
    assume(np.linalg.norm(quat) > 0.1)
    p = solid(Rotation.from_quat(quat))
    if make != "built":
        mirror = [-1.0, 1.0, 1.0] if make == "mirror image" else 1.0
        p = polyhedron_from_vertices(p.vertices * mirror)
    ties = tie_directions(p, lam)
    tangent = np.random.default_rng(seed).standard_normal(ties.shape)
    tangent -= np.einsum("ni,ni->n", tangent, ties)[:, None] * ties
    x = ties + eps * tangent / np.linalg.norm(tangent, axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    assert np.array_equal(exit_faces(p, x), checked_exit_faces(p, x))


def test_built_in_kind_off_its_canonical_frame_takes_the_exact_rule(exact_rows, rng):
    """Valid frames of a built-in kind that are not V = C M^T for an
    orthogonal M on the canonical faces take the exact rule on every row:
    a solid's vertex rows permuted, with its faces renumbered to match (it
    keeps the solid's faces), a stretched cube (V = C M^T, M^T M != I), an
    icosahedron whose vertices moved by ~1e-6 off V = C M^T, and a cube
    whose squares are split along their other diagonals."""
    x = random_unit_vectors(rng, 500)
    for solid in (icosahedron, cube, octahedron):
        p = solid(random_rotation(rng))
        perm = np.roll(rng.permutation(len(p.vertices)), 1)
        permuted = Polyhedron(p.vertices[perm], np.argsort(perm)[p.faces], p.inradius, p.kind)
        assert np.array_equal(exit_faces(permuted, x), checked_exit_faces(p, x))
    c, v = cube(), icosahedron(random_rotation(rng)).vertices
    # noise with no linear part in it, so that the fitted M stays orthogonal
    noise = 1e-6 * rng.standard_normal((12, 3))
    moved = v + noise - v @ (v.T @ noise) / 4.0
    # each square of a cube split along its other diagonal
    turned = cube(random_rotation(rng))
    split = turned.faces.copy()
    for f, g in enumerate(partners(turned)):
        if f < g:
            # f = (own, a, b) and g = (other, b, a) become (own, a, other), (other, b, own)
            (other,) = np.setdiff1d(split[g], split[f])
            own, a, b = np.roll(split[f], -np.flatnonzero(~np.isin(split[f], split[g]))[0])
            split[f], split[g] = (own, a, other), (other, b, own)
    for q in (Polyhedron(c.vertices * [1.0, 1.1, 1.0], c.faces, c.inradius, "cube"),
              Polyhedron(moved, icosahedron().faces, icosahedron().inradius, "icosahedron"),
              Polyhedron(turned.vertices, split, turned.inradius, "cube")):
        assert np.array_equal(exit_faces(q, x), checked_exit_faces(q, x))
    assert exact_rows == [500] * 6


def sign_mixture_model(p: Polyhedron, target: DiagMat3) -> FiniteLhsModel:
    """One atom per vertex of any inversion-symmetric solid, weighted by
    |T0 v_i| as ``build_polyhedron_model`` weights them, at visibility 1/2;
    it needs no sign-sum constant, so a prism carries it too."""
    norms, total = mapped_norms(p.vertices, target.as_array())
    return FiniteLhsModel(weights=norms / total, blochs=target.apply(p.vertices) / norms[:, None],
                          preimages=p.vertices, response=SignMixture(p), target=target,
                          visibility=0.5)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron, hexagonal_prism]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0),
       st.sampled_from([(-0.6, -0.5, -0.4), (0.3, -0.2, 0.5), (-1.0, -1.0, -1.0)]))
@example(cube, (1.0, 0.0, 0.0, 0.0), 0, 0.5, (-0.6, -0.5, -0.4))
@example(hexagonal_prism, (1.0, 0.0, 0.0, 0.0), 0, 0.5, (-0.6, -0.5, -0.4))
@example(cube, (0.0, 1.0, 0.5, 0.0), 0, 1e-12, (-0.6, -0.5, -0.4))
def test_face_major_grid_matches_the_row_oracles(solid, quat, seed, lam, diag):
    """Bit for bit the faces of ``row_exit_faces`` and the report of
    ``row_verify_model``, the direction-major forms of ``exit_faces`` and
    of ``verify_model``'s grid, on random rows and on rows that tie
    between faces."""
    assume(np.linalg.norm(quat) > 0.1)
    p = solid(Rotation.from_quat(quat))
    x = np.vstack([random_unit_vectors(np.random.default_rng(seed), 300), tie_directions(p, lam)])
    assert np.array_equal(exit_faces(p, x), row_exit_faces(p, x))
    model = sign_mixture_model(p, DiagMat3(*diag))
    state = model.simulated_state()
    assert repr(verify_model(model, state, x)) == repr(row_verify_model(model, state, x))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans())
@example(1, 5, 0, True)
def test_first_max_matches_argmax(n_faces, n_cols, seed, with_nan):
    """The first maximum of each column, as ``np.argmax(axis=0)`` gives
    it: exact ties, +0 against -0, infinities, columns all equal, NaN, and
    a single face."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])
    shape = (n_faces, n_cols)
    scores = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), rng.standard_normal(shape))
    scores[:, rng.random(n_cols) < 0.2] = 0.5
    if with_nan:
        scores[rng.random(shape) < 0.02] = np.nan
    assert np.array_equal(first_max(scores), np.argmax(scores, axis=0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]), st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       st.sampled_from([polyhedron_from_vertices, hull_polyhedron]))
@example(icosahedron, (1.0, 0.0, 0.0, 0.0), polyhedron_from_vertices)
@example(cube, (1.0, 0.0, 0.0, 0.0), polyhedron_from_vertices)
@example(octahedron, (1.0, 0.0, 0.0, 0.0), polyhedron_from_vertices)
@example(cube, (1.0, 0.0, 0.0, 0.0), hull_polyhedron)
def test_rotated_solids_match_their_hull(solid, quat, make):
    """A built-in solid at any orientation has the vertices and faces of
    the hull of its rotated vertices (``hull_polyhedron``), bit for bit,
    and the exact inradius of SOLID_CONSTANTS, within 1e-15 of the hull's.
    Given the same vertices, the matcher ``polyhedron_from_vertices``
    returns the solid: its vertices, kind, inradius and ``faces`` object."""
    assume(np.linalg.norm(quat) > 0.1)
    p = solid(Rotation.from_quat(quat))
    made = make(p.vertices)
    assert np.array_equal(p.vertices, made.vertices)
    assert np.array_equal(p.faces, made.faces)
    if make is polyhedron_from_vertices:
        assert made.faces is p.faces
        assert (made.kind, made.inradius) == (p.kind, p.inradius)
    else:
        assert abs(made.inradius - p.inradius) <= 1e-15
    assert p.inradius == SOLID_CONSTANTS[p.kind].inradius
    unrotated = solid()
    assert np.array_equal(unrotated.faces, p.faces)
    assert unrotated.inradius == p.inradius


def test_no_random_row_of_a_built_in_solid_takes_the_exact_rule(exact_rows, rng):
    """Random rows of a rotated, mirrored or loaded icosahedron, cube or
    octahedron all get their faces in closed form; the tetrahedron is not
    the same under a sign flip, so each of its rows takes the exact rule."""
    x = random_unit_vectors(rng, 2000)
    for solid in (icosahedron, cube, octahedron):
        p = solid(random_rotation(rng))
        for q in (p, polyhedron_from_vertices(p.vertices), polyhedron_from_vertices(-p.vertices)):
            assert np.array_equal(exit_faces(q, x), checked_exit_faces(q, x))
    assert exact_rows == []
    exit_faces(tetrahedron(), x)
    assert exact_rows == [2000]


CUBE_CORNER = np.array([[0, 2, 1], [0, 4, 2], [0, 1, 4], [1, 2, 4]])


def corrupted(case: str) -> tuple[Polyhedron, Polyhedron]:
    """A solid, and a copy of it with a corrupted face frame over a vertex
    set that is still inversion symmetric."""
    ico = icosahedron()
    faces, vertices = ico.faces.copy(), ico.vertices.copy()
    if case == "duplicated face":
        faces[0] = faces[1]
    elif case == "reversed face":
        faces[0] = faces[0, [0, 2, 1]]
    elif case == "missing face":
        faces = faces[1:]
    elif case == "extra two-sided face":
        # face 0 once more each way round: every edge still meets its reverse
        faces = np.vstack([faces, faces[0], faces[0, [0, 2, 1]]])
    elif case == "vertex outside a face plane":
        # vertex 0 and its antipode 9 pulled in: each cap caves in, and a
        # neighbour of the caved vertex lies beyond a caved face's plane
        vertices[[0, 9]] *= 0.4
    else:
        # the corner tetrahedron of the cube at vertex 0: its far face
        # (1, 2, 4) has the origin in front of it
        return cube(), Polyhedron(cube().vertices, CUBE_CORNER, 0.0, case)
    return ico, Polyhedron(vertices, faces, ico.inradius, case)


@pytest.mark.parametrize("case,reason", [
    ("duplicated face", "do not close"),
    ("reversed face", "do not close"),
    ("missing face", "do not close"),
    ("extra two-sided face", "do not close"),
    ("vertex outside a face plane", "beyond the plane"),
    ("origin outside", "vertex 0 lies .* beyond the plane of face 3"),
])
def test_corrupted_frames_fail_at_first_use(case, reason, rng):
    """exit_faces checks the frame before it reads a row, so every row
    fails, even ones the argmax alone would place; verify_model on a model
    whose response reads the frame fails the same way."""
    good, bad = corrupted(case)
    x = good.vertices[good.faces[-1]].sum(axis=0)
    with pytest.raises(RuntimeError, match="ray-face intersection failed: .*" + reason):
        exit_faces(bad, (x / np.linalg.norm(x))[None, :])
    model = build_polyhedron_model(DiagMat3(-0.6, -0.5, -0.4), good)
    model = replace(model, response=SignMixture(bad, model.response.scale))
    with pytest.raises(RuntimeError, match="ray-face intersection failed"):
        verify_model(model, model.simulated_state(), random_unit_vectors(rng, 10))


def test_frame_with_a_plane_through_the_origin_fails():
    """A tetrahedron moved until the plane of face 0 passes 1e-12 from the
    origin: every vertex is behind every plane, but that offset is within
    HULL_TOL of zero."""
    tet = tetrahedron()
    normals, offsets, _ = tet.checked_frame
    moved = Polyhedron(tet.vertices - (offsets[0] - 1e-12) * normals[0], tet.faces, 1e-12, "moved")
    with pytest.raises(RuntimeError, match="ray-face intersection failed: a face plane passes"):
        exit_faces(moved, -normals[:1])


def origin_frames() -> list[Polyhedron]:
    """Frames with a face plane exactly through the origin: a tetrahedron
    with vertex 0 moved there, and an icosahedron with vertex 0 and its
    antipode 9 moved there, which keeps the vertex set inversion
    symmetric."""
    tet, ico = tetrahedron(), icosahedron()
    tv, iv = tet.vertices.copy(), ico.vertices.copy()
    tv[0] = 0.0
    iv[[0, 9]] = 0.0
    return [Polyhedron(tv, tet.faces, tet.inradius, "origin vertex"),
            Polyhedron(iv, ico.faces, ico.inradius, "origin vertices")]


@pytest.mark.parametrize("frame", origin_frames(), ids=["tetrahedron", "icosahedron"])
def test_frame_with_a_plane_exactly_through_the_origin_fails(frame, rng):
    """The offset check runs before any corner matrix is inverted, so a
    singular one gives the frame error, not numpy's LinAlgError; from
    exit_faces and from verify_model on a model whose response reads the
    frame."""
    match = re.escape("ray-face intersection failed: a face plane passes 0.000e+00 from the origin")
    with pytest.raises(RuntimeError, match=match):
        exit_faces(frame, random_unit_vectors(rng, 10))
    if frame.is_inversion_symmetric:
        model = build_polyhedron_model(DiagMat3(-0.6, -0.5, -0.4), icosahedron())
        model = replace(model, response=SignMixture(frame, model.response.scale))
        with pytest.raises(RuntimeError, match=match):
            verify_model(model, model.simulated_state(), random_unit_vectors(rng, 10))


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
    normals, offsets, _ = fico.checked_frame
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


@pytest.mark.parametrize("name", sorted(SOLID_CONSTANTS))
def test_polyhedron_from_vertices_matches_only_a_built_in_solid(name, rng):
    """A rotated solid and its mirror image match; the same rows with one
    vertex turned by 1e-9, two non-antipodal rows swapped, or one row
    dropped do not, and the message names the row count and every solid.
    (Every permutation of the tetrahedron's rows keeps its Gram matrix.)"""
    v = geometry._rotated(SOLID_CONSTANTS[name].vertices, random_rotation(rng))
    for rows in (v, v * [-1.0, 1.0, 1.0]):
        assert polyhedron_from_vertices(rows).kind == name
    turned = v.copy()
    turned[0] += 1e-9 * np.cross(turned[0], [0.6, 0.0, 0.8])
    turned[0] /= np.linalg.norm(turned[0])
    swapped = v[[2, 1, 0, *range(3, len(v))]]
    for rows in (turned, v[1:]) + ((swapped,) if name != "tetrahedron" else ()):
        with pytest.raises(ValueError, match=f"^{len(rows)} vertices match no built-in solid "
                                             r".*\(icosahedron 12, tetrahedron 4, cube 8, "
                                             r"octahedron 6 vertices\)$"):
            polyhedron_from_vertices(rows)


def test_polyhedron_from_vertices_validation():
    with pytest.raises(ValueError, match="vertices must be unit vectors"):
        hull_polyhedron(np.array([[0.0, 0.0, 2.0], [1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    with pytest.raises(ValueError, match="need at least 4 vertices, got 3"):
        hull_polyhedron(np.eye(3))
    with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
        hull_polyhedron(np.ones((4, 2)))
    nan_vertex = cube().vertices.copy()
    nan_vertex[0] = np.nan
    with pytest.raises(ValueError, match="vertices must be finite"):
        hull_polyhedron(nan_vertex)
    dup = np.vstack([tetrahedron().vertices, tetrahedron().vertices[:1]])
    with pytest.raises(ValueError, match="duplicated"):
        hull_polyhedron(dup)
    angles = np.arange(6) * np.pi / 3
    great_circle = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
    with pytest.raises(ValueError, match="origin"):
        hull_polyhedron(great_circle)
    hemisphere = np.vstack([great_circle[:3], [[0.0, 0.0, 1.0]]])
    with pytest.raises(ValueError, match="origin"):
        hull_polyhedron(hemisphere)


def assert_hull_matches_oracle(v):
    """Same facet planes as Qhull, 2n - 4 outward triangles, and the
    triangles on each plane tile its facet without overlap."""
    p = hull_polyhedron(v)
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
            hull_polyhedron(v)
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
