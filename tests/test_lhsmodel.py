import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finitelhs.geometry import (
    Rotation,
    cube,
    decompose_directions,
    exit_faces,
    icosahedron,
    octahedron,
    polyhedron_from_vertices,
    random_rotation,
    special_orientations,
    tetrahedron,
    vertex_signs,
)
from finitelhs.lhsmodel import (
    Atom,
    FiniteLhsModel,
    LinearResponse,
    VerificationReport,
    build_icosahedron_model,
    build_polyhedron_model,
    build_separable_tetrahedron_model,
    entropy_bits,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    response_maps,
    verify_model,
)
from finitelhs.qstate import DiagMat3, TState

from conftest import (
    as_diag,
    random_axial_physical_diag,
    random_physical_diag,
    random_unit_vectors,
    tie_directions,
)
from decompose_oracle import all_faces_decompose
from qstate_oracle import Measurement
from response_oracle import convex_decompose, response_probability, response_value

WERNER = DiagMat3(-0.5, -0.5, -0.5)
GAMMA = 1 + np.sqrt(5)
INRADIUS = np.sqrt((5 + 2 * np.sqrt(5)) / 15)
WERNER_T_MAX = GAMMA * INRADIUS / 3  # = 0.8571852969867928


def vertex_model(t=None):
    return build_icosahedron_model(WERNER, special_orientations()[0], visibility=t)


def test_werner_model_weights_and_visibility():
    model = vertex_model()
    assert model.visibility == pytest.approx(WERNER_T_MAX, abs=1e-12)
    q = np.array([a.weight for a in model.atoms])
    assert np.allclose(q, 1 / 12, atol=1e-15)
    assert len(model.atoms) == 12


def test_werner_model_verifies_at_t_max(rng):
    model = vertex_model()
    state = TState(WERNER.scaled(model.visibility))
    report = verify_model(model, state, random_unit_vectors(rng, 1000))
    assert report.max_residual < 1e-10
    assert report.n_directions == 1000


def test_werner_model_any_orientation_same_t_max(rng):
    for _ in range(5):
        model = build_icosahedron_model(WERNER, random_rotation(rng))
        assert model.visibility == pytest.approx(WERNER_T_MAX, abs=1e-12)


def test_axial_t_max_matches_vertex_formula():
    """Vertex-aligned t_max equals the closed form S_A * gamma * l / 6."""
    t0x, t0z = 0.55, 0.3
    model = build_icosahedron_model(DiagMat3(t0x, t0x, t0z), special_orientations()[0])
    big_x, big_z = t0x**2, t0z**2
    s_vertex = 6 / (np.sqrt(big_z) + np.sqrt(20 * big_x + 5 * big_z))
    assert model.visibility == pytest.approx(s_vertex * GAMMA * INRADIUS / 6, abs=1e-12)


def test_builder_rejects_singular_target():
    with pytest.raises(ValueError):
        build_icosahedron_model(DiagMat3(0.5, 0.5, 0.0))


def test_builder_rejects_out_of_range_visibility():
    with pytest.raises(ValueError):
        vertex_model(t=0.99)
    with pytest.raises(ValueError):
        vertex_model(t=-0.01)


def test_sub_maximal_visibility_verifies_exactly(rng):
    """Scaling the response reproduces the proportionally shrunk state."""
    cap = vertex_model()
    for alpha in (0.0, 0.3, 0.77):
        t = alpha * cap.visibility
        model = vertex_model(t=t)
        state = TState(WERNER.scaled(t))
        report = verify_model(model, state, random_unit_vectors(rng, 300))
        assert report.max_residual < 1e-10


def test_verify_model_detects_visibility_mismatch(rng):
    model = vertex_model()
    t_other = 0.5
    state = TState(WERNER.scaled(t_other))
    report = verify_model(model, state, random_unit_vectors(rng, 200))
    # for the isotropic target |T0 x| = 1/2, so the bloch gap is exactly
    # (1/2) * |t - t'| * (1/2)
    expected = 0.25 * abs(model.visibility - t_other)
    assert report.max_bloch_err == pytest.approx(expected, abs=1e-12)
    assert report.max_bloch_err > 1e-3


def test_generic_polyhedron_matches_icosahedron_builder():
    rot = special_orientations()[1]
    a = build_icosahedron_model(DiagMat3(0.4, 0.4, 0.6), rot)
    b = build_polyhedron_model(DiagMat3(0.4, 0.4, 0.6), icosahedron(rot))
    assert a.visibility == pytest.approx(b.visibility, abs=1e-15)
    qa = [atom.weight for atom in a.atoms]
    qb = [atom.weight for atom in b.atoms]
    assert qa == pytest.approx(qb, abs=1e-15)


@pytest.mark.parametrize("maker", [cube, octahedron])
def test_generic_polyhedron_models_verify(maker, rng):
    target = DiagMat3(-0.45, -0.45, -0.45)
    model = build_polyhedron_model(target, maker())
    state = TState(target.scaled(model.visibility))
    report = verify_model(model, state, random_unit_vectors(rng, 500))
    assert report.max_residual < 1e-10


@pytest.mark.parametrize("maker", [icosahedron, cube, octahedron])
def test_solids_verify_at_every_orientation(maker):
    """Orthogonal octahedron vertices leave ~1e-17 dot products after a
    rotation; their signs must read as 0, not as rounding noise."""
    target = DiagMat3(-0.5, -0.4, -0.3)
    rotations = [Rotation.identity(), *special_orientations()]
    rotations += [random_rotation(np.random.default_rng(seed)) for seed in range(5)]
    for rot in rotations:
        model = build_polyhedron_model(target, maker(rot))
        report = verify_model(model, model.simulated_state())
        assert report.max_residual < 1e-10


def test_generic_rejects_unsupported_polyhedron():
    mixed = polyhedron_from_vertices(np.vstack([cube().vertices, octahedron().vertices]))
    with pytest.raises(ValueError):
        build_polyhedron_model(DiagMat3(0.3, 0.3, 0.3), mixed)


def test_generic_rejects_tetrahedron():
    with pytest.raises(ValueError):
        build_polyhedron_model(DiagMat3(0.3, 0.3, 0.3), tetrahedron())


def test_response_at_vertex_direction():
    model = vertex_model()
    v = model.response.polyhedron.vertices
    for k in (0, 7):
        atom = model.atoms[k]
        got = response_value(model, atom, v[k])
        # brute force: omega(v_k) . sign(v . v_k)
        w = convex_decompose(model.response.polyhedron, v[k])
        brute = float(w @ np.sign(v @ v[k]))
        assert got == pytest.approx(brute, abs=1e-14)
        assert 0.0 < got <= 1.0


def test_response_scale_zero_everywhere(rng):
    model = vertex_model(t=0.0)
    for x in random_unit_vectors(rng, 50):
        for atom in model.atoms[:3]:
            assert response_value(model, atom, x) == 0.0


def test_response_bound_and_probability_normalization(rng):
    model = vertex_model()
    xs = random_unit_vectors(rng, 1000)
    for atom in model.atoms[:4]:
        for x in xs[:250]:
            f = response_value(model, atom, x)
            assert abs(f) <= 1.0 + 1e-14
            p_plus = response_probability(model, atom, Measurement(x, 1))
            p_minus = response_probability(model, atom, Measurement(x, -1))
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)
            assert 0.0 <= p_plus <= 1.0


def test_response_probability_values():
    # p(a | f) = (1 + a f) / 2
    assert 0.5 * (1 + (-1) * (-0.4)) == pytest.approx(0.7)
    model = build_separable_tetrahedron_model(DiagMat3(1 / 3, 1 / 3, 1 / 3))
    atom = model.atoms[0]
    x = np.array([atom.alice_bloch[1], -atom.alice_bloch[0], 0.0])
    x /= np.linalg.norm(x)
    assert response_value(model, atom, x) == pytest.approx(0.0, abs=1e-15)
    m = Measurement(x, 1)
    assert response_probability(model, atom, m) == pytest.approx(0.5, abs=1e-15)


def test_response_odd_symmetry(rng):
    """f(x, -lambda') = -f(x, lambda') and atoms pair up antipodally."""
    row = random_axial_physical_diag(rng, 1)[0]
    target = as_diag(0.9 * row + 0.05 * np.sign(row))  # keep entries nonzero
    if target.is_singular:
        target = DiagMat3(0.3, 0.3, 0.5)
    model = build_icosahedron_model(target, random_rotation(rng))
    pre = np.array([a.preimage for a in model.atoms])
    q = np.array([a.weight for a in model.atoms])
    for i, atom in enumerate(model.atoms):
        j = int(np.argmin(np.linalg.norm(pre + atom.preimage, axis=1)))
        assert np.linalg.norm(pre[j] + atom.preimage) < 1e-12
        assert q[j] == pytest.approx(q[i], abs=1e-15)
        for x in random_unit_vectors(rng, 20):
            assert response_value(model, model.atoms[j], x) == pytest.approx(
                -response_value(model, atom, x), abs=1e-12)


def test_atom_mapping_consistency(rng):
    target = DiagMat3(0.6, 0.6, 0.25)
    model = build_icosahedron_model(target, random_rotation(rng))
    inv = np.array([1 / 0.6, 1 / 0.6, 1 / 0.25])
    for atom in model.atoms:
        back = inv * atom.bloch
        back /= np.linalg.norm(back)
        assert np.linalg.norm(back - atom.preimage) < 1e-10


def test_werner_reduction_to_negated_sign_sum(rng):
    """For the isotropic target lambda = -lambda', so the response equals
    the negated sign mixture evaluated at lambda."""
    model = vertex_model()
    poly = model.response.polyhedron
    xs = random_unit_vectors(rng, 100)
    w = decompose_directions(poly, xs)
    for atom in model.atoms[:6]:
        assert np.allclose(atom.bloch, -atom.preimage, atol=1e-12)
        direct = w @ np.sign(poly.vertices @ atom.preimage)
        via_lambda = -(w @ np.sign(poly.vertices @ atom.bloch))
        assert np.allclose(direct, via_lambda, atol=1e-12)


def test_tetrahedron_model_isotropic_positive():
    model = build_separable_tetrahedron_model(DiagMat3(1 / 3, 1 / 3, 1 / 3))
    blochs = np.array([a.bloch for a in model.atoms])
    assert np.allclose(np.sort(blochs, axis=0),
                       np.sort(tetrahedron().vertices, axis=0), atol=1e-12)
    for atom in model.atoms:
        assert np.allclose(atom.alice_bloch, atom.bloch, atol=1e-15)
        assert atom.weight == 0.25


def test_tetrahedron_model_critical_werner_sign_fold():
    """Negative entries fold into Alice's vector: eta = -lambda."""
    model = build_separable_tetrahedron_model(DiagMat3(-1 / 3, -1 / 3, -1 / 3))
    for atom in model.atoms:
        assert np.allclose(atom.alice_bloch, -atom.bloch, atol=1e-15)
    blochs = np.array([a.bloch for a in model.atoms])
    assert np.allclose(np.sort(blochs, axis=0),
                       np.sort(tetrahedron().vertices, axis=0), atol=1e-12)


def test_tetrahedron_model_unit_atoms():
    model = build_separable_tetrahedron_model(DiagMat3(0.5, 0.25, 0.25))
    for atom in model.atoms:
        assert np.linalg.norm(atom.bloch) == pytest.approx(1.0, abs=1e-12)


def test_tetrahedron_model_verifies(rng):
    for d in [(0.6, 0.3, 0.1), (-0.2, 0.5, -0.3), (1 / 3, 1 / 3, 1 / 3)]:
        target = DiagMat3(*d)
        model = build_separable_tetrahedron_model(target)
        report = verify_model(model, TState(target), random_unit_vectors(rng, 400))
        assert report.max_residual < 1e-10


def test_tetrahedron_model_rejects_off_boundary():
    with pytest.raises(ValueError):
        build_separable_tetrahedron_model(DiagMat3(0.3, 0.3, 0.3))


def test_entropy_values():
    assert entropy_bits(vertex_model()) == pytest.approx(np.log2(12), abs=1e-12)
    tetra = build_separable_tetrahedron_model(DiagMat3(1 / 3, 1 / 3, 1 / 3))
    assert entropy_bits(tetra) == 2.0
    lone = FiniteLhsModel(
        atoms=(Atom(1.0, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                    alice_bloch=np.array([0.0, 0.0, 1.0])),),
        response=LinearResponse(),
        target=DiagMat3(0.0, 0.0, 1.0),
        visibility=1.0,
    )
    assert entropy_bits(lone) == 0.0


def test_model_weight_normalization_enforced():
    atom = Atom(0.7, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                alice_bloch=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        FiniteLhsModel(atoms=(atom,), response=LinearResponse(),
                       target=DiagMat3(0.0, 0.0, 1.0), visibility=1.0)


def test_atom_validation():
    unit = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        Atom(-0.1, unit, unit)
    with pytest.raises(ValueError):
        Atom(0.5, 2 * unit, unit)


def test_simulated_state_matches_target_scaling():
    model = vertex_model(t=0.5)
    state = model.simulated_state()
    assert state.corr.as_array() == pytest.approx(WERNER.scaled(0.5).as_array())


def test_serialization_roundtrip(rng):
    model = build_icosahedron_model(DiagMat3(0.5, 0.5, 0.35),
                                    random_rotation(rng), visibility=0.6)
    text = model_to_json(model)
    clone = model_from_json(text)
    assert clone.visibility == pytest.approx(model.visibility, abs=0)
    assert clone.target.as_array() == pytest.approx(model.target.as_array(), abs=0)
    for a, b in zip(model.atoms, clone.atoms):
        assert b.weight == pytest.approx(a.weight, abs=0)
        assert np.array_equal(np.round(a.bloch, 15), np.round(b.bloch, 15))
    state = model.simulated_state()
    report = verify_model(clone, state, random_unit_vectors(rng, 200))
    assert report.max_residual < 1e-10


@pytest.mark.parametrize("idx", range(3))
def test_serialization_text_roundtrip_is_exact(idx):
    """Exact-zero Bloch components with a negative target entry are -0.0."""
    text = model_to_json(build_icosahedron_model(WERNER, special_orientations()[idx]))
    assert model_to_json(model_from_json(text)) == text


def test_serialization_roundtrip_linear():
    model = build_separable_tetrahedron_model(DiagMat3(-0.25, 0.35, -0.4))
    clone = model_from_json(model_to_json(model))
    for a, b in zip(model.atoms, clone.atoms):
        assert np.allclose(a.alice_bloch, b.alice_bloch, atol=0)
    assert isinstance(clone.response, LinearResponse)


def test_serialization_field_order_and_precision():
    model = vertex_model()
    text = model_to_json(model)
    assert text.index('"t0"') < text.index('"t"') < text.index('"response_kind"')
    assert text.index('"response_kind"') < text.index('"scale"') < text.index('"atoms"')
    # 17 significant digits keep q = 1/12 exact on reparse
    doc = model_to_dict(model)
    assert doc["atoms"][0]["q"] == pytest.approx(1 / 12, abs=1e-16)
    assert doc["response_kind"] == "sign_mixture"


def test_model_from_dict_rejects_malformed():
    model = vertex_model()
    doc = model_to_dict(model)
    bad = dict(doc)
    bad["response_kind"] = "mystery"
    with pytest.raises(ValueError):
        model_from_dict(bad)
    missing = {k: v for k, v in doc.items() if k != "atoms"}
    with pytest.raises(ValueError):
        model_from_dict(missing)


def test_verification_report_shape(rng):
    model = vertex_model()
    report = verify_model(model, model.simulated_state(), random_unit_vectors(rng, 64))
    d = report.as_dict()
    assert set(d) == {"max_trace_err", "max_bloch_err", "alice_marginal_err",
                      "bob_marginal_err", "certificate_err", "n_directions"}
    assert set(report.worst()) == {"residual", "face"}
    assert report.worst()["residual"] in d
    assert 0 <= report.worst()["face"] < 20
    assert report.max_residual >= max(d["max_trace_err"], d["max_bloch_err"])
    assert all(v >= 0 for k, v in d.items())


def test_verify_model_needs_directions():
    model = vertex_model()
    with pytest.raises(ValueError):
        verify_model(model, model.simulated_state(), np.empty((0, 3)))


@pytest.mark.parametrize("directions,message", [
    (np.empty((0, 3)), "n >= 1"),
    (np.array([[0.0, 0.0, 2.0]]), "unit"),
    (np.array([[0.0, 1.0]]), "shape"),
])
def test_verify_model_needs_unit_directions(directions, message):
    """Both model kinds run the same input check; a linear-response model
    once passed a direction of length 2 with residual 5.6e-17."""
    for model in (vertex_model(), build_separable_tetrahedron_model(DiagMat3(0.2, -0.3, 0.5))):
        with pytest.raises(ValueError, match=message):
            verify_model(model, model.simulated_state(), directions)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_verify_model_rejects_non_finite_directions(bad):
    """A non-finite direction is an input error, not a row whose NaN
    residual drops out of the maximum and passes the gate."""
    for model in (vertex_model(), build_separable_tetrahedron_model(DiagMat3(0.2, -0.3, 0.5))):
        with pytest.raises(ValueError, match="finite"):
            verify_model(model, model.simulated_state(), np.array([[bad, 0.0, 1.0]]))


@pytest.mark.filterwarnings("error")
def test_max_residual_keeps_nan():
    for field in range(5):
        errs = [0.0, 1e-3, 0.0, 0.0, 0.0]
        errs[field] = np.nan
        report = VerificationReport(*errs, n_directions=1)
        assert np.isnan(report.max_residual)
        assert not report.max_residual < 1e-8
    report = VerificationReport(0.0, 2e-3, 1e-3, 0.0, 3e-3, n_directions=1)
    assert report.max_residual == 3e-3
    assert report.worst() == {"residual": "certificate_err", "face": None}


QUATS = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]), QUATS,
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(icosahedron, (1.0, 0.0, 0.0, 0.0), 0, 0.5, 1.0)
@example(cube, (1.0, 0.0, 0.0, 0.0), 0, 0.5, 1.0)
@example(octahedron, (1.0, 0.0, 0.0, 0.0), 0, 0.5, 1.0)
def test_face_maps_match_all_faces_oracle(solid, quat, seed, lam, fraction):
    """x @ A[exit face] is the sign-mixture response of the full convex
    decomposition, on random directions and on directions that tie
    between faces: vertices, edge points and the diagonals of a cube's
    squares, where the argmax alone would name the wrong piece."""
    p = solid(Rotation.from_quat(quat))
    cap = build_polyhedron_model(DiagMat3(-0.5, -0.4, -0.3), p)
    model = build_polyhedron_model(DiagMat3(-0.5, -0.4, -0.3), p,
                                   visibility=fraction * cap.visibility)
    x = np.vstack([random_unit_vectors(np.random.default_rng(seed), 300),
                   tie_directions(p, lam)])
    got = np.einsum("ni,nia->na", x, response_maps(model)[exit_faces(p, x)])
    signs = vertex_signs(p.vertices, model._preimages)
    want = model.response.scale * (all_faces_decompose(p, x) @ signs)
    assert np.abs(got - want).max() <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]), QUATS,
       st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.9]))
def test_certificate_is_exact_on_rotated_solids(solid, quat, seed, fraction):
    """At t_max and below it, on every face of every orientation.  The
    target is physical, so t = 1 is the cap where t_max exceeds it."""
    diag = random_physical_diag(np.random.default_rng(seed))[0]
    assume(np.abs(diag).min() > 1e-3)
    p = solid(Rotation.from_quat(quat))
    cap = build_polyhedron_model(as_diag(diag), p)
    model = build_polyhedron_model(as_diag(diag), p,
                                   visibility=fraction * min(cap.visibility, 1.0))
    report = verify_model(model, model.simulated_state())
    assert report.certificate_err <= 1e-15
    assert report.max_residual < 1e-14
    assert 0 <= report.worst_face < len(p.faces)


def _perturbed(model: FiniteLhsModel, what: str, delta: float) -> FiniteLhsModel:
    """``model`` with weight ``delta`` moved from atom 0 to atom 1, or atom
    0's Bloch vector turned by about ``delta`` (a sign-mixture atom's
    preimage turns with it, as the model requires), or the same model
    claiming visibility (1 - delta) t."""
    atoms = list(model.atoms)
    a, b = atoms[0], atoms[1]
    if what == "q":
        atoms[0] = Atom(a.weight - delta, a.bloch, a.preimage, a.alice_bloch)
        atoms[1] = Atom(b.weight + delta, b.bloch, b.preimage, b.alice_bloch)
    elif what == "lambda":
        turn = np.cross(a.bloch, [0.6, 0.0, 0.8])
        bloch = a.bloch + delta * turn / np.linalg.norm(turn)
        bloch /= np.linalg.norm(bloch)
        if a.alice_bloch is None:
            pre = bloch / model.target.as_array()
            atoms[0] = Atom(a.weight, bloch, pre / np.linalg.norm(pre))
        else:
            atoms[0] = Atom(a.weight, bloch, a.preimage, a.alice_bloch)
    else:
        return FiniteLhsModel(atoms=model.atoms, response=model.response,
                              target=model.target, visibility=(1 - delta) * model.visibility)
    return FiniteLhsModel(atoms=tuple(atoms), response=model.response,
                          target=model.target, visibility=model.visibility)


@pytest.mark.parametrize("what", ["q", "lambda", "t"])
@pytest.mark.parametrize("kind", ["icosahedron", "cube", "octahedron", "tetrahedron"])
def test_perturbed_models_fail_certificate_and_grid(kind, what, rng):
    if kind == "tetrahedron":
        model = build_separable_tetrahedron_model(DiagMat3(-0.25, 0.35, -0.4))
    else:
        maker = {"icosahedron": icosahedron, "cube": cube, "octahedron": octahedron}[kind]
        model = build_polyhedron_model(DiagMat3(-0.5, -0.4, -0.3), maker(random_rotation(rng)))
    x = random_unit_vectors(rng, 2000)
    exact = verify_model(model, model.simulated_state(), x)
    assert exact.max_residual < 1e-14
    bad = _perturbed(model, what, 1e-3)
    report = verify_model(bad, bad.simulated_state(), x)
    grid = max(report.max_trace_err, report.max_bloch_err)
    assert report.certificate_err > 1e-5
    assert grid > 1e-5
    # the certificate bounds the grid's trace and Bloch residuals
    assert grid <= report.certificate_err + 0.5 * report.bob_marginal_err + 1e-15
