import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finitelhs.geometry import (
    SOLID_CONSTANTS,
    Rotation,
    cube,
    decompose_directions,
    exit_faces,
    icosahedron,
    octahedron,
    random_rotation,
    special_orientations,
    tetrahedron,
    vertex_signs,
)
from finitelhs.lhsmodel import (
    RESIDUALS,
    FiniteLhsModel,
    LinearResponse,
    SignMixture,
    VerificationReport,
    build_polyhedron_model,
    build_separable_tetrahedron_model,
    entropy_bits,
    mapped_norms,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    response_maps,
    verify_model,
)
from finitelhs.cli import RESIDUAL_GATE
from finitelhs.qstate import DiagMat3, TState

from conftest import (
    as_diag,
    random_axial_physical_diag,
    random_physical_diag,
    random_unit_vectors,
    tie_directions,
)
from certificate_oracle import exact_certificate, frame_is_exact
from convex_hull_oracle import hull_polyhedron
from decompose_oracle import all_faces_decompose, einsum_mapped_norms
from qstate_oracle import Measurement
from response_oracle import (
    convex_decompose,
    response_probability,
    response_value,
    row_verify_model,
)
from sphere_quadrature import fibonacci_sphere

WERNER = DiagMat3(-0.5, -0.5, -0.5)
GAMMA = 1 + np.sqrt(5)
INRADIUS = np.sqrt((5 + 2 * np.sqrt(5)) / 15)
WERNER_T_MAX = GAMMA * INRADIUS / 3  # = 0.8571852969867928
QUATS = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)


def vertex_model(t=None):
    return build_polyhedron_model(WERNER, icosahedron(special_orientations()[0]), visibility=t)


UNIT = np.array([0.0, 0.0, 1.0])


def linear_model(weights, blochs) -> FiniteLhsModel:
    """Linear-response atoms with ``weights`` and ``blochs``, each its own
    preimage and eta, on the target diag(0, 0, 1)."""
    return FiniteLhsModel(weights=weights, blochs=blochs, preimages=blochs,
                          response=LinearResponse(), target=DiagMat3(0.0, 0.0, 1.0),
                          visibility=1.0, etas=blochs)


def test_werner_model_weights_and_visibility():
    model = vertex_model()
    assert model.visibility == pytest.approx(WERNER_T_MAX, abs=1e-12)
    assert np.allclose(model.weights, 1 / 12, atol=1e-15)
    assert model.weights.shape == (12,)


def test_werner_model_verifies_at_t_max(rng):
    model = vertex_model()
    state = TState(WERNER.scaled(model.visibility))
    report = verify_model(model, state, random_unit_vectors(rng, 1000))
    assert report.max_residual < 1e-10
    assert report.n_directions == 1000


def test_werner_model_any_orientation_same_t_max(rng):
    for _ in range(5):
        model = build_polyhedron_model(WERNER, icosahedron(random_rotation(rng)))
        assert model.visibility == pytest.approx(WERNER_T_MAX, abs=1e-12)


def test_axial_t_max_matches_vertex_formula():
    """Vertex-aligned t_max equals the closed form S_A * gamma * l / 6."""
    t0x, t0z = 0.55, 0.3
    model = build_polyhedron_model(DiagMat3(t0x, t0x, t0z),
                                   icosahedron(special_orientations()[0]))
    big_x, big_z = t0x**2, t0z**2
    s_vertex = 6 / (np.sqrt(big_z) + np.sqrt(20 * big_x + 5 * big_z))
    assert model.visibility == pytest.approx(s_vertex * GAMMA * INRADIUS / 6, abs=1e-12)


def test_builder_rejects_singular_target():
    with pytest.raises(ValueError):
        build_polyhedron_model(DiagMat3(0.5, 0.5, 0.0), icosahedron())


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
@example([(1.0, 0.0, 0.0, 0.0)], 0)
def test_batched_visibility_matches_the_builder(quats, seed):
    """One mapped_norms call over a batch of rotated icosahedra and
    physical diagonals gives each model's weights and, with the exact
    constants that the orientation search and ``optimize`` use, its
    visibility, bit for bit."""
    assume(min(np.linalg.norm(q) for q in quats) > 0.1)
    polys = [icosahedron(Rotation.from_quat(q)) for q in quats]
    diags = random_physical_diag(np.random.default_rng(seed), len(quats))
    assume(np.abs(diags).min() > 1e-3)
    norms, total = mapped_norms(np.stack([p.vertices for p in polys]), diags)
    exact = SOLID_CONSTANTS["icosahedron"].numerator / total
    for p, d, n, t, vis in zip(polys, diags, norms, total, exact):
        model = build_polyhedron_model(as_diag(d), p)
        assert np.array_equal(n / t, model.weights)
        assert vis == model.visibility


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]),
       st.sampled_from([(), (1,), (4,), (2, 3)]),
       st.booleans(),
       st.integers(0, 2**32 - 1))
def test_mapped_norms_match_the_norm_oracle(solid, batch, shared, seed):
    """Bit for bit the norms and sums that np.linalg.norm gives, over
    batches of rotated solids, with one diagonal for the batch or one per
    solid; diagonals of any sign and scale, some entries zero."""
    rng = np.random.default_rng(seed)
    vertices = np.stack([solid(random_rotation(rng)).vertices
                         for _ in range(int(np.prod(batch)))]).reshape(*batch, -1, 3)
    diag = rng.standard_normal(3 if shared else (*batch, 3)) * 10.0 ** rng.integers(-3, 4, 3)
    diag[rng.random(diag.shape) < 0.2] = 0.0
    norms, total = mapped_norms(vertices, diag)
    expected_norms, expected_total = einsum_mapped_norms(vertices, diag)
    assert norms.shape == expected_norms.shape and total.shape == expected_total.shape
    assert np.array_equal(norms, expected_norms) and np.array_equal(total, expected_total)


@pytest.mark.parametrize("maker", [icosahedron, cube, octahedron])
def test_visibility_is_one_formula_per_solid(maker, rng):
    """At Haar-random orientations and physical diagonals, t_max is exactly
    c * inradius / sum_i |T0 v_i| over the model's vertices, with the exact
    constants of the solid's row in SOLID_CONSTANTS, which the scan and the
    orientation search share."""
    solid = SOLID_CONSTANTS[maker().kind]
    c, inradius = solid.sign_sum, solid.inradius
    for d in random_physical_diag(rng, 200):
        if np.abs(d).min() < 1e-3:
            continue
        p = maker(random_rotation(rng))
        _, total = mapped_norms(p.vertices, d)
        assert build_polyhedron_model(as_diag(d), p).visibility == c * inradius / total


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
    rotations = [None, *special_orientations()]
    rotations += [random_rotation(np.random.default_rng(seed)) for seed in range(5)]
    for rot in rotations:
        model = build_polyhedron_model(target, maker(rot))
        report = verify_model(model, model.simulated_state(), fibonacci_sphere(1024))
        assert report.max_residual < 1e-10


def test_generic_rejects_unsupported_polyhedron():
    mixed = hull_polyhedron(np.vstack([cube().vertices, octahedron().vertices]))
    with pytest.raises(ValueError):
        build_polyhedron_model(DiagMat3(0.3, 0.3, 0.3), mixed)


def test_generic_rejects_tetrahedron():
    with pytest.raises(ValueError):
        build_polyhedron_model(DiagMat3(0.3, 0.3, 0.3), tetrahedron())


def test_sign_mixture_needs_inversion_symmetry():
    with pytest.raises(ValueError, match="'tetrahedron': not inversion symmetric"):
        SignMixture(tetrahedron())


def test_response_at_vertex_direction():
    model = vertex_model()
    v = model.response.polyhedron.vertices
    for k in (0, 7):
        got = response_value(model, k, v[k])
        # brute force: omega(v_k) . sign(v . v_k)
        w = convex_decompose(model.response.polyhedron, v[k])
        brute = float(w @ np.sign(v @ v[k]))
        assert got == pytest.approx(brute, abs=1e-14)
        assert 0.0 < got <= 1.0


def test_response_scale_zero_everywhere(rng):
    model = vertex_model(t=0.0)
    for x in random_unit_vectors(rng, 50):
        for i in range(3):
            assert response_value(model, i, x) == 0.0


def test_response_bound_and_probability_normalization(rng):
    model = vertex_model()
    xs = random_unit_vectors(rng, 1000)
    for i in range(4):
        for x in xs[:250]:
            f = response_value(model, i, x)
            assert abs(f) <= 1.0 + 1e-14
            p_plus = response_probability(model, i, Measurement(x, 1))
            p_minus = response_probability(model, i, Measurement(x, -1))
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)
            assert 0.0 <= p_plus <= 1.0


def test_response_probability_values():
    # p(a | f) = (1 + a f) / 2
    assert 0.5 * (1 + (-1) * (-0.4)) == pytest.approx(0.7)
    model = build_separable_tetrahedron_model(DiagMat3(1 / 3, 1 / 3, 1 / 3))
    eta = model.etas[0]
    x = np.array([eta[1], -eta[0], 0.0])
    x /= np.linalg.norm(x)
    assert response_value(model, 0, x) == pytest.approx(0.0, abs=1e-15)
    m = Measurement(x, 1)
    assert response_probability(model, 0, m) == pytest.approx(0.5, abs=1e-15)


def test_response_odd_symmetry(rng):
    """f(x, -lambda') = -f(x, lambda') and atoms pair up antipodally."""
    row = random_axial_physical_diag(rng, 1)[0]
    target = as_diag(0.9 * row + 0.05 * np.sign(row))  # keep entries nonzero
    if target.is_singular:
        target = DiagMat3(0.3, 0.3, 0.5)
    model = build_polyhedron_model(target, icosahedron(random_rotation(rng)))
    pre, q = model.preimages, model.weights
    for i in range(len(q)):
        j = int(np.argmin(np.linalg.norm(pre + pre[i], axis=1)))
        assert np.linalg.norm(pre[j] + pre[i]) < 1e-12
        assert q[j] == pytest.approx(q[i], abs=1e-15)
        for x in random_unit_vectors(rng, 20):
            assert response_value(model, j, x) == pytest.approx(
                -response_value(model, i, x), abs=1e-12)


def test_atom_mapping_consistency(rng):
    target = DiagMat3(0.6, 0.6, 0.25)
    model = build_polyhedron_model(target, icosahedron(random_rotation(rng)))
    inv = np.array([1 / 0.6, 1 / 0.6, 1 / 0.25])
    back = inv * model.blochs
    back /= np.linalg.norm(back, axis=1, keepdims=True)
    assert np.linalg.norm(back - model.preimages, axis=1).max() < 1e-10


def test_werner_reduction_to_negated_sign_sum(rng):
    """For the isotropic target lambda = -lambda', so the response equals
    the negated sign mixture evaluated at lambda."""
    model = vertex_model()
    poly = model.response.polyhedron
    xs = random_unit_vectors(rng, 100)
    w = decompose_directions(poly, xs)
    for bloch, preimage in zip(model.blochs[:6], model.preimages[:6]):
        assert np.allclose(bloch, -preimage, atol=1e-12)
        direct = w @ np.sign(poly.vertices @ preimage)
        via_lambda = -(w @ np.sign(poly.vertices @ bloch))
        assert np.allclose(direct, via_lambda, atol=1e-12)


def test_tetrahedron_model_isotropic_positive():
    model = build_separable_tetrahedron_model(DiagMat3(1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(np.sort(model.blochs, axis=0),
                       np.sort(tetrahedron().vertices, axis=0), atol=1e-12)
    assert np.allclose(model.etas, model.blochs, atol=1e-15)
    assert np.array_equal(model.weights, np.full(4, 0.25))


def test_tetrahedron_model_critical_werner_sign_fold():
    """Negative entries fold into Alice's vector: eta = -lambda."""
    model = build_separable_tetrahedron_model(DiagMat3(-1 / 3, -1 / 3, -1 / 3))
    assert np.allclose(model.etas, -model.blochs, atol=1e-15)
    assert np.allclose(np.sort(model.blochs, axis=0),
                       np.sort(tetrahedron().vertices, axis=0), atol=1e-12)


def test_tetrahedron_model_unit_atoms():
    model = build_separable_tetrahedron_model(DiagMat3(0.5, 0.25, 0.25))
    assert np.allclose(np.linalg.norm(model.blochs, axis=1), 1.0, atol=1e-12)


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
    assert entropy_bits(linear_model([1.0], [UNIT])) == 0.0


def test_model_weight_normalization_enforced():
    with pytest.raises(ValueError, match="must sum to 1, got 0.7"):
        linear_model([0.7], [UNIT])


def test_atom_validation():
    """The model checks its arrays, each with its own message."""
    with pytest.raises(ValueError, match="nonnegative, got -0.1 at atom 0"):
        linear_model([-0.1, 1.1], [UNIT, UNIT])
    with pytest.raises(ValueError, match="atom bloch must be unit vectors"):
        linear_model([0.5, 0.5], [2 * UNIT, UNIT])
    with pytest.raises(ValueError, match="one bloch and one preimage per weight"):
        linear_model([0.5, 0.5], [UNIT])
    with pytest.raises(ValueError, match="atom bloch must have shape"):
        linear_model([], np.empty((0, 3)))
    for etas in (None, [UNIT]):         # none, or fewer than the atoms
        with pytest.raises(ValueError, match="linear-response atoms need alice_bloch set"):
            FiniteLhsModel(weights=[0.5, 0.5], blochs=[UNIT, -UNIT], preimages=[UNIT, -UNIT],
                           response=LinearResponse(), target=DiagMat3(0.0, 0.0, 1.0),
                           visibility=1.0, etas=etas)


@pytest.mark.parametrize("make", [vertex_model, lambda: linear_model([0.5, 0.5], [UNIT, -UNIT])])
def test_model_arrays_are_read_only_copies(make):
    """Editing a model's array, or the array it was built from, cannot
    change a model that passed the checks."""
    model = make()
    for arr in (model.weights, model.blochs, model.preimages):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    if model.etas is not None:
        with pytest.raises(ValueError, match="read-only"):
            model.etas[0] = 0.0
    source = np.array([UNIT, -UNIT])
    lone = linear_model([0.5, 0.5], source)
    source[0] = 2 * UNIT
    assert np.array_equal(lone.blochs, [UNIT, -UNIT])
    assert np.array_equal(lone.etas, [UNIT, -UNIT])


def test_sign_mixture_drops_checked_etas():
    """A sign mixture carries no etas: given ones are checked, then dropped."""
    model = vertex_model()
    kw = dict(weights=model.weights, blochs=model.blochs, preimages=model.preimages,
              response=model.response, target=model.target, visibility=model.visibility)
    assert FiniteLhsModel(**kw, etas=model.blochs).etas is None
    with pytest.raises(ValueError, match="atom alice_bloch must be finite"):
        FiniteLhsModel(**kw, etas=[[np.nan, 0.0, 1.0]])


def test_simulated_state_matches_target_scaling():
    model = vertex_model(t=0.5)
    state = model.simulated_state()
    assert state.corr.as_array() == pytest.approx(WERNER.scaled(0.5).as_array())


def test_serialization_roundtrip(rng):
    model = build_polyhedron_model(DiagMat3(0.5, 0.5, 0.35),
                                   icosahedron(random_rotation(rng)), visibility=0.6)
    text = model_to_json(model)
    clone = model_from_json(text)
    assert clone.visibility == pytest.approx(model.visibility, abs=0)
    assert clone.target.as_array() == pytest.approx(model.target.as_array(), abs=0)
    assert np.array_equal(clone.weights, model.weights)
    assert np.array_equal(np.round(model.blochs, 15), np.round(clone.blochs, 15))
    state = model.simulated_state()
    report = verify_model(clone, state, random_unit_vectors(rng, 200))
    assert report.max_residual < 1e-10


@pytest.mark.parametrize("idx", range(3))
def test_serialization_text_roundtrip_is_exact(idx):
    """Exact-zero Bloch components with a negative target entry are -0.0."""
    model = build_polyhedron_model(WERNER, icosahedron(special_orientations()[idx]))
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text


def test_serialization_roundtrip_linear():
    model = build_separable_tetrahedron_model(DiagMat3(-0.25, 0.35, -0.4))
    clone = model_from_json(model_to_json(model))
    assert np.allclose(model.etas, clone.etas, atol=0)
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


def _model_arrays(m: FiniteLhsModel) -> list:
    return [m.weights, m.blochs, m.preimages, m.etas,
            m.target.as_array(), m.visibility, getattr(m.response, "scale", 1.0)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]), QUATS,
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_max=True))
@example(icosahedron, (1.0, 0.0, 0.0, 0.0), 0, 0.5)
def test_json_roundtrip_is_identical(solid, quat, seed, fraction):
    """A JSON round trip returns the same arrays, bit for bit, for the
    sign-mixture models of the three solids at random orientations,
    physical diagonals and sub-maximal visibilities, and for the
    tetrahedron model on the diagonal scaled onto the separable boundary.
    The clone's verification report is the model's, bit for bit: a loaded
    sign mixture is the solid it was built on, with the table's inradius.
    The state is the model's own where that is physical (t <= 1 on a
    physical diagonal always is)."""
    diag = random_physical_diag(np.random.default_rng(seed))[0]
    assume(np.abs(diag).min() > 1e-3)
    p = solid(Rotation.from_quat(quat))
    cap = build_polyhedron_model(as_diag(diag), p)
    models = [build_polyhedron_model(as_diag(diag), p, visibility=fraction * cap.visibility),
              build_separable_tetrahedron_model(as_diag(diag / np.abs(diag).sum()))]
    for model in models:
        clone = model_from_json(model_to_json(model))
        assert type(clone.response) is type(model.response)
        for a, b in zip(_model_arrays(model), _model_arrays(clone)):
            assert np.array_equal(a, b)
        state = TState(model.target.scaled(min(model.visibility, 1.0)))
        assert repr(verify_model(clone, state, fibonacci_sphere(64))) == repr(
            verify_model(model, state, fibonacci_sphere(64)))


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


@pytest.mark.parametrize("key,value,message", [
    ("lambda", [0.0, 1.0], "atom 0 lambda must have shape (3,), got (2,)"),
    ("lambda_prime", [[0.0, 0.0, 1.0]], "atom 0 lambda_prime must have shape (3,), got (1, 3)"),
    ("q", [0.5], "atom 0 q must have shape (), got (1,)"),
    ("q", "0.5", "atom 0 q: expected a number, got str"),
    ("q", True, "atom 0 q: expected a number, got bool"),
    ("lambda", [0.0, True, 1.0], "atom 0 lambda: expected a number, got bool"),
    ("lambda", (0.0, 0.0, 1.0), "atom 0 lambda: expected a number, got tuple"),
])
def test_model_from_dict_names_the_first_atom_of_a_bad_column(key, value, message):
    """The same bad entry in every atom: the column parsed in one pass is
    rejected, and the atom-by-atom parse names atom 0."""
    doc = model_to_dict(vertex_model())
    doc["atoms"] = [{**atom, key: value} for atom in doc["atoms"]]
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_dict(doc)


def test_verification_report_shape(rng):
    model = vertex_model()
    report = verify_model(model, model.simulated_state(), random_unit_vectors(rng, 64))
    d = report.as_dict()
    assert set(d) == {"max_trace_err", "max_bloch_err", "alice_marginal_err",
                      "bob_marginal_err", "certificate_err", "n_directions"}
    assert report.worst() == {"residual": None, "face": None}
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


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.integers(1, 400), st.integers(0, 2**32 - 1))
@example((0.5, -0.25, 0.25), 1, 0)
def test_linear_grid_matches_the_row_oracle(diag, n, seed):
    """A linear-response report is bit for bit that of
    ``row_verify_model``, whose products are rows of x @ A, not A^T x^T."""
    d = np.array(diag)
    assume(np.abs(d).sum() > 0.1)
    model = build_separable_tetrahedron_model(DiagMat3(*(d / np.abs(d).sum())))
    state = model.simulated_state()
    x = random_unit_vectors(np.random.default_rng(seed), n)
    assert repr(verify_model(model, state, x)) == repr(row_verify_model(model, state, x))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]), QUATS,
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(icosahedron, (1.0, 0.0, 0.0, 0.0), 0, 0.5, 1.0)
@example(cube, (1.0, 0.0, 0.0, 0.0), 0, 0.5, 1.0)
@example(octahedron, (1.0, 0.0, 0.0, 0.0), 0, 0.5, 1.0)
@example(cube, (1.0, 0.0, 0.0, 0.0), 0, 1e-12, 1.0)
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
    signs = vertex_signs(p.vertices, model.preimages)
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
    report = verify_model(model, model.simulated_state(), fibonacci_sphere(1024))
    assert report.certificate_err <= 1e-15
    assert report.max_residual < 1e-14
    assert report.worst_face is None


def _perturbed(model: FiniteLhsModel, what: str, delta: float) -> FiniteLhsModel:
    """``model`` with weight ``delta`` moved from atom 0 to atom 1, or atom
    0's Bloch vector turned by about ``delta`` (a sign-mixture atom's
    preimage turns with it, as the model requires), or the same model
    claiming visibility (1 - delta) t."""
    q, blochs, preimages = (np.array(a) for a in (model.weights, model.blochs, model.preimages))
    visibility = model.visibility
    if what == "q":
        q[:2] += [-delta, delta]
    elif what == "lambda":
        turn = np.cross(blochs[0], [0.6, 0.0, 0.8])
        blochs[0] += delta * turn / np.linalg.norm(turn)
        blochs[0] /= np.linalg.norm(blochs[0])
        if model.etas is None:
            preimages[0] = blochs[0] / model.target.as_array()
            preimages[0] /= np.linalg.norm(preimages[0])
    else:
        visibility *= 1 - delta
    return FiniteLhsModel(weights=q, blochs=blochs, preimages=preimages,
                          response=model.response, target=model.target,
                          visibility=visibility, etas=model.etas)


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
    # rounding noise names nothing; a fault names its residual and face
    assert exact.worst() == {"residual": None, "face": None}
    assert report.worst()["residual"] in RESIDUALS
    assert (report.worst_face is None) == (kind == "tetrahedron")
    assert report.certificate_err > 1e-5
    assert grid > 1e-5
    # the certificate bounds the grid's trace and Bloch residuals
    assert grid <= report.certificate_err + 0.5 * report.bob_marginal_err + 1e-15


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([icosahedron, cube, octahedron]), QUATS,
       st.integers(0, 2**32 - 1), st.booleans())
@example(icosahedron, (1.0, 0.0, 0.0, 0.0), 0, True)
def test_certificate_is_within_1e15_of_the_exact_deviation(solid, quat, seed, loaded):
    """On rotated models, built or loaded from JSON, at their largest
    visibility up to 1, the float certificate lies within 1e-15 of the
    true deviation of the model's arrays, computed in rationals."""
    diag = as_diag(random_physical_diag(np.random.default_rng(seed))[0])
    assume(not diag.is_singular)
    poly = solid(Rotation.from_quat(quat))
    model = build_polyhedron_model(diag, poly)
    if model.visibility > 1.0:
        model = build_polyhedron_model(diag, poly, visibility=1.0)
    if loaded:
        model = model_from_json(model_to_json(model))
    state = model.simulated_state()
    report = verify_model(model, state, np.array([[0.0, 0.0, 1.0]]))
    assert abs(report.certificate_err - exact_certificate(model, state)) <= 1e-15


@pytest.mark.parametrize("kind", ["icosahedron", "cube", "octahedron", "tetrahedron"])
def test_a_weight_moved_by_1e6_fails_the_gate_exactly(kind, rng):
    """Moving 1e-6 of weight from atom 0 to atom 1 takes the exact
    deviation, and the float certificate with it, past the residual gate;
    the model as built is within 1e-15 of exact."""
    if kind == "tetrahedron":
        model = build_separable_tetrahedron_model(DiagMat3(-0.25, 0.35, -0.4))
    else:
        maker = {"icosahedron": icosahedron, "cube": cube, "octahedron": octahedron}[kind]
        model = build_polyhedron_model(DiagMat3(-0.5, -0.4, -0.3), maker(random_rotation(rng)))
    assert exact_certificate(model, model.simulated_state()) <= 1e-15
    bad = _perturbed(model, "q", 1e-6)
    state = bad.simulated_state()
    exact = exact_certificate(bad, state)
    report = verify_model(bad, state, np.array([[0.0, 0.0, 1.0]]))
    assert exact >= RESIDUAL_GATE and report.certificate_err >= RESIDUAL_GATE
    assert abs(report.certificate_err - exact) <= 1e-15


@pytest.mark.parametrize("solid", [icosahedron, cube, octahedron, tetrahedron])
def test_canonical_frames_hold_exactly(solid):
    """Each built-in solid's face table on its canonical vertices closes
    into one oriented surface with every vertex on or behind every face
    plane and the origin strictly behind it, in exact arithmetic."""
    assert frame_is_exact(solid())
