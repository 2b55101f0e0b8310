import numpy as np
import pytest

from finitelhs.belldecomp import (
    BELL_BASIS,
    PAULIS,
    critical_separable_density,
    extract_local_blochs,
    mirror_decomposition,
    product_state_decomposition,
    schmidt_residual,
)
from finitelhs.geometry import tetrahedron
from finitelhs.lhsmodel import FiniteLhsModel, LinearResponse, verify_model
from finitelhs.qstate import DiagMat3, TState, bell_weights_of_diag

from conftest import as_diag, random_physical_diag, random_unit_vectors
from qstate_oracle import bell_weights, tstate_density


def sorted_rows(arr):
    arr = np.asarray(arr)
    return arr[np.lexsort(arr.T[::-1])]


def test_bell_basis_is_orthonormal():
    gram = BELL_BASIS.conj().T @ BELL_BASIS
    assert np.allclose(gram, np.eye(4), atol=1e-14)
    resolution = BELL_BASIS @ BELL_BASIS.conj().T
    assert np.allclose(resolution, np.eye(4), atol=1e-14)


def test_tstate_density_of_zero_correlation():
    rho = tstate_density(TState(DiagMat3(0.0, 0.0, 0.0)))
    assert np.allclose(rho, np.eye(4) / 4.0, atol=0)


def test_tstate_density_is_a_density_matrix(rng):
    for row in random_physical_diag(rng, 50):
        rho = tstate_density(TState(as_diag(row)))
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_bell_weights_are_the_bell_diagonal(rng):
    for row in random_physical_diag(rng, 100):
        state = TState(as_diag(row))
        rho = tstate_density(state)
        diag = np.diag(BELL_BASIS.conj().T @ rho @ BELL_BASIS).real
        assert np.allclose(diag, bell_weights_of_diag(row), atol=1e-12)
    off = BELL_BASIS.conj().T @ tstate_density(TState(DiagMat3(0.3, -0.2, 0.4))) @ BELL_BASIS
    assert np.abs(off - np.diag(np.diag(off))).max() < 1e-14


def test_critical_separable_density_matches_isotropic_third():
    direct = tstate_density(TState(DiagMat3(-1 / 3, -1 / 3, -1 / 3)))
    assert np.allclose(critical_separable_density(), direct, atol=1e-12)
    # and the singlet weight really is the big one
    w = bell_weights(TState(DiagMat3(-1 / 3, -1 / 3, -1 / 3)))
    assert w == pytest.approx([1 / 6, 1 / 6, 1 / 6, 1 / 2], abs=1e-15)


def test_pauli_pairs_permute_bell_states():
    """sigma_k (x) sigma_k maps each Bell state to a Bell state, up to phase."""
    for sigma in PAULIS:
        op = np.kron(sigma, sigma)
        table = np.abs(BELL_BASIS.conj().T @ op @ BELL_BASIS)
        assert np.allclose(np.sort(table, axis=0)[:3], 0.0, atol=1e-14)
        assert np.allclose(np.sort(table, axis=0)[3], 1.0, atol=1e-14)


@pytest.mark.parametrize("family", [product_state_decomposition, mirror_decomposition])
def test_decomposition_states_are_normalized_products(family):
    states = family()
    assert len(states) == 4
    for vec in states:
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert schmidt_residual(vec) < 1e-12
        # phase convention: first nonzero amplitude real and nonnegative
        lead = vec[np.argmax(np.abs(vec) > 1e-12)]
        assert abs(lead.imag) < 1e-14
        assert lead.real > 0


@pytest.mark.parametrize("family", [product_state_decomposition, mirror_decomposition])
def test_decomposition_reconstructs_critical_density(family):
    rho = sum(0.25 * np.outer(v, v.conj()) for v in family())
    assert np.abs(rho - critical_separable_density()).max() < 1e-12


def test_decomposition_overlaps_are_uniform():
    states = product_state_decomposition()
    overlaps = [abs(states[i].conj() @ states[j])
                for i in range(4) for j in range(i + 1, 4)]
    assert overlaps == pytest.approx([1 / 3] * 6, abs=1e-12)


def test_decomposition_orbit_is_conjugation_invariant():
    states = product_state_decomposition()
    for sigma in PAULIS:
        op = np.kron(sigma, sigma)
        table = np.abs(np.stack([op @ v for v in states]).conj() @ np.stack(states).T)
        # each image coincides with exactly one family member (up to phase)
        assert np.allclose(np.sort(table, axis=1)[:, 3], 1.0, atol=1e-12)


def test_extract_local_blochs_basics():
    alice, bob = extract_local_blochs(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(alice, [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(bob, [0.0, 0.0, 1.0], atol=1e-14)
    with pytest.raises(ValueError):
        extract_local_blochs(BELL_BASIS[:, 3])
    with pytest.raises(ValueError):
        extract_local_blochs(np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        extract_local_blochs(np.zeros(3))


def test_seed_state_bob_bloch():
    alice, bob = extract_local_blochs(product_state_decomposition()[0])
    assert np.allclose(bob, np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0), atol=1e-12)
    assert np.allclose(alice, -bob, atol=1e-12)


@pytest.mark.parametrize("family,sign", [(product_state_decomposition, 1.0),
                                         (mirror_decomposition, -1.0)])
def test_bloch_vectors_form_tetrahedra(family, sign):
    pairs = [extract_local_blochs(v) for v in family()]
    alice = np.stack([p[0] for p in pairs])
    bob = np.stack([p[1] for p in pairs])
    assert np.allclose(alice, -bob, atol=1e-12)
    tet = tetrahedron().vertices
    assert np.allclose(sorted_rows(bob), sorted_rows(sign * tet), atol=1e-10)


def test_extracted_vectors_make_a_working_lhs_model(rng):
    """The decomposition is itself a four-atom LHS model for the critical
    separable state: Bob's vectors are the hidden states, Alice responds
    linearly with her own."""
    pairs = [extract_local_blochs(v) for v in product_state_decomposition()]
    alice = np.stack([p[0] for p in pairs])
    bob = np.stack([p[1] for p in pairs])
    model = FiniteLhsModel(
        weights=np.full(4, 0.25),
        blochs=bob,
        preimages=bob,
        response=LinearResponse(),
        target=DiagMat3(-1 / 3, -1 / 3, -1 / 3),
        visibility=1.0,
        etas=alice,
    )
    state = TState(DiagMat3(-1 / 3, -1 / 3, -1 / 3))
    report = verify_model(model, state, random_unit_vectors(rng, 500))
    assert report.max_residual < 1e-10


def test_schmidt_residual_values():
    assert schmidt_residual(BELL_BASIS[:, 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-14)
    assert schmidt_residual(np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        schmidt_residual(np.eye(4))
