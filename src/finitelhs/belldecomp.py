"""Explicit 4x4 matrix machinery: Bell basis, densities, product decompositions.

Everything else in the package works in Bloch coordinates; this module is
the oracle that builds actual complex matrices, and it also constructs the
known four-product-state decompositions of the critical separable state
with isotropic correlation diagonal -1/3.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

PRODUCT_TOL = 1e-12

_E = np.eye(4, dtype=complex)

# Columns: (00+11), (00-11), (01+10), (01-10), all over sqrt(2).  This is
# the same order qstate.bell_weights_of_diag uses for its entries.
BELL_BASIS = np.stack([
    (_E[0] + _E[3]) / np.sqrt(2.0),
    (_E[0] - _E[3]) / np.sqrt(2.0),
    (_E[1] + _E[2]) / np.sqrt(2.0),
    (_E[1] - _E[2]) / np.sqrt(2.0),
], axis=1)


def critical_separable_density() -> np.ndarray:
    """Density of TState(diag(-1/3, -1/3, -1/3)): weight 1/2 on the singlet
    and 1/6 on each triplet Bell state."""
    weights = (1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, 3.0 / 6.0)
    rho = np.zeros((4, 4), dtype=complex)
    for w, col in zip(weights, BELL_BASIS.T):
        rho += w * np.outer(col, col.conj())
    return rho


def _phase_fix(vec: np.ndarray) -> np.ndarray:
    """Make the first nonzero amplitude (preferring |00>) real nonnegative."""
    amp = vec[0]
    if abs(amp) <= PRODUCT_TOL:
        amp = vec[np.argmax(np.abs(vec) > PRODUCT_TOL)]
    return vec * (amp.conjugate() / abs(amp))


def product_state_decomposition(mirror: bool = False) -> list[np.ndarray]:
    """Four product states whose uniform mixture is the critical separable
    density.

    The seed state is (sin(a/2)|0> - cos(a/2)e^{ib}|1>) (x)
    (cos(a/2)|0> + sin(a/2)e^{ib}|1>) with a = arccos(1/sqrt3) and
    b = -pi/4; the other three are its images under sigma_k (x) sigma_k.
    ``mirror`` flips b to +pi/4, which reflects the extracted Bloch
    vectors through the origin.
    """
    alpha = np.arccos(1.0 / np.sqrt(3.0))
    beta = np.pi / 4.0 if mirror else -np.pi / 4.0
    phase = np.exp(1j * beta)
    alice = np.array([np.sin(alpha / 2.0), -np.cos(alpha / 2.0) * phase])
    bob = np.array([np.cos(alpha / 2.0), np.sin(alpha / 2.0) * phase])
    seed = np.kron(alice, bob)
    states = [seed] + [np.kron(s, s) @ seed for s in PAULIS]
    return [_phase_fix(v) for v in states]


def mirror_decomposition() -> list[np.ndarray]:
    return product_state_decomposition(mirror=True)


def schmidt_residual(vec: np.ndarray) -> float:
    """Second Schmidt coefficient; zero exactly for product states."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (4,):
        raise ValueError(f"state vector must have shape (4,), got {vec.shape}")
    return float(np.linalg.svd(vec.reshape(2, 2), compute_uv=False)[1])


def extract_local_blochs(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors (alice, bob) of the reduced states of a product vector.

    Raises ValueError when the input is entangled (second Schmidt
    coefficient above tolerance) or not normalized.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (4,):
        raise ValueError(f"state vector must have shape (4,), got {vec.shape}")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("state vector must be normalized")
    amp = vec.reshape(2, 2)
    second = np.linalg.svd(amp, compute_uv=False)[1]
    if second > PRODUCT_TOL:
        raise ValueError(f"not a product state: second Schmidt coefficient {second:.3e}")
    rho_a = amp @ amp.conj().T
    rho_b = amp.T @ amp.conj()
    alice = np.array([np.trace(rho_a @ s).real for s in PAULIS])
    bob = np.array([np.trace(rho_b @ s).real for s in PAULIS])
    return alice, bob
