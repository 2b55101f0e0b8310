"""End-to-end acceptance checks.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them all) and then asserts, so a red criterion is visible both ways.
"""

import time

import numpy as np
import pytest

from finitelhs.belldecomp import (
    critical_separable_density,
    extract_local_blochs,
    mirror_decomposition,
    product_state_decomposition,
    schmidt_residual,
)
from finitelhs.boundary import (
    axial_boundary_solve,
    norm_integral,
    sample_axial_family,
)
from finitelhs.cli import main as cli_main
from finitelhs.geometry import (
    ICOSAHEDRON_INRADIUS,
    ICOSAHEDRON_SIGN_SUM,
    decompose_directions,
    icosahedron,
    random_rotation,
    special_orientations,
    tetrahedron,
)
from finitelhs.lhsmodel import (
    build_polyhedron_model,
    build_separable_tetrahedron_model,
    entropy_bits,
    verify_model,
)

from sign_sum_oracle import sign_sum_constant
from finitelhs.qstate import DiagMat3, TState
from finitelhs.scanopt import (
    analytic_norm_constants,
    best_regime,
    face_edge_crossover,
    random_orientation_search,
    scan_axial_family,
    zero_entanglement_interval,
)

from boundary_oracle import rg_norm_integral
from qstate_oracle import bell_weights, concurrence_axial
from scan_oracle import max_visibility, optimal_axial_model
from sphere_quadrature import DEFAULT_QUADRATURE, quadrature_norm_integral

WERNER = DiagMat3(-0.5, -0.5, -0.5)
VISIBILITY_PER_S = ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / 12.0
WERNER_T_MAX = ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / 6.0


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_directions(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def scan500():
    return scan_axial_family(500)


def test_criterion_01_exact_model_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0

    model = build_polyhedron_model(WERNER, icosahedron(special_orientations()[0]))
    rep = verify_model(model, model.simulated_state(), random_directions(rng, 1000))
    worst = max(worst, rep.max_residual)
    t_gap = abs(model.visibility - WERNER_T_MAX)

    for t0z in np.linspace(0.15, 1.0, 20):
        t0x = axial_boundary_solve(float(t0z))
        axial_model, _ = optimal_axial_model(t0x, float(t0z))
        rep = verify_model(axial_model, axial_model.simulated_state(),
                           random_directions(rng, 1000))
        worst = max(worst, rep.max_residual)

    diags = list(rng.dirichlet((1.0, 1.0, 1.0), size=10))
    signs = np.where(rng.random((10, 3)) < 0.5, -1.0, 1.0)
    diags += list(rng.dirichlet((1.0, 1.0, 1.0), size=10) * signs)
    for d in diags:
        tet = build_separable_tetrahedron_model(DiagMat3(*d))
        rep = verify_model(tet, TState(DiagMat3(*d)), random_directions(rng, 1000))
        worst = max(worst, rep.max_residual)

    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and t_gap < 1e-12 and elapsed < 5.0
    report(1, ok, f"41 models, max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_isotropic_consistency():
    s_iso = analytic_norm_constants(0.5, 0.5)
    iso_err = max(abs(s - 2.0) for s in s_iso)

    curve = sample_axial_family(50)
    orientations = special_orientations()
    worst = 0.0
    for t0z, t0x in zip(curve.t0z, curve.t0x):
        target = DiagMat3(t0x, t0x, t0z)
        for s, rot in zip(analytic_norm_constants(t0x, t0z), orientations):
            numeric = max_visibility(target, rot) / VISIBILITY_PER_S
            worst = max(worst, abs(s - numeric))

    ok = iso_err < 1e-12 and worst < 1e-10
    report(2, ok, f"isotropic gap {iso_err:.2e}, analytic-numeric gap {worst:.2e}")


def test_criterion_03_random_search_never_wins():
    start = time.perf_counter()
    worst_excess = -np.inf
    for k, t0z in enumerate(np.linspace(0.02, 1.0, 20)):
        t0x = axial_boundary_solve(float(t0z))
        analytic = max(analytic_norm_constants(t0x, float(t0z))) * VISIBILITY_PER_S
        found, _ = random_orientation_search(
            DiagMat3(-t0x, -t0x, -float(t0z)), 10_000, seed=k)
        worst_excess = max(worst_excess, found - analytic)
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-9 and elapsed < 60.0
    report(3, ok, f"20 points x 1e4 rotations, worst excess {worst_excess:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_04_regime_structure():
    expected_ranges = [(0, np.linspace(0.02, 0.5, 33)),
                       (1, np.linspace(0.52, 0.86, 33)),
                       (2, np.linspace(0.92, 1.0, 33))]
    misclassified = 0
    for idx, grid in expected_ranges:
        for t0z in grid:
            t0x = axial_boundary_solve(float(t0z))
            s_values = analytic_norm_constants(t0x, float(t0z))
            if best_regime(s_values) != idx:
                misclassified += 1
    crossover = face_edge_crossover()
    ok = misclassified == 0 and 0.86 <= crossover <= 0.92
    report(4, ok, f"99 grid points, {misclassified} misclassified, "
                  f"face/edge crossover {crossover:.4f}")


def test_criterion_05_shared_randomness(scan500):
    werner_entropy = entropy_bits(
        build_polyhedron_model(WERNER, icosahedron(special_orientations()[0])))
    werner_err = abs(werner_entropy - np.log2(12.0))
    min_entropy = scan500.entropy_bits.min()
    tetra_entropy = entropy_bits(
        build_separable_tetrahedron_model(DiagMat3(1 / 3, 1 / 3, 1 / 3)))
    ok = werner_err < 1e-12 and 2.90 <= min_entropy <= 3.00 and tetra_entropy == 2.0
    report(5, ok, f"Werner entropy gap {werner_err:.1e}, scan minimum "
                  f"{min_entropy:.4f} bits, tetrahedron {tetra_entropy} bits")


def test_criterion_06_entanglement(scan500):
    def oracle(target, t):
        w = bell_weights(TState(target.scaled(t)))
        return max(0.0, 2.0 * float(w.max()) - 1.0)

    werner_conc = concurrence_axial(WERNER, 1.0)
    werner_ok = (werner_conc == pytest.approx(0.25, abs=1e-12)
                 and werner_conc == pytest.approx(oracle(WERNER, 1.0), abs=1e-12))

    interval = zero_entanglement_interval(scan500)

    rng = np.random.default_rng(23)
    corners = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                        [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])
    worst = 0.0
    for mix in rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=1000):
        d = mix @ corners
        d[0] = d[1] = 0.5 * (d[0] + d[1])
        target = DiagMat3(*d)
        worst = max(worst, abs(concurrence_axial(target, 1.0) - oracle(target, 1.0)))

    ok = werner_ok and interval is not None and worst < 1e-12
    detail = (f"Werner concurrence {werner_conc}, zero interval "
              f"{interval}, oracle gap {worst:.1e}")
    report(6, ok, detail)


def test_criterion_07_boundary_integral():
    n_err = abs(norm_integral(-0.5, -0.5) - 1.0)
    mid_err = abs(axial_boundary_solve(0.5) - 0.5)
    small_err = abs(axial_boundary_solve(1e-3) - 2.0 / np.pi)
    nodes, weights = DEFAULT_QUADRATURE.nodes, DEFAULT_QUADRATURE.weights
    moments = np.einsum("k,ki,kj->ij", weights, nodes, nodes)
    moment_err = np.abs(moments - (4.0 * np.pi / 3.0) * np.eye(3)).max()
    # the closed form against the product-rule and R_G oracles, and R_G
    # against the product rule off the axial family
    axial = [(0.5, 0.5, 0.2), (0.3, 0.3, 0.9), (-0.4, -0.4, 0.7), (0.15, 0.15, -0.3)]
    oracle_err = max(max(abs(norm_integral(d[0], d[2]) - quadrature_norm_integral(d)),
                         abs(norm_integral(d[0], d[2]) - rg_norm_integral(d)))
                     for d in axial)
    off_axial = [(-0.4, 0.2, 0.7), (0.15, -0.6, -0.3)]
    oracle_err = max([oracle_err] + [abs(rg_norm_integral(d) - quadrature_norm_integral(d))
                                     for d in off_axial])
    ok = (n_err < 1e-10 and mid_err < 1e-9 and small_err < 1e-6
          and moment_err < 1e-10 and oracle_err < 1e-10)
    report(7, ok, f"|N-1| {n_err:.1e}, solve(1/2) err {mid_err:.1e}, "
                  f"solve(1e-3)-2/pi {small_err:.1e}, moments {moment_err:.1e}, "
                  f"oracle {oracle_err:.1e}")


def test_criterion_08_decomposition():
    rho = critical_separable_density()
    tet = tetrahedron().vertices
    recon_worst = 0.0
    schmidt_worst = 0.0
    bloch_worst = 0.0
    for family, sign in ((product_state_decomposition(), 1.0),
                         (mirror_decomposition(), -1.0)):
        recon = sum(0.25 * np.outer(v, v.conj()) for v in family)
        recon_worst = max(recon_worst, float(np.abs(recon - rho).max()))
        schmidt_worst = max(schmidt_worst, max(schmidt_residual(v) for v in family))
        bobs = np.stack([extract_local_blochs(v)[1] for v in family])
        order = np.lexsort(bobs.T[::-1])
        target = sign * tet
        torder = np.lexsort(target.T[::-1])
        bloch_worst = max(bloch_worst,
                          float(np.abs(bobs[order] - target[torder]).max()))
    ok = recon_worst < 1e-12 and schmidt_worst < 1e-12 and bloch_worst < 1e-10
    report(8, ok, f"reconstruction {recon_worst:.1e}, Schmidt {schmidt_worst:.1e}, "
                  f"Bob vs tetrahedron {bloch_worst:.1e}")


def test_criterion_09_identities():
    rng = np.random.default_rng(31)
    # at tol=1e-12 the identity sum_j sign(v_j . v_i) v_j = c v_i holds to
    # 2e-12 plus the gap to 2(1+sqrt5)
    gamma_worst = max(abs(sign_sum_constant(icosahedron(random_rotation(rng)), tol=1e-12)
                          - ICOSAHEDRON_SIGN_SUM) for _ in range(100))

    ico = icosahedron()
    v = ico.vertices
    xs = random_directions(rng, 1000)
    w = decompose_directions(ico, xs)
    lhs = -(w @ np.sign(v @ v.T)) @ v / 12.0
    rhs = -(ICOSAHEDRON_SIGN_SUM * ICOSAHEDRON_INRADIUS / 12.0) * xs
    frame_worst = float(np.linalg.norm(lhs - rhs, axis=1).max())

    v4 = tetrahedron().vertices
    sep = ((xs @ -v4.T) / 4.0) @ v4
    tetra_frame_worst = float(np.linalg.norm(sep + xs / 3.0, axis=1).max())

    xs_big = random_directions(rng, 10_000)
    w_big = decompose_directions(ico, xs_big)
    nonneg = float(w_big.min())
    recon = float(np.linalg.norm(
        w_big @ v - ICOSAHEDRON_INRADIUS * xs_big, axis=1).max())
    sums = float(np.abs(w_big.sum(axis=1) - 1.0).max())

    ok = (gamma_worst < 1e-12 and frame_worst < 1e-10 and tetra_frame_worst < 1e-10
          and nonneg >= 0.0 and recon < 1e-10 and sums < 1e-10)
    report(9, ok, f"gamma {gamma_worst:.1e}, response frame {frame_worst:.1e}, "
                  f"tetrahedron frame {tetra_frame_worst:.1e}, decomposition "
                  f"(min {nonneg:.1e}, recon {recon:.1e})")


def test_criterion_10_determinism(tmp_path):
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for p in paths:
        code = cli_main(["scan", "--n", "60", "--out", str(p)])
        assert code == 0
    same = paths[0].read_bytes() == paths[1].read_bytes()
    report(10, same, f"two scan runs, byte-identical: {same}")
