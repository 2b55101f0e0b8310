"""Independent checks of finitelhs outputs.

Nothing here calls finitelhs: the solids, the sphere integral (Carlson's
R_G), the convex decompositions (linear programming), the Bell weights and
the density matrices are all rebuilt from first principles.  Every check
returns a list of problems; an empty list means the output passed.  Each
check has a self-test in :func:`self_test` showing that a perturbed output
fails it.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import elliprg

PHI = (1.0 + math.sqrt(5.0)) / 2.0
SQRT5 = math.sqrt(5.0)

# Canonical solids on the unit sphere, their inradii and the constant c of
# sum_j sign(v_j . v_i) v_j = c v_i.
ICOSA = np.array([
    p for a in (1.0, -1.0) for b in (1.0, -1.0)
    for p in ((0.0, a, b * PHI), (a, b * PHI, 0.0), (b * PHI, 0.0, a))
]) / math.sqrt(1.0 + PHI * PHI)
CUBE = np.array([(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0)
                 for c in (1.0, -1.0)]) / math.sqrt(3.0)
SOLIDS = {
    "icosahedron": (ICOSA, math.sqrt((5.0 + 2.0 * SQRT5) / 15.0)),
    "cube": (CUBE, 1.0 / math.sqrt(3.0)),
}

PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))

BOUNDARY_TOL = 1e-9      # |2 R_G - 1| on every boundary row
VALUE_TOL = 1e-9         # closed forms against the program's numbers
ASSEMBLAGE_TOL = 1e-9    # rebuilt assemblage against t T x / 2
CROSSOVER_TOL = 2e-6
RESIDUAL_GATE = 1e-8


def sign_sum_constant(v: np.ndarray) -> float:
    sums = np.sign(v @ v.T) @ v
    return float(np.einsum("ij,ij->i", sums, v).mean())


def rotation_matrix(quat) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(quat, dtype=float) / np.linalg.norm(quat)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def sphere_average(t0x: float, t0z: float) -> float:
    """(1/2pi) integral |diag(t0x, t0x, t0z) n| dn = 2 R_G(t0x^2, t0x^2, t0z^2)."""
    return 2.0 * float(elliprg(t0x * t0x, t0x * t0x, t0z * t0z))


def _special_axes() -> dict[str, np.ndarray]:
    """A vertex, a face centre and an edge midpoint of the icosahedron."""
    v0 = ICOSA[0]
    near = [i for i in range(12) if abs(ICOSA[i] @ v0 - 1.0 / SQRT5) < 1e-12]
    a = near[0]
    b = next(i for i in near if abs(ICOSA[i] @ ICOSA[a] - 1.0 / SQRT5) < 1e-12)
    face = v0 + ICOSA[a] + ICOSA[b]
    edge = v0 + ICOSA[a]
    return {"vertex": v0, "face": face / np.linalg.norm(face),
            "edge": edge / np.linalg.norm(edge)}


SPECIAL_AXES = _special_axes()
REGIMES = ("vertex", "face", "edge")


def axial_vertex_sum(t0x: float, t0z: float, axis: np.ndarray) -> float:
    """sum_i |diag(t0x, t0x, t0z) R v_i| for the icosahedron rotated so that
    ``axis`` lies on z; only the z-components v_i . axis matter."""
    c = ICOSA @ axis
    return float(np.sqrt(t0x * t0x * (1.0 - c * c) + t0z * t0z * c * c).sum())


def axial_constants(t0x: float, t0z: float) -> list[float]:
    """S = 12 / vertex sum for the vertex, face and edge orientations."""
    return [12.0 / axial_vertex_sum(t0x, t0z, SPECIAL_AXES[r]) for r in REGIMES]


ICOSA_T_PER_S = sign_sum_constant(ICOSA) * SOLIDS["icosahedron"][1] / 12.0


def concurrence(diag) -> float:
    """max(0, 2 lambda_max - 1) from the eigenvalues of the explicit 4x4
    density (I + sum_k d_k sigma_k (x) sigma_k) / 4."""
    rho = np.eye(4, dtype=complex)
    for d, s in zip(diag, PAULIS):
        rho = rho + d * np.kron(s, s)
    lam = np.linalg.eigvalsh(rho / 4.0)
    return max(0.0, 2.0 * float(lam.max()) - 1.0)


def axial_root(t0z: float) -> float:
    """The t0x with 2 R_G(t0x^2, t0x^2, t0z^2) = 1; at t0z = 1 the root
    degenerates to 0+, where the bracket end 1e-6 is returned."""
    def residual(a):
        return sphere_average(a, t0z) - 1.0
    return 1e-6 if residual(1e-6) >= 0 else brentq(residual, 1e-6, 1.5, xtol=1e-15)


@functools.cache
def face_edge_root() -> float:
    def gap(t0z):
        s = axial_constants(axial_root(t0z), t0z)
        return s[1] - s[2]
    return brentq(gap, 0.6, 0.98, xtol=1e-13)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def parse_csv(text: str) -> list[dict]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({h: (c if h == "regime" else float(c)) for h, c in zip(header, cells)})
    return rows


def check_boundary_rows(rows: list[dict], n: int, t0z_min: float) -> list[str]:
    problems = []
    if len(rows) != n:
        return [f"expected {n} rows, got {len(rows)}"]
    grid = np.linspace(t0z_min, 1.0, n)
    for k, row in enumerate(rows):
        if not _close(row["t0z"], grid[k], 1e-14):
            problems.append(f"row {k}: t0z {row['t0z']!r} is off the grid")
        dev = abs(sphere_average(row["t0x"], row["t0z"]) - 1.0)
        if dev > BOUNDARY_TOL:
            problems.append(f"row {k}: |2 R_G - 1| = {dev:.3e}")
    return problems


def check_scan_rows(rows: list[dict], n: int, t0z_min: float) -> list[str]:
    problems = check_boundary_rows(rows, n, t0z_min)
    for k, row in enumerate(rows):
        x, z = row["t0x"], row["t0z"]
        s = axial_constants(x, z)
        got = [row["s_vertex"], row["s_face"], row["s_edge"]]
        if not all(_close(g, e, VALUE_TOL) for g, e in zip(got, s)):
            problems.append(f"row {k}: constants {got} != vertex sums {s}")
        if row["regime"] not in REGIMES or s[REGIMES.index(row["regime"])] < max(s) - VALUE_TOL:
            problems.append(f"row {k}: regime {row['regime']!r} is not the best of {s}")
            continue
        t_max = max(s) * ICOSA_T_PER_S
        if not _close(row["t_max"], t_max, VALUE_TOL):
            problems.append(f"row {k}: t_max {row['t_max']!r} != {t_max!r}")
        c = ICOSA @ SPECIAL_AXES[row["regime"]]
        q = np.sqrt(x * x * (1.0 - c * c) + z * z * c * c)
        q /= q.sum()
        entropy = float(-(q * np.log2(q)).sum())
        if not _close(row["entropy_bits"], entropy, VALUE_TOL):
            problems.append(f"row {k}: entropy {row['entropy_bits']!r} != {entropy!r}")
        conc = concurrence(-t_max * np.array([x, x, z]))
        if abs(row["concurrence"] - conc) > VALUE_TOL:
            problems.append(f"row {k}: concurrence {row['concurrence']!r} != {conc!r}")
    return problems


def check_scan_summary(summary: dict, rows: list[dict]) -> list[str]:
    problems = []
    vf, fe = summary["regime_crossovers"]
    if abs(vf - 0.5) > CROSSOVER_TOL:
        problems.append(f"vertex-face crossover {vf!r} is not 1/2")
    if abs(fe - face_edge_root()) > CROSSOVER_TOL:
        problems.append(f"face-edge crossover {fe!r} != brentq root {face_edge_root()!r}")
    ref = summary["werner_refs"]
    t_werner = (1.0 + SQRT5) * SOLIDS["icosahedron"][1] / 3.0
    if not _close(ref["t"], t_werner, VALUE_TOL):
        problems.append(f"Werner t {ref['t']!r} != (1+sqrt5) l / 3 = {t_werner!r}")
    if not _close(ref["entropy"], math.log2(12.0), VALUE_TOL):
        problems.append(f"Werner entropy {ref['entropy']!r} != log2 12")
    conc = concurrence(-t_werner * np.full(3, 0.5))
    if abs(ref["concurrence"] - conc) > VALUE_TOL:
        problems.append(f"Werner concurrence {ref['concurrence']!r} != {conc!r}")
    min_entropy = min(r["entropy_bits"] for r in rows)
    if not _close(summary["min_entropy_bits"], min_entropy, 1e-12):
        problems.append(f"min entropy {summary['min_entropy_bits']!r} != {min_entropy!r}")
    return problems


def convex_weights(vertices: np.ndarray, point: np.ndarray) -> np.ndarray:
    """w >= 0, sum w = 1, w @ vertices = point, by linear programming,
    then re-solved exactly on the support the program found."""
    n = len(vertices)
    a_eq = np.vstack([vertices.T, np.ones(n)])
    b_eq = np.append(point, 1.0)
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"no convex decomposition: {res.message}")
    support = res.x > 1e-9
    w = np.zeros(n)
    w[support] = np.linalg.lstsq(a_eq[:, support], b_eq, rcond=None)[0]
    return w


def _unit_directions(rng: np.random.Generator, k: int) -> np.ndarray:
    x = rng.standard_normal((k, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def check_model(doc: dict, target, solid: str, rng: np.random.Generator,
                n_directions: int = 3, orientation: str | None = None,
                rotation=None) -> list[str]:
    """Check a serialized model against the benchmark's own construction.

    ``solid`` is "icosahedron", "cube" or "tetrahedron".  The assemblage is
    rebuilt from the atoms at ``n_directions`` seeded directions and must
    equal t T x / 2 for both outcomes.
    """
    problems = []
    target = np.asarray(target, dtype=float)
    q = np.array([a["q"] for a in doc["atoms"]])
    lam = np.array([a["lambda"] for a in doc["atoms"]])
    pre = np.array([a["lambda_prime"] for a in doc["atoms"]])
    t = doc["t"]
    if not np.array_equal(np.asarray(doc["t0"], dtype=float), target):
        problems.append(f"t0 {doc['t0']} is not the target {list(target)}")
    if q.min() < 0 or abs(q.sum() - 1.0) > 1e-12:
        problems.append(f"weights are not a distribution: min {q.min()!r}, sum {q.sum()!r}")

    if solid == "tetrahedron":
        if doc["response_kind"] != "linear" or len(q) != 4:
            return problems + ["tetrahedron model must have four linear-response atoms"]
        if t != 1.0 or np.abs(q - 0.25).max() > 1e-15:
            problems.append(f"tetrahedron model needs t = 1 and weights 1/4, got t = {t!r}")
        eta = np.array([a["eta"] for a in doc["atoms"]])

        def response(x):
            return eta @ x
    else:
        canon, inradius = SOLIDS[solid]
        if doc["response_kind"] != "sign_mixture" or len(pre) != len(canon):
            return problems + [f"{solid} model must have {len(canon)} sign-mixture atoms"]
        if rotation is not None:
            expected = canon @ rotation_matrix(rotation).T
            if np.abs(pre - expected).max() > 1e-12:
                problems.append("atom preimages are not the rotated solid's vertices")
        gram, canon_gram = np.sort((pre @ pre.T).ravel()), np.sort((canon @ canon.T).ravel())
        if np.abs(gram - canon_gram).max() > 1e-9:
            problems.append(f"atom preimages are not a rotated {solid}")
        if orientation is not None:
            top = np.sort(pre[:, 2])[::-1]
            shared = {"vertex": 1, "face": 3, "edge": 2}[orientation]
            if abs(top[0] - top[shared - 1]) > 1e-9 or abs(top[0] - top[shared]) < 1e-9:
                problems.append(f"no {orientation} of the solid lies on the z axis")
        mapped = pre * target
        norms = np.linalg.norm(mapped, axis=1)
        if np.abs(lam - mapped / norms[:, None]).max() > 1e-12:
            problems.append("atom blochs are not the normalized images T v")
        if np.abs(q - norms / norms.sum()).max() > 1e-12:
            problems.append("weights are not |T v_i| / sum_j |T v_j|")
        t_max = sign_sum_constant(canon) * inradius / norms.sum()
        if not _close(t, min(1.0, t_max), 1e-12):
            problems.append(f"t {t!r} != min(1, t_max) with t_max = {t_max!r}")
        if not _close(doc["scale"], min(1.0, t / t_max), 1e-12):
            problems.append(f"scale {doc['scale']!r} != t / t_max")
        signs = np.sign(pre @ pre.T)

        def response(x):
            return doc["scale"] * (convex_weights(pre, inradius * x) @ signs)

    if np.linalg.norm(q @ lam) > ASSEMBLAGE_TOL:
        problems.append(f"Bob's marginal |sum q lambda| = {np.linalg.norm(q @ lam):.3e}")
    for x in _unit_directions(rng, n_directions):
        f = response(x)
        if np.abs(f).max() > 1.0 + 1e-12:
            problems.append(f"response outside [-1, 1] at {x}")
        for outcome in (1.0, -1.0):
            p = 0.5 * (1.0 + outcome * f)
            trace_err = abs(p @ q - 0.5)
            bloch_err = np.linalg.norm(p @ (q[:, None] * lam) - 0.5 * outcome * t * target * x)
            if max(trace_err, bloch_err) > ASSEMBLAGE_TOL:
                problems.append(f"assemblage off by {max(trace_err, bloch_err):.3e} at {x}")
    return problems


def critical_density() -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for s in PAULIS:
        rho = rho - np.kron(s, s) / 3.0
    return rho / 4.0


def check_decomposition(doc: dict) -> list[str]:
    problems = []
    rho = critical_density()
    for name, family in doc["families"].items():
        states = [np.array([complex(re, im) for re, im in v]) for v in family["states"]]
        recon = sum(np.outer(v, v.conj()) for v in states) / len(states)
        if len(states) != 4 or np.abs(recon - rho).max() > 1e-10:
            problems.append(f"{name}: the states do not mix to the critical density")
        for v in states:
            if abs(np.linalg.det(v.reshape(2, 2))) > 1e-10 or abs(np.linalg.norm(v) - 1) > 1e-12:
                problems.append(f"{name}: a state is not a normalized product state")
    return problems


def check_optimize(doc: dict, target) -> list[str]:
    """Axial targets only: the analytic best is the best special orientation."""
    problems = []
    x, z = abs(target[0]), abs(target[2])
    best = max(axial_constants(x, z)) * ICOSA_T_PER_S
    if not _close(doc["analytic_best"], best, VALUE_TOL):
        problems.append(f"analytic best {doc['analytic_best']!r} != {best!r}")
    if doc["random_best"] > best + 1e-9:
        problems.append(f"random best {doc['random_best']!r} beats the analytic {best!r}")
    rotated = ICOSA @ rotation_matrix(doc["best_quaternion"]).T
    t_rot = (sign_sum_constant(ICOSA) * SOLIDS["icosahedron"][1]
             / np.linalg.norm(rotated * np.asarray(target), axis=1).sum())
    if not _close(doc["random_best"], t_rot, 1e-12):
        problems.append(f"random best {doc['random_best']!r} != {t_rot!r} at its quaternion")
    return problems


def check_residuals(doc: dict) -> list[str]:
    worst = max(v for k, v in doc["residuals"].items() if k != "n_directions")
    return [] if worst < RESIDUAL_GATE else [f"reported residual {worst:.3e}"]


def self_test() -> list[str]:
    """Feed each check a correct output and a perturbed copy; report any
    check that passes the perturbed copy or rejects the correct one."""
    failures = []

    def expect(name, good, bad):
        if good:
            failures.append(f"{name}: rejects a correct output: {good[0]}")
        if not bad:
            failures.append(f"{name}: accepts a perturbed output")

    # axial rows, built here from the closed forms
    n, zmin = 5, 0.3
    rows = []
    for z in np.linspace(zmin, 1.0, n):
        x = axial_root(z)
        s = axial_constants(x, z)
        k = int(np.argmax(np.asarray(s) >= max(s) - 1e-9))
        c = ICOSA @ SPECIAL_AXES[REGIMES[k]]
        qq = np.sqrt(x * x * (1 - c * c) + z * z * c * c)
        qq /= qq.sum()
        t_max = max(s) * ICOSA_T_PER_S
        rows.append({"t0z": z, "t0x": x, "s_vertex": s[0], "s_face": s[1], "s_edge": s[2],
                     "regime": REGIMES[k], "t_max": t_max,
                     "entropy_bits": float(-(qq * np.log2(qq)).sum()),
                     "concurrence": concurrence(-t_max * np.array([x, x, z]))})
    bad = [dict(r) for r in rows]
    bad[2]["t0x"] += 1e-7
    expect("boundary rows", check_boundary_rows(rows, n, zmin), check_boundary_rows(bad, n, zmin))
    bad = [dict(r) for r in rows]
    bad[3]["concurrence"] += 1e-6
    expect("scan rows", check_scan_rows(rows, n, zmin), check_scan_rows(bad, n, zmin))

    t_w = (1.0 + SQRT5) * SOLIDS["icosahedron"][1] / 3.0
    summary = {"min_entropy_bits": min(r["entropy_bits"] for r in rows),
               "regime_crossovers": [0.5, face_edge_root()],
               "werner_refs": {"t": t_w, "entropy": math.log2(12.0),
                               "concurrence": concurrence(-t_w * np.full(3, 0.5))}}
    bad = {**summary, "regime_crossovers": [0.5, summary["regime_crossovers"][1] + 1e-5]}
    expect("scan summary", check_scan_summary(summary, rows), check_scan_summary(bad, rows))

    # a cube model at a random rotation, built here
    rng = np.random.default_rng(7)
    quat = rng.standard_normal(4)
    target = np.array([-0.3, 0.2, 0.4])
    pre = CUBE @ rotation_matrix(quat).T
    norms = np.linalg.norm(pre * target, axis=1)
    t_max = sign_sum_constant(CUBE) * SOLIDS["cube"][1] / norms.sum()
    doc = {"t0": list(target), "t": min(1.0, t_max), "response_kind": "sign_mixture",
           "scale": min(1.0, 1.0 / t_max),
           "atoms": [{"q": norms[i] / norms.sum(), "lambda": list(pre[i] * target / norms[i]),
                      "lambda_prime": list(pre[i])} for i in range(8)]}
    bad = {**doc, "atoms": [dict(a) for a in doc["atoms"]]}
    bad["atoms"][0]["q"] += 1e-6
    bad["atoms"][1]["q"] -= 1e-6
    expect("model", check_model(doc, target, "cube", np.random.default_rng(1), rotation=quat),
           check_model(bad, target, "cube", np.random.default_rng(1), rotation=quat))

    # the critical-state decomposition of the tetrahedron construction
    a = math.acos(1.0 / math.sqrt(3.0))
    seed = np.kron([math.sin(a / 2), -math.cos(a / 2) * np.exp(-0.25j * math.pi)],
                   [math.cos(a / 2), math.sin(a / 2) * np.exp(-0.25j * math.pi)])
    states = [seed] + [np.kron(s, s) @ seed for s in PAULIS]
    good = {"families": {"primary": {"states": [[[z.real, z.imag] for z in v] for v in states]}}}
    states[1] = states[1] + 1e-6 * np.array([1, 0, 0, 0])
    bad = {"families": {"primary": {"states": [[[z.real, z.imag] for z in v] for v in states]}}}
    expect("decomposition", check_decomposition(good), check_decomposition(bad))

    target = np.array([-0.4, -0.4, -0.7])
    axis = SPECIAL_AXES["face"]
    best = max(axial_constants(0.4, 0.7)) * ICOSA_T_PER_S
    # a quaternion taking the face axis to z: half-angle form (1 + a.z, a x z)
    quat = np.concatenate(([1.0 + axis[2]], np.cross(axis, [0.0, 0.0, 1.0])))
    rotated = ICOSA @ rotation_matrix(quat).T
    t_rot = ICOSA_T_PER_S * 12.0 / np.linalg.norm(rotated * target, axis=1).sum()
    good = {"analytic_best": best, "random_best": t_rot, "best_quaternion": list(quat)}
    bad = {**good, "random_best": best + 1e-6}
    expect("optimize", check_optimize(good, target), check_optimize(bad, target))
    return failures
