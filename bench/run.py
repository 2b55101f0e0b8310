"""Closed-loop benchmark of finitelhs: one client, one op at a time.

    python3 bench/run.py --workload {axial-scan,certify-batch,cli-session,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each run sets up the workload's inputs
from the seed, runs whole rounds of its ops until ``--seconds`` have
passed, checks the outputs against independent computations (bench/checks.py)
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, median
op wall and CPU time, ops per second, peak RSS).  With ``--trace 1`` rounds
alternate between untraced and traced, and the metrics are the per-layer
medians of the traced ops plus the tracing overhead.  See bench/README.md.
"""

import os
import sys

# Fixed glibc malloc thresholds for this process.  With the dynamic
# defaults, whether the 384 KiB temporaries of boundary.norm_integral are
# mapped and faulted in on every call (about 220 page faults per call) or
# reused from the heap depends on the process's allocation history, and
# axial-scan ran 1.5x slower in some processes than in others.  Children
# (CLI commands, set-up and import probes) run with the default allocator,
# as a user's process does.
ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
if "--setup-only" not in sys.argv and any(os.environ.get(k) != v for k, v in ALLOCATOR.items()):
    os.environ.update(ALLOCATOR)
    os.execv(sys.executable, [sys.executable, *sys.argv])
for _var in ALLOCATOR:
    os.environ.pop(_var, None)      # glibc has read them; children get the defaults

# One BLAS thread: a second OpenBLAS thread spins on a two-core host and
# doubles the CPU time of the same work.  Children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYER_METRICS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBE_REPEATS = 3
WORKLOAD_NAMES = ("axial-scan", "certify-batch", "cli-session")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import finitelhs, build the inputs and exit (timed as setup_s)")
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """CPU of this process plus every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
    return time.perf_counter() - start, proc


def setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of fresh interpreters that import finitelhs and build the inputs."""
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, proc = timed_child([str(Path(__file__)), "--workload", args.workload,
                                  "--seed", str(args.seed), "--setup-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-2000:]}")
        walls.append(wall)
    return statistics.median(walls)


def import_breakdown() -> dict[str, float]:
    """Interpreter start, and import finitelhs / scipy.spatial from -X importtime."""
    interp, total, spatial = [], [], []
    for _ in range(IMPORT_PROBE_REPEATS):
        interp.append(timed_child(["-c", "pass"])[0])
        _, proc = timed_child(["-X", "importtime", "-c", "import finitelhs"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        total.append(cumulative["finitelhs"])
        spatial.append(cumulative.get("scipy.spatial", 0.0))
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(total),
            "cli.import_scipy_spatial_s": statistics.median(spatial)}


def measure(workload, seconds: float, traced: bool) -> dict:
    """Run whole rounds until ``seconds`` have passed (at least two rounds,
    and with tracing at least two traced and two untraced).  An op the
    program rejects (``OpFailed`` is a RuntimeError) counts as failed."""
    first: list = [None] * len(workload.round)
    ops, problems = [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < (4 if traced else 2) or time.perf_counter() - start < seconds:
        is_traced = traced and rounds % 2 == 1
        with (Tracer() if is_traced else nullcontext()) as tracer:
            for i, op in enumerate(workload.round):
                attempted += 1
                cpu0, wall0 = cpu_seconds(), time.perf_counter()
                try:
                    output, stats = workload.run(op)
                except (ValueError, RuntimeError) as exc:
                    failed += 1
                    print(f"op failed: {exc}", file=sys.stderr)
                    continue
                wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
                layers = tracer.take() if is_traced else {}
                ops.append({"wall": wall, "cpu": cpu, "traced": is_traced, "round": rounds,
                            "stats": stats, "layers": layers})
                if first[i] is None:
                    first[i] = output
                elif workload.key(output) != workload.key(first[i]):
                    problems.append(f"op {i} of round {rounds} differs from its first run")
        rounds += 1
    elapsed = time.perf_counter() - start
    return {"ops": ops, "first": first, "problems": problems, "attempted": attempted,
            "failed": failed, "elapsed": elapsed,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def end_to_end(run: dict, setup_s: float) -> dict:
    ops = run["ops"]
    if "rss_mb" in ops[0]["stats"]:           # the CLI children did the work
        peak = statistics.median(o["stats"]["rss_mb"] for o in ops)
    else:
        peak = run["rss_mb"]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(o["wall"] for o in ops), "s"),
        "op_cpu_s": (statistics.median(o["cpu"] for o in ops), "s"),
        "ops_per_s": (len(ops) / run["elapsed"], "1/s"),
        "peak_rss_mb": (peak, "MiB"),
    }


CLI_COMMANDS = ("model_icosa", "verify", "model_poly", "model_tetra",
                "decompose", "optimize", "boundary", "scan")


def per_layer(run: dict) -> dict:
    """Per layer, the median over traced rounds of the mean per op, so a
    layer that only some kinds of op use still shows on a mixed round."""
    traced = [o for o in run["ops"] if o["traced"]]
    untraced = [o for o in run["ops"] if not o["traced"]]
    by_round: dict[int, list] = {}
    for o in traced:
        by_round.setdefault(o["round"], []).append(
            {**o["layers"], **{k: v for k, v in o["stats"].items() if k.startswith("cli.")}})

    def layer(name):
        return statistics.median(sum(op.get(name, 0.0) for op in r) / len(r)
                                 for r in by_round.values())

    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units.update({f"cli.{cmd}.s": "s" for cmd in CLI_COMMANDS})
    metrics = {name: (layer(name), unit) for name, unit in units.items()}
    metrics.update({k: (v, "s") for k, v in import_breakdown().items()})
    t_on = statistics.median(o["wall"] for o in traced)
    t_off = statistics.median(o["wall"] for o in untraced)
    metrics["trace.op_p50_s"] = (t_on, "s")
    metrics["trace.untraced_op_p50_s"] = (t_off, "s")
    metrics["trace.overhead_s"] = (t_on - t_off, "s")
    return metrics


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        code = max(code, proc.returncode)
    return code


def main() -> int:
    args = parse_args()
    if not (SRC / "finitelhs" / "__init__.py").is_file():
        print(f"error: no finitelhs sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import numpy as np
    import checks
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    workload = WORKLOADS[args.workload](args.seed)
    run = measure(workload, args.seconds, bool(args.trace))
    if not run["ops"]:
        print("error: every op failed", file=sys.stderr)
        return 1
    failures = checks.self_test()
    for f in failures:
        print(f"check self-test failed: {f}", file=sys.stderr)
    problems = run["problems"] + workload.check(run["first"], np.random.default_rng([args.seed, 9]))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = per_layer(run) if args.trace else end_to_end(run, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems and not failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
