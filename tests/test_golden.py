"""Byte identity of the CLI artifacts, against a checked-in corpus.

Each case runs its commands in order through ``cli.main`` in a fresh
directory, with relative paths (``verify`` echoes its ``--model`` path),
and compares every file they write, and each command's exit code, stdout
and stderr (``transcript.txt``), with the copies under
``tests/golden/<case>/``.  A golden file changes only with a declared
output change.  To rewrite the corpus from the current source:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from finitelhs.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

MODEL = ["--out", "model.json", "--report", "report.json"]

CASES = {
    "icosa-vertex": [
        ["model", "icosa", "--t0", "-0.5", "-0.5", "-0.5", *MODEL],
        ["verify", "--model", "model.json", "--out", "verify.json"],
    ],
    "icosa-edge": [
        ["model", "icosa", "--t0", "-0.6", "-0.5", "-0.4", "--orientation", "edge",
         "--t", "0.5", *MODEL],
    ],
    "cube-random": [
        ["model", "poly", "--poly", "cube", "--t0", "-0.6", "-0.5", "-0.4",
         "--orientation", "random", "--seed", "5", *MODEL],
    ],
    "octahedron-random": [
        ["model", "poly", "--poly", "octahedron", "--t0", "-0.6", "-0.5", "-0.4",
         "--orientation", "random", "--seed", "6", *MODEL],
    ],
    "tetra": [["model", "tetra", "--t", "0.5", "-0.25", "0.25", *MODEL]],
    "decompose": [["decompose", "--out", "decompose.json"]],
    "optimize-axial": [["optimize", "--t0", "-0.5", "-0.5", "-0.3", "--n", "500",
                        "--out", "optimize.json"]],
    "optimize-nonaxial": [["optimize", "--t0", "0.3", "-0.4", "0.5", "--n", "500", "--seed", "7",
                           "--out", "optimize.json"]],
    "boundary": [["boundary", "--n", "50", "--validate", "--out", "boundary.csv"]],
    "scan": [["scan", "--n", "50", "--out", "scan.csv"]],
    # the eight commands of the benchmark's cli-session workload at seed 0
    "cli-session": [
        ["model", "icosa", "--t0", "-1", "-1", "-1", "--seed", "1081993679",
         "--out", "icosa.json", "--report", "icosa_report.json"],
        ["verify", "--model", "icosa.json", "--seed", "1921939326", "--out", "verify.json"],
        ["model", "poly", "--poly", "cube", "--t0", "0.01129359936224189", "-0.01251320720964616",
         "0.11262860470697761", "--orientation", "random", "--seed", "2050023942", "--t", "1.0",
         "--out", "cube.json", "--report", "cube_report.json"],
        ["model", "tetra", "--t", "0.20216461608419264", "-0.5553505494300793",
         "0.24248483448572805", "--out", "tetra.json", "--report", "tetra_report.json"],
        ["decompose", "--out", "decompose.json"],
        ["optimize", "--t0", "-0.4165623472158246", "-0.4165623472158246", "-0.6279390034730882",
         "--n", "2000", "--seed", "1847725933", "--out", "optimize.json"],
        ["boundary", "--n", "8", "--t0z-min", "0.02650804147675236", "--validate",
         "--out", "boundary.csv"],
        ["scan", "--n", "8", "--t0z-min", "0.02650804147675236", "--out", "scan.csv"],
    ],
    # a negative value written with an exponent is a value, not an option
    "exponent-t0": [["model", "icosa", "--t0", "-1e-1", "-1e-1", "-1e-1"]],
    "exit-2": [
        ["model", "icosa", "--t0", "-0.5", "-0.5", "-0.5", "--t", "0.9"],
        ["model", "tetra", "--t", "0.3", "0.3", "0.3"],
        ["verify", "--model", "missing.json"],
    ],
}


def run_case(commands: list[list[str]]) -> dict[str, bytes]:
    """Run ``commands`` in the working directory, which starts empty: the
    files they write, by name, and ``transcript.txt``, each command line
    with its exit code, stdout and stderr."""
    transcript = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        transcript.append(f"$ finitelhs {' '.join(argv)}\nexit {code}\n"
                          f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    files = {p.name: p.read_bytes() for p in Path.cwd().iterdir()}
    files["transcript.txt"] = "".join(transcript).encode()
    return files


def first_difference(expected: bytes, got: bytes) -> str:
    """The first line at which two files differ, numbered from 1."""
    want, have = expected.splitlines(), got.splitlines()
    line = next((i for i, (a, b) in enumerate(zip(want, have)) if a != b),
                min(len(want), len(have)))
    return (f"line {line + 1}: expected {want[line] if line < len(want) else b'<end>'!r}, "
            f"got {have[line] if line < len(have) else b'<end>'!r}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_artifacts_match_the_golden_corpus(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(CASES[case])
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert sorted(got) == sorted(expected)
    for name in sorted(expected):
        assert got[name] == expected[name], (
            f"{case}/{name} differs at {first_difference(expected[name], got[name])}")


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, commands in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            files = run_case(commands)
            os.chdir(GOLDEN.parent)
        (GOLDEN / case).mkdir(parents=True)
        for name, data in files.items():
            (GOLDEN / case / name).write_bytes(data)
