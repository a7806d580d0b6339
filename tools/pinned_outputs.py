"""Write the output of each pinned finsec invocation to a file of its own.

Usage: python tools/pinned_outputs.py OUT_DIR

Each invocation runs in a fresh interpreter on the ``src`` tree beside this
script, with BLAS pinned to one thread and this script's directory as its
working directory, so the input files kept here (``lap5.json``, the
constant 5-point operator with diagonal 5, ``lap7.json``, the constant
7-point 3-D operator with diagonal 7, ``far.json``, ``adj.json``,
``sz.json``, whose entries carry signed zeros, ``matching.json``, a
fixed random matching of the points -300..299 into 300 edges of 216
distinct lengths, ``pent.json``, a pentagon with rational corners
given by eight points, three of them not vertices, ``poly24.json``,
12 distinct nonzero points p/20 with p drawn from [-20, 20]^3 after
``random.seed(1)``, and their negatives, ``poly48.json``, the first
24 such points, poly24's 12 among them, and their negatives,
``octa.json``, the octahedron |x| + |y| + |z| <= 1, ``table.json``,
a 1-D operator with a table-rule diagonal, composed with a shift, and
``huge.json``, the 2-D five-point operator whose every diagonal is 1 but
1e300 at the point (3, 0), whose sparse-sized windows of 529 and 625
points hold an entry past 2^500 and so go to the dense SVD) are named by
relative paths.  Its file in OUT_DIR holds the exit code, stdout and
stderr; an invocation still running after 300 s is killed, and its file
says ``exit timeout``.  finsec's outputs are byte-deterministic at a
fixed BLAS thread count, so running this on two checkouts and comparing
with ``diff -r`` shows every output byte a change moves; copy the
``.json`` inputs along when the parent lacks them.  The outputs are
kept in ``pinned/`` beside this script, and ``tests/test_cli.py`` reruns
this script and compares them byte for byte.  It calls ``main`` with a
``prelude``, Python code run first in each invocation, that records which
library functions run.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"

EXAMPLES = ("shift", "blockdiag", "rarosi", "sierror", "diamond", "worked_A", "worked_Aprime")

INVOCATIONS = (
    *(["example", case, "--format", "json"] for case in EXAMPLES),
    ["scan", "--example", "worked_Aprime", "--nmax", "200", "--format", "json"],
    ["study", "--example", "worked_A", "--nmax", "200", "--reference-n", "400"],
    [
        "study", "--example", "worked_A", "--coupling", "sixfifths", "--nmax", "40",
        "--a-inv-norm", "2", "--format", "json",
    ],
    ["solve-rfsm", "--example", "worked_A", "--epsilon", "1e-3", "--format", "json"],
    *(["solve-rfsm", "--example", "worked_A", "--epsilon", eps] for eps in ("1e-6", "1e-10", "1e-13")),
    [
        "solve-rfsm", "--operator", "lap5.json", "--omega", "square", "--rhs", "far.json",
        "--epsilon", "1e-3", "--a-norm", "9", "--a-inv-norm", "1", "--reference-n", "4",
        "--format", "json",
    ],
    [
        "study", "--example", "sierror", "--nmax", "6", "--reference-n", "12",
        "--rhs", "adj.json", "--format", "json",
    ],
    ["solve-fsm", "--example", "blockdiag", "--n", "40", "--rhs", "sz.json", "--format", "csv"],
    ["solve-fsm", "--example", "sierror", "--n", "20", "--rhs", "adj.json", "--format", "json"],
    ["solve-fsm", "--example", "sierror", "--n", "1000", "--rhs", "adj.json", "--format", "json"],
    # the built-in right-hand side of worked_Aprime
    ["solve-fsm", "--example", "worked_Aprime", "--n", "10"],
    [
        "study", "--operator", "matching.json", "--omega", "interval", "--nmax", "20",
        "--reference-n", "60", "--rhs", "sz.json", "--format", "json",
    ],
    [
        "scan", "--operator", "lap5.json", "--omega", "pent.json", "--nmax", "10",
        "--format", "json",
    ],
    # a table-rule diagonal, re-indexed by a shift
    ["scan", "--operator", "table.json", "--omega", "interval", "--nmax", "12"],
    # windows reach 512 points at n = 11: the sparse route, after a dense prefix
    ["scan", "--operator", "lap5.json", "--omega", "square", "--nmax", "12"],
    # a 3-D domain from 24 points, 20 of them corners
    [
        "scan", "--operator", "lap7.json", "--omega", "poly24.json", "--nmax", "3",
        "--format", "json",
    ],
    # a 3-D domain of 44 facets from 48 points, 24 of them corners
    [
        "scan", "--operator", "lap7.json", "--omega", "poly48.json", "--nmax", "3",
        "--format", "json",
    ],
    # sparse-sized windows with an entry past 2^500: the dense SVD decides
    ["scan", "--operator", "huge.json", "--omega", "square", "--nmin", "11", "--nmax", "12",
     "--format", "json"],
    # a 2-D operator on a 1-D domain: exit 2 and one line naming both dimensions
    ["scan", "--example", "diamond", "--omega", "interval", "--nmax", "3"],
    # exit 2 at the window budget, after counting the rows up to it
    ["scan", "--operator", "lap7.json", "--omega", "octa.json", "--nmin", "1000", "--nmax", "1000"],
    # exit 2 before any window runs: the first window over the budget is n = 3627506
    ["scan", "--example", "worked_A", "--nmax", "10000000"],
    # exit 2 at n = 64, before the cut-offs past it are read
    ["study", "--example", "worked_A", "--nmax", "10000000", "--reference-n", "64"],
)

RUN_CLI = "import sys; from finsec.cli import main; sys.exit(main(sys.argv[1:]))"


def file_name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)).strip("_") + ".txt"


def main(args: list[str], prelude: str = "") -> int:
    """Run every invocation into OUT_DIR; `prelude`, Python code, runs first in each."""
    if len(args) != 1 or args[0].startswith("-"):  # an option, --help too, is no OUT_DIR
        print("usage: python tools/pinned_outputs.py OUT_DIR", file=sys.stderr)
        return 0 if args in (["-h"], ["--help"]) else 2
    out_dir = Path(args[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        env[name] = "1"
    for argv in INVOCATIONS:
        try:
            done = subprocess.run(
                [sys.executable, "-c", prelude + RUN_CLI, *argv],
                cwd=TOOLS,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            code, stdout, stderr = done.returncode, done.stdout, done.stderr
        except subprocess.TimeoutExpired:  # a refusal that regressed into a long run
            code, stdout, stderr = "timeout", "", ""
        (out_dir / file_name(argv)).write_text(
            f"finsec {' '.join(argv)}\nexit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"
        )
        print(f"exit {code}: finsec {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
