"""Write the output of each pinned finsec invocation to a file of its own.

Usage: python tools/pinned_outputs.py OUT_DIR

Each invocation runs in a fresh interpreter on the ``src`` tree beside this
script, with BLAS pinned to one thread and this script's directory as its
working directory, so the input files kept here (``lap5.json``, the
constant 5-point operator with diagonal 5, ``far.json``, ``adj.json`` and
``sz.json``, whose entries carry signed zeros) are named by relative paths.  Its file in OUT_DIR holds the exit code,
stdout and stderr.  finsec's outputs are byte-deterministic, so running this on two
checkouts and comparing with ``diff -r`` shows every output byte a change
moves; copy the ``.json`` inputs along when the parent lacks them.
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
        "study", "--example", "sierror", "--nmax", "6", "--reference-n", "12", "--bound", "4",
        "--rhs", "adj.json", "--format", "json",
    ],
    ["solve-fsm", "--example", "blockdiag", "--n", "40", "--rhs", "sz.json", "--format", "csv"],
    ["solve-fsm", "--example", "sierror", "--n", "20", "--rhs", "adj.json", "--format", "json"],
)

RUN_CLI = "import sys; from finsec.cli import main; sys.exit(main(sys.argv[1:]))"


def file_name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)).strip("_") + ".txt"


def main(args: list[str]) -> int:
    if len(args) != 1:
        print("usage: python tools/pinned_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(args[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        env[name] = "1"
    for argv in INVOCATIONS:
        done = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *argv],
            cwd=TOOLS,
            env=env,
            capture_output=True,
            text=True,
        )
        (out_dir / file_name(argv)).write_text(
            f"finsec {' '.join(argv)}\nexit {done.returncode}\n"
            f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        )
        print(f"exit {done.returncode}: finsec {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
