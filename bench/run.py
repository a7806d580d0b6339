"""finsec benchmark: run one CLI workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Each invocation is a fresh child process (``child.py``) that imports finsec
from ``src/`` and calls ``finsec.cli.main(argv)`` with stdout captured and
BLAS pinned to one thread.  Invocations run one at a time (closed loop, one
client) until the next one would pass ``--seconds``, with at least three;
each output is checked by the workload's oracle (``workloads.py``).

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` of the
``main`` call, median ``setup_s`` from spawning the child until
``finsec.cli`` is imported (numpy import included), median ``peak_rss_mb``
of the child, and ``ok_frac``, the share of invocations that exited 0 and
passed the oracle.  ``--trace 1`` alternates untraced and traced
invocations, reports the per-layer metrics of the traced ones
(``tracer.py``) and ``trace.overhead_s``, and counts a traced output whose
bytes differ from the untraced one as a failure.  ``--smoke`` runs one
invocation (or pair) at a reduced size.

Output: one line per metric, one JSON line with the machine header and the
full statistics (quartiles, sample counts, layer ranking), and last the
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
    OMP_NUM_THREADS=str(BLAS_THREADS),
    MKL_NUM_THREADS=str(BLAS_THREADS),
)
WARMUP_IMPORTS = 2
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}
PER_LAYER = {
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "geometry.points": "count",
    "sections.calls": "count",
    "sections.self_s": "s",
    "sections.cells": "count",
    "sections.nnz": "count",
    "sections.bytes": "bytes",
    "sections.overflow_rows": "count",
    "linalg.self_s": "s",
    "linalg.sv.calls": "count",
    "linalg.sv.self_s": "s",
    "linalg.sv.flops": "flop",
    "linalg.sv.max_dim": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.flops": "flop",
    "methods.self_s": "s",
    "fsm.sections": "count",
    "rfsm.overflow_evals": "count",
    "catalog.self_s": "s",
    "catalog.scans": "count",
    "reports.self_s": "s",
    "reports.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child readings compare.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def machine_header(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def spawn(argv: list[str] | None, traced: bool, timeout: float) -> dict:
    """Run one child; returns its result plus ``setup_s``, or ``{"error": reason}``."""
    spec = json.dumps({"src": str(ROOT / "src"), "argv": argv, "trace": traced})
    start = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), spec],
            capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-500:]}"}
    result = json.loads(proc.stdout)
    result["setup_s"] = result["imported"] - start
    return result


def invoke(argv: list[str], traced: bool, oracle, timeout: float) -> dict:
    result = spawn(argv, traced, timeout)
    if "error" not in result:
        if result["rc"] != 0:
            result["error"] = f"exit code {result['rc']}"
        else:
            try:
                result["error"] = oracle(result["output"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                result["error"] = f"output unreadable: {exc!r}"
    return result


def stats(values: list[float]) -> dict:
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values),
            "samples": values}


def measure(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    """Run the workload's invocations and return the report of this run."""
    t0 = clock()
    workload = WORKLOADS[name]
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="finsec-bench-", dir=work_root) as tmp:
        argv, oracle = workload.prepare(seed, smoke, Path(tmp))
        for _ in range(WARMUP_IMPORTS):
            spawn(None, False, RUN_LIMIT_S)
        plain, traced, failures = [], [], []
        start = clock()
        while True:
            round_start = clock()
            timeout = max(1.0, RUN_LIMIT_S - (round_start - t0))
            p = invoke(argv, False, oracle, timeout)
            plain.append(p)
            if trace:
                t = invoke(argv, True, oracle, timeout)
                if t["error"] is None and p["error"] is None and t["output"] != p["output"]:
                    t["error"] = "traced output bytes differ from untraced"
                traced.append(t)
            failures += [r["error"] for r in (p, *traced[-1:]) if r["error"]]
            now = clock()
            if "wall_s" not in p or smoke:
                break
            if len(plain) >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
                break
    runs = [r for r in plain + traced if "wall_s" in r]
    done = [r for r in plain if "wall_s" in r]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(plain) + len(traced),
        "failed": len(failures),
        "failures": failures[:5],
        "argv": argv,
    }
    if not done:
        return report
    report["end_to_end"] = {
        "wall_s": stats([r["wall_s"] for r in done]),
        "setup_s": stats([r["setup_s"] for r in runs]),
        "peak_rss_mb": stats([r["maxrss_kb"] / 1024.0 for r in done]),
    }
    report["ok_frac"] = 1.0 - report["failed"] / report["attempted"]
    traced_done = [r for r in traced if "wall_s" in r]
    if traced_done:
        layer_runs = [summarize(r["spans"]) for r in traced_done]
        layers = {k: statistics.median(run.get(k, 0) for run in layer_runs)
                  for k in sorted(set().union(*layer_runs))}
        # Paired differences cancel machine drift between rounds.
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced) if "wall_s" in p and "wall_s" in t
        )
        report["layers"] = layers
        ranking = sorted(LAYERS, key=lambda k: -layers[f"{k}.self_s"])
        report["dominant"] = {"measured": ranking[:3], "predicted": list(workload.dominant)}
    return report


def contract_metrics(report: dict, trace: bool) -> dict:
    if trace:
        layers = report.get("layers", {})
        return {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    e2e = report["end_to_end"]
    values = {k: e2e[k]["median"] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    values["ok_frac"] = report["ok_frac"]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one invocation at a reduced size")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "finsec" / "cli.py").is_file():
        print(f"bench: no finsec sources under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    header = machine_header(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report = measure(name, args.seed, args.seconds, trace, args.smoke)
        if "end_to_end" not in report:
            print(f"bench: {name}: no invocation completed: {report['failures']}", file=sys.stderr)
            return 1
        metrics = contract_metrics(report, trace)
        for key, m in metrics.items():
            print(f"{name} {key} {m['value']!r} {m['unit']}")
        print(json.dumps({"header": header, **report}, sort_keys=True))
        summary["attempted"] += report["attempted"]
        summary["failed"] += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: m for k, m in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
