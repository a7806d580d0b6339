"""Checks of the benchmark itself; run with ``python -m pytest bench``.

Not part of the package's test suite (``testpaths`` is ``tests``): these
spawn the benchmark's child processes at reduced sizes and take seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import finsec.cli  # noqa: E402  (loads every finsec module)

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace):
    """One reduced-size invocation per workload: contract keys, metric units, oracle.

    With tracing, the traced output must equal the untraced bytes, and the
    workload's predicted dominant layers must have been entered.
    """
    result = _bench("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for k, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), k
    if trace:
        for layer in WORKLOADS[workload].dominant:
            assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer


def test_tracer_wraps_every_binding():
    originals = tracer.layer_functions()
    layers = {tracer.layer_of(m, n) for m, n in originals.values()}
    assert layers == set(tracer.LAYERS) - {tracer.ROOT}
    t = tracer.Tracer()
    t.install()
    try:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "finsec"]
        stale = [
            f"{mod.__name__}.{attr}"
            for mod in modules
            for attr, value in vars(mod).items()
            if callable(value) and value in originals
        ]
        assert not stale
        for name in ("fsm.singular_values", "rfsm.spectral_norm", "cli.rfsm_section"):
            mod, attr = name.split(".")
            assert getattr(sys.modules[f"finsec.{mod}"], attr).__wrapped__ in originals
    finally:
        t.uninstall()
    assert finsec.fsm.singular_values in originals


def _corrupt_first(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


CORRUPTIONS = {
    "scan-1d-block": lambda out: _corrupt_first(out, '"invertible": false', '"invertible": true'),
    "scan-2d-laplace": lambda out: _corrupt_first(out, "\n1,true,1,1.1", "\n1,true,1,1.2"),
    "study-1d-rect": lambda out: out.rstrip("\n").rsplit(",", 2)[0] + ",1e-3,1e-9\n",
    "example-sierror": lambda out: _corrupt_first(out, '"passed": true', '"passed": false'),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_oracle_rejects_wrong_output(workload, tmp_path):
    argv, oracle = WORKLOADS[workload].prepare(0, True, tmp_path)
    result = run.spawn(argv, False, 60)
    assert result["rc"] == 0 and oracle(result["output"]) is None
    assert oracle(CORRUPTIONS[workload](result["output"])) is not None


def test_refuses_checkout_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in HERE.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-1d-block", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
