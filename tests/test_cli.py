import ast
import json
import os
import re
import runpy
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import finsec
from finsec import catalog, cli, errors, fsm, geometry, linalg, sections
from finsec.cli import main, parse_scalar
from finsec.operators import TableRule


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# scalar / config parsing
# ---------------------------------------------------------------------------


def test_parse_scalar_forms():
    assert parse_scalar("1") == 1
    assert parse_scalar("-2.5") == -2.5
    assert parse_scalar("3/4") == 0.75
    assert parse_scalar("1+2i") == 1 + 2j
    assert parse_scalar("-1.5-0.5i") == -1.5 - 0.5j
    assert parse_scalar(2) == 2
    with pytest.raises(ValueError):
        parse_scalar("wat")


@pytest.mark.parametrize("value", ["nan", "1+nani", "inf", float("nan"), 10**400])
def test_parse_scalar_rejects_non_finite(value):
    with pytest.raises(ValueError):
        parse_scalar(value)


def test_non_finite_rhs_exits_2(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "nan"}}))
    code, out, err = run_cli(
        ["solve-fsm", "--example", "blockdiag", "--n", "4", "--rhs", str(rhs)], capsys
    )
    assert code == 2
    assert out == ""
    assert "invalid configuration" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, config, message",
    [
        (["solve-fsm", "--example", "blockdiag", "--n", "4", "--rhs"],
         {"dimension": 1, "entries": {"0": "1/0"}}, "cannot parse scalar '1/0'"),
        (["scan", "--example", "shift", "--nmax", "3", "--omega"],
         {"vertices": [["1/0"], ["-1"]]}, "domain value '1/0' has a zero denominator"),
        (["scan", "--example", "shift", "--nmax", "3", "--omega"],
         {"facets": [{"normal": ["1"], "offset": "2/0"}, {"normal": ["-1"], "offset": "1"}]},
         "domain value '2/0' has a zero denominator"),
    ],
    ids=["rhs", "vertex", "facet"],
)
def test_zero_denominators_refused_by_value(command, config, message, tmp_path, capsys):
    # both used to print the repr Fraction(1, 0), which names neither the value nor its use
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli([*command, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"finsec: invalid configuration: {message}\n"


def test_a_large_modulus_is_refused_in_bounded_memory(capsys):
    # a bucket per residue class and all of them listed: 193 MB and a 7.9 MB line
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            ["scan", "--example", "shift", "--nmax", "10", "--modulus", str(10**6)], capsys
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "(1000000 in all, the first 10 shown) mod 1000000" in err
    assert len(err.encode()) < 1024 and peak < 2**20


def test_oversized_dense_window_exits_2(tmp_path, monkeypatch, capsys):
    # the 9-point window of n = 4 needs 9 * 9 * 16 bytes, twice: 2592 bytes
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 1000)
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"1": "1"}}))
    code, out, err = run_cli(
        ["solve-fsm", "--example", "worked_A", "--n", "4", "--rhs", str(rhs)], capsys
    )
    assert code == 2
    assert out == ""
    assert "9 x 9 needs 2592 bytes" in err and "Traceback" not in err


def test_a_window_declined_by_the_sparse_route_is_charged_as_a_dense_block(
    one_blas, monkeypatch, capsys
):
    # huge.json's entries pass 2^500, so its 529-point window n = 11 skips ARPACK and is
    # decided by a dense SVD, on one BLAS thread as pinned; assemble charges that block
    # before it allocates it
    argv = ["scan", "--operator", str(ROOT / "tools" / "huge.json"), "--omega", "square",
            "--nmin", "11", "--nmax", "11", "--format", "json"]
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 4 * 2**20)
    assert run_cli(argv, capsys) == (2, "", (
        "finsec: invalid configuration: dense window 529 x 529 needs 8954912 bytes, "
        "over the 4194304-byte budget\n"
    ))
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 8954912)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    pinned = ROOT / "tools" / "pinned" / (
        "scan_operator_huge.json_omega_square_nmin_11_nmax_12_format_json.txt"
    )
    report = pinned.read_text().split("--- stdout\n")[1].split("--- stderr")[0]
    assert json.loads(out)["records"] == json.loads(report)["records"][:1]


def test_adjacency_solve_is_charged_for_its_edges_not_a_block(tmp_path, monkeypatch, capsys):
    # window n = 40 of blockdiag is an 81 x 81 dense block of 104,976 bytes, but
    # the solve moves only b's entries: its 40 edges fit their 3,520-byte charge
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 10000)
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"1": "1", "-40": "2"}}))
    argv = ["solve-fsm", "--example", "blockdiag", "--rhs", str(rhs), "--n"]
    for n in ("40", "100"):  # 100 edges, 8,800 bytes
        code, out, err = run_cli([*argv, n], capsys)
        assert code == 0, err
        assert out == "point,real,imag\n-39,2,0\n2,1,0\n"
    code, out, err = run_cli([*argv, "200"], capsys)
    assert code == 2 and out == ""
    assert "edge family of 200 edges needs 17600 bytes" in err


def test_adjacency_solve_refuses_the_rhs_dimension_then_the_coverage_then_a_singular_window(
    tmp_path, capsys
):
    gen = tmp_path / "gen.json"  # sierror edges, complete up to radius 8
    gen.write_text(json.dumps({"variant": "adjacency", "generator": "sierror", "bound": 2}))
    rhs_1d, rhs_2d = tmp_path / "r1.json", tmp_path / "r2.json"
    rhs_1d.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    rhs_2d.write_text(json.dumps({"dimension": 2, "entries": {"0;1": "1"}}))
    windows = [
        (["--example", "sierror", "--n", "5"], 0, ""),
        (["--example", "sierror", "--n", "4"], 3, "section at n=4 is singular"),
        (["--operator", str(gen), "--omega", "square", "--n", "9"], 2,
         "window n=9 needs edges complete up to max-norm radius 9"),
    ]
    for window, exit_code, message in windows:
        code, out, err = run_cli(["solve-fsm", *window, "--rhs", str(rhs_1d)], capsys)
        assert code == 2 and out == ""
        assert "a 1-D vector cannot fill a 2-D window" in err and "Traceback" not in err
        code, out, err = run_cli(["solve-fsm", *window, "--rhs", str(rhs_2d)], capsys)
        assert code == exit_code, err
        assert message in err and "Traceback" not in err


def test_dense_solve_prints_no_negative_zero(tmp_path, capsys):
    # BLAS signs a zero real part beside -1.5i by the entry's place in the block
    op, rhs = tmp_path / "id.json", tmp_path / "neg.json"
    op.write_text(json.dumps({
        "variant": "band_diagonals", "dimension": 1,
        "diagonals": [{"offset": [0], "rule": {"kind": "constant", "value": "1"}}],
    }))
    rhs.write_text(json.dumps({"dimension": 1, "entries": {k: "0-1.5i" for k in ("-1", "0", "1")}}))
    argv = ["solve-fsm", "--operator", str(op), "--omega", "interval", "--n", "1"]
    code, out, err = run_cli([*argv, "--rhs", str(rhs)], capsys)
    assert code == 0, err
    assert out == "point,real,imag\n-1,0,-1.5\n0,0,-1.5\n1,0,-1.5\n"


@pytest.mark.parametrize(
    "command, refusal",
    [
        # the reference block (1000 + 1, 1000) of the 1000 edges that reach window 1000
        (["study", "--nmax", "4", "--reference-n", "1000"], "dense window 2003 x 2001 needs"),
        (["study", "--nmax", "4", "--reference-n", "1000", "--omega", "interval"],
         "dense window 2003 x 2001 needs"),
        (["solve-rfsm", "--n", "1000", "--m", "1001"], "dense window 2003 x 2001 needs"),
        (["solve-rfsm", "--epsilon", "1e-2", "--a-norm", "1", "--a-inv-norm", "1",
          "--reference-n", "1000"], "dense window 2003 x 2001 needs"),
        # a square solve builds no window: only its edge family is charged
        (["solve-fsm", "--n", "20000"], "edge family of 20000 edges needs 1760000 bytes"),
    ],
    ids=[f"command{i}" for i in range(5)],
)
def test_dense_commands_refuse_before_the_generator_is_built(
    command, refusal, tmp_path, monkeypatch, capsys
):
    # The edge family is charged and generated first, then the command's block is
    # refused; what it built by then stays within the budget.
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 10**6)
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    tracemalloc.start()
    try:
        code, out, err = run_cli([*command, "--example", "blockdiag", "--rhs", str(rhs)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert refusal in err and "Traceback" not in err
    assert peak < 10**6


def test_the_early_dense_charge_refuses_no_block_that_fits(tmp_path, monkeypatch, capsys):
    # the reference block of blockdiag at reference n = 10 is 23 x 21, and the
    # early charge is that block: a budget that holds it refuses nothing
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", sections._dense_bytes(23, 21))
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    blockdiag = ["--example", "blockdiag", "--rhs", str(rhs)]
    code, _, err = run_cli(["study", *blockdiag, "--nmax", "4", "--reference-n", "10"], capsys)
    assert code == 0, err
    code, _, err = run_cli(["solve-rfsm", *blockdiag, "--n", "10", "--m", "11"], capsys)
    assert code == 0, err


@pytest.mark.parametrize(
    "command",
    [["study", "--nmax", "4", "--reference-n", "10"], ["solve-rfsm", "--n", "10", "--m", "13"]],
    ids=["study", "solve-rfsm"],
)
def test_the_dense_charge_counts_the_lapack_copy(command, monkeypatch, capsys):
    # the tallest block of both is 27 x 21 (m = 13, n = 10 of worked_A); numpy's
    # lstsq copies it, so a budget between one and two blocks cannot hold the solve
    block = 16 * 27 * 21
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", block * 3 // 2)

    def unreached(*args, **kwargs):
        raise AssertionError("lstsq called on a block the budget cannot hold twice")

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", unreached)
        code, out, err = run_cli([*command, "--example", "worked_A"], capsys)
    assert code == 2 and out == ""
    assert "dense window 27 x 21 needs 18144 bytes" in err and "Traceback" not in err
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 2 * block)
    code, out, err = run_cli([*command, "--example", "worked_A"], capsys)
    assert code == 0, err


def test_solve_rfsm_reference_n_defaults_to_64_with_epsilon(capsys):
    argv = ["solve-rfsm", "--example", "worked_A", "--epsilon", "1e-3", "--format", "json"]
    default = run_cli(argv, capsys)
    assert default[0] == 0, default[2]
    assert run_cli([*argv, "--reference-n", "64"], capsys) == default
    assert run_cli([*argv, "--reference-n", "8"], capsys) != default


@pytest.mark.parametrize(
    "command, refusal",
    [
        (["solve-fsm", "--example", "worked_Aprime", "--n", "10"],
         "dense window 21 x 21 needs 14112 bytes"),
        (["solve-rfsm", "--example", "worked_A", "--n", "10", "--m", "13"],
         "dense window 27 x 21 needs 18144 bytes"),
        # the reference solve of --epsilon at reference n = 64
        (["solve-rfsm", "--example", "worked_A", "--epsilon", "1e-3"],
         "dense window 135 x 129 needs 557280 bytes"),
    ],
    ids=["solve-fsm", "solve-rfsm", "epsilon"],
)
def test_a_built_in_rhs_is_built_only_for_a_charged_window(
    command, refusal, monkeypatch, capsys
):
    # the library reads a built-in right-hand side from a window it has charged
    windows = []
    for name in ("geometric_rhs", "_shifted_geometric_rhs"):
        rhs = getattr(catalog, name)
        monkeypatch.setattr(catalog, name, lambda w, rhs=rhs: windows.append(len(w)) or rhs(w))
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 1000)
    assert run_cli(command, capsys) == (
        2, "", f"finsec: invalid configuration: {refusal}, over the 1000-byte budget\n"
    )
    assert windows == []
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 2**31)
    code, _, err = run_cli(command, capsys)
    assert code == 0, err
    assert windows  # the patched right-hand side is the one the command reads


# A fresh interpreter that alone has 3 GiB of address space; it prints its own peak
# resident set (VmHWM, in kB) once the command returns.
_CAPPED = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
from finsec.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""

_OVER = ", over the 2147483648-byte budget"
_SCAN_REFUSAL = f"window of 7255013 points and 5 stored diagonals needs 2147483848 bytes{_OVER}"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize(
    "argv, refusal",
    [
        # the first window over the budget is n = 3627506
        (["scan", "--nmax", "10000000"], _SCAN_REFUSAL),
        (["scan", "--nmax", "100000000"], _SCAN_REFUSAL),
        (["study", "--nmax", "10000000", "--reference-n", "10000001"],
         f"dense window 20000009 x 20000003 needs 12800007680000864 bytes{_OVER}"),
        (["study", "--nmax", "10000000", "--reference-n", "64"],
         "reference_n must exceed every requested n"),
        (["study", "--nmax", "10000000", "--reference-n", "10000001", "--coupling", "explicit:1"],
         "explicit coupling needs 9999999 row cut-offs, got 1"),
        (["study", "--nmax", "100000000", "--reference-n", "100000001"],
         f"dense window 200000009 x 200000003 needs 1280000076800000864 bytes{_OVER}"),
    ],
    ids=["scan-1e7", "scan-1e8", "study-1e7", "study-reference-64", "study-explicit", "study-1e8"],
)
def test_a_scan_or_study_of_a_huge_nmax_is_refused_before_it_lists_its_cut_offs(argv, refusal):
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv, "--example", "worked_A"],
        env=_one_blas_thread_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (2, f"finsec: invalid configuration: {refusal}\n")
    assert int(proc.stdout) < 100 * 1024  # kB


@pytest.mark.parametrize(
    "command", [["solve-fsm", "--n"], ["solve-rfsm", "--m", "200001", "--n"]]
)
def test_over_budget_window_refused_before_it_is_built(
    command, tmp_path, monkeypatch, capsys
):
    def never(*args):
        raise AssertionError("lattice_section called for an over-budget window")

    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 1000)
    monkeypatch.setattr(sections, "lattice_section", never)
    op = tmp_path / "op.json"
    op.write_text(
        json.dumps(
            {
                "variant": "band_diagonals",
                "diagonals": [{"offset": [0], "rule": {"kind": "constant", "value": "2"}}],
            }
        )
    )
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    source = ["--operator", str(op), "--omega", "interval", "--rhs", str(rhs)]
    code, out, err = run_cli([*command, "200000", *source], capsys)
    assert code == 2
    assert out == ""
    assert "over the 1000-byte budget" in err and "Traceback" not in err


BAD_FLOATS = [
    ("scan --example blockdiag --nmax 6", "--tau-rel", "nan"),
    ("scan --example blockdiag --nmax 6", "--tau-rel", "-1"),
    ("example blockdiag", "--tau-rel", "x"),
    ("scan --example worked_Aprime --nmax 12 --modulus 3", "--norm-cap", "nan"),
    ("scan --example worked_Aprime --nmax 12 --modulus 3", "--norm-cap", "0"),
    ("solve-rfsm --example worked_A --n 3 --m 6", "--delta", "nan"),
    ("solve-rfsm --example worked_A --n 3 --m 6", "--delta", "-1e-3"),
    ("solve-rfsm --example worked_A", "--epsilon", "inf"),
    ("solve-rfsm --example worked_A --epsilon 1e-3", "--a-norm", "-inf"),
    ("solve-rfsm --example worked_A --epsilon 1e-3", "--a-inv-norm", "0"),
    ("study --example worked_A --nmax 8", "--a-inv-norm", "1e400"),
]


# A constant 5-point operator on the 2-D lattice, diagonal 5.
FIVE_POINT = {
    "variant": "band_diagonals",
    "dimension": 2,
    "diagonals": [
        {"offset": list(d), "rule": {"kind": "constant", "value": v}}
        for d, v in [((0, 0), "5"), ((1, 0), "-1"), ((-1, 0), "-1"), ((0, 1), "-1"), ((0, -1), "-1")]
    ],
}


@pytest.mark.parametrize("command, flag, value", BAD_FLOATS)
def test_bad_float_flag_exits_2(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), f"{flag}={value}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: expected a finite number" in err
    assert "Traceback" not in err


def test_every_error_class_has_one_exit_status():
    bases = {errors.FinsecError, errors.ConfigError, errors.NumericError}
    leaves = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.FinsecError)
        and cls not in bases
    ]
    assert errors.NoFeasibleMError in leaves
    for cls in leaves:
        assert issubclass(cls, errors.ConfigError) != issubclass(cls, errors.NumericError)


def test_repeated_band_offset_exits_2(tmp_path, capsys):
    rule = {"kind": "constant", "value": "1"}
    op = tmp_path / "op.json"
    op.write_text(
        json.dumps(
            {
                "variant": "band_diagonals",
                "diagonals": [{"offset": [1], "rule": rule}, {"offset": [1], "rule": rule}],
            }
        )
    )
    code, out, err = run_cli(
        ["scan", "--operator", str(op), "--omega", "interval", "--nmax", "4"], capsys
    )
    assert code == 2
    assert out == ""
    assert "repeats offset" in err


def test_overflowing_operator_exits_3(tmp_path, capsys):
    # every entry is finite, but sigma_max of the section overflows a double
    big = {"kind": "constant", "value": "1.7e308"}
    op = tmp_path / "op.json"
    op.write_text(
        json.dumps(
            {
                "variant": "band_diagonals",
                "diagonals": [{"offset": [d], "rule": big} for d in (-1, 0, 1)],
            }
        )
    )
    code, out, err = run_cli(
        ["scan", "--operator", str(op), "--omega", "interval", "--nmax", "4",
         "--format", "json"],
        capsys,
    )
    assert code == 3
    assert "Infinity" not in out and "NaN" not in out
    assert "numeric failure" in err and "Traceback" not in err


def _loaded_by_cli_import(names):
    """Which of the modules in names a fresh `import finsec.cli` loads."""
    src = str(Path(finsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", f"import sys, finsec.cli; print(sorted({names!r} & sys.modules.keys()))"],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def test_cli_import_does_not_load_scipy():
    # scipy is loaded only by the sparse sigma kernel, never at start-up
    assert _loaded_by_cli_import(["scipy"]) == "[]\n"


def test_cli_import_does_not_load_the_thread_pool():
    # concurrent.futures (and logging under it) and multiprocessing load when
    # a scan or study forks workers, and mmap when a block past the huge-page
    # cut is built, not at start-up
    assert _loaded_by_cli_import(["concurrent.futures", "mmap", "multiprocessing"]) == "[]\n"


def test_cli_import_does_not_load_dataclasses():
    # the value classes are plain classes, so dataclasses never loads
    assert _loaded_by_cli_import(["dataclasses"]) == "[]\n"


_KILLED_WORKER = r"""
import os, sys
from finsec import cli, fsm, linalg, rfsm

linalg._free_cores = lambda: 2
fsm.POOL_MIN_POINTS = 0
extremes, solve_window = fsm.section_extremes, rfsm._solve_window
dies_at = int(sys.argv[1])

def dying(operator, domain, n, tau_rel):
    if n == dies_at:
        os._exit(1)
    return extremes(operator, domain, n, tau_rel)

def dying_solve(operator, rhs, domain, m, n):
    if n == dies_at:
        os._exit(1)
    return solve_window(operator, rhs, domain, m, n)

fsm.section_extremes, rfsm._solve_window = dying, dying_solve
sys.exit(cli.main(sys.argv[2:]))
"""


# (n whose worker dies, argv); the CLI's one line is the same in every case
KILLED_WORKERS = (
    (5, ["scan", "--example", "worked_Aprime", "--nmax", "12"]),
    # a 2-D scan's dense prefix (n <= 10) and sparse suffix (625 points at n = 12)
    (5, ["scan", "--operator", "lap5.json", "--omega", "square", "--nmax", "12"]),
    (12, ["scan", "--operator", "lap5.json", "--omega", "square", "--nmax", "12"]),
    (5, ["study", "--example", "worked_A", "--nmax", "12", "--reference-n", "24"]),
)


def _one_blas_thread_env():
    """The environment of a fresh interpreter on this src tree with BLAS on one
    thread, so that the two workers of a scan or study patched to two cores
    do not oversubscribe them."""
    src = str(Path(finsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(dict.fromkeys(linalg._BLAS_THREAD_VARIABLES, "1"))
    return env


def test_killed_scan_worker_exits_3_without_a_traceback():
    for dies_at, argv in KILLED_WORKERS:
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_WORKER, str(dies_at), *argv],
            cwd=ROOT / "tools", env=_one_blas_thread_env(), capture_output=True, text=True,
            timeout=60,
        )
        case = (dies_at, argv)
        assert proc.returncode == 3, case
        assert proc.stdout == "", case
        assert proc.stderr == "finsec: numeric failure: a worker process ended abruptly\n", case


_SLOW_WINDOWS = r"""
import os, sys, time
from finsec import cli, fsm, linalg, rfsm

linalg._free_cores = lambda: 2
fsm.POOL_MIN_POINTS = 0
running = sys.argv[1]
solve_window = rfsm._solve_window

def started():
    open(os.path.join(running, str(os.getpid())), "a").close()
    time.sleep(0.5)

def slow(operator, domain, n, tau_rel):
    started()
    return 1.0, 1.0

def slow_solve(*args):
    started()
    return solve_window(*args)

fsm.section_extremes, rfsm._solve_window = slow, slow_solve
sys.exit(cli.main(sys.argv[2:]))
"""


INTERRUPTED = (
    ["scan", "--example", "worked_Aprime", "--nmax", "12"],
    ["study", "--example", "worked_A", "--nmax", "200", "--reference-n", "400"],
)


def test_interrupted_scan_exits_130_with_one_line(tmp_path):
    for argv in INTERRUPTED:
        running = tmp_path / argv[0]
        running.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SLOW_WINDOWS, str(running), *argv],
            env=_one_blas_thread_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            # both workers have begun a window, so both ignore SIGINT
            deadline = time.monotonic() + 60
            while len(list(running.iterdir())) < 2:
                assert proc.poll() is None and time.monotonic() < deadline, argv
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C does: to every process of the group
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130, argv
        assert (out, err) == ("", "finsec: interrupted\n"), argv
        with pytest.raises(ProcessLookupError):  # no worker outlived the command
            os.killpg(proc.pid, 0)


@pytest.mark.parametrize("cores, started", [(1, []), (2, [2])])
def test_out_of_memory_exits_2_with_one_line(cores, started, pools, monkeypatch, capsys):
    # a MemoryError of the sparse factor, raised here or pickled back from a worker; the
    # test process has loaded scipy, so a pooled scan starts one pool
    import scipy.sparse.linalg

    def splu(matrix):
        raise MemoryError("Can't expand MemType 1:\n jcol 87931")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    monkeypatch.setattr(linalg, "_free_cores", lambda: cores)
    # windows 11 and 12 of the square have 529 and 625 points, past POOL_MIN_POINTS
    # and on the sparse route
    argv = ["scan", "--operator", str(ROOT / "tools" / "lap5.json"), "--omega", "square",
            "--nmin", "11", "--nmax", "12"]
    code, out, err = run_cli(argv, capsys)
    assert pools == started
    assert (code, out) == (2, "")
    assert err == "finsec: out of memory: Can't expand MemType 1: jcol 87931\n"


# A pooled scan starts two pools only where scipy is not loaded yet, so these scans run
# in a fresh interpreter.
_SCAN_HEAD = r"""
import concurrent.futures, json, os, sys, time
from finsec import builtin_domain, fsm, linalg
from finsec.operators import BandDiagonals, TableRule

linalg._free_cores = lambda: 2
pools = []
executor = concurrent.futures.ProcessPoolExecutor

def recording(workers, **kwargs):
    pools.append(workers)
    return executor(workers, **kwargs)

concurrent.futures.ProcessPoolExecutor = recording
square = builtin_domain("square")
stencil = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
extremes, import_sparse = fsm.section_extremes, fsm._import_sparse
imported = False  # set here once the import ends, seen by workers forked after

def import_taking(seconds, real):
    def importing():
        global imported
        time.sleep(seconds)
        if real:
            import_sparse()
        imported = True
    fsm._import_sparse = importing
"""


def _fresh_interpreter(script):
    proc = subprocess.run(
        [sys.executable, "-c", _SCAN_HEAD + script],
        env=_one_blas_thread_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


_SCAN_PHASES = r"""
operator = BandDiagonals.from_rules(2, {d: 4 if d == (0, 0) else -1 for d in stencil})
pause = 0.0

def seen(operator, domain, n, tau_rel):
    if n <= 10:
        time.sleep(pause)
    return n, os.getpid(), imported, "scipy" in sys.modules, *extremes(operator, domain, n, tau_rel)

def scan(ns):
    pools.clear()
    rows = fsm._scan_extremes(operator, square, ns, 1e-12)
    return pools[:], rows

fsm.section_extremes = seen
out = {"parent": os.getpid()}
# window 10 has 441 points, window 11 has 529
out["small"] = *scan(list(range(1, 11))), "scipy" in sys.modules
# an import (0.05 s) that ends before the first dense window does (each sleeps 0.1 s)
pause = 0.1
import_taking(0.05, real=False)
out["handed_on"] = scan(list(range(1, 13)))
# an import that ends after every dense window
pause = 0.0
import_taking(0.5, real=True)
out["two_phase"] = scan(list(range(1, 17)))
out["loaded"] = scan(list(range(1, 17)))
out["serial"] = [extremes(operator, square, n, 1e-12) for n in range(1, 17)]
print(json.dumps(out))
"""


def test_dense_windows_run_in_workers_forked_before_scipy():
    out = _fresh_interpreter(_SCAN_PHASES)
    pools, rows, loaded = out["small"]
    # a pooled scan of windows below 512 points never loads scipy
    assert pools == [2]
    assert [n for n, *_ in rows] == list(range(1, 11))
    assert not loaded
    assert not any(scipy for *_, scipy, _, _ in rows)
    # the windows the first pool has not begun when the import ends go to the second
    pools, rows = out["handed_on"]
    assert pools == [1, 2]
    assert [n for n, *_ in rows] == list(range(1, 13))
    after = [imported for _, _, imported, *_ in rows]
    assert after == sorted(after)
    assert after.count(False) < 10
    # the dense windows run in a worker forked before scipy loads, the sparse ones after
    pools, rows = out["two_phase"]
    assert pools == [1, 2]
    assert [n for n, *_ in rows] == list(range(1, 17))
    assert [scipy for *_, scipy, _, _ in rows] == [False] * 10 + [True] * 6
    # with scipy loaded there is nothing to overlap: one pool
    pools, again = out["loaded"]
    assert pools == [2]
    assert all(scipy for *_, scipy, _, _ in again)
    serial = [list(pair) for pair in out["serial"]]
    assert [row[-2:] for row in rows] == serial
    assert [row[-2:] for row in again] == serial
    assert out["parent"] not in {pid for _, pid, *_ in out["small"][1] + rows + again}


_SCAN_ERRORS = r"""
import_taking(0.3, real=False)
out = {}
for k in (5, 12):
    big = TableRule.from_mapping({(k, 0): 1.7e308}, default=1, dimension=2)
    operator = BandDiagonals.from_rules(2, {d: big for d in stencil})

    def failing(operator, domain, n, tau_rel, k=k):
        if n > k:
            raise ValueError(f"window n={n} is over the budget")
        return extremes(operator, domain, n, tau_rel)

    fsm.section_extremes = failing
    errors = []
    for cores in (2, 1):
        linalg._free_cores = lambda: cores
        pools.clear()
        try:
            fsm.stability_scan(operator, square, range(1, 17))
        except Exception as exc:
            errors.append([type(exc).__name__, str(exc), pools[:]])
    out[k] = errors
print(json.dumps(out))
"""


def test_two_pool_scan_raises_the_first_failing_windows_error():
    # window k overflows; windows past k are refused at once, so they can fail first.
    # The import takes 0.3 s: window 5 fails in the first pool, window 12 in the second.
    out = _fresh_interpreter(_SCAN_ERRORS)
    for k, started in (("5", [1]), ("12", [1, 2])):
        (kind, pooled, pools), serial = out[k]
        assert pools == started, k
        assert [kind, pooled, []] == serial
        assert kind == "NonFiniteResultError"
        assert pooled.startswith(f"section at n={k} has non-finite singular values")


_ON_CORES = r"""
import sys
from finsec import cli, fsm, linalg

linalg._free_cores = lambda: int(sys.argv[1])
fsm.POOL_MIN_POINTS = 0
sys.exit(cli.main(sys.argv[2:]))
"""


def _five_point(center: dict, neighbour: dict) -> dict:
    """A 2-D five-point operator with one rule on its diagonal and one on the other four."""
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return {"variant": "band_diagonals", "dimension": 2,
            "diagonals": [{"offset": [0, 0], "rule": center},
                          *({"offset": list(d), "rule": neighbour} for d in offsets)]}


def _table(entry: str, default: str) -> dict:
    return {"kind": "table", "default": default, "entries": {"3;0": entry}}


def _constant(value: str) -> dict:
    return {"kind": "constant", "value": value}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _scan_json(operator: dict, tmp_path, cores: int, env=None) -> str:
    """stdout of `scan --nmin 11 --nmax 12 --format json` on `square` in a fresh
    interpreter on `cores` cores, checked for exit 0, empty stderr and strict JSON."""
    op = tmp_path / "op.json"
    op.write_text(json.dumps(operator))
    argv = ["scan", "--operator", str(op), "--omega", "square", "--nmin", "11", "--nmax", "12",
            "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", _ON_CORES, str(cores), *argv],
        env={**_one_blas_thread_env(), **(env or {})}, capture_output=True, text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), cores
    json.loads(proc.stdout, parse_constant=_reject_constant)
    return proc.stdout


# On windows n = 11 and 12 (529 and 625 points) of these, LAPACK inside ARPACK's
# Lanczos prints "** On entry to DLASCL parameter number  4 had an illegal value".
# The first three have entries past 2^+-500 and now skip ARPACK; the last does not.
@pytest.mark.parametrize("operator", [
    _five_point(_table("1e300", "1"), _table("1e300", "1")),
    _five_point(_table("1e-200", "1"), _table("1e-200", "1")),
    _five_point(_table("1e-200", "1e-200"), _table("1e-200", "1e-200")),
    _five_point(_constant("1"), _constant("1e120")),
])
def test_arpack_error_text_stays_off_stdout(tmp_path, operator):
    # serially, then in a two-worker pool
    outputs = [_scan_json(operator, tmp_path, cores) for cores in (1, 2)]
    assert "DLASCL" not in outputs[0]
    assert outputs[0] == outputs[1]


def test_window_whose_sparse_factor_would_overflow_is_scanned_dense(tmp_path):
    # SuperLU wrote out of bounds factoring window n = 12 of this operator, so the process
    # died by SIGSEGV; glibc's MALLOC_PERTURB_ made that happen on every run.
    values = [((0, 0), "1e-300"), ((1, 0), "1e300"), ((-1, 0), "1e150"), ((0, 1), "1e150"),
              ((0, -1), "1e-300")]
    operator = {"variant": "band_diagonals", "dimension": 2,
                "diagonals": [{"offset": list(d), "rule": _constant(v)} for d, v in values]}
    _scan_json(operator, tmp_path, 1, env={"MALLOC_PERTURB_": "165"})


def test_sparse_scan_with_descriptor_1_closed_writes_its_out_file(tmp_path):
    # the capture of descriptor 1 around ARPACK must not need an open one
    argv = ["scan", "--operator", "lap5.json", "--omega", "square", "--nmin", "11", "--nmax", "12"]
    outputs = []
    for prelude in ("", "import os; os.close(1)\n"):
        out = tmp_path / f"out{len(outputs)}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", prelude + _ON_CORES, "1", *argv, "--out", str(out)],
            cwd=ROOT / "tools", env=_one_blas_thread_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), prelude
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


def test_scanned_window_refused_before_it_is_built(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("lattice_section called for an over-budget window")

    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 10**6)
    monkeypatch.setattr(fsm, "lattice_section", never)
    op = tmp_path / "lap.json"
    op.write_text(json.dumps(FIVE_POINT))
    code, out, err = run_cli(
        ["scan", "--operator", str(op), "--omega", "square", "--nmin", "5000", "--nmax", "5000"],
        capsys,
    )
    assert code == 2
    assert out == ""
    # the row walk stops at the first row of 10,001 points that passes the budget
    assert "window of at least 10001 points and 5 stored diagonals" in err
    assert "needs at least 3040304 bytes, over the 1000000-byte budget" in err
    assert "Traceback" not in err


BOUNDED_REFUSALS = {
    "scan": ["scan", "--nmin", "1000000", "--nmax", "1000000"],
    "solve-fsm": ["solve-fsm", "--rhs", "RHS", "--n", "1000000"],
    "solve-rfsm-window": ["solve-rfsm", "--rhs", "RHS", "--n", "1000000", "--m", "1000001"],
    "solve-rfsm-epsilon": ["solve-rfsm", "--rhs", "RHS", "--epsilon", "1e-3", "--a-norm", "9",
                           "--a-inv-norm", "1", "--reference-n", "1000000"],
    "study": ["study", "--rhs", "RHS", "--nmax", "3", "--reference-n", "1000000"],
}


@pytest.mark.parametrize("argv", BOUNDED_REFUSALS.values(), ids=BOUNDED_REFUSALS.keys())
def test_refusals_walk_only_as_far_as_the_budget(argv, tmp_path, monkeypatch, capsys):
    # window 10**6 of square has 2,000,001 rows; counting them all took seconds
    rows = []
    row_range = geometry._last_coordinate_range

    def counted(*args):
        rows.append(None)
        return row_range(*args)

    monkeypatch.setattr(geometry, "_last_coordinate_range", counted)
    op, rhs = tmp_path / "lap.json", tmp_path / "rhs.json"
    op.write_text(json.dumps(FIVE_POINT))
    rhs.write_text(json.dumps({"dimension": 2, "entries": {"0;0": "1"}}))
    argv = [str(rhs) if a == "RHS" else a for a in argv]
    tracemalloc.start()
    try:
        code, out, err = run_cli([*argv, "--operator", str(op), "--omega", "square"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "over the 2147483648-byte budget" in err and "Traceback" not in err
    assert len(rows) <= 10**4
    assert peak < 10 * 1024**2


@pytest.mark.parametrize(
    "command",
    [
        ["scan", "--example", "diamond", "--nmin", "1000000000", "--nmax", "1000000000"],
        ["example", "diamond", "--nmax", "1000000000"],
        ["solve-fsm", "--example", "diamond", "--n", "1000000000"],
        ["solve-rfsm", "--example", "diamond", "--n", "1000000000", "--m", "1000000000"],
        ["study", "--example", "diamond", "--nmax", "4", "--reference-n", "1000000000"],
    ],
    ids=[f"command{i}" for i in range(5)],
)
def test_edge_family_is_refused_before_it_is_generated(command, monkeypatch, capsys):
    # diamond's edges must reach the radius of the window: 10**9 of them, at
    # 24 + 64 * 2 bytes each
    generate = catalog._edges_diamond

    def probe_only(k_max):
        assert k_max == 1, "generator built past the budget"
        return generate(k_max)

    monkeypatch.setattr(catalog, "_edges_diamond", probe_only)
    code, out, err = run_cli(command, capsys)
    assert code == 2 and out == ""
    assert "edge family of 1000000000 edges needs 152000000000 bytes" in err


@pytest.mark.parametrize(
    "command",
    [
        ["scan", "--example", "diamond", "--nmax", "1000000000"],
        ["solve-fsm", "--example", "diamond", "--n", "1000000000"],
        ["solve-rfsm", "--example", "diamond", "--n", "1000000000", "--m", "1000000000"],
        ["study", "--example", "diamond", "--nmax", "4", "--reference-n", "1000000000"],
    ],
    ids=["scan", "solve-fsm", "solve-rfsm", "study"],
)
def test_example_on_a_domain_of_another_dimension_is_refused_after_the_probe(
    command, monkeypatch, capsys
):
    generate = catalog._edges_diamond

    def probe_only(k_max):
        assert k_max == 1, "generator built past the probe"
        return generate(k_max)

    monkeypatch.setattr(catalog, "_edges_diamond", probe_only)
    code, out, err = run_cli([*command, "--omega", "interval"], capsys)
    assert (code, out) == (2, "")
    assert err == "finsec: invalid configuration: a 2-D operator cannot act on a 1-D domain\n"


@pytest.mark.parametrize(
    "command",
    [
        ["scan", "--nmax", "3"],
        ["solve-fsm", "--n", "3", "--rhs", "rhs.json"],
        ["solve-rfsm", "--n", "3", "--m", "4", "--rhs", "rhs.json"],
        ["study", "--nmax", "3", "--reference-n", "4", "--rhs", "rhs.json"],
    ],
    ids=["scan", "solve-fsm", "solve-rfsm", "study"],
)
@pytest.mark.parametrize(
    "source, omega, message",
    [
        (["--example", "worked_A"], "square", "a 1-D operator cannot act on a 2-D domain"),
        (["--operator", "lap5.json"], "interval", "a 2-D operator cannot act on a 1-D domain"),
        (["--operator", "shift.json"], "square", "a 1-D operator cannot act on a 2-D domain"),
    ],
    ids=["example", "2-D-operator", "1-D-operator"],
)
def test_operator_and_domain_of_other_dimensions_are_refused_by_name(
    command, source, omega, message, tmp_path, capsys
):
    (tmp_path / "shift.json").write_text(json.dumps({"variant": "shift", "step": 1}))
    (tmp_path / "lap5.json").write_text((ROOT / "tools" / "lap5.json").read_text())
    (tmp_path / "rhs.json").write_text(json.dumps({"entries": {"0": "1"}}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in [*command, *source]]
    code, out, err = run_cli([*argv, "--omega", omega], capsys)
    assert (code, out) == (2, "")
    assert err == f"finsec: invalid configuration: {message}\n"


def test_declared_dimension_0_is_refused(tmp_path, capsys):
    # a declared 0 used to be read as no dimension, and the domain scanned as 2-D
    omega = tmp_path / "d0.json"
    omega.write_text(json.dumps({"dimension": 0, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
    operator = str(ROOT / "tools" / "lap5.json")
    code, out, err = run_cli(
        ["scan", "--operator", operator, "--omega", str(omega), "--nmax", "1"], capsys
    )
    assert (code, out) == (2, "")
    assert err == "finsec: invalid configuration: a domain needs dimension >= 1, got 0\n"


PERIODIC_REPEAT = {
    "variant": "band_diagonals",
    "diagonals": [
        {"offset": [0], "rule": {"kind": "periodic", "period": [2], "table": {"0": "1", "2": "3"}}}
    ],
}


@pytest.mark.parametrize(
    "argv, operator, rhs, code, message",
    [
        (  # a right-hand side of another dimension than the window
            ["solve-fsm", "--example", "shift", "--n", "1"], None,
            {"dimension": 2, "entries": {"0;0": "1"}},
            2, "a 2-D vector cannot fill a 1-D window",
        ),
        (  # residues 0 and 2 agree mod 2
            ["scan", "--omega", "interval", "--nmax", "3"], PERIODIC_REPEAT, None,
            2, "coefficient table gives [0] twice",
        ),
        (  # |1e300|^2 leaves the double range
            ["study", "--example", "worked_A", "--nmax", "3", "--reference-n", "4"], None,
            {"dimension": 1, "entries": {"0": "1e300"}},
            3, "the norm of a vector overflows a double",
        ),
        (  # so does the residual's norm, which numpy took with a RuntimeWarning
            ["solve-rfsm", "--example", "worked_A", "--n", "3", "--m", "4"], None,
            {"dimension": 1, "entries": {"0": "1e300"}},
            3, "the norm of a vector overflows a double",
        ),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inputs_found_by_the_fuzz_exit_cleanly(argv, operator, rhs, code, message, tmp_path, capsys):
    if operator is not None:
        (tmp_path / "op.json").write_text(json.dumps(operator))
        argv = [*argv, "--operator", str(tmp_path / "op.json")]
    if rhs is not None:
        (tmp_path / "rhs.json").write_text(json.dumps(rhs))
        argv = [*argv, "--rhs", str(tmp_path / "rhs.json")]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert out == ""
    assert message in err and "Traceback" not in err


SCAN_OPERATOR = ["scan", "--omega", "interval", "--nmax", "3", "--operator"]


def _periodic_table(table):
    rule = {"kind": "periodic", "period": [2], "table": table}
    return {"variant": "band_diagonals", "diagonals": [{"offset": [0], "rule": rule}]}


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (  # the solve used to take 5, the last value given for point 1
            ["solve-fsm", "--operator", "op.json", "--omega", "interval", "--n", "2", "--rhs"],
            {"entries": {"1": "1", "+1": "5"}},
            "field 'entries' gives point [1] twice, as '1' and '+1'",
        ),
        (  # the scan used to read 3 on residue 0
            SCAN_OPERATOR, _periodic_table({"0": "2", "+0": "3"}),
            "field 'diagonals[0].rule.table' gives point [0] twice, as '0' and '+0'",
        ),
        (
            SCAN_OPERATOR,
            {"variant": "band_diagonals", "dimension": 2, "diagonals": [{"offset": [0, 0],
             "rule": {"kind": "table", "entries": {"1;-1": "2", " 1;-01": "3"}}}]},
            "field 'diagonals[0].rule.entries' gives point [1, -1] twice, as '1;-1' and ' 1;-01'",
        ),
        (
            SCAN_OPERATOR,
            {"variant": "block_periodic", "block_size": 1, "blocks": {"0": [["1"]], "00": [["2"]]}},
            "field 'blocks' gives point [0] twice, as '0' and '00'",
        ),
        (  # json.loads keeps the last of two equal keys
            SCAN_OPERATOR, '{"variant": "shift", "step": 1, "step": 2}',
            "key 'step' appears twice in one object",
        ),
    ],
    ids=["rhs-entries", "periodic-table", "table-entries", "blocks", "repeated-json-key"],
)
def test_a_point_or_key_given_twice_in_a_config_is_refused(argv, config, message, tmp_path, capsys):
    (tmp_path / "op.json").write_text(json.dumps({"variant": "shift", "step": 0}))
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli([*argv, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"finsec: invalid configuration: {path}: {message}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_study_whose_rhs_norm_overflows_exits_3(fmt, tmp_path, capsys):
    # each square is finite (1.69e308); their sum is not
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1.3e154", "1": "1.3e154"}}))
    code, out, err = run_cli(
        ["study", "--example", "worked_A", "--nmax", "4", "--reference-n", "8",
         "--rhs", str(rhs), "--format", fmt],
        capsys,
    )
    assert code == 3
    assert out == "" and "inf" not in out
    assert err == "finsec: numeric failure: the norm of a vector overflows a double\n"


@pytest.mark.parametrize(
    "flag, payload, field",
    [
        ("--operator", {"variant": "band_diagonals", "diagonals": 5}, "field 'diagonals'"),
        ("--operator", [{"variant": "shift", "step": [1]}], "the top level"),
        (
            "--operator",
            {"variant": "band_diagonals", "diagonals": [{"offset": [0], "rule": {
                "kind": "periodic", "period": [2, None], "table": {}}}]},
            "field 'diagonals[0].rule.period[1]'",
        ),
        ("--rhs", {"dimension": 1, "entries": ["0"]}, "field 'entries'"),
        ("--omega", {"facets": 3}, "field 'facets'"),
        ("--omega", {"facets": [{"normal": [1], "offset": 1, "closed": 0}]},
         "field 'facets[0].closed'"),
    ],
)
def test_ill_typed_config_names_file_and_field(flag, payload, field, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    argv = {
        "--operator": ["scan", "--omega", "interval", "--nmax", "3"],
        "--rhs": ["solve-fsm", "--example", "blockdiag", "--n", "3"],
        "--omega": ["scan", "--example", "shift", "--nmax", "3"],
    }[flag]
    code, out, err = run_cli([*argv, flag, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"{path}: {field} must be" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# example command
# ---------------------------------------------------------------------------


def test_example_expectations_share_one_scan(monkeypatch, capsys):
    scans = []

    def counting_scan(*args, **kwargs):
        scans.append(args[2])
        return fsm.stability_scan(*args, **kwargs)

    monkeypatch.setattr(cli, "stability_scan", counting_scan)
    monkeypatch.setattr(catalog, "stability_scan", counting_scan)
    code, _, _ = run_cli(["example", "worked_A", "--format", "json"], capsys)
    assert code == 0
    assert len(scans) == 1  # the reported scan serves every expectation
    # a report that does not start at n = 1 cannot stand in for the expectations
    code, _, _ = run_cli(
        ["example", "worked_A", "--nmin", "2", "--format", "json"], capsys
    )
    assert code == 0
    assert len(scans) == 3


def test_no_example_reaches_the_sparse_route_at_its_default_nmax(monkeypatch, capsys):
    # README: built-in cases at their default --nmax stay on the dense sigma path
    window_sizes = []
    window_extremes = fsm._window_extremes

    def recording(operator, window, *args):
        window_sizes.append(len(window))
        return window_extremes(operator, window, *args)

    monkeypatch.setattr(fsm, "_window_extremes", recording)
    # one free core: scans run serially, in this process, where the calls are recorded
    monkeypatch.setattr(linalg, "_free_cores", lambda: 1)
    for case_id in catalog.EXAMPLE_IDS:
        code, _, err = run_cli(["example", case_id, "--format", "json"], capsys)
        assert code == 0, err
    assert window_sizes  # the non-adjacency cases scanned their windows here
    assert max(window_sizes) < fsm.SPARSE_MIN_POINTS


def test_builtin_rhs_refused_before_its_window_is_built(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("lattice_section called for an over-budget window")

    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 1000)
    monkeypatch.setattr(sections, "lattice_section", never)
    monkeypatch.setattr(cli, "lattice_section", never)
    code, out, err = run_cli(
        ["solve-rfsm", "--example", "worked_A", "--n", "200000", "--m", "200001"], capsys
    )
    assert code == 2
    assert out == ""
    assert "over the 1000-byte budget" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-rfsm", "--example", "worked_A", "--n", "3", "--m", "1"], "m=1 is below"),
        (
            ["study", "--example", "worked_A", "--nmax", "6", "--coupling", "explicit:1,2,3,4,5"],
            "m=1 below n=2",
        ),
    ],
)
def test_fewer_rows_than_columns_exit_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_example_sierror_csv_squares(capsys):
    code, out, _ = run_cli(
        ["example", "sierror", "--nmax", "100", "--format", "csv"], capsys
    )
    assert code == 0
    rows = out.splitlines()[1:]
    non_invertible = [
        int(r.split(",")[0]) for r in rows if r.split(",")[1] == "false"
    ]
    assert non_invertible == [k * k for k in range(1, 11)]


def test_example_json_reports_expectations(capsys):
    code, out, _ = run_cli(
        ["example", "blockdiag", "--nmax", "20", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    names = {e["name"] for e in payload["expectations"]}
    assert names == {"invertible-iff-even", "even-inverse-norm-one"}
    assert all(e["passed"] for e in payload["expectations"])


def test_example_autosizes_generator_bound(capsys):
    code, out, _ = run_cli(
        ["example", "diamond", "--nmax", "60", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["bound"] >= 60


# ---------------------------------------------------------------------------
# scan command
# ---------------------------------------------------------------------------


def test_scan_identity_spec_from_config(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(
        json.dumps(
            {
                "variant": "band_diagonals",
                "dimension": 1,
                "diagonals": [
                    {"offset": [0], "rule": {"kind": "constant", "value": "1"}}
                ],
            }
        )
    )
    code, out, _ = run_cli(
        [
            "scan",
            "--operator",
            str(op),
            "--omega",
            "interval",
            "--nmax",
            "8",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert all(r.split(",")[1] == "true" and r.split(",")[2] == "1" for r in rows)


def test_scan_classification_and_roundtrip(capsys):
    code, out, _ = run_cli(
        [
            "scan",
            "--example",
            "worked_Aprime",
            "--nmax",
            "24",
            "--modulus",
            "3",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    classification = json.loads(out)["classification"]
    assert classification["3"]["1"] == "stable-so-far"
    assert classification["3"]["0"] == "contains-singular"
    assert classification["3"]["2"] == "contains-singular"
    # class 1's inverse norm is 1.8019... at every n, above a cap of 1.5
    argv = ["scan", "--example", "worked_Aprime", "--nmax", "12", "--modulus", "3",
            "--norm-cap", "1.5", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["classification"] == {
        "3": {"0": "contains-singular", "1": "norm-exceeds-cap", "2": "contains-singular"}
    }


def test_an_unnamed_domain_is_labelled_domain(capsys, tmp_path):
    omega = tmp_path / "unnamed.json"
    omega.write_text(json.dumps({"name": "", "vertices": [[-1], [1]]}))
    for argv in (
        ["scan", "--example", "shift", "--omega", str(omega), "--nmax", "3", "--format", "json"],
        ["study", "--example", "worked_A", "--omega", str(omega), "--nmax", "3",
         "--reference-n", "6", "--format", "json"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert json.loads(out)["domain"] == "domain", argv


BLOCKDIAG_SCAN_CSV = """\
n,invertible,inverse_norm,sigma_min,sigma_max
1,false,,0,1
2,true,1,1,1
3,false,,0,1
4,true,1,1,1
"""


BLOCKDIAG_SCAN_JSON = """\
{
  "classification": {
    "1": {
      "0": "contains-singular"
    }
  },
  "domain": "interval",
  "kind": "stability",
  "operator": "blockdiag",
  "records": [
    {
      "inverse_norm": null,
      "invertible": false,
      "n": 1,
      "sigma_max": 1.0,
      "sigma_min": 0.0
    },
    {
      "inverse_norm": 1.0,
      "invertible": true,
      "n": 2,
      "sigma_max": 1.0,
      "sigma_min": 1.0
    },
    {
      "inverse_norm": null,
      "invertible": false,
      "n": 3,
      "sigma_max": 1.0,
      "sigma_min": 0.0
    },
    {
      "inverse_norm": 1.0,
      "invertible": true,
      "n": 4,
      "sigma_max": 1.0,
      "sigma_min": 1.0
    }
  ],
  "tau_rel": 1e-10
}
"""


@pytest.mark.parametrize(
    "fmt, expected", [("csv", BLOCKDIAG_SCAN_CSV), ("json", BLOCKDIAG_SCAN_JSON)]
)
def test_scan_blockdiag_bytes(fmt, expected, capsys):
    # blockdiag sections are permutations or have a zero row: every value is exact
    argv = ["scan", "--example", "blockdiag", "--nmax", "4", "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected


def test_scan_determinism(tmp_path, capsys):
    args = ["scan", "--example", "sierror", "--nmax", "50", "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_scan_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        ["scan", "--example", "shift", "--nmax", "6", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[0].startswith("n,invertible")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_write_failure_exits_2_with_its_own_line(capsys):
    argv = ["scan", "--example", "shift", "--nmax", "10", "--out", "/dev/full"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "finsec: cannot write output: [Errno 28] No space left on device\n"
    # a config that cannot be read is still a configuration error
    code, _, err = run_cli(["scan", "--operator", "/nonexistent.json", "--omega", "interval",
                            "--nmax", "10", "--out", "/dev/full"], capsys)
    assert code == 2 and err.startswith("finsec: invalid configuration: [Errno 2]")


def test_scan_rejects_missing_source(capsys):
    code, _, err = run_cli(["scan", "--nmax", "5"], capsys)
    assert code == 2
    assert "invalid configuration" in err


def test_scan_domain_config_file(tmp_path, capsys):
    omega = tmp_path / "omega.json"
    omega.write_text(
        json.dumps(
            {
                "dimension": 1,
                "facets": [
                    {"normal": ["1"], "offset": "2"},
                    {"normal": ["-1"], "offset": "1/1"},
                ],
            }
        )
    )
    op = tmp_path / "shift.json"
    op.write_text(json.dumps({"variant": "shift", "dimension": 1, "step": [1]}))
    code, out, _ = run_cli(
        ["scan", "--operator", str(op), "--omega", str(omega), "--nmax", "4"],
        capsys,
    )
    assert code == 0
    assert all(r.split(",")[1] == "false" for r in out.splitlines()[1:])


@pytest.mark.parametrize(
    "facet, shown",
    [(({"normal": ["1", "0"], "offset": "0"}), "[1, 0] . x <= 0"),
     (({"normal": ["-3/2", "2"], "offset": "-1/3"}), "[-3/2, 2] . x <= -1/3")],
)
def test_facet_offset_at_most_0_refused_in_rationals(facet, shown, tmp_path, capsys):
    omega = tmp_path / "off0.json"
    box = [{"normal": n, "offset": "1"} for n in (["-1", "0"], ["0", "1"], ["0", "-1"])]
    omega.write_text(json.dumps({"facets": [facet, *box]}))
    argv = ["scan", "--operator", str(ROOT / "tools" / "lap5.json"), "--omega", str(omega)]
    code, out, err = run_cli([*argv, "--nmax", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"finsec: invalid configuration: origin is not interior to facet {shown}\n"
    assert "Fraction(" not in err


def test_all_operator_variants_parse(tmp_path, capsys):
    block = {
        "variant": "block_periodic",
        "block_size": 3,
        "blocks": {
            "0": [["1", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "1": [["0", "0", "0"], ["0", "0", "0"], ["1", "1", "1"]],
        },
    }
    composed = {"variant": "shift_composed", "step": [1], "inner": block}
    adjacency = {"variant": "adjacency", "dimension": 1, "edges": [[[1], [2]], [[-2], [-1]]]}
    generated = {"variant": "adjacency", "generator": "sierror", "bound": 6}
    for idx, (payload, omega, nmax) in enumerate(
        [
            (block, "interval", 6),
            (composed, "interval", 6),
            (adjacency, "interval", 6),
            (generated, "square", 6),
        ]
    ):
        op = tmp_path / f"op{idx}.json"
        op.write_text(json.dumps(payload))
        code, out, err = run_cli(
            ["scan", "--operator", str(op), "--omega", omega, "--nmax", str(nmax)],
            capsys,
        )
        assert code == 0, err
        assert len(out.splitlines()) == nmax + 1
    # the composed spec matches the built-in preconditioned case: 1 mod 3 stable
    op = tmp_path / "op1.json"
    code, out, _ = run_cli(
        ["scan", "--operator", str(op), "--omega", "interval", "--nmax", "9"],
        capsys,
    )
    flags = [row.split(",")[1] for row in out.splitlines()[1:]]
    assert flags == ["true", "false", "false"] * 3


RULE_KINDS = {
    "constant": (1, {"kind": "constant", "value": "2-1i"}, TableRule((), 2 - 1j)),
    "periodic-1d": (
        1, {"kind": "periodic", "period": [3], "table": {"0": "1", "2": "1/2"}},
        TableRule.from_mapping({0: 1, 2: 0.5}, dimension=1, period=[3]),
    ),
    "periodic-2d": (
        2, {"kind": "periodic", "period": [2, 3], "table": {"1;2": "4i", "0;0": "-1"}},
        TableRule.from_mapping({(1, 2): 4j, (0, 0): -1}, dimension=2, period=[2, 3]),
    ),
    "table-1d": (
        1, {"kind": "table", "entries": {"-2": "3", "5": "1"}},
        TableRule.from_mapping({-2: 3, 5: 1}, 0, 1),
    ),
    "table-2d": (
        2, {"kind": "table", "default": "1", "entries": {"3;0": "5"}},
        TableRule.from_mapping({(3, 0): 5}, 1, 2),
    ),
    # the period's length is the table's dimension, so one of another length is refused
    "period-1-in-2d": (
        2, {"kind": "periodic", "period": [2], "table": {"0;0": "1"}},
        "point (0, 0) does not have dimension 1",
    ),
    "period-3-in-2d": (
        2, {"kind": "periodic", "period": [2, 2, 2], "table": {"0;0": "1"}},
        "point (0, 0) does not have dimension 3",
    ),
}


@pytest.mark.parametrize("dim, rule, built", RULE_KINDS.values(), ids=RULE_KINDS.keys())
def test_each_config_rule_kind_builds_its_table_rule(dim, rule, built, tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"variant": "band_diagonals", "dimension": dim,
                              "diagonals": [{"offset": [0] * dim, "rule": rule}]}))
    if isinstance(built, str):
        code, out, err = run_cli(
            ["scan", "--operator", str(op), "--omega", "square", "--nmax", "2"], capsys
        )
        assert (code, out, err) == (2, "", f"finsec: invalid configuration: {built}\n")
        return
    ((_, diagonal),) = cli.parse_operator(cli._read_config(str(op))).diagonals
    assert diagonal == built and hash(diagonal) == hash(built)


def test_shift_composed_adjacency_exits_2(tmp_path, capsys):
    adjacency = {"variant": "adjacency", "dimension": 1, "edges": [[[1], [2]]]}
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"variant": "shift_composed", "step": [1], "inner": adjacency}))
    code, _, err = run_cli(
        ["scan", "--operator", str(op), "--omega", "interval", "--nmax", "4"], capsys
    )
    assert code == 2
    assert "adjacency" in err


def test_adjacency_edge_past_int64_exits_2(tmp_path, capsys):
    far = 10**20
    adjacency = {"variant": "adjacency", "dimension": 1, "edges": [[[0], [far]], [[1], [2]]]}
    op = tmp_path / "op.json"
    op.write_text(json.dumps(adjacency))
    code, out, err = run_cli(
        ["scan", "--operator", str(op), "--omega", "interval", "--nmax", "4"], capsys
    )
    assert code == 2
    assert out == ""
    assert f"edge [(0,), ({far},)] has a coordinate past int64" in err
    assert "Traceback" not in err


def test_vertex_domain_config(tmp_path, capsys):
    omega = tmp_path / "triangle.json"
    omega.write_text(json.dumps({"vertices": [["0", "2"], ["2", "-2"], ["-2", "-2"]]}))
    op = tmp_path / "gen.json"
    op.write_text(json.dumps({"variant": "adjacency", "generator": "diamond", "bound": 30}))
    code, out, _ = run_cli(
        ["scan", "--operator", str(op), "--omega", str(omega), "--nmax", "8"],
        capsys,
    )
    assert code == 0
    # the triangle window keeps both endpoints of every diagonal edge together
    assert all(r.split(",")[1] == "true" for r in out.splitlines()[1:])


def test_bad_domain_exits_2(tmp_path, capsys):
    omega = tmp_path / "omega.json"
    omega.write_text(
        json.dumps({"dimension": 1, "facets": [{"normal": ["1"], "offset": "1"}]})
    )
    op = tmp_path / "shift.json"
    op.write_text(json.dumps({"variant": "shift", "dimension": 1, "step": [1]}))
    code, _, err = run_cli(
        ["scan", "--operator", str(op), "--omega", str(omega), "--nmax", "4"],
        capsys,
    )
    assert code == 2
    assert "positively span" in err


# ---------------------------------------------------------------------------
# solve commands
# ---------------------------------------------------------------------------


def test_solve_fsm_singular_exits_3(capsys):
    code, _, err = run_cli(
        ["solve-fsm", "--example", "shift", "--n", "5", "--rhs", "/nonexistent"],
        capsys,
    )
    assert code == 2  # missing rhs file is a config problem

    rhs_args = ["solve-fsm", "--example", "worked_A", "--n", "4"]
    code, _, err = run_cli(rhs_args, capsys)
    assert code == 3
    assert "singular" in err.lower()


def test_solve_fsm_past_the_generator_coverage_exits_2_as_scan_does(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 2, "entries": {"0;0": "1"}}))
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"variant": "adjacency", "generator": "sierror", "bound": 2}))
    for argv in (
        ["solve-fsm", "--n", "30", "--rhs", str(rhs)],
        ["scan", "--nmax", "30"],
        # rectangular windows are refused on their columns, with the same error
        ["solve-rfsm", "--n", "30", "--m", "31", "--rhs", str(rhs)],
        ["study", "--nmax", "4", "--reference-n", "30", "--rhs", str(rhs)],
    ):
        code, out, err = run_cli([*argv, "--operator", str(op), "--omega", "square"], capsys)
        assert code == 2
        assert out == ""
        assert "but the generator covers only 8" in err and "Traceback" not in err


def test_rectangular_adjacency_solves_read_rows_past_the_coverage(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    blockdiag = ["--example", "blockdiag", "--rhs", str(rhs)]
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"variant": "adjacency", "generator": "blockdiag", "bound": 2}))
    bound_2 = ["--operator", str(op), "--omega", "interval", "--rhs", str(rhs)]
    # columns inside the coverage radius 4 of bound 2, rows past it
    code, out, _ = run_cli(["solve-rfsm", *bound_2, "--n", "4", "--m", "5"], capsys)
    assert code == 0 and out == "point,real,imag\n0,1,0\n"
    # the bound derived from the reference solve covers its columns
    code, out, err = run_cli(["study", *blockdiag, "--nmax", "4", "--reference-n", "10"], capsys)
    assert code == 0, err
    assert out.splitlines()[1:] == ["2,3,0,1,,0,", "3,4,0,1,,0,", "4,5,0,1,,0,"]
    epsilon = ["--epsilon", "1e-2", "--a-norm", "1", "--a-inv-norm", "1"]
    code, out, err = run_cli(["solve-rfsm", *blockdiag, *epsilon], capsys)
    assert code == 0, err
    assert out == "point,real,imag\n0,1,0\n"
    # a generator bound below the reference columns is refused on them
    code, out, err = run_cli(
        ["study", *bound_2, "--nmax", "4", "--reference-n", "10"], capsys
    )
    assert code == 2 and out == ""
    assert "column (-10,) needs edges complete up to max-norm radius 10" in err


def test_solve_fsm_blockdiag(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"1": "1"}}))
    code, out, _ = run_cli(
        [
            "solve-fsm",
            "--example",
            "blockdiag",
            "--n",
            "4",
            "--rhs",
            str(rhs),
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == {"2": [1.0, 0.0]}


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--example", "blockdiag", "--nmin", "0", "--nmax", "3"],
        ["solve-fsm", "--example", "blockdiag", "--n", "0"],
        ["solve-fsm", "--example", "blockdiag", "--n", "-3"],
        ["solve-fsm", "--example", "worked_A", "--n", "0"],
    ],
)
def test_cut_offs_below_1_exit_2_for_every_operator_kind(argv, tmp_path, capsys):
    rhs = tmp_path / "r1.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    if argv[0] == "solve-fsm":
        argv = [*argv, "--rhs", str(rhs)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "n must be >= 1" in err and "Traceback" not in err


SOLVE_BLOCKDIAG_CSV = """\
point,real,imag
-1,0.25,1
0,1,0
2,0.5,0
"""

SOLVE_BLOCKDIAG_JSON = """\
{
  "entries": {
    "-1": [
      0.25,
      1.0
    ],
    "0": [
      1.0,
      0.0
    ],
    "2": [
      0.5,
      0.0
    ]
  },
  "kind": "solution",
  "n": 4
}
"""


@pytest.mark.parametrize(
    "fmt, expected", [("csv", SOLVE_BLOCKDIAG_CSV), ("json", SOLVE_BLOCKDIAG_JSON)]
)
def test_solve_fsm_blockdiag_bytes(fmt, expected, tmp_path, capsys):
    # the n = 4 section of blockdiag is an involutive permutation: exact values
    rhs = tmp_path / "rhs.json"
    rhs.write_text(
        json.dumps({"dimension": 1, "entries": {"0": "1", "1": "1/2", "-2": "0.25+1i"}})
    )
    argv = ["solve-fsm", "--example", "blockdiag", "--n", "4", "--rhs", str(rhs)]
    code, out, _ = run_cli([*argv, "--format", fmt], capsys)
    assert code == 0
    assert out == expected


def test_solve_rfsm_explicit_window(capsys):
    code, out, _ = run_cli(
        [
            "solve-rfsm",
            "--example",
            "worked_A",
            "--n",
            "6",
            "--m",
            "9",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["m"] == 9
    assert payload["residual"] < 0.05


def test_solve_rfsm_epsilon_uses_certificates(capsys):
    code, out, _ = run_cli(
        [
            "solve-rfsm",
            "--example",
            "worked_A",
            "--epsilon",
            "1e-2",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == pytest.approx(1e-2 / 12.0)


def test_solve_rfsm_unmeetable_delta_exits_3(capsys):
    code, _, err = run_cli(
        [
            "solve-rfsm",
            "--example",
            "worked_A",
            "--n",
            "2",
            "--m",
            "2",
            "--delta",
            "1e-12",
        ],
        capsys,
    )
    assert code == 3
    assert "residual" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--epsilon", "1e-3", "--n", "4"], "--epsilon is read only without --n and --m"),
        (["--epsilon", "1e-3", "--m", "6"], "--epsilon is read only without --n and --m"),
        (["--a-norm", "3", "--n", "4", "--m", "6"], "--a-norm is read only without"),
        (["--a-norm", "3", "--m", "6"], "--a-norm is read only without"),
        (["--a-inv-norm", "2", "--n", "4", "--m", "6"], "--a-inv-norm is read only without"),
        (["--a-inv-norm", "2", "--m", "6"], "--a-inv-norm is read only without"),
        (["--reference-n", "10", "--n", "4", "--m", "6"], "--reference-n is read only without"),
        (["--reference-n", "64", "--m", "6"], "--reference-n is read only without"),
        (["--delta", "100", "--epsilon", "1e-3"], "--delta is read only with --n and --m"),
        (["--n", "4"], "provide --n and --m, or --epsilon"),
        ([], "provide --n and --m, or --epsilon"),
    ],
    ids=["epsilon-n", "epsilon-m", "a-norm-n", "a-norm-m", "a-inv-norm-n", "a-inv-norm-m",
         "reference-n-n", "reference-n-m", "delta-epsilon", "n-alone", "no-window"],
)
def test_solve_rfsm_refuses_flags_its_mode_does_not_read(argv, message, monkeypatch, capsys):
    def unbuilt(case_id, bound=40):
        raise AssertionError("case built before the flags were checked")

    monkeypatch.setattr(cli, "build_example", unbuilt)
    code, out, err = run_cli(["solve-rfsm", "--example", "blockdiag", *argv], capsys)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------


ROOT = Path(__file__).resolve().parent.parent


def test_pinned_and_benchmark_invocations_parse(tmp_path):
    # parsed only, never run: a removed flag must not break either harness
    invocations = list(runpy.run_path(ROOT / "tools" / "pinned_outputs.py")["INVOCATIONS"])
    workloads = runpy.run_path(ROOT / "bench" / "workloads.py", run_name="workloads")["WORKLOADS"]
    invocations += [w.prepare(0, False, tmp_path)[0] for w in workloads.values()]
    assert len(invocations) == 31 + 4
    parser = cli.build_parser()
    for argv in invocations:
        parser.parse_args(argv)


@pytest.mark.parametrize("option, code", [("--help", 0), ("-o", 2)])
def test_pinned_outputs_option_prints_usage_and_runs_nothing(option, code, tmp_path):
    # an option is never an OUT_DIR: `--help` once ran every invocation into ./--help
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pinned_outputs.py"), option],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == "usage: python tools/pinned_outputs.py OUT_DIR\n"
    assert list(tmp_path.iterdir()) == []


def test_a_pinned_invocation_past_its_timeout_is_written_as_exit_timeout(tmp_path, monkeypatch):
    # a refusal that regressed into a long run then fails the byte comparison, by its file
    def expired(argv, timeout, **kwargs):
        assert timeout == 300
        raise subprocess.TimeoutExpired(argv, timeout)

    argv = ["scan", "--example", "worked_A", "--nmax", "10000000"]
    write_pins = runpy.run_path(str(ROOT / "tools" / "pinned_outputs.py"))["main"]
    monkeypatch.setitem(write_pins.__globals__, "INVOCATIONS", (argv,))
    monkeypatch.setattr(subprocess, "run", expired)
    assert write_pins([str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["scan_example_worked_A_nmax_10000000.txt"]
    assert (tmp_path / "scan_example_worked_A_nmax_10000000.txt").read_text() == (
        f"finsec {' '.join(argv)}\nexit timeout\n--- stdout\n--- stderr\n"
    )


LIBRARY = ROOT / "src" / "finsec"

# Run first in each pinned invocation: the first call of each code object of LIBRARY
# appends "file:qualified name" to a file named by the process id, at once, since forked
# workers leave by os._exit.  `seen` holds each code object, so that its id is not
# reused once a module's top-level code is freed.  numpy, which the library imports
# first, is imported before the hook: traced, its import took most of the hook's cost.
_REACH_HOOK = """\
import os, sys
import numpy
def _reach(frame, event, arg, seen={{}}):
    code = frame.f_code
    if code.co_filename.startswith({library!r}) and seen.get(id(code)) is not code:
        seen[id(code)] = code
        with open(os.path.join({records!r}, str(os.getpid())), "a") as f:
            f.write(os.path.basename(code.co_filename) + ":" + code.co_qualname + "\\n")
sys.settrace(_reach)
"""


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """The pinned invocations run once: their output directory and the set of
    "file:qualified name" of the library functions they reached."""
    out, records = tmp_path_factory.mktemp("pinned"), tmp_path_factory.mktemp("reached")
    hook = _REACH_HOOK.format(library=f"{LIBRARY}{os.sep}", records=str(records))
    run = runpy.run_path(str(ROOT / "tools" / "pinned_outputs.py"))["main"]
    assert run([str(out)], prelude=hook) == 0
    return out, {line for path in records.iterdir() for line in path.read_text().splitlines()}


def test_pinned_outputs_keep_their_bytes(pinned_run):
    # a change that means to move output bytes updates tools/pinned and says which files
    out, _ = pinned_run
    pinned = ROOT / "tools" / "pinned"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in pinned.iterdir())
    differing = [
        p.name for p in sorted(pinned.iterdir()) if (out / p.name).read_bytes() != p.read_bytes()
    ]
    assert differing == []


def _library_functions() -> set[str]:
    """"file:qualified name" of every def in LIBRARY, nested ones included."""
    names = set()

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{file}:{prefix}{child.name}")
                walk(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in LIBRARY.glob("*.py"):
        walk(ast.parse(path.read_text()), path.name, "")
    return names


ACCEPTANCE = "acceptance API: tests/test_acceptance.py imports or calls it"
PROTOCOL = "column protocol: the base stub, or an adjacency column read by entry/apply"
PAPER = "paper artefact"
POOL = "pool internals: unreached with fewer than two usable cores"
BENCH = "benchmark harness: bench/tracer.py reads it"
FROZEN = "immutability guard: refuses an assignment, which library code never makes"

# The library functions that no pinned invocation needs to reach, each with its reason.
UNREACHED = {
    "fsm.py:adjacency_section_invertible": ACCEPTANCE,
    "linalg.py:min_singular_value": ACCEPTANCE,
    "operators.py:OperatorSpec.apply": ACCEPTANCE,
    "operators.py:SupportedVector.__sub__": ACCEPTANCE,
    "operators.py:SupportedVector.get": ACCEPTANCE,
    "operators.py:SupportedVector.restrict": ACCEPTANCE,
    "rfsm.py:normal_equations_solve": ACCEPTANCE,
    "sections.py:fsm_section": ACCEPTANCE,
    "operators.py:AdjacencyGraph._column": PROTOCOL,
    "operators.py:OperatorSpec._column": PROTOCOL,
    "geometry.py:StarlikeDomain.all_closed": PAPER,
    "geometry.py:_box_touches_boundary": PAPER,
    "geometry.py:boundary_layer": PAPER,
    "fsm.py:_import_sparse": POOL,
    "fsm.py:_pooled_windows": POOL,
    "fsm.py:_serve": POOL,
    "fsm.py:_window": POOL,
    "sections.py:SectionMatrix.shape": BENCH,
    "_value.py:Value.__setattr__": FROZEN,
}


def test_every_library_function_is_reached_or_named(pinned_run):
    # a new def is reached from a pinned invocation, or named in UNREACHED with its reason
    _, reached = pinned_run
    functions = _library_functions()
    assert sorted(functions - reached - UNREACHED.keys()) == [], "reached by no pinned invocation"
    assert sorted(UNREACHED.keys() - functions) == [], "named in UNREACHED but not defined"


FLAGS_READ = {
    "scan": {"--operator", "--omega", "--example", "--format", "--out", "--tau-rel",
             "--nmin", "--nmax", "--modulus", "--norm-cap"},
    "example": {"--format", "--out", "--tau-rel", "--nmin", "--nmax"},
    "solve-fsm": {"--operator", "--omega", "--example", "--rhs", "--format", "--out",
                  "--tau-rel", "--n"},
    "solve-rfsm": {"--operator", "--omega", "--example", "--rhs", "--format", "--out",
                   "--n", "--m", "--delta", "--epsilon", "--a-norm", "--a-inv-norm",
                   "--reference-n"},
    "study": {"--operator", "--omega", "--example", "--rhs", "--format", "--out",
              "--nmin", "--nmax", "--coupling", "--reference-n", "--a-inv-norm"},
}


def test_each_command_takes_only_the_flags_it_reads(capsys):
    for command, flags in FLAGS_READ.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == flags | {"--help"}, command


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--example", "blockdiag", "--nmax", "4", "--bound", "9"],
        ["example", "blockdiag", "--bound", "9"],
        ["solve-fsm", "--example", "blockdiag", "--n", "4", "--bound", "9"],
        ["solve-rfsm", "--example", "worked_A", "--n", "3", "--m", "4", "--bound", "9"],
        ["study", "--example", "worked_A", "--nmax", "4", "--bound", "9"],
        ["study", "--example", "worked_A", "--nmax", "4", "--tau-rel", "0"],
        ["solve-rfsm", "--example", "worked_A", "--n", "3", "--m", "4", "--tau-rel", "0"],
        ["scan", "--example", "blockdiag", "--nmax", "4", "--rhs", "rhs.json"],
    ],
)
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        main(argv)
    err = capsys.readouterr().err
    assert refused.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# study command
# ---------------------------------------------------------------------------


def test_study_worked_error_below_bound(capsys):
    code, out, _ = run_cli(
        [
            "study",
            "--example",
            "worked_A",
            "--coupling",
            "band",
            "--nmax",
            "20",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    e_col = header.index("error")
    b_col = header.index("certified_bound")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[e_col]) <= float(cells[b_col])


def test_study_explicit_coupling(capsys):
    ms = [n + 4 for n in range(2, 7)]
    code, out, _ = run_cli(
        [
            "study",
            "--example",
            "worked_A",
            "--coupling",
            "explicit:" + ",".join(map(str, ms)),
            "--nmin",
            "2",
            "--nmax",
            "6",
            "--reference-n",
            "32",
        ],
        capsys,
    )
    assert code == 0
    got_m = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert got_m == ms


def test_study_builds_the_builtin_rhs_over_every_row_window(capsys):
    # sixfifths rows of n = 56..63 reach windows 68..76, past the reference's 67
    code, out, err = run_cli(
        ["study", "--example", "worked_A", "--coupling", "sixfifths", "--nmax", "63",
         "--reference-n", "64"],
        capsys,
    )
    assert code == 0, err
    case = finsec.build_example("worked_A")
    report = finsec.convergence_study(
        case.operator, case.rhs, case.domain, "sixfifths", range(2, 64), 64,
        inverse_bound=2.0,
    )
    assert out == finsec.reports.write(report, "csv", {})


def test_study_bad_coupling_exits_2(capsys):
    code, _, err = run_cli(
        ["study", "--example", "worked_A", "--coupling", "sofths", "--nmax", "8"],
        capsys,
    )
    assert code == 2
