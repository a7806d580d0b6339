import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finsec
from finsec import catalog, cli, errors, fsm, sections
from finsec.cli import main, parse_scalar


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


def test_oversized_dense_window_exits_2(tmp_path, monkeypatch, capsys):
    # the 9-point window of n = 4 needs 9 * 9 * 16 = 1296 bytes
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 1000)
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"1": "1"}}))
    code, out, err = run_cli(
        ["solve-fsm", "--example", "worked_A", "--n", "4", "--rhs", str(rhs)], capsys
    )
    assert code == 2
    assert out == ""
    assert "9 x 9 needs 1296 bytes" in err and "Traceback" not in err


def test_adjacency_solve_is_charged_as_a_window_not_a_block(tmp_path, monkeypatch, capsys):
    # window n = 40 of blockdiag: 81 points, a 104,976-byte dense block, and
    # 81 * (48 + 8 + 48 * 3) = 16,200 bytes as a window of 3 stored diagonals
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 20000)
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"1": "1", "-40": "2"}}))
    argv = ["solve-fsm", "--example", "blockdiag", "--rhs", str(rhs), "--n"]
    code, out, err = run_cli([*argv, "40"], capsys)
    assert code == 0, err
    assert out == "point,real,imag\n-39,2,0\n2,1,0\n"
    code, out, err = run_cli([*argv, "100"], capsys)  # 201 points: 40,200 bytes
    assert code == 2 and out == ""
    assert "window of 201 points and 3 stored diagonals needs 40200 bytes" in err


@pytest.mark.parametrize(
    "command",
    [
        ["study", "--nmax", "4", "--reference-n", "1000"],
        ["study", "--nmax", "4", "--reference-n", "1000", "--omega", "interval"],
        ["solve-rfsm", "--n", "1000", "--m", "1001"],
        ["solve-rfsm", "--epsilon", "1e-2", "--a-norm", "1", "--a-inv-norm", "1",
         "--reference-n", "1000"],
    ],
)
def test_dense_commands_refuse_before_the_generator_is_built(
    command, tmp_path, monkeypatch, capsys
):
    generate = catalog._edges_blockdiag

    def probe_only(k_max):
        # the probe case of bound 1 gives the domain; no larger bound is generated
        assert k_max == 1, "generator built for an over-budget block"
        return generate(k_max)

    monkeypatch.setattr(catalog, "_edges_blockdiag", probe_only)
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 10**6)
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    code, out, err = run_cli([*command, "--example", "blockdiag", "--rhs", str(rhs)], capsys)
    assert code == 2 and out == ""
    assert "dense window 2001 x 2001 needs" in err and "Traceback" not in err


def test_the_early_dense_charge_refuses_no_block_that_fits(tmp_path, monkeypatch, capsys):
    # the reference block of blockdiag at reference n = 10 is 23 x 21; the
    # early charge of 21 x 21 stays below it
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 16 * 23 * 21)
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    blockdiag = ["--example", "blockdiag", "--rhs", str(rhs)]
    code, _, err = run_cli(["study", *blockdiag, "--nmax", "4", "--reference-n", "10"], capsys)
    assert code == 0, err
    code, _, err = run_cli(["solve-rfsm", *blockdiag, "--n", "10", "--m", "11"], capsys)
    assert code == 0, err


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


def test_cli_import_does_not_load_scipy():
    # scipy is loaded only by the sparse sigma kernel, never at start-up
    src = str(Path(finsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", "import sys, finsec.cli; assert 'scipy' not in sys.modules"],
        env=env,
        check=True,
    )


def test_cli_import_does_not_load_the_thread_pool():
    # concurrent.futures (and logging under it) loads when a study runs, and
    # mmap when a block past the huge-page cut is built, not at start-up
    src = str(Path(finsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, finsec.cli; "
            "assert not {'concurrent.futures', 'mmap'} & set(sys.modules)",
        ],
        env=env,
        check=True,
    )


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
    assert "window of 100020001 points and 5 stored diagonals" in err
    assert "over the 1000000-byte budget" in err and "Traceback" not in err


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

    def recording(operator, window, tau_rel):
        window_sizes.append(len(window))
        return window_extremes(operator, window, tau_rel)

    monkeypatch.setattr(fsm, "_window_extremes", recording)
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
    for argv in (
        ["solve-fsm", "--n", "30", "--rhs", str(rhs)],
        ["scan", "--nmax", "30"],
        # rectangular windows are refused on their columns, with the same error
        ["solve-rfsm", "--n", "30", "--m", "31", "--rhs", str(rhs)],
        ["study", "--nmax", "4", "--reference-n", "30", "--rhs", str(rhs)],
    ):
        code, out, err = run_cli([*argv, "--example", "sierror", "--bound", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "but the generator covers only 8" in err and "Traceback" not in err


def test_rectangular_adjacency_solves_read_rows_past_the_coverage(tmp_path, capsys):
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps({"dimension": 1, "entries": {"0": "1"}}))
    blockdiag = ["--example", "blockdiag", "--rhs", str(rhs)]
    # columns inside the coverage radius 4 of bound 2, rows past it
    code, out, _ = run_cli(
        ["solve-rfsm", *blockdiag, "--n", "4", "--m", "5", "--bound", "2"], capsys
    )
    assert code == 0 and out == "point,real,imag\n0,1,0\n"
    # the automatic bound covers the columns of the reference solve
    code, out, err = run_cli(["study", *blockdiag, "--nmax", "4", "--reference-n", "10"], capsys)
    assert code == 0, err
    assert out.splitlines()[1:] == ["2,3,0,1,,0,", "3,4,0,1,,0,", "4,5,0,1,,0,"]
    epsilon = ["--epsilon", "1e-2", "--a-norm", "1", "--a-inv-norm", "1"]
    code, out, err = run_cli(["solve-rfsm", *blockdiag, *epsilon], capsys)
    assert code == 0, err
    assert out == "point,real,imag\n0,1,0\n"
    # an explicit bound below the reference columns is refused on them
    code, out, err = run_cli(
        ["study", *blockdiag, "--nmax", "4", "--reference-n", "10", "--bound", "2"], capsys
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


def test_study_bad_coupling_exits_2(capsys):
    code, _, err = run_cli(
        ["study", "--example", "worked_A", "--coupling", "sofths", "--nmax", "8"],
        capsys,
    )
    assert code == 2
