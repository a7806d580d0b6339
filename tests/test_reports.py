import json
import math

import pytest

from finsec import (
    RfsmRecord,
    RfsmReport,
    StabilityRecord,
    StabilityReport,
    SupportedVector,
    build_example,
    convergence_study,
    stability_scan,
)
from finsec.errors import NonFiniteResultError
from finsec.reports import write


def scan_report():
    case = build_example("blockdiag", 8)
    return stability_scan(case.operator, case.domain, range(1, 11))


def study_report(worked_case):
    return convergence_study(
        worked_case.operator,
        worked_case.rhs,
        worked_case.domain,
        "band",
        range(2, 8),
        reference_n=32,
        inverse_bound=2.0,
        certified_bound=worked_case.band_error_bound,
    )


def test_stability_csv_shape():
    text = write(scan_report(), "csv", {})
    lines = text.splitlines()
    assert lines[0] == "n,invertible,inverse_norm,sigma_min,sigma_max"
    assert len(lines) == 11
    assert lines[1].startswith("1,false,,")
    assert lines[2].startswith("2,true,1,")


def test_empty_report_csv_is_its_record_header():
    for report, header in [
        (StabilityReport(1e-12, ()), "n,invertible,inverse_norm,sigma_min,sigma_max\n"),
        (
            RfsmReport("band", 32, ()),
            "n,m,residual,solution_norm,solution_bound,error,certified_bound\n",
        ),
    ]:
        assert write(report, "csv", {}) == header


def test_unknown_format_is_refused():
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        write(scan_report(), "xml", {})


def test_stability_json_roundtrip():
    report = scan_report()
    meta = {"operator": "blockdiag", "domain": "interval", "classification": {"1": {"0": "x"}}}
    payload = json.loads(write(report, "json", meta))
    assert payload["records"] == [rec._asdict() for rec in report.records]
    assert payload["kind"] == "stability"
    assert (payload["operator"], payload["domain"]) == ("blockdiag", "interval")
    assert payload["tau_rel"] == report.tau_rel
    assert payload["classification"] == meta["classification"]
    assert set(payload) == {"kind", "tau_rel", "records", *meta}


def test_rfsm_json_roundtrip(worked_case):
    report = study_report(worked_case)
    payload = json.loads(write(report, "json", {"operator": "worked_A", "domain": "interval"}))
    assert payload["records"] == [rec._asdict() for rec in report.records]
    assert payload["kind"] == "rfsm-study"
    assert (payload["operator"], payload["domain"]) == ("worked_A", "interval")
    assert (payload["coupling"], payload["reference_n"]) == ("band", 32)
    assert set(payload) == {"kind", "coupling", "reference_n", "records", "operator", "domain"}


def test_rfsm_csv_floats_reparse_exactly(worked_case):
    report = study_report(worked_case)
    lines = write(report, "csv", {}).splitlines()
    header = lines[0].split(",")
    for line, rec in zip(lines[1:], report.records):
        cells = dict(zip(header, line.split(",")))
        assert int(cells["n"]) == rec.n
        assert float(cells["residual"]) == rec.residual  # 17g roundtrips doubles
        assert float(cells["error"]) == rec.error
        assert float(cells["certified_bound"]) == rec.certified_bound


def test_reports_are_deterministic(worked_case):
    a = write(scan_report(), "json", {})
    b = write(scan_report(), "json", {})
    assert a == b
    c = write(study_report(worked_case), "csv", {})
    d = write(study_report(worked_case), "csv", {})
    assert c == d


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_cells_raise_a_numeric_error(value, worked_case):
    study = study_report(worked_case)
    last = RfsmRecord(**{**study.records[-1]._asdict(), "error": value})
    study = RfsmReport(study.coupling, study.reference_n, (*study.records[:-1], last))
    scan = scan_report()
    first = StabilityRecord(**{**scan.records[0]._asdict(), "sigma_max": value})
    scan = StabilityReport(scan.tau_rel, (first, *scan.records[1:]))
    u = SupportedVector(1, {(0,): complex(1.0, value)})
    writers = [
        lambda: write(study, "csv", {}),
        lambda: write(study, "json", {}),
        lambda: write(scan, "csv", {}),
        lambda: write(scan, "json", {}),
        lambda: write(u, "csv", {}),
        lambda: write(u, "json", {}),
    ]
    for writer in writers:
        with pytest.raises(NonFiniteResultError, match="not a finite double"):
            writer()
