import dataclasses
import json
import math
from dataclasses import asdict

import pytest

from finsec import SupportedVector, build_example, convergence_study, stability_scan
from finsec.errors import NonFiniteResultError
from finsec.reports import (
    rfsm_report_csv,
    rfsm_report_json,
    solution_csv,
    solution_json,
    stability_report_csv,
    stability_report_json,
)


def scan_report():
    case = build_example("blockdiag", 8)
    return stability_scan(
        case.operator, case.domain, range(1, 11), operator_id="blockdiag",
        domain_id="interval",
    )


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
        operator_id="worked_A",
        domain_id="interval",
    )


def test_stability_csv_shape():
    text = stability_report_csv(scan_report())
    lines = text.splitlines()
    assert lines[0] == "n,invertible,inverse_norm,sigma_min,sigma_max"
    assert len(lines) == 11
    assert lines[1].startswith("1,false,,")
    assert lines[2].startswith("2,true,1,")


def test_stability_json_roundtrip():
    report = scan_report()
    payload = json.loads(stability_report_json(report))
    assert payload["records"] == [asdict(rec) for rec in report.records]
    assert payload["kind"] == "stability"
    assert (payload["operator"], payload["domain"]) == ("blockdiag", "interval")
    assert payload["tau_rel"] == report.tau_rel
    assert payload["classification"] == report.classification


def test_rfsm_json_roundtrip(worked_case):
    report = study_report(worked_case)
    payload = json.loads(rfsm_report_json(report))
    assert payload["records"] == [asdict(rec) for rec in report.records]
    assert payload["kind"] == "rfsm-study"
    assert (payload["operator"], payload["domain"]) == ("worked_A", "interval")
    assert (payload["coupling"], payload["reference_n"]) == ("band", 32)


def test_rfsm_csv_floats_reparse_exactly(worked_case):
    report = study_report(worked_case)
    lines = rfsm_report_csv(report).splitlines()
    header = lines[0].split(",")
    for line, rec in zip(lines[1:], report.records):
        cells = dict(zip(header, line.split(",")))
        assert int(cells["n"]) == rec.n
        assert float(cells["residual"]) == rec.residual  # 17g roundtrips doubles
        assert float(cells["error"]) == rec.error
        assert float(cells["certified_bound"]) == rec.certified_bound


def test_reports_are_deterministic(worked_case):
    a = stability_report_json(scan_report())
    b = stability_report_json(scan_report())
    assert a == b
    c = rfsm_report_csv(study_report(worked_case))
    d = rfsm_report_csv(study_report(worked_case))
    assert c == d


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_cells_raise_a_numeric_error(value, worked_case):
    study = study_report(worked_case)
    last = dataclasses.replace(study.records[-1], error=value)
    study = dataclasses.replace(study, records=(*study.records[:-1], last))
    scan = scan_report()
    first = dataclasses.replace(scan.records[0], sigma_max=value)
    scan = dataclasses.replace(scan, records=(first, *scan.records[1:]))
    u = SupportedVector(1, {(0,): complex(1.0, value)})
    writers = [
        lambda: rfsm_report_csv(study),
        lambda: rfsm_report_json(study),
        lambda: stability_report_csv(scan),
        lambda: stability_report_json(scan),
        lambda: solution_csv(u),
        lambda: solution_json(u, {}),
    ]
    for write in writers:
        with pytest.raises(NonFiniteResultError, match="not a finite double"):
            write()
