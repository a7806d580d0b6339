"""Scan and convergence-study reports with deterministic CSV/JSON round trips.

CSV floats are printed with 17 significant digits so report bytes are
bit-stable across runs and re-parse to the exact same doubles.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "StabilityRecord",
    "StabilityReport",
    "RfsmRecord",
    "RfsmReport",
    "stability_report_csv",
    "stability_report_json",
    "parse_stability_report_json",
    "rfsm_report_csv",
    "rfsm_report_json",
    "parse_rfsm_report_json",
]


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


@dataclass(frozen=True)
class StabilityRecord:
    n: int
    invertible: bool
    inverse_norm: float | None
    sigma_min: float
    sigma_max: float


@dataclass(frozen=True)
class StabilityReport:
    operator_id: str
    domain_id: str
    tau_rel: float
    records: tuple[StabilityRecord, ...]
    classification: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RfsmRecord:
    n: int
    m: int
    residual: float
    solution_norm: float
    solution_bound: float | None
    error: float | None
    certified_bound: float | None


@dataclass(frozen=True)
class RfsmReport:
    operator_id: str
    domain_id: str
    coupling: str
    reference_n: int
    records: tuple[RfsmRecord, ...]


STABILITY_COLUMNS = ["n", "invertible", "inverse_norm", "sigma_min", "sigma_max"]
RFSM_COLUMNS = [
    "n",
    "m",
    "residual",
    "solution_norm",
    "solution_bound",
    "error",
    "certified_bound",
]


def stability_report_csv(report: StabilityReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(STABILITY_COLUMNS)
    for rec in report.records:
        writer.writerow(
            [
                rec.n,
                "true" if rec.invertible else "false",
                _fmt(rec.inverse_norm),
                _fmt(rec.sigma_min),
                _fmt(rec.sigma_max),
            ]
        )
    return buf.getvalue()


def stability_report_json(report: StabilityReport, extra: dict | None = None) -> str:
    payload = {
        "kind": "stability",
        "operator": report.operator_id,
        "domain": report.domain_id,
        "tau_rel": report.tau_rel,
        "records": [asdict(rec) for rec in report.records],
        "classification": report.classification,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse_stability_report_json(text: str) -> StabilityReport:
    payload = json.loads(text)
    records = tuple(
        StabilityRecord(
            n=rec["n"],
            invertible=rec["invertible"],
            inverse_norm=rec["inverse_norm"],
            sigma_min=rec["sigma_min"],
            sigma_max=rec["sigma_max"],
        )
        for rec in payload["records"]
    )
    return StabilityReport(
        operator_id=payload["operator"],
        domain_id=payload["domain"],
        tau_rel=payload["tau_rel"],
        records=records,
        classification=payload.get("classification", {}),
    )


def rfsm_report_csv(report: RfsmReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RFSM_COLUMNS)
    for rec in report.records:
        writer.writerow(
            [
                rec.n,
                rec.m,
                _fmt(rec.residual),
                _fmt(rec.solution_norm),
                _fmt(rec.solution_bound),
                _fmt(rec.error),
                _fmt(rec.certified_bound),
            ]
        )
    return buf.getvalue()


def rfsm_report_json(report: RfsmReport, extra: dict | None = None) -> str:
    payload = {
        "kind": "rfsm-study",
        "operator": report.operator_id,
        "domain": report.domain_id,
        "coupling": report.coupling,
        "reference_n": report.reference_n,
        "records": [asdict(rec) for rec in report.records],
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse_rfsm_report_json(text: str) -> RfsmReport:
    payload = json.loads(text)
    records = tuple(
        RfsmRecord(
            n=rec["n"],
            m=rec["m"],
            residual=rec["residual"],
            solution_norm=rec["solution_norm"],
            solution_bound=rec["solution_bound"],
            error=rec["error"],
            certified_bound=rec["certified_bound"],
        )
        for rec in payload["records"]
    )
    return RfsmReport(
        operator_id=payload["operator"],
        domain_id=payload["domain"],
        coupling=payload["coupling"],
        reference_n=payload["reference_n"],
        records=records,
    )
