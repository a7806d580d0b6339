"""Every CSV and JSON output of the package: scan and study reports, solutions.

Floats are printed with 17 significant digits so report bytes are
bit-stable across runs and re-parse to the exact same doubles.  A NaN or
infinity is never written: it raises NonFiniteResultError in either format.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import NonFiniteResultError
from .operators import SupportedVector

__all__ = [
    "StabilityRecord",
    "StabilityReport",
    "RfsmRecord",
    "RfsmReport",
    "stability_report_csv",
    "stability_report_json",
    "rfsm_report_csv",
    "rfsm_report_json",
    "solution_csv",
    "solution_json",
]


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


_NON_FINITE = "a report value is not a finite double"


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NonFiniteResultError(_NON_FINITE)
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(x) for x in row] for row in rows)
    return buf.getvalue()


def _json(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # allow_nan=False refuses a NaN or infinity this way
        raise NonFiniteResultError(_NON_FINITE) from None


def _records_csv(record_type, records) -> str:
    names = [f.name for f in fields(record_type)]
    return _csv(names, ([getattr(rec, name) for name in names] for rec in records))


def _report_json(report, header: dict, extra: dict | None) -> str:
    payload = dict(header, operator=report.operator_id, domain=report.domain_id)
    payload["records"] = [asdict(rec) for rec in report.records]
    return _json({**payload, **(extra or {})})


def stability_report_csv(report: StabilityReport) -> str:
    return _records_csv(StabilityRecord, report.records)


def stability_report_json(report: StabilityReport, extra: dict | None = None) -> str:
    header = {
        "kind": "stability",
        "tau_rel": report.tau_rel,
        "classification": report.classification,
    }
    return _report_json(report, header, extra)


def rfsm_report_csv(report: RfsmReport) -> str:
    return _records_csv(RfsmRecord, report.records)


def rfsm_report_json(report: RfsmReport, extra: dict | None = None) -> str:
    header = {
        "kind": "rfsm-study",
        "coupling": report.coupling,
        "reference_n": report.reference_n,
    }
    return _report_json(report, header, extra)


def _point_key(p) -> str:
    return ";".join(str(c) for c in p)


def solution_csv(u: SupportedVector) -> str:
    """One row per support point: the point as "i;j;...", real and imaginary part."""
    rows = ((_point_key(p), u.entries[p].real, u.entries[p].imag) for p in u.support())
    return _csv(["point", "real", "imag"], rows)


def solution_json(u: SupportedVector, meta: dict) -> str:
    """Entries keyed by "i;j;..." as [real, imag] pairs, merged with meta."""
    entries = {
        _point_key(p): [u.entries[p].real, u.entries[p].imag] for p in u.support()
    }
    return _json({"kind": "solution", "entries": entries, **meta})
