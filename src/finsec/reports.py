"""Every CSV and JSON output of the package: scan and study reports, solutions.

One writer, write(result, fmt, meta), picks the format for every result.
Floats are printed with 17 significant digits so report bytes are
bit-stable across runs and re-parse to the exact same doubles.  A NaN or
infinity is never written: it raises NonFiniteResultError in either format.
"""

from __future__ import annotations

import csv
import io
import json
import math

from ._value import Value
from .errors import NonFiniteResultError
from .operators import SupportedVector

__all__ = [
    "StabilityRecord",
    "StabilityReport",
    "RfsmRecord",
    "RfsmReport",
    "write",
]


class StabilityRecord(Value):
    n: int
    invertible: bool
    inverse_norm: float | None
    sigma_min: float
    sigma_max: float


class StabilityReport(Value):
    kind = "stability"  # class attributes, not fields: the JSON kind and the CSV row type
    record = StabilityRecord
    tau_rel: float
    records: tuple[StabilityRecord, ...]


class RfsmRecord(Value):
    n: int
    m: int
    residual: float
    solution_norm: float
    solution_bound: float | None
    error: float | None
    certified_bound: float | None


class RfsmReport(Value):
    kind = "rfsm-study"
    record = RfsmRecord
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


def write(result: StabilityReport | RfsmReport | SupportedVector, fmt: str, meta: dict) -> str:
    """The CSV or JSON text of a report or a solution; JSON merges in meta, CSV drops it.

    A solution's CSV has one row per support point, the point as "i;j;...",
    real and imaginary part; its JSON keys entries by "i;j;..." as [real,
    imag] pairs.  A report's CSV has one row per record, under the field
    names of its record type; its JSON holds its kind, its fields and its
    records.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if isinstance(result, SupportedVector):
        values = [(";".join(map(str, p)), result.entries[p]) for p in result.support()]
        if fmt == "csv":
            return _csv(["point", "real", "imag"], ((p, z.real, z.imag) for p, z in values))
        payload = {"kind": "solution", "entries": {p: [z.real, z.imag] for p, z in values}}
    elif fmt == "csv":
        return _csv(result.record._fields, (rec._astuple() for rec in result.records))
    else:
        payload = {"kind": result.kind, **result._asdict()}
        payload["records"] = [rec._asdict() for rec in result.records]
    return _json({**payload, **meta})
