"""Command-line harness: scans, solves and convergence studies with CSV/JSON reports.

Configs are JSON files; exact rationals are "p/q" strings, complex scalars
are "re" or "re+imi" strings.  Outputs are byte-deterministic for a fixed
config.  Exit status: 0 success, 2 invalid configuration, 3 numeric
failure (singular section, infeasible parameters, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from numpy.linalg import LinAlgError

from .catalog import (
    EXAMPLE_IDS,
    BUILTIN_DOMAINS,
    ExampleCase,
    build_example,
    builtin_domain,
    expected_outcomes,
    minimal_bound,
)
from .errors import ConfigError, InsufficientDataError, NoFeasibleMError, NumericError
from .fsm import classify_subsequences, fsm_solve, stability_scan
from .geometry import StarlikeDomain, lattice_section, lattice_section_size, validate_domain
from .linalg import NORM_CAP_DEFAULT, TAU_REL_DEFAULT
from .operators import (
    AdjacencyGraph,
    BandDiagonals,
    BlockPeriodic,
    ConstantRule,
    OperatorSpec,
    PeriodicRule,
    Shift,
    SupportedVector,
    TableRule,
    as_point,
    compose_shift,
)
from .reports import (
    rfsm_report_csv,
    rfsm_report_json,
    solution_csv,
    solution_json,
    stability_report_csv,
    stability_report_json,
)
from .rfsm import (
    choose_parameters,
    convergence_study,
    reference_tail_bound,
    rfsm_solve,
    rfsm_solve_with_residual,
)
from .sections import _check_dense_budget
from .sections import rfsm_section  # noqa: F401  (bench/test_bench.py checks tracing rebinds it)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def parse_scalar(value) -> complex:
    """Parse a finite complex scalar given as a number, "re", "p/q" or "re+imi"."""
    try:
        if isinstance(value, (int, float)):
            z = complex(value)
        else:
            s = str(value).strip().replace(" ", "")
            if re.fullmatch(r"[+-]?\d+/\d+", s):
                z = complex(Fraction(s))
            else:
                z = complex(s.replace("i", "j"))
    except (ValueError, OverflowError):
        raise ValueError(f"cannot parse scalar {value!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"scalar {value!r} is not finite")
    return z


def _parse_point_key(key: str, dimension: int) -> tuple[int, ...]:
    parts = str(key).split(";")
    if len(parts) != dimension:
        raise ValueError(f"point key {key!r} does not have dimension {dimension}")
    return tuple(int(p) for p in parts)


_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


@dataclasses.dataclass(frozen=True)
class _Field:
    """A value of a JSON config with the file and path that name it in errors."""

    value: object
    source: str
    path: str = ""

    def expect(self, *kinds: type):
        """The value, refused with a ConfigError unless its JSON type is in kinds."""
        if type(self.value) not in kinds:  # exact: a boolean is not an integer here
            wanted = " or ".join(_JSON_TYPES[k] for k in kinds)
            where = f"field {self.path!r}" if self.path else "the top level"
            raise ConfigError(
                f"{self.source}: {where} must be {wanted}, got {_JSON_TYPES[type(self.value)]}"
            )
        return self.value

    def _child(self, key, value) -> "_Field":
        if isinstance(key, int):
            return _Field(value, self.source, f"{self.path}[{key}]")
        return _Field(value, self.source, f"{self.path}.{key}" if self.path else key)

    def __contains__(self, key: str) -> bool:
        return key in self.expect(dict)

    def __getitem__(self, key: str) -> "_Field":
        if key not in self:
            raise ConfigError(f"{self.source}: missing field {self._child(key, None).path!r}")
        return self._child(key, self.value[key])

    def get(self, key: str, default) -> "_Field":
        return self[key] if key in self else self._child(key, default)

    def items(self) -> list[tuple[str, "_Field"]]:
        return [(k, self._child(k, v)) for k, v in self.expect(dict).items()]

    def elements(self) -> list["_Field"]:
        return [self._child(i, v) for i, v in enumerate(self.expect(list))]


def _read_config(source: str) -> _Field:
    return _Field(json.loads(Path(source).read_text()), source)


def _scalar(field: _Field) -> complex:
    return parse_scalar(field.expect(int, float, str))


def _point(field: _Field, dimension: int) -> tuple[int, ...]:
    if isinstance(field.value, list):
        return as_point([c.expect(int, str) for c in field.elements()], dimension)
    return as_point(field.expect(int), dimension)


def load_domain(source: str) -> StarlikeDomain:
    """A builtin domain name or a path to a domain JSON config."""
    if source in BUILTIN_DOMAINS:
        return builtin_domain(source)
    config = _read_config(source)
    name = config.get("name", Path(source).stem).expect(str)
    dimension = config.get("dimension", None).expect(int, type(None))
    rational = (int, float, str)  # exactness is checked by validate_domain
    if "vertices" in config:
        vertices = [
            [c.expect(*rational) for c in v.elements()] for v in config["vertices"].elements()
        ]
        return validate_domain(vertices=vertices, dimension=dimension, name=name)
    facets = [
        (
            [c.expect(*rational) for c in f["normal"].elements()],
            f["offset"].expect(*rational),
            f.get("closed", True).expect(bool),
        )
        for f in config["facets"].elements()
    ]
    return validate_domain(facets=facets, dimension=dimension, name=name)


def _parse_rule(rule: _Field, dimension: int):
    kind = rule["kind"].expect(str)
    if kind == "constant":
        return ConstantRule(_scalar(rule["value"]))
    if kind == "periodic":
        table = {
            _parse_point_key(k, dimension): _scalar(v) for k, v in rule["table"].items()
        }
        period = [q.expect(int) for q in rule["period"].elements()]
        return PeriodicRule.from_mapping(period, table)
    if kind == "table":
        entries = {
            _parse_point_key(k, dimension): _scalar(v) for k, v in rule["entries"].items()
        }
        return TableRule.from_mapping(entries, _scalar(rule.get("default", 0)), dimension)
    raise ValueError(f"unknown coefficient rule kind {kind!r}")


def parse_operator(config: _Field) -> OperatorSpec:
    variant = config["variant"].expect(str)
    if variant == "band_diagonals":
        dim = config.get("dimension", 1).expect(int)
        rules = {}
        for d in config["diagonals"].elements():
            offset = _point(d["offset"], dim)
            if offset in rules:
                raise ValueError(f"band_diagonals repeats offset {list(offset)}")
            rules[offset] = _parse_rule(d["rule"], dim)
        return BandDiagonals.from_rules(dim, rules)
    if variant == "block_periodic":
        blocks = {
            int(t): [[_scalar(v) for v in row.elements()] for row in mat.elements()]
            for t, mat in config["blocks"].items()
        }
        return BlockPeriodic.from_blocks(config["block_size"].expect(int), blocks)
    if variant == "adjacency":
        dim = config.get("dimension", 1).expect(int)
        if "generator" in config:
            generator = config["generator"].expect(str)
            case = build_example(generator, config.get("bound", 40).expect(int))
            if not isinstance(case.operator, AdjacencyGraph):
                raise ValueError(f"example {generator!r} is not adjacency")
            return case.operator
        edges = [[_point(v, dim) for v in e.elements()] for e in config["edges"].elements()]
        return AdjacencyGraph.from_edges(dim, edges)
    if variant == "shift":
        dim = config.get("dimension", 1).expect(int)
        return Shift.by(_point(config["step"], dim), dim)
    if variant == "shift_composed":
        inner = parse_operator(config["inner"])
        return compose_shift(inner, _point(config["step"], inner.dimension))
    raise ValueError(f"unknown operator variant {variant!r}")


def load_operator(source: str) -> OperatorSpec:
    return parse_operator(_read_config(source))


def load_rhs(source: str) -> SupportedVector:
    config = _read_config(source)
    dim = config.get("dimension", 1).expect(int)
    entries = {
        _parse_point_key(k, dim): _scalar(v) for k, v in config["entries"].items()
    }
    return SupportedVector.from_entries(dim, entries)


# ---------------------------------------------------------------------------
# shared option handling
# ---------------------------------------------------------------------------


def _auto_bound(case_id: str, n_max: int) -> int:
    """Generator bound whose edge coverage reaches window n_max of the case's domain."""
    probe = build_example(case_id, 1).domain
    return minimal_bound(case_id, probe.enclosing_radius(n_max))


def _resolve_case(
    args, n_max: int, dense: bool = False
) -> tuple[OperatorSpec, StarlikeDomain, ExampleCase | None, str]:
    """Operator + domain from --example or --operator/--omega flags.

    An omitted --bound covers n_max, the widest column cut-off solved at.
    With `dense`, a block of n_max's columns and as many rows, no larger than
    the command's widest dense block, is charged before a generator is built.
    """
    if args.example:
        omega = load_domain(args.omega) if args.omega else None
        if dense:
            size = lattice_section_size(omega or build_example(args.example, 1).domain, n_max)
            _check_dense_budget(size, size)
        bound = args.bound if args.bound is not None else _auto_bound(args.example, n_max)
        case = build_example(args.example, bound)
        return case.operator, omega or case.domain, case, args.example
    if not args.operator:
        raise ValueError("provide --example or --operator")
    operator = load_operator(args.operator)
    if not args.omega:
        raise ValueError("--omega is required with --operator")
    return operator, load_domain(args.omega), None, Path(args.operator).stem


def _resolve_rhs(args, case: ExampleCase | None, domain, m: int, n: int) -> SupportedVector:
    """--rhs, or the case's right-hand side over window m for an m x n solve."""
    if args.rhs:
        return load_rhs(args.rhs)
    if case is not None and case.rhs is not None:
        # Refuse an over-budget solve before building its right-hand-side window.
        _check_dense_budget(lattice_section_size(domain, m), lattice_section_size(domain, n))
        return case.rhs(lattice_section(domain, m))
    raise ValueError("provide --rhs (the selected source has no built-in right-hand side)")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_scan(args) -> int:
    operator, domain, case, op_id = _resolve_case(args, args.nmax)
    report = stability_scan(
        operator,
        domain,
        range(args.nmin, args.nmax + 1),
        tau_rel=args.tau_rel,
        operator_id=op_id,
        domain_id=domain.name,
    )
    explicit_moduli = args.modulus is not None
    moduli = args.modulus if explicit_moduli else [1, 2, 3]
    classification = {}
    for mod in moduli:
        try:
            verdicts = classify_subsequences(report, mod, norm_cap=args.norm_cap)
        except InsufficientDataError:
            if explicit_moduli:
                raise
            continue  # default moduli are classified only when covered
        classification[str(mod)] = {
            str(res): verdict for res, verdict in verdicts.items()
        }
    report = dataclasses.replace(report, classification=classification)
    write = stability_report_csv if args.format == "csv" else stability_report_json
    _emit(write(report), args.out)
    return EXIT_OK


def _cmd_example(args) -> int:
    bound = args.bound if args.bound is not None else _auto_bound(args.case_id, args.nmax)
    case = build_example(args.case_id, bound)
    report = stability_scan(
        case.operator,
        case.domain,
        range(args.nmin, args.nmax + 1),
        tau_rel=args.tau_rel,
        operator_id=case.case_id,
        domain_id=case.domain.name,
    )
    if args.format == "csv":
        _emit(stability_report_csv(report), args.out)
        return EXIT_OK
    checks = expected_outcomes(case, args.nmax, report)
    extra = {
        "bound": bound,
        "expectations": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
    }
    _emit(stability_report_json(report, extra=extra), args.out)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_NUMERIC


def _cmd_solve_fsm(args) -> int:
    operator, domain, case, _ = _resolve_case(args, args.n)
    rhs = _resolve_rhs(args, case, domain, args.n, args.n)
    u = fsm_solve(operator, rhs, domain, args.n, tau_rel=args.tau_rel)
    if args.format == "csv":
        _emit(solution_csv(u), args.out)
    else:
        _emit(solution_json(u, {"n": args.n}), args.out)
    return EXIT_OK


def _cmd_solve_rfsm(args) -> int:
    given = args.n is not None and args.m is not None
    widest = args.n if given else args.reference_n
    operator, domain, case, _ = _resolve_case(args, widest, dense=True)
    if given:
        n, m = args.n, args.m
        delta = args.delta
        rhs = _resolve_rhs(args, case, domain, m, n)
    elif args.epsilon is not None:
        a_norm = args.a_norm or (case.operator_norm if case else None)
        a_inv = args.a_inv_norm or (case.inverse_bound if case else None)
        if a_norm is None or a_inv is None:
            raise ValueError(
                "--epsilon needs certified --a-norm and --a-inv-norm "
                "(built in only for worked_A)"
            )
        reference_n = args.reference_n
        rhs = _resolve_rhs(
            args, case, domain, reference_n + operator.band_width(), reference_n
        )
        u_ref = rfsm_solve(
            operator, rhs, domain, reference_n + operator.band_width(), reference_n
        )
        params = choose_parameters(
            operator,
            rhs,
            domain,
            args.epsilon,
            a_norm,
            a_inv,
            reference_tail_bound(u_ref, domain),
        )
        n, m, delta = params.n, params.m, params.delta
    else:
        raise ValueError("provide --n and --m, or --epsilon")

    u, residual = rfsm_solve_with_residual(operator, rhs, domain, m, n)
    if delta is not None and residual >= delta:
        raise NoFeasibleMError(
            f"least-squares residual {residual:.6g} does not meet delta={delta:.6g}"
        )
    if args.format == "csv":
        _emit(solution_csv(u), args.out)
    else:
        meta = {"n": n, "m": m, "residual": residual}
        if delta is not None:
            meta["delta"] = delta
        _emit(solution_json(u, meta), args.out)
    return EXIT_OK


def _parse_coupling(text: str, nmin: int, nmax: int):
    if text in ("band", "sixfifths"):
        return text, None
    if text.startswith("explicit:"):
        values = [int(v) for v in text.split(":", 1)[1].split(",") if v]
        ns = list(range(nmin, nmax + 1))
        if len(values) != len(ns):
            raise ValueError(
                f"explicit coupling needs {len(ns)} row cut-offs, got {len(values)}"
            )
        for n, m in zip(ns, values):
            if m < n:
                raise ValueError(f"explicit coupling gives m={m} below n={n}")
        return "explicit", dict(zip(ns, values))
    raise ValueError(f"unknown coupling {text!r}")


def _cmd_study(args) -> int:
    widest = max(args.nmax, args.reference_n)
    operator, domain, case, op_id = _resolve_case(args, widest, dense=True)
    coupling, explicit = _parse_coupling(args.coupling, args.nmin, args.nmax)
    # The right-hand side spans the tallest solve: the reference or an explicit row.
    solves = [(args.reference_n + operator.band_width(), args.reference_n)]
    if explicit:
        solves.extend((m, n) for n, m in explicit.items())
    rhs = _resolve_rhs(args, case, domain, *max(solves))
    certified = None
    if case is not None and coupling == "band":
        certified = case.band_error_bound
    report = convergence_study(
        operator,
        rhs,
        domain,
        coupling,
        range(args.nmin, args.nmax + 1),
        args.reference_n,
        explicit_rows=explicit,
        inverse_bound=args.a_inv_norm
        or (case.inverse_bound if case else None),
        certified_bound=certified,
        operator_id=op_id,
        domain_id=domain.name,
    )
    write = rfsm_report_csv if args.format == "csv" else rfsm_report_json
    _emit(write(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _float_flag(text: str, positive: bool) -> float:
    """A finite flag value, > 0 when positive else >= 0; argparse exits 2 otherwise."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if math.isfinite(x) and (x > 0 or (x == 0 and not positive)):
        return x
    bound = "> 0" if positive else ">= 0"
    raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text!r}")


_POSITIVE = functools.partial(_float_flag, positive=True)
_NON_NEGATIVE = functools.partial(_float_flag, positive=False)


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--operator", help="operator config JSON path")
    p.add_argument("--omega", help="domain: builtin name or config JSON path")
    p.add_argument("--example", choices=EXAMPLE_IDS, help="built-in case id")
    p.add_argument("--bound", type=int, help="edge generator bound K")
    p.add_argument("--rhs", help="right-hand side config JSON path")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--tau-rel", type=_NON_NEGATIVE, default=TAU_REL_DEFAULT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsec",
        description="Finite section scans and rectangular truncated solves "
        "for band operators on integer lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="invertibility / inverse-norm scan over windows")
    _add_source_flags(p)
    _add_output_flags(p)
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--modulus", type=int, action="append", default=None)
    p.add_argument("--norm-cap", type=_POSITIVE, default=NORM_CAP_DEFAULT)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("example", help="scan a built-in case and check its expectations")
    p.add_argument("case_id", choices=EXAMPLE_IDS)
    _add_output_flags(p)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, default=40)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("solve-fsm", help="solve one square truncated system")
    _add_source_flags(p)
    _add_output_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_solve_fsm)

    p = sub.add_parser("solve-rfsm", help="solve one rectangular system by least squares")
    _add_source_flags(p)
    _add_output_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--delta", type=_POSITIVE, help="required residual precision")
    p.add_argument(
        "--epsilon", type=_POSITIVE, help="target accuracy; picks delta, n, m"
    )
    p.add_argument("--a-norm", type=_POSITIVE, help="certified operator norm bound")
    p.add_argument("--a-inv-norm", type=_POSITIVE, help="certified inverse norm bound")
    p.add_argument("--reference-n", type=int, default=64)
    p.set_defaults(func=_cmd_solve_rfsm)

    p = sub.add_parser("study", help="convergence study against a reference solve")
    _add_source_flags(p)
    _add_output_flags(p)
    p.add_argument("--nmin", type=int, default=2)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument(
        "--coupling",
        default="band",
        help="band | sixfifths | explicit:M1,M2,... (one per n)",
    )
    p.add_argument("--reference-n", type=int, default=64)
    p.add_argument("--a-inv-norm", type=_POSITIVE, default=None)
    p.set_defaults(func=_cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, LinAlgError) as exc:  # first: LinAlgError is a ValueError
        print(f"finsec: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"finsec: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
