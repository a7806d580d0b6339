"""Command-line harness: scans, solves and convergence studies with CSV/JSON reports.

Configs are JSON files; exact rationals are "p/q" strings, complex scalars
are "re" or "re+imi" strings.  Outputs are byte-deterministic for a fixed
config at a fixed BLAS thread count, except the last digits of some sparse
sigma_min (linalg.sparse_extremes).  Exit status: 0 success, 2 invalid
configuration, unwritable output or out of memory, 3 numeric failure,
130 interrupted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from numpy.linalg import LinAlgError

from ._value import Value
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
from .geometry import StarlikeDomain, lattice_section, validate_domain
from .linalg import NORM_CAP_DEFAULT, TAU_REL_DEFAULT
from .operators import (
    AdjacencyGraph,
    BandDiagonals,
    OperatorSpec,
    Shift,
    SupportedVector,
    TableRule,
    as_point,
    block_periodic,
    compose_shift,
)
from .reports import write
from .rfsm import (
    _solve_window,
    choose_parameters,
    convergence_study,
    reference_tail_bound,
    rfsm_solve,
)
from .sections import rfsm_section  # noqa: F401  (bench/test_bench.py checks tracing rebinds it)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTERRUPTED = 130


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
    except (ValueError, OverflowError, ZeroDivisionError):
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


class _Field(Value):
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

    def elements(self) -> list["_Field"]:
        return [self._child(i, v) for i, v in enumerate(self.expect(list))]

    def by_point(self, dimension: int) -> dict[tuple[int, ...], "_Field"]:
        """The values by parsed point key; two keys of one point ("1", "+1") are refused."""
        keys: dict[tuple[int, ...], str] = {}
        for key in self.expect(dict):
            point = _parse_point_key(key, dimension)
            if point in keys:
                raise ConfigError(
                    f"{self.source}: field {self.path!r} gives point {list(point)} "
                    f"twice, as {keys[point]!r} and {key!r}"
                )
            keys[point] = key
        return {point: self._child(key, self.value[key]) for point, key in keys.items()}


def _read_config(source: str) -> _Field:
    def unique(pairs: list[tuple[str, object]]) -> dict:
        """A JSON object, refused when a key repeats, where json.loads would keep the last."""
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k in obj if sum(k == p for p, _ in pairs) > 1)
            raise ConfigError(f"{source}: key {key!r} appears twice in one object")
        return obj

    return _Field(json.loads(Path(source).read_text(), object_pairs_hook=unique), source)


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
        return TableRule((), _scalar(rule["value"]))
    if kind == "periodic":
        table = {k: _scalar(v) for k, v in rule["table"].by_point(dimension).items()}
        period = [q.expect(int) for q in rule["period"].elements()]
        return TableRule.from_mapping(table, dimension=len(period), period=period)
    if kind == "table":
        entries = {k: _scalar(v) for k, v in rule["entries"].by_point(dimension).items()}
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
            t: [[_scalar(v) for v in row.elements()] for row in mat.elements()]
            for (t,), mat in config["blocks"].by_point(1).items()
        }
        return block_periodic(config["block_size"].expect(int), blocks)
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


def load_rhs(source: str) -> SupportedVector:
    config = _read_config(source)
    dim = config.get("dimension", 1).expect(int)
    entries = {k: _scalar(v) for k, v in config["entries"].by_point(dim).items()}
    return SupportedVector.from_entries(dim, entries)


# ---------------------------------------------------------------------------
# shared option handling
# ---------------------------------------------------------------------------


def _domain_for(op: OperatorSpec, dom: StarlikeDomain) -> StarlikeDomain:
    if op.dimension != dom.dimension:
        raise ConfigError(f"a {op.dimension}-D operator cannot act on a {dom.dimension}-D domain")
    return dom


def _example_case(case_id: str, omega, n_max: int) -> tuple[ExampleCase, int]:
    """A built-in case, edges out to window n_max of `omega` or its own domain, and its bound;
    the case of bound 1 gives the domain, and build_example charges a larger edge family."""
    probe = build_example(case_id, 1)
    domain = _domain_for(probe.operator, omega or probe.domain)
    bound = minimal_bound(case_id, domain.enclosing_radius(n_max))
    return (probe if bound == 1 else build_example(case_id, bound)), bound


def _resolve_case(args, n_max: int) -> tuple[OperatorSpec, StarlikeDomain, ExampleCase | None, str]:
    """Operator + domain from --example or --operator/--omega flags; n_max is the widest cut-off."""
    if args.example:
        omega = load_domain(args.omega) if args.omega else None
        case, _ = _example_case(args.example, omega, n_max)
        return case.operator, omega or case.domain, case, args.example
    if not args.operator:
        raise ValueError("provide --example or --operator")
    operator = parse_operator(_read_config(args.operator))
    if not args.omega:
        raise ValueError("--omega is required with --operator")
    return operator, _domain_for(operator, load_domain(args.omega)), None, Path(args.operator).stem


def _resolve_rhs(args, case: ExampleCase | None):
    """--rhs, or the case's right-hand side as a function of a window, which the
    library reads only after charging that window."""
    if args.rhs:
        return load_rhs(args.rhs)
    if case is not None and case.rhs is not None:
        return case.rhs
    raise ValueError("provide --rhs (the selected source has no built-in right-hand side)")


class _WriteError(Exception):
    """The report could not be written (exit 2, named apart from configuration errors)."""


def _emit(text: str, out: str | None) -> None:
    try:
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise _WriteError(exc) from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _meta(label: str, domain: StarlikeDomain, **keys) -> dict:
    """The JSON keys of a report that name its operator, by label, and its domain, with keys."""
    return {"operator": label, "domain": domain.name or "domain", **keys}


def _scan(args, operator: OperatorSpec, domain: StarlikeDomain):
    """The stability scan over windows --nmin..--nmax that `scan` and `example` report."""
    return stability_scan(operator, domain, range(args.nmin, args.nmax + 1), tau_rel=args.tau_rel)


def _cmd_scan(args) -> int:
    operator, domain, _, op_id = _resolve_case(args, args.nmax)
    report = _scan(args, operator, domain)
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
    meta = _meta(op_id, domain, classification=classification)
    _emit(write(report, args.format, meta), args.out)
    return EXIT_OK


def _cmd_example(args) -> int:
    case, bound = _example_case(args.case_id, None, args.nmax)
    report = _scan(args, case.operator, case.domain)
    if args.format == "csv":
        _emit(write(report, args.format, {}), args.out)
        return EXIT_OK
    checks = expected_outcomes(case, args.nmax, report)
    expectations = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks]
    meta = _meta(
        case.case_id, case.domain, classification={}, bound=bound, expectations=expectations
    )
    _emit(write(report, args.format, meta), args.out)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_NUMERIC


def _cmd_solve_fsm(args) -> int:
    operator, domain, case, _ = _resolve_case(args, args.n)
    u = fsm_solve(operator, _resolve_rhs(args, case), domain, args.n, tau_rel=args.tau_rel)
    _emit(write(u, args.format, {"n": args.n}), args.out)
    return EXIT_OK


def _explicit_window(args) -> bool:
    """True for a solve on --n and --m, False for one on --epsilon; refuses unread flags."""
    window = args.n is not None or args.m is not None
    unread = (
        ("--epsilon", "--a-norm", "--a-inv-norm", "--reference-n") if window else ("--delta",)
    )
    for flag in unread:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} is read only {'without' if window else 'with'} --n and --m")
    if None in ((args.n, args.m) if window else (args.epsilon,)):
        raise ValueError("provide --n and --m, or --epsilon")
    return window


def _cmd_solve_rfsm(args) -> int:
    given = _explicit_window(args)
    reference_n = 64 if args.reference_n is None else args.reference_n  # read by --epsilon
    operator, domain, case, _ = _resolve_case(args, args.n if given else reference_n)
    rhs = _resolve_rhs(args, case)
    m, n, delta = args.m, args.n, args.delta
    if not given:
        a_norm = args.a_norm or (case.operator_norm if case else None)
        a_inv = args.a_inv_norm or (case.inverse_bound if case else None)
        if a_norm is None or a_inv is None:
            raise ValueError(
                "--epsilon needs certified --a-norm and --a-inv-norm "
                "(built in only for worked_A)"
            )
        m, n = reference_n + operator.band_width(), reference_n  # the reference solve
        u_ref = rfsm_solve(operator, rhs, domain, m, n)
        if not isinstance(rhs, SupportedVector):  # read over the reference rows, now charged
            rhs = rhs(lattice_section(domain, m))
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

    cols, x, residual = _solve_window(operator, rhs, domain, m, n)
    if delta is not None and residual >= delta:
        raise NoFeasibleMError(
            f"least-squares residual {residual:.6g} does not meet delta={delta:.6g}"
        )
    meta = {"n": n, "m": m, "residual": residual}
    if delta is not None:
        meta["delta"] = delta
    _emit(write(SupportedVector.from_array(cols, x), args.format, meta), args.out)
    return EXIT_OK


def _parse_coupling(text: str, nmin: int, nmax: int):
    if text in ("band", "sixfifths"):
        return text, None
    if text.startswith("explicit:"):
        values = [int(v) for v in text.split(":", 1)[1].split(",") if v]
        ns = range(nmin, nmax + 1)
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
    coupling, explicit = _parse_coupling(args.coupling, args.nmin, args.nmax)
    operator, domain, case, op_id = _resolve_case(args, max(args.nmax, args.reference_n))
    rhs = _resolve_rhs(args, case)
    certified = case.band_error_bound if case is not None and coupling == "band" else None
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
    )
    _emit(write(report, args.format, _meta(op_id, domain)), args.out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsec",
        description="Finite section scans and rectangular truncated solves "
        "for band operators on integer lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups, each given to the commands that read it
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--operator", help="operator config JSON path")
    source.add_argument("--omega", help="domain: builtin name or config JSON path")
    source.add_argument("--example", choices=EXAMPLE_IDS, help="built-in case id")
    rhs = argparse.ArgumentParser(add_help=False)
    rhs.add_argument("--rhs", help="right-hand side config JSON path")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", help="output path (stdout when omitted)")
    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument("--tau-rel", type=_NON_NEGATIVE, default=TAU_REL_DEFAULT)

    p = sub.add_parser("scan", help="invertibility / inverse-norm scan over windows",
                       parents=[source, output, tau])
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--modulus", type=int, action="append", default=None)
    p.add_argument("--norm-cap", type=_POSITIVE, default=NORM_CAP_DEFAULT)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("example", help="scan a built-in case and check its expectations",
                       parents=[output, tau])
    p.add_argument("case_id", choices=EXAMPLE_IDS)
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, default=40)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("solve-fsm", help="solve one square truncated system",
                       parents=[source, rhs, output, tau])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_solve_fsm)

    p = sub.add_parser("solve-rfsm", help="solve one rectangular system by least squares",
                       parents=[source, rhs, output])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--delta", type=_POSITIVE, help="required residual precision")
    p.add_argument(
        "--epsilon", type=_POSITIVE, help="target accuracy; picks delta, n, m"
    )
    p.add_argument("--a-norm", type=_POSITIVE, help="certified operator norm bound")
    p.add_argument("--a-inv-norm", type=_POSITIVE, help="certified inverse norm bound")
    p.add_argument("--reference-n", type=int, help="reference window of --epsilon (64)")
    p.set_defaults(func=_cmd_solve_rfsm)

    p = sub.add_parser("study", help="convergence study against a reference solve",
                       parents=[source, rhs, output])
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
    except KeyboardInterrupt:  # scan workers ignore it: this process cancels their windows
        print("finsec: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _WriteError as exc:
        print(f"finsec: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a worker's comes back pickled, and ends here too
        detail = " ".join(str(exc).split())  # on the one line, whatever the allocator said
        print("finsec: out of memory" + (f": {detail}" if detail else ""), file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, LinAlgError) as exc:  # first: LinAlgError is a ValueError
        print(f"finsec: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"finsec: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
