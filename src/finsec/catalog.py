"""Registry of built-in cases: operators, domains, right-hand sides, expectations.

Each case carries check functions over one shared stability scan, so a
single call can re-verify the documented behavior (which cut-offs are
singular, which residue classes stay stable, how fast rectangular solves
converge).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import UnknownExampleError
from .fsm import (
    VERDICT_STABLE,
    adjacency_section_invertible,
    classify_subsequences,
    stability_scan,
)
from .geometry import IndexSet, StarlikeDomain, validate_domain
from .linalg import TAU_REL_DEFAULT
from .operators import (
    AdjacencyGraph,
    BandDiagonals,
    BlockPeriodic,
    OperatorSpec,
    Shift,
    SupportedVector,
    compose_shift,
)
from .reports import StabilityReport

__all__ = [
    "EXAMPLE_IDS",
    "ExampleCase",
    "CheckResult",
    "BLOCK_B",
    "BLOCK_C",
    "build_example",
    "expected_outcomes",
    "builtin_domain",
    "BUILTIN_DOMAINS",
    "minimal_bound",
    "geometric_rhs",
]

EXAMPLE_IDS = (
    "shift",
    "blockdiag",
    "rarosi",
    "sierror",
    "diamond",
    "worked_A",
    "worked_Aprime",
)

BLOCK_B = ((1, 1, 0), (1, 0, 0), (0, 0, 0))
BLOCK_C = ((0, 0, 0), (0, 0, 0), (1, 1, 1))


def builtin_domain(name: str) -> StarlikeDomain:
    """Named stock domains usable anywhere a domain config is accepted."""
    try:
        return BUILTIN_DOMAINS[name]()
    except KeyError:
        raise UnknownExampleError(
            f"unknown domain {name!r}; known: {sorted(BUILTIN_DOMAINS)}"
        ) from None


BUILTIN_DOMAINS: dict[str, Callable[[], StarlikeDomain]] = {
    "interval": lambda: validate_domain(vertices=[(-1,), (1,)], name="interval"),
    "interval-halfopen": lambda: validate_domain(
        facets=[((1,), 1, False), ((-1,), 1, True)], name="interval-halfopen"
    ),
    "square": lambda: validate_domain(
        vertices=[(-1, -1), (-1, 1), (1, -1), (1, 1)], name="square"
    ),
    "diamond": lambda: validate_domain(
        vertices=[(1, 0), (0, 1), (-1, 0), (0, -1)], name="diamond"
    ),
    "triangle": lambda: validate_domain(
        vertices=[(0, 2), (2, -2), (-2, -2)], name="triangle"
    ),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, eq=False)
class ExampleCase:
    case_id: str
    operator: OperatorSpec
    domain: StarlikeDomain
    rhs: Callable[[IndexSet], SupportedVector] | None = None
    expectations: tuple[Check, ...] = ()
    operator_norm: float | None = None
    inverse_bound: float | None = None
    band_error_bound: Callable[[int], float] | None = None


def geometric_rhs(index_set: IndexSet) -> SupportedVector:
    """Right-hand side with entries 2^(-|i|) on a 1-D window."""
    return SupportedVector.from_entries(
        1, {p: 2.0 ** (-abs(p[0])) for p in index_set}
    )


def _shifted_geometric_rhs(index_set: IndexSet) -> SupportedVector:
    return SupportedVector.from_entries(
        1, {p: 2.0 ** (-abs(p[0] - 1)) for p in index_set}
    )


def minimal_bound(case_id: str, radius: int) -> int:
    """Smallest generator bound K whose edge coverage reaches the given radius."""
    if case_id == "blockdiag":
        return max(1, math.ceil(radius / 2))
    if case_id in ("rarosi", "sierror"):
        return max(1, math.isqrt(radius) + 1)
    if case_id == "diamond":
        return max(1, radius)
    return 1


# ---------------------------------------------------------------------------
# expectation checks
# ---------------------------------------------------------------------------


# A check receives the case, the cut-off and a callable returning the stability
# scan over n = 1..n_max, run at most once per expected_outcomes call.
ScanFn = Callable[[], StabilityReport]
Check = Callable[[ExampleCase, int, ScanFn], CheckResult]


def _verdict(name: str, bad: list[int], bad_text: str, good_text: str) -> CheckResult:
    return CheckResult(name, not bad, f"{bad_text} at n={bad}" if bad else good_text)


def _scan_verdicts(
    name: str,
    expect: Callable[[ExampleCase, int], bool | None],
    bad_text: str,
    good_text: str,
) -> Check:
    """Check that the scanned verdict at each n equals expect(case, n); None skips n."""

    def check(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
        bad = [
            rec.n
            for rec in scan().records
            if expect(case, rec.n) not in (None, rec.invertible)
        ]
        return _verdict(name, bad, bad_text, good_text.format(n_max=n_max))

    return check


def _criterion_verdicts(
    name: str,
    expect: Callable[[int], bool],
    bad_text: str,
    good_text: str,
    domain: StarlikeDomain | None = None,
) -> Check:
    """Check the edge criterion on `domain` (default: the case's) against expect(n)."""

    def check(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
        window = case.domain if domain is None else domain
        bad = [
            n
            for n in range(1, n_max + 1)
            if adjacency_section_invertible(case.operator, window, n) != expect(n)
        ]
        return _verdict(name, bad, bad_text, good_text.format(n_max=n_max))

    return check


# Every square window of a shift loses a row; every square window of the
# worked operator has a zero row or column.
_all_singular = _scan_verdicts(
    "all-sections-singular",
    lambda case, n: False,
    "invertible",
    "all n <= {n_max} singular",
)


def _even_norm_one(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    deviations = [
        abs(rec.inverse_norm - 1.0)
        for rec in scan().records
        if rec.n % 2 == 0 and rec.invertible
    ]
    worst = max(deviations, default=0.0)
    return CheckResult(
        "even-inverse-norm-one",
        worst <= 1e-9,
        f"max |inverse_norm - 1| = {worst:.3g} over even n",
    )


def _inverse_norm_one(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    records = scan().records
    if any(not rec.invertible for rec in records):
        return CheckResult("inverse-norm-one", False, "a section was singular")
    worst = max(abs(rec.inverse_norm - 1.0) for rec in records)
    return CheckResult(
        "inverse-norm-one", worst <= 1e-9, f"max |inverse_norm - 1| = {worst:.3g}"
    )


def _no_stable_residue_mod3(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    verdicts = classify_subsequences(scan(), 3)
    stable = [r for r, v in verdicts.items() if v == VERDICT_STABLE]
    return CheckResult("no-stable-residue-mod-3", not stable, f"verdicts {verdicts}")


def _rfsm_band_error_bound(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    from .rfsm import convergence_study  # local import to avoid a cycle

    report = convergence_study(
        case.operator,
        case.rhs,
        case.domain,
        "band",
        range(2, min(20, n_max) + 1),
        reference_n=64,
        inverse_bound=case.inverse_bound,
        certified_bound=case.band_error_bound,
        operator_id=case.case_id,
    )
    bad = [rec.n for rec in report.records if rec.error > rec.certified_bound]
    return _verdict(
        "rfsm-band-error-bound",
        bad,
        "error exceeds bound",
        "errors within certified bound",
    )


def _residue_one_stable(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    ones = [rec for rec in scan().records if rec.n % 3 == 1]
    if any(not rec.invertible for rec in ones):
        return CheckResult(
            "residue-one-stable-constant-norm", False, "singular section in class 1"
        )
    norms = [rec.inverse_norm for rec in ones]
    spread = max(norms) - min(norms)
    return CheckResult(
        "residue-one-stable-constant-norm",
        spread <= 1e-9,
        f"inverse norm constant to {spread:.3g} (value ~ {norms[0]:.12g})",
    )


def _matches_shifted_base(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    base = _worked_base_operator()
    radius = 10
    worst = max(
        abs(case.operator.entry(i, j) - base.entry(i - 1, j))
        for i in range(-radius, radius + 1)
        for j in range(-radius, radius + 1)
    )
    return CheckResult(
        "matches-shifted-base",
        worst == 0.0,
        f"max entry deviation {worst:g} over radius-{radius} window",
    )


# ---------------------------------------------------------------------------
# case construction
# ---------------------------------------------------------------------------


def _worked_base_operator() -> BandDiagonals:
    return BlockPeriodic.from_blocks(3, {0: BLOCK_B, 1: BLOCK_C})


def _worked_error_bound(n: int) -> float:
    return 49.0 / 2.0 ** (n + 2)


def _edges_blockdiag(k_max: int):
    for k in range(1, k_max + 1):
        yield ((2 * k - 1,), (2 * k,))
        yield ((-2 * k,), (-2 * k + 1,))


def _edges_rarosi(k_max: int):
    for k in range(1, k_max + 1):
        yield ((k * k - k - 1, k * k), (k * k - k, k * k))


def _edges_sierror(k_max: int):
    for k in range(1, k_max + 1):
        yield ((k * k - k, k * k), (k * k - k, k * k + 1))


def _edges_diamond(k_max: int):
    for k in range(1, k_max + 1):
        yield ((k, 1), (k + 1, 0))


def build_example(case_id: str, bound: int = 40) -> ExampleCase:
    """Construct a registry case; `bound` truncates parametric edge families."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    interval = builtin_domain("interval")
    if case_id == "shift":
        return ExampleCase(
            case_id, Shift.by(1), interval, expectations=(_all_singular,)
        )
    if case_id == "worked_A":
        checks = (
            _all_singular,
            # no residue class mod 3 survives the scan
            _no_stable_residue_mod3,
            # band-coupled rectangular solves meet the certified decay
            _rfsm_band_error_bound,
        )
        return ExampleCase(
            case_id,
            _worked_base_operator(),
            interval,
            rhs=geometric_rhs,
            expectations=checks,
            operator_norm=3.0,
            inverse_bound=2.0,
            band_error_bound=_worked_error_bound,
        )
    if case_id == "worked_Aprime":
        checks = (
            # entries equal the base operator moved down one row
            _matches_shifted_base,
            # windows n = 1 mod 3 tile into complete blocks
            _residue_one_stable,
            # other windows cut a block into a singular corner
            _scan_verdicts(
                "residues-zero-two-singular",
                lambda case, n: None if n % 3 == 1 else False,
                "invertible",
                "classes 0 and 2 mod 3 all singular",
            ),
        )
        return ExampleCase(
            case_id,
            compose_shift(_worked_base_operator(), 1),
            interval,
            rhs=_shifted_geometric_rhs,
            expectations=checks,
        )
    # the adjacency families: edge generator, coverage radius, domain, checks
    if case_id == "blockdiag":
        edges, radius, domain = _edges_blockdiag(bound), 2 * bound, interval
        checks = (
            # odd windows cut the outermost pair
            _scan_verdicts(
                "invertible-iff-even",
                lambda case, n: n % 2 == 0,
                "parity mismatch",
                "invertible exactly at even n",
            ),
            # complete-pair windows are involutions of norm 1
            _even_norm_one,
        )
    elif case_id in ("rarosi", "sierror"):
        edges = (_edges_rarosi if case_id == "rarosi" else _edges_sierror)(bound)
        radius, domain = (bound + 1) ** 2 - 1, builtin_domain("square")
        if case_id == "rarosi":
            checks = (
                # both endpoints always fall on the same side
                _criterion_verdicts(
                    "criterion-true-everywhere",
                    lambda n: True,
                    "edge separated",
                    "no edge separated for n <= {n_max}",
                ),
                # sections stay involutions of norm 1
                _inverse_norm_one,
            )
        else:
            checks = (
                # window n separates the k-th edge exactly when n = k^2
                _criterion_verdicts(
                    "criterion-false-iff-square",
                    lambda n: math.isqrt(n) ** 2 != n,
                    "mismatch",
                    "separation happens exactly at squares",
                ),
                # the scanned verdict equals the criterion; tests check both against dense SVD
                _scan_verdicts(
                    "criterion-matches-numeric",
                    lambda case, n: adjacency_section_invertible(
                        case.operator, case.domain, n
                    ),
                    "disagreement",
                    "criterion agrees with sigma_min test",
                ),
            )
    elif case_id == "diamond":
        edges, radius, domain = _edges_diamond(bound), bound, builtin_domain("square")
        checks = (
            # the box window always separates the edge at k = n
            _criterion_verdicts(
                "separated-on-box-domain",
                lambda n: False,
                "no separation",
                "every box window separates an edge",
            ),
            # 1-norm windows keep both endpoints together
            _criterion_verdicts(
                "stable-on-diamond-domain",
                lambda n: True,
                "edge separated",
                "diamond windows never separate",
                domain=builtin_domain("diamond"),
            ),
        )
    else:
        raise UnknownExampleError(f"unknown example {case_id!r}; known: {EXAMPLE_IDS}")
    op = AdjacencyGraph.from_edges(domain.dimension, edges, coverage_radius=radius)
    return ExampleCase(case_id, op, domain, expectations=checks)


def expected_outcomes(
    case: ExampleCase, n_max: int, report: StabilityReport | None = None
) -> list[CheckResult]:
    """Evaluate every expectation of a case up to the given cut-off.

    A `report` of the case that covers n = 1..n_max at the default
    tolerance is reused instead of scanning again.
    """
    if n_max < 9:
        raise ValueError("n_max must be at least 9 to cover residue classes")
    if isinstance(case.operator, AdjacencyGraph):
        case.operator.check_coverage(case.domain, n_max)
    if report is not None and (
        report.tau_rel != TAU_REL_DEFAULT
        or [rec.n for rec in report.records] != list(range(1, n_max + 1))
    ):
        report = None  # other cut-offs or another tolerance: scan afresh
    scan = functools.cache(
        lambda: report
        if report is not None
        else stability_scan(
            case.operator,
            case.domain,
            range(1, n_max + 1),
            operator_id=case.case_id,
        )
    )
    return [check(case, n_max, scan) for check in case.expectations]
