"""Registry of built-in cases: operators, domains, right-hand sides, expectations.

Each case carries machine-checkable expectations so a single call can
re-verify the documented behavior (which cut-offs are singular, which
residue classes stay stable, how fast rectangular solves converge).
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
    "Expectation",
    "BLOCK_B",
    "BLOCK_C",
    "BLOCK_D",
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
BLOCK_D = ((1, 1, 1), (1, 1, 0), (1, 0, 0))


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


@dataclass(frozen=True)
class Expectation:
    name: str
    description: str
    run: Callable[["ExampleCase", int, "ScanFn"], CheckResult]


@dataclass(frozen=True, eq=False)
class ExampleCase:
    case_id: str
    operator: OperatorSpec
    domain: StarlikeDomain
    rhs: Callable[[IndexSet], SupportedVector] | None = None
    expectations: tuple[Expectation, ...] = ()
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


def _all_singular(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    report = scan()
    bad = [rec.n for rec in report.records if rec.invertible]
    return CheckResult(
        "all-sections-singular",
        not bad,
        f"invertible at n={bad}" if bad else f"all n <= {n_max} singular",
    )


def _invertible_iff_even(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    report = scan()
    bad = [rec.n for rec in report.records if rec.invertible != (rec.n % 2 == 0)]
    return CheckResult(
        "invertible-iff-even",
        not bad,
        f"parity mismatch at n={bad}" if bad else "invertible exactly at even n",
    )


def _even_norm_one(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    report = scan()
    deviations = [
        abs(rec.inverse_norm - 1.0)
        for rec in report.records
        if rec.n % 2 == 0 and rec.invertible
    ]
    worst = max(deviations, default=0.0)
    return CheckResult(
        "even-inverse-norm-one",
        worst <= 1e-9,
        f"max |inverse_norm - 1| = {worst:.3g} over even n",
    )


def _criterion_all_true(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    bad = [
        n
        for n in range(1, n_max + 1)
        if not adjacency_section_invertible(case.operator, case.domain, n)
    ]
    return CheckResult(
        "criterion-true-everywhere",
        not bad,
        f"edge separated at n={bad}" if bad else f"no edge separated for n <= {n_max}",
    )


def _inverse_norm_one(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    report = scan()
    if any(not rec.invertible for rec in report.records):
        return CheckResult("inverse-norm-one", False, "a section was singular")
    worst = max(abs(rec.inverse_norm - 1.0) for rec in report.records)
    return CheckResult(
        "inverse-norm-one", worst <= 1e-9, f"max |inverse_norm - 1| = {worst:.3g}"
    )


def _false_iff_square(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    squares = {k * k for k in range(1, math.isqrt(n_max) + 1)}
    bad = [
        n
        for n in range(1, n_max + 1)
        if adjacency_section_invertible(case.operator, case.domain, n)
            != (n not in squares)
    ]
    return CheckResult(
        "criterion-false-iff-square",
        not bad,
        f"mismatch at n={bad}" if bad else "separation happens exactly at squares",
    )


def _criterion_matches_numeric(
    case: ExampleCase, n_max: int, scan: ScanFn
) -> CheckResult:
    report = scan()
    bad = [
        rec.n
        for rec in report.records
        if rec.invertible
        != adjacency_section_invertible(case.operator, case.domain, rec.n)
    ]
    return CheckResult(
        "criterion-matches-numeric",
        not bad,
        f"disagreement at n={bad}" if bad else "criterion agrees with sigma_min test",
    )


def _separated_on_box(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    bad = [
        n
        for n in range(1, n_max + 1)
        if adjacency_section_invertible(case.operator, case.domain, n)
    ]
    return CheckResult(
        "separated-on-box-domain",
        not bad,
        f"no separation at n={bad}" if bad else "every box window separates an edge",
    )


def _stable_on_diamond(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    diamond = builtin_domain("diamond")
    bad = [
        n
        for n in range(1, n_max + 1)
        if not adjacency_section_invertible(case.operator, diamond, n)
    ]
    return CheckResult(
        "stable-on-diamond-domain",
        not bad,
        f"edge separated at n={bad}" if bad else "diamond windows never separate",
    )


def _no_stable_residue_mod3(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    report = scan()
    verdicts = classify_subsequences(report, 3)
    stable = [r for r, v in verdicts.items() if v == VERDICT_STABLE]
    return CheckResult(
        "no-stable-residue-mod-3",
        not stable,
        f"verdicts {verdicts}",
    )


def _rfsm_band_error_bound(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    from .rfsm import convergence_study  # local import to avoid a cycle

    ns = range(2, min(20, n_max) + 1)
    report = convergence_study(
        case.operator,
        case.rhs,
        case.domain,
        "band",
        ns,
        reference_n=64,
        inverse_bound=case.inverse_bound,
        certified_bound=case.band_error_bound,
        operator_id=case.case_id,
    )
    bad = [rec.n for rec in report.records if rec.error > rec.certified_bound]
    return CheckResult(
        "rfsm-band-error-bound",
        not bad,
        f"error exceeds bound at n={bad}" if bad else "errors within certified bound",
    )


def _residue_one_stable(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    report = scan()
    ones = [rec for rec in report.records if rec.n % 3 == 1]
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


def _residues_zero_two_singular(
    case: ExampleCase, n_max: int, scan: ScanFn
) -> CheckResult:
    report = scan()
    bad = [rec.n for rec in report.records if rec.n % 3 != 1 and rec.invertible]
    return CheckResult(
        "residues-zero-two-singular",
        not bad,
        f"invertible at n={bad}" if bad else "classes 0 and 2 mod 3 all singular",
    )


def _matches_shifted_base(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    base = _worked_base_operator()
    radius = 10
    worst = 0.0
    for i in range(-radius, radius + 1):
        for j in range(-radius, radius + 1):
            worst = max(
                worst, abs(case.operator.entry(i, j) - base.entry(i - 1, j))
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
    if case_id == "shift":
        return ExampleCase(
            case_id,
            Shift.by(1),
            builtin_domain("interval"),
            expectations=(
                Expectation(
                    "all-sections-singular",
                    "every square window of a shift loses a row",
                    _all_singular,
                ),
            ),
        )
    if case_id == "blockdiag":
        op = AdjacencyGraph.from_edges(
            1, _edges_blockdiag(bound), coverage_radius=2 * bound, family=case_id
        )
        return ExampleCase(
            case_id,
            op,
            builtin_domain("interval"),
            expectations=(
                Expectation(
                    "invertible-iff-even",
                    "odd windows cut the outermost pair",
                    _invertible_iff_even,
                ),
                Expectation(
                    "even-inverse-norm-one",
                    "complete-pair windows are involutions of norm 1",
                    _even_norm_one,
                ),
            ),
        )
    if case_id == "rarosi":
        op = AdjacencyGraph.from_edges(
            2,
            _edges_rarosi(bound),
            coverage_radius=(bound + 1) ** 2 - 1,
            family=case_id,
        )
        return ExampleCase(
            case_id,
            op,
            builtin_domain("square"),
            expectations=(
                Expectation(
                    "criterion-true-everywhere",
                    "both endpoints always fall on the same side",
                    _criterion_all_true,
                ),
                Expectation(
                    "inverse-norm-one",
                    "sections stay involutions of norm 1",
                    _inverse_norm_one,
                ),
            ),
        )
    if case_id == "sierror":
        op = AdjacencyGraph.from_edges(
            2,
            _edges_sierror(bound),
            coverage_radius=(bound + 1) ** 2 - 1,
            family=case_id,
        )
        return ExampleCase(
            case_id,
            op,
            builtin_domain("square"),
            expectations=(
                Expectation(
                    "criterion-false-iff-square",
                    "window n separates the k-th edge exactly when n = k^2",
                    _false_iff_square,
                ),
                Expectation(
                    "criterion-matches-numeric",
                    "edge criterion equals the sigma_min invertibility test",
                    _criterion_matches_numeric,
                ),
            ),
        )
    if case_id == "diamond":
        op = AdjacencyGraph.from_edges(
            2, _edges_diamond(bound), coverage_radius=bound, family=case_id
        )
        return ExampleCase(
            case_id,
            op,
            builtin_domain("square"),
            expectations=(
                Expectation(
                    "separated-on-box-domain",
                    "the box window always separates the edge at k = n",
                    _separated_on_box,
                ),
                Expectation(
                    "stable-on-diamond-domain",
                    "1-norm windows keep both endpoints together",
                    _stable_on_diamond,
                ),
            ),
        )
    if case_id == "worked_A":
        return ExampleCase(
            case_id,
            _worked_base_operator(),
            builtin_domain("interval"),
            rhs=geometric_rhs,
            operator_norm=3.0,
            inverse_bound=2.0,
            band_error_bound=_worked_error_bound,
            expectations=(
                Expectation(
                    "all-sections-singular",
                    "every square window has a zero row or column",
                    _all_singular,
                ),
                Expectation(
                    "no-stable-residue-mod-3",
                    "no residue class mod 3 survives the scan",
                    _no_stable_residue_mod3,
                ),
                Expectation(
                    "rfsm-band-error-bound",
                    "band-coupled rectangular solves meet the certified decay",
                    _rfsm_band_error_bound,
                ),
            ),
        )
    if case_id == "worked_Aprime":
        return ExampleCase(
            case_id,
            compose_shift(_worked_base_operator(), 1),
            builtin_domain("interval"),
            rhs=_shifted_geometric_rhs,
            expectations=(
                Expectation(
                    "matches-shifted-base",
                    "entries equal the base operator moved down one row",
                    _matches_shifted_base,
                ),
                Expectation(
                    "residue-one-stable-constant-norm",
                    "windows n = 1 mod 3 tile into complete blocks",
                    _residue_one_stable,
                ),
                Expectation(
                    "residues-zero-two-singular",
                    "other windows cut a block into a singular corner",
                    _residues_zero_two_singular,
                ),
            ),
        )
    raise UnknownExampleError(f"unknown example {case_id!r}; known: {EXAMPLE_IDS}")


def expected_outcomes(case: ExampleCase, n_max: int) -> list[CheckResult]:
    """Evaluate every expectation of a case up to the given cut-off."""
    if n_max < 9:
        raise ValueError("n_max must be at least 9 to cover residue classes")
    if isinstance(case.operator, AdjacencyGraph):
        case.operator.check_coverage(case.domain, n_max)
    scan = functools.cache(
        lambda: stability_scan(
            case.operator,
            case.domain,
            range(1, n_max + 1),
            operator_id=case.case_id,
        )
    )
    return [exp.run(case, n_max, scan) for exp in case.expectations]
