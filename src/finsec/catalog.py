"""Registry of built-in cases: operators, domains, right-hand sides, expectations.

Each case carries check functions over stability scans, at most one per
domain in each call, so a single call can re-verify the documented behavior
(which cut-offs are singular, which residue classes stay stable, how fast
rectangular solves converge).  An adjacency scan decides each window by the
exact edge criterion, so the criterion checks read the scan itself.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from ._value import Value
from .errors import UnknownExampleError
from .fsm import VERDICT_STABLE, classify_subsequences, stability_scan
from .geometry import IndexSet, StarlikeDomain, validate_domain
from .linalg import TAU_REL_DEFAULT, invertible
from .operators import (
    AdjacencyGraph,
    BandDiagonals,
    OperatorSpec,
    Shift,
    SupportedVector,
    block_periodic,
    compose_shift,
)
from .reports import StabilityRecord, StabilityReport
from .rfsm import convergence_study
from .sections import _check_edge_family_budget

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


class CheckResult(Value):
    name: str
    passed: bool
    detail: str


class ExampleCase(Value, eq=False):
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
    """A generator bound K whose edge coverage reaches the given max-norm radius.

    The smallest such K for blockdiag (coverage 2K) and diamond (K).  For rarosi
    and sierror, of coverage (K + 1)^2 - 1, it is isqrt(radius) + 1, one above
    the smallest, max(1, isqrt(radius)), once radius >= 1; `example --format json`
    reports K, and its pinned bytes keep this value.  Other cases take 1.
    """
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
# scan over n = 1..n_max of a domain; expected_outcomes runs at most one scan
# per domain.
ScanFn = Callable[[StarlikeDomain], StabilityReport]
Check = Callable[[ExampleCase, int, ScanFn], CheckResult]


def _verdict(name: str, bad: list[int], bad_text: str, good_text: str) -> CheckResult:
    return CheckResult(name, not bad, f"{bad_text} at n={bad}" if bad else good_text)


def _scan_verdicts(
    name: str,
    expect: Callable[[StabilityRecord], bool | None],
    bad_text: str,
    good_text: str,
    domain: StarlikeDomain | None = None,
) -> Check:
    """Check that each record of the scan of `domain` (default: the case's) has the verdict
    expect(record); None skips the record."""

    def check(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
        bad = [
            rec.n
            for rec in scan(case.domain if domain is None else domain).records
            if expect(rec) not in (None, rec.invertible)
        ]
        return _verdict(name, bad, bad_text, good_text.format(n_max=n_max))

    return check


# Every square window of a shift loses a row; every square window of the
# worked operator has a zero row or column.
_all_singular = _scan_verdicts(
    "all-sections-singular",
    lambda rec: False,
    "invertible",
    "all n <= {n_max} singular",
)


def _even_norm_one(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    deviations = [
        abs(rec.inverse_norm - 1.0)
        for rec in scan(case.domain).records
        if rec.n % 2 == 0 and rec.invertible
    ]
    worst = max(deviations, default=0.0)
    return CheckResult(
        "even-inverse-norm-one",
        worst <= 1e-9,
        f"max |inverse_norm - 1| = {worst:.3g} over even n",
    )


def _inverse_norm_one(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    records = scan(case.domain).records
    if any(not rec.invertible for rec in records):
        return CheckResult("inverse-norm-one", False, "a section was singular")
    worst = max(abs(rec.inverse_norm - 1.0) for rec in records)
    return CheckResult(
        "inverse-norm-one", worst <= 1e-9, f"max |inverse_norm - 1| = {worst:.3g}"
    )


def _no_stable_residue_mod3(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    verdicts = classify_subsequences(scan(case.domain), 3)
    stable = [r for r, v in verdicts.items() if v == VERDICT_STABLE]
    return CheckResult("no-stable-residue-mod-3", not stable, f"verdicts {verdicts}")


def _rfsm_band_error_bound(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    report = convergence_study(
        case.operator,
        case.rhs,
        case.domain,
        "band",
        range(2, min(20, n_max) + 1),
        reference_n=64,
        inverse_bound=case.inverse_bound,
        certified_bound=case.band_error_bound,
    )
    bad = [rec.n for rec in report.records if rec.error > rec.certified_bound]
    return _verdict(
        "rfsm-band-error-bound",
        bad,
        "error exceeds bound",
        "errors within certified bound",
    )


def _residue_one_stable(case: ExampleCase, n_max: int, scan: ScanFn) -> CheckResult:
    ones = [rec for rec in scan(case.domain).records if rec.n % 3 == 1]
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
    return block_periodic(3, {0: BLOCK_B, 1: BLOCK_C})


def _worked_error_bound(n: int) -> float:
    return 49.0 / 2.0 ** (n + 2)


def _edges_blockdiag(k_max: int) -> np.ndarray:
    k = np.arange(1, k_max + 1, dtype=np.int64)  # ((2k - 1,), (2k,)) and ((-2k,), (-2k + 1,))
    pairs = np.stack([2 * k - 1, 2 * k], axis=1)
    return np.concatenate([pairs, -pairs[:, ::-1]]).reshape(-1, 2, 1)


def _edges_rarosi(k_max: int) -> np.ndarray:
    k = np.arange(1, k_max + 1, dtype=np.int64)  # ((k^2 - k - 1, k^2), (k^2 - k, k^2))
    return np.stack([k * k - k - 1, k * k, k * k - k, k * k], axis=1).reshape(-1, 2, 2)


def _edges_sierror(k_max: int) -> np.ndarray:
    k = np.arange(1, k_max + 1, dtype=np.int64)  # ((k^2 - k, k^2), (k^2 - k, k^2 + 1))
    return np.stack([k * k - k, k * k, k * k - k, k * k + 1], axis=1).reshape(-1, 2, 2)


def _edges_diamond(k_max: int) -> np.ndarray:
    k = np.arange(1, k_max + 1, dtype=np.int64)  # ((k, 1), (k + 1, 0))
    return np.stack([k, np.ones_like(k), k + 1, np.zeros_like(k)], axis=1).reshape(-1, 2, 2)


def build_example(case_id: str, bound: int = 40) -> ExampleCase:
    """Construct a registry case; `bound` truncates parametric edge families, charged first."""
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
                lambda rec: None if rec.n % 3 == 1 else False,
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
        generate, radius, domain = _edges_blockdiag, 2 * bound, interval
        checks = (
            # odd windows cut the outermost pair
            _scan_verdicts(
                "invertible-iff-even",
                lambda rec: rec.n % 2 == 0,
                "parity mismatch",
                "invertible exactly at even n",
            ),
            # complete-pair windows are involutions of norm 1
            _even_norm_one,
        )
    elif case_id in ("rarosi", "sierror"):
        generate = _edges_rarosi if case_id == "rarosi" else _edges_sierror
        radius, domain = (bound + 1) ** 2 - 1, builtin_domain("square")
        if case_id == "rarosi":
            checks = (
                # both endpoints always fall on the same side
                _scan_verdicts(
                    "criterion-true-everywhere",
                    lambda rec: True,
                    "edge separated",
                    "no edge separated for n <= {n_max}",
                ),
                # sections stay involutions of norm 1
                _inverse_norm_one,
            )
        else:
            checks = (
                # window n separates the k-th edge exactly when n = k^2
                _scan_verdicts(
                    "criterion-false-iff-square",
                    lambda rec: math.isqrt(rec.n) ** 2 != rec.n,
                    "mismatch",
                    "separation happens exactly at squares",
                ),
                # each criterion verdict equals the sigma_min test on its record's own
                # sigma columns; tests check both against dense SVD
                _scan_verdicts(
                    "criterion-matches-numeric",
                    lambda rec: invertible(rec.sigma_min, rec.sigma_max, TAU_REL_DEFAULT),
                    "disagreement",
                    "criterion agrees with sigma_min test",
                ),
            )
    elif case_id == "diamond":
        generate, radius, domain = _edges_diamond, bound, builtin_domain("square")
        checks = (
            # the box window always separates the edge at k = n
            _scan_verdicts(
                "separated-on-box-domain",
                lambda rec: False,
                "no separation",
                "every box window separates an edge",
            ),
            # 1-norm windows keep both endpoints together
            _scan_verdicts(
                "stable-on-diamond-domain",
                lambda rec: True,
                "edge separated",
                "diamond windows never separate",
                domain=builtin_domain("diamond"),
            ),
        )
    else:
        raise UnknownExampleError(f"unknown example {case_id!r}; known: {EXAMPLE_IDS}")
    # charged before it is generated: blockdiag has two edges per unit of bound, the others one
    _check_edge_family_budget((2 if case_id == "blockdiag" else 1) * bound, domain.dimension)
    op = AdjacencyGraph.from_edges(domain.dimension, generate(bound), coverage_radius=radius)
    return ExampleCase(case_id, op, domain, expectations=checks)


def expected_outcomes(
    case: ExampleCase, n_max: int, report: StabilityReport | None = None
) -> list[CheckResult]:
    """Evaluate every expectation of a case up to the given cut-off.

    A `report` of the case that covers n = 1..n_max at the default
    tolerance serves as the scan of its domain; any other domain is scanned
    once, and a scan refuses the first window past an edge family's coverage.
    """
    if n_max < 9:
        raise ValueError("n_max must be at least 9 to cover residue classes")
    if report is not None and (
        report.tau_rel != TAU_REL_DEFAULT
        or [rec.n for rec in report.records] != list(range(1, n_max + 1))
    ):
        report = None  # other cut-offs or another tolerance: scan afresh

    @functools.cache
    def scan(domain: StarlikeDomain) -> StabilityReport:
        if report is not None and domain == case.domain:
            return report
        return stability_scan(case.operator, domain, range(1, n_max + 1))

    return [check(case, n_max, scan) for check in case.expectations]
