"""Square finite sections: solves, inverse-norm scans, subsequence verdicts.

The inverse norm of a section is max(1, 1/sigma_min), the operator norm of
the inverted section extended by the identity off the window.  A square
adjacency section swaps the ends of each edge inside the window, fixes the
points on no edge and is zero in the row and column of each end of a cut
edge, so its verdict, sigma extremes and solve need no block.

Other square windows of at least SPARSE_MIN_POINTS points take their sigma
extremes from a sparse LU and Lanczos, never building the dense block.
They fall back to the dense SVD whenever the sparse route fails or its
sigma_min lies within SPARSE_FALLBACK_FACTOR of the invertibility
threshold, so the verdict never depends on which route ran.  Scans,
inverse norms and solves (fsm_solve) all take it from section_extremes.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import InsufficientDataError, NonFiniteResultError, SingularSectionError
from .geometry import (
    IndexSet,
    StarlikeDomain,
    _section_exceeds,
    lattice_section,
    lattice_section_size,
)
from .linalg import (
    NORM_CAP_DEFAULT,
    TAU_REL_DEFAULT,
    invertible,
    singular_values,
    sparse_extremes,
)
from .operators import AdjacencyGraph, OperatorSpec, SupportedVector
from .reports import StabilityRecord, StabilityReport
from .sections import _check_dense_budget, _check_window_budget, assemble, section_triplets

__all__ = [
    "VERDICT_STABLE",
    "VERDICT_SINGULAR",
    "VERDICT_NORM_CAP",
    "fsm_solve",
    "inverse_norm",
    "section_extremes",
    "stability_scan",
    "adjacency_section_invertible",
    "classify_subsequences",
]

VERDICT_STABLE = "stable-so-far"
VERDICT_SINGULAR = "contains-singular"
VERDICT_NORM_CAP = "norm-exceeds-cap"

# Windows this large are routed to the sparse sigma kernel.
SPARSE_MIN_POINTS = 512
# The sparse result is kept only when sigma_min exceeds this multiple of the
# invertibility threshold; Lanczos error (~1e-15 relative) cannot cross it.
SPARSE_FALLBACK_FACTOR = 1e3


def _window_extremes(
    operator: OperatorSpec, window: IndexSet, tau_rel: float
) -> tuple[float, float]:
    """Sparse extremes for large windows when safely invertible, else dense SVD."""
    if len(window) >= SPARSE_MIN_POINTS:
        extremes = sparse_extremes(*section_triplets(operator, window, window), len(window))
        if extremes is not None and invertible(*extremes, SPARSE_FALLBACK_FACTOR * tau_rel):
            return extremes
    sv = singular_values(assemble(operator, window, window).data)
    return float(sv[-1]), float(sv[0])


def section_extremes(
    operator: OperatorSpec,
    domain: StarlikeDomain,
    n: int,
    tau_rel: float = TAU_REL_DEFAULT,
) -> tuple[float, float]:
    """(sigma_min, sigma_max) of the square section over window n.

    Raises ValueError, before the window is built, when its points and
    triplets would pass the memory budget, and NonFiniteResultError when a
    singular value overflows.
    """
    if isinstance(operator, AdjacencyGraph):
        operator.check_coverage(domain, n)
        inside = domain.contains_array(operator.edge_array, n).reshape(-1, 2)
        cut_ends = int(np.count_nonzero(inside[:, 0] != inside[:, 1]))
        smin = 0.0 if cut_ends else 1.0
        # sigma_max is 0 only when every window point is the end of a cut edge
        all_cut = 0 < cut_ends == np.count_nonzero(inside)
        smax = 0.0 if all_cut and not _section_exceeds(domain, n, cut_ends) else 1.0
    else:
        _check_window_budget(operator, lattice_section_size(domain, n))
        smin, smax = _window_extremes(operator, lattice_section(domain, n), tau_rel)
    if not (math.isfinite(smin) and math.isfinite(smax)):
        raise NonFiniteResultError(
            f"section at n={n} has non-finite singular values "
            f"(sigma_min={smin}, sigma_max={smax})"
        )
    return smin, smax


def fsm_solve(
    operator: OperatorSpec,
    rhs: SupportedVector,
    domain: StarlikeDomain,
    n: int,
    tau_rel: float = TAU_REL_DEFAULT,
) -> SupportedVector:
    """Solve the square truncated system over window n; zero off the window.

    Checks the memory budget and the rhs dimension, then takes inverse_norm's
    verdict.  An adjacency section is charged as a window, not a dense block:
    its solve swaps the entries of b along the edges inside the window.
    """
    size = lattice_section_size(domain, n)
    if isinstance(operator, AdjacencyGraph):
        _check_window_budget(operator, size)
    else:
        _check_dense_budget(size, size)
    window = lattice_section(domain, n)
    b = rhs.to_array(window)
    inverse_norm(operator, domain, n, tau_rel)
    if isinstance(operator, AdjacencyGraph):
        # No edge is cut, so S is an involution: x = S b.  + 0.0 clears -0.0 parts
        # as the dense solve does, bar zero real parts that BLAS signs by position.
        ends = window.locate(operator.edge_array).reshape(-1, 2)
        ends = ends[ends[:, 0] >= 0]
        x = b + 0.0
        x[ends] = x[ends[:, ::-1]]
    else:
        x = np.linalg.solve(assemble(operator, window, window).data, b)
    return SupportedVector.from_array(window, x)


def inverse_norm(
    operator: OperatorSpec,
    domain: StarlikeDomain,
    n: int,
    tau_rel: float = TAU_REL_DEFAULT,
) -> float:
    """max(1, 1/sigma_min) of the section; raises when the section is singular."""
    smin, smax = section_extremes(operator, domain, n, tau_rel)
    if not invertible(smin, smax, tau_rel):
        raise SingularSectionError(
            f"section at n={n} is singular: sigma_min={smin:.6g} is not above "
            f"tau_rel * max(sigma_max, 1) = {tau_rel * max(smax, 1.0):.6g}"
        )
    return max(1.0, 1.0 / smin)


def stability_scan(
    operator: OperatorSpec,
    domain: StarlikeDomain,
    n_values: Iterable[int],
    tau_rel: float = TAU_REL_DEFAULT,
    operator_id: str = "",
    domain_id: str = "",
) -> StabilityReport:
    """Record invertibility and inverse norms over increasing window cut-offs."""
    ns = list(n_values)
    if not ns:
        raise ValueError("empty n list")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")
    records = []
    for n in ns:
        smin, smax = section_extremes(operator, domain, n, tau_rel)
        ok = invertible(smin, smax, tau_rel)
        records.append(
            StabilityRecord(
                n=n,
                invertible=ok,
                inverse_norm=max(1.0, 1.0 / smin) if ok else None,
                sigma_min=smin,
                sigma_max=smax,
            )
        )
    return StabilityReport(
        operator_id=operator_id or type(operator).__name__,
        domain_id=domain_id or domain.name or "domain",
        tau_rel=tau_rel,
        records=tuple(records),
    )


def adjacency_section_invertible(
    graph: AdjacencyGraph, domain: StarlikeDomain, n: int
) -> bool:
    """Exact arithmetic criterion: no edge may have exactly one endpoint inside."""
    if not isinstance(graph, AdjacencyGraph):
        raise TypeError("criterion applies to adjacency operators only")
    return section_extremes(graph, domain, n)[0] > 0


def classify_subsequences(
    report: StabilityReport,
    modulus: int,
    norm_cap: float = NORM_CAP_DEFAULT,
) -> dict[int, str]:
    """Per-residue verdict over the scanned cut-offs.

    A class is 'stable-so-far' when every scanned section in it is
    invertible with inverse norm at most norm_cap; the verdict is honest
    about being finite evidence only.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    buckets: dict[int, list[StabilityRecord]] = {r: [] for r in range(modulus)}
    for rec in report.records:
        buckets[rec.n % modulus].append(rec)
    short = [r for r, recs in buckets.items() if len(recs) < 3]
    if short:
        raise InsufficientDataError(
            f"residue classes {short} mod {modulus} scanned fewer than 3 times"
        )
    verdicts: dict[int, str] = {}
    for residue, recs in buckets.items():
        if any(not rec.invertible for rec in recs):
            verdicts[residue] = VERDICT_SINGULAR
        elif any(rec.inverse_norm > norm_cap for rec in recs):
            verdicts[residue] = VERDICT_NORM_CAP
        else:
            verdicts[residue] = VERDICT_STABLE
    return verdicts
