"""Rectangular truncations: least-squares solves, a-priori bounds, studies.

The rectangular scheme keeps more rows than columns (m >= n) so the
escaping action of a band operator can be pushed to zero, and solves the
resulting overdetermined window in the minimum-norm least-squares sense.
"""

from __future__ import annotations

import itertools
import math
from contextlib import closing
from typing import Callable, Iterable

import numpy as np

from ._value import Value
from .errors import (
    HypothesisViolatedError,
    NoFeasibleMError,
    NonFiniteResultError,
    SingularGramError,
)
from . import fsm, sections
from .geometry import IndexSet, StarlikeDomain, lattice_section
from .linalg import TAU_REL_DEFAULT, invertible, least_squares, singular_values, spectral_norm
from .operators import AdjacencyGraph, OperatorSpec, SupportedVector, euclidean_norm
from .reports import RfsmRecord, RfsmReport
from .sections import overflow_block, rfsm_section

__all__ = [
    "RfsmParameters",
    "coupling_row_cutoff",
    "overflow_norm",
    "rfsm_solve",
    "solution_bound",
    "choose_parameters",
    "normal_equations_solve",
    "convergence_study",
    "reference_tail_bound",
]

# choose_parameters searches column cut-offs 1..N_LIMIT and row cut-offs n..M_LIMIT.
N_LIMIT = 256
M_LIMIT = 1024


class RfsmParameters(Value):
    """Chosen precision and cut-offs for one rectangular solve."""

    epsilon: float
    delta: float
    n: int
    m: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n < 1 or self.m < 1:
            raise ValueError("cut-offs must be >= 1")


def coupling_row_cutoff(
    coupling: str, n: int, band_width: int, explicit: dict[int, int] | None = None
) -> int:
    """Row cut-off m for column cut-off n under a named coupling rule."""
    if coupling == "band":
        return n + band_width
    if coupling == "sixfifths":
        return math.ceil(6 * n / 5)
    if coupling == "explicit":
        if explicit is None or n not in explicit:
            raise ValueError(f"explicit coupling has no row cut-off for n={n}")
        return explicit[n]
    raise ValueError(f"unknown coupling rule {coupling!r}")


def overflow_norm(
    operator: OperatorSpec, domain: StarlikeDomain, m: int, n: int
) -> float:
    """Exact spectral norm of the action on window-n columns escaping window m.

    0 without building the block when window m holds every shift of
    window n by a stored offset of a band operator, since then no row escapes.
    """
    band = not isinstance(operator, AdjacencyGraph)
    if band and domain.holds_shifts(n, [offset for offset, _ in operator.diagonals], m):
        return 0.0
    block = overflow_block(operator, domain, m, n)
    return spectral_norm(block.data)


def _solve_window(
    operator: OperatorSpec,
    rhs: SupportedVector | Callable[[IndexSet], SupportedVector],
    domain: StarlikeDomain,
    m: int,
    n: int,
) -> tuple[IndexSet, np.ndarray, float]:
    """Columns, least-squares solution and residual norm of the m x n window system."""
    section = rfsm_section(operator, domain, m, n)
    b = (rhs if isinstance(rhs, SupportedVector) else rhs(section.rows)).to_array(section.rows)
    x = least_squares(section.data, b)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(section.data @ x - b))
    if not math.isfinite(residual):
        raise NonFiniteResultError("the norm of a vector overflows a double")
    return section.cols, x, residual


def rfsm_solve(
    operator: OperatorSpec,
    rhs: SupportedVector | Callable[[IndexSet], SupportedVector],
    domain: StarlikeDomain,
    m: int,
    n: int,
) -> SupportedVector:
    """Minimum-norm least-squares solution of the rectangular window system;
    a function rhs of the rows window is read after the block is charged."""
    return SupportedVector.from_array(*_solve_window(operator, rhs, domain, m, n)[:2])


def solution_bound(
    inverse_bound: float, rhs_norm: float, delta: float, overflow: float
) -> float:
    """A-priori norm bound (rhs_norm + delta) / (1/inverse_bound - overflow).

    Requires the overflow norm to sit strictly below 1/inverse_bound.
    """
    gap = 1.0 / inverse_bound - overflow
    if gap <= 0:
        raise HypothesisViolatedError(
            f"overflow norm {overflow:g} is not below 1/inverse_bound={1.0 / inverse_bound:g}"
        )
    return (rhs_norm + delta) / gap


def reference_tail_bound(
    u_ref: SupportedVector, domain: StarlikeDomain
) -> Callable[[int], float]:
    """Tail bound surrogate n -> 2 * norm of the reference solution off window n.

    The exact tail of the true solution is not finitely computable; a
    high-accuracy reference solve plus a slack factor of 2 is the
    transparent stand-in.  Monotone non-increasing by construction.
    """

    def bound(n: int) -> float:
        return 2.0 * u_ref.norm_outside(domain, n)

    return bound


def choose_parameters(
    operator: OperatorSpec,
    rhs: SupportedVector,
    domain: StarlikeDomain,
    epsilon: float,
    operator_norm: float,
    inverse_bound: float,
    tail_bound: Callable[[int], float],
) -> RfsmParameters:
    """Pick (delta, n, m) guaranteeing the solve lands within epsilon of the truth.

    delta is half of epsilon / (3 * inverse_bound); n is the smallest
    column cut-off whose solution tail clears delta / operator_norm; m is
    the smallest row cut-off >= n with a small enough right-hand-side tail
    and an overflow norm below the convergence threshold.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    delta = epsilon / (3.0 * inverse_bound) / 2.0

    n = next(
        (k for k in range(1, N_LIMIT + 1) if tail_bound(k) <= delta / operator_norm),
        None,
    )
    if n is None:
        raise NoFeasibleMError(
            f"no column cut-off below {N_LIMIT} clears the solution tail bound"
        )

    rhs_norm = rhs.norm()
    rhs_tail_cap = epsilon / (3.0 * inverse_bound)
    overflow_cap = (1.0 / inverse_bound) * (
        1.0 - 1.0 / (1.0 + epsilon / (3.0 * (rhs_norm + delta) * inverse_bound))
    )
    for m in range(n, M_LIMIT + 1):
        tail = rhs.norm_outside(domain, m)
        if tail < rhs_tail_cap and overflow_norm(operator, domain, m, n) < overflow_cap:
            return RfsmParameters(epsilon=epsilon, delta=delta, n=n, m=m)
    raise NoFeasibleMError(
        f"no row cut-off below {M_LIMIT} satisfies the tail and overflow bounds"
    )


def normal_equations_solve(
    operator: OperatorSpec,
    rhs: SupportedVector,
    domain: StarlikeDomain,
    m: int,
    n: int,
    tau_rel: float = TAU_REL_DEFAULT,
) -> SupportedVector:
    """Solve the window normal equations; equals the least-squares route when Gram is regular."""
    section = rfsm_section(operator, domain, m, n)
    forward = section.data
    backward = forward.conj().T
    gram = backward @ forward
    b = backward @ rhs.to_array(section.rows)
    sv = singular_values(gram)
    if not invertible(float(sv[-1]), float(sv[0]), tau_rel):
        raise SingularGramError(
            f"the Gram matrix at (m={m}, n={n}) fails the invertibility test (tau={tau_rel:g})"
        )
    return SupportedVector.from_array(section.cols, np.linalg.solve(gram, b))


def _difference_norm(x: np.ndarray, positions: np.ndarray, x_ref: np.ndarray) -> float:
    """(u - u_ref).norm() for u = x over a window and u_ref = x_ref over the reference.

    positions[k] is the place of the window's k-th point in the reference
    window, -1 where it has none.  The terms are summed in the order of that
    SupportedVector difference: u's nonzero entries in window order (an
    entry that cancels adds 0), then u_ref's other nonzero entries in
    reference order.
    """
    nonzero = x != 0
    shared = positions >= 0
    ref_at = np.zeros_like(x)
    ref_at[shared] = x_ref[positions[shared]]
    covered = np.zeros(len(x_ref), dtype=bool)
    covered[positions[nonzero & shared]] = True
    own = (x - ref_at)[nonzero]
    rest = x_ref[(x_ref != 0) & ~covered]
    return euclidean_norm(itertools.chain(own.tolist(), rest.tolist()))


def convergence_study(
    operator: OperatorSpec,
    rhs: SupportedVector | Callable,
    domain: StarlikeDomain,
    coupling: str,
    n_values: Iterable[int],
    reference_n: int,
    explicit_rows: dict[int, int] | None = None,
    inverse_bound: float | None = None,
    certified_bound: Callable[[int], float] | None = None,
) -> RfsmReport:
    """Run rectangular solves over n_values and compare against a large reference solve.

    The reference solution is computed at (reference_n + band width,
    reference_n) and stands in for the exact solution.  Every block is
    charged against sections.DENSE_BUDGET_BYTES, and refused past it with
    ValueError, before any window is built, the reference block before
    n_values is read.  Each n >= reference_n is refused as it is read, so
    no more cut-offs are held than the reference.  A function rhs of a
    window is then read once, over the tallest rows.  When inverse_bound is
    given the a-priori norm bound is recorded wherever its hypothesis holds;
    certified_bound(n), when given, fills the certified error column.

    The reference and then the requested n, in ascending order, are solved
    under fsm._windows's rule, which gates on the widest per-n window: in
    forked workers, no more than the requested windows, nor than the dense
    budget holds (the reference block beside blocks of the tallest window,
    or blocks of the tallest window alone), or else here, one after
    another.  A window returns its solution array, residual and overflow
    norm, and its record is made here as it comes back, its error summed in
    the order of (u - u_ref).norm().  Each window runs the same LAPACK
    calls as it would alone, so the report does not depend on the worker
    count.  A failing reference raises its own error, and no window begins
    after it; then the right-hand side's norm may raise, then the first
    failing window or record.  The windows not yet started are then
    cancelled.
    """
    width = operator.band_width()
    m_ref = reference_n + width

    def block(m: int, n: int) -> tuple[int, str, bool]:
        # cut-offs below 1 are refused by their own windows
        return sections._dense_charge(domain, max(1, m), max(1, n))

    # every block, the reference first, is charged before any window is built
    sections._check_budget(*block(m_ref, reference_n))
    requested = set()
    for n in map(int, n_values):
        if n >= reference_n:
            raise ValueError("reference_n must exceed every requested n")
        requested.add(n)
    if not requested:
        raise ValueError("empty n list")
    ns = sorted(requested)
    couplings = {n: coupling_row_cutoff(coupling, n, width, explicit_rows) for n in ns}
    for n, m in couplings.items():
        sections._check_budget(*block(m, n))
    if not isinstance(rhs, SupportedVector):
        rhs = rhs(lattice_section(domain, max([m_ref, *couplings.values()])))

    def solve(n: int) -> tuple:
        if n == reference_n:
            return _solve_window(operator, rhs, domain, m_ref, n)
        m = couplings[n]
        cols, x, residual = _solve_window(operator, rhs, domain, m, n)
        overflow = None if inverse_bound is None else overflow_norm(operator, domain, m, n)
        return cols.array, x, residual, overflow

    def record(n, points, x, residual, overflow) -> RfsmRecord:
        bound = None
        if overflow is not None and overflow < 1.0 / inverse_bound:
            bound = solution_bound(inverse_bound, rhs_norm, residual, overflow)
        return RfsmRecord(
            n=n,
            m=couplings[n],
            residual=residual,
            solution_norm=euclidean_norm(x.tolist()),
            solution_bound=bound,
            error=_difference_norm(x, ref_cols.locate(points), x_ref),
            certified_bound=certified_bound(n) if certified_bound else None,
        )

    # No per-n block is larger than the tallest rows times the widest columns.
    tallest = block(max(couplings.values()), max(ns))[0]
    reference = block(m_ref, reference_n)[0]
    # While the reference runs, the other workers hold per-n blocks beside it.
    fits = min(len(ns), 1 + (sections.DENSE_BUDGET_BYTES - max(reference, tallest)) // tallest)
    with closing(fsm._windows(solve, [reference_n, *ns], domain, fits)) as windows:
        ref_cols, x_ref, _ = next(windows)
        rhs_norm = rhs.norm()
        # unpacked into record, so a window's arrays are freed once its record is made
        records = [record(n, *next(windows)) for n in ns]
    return RfsmReport(coupling, reference_n, tuple(records))
