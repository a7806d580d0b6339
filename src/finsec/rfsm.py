"""Rectangular truncations: least-squares solves, a-priori bounds, studies.

The rectangular scheme keeps more rows than columns (m >= n) so the
escaping action of a band operator can be pushed to zero, and solves the
resulting overdetermined window in the minimum-norm least-squares sense.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    HypothesisViolatedError,
    NoFeasibleMError,
    NonFiniteResultError,
    SingularGramError,
)
from . import sections
from .geometry import IndexSet, StarlikeDomain, lattice_section, lattice_section_size
from .linalg import TAU_REL_DEFAULT, invertible, least_squares, singular_values, spectral_norm
from .operators import OperatorSpec, SupportedVector, euclidean_norm
from .reports import RfsmRecord, RfsmReport
from .sections import overflow_block, rfsm_section

__all__ = [
    "RfsmParameters",
    "coupling_row_cutoff",
    "overflow_norm",
    "rfsm_solve",
    "rfsm_solve_with_residual",
    "solution_bound",
    "choose_parameters",
    "normal_equations_solve",
    "convergence_study",
    "reference_tail_bound",
]

# choose_parameters searches column cut-offs 1..N_LIMIT and row cut-offs n..M_LIMIT.
N_LIMIT = 256
M_LIMIT = 1024


@dataclass(frozen=True)
class RfsmParameters:
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
    window n by a stored offset, since then no row escapes.
    """
    if domain.holds_shifts(n, [offset for offset, _ in operator.diagonals], m):
        return 0.0
    block = overflow_block(operator, domain, m, n)
    return spectral_norm(block.data)


def _solve_window(
    operator: OperatorSpec,
    rhs: SupportedVector,
    domain: StarlikeDomain,
    m: int,
    n: int,
) -> tuple[IndexSet, np.ndarray, float]:
    """Columns, least-squares solution and residual norm of the m x n window system."""
    section = rfsm_section(operator, domain, m, n)
    b = rhs.to_array(section.rows)
    x = least_squares(section.data, b)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(section.data @ x - b))
    if not math.isfinite(residual):
        raise NonFiniteResultError("the norm of a vector overflows a double")
    return section.cols, x, residual


def rfsm_solve_with_residual(
    operator: OperatorSpec,
    rhs: SupportedVector,
    domain: StarlikeDomain,
    m: int,
    n: int,
) -> tuple[SupportedVector, float]:
    """Least-squares solution of the rectangular window system and its residual norm."""
    cols, x, residual = _solve_window(operator, rhs, domain, m, n)
    return SupportedVector.from_array(cols, x), residual


def rfsm_solve(
    operator: OperatorSpec,
    rhs: SupportedVector,
    domain: StarlikeDomain,
    m: int,
    n: int,
) -> SupportedVector:
    """Minimum-norm least-squares solution of the rectangular window system."""
    return rfsm_solve_with_residual(operator, rhs, domain, m, n)[0]


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


def _fill_shared_caches(
    operator: OperatorSpec, rhs: SupportedVector, domain: StarlikeDomain
) -> None:
    """Build the cached state that every window reads, before threads share it.

    One value of each diagonal fills the diagonal tables; filling window 1
    from the right-hand side builds its support arrays and reads the facet data.
    """
    origin = np.zeros((1, operator.dimension), dtype=np.int64)
    for _, rule in operator.diagonals:
        rule.values_at(origin)
    rhs.to_array(lattice_section(domain, 1))


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
    operator_id: str = "",
    domain_id: str = "",
) -> RfsmReport:
    """Run rectangular solves over n_values and compare against a large reference solve.

    The reference solution is computed at (reference_n + band width,
    reference_n) and stands in for the exact solution; reference_n must
    dominate every requested n.  When inverse_bound is given the a-priori
    norm bound is recorded wherever its hypothesis holds;
    certified_bound(n), when given, fills the certified error column.

    One thread pool maps the window solve over the reference and then the
    requested n in ascending order.  It has as many workers as the usable
    cores divided by the threads of one BLAS call (so one under a BLAS that
    uses every core), no more than there are windows, and no more than the
    dense budget (sections.DENSE_BUDGET_BYTES) holds: the reference block
    beside blocks of the tallest window, or blocks of the tallest window
    alone.  A window returns its solution array, residual and overflow
    norm; its error is summed once the reference is in, in the order of
    (u - u_ref).norm().  Each window runs the same LAPACK calls as it would
    alone, so the report does not depend on the worker count.  A failing
    reference raises its own error, and its worker starts no window after
    it; then the right-hand side's norm may raise, then the first failing
    window or record.  The windows not yet started are then cancelled.
    """
    ns = sorted(set(int(n) for n in n_values))
    if not ns:
        raise ValueError("empty n list")
    width = operator.band_width()
    if reference_n <= max(ns):
        raise ValueError("reference_n must exceed every requested n")

    couplings = {
        n: coupling_row_cutoff(coupling, n, width, explicit_rows) for n in ns
    }
    m_ref = reference_n + width
    if not isinstance(rhs, SupportedVector):
        rhs = rhs(lattice_section(domain, max([m_ref, *couplings.values()])))
    _fill_shared_caches(operator, rhs, domain)

    reference_failed = threading.Event()

    def solve(n: int) -> tuple | None:
        if n == reference_n:
            try:
                return _solve_window(operator, rhs, domain, m_ref, n)
            except BaseException:
                # set before this worker takes a window, so none starts after it
                reference_failed.set()
                raise
        if reference_failed.is_set():
            return None  # never read: the study raises the reference's error
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

    def block_bytes(m: int, n: int) -> int:
        # cut-offs below 1 are refused by their own windows
        rows, cols = (lattice_section_size(domain, max(1, k)) for k in (m, n))
        return sections._dense_bytes(rows, cols)

    # No per-n block is larger than the tallest rows times the widest columns.
    tallest = block_bytes(max(couplings.values()), max(ns))
    reference = block_bytes(m_ref, reference_n)
    # While the reference runs, the other workers hold per-n blocks beside it.
    fits = 1 + (sections.DENSE_BUDGET_BYTES - max(reference, tallest)) // tallest
    workers = min(_free_cores(), len(ns), max(1, fits))
    # Imported here so that importing the package does not load it.
    from concurrent.futures import ThreadPoolExecutor

    # map yields in submission order; closing it cancels the windows not yet
    # started, so leaving the pool waits only for those already running.
    with ThreadPoolExecutor(workers) as pool, closing(
        pool.map(solve, [reference_n, *ns])
    ) as windows:
        ref_cols, x_ref, _ = next(windows)
        rhs_norm = rhs.norm()
        # unpacked into record, so a window's arrays are freed once its record is made
        records = [record(n, *next(windows)) for n in ns]
    return RfsmReport(
        operator_id=operator_id or type(operator).__name__,
        domain_id=domain_id or domain.name or "domain",
        coupling=coupling,
        reference_n=reference_n,
        records=tuple(records),
    )


# OpenBLAS reads the first of these when it loads and MKL the second; both
# fall back to the third and otherwise use every core.  The first one set is
# taken as the thread count of one BLAS call.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _free_cores() -> int:
    """Usable cores divided by the threads each BLAS call runs on, at least 1.

    Windows solved side by side only gain when each LAPACK call leaves
    cores idle; with a multi-threaded BLAS they contend for the same cores
    and run slower than one after another.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    settings = (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARIABLES)
    blas = next((int(v) for v in settings if v.isdigit() and int(v) > 0), cores)
    return max(1, cores // blas)
