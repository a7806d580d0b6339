"""Square finite sections: solves, inverse-norm scans, subsequence verdicts.

The inverse norm of a section is max(1, 1/sigma_min), the operator norm of
the inverted section extended by the identity off the window.  A square
adjacency section swaps the ends of each edge inside the window, fixes the
points on no edge and is zero in the row and column of each end of a cut
edge, so its verdict, sigma extremes and solve never build the window.

Other square windows of at least SPARSE_MIN_POINTS points take their sigma
extremes from a sparse LU and Lanczos, never building the dense block.
They fall back to the dense SVD whenever the sparse route fails or its
sigma_min lies within SPARSE_FALLBACK_FACTOR of the invertibility
threshold, so the verdict never depends on which route ran.  Scans,
inverse norms and solves (fsm_solve) all take it from _window_extremes.

Scans (stability_scan) and rfsm.convergence_study run large windows in
one pool of forked worker processes (_windows), with the serial bytes.  A
scan that reaches the sparse route decides its first dense windows in
workers forked before scipy loads, while it imports scipy for the rest.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import linalg, sections
from .errors import InsufficientDataError, NonFiniteResultError, NumericError, SingularSectionError
from .geometry import IndexSet, StarlikeDomain, _count_section, lattice_section
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
# A scan forks workers only when its largest window has this many points.
# Two workers broke even with a serial scan near 200 points on 1-D windows
# and near 330 on 2-D ones (2 vCPUs, one BLAS thread).
POOL_MIN_POINTS = 256


def _window_extremes(
    operator: OperatorSpec, window: IndexSet, n: int, tau_rel: float
) -> tuple[float, float, np.ndarray | None]:
    """(sigma_min, sigma_max, block) of window n: sparse for large windows when
    safely invertible, with block None, else the dense SVD of the block."""
    extremes = block = None
    if len(window) >= SPARSE_MIN_POINTS:
        extremes = sparse_extremes(*section_triplets(operator, window, window), len(window))
    if extremes is None or not invertible(*extremes, SPARSE_FALLBACK_FACTOR * tau_rel):
        block = assemble(operator, window, window).data
        sv = singular_values(block)
        extremes = float(sv[-1]), float(sv[0])
    smin, smax = extremes
    if not (math.isfinite(smin) and math.isfinite(smax)):
        raise NonFiniteResultError(
            f"section at n={n} has non-finite singular values "
            f"(sigma_min={smin}, sigma_max={smax})"
        )
    return smin, smax, block


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
    if not isinstance(operator, AdjacencyGraph):
        _check_window_budget(operator, domain, n)
        return _window_extremes(operator, lattice_section(domain, n), n, tau_rel)[:2]
    operator.check_coverage(domain, n)
    inside = domain.contains_array(operator.edge_array, n).reshape(-1, 2)
    cut_ends = int(np.count_nonzero(inside[:, 0] != inside[:, 1]))
    # sigma_max is 0 only when every window point is the end of a cut edge
    all_cut = 0 < cut_ends == np.count_nonzero(inside)
    smax = 0.0 if all_cut and _count_section(domain, n, cut_ends)[0] <= cut_ends else 1.0
    return 0.0 if cut_ends else 1.0, smax


def fsm_solve(
    operator: OperatorSpec,
    rhs: SupportedVector | Callable[[IndexSet], SupportedVector],
    domain: StarlikeDomain,
    n: int,
    tau_rel: float = TAU_REL_DEFAULT,
) -> SupportedVector:
    """Solve the square truncated system over window n; zero off the window.

    An adjacency section's solve builds no window and is not charged: it
    moves each entry of the vector rhs inside the window to its partner.
    Other solves charge window n, then build it once, read rhs(window) when
    rhs is a function of the window, and reuse the block of a dense verdict.
    """
    if isinstance(operator, AdjacencyGraph):
        support = rhs.support_in(domain, n)
        inverse_norm(operator, domain, n, tau_rel)
        # No edge is cut, so S is an involution and the partners lie in window n too;
        # + 0.0 clears the -0.0 parts, as on the dense route.
        x = rhs.to_array(support) + 0.0
        moved = map(tuple, operator.swap(support).tolist())
        return SupportedVector(rhs.dimension, dict(zip(moved, x.tolist())))
    _check_dense_budget(domain, n, n)
    _check_window_budget(operator, domain, n)
    window = lattice_section(domain, n)
    b = (rhs if isinstance(rhs, SupportedVector) else rhs(window)).to_array(window)
    smin, smax, block = _window_extremes(operator, window, n, tau_rel)
    _inverse_norm(n, smin, smax, tau_rel)
    x = np.linalg.solve(assemble(operator, window, window).data if block is None else block, b)
    # clears the -0.0 parts, which BLAS signs by an entry's position in the block
    x += 0.0
    return SupportedVector.from_array(window, x)


def inverse_norm(
    operator: OperatorSpec,
    domain: StarlikeDomain,
    n: int,
    tau_rel: float = TAU_REL_DEFAULT,
) -> float:
    """max(1, 1/sigma_min) of the section; raises when the section is singular."""
    return _inverse_norm(n, *section_extremes(operator, domain, n, tau_rel), tau_rel)


def _inverse_norm(n: int, smin: float, smax: float, tau_rel: float) -> float:
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
) -> StabilityReport:
    """Record invertibility and inverse norms over increasing window cut-offs.

    A range of cut-offs is never listed, and a range increases when its
    first two cut-offs do.  Windows grow with n, so a band operator's first
    window over the budget (_check_window_budget) is found by bisection and
    refused before any window runs.  Band windows are decided in forked
    workers under _windows's rule, the dense budget holding a block of the
    largest window per worker.  When that window reaches SPARSE_MIN_POINTS
    points and scipy is not loaded yet, the windows below it, a prefix in
    n, go first to workers forked before scipy is imported, here, while
    they work.  Each window runs the kernels it would run serially, so the
    report's bytes do not depend on the worker count.  Windows are read in
    n order: the first failing one raises its own error, and no window
    begins after it (nor a second pool after a failing window of the
    first); a worker that dies raises NumericError.
    """
    ns = n_values if isinstance(n_values, range) else list(n_values)
    if not ns:
        raise ValueError("empty n list")
    if any(b <= a for a, b in zip(ns, ns[1:2] if isinstance(ns, range) else ns[1:])):
        raise ValueError("n values must be strictly increasing")
    records = []
    for n, (smin, smax) in zip(ns, _scan_extremes(operator, domain, ns, tau_rel)):
        ok = invertible(smin, smax, tau_rel)
        records.append(StabilityRecord(n, ok, max(1.0, 1.0 / smin) if ok else None, smin, smax))
    return StabilityReport(tau_rel, tuple(records))


def _scan_extremes(
    operator: OperatorSpec, domain: StarlikeDomain, ns: Sequence[int], tau_rel: float
) -> list[tuple[float, float]]:
    """section_extremes of every n in ns, in n order, from forked workers or serially."""

    def job(n: int) -> tuple[float, float]:
        return section_extremes(operator, domain, n, tau_rel)

    if isinstance(operator, AdjacencyGraph):  # decided in closed form, no window built
        return [job(n) for n in ns]

    def refused(n: int) -> bool:
        try:
            _check_window_budget(operator, domain, n)
        except ValueError:
            return True
        return False

    if (first := bisect.bisect_left(ns, True, key=refused)) < len(ns):
        _check_window_budget(operator, domain, ns[first])
    # counted no further than the largest window whose dense block fits twice
    points = _count_section(domain, ns[-1], math.isqrt(sections.DENSE_BUDGET_BYTES // 64))[0]
    fits = sections.DENSE_BUDGET_BYTES // sections._dense_bytes(points, points)
    if points < SPARSE_MIN_POINTS or "scipy.sparse.linalg" in sys.modules:
        return list(_windows(job, ns, domain, fits))
    # Windows grow with n, so those below SPARSE_MIN_POINTS points form a prefix.
    split = bisect.bisect_left(
        ns, True, hi=len(ns) - 1,
        key=lambda n: _count_section(domain, n, SPARSE_MIN_POINTS)[0] >= SPARSE_MIN_POINTS,
    )
    return list(_windows(job, ns, domain, fits, split, _import_sparse))


def _import_sparse() -> None:
    import scipy.sparse.linalg  # noqa: F401  (imported once, shared by the workers)


def _windows(
    job: Callable, ns: Sequence[int], domain: StarlikeDomain, fits: int, split: int = 0,
    meanwhile: Callable[[], None] | None = None,
) -> Iterator:
    """job(n) of every n in ns, in n order; scans and studies both run theirs here.

    They run in forked workers when the last window (a scan's largest, a
    study's widest per-n window) has POOL_MIN_POINTS points and two or more
    workers are left, no more than linalg._free_cores(), the windows, or
    `fits`, the blocks the dense budget holds side by side; else here, one
    after another.  With `meanwhile`, the first `split` windows go first to
    one worker fewer, forked before meanwhile runs here; those not begun
    when it returns go with the rest to workers forked after.
    """
    workers = 1
    if _count_section(domain, ns[-1], POOL_MIN_POINTS)[0] >= POOL_MIN_POINTS:
        workers = min(linalg._free_cores(), len(ns), fits)
    if workers < 2 or not hasattr(os, "fork"):
        return (job(n) for n in ns)
    if meanwhile is None:
        return _pooled_windows(workers, ns, job)
    first = []
    if split:
        first = list(_pooled_windows(max(1, workers - 1), ns[:split], job, meanwhile))
    else:
        meanwhile()
    return itertools.chain(first, _pooled_windows(workers, ns[len(first):], job))


def _pooled_windows(
    workers: int, part: Sequence[int], job: Callable, meanwhile: Callable[[], None] | None = None
) -> Iterator:
    """job(n) of part's windows, yielded in n order from `workers` forked
    processes; with `meanwhile`, which runs here once every window is
    submitted, only those begun when it returns, a prefix of part.  No
    window begins in a worker after one has failed or the generator is
    closed, which waits for those begun, one a worker at most; one that a
    worker skipped before a later failure runs here.  When a fork is refused,
    this process runs job(n) for every window of part instead."""
    # Imported here so that importing the package does not load them.
    import mmap
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    # fork, not spawn: a spawned worker imports numpy and scipy again (scipy
    # alone takes about 0.3 s, more than a pool saves here).  The workers
    # inherit `job` and the byte `stop`, shared with this process, so each
    # job sent is one n.  The pool queues jobs ahead of its workers and
    # cannot take them back, so a worker skips each job it takes once `stop`
    # is set.  Shutting the pool down cancels the jobs not queued, waits for
    # the rest and joins its threads, so none is alive at the next fork.
    # The pool cancels them itself: a job cancelled from here while a dying
    # worker breaks the pool makes its thread fail (Python 3.11).
    with mmap.mmap(-1, 1) as stop, ProcessPoolExecutor(
        workers, mp_context=get_context("fork"), initializer=_serve, initargs=(job, stop)
    ) as pool:
        try:  # the first submit forks every worker
            jobs = [pool.submit(_window, n) for n in part]
        except OSError:  # a fork refused, for want of processes or memory
            for worker in pool._processes.values():  # those forked wait for jobs never sent
                worker.kill()
                worker.join()
            yield from map(job, part)
            return
        try:
            if meanwhile:
                meanwhile()
                stop[0] = 1
                pool.shutdown(cancel_futures=True)
            for n, done in zip(part, jobs):
                if done.cancelled():
                    return
                if (result := done.result()) is None:  # skipped once `stop` was set
                    if meanwhile:  # here: the next pool takes it and those after
                        return
                    result = job(n)  # by a later window that failed, and raises below
                yield result
        except BrokenProcessPool:
            raise NumericError("a worker process ended abruptly") from None
        finally:
            stop[0] = 1
            pool.shutdown(cancel_futures=True)


_worker: tuple = ()  # a worker's job and its byte `stop`, set by _serve


def _serve(job: Callable, stop) -> None:
    global _worker
    _worker = job, stop
    import signal  # here, so that importing the package does not load it
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the calling process alone takes Ctrl-C


def _window(n: int):
    job, stop = _worker
    if stop[0]:  # a window failed, or the calling process stopped the pool
        return None
    try:
        return job(n)
    except BaseException:
        stop[0] = 1  # a window taken before this one but not begun is run by the caller
        raise


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
    about being finite evidence only.  Only the scanned residues are
    bucketed, and a refusal names at most the first 10 short classes, so a
    modulus costs no memory of its own.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    buckets: dict[int, list[StabilityRecord]] = {}
    for rec in report.records:
        buckets.setdefault(rec.n % modulus, []).append(rec)
    n_short = modulus - sum(len(recs) >= 3 for recs in buckets.values())
    if n_short:
        short = (r for r in range(modulus) if len(buckets.get(r, ())) < 3)
        first = list(itertools.islice(short, 10))
        count = "" if n_short <= 10 else f" ({n_short} in all, the first 10 shown)"
        raise InsufficientDataError(
            f"residue classes {first}{count} mod {modulus} scanned fewer than 3 times"
        )
    verdicts: dict[int, str] = {}
    for residue, recs in sorted(buckets.items()):
        if any(not rec.invertible for rec in recs):
            verdicts[residue] = VERDICT_SINGULAR
        elif any(rec.inverse_norm > norm_cap for rec in recs):
            verdicts[residue] = VERDICT_NORM_CAP
        else:
            verdicts[residue] = VERDICT_STABLE
    return verdicts
