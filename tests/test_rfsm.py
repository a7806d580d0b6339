import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError

from finsec import (
    BUILTIN_DOMAINS,
    BandDiagonals,
    HypothesisViolatedError,
    NoFeasibleMError,
    RfsmRecord,
    Shift,
    SingularGramError,
    SupportedVector,
    build_example,
    builtin_domain,
    choose_parameters,
    convergence_study,
    lattice_section,
    normal_equations_solve,
    overflow_block,
    overflow_norm,
    reference_tail_bound,
    rfsm_section,
    rfsm_solve,
    solution_bound,
    spectral_norm,
)
from finsec import cli, fsm, linalg, rfsm, sections
from finsec.errors import NonFiniteResultError
from finsec.geometry import IndexSet
from finsec.operators import euclidean_norm
from finsec.rfsm import _solve_window, coupling_row_cutoff
from conftest import random_band_operator
from oracles import identity_operator


def geometric_vector(radius, decay=2.0):
    return SupportedVector.from_entries(
        1, {k: decay ** (-abs(k)) for k in range(-radius, radius + 1)}
    )


# ---------------------------------------------------------------------------
# overflow_norm
# ---------------------------------------------------------------------------


def test_overflow_zero_beyond_band(interval):
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = random_band_operator(rng, width=int(rng.integers(1, 5)))
        n = int(rng.integers(1, 6))
        assert overflow_norm(a, interval, n + a.band_width(), n) == 0.0


def test_overflow_shift_square_cut_is_one(interval):
    for n in (1, 3, 7):
        assert overflow_norm(Shift.by(1), interval, n, n) == pytest.approx(
            1.0, abs=1e-12
        )


def test_overflow_worked_smallest_window(worked_case):
    # only the coupling row of ones escapes; its norm is sqrt(3)
    got = overflow_norm(worked_case.operator, worked_case.domain, 1, 1)
    assert got == pytest.approx(math.sqrt(3.0), abs=1e-12)


FIVE_POINT_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def width_test(domain, n, width, m):
    """The shortcut's former test: window m holds the max-norm ball expansion of window n."""
    return all(
        (m - n) * b >= width * sum(abs(c) for c in a) for a, b, _ in domain.facets
    )


def test_overflow_shortcut_fires_only_on_empty_blocks(monkeypatch):
    # holds_shifts lets overflow_norm skip the block; wherever it fires the
    # built block must have no rows, and elsewhere the norm is the block's
    built = []

    def recording(*args):
        built.append(overflow_block(*args))
        return built[-1]

    monkeypatch.setattr(rfsm, "overflow_block", recording)
    # operators whose stored offsets leave gaps in their max-norm ball
    gapped = {
        1: [
            build_example("worked_A").operator,
            BandDiagonals.from_rules(1, {0: 2, 3: 1, -2: 1}),
        ],
        2: [
            BandDiagonals.from_rules(2, {d: 1 for d in FIVE_POINT_OFFSETS}),
            BandDiagonals.from_rules(2, {(0, 0): 3, (2, 0): 1, (0, -3): 1, (-1, 2): 1}),
        ],
    }
    fired = escaped = only_offsets = 0
    for name in BUILTIN_DOMAINS:
        domain = builtin_domain(name)
        balls = [
            BandDiagonals.from_rules(
                domain.dimension,
                {d: 1 for d in itertools.product(range(-w, w + 1), repeat=domain.dimension)},
            )
            for w in range(3)
        ]
        for operator in balls + gapped[domain.dimension]:
            width = operator.band_width()
            offsets = [d for d, _ in operator.diagonals]
            for n in range(1, 5):
                ms = {
                    coupling_row_cutoff("band", n, width),
                    coupling_row_cutoff("sixfifths", n, width),
                    *(
                        coupling_row_cutoff("explicit", n, width, {n: m})
                        for m in range(n, n + 2 * width + 2)
                    ),
                }
                for m in sorted(ms):
                    del built[:]
                    norm = overflow_norm(operator, domain, m, n)
                    if domain.holds_shifts(n, offsets, m):
                        fired += 1
                        only_offsets += not width_test(domain, n, width, m)
                        assert built == [] and norm == 0.0
                        assert overflow_block(operator, domain, m, n).data.shape[0] == 0
                    else:
                        # the offset test fires wherever the width test did
                        assert not width_test(domain, n, width, m)
                        escaped += built[0].data.shape[0] > 0
                        assert norm == spectral_norm(built[0].data)
    assert fired > 50 and escaped > 50 and only_offsets > 20


def test_offset_shortcut_fires_where_the_width_test_did_not(diamond_domain):
    five_point = BandDiagonals.from_rules(2, {d: 1 for d in FIVE_POINT_OFFSETS})
    for n in range(1, 6):
        # |x| + |y| <= n: a 5-point step moves |x| + |y| by at most 1, the
        # width-1 ball by up to 2
        assert diamond_domain.holds_shifts(n, FIVE_POINT_OFFSETS, n + 1)
        assert not width_test(diamond_domain, n, 1, n + 1)
        assert overflow_norm(five_point, diamond_domain, n + 1, n) == 0.0
        assert overflow_block(five_point, diamond_domain, n + 1, n).shape[0] == 0
        assert not diamond_domain.holds_shifts(n, FIVE_POINT_OFFSETS, n)
        assert overflow_norm(five_point, diamond_domain, n, n) > 0


def test_overflow_of_a_far_diagonal_is_quick(square):
    operator = BandDiagonals.from_rules(2, {(0, 0): 4, (200, 0): -1})
    start = time.perf_counter()
    norm = overflow_norm(operator, square, 3, 3)
    # the width-200 ball of window 3 holds 161,201 offsets
    assert time.perf_counter() - start < 1.0
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_overflow_block_is_charged_before_its_columns_are_built(square, monkeypatch):
    # window 1000 of the square holds 2001^2 points, past a 10^6-byte budget as the
    # columns of even one escaping row: refused after a few rows of the count
    five_point = BandDiagonals.from_rules(2, {d: 1 for d in FIVE_POINT_OFFSETS})
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="points as overflow columns needs at least"):
            overflow_norm(five_point, square, 1000, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024**2


def test_overflow_shifts_past_int64_are_refused(interval, square):
    far = BandDiagonals.from_rules(1, {0: 4, 2**70: 1})
    with pytest.raises(ValueError, match=rf"diagonal offset \[{2**70}\] shifts window 3 past int64"):
        overflow_norm(far, interval, 3, 3)
    # window 3 is -3..3: the last offsets whose shifts stay inside int64 are kept
    for inside, outside in ((2**63 - 4, 2**63 - 3), (-(2**63) + 3, -(2**63) + 2)):
        kept = BandDiagonals.from_rules(1, {0: 4, inside: 1})
        assert overflow_norm(kept, interval, 3, 3) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="past int64"):
            overflow_norm(BandDiagonals.from_rules(1, {0: 4, outside: 1}), interval, 3, 3)
    operator = BandDiagonals.from_rules(2, {(0, 0): 4, (2**62, 0): 1})
    assert overflow_norm(operator, square, 3, 3) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# rfsm_solve
# ---------------------------------------------------------------------------


def test_identity_rfsm_keeps_window(interval):
    b = geometric_vector(10)
    u = rfsm_solve(identity_operator(), b, interval, 6, 3)
    assert u.entries == b.restrict(lattice_section(interval, 3)).entries
    section = rfsm_section(identity_operator(), interval, 6, 3)
    x = u.to_array(section.cols)
    resid = np.linalg.norm(
        section.data @ x - b.restrict(section.rows).to_array(section.rows)
    )
    expected = b.restrict(lattice_section(interval, 6)).norm_outside(interval, 3)
    assert resid == pytest.approx(expected, abs=1e-12)


def test_shift_rfsm_recovers_exact_solution(interval):
    b = SupportedVector.from_entries(1, {1: 1})
    for n in (1, 2, 5):
        u = rfsm_solve(Shift.by(1), b, interval, n + 1, n)
        assert u.entries == {(0,): 1}


def test_rfsm_residual_never_beats_zero_vector(interval):
    rng = np.random.default_rng(4)
    for _ in range(8):
        a = random_band_operator(rng, width=int(rng.integers(1, 4)))
        b = SupportedVector.from_entries(
            1, {int(k): float(v) for k, v in zip(rng.integers(-6, 7, 5), rng.standard_normal(5))}
        )
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(0, 4))
        section = rfsm_section(a, interval, m, n)
        x = rfsm_solve(a, b, interval, m, n).to_array(section.cols)
        pb = b.restrict(section.rows).to_array(section.rows)
        assert np.linalg.norm(section.data @ x - pb) <= np.linalg.norm(pb) + 1e-12


@pytest.mark.parametrize("case_id", ["worked_A", "worked_Aprime"])
def test_a_built_in_rhs_solves_as_its_vector_over_the_window(case_id):
    # the solves read a function right-hand side over the window they charged
    case = build_example(case_id)
    operator, rhs, domain = case.operator, case.rhs, case.domain
    for n in (1, 4, 7):
        m = n + operator.band_width()
        rows, cols = lattice_section(domain, m), lattice_section(domain, n)
        solves = [rfsm_solve(operator, b, domain, m, n) for b in (rhs, rhs(rows))]
        if case_id == "worked_Aprime":  # its windows n = 1 mod 3 are invertible
            solves += [fsm.fsm_solve(operator, b, domain, n) for b in (rhs, rhs(cols))]
        entries = [list(u.entries.items()) for u in solves]
        assert entries[0::2] == entries[1::2]


def test_band_completeness_entrywise(interval):
    rng = np.random.default_rng(6)
    for _ in range(6):
        a = random_band_operator(rng, width=int(rng.integers(1, 5)))
        n = int(rng.integers(1, 5))
        m = n + a.band_width()
        b = geometric_vector(m)
        u = rfsm_solve(a, b, interval, m, n)
        section = rfsm_section(a, interval, m, n)
        window_image = section.data @ u.to_array(section.cols)
        full_image = a.apply(u)
        for r, p in enumerate(section.rows.points):
            assert window_image[r] == pytest.approx(full_image.get(p), abs=1e-12)


# ---------------------------------------------------------------------------
# solution_bound
# ---------------------------------------------------------------------------


def test_bound_formula():
    assert solution_bound(2.0, 1.0, 0.1, 0.0) == pytest.approx(2.2, abs=1e-15)


def test_bound_hypothesis_violated():
    with pytest.raises(HypothesisViolatedError):
        solution_bound(2.0, 1.0, 0.1, 0.5)
    with pytest.raises(HypothesisViolatedError):
        solution_bound(2.0, 1.0, 0.1, 0.6)


def test_bound_matches_worked_constant():
    b_norm, delta = 1.25, 0.01
    assert solution_bound(2.0, b_norm, delta, 0.0) == pytest.approx(
        2 * (b_norm + delta), abs=1e-15
    )


# ---------------------------------------------------------------------------
# choose_parameters
# ---------------------------------------------------------------------------


def test_choose_parameters_identity_delta():
    interval = build_example("shift").domain
    b = SupportedVector.from_entries(1, {0: 1})
    params = choose_parameters(
        identity_operator(), b, interval, 0.5, 1.0, 1.0, lambda n: 0.0
    )
    assert (params.n, params.m) == (1, 1)
    assert params.delta == pytest.approx(0.5 / 3.0 / 2.0, abs=1e-15)


def test_choose_parameters_respects_m_ceiling(worked_case, monkeypatch):
    monkeypatch.setattr(rfsm, "M_LIMIT", 2)
    b = geometric_vector(10)
    with pytest.raises(NoFeasibleMError, match="no row cut-off below 2"):
        choose_parameters(
            worked_case.operator,
            b,
            worked_case.domain,
            1e-6,
            3.0,
            2.0,
            lambda n: 0.0,
        )


def test_choose_parameters_worked_end_to_end(worked_case):
    a, dom = worked_case.operator, worked_case.domain
    b = worked_case.rhs(lattice_section(dom, 80))
    u_ref = rfsm_solve(a, b, dom, 67, 64)
    tail = reference_tail_bound(u_ref, dom)
    for eps in (1e-2, 1e-3):
        params = choose_parameters(a, b, dom, eps, 3.0, 2.0, tail)
        u = rfsm_solve(a, b, dom, params.m, params.n)
        assert (u - u_ref).norm() < eps
        assert params.delta < eps / (3 * 2.0)


def test_parameter_choice_builds_no_window(worked_case, monkeypatch):
    a, dom = worked_case.operator, worked_case.domain
    b = worked_case.rhs(lattice_section(dom, 80))
    u_ref = rfsm_solve(a, b, dom, 67, 64)

    def choices():
        tail = reference_tail_bound(u_ref, dom)
        return [choose_parameters(a, b, dom, eps, 3.0, 2.0, tail) for eps in (1e-2, 1e-3)]

    want = choices()

    def never(domain, n):
        raise AssertionError(f"parameter selection built window {n}")

    monkeypatch.setattr(rfsm, "lattice_section", never)
    assert choices() == want


def test_parameter_choice_for_a_far_rhs_point_is_quick(square):
    laplace = BandDiagonals.from_rules(
        2, {d: 5 if d == (0, 0) else -1 for d in FIVE_POINT_OFFSETS}
    )
    b = SupportedVector.from_entries(2, {(0, 0): 1, (400, 0): 1e-3})
    tail = reference_tail_bound(rfsm_solve(laplace, b, square, 5, 4), square)
    start = time.perf_counter()
    params = choose_parameters(laplace, b, square, 1e-3, 9.0, 1.0, tail)
    # window 400 of the square holds 641,601 points
    assert time.perf_counter() - start < 1.0
    assert (params.n, params.m) == (4, 400)


def test_reference_tail_bound_monotone(worked_case):
    a, dom = worked_case.operator, worked_case.domain
    b = worked_case.rhs(lattice_section(dom, 40))
    u_ref = rfsm_solve(a, b, dom, 35, 32)
    tail = reference_tail_bound(u_ref, dom)
    values = [tail(n) for n in range(1, 30)]
    assert all(x >= y for x, y in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# candidate solutions exist once the tail clears delta
# ---------------------------------------------------------------------------


def test_truncated_reference_solves_inequality(worked_case):
    # the restriction of a high-accuracy solution is itself an admissible
    # approximate solution once norm(tail) * norm(A) < delta
    a, dom = worked_case.operator, worked_case.domain
    b = worked_case.rhs(lattice_section(dom, 80))
    u_ref = rfsm_solve(a, b, dom, 67, 64)
    a_norm = 3.0
    delta = 1e-4
    n0 = next(
        n
        for n in range(1, 60)
        if a_norm * u_ref.norm_outside(dom, n) <= delta
    )
    for n in range(n0, n0 + 6):
        m = n + 3
        candidate = u_ref.restrict(lattice_section(dom, n))
        section = rfsm_section(a, dom, m, n)
        resid = np.linalg.norm(
            section.data @ candidate.to_array(section.cols)
            - b.restrict(section.rows).to_array(section.rows)
        )
        assert resid < delta


# ---------------------------------------------------------------------------
# normal equations
# ---------------------------------------------------------------------------


def test_normal_equations_identity(interval):
    b = geometric_vector(8)
    u = normal_equations_solve(identity_operator(), b, interval, 5, 3)
    assert u.entries == b.restrict(lattice_section(interval, 3)).entries


def test_normal_equations_match_least_squares(interval):
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 6:
        a = random_band_operator(rng, width=int(rng.integers(1, 4)))
        n = int(rng.integers(2, 6))
        m = n + a.band_width()
        b = geometric_vector(m)
        try:
            via_gram = normal_equations_solve(a, b, interval, m, n)
        except SingularGramError:
            continue  # rank-deficient draw; both routes differ legitimately
        direct = rfsm_solve(a, b, interval, m, n)
        assert (via_gram - direct).norm() <= 1e-8
        checked += 1


def test_normal_equations_rank_deficient_raises(interval):
    with pytest.raises(SingularGramError):
        normal_equations_solve(
            Shift.by(1), SupportedVector.from_entries(1, {0: 1}), interval, 3, 3
        )


# ---------------------------------------------------------------------------
# convergence_study
# ---------------------------------------------------------------------------


def test_study_identity_error_is_tail(interval):
    b = geometric_vector(40)
    report = convergence_study(
        identity_operator(), b, interval, "band", range(2, 11), reference_n=32
    )
    for rec in report.records:
        tail = b.restrict(lattice_section(interval, 32)).norm_outside(interval, rec.n)
        assert rec.error == pytest.approx(tail, abs=1e-12)
        assert rec.m == rec.n  # identity has band width 0


def test_study_worked_band_coupling_within_certified_bound(worked_case):
    report = convergence_study(
        worked_case.operator,
        worked_case.rhs,
        worked_case.domain,
        "band",
        range(2, 21),
        reference_n=64,
        inverse_bound=worked_case.inverse_bound,
        certified_bound=worked_case.band_error_bound,
    )
    for rec in report.records:
        assert rec.m == rec.n + 3
        assert rec.error <= rec.certified_bound
        assert rec.solution_norm <= rec.solution_bound + 1e-9


def test_study_sixfifths_coupling_decays(worked_case):
    report = convergence_study(
        worked_case.operator,
        worked_case.rhs,
        worked_case.domain,
        "sixfifths",
        range(2, 25),
        reference_n=64,
    )
    errors = [rec.error for rec in report.records]
    assert all(rec.m == math.ceil(6 * rec.n / 5) for rec in report.records)
    # trend check: decaying to zero even though m grows slower than n + w
    assert errors[-1] < 1e-3
    assert max(errors[-5:]) < min(errors[:5])


def test_study_rejects_small_reference(worked_case):
    with pytest.raises(ValueError):
        convergence_study(
            worked_case.operator,
            worked_case.rhs,
            worked_case.domain,
            "band",
            range(2, 11),
            reference_n=10,
        )


def test_study_charges_the_reference_before_it_reads_the_cut_offs(worked_case, monkeypatch):
    def unread():
        raise AssertionError("cut-offs read before the reference block was charged")
        yield

    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 10**6)
    study = (worked_case.operator, worked_case.rhs, worked_case.domain, "band")
    with pytest.raises(ValueError, match="dense window 1007 x 1001 needs"):
        convergence_study(*study, unread(), reference_n=500)
    # the first n at or past the reference is refused as it is read: never the rest
    with pytest.raises(ValueError, match="reference_n must exceed every requested n"):
        convergence_study(*study, itertools.count(1), reference_n=10)


# ---------------------------------------------------------------------------
# convergence_study: per-n windows in forked workers
# ---------------------------------------------------------------------------


def serial_study_records(
    operator, rhs, domain, coupling, ns, reference_n, explicit=None,
    inverse_bound=None, certified_bound=None,
):
    """The study's per-n loop run serially, kept as the reference for the pool."""
    width = operator.band_width()
    u_ref = rfsm_solve(operator, rhs, domain, reference_n + width, reference_n)
    records = []
    for n in ns:
        m = coupling_row_cutoff(coupling, n, width, explicit)
        cols, x, residual = _solve_window(operator, rhs, domain, m, n)
        u = SupportedVector.from_array(cols, x)
        bound = None
        if inverse_bound is not None:
            overflow = overflow_norm(operator, domain, m, n)
            if overflow < 1.0 / inverse_bound:
                bound = solution_bound(inverse_bound, rhs.norm(), residual, overflow)
        records.append(
            RfsmRecord(
                n=n,
                m=m,
                residual=residual,
                solution_norm=u.norm(),
                solution_bound=bound,
                error=(u - u_ref).norm(),
                certified_bound=certified_bound(n) if certified_bound else None,
            )
        )
    return records


class SharedLog:
    """Lines appended by this process and by the workers it forks, in the order written."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def add(self, *fields):
        with open(self.path, "a") as log:  # one short write, whole under O_APPEND
            log.write(" ".join(map(str, fields)) + "\n")

    def read(self) -> list[list[int]]:
        return [list(map(int, line.split())) for line in self.path.read_text().splitlines()]


def recorded_solves(monkeypatch, tmp_path):
    """Log (columns, ran in a forked worker) of every least-squares solve of rfsm."""
    real = rfsm.least_squares
    calls = SharedLog(tmp_path / "solves")
    parent = os.getpid()

    def recording(matrix, rhs):
        calls.add(matrix.shape[1], int(os.getpid() != parent))
        return real(matrix, rhs)

    monkeypatch.setattr(rfsm, "least_squares", recording)
    return calls


@pytest.fixture
def with_cores(monkeypatch, one_blas):
    """Sets `cores` free cores and no break-even window size, so that a study forks
    workers whenever two windows or more are left to them, on one BLAS thread each."""

    def set_cores(cores):
        monkeypatch.setattr(linalg, "_free_cores", lambda: cores)
        monkeypatch.setattr(fsm, "POOL_MIN_POINTS", 0)

    return set_cores


def wait_for(path, seconds):
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def hold_until(path, seconds=0.3):
    """Hold a window until `path` exists, and `seconds` more: time for the study
    to cancel the windows no worker has begun."""
    wait_for(path, 5)
    time.sleep(seconds)


FIVE_POINT = BandDiagonals.from_rules(
    2, {(0, 0): 5, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}
)


def study_cases():
    worked = build_example("worked_A")
    interval = builtin_domain("interval")
    square = builtin_domain("square")
    # (operator, rhs, domain, coupling, ns, reference_n, explicit, inverse_bound, certified)
    yield pytest.param(
        worked.operator, worked.rhs(lattice_section(interval, 67)), interval, "band",
        range(2, 31), 64, None, worked.inverse_bound, worked.band_error_bound,
        id="worked_A-band",
    )
    explicit = {n: 2 * n + (n % 3) for n in range(2, 12)}
    yield pytest.param(
        worked.operator, worked.rhs(lattice_section(interval, 27)), interval, "explicit",
        range(2, 12), 24, explicit, 2.0, None,
        id="worked_A-explicit",
    )
    rhs = SupportedVector.from_entries(2, {(0, 0): 1, (1, 0): 0.5, (0, -1): 0.25 + 1j})
    yield pytest.param(
        FIVE_POINT, rhs, square, "band", range(1, 7), 9, None, 1.0, None,
        id="five-point-square",
    )


@pytest.mark.parametrize("cores", [1, 2, 5])
@pytest.mark.parametrize(
    "operator, rhs, domain, coupling, ns, reference_n, explicit, inverse_bound, certified",
    list(study_cases()),
)
def test_study_records_equal_the_serial_loop(
    operator, rhs, domain, coupling, ns, reference_n, explicit, inverse_bound,
    certified, cores, monkeypatch, tmp_path, pools, with_cores,
):
    with_cores(cores)
    calls = recorded_solves(monkeypatch, tmp_path)
    report = convergence_study(
        operator, rhs, domain, coupling, ns, reference_n,
        explicit_rows=explicit, inverse_bound=inverse_bound, certified_bound=certified,
    )
    reference_cols = len(lattice_section(domain, reference_n))
    solved = calls.read()
    if cores == 1:
        # solved here, the reference first
        assert pools == []
        assert solved == [
            [cols, 0]
            for cols in [reference_cols, *(len(lattice_section(domain, n)) for n in ns)]
        ]
    else:
        # solved in forked workers, the reference once
        assert pools == [min(cores, len(ns))]
        assert [cols for cols, _ in solved].count(reference_cols) == 1
        assert all(forked for _, forked in solved) and len(solved) == 1 + len(ns)
    want = serial_study_records(
        operator, rhs, domain, coupling, ns, reference_n, explicit, inverse_bound, certified
    )
    assert [rec.n for rec in report.records] == list(ns)
    for got, rec in zip(report.records, want, strict=True):
        for field in RfsmRecord._fields:
            assert getattr(got, field) == getattr(rec, field), (got.n, field)
    assert any(rec.solution_bound is not None for rec in report.records)


@pytest.mark.parametrize(
    "case, cores, ns, want",
    [
        ("one core", 1, [2, 128], []),
        ("one window", 2, [128], []),
        ("below break-even", 2, [2, 127], []),  # 255 columns in the widest window
        ("past break-even", 2, [2, 128], [2]),  # 257 columns in the widest window
    ],
)
@pytest.mark.usefixtures("one_blas")
def test_study_forks_only_past_the_scans_break_even(
    case, cores, ns, want, pools, monkeypatch, worked_case
):
    assert len(lattice_section(worked_case.domain, 127)) < fsm.POOL_MIN_POINTS
    assert len(lattice_section(worked_case.domain, 128)) >= fsm.POOL_MIN_POINTS
    monkeypatch.setattr(linalg, "_free_cores", lambda: cores)
    # the reference, past break-even in every case, does not decide
    report = convergence_study(
        worked_case.operator, worked_case.rhs, worked_case.domain, "band", ns, 200
    )
    assert pools == want
    assert [rec.n for rec in report.records] == list(ns)


def test_study_first_failing_n_raises_and_cancels_the_rest(
    monkeypatch, tmp_path, capsys, with_cores
):
    # window n of worked_A on the interval has 2n + 1 columns
    real = rfsm.least_squares
    started = SharedLog(tmp_path / "started")
    failed = tmp_path / "failed"

    def failing_at_5(matrix, rhs):
        n = (matrix.shape[1] - 1) // 2
        started.add(n)
        if n == 5:
            failed.touch()
            raise LinAlgError("SVD did not converge at n=5")
        if 5 < n < 40:
            hold_until(failed)
        return real(matrix, rhs)

    def later():
        ns = [n for [n] in started.read() if 5 < n < 40]
        # at most one later window per worker started before the others were cancelled
        assert len(ns) <= 2 and max(ns, default=5) <= 7

    monkeypatch.setattr(rfsm, "least_squares", failing_at_5)
    with_cores(2)
    case = build_example("worked_A")
    with pytest.raises(LinAlgError, match="^SVD did not converge at n=5$"):
        convergence_study(
            case.operator, case.rhs, case.domain, "band", range(2, 31), reference_n=40
        )
    later()

    failed.unlink()
    started.path.write_text("")
    code = cli.main(["study", "--example", "worked_A", "--nmax", "30", "--reference-n", "40"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "finsec: numeric failure: SVD did not converge at n=5\n"
    later()


def test_study_failing_record_raises_and_cancels_the_rest(monkeypatch, tmp_path, with_cores):
    # the record of n = 5 fails in this process while later windows hold their workers
    real = rfsm.least_squares
    started = SharedLog(tmp_path / "started")
    failed = tmp_path / "failed"
    raised = NonFiniteResultError("the certified bound overflows a double at n=5")

    def held(matrix, rhs):
        n = (matrix.shape[1] - 1) // 2
        started.add(n)
        if 5 < n < 40:
            hold_until(failed)
        return real(matrix, rhs)

    def failing_at_5(n):
        if n == 5:
            failed.touch()  # releases the held windows 0.3 s on
            raise raised
        return 1.0

    monkeypatch.setattr(rfsm, "least_squares", held)
    with_cores(2)
    case = build_example("worked_A")
    with pytest.raises(NonFiniteResultError) as excinfo:
        convergence_study(
            case.operator, case.rhs, case.domain, "band", range(2, 31), reference_n=40,
            certified_bound=failing_at_5,
        )
    assert excinfo.value is raised
    later = [n for [n] in started.read() if 5 < n < 40]
    # at most one later window per worker started before the others were cancelled
    assert len(later) <= 2 and max(later, default=5) <= 7


@pytest.mark.parametrize(
    "env, cores, want",
    [
        ({}, 2, 1),  # a BLAS on every core leaves none free
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "2"}, 8, 4),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 2),
        ({"MKL_NUM_THREADS": "16"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 3, 3),
    ],
)
def test_free_cores_divides_usable_cores_by_blas_threads(env, cores, want, monkeypatch):
    for name in linalg._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert linalg._free_cores() == want


# Run in a fresh interpreter, whose VmHWM no earlier test has raised: the
# peak resident memory that one 901 x 801 least-squares window of worked_A
# adds, from before its block is assembled to after its solve.
_HWM_RISE = r"""
import re, sys
from finsec import build_example, geometry, lattice_section, rfsm, sections

def hwm():
    status = open("/proc/self/status").read()
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) * 1024

case = build_example("worked_A")
rhs = case.rhs(lattice_section(case.domain, 450))
rfsm._solve_window(case.operator, rhs, case.domain, 3, 2)  # load LAPACK and fill caches
before = hwm()
rfsm._solve_window(case.operator, rhs, case.domain, 450, 400)
rows, cols = (geometry._count_section(case.domain, k, None)[0] for k in (450, 400))
print(hwm() - before, 16 * rows * cols, sections._dense_bytes(rows, cols))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_the_dense_charge_covers_a_least_squares_solve():
    src = str(Path(rfsm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _HWM_RISE], env=env, capture_output=True, text=True, check=True
    )
    rise, block, charge = map(int, done.stdout.split())
    # lstsq's LAPACK-order copy and workspace lift the peak past one block,
    # and the charge of the block and its copy holds it
    assert block < rise <= charge


def test_study_refuses_the_reference_before_building_a_callable_rhs(monkeypatch):
    case = build_example("worked_A")

    def never(*args):
        raise AssertionError("right-hand-side window built for an over-budget reference")

    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 10**6)
    monkeypatch.setattr(rfsm, "lattice_section", never)
    # the reference block (1000 + 3, 1000) of worked_A
    with pytest.raises(ValueError, match="dense window 2007 x 2001 needs"):
        convergence_study(case.operator, case.rhs, case.domain, "band", range(2, 5), 1000)


def test_study_workers_bounded_by_the_dense_budget(monkeypatch, pools, with_cores):
    with_cores(4)
    case = build_example("worked_A")
    domain = case.domain

    def study(ns, reference_n):
        return convergence_study(
            case.operator, case.rhs, domain, "band", ns, reference_n=reference_n
        )

    study(range(2, 11), 11)
    study(range(2, 4), 11)
    # the reference block (14 x 11 window points) holds one block of the tallest
    # per-n window (13 x 10), not two
    reference = sections._dense_bytes(
        len(lattice_section(domain, 14)), len(lattice_section(domain, 11))
    )
    tallest = sections._dense_bytes(
        len(lattice_section(domain, 13)), len(lattice_section(domain, 10))
    )
    assert tallest <= reference < 2 * tallest
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", reference)
    report = study(range(2, 11), 11)
    # one worker: no pool, the windows solved here
    assert pools == [4, 2]
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 2**31)
    assert study(range(2, 11), 11).records == report.records


@pytest.mark.parametrize("cores", [1, 2])
def test_study_reference_failure_wins_over_a_failing_window(
    cores, monkeypatch, tmp_path, pools, with_cores
):
    case = build_example("worked_A")
    reference_cols = len(lattice_section(case.domain, 40))
    window_cols = len(lattice_section(case.domain, 3))
    window_failed = tmp_path / "window-failed"
    solved = SharedLog(tmp_path / "solved")
    real = rfsm.least_squares

    def failing(matrix, rhs):
        solved.add(matrix.shape[1])
        if matrix.shape[1] == reference_cols:
            # beside another worker, fail only once window n = 3 has failed, and
            # 0.2 s on: time for a window sent after that failure to start
            if cores > 1:
                hold_until(window_failed, 0.2)
            solved.add(0)  # the reference fails
            raise LinAlgError("SVD did not converge in the reference")
        if matrix.shape[1] == window_cols:
            window_failed.touch()
            raise LinAlgError("SVD did not converge at n=3")
        return real(matrix, rhs)

    monkeypatch.setattr(rfsm, "least_squares", failing)
    with_cores(cores)
    with pytest.raises(LinAlgError, match="^SVD did not converge in the reference$"):
        convergence_study(
            case.operator, case.rhs, case.domain, "band", range(2, 31), reference_n=40
        )
    assert pools == ([2] if cores > 1 else [])
    # window n = 3 fails first in the other worker; the reference's error wins
    assert window_failed.exists() == (cores > 1)
    # no window starts after the reference fails
    want = [[reference_cols], [0]]
    if cores > 1:
        want = sorted([[reference_cols], [len(lattice_section(case.domain, 2))], [window_cols]])
        want.append([0])
    log = solved.read()
    assert sorted(log[:-1]) + log[-1:] == want


def test_study_budget_holding_only_the_reference_runs_one_window_at_a_time(
    monkeypatch, tmp_path, pools, with_cores
):
    with_cores(4)
    calls = recorded_solves(monkeypatch, tmp_path)
    case = build_example("worked_A")
    domain = case.domain
    ns = range(2, 11)
    reference = sections._dense_bytes(
        len(lattice_section(domain, 14)), len(lattice_section(domain, 11))
    )
    tallest = sections._dense_bytes(
        len(lattice_section(domain, 13)), len(lattice_section(domain, 10))
    )

    def study():
        return convergence_study(case.operator, case.rhs, domain, "band", ns, reference_n=11)

    # one byte short of a per-n block beside the reference block: solved here, in order
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", reference + tallest - 1)
    report = study()
    assert pools == []
    assert calls.read() == [
        [cols, 0] for cols in map(len, (lattice_section(domain, n) for n in [11, *ns]))
    ]
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", reference + tallest)
    assert study().records == report.records
    assert pools == [2]


_VALUES = st.one_of(
    st.sampled_from([0j, 1 + 0j, -2.5j, 3 - 4j, 1e-300 + 2j, 1e154 + 0j]),
    st.complex_numbers(max_magnitude=1e10, allow_nan=False, allow_infinity=False),
)


def window_vector(dim, raw):
    entries = {k[:dim]: v for k, v in raw.items()}
    points = IndexSet.from_array(dim, list(entries))
    return points, np.array([entries[p] for p in points.points], dtype=complex)


def outcome(norm):
    try:
        return norm()
    except NonFiniteResultError:
        return "non-finite"


@given(
    st.integers(min_value=1, max_value=2),
    st.dictionaries(st.tuples(*[st.integers(-4, 4)] * 2), _VALUES, max_size=14),
    st.dictionaries(st.tuples(*[st.integers(-4, 4)] * 2), _VALUES, max_size=24),
)
@settings(max_examples=200, deadline=None)
def test_array_error_norm_equals_the_vector_difference(dim, raw, raw_ref):
    # equal values at shared points (from the sampled ones) cancel exactly
    cols, x = window_vector(dim, raw)
    ref_cols, x_ref = window_vector(dim, raw_ref)
    u = SupportedVector.from_array(cols, x)
    u_ref = SupportedVector.from_array(ref_cols, x_ref)
    got = outcome(lambda: rfsm._difference_norm(x, ref_cols.locate(cols.array), x_ref))
    assert got == outcome(lambda: (u - u_ref).norm())
    assert outcome(lambda: euclidean_norm(x.tolist())) == outcome(u.norm)
