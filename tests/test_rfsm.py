import concurrent.futures
import dataclasses
import itertools
import math
import sys
import threading
import time

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
    lattice_section_size,
    normal_equations_solve,
    overflow_block,
    overflow_norm,
    reference_tail_bound,
    rfsm_section,
    rfsm_solve,
    solution_bound,
    spectral_norm,
)
from finsec import cli, rfsm, sections
from finsec.errors import NonFiniteResultError
from finsec.geometry import IndexSet
from finsec.operators import euclidean_norm
from finsec.rfsm import coupling_row_cutoff, rfsm_solve_with_residual
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
        (m - n) * b >= width * sum(abs(c) for c in a) for a, b, _ in domain._integer_facets
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
    assert u == b.restrict(lattice_section(interval, 3))
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
        assert u == SupportedVector.from_entries(1, {0: 1})


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
    assert u == b.restrict(lattice_section(interval, 3))


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


# ---------------------------------------------------------------------------
# convergence_study: concurrent per-n windows
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
        u, residual = rfsm_solve_with_residual(operator, rhs, domain, m, n)
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


def recorded_solves(monkeypatch):
    """Record (columns, ran in the main thread) of every least-squares solve of rfsm."""
    real = rfsm.least_squares
    calls = []

    def recording(matrix, rhs):
        calls.append((matrix.shape[1], threading.current_thread() is threading.main_thread()))
        return real(matrix, rhs)

    monkeypatch.setattr(rfsm, "least_squares", recording)
    return calls


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
    certified, cores, monkeypatch,
):
    monkeypatch.setattr(rfsm, "_free_cores", lambda: cores)
    calls = recorded_solves(monkeypatch)
    report = convergence_study(
        operator, rhs, domain, coupling, ns, reference_n,
        explicit_rows=explicit, inverse_bound=inverse_bound, certified_bound=certified,
    )
    # the reference is solved in the pool, first of all windows
    reference_cols = lattice_section_size(domain, reference_n)
    assert [cols for cols, _ in calls].count(reference_cols) == 1
    assert not any(in_main for _, in_main in calls)
    if min(cores, len(ns)) == 1:
        assert [cols for cols, _ in calls] == [
            reference_cols, *(lattice_section_size(domain, n) for n in ns)
        ]
    want = serial_study_records(
        operator, rhs, domain, coupling, ns, reference_n, explicit, inverse_bound, certified
    )
    assert [rec.n for rec in report.records] == list(ns)
    for got, rec in zip(report.records, want, strict=True):
        for field in dataclasses.fields(RfsmRecord):
            assert getattr(got, field.name) == getattr(rec, field.name), (got.n, field.name)
    assert any(rec.solution_bound is not None for rec in report.records)


def test_study_threads_under_a_short_switch_interval(monkeypatch):
    # Fresh operator and right-hand side, so the workers start from caches that
    # only the study has filled before its pool; eight workers on fewer cores,
    # the reference among them.
    operator = BandDiagonals.from_rules(
        2, {(0, 0): 5, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): 0.5j}
    )
    rhs = SupportedVector.from_entries(2, {(0, 0): 1, (2, -1): 0.5 - 1j, (-3, 3): 2})
    square = builtin_domain("square")
    monkeypatch.setattr(rfsm, "_free_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = convergence_study(
            operator, rhs, square, "sixfifths", range(1, 9), 10, inverse_bound=1.0
        )
    finally:
        sys.setswitchinterval(interval)
    want = serial_study_records(operator, rhs, square, "sixfifths", range(1, 9), 10, None, 1.0)
    assert list(report.records) == want


def test_study_first_failing_n_raises_and_cancels_the_rest(monkeypatch, capsys):
    # window n of worked_A on the interval has 2n + 1 columns
    real = rfsm.least_squares
    started = []
    release = threading.Event()
    raised = LinAlgError("SVD did not converge at n=5")

    def failing_at_5(matrix, rhs):
        n = (matrix.shape[1] - 1) // 2
        started.append(n)
        if n == 5:
            # hold the windows already running past n = 5 until the rest are cancelled
            threading.Timer(0.3, release.set).start()
            raise raised
        if 5 < n < 40:
            release.wait(5)
        return real(matrix, rhs)

    monkeypatch.setattr(rfsm, "least_squares", failing_at_5)
    monkeypatch.setattr(rfsm, "_free_cores", lambda: 2)
    case = build_example("worked_A")
    with pytest.raises(LinAlgError) as excinfo:
        convergence_study(
            case.operator, case.rhs, case.domain, "band", range(2, 31), reference_n=40
        )
    assert excinfo.value is raised
    later = [n for n in started if 5 < n < 40]
    # at most one later window per worker started before the others were cancelled
    assert len(later) <= 2 and max(later, default=5) <= 7

    release.clear()
    started.clear()
    code = cli.main(["study", "--example", "worked_A", "--nmax", "30", "--reference-n", "40"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "finsec: numeric failure: SVD did not converge at n=5\n"
    assert len([n for n in started if 5 < n < 40]) <= 2


def test_study_failing_record_raises_and_cancels_the_rest(monkeypatch):
    # the record of n = 5 fails in this thread while later windows hold their workers
    real = rfsm.least_squares
    started = []
    release = threading.Event()
    raised = NonFiniteResultError("the certified bound overflows a double at n=5")

    def held(matrix, rhs):
        n = (matrix.shape[1] - 1) // 2
        started.append(n)
        if 5 < n < 40:
            release.wait(5)
        return real(matrix, rhs)

    def failing_at_5(n):
        if n == 5:
            # release the held windows once the rest could be cancelled
            threading.Timer(0.3, release.set).start()
            raise raised
        return 1.0

    monkeypatch.setattr(rfsm, "least_squares", held)
    monkeypatch.setattr(rfsm, "_free_cores", lambda: 2)
    case = build_example("worked_A")
    with pytest.raises(NonFiniteResultError) as excinfo:
        convergence_study(
            case.operator, case.rhs, case.domain, "band", range(2, 31), reference_n=40,
            certified_bound=failing_at_5,
        )
    assert excinfo.value is raised
    later = [n for n in started if 5 < n < 40]
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
    for name in rfsm._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(rfsm.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert rfsm._free_cores() == want


def test_study_workers_bounded_by_the_dense_budget(monkeypatch):
    created = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(rfsm, "_free_cores", lambda: 4)
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
    reference = 16 * lattice_section_size(domain, 14) * lattice_section_size(domain, 11)
    tallest = 16 * lattice_section_size(domain, 13) * lattice_section_size(domain, 10)
    assert tallest <= reference < 2 * tallest
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", reference)
    report = study(range(2, 11), 11)
    assert created == [4, 2, 1]
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", 2**31)
    assert study(range(2, 11), 11).records == report.records


@pytest.mark.parametrize("cores", [1, 2])
def test_study_reference_failure_wins_over_a_failing_window(cores, monkeypatch):
    case = build_example("worked_A")
    reference_cols = lattice_section_size(case.domain, 40)
    window_cols = lattice_section_size(case.domain, 3)
    window_failed = threading.Event()
    reference_error = LinAlgError("SVD did not converge in the reference")
    window_error = LinAlgError("SVD did not converge at n=3")
    real = rfsm.least_squares
    solved = []

    def failing(matrix, rhs):
        solved.append(matrix.shape[1])
        if matrix.shape[1] == reference_cols:
            # beside other workers, fail only once window n = 3 has failed
            window_failed.wait(5 if cores > 1 else 0)
            raise reference_error
        if matrix.shape[1] == window_cols:
            window_failed.set()
            raise window_error
        return real(matrix, rhs)

    next_started = threading.Event()

    class NextWindowFirst(concurrent.futures.ThreadPoolExecutor):
        """Hands the study the reference's outcome only once the next window
        has started, so a worker that goes on after a failing reference is
        always seen, never cancelled first."""

        reference = None

        def submit(self, fn, /, *args):
            if self.reference is None:
                self.reference = future = super().submit(fn, *args)

                def outcome(timeout=None, result=future.result):
                    next_started.wait(5)
                    return result(timeout)

                future.result = outcome
                return future

            def start(*args):
                next_started.set()
                return fn(*args)

            return super().submit(start, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NextWindowFirst)
    monkeypatch.setattr(rfsm, "least_squares", failing)
    monkeypatch.setattr(rfsm, "_free_cores", lambda: cores)
    with pytest.raises(LinAlgError) as excinfo:
        convergence_study(
            case.operator, case.rhs, case.domain, "band", range(2, 31), reference_n=40
        )
    assert excinfo.value is reference_error
    assert next_started.is_set()
    # one worker runs the reference first, and no window after its failure
    assert window_failed.is_set() == (cores > 1)
    if cores == 1:
        assert solved == [reference_cols]


def test_study_budget_holding_only_the_reference_runs_one_window_at_a_time(monkeypatch):
    created = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(rfsm, "_free_cores", lambda: 4)
    calls = recorded_solves(monkeypatch)
    case = build_example("worked_A")
    domain = case.domain
    ns = range(2, 11)
    reference = 16 * lattice_section_size(domain, 14) * lattice_section_size(domain, 11)
    tallest = 16 * lattice_section_size(domain, 13) * lattice_section_size(domain, 10)

    def study():
        return convergence_study(case.operator, case.rhs, domain, "band", ns, reference_n=11)

    # one byte short of a per-n block beside the reference block
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", reference + tallest - 1)
    report = study()
    assert created == [1]
    assert [cols for cols, _ in calls] == [
        lattice_section_size(domain, 11), *(lattice_section_size(domain, n) for n in ns)
    ]
    monkeypatch.setattr(sections, "DENSE_BUDGET_BYTES", reference + tallest)
    assert study().records == report.records
    assert created == [1, 2]


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
