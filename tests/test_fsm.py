import errno
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsec import (
    EXAMPLE_IDS,
    AdjacencyGraph,
    BandDiagonals,
    GeneratorBoundError,
    InsufficientDataError,
    NonFiniteResultError,
    Shift,
    SingularSectionError,
    SupportedVector,
    TableRule,
    adjacency_section_invertible,
    build_example,
    builtin_domain,
    classify_subsequences,
    fsm_section,
    fsm_solve,
    inverse_norm,
    lattice_section,
    stability_scan,
)
from finsec import cli, fsm, linalg
from finsec.catalog import minimal_bound
from finsec.fsm import VERDICT_NORM_CAP, VERDICT_SINGULAR, VERDICT_STABLE, section_extremes
from finsec.linalg import TAU_REL_DEFAULT, singular_values
from finsec.reports import write
from conftest import one_blas_thread, periodic_rule, random_band_operator
from oracles import identity_operator, singular_value_extremes, window_swap_solve

D_INT = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]


# ---------------------------------------------------------------------------
# fsm_solve
# ---------------------------------------------------------------------------


def test_identity_solve_restricts_rhs(interval):
    b = SupportedVector.from_entries(1, {-5: 1.0, 0: 2.0, 1: 3.0})
    u = fsm_solve(identity_operator(), b, interval, 2)
    assert u.entries == {(0,): 2.0, (1,): 3.0}


def test_shift_sections_never_solve(interval):
    b = SupportedVector.from_entries(1, {0: 1})
    for n in (1, 4, 9):
        with pytest.raises(SingularSectionError):
            fsm_solve(Shift.by(1), b, interval, n)


def test_blockdiag_even_solve_swaps(interval):
    case = build_example("blockdiag", 6)
    u = fsm_solve(case.operator, SupportedVector.from_entries(1, {1: 1}), interval, 4)
    assert u.entries == {(2,): 1}


def test_solve_residual_consistency(worked_prime_case, interval):
    # whenever the square solve succeeds, the windowed residual is tiny
    b = SupportedVector.from_entries(1, {k: 2.0 ** (-abs(k)) for k in range(-25, 26)})
    for n in (1, 7, 13, 22):
        u = fsm_solve(worked_prime_case.operator, b, interval, n)
        sec = fsm_section(worked_prime_case.operator, interval, n)
        resid = np.linalg.norm(
            sec.data @ u.to_array(sec.cols) - b.restrict(sec.rows).to_array(sec.rows)
        )
        assert resid <= 1e-8 * (1.0 + b.norm())


@pytest.mark.parametrize("route", ["dense", "sparse"])
def test_solve_builds_its_window_and_block_once(route, worked_prime_case, interval, square,
                                                monkeypatch):
    # the verdict's dense SVD and the solve share one block; the sparse verdict builds none
    if route == "dense":
        operator, domain, n = worked_prime_case.operator, interval, 40
        b = SupportedVector.from_entries(1, {k: 2.0 ** (-abs(k)) for k in range(-25, 26)})
    else:
        operator, domain, n = laplace_operator([4, 4.25, 4.5, 5]), square, 12
        b = SupportedVector(2, {(0, 0): 1.0, (3, -2): 2.0})
    window = lattice_section(domain, n)
    assert (len(window) >= fsm.SPARSE_MIN_POINTS) == (route == "sparse")
    expected = np.linalg.solve(fsm_section(operator, domain, n).data, b.to_array(window)) + 0.0
    calls = []

    def counted(name, built):
        def call(*args):
            calls.append(name)
            return built(*args)
        return call

    for name in ("lattice_section", "assemble"):
        monkeypatch.setattr(fsm, name, counted(name, getattr(fsm, name)))
    u = fsm_solve(operator, b, domain, n)
    assert sorted(calls) == ["assemble", "lattice_section"]
    assert u.entries == SupportedVector.from_array(window, expected).entries


# ---------------------------------------------------------------------------
# inverse_norm
# ---------------------------------------------------------------------------


def test_identity_inverse_norm(interval):
    assert inverse_norm(identity_operator(), interval, 5) == 1.0


def test_blockdiag_even_inverse_norm_is_one(interval):
    case = build_example("blockdiag", 8)
    for n in (2, 6, 10):
        assert inverse_norm(case.operator, interval, n) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(SingularSectionError):
        inverse_norm(case.operator, interval, 3)


def test_preconditioned_inverse_norm_constant(worked_prime_case, interval):
    # windows n = 1 mod 3 tile into complete corner blocks, so the norm is
    # exactly max(1, 1/sigma_min(D)); the exact oracle pins the value
    smin_d, _ = singular_value_extremes(D_INT)
    expected = max(1.0, 1.0 / smin_d)
    values = [
        inverse_norm(worked_prime_case.operator, interval, n) for n in (1, 4, 7, 13)
    ]
    assert values == pytest.approx([expected] * 4, abs=1e-9)


# ---------------------------------------------------------------------------
# stability_scan
# ---------------------------------------------------------------------------


def test_scan_shift_all_singular(interval):
    report = stability_scan(Shift.by(1), interval, range(1, 11))
    assert all(not rec.invertible for rec in report.records)
    assert all(rec.inverse_norm is None for rec in report.records)


def test_scan_blockdiag_parity(interval):
    case = build_example("blockdiag", 8)
    report = stability_scan(case.operator, interval, range(1, 11))
    for rec in report.records:
        assert rec.invertible == (rec.n % 2 == 0)


def test_scan_rarosi_all_stable():
    case = build_example("rarosi", 5)
    report = stability_scan(case.operator, case.domain, range(1, 11))
    assert all(rec.invertible for rec in report.records)
    assert {rec.inverse_norm for rec in report.records} == {1.0}


def test_scan_requires_increasing_n(interval):
    with pytest.raises(ValueError):
        stability_scan(identity_operator(), interval, [3, 2, 5])


@pytest.mark.parametrize("n_values", [[2, 2], range(5, 1, -1)], ids=str)
def test_scan_reads_a_range_as_increasing_when_its_first_two_are(n_values, interval):
    with pytest.raises(ValueError, match="n values must be strictly increasing"):
        stability_scan(identity_operator(), interval, n_values)


def scan_with_cores(monkeypatch, cores, *args):
    """stability_scan with `cores` free cores, one BLAS thread and no break-even window
    size; serial scans take one thread too, since the thread count moves sigma's bytes."""
    with monkeypatch.context() as patch, one_blas_thread():
        patch.setattr(linalg, "_free_cores", lambda: cores)
        patch.setattr(fsm, "POOL_MIN_POINTS", 0)
        return stability_scan(*args)


@pytest.mark.parametrize(
    "case, ns",
    [
        ("laplace", range(1, 17)),  # n >= 11 on the sparse route
        ("worked_Aprime", range(1, 61)),
        ("laplace-singular", range(1, 13)),  # singular at n = 2 (mod 3)
    ],
)
def test_pooled_scan_records_are_the_serial_bytes(case, ns, pools, monkeypatch, interval, square):
    operator, domain = {
        "laplace": (laplace_operator([4, 4.25, 4.5, 5]), square),
        "worked_Aprime": (build_example("worked_Aprime").operator, interval),
        "laplace-singular": (laplace_operator([2, 2, 2, 2]), square),
    }[case]
    serial = scan_with_cores(monkeypatch, 1, operator, domain, ns)
    assert pools == []
    # one pool: worked_Aprime's windows stay below 512 points, and the serial laplace scans
    # load scipy, so no import is left to overlap; test_cli.py runs the two pools it starts
    # in a fresh interpreter
    pooled = scan_with_cores(monkeypatch, 2, operator, domain, ns)
    assert pools == [2]
    assert write(pooled, "json", {}) == write(serial, "json", {})


@pytest.mark.parametrize("n_values", [range(1, 10**18), list(range(1, 2000))], ids=["range", "list"])
def test_scan_refuses_its_first_window_over_the_budget_before_any_runs(
    n_values, interval, monkeypatch
):
    # worked_A's window n has 2n + 1 points at 296 bytes each, so n = 1689 is the first
    # over the budget; windows grow with n, so a bisection finds it, and a range is not listed
    def unreached(*args):
        raise AssertionError("a window ran before the scan's refusal")

    monkeypatch.setattr(fsm.sections, "DENSE_BUDGET_BYTES", 296 * 3378)
    monkeypatch.setattr(fsm, "section_extremes", unreached)
    with pytest.raises(ValueError) as excinfo:
        stability_scan(build_example("worked_A").operator, interval, n_values)
    assert str(excinfo.value) == (
        "window of 3379 points and 5 stored diagonals needs 1000184 bytes, "
        "over the 999888-byte budget"
    )


def test_pooled_scan_raises_the_first_failing_windows_error(pools, monkeypatch, interval):
    # window 5 overflows; every later window is refused at once, so it can fail first.
    # The 2-D cases, whose scans run in two pools, run in a fresh interpreter (test_cli.py).
    k = 5
    big = TableRule.from_mapping({(k,): 1.7e308}, default=1, dimension=1)
    operator = BandDiagonals.from_rules(1, {d: big for d in (-1, 0, 1)})

    extremes = fsm.section_extremes

    def failing(operator, domain, n, tau_rel):
        # at window time: the scan's up-front budget bisection must not see it
        if n > k:
            raise ValueError(f"window n={n} is over the budget")
        return extremes(operator, domain, n, tau_rel)

    monkeypatch.setattr(fsm, "section_extremes", failing)
    errors = []
    for cores in (1, 2):
        with pytest.raises(NonFiniteResultError) as excinfo:
            scan_with_cores(monkeypatch, cores, operator, interval, range(1, 3 * k))
        errors.append(str(excinfo.value))
    assert pools == [2]
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"section at n={k} has non-finite singular values")


_WINDOW = fsm._window


def _window_checked_late(n):
    """fsm._window, but window 4 is checked half a second after a worker takes it."""
    if n == 4:
        time.sleep(0.5)
    return _WINDOW(n)


def test_pooled_scan_runs_a_window_skipped_before_a_later_failure(pools, monkeypatch, interval):
    # window 4 is taken before window 5 fails but reads the stop byte after it: the
    # scan used to return windows 1..3 as its whole report
    k = 5
    big = TableRule.from_mapping({(k,): 1.7e308}, default=1, dimension=1)
    operator = BandDiagonals.from_rules(1, {d: big for d in (-1, 0, 1)})
    monkeypatch.setattr(fsm, "_window", _window_checked_late)
    with pytest.raises(NonFiniteResultError, match=f"section at n={k} has non-finite"):
        scan_with_cores(monkeypatch, 2, operator, interval, range(1, 2 * k))
    assert pools == [2]


@pytest.mark.parametrize(
    "case, cores, ns",
    [
        ("one window", 2, [8]),
        ("adjacency", 2, range(1, 9)),
        ("one core", 1, range(1, 9)),
        ("below break-even", 2, range(1, 8)),  # window 7 has 225 points
    ],
)
def test_scan_starts_no_pool(case, cores, ns, pools, monkeypatch, square):
    operator = laplace_operator([4, 4, 4, 4])
    if case == "adjacency":
        operator = build_example("diamond").operator
    monkeypatch.setattr(linalg, "_free_cores", lambda: cores)
    stability_scan(operator, square, ns)
    assert pools == []


def test_scan_past_the_break_even_starts_one_pool(pools, monkeypatch, square):
    # window 8 has 289 points, past the default break-even
    assert len(lattice_section(square, 7)) < fsm.POOL_MIN_POINTS <= len(lattice_section(square, 8))
    monkeypatch.setattr(linalg, "_free_cores", lambda: 2)
    with one_blas_thread():
        stability_scan(laplace_operator([4, 4, 4, 4]), square, range(1, 9))
    assert pools == [2]


# (argv, its file in tools/pinned): a scan and a study that each start one pool of two
REFUSED_FORKS = (
    (
        ["scan", "--operator", "lap5.json", "--omega", "square", "--nmax", "12"],
        "scan_operator_lap5.json_omega_square_nmax_12.txt",
    ),
    (
        ["study", "--example", "worked_A", "--nmax", "200", "--reference-n", "400"],
        "study_example_worked_A_nmax_200_reference_n_400.txt",
    ),
)


@pytest.mark.parametrize("forks", [0, 1])
def test_pooled_scan_whose_fork_fails_is_decided_serially(forks, pools, monkeypatch, capsys):
    # a fork refused for want of processes, at the first worker or the second: the
    # forked one is killed and this process decides the windows, with the serial bytes
    import scipy.sparse.linalg  # noqa: F401  (loaded, so the scan starts one pool of two)

    real_fork, calls = os.fork, []

    def fork():
        calls.append(len(calls))
        if len(calls) > forks:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(linalg, "_free_cores", lambda: 2)
    monkeypatch.chdir(tools)
    for argv, name in REFUSED_FORKS:
        pools.clear()
        calls.clear()
        with one_blas_thread():
            code = cli.main(argv)
        out = capsys.readouterr().out
        assert (code, pools, len(calls)) == (0, [2], forks + 1), argv
        pinned = tools / "pinned" / name
        assert f"exit 0\n--- stdout\n{out}--- stderr\n" in pinned.read_text(), argv


def test_adjacency_fast_path_matches_dense_section(interval):
    # the closed form from the edge ends inside the window reproduces the
    # dense sigma extremes exactly on windows small enough to materialize
    cut_ends = AdjacencyGraph.from_edges(1, [(-2, -1), (0, 5), (1, 2)])
    cases = [
        (build_example(case_id, 10), n_values)
        for case_id, n_values in (
            ("blockdiag", (1, 2, 3, 4, 7)),
            ("rarosi", (1, 2, 3, 4)),
            ("sierror", (1, 2, 4, 5)),
            ("diamond", (1, 3, 6)),
        )
    ]
    for case, n_values in cases:
        for n in n_values:
            dense = singular_values(fsm_section(case.operator, case.domain, n).data)
            extremes = (float(dense[-1]), float(dense[0]))
            assert section_extremes(case.operator, case.domain, n) == extremes
    # every point of window 1 ends a cut edge: the section is zero
    assert section_extremes(cut_ends, interval, 1) == (0.0, 0.0)
    assert not fsm_section(cut_ends, interval, 1).data.any()
    assert section_extremes(cut_ends, interval, 2) == (0.0, 1.0)


ADJACENCY_WINDOWS = {"blockdiag": 12, "rarosi": 4, "sierror": 4, "diamond": 4}
RHS_PARTS = [0.0, -0.0, 1.5, -1.5, 0.1, -7.0, 5e-324, -1e300]


def _parts_equal(u, v):
    """Bitwise equality of two solutions, the signs of zero parts included."""
    return u.keys() == v.keys() and all(
        np.complex128(z).tobytes() == np.complex128(v[p]).tobytes() for p, z in u.items()
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ADJACENCY_WINDOWS)), st.data())
def test_adjacency_sections_take_no_block_and_match_the_dense_route(case_id, data):
    case = build_example(case_id, 10)
    n = data.draw(st.integers(1, ADJACENCY_WINDOWS[case_id]), label="n")
    window = fsm_section(case.operator, case.domain, n)
    parts = st.sampled_from(RHS_PARTS)
    values = data.draw(
        st.lists(st.tuples(parts, parts), min_size=len(window.rows), max_size=len(window.rows))
    )
    rhs = SupportedVector.from_entries(
        case.domain.dimension, {p: complex(*v) for p, v in zip(window.rows, values)}
    )
    sv = singular_values(window.data)
    invertible = linalg.invertible(float(sv[-1]), float(sv[0]), TAU_REL_DEFAULT)
    if invertible:
        # + 0.0 clears signed zeros, as the dense route of fsm_solve does
        x = np.linalg.solve(window.data, rhs.to_array(window.rows)) + 0.0
        expected = SupportedVector.from_array(window.rows, x)

    def unreached(*args, **kwargs):
        raise AssertionError("the adjacency route reached a dense kernel")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsm, "assemble", unreached)
        mp.setattr(fsm, "singular_values", unreached)
        mp.setattr(np.linalg, "solve", unreached)
        assert section_extremes(case.operator, case.domain, n) == (float(sv[-1]), float(sv[0]))
        if not invertible:
            with pytest.raises(SingularSectionError):
                fsm_solve(case.operator, rhs, case.domain, n)
            return
        u = fsm_solve(case.operator, rhs, case.domain, n)
    assert _parts_equal(u.entries, expected.entries)


# ---------------------------------------------------------------------------
# sparse sigma route, forced onto small windows
# ---------------------------------------------------------------------------


def laplace_operator(diagonal):
    """5-point operator on Z^2: a period-[2,2] diagonal, -1 on the four neighbours."""
    table = dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], diagonal))
    rules = {(0, 0): periodic_rule((2, 2), table)}
    rules.update({d: -1 for d in ((1, 0), (-1, 0), (0, 1), (0, -1))})
    return BandDiagonals.from_rules(2, rules)


def complex_band_operator(rng, width):
    """1-D band operator: random complex constants off the diagonal, a dominant period-2 diagonal."""
    rules = {
        k: complex(*rng.normal(size=2)) for k in range(-width, width + 1) if k != 0
    }
    diagonal = {(r,): 2 * width + 1 + complex(*rng.normal(size=2)) for r in range(2)}
    rules[0] = periodic_rule((2,), diagonal)
    return BandDiagonals.from_rules(1, rules)


def dense_extremes(operator, domain, n):
    sv = singular_values(fsm_section(operator, domain, n).data)
    return float(sv[-1]), float(sv[0])


@pytest.fixture
def sparse_everywhere(monkeypatch):
    """Route every window to the sparse kernel; yields the kernel's results."""
    results = []
    kernel = fsm.sparse_extremes

    def recording(*args):
        results.append(kernel(*args))
        return results[-1]

    monkeypatch.setattr(fsm, "SPARSE_MIN_POINTS", 0)
    monkeypatch.setattr(fsm, "sparse_extremes", recording)
    # one free core: scans run serially, in this process, where the calls are recorded
    monkeypatch.setattr(linalg, "_free_cores", lambda: 1)
    return results


@pytest.fixture
def factor_dtypes(monkeypatch):
    """dtypes of the matrices the sparse kernel hands to SuperLU, in call order."""
    import scipy.sparse.linalg

    dtypes = []
    splu = scipy.sparse.linalg.splu

    def recording(matrix, *args, **kwargs):
        dtypes.append(matrix.dtype)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return dtypes


def test_sparse_route_matches_dense(
    sparse_everywhere, factor_dtypes, interval, square, worked_case, worked_prime_case
):
    # real windows factor in float64, any with a complex value in complex128
    rng = np.random.default_rng(11)
    cases = [
        (worked_case.operator, interval, range(1, 61), np.float64),
        (worked_prime_case.operator, interval, range(1, 61), np.float64),
        *(
            (random_band_operator(rng, width=int(rng.integers(1, 4))), interval,
             range(1, 31), np.float64)
            for _ in range(5)
        ),
        (laplace_operator([4, 4, 4, 4]), square, range(1, 11), np.float64),
        (laplace_operator([4, 4.25, 4.5, 5]), square, range(1, 11), np.float64),
        *(
            (complex_band_operator(rng, width), interval, range(1, 31), np.complex128)
            for width in (1, 2, 3)
        ),
        (
            BandDiagonals.from_rules(
                2, {(0, 0): 5, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): 0.5j}
            ),
            square,
            range(1, 11),
            np.complex128,
        ),
    ]
    for operator, domain, ns, dtype in cases:
        del factor_dtypes[:]
        for n in ns:
            smin, smax = section_extremes(operator, domain, n)
            dmin, dmax = dense_extremes(operator, domain, n)
            assert smin == pytest.approx(dmin, rel=1e-12)
            assert smax == pytest.approx(dmax, rel=1e-12)
            assert linalg.invertible(smin, smax, TAU_REL_DEFAULT) == linalg.invertible(
                dmin, dmax, TAU_REL_DEFAULT
            )
        assert factor_dtypes and set(factor_dtypes) == {np.dtype(dtype)}
    kept = [r for r in sparse_everywhere if r is not None]
    assert len(kept) > 150  # most windows really took the sparse route


def test_sparse_route_matches_exact_oracle(sparse_everywhere, interval, square):
    # worked_Aprime n = 4 tiles three corner blocks; the Laplace n = 1 window
    # is the 3 x 3 grid Laplacian with diagonal 4
    for operator, domain, n in (
        (build_example("worked_Aprime").operator, interval, 4),
        (laplace_operator([4, 4, 4, 4]), square, 1),
    ):
        exact = singular_value_extremes(fsm_section(operator, domain, n).data.real)
        assert section_extremes(operator, domain, n) == pytest.approx(exact, rel=1e-12)
    assert all(r is not None for r in sparse_everywhere)


def test_singular_window_falls_back_to_dense(sparse_everywhere, worked_case, interval):
    # every worked_A window has a zero row or column: the LU is exactly singular
    assert section_extremes(worked_case.operator, interval, 5) == dense_extremes(
        worked_case.operator, interval, 5
    )
    assert sparse_everywhere == [None]


@pytest.mark.parametrize("failure", ["arpack-error", "nan"])
def test_lanczos_failure_falls_back_to_dense(failure, monkeypatch, square):
    import scipy.sparse.linalg

    calls = []

    def failing(*args, **kwargs):
        calls.append(failure)
        if failure == "arpack-error":
            raise scipy.sparse.linalg.ArpackError(-9999)
        return np.array([np.nan])

    operator = laplace_operator([4, 4.25, 4.5, 5])
    n = 11  # 529 points: the sparse route's own size, not a forced one
    assert len(lattice_section(square, n)) >= fsm.SPARSE_MIN_POINTS
    expected = dense_extremes(operator, square, n)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
    got = section_extremes(operator, square, n)
    assert calls  # Lanczos ran and failed
    assert [v.hex() for v in got] == [v.hex() for v in expected]
    assert linalg.invertible(*got, TAU_REL_DEFAULT) == linalg.invertible(
        *expected, TAU_REL_DEFAULT
    )


def test_near_threshold_window_takes_dense_path(
    sparse_everywhere, factor_dtypes, monkeypatch, interval
):
    # sigma_min = 5e-10 is invertible at tau = 1e-10 but within the fallback
    # factor; the real window's float64 result is discarded like a complex one
    dense_calls = []

    def counting(matrix):
        dense_calls.append(matrix.shape)
        return singular_values(matrix)

    monkeypatch.setattr(fsm, "singular_values", counting)
    operator = BandDiagonals.from_rules(
        1, {0: TableRule.from_mapping({0: 5e-10}, default=1)}
    )
    smin, smax = section_extremes(operator, interval, 3)
    assert factor_dtypes == [np.float64]
    assert sparse_everywhere[0] is not None
    assert sparse_everywhere[0][0] == pytest.approx(5e-10, rel=1e-9)
    assert dense_calls == [(7, 7)]
    assert (smin, smax) == dense_extremes(operator, interval, 3)
    assert linalg.invertible(smin, smax, TAU_REL_DEFAULT)


def solved_windows(operator, domain, ns):
    """Per n, whether fsm_solve solves window n; asserts the scan records the same."""
    origin = (0,) * operator.dimension
    b = SupportedVector.from_entries(operator.dimension, {origin: 1})
    solved = []
    for n in ns:
        try:
            fsm_solve(operator, b, domain, n)
        except SingularSectionError:
            solved.append(False)
        else:
            solved.append(True)
    report = stability_scan(operator, domain, ns)
    assert solved == [rec.invertible for rec in report.records]
    return solved


@pytest.mark.parametrize("case_id", EXAMPLE_IDS)
def test_solve_refuses_exactly_the_windows_the_scan_records_singular(case_id):
    case = build_example(case_id)
    solved_windows(case.operator, case.domain, range(1, 13))


def test_sparse_solve_refuses_exactly_the_windows_the_sparse_scan_does(
    sparse_everywhere, square
):
    # diagonal 2 puts the eigenvalue 2 - 4 cos(pi/3) = 0 in every window n = 2 (mod 3)
    solved = solved_windows(laplace_operator([2, 2, 2, 2]), square, range(1, 13))
    assert solved == [n % 3 != 2 for n in range(1, 13)]
    assert len(sparse_everywhere) == 2 * 12  # the solves took the scan's route
    assert any(r is not None for r in sparse_everywhere)


@pytest.mark.parametrize(
    "case_id, domain_id",
    [("blockdiag", None), ("rarosi", None), ("sierror", None), ("diamond", None),
     ("rarosi", "diamond"), ("sierror", "diamond"), ("diamond", "diamond")],
)
def test_adjacency_solve_moves_only_the_support_as_the_window_swap_does(case_id, domain_id):
    rng = np.random.default_rng(7)
    probe = build_example(case_id, 1)
    domain = builtin_domain(domain_id) if domain_id else probe.domain
    case = build_example(case_id, minimal_bound(case_id, domain.enclosing_radius(11)))
    past_int64 = (2**63,) * domain.dimension

    def unreached(*args, **kwargs):
        raise AssertionError("the adjacency solve built a window")

    for n in range(1, 12):
        # entries inside window n and just outside it, with -0.0 parts
        points = lattice_section(domain, n + 1).points
        picked = rng.choice(len(points), size=min(len(points), 6), replace=False)
        parts = rng.choice(RHS_PARTS, size=(len(picked), 2))
        entries = {points[k]: complex(*v) for k, v in zip(picked, parts)}
        rhs = SupportedVector.from_entries(domain.dimension, {**entries, past_int64: 1})
        try:
            expected = window_swap_solve(case.operator, rhs, domain, n)
        except SingularSectionError as exc:
            expected = str(exc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fsm, "lattice_section", unreached)
            try:
                u = fsm_solve(case.operator, rhs, domain, n)
            except SingularSectionError as exc:
                assert str(exc) == expected
                continue
        assert _parts_equal(u.entries, expected.entries)


# ---------------------------------------------------------------------------
# adjacency criterion
# ---------------------------------------------------------------------------


def test_sierror_criterion_values():
    case = build_example("sierror", 3)
    assert adjacency_section_invertible(case.operator, case.domain, 4) is False
    assert adjacency_section_invertible(case.operator, case.domain, 5) is True


def test_diamond_criterion_depends_on_geometry():
    case = build_example("diamond", 12)
    diamond = builtin_domain("diamond")
    for n in range(1, 11):
        assert adjacency_section_invertible(case.operator, case.domain, n) is False
        assert adjacency_section_invertible(case.operator, diamond, n) is True


def test_criterion_requires_enough_coverage():
    case = build_example("sierror", 2)  # coverage radius 8
    with pytest.raises(GeneratorBoundError):
        adjacency_section_invertible(case.operator, case.domain, 9)


def test_adjacency_graph_on_a_domain_of_another_dimension_refused_by_name(interval):
    graph = build_example("sierror", 3).operator
    with pytest.raises(ValueError, match="^2-D points cannot lie in a 1-D domain$"):
        fsm.section_extremes(graph, interval, 2)


@pytest.mark.parametrize("n", [0, -2])
def test_adjacency_cut_offs_below_1_refused_as_band_ones_are(n, square):
    case = build_example("sierror", 3)
    rhs = SupportedVector(2, {(0, 0): 1.0})
    for call in (
        lambda: inverse_norm(case.operator, square, n),
        lambda: adjacency_section_invertible(case.operator, square, n),
        lambda: stability_scan(case.operator, square, [n, 1]),
        lambda: fsm_solve(case.operator, rhs, square, n),
        lambda: fsm_solve(case.operator, SupportedVector(2, {}), square, n),
        lambda: inverse_norm(identity_operator(2), square, n),
    ):
        with pytest.raises(ValueError, match="n must be >= 1"):
            call()


def test_criterion_agrees_with_numeric_involution(interval):
    # wherever the criterion holds, the section squares to the identity and
    # the inverse norm is exactly 1
    case = build_example("blockdiag", 12)
    for n in range(1, 16):
        ok = adjacency_section_invertible(case.operator, interval, n)
        smin, smax = section_extremes(case.operator, interval, n)
        assert ok == (smin > 1e-10 * max(smax, 1.0))
        if ok:
            dense = fsm_section(case.operator, interval, n).data
            assert np.allclose(dense @ dense, np.eye(dense.shape[0]), atol=1e-9)
            assert inverse_norm(case.operator, interval, n) == pytest.approx(
                1.0, abs=1e-9
            )


# ---------------------------------------------------------------------------
# classify_subsequences
# ---------------------------------------------------------------------------


def test_classify_blockdiag_even_odd(interval):
    case = build_example("blockdiag", 22)
    report = stability_scan(case.operator, interval, range(1, 41))
    verdicts = classify_subsequences(report, 2)
    assert verdicts == {0: VERDICT_STABLE, 1: VERDICT_SINGULAR}


def test_classify_preconditioned_mod3(worked_prime_case, interval):
    report = stability_scan(worked_prime_case.operator, interval, range(1, 41))
    smin_d, _ = singular_value_extremes(D_INT)
    cap = 10.0 / smin_d
    verdicts = classify_subsequences(report, 3, norm_cap=cap)
    assert verdicts[1] == VERDICT_STABLE
    assert verdicts[0] != VERDICT_STABLE
    assert verdicts[2] != VERDICT_STABLE
    # class 1's inverse norm is 1.8019... at every n, so a cap of 1.5 trips it
    assert classify_subsequences(report, 3, norm_cap=1.5)[1] == VERDICT_NORM_CAP


def test_classify_identity_all_stable(interval):
    report = stability_scan(identity_operator(), interval, range(1, 10))
    for modulus in (1, 2, 3):
        verdicts = classify_subsequences(report, modulus)
        assert set(verdicts.values()) == {VERDICT_STABLE}


def test_classify_needs_three_per_class(interval):
    report = stability_scan(identity_operator(), interval, range(1, 6))
    with pytest.raises(InsufficientDataError, match=re.escape("classes [0] mod 2 scanned")):
        classify_subsequences(report, 2)


@pytest.mark.parametrize(
    "modulus, named",
    [(10, "residue classes [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] mod 10"),
     (11, "residue classes [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] (11 in all, the first 10 shown) mod 11"),
     (10**6, "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] (1000000 in all, the first 10 shown) mod 1000000")],
)
def test_classify_names_at_most_ten_short_classes(modulus, named, interval):
    # a class per residue used to be bucketed and listed, whatever the modulus
    report = stability_scan(identity_operator(), interval, range(1, 10))
    with pytest.raises(InsufficientDataError) as refused:
        classify_subsequences(report, modulus)
    assert named in str(refused.value) and len(str(refused.value)) < 200


# ---------------------------------------------------------------------------
# componentwise convergence on a stable class
# ---------------------------------------------------------------------------


def test_stable_class_solutions_converge_componentwise(interval):
    # blockdiag, even windows: solutions of the truncated systems settle
    # entry by entry as the window grows
    case = build_example("blockdiag", 30)
    b = SupportedVector.from_entries(
        1, {k: 2.0 ** (-abs(k)) for k in range(-20, 21)}
    )
    solutions = [fsm_solve(case.operator, b, interval, n) for n in (10, 14, 18, 22)]
    for point in [(-3,), (0,), (5,)]:
        values = [u.get(point) for u in solutions]
        diffs = [abs(a - b) for a, b in zip(values, values[1:])]
        assert all(d <= 1e-12 for d in diffs)
