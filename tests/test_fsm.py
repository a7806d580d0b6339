import math

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
    PeriodicRule,
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
    stability_scan,
)
from finsec import fsm, linalg
from finsec.fsm import VERDICT_SINGULAR, VERDICT_STABLE, section_extremes
from finsec.linalg import TAU_REL_DEFAULT, singular_values
from conftest import random_band_operator
from oracles import identity_operator, singular_value_extremes

D_INT = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]


# ---------------------------------------------------------------------------
# fsm_solve
# ---------------------------------------------------------------------------


def test_identity_solve_restricts_rhs(interval):
    b = SupportedVector.from_entries(1, {-5: 1.0, 0: 2.0, 1: 3.0})
    u = fsm_solve(identity_operator(), b, interval, 2)
    assert u == SupportedVector.from_entries(1, {0: 2.0, 1: 3.0})


def test_shift_sections_never_solve(interval):
    b = SupportedVector.from_entries(1, {0: 1})
    for n in (1, 4, 9):
        with pytest.raises(SingularSectionError):
            fsm_solve(Shift.by(1), b, interval, n)


def test_blockdiag_even_solve_swaps(interval):
    case = build_example("blockdiag", 6)
    u = fsm_solve(case.operator, SupportedVector.from_entries(1, {1: 1}), interval, 4)
    assert u == SupportedVector.from_entries(1, {2: 1})


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
    """Bitwise equality of two solutions, except the sign of a zero real part
    beside a negative imaginary part of v: the dense solve's BLAS kernels set
    it by the entry's place (the 3 x 3 identity turns 0 - 1.5i into -0 - 1.5i
    at two of its three places), and the closed form gives +0 there."""
    if u.keys() != v.keys():
        return False
    for p, z in u.items():
        w = v[p]
        if z != w or math.copysign(1, z.imag) != math.copysign(1, w.imag):
            return False
        if math.copysign(1, z.real) != math.copysign(1, w.real) and not (
            w.real == 0 and w.imag < 0 and math.copysign(1, z.real) == 1
        ):
            return False
    return True


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
        x = np.linalg.solve(window.data, rhs.to_array(window.rows))
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
    rules = {(0, 0): PeriodicRule.from_mapping((2, 2), table)}
    rules.update({d: -1 for d in ((1, 0), (-1, 0), (0, 1), (0, -1))})
    return BandDiagonals.from_rules(2, rules)


def complex_band_operator(rng, width):
    """1-D band operator: random complex constants off the diagonal, a dominant period-2 diagonal."""
    rules = {
        k: complex(*rng.normal(size=2)) for k in range(-width, width + 1) if k != 0
    }
    diagonal = {(r,): 2 * width + 1 + complex(*rng.normal(size=2)) for r in range(2)}
    rules[0] = PeriodicRule.from_mapping((2,), diagonal)
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


def test_classify_identity_all_stable(interval):
    report = stability_scan(identity_operator(), interval, range(1, 10))
    for modulus in (1, 2, 3):
        verdicts = classify_subsequences(report, modulus)
        assert set(verdicts.values()) == {VERDICT_STABLE}


def test_classify_needs_three_per_class(interval):
    report = stability_scan(identity_operator(), interval, range(1, 6))
    with pytest.raises(InsufficientDataError):
        classify_subsequences(report, 2)


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
