import importlib
import math
import pkgutil

import numpy as np
import pytest

from finsec import (
    GeneratorBoundError,
    SupportedVector,
    UnknownExampleError,
    build_example,
    builtin_domain,
    expected_outcomes,
    lattice_section,
    stability_scan,
)
from finsec import fsm
from finsec.catalog import minimal_bound
from finsec.reports import StabilityRecord, StabilityReport

BLOCK_B = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
BLOCK_D = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]], dtype=float)


def entry_window(op, radius=1):
    return np.array(
        [
            [op.entry((i,), (j,)).real for j in range(-radius, radius + 1)]
            for i in range(-radius, radius + 1)
        ]
    )


def test_unknown_id_rejected():
    with pytest.raises(UnknownExampleError):
        build_example("nope")


def test_worked_windows_are_the_corner_blocks(worked_case, worked_prime_case):
    assert np.array_equal(entry_window(worked_case.operator), BLOCK_B)
    assert np.array_equal(entry_window(worked_prime_case.operator), BLOCK_D)


def test_preconditioned_equals_shifted_base(worked_case, worked_prime_case):
    a, ap = worked_case.operator, worked_prime_case.operator
    for i in range(-10, 11):
        for j in range(-10, 11):
            assert ap.entry(i, j) == a.entry(i - 1, j)


def test_blockdiag_fixes_origin():
    case = build_example("blockdiag", 3)
    e0 = SupportedVector.from_entries(1, {0: 1})
    assert case.operator.apply(e0).entries == e0.entries


def test_geometric_rhs_tail_decays(worked_case):
    b = worked_case.rhs(lattice_section(worked_case.domain, 40))
    for n in range(1, 20):
        tail = b.norm_outside(worked_case.domain, n)
        assert tail <= 2.0**-n
        # two-sided: the exact tail is 2^-n * sqrt(2/3) up to the cut radius
        assert tail >= 2.0**-n * math.sqrt(2.0 / 3.0) * 0.99


def test_shifted_geometric_rhs_entries(worked_prime_case):
    # worked_Aprime's built-in right-hand side is 2^-|i - 1|, centred on i = 1
    window = lattice_section(worked_prime_case.domain, 6)
    b = worked_prime_case.rhs(window)
    assert b.entries == {p: 2.0 ** -abs(p[0] - 1) for p in window.points}


def test_edge_families_first_members():
    # rows 2e and 2e + 1 of edge_array are the lesser and greater end of edge e
    def edges(case_id):
        array = build_example(case_id, 2).operator.edge_array
        assert array.dtype == np.int64 and array.shape == (4, 2)
        return array.tolist()

    assert edges("rarosi") == [[-1, 1], [0, 1], [1, 4], [2, 4]]
    assert edges("sierror") == [[0, 1], [0, 2], [2, 4], [2, 5]]
    assert edges("diamond") == [[1, 1], [2, 0], [2, 1], [3, 0]]


# each family's k-th edge as Python tuples, as the generators once yielded them
TUPLE_EDGES = {
    "blockdiag": lambda k: [((2 * k - 1,), (2 * k,)), ((-2 * k,), (-2 * k + 1,))],
    "rarosi": lambda k: [((k * k - k - 1, k * k), (k * k - k, k * k))],
    "sierror": lambda k: [((k * k - k, k * k), (k * k - k, k * k + 1))],
    "diamond": lambda k: [((k, 1), (k + 1, 0))],
}


@pytest.mark.parametrize("case_id", sorted(TUPLE_EDGES))
@pytest.mark.parametrize("bound", [1, 2, 37])
def test_edge_arrays_match_the_sorted_tuple_construction(case_id, bound):
    pairs = [e for k in range(1, bound + 1) for e in TUPLE_EDGES[case_id](k)]
    expected = [end for pair in sorted(tuple(sorted(p)) for p in pairs) for end in pair]
    array = build_example(case_id, bound).operator.edge_array
    assert array.dtype == np.int64
    assert array.tolist() == [list(end) for end in expected]


def test_expected_outcomes_sierror():
    case = build_example("sierror", 12)
    results = expected_outcomes(case, 100)
    assert {r.name for r in results} == {
        "criterion-false-iff-square",
        "criterion-matches-numeric",
    }
    assert all(r.passed for r in results)


def test_expected_outcomes_rarosi():
    results = expected_outcomes(build_example("rarosi", 12), 100)
    assert all(r.passed for r in results)


def test_expected_outcomes_diamond():
    results = expected_outcomes(build_example("diamond", 64), 60)
    assert all(r.passed for r in results)


def test_expected_outcomes_shift_and_blockdiag():
    assert all(r.passed for r in expected_outcomes(build_example("shift"), 40))
    assert all(r.passed for r in expected_outcomes(build_example("blockdiag", 22), 40))


def test_expected_outcomes_worked_pair(worked_case, worked_prime_case):
    assert all(r.passed for r in expected_outcomes(worked_case, 40))
    assert all(r.passed for r in expected_outcomes(worked_prime_case, 40))


def test_expected_outcomes_scans_each_domain_once(monkeypatch):
    # a covering report serves the case's domain; another domain is scanned once
    extremes = fsm.section_extremes
    calls = []

    def counted(operator, domain, n, *args, **kwargs):
        calls.append(n)
        return extremes(operator, domain, n, *args, **kwargs)

    monkeypatch.setattr(fsm, "section_extremes", counted)
    sierror = build_example("sierror", 12)
    report = stability_scan(sierror.operator, sierror.domain, range(1, 101))
    calls.clear()
    assert all(r.passed for r in expected_outcomes(sierror, 100, report))
    assert calls == []
    assert all(r.passed for r in expected_outcomes(sierror, 100))
    assert calls == list(range(1, 101))
    diamond = build_example("diamond", 64)
    report = stability_scan(diamond.operator, diamond.domain, range(1, 61))
    calls.clear()
    assert all(r.passed for r in expected_outcomes(diamond, 60, report))
    assert calls == list(range(1, 61))


def test_coverage_guard():
    case = build_example("sierror", 3)  # coverage radius 15
    with pytest.raises(GeneratorBoundError):
        expected_outcomes(case, 16)


@pytest.mark.parametrize("case_id", ["blockdiag", "rarosi", "sierror", "diamond"])
def test_minimal_bound_covers_the_radius(case_id):
    def coverage(bound):
        return build_example(case_id, bound).operator.coverage_radius

    for radius in (0, 1, 2, 3, 4, 8, 9, 15, 16, 35, 36, 40, 63, 64, 100):
        bound = minimal_bound(case_id, radius)
        assert coverage(bound) >= radius
        # the smallest covering bound, or one above it for the square families
        smallest = bound - 1 if case_id in ("rarosi", "sierror") and radius >= 1 else bound
        assert coverage(smallest) >= radius
        assert smallest == 1 or coverage(smallest - 1) < radius


def test_diamond_stability_depends_on_domain():
    # geometry sensitivity in one picture: same operator, two domains
    case = build_example("diamond", 20)
    diamond = builtin_domain("diamond")
    from finsec import adjacency_section_invertible

    assert all(
        adjacency_section_invertible(case.operator, diamond, n) for n in range(1, 19)
    )
    assert not any(
        adjacency_section_invertible(case.operator, case.domain, n)
        for n in range(1, 19)
    )


def test_worked_case_certificates(worked_case):
    assert worked_case.operator_norm == 3.0
    assert worked_case.inverse_bound == 2.0
    assert worked_case.band_error_bound(2) == pytest.approx(49.0 / 16.0)
    assert worked_case.band_error_bound(20) == pytest.approx(49.0 / 2.0**22)


# ---------------------------------------------------------------------------
# failing expectations: fabricated scans pin every failure detail
# ---------------------------------------------------------------------------


def run_checks(case, n_max, invertible, inverse_norm=1.0, sigma_min=None):
    """Run a case's checks on fabricated scans with the given verdict per n = 1..

    A dict of verdicts maps the name of each scanned domain to the verdicts
    of its scan.  Each record's sigma_min is 1 when invertible and 0 when
    not, unless `sigma_min` fixes it.
    """

    def scan(domain):
        verdicts = invertible[domain.name] if isinstance(invertible, dict) else invertible
        records = tuple(
            StabilityRecord(
                n=n,
                invertible=inv,
                inverse_norm=inverse_norm if inv else None,
                sigma_min=(1.0 if inv else 0.0) if sigma_min is None else sigma_min,
                sigma_max=1.0,
            )
            for n, inv in enumerate(verdicts, start=1)
        )
        return StabilityReport(1e-10, records)

    results = [check(case, n_max, scan) for check in case.expectations]
    return {r.name: (r.passed, r.detail) for r in results}


def test_failing_shift_scan():
    results = run_checks(build_example("shift"), 9, [False, False, True])
    assert results == {"all-sections-singular": (False, "invertible at n=[3]")}


def test_failing_blockdiag_parity_and_norm():
    results = run_checks(
        build_example("blockdiag", 5), 9, [True, False, True, True], inverse_norm=3.0
    )
    assert results == {
        "invertible-iff-even": (False, "parity mismatch at n=[1, 2, 3]"),
        "even-inverse-norm-one": (False, "max |inverse_norm - 1| = 2 over even n"),
    }


def test_failing_rarosi_singular_section():
    # the criterion reads the scan, so a singular window fails it too
    results = run_checks(build_example("rarosi", 4), 9, [True, False])
    assert results == {
        "criterion-true-everywhere": (False, "edge separated at n=[2]"),
        "inverse-norm-one": (False, "a section was singular"),
    }


def test_failing_sierror_disagreement():
    # every window invertible contradicts the criterion at the squares
    results = run_checks(build_example("sierror", 4), 9, [True] * 9)
    assert results == {
        "criterion-false-iff-square": (False, "mismatch at n=[1, 4, 9]"),
        "criterion-matches-numeric": (True, "criterion agrees with sigma_min test"),
    }
    # singular verdicts over sigma_min = 1 contradict the records' own sigma columns
    squares = [math.isqrt(n) ** 2 != n for n in range(1, 10)]
    results = run_checks(build_example("sierror", 4), 9, squares, sigma_min=1.0)
    assert results == {
        "criterion-false-iff-square": (True, "separation happens exactly at squares"),
        "criterion-matches-numeric": (False, "disagreement at n=[1, 4, 9]"),
    }


def test_failing_worked_prime_class_zero():
    verdicts = [n % 3 == 1 or n == 3 for n in range(1, 10)]
    results = run_checks(build_example("worked_Aprime"), 9, verdicts)
    assert results == {
        "matches-shifted-base": (True, "max entry deviation 0 over radius-10 window"),
        "residue-one-stable-constant-norm": (
            True,
            "inverse norm constant to 0 (value ~ 1)",
        ),
        "residues-zero-two-singular": (False, "invertible at n=[3]"),
    }
    verdicts[3] = False  # a singular window in the stable class
    results = run_checks(build_example("worked_Aprime"), 9, verdicts)
    assert results["residue-one-stable-constant-norm"] == (
        False,
        "singular section in class 1",
    )


def test_failing_criterion_on_other_domain():
    # each claim reads the scan of its own domain: the box domain's, where no
    # window separates here, and the diamond domain's, separated at odd n
    verdicts = {"square": [True] * 9, "diamond": [n % 2 == 0 for n in range(1, 10)]}
    results = run_checks(build_example("diamond", 12), 9, verdicts)
    assert results == {
        "separated-on-box-domain": (
            False,
            "no separation at n=[1, 2, 3, 4, 5, 6, 7, 8, 9]",
        ),
        "stable-on-diamond-domain": (False, "edge separated at n=[1, 3, 5, 7, 9]"),
    }


def test_failing_worked_scan_verdicts():
    results = run_checks(build_example("worked_A"), 9, [True] * 9)
    assert results["all-sections-singular"] == (
        False,
        "invertible at n=[1, 2, 3, 4, 5, 6, 7, 8, 9]",
    )
    assert results["no-stable-residue-mod-3"][0] is False
    assert results["rfsm-band-error-bound"] == (True, "errors within certified bound")


def test_every_exported_name_resolves():
    import finsec

    for info in pkgutil.iter_modules(finsec.__path__):
        module = importlib.import_module(f"finsec.{info.name}")
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing: {missing}"
