import dataclasses
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
)
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
    assert case.operator.apply(e0) == e0


def test_geometric_rhs_tail_decays(worked_case):
    b = worked_case.rhs(lattice_section(worked_case.domain, 40))
    for n in range(1, 20):
        tail = b.norm_outside(worked_case.domain, n)
        assert tail <= 2.0**-n
        # two-sided: the exact tail is 2^-n * sqrt(2/3) up to the cut radius
        assert tail >= 2.0**-n * math.sqrt(2.0 / 3.0) * 0.99


def test_edge_families_first_members():
    assert build_example("rarosi", 2).operator.edges == (
        ((-1, 1), (0, 1)),
        ((1, 4), (2, 4)),
    )
    assert build_example("sierror", 2).operator.edges == (
        ((0, 1), (0, 2)),
        ((2, 4), (2, 5)),
    )
    assert build_example("diamond", 2).operator.edges == (
        ((1, 1), (2, 0)),
        ((2, 1), (3, 0)),
    )


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


def test_coverage_guard():
    case = build_example("sierror", 3)  # coverage radius 15
    with pytest.raises(GeneratorBoundError):
        expected_outcomes(case, 16)


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


def run_checks(case, n_max, invertible, inverse_norm=1.0):
    """Run a case's checks on a fabricated scan with the given verdict per n = 1.."""
    records = tuple(
        StabilityRecord(
            n=n,
            invertible=inv,
            inverse_norm=inverse_norm if inv else None,
            sigma_min=1.0 if inv else 0.0,
            sigma_max=1.0,
        )
        for n, inv in enumerate(invertible, start=1)
    )
    report = StabilityReport("fabricated", "fabricated", 1e-10, records)
    results = [check(case, n_max, lambda: report) for check in case.expectations]
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
    results = run_checks(build_example("rarosi", 4), 9, [True, False])
    assert results["inverse-norm-one"] == (False, "a section was singular")
    assert results["criterion-true-everywhere"] == (
        True,
        "no edge separated for n <= 9",
    )


def test_failing_sierror_disagreement():
    results = run_checks(build_example("sierror", 4), 9, [True] * 9)
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
    # on 1-norm windows the box-domain claim fails at every n
    case = dataclasses.replace(
        build_example("diamond", 12), domain=builtin_domain("diamond")
    )
    results = run_checks(case, 9, [])
    assert results == {
        "separated-on-box-domain": (
            False,
            "no separation at n=[1, 2, 3, 4, 5, 6, 7, 8, 9]",
        ),
        "stable-on-diamond-domain": (True, "diamond windows never separate"),
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
