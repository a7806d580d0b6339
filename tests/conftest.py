import contextlib
import ctypes
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from finsec import (
    BandDiagonals,
    TableRule,
    build_example,
    builtin_domain,
)


@pytest.fixture(scope="session")
def interval():
    return builtin_domain("interval")


@pytest.fixture(scope="session")
def square():
    return builtin_domain("square")


@pytest.fixture(scope="session")
def diamond_domain():
    return builtin_domain("diamond")


@pytest.fixture(scope="session")
def worked_case():
    return build_example("worked_A")


@pytest.fixture(scope="session")
def worked_prime_case():
    return build_example("worked_Aprime")


def periodic_rule(period, table) -> TableRule:
    """The rule of row-periodic coefficients: `table`'s keys read modulo `period`."""
    return TableRule.from_mapping(table, dimension=len(period), period=period)


def random_band_operator(rng: np.random.Generator, width: int) -> BandDiagonals:
    """1-D band operator with random small-integer coefficient rules."""
    rules = {}
    for offset in range(-width, width + 1):
        kind = rng.integers(0, 3)
        if kind == 0:
            rules[offset] = int(rng.integers(-3, 4))
        elif kind == 1:
            period = int(rng.integers(1, 4))
            table = {
                (r,): int(rng.integers(-3, 4)) for r in range(period)
            }
            rules[offset] = periodic_rule((period,), table)
        else:
            table = {
                (int(k),): int(rng.integers(-3, 4))
                for k in rng.integers(-5, 6, size=3)
            }
            rules[offset] = TableRule.from_mapping(table, default=0, dimension=1)
    # keep at least one nonzero diagonal so the operator is not trivial
    rules[0] = int(rng.integers(1, 4))
    return BandDiagonals.from_rules(1, rules)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools that scans and studies start, in order."""
    import concurrent.futures

    started = []
    executor = concurrent.futures.ProcessPoolExecutor

    def recording(workers, **kwargs):
        started.append(workers)
        return executor(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return started


def _bundled_openblas():
    """(get, set) of the thread count of numpy's and scipy's bundled OpenBLAS, where found."""
    calls = []
    for package, suffix in (("numpy", "64_"), ("scipy", "")):
        libs = Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        for path in libs.glob("libscipy_openblas*.so"):
            lib = ctypes.CDLL(str(path))
            try:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:  # another build: left as it is
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            calls.append((get, set_))
    return calls


@contextlib.contextmanager
def one_blas_thread():
    """Bundled OpenBLAS on one thread, as linalg._free_cores assumes of the workers of a
    pooled scan or study; a test that patches it leaves BLAS on every core otherwise."""
    calls = _bundled_openblas()
    before = [get() for get, _ in calls]
    try:
        for _, set_ in calls:
            set_(1)
        yield
    finally:
        for (_, set_), threads in zip(calls, before):
            set_(threads)


@pytest.fixture
def one_blas():
    """One bundled OpenBLAS thread for the whole test, for tests that fork a study pool."""
    with one_blas_thread():
        yield
