import numpy as np
import pytest

from finsec import (
    BandDiagonals,
    PeriodicRule,
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
            rules[offset] = PeriodicRule.from_mapping((period,), table)
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
