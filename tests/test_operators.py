import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsec import (
    BUILTIN_DOMAINS,
    AdjacencyGraph,
    BandDiagonals,
    ConstantRule,
    GeneratorBoundError,
    IndexSet,
    PeriodicRule,
    Shift,
    SupportedVector,
    TableRule,
    build_example,
    builtin_domain,
    compose_shift,
    lattice_section,
)
from finsec.operators import euclidean_norm
from conftest import random_band_operator
from oracles import identity_operator

BLOCK_B = ((1, 1, 0), (1, 0, 0), (0, 0, 0))
BLOCK_C = ((0, 0, 0), (0, 0, 0), (1, 1, 1))


def window_matrix(op, radius):
    return np.array(
        [
            [op.entry((i,), (j,)) for j in range(-radius, radius + 1)]
            for i in range(-radius, radius + 1)
        ]
    )


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def test_shift_entries():
    v = Shift.by(1)
    assert v.entry(1, 0) == 1
    assert v.entry(0, 0) == 0
    assert v.entry(0, -1) == 1


def test_blockdiag_center_entry():
    case = build_example("blockdiag", 5)
    assert case.operator.entry(0, 0) == 1  # the lone fixed vertex
    assert case.operator.entry(1, 2) == 1
    assert case.operator.entry(1, 1) == 0


def test_worked_operator_block_placement(worked_case):
    a = worked_case.operator
    assert a.entry(-1, -1) == 1
    assert a.entry(-1, 1) == 0
    window = window_matrix(a, 1).real
    assert np.array_equal(window, np.array(BLOCK_B))


def test_block_periodic_row_with_coupling(worked_case):
    # row 1 closes block row 0: zero B row, then the ones of the C coupling
    a = worked_case.operator
    assert [a.entry(1, j) for j in range(-1, 8)] == [
        0, 0, 0, 1, 1, 1, 0, 0, 0
    ]
    # row 2 opens block row 1 with the top row of B
    assert [a.entry(2, j) for j in range(-1, 8)] == [
        0, 0, 0, 1, 1, 0, 0, 0, 0
    ]


# ---------------------------------------------------------------------------
# band_width
# ---------------------------------------------------------------------------


def test_band_widths(worked_case):
    assert Shift.by(1).band_width() == 1
    assert worked_case.operator.band_width() == 3
    assert build_example("blockdiag", 4).operator.band_width() == 1
    assert identity_operator().band_width() == 0


def test_adjacency_entry_beyond_coverage_raises():
    graph = build_example("diamond", 5).operator  # coverage radius 5
    with pytest.raises(GeneratorBoundError, match=r"column \(7, 1\) needs .* radius 7"):
        graph.entry((7, 1), (7, 1))
    with pytest.raises(GeneratorBoundError, match=r"column \(2, -6\)"):
        graph.apply(SupportedVector.from_entries(2, {(0, 0): 1, (2, -6): 1}))
    # a row past the radius is exact when its column is covered: the edge
    # {(5, 1), (6, 0)} is the last one generated, and the matrix is symmetric
    assert graph.entry((6, 0), (5, 1)) == 1
    assert graph.entry((6, 1), (5, 1)) == 0
    assert graph.apply(SupportedVector.from_entries(2, {(5, 1): 2})) == (
        SupportedVector.from_entries(2, {(6, 0): 2})
    )


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_shift_moves_delta():
    u = SupportedVector.from_entries(1, {0: 1})
    assert Shift.by(1).apply(u) == SupportedVector.from_entries(1, {1: 1})


def test_adjacency_swaps_endpoints():
    g = AdjacencyGraph.from_edges(1, [((1,), (2,))])
    e0, e1, e2 = (SupportedVector.from_entries(1, {k: 1}) for k in range(3))
    assert g.apply(e1) == e2
    assert g.apply(e0) == e0


def test_identity_applies_as_identity():
    u = SupportedVector.from_entries(1, {0: 2.5, 3: -1j, -4: 0.25})
    assert identity_operator().apply(u) == u


# ---------------------------------------------------------------------------
# compose_shift
# ---------------------------------------------------------------------------


def test_compose_shift_matches_row_shift(worked_case):
    ap = compose_shift(worked_case.operator, 1)
    assert ap.entry(0, -1) == 1
    assert ap.entry(0, 0) == 1
    assert ap.entry(0, 1) == 0


def test_compose_zero_shift_is_same_operator(worked_case):
    assert compose_shift(worked_case.operator, 0) is worked_case.operator


def test_compose_shift_inverts_shift():
    combined = compose_shift(Shift.by(1), -1)
    window = window_matrix(combined, 4)
    assert np.array_equal(window, np.eye(9))


def test_from_rules_rejects_duplicate_offsets():
    # 1 and (1,) name the same diagonal; keeping both would make entry()
    # and assemble() disagree with apply(), which sums them
    with pytest.raises(ValueError, match="twice"):
        BandDiagonals.from_rules(1, {1: ConstantRule(2), (1,): ConstantRule(3)})


def test_compose_shift_rejects_adjacency():
    with pytest.raises(ValueError, match="adjacency"):
        compose_shift(build_example("blockdiag", 4).operator, 1)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def disjoint_edges(draw):
    verts = draw(
        st.lists(
            st.integers(min_value=-30, max_value=30), unique=True, min_size=2, max_size=12
        )
    )
    if len(verts) % 2:
        verts = verts[:-1]
    return [((verts[k],), (verts[k + 1],)) for k in range(0, len(verts), 2)]


@st.composite
def vectors(draw):
    entries = draw(
        st.dictionaries(
            st.integers(min_value=-30, max_value=30),
            st.complex_numbers(
                min_magnitude=0.01, max_magnitude=8, allow_nan=False, allow_infinity=False
            ),
            max_size=8,
        )
    )
    return SupportedVector.from_entries(1, entries)


@given(disjoint_edges(), vectors())
@settings(max_examples=60, deadline=None)
def test_adjacency_involution_and_isometry(edges, u):
    g = AdjacencyGraph.from_edges(1, edges)
    once = g.apply(u)
    assert g.apply(once) == u  # swapping twice restores exactly
    assert once.norm() == pytest.approx(u.norm(), abs=1e-12)


@given(st.integers(min_value=0, max_value=9), vectors())
@settings(max_examples=40, deadline=None)
def test_entry_apply_consistency(seed, u):
    rng = np.random.default_rng(seed)
    a = random_band_operator(rng, width=int(rng.integers(1, 4)))
    result = a.apply(u)
    lo = min((p[0] for p in u.support()), default=0) - a.band_width()
    hi = max((p[0] for p in u.support()), default=0) + a.band_width()
    for i in range(lo, hi + 1):
        direct = sum(a.entry((i,), p) * u.entries[p] for p in u.support())
        assert result.get(i) == pytest.approx(direct, abs=1e-12)


@given(st.integers(min_value=0, max_value=19), st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_compose_shift_reindexes_rows(seed, step):
    # covers the re-indexing of constant, periodic and table rules
    rng = np.random.default_rng(seed)
    a = random_band_operator(rng, width=int(rng.integers(1, 4)))
    composed = compose_shift(a, step)
    for i in range(-9, 10):
        for j in range(-9, 10):
            assert composed.entry(i, j) == a.entry(i - step, j)


@given(st.integers(min_value=0, max_value=19))
@settings(max_examples=20, deadline=None)
def test_band_locality(seed):
    rng = np.random.default_rng(seed)
    a = random_band_operator(rng, width=int(rng.integers(1, 5)))
    w = a.band_width()
    for i in range(-6, 7):
        for j in range(-6, 7):
            if abs(i - j) > w:
                assert a.entry((i,), (j,)) == 0


# ---------------------------------------------------------------------------
# values_at and to_array on point arrays
# ---------------------------------------------------------------------------


def bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def rule_cases():
    periodic_2d = PeriodicRule.from_mapping(
        (2, 3), {(0, 0): 4, (1, 2): -0.0 + 1j, (1, 1): 0.5 - 2j}
    )
    table_2d = TableRule.from_mapping(
        {(0, 0): -2, (1, -1): 0.5 + 1j}, default=-1, dimension=2
    )
    rules = {
        "constant": (1, ConstantRule(2.5 - 1j)),
        "constant-negzero": (1, ConstantRule(-0.0)),
        "periodic": (1, PeriodicRule.from_mapping((3,), {0: 1, 2: -0.0 - 0j})),
        "table": (1, TableRule.from_mapping({-2: 3, 0: 1j, 5: -0.0}, default=0.25)),
        "periodic-2d": (2, periodic_2d),
        "table-2d": (2, table_2d),
        "constant-2d": (2, ConstantRule(1)),
        # a key past int64 meets no point of an int64 array
        "table-past-int64": (1, TableRule.from_mapping({2**63: 5, 2**63 - 2: 2, -2: 1.5}, -0.5)),
        "table-empty": (1, TableRule.from_mapping({}, default=2 - 1j)),
        # keys too far apart for one int64 key box over their coordinates
        "table-2d-far": (
            2,
            TableRule.from_mapping(
                {(-(2**62), 2**62): 1, (0, 1): -1j, (2**62, -(2**62)): 3}, dimension=2
            ),
        ),
    }
    for name, (dim, rule) in list(rules.items()):
        rules[f"shifted-{name}"] = (dim, rule.shifted((3,) * dim))
    rules["shifted-periodic-2d-mixed"] = (2, periodic_2d.shifted((-1, 2)))
    rules["shifted-table-2d-mixed"] = (2, table_2d.shifted((1, -1)))
    return [pytest.param(dim, rule, id=name) for name, (dim, rule) in rules.items()]


@pytest.mark.parametrize("dim, rule", rule_cases())
def test_values_at_is_bitwise_value_at(dim, rule):
    grid = itertools.product(range(-7, 8), repeat=dim)
    points = np.array(list(grid), dtype=np.int64)
    expected = [rule.value_at(tuple(p)) for p in points.tolist()]
    assert bits(rule.values_at(points)) == bits(expected)
    assert rule.values_at(points[:0]).shape == (0,)


def test_values_at_of_random_band_rules():
    points = np.arange(-20, 21, dtype=np.int64).reshape(-1, 1)
    for seed in range(10):
        a = random_band_operator(np.random.default_rng(seed), width=3)
        for _, rule in a.diagonals:
            expected = [rule.value_at(tuple(p)) for p in points.tolist()]
            assert bits(rule.values_at(points)) == bits(expected)


def test_values_at_of_periods_past_any_dense_table():
    rule = PeriodicRule.from_mapping((2**40, 2**40), {(3, 2**40 - 1): 2j})
    points = np.array([[3, -1], [2**40 + 3, 2**41 - 1], [0, 0]], dtype=np.int64)
    assert bits(rule.values_at(points)) == bits([2j, 2j, 0j])
    with pytest.raises(ValueError, match="fit int64"):
        PeriodicRule.from_mapping((2**63,), {0: 1})


@given(
    st.integers(min_value=1, max_value=3),
    st.dictionaries(
        st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3),
        st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_to_array_matches_entrywise_fill(dim, raw):
    entries = {tuple(k[:dim]): v for k, v in raw.items()}
    u = SupportedVector.from_entries(dim, entries)
    window = IndexSet.from_array(dim, list(itertools.product(range(-3, 4), repeat=dim)))
    positions = {p: k for k, p in enumerate(window.points)}
    expected = np.zeros(len(window), dtype=complex)
    for p, v in u.entries.items():
        if p in positions:
            expected[positions[p]] = v
    assert bits(u.to_array(window)) == bits(expected)


def test_to_array_ignores_entries_past_int64():
    u = SupportedVector.from_entries(1, {0: 1, 10**23: 2, -(10**30): 3})
    window = IndexSet.from_array(1, [(k,) for k in range(-2, 3)])
    assert u.to_array(window).tolist() == [0, 0, 1, 0, 0]


def restrict_by_dict(u, index_set):
    """The per-entry dict lookup that restrict replaced, kept as the reference."""
    positions = {p: k for k, p in enumerate(index_set.points)}
    kept = {p: v for p, v in u.entries.items() if p in positions}
    return SupportedVector(u.dimension, kept)


@given(
    st.integers(min_value=1, max_value=2),
    st.dictionaries(
        st.tuples(*[st.integers(-4, 4)] * 2),
        st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
        max_size=16,
    ),
    st.lists(st.tuples(*[st.integers(-3, 3)] * 2), max_size=20),
    st.integers(min_value=0, max_value=16),
)
@settings(max_examples=150, deadline=None)
def test_restrict_matches_dict_lookup(dim, raw, members, far_at):
    items = [(k[:dim], v) for k, v in raw.items()]
    # a point at 2**70 lies in no window, wherever it sits in entry order
    items.insert(min(far_at, len(items)), ((2**70,) + (0,) * (dim - 1), 1.5 - 2j))
    u = SupportedVector.from_entries(dim, dict(items))
    window = IndexSet.from_array(dim, [m[:dim] for m in members])
    got, want = u.restrict(window), restrict_by_dict(u, window)
    # the same entries in the same order, so every norm keeps its bits
    assert list(got.entries.items()) == list(want.entries.items())
    assert got.norm().hex() == want.norm().hex()


def norm_outside_by_window(u, domain, n):
    """The route norm_outside replaced: the norm of the entries off the built window n."""
    window = set(lattice_section(domain, n))
    return euclidean_norm(v for p, v in u.entries.items() if p not in window)


@given(
    st.sampled_from(sorted(BUILTIN_DOMAINS)),
    st.integers(min_value=1, max_value=6),
    st.dictionaries(
        st.tuples(*[st.integers(-9, 9)] * 2),
        st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
        max_size=16,
    ),
    st.integers(min_value=0, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_norm_outside_matches_the_window_route(name, n, raw, far_at):
    domain = builtin_domain(name)
    dim = domain.dimension
    pad = (0,) * (dim - 1)
    items = [(k[:dim], v) for k, v in raw.items()]
    # the points on the axis at +-n: the first sits on the open facet of interval-halfopen
    items += [((n, *pad), 0.5j), ((-n, *pad), 0.25)]
    # points past int64 lie in no window, wherever they sit in entry order
    items.insert(min(far_at, len(items)), ((2**70, *pad), 1.5 - 2j))
    items.insert(min(far_at // 2, len(items)), ((-(2**63) - 1, *pad), -3.0))
    u = SupportedVector.from_entries(dim, dict(items))
    assert u.norm_outside(domain, n) == norm_outside_by_window(u, domain, n)


def from_array_by_loop(index_set, values):
    """The per-entry loop that SupportedVector.from_array replaced, kept as the reference."""
    entries = {
        p: complex(v) for p, v in zip(index_set.points, values) if complex(v) != 0
    }
    return SupportedVector(index_set.dimension, entries)


_PARTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, math.inf, math.nan])


@given(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.one_of(
            st.tuples(_PARTS, _PARTS),
            st.tuples(st.floats(width=64), st.floats(width=64)),
        ),
        max_size=30,
    ),
)
@settings(max_examples=100, deadline=None)
def test_from_array_matches_entry_loop(dim, parts):
    window = IndexSet.from_array(
        dim, list(itertools.islice(itertools.product(range(-2, 3), repeat=dim), len(parts)))
    )
    values = np.array([complex(re, im) for re, im in parts[: len(window)]], dtype=complex)
    got = SupportedVector.from_array(window, values).entries
    want = from_array_by_loop(window, values).entries
    # same keys in the same order, and the same bits for every value
    assert list(got) == list(want)
    assert all(type(v) is complex for v in got.values())
    assert bits(list(got.values())) == bits(list(want.values()))
