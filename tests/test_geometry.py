import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finsec import (
    IndexSet,
    OpenFacetError,
    UnboundedDomainError,
    ZeroNotInteriorError,
    boundary_layer,
    builtin_domain,
    lattice_section,
    lattice_section_size,
    validate_domain,
)
from finsec import geometry
from oracles import brute_force_section, in_dilation


def facet_triples(domain):
    return [(f.normal, f.offset, f.closed) for f in domain.facets]


def contains(domain, point, n):
    return bool(domain.contains_array(np.array([point], dtype=np.int64), n)[0])


# ---------------------------------------------------------------------------
# validate_domain
# ---------------------------------------------------------------------------


def test_interval_is_valid():
    dom = validate_domain(vertices=[(-1,), (1,)])
    assert dom.dimension == 1
    assert contains(dom, (0,), 1)
    assert contains(dom, (1,), 1) and not contains(dom, (2,), 1)


def test_zero_on_boundary_rejected():
    with pytest.raises(ZeroNotInteriorError):
        validate_domain(vertices=[(0,), (1,)])


def test_zero_outside_rejected_via_facets():
    with pytest.raises(ZeroNotInteriorError):
        validate_domain(facets=[((1,), 0), ((-1,), 1)])


def test_unbounded_rejected():
    # single half-line x <= 1 in 1-D
    with pytest.raises(UnboundedDomainError):
        validate_domain(facets=[((1,), 1)])
    # 2-D strip |x| <= 1, y free
    with pytest.raises(UnboundedDomainError):
        validate_domain(facets=[((1, 0), 1), ((-1, 0), 1)])


def test_triangle_from_vertices_is_valid():
    tri = validate_domain(vertices=[(0, 2), (2, -2), (-2, -2)])
    assert tri.dimension == 2
    assert contains(tri, (0, 0), 1)
    assert contains(tri, (0, 2), 1)
    assert not contains(tri, (0, 3), 1)
    # all three corners are recovered as vertices of the hull
    corners = {tuple(map(Fraction, v)) for v in [(0, 2), (2, -2), (-2, -2)]}
    assert corners == set(tri.vertices)


def test_rational_facets_accepted_as_strings():
    dom = validate_domain(facets=[(("1/2",), "3/2"), (("-1",), "1")])
    # x <= 3, x >= -1 scaled exactly
    assert contains(dom, (3,), 1) and not contains(dom, (4,), 1)


def test_open_facets_only_in_dimension_one():
    validate_domain(facets=[((1,), 1, False), ((-1,), 1)])
    with pytest.raises(OpenFacetError):
        validate_domain(
            facets=[((1, 0), 1, False), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
        )


def test_float_domain_data_rejected():
    with pytest.raises(ValueError):
        validate_domain(facets=[((0.3,), 1), ((-1,), 1)])


# ---------------------------------------------------------------------------
# lattice_section
# ---------------------------------------------------------------------------


def test_interval_section(interval):
    assert list(lattice_section(interval, 3)) == [(k,) for k in range(-3, 4)]


def test_diamond_section_matches_brute_force(diamond_domain):
    got = list(lattice_section(diamond_domain, 2))
    expected = brute_force_section(facet_triples(diamond_domain), 2, 5)
    assert got == expected
    assert len(got) == 13


def test_halfopen_interval_section():
    dom = builtin_domain("interval-halfopen")
    assert list(lattice_section(dom, 1)) == [(-1,), (0,)]
    assert list(lattice_section(dom, 3)) == [(k,) for k in range(-3, 3)]


@pytest.mark.parametrize("name", ["interval", "square", "diamond", "triangle"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_sections_match_brute_force(name, n):
    dom = builtin_domain(name)
    radius = dom.enclosing_radius(n) + 1
    expected = brute_force_section(facet_triples(dom), n, radius)
    assert list(lattice_section(dom, n)) == expected
    assert lattice_section_size(dom, n) == len(expected)


@pytest.mark.parametrize(
    "name", ["interval", "interval-halfopen", "square", "diamond", "triangle"]
)
def test_section_invariants(name):
    dom = builtin_domain(name)
    zero = (0,) * dom.dimension
    previous = None
    for n in range(1, 13):
        current = set(lattice_section(dom, n))
        assert zero in current
        if previous is not None:
            assert previous <= current  # monotone growth
        previous = current


def test_section_exhausts_lattice(diamond_domain):
    # every point is eventually swallowed; 1-norm ball of radius n is exact
    for point in [(3, 4), (-7, 0), (5, -5)]:
        need = abs(point[0]) + abs(point[1])
        assert lattice_section(diamond_domain, need).locate([point])[0] >= 0
        assert lattice_section(diamond_domain, need - 1).locate([point])[0] == -1


def test_section_requires_positive_n(interval):
    with pytest.raises(ValueError):
        lattice_section(interval, 0)


# ---------------------------------------------------------------------------
# boundary_layer
# ---------------------------------------------------------------------------


def test_interval_boundary(interval):
    assert list(boundary_layer(interval, 3)) == [(-3,), (3,)]


def test_square_boundary_rings(square):
    got2 = set(boundary_layer(square, 2))
    assert got2 == {
        (x, y)
        for x in range(-2, 3)
        for y in range(-2, 3)
        if max(abs(x), abs(y)) == 2
    }
    assert len(got2) == 16
    got1 = set(boundary_layer(square, 1))
    assert got1 == {
        (x, y)
        for x in range(-1, 2)
        for y in range(-1, 2)
        if max(abs(x), abs(y)) == 1
    }
    assert len(got1) == 8


def test_boundary_rejects_open_facets():
    dom = builtin_domain("interval-halfopen")
    with pytest.raises(OpenFacetError):
        boundary_layer(dom, 2)


@pytest.mark.parametrize("name", ["interval", "square", "diamond", "triangle"])
def test_boundary_hugs_both_sides(name):
    # every layer point sits within max-norm distance 1 of the section and
    # of its complement
    dom = builtin_domain(name)
    for n in range(1, 21 if dom.dimension == 1 else 11):
        inside = set(lattice_section(dom, n))
        for z in boundary_layer(dom, n):
            box = [
                tuple(c + d for c, d in zip(z, delta))
                for delta in _neighborhood(dom.dimension)
            ]
            assert any(p in inside for p in box)
            assert any(p not in inside for p in box)


def _neighborhood(dim):
    import itertools

    return list(itertools.product((-1, 0, 1), repeat=dim))


def test_triangle_boundary_matches_slow_oracle():
    # independent check: rescan candidate boxes against a fine rational grid
    # of the boundary segments
    dom = builtin_domain("triangle")
    n = 3
    got = set(boundary_layer(dom, n))
    verts = [(Fraction(0), Fraction(2)), (Fraction(2), Fraction(-2)), (Fraction(-2), Fraction(-2))]
    segs = list(zip(verts, verts[1:] + verts[:1]))
    expected = set()
    steps = 400
    for (ax, ay), (bx, by) in segs:
        for k in range(steps + 1):
            t = Fraction(k, steps)
            x = n * ((1 - t) * ax + t * bx)
            y = n * ((1 - t) * ay + t * by)
            # z - h = (x, y) with h in (-1/2, 1/2]: z in [x + (-1/2, 1/2]]
            for zx in range(int(x - 1), int(x + 2)):
                for zy in range(int(y - 1), int(y + 2)):
                    hx = zx - x
                    hy = zy - y
                    if -Fraction(1, 2) < hx <= Fraction(1, 2) and -Fraction(1, 2) < hy <= Fraction(1, 2):
                        expected.add((zx, zy))
    # the sampled grid can only miss points, never add wrong ones
    assert expected <= got
    # with 400 subdivisions on segments of this size the sample is complete
    assert expected == got


# ---------------------------------------------------------------------------
# array view: locate, from_array, contains_array, integer row ranges
# ---------------------------------------------------------------------------


@st.composite
def point_sets(draw):
    """(dimension, points of an index set, query points) with negative coordinates."""
    dim = draw(st.integers(min_value=1, max_value=3))
    coord = st.integers(min_value=-6, max_value=6)
    point = st.tuples(*[coord] * dim)
    members = draw(st.lists(point, max_size=30))
    queries = draw(st.lists(point, max_size=30)) + members
    return dim, members, queries


@given(point_sets())
@settings(max_examples=80, deadline=None)
def test_locate_matches_positions(case):
    dim, members, queries = case
    index_set = IndexSet.from_array(dim, members)
    positions = {p: k for k, p in enumerate(sorted(set(members)))}
    located = index_set.locate(np.array(queries, dtype=np.int64).reshape(-1, dim))
    assert located.tolist() == [positions.get(q, -1) for q in queries]


@given(point_sets())
@settings(max_examples=80, deadline=None)
def test_from_array_matches_from_points(case):
    dim, members, queries = case
    points = np.array(members + queries, dtype=np.int64).reshape(-1, dim)
    from_array = IndexSet.from_array(dim, points)
    expected = sorted(set(members + queries))
    assert from_array == IndexSet(dim, np.array(expected, dtype=np.int64).reshape(-1, dim))
    assert from_array.points == tuple(expected)
    assert from_array.array.tolist() == [list(p) for p in expected]
    assert all(type(c) is int for p in from_array.points for c in p)


def test_locate_refuses_keys_past_int64():
    huge = IndexSet(2, np.array([(-(2**40), 0), (2**40, 2**40)], dtype=np.int64))
    with pytest.raises(ValueError, match="overflows int64"):
        huge.locate(np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="int64 range"):
        IndexSet.from_array(1, [(0,)]).locate([(2**70,)])


@pytest.mark.parametrize("bad", [0.7, 2.9, -0.9, 0.5, math.nan, math.inf, -math.inf, 2.0**63])
def test_coordinates_the_int64_cast_changes_are_refused(bad, square):
    # the cast used to truncate: (0.7,), (2.9,) gave the points 0 and 2
    with pytest.raises(ValueError, match="integers in the int64 range"):
        IndexSet.from_array(1, [(0.7,), (bad,)])
    # and (0.5, -0.9) was found at (0, 0), position 4 of window 1
    with pytest.raises(ValueError, match="integers in the int64 range"):
        lattice_section(square, 1).locate([(0.5, bad)])


def test_integral_coordinates_are_taken_and_int64_arrays_not_copied(square):
    assert IndexSet.from_array(1, [(1.0,), (-3.0,)]).points == ((-3,), (1,))
    window = lattice_section(square, 1)
    assert window.locate([(1.0, -1.0)]).tolist() == [window.points.index((1, -1))]
    points = np.array([(0, 0), (1, 1)], dtype=np.int64)
    assert np.shares_memory(geometry._point_array(points, 2), points)


@pytest.mark.parametrize(
    "points", [((1, 0), (0, 5)), ((0, 0), (2, -1), (2, -1)), ((3,), (-3,))]
)
def test_locate_refuses_unsorted_or_repeated_points(points):
    index_set = IndexSet(len(points[0]), np.array(points, dtype=np.int64))
    with pytest.raises(ValueError, match="not sorted"):
        index_set.locate(np.zeros((1, len(points[0])), dtype=np.int64))


@pytest.mark.parametrize(
    "name", ["interval", "interval-halfopen", "square", "diamond", "triangle"]
)
def test_contains_array_matches_contains(name):
    dom = builtin_domain(name)
    for n in (1, 2, 5):
        radius = dom.enclosing_radius(n) + 2
        box = np.array(
            list(itertools.product(range(-radius, radius + 1), repeat=dom.dimension)),
            dtype=np.int64,
        )
        mask = dom.contains_array(box, n)
        facets = facet_triples(dom)
        assert mask.tolist() == [in_dilation(facets, p, n) for p in box.tolist()]


def fraction_row_range(domain, n, prefix):
    """The row range of window n at `prefix` in Fraction arithmetic."""
    lo = hi = None
    for a, b, closed in domain._integer_facets:
        s = sum(ai * xi for ai, xi in zip(a, prefix))
        bound = Fraction(n * b - s)
        if a[-1] == 0:
            if s > n * b or (not closed and s == n * b):
                return None
            continue
        q = bound / a[-1]
        if a[-1] > 0:
            cand = math.floor(q) - (not closed and q.denominator == 1)
            hi = cand if hi is None else min(hi, cand)
        else:
            cand = math.ceil(q) + (not closed and q.denominator == 1)
            lo = cand if lo is None else max(lo, cand)
    return None if lo > hi else (lo, hi)


OPEN_FACET_DOMAINS = [
    [((1,), 1, False), ((-1,), 1, True)],
    [((1,), 1, True), ((-1,), 1, False)],
    [((3,), 2, False), ((-2,), "5/3", False)],
    [(("7/2",), "1/3", True), ((-1,), "4/5", False)],
]


@pytest.mark.parametrize(
    "domain",
    [builtin_domain(name) for name in ("interval", "interval-halfopen", "square", "diamond", "triangle")]
    + [validate_domain(facets=facets) for facets in OPEN_FACET_DOMAINS],
)
def test_integer_row_ranges_match_fractions(domain):
    for n in (1, 2, 3, 7, 50):
        lo, hi = domain.bounding_box(n)
        prefixes = itertools.product(
            *[range(lo[j] - 1, hi[j] + 2) for j in range(domain.dimension - 1)]
        )
        for prefix in prefixes:
            assert geometry._last_coordinate_range(domain, n, prefix) == (
                fraction_row_range(domain, n, prefix)
            )


@pytest.mark.parametrize("name", ["interval", "interval-halfopen", "square", "triangle"])
def test_section_exceeds_matches_size(name):
    dom = builtin_domain(name)
    for n in (1, 2, 6):
        size = lattice_section_size(dom, n)
        for limit in (0, 1, size - 1, size, size + 1):
            assert geometry._section_exceeds(dom, n, limit) == (size > limit)


def test_contains_array_stays_exact_past_int64_products():
    # 4 * 10**18 * 10 leaves int64, so the facet sums are taken in Python integers
    dom = validate_domain(
        facets=[((4 * 10**18, 1), 4 * 10**18 + 1), ((-1, 0), 1), ((0, -1), 1), ((0, 1), 5)]
    )
    points = np.array(
        [[x, y] for x in range(-10, 11) for y in range(-10, 11)], dtype=np.int64
    )
    for n in (1, 2):
        mask = dom.contains_array(points, n)
        facets = facet_triples(dom)
        assert mask.tolist() == [in_dilation(facets, p, n) for p in points.tolist()]


# ---------------------------------------------------------------------------
# exact row reduction
# ---------------------------------------------------------------------------

# The three Gauss-Jordan loops that geometry._row_reduce replaced, kept as
# the reference.


def old_solve_exact(rows, rhs):
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def old_reduce(vectors, dim):
    rows = [list(v) for v in vectors]
    pivots = []
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def old_rank(vectors, dim):
    return len(old_reduce(vectors, dim)[1])


def old_null_direction(vectors, dim):
    rows, pivots = old_reduce(vectors, dim)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    direction = [Fraction(0)] * dim
    direction[free] = Fraction(1)
    for r, col in enumerate(pivots):
        direction[col] = -rows[r][free]
    return tuple(direction)


_RATIONALS = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@st.composite
def rational_systems(draw):
    """(rows, rhs, dim, kind): a k x dim matrix of rank at most r and a right-hand side.

    kind is "full" (rank dim), "deficient" (r < dim, rhs in the column
    space) or "inconsistent" (r < dim, rhs outside the column space).
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["full", "deficient", "inconsistent"]))
    r = dim if kind == "full" else draw(st.integers(min_value=0, max_value=dim - 1))
    k = draw(st.integers(min_value=max(r, 1), max_value=dim + 2))
    base = [draw(st.lists(_RATIONALS, min_size=dim, max_size=dim)) for _ in range(r)]
    mix = [draw(st.lists(_RATIONALS, min_size=r, max_size=r)) for _ in range(k)]
    rows = [
        [sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(dim)]
        for coeffs in mix
    ]
    if kind == "inconsistent":
        rhs = draw(st.lists(_RATIONALS, min_size=k, max_size=k))
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        assume(old_rank(augmented, dim + 1) > old_rank(rows, dim))
    else:
        x = draw(st.lists(_RATIONALS, min_size=dim, max_size=dim))
        rhs = [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in rows]
    assume(kind != "full" or old_rank(rows, dim) == dim)
    return rows, rhs, dim, kind


@given(rational_systems())
@settings(max_examples=200, deadline=None)
def test_row_reduce_matches_the_three_old_loops(system):
    rows, rhs, dim, kind = system
    assert geometry._rank(rows, dim) == old_rank(rows, dim)
    assert geometry._null_direction(rows, dim) == old_null_direction(rows, dim)
    square = rows[:dim] if len(rows) >= dim else None
    if square is not None:
        got = geometry._solve_exact(square, rhs[:dim])
        assert got == old_solve_exact(square, rhs[:dim])
        if old_rank(square, dim) == dim:
            assert got is not None
            assert all(
                sum((a * x for a, x in zip(row, got)), Fraction(0)) == b
                for row, b in zip(square, rhs)
            )
        else:
            assert got is None  # singular, whether consistent or not
    if kind == "full":
        assert geometry._rank(rows, dim) == dim


def test_row_reduce_fixed_systems():
    F = Fraction
    full = [[F(2), F(1)], [F(1), F(3)]]
    assert geometry._solve_exact(full, [F(3), F(4)]) == (F(1), F(1))
    assert geometry._rank(full, 2) == 2
    assert geometry._null_direction(full, 2) is None
    deficient = [[F(1), F(2)], [F(2), F(4)]]
    assert geometry._rank(deficient, 2) == 1
    assert geometry._null_direction(deficient, 2) == (F(-2), F(1))
    assert geometry._solve_exact(deficient, [F(1), F(2)]) is None  # consistent
    assert geometry._solve_exact(deficient, [F(1), F(3)]) is None  # inconsistent
    assert geometry._rank([[F(0), F(0)]], 2) == 0


# ---------------------------------------------------------------------------
# one array storage: windows and layers against the old tuple construction
# ---------------------------------------------------------------------------


def section_by_points(domain, n):
    """The point-by-point construction lattice_section replaced, kept as the reference."""
    lo, hi = domain.bounding_box(n)
    ranges = [range(lo[j], hi[j] + 1) for j in range(domain.dimension - 1)]
    points = []
    for prefix in itertools.product(*ranges):
        rng = geometry._last_coordinate_range(domain, n, prefix)
        if rng is not None:
            points.extend(prefix + (x,) for x in range(rng[0], rng[1] + 1))
    return points


BUILTIN_NAMES = ["interval", "interval-halfopen", "square", "diamond", "triangle"]


@given(st.sampled_from(BUILTIN_NAMES), st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_section_array_matches_point_construction(name, n):
    dom = builtin_domain(name)
    expected = section_by_points(dom, n)
    window = lattice_section(dom, n)
    assert window.array.dtype == np.int64
    assert window.array.shape == (len(expected), dom.dimension)
    assert window.array.tolist() == [list(p) for p in expected]
    assert window.points == tuple(expected)
    assert len(window) == lattice_section_size(dom, n)


@pytest.mark.parametrize("name", ["interval", "square", "diamond", "triangle"])
def test_boundary_layer_matches_point_construction(name):
    dom = builtin_domain(name)
    for n in range(1, 7):
        lo, hi = dom.bounding_box(n)
        ranges = [range(lo[j] - 1, hi[j] + 2) for j in range(dom.dimension)]
        expected = [
            z for z in itertools.product(*ranges) if geometry._box_touches_boundary(dom, n, z)
        ]
        layer = boundary_layer(dom, n)
        assert layer.array.dtype == np.int64
        assert layer.points == tuple(expected)


def test_equality_reads_the_array(square):
    window = lattice_section(square, 2)
    assert window == IndexSet.from_array(2, window.array[::-1])
    assert window != lattice_section(square, 1)
    assert window != lattice_section(builtin_domain("interval"), 2)
