import itertools
import json
import math
import operator
from fractions import Fraction
from pathlib import Path

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
    validate_domain,
)
from finsec import geometry, sections
from oracles import (
    box_count,
    box_row_range,
    box_section,
    brute_force_section,
    enumerated_domain,
    feasible_vertices,
    hull_facets,
    in_dilation,
    row_reduce,
    rref_polytope_vertices,
)


# Each built-in domain as rational (normal, offset, closed) half-spaces, written
# out by hand in scales of their own, so the oracle never reads domain.facets.
BUILTIN_FACETS = {
    "interval": [(("1/2",), "1/2", True), ((-3,), 3, True)],
    "interval-halfopen": [((1,), 1, False), ((-1,), 1, True)],
    "square": [
        ((2, 0), 2, True), ((-1, 0), 1, True), ((0, "1/3"), "1/3", True), ((0, -1), 1, True)
    ],
    "diamond": [((1, 1), 1, True), ((1, -1), 1, True), ((-2, 2), 2, True), ((-1, -1), 1, True)],
    "triangle": [((0, -1), 2, True), ((4, 2), 4, True), ((-1, "1/2"), 1, True)],
}


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


@pytest.mark.parametrize(
    "data",
    [
        {"facets": [((), 1)]},
        {"vertices": [()]},
        # a declared 0 is read as given, not as "no dimension"
        {"vertices": [(1, 0), (0, 1), (-1, 0), (0, -1)], "dimension": 0},
    ],
)
def test_zero_dimensional_domain_refused_by_name(data):
    with pytest.raises(ValueError, match="a domain needs dimension >= 1, got 0"):
        validate_domain(**data)


# ---------------------------------------------------------------------------
# vertex domains through the polar
# ---------------------------------------------------------------------------


@st.composite
def rational_vertex_sets(draw, dims=(1, 2, 3)):
    """Up to 7 rational points of a dimension in dims, with repeats, midpoints and rays through 0.

    A flat draw puts every point on one line, or one plane in 3-D, through
    0 or beside it.  A symmetric draw adds the negative of each point.
    """
    dim = draw(st.sampled_from(dims))
    coordinate = _fraction((-4, 4), (1, 3))
    point = st.tuples(*[coordinate] * dim)
    if dim > 1 and draw(st.booleans()):  # flat
        base = draw(point)
        steps = [draw(point) for _ in range(draw(st.integers(1, dim - 1)))]
        ts = st.tuples(*[coordinate] * len(steps))
        return [
            tuple(b + sum(t * s[j] for t, s in zip(coeffs, steps)) for j, b in enumerate(base))
            for coeffs in draw(st.lists(ts, min_size=1, max_size=7))
        ]
    points = draw(st.lists(point, min_size=dim, max_size=7))
    if draw(st.booleans()):  # symmetric
        points += [tuple(-c for c in p) for p in points]
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        points.append(draw(st.sampled_from([
            p,  # repeated
            tuple((a + b) / 2 for a, b in zip(p, q)),  # on a segment: interior or collinear
            tuple(draw(coordinate) * a for a in p),  # on the line through 0 and p
            (Fraction(0),) * dim,  # 0 inside, on the boundary or a corner
        ])))
    return draw(st.permutations(points))


@given(rational_vertex_sets(dims=(1, 2)))
@settings(max_examples=300, deadline=None)
def test_vertex_domains_match_the_monotone_chain(points):
    facets = hull_facets(points)
    if facets is None or any(offset <= 0 for _, offset in facets):
        with pytest.raises(ZeroNotInteriorError):
            validate_domain(vertices=points)
        return
    built, reference = validate_domain(vertices=points), validate_domain(facets=facets)
    assert len(built.facets) == len(reference.facets)
    assert set(built.facets) == set(reference.facets)
    assert built.vertices == reference.vertices


SIMPLEX_VERTICES = [("3/2", 0, 0), (0, "2/3", 0), (0, 0, "5/4"), ("-1/2", "-1/3", "-1/2")]
SOLIDS = {
    "octahedron": (
        [tuple(s * (j == k) for k in range(3)) for j in range(3) for s in (1, -1)],
        [(normal, 1) for normal in itertools.product((1, -1), repeat=3)],
    ),
    "cube": (
        list(itertools.product((1, -1), repeat=3)),
        [(tuple(s * (j == k) for k in range(3)), 1) for j in range(3) for s in (1, -1)],
    ),
    "simplex": (
        SIMPLEX_VERTICES,
        [(("2/3", "3/2", "4/5"), 1), (("2/3", "3/2", "-11/3"), 1),
         (("2/3", "-26/5", "4/5"), 1), (("-19/5", "3/2", "4/5"), 1)],
    ),
}


@pytest.mark.parametrize("name", SOLIDS)
def test_solid_from_vertices_equals_its_facet_form(name):
    vertices, facets = SOLIDS[name]
    built, reference = validate_domain(vertices=vertices), validate_domain(facets=facets)
    assert sorted(built.facets) == sorted(reference.facets)
    assert built.vertices == reference.vertices
    assert set(built.vertices) == {tuple(map(Fraction, v)) for v in vertices}
    for n in (1, 2, 3):
        assert np.array_equal(lattice_section(built, n).array, lattice_section(reference, n).array)


@pytest.mark.parametrize(
    "vertices",
    [
        # 0 on a face of the box [0, 1] x [-1, 1] x [-1, 1], on an edge, at a corner
        [(x, y, z) for x in (0, 1) for y in (1, -1) for z in (1, -1)],
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (1, -1)],
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
        # flat: the octahedron's square section z = 0
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
    ],
)
def test_solid_vertices_without_0_in_the_interior_refused(vertices):
    with pytest.raises(ZeroNotInteriorError):
        validate_domain(vertices=vertices)


def test_dense_grid_points_give_the_cube():
    # the 124 nonzero points of [-2, 2]^3, nearly all on faces, on edges or inside
    points = [p for p in itertools.product(range(-2, 3), repeat=3) if any(p)]
    assert len(points) == 124
    cube = validate_domain(vertices=points)
    assert sorted(cube.facets) == sorted(
        (tuple(s * (k == j) for k in range(3)), 2, True) for j in range(3) for s in (1, -1)
    )
    assert cube.vertices == tuple(itertools.product((Fraction(-2), Fraction(2)), repeat=3))


@pytest.mark.parametrize(
    "vertices",
    [
        [(0, 2), (2, -2), (-2, -2)],
        [(-1, -1), (-1, 1), (1, -1), (1, 1)],
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        SOLIDS["octahedron"][0],
        SIMPLEX_VERTICES,
    ],
    ids=["triangle", "square", "diamond", "octahedron", "simplex"],
)
def test_vertex_domains_do_not_depend_on_the_vertex_order(vertices):
    domain = validate_domain(vertices=vertices)
    for order in itertools.permutations(vertices):
        assert validate_domain(vertices=order) == domain


def assert_matches_the_enumeration(**data):
    """validate_domain against the subset enumeration: the same facets and
    vertices, or the same refusal class and message."""
    try:
        facets, vertices = enumerated_domain(**data)
    except (ZeroNotInteriorError, UnboundedDomainError) as refusal:
        with pytest.raises(type(refusal)) as raised:
            validate_domain(**data)
        assert (type(raised.value), str(raised.value)) == (type(refusal), str(refusal))
        return
    domain = validate_domain(**data)
    assert sorted(tuple(Fraction(c, b) for c in a) for a, b, _ in domain.facets) == facets
    assert list(domain.vertices) == vertices


@given(rational_vertex_sets())
@settings(max_examples=300, deadline=None)
def test_vertex_domains_match_the_enumeration(points):
    assert_matches_the_enumeration(vertices=points)


# ---------------------------------------------------------------------------
# lattice_section
# ---------------------------------------------------------------------------


def test_interval_section(interval):
    assert list(lattice_section(interval, 3)) == [(k,) for k in range(-3, 4)]


def test_diamond_section_matches_brute_force(diamond_domain):
    got = list(lattice_section(diamond_domain, 2))
    expected = brute_force_section(BUILTIN_FACETS["diamond"], 2, 5)
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
    expected = brute_force_section(BUILTIN_FACETS[name], n, radius)
    assert list(lattice_section(dom, n)) == expected
    assert geometry._count_section(dom, n, None) == (len(expected), True)


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
    assert np.array_equal(from_array.array, np.array(expected, dtype=np.int64).reshape(-1, dim))
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
        facets = BUILTIN_FACETS[name]
        assert mask.tolist() == [in_dilation(facets, p, n) for p in box.tolist()]


def test_contains_array_refuses_points_of_another_width():
    square = builtin_domain("square")
    for width in (1, 3):
        with pytest.raises(ValueError, match=f"^{width}-D points cannot lie in a 2-D domain$"):
            square.contains_array(np.zeros((4, width), dtype=np.int64), 1)
    assert square.contains_array(np.zeros((0, 2), dtype=np.int64), 1).tolist() == []


def fraction_row_range(rows, n, prefix):
    """The range of the last coordinate over the dilation of `rows` at `prefix`, in Fractions."""
    lo = hi = None
    for a, b, closed in rows:
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
    + [validate_domain(facets=facets) for facets in OPEN_FACET_DOMAINS]
    + [validate_domain(vertices=SOLIDS[name][0]) for name in ("octahedron", "simplex")],
)
def test_integer_row_ranges_match_fractions(domain, monkeypatch):
    # every range the walk takes, at every level, against Fractions with the zero
    # branch; at the last level also against the box walk's range from all facets
    calls = []
    row_range = geometry._last_coordinate_range

    def recorded(rows, n, prefix):
        calls.append((rows, n, prefix, row_range(rows, n, prefix)))
        return calls[-1][-1]

    monkeypatch.setattr(geometry, "_last_coordinate_range", recorded)
    for n in (1, 2, 3, 7, 50 if domain.dimension < 3 else 8):
        list(geometry._rows(domain, n))
    assert {len(prefix) for _, _, prefix, _ in calls} == set(range(domain.dimension))
    for rows, n, prefix, got in calls:
        assert rows == domain._projections[len(prefix)]
        assert got == fraction_row_range(rows, n, prefix)
        if len(prefix) == domain.dimension - 1:
            assert got == box_row_range(domain, n, prefix)


@pytest.mark.parametrize("name", ["interval", "interval-halfopen", "square", "triangle"])
def test_section_exceeds_matches_size(name):
    dom = builtin_domain(name)
    for n in (1, 2, 6):
        size = len(lattice_section(dom, n))
        assert geometry._count_section(dom, n, None) == (size, True)
        for limit in (-1, 0, 1, size - 1, size, size + 1):
            count, complete = geometry._count_section(dom, n, limit)
            assert (count > limit) == (size > limit)
            # a walk stopped early has rows left, so it counted fewer points
            assert count <= size and complete == (count == size)


def test_contains_array_stays_exact_past_int64_products():
    # 4 * 10**18 * 10 leaves int64, so the facet sums are taken in Python integers
    facets = [((4 * 10**18, 1), 4 * 10**18 + 1, True), ((-1, 0), 1, True), ((0, -1), 1, True),
              ((0, 1), 5, True)]
    dom = validate_domain(facets=facets)
    points = np.array(
        [[x, y] for x in range(-10, 11) for y in range(-10, 11)], dtype=np.int64
    )
    for n in (1, 2):
        mask = dom.contains_array(points, n)
        assert mask.tolist() == [in_dilation(facets, p, n) for p in points.tolist()]


# ---------------------------------------------------------------------------
# integer facet rows against the rational input
# ---------------------------------------------------------------------------


def _fraction(numerators, denominators):
    return st.builds(Fraction, st.integers(*numerators), st.integers(*denominators))


@st.composite
def rational_domains(draw, refusable=False):
    """(dimension, facet triples as given to validate_domain).

    1-D draws may have open facets; 2-D and 3-D draws are closed.  A box
    |x_j| <= s_j <= 2, each side in a scale of its own, keeps every draw
    bounded; up to three more facets of any normal, the zero one included,
    cut it.  Entries are Fractions, "p/q" strings or ints.  A refusable
    draw may drop sides of the box, so it may be unbounded, and its further
    facets may have offsets <= 0.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    dropped = draw(st.sets(st.integers(0, 2 * dim - 1))) if refusable else set()
    facets = []
    for j in range(dim):
        for sign in (1, -1):
            side, scale = draw(_fraction((1, 6), (1, 2))), draw(_fraction((1, 4), (1, 3)))
            side = min(side, Fraction(2))
            if 2 * j + (sign < 0) not in dropped:
                facets.append(([sign * scale * (k == j) for k in range(dim)], scale * side))
    for _ in range(draw(st.integers(0 if facets else 1, 3))):
        normal = draw(st.lists(_fraction((-4, 4), (1, 4)), min_size=dim, max_size=dim))
        facets.append((normal, draw(_fraction((-1 if refusable else 1, 6), (1, 4)))))

    def spelled(q):
        kind = draw(st.sampled_from(["fraction", "string", "int"]))
        if kind == "string":
            return f"{q.numerator}/{q.denominator}"
        return int(q) if kind == "int" and q.denominator == 1 else q

    triples = [
        (tuple(spelled(Fraction(c)) for c in normal), spelled(offset),
         dim > 1 or draw(st.booleans()))
        for normal, offset in facets
    ]
    return dim, draw(st.permutations(triples))


@given(rational_domains(), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_rows_decide_as_the_rational_facets(drawn, data):
    dim, triples = drawn
    domain = validate_domain(facets=triples)
    exact = [(tuple(map(Fraction, normal)), Fraction(offset), closed)
             for normal, offset, closed in triples]
    # one reduced integer row per input facet, in input order
    assert [closed for _, _, closed in domain.facets] == [closed for *_, closed in exact]
    for (a, b, _), (normal, offset, _) in zip(domain.facets, exact):
        assert all(type(c) is int for c in (*a, b))
        assert b > 0 and math.gcd(b, *a) == 1  # a zero normal too: its row is (0, 1)
        assert all(c * offset == q * b for c, q in zip(a, normal))
    # the closure's vertices: exact, feasible and tight on dim independent facets
    vertices = feasible_vertices([(a, b) for a, b, _ in domain.facets], dim)
    assert vertices == list(domain.vertices)
    assert feasible_vertices([(q, o) for q, o, _ in exact], dim) == vertices
    closure = [(normal, offset, True) for normal, offset, _ in exact]
    for v in vertices:
        assert all(type(c) is Fraction for c in v)
        assert in_dilation(closure, v, 1)
        tight = [q for q, offset, _ in exact if sum(map(operator.mul, q, v)) == offset]
        assert np.linalg.matrix_rank(np.array(tight, dtype=float).reshape(-1, dim)) == dim

    for n in {1: (1, 2, 5), 2: (1, 3), 3: (1,)}[dim]:
        radius = 2 * n + 1
        box = list(itertools.product(range(-radius, radius + 1), repeat=dim))
        expected = [in_dilation(exact, p, n) for p in box]
        assert domain.contains_array(np.array(box), n).tolist() == expected
        window = lattice_section(domain, n)
        assert window.points == tuple(itertools.compress(box, expected))
        lo, hi = domain.bounding_box(n)
        assert lo == tuple(math.ceil(n * min(v[j] for v in vertices)) for j in range(dim))
        assert hi == tuple(math.floor(n * max(v[j] for v in vertices)) for j in range(dim))
        assert np.all((window.array >= lo) & (window.array <= hi))
        # holds_shifts against the same test on the rational facets, and its promise
        offsets = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=4), label="offsets"
        )
        m = n + data.draw(st.integers(0, 6), label="m - n")
        holds = domain.holds_shifts(n, offsets, m)
        assert holds == all(
            (m - n) * offset >= max((sum(map(operator.mul, q, d)) for d in offsets), default=0)
            for q, offset, _ in exact
        )
        if holds:
            assert all(
                in_dilation(exact, [p + c for p, c in zip(point, d)], m)
                for point in window.points[:: max(1, len(window) // 20)] for d in offsets
            )


@given(rational_domains(refusable=True))
@settings(max_examples=300, deadline=None)
def test_facet_domains_match_the_enumeration(drawn):
    assert_matches_the_enumeration(facets=drawn[1])


# ---------------------------------------------------------------------------
# the polytope kernel's seed from the whole space against the row basis seed
# ---------------------------------------------------------------------------

# oracles.rref_polytope_vertices seeds the same double description from the
# first dim + 1 independent rows by Gauss-Jordan (oracles.row_reduce): the
# same vertices must come out in the same order, and None and [] alike.

_ENTRIES = st.one_of(st.integers(-3, 3), _fraction((-3, 3), (1, 3)))
_OFFSETS = st.one_of(st.integers(-2, 5), _fraction((-2, 5), (1, 3)))


@st.composite
def polytope_systems(draw):
    """(constraints, dim): rows a.x <= b in 1 to 4 dimensions, in any order.

    Entries are ints or Fractions.  A draw may hold the two sides of a box
    on each coordinate it uses, and up to dim + 3 rows of any normal; the
    normals may leave some coordinates out, so that the cone holds a line.
    A row may repeat an earlier one or scale it by a positive factor, and
    offsets may be negative, so that the polyhedron may be empty.  The list
    may be empty too.
    """
    dim = draw(st.integers(1, 4))
    unused = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    constraints = []
    if draw(st.booleans()):
        constraints += [
            (tuple(s * (k == j) for k in range(dim)), draw(_OFFSETS))
            for j in set(range(dim)) - unused for s in (1, -1)
        ]
    for _ in range(draw(st.integers(0, dim + 3))):
        if constraints and draw(st.booleans()):
            a, b = draw(st.sampled_from(constraints))
            c = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
            constraints.append((tuple(c * x for x in a), c * b))
        else:
            a = tuple(0 if j in unused else draw(_ENTRIES) for j in range(dim))
            constraints.append((a, draw(_OFFSETS)))
    return draw(st.permutations(constraints)), dim


@given(polytope_systems())
@settings(max_examples=400, deadline=None)
def test_polytope_vertices_match_the_row_basis_seed(system):
    constraints, dim = system
    vertices = geometry._polytope_vertices(constraints, dim)
    assert vertices == rref_polytope_vertices(constraints, dim)
    assert vertices is None or all(type(c) is Fraction for v in vertices for c in v)


_LINE = [((1, 0), 1), ((-1, 0), 1)]  # a strip: the line x = 0 stays
_CUBE = [(tuple(s * (j == k) for k in range(3)), 1) for j in range(3) for s in (1, -1)]


@pytest.mark.parametrize(
    "constraints, dim, expected",
    [
        ([], 2, None),
        (_LINE, 2, None),
        (_LINE + [((1, 0), -2)], 2, None),  # an empty strip still holds the line
        ([((1,), 1), ((-1,), -2)], 1, []),  # 2 <= x <= 1
        ([((2,), 2), ((1,), 1), ((-1,), 1), ((-1,), 1)], 1, [(-1,), (1,)]),
        (_CUBE + _CUBE[::-1], 3, sorted(itertools.product((1, -1), repeat=3))),
    ],
)
def test_polytope_vertices_fixed_systems(constraints, dim, expected):
    vertices = geometry._polytope_vertices(constraints, dim)
    assert vertices == rref_polytope_vertices(constraints, dim)
    assert (vertices if vertices is None else sorted(vertices)) == expected


# ---------------------------------------------------------------------------
# one array storage: windows and layers against the old tuple construction
# ---------------------------------------------------------------------------


BUILTIN_NAMES = ["interval", "interval-halfopen", "square", "diamond", "triangle"]


@given(st.sampled_from(BUILTIN_NAMES), st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_section_array_matches_point_construction(name, n):
    dom = builtin_domain(name)
    expected = box_section(dom, n)  # the point-by-point construction, over the box walk
    window = lattice_section(dom, n)
    assert window.array.dtype == np.int64
    assert window.array.shape == (len(expected), dom.dimension)
    assert window.array.tolist() == [list(p) for p in expected]
    assert window.points == tuple(expected)
    assert geometry._count_section(dom, n, None) == (len(window), True)


# ---------------------------------------------------------------------------
# the row walk through the projections against the box walk
# ---------------------------------------------------------------------------


def assert_walks_agree(domain, n):
    expected = box_section(domain, n)
    window = lattice_section(domain, n)
    assert window.array.tolist() == [list(p) for p in expected]
    size = len(expected)
    for limit in (-1, 0, 1, size - 1, size, size + 1, None):
        assert geometry._count_section(domain, n, limit) == box_count(domain, n, limit)


@given(rational_vertex_sets(), st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_projection_walk_matches_the_box_walk(points, n):
    try:
        domain = validate_domain(vertices=points)
    except ZeroNotInteriorError:
        assume(False)
    assert_walks_agree(domain, n)


TOOLS = Path(__file__).parents[1] / "tools"
POLY24 = json.loads((TOOLS / "poly24.json").read_text())["vertices"]
POLY48 = json.loads((TOOLS / "poly48.json").read_text())["vertices"]
# a simplex whose projections onto the first and onto the last k coordinates differ
SIMPLEX_4D = [("3/2", 0, 0, 0), (0, "2/3", 0, 0), (0, 0, "5/4", 0), (0, 0, 0, "1/2"),
              ("-1/2", "-1/3", "-1/2", "-1/3")]
FIXED_WALK_DOMAINS = {
    **{name: validate_domain(vertices=SOLIDS[name][0]) for name in SOLIDS},
    "poly24": validate_domain(vertices=POLY24),
    "4-D": validate_domain(vertices=SIMPLEX_4D),
}


@pytest.mark.parametrize("name", FIXED_WALK_DOMAINS)
def test_projection_walk_matches_the_box_walk_on_fixed_domains(name):
    domain = FIXED_WALK_DOMAINS[name]
    for n in (1, 2, 3, 5, 8):
        assert_walks_agree(domain, n)


@pytest.mark.parametrize(
    "points, facets, corners",
    [(POLY24, 36, 20), (POLY48, 44, 24), (SIMPLEX_4D, 5, 5)],
    ids=["poly24", "poly48", "4-D"],
)
def test_polytope_vertices_match_the_row_basis_seed_on_fixed_domains(points, facets, corners):
    domain = validate_domain(vertices=points)
    assert (len(domain.facets), len(domain.vertices)) == (facets, corners)
    polar = [(tuple(map(Fraction, v)), Fraction(1)) for v in points]
    for constraints in (polar, [(a, b) for a, b, _ in domain.facets]):
        vertices = geometry._polytope_vertices(constraints, domain.dimension)
        assert vertices == rref_polytope_vertices(constraints, domain.dimension)


_TRIANGLE = [("-3/2", "-1/2"), ("5/2", "-1/2"), (0, "3/2")]


@pytest.mark.parametrize(
    "vertices, n, box",
    [
        ([("-5/2",), ("1/2",)], 1, ((-2,), (0,))),
        ([("-5/2",), ("1/2",)], 3, ((-7,), (1,))),
        (_TRIANGLE, 1, ((-1, 0), (2, 1))),
        (_TRIANGLE, 2, ((-3, -1), (5, 3))),
        (_TRIANGLE, 3, ((-4, -1), (7, 4))),
    ],
)
def test_bounding_box_rounds_negative_and_half_integer_vertices_inward(vertices, n, box):
    domain = validate_domain(vertices=vertices)
    lo, hi = domain.bounding_box(n)
    assert (lo, hi) == box and all(type(c) is int for c in lo + hi)
    window = lattice_section(domain, n).array
    assert np.all(window >= box[0]) and np.all(window <= box[1])


def test_octahedron_refusal_walks_only_rows_it_counts(monkeypatch):
    # The scan's count of window N for lap7.json on |x|+|y|+|z| <= 1: 408 bytes a
    # point (sections._check_window_budget with 7 diagonals in 3-D).  The box walk
    # took 399,100 prefixes at N = 10**3 and grew with N; this walk stops at the
    # first row past the limit, at the same row for every N this large.
    octahedron = FIXED_WALK_DOMAINS["octahedron"]
    limit = sections.DENSE_BUDGET_BYTES // (48 + 8 * 3 + 48 * 7)
    calls = []
    row_range = geometry._last_coordinate_range

    def counted(*args):
        calls.append(None)
        return row_range(*args)

    monkeypatch.setattr(geometry, "_last_coordinate_range", counted)
    made = []
    for n in (10**3, 10**5):
        calls.clear()
        assert geometry._count_section(octahedron, n, limit) == (5263600, False)
        made.append(len(calls))
    assert made[0] == made[1] < 40_000


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


HALF_BOXES = {  # [-1/2, 1/2]^N: unit boxes at lattice points meet it in faces of every dimension
    dim: validate_domain(
        facets=[(tuple(2 * s * (k == j) for k in range(dim)), 1)
                for j in range(dim) for s in (1, -1)]
    )
    for dim in (2, 3)
}


def _affine_dimension(points):
    """Dimension of the affine hull of a point list; -1 when it is empty."""
    if not points:
        return -1
    differences = [[a - b for a, b in zip(p, points[0])] for p in points]
    return len(row_reduce(differences, len(points[0]))[1])


def test_box_cuts_match_the_enumeration(monkeypatch):
    # every constraint set _box_touches_boundary cuts, recorded as boundary_layer builds
    kernel, cuts = geometry._polytope_vertices, []

    def recorded(constraints, dim):
        vertices = kernel(constraints, dim)
        cuts.append((constraints, dim, vertices))
        return vertices

    monkeypatch.setattr(geometry, "_polytope_vertices", recorded)
    domains = [builtin_domain(name) for name in ("interval", "square", "diamond", "triangle")]
    domains += [validate_domain(facets=SOLIDS["simplex"][1]), *HALF_BOXES.values()]
    for domain in domains:
        for n in (1,) if domain.dimension == 3 else (1, 2, 3):
            boundary_layer(domain, n)
    shapes = set()
    for constraints, dim, vertices in cuts:
        assert sorted(vertices) == feasible_vertices(constraints, dim)
        shapes.add((dim, _affine_dimension(vertices)))
    # empty cuts, and cuts in a point, a segment and a square, among the full ones
    assert shapes == {(1, 1)} | {(dim, k) for dim in (2, 3) for k in range(-1, dim + 1)}


def test_equality_reads_the_array(square):
    window = lattice_section(square, 2).array
    assert np.array_equal(window, IndexSet.from_array(2, window[::-1]).array)
    assert not np.array_equal(window, lattice_section(square, 1).array)
    assert not np.array_equal(window, lattice_section(builtin_domain("interval"), 2).array)
