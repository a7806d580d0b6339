"""Exact lattice geometry: scaled polytope sections and boundary layers.

Domains are convex polytopes with rational facet data and the origin in
their interior.  All membership decisions are made in exact rational
(integer, after clearing denominators) arithmetic, never in floating
point, so section index sets are reproducible bit-for-bit.  One kernel,
_polytope_vertices, answers every vertex, facet and boundedness question
by double description in integers, from the whole space (None: unbounded);
window rows are walked through the facets of the domain's projections
onto its leading coordinates.  An index set stores its points once, as the
rows of a sorted (k, N) int64 array, and array lookups refuse point sets
whose integer keys would leave int64.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._value import Value
from .errors import OpenFacetError, UnboundedDomainError, ZeroNotInteriorError

Point = tuple[int, ...]

__all__ = [
    "Point",
    "StarlikeDomain",
    "IndexSet",
    "validate_domain",
    "lattice_section",
    "boundary_layer",
]


def _frac(value) -> Fraction:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"domain data must be exact rationals, got float {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"domain value {value!r} has a zero denominator") from None


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(ai * xi for ai, xi in zip(a, x))


_INT64_MAX = int(np.iinfo(np.int64).max)


def _point_array(points, dimension: int) -> np.ndarray:
    """(k, dimension) int64 array of lattice points; an int64 array is not copied.

    ValueError for a coordinate that the int64 cast changes: a fractional,
    non-finite or past-int64 one.
    """
    raw = np.asarray(points)
    try:
        with np.errstate(invalid="ignore"):
            arr = raw.astype(np.int64, copy=False)
        exact = arr is raw or np.array_equal(arr, raw)
    except OverflowError:
        exact = False
    if not exact:
        raise ValueError("lattice coordinates must be integers in the int64 range")
    return arr.reshape(-1, dimension)


def _mixed_radix(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Weights w with key(p) = (p - lo) . w exact, ordered like p lexicographically.

    Raises ValueError when the box lo..hi holds more than int64 keys.
    """
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if prod(spans) > _INT64_MAX:
        raise ValueError(f"index box of spans {spans} overflows int64 keys")
    weights = [prod(spans[j + 1 :]) for j in range(len(spans))]
    return np.array(weights, dtype=np.int64)


FacetRow = tuple[tuple[int, ...], int, bool]


def _primitive(v: Sequence) -> tuple[int, ...]:
    """The gcd-reduced integer vector on the ray through a rational vector."""
    scale = lcm(*(c.denominator for c in v))
    v = [int(c * scale) for c in v]
    common = gcd(*v) or 1
    return tuple(c // common for c in v)


def _integer_row(normal: Sequence[Fraction], offset: Fraction) -> tuple[tuple[int, ...], int]:
    """The gcd-reduced integer (A, B) with A.x <= n*B the facet normal.x <= n*offset."""
    *a, b = _primitive((*normal, offset))
    return tuple(a), b


class StarlikeDomain(Value):
    """Bounded convex polytope containing 0 in its interior.

    `facets` are integer rows (A, B, closed): x is in the n-fold dilation
    iff A.x <= n*B for every row, strictly for an open one.  `vertices`
    are the vertices of the closure, kept for bounding boxes and provenance.
    """

    dimension: int
    facets: tuple[FacetRow, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    name: str = ""

    @property
    def all_closed(self) -> bool:
        return all(closed for _, _, closed in self.facets)

    def contains_array(self, points: np.ndarray, n: int) -> np.ndarray:
        """Boolean mask of the rows of a (k, N) int64 array inside the n-fold dilation."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if points.shape[1] != self.dimension:
            width = points.shape[1]
            raise ValueError(f"{width}-D points cannot lie in a {self.dimension}-D domain")
        inside = np.ones(len(points), dtype=bool)
        if not len(points):
            return inside
        reach = max(abs(int(points.min())), abs(int(points.max())))
        for a, b, closed in self.facets:
            # exact Python integers where a facet product could leave int64
            dtype = np.int64 if reach * sum(abs(c) for c in a) <= _INT64_MAX else object
            s = points.astype(dtype, copy=False) @ np.array(a, dtype=dtype)
            inside &= s <= n * b if closed else s < n * b
        return inside

    def holds_shifts(self, n: int, offsets: Sequence[Sequence[int]], m: int) -> bool:
        """Sufficient test that window m holds every shift of window n by an offset.

        Per integer facet A.x <= n*B: A.(p + d) <= n*B + A.d <= m*B for
        every offset d when (m - n)*B >= max_d A.d.  The same test suffices
        for an open facet, since there A.(p + d) < n*B + A.d <= m*B.
        """
        return all(
            (m - n) * b >= max((_dot(a, d) for d in offsets), default=0)
            for a, b, _ in self.facets
        )

    @cached_property
    def _projections(self) -> tuple[tuple[FacetRow, ...], ...]:
        """Facet rows of the projections onto the first k = 1..N coordinates."""
        shadows = ({v[:k] for v in self.vertices} for k in range(1, self.dimension))
        return (*(validate_domain(vertices=s).facets for s in shadows), self.facets)

    @cached_property
    def _vertex_range(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(min, max) of each coordinate over the vertices."""
        return tuple((min(c), max(c)) for c in zip(*self.vertices))

    def bounding_box(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer box (lo, hi) containing every lattice point of the n-fold dilation."""
        lo = tuple(ceil(n * low) for low, _ in self._vertex_range)
        hi = tuple(floor(n * high) for _, high in self._vertex_range)
        return lo, hi

    def enclosing_radius(self, n: int) -> int:
        """Max-norm radius of the bounding box of the n-fold dilation."""
        lo, hi = self.bounding_box(n)
        return max(max(abs(a), abs(b)) for a, b in zip(lo, hi))


class IndexSet(Value, eq=False):
    """Lexicographically sorted, duplicate-free finite subset of the lattice.

    The points are stored once, as the rows of the (k, N) int64 `array`;
    `points` builds Python tuples from it on demand.
    """

    dimension: int
    array: np.ndarray

    @classmethod
    def from_array(cls, dimension: int, points: np.ndarray) -> "IndexSet":
        """Index set of the distinct rows of a (k, N) int64 array."""
        points = _point_array(points, dimension)
        points = points[np.lexsort(points.T[::-1])]
        distinct = np.ones(len(points), dtype=bool)
        distinct[1:] = np.any(points[1:] != points[:-1], axis=1)
        return cls(dimension, points[distinct])

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The rows of `array` as tuples of Python ints."""
        return tuple(map(tuple, self.array.tolist()))

    @cached_property
    def _key_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, weights, sorted keys) of the mixed-radix keys over the bounding box.

        Raises ValueError when `array` is not strictly increasing
        lexicographically, since a binary search over its keys would then
        miss points.
        """
        arr = self.array
        lo, hi = arr.min(axis=0), arr.max(axis=0)
        weights = _mixed_radix(lo, hi)
        keys = (arr - lo) @ weights
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("index set points are not sorted and duplicate-free")
        return lo, hi, weights, keys

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Position of each row of a (k, N) int64 array in `array`, -1 where absent."""
        points = _point_array(points, self.dimension)
        if not len(self) or not len(points):
            return np.full(len(points), -1, dtype=np.intp)
        lo, hi, weights, keys = self._key_frame
        inside = np.all((points >= lo) & (points <= hi), axis=1)
        query = (np.clip(points, lo, hi) - lo) @ weights
        found = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return np.where(inside & (keys[found] == query), found, -1)

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)


# ---------------------------------------------------------------------------
# exact polytope kernel (integer rays; Fractions only for the vertices)
# ---------------------------------------------------------------------------


def _polytope_vertices(
    constraints: Sequence[tuple[Sequence, Fraction]], dim: int
) -> list[tuple[Fraction, ...]] | None:
    """Exact vertices of the polyhedron {x : a.x <= b for all (a, b)}, as Fractions.

    Motzkin's double description (Fukuda and Prodon, LNCS 1120, 1996) of
    the cone {y = (x, t) : h.y <= 0} of the integer rows h = (0, -1) and
    h = (a, -b), for t >= 0, from the whole space, the dim + 1 unit lines:
    a row that meets a line turns it into a ray and moves the rest onto its
    hyperplane, and each further row cuts the cone, keeping the rays on its
    feasible side and joining each cut ray to each adjacent kept one.  Rays
    are primitive integer tuples, and each ray's tight rows an int bitmask;
    two rays are adjacent when no third is tight on every row both are.
    Returns None when the normals a do not positively span, so that the
    polyhedron, unless empty, does not end in some direction; [] for an
    empty polyhedron otherwise.
    """
    rows = [(0,) * dim + (-1,)] + [_primitive((*a, -b)) for a, b in constraints]
    lines = [tuple(int(j == k) for j in range(dim + 1)) for k in range(dim + 1)]
    rays, cuts, tight = [], [], 0
    for i, h in enumerate(rows):
        p = next((q for q in lines if _dot(h, q)), None)
        if p is None:
            cuts.append((i, h))
            continue
        lines.remove(p)
        if _dot(h, p) > 0:
            p = tuple(-c for c in p)  # the ray on h's feasible side
        s = -_dot(h, p)

        def onto(r):  # s * r + (h.r) * p, on h.y = 0
            return _primitive([s * x + _dot(h, r) * y for x, y in zip(r, p)])

        rays = [(onto(r), z | 1 << i) for r, z in rays] + [(p, tight)]
        lines = [onto(q) for q in lines]
        tight |= 1 << i  # each ray is tight on every row that met a line but its own
    if lines:
        return None  # the cone holds a line
    for i, h in cuts:
        cut = [(_dot(h, r), r, z) for r, z in rays]
        masks = [z for _, z in rays]
        kept = [(r, z | 1 << i if s == 0 else z) for s, r, z in cut if s <= 0]
        for sp, p, zp in cut:
            for sm, m, zm in cut if sp > 0 else ():
                common = zp & zm
                if sm < 0 and common.bit_count() >= dim - 1 and (
                    sum(common & z == common for z in masks) == 2  # no third ray
                ):
                    join = [sp * y - sm * x for x, y in zip(p, m)]  # on the cut's hyperplane
                    kept.append((_primitive(join), common | 1 << i))
        rays = kept
    if any(r[-1] == 0 for r, _ in rays):
        return None  # a ray of the recession cone
    return [tuple(Fraction(c, r[-1]) for c in r[:-1]) for r, _ in rays]


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------


def validate_domain(
    facets: Iterable | None = None,
    vertices: Iterable | None = None,
    dimension: int | None = None,
    name: str = "",
) -> StarlikeDomain:
    """Build and validate a domain from facet data or a vertex list.

    Facets are (normal, offset) or (normal, offset, closed) triples with
    rational entries (ints, Fractions or "p/q" strings).  A vertex list V,
    in any dimension, must positively span, which holds exactly when 0 is
    interior to its convex hull P, and exactly when its polar
    {y : v.y <= 1 for all v in V} is bounded.  P's facets are then the
    closed y.x <= 1, one per vertex y of the polar, in sorted order.  Both
    the polar's vertices and the domain's come from _polytope_vertices,
    whose None means unbounded.  The domain stores each facet once, as its
    integer row (see _integer_row).

    Raises ValueError for a dimension below 1, ZeroNotInteriorError when 0
    is not interior (a vertex list that does not positively span, or a
    facet offset <= 0) and UnboundedDomainError when the facet normals do
    not positively span.
    """
    if (facets is None) == (vertices is None):
        raise ValueError("provide exactly one of facets or vertices")

    kind = "vertex" if facets is None else "facet"
    if facets is None:
        vectors = [tuple(_frac(c) for c in v) for v in vertices]
    else:
        facet_list = []
        for item in facets:
            normal, offset, *rest = item
            closed = rest[0] if rest else True
            facet_list.append((tuple(_frac(c) for c in normal), _frac(offset), bool(closed)))
        vectors = [normal for normal, _, _ in facet_list]
    if not vectors:
        raise ValueError(f"empty {kind} list")
    dim = len(vectors[0]) if dimension is None else dimension
    if dim < 1:
        raise ValueError(f"a domain needs dimension >= 1, got {dim}")
    if any(len(v) != dim for v in vectors):
        raise ValueError(f"inconsistent {kind} dimensions")

    if facets is None:
        one = Fraction(1)
        polar = _polytope_vertices([(v, one) for v in vectors], dim)
        if polar is None:
            raise ZeroNotInteriorError("origin is not interior to the hull of the vertices")
        facet_list = [(y, one, True) for y in sorted(polar)]

    if any(not closed for _, _, closed in facet_list) and dim > 1:
        raise OpenFacetError("open facets are supported in dimension 1 only")

    for normal, offset, _ in facet_list:
        if offset <= 0:  # normal.0 = 0 must satisfy the facet strictly
            raise ZeroNotInteriorError(
                f"origin is not interior to facet [{', '.join(map(str, normal))}] . x <= {offset}"
            )

    rows = tuple(_integer_row(normal, offset) + (closed,) for normal, offset, closed in facet_list)
    verts = _polytope_vertices([(a, b) for a, b, _ in rows], dim)
    if verts is None:
        raise UnboundedDomainError("facet normals do not positively span the space")
    return StarlikeDomain(dim, rows, tuple(sorted(verts)), name=name)


# ---------------------------------------------------------------------------
# lattice sections
# ---------------------------------------------------------------------------


def _last_coordinate_range(
    rows: Sequence[FacetRow], n: int, prefix: Point
) -> tuple[int, int] | None:
    """Exact integer range of the last coordinate over the dilation of `rows` at `prefix`.

    A row with last coefficient 0 is skipped: it bounds the projection one
    level up too, which holds every prefix the walk reaches.
    """
    lo = hi = None
    for a, b, closed in rows:
        bound = n * b - sum(ai * xi for ai, xi in zip(a, prefix))
        a_last = a[-1]
        if a_last > 0:  # x <= bound / a_last, strictly below it when open
            q, r = divmod(bound, a_last)
            cand = q - 1 if not closed and r == 0 else q
            hi = cand if hi is None else min(hi, cand)
        elif a_last < 0:  # x >= bound / a_last, strictly above it when open
            q, r = divmod(bound, -a_last)
            cand = 1 - q if not closed and r == 0 else -q
            lo = cand if lo is None else max(lo, cand)
    assert lo is not None and hi is not None  # boundedness guarantees both sides
    return None if lo > hi else (lo, hi)


def _rows(domain: StarlikeDomain, n: int, prefix: Point = ()) -> Iterator[Point]:
    """Each nonempty row of window n under `prefix`, lexicographically, as prefix + (lo, hi).

    The row holds the points prefix + (x,) with lo <= x <= hi.  Coordinate k
    ranges over the dilated projection onto the first k coordinates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _last_coordinate_range(domain._projections[len(prefix)], n, prefix)
    if rng is not None and len(prefix) + 1 == domain.dimension:
        yield prefix + rng
    elif rng is not None:
        for x in range(rng[0], rng[1] + 1):
            yield from _rows(domain, n, prefix + (x,))


def lattice_section(domain: StarlikeDomain, n: int) -> IndexSet:
    """All lattice points of the n-fold dilation, in lexicographic order."""
    # one int64 row prefix + (lo, hi) per window row, and no Python object per row;
    # never empty, since the origin is interior
    rows = np.fromiter(itertools.chain.from_iterable(_rows(domain, n)), dtype=np.int64)
    rows = rows.reshape(-1, domain.dimension + 1)
    counts = rows[:, -1] - rows[:, -2] + 1
    points = np.repeat(rows[:, :-1], counts, axis=0)  # each point's prefix and row's lo
    points[:, -1] += np.arange(len(points))
    points[:, -1] -= np.repeat(np.cumsum(counts) - counts, counts)
    return IndexSet(domain.dimension, points)


def _count_section(domain: StarlikeDomain, n: int, limit: int | None) -> tuple[int, bool]:
    """Points of window n, and whether all were counted: the walk stops past `limit`."""
    total = 0
    for row in _rows(domain, n):
        if limit is not None and total > limit:
            return total, False
        total += row[-1] - row[-2] + 1
    return total, True


# ---------------------------------------------------------------------------
# boundary layers
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)


def _box_touches_boundary(domain: StarlikeDomain, n: int, z: Point) -> bool:
    """Whether the half-open unit box z + [-1/2, 1/2)^N meets the dilation boundary.

    The box B meets the boundary of the closed polytope P iff B meets P and
    B is not contained in the interior of P (both sets are convex).  The
    half-open sides of B are handled exactly: the closure of B meets P in a
    polytope Q, and B itself misses P only when Q lies inside one of the
    excluded upper faces {x_j = z_j + 1/2}.
    """
    dim = domain.dimension
    inside_all = True
    possibly_meets = True
    for a, b, _ in domain.facets:
        sup = Fraction(0)
        inf = Fraction(0)
        attained = True
        for c, zj in zip(a, z):
            if c > 0:
                sup += c * (zj + _HALF)
                inf += c * (zj - _HALF)
                attained = False  # upper side of the box is excluded
            elif c < 0:
                sup += c * (zj - _HALF)
                inf += c * (zj + _HALF)
        bound = n * b
        if not (sup < bound or (sup == bound and not attained)):
            inside_all = False
        if inf > bound:
            possibly_meets = False  # whole closed box beyond this facet
    if inside_all:
        return False
    if not possibly_meets:
        return False

    box = [(tuple(s * (k == j) for k in range(dim)), s * z[j] + _HALF)
           for j in range(dim) for s in (1, -1)]  # s * x_j <= s * z_j + 1/2
    verts = _polytope_vertices([(a, n * b) for a, b, _ in domain.facets] + box, dim)
    # Q is not empty, and not inside an excluded face
    return bool(verts) and not any(all(v[j] == z[j] + _HALF for v in verts) for j in range(dim))


def boundary_layer(domain: StarlikeDomain, n: int) -> IndexSet:
    """Lattice points z whose box z + (-1/2, 1/2]^N shifted hits n times the boundary.

    Defined for closed facets only; the layer is the set of z with
    z - h on the dilated boundary for some h in (-1/2, 1/2]^N.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not domain.all_closed:
        raise OpenFacetError("boundary layer is undefined for open facets")
    lo, hi = domain.bounding_box(n)
    ranges = [range(lo[j] - 1, hi[j] + 2) for j in range(domain.dimension)]
    points = [
        z for z in itertools.product(*ranges) if _box_touches_boundary(domain, n, z)
    ]
    return IndexSet(domain.dimension, _point_array(points, domain.dimension))
