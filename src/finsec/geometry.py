"""Exact lattice geometry: scaled polytope sections and boundary layers.

Domains are convex polytopes with rational facet data and the origin in
their interior.  All membership decisions are made in exact rational
(integer, after clearing denominators) arithmetic, never in floating
point, so section index sets are reproducible bit-for-bit.  An index set
stores its points once, as the rows of a sorted (k, N) int64 array, and
array lookups refuse point sets whose integer keys would leave int64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import OpenFacetError, UnboundedDomainError, ZeroNotInteriorError

Point = tuple[int, ...]

__all__ = [
    "Point",
    "Facet",
    "StarlikeDomain",
    "IndexSet",
    "validate_domain",
    "lattice_section",
    "lattice_section_size",
    "boundary_layer",
]


def _frac(value) -> Fraction:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"domain data must be exact rationals, got float {value!r}")
    return Fraction(value)


def _dot(a: Sequence[Fraction], x: Sequence) -> Fraction:
    return sum((ai * xi for ai, xi in zip(a, x)), start=Fraction(0))


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


@dataclass(frozen=True)
class Facet:
    """Half-space {x : normal.x <= offset}, strict inequality when closed=False."""

    normal: tuple[Fraction, ...]
    offset: Fraction
    closed: bool = True

    def scaled_integer(self) -> tuple[tuple[int, ...], int]:
        """Equivalent integer form (A, B) with A.x <= n*B describing normal.x <= n*offset."""
        denoms = [c.denominator for c in self.normal] + [self.offset.denominator]
        lcm = 1
        for d in denoms:
            lcm = lcm * d // gcd(lcm, d)
        a = tuple(int(c * lcm) for c in self.normal)
        b = int(self.offset * lcm)
        common = gcd(abs(b), *(abs(c) for c in a)) if any(a) else 1
        if common > 1:
            a = tuple(c // common for c in a)
            b //= common
        return a, b


@dataclass(frozen=True)
class StarlikeDomain:
    """Bounded convex polytope containing 0 in its interior.

    `vertices` are the vertices of the closure, kept for bounding boxes
    and provenance.  Scaling by n keeps facet data exact: x is in the
    n-fold dilation iff normal.x <= n*offset per facet.
    """

    dimension: int
    facets: tuple[Facet, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    name: str = ""

    @cached_property
    def _integer_facets(self) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
        return tuple(f.scaled_integer() + (f.closed,) for f in self.facets)

    @property
    def all_closed(self) -> bool:
        return all(f.closed for f in self.facets)

    def contains_array(self, points: np.ndarray, n: int) -> np.ndarray:
        """Boolean mask of the rows of a (k, N) int64 array inside the n-fold dilation."""
        inside = np.ones(len(points), dtype=bool)
        if not len(points):
            return inside
        reach = max(abs(int(points.min())), abs(int(points.max())))
        for a, b, closed in self._integer_facets:
            # exact Python integers where a facet product could leave int64
            dtype = np.int64 if reach * sum(abs(c) for c in a) <= _INT64_MAX else object
            s = points.astype(dtype, copy=False) @ np.array(a, dtype=dtype)
            inside &= s <= n * b if closed else s < n * b
        return inside

    def holds_shifts(self, n: int, offsets: Sequence[Sequence[int]], m: int) -> bool:
        """Sufficient test that window m holds every shift of window n by an offset.

        Per integer facet A.x <= n*B: A.(p + d) <= n*B + A.d <= m*B for
        every offset d when (m - n)*B >= max_d A.d, strictly so for an open
        facet.
        """
        return all(
            (m - n) * b >= max((_dot(a, d) for d in offsets), default=0)
            for a, b, _ in self._integer_facets
        )

    def bounding_box(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integer box (lo, hi) containing every lattice point of the n-fold dilation."""
        lo = []
        hi = []
        for j in range(self.dimension):
            coords = [v[j] for v in self.vertices]
            lo.append(_ceil_frac(n * min(coords)))
            hi.append(_floor_frac(n * max(coords)))
        return tuple(lo), tuple(hi)

    def enclosing_radius(self, n: int) -> int:
        """Max-norm radius of the bounding box of the n-fold dilation."""
        lo, hi = self.bounding_box(n)
        return max(max(abs(a), abs(b)) for a, b in zip(lo, hi))


@dataclass(frozen=True, eq=False)
class IndexSet:
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.dimension == other.dimension
            and np.array_equal(self.array, other.array)
        )


# ---------------------------------------------------------------------------
# exact linear algebra helpers (Fractions throughout)
# ---------------------------------------------------------------------------


def _row_reduce(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Reduced row echelon form of a rational matrix over its first ncols columns.

    Returns the reduced rows (copies, with any columns past ncols carried
    along) and the pivot columns in increasing order.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
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
    return rows, pivots


def _solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a square rational system; None if singular."""
    n = len(rows)
    reduced, pivots = _row_reduce([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(reduced[r][n] for r in range(n))


def _rank(vectors: Sequence[Sequence[Fraction]], dim: int) -> int:
    return len(_row_reduce(vectors, dim)[1])


def _null_direction(vectors: Sequence[Sequence[Fraction]], dim: int):
    """A nonzero direction orthogonal to all `vectors`, expected rank dim-1; None otherwise."""
    rows, pivots = _row_reduce(vectors, dim)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    direction = [Fraction(0)] * dim
    direction[free] = Fraction(1)
    for r, col in enumerate(pivots):
        direction[col] = -rows[r][free]
    return tuple(direction)


def _feasible_vertices(
    constraints: Sequence[tuple[tuple[Fraction, ...], Fraction]], dim: int
) -> list[tuple[Fraction, ...]]:
    """Vertices of the (assumed bounded) polyhedron {x : a.x <= b for all (a, b)}."""
    seen: set[tuple[Fraction, ...]] = set()
    out: list[tuple[Fraction, ...]] = []
    for combo in itertools.combinations(constraints, dim):
        pt = _solve_exact([c[0] for c in combo], [c[1] for c in combo])
        if pt is None or pt in seen:
            continue
        if all(_dot(a, pt) <= b for a, b in constraints):
            seen.add(pt)
            out.append(pt)
    return out


def _is_bounded(normals: Sequence[tuple[Fraction, ...]], dim: int) -> bool:
    """True iff the recession cone {x : a.x <= 0 for all a} is trivial."""
    if _rank(normals, dim) < dim:
        return False
    for subset in itertools.combinations(normals, dim - 1):
        direction = _null_direction(subset, dim) if subset else tuple(
            Fraction(1) if j == 0 else Fraction(0) for j in range(dim)
        )
        if direction is None:
            continue
        for cand in (direction, tuple(-c for c in direction)):
            if all(_dot(a, cand) <= 0 for a in normals):
                return False
    return True


def _floor_frac(q: Fraction) -> int:
    return q.numerator // q.denominator


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------


def _hull_facets_1d(vertices: list[tuple[Fraction, ...]]) -> list[Facet]:
    xs = [v[0] for v in vertices]
    lo, hi = min(xs), max(xs)
    if lo == hi:
        raise ZeroNotInteriorError("vertex set has empty interior")
    return [
        Facet((Fraction(1),), hi),
        Facet((Fraction(-1),), -lo),
    ]


def _hull_facets_2d(vertices: list[tuple[Fraction, ...]]) -> list[Facet]:
    # Andrew's monotone chain over exact rational points.
    pts = sorted(set(vertices))
    if len(pts) < 3:
        raise ZeroNotInteriorError("vertex set has empty interior")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[Fraction, ...]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[Fraction, ...]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]  # counter-clockwise
    if len(hull) < 3:
        raise ZeroNotInteriorError("vertex set has empty interior")
    facets = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        dx, dy = q[0] - p[0], q[1] - p[1]
        normal = (dy, -dx)  # outward for counter-clockwise orientation
        facets.append(Facet(normal, _dot(normal, p)))
    return facets


def validate_domain(
    facets: Iterable | None = None,
    vertices: Iterable | None = None,
    dimension: int | None = None,
    name: str = "",
) -> StarlikeDomain:
    """Build and validate a domain from facet data or a vertex list.

    Facets are (normal, offset) or (normal, offset, closed) triples with
    rational entries (ints, Fractions or "p/q" strings).  A vertex list is
    converted to facets via its exact convex hull (dimension <= 2).

    Raises ZeroNotInteriorError when 0 fails some facet strictly and
    UnboundedDomainError when the normals do not positively span.
    """
    if (facets is None) == (vertices is None):
        raise ValueError("provide exactly one of facets or vertices")

    if vertices is not None:
        vlist = [tuple(_frac(c) for c in v) for v in vertices]
        if not vlist:
            raise ValueError("empty vertex list")
        dim = dimension or len(vlist[0])
        if any(len(v) != dim for v in vlist):
            raise ValueError("inconsistent vertex dimensions")
        if dim == 1:
            facet_list = _hull_facets_1d(vlist)
        elif dim == 2:
            facet_list = _hull_facets_2d(vlist)
        else:
            raise ValueError(
                "vertex input is supported for dimension <= 2; give facets directly"
            )
    else:
        facet_list = []
        for item in facets:
            if isinstance(item, Facet):
                facet_list.append(item)
                continue
            normal, offset, *rest = item
            closed = rest[0] if rest else True
            facet_list.append(
                Facet(tuple(_frac(c) for c in normal), _frac(offset), bool(closed))
            )
        if not facet_list:
            raise ValueError("empty facet list")
        dim = dimension or len(facet_list[0].normal)
        if any(len(f.normal) != dim for f in facet_list):
            raise ValueError("inconsistent facet dimensions")

    if any(not f.closed for f in facet_list) and dim > 1:
        raise OpenFacetError("open facets are supported in dimension 1 only")

    for f in facet_list:
        if f.offset <= 0:  # normal.0 = 0 must satisfy the facet strictly
            raise ZeroNotInteriorError(
                f"origin is not interior to facet {f.normal} . x <= {f.offset}"
            )

    normals = [f.normal for f in facet_list]
    if not _is_bounded(normals, dim):
        raise UnboundedDomainError("facet normals do not positively span the space")

    closure = [(f.normal, f.offset) for f in facet_list]
    verts = _feasible_vertices(closure, dim)
    if not verts:
        raise ZeroNotInteriorError("facets admit no vertex; domain is degenerate")
    return StarlikeDomain(dim, tuple(facet_list), tuple(sorted(verts)), name=name)


# ---------------------------------------------------------------------------
# lattice sections
# ---------------------------------------------------------------------------


def _last_coordinate_range(
    domain: StarlikeDomain, n: int, prefix: tuple[int, ...]
) -> tuple[int, int] | None:
    """Exact integer range of the last coordinate over the dilation at `prefix`."""
    lo = None
    hi = None
    for a, b, closed in domain._integer_facets:
        s = sum(ai * xi for ai, xi in zip(a, prefix))
        a_last = a[-1]
        bound = n * b - s
        if a_last == 0:
            if s > n * b or (not closed and s == n * b):
                return None
        elif a_last > 0:  # x <= bound / a_last, strictly below it when open
            q, r = divmod(bound, a_last)
            cand = q - 1 if not closed and r == 0 else q
            hi = cand if hi is None else min(hi, cand)
        else:  # x >= bound / a_last, strictly above it when open
            q, r = divmod(bound, -a_last)
            cand = 1 - q if not closed and r == 0 else -q
            lo = cand if lo is None else max(lo, cand)
    assert lo is not None and hi is not None  # boundedness guarantees both sides
    if lo > hi:
        return None
    return lo, hi


def _rows(domain: StarlikeDomain, n: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each nonempty row of window n, in lexicographic order, as (prefix, lo, hi).

    The row holds the points prefix + (x,) with lo <= x <= hi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = domain.bounding_box(n)
    ranges = [range(lo[j], hi[j] + 1) for j in range(domain.dimension - 1)]
    for prefix in itertools.product(*ranges):
        rng = _last_coordinate_range(domain, n, prefix)
        if rng is not None:
            yield prefix, *rng


def lattice_section(domain: StarlikeDomain, n: int) -> IndexSet:
    """All lattice points of the n-fold dilation, in lexicographic order."""
    rows = list(_rows(domain, n))  # never empty: the origin is interior
    counts = [hi - lo + 1 for _, lo, hi in rows]
    points = np.empty((sum(counts), domain.dimension), dtype=np.int64)
    prefixes = np.array([prefix for prefix, _, _ in rows], dtype=np.int64)
    points[:, :-1] = np.repeat(prefixes.reshape(len(rows), -1), counts, axis=0)
    points[:, -1] = np.concatenate([np.arange(lo, hi + 1) for _, lo, hi in rows])
    return IndexSet(domain.dimension, points)


def _count_section(domain: StarlikeDomain, n: int, limit: int | None) -> int:
    """Points of window n, counted row by row until the count passes `limit`."""
    total = 0
    for _, lo, hi in _rows(domain, n):
        total += hi - lo + 1
        if limit is not None and total > limit:
            break
    return total


def lattice_section_size(domain: StarlikeDomain, n: int) -> int:
    """Exact cardinality of lattice_section(domain, n) without materializing it."""
    return _count_section(domain, n, None)


def _section_exceeds(domain: StarlikeDomain, n: int, limit: int) -> bool:
    """Whether window n holds more than `limit` points; stops counting once it does."""
    return _count_section(domain, n, limit) > limit


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
    for f in domain.facets:
        sup = Fraction(0)
        inf = Fraction(0)
        attained = True
        for c, zj in zip(f.normal, z):
            if c > 0:
                sup += c * (zj + _HALF)
                inf += c * (zj - _HALF)
                attained = False  # upper side of the box is excluded
            elif c < 0:
                sup += c * (zj - _HALF)
                inf += c * (zj + _HALF)
        bound = n * f.offset
        if not (sup < bound or (sup == bound and not attained)):
            inside_all = False
        if inf > bound:
            possibly_meets = False  # whole closed box beyond this facet
    if inside_all:
        return False
    if not possibly_meets:
        return False

    constraints: list[tuple[tuple[Fraction, ...], Fraction]] = [
        (f.normal, n * f.offset) for f in domain.facets
    ]
    for j in range(dim):
        e_pos = tuple(Fraction(int(k == j)) for k in range(dim))
        e_neg = tuple(-c for c in e_pos)
        constraints.append((e_pos, z[j] + _HALF))
        constraints.append((e_neg, -(z[j] - _HALF)))
    verts = _feasible_vertices(constraints, dim)
    if not verts:
        return False
    for j in range(dim):
        top = z[j] + _HALF
        if all(v[j] == top for v in verts):
            return False  # intersection lies entirely in an excluded face
    return True


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
