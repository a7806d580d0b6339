"""Independent brute-force oracles used to freeze expected values in tests.

Nothing in here touches LAPACK or the package's numeric kernels: the
singular-value oracle runs entirely in exact integer/rational arithmetic
(characteristic polynomial + Sturm-chain bisection on the Gram matrix),
and the geometry oracles enumerate bounding boxes directly against the
facet inequalities: point by point, and row by row over every prefix
of the box as the reference for the walk through the domain's
projections.  The identity operator, whose sections are known
exactly, is built here from one constant diagonal, the diagonal table
of an adjacency graph edge by edge, as the reference for its swap, and
the square adjacency solve over its whole window, as the reference for
the solve that moves only the right-hand side's support.  The convex
hulls of 1-D and 2-D point sets, by min/max and by Andrew's monotone
chain, and the vertices of polytopes in any dimension, by solving every
dim-subset of their constraints, are the reference for the double
description behind validate_domain and boundary_layer; the same double
description seeded from a row basis by Gauss-Jordan is the reference for
its seed from the whole space.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from finsec import (
    BandDiagonals,
    SupportedVector,
    TableRule,
    UnboundedDomainError,
    ZeroNotInteriorError,
    lattice_section,
)
from finsec.fsm import inverse_norm


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def identity_operator(dimension: int = 1) -> BandDiagonals:
    """The identity on Z^dimension: the constant diagonal 1 at offset zero."""
    zero = (0,) * dimension
    return BandDiagonals.from_rules(dimension, {zero: TableRule((), 1.0 + 0j)})


def adjacency_diagonals(graph):
    """(offset, rule) diagonals of an adjacency graph's matrix, sorted by offset.

    Built edge by edge: offset 0 holds 0 at edge ends and 1 elsewhere, and
    offset d holds 1 at row i of each edge {i, i - d}.
    """
    zero = (0,) * graph.dimension
    rows = {zero: []}
    ends = list(map(tuple, graph.edge_array.tolist()))
    for i, j in zip(ends[0::2], ends[1::2]):
        rows[zero] += [(i, 0j), (j, 0j)]
        rows.setdefault(tuple(a - b for a, b in zip(i, j)), []).append((i, 1.0 + 0j))
        rows.setdefault(tuple(b - a for a, b in zip(i, j)), []).append((j, 1.0 + 0j))
    return tuple(
        (d, TableRule(tuple(sorted(table)), 1.0 + 0j if d == zero else 0j))
        for d, table in sorted(rows.items())
    )


def window_swap_solve(graph, rhs, domain, n):
    """fsm_solve of an adjacency graph by swapping b over the whole window n.

    b is placed in the window, inverse_norm takes the verdict (raising on a
    singular window), and the entries at the two ends of each edge inside
    trade places; + 0.0 clears the -0.0 parts.
    """
    window = lattice_section(domain, n)
    b = rhs.to_array(window)
    inverse_norm(graph, domain, n)
    ends = window.locate(graph.edge_array).reshape(-1, 2)
    ends = ends[ends[:, 0] >= 0]
    b[ends] = b[ends[:, ::-1]]
    return SupportedVector.from_array(window, b + 0.0)


# ---------------------------------------------------------------------------
# lattice enumeration oracle
# ---------------------------------------------------------------------------


def in_dilation(facets, point, n):
    """Whether `point` lies in the n-fold dilation, straight from the half-space definition.

    `facets` are (normal, offset, closed) triples.
    """
    for normal, offset, closed in facets:
        s = sum(Fraction(a) * x for a, x in zip(normal, point))
        bound = n * Fraction(offset)
        if s > bound or (not closed and s == bound):
            return False
    return True


def brute_force_section(facets, n, radius):
    """All integer points of the n-fold dilation inside a max-norm box, tested point by point."""
    dim = len(facets[0][0])
    box = itertools.product(range(-radius, radius + 1), repeat=dim)
    return sorted(p for p in box if in_dilation(facets, p, n))


# ---------------------------------------------------------------------------
# row walk oracle: every prefix of the bounding box
# ---------------------------------------------------------------------------


def box_row_range(domain, n, prefix):
    """Exact integer range of the last coordinate over window n at any `prefix`.

    Every facet of the domain is read, and one whose last coefficient is 0
    decides alone whether the prefix has a row at all.
    """
    lo = hi = None
    for a, b, closed in domain.facets:
        s = sum(ai * xi for ai, xi in zip(a, prefix))
        bound = n * b - s
        if a[-1] == 0:
            if s > n * b or (not closed and s == n * b):
                return None
        elif a[-1] > 0:  # x <= bound / a_last, strictly below it when open
            q, r = divmod(bound, a[-1])
            cand = q - 1 if not closed and r == 0 else q
            hi = cand if hi is None else min(hi, cand)
        else:  # x >= bound / a_last, strictly above it when open
            q, r = divmod(bound, -a[-1])
            cand = 1 - q if not closed and r == 0 else -q
            lo = cand if lo is None else max(lo, cand)
    return None if lo > hi else (lo, hi)


def box_rows(domain, n):
    """Each nonempty row of window n as prefix + (lo, hi), over every prefix of the box.

    The walk geometry._rows replaced: it tries each prefix of the bounding
    box, so a domain whose prefix slices are mostly empty costs its box.
    """
    lo, hi = domain.bounding_box(n)
    for prefix in itertools.product(*(range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1]))):
        rng = box_row_range(domain, n, prefix)
        if rng is not None:
            yield prefix + rng


def box_section(domain, n):
    """The points of window n, in lexicographic order, from the box walk's rows."""
    return [row[:-2] + (x,) for row in box_rows(domain, n) for x in range(row[-2], row[-1] + 1)]


def box_count(domain, n, limit):
    """geometry._count_section over the box walk: (points, complete), stopped past `limit`."""
    total = 0
    for row in box_rows(domain, n):
        if limit is not None and total > limit:
            return total, False
        total += row[-1] - row[-2] + 1
    return total, True


# ---------------------------------------------------------------------------
# convex hull oracle (1-D and 2-D rational points)
# ---------------------------------------------------------------------------


def hull_facets(points):
    """Facets (normal, offset) of the convex hull of 1-D or 2-D rational points.

    Each facet is normal.x <= offset with an outward normal; None when the
    hull has empty interior.
    """
    points = [tuple(map(Fraction, p)) for p in points]
    if len(points[0]) == 1:
        lo, hi = min(points)[0], max(points)[0]
        return None if lo == hi else [((Fraction(1),), hi), ((Fraction(-1),), -lo)]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(pts):
        out = []
        for p in pts:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    pts = sorted(set(points))
    hull = chain(pts) + chain(reversed(pts))  # counter-clockwise
    if len(hull) < 3:
        return None
    facets = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        normal = (q[1] - p[1], p[0] - q[0])  # outward for counter-clockwise order
        facets.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return facets


# ---------------------------------------------------------------------------
# polytope oracle: every dim-subset of the constraints, in Fractions
# ---------------------------------------------------------------------------


def row_reduce(vectors, dim):
    """Reduced row echelon form over the first dim columns, and its pivot columns.

    The Gauss-Jordan loop that geometry._row_reduce replaced; columns past
    dim are carried along.
    """
    rows = [list(v) for v in vectors]
    pivots = []
    for col in range(dim):
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


def _dot(a, x):
    return sum((Fraction(ai) * xi for ai, xi in zip(a, x)), Fraction(0))


def _solve(rows, rhs):
    """The solution of a square rational system; None if singular."""
    n = len(rows)
    augmented = [[*map(Fraction, r), Fraction(b)] for r, b in zip(rows, rhs)]
    reduced, pivots = row_reduce(augmented, n)
    return tuple(reduced[r][n] for r in range(n)) if len(pivots) == n else None


def _null_direction(vectors, dim):
    """A nonzero direction orthogonal to `vectors` of rank dim - 1; None otherwise."""
    rows, pivots = row_reduce([[Fraction(c) for c in v] for v in vectors], dim)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    direction = [Fraction(0)] * dim
    direction[free] = Fraction(1)
    for r, col in enumerate(pivots):
        direction[col] = -rows[r][free]
    return tuple(direction)


def feasible_vertices(constraints, dim):
    """Vertices of the bounded polyhedron {x : a.x <= b for all (a, b)}, as Fractions.

    Each dim-subset of the constraints is solved as equations, and a
    solution that meets every constraint is a vertex.
    """
    found = set()
    for combo in itertools.combinations(constraints, dim):
        point = _solve([a for a, _ in combo], [b for _, b in combo])
        if point is not None and all(_dot(a, point) <= b for a, b in constraints):
            found.add(point)
    return sorted(found)


def positively_spans(normals, dim):
    """Whether {x : a.x <= 0 for every normal a} is {0}.

    It is not when the normals have rank below dim, or when a direction
    orthogonal to some dim - 1 of them, or its negative, meets them all.
    """
    if len(row_reduce([[Fraction(c) for c in a] for a in normals], dim)[1]) < dim:
        return False
    for subset in itertools.combinations(normals, dim - 1):
        direction = _null_direction(subset, dim) if subset else (Fraction(1),)
        for cand in (direction, tuple(-c for c in direction)) if direction else ():
            if all(_dot(a, cand) <= 0 for a in normals):
                return False
    return True


def _primitive(v):
    scale = math.lcm(*(Fraction(c).denominator for c in v))
    v = [int(c * scale) for c in v]
    common = math.gcd(*v) or 1
    return tuple(c // common for c in v)


def rref_polytope_vertices(constraints, dim):
    """The double description kernel seeded from a row basis by Gauss-Jordan.

    The cone {y = (x, t) : h.y <= 0} of the rows h = (0, -1) and h = (a, -b)
    starts as the simplicial cone of the first dim + 1 independent rows B,
    the columns of -H_B^-1 from row_reduce, and takes one cut per further
    row, in index order, as geometry._polytope_vertices does.  The reference
    for that kernel's seed from the whole space: the same list, in the same
    order, with None for a cone that holds a line or a recession ray.
    """
    rows = [(0,) * dim + (-1,)] + [_primitive((*a, -b)) for a, b in constraints]
    basis = row_reduce([[Fraction(c) for c in col] for col in zip(*rows)], len(rows))[1]
    if len(basis) <= dim:
        return None
    augmented = [[*map(Fraction, rows[i]), *(Fraction(i == j) for j in basis)] for i in basis]
    inverse = row_reduce(augmented, dim + 1)[0]
    tight = sum(1 << i for i in basis)
    rays = [
        (_primitive([-row[dim + 1 + k] for row in inverse]), tight & ~(1 << i))
        for k, i in enumerate(basis)
    ]
    for i in sorted(set(range(len(rows))) - set(basis)):
        cut = [(sum(x * y for x, y in zip(rows[i], r)), r, z) for r, z in rays]
        masks = [z for _, z in rays]
        kept = [(r, z | 1 << i if s == 0 else z) for s, r, z in cut if s <= 0]
        for sp, p, zp in cut:
            for sm, m, zm in cut if sp > 0 else ():
                common = zp & zm
                if sm < 0 and common.bit_count() >= dim - 1 and (
                    sum(common & z == common for z in masks) == 2
                ):
                    join = [sp * y - sm * x for x, y in zip(p, m)]
                    kept.append((_primitive(join), common | 1 << i))
        rays = kept
    if any(r[-1] == 0 for r, _ in rays):
        return None
    return [tuple(Fraction(c, r[-1]) for c in r[:-1]) for r, _ in rays]


def enumerated_domain(facets=None, vertices=None):
    """(facets, vertices) of the domain validate_domain builds, by enumeration.

    Each facet is given as y with y.x <= 1, sorted; a vertex list's facets
    come from the vertices y of its polar {y : v.y <= 1}.  Raises
    ZeroNotInteriorError and UnboundedDomainError with validate_domain's
    messages.  Facets are (normal, offset, ...) with exact entries; a
    closed flag is ignored.
    """
    if vertices is not None:
        vertices = [tuple(map(Fraction, v)) for v in vertices]
        dim = len(vertices[0])
        if not positively_spans(vertices, dim):
            raise ZeroNotInteriorError("origin is not interior to the hull of the vertices")
        polar = feasible_vertices([(v, Fraction(1)) for v in vertices], dim)
        facets = [(y, Fraction(1)) for y in polar]
    facets = [(tuple(map(Fraction, normal)), Fraction(offset)) for normal, offset, *_ in facets]
    dim = len(facets[0][0])
    for normal, offset in facets:
        if offset <= 0:
            raise ZeroNotInteriorError(
                f"origin is not interior to facet [{', '.join(map(str, normal))}] . x <= {offset}"
            )
    if not positively_spans([normal for normal, _ in facets], dim):
        raise UnboundedDomainError("facet normals do not positively span the space")
    normalized = sorted(tuple(c / offset for c in normal) for normal, offset in facets)
    return normalized, feasible_vertices(facets, dim)


# ---------------------------------------------------------------------------
# exact singular-value oracle (integer matrices)
# ---------------------------------------------------------------------------


def real_embedding(matrix):
    """Real 2m x 2n integer image of a Gaussian-integer matrix.

    The embedding [[Re, -Im], [Im, Re]] has the same singular values as
    the complex matrix, each with doubled multiplicity.
    """
    re = [[int(v.real) for v in row] for row in matrix]
    im = [[int(v.imag) for v in row] for row in matrix]
    top = [r + [-x for x in i] for r, i in zip(re, im)]
    bot = [i + r for r, i in zip(re, im)]
    return top + bot


def gram_matrix(matrix):
    rows = len(matrix)
    cols = len(matrix[0])
    return [
        [sum(matrix[k][i] * matrix[k][j] for k in range(rows)) for j in range(cols)]
        for i in range(cols)
    ]


def charpoly(matrix):
    """Integer coefficients of det(xI - A), leading first (Faddeev-LeVerrier)."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        m = [
            [am[i][j] + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _poly_divmod(num, den):
    num = list(num)
    deg_d = len(den) - 1
    quot = []
    while len(num) - 1 >= deg_d and any(v != 0 for v in num):
        shift = len(num) - 1 - deg_d
        factor = num[0] / den[0]
        quot.append(factor)
        for i, dv in enumerate(den):
            num[i] -= factor * dv
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return num


def sturm_chain(coeffs):
    """Sturm sequence of an integer polynomial, each member integer-scaled."""
    p0 = [Fraction(c) for c in coeffs]
    p1 = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
    p1 = [Fraction(c) for c in p1]
    chain = [p0, p1]
    while len(chain[-1]) > 1:
        rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    out = []
    for poly in chain:
        lcm = 1
        for c in poly:
            lcm = lcm * c.denominator // _gcd(lcm, c.denominator)
        out.append([int(c * lcm) for c in poly])
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _sign_at(int_poly, x: Fraction) -> int:
    # sign of p(a/b) equals sign of sum c_i a^i b^(deg-i)
    a, b = x.numerator, x.denominator
    deg = len(int_poly) - 1
    total = 0
    for i, c in enumerate(int_poly):  # c is coefficient of x^(deg-i)
        total += c * a ** (deg - i) * b**i
    return (total > 0) - (total < 0)


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_roots_in(chain, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi); endpoints must not be roots."""
    return _variations(chain, lo) - _variations(chain, hi)


def _nonroot_between(chain, lo: Fraction, hi: Fraction) -> Fraction:
    # Sturm variation counts are only valid at non-roots of the polynomial
    # itself; probe lo + span/k until one misses the finitely many roots.
    span = hi - lo
    k = 2
    while True:
        x = lo + span / k
        if _sign_at(chain[0], x) != 0:
            return x
        k += 1


def extreme_eigenvalues(gram, rel_tol=Fraction(1, 10**13)):
    """(lambda_min, lambda_max) of an integer PSD matrix, by Sturm bisection.

    Exact zero detection: the matrix is singular iff the characteristic
    polynomial has zero constant coefficient.  Bisection endpoints are
    kept away from exact roots, so integer eigenvalues are safe.
    """
    coeffs = charpoly(gram)
    chain = sturm_chain(coeffs)
    below = Fraction(-1, 2)  # PSD: strictly below every eigenvalue
    upper = Fraction(1 + max(sum(abs(v) for v in row) for row in gram))
    total = count_roots_in(chain, below, upper)

    def smallest_with(target: int) -> Fraction:
        # converges to the target-th smallest distinct root, assumed > 0
        lo, hi = below, upper
        while not (lo > 0 and hi - lo <= rel_tol * hi):
            mid = _nonroot_between(chain, lo, hi)
            if count_roots_in(chain, below, mid) >= target:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    lam_min = Fraction(0) if coeffs[-1] == 0 else smallest_with(1)
    zero_matrix = all(c == 0 for c in coeffs[1:])
    lam_max = Fraction(0) if zero_matrix else smallest_with(total)
    return lam_min, lam_max


def singular_value_extremes(matrix):
    """(sigma_min, sigma_max) of an integer or Gaussian-integer matrix.

    sigma_min follows the square-matrix convention (smallest singular
    value); for complex input the real embedding doubles multiplicities
    without moving the extremes.
    """
    values = [[complex(v) for v in row] for row in matrix]
    if any(v.imag != 0 for row in values for v in row):
        real = real_embedding(values)
    else:
        real = [[int(v.real) for v in row] for row in values]
    gram = gram_matrix(real)
    lam_min, lam_max = extreme_eigenvalues(gram)
    return float(lam_min) ** 0.5, float(lam_max) ** 0.5
