"""Independent brute-force oracles used to freeze expected values in tests.

Nothing in here touches LAPACK or the package's numeric kernels: the
singular-value oracle runs entirely in exact integer/rational arithmetic
(characteristic polynomial + Sturm-chain bisection on the Gram matrix),
and the geometry oracle enumerates bounding boxes directly against the
facet inequalities.  The identity operator, whose sections are known
exactly, is built here from one constant diagonal.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from finsec import BandDiagonals, ConstantRule


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def identity_operator(dimension: int = 1) -> BandDiagonals:
    """The identity on Z^dimension: the constant diagonal 1 at offset zero."""
    zero = (0,) * dimension
    return BandDiagonals.from_rules(dimension, {zero: ConstantRule(1.0 + 0j)})


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
