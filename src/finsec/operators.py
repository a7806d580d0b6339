"""Symbolic band operators on integer lattices with exact, lazy entry access.

An operator is a rule for the matrix entry a_{ij} over pairs of lattice
points, never a stored matrix.  A band operator is a table of diagonals
a_{ij} = f_{i-j}(i), each a table rule, periodic or not; block-periodic
matrices, lattice shifts and shift compositions are built as such tables.  An
adjacency graph is its edge array alone, read through one swap of edge ends.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import isfinite, sqrt
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._value import Value
from .errors import GeneratorBoundError, NonFiniteResultError
from .geometry import IndexSet, Point, StarlikeDomain

__all__ = [
    "OperatorSpec",
    "BandDiagonals",
    "AdjacencyGraph",
    "Shift",
    "TableRule",
    "SupportedVector",
    "as_point",
    "block_periodic",
    "compose_shift",
    "euclidean_norm",
]


def as_point(value, dimension: int) -> Point:
    """Normalize an int or coordinate sequence to a lattice point tuple."""
    if isinstance(value, int):
        if dimension != 1:
            raise ValueError("bare integers are points only in dimension 1")
        return (value,)
    point = tuple(int(c) for c in value)
    if len(point) != dimension:
        raise ValueError(f"point {point} does not have dimension {dimension}")
    return point


def euclidean_norm(values: Iterable[complex]) -> float:
    """sqrt of the left-to-right Python sum of abs(v) ** 2 over `values`.

    Raises NonFiniteResultError when a square or the sum is not finite, so
    an overflow never reads as an infinite norm.
    """
    try:
        total = sum(map(pow, map(abs, values), itertools.repeat(2)))
    except OverflowError:
        total = float("inf")
    if not isfinite(total):
        raise NonFiniteResultError("the norm of a vector overflows a double")
    return sqrt(total)


def _fits_int64(p: Sequence[int]) -> bool:
    """Whether every coordinate fits int64, as every coordinate of a window does."""
    return all(-(2**63) <= c < 2**63 for c in p)


def _max_norm(p: Point) -> int:
    return max(abs(c) for c in p)


def _add(p: Point, q: Point) -> Point:
    return tuple(a + b for a, b in zip(p, q))


# ---------------------------------------------------------------------------
# coefficient rules for diagonal tables
# ---------------------------------------------------------------------------


def _distinct(items: Iterable[tuple[Point, complex]]) -> tuple[tuple[Point, complex], ...]:
    """(point, value) pairs sorted by point; ValueError when a point repeats."""
    table: dict[Point, complex] = {}
    for point, value in items:
        if point in table:
            raise ValueError(f"coefficient table gives {list(point)} twice")
        table[point] = complex(value)
    return tuple(sorted(table.items()))


def _residue(i: Point, period: tuple[int, ...] | None) -> Point:
    return i if period is None else tuple(k % q for k, q in zip(i, period))


class TableRule(Value):
    """Row coefficients of one diagonal: a finite table with a default elsewhere.

    With `period` set, the table holds residues and row i reads it at
    i mod period, componentwise.  A constant is an empty table.
    """

    table: tuple[tuple[Point, complex], ...]
    default: complex = 0j
    period: tuple[int, ...] | None = None

    @classmethod
    def from_mapping(
        cls, table: Mapping, default: complex = 0j, dimension: int = 1,
        period: Sequence[int] | None = None,
    ) -> "TableRule":
        if period is not None:
            period = tuple(int(q) for q in period)
            if any(q < 1 for q in period):
                raise ValueError("period entries must be >= 1")
            if not _fits_int64(period):
                raise ValueError("period entries must fit int64, as lattice coordinates do")
        items = _distinct((_residue(as_point(k, dimension), period), v) for k, v in table.items())
        return cls(items, complex(default), period)

    @cached_property
    def _lookup(self) -> dict[Point, complex]:
        return dict(self.table)

    def value_at(self, i: Point) -> complex:
        return self._lookup.get(_residue(i, self.period), self.default)

    @cached_property
    def _ranked(self) -> tuple[list[np.ndarray], IndexSet, np.ndarray] | None:
        """(axes, keys, values) for values_at; None when no key fits int64.

        axes[c] holds the distinct c-th key coordinates and `keys` their places
        in the axes, a box len(table) wide at most, so the int64 locate keys
        never overflow.  `values` ends with the default.  A key past int64
        meets no int64 point, so it is dropped.
        """
        kept = [(key, value) for key, value in self.table if _fits_int64(key)]
        if not kept:
            return None
        points = np.array([key for key, _ in kept], dtype=np.int64)
        axes = [np.unique(column) for column in points.T]
        ranks = np.stack([np.searchsorted(a, c) for a, c in zip(axes, points.T)], axis=1)
        values = np.array([value for _, value in kept] + [self.default], dtype=complex)
        return axes, IndexSet(len(axes), ranks), values

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """value_at of each row of a (k, N) int64 array, in row order."""
        if self.period is not None:
            # one pass per stored residue, so memory is bounded by the points for any period
            residues = points % np.array(self.period, dtype=np.int64)
            out = np.full(len(points), self.default, dtype=complex)
            for residue, value in self.table:
                out[np.all(residues == residue, axis=1)] = value
            return out
        if self._ranked is None:
            return np.full(len(points), self.default, dtype=complex)
        axes, keys, values = self._ranked
        ranks = np.empty_like(points)
        for c, axis in enumerate(axes):
            at = np.minimum(np.searchsorted(axis, points[:, c]), len(axis) - 1)
            ranks[:, c] = np.where(axis[at] == points[:, c], at, -1)  # -1: no key has it
        return values[keys.locate(ranks)]  # position -1, absent, reads the default

    def is_trivial(self) -> bool:
        return self.default == 0 and all(v == 0 for _, v in self.table)

    def shifted(self, step: Point) -> "TableRule":
        """Rule i -> self(i - step); re-indexes a diagonal moved by a shift."""
        moved = {_add(k, step): v for k, v in self.table}
        return TableRule.from_mapping(moved, self.default, len(step), self.period)


# ---------------------------------------------------------------------------
# vectors of finite support
# ---------------------------------------------------------------------------


class SupportedVector(Value, eq=False):
    """Finitely supported complex vector over the lattice; absent entries are 0."""

    dimension: int
    entries: Mapping[Point, complex]

    @classmethod
    def from_entries(cls, dimension: int, entries: Mapping) -> "SupportedVector":
        canonical = {}
        for key, val in entries.items():
            v = complex(val)
            if v != 0:
                canonical[as_point(key, dimension)] = v
        return cls(dimension, canonical)

    def get(self, point) -> complex:
        return self.entries.get(as_point(point, self.dimension), 0j)

    def support(self) -> list[Point]:
        return sorted(self.entries)

    def norm(self) -> float:
        return euclidean_norm(self.entries.values())

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(held, points, values) in entry order.

        `held` marks the entries a window can hold (int64 coordinates),
        `points` are their coordinates and `values` every entry's value.
        """
        held = np.array([_fits_int64(p) for p in self.entries], dtype=bool)
        points = np.array(list(itertools.compress(self.entries, held)), dtype=np.int64)
        values = np.array(list(self.entries.values()), dtype=complex)
        return held, points.reshape(-1, self.dimension), values

    def _check_window_dimension(self, dimension: int) -> None:
        if dimension != self.dimension:
            raise ValueError(f"a {self.dimension}-D vector cannot fill a {dimension}-D window")

    def _positions(self, index_set: IndexSet) -> np.ndarray:
        """Place of each entry in `index_set`, in entry order; -1 where it is absent."""
        self._check_window_dimension(index_set.dimension)
        held, points, _ = self._support
        positions = np.full(len(held), -1, dtype=np.intp)
        positions[held] = index_set.locate(points)
        return positions

    def restrict(self, index_set: IndexSet) -> "SupportedVector":
        inside = (self._positions(index_set) >= 0).tolist()
        kept = itertools.compress(self.entries.items(), inside)
        return SupportedVector(self.dimension, dict(kept))

    def support_in(self, domain: StarlikeDomain, n: int) -> IndexSet:
        """The points of the entries inside window n; an entry past int64 lies in none."""
        self._check_window_dimension(domain.dimension)
        points = self._support[1]
        return IndexSet.from_array(self.dimension, points[domain.contains_array(points, n)])

    def norm_outside(self, domain: StarlikeDomain, n: int) -> float:
        """Norm of the entries outside window n, summed in entry order.

        An entry past int64 lies in no window, so it counts as outside.
        """
        held, points, values = self._support
        outside = ~held
        outside[held] = ~domain.contains_array(points, n)
        return euclidean_norm(values[outside].tolist())

    def to_array(self, index_set: IndexSet) -> np.ndarray:
        positions = self._positions(index_set)
        found = positions >= 0
        out = np.zeros(len(index_set), dtype=complex)
        out[positions[found]] = self._support[2][found]
        return out

    @classmethod
    def from_array(cls, index_set: IndexSet, values) -> "SupportedVector":
        values = np.asarray(values, dtype=complex)
        nonzero = values != 0
        kept = map(tuple, index_set.array[nonzero].tolist())
        return cls(index_set.dimension, dict(zip(kept, values[nonzero].tolist())))

    def __sub__(self, other: "SupportedVector") -> "SupportedVector":
        """self - other: self's entries in order, less any that cancel, then other's new points."""
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for p, v in other.entries.items():
            w = out.get(p, 0j) - v
            if w == 0:
                out.pop(p, None)
            else:
                out[p] = w
        return SupportedVector(self.dimension, out)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class OperatorSpec:
    """Operator read column by column: entries and exact products come from `_column` alone."""

    dimension: int

    def _column(self, j: Point) -> list[tuple[Point, complex]]:
        """(row, value) pairs of column j at distinct rows; its other entries are zero."""
        raise NotImplementedError

    def check_columns(self, points) -> None:
        """Refuse the columns (an array or list of points) the operator may not give."""

    def entry(self, i, j) -> complex:
        """Matrix entry a_{ij}."""
        i = as_point(i, self.dimension)
        j = as_point(j, self.dimension)
        self.check_columns([j])
        return dict(self._column(j)).get(i, 0j)

    def apply(self, u: SupportedVector) -> SupportedVector:
        """Exact matrix-vector product on a finitely supported vector."""
        if u.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        self.check_columns(list(u.entries))
        acc: dict[Point, complex] = {}
        for j, val in u.entries.items():
            for i, a in self._column(j):
                if a != 0:
                    acc[i] = acc.get(i, 0j) + a * val
        return SupportedVector(self.dimension, {p: v for p, v in acc.items() if v != 0})


class BandDiagonals(OperatorSpec, Value):
    """Entries a_{ij} = f_{i-j}(i) on the (offset, rule) pairs of `diagonals`, zero elsewhere."""

    dimension: int
    diagonals: tuple[tuple[Point, TableRule], ...]

    def _column(self, j: Point) -> list[tuple[Point, complex]]:
        """Row j + d of each stored diagonal d, with its rule's value there."""
        return [(i := _add(j, d), rule.value_at(i)) for d, rule in self.diagonals]

    def band_width(self) -> int:
        """Least w with a_{ij} = 0 whenever max-norm of i - j exceeds w."""
        return max((_max_norm(d) for d, _ in self.diagonals), default=0)

    @classmethod
    def from_rules(cls, dimension: int, rules: Mapping) -> "BandDiagonals":
        seen: set[Point] = set()
        items = []
        for offset, rule in rules.items():
            point = as_point(offset, dimension)
            if point in seen:
                raise ValueError(f"diagonal offset {point} is given twice")
            seen.add(point)
            if not isinstance(rule, TableRule):
                rule = TableRule((), complex(rule))
            if not rule.is_trivial():
                items.append((point, rule))
        return cls(dimension, tuple(sorted(items, key=lambda kv: kv[0])))


def block_periodic(block_size: int, blocks: Mapping[int, Sequence]) -> BandDiagonals:
    """1-D operator assembled from q x q blocks repeating along block diagonals.

    Block t (a block-column offset) couples block row s to block column
    s + t; block row s occupies the q consecutive indices q*s + r + start
    with start = -((q-1)//2), so block row 0 sits at {-1, 0, 1} for q = 3.
    Entry (r, c) of block t therefore lies on offset r - c - q*t, at rows
    of residue (r + start) mod q.
    """
    q = int(block_size)
    if q < 1:
        raise ValueError("block size must be >= 1")
    start = -((q - 1) // 2)
    tables: dict[int, dict[int, complex]] = {}
    for t, mat in blocks.items():
        rows = [[complex(v) for v in row] for row in mat]
        if len(rows) != q or any(len(row) != q for row in rows):
            raise ValueError(f"block {t} is not {q}x{q}")
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v != 0:
                    tables.setdefault(r - c - q * int(t), {})[r + start] = v
    rules = {d: TableRule.from_mapping(table, period=(q,)) for d, table in tables.items()}
    return BandDiagonals.from_rules(1, rules)


def _shift_by(step, dimension: int = 1) -> BandDiagonals:
    """Translation by a fixed lattice vector: a_{ij} = 1 iff i - j = step."""
    return BandDiagonals.from_rules(dimension, {as_point(step, dimension): 1})


# Spelled Shift.by because the acceptance gate, tests/test_acceptance.py, calls it so.
Shift = SimpleNamespace(by=_shift_by)


class AdjacencyGraph(OperatorSpec, Value, eq=False):
    """Extended adjacency matrix of a graph of pairwise disjoint edges.

    Entry a_{ij} is 1 when {i, j} is an edge or when i = j lies on no
    edge, else 0; the operator swaps edge endpoints and fixes the rest.
    The edges are stored once, as the sorted (2k, N) int64 `edge_array`:
    rows 2e and 2e + 1 are the lesser and the greater end of edge e, so
    the partner of end k is row k ^ 1.
    `coverage_radius` marks how far a truncated edge generator is known
    to be complete; a column beyond it is refused with GeneratorBoundError.
    """

    dimension: int
    edge_array: np.ndarray
    coverage_radius: int | None = None

    @classmethod
    def from_edges(
        cls, dimension: int, edges, coverage_radius: int | None = None
    ) -> "AdjacencyGraph":
        """Graph of k edges given as a (k, 2, N) integer array or sequence of point pairs.

        Normalised in numpy: each edge's lesser end first, the edges sorted.
        A pair that is no doubleton, or an edge past int64, is refused by
        name, then edges that share an end.
        """
        try:
            pairs = np.asarray(edges, dtype=np.int64)
            if not len(pairs) or (dimension == 1 and pairs.ndim == 2):
                pairs = pairs.reshape(len(pairs), 2, dimension)  # no edges, or bare integers
            if pairs.shape[1:] != (2, dimension):
                raise ValueError(f"edges must be pairs of points of dimension {dimension}")
        except (OverflowError, TypeError, ValueError):
            for e in edges:  # name the first edge that is no pair of int64 points
                i, j = (as_point(v, dimension) for v in e)
                if not _fits_int64(i + j):
                    raise ValueError(
                        f"edge {e} has a coordinate past int64, where no window reaches"
                    ) from None
            raise
        same = np.all(pairs[:, 0] == pairs[:, 1], axis=1)
        if same.any():
            raise ValueError(f"edge {edges[same.argmax()]} is not a doubleton")
        swap = np.zeros(len(pairs), dtype=bool)
        for c in reversed(range(dimension)):  # the first coordinate where the ends differ
            lesser, greater = pairs[:, 0, c], pairs[:, 1, c]
            swap = np.where(lesser != greater, greater < lesser, swap)
        pairs = np.where(swap[:, None, None], pairs[:, ::-1], pairs)
        ends = pairs[np.lexsort(pairs[:, 0].T[::-1])].reshape(-1, dimension)
        del pairs, swap  # freed before the sort of all ends
        if len(IndexSet.from_array(dimension, ends)) < len(ends):
            raise ValueError("edges must be pairwise disjoint doubletons")
        return cls(dimension, ends, coverage_radius)

    def swap(self, points: IndexSet) -> np.ndarray:
        """points.array with each edge end moved to its partner (end k ^ 1 for end k)."""
        at = points.locate(self.edge_array)
        ends = np.flatnonzero(at >= 0)
        moved = points.array.copy()
        moved[at[ends]] = self.edge_array[ends ^ 1]
        return moved

    def _column(self, j: Point) -> list[tuple[Point, complex]]:
        """Entry 1 at j's partner, or at j itself off every edge; a point past int64 is on none."""
        ends = np.flatnonzero(np.all(self.edge_array == j, axis=1)) if _fits_int64(j) else ()
        partner = tuple(self.edge_array[ends[0] ^ 1].tolist()) if len(ends) else j
        return [(partner, 1.0 + 0j)]

    def band_width(self) -> int:
        """The longest edge in the max norm."""
        i, j = self.edge_array[0::2], self.edge_array[1::2]
        # the larger less the smaller coordinate lies below 2^64: exact modulo 2^64
        gap = np.maximum(i, j).view(np.uint64) - np.minimum(i, j).view(np.uint64)
        return int(gap.max(initial=0))

    def _refuse_past_coverage(self, what: str, needed: int) -> None:
        if self.coverage_radius is not None and needed > self.coverage_radius:
            raise GeneratorBoundError(
                f"{what} needs edges complete up to max-norm radius {needed}, "
                f"but the generator covers only {self.coverage_radius}"
            )

    def check_coverage(self, domain: StarlikeDomain, n: int) -> None:
        """Refuse window n of the domain when it reaches past the generated edges."""
        self._refuse_past_coverage(f"window n={n}", domain.enclosing_radius(n))

    def check_columns(self, points) -> None:
        """Refuse columns past the coverage radius: by symmetry edges give the others."""
        if self.coverage_radius is None:
            return
        radius = self.coverage_radius
        points = np.asarray(points).reshape(-1, self.dimension)
        far = np.flatnonzero(np.any((points < -radius) | (points > radius), axis=1))
        if len(far):
            column = tuple(points[far[0]].tolist())
            self._refuse_past_coverage(f"column {column}", _max_norm(column))


def compose_shift(operator: OperatorSpec, step) -> OperatorSpec:
    """Precondition by a shift: the system rows move down by `step`.

    Entries become a_{i-step, j}: every diagonal moves by `step` and its
    rule is re-indexed.  Applied to an equation, the right-hand side must
    be shifted the same way (apply Shift.by(step) to it).  A nonzero shift
    of an adjacency graph raises ValueError.
    """
    step = as_point(step, operator.dimension)
    if all(c == 0 for c in step):
        return operator
    if isinstance(operator, AdjacencyGraph):
        raise ValueError(
            "an adjacency graph cannot be shift-composed: the result would "
            "have no edge structure for the invertibility criterion"
        )
    rules = {_add(d, step): rule.shifted(step) for d, rule in operator.diagonals}
    return BandDiagonals.from_rules(operator.dimension, rules)
