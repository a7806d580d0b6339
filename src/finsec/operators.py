"""Symbolic band operators on integer lattices with exact, lazy entry access.

An operator is a rule for the matrix entry a_{ij} over pairs of lattice
points, never a stored matrix.  Every operator is a table of diagonals
a_{ij} = f_{i-j}(i): finitely many offsets i - j, each with a row rule.
Block-periodic matrices, lattice shifts and shift compositions are built
as such tables; adjacency graphs derive theirs from their edges.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, sqrt
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GeneratorBoundError, NonFiniteResultError, UnboundedBandError
from .geometry import IndexSet, Point, StarlikeDomain

__all__ = [
    "OperatorSpec",
    "BandDiagonals",
    "BlockPeriodic",
    "AdjacencyGraph",
    "Shift",
    "ConstantRule",
    "PeriodicRule",
    "TableRule",
    "SupportedVector",
    "as_point",
    "compose_shift",
    "euclidean_norm",
    "identity_operator",
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


def _max_norm(p: Point) -> int:
    return max(abs(c) for c in p)


def _add(p: Point, q: Point) -> Point:
    return tuple(a + b for a, b in zip(p, q))


def _sub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


# ---------------------------------------------------------------------------
# coefficient rules for diagonal tables
# ---------------------------------------------------------------------------


class CoefficientRule(abc.ABC):
    """Value of one stored diagonal as a function of the row index."""

    @abc.abstractmethod
    def value_at(self, i: Point) -> complex: ...

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """value_at of each row of a (k, N) int64 array, in row order."""
        return np.array([self.value_at(tuple(p)) for p in points.tolist()], dtype=complex)

    @abc.abstractmethod
    def is_trivial(self) -> bool: ...

    @abc.abstractmethod
    def shifted(self, step: Point) -> "CoefficientRule":
        """Rule i -> self(i - step); re-indexes a diagonal moved by a shift."""


@dataclass(frozen=True)
class ConstantRule(CoefficientRule):
    value: complex

    def value_at(self, i: Point) -> complex:
        return self.value

    def values_at(self, points: np.ndarray) -> np.ndarray:
        return np.full(len(points), self.value, dtype=complex)

    def is_trivial(self) -> bool:
        return self.value == 0

    def shifted(self, step: Point) -> "ConstantRule":
        return self


def _distinct(items: Iterable[tuple[Point, complex]]) -> tuple[tuple[Point, complex], ...]:
    """(point, value) pairs sorted by point; ValueError when a point repeats."""
    table: dict[Point, complex] = {}
    for point, value in items:
        if point in table:
            raise ValueError(f"coefficient table gives {list(point)} twice")
        table[point] = complex(value)
    return tuple(sorted(table.items()))


@dataclass(frozen=True)
class PeriodicRule(CoefficientRule):
    """Row-periodic coefficients: value depends on i mod period (componentwise)."""

    period: tuple[int, ...]
    table: tuple[tuple[Point, complex], ...]

    @classmethod
    def from_mapping(cls, period: Sequence[int], table: Mapping) -> "PeriodicRule":
        per = tuple(int(q) for q in period)
        if any(q < 1 for q in per):
            raise ValueError("period entries must be >= 1")
        if any(q > np.iinfo(np.int64).max for q in per):
            raise ValueError("period entries must fit int64, as lattice coordinates do")
        items = _distinct(
            (tuple(k % q for k, q in zip(as_point(key, len(per)), per)), val)
            for key, val in table.items()
        )
        return cls(per, items)

    @cached_property
    def _lookup(self) -> dict[Point, complex]:
        return dict(self.table)

    def value_at(self, i: Point) -> complex:
        residue = tuple(k % q for k, q in zip(i, self.period))
        return self._lookup.get(residue, 0j)

    def values_at(self, points: np.ndarray) -> np.ndarray:
        # one pass per stored residue, so memory is bounded by the points for any period
        residues = points % np.array(self.period, dtype=np.int64)
        out = np.zeros(len(points), dtype=complex)
        for residue, value in self._lookup.items():
            out[np.all(residues == residue, axis=1)] = value
        return out

    def is_trivial(self) -> bool:
        return all(v == 0 for _, v in self.table)

    def shifted(self, step: Point) -> "PeriodicRule":
        return PeriodicRule.from_mapping(
            self.period, {_add(res, step): v for res, v in self.table}
        )


@dataclass(frozen=True)
class TableRule(CoefficientRule):
    """Finite table of row coefficients with a default elsewhere."""

    table: tuple[tuple[Point, complex], ...]
    default: complex = 0j

    @classmethod
    def from_mapping(
        cls, table: Mapping, default: complex = 0j, dimension: int = 1
    ) -> "TableRule":
        items = _distinct((as_point(k, dimension), v) for k, v in table.items())
        return cls(items, complex(default))

    @cached_property
    def _lookup(self) -> dict[Point, complex]:
        return dict(self.table)

    def value_at(self, i: Point) -> complex:
        return self._lookup.get(i, self.default)

    def is_trivial(self) -> bool:
        return self.default == 0 and all(v == 0 for _, v in self.table)

    def shifted(self, step: Point) -> "TableRule":
        return TableRule.from_mapping(
            {_add(k, step): v for k, v in self.table}, self.default, len(step)
        )


# ---------------------------------------------------------------------------
# vectors of finite support
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SupportedVector:
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

    @classmethod
    def unit(cls, point, dimension: int = 1) -> "SupportedVector":
        return cls(dimension, {as_point(point, dimension): 1.0 + 0j})

    def get(self, point) -> complex:
        return self.entries.get(as_point(point, self.dimension), 0j)

    def support(self) -> list[Point]:
        return sorted(self.entries)

    def norm(self) -> float:
        return euclidean_norm(self.entries.values())

    def restrict(self, index_set: IndexSet) -> "SupportedVector":
        kept = {p: v for p, v in self.entries.items() if p in index_set}
        return SupportedVector(self.dimension, kept)

    def restrict_outside(self, index_set: IndexSet) -> "SupportedVector":
        kept = {p: v for p, v in self.entries.items() if p not in index_set}
        return SupportedVector(self.dimension, kept)

    @cached_property
    def _support(self) -> tuple[IndexSet, np.ndarray]:
        """Sorted support that a window can hold (int64 coordinates) and its entries."""
        limits = np.iinfo(np.int64)
        support = IndexSet.from_points(
            self.dimension,
            (p for p in self.entries if all(limits.min <= c <= limits.max for c in p)),
        )
        values = np.array([self.entries[p] for p in support.points], dtype=complex)
        return support, values

    def to_array(self, index_set: IndexSet) -> np.ndarray:
        if index_set.dimension != self.dimension:
            raise ValueError(
                f"a {self.dimension}-D vector cannot fill a {index_set.dimension}-D window"
            )
        support, values = self._support
        out = np.zeros(len(index_set), dtype=complex)
        positions = index_set.locate(support.array)
        found = positions >= 0
        out[positions[found]] = values[found]
        return out

    @classmethod
    def from_array(cls, index_set: IndexSet, values) -> "SupportedVector":
        values = np.asarray(values, dtype=complex)
        nonzero = values != 0
        kept = itertools.compress(index_set.points, nonzero.tolist())
        return cls(index_set.dimension, dict(zip(kept, values[nonzero].tolist())))

    def __add__(self, other: "SupportedVector") -> "SupportedVector":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for p, v in other.entries.items():
            w = out.get(p, 0j) + v
            if w == 0:
                out.pop(p, None)
            else:
                out[p] = w
        return SupportedVector(self.dimension, out)

    def __sub__(self, other: "SupportedVector") -> "SupportedVector":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "SupportedVector":
        s = complex(scalar)
        if s == 0:
            return SupportedVector(self.dimension, {})
        return SupportedVector(self.dimension, {p: s * v for p, v in self.entries.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SupportedVector)
            and self.dimension == other.dimension
            and self.entries == other.entries
        )

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class OperatorSpec:
    """Band operator given by its stored diagonals: a_{ij} = f_{i-j}(i).

    `diagonals` holds (offset, rule) pairs with distinct offsets; entries
    off the stored offsets are zero.  Entry access, the band and the exact
    product are derived here from the diagonals alone.
    """

    dimension: int
    diagonals: tuple[tuple[Point, CoefficientRule], ...]

    @cached_property
    def _rules(self) -> dict[Point, CoefficientRule]:
        return dict(self.diagonals)

    def entry(self, i, j) -> complex:
        """Matrix entry a_{ij}."""
        i = as_point(i, self.dimension)
        j = as_point(j, self.dimension)
        rule = self._rules.get(_sub(i, j))
        return rule.value_at(i) if rule is not None else 0j

    def band_width(self) -> int:
        """Least w with a_{ij} = 0 whenever max-norm of i - j exceeds w."""
        return max((_max_norm(d) for d, _ in self.diagonals), default=0)

    def apply(self, u: SupportedVector) -> SupportedVector:
        """Exact matrix-vector product on a finitely supported vector."""
        if u.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        acc: dict[Point, complex] = {}
        for j, val in u.entries.items():
            for d, rule in self.diagonals:
                i = _add(j, d)
                a = rule.value_at(i)
                if a != 0:
                    acc[i] = acc.get(i, 0j) + a * val
        return SupportedVector(self.dimension, {p: v for p, v in acc.items() if v != 0})


@dataclass(frozen=True)
class BandDiagonals(OperatorSpec):
    """Entries a_{ij} = f_{i-j}(i) for finitely many stored offsets i - j."""

    dimension: int
    diagonals: tuple[tuple[Point, CoefficientRule], ...]

    @classmethod
    def from_rules(cls, dimension: int, rules: Mapping) -> "BandDiagonals":
        seen: set[Point] = set()
        items = []
        for offset, rule in rules.items():
            point = as_point(offset, dimension)
            if point in seen:
                raise ValueError(f"diagonal offset {point} is given twice")
            seen.add(point)
            if not isinstance(rule, CoefficientRule):
                rule = ConstantRule(complex(rule))
            if not rule.is_trivial():
                items.append((point, rule))
        return cls(dimension, tuple(sorted(items, key=lambda kv: kv[0])))


def identity_operator(dimension: int = 1) -> BandDiagonals:
    zero = (0,) * dimension
    return BandDiagonals.from_rules(dimension, {zero: ConstantRule(1.0 + 0j)})


def _block_periodic(block_size: int, blocks: Mapping[int, Sequence]) -> BandDiagonals:
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
    rules = {d: PeriodicRule.from_mapping((q,), table) for d, table in tables.items()}
    return BandDiagonals.from_rules(1, rules)


def _shift_by(step, dimension: int = 1) -> BandDiagonals:
    """Translation by a fixed lattice vector: a_{ij} = 1 iff i - j = step."""
    return BandDiagonals.from_rules(
        dimension, {as_point(step, dimension): ConstantRule(1.0 + 0j)}
    )


# Factories under the names configs and callers use for these operator kinds.
BlockPeriodic = SimpleNamespace(from_blocks=_block_periodic)
Shift = SimpleNamespace(by=_shift_by)


@dataclass(frozen=True)
class AdjacencyGraph(OperatorSpec):
    """Extended adjacency matrix of a graph of pairwise disjoint edges.

    Entry a_{ij} is 1 when {i, j} is an edge or when i = j lies on no
    edge, else 0; the operator swaps edge endpoints and fixes the rest.
    `coverage_radius` marks how far a truncated edge generator is known
    to be complete; entry access beyond it raises UnboundedBandError.
    """

    dimension: int
    edges: tuple[tuple[Point, Point], ...]
    coverage_radius: int | None = None
    family: str = ""

    @classmethod
    def from_edges(
        cls,
        dimension: int,
        edges: Iterable,
        coverage_radius: int | None = None,
        family: str = "",
    ) -> "AdjacencyGraph":
        normalized = []
        for e in edges:
            i, j = (as_point(v, dimension) for v in e)
            if i == j:
                raise ValueError(f"edge {e} is not a doubleton")
            normalized.append((min(i, j), max(i, j)))
        normalized.sort()
        seen: set[Point] = set()
        for i, j in normalized:
            if i in seen or j in seen:
                raise ValueError("edges must be pairwise disjoint doubletons")
            seen.update((i, j))
        return cls(dimension, tuple(normalized), coverage_radius, family)

    @cached_property
    def _partner(self) -> dict[Point, Point]:
        out: dict[Point, Point] = {}
        for i, j in self.edges:
            out[i] = j
            out[j] = i
        return out

    @cached_property
    def diagonals(self) -> tuple[tuple[Point, CoefficientRule], ...]:
        """Offset 0 for the fixed points plus one diagonal per edge offset."""
        offsets = {(0,) * self.dimension}
        for i, j in self.edges:
            offsets.update((_sub(i, j), _sub(j, i)))
        return tuple((d, _EdgeRule(self, d)) for d in sorted(offsets))

    def _check_points(self, *points: Point) -> None:
        if self.coverage_radius is None:
            return
        for p in points:
            if _max_norm(p) > self.coverage_radius:
                raise UnboundedBandError(
                    f"point {p} lies beyond the generated edge coverage "
                    f"radius {self.coverage_radius} of family {self.family!r}"
                )

    def check_coverage(self, domain: StarlikeDomain, n: int) -> None:
        """Refuse window n of the domain when it reaches past the generated edges."""
        if self.coverage_radius is None:
            return
        needed = domain.enclosing_radius(n)
        if needed > self.coverage_radius:
            raise GeneratorBoundError(
                f"window n={n} needs edges complete up to max-norm radius {needed}, "
                f"but the generator covers only {self.coverage_radius}"
            )

    def entry(self, i, j) -> complex:
        i = as_point(i, self.dimension)
        j = as_point(j, self.dimension)
        self._check_points(i, j)
        return super().entry(i, j)

    def edge_vertices(self) -> list[Point]:
        return sorted(self._partner)


@dataclass(frozen=True)
class _EdgeRule(CoefficientRule):
    """Diagonal `offset` of an adjacency graph, refused beyond its edge coverage."""

    graph: AdjacencyGraph
    offset: Point

    def value_at(self, i: Point) -> complex:
        j = _sub(i, self.offset)
        self.graph._check_points(i, j)
        return 1.0 + 0j if self.graph._partner.get(i, i) == j else 0j

    def is_trivial(self) -> bool:
        return False

    def shifted(self, step: Point) -> CoefficientRule:
        raise ValueError(
            "an adjacency graph cannot be shift-composed: the result would "
            "have no edge structure for the invertibility criterion"
        )


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
    rules = {_add(d, step): rule.shifted(step) for d, rule in operator.diagonals}
    return BandDiagonals.from_rules(operator.dimension, rules)
