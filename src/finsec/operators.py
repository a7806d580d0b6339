"""Symbolic band operators on integer lattices with exact, lazy entry access.

An operator is a rule for the matrix entry a_{ij} over pairs of lattice
points, never a stored matrix.  Every operator is a table of diagonals
a_{ij} = f_{i-j}(i): finitely many offsets i - j, each with a row rule.
Block-periodic matrices, lattice shifts, shift compositions and adjacency
graphs are all built as such tables, of constant, periodic or table rules.
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

from .errors import GeneratorBoundError, NonFiniteResultError
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


def _sub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


# ---------------------------------------------------------------------------
# coefficient rules for diagonal tables
# ---------------------------------------------------------------------------


class CoefficientRule(abc.ABC):
    """Value of one stored diagonal as a function of the row index."""

    @abc.abstractmethod
    def value_at(self, i: Point) -> complex: ...

    @abc.abstractmethod
    def values_at(self, points: np.ndarray) -> np.ndarray:
        """value_at of each row of a (k, N) int64 array, in row order."""

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
        if not _fits_int64(per):
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

    def _positions(self, index_set: IndexSet) -> np.ndarray:
        """Place of each entry in `index_set`, in entry order; -1 where it is absent."""
        if index_set.dimension != self.dimension:
            raise ValueError(
                f"a {self.dimension}-D vector cannot fill a {index_set.dimension}-D window"
            )
        held, points, _ = self._support
        positions = np.full(len(held), -1, dtype=np.intp)
        positions[held] = index_set.locate(points)
        return positions

    def restrict(self, index_set: IndexSet) -> "SupportedVector":
        inside = (self._positions(index_set) >= 0).tolist()
        kept = itertools.compress(self.entries.items(), inside)
        return SupportedVector(self.dimension, dict(kept))

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

    def check_columns(self, points) -> None:
        """Refuse the columns (an array or list of points) the diagonals may not give."""

    def entry(self, i, j) -> complex:
        """Matrix entry a_{ij}."""
        i = as_point(i, self.dimension)
        j = as_point(j, self.dimension)
        self.check_columns([j])
        rule = self._rules.get(_sub(i, j))
        return rule.value_at(i) if rule is not None else 0j

    def band_width(self) -> int:
        """Least w with a_{ij} = 0 whenever max-norm of i - j exceeds w."""
        return max((_max_norm(d) for d, _ in self.diagonals), default=0)

    def apply(self, u: SupportedVector) -> SupportedVector:
        """Exact matrix-vector product on a finitely supported vector."""
        if u.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        self.check_columns(list(u.entries))
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
    Its diagonals are tables built from the edges.  `coverage_radius`
    marks how far a truncated edge generator is known to be complete; a
    column beyond it is refused with GeneratorBoundError.
    """

    dimension: int
    edges: tuple[tuple[Point, Point], ...]
    coverage_radius: int | None = None

    @classmethod
    def from_edges(
        cls, dimension: int, edges: Iterable, coverage_radius: int | None = None
    ) -> "AdjacencyGraph":
        normalized = []
        for e in edges:
            i, j = (as_point(v, dimension) for v in e)
            if i == j:
                raise ValueError(f"edge {e} is not a doubleton")
            if not _fits_int64(i + j):
                raise ValueError(
                    f"edge {e} has a coordinate past int64, where no window reaches"
                )
            normalized.append((min(i, j), max(i, j)))
        normalized.sort()
        seen: set[Point] = set()
        for i, j in normalized:
            if i in seen or j in seen:
                raise ValueError("edges must be pairwise disjoint doubletons")
            seen.update((i, j))
        return cls(dimension, tuple(normalized), coverage_radius)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edge ends as a (2k, N) int64 array: rows 2e and 2e + 1 are the ends of edge e."""
        return np.array(self.edges, dtype=np.int64).reshape(-1, self.dimension)

    @cached_property
    def diagonals(self) -> tuple[tuple[Point, CoefficientRule], ...]:
        """Offset 0: 0 at edge ends, else 1; offset d: 1 at row i of each edge {i, i - d}."""
        zero = (0,) * self.dimension
        rows: dict[Point, list[tuple[Point, complex]]] = {zero: []}
        for i, j in self.edges:
            rows[zero] += [(i, 0j), (j, 0j)]
            rows.setdefault(_sub(i, j), []).append((i, 1.0 + 0j))
            rows.setdefault(_sub(j, i), []).append((j, 1.0 + 0j))
        return tuple(
            (d, TableRule(tuple(sorted(table)), 1.0 + 0j if d == zero else 0j))
            for d, table in sorted(rows.items())
        )

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
