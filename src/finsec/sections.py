"""Realize finite windows of an operator matrix as dense blocks with index maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    IndexSet,
    StarlikeDomain,
    _INT64_MAX,
    lattice_section,
    lattice_section_size,
)
from .operators import OperatorSpec

__all__ = [
    "SectionMatrix",
    "assemble",
    "section_triplets",
    "fsm_section",
    "rfsm_section",
    "overflow_block",
]

# Memory budget, in bytes, of one window: the dense block that assemble
# allocates (fsm_section and rfsm_section check it before building their
# windows), or the points and triplets of a scanned window
# (_check_window_budget).  A convergence study runs no more per-n windows at
# once than it holds dense blocks of the tallest one.
DENSE_BUDGET_BYTES = 2 * 1024**3


@dataclass(frozen=True, eq=False)
class SectionMatrix:
    """Dense block data[r, c] = entry(operator, rows[r], cols[c])."""

    rows: IndexSet
    cols: IndexSet
    data: np.ndarray
    operator: OperatorSpec

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def section_triplets(
    operator: OperatorSpec, rows: IndexSet, cols: IndexSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of the rows x cols block as COO triplets (r, c, value).

    Offsets are distinct, so each (r, c) appears at most once.  Triplets
    come diagonal by diagonal, rows ascending within each diagonal, and a
    rule is evaluated only at rows whose column lies in the block.
    """
    if rows.dimension != operator.dimension or cols.dimension != operator.dimension:
        raise ValueError("index set dimension mismatch")
    operator.check_columns(cols.array)
    r_parts = [np.zeros(0, dtype=np.intp)]
    c_parts = [np.zeros(0, dtype=np.intp)]
    v_parts = [np.zeros(0, dtype=complex)]
    points = rows.array
    # Walk each stored diagonal once: row i meets column i - offset.
    for offset, rule in operator.diagonals:
        try:
            shift = np.array(offset, dtype=np.int64)
        except OverflowError:
            continue  # farther apart than any two points of a window
        c = cols.locate(points - shift)
        r = np.flatnonzero(c >= 0)
        values = rule.values_at(points[r])
        nonzero = values != 0
        r_parts.append(r[nonzero])
        c_parts.append(c[r[nonzero]])
        v_parts.append(values[nonzero])
    # Joined one component at a time, and rebound so that each list of parts
    # is freed once joined: the parts sit beside one joined component at most.
    r_parts = np.concatenate(r_parts)
    c_parts = np.concatenate(c_parts)
    return r_parts, c_parts, np.concatenate(v_parts)


def _check_budget(size: int, what: str) -> None:
    if size > DENSE_BUDGET_BYTES:
        raise ValueError(
            f"{what} needs {size} bytes, over the {DENSE_BUDGET_BYTES}-byte budget"
        )


def _dense_bytes(n_rows: int, n_cols: int) -> int:
    return 16 * n_rows * n_cols  # complex128 entries


def _check_dense_budget(n_rows: int, n_cols: int) -> None:
    _check_budget(_dense_bytes(n_rows, n_cols), f"dense window {n_rows} x {n_cols}")


def _check_window_budget(operator: OperatorSpec, n_points: int) -> None:
    """Refuse a square window of n_points whose points and triplets pass the budget.

    Per point, as measured with tracemalloc: the window's int64 row (8 bytes
    per coordinate), its sorted key and one diagonal's working arrays in
    section_triplets (48 bytes together), and per stored diagonal one
    (row, column, value) triplet of 32 bytes, whose 16-byte value part is
    held twice while the values are joined.
    """
    per_point = 48 + 8 * operator.dimension + 48 * len(operator.diagonals)
    _check_budget(
        n_points * per_point,
        f"window of {n_points} points and {len(operator.diagonals)} stored diagonals",
    )


# numpy asks the kernel for huge pages on every array of this many bytes or more.
_HUGE_PAGE_ARRAY_BYTES = 4 * 1024**2


def _zero_block(n_rows: int, n_cols: int) -> np.ndarray:
    """Zeroed complex block that backs memory only where it is written.

    Below numpy's huge-page cut an np.zeros block does so: its pages are
    4 KiB, and malloc reuses freed blocks without new page faults.  From the
    cut on, numpy asks for huge pages, and the few band entries written per
    row would back most of the block; a private anonymous mapping backs only
    the written 4 KiB pages and reads the rest from the shared zero page (a
    shared mapping would back those too).
    """
    size = _dense_bytes(n_rows, n_cols)
    if size < _HUGE_PAGE_ARRAY_BYTES:
        return np.zeros((n_rows, n_cols), dtype=complex)
    # Imported here: loading it adds about 0.06 MB to runs that never map a block.
    import mmap

    buffer = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    return np.frombuffer(buffer, dtype=complex).reshape(n_rows, n_cols)


def assemble(operator: OperatorSpec, rows: IndexSet, cols: IndexSet) -> SectionMatrix:
    """Materialize the block of the operator matrix over rows x cols."""
    _check_dense_budget(len(rows), len(cols))
    r_idx, c_idx, values = section_triplets(operator, rows, cols)
    data = _zero_block(len(rows), len(cols))
    data[r_idx, c_idx] = values
    return SectionMatrix(rows, cols, data, operator)


def fsm_section(operator: OperatorSpec, domain: StarlikeDomain, n: int) -> SectionMatrix:
    """Square section over the n-th lattice window."""
    size = lattice_section_size(domain, n)
    _check_dense_budget(size, size)
    window = lattice_section(domain, n)
    return assemble(operator, window, window)


def rfsm_section(
    operator: OperatorSpec, domain: StarlikeDomain, m: int, n: int
) -> SectionMatrix:
    """Rectangular section: rows over window m, columns over window n."""
    if m < 1 or n < 1:
        raise ValueError("cut-offs must be >= 1")
    if m < n:
        raise ValueError(f"row cut-off m={m} is below the column cut-off n={n}")
    _check_dense_budget(
        lattice_section_size(domain, m), lattice_section_size(domain, n)
    )
    return assemble(operator, lattice_section(domain, m), lattice_section(domain, n))


def overflow_block(
    operator: OperatorSpec, domain: StarlikeDomain, m: int, n: int
) -> SectionMatrix:
    """Rows of the operator's action on window-n columns that escape window m.

    Column j meets row j + d on the stored diagonal d, so the rows are the
    shifts of window n by the stored offsets that fall outside window m.
    They carry every nonzero entry of the escaping action, and any other
    row would be a zero row, so the block's spectral norm is exactly the
    norm of the complementary truncation.  ValueError when a shift of
    window n leaves int64.
    """
    cols = lattice_section(domain, n)
    lo, hi = cols.array.min(axis=0).tolist(), cols.array.max(axis=0).tolist()
    escaping = [np.zeros((0, operator.dimension), dtype=np.int64)]
    for offset, _ in operator.diagonals:
        if not all(
            -_INT64_MAX - 1 <= low + d and high + d <= _INT64_MAX
            for low, high, d in zip(lo, hi, offset)
        ):
            raise ValueError(f"diagonal offset {list(offset)} shifts window {n} past int64")
        points = cols.array + np.array(offset, dtype=np.int64)
        escaping.append(points[~domain.contains_array(points, m)])
    rows = IndexSet.from_array(operator.dimension, np.concatenate(escaping))
    return assemble(operator, rows, cols)
