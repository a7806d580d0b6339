"""Realize finite windows of an operator matrix as dense blocks with index maps."""

from __future__ import annotations

import numpy as np

from ._value import Value
from .geometry import IndexSet, StarlikeDomain, _INT64_MAX, _count_section, lattice_section
from .operators import AdjacencyGraph, OperatorSpec

__all__ = [
    "SectionMatrix",
    "assemble",
    "section_triplets",
    "fsm_section",
    "rfsm_section",
    "overflow_block",
]

# Memory budget, in bytes, of one window: the dense block that assemble
# allocates and numpy's LAPACK copy of it (_check_dense_budget), or the
# points and triplets of a scanned window (_check_window_budget).  An
# adjacency solve builds no window and is not charged.  Each charge counts
# its windows before they are built, walking rows only until the budget is
# passed.  A convergence study runs no more per-n windows at once than it
# holds dense blocks of the tallest one.
DENSE_BUDGET_BYTES = 2 * 1024**3


class SectionMatrix(Value, eq=False):
    """Dense block data[r, c] = entry(operator, rows[r], cols[c])."""

    rows: IndexSet
    cols: IndexSet
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def section_triplets(
    operator: OperatorSpec, rows: IndexSet, cols: IndexSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of the rows x cols block as COO triplets (r, c, value).

    Each (r, c) appears at most once.  A band operator's come diagonal by
    diagonal, rows ascending within each diagonal, and a rule is evaluated
    only at rows whose column lies in the block; a graph's, 1 per column.
    """
    if rows.dimension != operator.dimension or cols.dimension != operator.dimension:
        raise ValueError("index set dimension mismatch")
    operator.check_columns(cols.array)
    if isinstance(operator, AdjacencyGraph):
        r = rows.locate(operator.swap(cols))
        c = np.flatnonzero(r >= 0)
        return r[c], c, np.ones(len(c), dtype=complex)
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


def _check_budget(size: int, what: str, exact: bool = True) -> None:
    if size > DENSE_BUDGET_BYTES:
        at_least = "" if exact else "at least "
        raise ValueError(
            f"{what} needs {at_least}{size} bytes, over the {DENSE_BUDGET_BYTES}-byte budget"
        )


def _dense_bytes(n_rows: int, n_cols: int) -> int:
    """Charge of a dense complex block: its entries and numpy's copy of them.

    numpy's svd, solve and lstsq copy the block's 16-byte entries into a
    LAPACK-order buffer, so the block is counted twice.  LAPACK's workspace,
    a few KiB per column, is not charged: assemble backs only the block's
    written pages, and a band writes few of them.
    """
    return 32 * n_rows * n_cols


def _dense_charge(domain: StarlikeDomain, m: int, n: int) -> tuple[int, str, bool]:
    """(bytes, name, exact) of the block over rows window m and columns window n.

    Past the budget, a count stops early and the bytes are a lower bound.
    """
    cols, cols_exact = _count_section(domain, n, DENSE_BUDGET_BYTES // 32)
    rows, rows_exact = _count_section(domain, m, DENSE_BUDGET_BYTES // (32 * cols))
    exact = cols_exact and rows_exact
    shape = f"{rows} x {cols}" if exact else f"of at least {rows} x {cols} points"
    return _dense_bytes(rows, cols), f"dense window {shape}", exact


def _check_dense_budget(domain: StarlikeDomain, m: int, n: int) -> None:
    _check_budget(*_dense_charge(domain, m, n))


def _check_window(domain: StarlikeDomain, n: int, per_point: int, rest: str) -> None:
    """Refuse window n at per_point bytes a point; `rest` ends the refusal's name."""
    size, exact = _count_section(domain, n, DENSE_BUDGET_BYTES // per_point)
    points = f"{size} points" if exact else f"at least {size} points"
    _check_budget(size * per_point, f"window of {points}{rest}", exact)


def _check_window_budget(operator: OperatorSpec, domain: StarlikeDomain, n: int) -> None:
    """Refuse a scanned square window n whose points and triplets pass the budget.

    Per point, as measured with tracemalloc: the window's int64 row (8 bytes
    per coordinate), its sorted key and one diagonal's working arrays in
    section_triplets (48 bytes together), and per stored diagonal one
    (row, column, value) triplet of 32 bytes, whose 16-byte value part is
    held twice while the values are joined.
    """
    diagonals = len(operator.diagonals)
    per_point = 48 + 8 * operator.dimension + 48 * diagonals
    _check_window(domain, n, per_point, f" and {diagonals} stored diagonals")


def _check_edge_family_budget(edges: int, dimension: int) -> None:
    """Refuse a built-in edge family of `edges` edges before it is generated.

    As measured with tracemalloc, generating one as a (k, 2, N) int64 array
    and normalising it in AdjacencyGraph.from_edges peaks at 19 + 64N bytes
    per edge: the generated array and its normalised copy (16N each) and
    the sort of all ends that finds a shared one.
    """
    _check_budget((24 + 64 * dimension) * edges, f"edge family of {edges} edges")


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
    size = 16 * n_rows * n_cols  # complex128 entries
    if size < _HUGE_PAGE_ARRAY_BYTES:
        return np.zeros((n_rows, n_cols), dtype=complex)
    # Imported here: loading it adds about 0.06 MB to runs that never map a block.
    import mmap

    buffer = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    return np.frombuffer(buffer, dtype=complex).reshape(n_rows, n_cols)


def assemble(operator: OperatorSpec, rows: IndexSet, cols: IndexSet) -> SectionMatrix:
    """Materialize the block of the operator matrix over rows x cols."""
    _check_budget(_dense_bytes(len(rows), len(cols)), f"dense window {len(rows)} x {len(cols)}")
    r_idx, c_idx, values = section_triplets(operator, rows, cols)
    data = _zero_block(len(rows), len(cols))
    data[r_idx, c_idx] = values
    return SectionMatrix(rows, cols, data)


def fsm_section(operator: OperatorSpec, domain: StarlikeDomain, n: int) -> SectionMatrix:
    """Square section over the n-th lattice window."""
    _check_dense_budget(domain, n, n)
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
    _check_dense_budget(domain, m, n)
    return assemble(operator, lattice_section(domain, m), lattice_section(domain, n))


def overflow_block(
    operator: OperatorSpec, domain: StarlikeDomain, m: int, n: int
) -> SectionMatrix:
    """Rows of the operator's action on window-n columns that escape window m.

    Column j meets row j + d on a band's stored diagonal d, and only its
    swap in a graph, so the rows are those images of window n outside
    window m.  They carry every nonzero entry of the escaping action, and
    any other row would be a zero row, so the block's spectral norm is
    exactly the norm of the complementary truncation.  ValueError when a
    shift of window n leaves int64, or when window n is too wide for even one row.
    """
    _check_window(domain, n, _dense_bytes(1, 1), " as overflow columns")
    cols = lattice_section(domain, n)
    escaping = [np.zeros((0, operator.dimension), dtype=np.int64)]
    if isinstance(operator, AdjacencyGraph):
        points = operator.swap(cols)
        escaping.append(points[~domain.contains_array(points, m)])
    else:
        lo, hi = cols.array.min(axis=0).tolist(), cols.array.max(axis=0).tolist()
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
