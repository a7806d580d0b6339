"""Realize finite windows of an operator matrix as dense blocks with index maps."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import IndexSet, StarlikeDomain, lattice_section, lattice_section_size
from .operators import OperatorSpec

__all__ = [
    "SectionMatrix",
    "assemble",
    "section_triplets",
    "fsm_section",
    "rfsm_section",
    "overflow_block",
]

# Largest dense block, in bytes, that assemble allocates (fsm_section and
# rfsm_section check it before building their windows); only the sparse sigma
# route of a scan reaches past it.
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

    Offsets are distinct, so each (r, c) appears at most once.
    """
    if rows.dimension != operator.dimension or cols.dimension != operator.dimension:
        raise ValueError("index set dimension mismatch")
    r_idx: list[int] = []
    c_idx: list[int] = []
    values: list[complex] = []
    position = cols.positions
    # Walk each stored diagonal once: row i meets column i - offset.
    for offset, rule in operator.diagonals:
        for r, i in enumerate(rows.points):
            c = position.get(tuple(a - b for a, b in zip(i, offset)))
            if c is not None:
                value = rule.value_at(i)
                if value != 0:
                    r_idx.append(r)
                    c_idx.append(c)
                    values.append(value)
    return (
        np.array(r_idx, dtype=np.intp),
        np.array(c_idx, dtype=np.intp),
        np.array(values, dtype=complex),
    )


def _check_dense_budget(n_rows: int, n_cols: int) -> None:
    size = 16 * n_rows * n_cols  # bytes of complex128 entries
    if size > DENSE_BUDGET_BYTES:
        raise ValueError(
            f"dense window {n_rows} x {n_cols} needs {size} bytes, over the "
            f"{DENSE_BUDGET_BYTES}-byte budget"
        )


def assemble(operator: OperatorSpec, rows: IndexSet, cols: IndexSet) -> SectionMatrix:
    """Materialize the block of the operator matrix over rows x cols."""
    _check_dense_budget(len(rows), len(cols))
    r_idx, c_idx, values = section_triplets(operator, rows, cols)
    data = np.zeros((len(rows), len(cols)), dtype=complex)
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
    _check_dense_budget(
        lattice_section_size(domain, m), lattice_section_size(domain, n)
    )
    return assemble(operator, lattice_section(domain, m), lattice_section(domain, n))


def overflow_block(
    operator: OperatorSpec, domain: StarlikeDomain, m: int, n: int
) -> SectionMatrix:
    """Rows of the operator's action on window-n columns that escape window m.

    For a band operator every nonzero entry outside the m-window lands in
    the max-norm expansion of the n-window by the band width, so this
    finite block carries the full escaping action and its spectral norm
    is exactly the norm of the complementary truncation.
    """
    width = operator.band_width()
    cols = lattice_section(domain, n)
    ball = list(
        itertools.product(range(-width, width + 1), repeat=operator.dimension)
    )
    expanded = {
        tuple(a + b for a, b in zip(p, d)) for p in cols.points for d in ball
    }
    escaped = [p for p in expanded if not domain.contains(p, m)]
    rows = IndexSet.from_points(operator.dimension, escaped)
    return assemble(operator, rows, cols)
