"""Numeric kernels: minimum-norm least squares, singular values, the invertibility test.

Matrices are plain 2-D complex numpy arrays, except for the sparse
extremes kernel, which takes COO triplets and runs a real LU and real
symmetric Lanczos when every value is real.  Invertibility is decided by
the relative spectral test `invertible`, the standard numeric proxy for
exact invertibility.  Square windows get their sigma extremes from
fsm.section_extremes, and rfsm.normal_equations_solve tests its Gram
matrix on `singular_values` before it solves it with numpy.
"""

from __future__ import annotations

import math

import numpy as np

TAU_REL_DEFAULT = 1e-10
NORM_CAP_DEFAULT = 1e6

__all__ = [
    "TAU_REL_DEFAULT",
    "NORM_CAP_DEFAULT",
    "as_matrix",
    "singular_values",
    "sparse_extremes",
    "spectral_norm",
    "min_singular_value",
    "invertible",
    "least_squares",
]


def as_matrix(data) -> np.ndarray:
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return m


def singular_values(matrix) -> np.ndarray:
    """All singular values in descending order (empty for degenerate shapes)."""
    m = as_matrix(matrix)
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def sparse_extremes(rows, cols, values, size: int) -> tuple[float, float] | None:
    """(sigma_min, sigma_max) of the size x size matrix with COO triplets, or None.

    sigma_min is 1/sqrt(lambda_max) of A^-1 A^-H, applied through two solves
    with a sparse LU of A; sigma_max is sqrt(lambda_max) of A^H A.  Both
    eigenvalues come from Lanczos (ARPACK) to machine precision from a fixed
    start vector, so repeated runs give the same doubles.  A matrix whose
    values all have zero imaginary part is factored and iterated in float64
    (a real LU, the symmetric real Lanczos driver); any other in complex128.
    None means the LU is exactly singular, ARPACK failed, or a result is not
    finite; the caller then falls back to the dense SVD.
    """
    # scipy is imported here so that importing the package does not load it.
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    values = np.asarray(values)
    dtype = complex if values.imag.any() else float
    a = csc_matrix(
        (values if dtype is complex else values.real, (rows, cols)),
        shape=(size, size),
        dtype=dtype,
    )
    try:
        lu = splu(a)
    except RuntimeError:  # exactly singular factor
        return None
    ah = a.conj(copy=False).T
    trans = "H" if dtype is complex else "T"
    inverse_gram = LinearOperator(
        (size, size), matvec=lambda x: lu.solve(lu.solve(x, trans=trans)), dtype=dtype
    )
    gram = LinearOperator((size, size), matvec=lambda x: ah @ (a @ x), dtype=dtype)
    v0 = np.random.default_rng(0).standard_normal(size).astype(dtype)
    try:
        lam_inv, lam = (
            eigsh(op, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)[0]
            for op in (inverse_gram, gram)
        )
    except ArpackError:
        return None
    lam_inv, lam = float(lam_inv.real), float(lam.real)
    if not (0.0 < lam_inv < math.inf and 0.0 <= lam < math.inf):
        return None
    return 1.0 / math.sqrt(lam_inv), math.sqrt(lam)


def spectral_norm(matrix) -> float:
    """Largest singular value; 0 for matrices with an empty axis."""
    sv = singular_values(matrix)
    return float(sv[0]) if sv.size else 0.0


def min_singular_value(matrix) -> float:
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError("smallest singular value is defined for square matrices here")
    if m.size == 0:
        raise ValueError("empty matrix")
    return float(singular_values(m)[-1])


def invertible(smin: float, smax: float, tau_rel: float) -> bool:
    """The relative invertibility test sigma_min > tau_rel * max(sigma_max, 1)."""
    return smin > tau_rel * max(smax, 1.0)


def least_squares(matrix, rhs) -> np.ndarray:
    """Minimum-norm minimizer of ||M x - rhs||_2 (pseudo-inverse solution)."""
    m = as_matrix(matrix)
    b = np.asarray(rhs, dtype=complex)
    if b.shape[0] != m.shape[0]:
        raise ValueError("right-hand side length mismatch")
    if m.shape[1] == 0:
        return np.zeros(0, dtype=complex)
    if m.shape[0] == 0:
        return np.zeros(m.shape[1], dtype=complex)
    x, *_ = np.linalg.lstsq(m, b, rcond=TAU_REL_DEFAULT)
    return x
