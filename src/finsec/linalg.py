"""Numeric kernels: minimum-norm least squares, singular values, the invertibility test.

Matrices are plain 2-D complex numpy arrays, except for the sparse
extremes kernel, which takes COO triplets and runs a real LU and real
symmetric Lanczos when every value is real.  Invertibility is decided by
the relative spectral test `invertible`, the standard numeric proxy for
exact invertibility.  Square windows get their sigma extremes from
fsm.section_extremes, and rfsm.normal_equations_solve tests its Gram
matrix on `singular_values` before it solves it with numpy.  `_free_cores`
sizes the pool of forked processes (fsm._pooled_windows) in which scans and
studies run these kernels side by side.
"""

from __future__ import annotations

import math
import os

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
    return np.linalg.svd(as_matrix(matrix), compute_uv=False)


def sparse_extremes(rows, cols, values, size: int) -> tuple[float, float] | None:
    """(sigma_min, sigma_max) of the size x size matrix with COO triplets, or None.

    sigma_min is 1/sqrt(lambda_max) of A^-1 A^-H, applied through two solves
    with a sparse LU of A; sigma_max is sqrt(lambda_max) of A^H A.  Both
    eigenvalues come from Lanczos (ARPACK) to machine precision from a fixed
    start vector, so repeated runs give the same doubles, except that on
    some windows (worked_Aprime's n = 346 and 373) sigma_min varies in its
    last bits from call to call under the optimised BLAS kernels.  A matrix
    whose values all have zero imaginary part is factored and iterated in
    float64 (a real LU, the symmetric real Lanczos driver); any other in
    complex128.  None means an entry lies past 2^+-500, the LU is exactly
    singular, ARPACK failed or printed an error, or a result is not finite;
    the caller then falls back to the dense SVD.
    """
    # scipy and tempfile are imported here so that importing the package does not load them.
    import tempfile
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    values = np.asarray(values)
    # SuperLU wrote out of bounds once its elimination overflowed (entries of 1e240 beside
    # 1e120): entries past 2^+-500, whose products may leave a double's range, go dense.
    magnitudes = np.abs(values[values != 0])
    if magnitudes.size and not 2.0**-500 <= magnitudes.min() <= magnitudes.max() <= 2.0**500:
        return None
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
    # LAPACK inside ARPACK prints its error text to file descriptor 1, where the
    # report goes: the text lands in a temporary file, and any of it declines.
    # Opened first, the file takes descriptor 1 itself when that is closed.
    with tempfile.TemporaryFile() as sink:
        saved = os.dup(1)
        os.dup2(sink.fileno(), 1)
        try:
            lam_inv, lam = (
                eigsh(op, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)[0]
                for op in (inverse_gram, gram)
            )
        except ArpackError:
            return None
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        printed = os.fstat(sink.fileno()).st_size
    lam_inv, lam = float(lam_inv.real), float(lam.real)
    if printed or not (0.0 < lam_inv < math.inf and 0.0 <= lam < math.inf):
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
    x, *_ = np.linalg.lstsq(m, b, rcond=TAU_REL_DEFAULT)
    return x


# OpenBLAS reads the first of these when it loads and MKL the second; both
# fall back to the third and otherwise use every core.  The first one set is
# taken as the thread count of one BLAS call.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _free_cores() -> int:
    """Usable cores divided by the threads each BLAS call runs on, at least 1.

    Windows solved (rfsm) or scanned (fsm) in worker processes side by side
    only gain when each LAPACK call leaves cores idle; with a multi-threaded
    BLAS they contend for the same cores and run slower than one after another.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    settings = (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARIABLES)
    blas = next((int(v) for v in settings if v.isdigit() and int(v) > 0), cores)
    return max(1, cores // blas)
