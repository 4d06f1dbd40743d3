"""Primitives on the cone of symmetric positive semidefinite matrices.

Conventions used throughout the package:

* ``vec`` stacks columns (column-major), ``vech`` stacks the entries on or
  below the diagonal column by column, matching the duplication-matrix
  convention of the matrix-calculus literature.
* PSD tolerances are relative: a symmetric matrix ``m`` passes the cone test
  when its smallest eigenvalue is >= ``-tol * max(1, ||m||_2)``.  Absolute
  tolerances break down at large SNR scales.
* Eigendecompositions of symmetric matrices always go through
  ``numpy.linalg.eigh`` / ``eigvalsh`` (real spectrum guaranteed); the
  generic nonsymmetric routines are never used here.

Validation policy: each input is checked once, where it enters the program
(constructors such as ``Prior`` and ``ModelSpec``, CLI parsing, and public
functions that take a raw matrix) by the one checker :func:`check_symmetric`
(square, finite, symmetric at ``DEFAULT_PSD_TOL``), alone or before the cone
test of :func:`check_psd` and :func:`is_psd`.  The primitives :func:`sym`,
:func:`vech`, :func:`project_psd` and :func:`sqrtm_psd` trust their input and
check nothing, so hot loops on checked matrices pay no validation.
"""

import functools

import numpy as np

DEFAULT_PSD_TOL = 1e-9


def sym(m):
    """Exact symmetrization (m + m.T)/2."""
    a = np.asarray(m, dtype=np.float64)
    return 0.5 * (a + a.T)


def check_symmetric(m, name="matrix"):
    """Symmetrized ``m``; raises unless square, finite and symmetric (relative tol)."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    dev = np.abs(a - a.T).max()
    if dev > DEFAULT_PSD_TOL * max(1.0, np.abs(a).max()):
        raise ValueError(f"{name} is not symmetric (max asymmetry {dev:.3e})")
    return sym(a)


@functools.lru_cache(maxsize=None)
def _triu_indices(d):
    # built once per dimension: vech and unvech are the coordinates of every
    # state-evolution iteration, and np.triu_indices costs more than the copy
    rows, cols = np.triu_indices(d)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def vech(m):
    """Half-vectorization: stack entries on or below the diagonal, column-major.

    ``[[a, b], [b, c]] -> (a, b, c)``.
    """
    a = np.asarray(m, dtype=np.float64)
    rows, cols = _triu_indices(a.shape[0])
    # (cols, rows) walks the lower triangle column by column
    return a[cols, rows]


def unvech(v):
    """Inverse of :func:`vech` (returns the symmetric matrix)."""
    v = np.asarray(v, dtype=np.float64)
    d = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    if d * (d + 1) // 2 != v.size:
        raise ValueError(f"vector of length {v.size} is not a vech of any square matrix")
    out = np.zeros((d, d))
    rows, cols = _triu_indices(d)
    out[cols, rows] = v
    out[rows, cols] = v
    return out


def duplication_matrix(d):
    """The unique 0/1 matrix D_d with D_d @ vech(M) == vec(M) for symmetric M.

    ``vec`` is column-major.  Shape (d*d, d*(d+1)/2), integer entries, full
    column rank.
    """
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    D = np.zeros((d * d, d * (d + 1) // 2), dtype=np.int64)
    for j in range(d):
        for i in range(d):
            lo, hi = min(i, j), max(i, j)
            k = lo * d - (lo * (lo - 1)) // 2 + (hi - lo)
            D[j * d + i, k] = 1
    return D


def _cone_test(a, tol):
    """(passes, min eigenvalue) of the relative cone test on a symmetric ``a``."""
    # 1x1 fast path: the generic LAPACK call dominates scalar-model hot loops
    w = a.ravel() if a.shape == (1, 1) else np.linalg.eigvalsh(a)
    min_eig = w.min()
    return bool(min_eig >= -tol * max(1.0, np.abs(w).max())), min_eig


def is_psd(m, tol=DEFAULT_PSD_TOL):
    """Cone membership test: min eigenvalue >= -tol * max(1, spectral norm)."""
    return _cone_test(check_symmetric(m), tol)[0]


def check_psd(m, name="matrix"):
    """Symmetrize and raise unless ``m`` passes :func:`is_psd`."""
    a = check_symmetric(m, name=name)
    passes, min_eig = _cone_test(a, DEFAULT_PSD_TOL)
    if not passes:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {min_eig:.3e})")
    return a


def project_psd(m):
    """Nearest PSD matrix in Frobenius norm: eigenvalue clipping at 0.

    Idempotent; returns ``m`` unchanged (within rounding) when already PSD.
    """
    a = sym(m)
    if a.shape == (1, 1):
        return a if a[0, 0] >= 0.0 else np.zeros((1, 1))
    w, v = np.linalg.eigh(a)
    if w.size and w.min() >= 0.0:
        return a
    w = np.maximum(w, 0.0)
    return sym((v * w) @ v.T)


def loewner_leq(a, b, tol=DEFAULT_PSD_TOL):
    """Loewner order test ``a <= b``, i.e. b - a is PSD at ``tol``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return is_psd(b - a, tol)


def sqrtm_psd(m):
    """Symmetric PSD square root via eigendecomposition.

    Precondition: ``m`` is symmetric PSD (checked by the caller); nothing is
    re-checked here.  Eigenvalues below zero by rounding are clipped to zero.
    The symmetric root (not a Cholesky factor) is required: downstream
    matrix-valued identities depend on the root itself, not just on the
    Gram product.  Singular input is handled naturally (zero directions
    stay zero).
    """
    a = np.asarray(m, dtype=np.float64)
    if a.shape == (1, 1):
        return np.sqrt(np.maximum(a, 0.0))
    w, v = np.linalg.eigh(a)
    w = np.maximum(w, 0.0)
    return sym((v * np.sqrt(w)) @ v.T)


def frobenius(m):
    return float(np.linalg.norm(np.asarray(m), "fro"))
