"""Minimal dense linear algebra used by the solvers.

Thin, validated wrappers over numpy/scipy. Everything here is deterministic
for identical inputs (fixed accumulation order inside BLAS for a fixed
build), which the M=1 reduction tests rely on.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .exceptions import SingularSystemError

__all__ = ["gram_submatrix", "spd_solve"]

# Guard against runaway active sets; |A| stays in the tens in normal use.
MAX_SPD_DIM = 10_000


def _check_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def gram_submatrix(sub: np.ndarray, scale: float) -> np.ndarray:
    """sub' sub / scale for gathered columns ``sub`` = X_A, exactly symmetric.

    Symmetry is enforced by computing the product once and mirroring the
    upper triangle, so the result is bitwise symmetric.
    """
    sub = np.asarray(sub, dtype=float)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    g = sub.T @ sub / scale
    upper = np.triu(g)
    return upper + np.triu(g, 1).T


def spd_solve(a: np.ndarray, b: np.ndarray, active_set=None):
    """Solve a symmetric positive-definite system A x = b by Cholesky.

    On factorization failure retries once with diagonal jitter
    1e-10 * trace(A)/dim and reports that through the returned flag.

    Returns
    -------
    (x, jittered) : solution vector and whether the jitter path was taken.

    Raises
    ------
    SingularSystemError if the system stays singular after jitter. The
    offending active set (when supplied) is attached to the error.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"spd_solve expects a square matrix, got {a.shape}")
    if a.shape[0] > MAX_SPD_DIM:
        raise ValueError(f"system dimension {a.shape[0]} exceeds cap {MAX_SPD_DIM}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    _check_finite(a, "matrix")
    _check_finite(b, "rhs")
    if not np.array_equal(a, a.T):
        raise ValueError("spd_solve expects an exactly symmetric matrix")
    if a.shape[0] == 0:
        return np.zeros(0), False
    # Both inputs are checked above, so scipy need not scan them again.
    try:
        return cho_solve(cho_factor(a, lower=True, check_finite=False), b,
                         check_finite=False), False
    except LinAlgError:
        pass
    dim = a.shape[0]
    jitter = 1e-10 * np.trace(a) / dim
    try:
        factor = cho_factor(a + jitter * np.eye(dim), lower=True, check_finite=False)
        return cho_solve(factor, b, check_finite=False), True
    except LinAlgError:
        raise SingularSystemError(
            f"active-set system of dimension {dim} singular even after jitter {jitter:g}",
            active_set=active_set,
        ) from None

