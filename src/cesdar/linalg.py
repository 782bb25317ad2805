"""Minimal dense linear algebra used by the solvers.

Thin, validated wrappers over numpy and LAPACK, whose ``dpotrf``/``dpotrs``
``spd_solve`` calls directly. Everything here is deterministic for identical
inputs (fixed accumulation order inside BLAS for a fixed build), which the
M=1 reduction tests rely on. Both sit on the solvers' hot path, so the Gram's
mirror runs only on a product not symmetric already, and ``spd_solve``
computes the jitter's trace only after a plain Cholesky fails.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import SingularSystemError

__all__ = ["gram_submatrix", "spd_solve"]

# Guard against runaway active sets; |A| stays in the tens in normal use.
MAX_SPD_DIM = 10_000


def gram_submatrix(sub: np.ndarray, scale: float) -> np.ndarray:
    """sub' sub / scale for gathered columns ``sub`` = X_A, exactly symmetric.

    The product's upper triangle mirrored. A product already symmetric (numpy's
    syrk path) is returned as ``g + 0.0``: the mirror's bits, its +0.0 for -0.0.
    """
    sub = np.asarray(sub, dtype=float)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    g = sub.T @ sub / scale
    if (g == g.T).all():
        return g + 0.0
    return np.triu(g) + np.triu(g, 1).T


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
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"spd_solve expects a square matrix, got {a.shape}")
    if a.shape[0] > MAX_SPD_DIM:
        raise ValueError(f"system dimension {a.shape[0]} exceeds cap {MAX_SPD_DIM}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if not np.isfinite(b).all():
        raise ValueError("rhs contains non-finite entries")
    if not (a == a.T).all():
        raise ValueError("spd_solve expects an exactly symmetric matrix")
    dim = a.shape[0]
    if dim == 0:
        return np.zeros(0), False
    jitter, (factor, info) = 0.0, dpotrf(a, lower=1)
    if info:
        jitter = 1e-10 * np.trace(a) / dim
        factor, info = dpotrf(a + jitter * np.eye(dim), lower=1)
    if info == 0:
        return dpotrs(factor, b, lower=1)[0], bool(jitter)
    raise SingularSystemError(f"active-set system of dimension {dim} singular even after "
                              f"jitter {jitter:g}", active_set=active_set)
