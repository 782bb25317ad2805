"""Support detection and root finding: the outer loop every solver runs.

The solver alternates two moves until the active set stops changing:

1. keep the T coordinates with the largest keys sqrt(g_i) * |beta_i + tau d_i|
   (hard-threshold selection with the implied threshold equal to the T-th
   largest key), and
2. solve the unpenalized least-squares problem restricted to that set,
   then refresh the dual step d at the new iterate.

The loop runs on a cluster "engine" (``cluster.py``) that supplies curvature,
dual steps and the restricted solve. ESDAR, the single-machine method, is the
low-communication fit on a one-machine cluster, so M=1 runs are ESDAR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import SolverConfig
from .data import Dataset, SparseCoefficients
from .linalg import gram_submatrix, spd_solve

__all__ = [
    "SparseCoefficients",
    "FitResult",
    "detect_active",
    "normal_equations",
    "root_find_local",
    "esdar_fit",
    "kkt_residual",
]


@dataclass
class FitResult:
    """Solver output shared by all variants.

    ``d`` and ``g`` are the final detection vectors the algorithm itself
    used (full-data for the single-machine solver, averaged for the
    distributed one, master-shard for the low-communication one), with d
    zeroed on the solved active set. ``rel_loss`` is the half-mean-square
    loss relative to the zero solution, so converged fits have it <= 0.
    ``iterations`` counts the restricted solves run, except on a cycled fit,
    where it is the index of the returned best iterate. ``learned`` is the
    last surrogate root find's ``cluster.LearnedGram`` (None at M=1), and
    ``known_dual`` the last iterate whose full-sample raw dual the fit
    exchanged, with that dual (a ``cluster.KnownDual``; None for ESDAR and
    ECESDAR, whose duals are the master shard's); a later fit warm-started
    from this one carries both on.
    """

    beta: SparseCoefficients
    iterations: int
    converged: bool
    active_history: list
    d: np.ndarray
    g: np.ndarray
    rel_loss: float
    jittered: bool = False
    cycled: bool = False
    ledger: object = None
    inner_rounds: list = field(default_factory=list)
    messages: list | None = None
    learned: object = None
    known_dual: object = None


class ActiveSelection(NamedTuple):
    indices: np.ndarray
    threshold: float


def detection_keys(beta: SparseCoefficients, d: np.ndarray, g: np.ndarray,
                   tau: float) -> np.ndarray:
    """sqrt(g_i) * |beta_i + tau d_i| for every coordinate."""
    return np.sqrt(g) * np.abs(beta.dense() + tau * d)


def detect_active(beta: SparseCoefficients, d: np.ndarray, g: np.ndarray,
                  sparsity: int, tau: float) -> ActiveSelection:
    """Top-``sparsity`` coordinates by detection key.

    Ties at the boundary break toward the smallest index. The returned
    threshold is the sparsity-th largest key (the implied sqrt(2 lambda)),
    exposed for diagnostics.
    """
    keys = detection_keys(beta, d, g, tau)
    p = keys.shape[0]
    if sparsity > p:
        raise ValueError(f"sparsity {sparsity} exceeds dimension {p}")
    threshold = np.partition(keys, p - sparsity)[p - sparsity]
    chosen = np.flatnonzero(keys >= threshold)
    if chosen.size > sparsity:  # ties at the threshold: drop the largest tied indices
        tied = chosen[keys[chosen] == threshold]
        chosen = np.setdiff1d(chosen, tied[sparsity - chosen.size:])
    return ActiveSelection(chosen, float(threshold))


def normal_equations(data: Dataset, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X_A'X_A/n, X_A'y/n): the least-squares system of ``data`` on ``active``."""
    sub = data.columns(active)
    gram = gram_submatrix(sub, float(data.n))
    rhs = sub.T @ data.y / data.n
    return gram, rhs


def root_find_local(data: Dataset, active) -> tuple[SparseCoefficients, bool]:
    """Least squares restricted to ``active``: (X_A'X_A/n) b = X_A'y/n.

    Coordinates off the active set are exactly zero. Returns the solution
    together with the jitter flag of the underlying solve.
    """
    active = np.asarray(active, dtype=np.int64)
    if active.size == 0:
        return SparseCoefficients.zeros(data.p), False
    gram, rhs = normal_equations(data, active)
    solution, jittered = spd_solve(gram, rhs, active_set=active)
    return SparseCoefficients(data.p, active, solution), jittered


def residual_correlation(data: Dataset, beta: SparseCoefficients) -> np.ndarray:
    """X'(y - X beta)/n, the raw (curvature-free) dual direction."""
    return data.correlate_residual(data.y - data.columns(beta.support) @ beta.values)


def _sdar_loop(engine, cfg: SolverConfig, warm=None) -> FitResult:
    """Shared outer loop: detect, check stability, solve, refresh dual.

    The relative loss -beta'(c + raw)/2 (c is the correlation at beta = 0)
    equals the absolute loss minus the loss of the zero solution and is
    computable from quantities every engine already has; it drives the
    cycling guard and is reported in the result.

    ``warm`` is an earlier fit (a ``FitResult``) or None: its ``beta`` and
    ``d`` seed the first detection. The zero-point correlation is still
    evaluated so the loss bookkeeping stays uniform.
    """
    g = engine.curvature()
    zeros = SparseCoefficients.zeros(engine.p)
    raw = engine.raw_dual(zeros)
    zero_correlation = raw
    beta, d = (zeros, raw / g) if warm is None else (warm.beta, warm.d)
    if beta.dim != engine.p or d.shape != (engine.p,):
        raise ValueError("warm start does not match the problem dimension")
    rel_loss = 0.0

    history: list[np.ndarray] = []
    best = (math.inf, None, None, 0)
    iterations = 0
    converged = False
    jittered = False
    inner_rounds: list[int] = []

    for _ in range(cfg.max_iter + 1):
        active, _threshold = detect_active(beta, d, g, cfg.sparsity, cfg.tau)
        if history and np.array_equal(active, history[-1]):
            converged = True
            break
        cycled = any(np.array_equal(active, past) for past in history)
        history.append(active)
        if cycled or iterations >= cfg.max_iter:
            break

        beta, step_jittered, rounds = engine.root_find(active)
        jittered = jittered or step_jittered
        inner_rounds.append(rounds)
        raw = engine.raw_dual(beta)
        dense = beta.dense()
        rel_loss = -0.5 * float(dense @ (zero_correlation + raw))
        d = raw / g
        d[active] = 0.0
        iterations += 1
        if rel_loss < best[0]:
            best = (rel_loss, beta, d, iterations)

    if cycled and best[1] is not None:
        # Revisited an earlier active set without stabilizing: return the
        # smallest-loss iterate, flagged not converged.
        rel_loss, beta, d, iterations = best

    result = FitResult(
        beta=beta.canonical(), iterations=iterations, converged=converged,
        active_history=history, d=d, g=g, rel_loss=rel_loss,
        jittered=jittered, cycled=cycled, inner_rounds=inner_rounds,
    )
    engine.finish(result.beta)
    return result


def esdar_fit(data: Dataset, cfg: SolverConfig) -> FitResult:
    """Single-machine fit from beta = 0 with the dual step evaluated there:
    the low-communication fit on one machine, whose master holds every row.
    It keeps no ledger. Stops when the active set repeats, at the iteration
    cap (returned with ``converged=False``, not an error), or on the cycling
    guard.
    """
    from .cluster import _MasterOnlyEngine, _distributed_fit  # cluster imports this module
    result = _distributed_fit(_MasterOnlyEngine, data, 1, cfg)
    result.ledger = None
    return result


def kkt_residual(data: Dataset, beta: SparseCoefficients, sparsity: int, tau: float,
                 d: np.ndarray | None = None, g: np.ndarray | None = None) -> float:
    """Distance of ``beta`` from a fixed point of the detect/solve system.

    Zero means an exact fixed point. Three components, the maximum wins:
    the dual step on the detected top-``sparsity`` set, the dual step on the
    support, and the threshold-consistency violation (how far the largest
    out-of-support key rises above the smallest in-support key). ``d`` and
    ``g`` default to the full-data quantities at ``beta``; pass an
    algorithm's own final vectors to check its fixed point instead.
    """
    if g is None:
        g = data.column_curvature()
    if d is None:
        d = residual_correlation(data, beta) / g
    beta = beta.canonical()
    active, _ = detect_active(beta, d, g, sparsity, tau)
    on_detected = float(np.max(np.abs(d[active]))) if active.size else 0.0
    on_support = float(np.max(np.abs(d[beta.support]))) if beta.support.size else 0.0
    violation = 0.0
    if beta.support.size:
        keys = detection_keys(beta, d, g, tau)
        inside = np.zeros(beta.dim, dtype=bool)
        inside[beta.support] = True
        if (~inside).any():
            violation = max(0.0, float(keys[~inside].max() - keys[inside].min()))
    return max(on_detected, on_support, violation)
