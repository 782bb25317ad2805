"""Adaptive sparsity selection: sweep the active-set size, score by HBIC.

The sweep walks T = step, 2*step, ... up to the sample-driven cap
floor(n / (log(log n) * log p)) (n is the master-shard size), warm-starting
every fit from the previous path point. Each warm fit is checked against a
cold start and the better of the two (by half-mean-square loss) is kept, so
warm starting can never worsen a path point. The point with the smallest
HBIC wins; ties go to the smaller T.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cluster import cesdar_fit
from .config import SolverConfig, TuningConfig
from .data import Dataset
from .exceptions import ConfigurationError
from .sdar import FitResult, SparseCoefficients

__all__ = ["PathPoint", "hbic", "max_sparsity_cap", "acesdar_fit", "write_path_csv"]

# Loss slack under which the warm-started fit is considered no worse.
WARM_START_SLACK = 1e-8


def _half_mse_loss(data: Dataset, beta: SparseCoefficients) -> float:
    residual = data.y - data.x[:, beta.support] @ beta.values
    return 0.5 * float(residual @ residual) / data.n


def hbic(data: Dataset, beta: SparseCoefficients) -> float:
    """log of the mean squared residual plus (log log n * log p / n) |supp|.

    Natural logarithms throughout. A zero residual (perfect interpolation)
    returns -inf and emits a warning; it is never swallowed silently.
    """
    if beta.dim != data.p:
        raise ValueError(f"coefficient dimension {beta.dim} does not match p={data.p}")
    mse = 2.0 * _half_mse_loss(data, beta)  # exact: scaling by 2 rounds nothing
    size = int(np.count_nonzero(beta.values))
    if mse == 0.0:
        warnings.warn("zero residual: HBIC is -inf (degenerate fit)", stacklevel=2)
        return -math.inf
    return math.log(mse) + math.log(math.log(data.n)) * math.log(data.p) / data.n * size


def max_sparsity_cap(n: int, p: int, override: int | None = None) -> int:
    """floor(n / (log(log n) * log p)), the largest sparsity worth sweeping."""
    if override is not None:
        return int(override)
    if n < 16:
        raise ConfigurationError(
            f"n={n} is too small for the sparsity cap formula; set j_override"
        )
    if p < 2:
        raise ConfigurationError(f"p must be >= 2, got {p}")
    return int(n / (math.log(math.log(n)) * math.log(p)))


@dataclass
class PathPoint:
    """One sweep entry: target sparsity, its fit, and the HBIC score."""

    sparsity: int
    beta: SparseCoefficients
    hbic: float
    iterations: int
    loss: float
    support_size: int
    cold_fallback: bool
    fit: FitResult


def acesdar_fit(data: Dataset, tune: TuningConfig, collect_trace: bool = False):
    """Sweep, score, select. Returns (best point, full path).

    The cap uses the master-shard sample size floor(N/M) unless
    ``tune.j_override`` pins it, and never exceeds p.
    """
    n_master = data.n // tune.machines
    cap = max_sparsity_cap(n_master, data.p, tune.j_override)
    cap = min(cap, data.p)
    if cap < tune.step:
        raise ConfigurationError(
            f"empty path: cap {cap} is below the step {tune.step}; set j_override"
        )

    path: list[PathPoint] = []
    warm = None
    best = None
    level = 1
    while True:
        sparsity = tune.step * level
        if sparsity > cap:
            break
        cfg = SolverConfig(sparsity=sparsity, tau=tune.tau, max_iter=tune.max_iter)
        fit = cesdar_fit(data, tune.machines, cfg, collect_trace=collect_trace, warm=warm)
        loss = _half_mse_loss(data, fit.beta)
        cold_fallback = False
        if warm is not None:
            cold = cesdar_fit(data, tune.machines, cfg, collect_trace=collect_trace)
            cold_loss = _half_mse_loss(data, cold.beta)
            if loss > cold_loss + WARM_START_SLACK:
                fit, loss, cold_fallback = cold, cold_loss, True
        point = PathPoint(
            sparsity=sparsity, beta=fit.beta, hbic=hbic(data, fit.beta),
            iterations=fit.iterations, loss=loss,
            support_size=int(np.count_nonzero(fit.beta.values)),
            cold_fallback=cold_fallback, fit=fit,
        )
        path.append(point)
        if best is None or point.hbic < best.hbic:
            best = point
        warm = (fit.beta, fit.d)
        level += 1
    return best, path


def write_path_csv(path_points, out_path) -> None:
    """Path export: sparsity, HBIC, support size, iterations, loss."""
    with open(out_path, "w", newline="") as out:
        out.write("sparsity,hbic,support_size,iterations,loss\n")
        for point in path_points:
            out.write(f"{point.sparsity},{point.hbic!r},{point.support_size},"
                      f"{point.iterations},{point.loss!r}\n")
