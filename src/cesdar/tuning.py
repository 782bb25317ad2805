"""Adaptive sparsity selection: sweep the active-set size, score by HBIC.

The sweep walks T = step, 2*step, ... up to the sample-driven cap
floor(n / (log(log n) * log p)) (n is the master-shard size) with one fit
per point, warm-started from the previous point's fit as in the adaptive
SDAR of Huang, Jiao, Liu & Lu (2018); there is no cold restart, so a warm
start may end in a worse local fit than a cold one would. The point with
the smallest HBIC wins; ties go to the smaller T. One cluster serves every
fit of a path, so its set-up exchanges are made once, in the first point's
fit and ledger.

A warm start is the earlier fit itself: its (beta, d) seed the first
detection, and its learned Gram (``FitResult.learned``) and last exchanged
dual (``FitResult.known_dual``) the first root find. That Gram is what the
earlier fit's surrogate rounds revealed of the full-sample Gram, built only
from ReportGradient replies the master already received. The next point's
active set mostly adds a coordinate or two to the last one, so its root
find, preconditioned by that Gram on the shared coordinates, takes a few
rounds instead of about |A|. Where the mix would not be positive definite
the root find falls back to the master-shard Gram alone. The root find
starts at the earlier fit's last iterate, whose full-sample gradient on
the new set is its negated dual, so it opens with no exchange, and that
gradient nearly vanishes on the coordinates the two sets share. Every
message kind and size is unchanged; there are only fewer anchor exchanges.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cluster import SimulatedCluster, _check_machines, cesdar_fit
from .config import SolverConfig, TuningConfig
from .data import Dataset
from .exceptions import ConfigurationError
from .sdar import FitResult, SparseCoefficients

__all__ = ["PathPoint", "hbic", "max_sparsity_cap", "path_cap", "acesdar_fit", "write_path_csv"]

def _half_mse_loss(data: Dataset, beta: SparseCoefficients) -> float:
    residual = data.y - data.columns(beta.support) @ beta.values
    return 0.5 * float(residual @ residual) / data.n


def hbic(data: Dataset, beta: SparseCoefficients, loss: float | None = None) -> float:
    """log of the mean squared residual plus (log log n * log p / n) |supp|.

    Natural logarithms throughout. ``loss`` is beta's half-mean-square loss
    when the caller has it already; it is recomputed otherwise. A zero
    residual (perfect interpolation) returns -inf and emits a warning; it
    is never swallowed silently.
    """
    if beta.dim != data.p:
        raise ValueError(f"coefficient dimension {beta.dim} does not match p={data.p}")
    if loss is None:
        loss = _half_mse_loss(data, beta)
    mse = 2.0 * loss  # exact: scaling by 2 rounds nothing
    size = int(np.count_nonzero(beta.values))
    if mse == 0.0:
        warnings.warn("zero residual: HBIC is -inf (degenerate fit)", stacklevel=2)
        return -math.inf
    return math.log(mse) + math.log(math.log(data.n)) * math.log(data.p) / data.n * size


def max_sparsity_cap(n: int, p: int) -> int:
    """floor(n / (log(log n) * log p)), the largest sparsity worth sweeping."""
    if n < 16:
        raise ConfigurationError(
            f"n={n} is too small for the sparsity cap formula; set j_override"
        )
    if p < 2:
        raise ConfigurationError(f"p must be >= 2, got {p}")
    return int(n / (math.log(math.log(n)) * math.log(p)))


def path_cap(data: Dataset, tune: TuningConfig) -> int:
    """The largest sparsity the path sweeps: ``max_sparsity_cap`` on the
    master-shard size floor(N/M), or ``tune.j_override``, and never above p.
    ValueError if there are more machines than rows."""
    _check_machines(data.n, tune.machines)
    cap = tune.j_override or max_sparsity_cap(data.n // tune.machines, data.p)
    return min(int(cap), data.p)


@dataclass
class PathPoint:
    """One sweep entry: target sparsity, its fit, its loss and HBIC score."""

    sparsity: int
    hbic: float
    loss: float
    fit: FitResult
    # Never set; perfbench/spans.py reads it until the next benchmark change.
    cold_fallback: bool = False


def acesdar_fit(data: Dataset, tune: TuningConfig):
    """Sweep T = step, 2*step, ... up to ``path_cap``, score, select; each
    fit is warm-started from the last one. Returns (best point, full path)."""
    cap = path_cap(data, tune)
    if cap < tune.step:
        raise ConfigurationError(
            f"empty path: cap {cap} is below the step {tune.step}; set j_override"
        )

    cluster = SimulatedCluster(data, tune.machines)
    path: list[PathPoint] = []
    fit = None
    for sparsity in range(tune.step, cap + 1, tune.step):
        cfg = SolverConfig(sparsity=sparsity, tau=tune.tau, max_iter=tune.max_iter)
        fit = cesdar_fit(data, tune.machines, cfg, warm=fit, cluster=cluster)
        loss = _half_mse_loss(data, fit.beta)
        path.append(PathPoint(sparsity=sparsity, hbic=hbic(data, fit.beta, loss),
                              loss=loss, fit=fit))
    return min(path, key=lambda point: point.hbic), path  # the first of tied minima


def write_path_csv(path_points, out_path) -> None:
    """Path export: sparsity, HBIC, support size, iterations, loss."""
    with open(out_path, "w", newline="") as out:
        out.write("sparsity,hbic,support_size,iterations,loss\n")
        for point in path_points:
            out.write(f"{point.sparsity},{point.hbic!r},{point.fit.beta.support.size},"
                      f"{point.fit.iterations},{point.loss!r}\n")
