"""Replicated-experiment driver: the seven benchmark metrics plus the
error-bound diagnostics (mutual coherence, noise-level terms, sparse-spectrum
constants, premise-gated bound checks).

Naming note: the reported "AFDR" follows the source formula
|I_hat ∩ I_star| / |I_star| exactly, which is an inactive-set agreement rate
(close to 1 is good) rather than a false-discovery rate in the usual sense.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cluster import CommLedger, cesdar_fit, ecesdar_fit
from .config import ExperimentConfig
from .data import Dataset, SparseCoefficients, SyntheticSpec, generate, generate_test
from .sdar import esdar_fit, root_find_local
from .tuning import acesdar_fit

__all__ = [
    "estimation_error",
    "prediction_error",
    "discovery_rates",
    "oracle_indicator",
    "SOLVERS",
    "TrialResult",
    "MetricsSummary",
    "run_cell",
    "refold",
    "write_trials_csv",
    "write_summary_json",
    "emit_table",
    "mutual_coherence",
    "theory_bounds",
    "src_constants",
    "bound_check",
]

SCHEMA_VERSION = "bench-v1"
ORACLE_TOL = 1e-8

# The fixed-T solvers by algorithm name, each called as (data, machines,
# SolverConfig); ESDAR runs on one machine. ACESDAR, which picks T, is not one.
SOLVERS = {
    "esdar": lambda data, machines, cfg: esdar_fit(data, cfg),
    "cesdar": cesdar_fit,
    "ecesdar": ecesdar_fit,
}


def _dense(beta) -> np.ndarray:
    if isinstance(beta, SparseCoefficients):
        return beta.dense()
    return np.asarray(beta, dtype=float)


def estimation_error(beta_hat, beta_star) -> float:
    """Squared l2 distance ||beta_hat - beta_star||_2^2."""
    a, b = _dense(beta_hat), _dense(beta_star)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    diff = a - b
    return float(diff @ diff)


def prediction_error(test: Dataset, beta_hat) -> float:
    """Mean squared prediction error on a held-out set."""
    if test.n == 0:
        raise ValueError("empty test set")
    residual = test.x @ _dense(beta_hat) - test.y
    return float(residual @ residual) / test.n


def discovery_rates(support_hat, support_star, p: int):
    """(|A_hat ∩ A_star| / |A_star|, |I_hat ∩ I_star| / |I_star|)."""
    a_hat = set(int(i) for i in support_hat)
    a_star = set(int(i) for i in support_star)
    if not a_star:
        raise ValueError("true support is empty")
    if len(a_star) >= p:
        raise ValueError("true inactive set is empty")
    i_hat = set(range(p)) - a_hat
    i_star = set(range(p)) - a_star
    return (len(a_hat & a_star) / len(a_star), len(i_hat & i_star) / len(i_star))


def oracle_indicator(data: Dataset, beta_hat: SparseCoefficients, support_star) -> bool:
    """True iff the support is exact and the values match the least-squares
    fit on the true support within 1e-8 in the max norm."""
    support_star = np.asarray(sorted(int(i) for i in support_star), dtype=np.int64)
    beta_hat = beta_hat.canonical()
    if not np.array_equal(beta_hat.support, support_star):
        return False
    oracle, _ = root_find_local(data, support_star)
    gap = np.abs(beta_hat.dense() - oracle.dense()).max()
    return bool(gap <= ORACLE_TOL)


@dataclass
class TrialResult:
    """One replicate: the fit, its cost, and the per-trial metric terms."""

    replicate: int
    seed: int
    beta_hat: SparseCoefficients
    iterations: int
    converged: bool
    wall_clock_compute: float
    aee: float
    ape: float
    pdr_term: float
    inactive_term: float
    oracle: bool
    selected_sparsity: int
    worker_to_master_bytes: int
    total_bytes: int
    support_star: tuple
    error: str = ""


@dataclass
class MetricsSummary:
    """Cell-level fold of the trial metrics (means, and sds where reported)."""

    algorithm: str
    machines: int
    replicates: int
    completed: int
    aee_mean: float
    aee_sd: float
    ape_mean: float
    ape_sd: float
    apdr: float
    afdr: float
    ora: float
    ani: float
    art: float


def _mean_sd(values):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def refold(algorithm: str, machines: int, replicates: int, trials) -> MetricsSummary:
    """Pure fold of completed trials, in replicate order."""
    done = [t for t in trials if not t.error]
    aee_mean, aee_sd = _mean_sd([t.aee for t in done])
    ape_mean, ape_sd = _mean_sd([t.ape for t in done])
    return MetricsSummary(
        algorithm=algorithm, machines=machines, replicates=replicates,
        completed=len(done),
        aee_mean=aee_mean, aee_sd=aee_sd, ape_mean=ape_mean, ape_sd=ape_sd,
        apdr=float(np.mean([t.pdr_term for t in done])) if done else math.nan,
        afdr=float(np.mean([t.inactive_term for t in done])) if done else math.nan,
        ora=float(np.mean([1.0 if t.oracle else 0.0 for t in done])) if done else math.nan,
        ani=float(np.mean([t.iterations for t in done])) if done else math.nan,
        art=float(np.mean([t.wall_clock_compute for t in done])) if done else math.nan,
    )


def _run_one_trial(config: ExperimentConfig, replicate: int) -> TrialResult:
    seed = config.base_seed + replicate
    spec = SyntheticSpec(n=config.n, p=config.p, s=config.s,
                         signal_ratio=config.signal_ratio, noise_sd=config.noise_sd,
                         seed=seed)
    train, truth = generate(spec)
    test = generate_test(spec, truth, config.n_test)

    # ART times the algorithm only; data generation and metric evaluation
    # stay outside, and the simulated transfers cost nothing by design.
    start = time.perf_counter()
    if config.algorithm == "acesdar":
        best, _path = acesdar_fit(train, config.tuning_config())
        fit, selected = best.fit, best.sparsity
    else:
        fit = SOLVERS[config.algorithm](train, config.machines, config.solver_config())
        selected = config.sparsity
    elapsed = time.perf_counter() - start

    beta_hat = fit.beta
    pdr, inactive = discovery_rates(beta_hat.support, truth.support, config.p)
    ledger = fit.ledger or CommLedger()
    return TrialResult(
        replicate=replicate, seed=seed, beta_hat=beta_hat,
        iterations=fit.iterations, converged=fit.converged,
        wall_clock_compute=elapsed,
        aee=estimation_error(beta_hat, truth),
        ape=prediction_error(test, beta_hat),
        pdr_term=pdr, inactive_term=inactive,
        oracle=oracle_indicator(train, beta_hat, truth.support),
        selected_sparsity=selected,
        worker_to_master_bytes=ledger.worker_to_master_bytes(),
        total_bytes=ledger.total_bytes(),
        support_star=tuple(int(i) for i in truth.support),
    )


def _trial_or_error(args) -> TrialResult:
    config, replicate = args
    try:
        return _run_one_trial(config, replicate)
    except Exception as exc:  # noqa: BLE001 - per-trial errors are recorded
        return TrialResult(
            replicate=replicate, seed=config.base_seed + replicate,
            beta_hat=SparseCoefficients.zeros(config.p), iterations=0,
            converged=False, wall_clock_compute=0.0, aee=math.nan, ape=math.nan,
            pdr_term=math.nan, inactive_term=math.nan, oracle=False,
            selected_sparsity=0, worker_to_master_bytes=0, total_bytes=0,
            support_star=(), error=f"{type(exc).__name__}: {exc}",
        )


def run_cell(config: ExperimentConfig, jobs: int = 1):
    """Run one simulation cell; fresh data per replicate, seed base + a, in
    min(jobs, replicates) worker processes when jobs > 1.

    Returns (MetricsSummary, list[TrialResult]); trials are folded in
    replicate order regardless of how workers finish, so the summary is
    deterministic for a fixed base seed.
    """
    tasks = [(config, a) for a in range(config.replicates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            trials = list(pool.map(_trial_or_error, tasks))
    else:
        trials = [_trial_or_error(task) for task in tasks]
    summary = refold(config.algorithm, config.machines, config.replicates, trials)
    return summary, trials


def write_trials_csv(path, config: ExperimentConfig, trials) -> None:
    """One deterministic row per trial; wall-clock stays out on purpose."""
    with open(path, "w", newline="") as out:
        out.write("replicate,seed,algorithm,machines,n,p,s,sparsity,selected_sparsity,"
                  "iterations,converged,aee,ape,pdr_term,inactive_term,oracle,"
                  "worker_to_master_bytes,total_bytes,support_hat,support_star,error\n")
        for t in trials:
            support_hat = ";".join(str(int(i)) for i in t.beta_hat.support)
            support_star = ";".join(str(i) for i in t.support_star)
            error = t.error.replace(",", ";").replace("\n", " ")
            out.write(
                f"{t.replicate},{t.seed},{config.algorithm},{config.machines},"
                f"{config.n},{config.p},{config.s},{config.sparsity},"
                f"{t.selected_sparsity},{t.iterations},{int(t.converged)},"
                f"{t.aee!r},{t.ape!r},{t.pdr_term!r},{t.inactive_term!r},"
                f"{int(t.oracle)},{t.worker_to_master_bytes},{t.total_bytes},"
                f"{support_hat},{support_star},{error}\n"
            )


def write_summary_json(path, config: ExperimentConfig, summary: MetricsSummary) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "config": json.loads(config.to_json()),
        "metrics": {
            "AEE": summary.aee_mean, "AEE_sd": summary.aee_sd,
            "APE": summary.ape_mean, "APE_sd": summary.ape_sd,
            "APDR": summary.apdr, "AFDR": summary.afdr, "ORA": summary.ora,
            "ANI": summary.ani, "ART": summary.art,
            "completed": summary.completed, "replicates": summary.replicates,
        },
        "notes": {
            "AFDR": "inactive-set agreement rate |I_hat & I*|/|I*| (the "
                    "source formula; not a false-discovery rate)",
            "ART": "mean wall clock of the solver only; varies between runs",
        },
    }
    with open(path, "w") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")


def emit_table(path, summaries) -> None:
    """Benchmark-table layout: M, Method, AEE(sd), APE(sd), APDR, AFDR, ORA,
    ANI, ART. ART is wall clock and varies run to run; every other column is
    seed-deterministic."""
    with open(path, "w", newline="") as out:
        out.write("M,Method,AEE(sd),APE(sd),APDR,AFDR,ORA,ANI,ART\n")
        for s in summaries:
            out.write(
                f"{s.machines},{s.algorithm.upper()},"
                f"{s.aee_mean:.5f}({s.aee_sd:.5f}),"
                f"{s.ape_mean:.5f}({s.ape_sd:.5f}),"
                f"{s.apdr:.3f},{s.afdr:.5f},{s.ora:.2f},{s.ani:.2f},{s.art:.4f}\n"
            )


def emit_grid(path, cells) -> None:
    """Long-form grid over the sweep axes (one row per cell and method),
    the CSV counterpart of the dimension/sparsity figures."""
    with open(path, "w", newline="") as out:
        out.write("example,n,p,s,T,M,method,AEE,APE,APDR,AFDR,ORA,ANI,ART\n")
        for config, s in cells:
            out.write(
                f"{config.example or ''},{config.n},{config.p},{config.s},"
                f"{config.sparsity},{s.machines},{s.algorithm},"
                f"{s.aee_mean!r},{s.ape_mean!r},{s.apdr!r},{s.afdr!r},"
                f"{s.ora!r},{s.ani!r},{s.art!r}\n"
            )


def mutual_coherence(x: np.ndarray, block: int = 512) -> float:
    """Largest normalized |<x_i, x_j>| over distinct columns, blockwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("mutual coherence needs a matrix with at least two columns")
    norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    if np.any(norms == 0.0):
        raise ValueError("zero-norm column")
    unit = x / norms
    p = unit.shape[1]
    best = 0.0
    for start in range(0, p, block):
        stop = min(start + block, p)
        gram = np.abs(unit[:, start:stop].T @ unit)
        for row in range(stop - start):
            gram[row, start + row] = 0.0
        best = max(best, float(gram.max()))
    return best


class TheoryBounds(NamedTuple):
    eta1: float
    eta2: float
    gamma_mu: float


def theory_bounds(sigma: float, sparsity: int, p: int, n: int, alpha: float,
                  mu: float) -> TheoryBounds:
    """Noise-level terms and the coherence contraction factor.

    eta2 = sigma sqrt(2 log(p/alpha)/n), eta1 = sqrt(sparsity) * eta2 (the
    relation holds identically by construction), and
    gamma_mu = (1 + 2 T mu) T mu / (1 - (T-1) mu) + 2 T mu, defined only
    while (T-1) mu < 1.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if min(sparsity, p, n) < 1:
        raise ValueError("sparsity, p, and n must be positive")
    bounds = _theory_terms(sigma, sparsity, p, n, alpha, mu)
    if bounds.gamma_mu is None:
        raise ValueError(f"gamma_mu undefined: (T-1)*mu = {(sparsity - 1) * mu:.4f} >= 1")
    return bounds


def _theory_terms(sigma, sparsity, p, n, alpha, mu) -> TheoryBounds:
    """The formulas of ``theory_bounds`` unchecked; gamma_mu is None once
    (T-1) mu >= 1."""
    eta2 = sigma * math.sqrt(2.0 * math.log(p / alpha) / n)
    t_mu = sparsity * mu
    gamma_mu = None
    if (sparsity - 1) * mu < 1:
        gamma_mu = (1.0 + 2.0 * t_mu) * t_mu / (1.0 - (sparsity - 1) * mu) + 2.0 * t_mu
    return TheoryBounds(math.sqrt(sparsity) * eta2, eta2, gamma_mu)


class SrcConstants(NamedTuple):
    theta: float
    c_minus: float
    exact: bool
    samples: int


def src_constants(x: np.ndarray, sparsity: int, seed: int = 0,
                  n_samples: int = 2000, exact_limit: int = 14) -> SrcConstants:
    """Sparse-spectrum constants: the largest cross-block operator norm over
    disjoint column subsets and the smallest restricted Gram eigenvalue.

    Exact enumeration is exponential, so it only runs for p <= exact_limit;
    larger designs get a random-subset estimate with the sample size
    reported (bound reports built on it are labeled estimated).
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    if sparsity < 1 or 2 * sparsity > p:
        raise ValueError("need 1 <= sparsity and 2*sparsity <= p for disjoint subsets")

    def lam_min(cols):
        sub = x[:, cols]
        return float(np.linalg.eigvalsh(sub.T @ sub / n)[0])

    def cross_norm(a_cols, b_cols):
        block = x[:, a_cols].T @ x[:, b_cols] / n
        return float(np.linalg.norm(block, 2))

    if p <= exact_limit:
        c_minus = min(lam_min(list(c)) for c in itertools.combinations(range(p), sparsity))
        theta = 0.0
        for a_cols in itertools.combinations(range(p), sparsity):
            rest = [j for j in range(p) if j not in a_cols]
            for b_cols in itertools.combinations(rest, sparsity):
                theta = max(theta, cross_norm(list(a_cols), list(b_cols)))
        return SrcConstants(theta, c_minus, True, 0)

    rng = np.random.Generator(np.random.PCG64(seed))
    c_minus = math.inf
    theta = 0.0
    for _ in range(n_samples):
        pick = rng.choice(p, size=2 * sparsity, replace=False)
        a_cols, b_cols = pick[:sparsity], pick[sparsity:]
        c_minus = min(c_minus, lam_min(a_cols))
        theta = max(theta, cross_norm(a_cols, b_cols))
    return SrcConstants(theta, c_minus, False, n_samples)


@dataclass
class BoundReport:
    """Premise-gated error-bound diagnostics for one trial.

    Verdicts are None whenever their premise fails, so a large error with a
    failed premise is informational rather than a violation.
    """

    l2_error: float
    linf_error: float
    t_mu: float
    t_mu_ok: bool
    gamma_mu: float | None
    linf_bound: float | None
    linf_ok: bool | None
    gamma: float | None
    l2_bound: float | None
    l2_ok: bool | None
    support_covered: bool
    signal_floor_l2_ok: bool | None
    signal_floor_linf_ok: bool | None
    constants_exact: bool
    constant_samples: int


def bound_check(beta_hat, truth: SparseCoefficients, sigma: float, sparsity: int,
                p: int, n: int, alpha: float, mu: float,
                constants: SrcConstants | None = None) -> BoundReport:
    """Check the l2 and max-norm error bounds with all premises evaluated."""
    hat = _dense(beta_hat)
    diff = hat - truth.dense()
    l2 = float(np.linalg.norm(diff))
    linf = float(np.abs(diff).max())
    eta1, eta2, gamma_mu = _theory_terms(sigma, sparsity, p, n, alpha, mu)
    t_mu = sparsity * mu
    t_mu_ok = t_mu <= 0.25

    linf_bound = None
    linf_ok = signal_floor_linf_ok = None
    if gamma_mu is not None and gamma_mu < 1.0:
        c_mu = 16.0 / (3.0 * (1.0 - gamma_mu)) + 5.0 / 3.0
        linf_bound = c_mu * eta2
        if t_mu_ok:
            linf_ok = linf <= linf_bound
        if truth.values.size:
            floor = 4.0 * eta2 / (1.0 - gamma_mu)
            signal_floor_linf_ok = float(np.abs(truth.values).min()) > floor

    gamma = l2_bound = None
    l2_ok = signal_floor_l2_ok = None
    exact = False
    samples = 0
    if constants is not None:
        exact, samples = constants.exact, constants.samples
        theta, c_minus = constants.theta, constants.c_minus
        if c_minus > 0:
            gamma = ((2.0 * theta + (1.0 + math.sqrt(2.0)) * theta ** 2) / c_minus ** 2
                     + (1.0 + math.sqrt(2.0)) * theta / c_minus)
            if 0.0 < gamma < 1.0 and theta > 0:
                b1 = 1.0 + theta / c_minus
                b2 = gamma * b1 / ((1.0 - gamma) * theta) + 1.0 / c_minus
                l2_bound = (b1 + b2) * eta1
                l2_ok = l2 <= l2_bound
                if truth.values.size:
                    floor = eta1 * gamma / ((1.0 - gamma) * theta)
                    signal_floor_l2_ok = float(np.abs(truth.values).min()) > floor

    hat_support = set(int(i) for i in np.flatnonzero(hat))
    covered = set(int(i) for i in truth.support) <= hat_support
    return BoundReport(
        l2_error=l2, linf_error=linf, t_mu=t_mu, t_mu_ok=t_mu_ok,
        gamma_mu=gamma_mu, linf_bound=linf_bound, linf_ok=linf_ok,
        gamma=gamma, l2_bound=l2_bound, l2_ok=l2_ok,
        support_covered=covered,
        signal_floor_l2_ok=signal_floor_l2_ok,
        signal_floor_linf_ok=signal_floor_linf_ok,
        constants_exact=exact, constant_samples=samples,
    )
