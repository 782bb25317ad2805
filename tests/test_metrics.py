import dataclasses
import math

import numpy as np
import pytest

from cesdar.config import ExperimentConfig
from cesdar.data import SyntheticSpec, generate, generate_test
from cesdar.exceptions import DegenerateColumnError
import cesdar.metrics as metrics_module
from cesdar.metrics import (
    SOLVERS,
    bound_check,
    discovery_rates,
    emit_table,
    estimation_error,
    mutual_coherence,
    oracle_indicator,
    prediction_error,
    refold,
    run_cell,
    src_constants,
    theory_bounds,
    write_summary_json,
    write_trials_csv,
)
from cesdar.sdar import SparseCoefficients, root_find_local
from helpers import orthogonal_design


# --- per-trial metrics ---------------------------------------------------------

def test_estimation_error_zero_and_single_coordinate():
    a = SparseCoefficients.from_dense(np.array([1.0, 0.0, 2.0]))
    assert estimation_error(a, a) == 0.0
    b = SparseCoefficients.from_dense(np.array([1.1, 0.0, 2.0]))
    assert estimation_error(b, a) == pytest.approx(0.01, abs=1e-15)


def test_estimation_error_matches_elementwise_oracle():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(12), rng.standard_normal(12)
    expected = sum((xi - yi) ** 2 for xi, yi in zip(x, y))
    assert estimation_error(x, y) == pytest.approx(expected, rel=1e-12)


def test_prediction_error_examples():
    data, truth = generate(SyntheticSpec(n=100, p=10, s=2, noise_sd=0.0, seed=2))
    assert prediction_error(data, truth) <= 1e-20
    zero = SparseCoefficients.zeros(10)
    assert prediction_error(data, zero) == pytest.approx(float(data.y @ data.y) / 100)


def test_prediction_error_unit_noise_band():
    spec = SyntheticSpec(n=200, p=15, s=3, noise_sd=1.0, seed=3)
    _, truth = generate(spec)
    test = generate_test(spec, truth, 800)
    ape = prediction_error(test, truth)
    assert 0.85 <= ape <= 1.15


def test_discovery_rates_cases():
    assert discovery_rates([1, 2], [1, 2], 10) == (1.0, 1.0)
    p, s = 20, 4
    disjoint = discovery_rates(range(s), range(s, 2 * s), p)
    assert disjoint == (0.0, (p - 2 * s) / (p - s))
    superset = discovery_rates(range(s + 1), range(s), p)
    assert superset == (1.0, (p - s - 1) / (p - s))


def test_discovery_rates_errors():
    with pytest.raises(ValueError):
        discovery_rates([1], [], 5)
    with pytest.raises(ValueError):
        discovery_rates([0], range(5), 5)


def test_oracle_indicator():
    data, truth = generate(SyntheticSpec(n=200, p=20, s=3, seed=4))
    oracle, _ = root_find_local(data, truth.support)
    assert oracle_indicator(data, oracle, truth.support)
    bumped = SparseCoefficients(20, oracle.support, oracle.values + 1e-3)
    assert not oracle_indicator(data, bumped, truth.support)
    wrong = SparseCoefficients(20, np.array([0, 1, 2]), np.array([1.0, 1.0, 1.0]))
    assert not oracle_indicator(data, wrong, truth.support)


# --- the cell driver -------------------------------------------------------------

def small_cell(**overrides):
    base = dict(algorithm="cesdar", n=300, p=30, s=3, sparsity=3, machines=2,
                replicates=4, base_seed=50, n_test=200)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_cell_noiseless_single_replicate():
    config = small_cell(noise_sd=0.0, replicates=1, signal_ratio=20.0)
    summary, trials = run_cell(config)
    assert summary.completed == 1
    assert summary.aee_mean <= 1e-18
    assert summary.ora == 1.0


def test_run_cell_deterministic_given_seed():
    config = small_cell()
    s1, t1 = run_cell(config)
    s2, t2 = run_cell(config)
    timeless = lambda s: {k: v for k, v in dataclasses.asdict(s).items() if k != "art"}
    assert timeless(s1) == timeless(s2)
    assert all(a.beta_hat == b.beta_hat for a, b in zip(t1, t2))


def test_run_cell_parallel_jobs_match_serial():
    config = small_cell(replicates=3)
    serial, ts = run_cell(config, jobs=1)
    parallel, tp = run_cell(config, jobs=2)
    assert serial.aee_mean == parallel.aee_mean
    assert all(a.beta_hat == b.beta_hat for a, b in zip(ts, tp))


def test_jobs_start_at_most_one_process_per_replicate(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(metrics_module, "ProcessPoolExecutor", SerialPool)
    config = small_cell(replicates=2)
    serial, _ = run_cell(config, jobs=1)
    pooled, _ = run_cell(config, jobs=500)
    assert started == [2]
    assert pooled.aee_mean == serial.aee_mean


def test_solver_table_covers_every_algorithm_but_acesdar():
    assert set(SOLVERS) | {"acesdar"} == set(ExperimentConfig._ALGOS)


def test_refold_reproduces_summary_exactly():
    config = small_cell(replicates=5)
    summary, trials = run_cell(config)
    again = refold(config.algorithm, config.machines, config.replicates, trials)
    assert again == summary


def test_oracle_implies_full_discovery_and_oracle_error():
    config = small_cell(replicates=5)
    _, trials = run_cell(config)
    for trial in trials:
        if trial.oracle:
            assert trial.pdr_term == 1.0
            data, truth = generate(SyntheticSpec(
                n=config.n, p=config.p, s=config.s, signal_ratio=config.signal_ratio,
                noise_sd=config.noise_sd, seed=trial.seed))
            ls, _ = root_find_local(data, truth.support)
            assert trial.aee == pytest.approx(estimation_error(ls, truth), rel=1e-9)


def test_acesdar_cell_records_selected_sparsity():
    config = small_cell(algorithm="acesdar", replicates=2, sparsity=3, step=1, machines=1)
    summary, trials = run_cell(config)
    assert summary.completed == 2
    assert all(t.selected_sparsity >= 1 for t in trials)


def test_trials_csv_and_summary_json(tmp_path):
    config = small_cell(replicates=3)
    summary, trials = run_cell(config)
    trials_path = tmp_path / "trials.csv"
    write_trials_csv(trials_path, config, trials)
    lines = trials_path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("replicate,seed,algorithm")
    assert "wall" not in lines[0]  # timing never lands in the per-trial CSV

    summary_path = tmp_path / "summary.json"
    write_summary_json(summary_path, config, summary)
    text = summary_path.read_text()
    assert '"schema": "bench-v1"' in text

    table_path = tmp_path / "table.csv"
    emit_table(table_path, [summary])
    table = table_path.read_text().splitlines()
    assert table[0] == "M,Method,AEE(sd),APE(sd),APDR,AFDR,ORA,ANI,ART"
    assert table[1].startswith("2,CESDAR,")


def test_trial_errors_are_recorded_not_raised(monkeypatch):
    # The config rejects every cell whose trials must all fail, so a solver
    # that fails on the first replicate stands in for a trial error.
    config = ExperimentConfig(algorithm="cesdar", n=100, p=5, s=2, sparsity=2,
                              machines=1, replicates=2, base_seed=0, n_test=50)
    real, calls = SOLVERS["cesdar"], []

    def fails_on_first_trial(data, machines, cfg):
        calls.append(data)
        if len(calls) == 1:
            raise DegenerateColumnError("column 0 ('x0') has zero curvature", column="x0")
        return real(data, machines, cfg)

    monkeypatch.setitem(SOLVERS, "cesdar", fails_on_first_trial)
    summary, trials = run_cell(config)
    assert summary.completed == 1
    assert trials[0].error == "DegenerateColumnError: column 0 ('x0') has zero curvature"
    assert not trials[1].error


# --- theory diagnostics ------------------------------------------------------------

def test_mutual_coherence_orthogonal_and_duplicate():
    x = orthogonal_design(40, 6, seed=5)
    assert mutual_coherence(x) <= 1e-12
    dup = np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
    assert mutual_coherence(dup) == pytest.approx(1.0, abs=1e-12)


def test_mutual_coherence_hand_example():
    x = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]])
    assert mutual_coherence(x) <= 1e-15


def test_mutual_coherence_invariances():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 8))
    base = mutual_coherence(x)
    perm = rng.permutation(8)
    flipped = x[:, perm] * np.where(rng.random(8) < 0.5, -1.0, 1.0)
    assert mutual_coherence(flipped) == pytest.approx(base, rel=1e-12)


def test_mutual_coherence_blocking_consistent(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 20))
    whole = mutual_coherence(x)
    monkeypatch.setattr(metrics_module, "COHERENCE_BLOCK", 3)
    assert mutual_coherence(x) == pytest.approx(whole)


def test_theory_bounds_hand_values():
    bounds = theory_bounds(sigma=1.0, sparsity=10, p=500, n=100_000, alpha=0.05, mu=0.0)
    assert bounds.eta1 == pytest.approx(0.042919, abs=1e-4)
    assert bounds.eta2 == pytest.approx(0.013572, abs=1e-5)
    assert bounds.eta1 == math.sqrt(10) * bounds.eta2  # identical, not approximate
    assert bounds.gamma_mu == 0.0


def test_theory_bounds_gamma_mu_undefined():
    with pytest.raises(ValueError, match="gamma_mu undefined"):
        theory_bounds(1.0, 10, 500, 1000, 0.05, mu=0.2)
    with pytest.raises(ValueError, match="alpha"):
        theory_bounds(1.0, 10, 500, 1000, 0.7, mu=0.0)


def test_src_constants_exact_orthogonal():
    x = orthogonal_design(60, 8, seed=8)
    constants = src_constants(x, 2)
    assert constants.exact
    assert constants.c_minus == pytest.approx(1.0, abs=1e-10)
    assert constants.theta <= 1e-10


def test_src_constants_sampled_for_large_p():
    data, _ = generate(SyntheticSpec(n=100, p=40, s=3, seed=9))
    constants = src_constants(data.x, 3, n_samples=50)
    assert not constants.exact
    assert constants.samples == 50
    assert constants.c_minus > 0 and constants.theta > 0


def test_bound_check_orthogonal_noiseless_passes():
    x = orthogonal_design(100, 8, seed=10)
    truth_dense = np.zeros(8)
    truth_dense[[1, 4]] = [2.0, -1.0]
    truth = SparseCoefficients(8, np.array([1, 4]), np.array([2.0, -1.0]))
    report = bound_check(SparseCoefficients.from_dense(truth_dense), truth,
                         sigma=1.0, sparsity=2, p=8, n=100, alpha=0.05,
                         mu=mutual_coherence(x), constants=src_constants(x, 2))
    assert report.t_mu_ok
    assert report.linf_ok and report.l2_ok
    assert report.support_covered


def test_bound_check_premise_gate():
    truth = SparseCoefficients(8, np.array([1]), np.array([2.0]))
    report = bound_check(SparseCoefficients.zeros(8), truth, sigma=1.0,
                         sparsity=10, p=8, n=100, alpha=0.05, mu=0.03)
    assert report.t_mu == pytest.approx(0.3)
    assert not report.t_mu_ok
    assert report.linf_ok is None  # premise failed: no verdict
    assert not report.support_covered
