import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cesdar.cluster import SimulatedCluster, cesdar_fit, ecesdar_fit
from cesdar.config import SolverConfig, TuningConfig
from cesdar.data import Dataset, SyntheticSpec, generate
from cesdar.exceptions import ConfigurationError
from cesdar.sdar import SparseCoefficients
from cesdar.tuning import acesdar_fit, hbic, max_sparsity_cap, path_cap, write_path_csv
from helpers import orthogonal_design


# --- HBIC ---------------------------------------------------------------------

def test_hbic_zero_for_unit_mse_empty_support():
    y = np.ones(64)  # mean square of y is exactly 1
    data = Dataset(np.eye(64), y)
    assert hbic(data, SparseCoefficients.zeros(64)) == 0.0


def test_hbic_decomposition_matches_direct_formula():
    data, _ = generate(SyntheticSpec(n=120, p=20, s=3, seed=1))
    rng = np.random.default_rng(2)
    dense = np.zeros(20)
    dense[[2, 7, 11]] = rng.standard_normal(3)
    beta = SparseCoefficients.from_dense(dense)
    resid = data.y - data.x @ dense
    expected = math.log(resid @ resid / data.n) \
        + math.log(math.log(data.n)) * math.log(data.p) / data.n * 3
    assert hbic(data, beta) == pytest.approx(expected, abs=1e-12)


def test_hbic_penalizes_larger_support_at_equal_fit():
    # Duplicate one column; splitting its coefficient across both copies
    # leaves the residual identical while growing the support.
    rng = np.random.default_rng(3)
    base = rng.standard_normal((40, 4))
    x = np.column_stack([base, base[:, 0]])
    y = base @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.standard_normal(40)
    data = Dataset(x, y)
    small = SparseCoefficients.from_dense(np.array([1.0, -2.0, 0.5, 0.0, 0.0]))
    split = SparseCoefficients.from_dense(np.array([0.5, -2.0, 0.5, 0.0, 0.5]))
    assert np.allclose(x @ small.dense(), x @ split.dense())
    assert hbic(data, small) < hbic(data, split)


def test_hbic_zero_residual_is_flagged():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 3))
    dense = np.array([1.0, 2.0, 0.0])
    data = Dataset(x, x @ dense)
    with pytest.warns(UserWarning, match="zero residual"):
        score = hbic(data, SparseCoefficients.from_dense(dense))
    assert score == -math.inf


# --- sparsity cap ----------------------------------------------------------------

def test_max_sparsity_cap_hand_value():
    # 10000 / (log(log 10000) * log 500) = 10000 / (2.2203 * 6.2146) = 724.66
    assert max_sparsity_cap(10000, 500) == 724


def test_max_sparsity_cap_small_n_hand_value():
    # 16 / (log(log 16) * log 3) = 16 / (1.01979 * 1.09861) = 14.28
    assert max_sparsity_cap(16, 3) == 14


def test_path_cap_override_wins():
    # n=8 is too small for the formula, which j_override replaces.
    data, _ = generate(SyntheticSpec(n=8, p=30, s=2, seed=0))
    assert path_cap(data, TuningConfig(j_override=25)) == 25


def test_max_sparsity_cap_rejects_tiny_n():
    with pytest.raises(ConfigurationError, match="j_override"):
        max_sparsity_cap(8, 100)


@pytest.mark.parametrize("knobs,problem", [
    ({"tau": 3.0}, "tau must lie in \\(0, 1\\], got 3.0"),
    ({"tau": 0.0}, "tau must lie in \\(0, 1\\], got 0.0"),
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
], ids=["tau_above_1", "tau_zero", "max_iter_zero"])
def test_tuning_config_checks_solver_knobs(knobs, problem):
    with pytest.raises(ConfigurationError, match=problem):
        TuningConfig(**knobs)


# --- the adaptive sweep -------------------------------------------------------------

def test_acesdar_noiseless_orthogonal_selects_true_sparsity():
    x = orthogonal_design(200, 16, seed=5)
    truth = np.zeros(16)
    truth[[3, 8, 12]] = [2.0, -1.5, 1.0]
    data = Dataset(x, x @ truth)
    best, path = acesdar_fit(data, TuningConfig(step=1, machines=1, j_override=8))
    assert best.sparsity == 3
    assert np.array_equal(best.fit.beta.support, [3, 8, 12])
    # the winner also minimizes HBIC over the whole path, recomputed here
    scores = {point.sparsity: hbic(data, point.fit.beta) for point in path}
    assert best.sparsity == min(scores, key=lambda t: (scores[t], t))


def test_acesdar_step_grid():
    data, _ = generate(SyntheticSpec(n=300, p=40, s=3, seed=6))
    _, path = acesdar_fit(data, TuningConfig(step=4, machines=1, j_override=10))
    assert [point.sparsity for point in path] == [4, 8]


def test_acesdar_empty_path_is_error():
    data, _ = generate(SyntheticSpec(n=300, p=40, s=3, seed=6))
    with pytest.raises(ConfigurationError, match="empty path"):
        acesdar_fit(data, TuningConfig(step=8, machines=1, j_override=4))


def test_acesdar_support_never_exceeds_target():
    data, _ = generate(SyntheticSpec(n=400, p=50, s=5, seed=7))
    _, path = acesdar_fit(data, TuningConfig(step=2, machines=2, j_override=12))
    for point in path:
        assert point.fit.beta.support.size <= point.sparsity


def test_acesdar_sweep_respects_cap():
    data, _ = generate(SyntheticSpec(n=400, p=50, s=5, seed=8))
    cap = max_sparsity_cap(400 // 2, 50)
    _, path = acesdar_fit(data, TuningConfig(step=1, machines=2))
    assert max(point.sparsity for point in path) <= cap


def test_warm_start_not_worse_than_cold():
    # Nothing guards this: the path keeps each warm-started fit even when a
    # cold fit would reach a lower loss. This shape passes anyway.
    data, _ = generate(SyntheticSpec(n=500, p=60, s=6, seed=9))
    _, path = acesdar_fit(data, TuningConfig(step=1, machines=2, j_override=10))
    for point in path:
        cold = cesdar_fit(data, 2, SolverConfig(sparsity=point.sparsity))
        resid = data.y - data.x @ cold.beta.dense()
        cold_loss = 0.5 * float(resid @ resid) / data.n
        assert point.loss <= cold_loss + 1e-8


def test_one_fit_per_path_point(monkeypatch):
    # Each point after the first is one fit warm-started from the point
    # before it; there is no cold refit.
    import cesdar.tuning as tuning

    data, _ = generate(SyntheticSpec(n=200, p=20, s=2, seed=10))
    real_fit, warms = tuning.cesdar_fit, []

    def counted(data_, machines, cfg, warm=None, cluster=None):
        warms.append(warm)
        return real_fit(data_, machines, cfg, warm=warm, cluster=cluster)

    monkeypatch.setattr(tuning, "cesdar_fit", counted)
    _, path = acesdar_fit(data, TuningConfig(step=1, machines=2, j_override=4))
    assert len(warms) == len(path) == 4
    assert warms[0] is None
    for warm, before in zip(warms[1:], path):
        assert warm is before.fit


def test_path_csv_export(tmp_path):
    data, _ = generate(SyntheticSpec(n=300, p=30, s=3, seed=11))
    _, path = acesdar_fit(data, TuningConfig(step=2, machines=1, j_override=8))
    out = tmp_path / "path.csv"
    write_path_csv(path, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sparsity,hbic,support_size,iterations,loss"
    assert len(lines) == 1 + len(path)
    assert lines[1].startswith("2,")


def _without_setup(entries):
    """Ledger rows minus the curvature reports and the iteration-0 dual exchange."""
    return [e for e in entries if e.kind != "ReportCurvature"
            and not (e.iteration == 0 and e.kind in ("BroadcastActiveSet", "ReportDual"))]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(40, 160), p=st.integers(6, 24), machines=st.integers(1, 4),
       step=st.sampled_from([1, 2]), j=st.integers(2, 6), seed=st.integers(0, 10_000))
@example(n=137, p=24, machines=3, step=2, j=6, seed=6504)  # a cold fit used to win at T=4
def test_shared_cluster_path_equals_fresh_fits(n, p, machines, step, j, seed):
    # Each path point must be bitwise the fit a fresh cluster gives when
    # warm-started from the point before it, its learned Gram included; its
    # ledger drops only the set-up an earlier fit made.
    data, _ = generate(SyntheticSpec(n=n, p=p, s=3, seed=seed))
    tune = TuningConfig(step=step, machines=machines, j_override=j)
    _, path = acesdar_fit(data, tune)
    for i, point in enumerate(path):
        cfg = SolverConfig(sparsity=point.sparsity, tau=tune.tau, max_iter=tune.max_iter)
        warm = None if i == 0 else path[i - 1].fit
        ref, fit = cesdar_fit(data, machines, cfg, warm=warm), point.fit
        assert fit.beta == ref.beta
        assert point.hbic == hbic(data, point.fit.beta)  # scored from the path's loss
        for name in ("d", "g"):
            assert np.array_equal(getattr(fit, name), getattr(ref, name))
        for name in ("rel_loss", "iterations", "inner_rounds", "converged"):
            assert getattr(fit, name) == getattr(ref, name)
        assert len(fit.active_history) == len(ref.active_history)
        assert all(np.array_equal(a, b) for a, b in zip(fit.active_history, ref.active_history))
        expected = ref.ledger.entries if i == 0 else _without_setup(ref.ledger.entries)
        assert fit.ledger.entries == expected


def _cluster_misuse(case):
    data, _ = generate(SyntheticSpec(n=120, p=12, s=2, seed=3))
    cfg = SolverConfig(sparsity=2)
    cluster = SimulatedCluster(data, 3)
    if case == "other_dataset":
        cesdar_fit(Dataset(data.x, data.y), 3, cfg, cluster=cluster)
    elif case == "other_machines":
        cesdar_fit(data, 2, cfg, cluster=cluster)
    else:
        cesdar_fit(data, 3, cfg, cluster=cluster)
        cluster.raw_dual(SparseCoefficients.zeros(data.p))[0] = 1.0


@pytest.mark.parametrize("case,problem", [
    ("other_dataset", "another dataset or machine count"),
    ("other_machines", "another dataset or machine count"),
    ("write_zero_dual", "read-only"),
])
def test_cluster_keyword_guards(case, problem):
    with pytest.raises(ValueError, match=problem):
        _cluster_misuse(case)


def test_shared_cluster_keeps_each_fits_own_log():
    # Two fits on one logging cluster: each result holds only its own
    # traffic, the second less the set-up the first already exchanged.
    data, _ = generate(SyntheticSpec(n=120, p=12, s=2, seed=16))
    shared = SimulatedCluster(data, 3, log_messages=True)
    for i, sparsity in enumerate((2, 3)):
        cfg = SolverConfig(sparsity=sparsity)
        fit = cesdar_fit(data, 3, cfg, cluster=shared)
        fresh = cesdar_fit(data, 3, cfg, cluster=SimulatedCluster(data, 3, log_messages=True))
        kept = fresh.ledger.entries if i == 0 else _without_setup(fresh.ledger.entries)
        assert fit.ledger.entries == kept
        own = [m for m, e in zip(fresh.messages, fresh.ledger.entries) if e in kept]
        assert fit.messages == own


def test_ecesdar_on_shared_cluster_equals_fresh():
    data, _ = generate(SyntheticSpec(n=240, p=30, s=4, seed=14))
    cfg = SolverConfig(sparsity=4)
    shared = SimulatedCluster(data, 4)
    cesdar_fit(data, 4, cfg, cluster=shared)
    fit, ref = ecesdar_fit(data, 4, cfg, cluster=shared), ecesdar_fit(data, 4, cfg)
    assert fit.beta == ref.beta
    for name in ("d", "g"):
        assert np.array_equal(getattr(fit, name), getattr(ref, name))
    for name in ("rel_loss", "iterations", "inner_rounds", "converged", "jittered", "cycled"):
        assert getattr(fit, name) == getattr(ref, name)
    assert fit.ledger.entries == ref.ledger.entries
