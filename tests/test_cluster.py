import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cesdar.cluster import (
    HEADER_BYTES,
    MASTER_TO_WORKER,
    MESSAGE_KINDS,
    PROTOCOL_SHAPES,
    WORKER_TO_MASTER,
    SimulatedCluster,
    WorkerMessage,
    cesdar_fit,
    ecesdar_fit,
    message_bytes,
    partition,
    read_message_log,
    surrogate_root_find,
    write_message_log,
)
from cesdar.config import SolverConfig
from cesdar.data import Dataset, SyntheticSpec, generate
from cesdar.exceptions import DegenerateColumnError, IngestError, WorkerUnavailableError
from cesdar.sdar import esdar_fit, kkt_residual, root_find_local


def bitwise_equal(a, b):
    return (
        a.beta == b.beta
        and a.iterations == b.iterations
        and len(a.active_history) == len(b.active_history)
        and all(np.array_equal(x, y) for x, y in zip(a.active_history, b.active_history))
    )


# --- partitioning -----------------------------------------------------------

def test_partition_even():
    data, _ = generate(SyntheticSpec(n=10, p=4, s=1, seed=0))
    part, shards = partition(data, 2)
    assert part.assignments == ((0, 5), (5, 5))
    assert shards[0].n == 5 and shards[1].n == 5


def test_partition_remainder_to_last():
    data, _ = generate(SyntheticSpec(n=10, p=4, s=1, seed=0))
    part, _ = partition(data, 3)
    assert part.assignments == ((0, 3), (3, 3), (6, 4))


def test_partition_large_remainder_arithmetic():
    data = Dataset(np.ones((100_000, 1)), np.ones(100_000))
    part, _ = partition(data, 128)
    sizes = part.sizes()
    assert sizes[:127] == (781,) * 127
    assert sizes[127] == 813


def test_partition_too_many_machines():
    data, _ = generate(SyntheticSpec(n=5, p=2, s=1, seed=0))
    with pytest.raises(ValueError):
        partition(data, 6)


# --- reduction and symmetry -------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_m1_reduction_is_bitwise(seed):
    check_m1_reduction(300, 40, 5, seed)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(10, 200), p=st.integers(1, 40), sparsity=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1))
def test_m1_reduction_is_bitwise_property(n, p, sparsity, seed):
    assume(sparsity <= min(p, n // 2))
    check_m1_reduction(n, p, sparsity, seed)


def check_m1_reduction(n, p, sparsity, seed):
    """At M=1 both distributed fits reproduce ESDAR bit for bit and send nothing."""
    data, _ = generate(SyntheticSpec(n=n, p=p, s=sparsity, seed=seed))
    cfg = SolverConfig(sparsity=sparsity)
    base = esdar_fit(data, cfg)
    for fitter in (cesdar_fit, ecesdar_fit):
        result = fitter(data, 1, cfg)
        assert bitwise_equal(result, base)
        assert result.ledger.entries == []


def test_m1_runs_produce_no_messages():
    data, _ = generate(SyntheticSpec(n=100, p=10, s=2, seed=3))
    result = cesdar_fit(data, 1, SolverConfig(sparsity=2))
    assert result.ledger.entries == []


def test_replication_symmetry_identical_shards():
    block, _ = generate(SyntheticSpec(n=80, p=12, s=3, seed=4))
    machines = 3
    tiled = Dataset(np.tile(block.x, (machines, 1)), np.tile(block.y, machines))
    cfg = SolverConfig(sparsity=3)
    distributed = cesdar_fit(tiled, machines, cfg)
    single = esdar_fit(block, cfg)
    assert np.array_equal(distributed.beta.support, single.beta.support)
    assert np.abs(distributed.beta.dense() - single.beta.dense()).max() <= 1e-10


def test_distributed_matches_single_machine_values():
    # The iterated surrogate drives the distributed solve to the full-sample
    # least squares on the detected set.
    data, _ = generate(SyntheticSpec(n=600, p=50, s=5, seed=5))
    cfg = SolverConfig(sparsity=5)
    base = esdar_fit(data, cfg)
    for machines in (2, 4):
        dist = cesdar_fit(data, machines, cfg)
        assert np.array_equal(dist.beta.support, base.beta.support)
        assert np.abs(dist.beta.dense() - base.beta.dense()).max() <= 1e-9


def test_determinism_across_runs():
    data, _ = generate(SyntheticSpec(n=200, p=25, s=4, seed=6))
    cfg = SolverConfig(sparsity=4)
    a = cesdar_fit(data, 4, cfg)
    b = cesdar_fit(data, 4, cfg)
    assert a.beta == b.beta
    assert [e for e in a.ledger.entries] == [e for e in b.ledger.entries]


# --- surrogate root finding -------------------------------------------------

def test_surrogate_identical_shards_equals_local():
    block, _ = generate(SyntheticSpec(n=60, p=10, s=2, seed=7))
    tiled = Dataset(np.tile(block.x, (4, 1)), np.tile(block.y, 4))
    cluster = SimulatedCluster(tiled, 4)
    active = np.array([1, 5, 8])
    beta, _, rounds, ok = surrogate_root_find(cluster, active, cluster.collect_curvature())
    local, _ = root_find_local(block, active)
    assert ok
    assert np.abs(beta.dense() - local.dense()).max() <= 1e-12


def test_surrogate_close_to_global_least_squares():
    data, _ = generate(SyntheticSpec(n=400, p=20, s=3, seed=8))
    cluster = SimulatedCluster(data, 4)
    active = np.array([2, 9, 14])
    beta, _, _, ok = surrogate_root_find(cluster, active, cluster.collect_curvature())
    oracle, _ = root_find_local(data, active)
    gap = np.linalg.norm(beta.dense() - oracle.dense())
    assert ok
    assert gap <= 0.1 * np.linalg.norm(oracle.dense())
    assert gap <= 1e-9  # iterated correction: far tighter than the 10% bound


def test_surrogate_empty_active_set():
    data, _ = generate(SyntheticSpec(n=50, p=5, s=1, seed=9))
    cluster = SimulatedCluster(data, 2)
    beta, jittered, rounds, ok = surrogate_root_find(
        cluster, np.array([], dtype=np.int64), cluster.collect_curvature())
    assert beta.support.size == 0 and ok and rounds == 0


# --- fixed points ------------------------------------------------------------

def test_kkt_with_averaged_quantities_at_convergence():
    for seed in range(5):
        data, _ = generate(SyntheticSpec(n=400, p=30, s=4, seed=seed))
        result = cesdar_fit(data, 4, SolverConfig(sparsity=4))
        if result.converged:
            res = kkt_residual(data, result.beta, 4, 0.5, d=result.d, g=result.g)
            assert res <= 1e-8


def test_ecesdar_kkt_with_its_own_quantities():
    for seed in range(5):
        data, _ = generate(SyntheticSpec(n=400, p=30, s=4, seed=seed))
        result = ecesdar_fit(data, 2, SolverConfig(sparsity=4))
        if result.converged:
            res = kkt_residual(data, result.beta, 4, 0.5, d=result.d, g=result.g)
            assert res <= 1e-8


# --- the ledger ---------------------------------------------------------------

def expected_ledger(result, machines, p, sparsity, algo):
    """Replay the protocol rules into the expected ledger shape sequence."""
    rows = []

    def add(iteration, kind, direction, n_idx, n_reals):
        for worker in range(1, machines):
            rows.append((iteration, kind, direction, n_idx, n_reals, worker))

    if algo == "cesdar":
        for worker in range(1, machines):
            rows.append((0, "ReportCurvature", WORKER_TO_MASTER, 0, p, worker))
        add(0, "BroadcastActiveSet", MASTER_TO_WORKER, 0, 0)
        add(0, "ReportDual", WORKER_TO_MASTER, 0, p)
    solves = len(result.inner_rounds)
    for k in range(1, solves + 1):
        exchanges = result.inner_rounds[k - 1] + 1
        for _ in range(exchanges):
            for worker in range(1, machines):
                rows.append((k, "BroadcastAnchor", MASTER_TO_WORKER, sparsity, sparsity, worker))
            for worker in range(1, machines):
                rows.append((k, "ReportGradient", WORKER_TO_MASTER, 0, sparsity, worker))
        if algo == "cesdar":
            add(k, "BroadcastActiveSet", MASTER_TO_WORKER, sparsity, sparsity)
            add(k, "ReportDual", WORKER_TO_MASTER, 0, p)
    final = result.beta.support.size
    add(solves, "BroadcastFinal", MASTER_TO_WORKER, final, final)
    return rows


@pytest.mark.parametrize("algo,fitter", [("cesdar", cesdar_fit), ("ecesdar", ecesdar_fit)])
def test_ledger_matches_protocol_replay(algo, fitter):
    data, _ = generate(SyntheticSpec(n=300, p=40, s=4, seed=10))
    machines, sparsity = 3, 4
    result = fitter(data, machines, SolverConfig(sparsity=sparsity))
    actual = [(e.iteration, e.kind, e.direction, e.n_indices, e.n_reals, e.worker)
              for e in result.ledger.entries]
    assert actual == expected_ledger(result, machines, data.p, sparsity, algo)


def test_ledger_byte_sizes_recomputable():
    data, _ = generate(SyntheticSpec(n=200, p=30, s=3, seed=11))
    result = cesdar_fit(data, 4, SolverConfig(sparsity=3))
    for entry in result.ledger.entries:
        assert entry.byte_size == HEADER_BYTES + 8 * (entry.n_indices + entry.n_reals)
        assert entry.byte_size == message_bytes(entry.n_indices, entry.n_reals)
    assert result.ledger.total_bytes() == sum(e.byte_size for e in result.ledger.entries)


def test_ledger_csv_export(tmp_path):
    data, _ = generate(SyntheticSpec(n=100, p=10, s=2, seed=12))
    result = cesdar_fit(data, 2, SolverConfig(sparsity=2))
    out = tmp_path / "ledger.csv"
    result.ledger.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,kind,direction,bytes"
    assert len(lines) == 1 + len(result.ledger.entries)


def test_communication_asymmetry():
    # Low-communication variant: per-iteration worker reports of O(T) reals
    # versus O(p), and strictly fewer worker-to-master bytes in total.
    data, _ = generate(SyntheticSpec(n=500, p=800, s=5, seed=13))
    cfg = SolverConfig(sparsity=5)
    for machines in (2, 4):
        ces = cesdar_fit(data, machines, cfg)
        ece = ecesdar_fit(data, machines, cfg)
        assert ece.ledger.worker_to_master_bytes() < ces.ledger.worker_to_master_bytes()
        per_iter_ece = max(
            sum(e.n_reals for e in ece.ledger.entries
                if e.direction == WORKER_TO_MASTER and e.iteration == k)
            for k in range(1, len(ece.inner_rounds) + 1)
        )
        assert per_iter_ece <= (max(ece.inner_rounds) + 1) * cfg.sparsity * (machines - 1)
        assert per_iter_ece < data.p
        per_iter_ces_dual = sum(
            e.n_reals for e in ces.ledger.entries
            if e.direction == WORKER_TO_MASTER and e.iteration == 1 and e.kind == "ReportDual"
        )
        assert per_iter_ces_dual == (machines - 1) * data.p


# --- privacy -----------------------------------------------------------------

def test_protocol_shapes_are_aggregates_only():
    # Static audit: every kind's payload is sized by the active set or the
    # dimension; nothing row-sized is expressible.
    assert set(PROTOCOL_SHAPES) == set(MESSAGE_KINDS)
    for idx_shape, real_shape in PROTOCOL_SHAPES.values():
        assert idx_shape in ("none", "active")
        assert real_shape in ("active", "p")


@pytest.mark.parametrize("fitter", [cesdar_fit, ecesdar_fit])
def test_runtime_privacy_audit(fitter):
    data, _ = generate(SyntheticSpec(n=240, p=30, s=4, seed=14))
    sparsity = 4
    result = fitter(data, 4, SolverConfig(sparsity=sparsity), log_messages=True)
    shard_rows = data.n // 4
    for entry in result.ledger.entries:
        idx_shape, real_shape = PROTOCOL_SHAPES[entry.kind]
        assert entry.n_indices <= (sparsity if idx_shape == "active" else 0)
        assert entry.n_reals == data.p if real_shape == "p" else entry.n_reals <= sparsity
        # aggregate sizes only; never a multiple of the shard row count
        assert entry.n_reals in (0, data.p) or entry.n_reals <= sparsity
        assert entry.n_reals % shard_rows != 0 or entry.n_reals == 0
    assert result.messages


def test_audit_rejects_off_protocol_payload():
    from cesdar.cluster import _audit_shape
    message = WorkerMessage("ReportGradient", np.empty(0, np.int64), np.ones(17))
    with pytest.raises(ValueError):
        _audit_shape(message, p=30, active_size=4)
    oversized = WorkerMessage("ReportDual", np.empty(0, np.int64), np.ones(40))
    with pytest.raises(ValueError):
        _audit_shape(oversized, p=30, active_size=4)


# --- failure and logging ------------------------------------------------------

def test_worker_failure_is_fail_stop():
    data, _ = generate(SyntheticSpec(n=100, p=10, s=2, seed=15))
    with pytest.raises(WorkerUnavailableError) as err:
        cesdar_fit(data, 4, SolverConfig(sparsity=2), fail_worker=2)
    assert err.value.worker == 2


def test_master_shard_zero_column():
    # Column 7 is zero on the master's 100 rows only, so the full-data
    # validation passes. ECESDAR detects with master-shard curvature, which
    # is 0 there, and must refuse; CESDAR's combined curvature stays positive.
    data, _ = generate(SyntheticSpec(n=400, p=30, s=4, seed=0))
    x = data.x.copy()
    x[:100, 7] = 0.0
    data = Dataset(x, data.y)
    cfg = SolverConfig(sparsity=4)
    with pytest.raises(DegenerateColumnError, match="column 7 .* machine 0") as info:
        ecesdar_fit(data, 4, cfg)
    assert info.value.column == "x7"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = cesdar_fit(data, 4, cfg)
    assert np.all(np.isfinite(result.d)) and np.all(result.g > 0)


@pytest.mark.parametrize("cut", ["inside_header", "after_header", "mid_message"])
def test_truncated_message_log_is_ingest_error(tmp_path, cut):
    data, _ = generate(SyntheticSpec(n=120, p=12, s=2, seed=16))
    result = cesdar_fit(data, 3, SolverConfig(sparsity=2), log_messages=True)
    path = tmp_path / "messages.bin"
    write_message_log(path, result.messages)
    blob = path.read_bytes()
    size = {"inside_header": 3, "after_header": 5, "mid_message": len(blob) - 13}[cut]
    path.write_bytes(blob[:size])
    with pytest.raises(IngestError, match=rf"messages\.bin: truncated .* found {size}$"):
        read_message_log(path)


def test_message_log_round_trip(tmp_path):
    data, _ = generate(SyntheticSpec(n=120, p=12, s=2, seed=16))
    result = cesdar_fit(data, 3, SolverConfig(sparsity=2), log_messages=True)
    path = tmp_path / "messages.bin"
    write_message_log(path, result.messages)
    back = read_message_log(path)
    assert len(back) == len(result.messages)
    for original, loaded in zip(result.messages, back):
        assert original.kind == loaded.kind
        assert np.array_equal(original.indices, loaded.indices)
        assert np.array_equal(original.reals, loaded.reals)
        assert original.byte_size == loaded.byte_size
