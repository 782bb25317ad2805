import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cesdar.cluster as cluster_module
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
    surrogate_root_find,
)
from cesdar.config import SolverConfig, TuningConfig
from cesdar.data import Dataset, SparseCoefficients, SyntheticSpec, generate
from cesdar.exceptions import DegenerateColumnError, WorkerUnavailableError
from cesdar.linalg import spd_solve
from cesdar.metrics import ORACLE_TOL
from cesdar.sdar import esdar_fit, kkt_residual, residual_correlation, root_find_local
from cesdar.tuning import acesdar_fit
from helpers import expected_ledger, ledger_rows


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

@settings(max_examples=150, deadline=None)
@given(machines=st.integers(1, 130), length=st.integers(1, 60), extra=st.integers(0, 400),
       seed=st.integers(0, 2**32 - 1))
@example(machines=130, length=60, extra=129, seed=0)
@example(machines=1, length=1, extra=0, seed=0)
def test_combine_is_the_sequential_sum_bit_for_bit(machines, length, extra, seed):
    # combine accumulates in place in machine order, so it must give the
    # bits of term_0 + term_1 + ... written left to right, term_m = w_m *
    # share_m (a batched np.add.reduce over the stacked shares does not).
    # Shares span 16 decades and hold zeros of both signs.
    data = Dataset(np.ones((machines + extra, 1)), np.ones(machines + extra))
    cluster = SimulatedCluster(data, machines)
    rng = np.random.default_rng(seed)
    shares = [rng.standard_normal(length) * 10.0 ** rng.uniform(-8, 8, length)
              for _ in range(machines)]
    for share in shares:
        share[rng.random(length) < 0.1] = rng.choice([0.0, -0.0])
    want = cluster.weights[0] * shares[0]
    for weight, share in zip(cluster.weights[1:], shares[1:]):
        want = want + weight * share
    got = cluster.combine(shares[0], shares[1:])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_m1_reduction_is_bitwise(seed):
    check_m1_reduction(300, 40, 5, 5, seed)


def test_m1_reduction_is_bitwise_with_duplicated_column():
    # The duplicate makes every Gram on an active set holding columns 0 and
    # 1 singular, so each solve is jittered. The conjugate-gradient rounds
    # once ran here at M=1 with no machine to exchange with (3 solves of 2
    # rounds each) and ended 4e-10 away from ESDAR.
    check_m1_reduction(50, 8, 3, 6, 3, duplicate=True)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(10, 200), p=st.integers(1, 40), sparsity=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1), duplicate=st.booleans())
def test_m1_reduction_is_bitwise_property(n, p, sparsity, seed, duplicate):
    assume(sparsity <= min(p, n // 2))
    check_m1_reduction(n, p, sparsity, sparsity, seed, duplicate)


def check_m1_reduction(n, p, s, sparsity, seed, duplicate=False):
    """At M=1 both distributed fits reproduce ESDAR bit for bit, run no
    surrogate round and send nothing; with ``duplicate``, column 1 is a
    copy of column 0 (when p >= 2)."""
    data, _ = generate(SyntheticSpec(n=n, p=p, s=s if p > 1 else 0, seed=seed))
    if duplicate and p >= 2:
        x = data.x.copy()
        x[:, 1] = x[:, 0]
        data = Dataset(x, data.y)
    cfg = SolverConfig(sparsity=sparsity)
    base = esdar_fit(data, cfg)
    assert base.ledger is None and base.messages is None
    assert base.inner_rounds == [0] * base.iterations
    for fitter in (cesdar_fit, ecesdar_fit):
        result = fitter(data, 1, cfg)
        assert bitwise_equal(result, base)
        assert np.array_equal(result.d, base.d) and np.array_equal(result.g, base.g)
        assert result.jittered == base.jittered
        assert result.inner_rounds == base.inner_rounds
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
    beta, _, rounds, ok, _ = surrogate_root_find(cluster, active, cluster.collect_curvature())
    local, _ = root_find_local(block, active)
    assert ok
    assert np.abs(beta.dense() - local.dense()).max() <= 1e-12


def test_surrogate_close_to_global_least_squares():
    data, _ = generate(SyntheticSpec(n=400, p=20, s=3, seed=8))
    cluster = SimulatedCluster(data, 4)
    active = np.array([2, 9, 14])
    beta, _, _, ok, _ = surrogate_root_find(cluster, active, cluster.collect_curvature())
    oracle, _ = root_find_local(data, active)
    gap = np.linalg.norm(beta.dense() - oracle.dense())
    assert ok
    assert gap <= 0.1 * np.linalg.norm(oracle.dense())
    assert gap <= 1e-9  # solved to tolerance: far tighter than the 10% bound


def test_surrogate_empty_active_set():
    data, _ = generate(SyntheticSpec(n=50, p=5, s=1, seed=9))
    cluster = SimulatedCluster(data, 2)
    beta, jittered, rounds, ok, _ = surrogate_root_find(
        cluster, np.array([], dtype=np.int64), cluster.collect_curvature())
    assert beta.support.size == 0 and ok and rounds == 0


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 12), spare_rows=st.integers(0, 46), spare_cols=st.integers(0, 30),
       machines=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
# Master shards of exactly |A| rows, where the unshifted preconditioner took
# 30 rounds at M=2 and 48 at M=8.
@example(size=12, spare_rows=0, spare_cols=28, machines=2, seed=0)
@example(size=12, spare_rows=0, spare_cols=28, machines=8, seed=0)
def test_surrogate_conjugate_gradient_property(size, spare_rows, spare_cols, machines, seed):
    # Shards of |A| rows and more, so the master-shard Gram can be barely
    # regular. Each exchange follows one spd_solve call: the benchmark
    # reconciles its surrogate rounds on that count.
    p = size + spare_cols
    data, _ = generate(SyntheticSpec(n=machines * (size + spare_rows), p=p,
                                     s=size if p > 1 else 0, seed=seed))
    active = np.sort(np.random.default_rng(seed).choice(data.p, size, replace=False))
    cluster = SimulatedCluster(data, machines)
    curvature = cluster.curvature()
    solves = []

    def counted(*args, **kwargs):
        solves.append(args[0].shape)
        return spd_solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_module, "spd_solve", counted)
        beta, _, rounds, converged, _ = surrogate_root_find(cluster, active, curvature)
    oracle, _ = root_find_local(data, active)
    anchors = sum(e.kind == "BroadcastAnchor" for e in cluster.ledger.entries) // (machines - 1)
    assert converged
    assert np.abs(beta.dense() - oracle.dense()).max() <= 1e-9 * np.abs(oracle.values).max()
    assert rounds <= 2 * size + 2
    assert len(solves) == anchors == rounds + 1


@pytest.mark.parametrize("machines", [2, 4])
def test_surrogate_stop_scale_follows_the_point(machines):
    # Master shard of exactly |A| rows: H1 is barely regular (condition
    # number near 1e13) and the start point lands far off. A stop tolerance
    # scaled by that point accepted a gradient of 3.7e-7 at machines=2.
    size = 12
    data, _ = generate(SyntheticSpec(n=machines * size, p=size + 28, s=size, seed=0))
    active = np.sort(np.random.default_rng(0).choice(data.p, size, replace=False))
    cluster = SimulatedCluster(data, machines)
    beta, _, _, converged, _ = surrogate_root_find(cluster, active, cluster.curvature())
    oracle, _ = root_find_local(data, active)
    assert converged
    assert np.abs(beta.dense() - oracle.dense()).max() <= 1e-9 * np.abs(oracle.values).max()
    assert np.abs(residual_correlation(data, beta)[active]).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 200), p=st.integers(2, 30), size=st.integers(1, 8),
       machines=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_anchor_gradients_match_direct_formula(n, p, size, machines, seed, scale):
    # Workers answer anchors from normal equations cached per active set; the
    # answer must be the direct X_A'(X_A b - y)/n_m on the anchor's own set,
    # also after an anchor on another set of the same size. The tolerance is
    # relative to the size of the summed terms: near the least-squares point
    # the gradient itself cancels to far below them.
    assume(size < p)
    data, _ = generate(SyntheticSpec(n=n, p=p, s=1, seed=seed))
    cluster = SimulatedCluster(data, machines)
    _, shards = partition(data, machines)
    rng = np.random.default_rng(seed)
    first = np.sort(rng.choice(p, size, replace=False))
    second = np.sort((first + 1) % p)  # differs from first whenever size < p
    point = scale * rng.standard_normal(size)
    answers = []
    for active in (first, second, first):
        cluster.broadcast("BroadcastAnchor", active, point)
        grads = cluster.collect_gradients(active)
        for shard, grad in zip(shards[1:], grads):
            x_a = shard.x[:, active]
            direct = x_a.T @ (x_a @ point - shard.y) / shard.n
            terms = np.abs(x_a).T @ (np.abs(x_a) @ np.abs(point) + np.abs(shard.y)) / shard.n
            assert np.abs(grad - direct).max() <= 1e-12 * terms.max()
        answers.append(grads)
    for again, original in zip(answers[2], answers[0]):
        assert np.array_equal(again, original)


# --- the learned Gram ---------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_learned_gram_maps_each_step_to_its_reply(seed):
    # On a root find whose steps stay G-conjugate (|A| = 5 steps here), one
    # BFGS update over the pairs maps every recorded step to its reply.
    # Later steps of long solves lose conjugacy and their replies difference
    # nearly equal gradients, so there only the last pair is exact; it is
    # checked on a wide and a tall shape too.
    for n, p, machines, size in ((400, 50, 4, 5), (240, 600, 4, 10), (2000, 100, 8, 10)):
        data, _ = generate(SyntheticSpec(n=n, p=p, s=5, seed=seed))
        cluster = SimulatedCluster(data, machines)
        active = np.sort(np.random.default_rng(seed).choice(p, size, replace=False))
        *_, learned = surrogate_root_find(cluster, active, cluster.curvature())
        gram = learned.gram()
        assert np.array_equal(learned.active, active) and learned.steps
        assert (gram == gram.T).all() and np.all(np.linalg.eigvalsh(gram) > 0)
        pairs = list(zip(learned.steps, learned.replies))
        for step, reply in pairs if size == 5 else pairs[-1:]:
            assert np.abs(gram @ step - reply).max() <= 1e-10 * np.abs(reply).max()


def test_path_root_finds_take_at_most_2n_plus_2_rounds(monkeypatch):
    # Along an ACESDAR path each root find's active set adds |N| coordinates
    # to the last one's. With G on the shared block, the preconditioner
    # differs from G in the rows and columns of N only, so 2|N| + 1 steps
    # and the check suffice.
    real, grown = cluster_module.surrogate_root_find, []

    def recorded(cluster, active, curvature, check=None, learned=None, start=None):
        out = real(cluster, active, curvature, check, learned, start)
        if learned is not None and np.isin(learned.active, active).all():
            grown.append((active.size - learned.active.size, out[2]))
        return out

    monkeypatch.setattr(cluster_module, "surrogate_root_find", recorded)
    for seed in (1, 2):
        data, _ = generate(SyntheticSpec(n=1000, p=400, s=10, seed=seed))
        for step in (1, 2):
            acesdar_fit(data, TuningConfig(step=step, machines=4))
    assert len(grown) >= 60 and {added for added, _ in grown} == {1, 2}
    for added, rounds in grown:
        assert rounds <= 2 * added + 2


def test_indefinite_learned_block_falls_back_to_the_master_gram():
    # A doctored learned Gram (the negated preconditioner, no pairs) makes
    # the mixed preconditioner indefinite: the root find preconditions with
    # H1 + mu I exactly as without it, is not flagged jittered, and lands on
    # the full-sample least squares.
    data, _ = generate(SyntheticSpec(n=400, p=30, s=4, seed=5))
    active = np.array([2, 7, 11, 19, 23])
    plain = surrogate_root_find(SimulatedCluster(data, 4), active, data.column_curvature())
    doctored = plain[4]._replace(preconditioner=-plain[4].preconditioner, steps=[], replies=[])
    cluster = SimulatedCluster(data, 4)
    beta, jittered, rounds, converged, learned = surrogate_root_find(
        cluster, active, data.column_curvature(), learned=doctored)
    oracle, _ = root_find_local(data, active)
    assert converged and not jittered
    assert np.array_equal(learned.preconditioner, plain[4].preconditioner)
    assert beta == plain[0] and rounds == plain[2]
    assert np.abs(beta.dense() - oracle.dense()).max() <= ORACLE_TOL


def test_one_machine_fits_ignore_a_learned_gram():
    # At M=1 no surrogate round runs, so a fit learns nothing and a learned
    # Gram carried in by a warm start leaves it bitwise ESDAR.
    data, _ = generate(SyntheticSpec(n=300, p=40, s=4, seed=6))
    cfg = SolverConfig(sparsity=4)
    donor = cesdar_fit(data, 4, SolverConfig(sparsity=3))
    reference = esdar_fit(data, cfg)
    assert reference.learned is None and donor.learned is not None
    for fit in (cesdar_fit(data, 1, cfg), ecesdar_fit(data, 1, cfg)):
        assert bitwise_equal(fit, reference) and fit.learned is None
    plain = cesdar_fit(data, 1, cfg, warm=dataclasses.replace(donor, learned=None,
                                                              known_dual=None))
    carried = cesdar_fit(data, 1, cfg, warm=donor)
    assert bitwise_equal(carried, plain) and np.array_equal(carried.d, plain.d)
    assert carried.learned is None


def test_warm_start_from_other_data_carries_no_dual():
    # A carried dual belongs to the data it was exchanged on: a fit on other
    # data of the same shape starts as if the warm fit had none.
    data, _ = generate(SyntheticSpec(n=300, p=40, s=4, seed=6))
    other, _ = generate(SyntheticSpec(n=300, p=40, s=4, seed=7))
    donor = cesdar_fit(other, 4, SolverConfig(sparsity=3))
    cfg = SolverConfig(sparsity=4)
    carried = cesdar_fit(data, 4, cfg, warm=donor)
    plain = cesdar_fit(data, 4, cfg, warm=dataclasses.replace(donor, known_dual=None))
    assert donor.known_dual is not None
    assert fit_fields(carried) == fit_fields(plain)
    assert carried.ledger.entries == plain.ledger.entries


@pytest.mark.parametrize("case", ["other_p", "short_d"])
def test_warm_start_of_another_dimension_is_error(case):
    # A warm start is an earlier fit on a problem of the same dimension p:
    # its coefficients and its dual must both have p entries.
    data, _ = generate(SyntheticSpec(n=200, p=20, s=3, seed=7))
    cfg = SolverConfig(sparsity=3)
    if case == "other_p":
        other, _ = generate(SyntheticSpec(n=200, p=21, s=3, seed=7))
        warm = cesdar_fit(other, 2, cfg)
    else:
        donor = cesdar_fit(data, 2, cfg)
        warm = dataclasses.replace(donor, d=donor.d[:-1])
    with pytest.raises(ValueError, match="warm start does not match the problem dimension"):
        cesdar_fit(data, 2, cfg, warm=warm)


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

@pytest.mark.parametrize("algo,fitter", [("cesdar", cesdar_fit), ("ecesdar", ecesdar_fit)])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 400), p=st.integers(1, 60), machines=st.integers(2, 6),
       sparsity=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(n=300, p=40, machines=3, sparsity=4, seed=10)
def test_ledger_matches_protocol_replay(algo, fitter, n, p, machines, sparsity, seed):
    assume(sparsity <= p and n // machines >= 2 * sparsity)
    data, _ = generate(SyntheticSpec(n=n, p=p, s=sparsity if p > 1 else 0, seed=seed))
    result = fitter(data, machines, SolverConfig(sparsity=sparsity))
    assert ledger_rows(result) == expected_ledger(result, machines, data.p, sparsity, algo)


def fit_fields(fit):
    """Every field of a fit but its ledger and message list, as bytes."""
    arrays = (fit.beta.support, fit.beta.values, fit.d, fit.g, *fit.active_history)
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays], fit.iterations,
            fit.converged, fit.jittered, fit.cycled, repr(fit.rel_loss), fit.inner_rounds)


def anchor_checks(entries, inner_rounds, workers):
    """Ledger positions of the verification anchor round of each root find
    that ran rounds in an anchor-checked CESDAR run: the round just before
    the iteration's dual exchange."""
    drop = []
    for k, rounds in enumerate(inner_rounds, 1):
        if rounds:
            dual = next(i for i, e in enumerate(entries)
                        if e.iteration == k and e.kind == "BroadcastActiveSet")
            drop.extend(range(dual - 2 * workers, dual))
    return drop


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 400), p=st.integers(2, 60), machines=st.integers(2, 6),
       sparsity=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(n=300, p=40, machines=3, sparsity=4, seed=10)
def test_dual_check_equals_anchor_check_less_one_round(n, p, machines, sparsity, seed):
    # CESDAR checks each surrogate solve on the dual exchange that follows
    # it. Against a run checked by one more anchor exchange, every fit field
    # is bitwise the same, and the ledger and message list lose exactly the
    # verification anchor round of each root find that ran rounds.
    assume(sparsity <= p and n // machines >= 2 * sparsity)
    data, _ = generate(SyntheticSpec(n=n, p=p, s=sparsity, seed=seed))
    cfg = SolverConfig(sparsity=sparsity)
    fit = cesdar_fit(data, machines, cfg, cluster=SimulatedCluster(data, machines,
                                                                   log_messages=True))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_module._ClusterEngine, "check", lambda self, active: None)
        reference = cesdar_fit(data, machines, cfg,
                               cluster=SimulatedCluster(data, machines, log_messages=True))
    assert fit_fields(fit) == fit_fields(reference)
    workers = machines - 1
    drop = anchor_checks(reference.ledger.entries, reference.inner_rounds, workers)
    checks = sum(rounds > 0 for rounds in reference.inner_rounds)
    assert [reference.ledger.entries[i].kind for i in drop] == \
        checks * (["BroadcastAnchor"] * workers + ["ReportGradient"] * workers)
    dropped = set(drop)
    keep = [i for i in range(len(reference.ledger.entries)) if i not in dropped]
    assert fit.ledger.entries == [reference.ledger.entries[i] for i in keep]
    assert fit.messages == [reference.messages[i] for i in keep]


def test_failed_dual_check_continues_to_the_oracle():
    # The first dual check answers 1e6 times the true gradient, so it fails:
    # the solve goes on from the checked point until a later dual check
    # passes. The dual the loop then uses is that of the returned iterate,
    # and every dual exchange but the zero point's is a check.
    data, _ = generate(SyntheticSpec(n=400, p=30, s=4, seed=16))
    machines, sparsity = 4, 4
    engine = cluster_module._ClusterEngine
    original, original_dual, duals, answers = engine.check, engine.raw_dual, [], []

    def scaled_once(self, active):
        exchange = original(self, active)

        def check(point):
            answer = exchange(point)
            answers.append(answer)
            return answer * 1e6 if len(answers) == 1 else answer
        return check

    def recorded(self, beta):
        dual = original_dual(self, beta)
        duals.append((beta, dual))
        return dual

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "check", scaled_once)
        patch.setattr(engine, "raw_dual", recorded)
        fit = cesdar_fit(data, machines, SolverConfig(sparsity=sparsity))
    first = [e.kind for e in fit.ledger.entries if e.iteration == 1]
    assert first.count("BroadcastActiveSet") >= 2 * (machines - 1)
    dual_rounds = sum(e.kind == "BroadcastActiveSet" for e in fit.ledger.entries)
    assert dual_rounds == (machines - 1) * (len(answers) + 1)
    assert fit.converged
    oracle, _ = root_find_local(data, fit.beta.support)
    assert np.abs(fit.beta.values - oracle.values).max() <= 1e-9 * np.abs(oracle.values).max()
    assert len(duals) == fit.iterations + 1
    for beta, dual in duals:
        fresh = SimulatedCluster(data, machines).raw_dual(beta)
        assert dual.tobytes() == fresh.tobytes()


def _path_on(cluster, data, machines, top):
    """Warm-started CESDAR fits at T = 1 .. top on ``cluster``, as a path runs them."""
    fits, fit = [], None
    for sparsity in range(1, top + 1):
        fit = cesdar_fit(data, machines, SolverConfig(sparsity=sparsity), warm=fit,
                         cluster=cluster)
        fits.append(fit)
    return fits


@pytest.mark.parametrize("n,p,machines", [(400, 30, 4), (240, 600, 2), (2000, 100, 8)])
def test_cesdar_never_opens_a_root_find_with_an_anchor(n, p, machines):
    # CESDAR starts each root find where the master knows the full-sample
    # gradient: the last iterate whose dual was exchanged, zero-padded onto
    # the active set, or zero. No anchor goes to that start, nor to the
    # master's local least squares, where ECESDAR opens every root find.
    data, _ = generate(SyntheticSpec(n=n, p=p, s=5, seed=n + p))
    master = SimulatedCluster(data, machines).master_shard
    workers = machines - 1
    ces = _path_on(SimulatedCluster(data, machines, log_messages=True), data, machines, 6)
    ece = ecesdar_fit(data, machines, SolverConfig(sparsity=5),
                      cluster=SimulatedCluster(data, machines, log_messages=True))
    last, opened = np.zeros(p), 0
    for fit in ces + [ece]:
        for k, active in enumerate(fit.active_history[:len(fit.inner_rounds)], 1):
            sent = [(e.kind, m) for e, m in zip(fit.ledger.entries, fit.messages)
                    if e.iteration == k and e.worker == 1]
            anchors = [m.reals for kind, m in sent if kind == "BroadcastAnchor"]
            local = root_find_local(master, active)[0].values
            if fit is ece:
                assert np.array_equal(anchors[0], local)
                continue
            inside = np.isin(np.flatnonzero(last), active).all()
            start = last[active] if inside else np.zeros(active.size)
            if anchors:
                opened += 1
                assert not np.array_equal(anchors[0], start)
                assert not np.array_equal(anchors[0], local)
            duals = [m for kind, m in sent if kind == "BroadcastActiveSet"]
            if duals:
                last = SparseCoefficients(p, duals[-1].indices, duals[-1].reals).dense()
    assert opened >= 6


def test_root_find_converged_at_its_start_exchanges_nothing():
    # A fit warm-started from a converged fit at the same T detects that
    # fit's active set again and starts its root find at that fit's last
    # iterate, already solved: no exchange runs, and the loop's dual there is
    # the one already exchanged. Only the final broadcast moves.
    data, _ = generate(SyntheticSpec(n=400, p=30, s=4, seed=16))
    machines, cfg = 4, SolverConfig(sparsity=4)
    cluster = SimulatedCluster(data, machines, log_messages=True)
    first = cesdar_fit(data, machines, cfg, cluster=cluster)
    again = cesdar_fit(data, machines, cfg, warm=first, cluster=cluster)
    assert first.converged and again.converged
    assert again.inner_rounds == [0] and again.iterations == 1
    assert again.beta == first.beta and np.array_equal(again.d, first.d)
    assert [e.kind for e in again.ledger.entries] == ["BroadcastFinal"] * (machines - 1)
    assert again.known_dual.raw is first.known_dual.raw


@pytest.mark.parametrize("n,p,machines", [(400, 30, 4), (240, 600, 2), (1000, 400, 4)])
def test_no_iterate_dual_is_exchanged_twice(n, p, machines):
    # Over a warm-started path on one cluster, and a repeat of its last fit,
    # every dual exchange is at a new point.
    data, _ = generate(SyntheticSpec(n=n, p=p, s=5, seed=p))
    cluster = SimulatedCluster(data, machines, log_messages=True)
    fits = _path_on(cluster, data, machines, 8)
    fits.append(cesdar_fit(data, machines, SolverConfig(sparsity=8), warm=fits[-1],
                           cluster=cluster))
    points = [SparseCoefficients(p, m.indices, m.reals).dense().tobytes()
              for fit in fits for e, m in zip(fit.ledger.entries, fit.messages)
              if e.kind == "BroadcastActiveSet" and e.worker == 1]
    assert len(points) >= 9 and len(set(points)) == len(points)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(40, 400), p=st.integers(3, 60), machines=st.integers(2, 6),
       sparsity=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_cesdar_lands_on_the_full_data_least_squares(n, p, machines, sparsity, seed):
    # Cold and warm-started, CESDAR's estimate is the full-data least
    # squares on the active set it last solved, within ORACLE_TOL, and a
    # warm-started fit's ledger follows the replay rule too.
    assume(sparsity < p and n // machines >= 2 * (sparsity + 1))
    data, _ = generate(SyntheticSpec(n=n, p=p, s=min(sparsity, p - 1), seed=seed))
    cold = cesdar_fit(data, machines, SolverConfig(sparsity=sparsity))
    warm = cesdar_fit(data, machines, SolverConfig(sparsity=sparsity + 1), warm=cold)
    for fit, size in ((cold, sparsity), (warm, sparsity + 1)):
        assert max(fit.inner_rounds) < cluster_module.SURROGATE_MAX_ROUNDS
        solved = fit.active_history[fit.iterations - 1]
        oracle, _ = root_find_local(data, solved)
        assert np.abs(fit.beta.dense() - oracle.dense()).max() <= ORACLE_TOL
        assert ledger_rows(fit) == expected_ledger(fit, machines, data.p, size, "cesdar")


def test_ledger_byte_sizes_recomputable():
    data, _ = generate(SyntheticSpec(n=200, p=30, s=3, seed=11))
    result = cesdar_fit(data, 4, SolverConfig(sparsity=3))
    for entry in result.ledger.entries:
        assert entry.byte_size == HEADER_BYTES + 8 * (entry.n_indices + entry.n_reals)
        assert entry.byte_size == message_bytes(entry.n_indices, entry.n_reals)
    assert result.ledger.total_bytes() == sum(e.byte_size for e in result.ledger.entries)


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
    result = fitter(data, 4, SolverConfig(sparsity=sparsity),
                    cluster=SimulatedCluster(data, 4, log_messages=True))
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
    for kind, n_reals in [("ReportGradient", 17), ("ReportDual", 40)]:
        message = WorkerMessage(kind, np.empty(0, np.int64), np.ones(n_reals))
        with pytest.raises(ValueError) as audit:
            _audit_shape(message, p=30, active_size=4)
        assert str(audit.value) == f"{kind} with 0 indices and {n_reals} reals is off protocol"


@pytest.mark.parametrize("kind,n_idx,n_reals", [
    ("ReportCurvature", 3, 27),
    ("BroadcastAnchor", 3, 5),
    ("ReportGradient", 2, 4),
    ("BroadcastFinal", 0, 1),
])
def test_off_protocol_text_is_shared_by_audit_and_log(kind, n_idx, n_reals):
    # The live audit names an off-protocol header in the one shape rule's text.
    from cesdar.cluster import _audit_shape
    message = WorkerMessage(kind, np.arange(n_idx), np.ones(n_reals))
    with pytest.raises(ValueError) as audit:
        _audit_shape(message, p=30, active_size=n_idx)
    assert str(audit.value) == f"{kind} with {n_idx} indices and {n_reals} reals is off protocol"


def test_collect_without_its_broadcast_is_error():
    # A collect takes the answers of the last broadcast, once, and only of
    # the reply kind that broadcast asked for; a report is never broadcast.
    data, _ = generate(SyntheticSpec(n=100, p=10, s=2, seed=15))
    active = np.array([1, 4])
    cluster = SimulatedCluster(data, 3)
    with pytest.raises(ValueError, match="ReportDual is not a broadcast kind"):
        cluster.broadcast("ReportDual", np.empty(0, np.int64), np.ones(10))
    assert cluster.ledger.entries == []
    with pytest.raises(ValueError, match="no broadcast asked for a ReportDual reply"):
        cluster.collect_duals()
    cluster.broadcast("BroadcastAnchor", active, np.ones(2))
    with pytest.raises(ValueError, match="no broadcast asked for a ReportDual reply"):
        cluster.collect_duals()
    assert len(cluster.collect_gradients(active)) == 2
    with pytest.raises(ValueError, match="no broadcast asked for a ReportGradient reply"):
        cluster.collect_gradients(active)


@pytest.mark.parametrize("kind", ["ReportGradient", "ReportDual"])
@pytest.mark.parametrize("bad", [1, 3])
def test_live_audit_rejects_an_off_protocol_reply(monkeypatch, kind, bad):
    # One worker answers an anchor with |A| + 1 reals, or a dual with p - 1:
    # the collect raises the shape rule's text at that reply and records no
    # row for it; the workers before it are audited and recorded as usual.
    data, _ = generate(SyntheticSpec(n=200, p=12, s=2, seed=16))
    active = np.array([1, 4, 9])
    cluster = SimulatedCluster(data, 4)
    worker = cluster.workers[bad - 1]
    original = worker.answer

    def off_protocol(*args):
        reals = original(*args)
        return np.append(reals, 1.0) if kind == "ReportGradient" else reals[:-1]
    monkeypatch.setattr(worker, "answer", off_protocol)
    if kind == "ReportGradient":
        broadcast, n_reals = ("BroadcastAnchor", active, np.ones(3)), active.size + 1
    else:
        broadcast, n_reals = ("BroadcastActiveSet", active, np.ones(3)), data.p - 1
    cluster.broadcast(*broadcast)
    sent = list(cluster.ledger.entries)
    assert [(e.kind, e.worker) for e in sent] == [(broadcast[0], w) for w in (1, 2, 3)]
    with pytest.raises(ValueError) as audit:
        cluster.collect_gradients(active) if kind == "ReportGradient" else cluster.collect_duals()
    assert str(audit.value) == f"{kind} with 0 indices and {n_reals} reals is off protocol"
    replies = cluster.ledger.entries[len(sent):]
    assert [(e.kind, e.worker, e.n_reals) for e in replies] == \
        [(kind, w, active.size if kind == "ReportGradient" else data.p) for w in range(1, bad)]


def test_live_audit_rejects_an_off_protocol_broadcast():
    # A broadcast is audited by its sizes before any worker is reached.
    data, _ = generate(SyntheticSpec(n=100, p=10, s=2, seed=15))
    cluster = SimulatedCluster(data, 3, log_messages=True)
    for kind, indices, reals in (("BroadcastAnchor", [1, 4], np.ones(3)),
                                 ("BroadcastFinal", np.arange(11), np.ones(11))):
        with pytest.raises(ValueError) as audit:
            cluster.broadcast(kind, indices, reals)
        assert str(audit.value) == \
            f"{kind} with {len(indices)} indices and {len(reals)} reals is off protocol"
    assert cluster.ledger.entries == [] and cluster.messages == []


# --- failure and logging ------------------------------------------------------

@pytest.mark.parametrize("failed", [1, 3], ids=["first_worker", "last_worker"])
@pytest.mark.parametrize("fit,first_kind", [
    (cesdar_fit, "ReportCurvature"),
    (ecesdar_fit, "BroadcastAnchor"),
], ids=["cesdar", "ecesdar"])
def test_worker_failure_is_fail_stop(fit, first_kind, failed):
    # The fit's first transfer reaches the workers before the failed one and
    # stops at it: nothing crosses to or from the failed worker.
    data, _ = generate(SyntheticSpec(n=100, p=10, s=2, seed=15))
    cluster = SimulatedCluster(data, 4, fail_worker=failed)
    with pytest.raises(WorkerUnavailableError, match=f"worker {failed} is unavailable") as err:
        fit(data, 4, SolverConfig(sparsity=2), cluster=cluster)
    assert err.value.worker == failed
    assert [(e.kind, e.worker) for e in cluster.ledger.entries] == \
        [(first_kind, worker) for worker in range(1, failed)]


@pytest.mark.parametrize("failed", [1, 2, 3])
def test_down_worker_is_never_asked(monkeypatch, failed):
    # Every exchange stops at the down worker before it is asked: no answer
    # call, no curvature computed on its shard, no ledger row, no log entry.
    data, _ = generate(SyntheticSpec(n=120, p=10, s=2, seed=15))
    cluster = SimulatedCluster(data, 4, fail_worker=failed, log_messages=True)
    asked, curvatures = [], []
    answer, curvature = cluster_module._RemoteWorker.answer, Dataset.column_curvature

    def counted_answer(worker, *args):
        asked.append(worker.worker_id)
        return answer(worker, *args)

    def counted_curvature(shard):
        curvatures.append(shard)
        return curvature(shard)
    monkeypatch.setattr(cluster_module._RemoteWorker, "answer", counted_answer)
    monkeypatch.setattr(Dataset, "column_curvature", counted_curvature)
    active = np.array([2, 5])
    for kind in ("BroadcastAnchor", "BroadcastActiveSet", "BroadcastFinal"):
        asked.clear()
        start = len(cluster.ledger.entries)
        with pytest.raises(WorkerUnavailableError, match=f"worker {failed} is unavailable"):
            cluster.broadcast(kind, active, np.ones(2))
        assert asked == list(range(1, failed))
        assert [e.worker for e in cluster.ledger.entries[start:]] == list(range(1, failed))
    with pytest.raises(WorkerUnavailableError):
        cluster.collect_curvature()
    down = cluster.workers[failed - 1].shard
    assert all(shard is not down for shard in curvatures)
    assert len(curvatures) == failed - 1
    assert all(e.worker != failed for e in cluster.ledger.entries)
    assert len(cluster.messages) == len(cluster.ledger.entries)


def _fit_fields(fit):
    """Every FitResult field but the ledger and the message list, arrays by
    dtype, shape and bytes, scalars by repr."""
    out = []
    for f in dataclasses.fields(fit):
        value = getattr(fit, f.name)
        if f.name == "beta":
            value = [value.support, value.values]
        elif f.name in ("ledger", "messages"):
            continue
        arrays = value if isinstance(value, list) else [value]
        out.append((f.name, [(a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray)
                             else repr(a) for a in arrays]))
    return out


@settings(max_examples=20, deadline=None)
@given(n=st.integers(20, 300), p=st.integers(2, 40), machines=st.integers(2, 6),
       sparsity=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_logging_changes_only_the_message_list(n, p, machines, sparsity, seed):
    # A cluster that logs builds a WorkerMessage per move; one that does not
    # builds none. Ledger rows and every fit field are the same either way.
    assume(sparsity <= p and n >= machines)
    data, _ = generate(SyntheticSpec(n=n, p=p, s=1, seed=seed))
    cfg = SolverConfig(sparsity=sparsity)
    for fitter in (cesdar_fit, ecesdar_fit):
        logged = fitter(data, machines, cfg, cluster=SimulatedCluster(data, machines,
                                                                       log_messages=True))
        silent = fitter(data, machines, cfg, cluster=SimulatedCluster(data, machines))
        assert silent.messages is None and len(logged.messages) == len(logged.ledger.entries)
        assert logged.ledger.entries == silent.ledger.entries
        assert _fit_fields(logged) == _fit_fields(silent)
        for message, entry in zip(logged.messages, logged.ledger.entries):
            assert (message.kind, message.n_indices, message.n_reals) == \
                (entry.kind, entry.n_indices, entry.n_reals)


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


def test_master_shard_rank_deficient_gram():
    # Column 7 equals column 4 on the master's 100 rows only: the full-sample
    # Gram on A is regular, the master-shard one singular. The documented
    # rule: the jittered master Gram still preconditions the full-sample
    # system, so the solve is flagged jittered, converges, and lands on the
    # full-sample least squares (8 rounds here).
    data, _ = generate(SyntheticSpec(n=400, p=30, s=4, seed=0))
    x = data.x.copy()
    x[:100, 7] = x[:100, 4]
    data = Dataset(x, data.y)
    active = np.array([4, 7, 11, 29])
    cluster = SimulatedCluster(data, 4)
    beta, jittered, rounds, converged, _ = surrogate_root_find(
        cluster, active, cluster.curvature())
    oracle, oracle_jittered = root_find_local(data, active)
    assert jittered and converged and not oracle_jittered
    assert type(jittered) is bool
    assert np.abs(beta.dense() - oracle.dense()).max() <= 1e-9
    for fitter in (cesdar_fit, ecesdar_fit):
        result = fitter(data, 4, SolverConfig(sparsity=4))
        assert result.jittered and result.converged
        assert type(result.jittered) is bool
        assert np.all(np.isfinite(result.beta.values))


def test_worker_message_equality_compares_content():
    anchor = WorkerMessage("BroadcastAnchor", [1, 4], [0.5, -2.0])
    assert anchor == WorkerMessage("BroadcastAnchor", np.array([1, 4]), np.array([0.5, -2.0]))
    assert anchor != WorkerMessage("BroadcastAnchor", [1, 4], [0.5, 2.0])
    assert anchor != WorkerMessage("BroadcastFinal", [1, 4], [0.5, -2.0])
    assert anchor != WorkerMessage("ReportGradient", [], [0.5, -2.0])
    assert anchor != (anchor.kind, anchor.indices, anchor.reals)
    assert [anchor, anchor] == [anchor, WorkerMessage("BroadcastAnchor", [1, 4], [0.5, -2.0])]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(12, 300), p=st.one_of(st.integers(1, 50), st.integers(512, 530)),
       machines=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_cluster_passes_are_the_shards_passes_in_worker_order(n, p, machines, seed):
    # Each share, the weighted sum and the message order are those of the
    # machines' passes run one after another on fresh shards, also once the
    # shards have gathered (and kept) the columns of an earlier iterate. The
    # second iterate is never zero, whose dual the cluster exchanges once.
    assume(n >= machines)
    data, _ = generate(SyntheticSpec(n=n, p=p, s=1 if p > 1 else 0, seed=seed))
    _, shards = partition(data, machines)
    rng = np.random.default_rng(seed)
    cluster = SimulatedCluster(data, machines, log_messages=True)
    curvature = cluster.curvature()
    serial = [shard.column_curvature() for shard in shards]
    assert np.array_equal(curvature, cluster.combine(serial[0], serial[1:]))
    expected = [WorkerMessage("ReportCurvature", [], share) for share in serial[1:]]
    for smallest in (0, 1):
        support = np.sort(rng.choice(p, int(rng.integers(smallest, p + 1)), replace=False))
        beta = SparseCoefficients(p, support, rng.standard_normal(support.size))
        dual = cluster.raw_dual(beta)
        _, shards = partition(data, machines)
        serial = [residual_correlation(shard, beta) for shard in shards]
        assert np.array_equal(dual, cluster.combine(serial[0], serial[1:]))
        expected += ([WorkerMessage("BroadcastActiveSet", support, beta.values)] * (machines - 1)
                     + [WorkerMessage("ReportDual", [], share) for share in serial[1:]])
    workers = range(1, machines)
    assert [(e.kind, e.direction, e.worker) for e in cluster.ledger.entries] == (
        [("ReportCurvature", WORKER_TO_MASTER, w) for w in workers]
        + 2 * ([("BroadcastActiveSet", MASTER_TO_WORKER, w) for w in workers]
               + [("ReportDual", WORKER_TO_MASTER, w) for w in workers]))
    assert cluster.messages == expected
