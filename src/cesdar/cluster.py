"""Simulated M-machine cluster with exact per-message byte accounting.

Machine 0 is the master and owns the first shard; machines 1..M-1 are
workers that communicate with the master only through WorkerMessage values.
A broadcast is built, audited and decoded once, then moved to each worker in
order, which answers it; each reply is audited and moved once. Every move is
one ledger row. No worker ever sees another shard, and no message ever
carries row data: payloads are |A|-length or p-length aggregate vectors.

Protocol
--------
Setup (distributed variant only): every worker reports its per-column
curvature (ReportCurvature, p reals) and its raw dual at zero (the empty
BroadcastActiveSet, then ReportDual); the master adds each kind of report to
its own shard's value with sample-size weights n_m/N. Both are per dataset,
so a cluster collects each once and every fit run on it shares them.

Per outer iteration on active set A:

* root finding: the master starts at its local least squares on A and
  runs conjugate gradient on the full-sample normal equations,
  preconditioned by the shifted master-shard Gram, until the sample-weighted
  global gradient vanishes on A. Each exchange broadcasts a point
  (BroadcastAnchor, |A| indices + |A| reals) and collects local gradients
  there (ReportGradient, |A| reals): one at the start and one per conjugate
  gradient step. Both distributed variants share this step. A worker keeps
  only its shard's normal equations on the last active set and answers
  anchors from them; these aggregates of its own rows never leave the
  machine. One verification exchange at the final point checks the
  solve: one more anchor for the low-communication variant, the dual
  exchange below for the distributed one, whose active entries are the
  negated full-sample gradient there.
* distributed variant only: the new coefficients go out
  (BroadcastActiveSet, |A| indices + |A| reals) and every worker reports
  its raw dual direction X_m'(y_m - X_m b)/n_m (ReportDual, p reals); the
  master weight-averages the reports, divides by the combined curvature,
  and zeroes the active coordinates. The low-communication variant skips
  both messages and uses master-shard curvature and duals instead.
  A failed check costs this variant one dual exchange (p reals per
  worker) where an anchor costs |A|; the solve then goes on and its dual
  is exchanged again at the final point.

One final BroadcastFinal (|A| indices + |A| reals) ships the estimate.
Every dual request carries its iterate and workers keep no coefficients,
so no fit needs to reset them first. With M=1 the master holds the dataset
itself and no message moves or surrogate round runs; ESDAR is the
low-communication fit on such a cluster, so both fits at M=1 are ESDAR.

A cluster's options (``fail_worker``, ``log_messages``) are set only where
it is built; a fit runs on the one passed as ``cluster=`` or builds its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import SolverConfig
from .data import Dataset
from .exceptions import WorkerUnavailableError
from .linalg import gram_submatrix, spd_solve  # noqa: F401 (traced here by the benchmark)
from .sdar import (FitResult, SparseCoefficients, _sdar_loop, normal_equations,
                   residual_correlation)

__all__ = [
    "MESSAGE_KINDS",
    "PROTOCOL_SHAPES",
    "WorkerMessage",
    "CommLedger",
    "Partition",
    "partition",
    "SimulatedCluster",
    "surrogate_root_find",
    "cesdar_fit",
    "ecesdar_fit",
]

MASTER_TO_WORKER = "master_to_worker"
WORKER_TO_MASTER = "worker_to_master"

# Allowed payload shapes per kind, in tag order: index part and real part are
# each one of "none", "active" (at most p entries, sized by the current active
# set) or "p" (exactly the dimension). Nothing row-sized is expressible.
PROTOCOL_SHAPES = {
    "BroadcastActiveSet": ("active", "active"),
    "BroadcastAnchor": ("active", "active"),
    "ReportGradient": ("none", "active"),
    "ReportDual": ("none", "p"),
    "ReportCurvature": ("none", "p"),
    "BroadcastFinal": ("active", "active"),
}
MESSAGE_KINDS = tuple(PROTOCOL_SHAPES)

# The reply kind each broadcast asks of every worker.
_REPLY_KINDS = {"BroadcastAnchor": "ReportGradient", "BroadcastActiveSet": "ReportDual",
                "BroadcastFinal": None}
_NO_INDICES = np.empty(0, np.int64)

HEADER_BYTES = 16

# Fixed stopping rule of the inner surrogate solve: absolute tolerance on the
# dual-scale residual (relative to the current point's largest entry) and a round cap.
SURROGATE_TOL = 1e-12
SURROGATE_MAX_ROUNDS = 200
# The steps precondition with H1 + mu I, mu = SURROGATE_SHIFT * tr(H1)/|A|, as
# DiSCO does: on a master shard of barely |A| rows H1 is barely regular, and
# unshifted steps took up to |A| + 36 rounds where shifted ones take |A| + 8.
SURROGATE_SHIFT = 1e-2


@dataclass(frozen=True)
class WorkerMessage:
    """Tagged protocol message; its ledger size is ``message_bytes`` of its shape."""

    kind: str
    indices: np.ndarray
    reals: np.ndarray

    def __post_init__(self):
        if self.kind not in PROTOCOL_SHAPES:
            raise ValueError(f"unknown message kind {self.kind!r}")
        indices = np.asarray(self.indices, dtype=np.int64)
        reals = np.asarray(self.reals, dtype=float)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "reals", reals)

    def __eq__(self, other):
        return (
            isinstance(other, WorkerMessage)
            and self.kind == other.kind
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.reals, other.reals)
        )

    __hash__ = None

    @property
    def n_indices(self) -> int:
        return self.indices.size

    @property
    def n_reals(self) -> int:
        return self.reals.size


def message_bytes(n_indices: int, n_reals: int) -> int:
    """16-byte header plus 8 bytes per index and per real."""
    return HEADER_BYTES + 8 * n_indices + 8 * n_reals


def _audit_shape(message: WorkerMessage, p: int, active_size: int) -> None:
    """Runtime privacy audit: only aggregate vectors cross machines."""
    for shape, size in zip(PROTOCOL_SHAPES[message.kind], (message.n_indices, message.n_reals)):
        if size != (0 if shape == "none" else active_size if shape == "active" else p) or size > p:
            raise ValueError(f"{message.kind} with {message.n_indices} indices and "
                             f"{message.n_reals} reals is off protocol")


class LedgerEntry(NamedTuple):
    iteration: int
    kind: str
    direction: str
    byte_size: int
    n_indices: int
    n_reals: int
    worker: int


class CommLedger:
    """Append-only record of every directed transfer in one run."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []

    def record(self, iteration, kind, direction, n_indices, n_reals, worker) -> None:
        self.entries.append(LedgerEntry(iteration, kind, direction,
                                        message_bytes(n_indices, n_reals),
                                        n_indices, n_reals, worker))

    def total_bytes(self, direction=None) -> int:
        return sum(e.byte_size for e in self.entries
                   if direction is None or e.direction == direction)

    def worker_to_master_bytes(self) -> int:
        return self.total_bytes(WORKER_TO_MASTER)


@dataclass(frozen=True)
class Partition:
    """Contiguous row blocks, one per machine; machine 0 is the master."""

    machines: int
    assignments: tuple

    def sizes(self):
        return tuple(count for _start, count in self.assignments)


def _check_machines(rows: int, machines: int) -> None:
    if machines < 1:
        raise ValueError(f"machines must be >= 1, got {machines}")
    if machines > rows:
        raise ValueError(f"machines={machines} exceeds the number of rows {rows}")


def partition(data: Dataset, machines: int):
    """Split rows into M contiguous blocks in order.

    The first M-1 machines receive floor(N/M) rows each; the last machine
    absorbs the remainder. M=1 gives the master the dataset itself, so it
    keeps the dataset's curvature and column caches.
    """
    _check_machines(data.n, machines)
    base = data.n // machines
    assignments = tuple((m * base, base if m < machines - 1 else data.n - m * base)
                        for m in range(machines))
    shards = [data] if machines == 1 else [data.row_slice(s, s + c) for s, c in assignments]
    return Partition(machines, assignments), shards


class _RemoteWorker:
    """One simulated worker: owns a shard and answers the message it is handed.

    Its only state beside the shard is the shard's normal equations on the
    last anchored active set: aggregates of its own rows that never leave the
    machine and answer each anchor on that set with one |A|x|A| product.
    """

    def __init__(self, worker_id: int, shard: Dataset):
        self.worker_id = worker_id
        self.shard = shard
        self.failed = False
        self._normal_key = self._normal = None

    def answer(self, message: WorkerMessage, iterate: SparseCoefficients | None):
        """The reply's reals: the gradient at an anchor, the raw dual at
        ``iterate`` (the decoded BroadcastActiveSet), nothing to BroadcastFinal."""
        if message.kind == "BroadcastAnchor":
            key = message.indices.tobytes()  # the index content, not just |A|
            if key != self._normal_key:
                self._normal_key, self._normal = key, normal_equations(self.shard, message.indices)
            gram, rhs = self._normal
            return gram @ message.reals - rhs
        if message.kind == "BroadcastActiveSet":
            return residual_correlation(self.shard, iterate)
        return None


class SimulatedCluster:
    """Master-side driver around the remote workers; fits may share it (see Setup).

    ``fail_worker`` names a remote worker (1..M-1) that is down, so any
    exchange with it raises ``WorkerUnavailableError``. With
    ``log_messages`` every message a fit sends or receives is kept in order.
    """

    def __init__(self, data: Dataset, machines: int, fail_worker=None,
                 log_messages: bool = False):
        self.data = data
        self.partition, shards = partition(data, machines)
        self.master_shard = shards[0]
        self.workers = [_RemoteWorker(m, shards[m]) for m in range(1, machines)]
        if fail_worker is not None:
            if not 0 < fail_worker < machines:
                raise ValueError(f"fail_worker must name a remote worker in [1, {machines - 1}]")
            self.workers[fail_worker - 1].failed = True
        self.weights = np.array([size / data.n for size in self.partition.sizes()])
        self.ledger = CommLedger()
        self.iteration = 0
        self.messages: list[WorkerMessage] | None = [] if log_messages else None
        self._curvature = self._zero_dual = self._pending = None

    @property
    def machines(self) -> int:
        return self.partition.machines

    @property
    def p(self) -> int:
        return self.data.p

    def _transfer(self, worker: _RemoteWorker, direction: str, message) -> WorkerMessage:
        """Move one message between the master and ``worker``: fail-stop check,
        ledger row, log entry. A reply comes as the function that builds it
        from the worker, so a down worker is asked nothing."""
        if worker.failed:
            raise WorkerUnavailableError(f"worker {worker.worker_id} is unavailable (fail-stop)",
                                         worker=worker.worker_id)
        if callable(message):
            message = message(worker)
        self.ledger.record(self.iteration, message.kind, direction,
                           message.n_indices, message.n_reals, worker.worker_id)
        if self.messages is not None:
            self.messages.append(message)
        return message

    def _collect(self, kind: str, active_size: int, answer=None) -> list[np.ndarray]:
        """Every worker's ``kind`` reply reals in worker order, each audited and
        moved once: ``answer(worker)``, or else the answers of the last
        broadcast, which must have asked for ``kind``."""
        if answer is None:
            if self._pending is None or self._pending[0] != kind:
                raise ValueError(f"no broadcast asked for a {kind} reply")
            answer, self._pending = self._pending[1], None

        def reply(worker):
            message = WorkerMessage(kind, _NO_INDICES, answer(worker))
            _audit_shape(message, self.p, active_size)
            return message
        return [self._transfer(w, WORKER_TO_MASTER, reply).reals for w in self.workers]

    def combine(self, master_share: np.ndarray, replies) -> np.ndarray:
        """n_0/N * master_share + sum_m n_m/N * reply_m, added in machine
        order: the full-sample value of a per-machine mean."""
        for m, share in enumerate((master_share, *replies)):
            term = self.weights[m] * share
            total = term if m == 0 else total + term
        return total

    def broadcast(self, kind: str, indices: np.ndarray, reals: np.ndarray) -> None:
        """Audit and decode one message, move it to every worker in order and
        keep their answers for the collect of its reply kind."""
        if kind not in _REPLY_KINDS:
            raise ValueError(f"{kind} is not a broadcast kind")
        message = WorkerMessage(kind, indices, reals)
        _audit_shape(message, self.p, message.n_indices)
        iterate = (SparseCoefficients(self.p, message.indices, message.reals)
                   if kind == "BroadcastActiveSet" else None)
        answers = {}
        for worker in self.workers:
            self._transfer(worker, MASTER_TO_WORKER, message)
            answers[worker] = worker.answer(message, iterate)
        self._pending = _REPLY_KINDS[kind], answers.__getitem__

    def collect_gradients(self, active: np.ndarray) -> list[np.ndarray]:
        """ReportGradient payloads in worker-index order."""
        return self._collect("ReportGradient", active.size)

    def collect_duals(self) -> list[np.ndarray]:
        return self._collect("ReportDual", 0)

    def collect_curvature(self) -> np.ndarray:
        """Sample-weighted combination of all machine curvatures; each share
        is computed as it is collected."""
        shares = self._collect("ReportCurvature", 0, lambda w: w.shard.column_curvature())
        return self.combine(self.master_shard.column_curvature(), shares)

    def curvature(self) -> np.ndarray:
        if self._curvature is None:
            self._curvature = self.collect_curvature()
            self._curvature.flags.writeable = False
        return self._curvature

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        """Sample-weighted X'(y - X beta)/N; the zero point's is exchanged once."""
        if beta.support.size == 0 and self._zero_dual is not None:
            return self._zero_dual
        master = residual_correlation(self.master_shard, beta)
        # Ship the iterate, then every worker reports its raw dual there.
        self.broadcast("BroadcastActiveSet", beta.support, beta.values)
        combined = self.combine(master, self.collect_duals())
        if beta.support.size == 0:
            combined.flags.writeable = False
            self._zero_dual = combined
        return combined


def surrogate_root_find(cluster: SimulatedCluster, active: np.ndarray,
                        curvature: np.ndarray, check=None):
    """Global least squares on ``active`` by preconditioned conjugate gradient.

    The system is the full-sample normal equations G b = c on ``active``,
    from the master shard's local least squares (its Gram H1, unshifted).
    An exchange broadcasts a point and averages the per-machine gradients
    with sample-size weights: the exact full-sample gradient there. Round 0
    exchanges at the start point. Each step solves z = (H1 + mu I)^-1 r for
    the current gradient r, preconditioned as in DiSCO with
    mu = SURROGATE_SHIFT * tr(H1)/|A|, then exchanges at x + p, which gives
    G p = grad(x + p) - r; in exact arithmetic at most |A| steps are
    needed. The recurrence gradient drifts, so once it passes the stop
    test one more exchange, ``check(x)``, returns the true gradient at x (a
    failed check restarts from x with it). The default check is one more
    anchor exchange; a caller may pass another exchange that yields the
    same gradient. Every exchange follows one solve, the unused one before
    a check too, so ``rounds`` = solves - 1. The anchor exchanges number
    rounds + 1 with the default check; with a check of another kind that
    passes at once they number rounds (1 if no round ran).

    A master-shard Gram singular on ``active`` is jittered by ``spd_solve``
    for the start point, and the shifted Gram still preconditions G, so the
    solve converges to the full-sample least squares, flagged ``jittered``
    (so is the fit). With no remote worker (M=1) it returns the master's
    least squares after 0 rounds.

    Returns (coefficients, jittered, rounds, converged).
    """
    active = np.asarray(active, dtype=np.int64)
    p = cluster.p
    if active.size == 0:
        return SparseCoefficients.zeros(p), False, 0, True
    gram, rhs = normal_equations(cluster.master_shard, active)
    point, jittered = spd_solve(gram, rhs, active_set=active)
    if not cluster.workers:
        return SparseCoefficients(p, active, point), jittered, 0, True

    def gradient(at: np.ndarray) -> np.ndarray:
        """One exchange: the full-sample gradient on ``active`` at ``at``."""
        master = gram @ at - rhs
        cluster.broadcast("BroadcastAnchor", active, at)
        return cluster.combine(master, cluster.collect_gradients(active))

    check = gradient if check is None else check
    shifted = gram + SURROGATE_SHIFT * np.trace(gram) / active.size * np.eye(active.size)
    g_active = curvature[active]
    residual, verified, direction = gradient(point), True, None
    rounds = 0
    while True:
        # Scaled by the current point: a barely regular H1 can throw the
        # start point far off, and a tolerance scaled by it stops too early.
        tol = SURROGATE_TOL * max(1.0, float(np.abs(point).max()))
        small = float(np.abs(residual / g_active).max()) <= tol
        converged = small and verified
        if converged or rounds >= SURROGATE_MAX_ROUNDS:
            break
        step = spd_solve(shifted, residual, active_set=active)[0]
        rounds += 1
        if small:  # check the recurrence against the true gradient
            residual, verified, direction = check(point), True, None
            continue
        rz = float(residual @ step)
        direction = -step if direction is None else rz / rz_prev * direction - step
        g_direction = gradient(point + direction) - residual
        curv = float(direction @ g_direction)
        if not curv > 0.0:  # G is not positive definite along the direction
            break
        point = point + rz / curv * direction
        residual = residual + rz / curv * g_direction
        rz_prev, verified = rz, False
    return SparseCoefficients(p, active, point), jittered, rounds, converged


class _ClusterEngine:
    """Averaged-(g, d) engine: the communication-efficient distributed run.

    Its root find checks the surrogate solve on the dual exchange the loop
    needs next anyway: the raw dual at the final point, negated on the
    active set, is the full-sample gradient there. The dual is kept and
    answers the loop's ``raw_dual`` call at that same iterate.
    """

    def __init__(self, cluster: SimulatedCluster):
        self.cluster = cluster
        self.p = cluster.p
        self.surrogate_ok = True
        self._checked = None  # (iterate, raw dual) of the last dual check

    def curvature(self) -> np.ndarray:
        return self.cluster.curvature()

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        checked, self._checked = self._checked, None
        if checked is not None and checked[0] == beta:
            return checked[1]
        return self.cluster.raw_dual(beta)

    def check(self, active: np.ndarray):
        """The surrogate solve's verification exchange on ``active``."""
        def dual_check(point: np.ndarray) -> np.ndarray:
            iterate = SparseCoefficients(self.p, active, point)
            self._checked = iterate, self.cluster.raw_dual(iterate)
            return -self._checked[1][iterate.support]
        return dual_check

    def root_find(self, active: np.ndarray):
        self.cluster.iteration += 1
        # The surrogate rounds weight gradients by sample size and use the
        # curvature only for their stop scale, so either engine's works.
        beta, jittered, rounds, ok = surrogate_root_find(
            self.cluster, active, self.curvature(), self.check(active)
        )
        self.surrogate_ok = self.surrogate_ok and ok
        return beta, jittered, rounds

    def finish(self, beta: SparseCoefficients) -> None:
        self.cluster.broadcast("BroadcastFinal", beta.support, beta.values)


class _MasterOnlyEngine(_ClusterEngine):
    """Low-communication engine: detection quantities from the master shard.

    Workers take part only in the root-finding gradient rounds, so the
    per-iteration worker traffic is O(|A|) reals instead of O(p).
    """

    def curvature(self) -> np.ndarray:
        return self.cluster.master_shard.checked_curvature(" on machine 0, the master shard")

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        return residual_correlation(self.cluster.master_shard, beta)

    def check(self, active: np.ndarray):
        return None  # its duals are the master's: one more anchor checks


def _distributed_fit(engine_cls, data: Dataset, machines: int, cfg: SolverConfig,
                     warm=None, cluster=None) -> FitResult:
    """The shared loop on ``cluster`` (or a fresh one), with the fit's own
    ledger, iteration count and message list."""
    if cfg.sparsity > data.p:
        raise ValueError(f"sparsity {cfg.sparsity} exceeds p={data.p}")
    if cluster is None:
        cluster = SimulatedCluster(data, machines)
    elif cluster.data is not data or cluster.machines != machines:
        raise ValueError("cluster= was built on another dataset or machine count")
    cluster.ledger, cluster.iteration = CommLedger(), 0
    cluster.messages = None if cluster.messages is None else []
    engine = engine_cls(cluster)
    result = _sdar_loop(engine, cfg, warm=warm)
    if not engine.surrogate_ok:
        result.converged = False
    result.ledger = cluster.ledger
    result.messages = cluster.messages
    return result


def cesdar_fit(data: Dataset, machines: int, cfg: SolverConfig, warm=None,
               cluster=None) -> FitResult:
    """Distributed fit with sample-weighted averaged curvature and duals.

    With machines=1 the output is bitwise identical to ESDAR: the combined
    curvature and duals are the master's, which holds every row, and the
    restricted solves are the same least squares with no surrogate round.

    ``warm`` is an optional (coefficients, dual) pair seeding the first
    detection. ``cluster`` runs the fit on a ``SimulatedCluster`` built on
    this ``data`` object and ``machines`` (ValueError otherwise); worker
    failure and message logging are set there. Same output; the fit's
    ledger omits set-up already exchanged on that cluster.
    """
    return _distributed_fit(_ClusterEngine, data, machines, cfg, warm, cluster)


def ecesdar_fit(data: Dataset, machines: int, cfg: SolverConfig, cluster=None) -> FitResult:
    """Low-communication fit: master-shard detection, shared root finding.

    ``cluster`` as for ``cesdar_fit``; with no set-up exchange, the ledger
    is the same on a fresh or a shared cluster.
    """
    return _distributed_fit(_MasterOnlyEngine, data, machines, cfg, cluster=cluster)
