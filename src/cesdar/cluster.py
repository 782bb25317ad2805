"""Simulated M-machine cluster with exact per-message byte accounting.

Machine 0 is the master and owns the first shard; machines 1..M-1 are
workers that communicate with the master only through WorkerMessage values
moved over per-worker queues. No worker ever sees another shard, and no
message ever carries row data: payloads are |A|-length or p-length
aggregate vectors (enforced at message construction, recorded in the
ledger).

Protocol
--------
Setup (distributed variant only): every worker reports its per-column
curvature once (ReportCurvature, p reals); the master combines the reports
with its own shard's curvature using sample-size weights n_m/N.

Per outer iteration on active set A:

* root finding: the master anchors at its local least squares on A, then
  repeats {broadcast the current point (BroadcastAnchor, |A| indices +
  |A| reals), collect local gradients on A (ReportGradient, |A| reals),
  take a Newton step preconditioned by the master-shard Gram} until the
  sample-weighted global gradient vanishes on A. Both distributed
  variants share this step.
* distributed variant only: the new coefficients go out
  (BroadcastActiveSet, |A| indices + |A| reals) and every worker reports
  its raw dual direction X_m'(y_m - X_m b)/n_m (ReportDual, p reals); the
  master weight-averages the reports, divides by the combined curvature,
  and zeroes the active coordinates. The low-communication variant skips
  both messages and uses master-shard curvature and duals instead.

One final BroadcastFinal (|A| indices + |A| reals) ships the estimate.
Workers start from the all-zero coefficient vector, so no initial
coefficient broadcast is needed. With M=1 there are no messages at all and
the run is bitwise identical to the single-machine solver.
"""
from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import SolverConfig
from .data import Dataset, _ByteReader
from .exceptions import DegenerateColumnError, WorkerUnavailableError
from .linalg import gram_submatrix, spd_solve
from .sdar import FitResult, SparseCoefficients, _sdar_loop, residual_correlation

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
    "write_message_log",
    "read_message_log",
]

MASTER_TO_WORKER = "master_to_worker"
WORKER_TO_MASTER = "worker_to_master"

MESSAGE_KINDS = (
    "BroadcastActiveSet",
    "BroadcastAnchor",
    "ReportGradient",
    "ReportDual",
    "ReportCurvature",
    "BroadcastFinal",
)

# Allowed payload shapes per kind: index part and real part are each one of
# "none", "active" (at most p entries, sized by the current active set) or
# "p" (exactly the dimension). Nothing row-sized is expressible.
PROTOCOL_SHAPES = {
    "BroadcastActiveSet": ("active", "active"),
    "BroadcastAnchor": ("active", "active"),
    "ReportGradient": ("none", "active"),
    "ReportDual": ("none", "p"),
    "ReportCurvature": ("none", "p"),
    "BroadcastFinal": ("active", "active"),
}

HEADER_BYTES = 16
_KIND_TAGS = {kind: i + 1 for i, kind in enumerate(MESSAGE_KINDS)}

# Fixed stopping rule of the inner surrogate solve: absolute tolerance on the
# dual-scale residual (relative to the anchor's largest entry) and a round cap.
SURROGATE_TOL = 1e-12
SURROGATE_MAX_ROUNDS = 200


@dataclass(frozen=True)
class WorkerMessage:
    """Tagged protocol message; byte_size is a pure function of the shape."""

    kind: str
    indices: np.ndarray
    reals: np.ndarray
    byte_size: int = 0

    def __post_init__(self):
        if self.kind not in PROTOCOL_SHAPES:
            raise ValueError(f"unknown message kind {self.kind!r}")
        indices = np.asarray(self.indices, dtype=np.int64)
        reals = np.asarray(self.reals, dtype=float)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "reals", reals)
        object.__setattr__(self, "byte_size", message_bytes(indices.size, reals.size))

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
    idx_shape, real_shape = PROTOCOL_SHAPES[message.kind]
    checks = ((idx_shape, message.n_indices), (real_shape, message.n_reals))
    for shape, size in checks:
        if shape == "none" and size != 0:
            raise ValueError(f"{message.kind}: unexpected payload part of size {size}")
        if shape == "active" and size != active_size:
            raise ValueError(
                f"{message.kind}: active-set payload of size {size}, expected {active_size}"
            )
        if shape == "p" and size != p:
            raise ValueError(f"{message.kind}: full-length payload of size {size}, expected {p}")
        if size > p:
            raise ValueError(f"{message.kind}: payload of size {size} exceeds dimension {p}")


@dataclass(frozen=True)
class LedgerEntry:
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
        self.entries.append(LedgerEntry(
            iteration=iteration, kind=kind, direction=direction,
            byte_size=message_bytes(n_indices, n_reals),
            n_indices=n_indices, n_reals=n_reals, worker=worker,
        ))

    def total_bytes(self, direction=None) -> int:
        return sum(e.byte_size for e in self.entries
                   if direction is None or e.direction == direction)

    def worker_to_master_bytes(self) -> int:
        return self.total_bytes(WORKER_TO_MASTER)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as out:
            out.write("iteration,kind,direction,bytes\n")
            for e in self.entries:
                out.write(f"{e.iteration},{e.kind},{e.direction},{e.byte_size}\n")


@dataclass(frozen=True)
class Partition:
    """Contiguous row blocks, one per machine; machine 0 is the master."""

    machines: int
    assignments: tuple

    def sizes(self):
        return tuple(count for _start, count in self.assignments)


def partition(data: Dataset, machines: int):
    """Split rows into M contiguous blocks in order.

    The first M-1 machines receive floor(N/M) rows each; the last machine
    absorbs the remainder. M=1 places the full dataset on the master.
    """
    if machines < 1:
        raise ValueError(f"machines must be >= 1, got {machines}")
    if machines > data.n:
        raise ValueError(f"machines={machines} exceeds the number of rows {data.n}")
    base = data.n // machines
    assignments = []
    start = 0
    for m in range(machines):
        count = base if m < machines - 1 else data.n - start
        assignments.append((start, count))
        start += count
    shards = [data.row_slice(s, s + c) for s, c in assignments]
    return Partition(machines, tuple(assignments)), shards


class _RemoteWorker:
    """One simulated worker: owns a shard, reacts to inbound messages.

    State is limited to the shard and the current coefficient vector
    (initialized to zero on both sides of the protocol).
    """

    def __init__(self, worker_id: int, shard: Dataset):
        self.worker_id = worker_id
        self.shard = shard
        self.outbox: deque[WorkerMessage] = deque()
        self.failed = False
        self._beta = SparseCoefficients.zeros(shard.p)

    def check_alive(self) -> None:
        if self.failed:
            raise WorkerUnavailableError(
                f"worker {self.worker_id} is unavailable (fail-stop)", worker=self.worker_id
            )

    def handle(self, message: WorkerMessage) -> None:
        if message.kind == "BroadcastAnchor":
            point = message.reals
            cols = message.indices
            fitted = self.shard.x[:, cols] @ point - self.shard.y
            grad = self.shard.x[:, cols].T @ fitted / self.shard.n
            self.outbox.append(WorkerMessage("ReportGradient", np.empty(0, np.int64), grad))
        elif message.kind == "BroadcastActiveSet":
            self._beta = SparseCoefficients(self.shard.p, message.indices, message.reals)
            raw = residual_correlation(self.shard, self._beta)
            self.outbox.append(WorkerMessage("ReportDual", np.empty(0, np.int64), raw))
        elif message.kind == "BroadcastFinal":
            self._beta = SparseCoefficients(self.shard.p, message.indices, message.reals)
        else:
            raise ValueError(f"worker received unexpected kind {message.kind!r}")

    def curvature_report(self) -> WorkerMessage:
        g = self.shard.column_curvature()
        return WorkerMessage("ReportCurvature", np.empty(0, np.int64), g)


class SimulatedCluster:
    """Master-side driver around the remote workers of one run."""

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
        sizes = self.partition.sizes()
        self.weights = np.array([size / data.n for size in sizes])
        self.ledger = CommLedger()
        self.iteration = 0
        self.messages: list[WorkerMessage] | None = [] if log_messages else None

    @property
    def machines(self) -> int:
        return self.partition.machines

    @property
    def p(self) -> int:
        return self.data.p

    def _send(self, worker: _RemoteWorker, message: WorkerMessage, active_size: int) -> None:
        worker.check_alive()
        _audit_shape(message, self.p, active_size)
        self.ledger.record(self.iteration, message.kind, MASTER_TO_WORKER,
                           message.n_indices, message.n_reals, worker.worker_id)
        if self.messages is not None:
            self.messages.append(message)
        worker.handle(message)

    def _receive(self, worker: _RemoteWorker, expected_kind: str, active_size: int) -> WorkerMessage:
        worker.check_alive()
        message = worker.outbox.popleft()
        if message.kind != expected_kind:
            raise ValueError(f"expected {expected_kind}, worker sent {message.kind}")
        _audit_shape(message, self.p, active_size)
        self.ledger.record(self.iteration, message.kind, WORKER_TO_MASTER,
                           message.n_indices, message.n_reals, worker.worker_id)
        if self.messages is not None:
            self.messages.append(message)
        return message

    def broadcast(self, kind: str, indices: np.ndarray, reals: np.ndarray) -> None:
        for worker in self.workers:
            self._send(worker, WorkerMessage(kind, indices, reals), indices.size)

    def collect_gradients(self, active: np.ndarray) -> list[np.ndarray]:
        """ReportGradient payloads in worker-index order."""
        return [self._receive(w, "ReportGradient", active.size).reals for w in self.workers]

    def collect_duals(self) -> list[np.ndarray]:
        return [self._receive(w, "ReportDual", 0).reals for w in self.workers]

    def collect_curvature(self) -> np.ndarray:
        """Sample-weighted combination of all machine curvatures."""
        total = self.weights[0] * self.master_shard.column_curvature()
        for idx, worker in enumerate(self.workers, start=1):
            worker.check_alive()
            worker.outbox.append(worker.curvature_report())
            message = self._receive(worker, "ReportCurvature", 0)
            total = total + self.weights[idx] * message.reals
        return total


def surrogate_root_find(cluster: SimulatedCluster, active: np.ndarray,
                        curvature: np.ndarray):
    """Global least squares on ``active`` via master-anchored Newton rounds.

    The anchor is the master shard's local least squares. Each round
    broadcasts the current point, averages the per-machine gradients with
    sample-size weights (the exact full-sample gradient), and applies the
    master-Gram-preconditioned correction; for the quadratic loss this is
    the stationarity iteration of the communication-efficient surrogate and
    it contracts geometrically. Iterating to tolerance (rather than one
    correction) is what lets the distributed fixed point coincide with the
    full-sample one.

    Returns (coefficients, jittered, rounds, converged).
    """
    active = np.asarray(active, dtype=np.int64)
    p = cluster.p
    if active.size == 0:
        return SparseCoefficients.zeros(p), False, 0, True
    shard = cluster.master_shard
    gram = gram_submatrix(shard.x, active, float(shard.n))
    rhs = shard.x[:, active].T @ shard.y / shard.n
    point, jittered = spd_solve(gram, rhs, active_set=active)

    g_active = curvature[active]
    tol = SURROGATE_TOL * max(1.0, float(np.abs(point).max()))
    # Damped correction: the undamped step diverges when the global Gram
    # exceeds twice the master-shard Gram in some direction (tiny shards),
    # so a residual increase halves the damping and restarts from the best
    # point seen; its gradient is cached, so no extra exchanges happen.
    omega = 1.0
    best_norm = np.inf
    best_point = point
    best_grad = None
    rounds = 0
    converged = False
    while True:
        local = gram @ point - rhs
        combined = cluster.weights[0] * local
        cluster.broadcast("BroadcastAnchor", active, point)
        for w_idx, grad in enumerate(cluster.collect_gradients(active), start=1):
            combined = combined + cluster.weights[w_idx] * grad
        norm = float(np.abs(combined / g_active).max())
        if norm <= tol:
            converged = True
            break
        if rounds >= SURROGATE_MAX_ROUNDS or omega < 1e-6:
            point = best_point
            break
        if norm < best_norm:
            best_norm, best_point, best_grad = norm, point, combined
            base_point, base_grad = point, combined
        else:
            omega *= 0.5
            base_point, base_grad = best_point, best_grad
        step, step_jittered = spd_solve(gram, base_grad, active_set=active)
        jittered = jittered or step_jittered
        point = base_point - omega * step
        rounds += 1
    return SparseCoefficients(p, active, point), jittered, rounds, converged


class _ClusterEngine:
    """Averaged-(g, d) engine: the communication-efficient distributed run."""

    def __init__(self, cluster: SimulatedCluster):
        self.cluster = cluster
        self.p = cluster.p
        self.surrogate_ok = True
        self._g = None

    def curvature(self) -> np.ndarray:
        if self._g is None:
            self._g = self.cluster.collect_curvature()
        return self._g

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        cluster = self.cluster
        combined = cluster.weights[0] * residual_correlation(cluster.master_shard, beta)
        # Ship the iterate, then every worker reports its raw dual there.
        cluster.broadcast("BroadcastActiveSet", beta.support, beta.values)
        for w_idx, raw in enumerate(cluster.collect_duals(), start=1):
            combined = combined + cluster.weights[w_idx] * raw
        return combined

    def root_find(self, active: np.ndarray):
        self.cluster.iteration += 1
        # The surrogate rounds weight gradients by sample size and use the
        # curvature only for their stop scale, so either engine's works.
        beta, jittered, rounds, ok = surrogate_root_find(
            self.cluster, active, self.curvature()
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
        if self._g is None:
            shard = self.cluster.master_shard
            g = shard.column_curvature()
            dead = np.flatnonzero(g == 0.0)
            if dead.size:
                name = shard.feature_names[dead[0]]
                raise DegenerateColumnError(
                    f"column {dead[0]} ({name!r}) is all zero on machine 0, the master shard",
                    column=name,
                )
            self._g = g
        return self._g

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        return residual_correlation(self.cluster.master_shard, beta)


def _distributed_fit(engine_cls, data: Dataset, machines: int, cfg: SolverConfig,
                     collect_trace: bool, fail_worker, log_messages: bool,
                     warm) -> FitResult:
    if cfg.sparsity > data.p:
        raise ValueError(f"sparsity {cfg.sparsity} exceeds p={data.p}")
    cluster = SimulatedCluster(data, machines, fail_worker=fail_worker,
                               log_messages=log_messages)
    engine = engine_cls(cluster)
    result = _sdar_loop(engine, cfg, collect_trace, warm=warm)
    if not engine.surrogate_ok:
        result.converged = False
    result.ledger = cluster.ledger
    result.messages = cluster.messages
    return result


def cesdar_fit(data: Dataset, machines: int, cfg: SolverConfig,
               collect_trace: bool = False, fail_worker=None,
               log_messages: bool = False, warm=None) -> FitResult:
    """Distributed fit with sample-weighted averaged curvature and duals.

    With machines=1 the output is bitwise identical to the single-machine
    solver: the loop, the detection keys, and the restricted solves all run
    through the same code on the same arrays.
    """
    return _distributed_fit(_ClusterEngine, data, machines, cfg,
                            collect_trace, fail_worker, log_messages, warm)


def ecesdar_fit(data: Dataset, machines: int, cfg: SolverConfig,
                collect_trace: bool = False, fail_worker=None,
                log_messages: bool = False, warm=None) -> FitResult:
    """Low-communication fit: master-shard detection, shared root finding."""
    return _distributed_fit(_MasterOnlyEngine, data, machines, cfg,
                            collect_trace, fail_worker, log_messages, warm)


def write_message_log(path, messages) -> None:
    """Binary log: per message a 1-byte kind tag, a 4-byte little-endian
    payload length, then the payload as 8-byte words (index count, indices
    as unsigned, reals as doubles)."""
    with open(path, "wb") as out:
        for message in messages:
            payload = struct.pack("<Q", message.n_indices)
            payload += np.ascontiguousarray(message.indices, dtype="<u8").tobytes()
            payload += np.ascontiguousarray(message.reals, dtype="<f8").tobytes()
            out.write(struct.pack("<BI", _KIND_TAGS[message.kind], len(payload)))
            out.write(payload)


def read_message_log(path) -> list[WorkerMessage]:
    tags = {tag: kind for kind, tag in _KIND_TAGS.items()}
    messages = []
    reader = _ByteReader(path)
    blob = reader.blob
    while reader.off < len(blob):
        tag, length = struct.unpack_from("<BI", blob, reader.take(5))
        off = reader.take(length)
        (n_idx,) = struct.unpack_from("<Q", blob, off)
        indices = np.frombuffer(blob, dtype="<u8", count=n_idx, offset=off + 8)
        reals_off = off + 8 + 8 * n_idx
        n_reals = (length - 8 - 8 * n_idx) // 8
        reals = np.frombuffer(blob, dtype="<f8", count=n_reals, offset=reals_off)
        messages.append(WorkerMessage(tags[tag], indices.astype(np.int64), reals.copy()))
    return messages
