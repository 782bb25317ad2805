"""Simulated M-machine cluster with exact per-message byte accounting.

Machine 0 is the master and owns the first shard; machines 1..M-1 are
workers that communicate with the master only through WorkerMessage values,
each moved by one cluster method in either direction. No worker ever sees
another shard, and no message ever carries row data: payloads are |A|-length
or p-length aggregate vectors (audited on every transfer, recorded in the
ledger).

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
  preconditioned by the master-shard Gram, until the sample-weighted
  global gradient vanishes on A. Each exchange broadcasts a point
  (BroadcastAnchor, |A| indices + |A| reals) and collects local gradients
  there (ReportGradient, |A| reals): one at the start, one per conjugate
  gradient step, plus one verification exchange at the final point. Both
  distributed variants share this step. Beside its coefficients, a worker
  keeps its shard's normal equations on the last active set and answers
  anchors from them; these aggregates of its own rows never leave the
  machine.
* distributed variant only: the new coefficients go out
  (BroadcastActiveSet, |A| indices + |A| reals) and every worker reports
  its raw dual direction X_m'(y_m - X_m b)/n_m (ReportDual, p reals); the
  master weight-averages the reports, divides by the combined curvature,
  and zeroes the active coordinates. The low-communication variant skips
  both messages and uses master-shard curvature and duals instead.

One final BroadcastFinal (|A| indices + |A| reals) ships the estimate.
Every dual request carries its iterate, so no fit needs to reset the
workers' coefficients first. With M=1 there are no messages at all and
the run is bitwise identical to the single-machine solver.

A cluster's options (``fail_worker``, ``log_messages``) are set only where
it is built; a fit runs on the one passed as ``cluster=`` or builds its own.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import SolverConfig
from .data import Dataset, _FileReader
from .exceptions import DegenerateColumnError, IngestError, WorkerUnavailableError
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
# dual-scale residual (relative to the current point's largest entry) and a round cap.
SURROGATE_TOL = 1e-12
SURROGATE_MAX_ROUNDS = 200


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


def _check_machines(rows: int, machines: int) -> None:
    if machines < 1:
        raise ValueError(f"machines must be >= 1, got {machines}")
    if machines > rows:
        raise ValueError(f"machines={machines} exceeds the number of rows {rows}")


def partition(data: Dataset, machines: int):
    """Split rows into M contiguous blocks in order.

    The first M-1 machines receive floor(N/M) rows each; the last machine
    absorbs the remainder. M=1 places the full dataset on the master.
    """
    _check_machines(data.n, machines)
    base = data.n // machines
    assignments = tuple((m * base, base if m < machines - 1 else data.n - m * base)
                        for m in range(machines))
    shards = [data.row_slice(s, s + c) for s, c in assignments]
    return Partition(machines, assignments), shards


class _RemoteWorker:
    """One simulated worker: owns a shard, reacts to inbound messages.

    State is the shard, the current coefficient vector (initialized to zero
    on both sides of the protocol), the reply to the last message, held until
    the master collects it, and the shard's normal equations on the last
    anchored active set: aggregates of its own rows that never leave the
    machine and answer each anchor on that set with one |A|x|A| product.
    """

    def __init__(self, worker_id: int, shard: Dataset):
        self.worker_id = worker_id
        self.shard = shard
        self.failed = False
        self._reply = None
        self._beta = SparseCoefficients.zeros(shard.p)
        self._normal_key = self._normal = None

    def handle(self, message: WorkerMessage) -> None:
        if message.kind == "BroadcastAnchor":
            key = message.indices.tobytes()  # the index content, not just |A|
            if key != self._normal_key:
                self._normal_key, self._normal = key, normal_equations(self.shard, message.indices)
            gram, rhs = self._normal
            grad = gram @ message.reals - rhs
            self._reply = WorkerMessage("ReportGradient", np.empty(0, np.int64), grad)
        elif message.kind in ("BroadcastActiveSet", "BroadcastFinal"):
            self._beta = SparseCoefficients(self.shard.p, message.indices, message.reals)
            if message.kind == "BroadcastActiveSet":
                raw = residual_correlation(self.shard, self._beta)
                self._reply = WorkerMessage("ReportDual", np.empty(0, np.int64), raw)
        else:
            raise ValueError(f"worker received unexpected kind {message.kind!r}")

    def reply(self, kind: str) -> WorkerMessage:
        """The pending reply, which must be of ``kind``; ReportCurvature
        answers no request and is computed when the master collects it."""
        if kind == "ReportCurvature":
            return WorkerMessage(kind, np.empty(0, np.int64), self.shard.column_curvature())
        message, self._reply = self._reply, None
        if message is None or message.kind != kind:
            raise ValueError(f"worker {self.worker_id} holds no {kind} reply")
        return message


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
        self._curvature = self._zero_dual = None

    @property
    def machines(self) -> int:
        return self.partition.machines

    @property
    def p(self) -> int:
        return self.data.p

    def _transfer(self, worker: _RemoteWorker, kind: str, active_size: int,
                  message: WorkerMessage | None = None) -> WorkerMessage:
        """Move ``message`` to ``worker``, or else the worker's pending ``kind``
        reply to the master: fail-stop check, audit, ledger row, log entry."""
        if worker.failed:
            raise WorkerUnavailableError(f"worker {worker.worker_id} is unavailable (fail-stop)",
                                         worker=worker.worker_id)
        sent = message is not None
        message = message if sent else worker.reply(kind)
        _audit_shape(message, self.p, active_size)
        self.ledger.record(self.iteration, kind, MASTER_TO_WORKER if sent else WORKER_TO_MASTER,
                           message.n_indices, message.n_reals, worker.worker_id)
        if self.messages is not None:
            self.messages.append(message)
        if sent:
            worker.handle(message)
        return message

    def combine(self, master_share: np.ndarray, replies) -> np.ndarray:
        """n_0/N * master_share + sum_m n_m/N * reply_m, added in machine
        order: the full-sample value of a per-machine mean."""
        for m, share in enumerate((master_share, *replies)):
            term = self.weights[m] * share
            total = term if m == 0 else total + term
        return total

    def broadcast(self, kind: str, indices: np.ndarray, reals: np.ndarray) -> None:
        message = WorkerMessage(kind, indices, reals)
        for worker in self.workers:
            self._transfer(worker, kind, indices.size, message)

    def collect_gradients(self, active: np.ndarray) -> list[np.ndarray]:
        """ReportGradient payloads in worker-index order."""
        return [self._transfer(w, "ReportGradient", active.size).reals for w in self.workers]

    def collect_duals(self) -> list[np.ndarray]:
        return [self._transfer(w, "ReportDual", 0).reals for w in self.workers]

    def collect_curvature(self) -> np.ndarray:
        """Sample-weighted combination of all machine curvatures."""
        return self.combine(self.master_shard.column_curvature(),
                            [self._transfer(w, "ReportCurvature", 0).reals for w in self.workers])

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
                        curvature: np.ndarray):
    """Global least squares on ``active`` by preconditioned conjugate gradient.

    The system is the full-sample normal equations G b = c on ``active``,
    preconditioned by the master-shard Gram H1 (as in DiSCO), from the
    master shard's local least squares. An exchange broadcasts a point and
    averages the per-machine gradients with sample-size weights: the exact
    full-sample gradient there. Round 0 exchanges at the start point. Each
    step solves z = H1^-1 r for the current gradient r, then exchanges at
    x + p, which gives G p = grad(x + p) - r; in exact arithmetic at most
    |A| steps are needed. The recurrence gradient drifts, so once it passes
    the stop test one more exchange checks the true gradient at x (a failed
    check restarts from x with it). Every exchange follows one H1 solve,
    the unused one before that check too, so ``rounds`` = solves - 1 =
    exchanges - 1.

    A master-shard Gram singular on ``active`` is jittered by ``spd_solve``
    and still preconditions G, so the solve converges to the full-sample
    least squares, flagged ``jittered`` (so is the fit).

    Returns (coefficients, jittered, rounds, converged).
    """
    active = np.asarray(active, dtype=np.int64)
    p = cluster.p
    if active.size == 0:
        return SparseCoefficients.zeros(p), False, 0, True
    gram, rhs = normal_equations(cluster.master_shard, active)
    point, jittered = spd_solve(gram, rhs, active_set=active)

    def gradient(at: np.ndarray) -> np.ndarray:
        """One exchange: the full-sample gradient on ``active`` at ``at``."""
        master = gram @ at - rhs
        cluster.broadcast("BroadcastAnchor", active, at)
        return cluster.combine(master, cluster.collect_gradients(active))

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
        step, step_jittered = spd_solve(gram, residual, active_set=active)
        jittered = jittered or step_jittered
        rounds += 1
        if small:  # check the recurrence against the true gradient
            residual, verified, direction = gradient(point), True, None
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
    """Averaged-(g, d) engine: the communication-efficient distributed run."""

    def __init__(self, cluster: SimulatedCluster):
        self.cluster = cluster
        self.p = cluster.p
        self.surrogate_ok = True

    def curvature(self) -> np.ndarray:
        return self.cluster.curvature()

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        return self.cluster.raw_dual(beta)

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
        shard = self.cluster.master_shard
        g = shard.column_curvature()
        dead = np.flatnonzero(g == 0.0)
        if dead.size:
            name = shard.feature_names[dead[0]]
            raise DegenerateColumnError(f"column {dead[0]} ({name!r}) is all zero on machine 0, "
                                        "the master shard", column=name)
        return g

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        return residual_correlation(self.cluster.master_shard, beta)


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

    With machines=1 the output is bitwise identical to the single-machine
    solver: the loop, the detection keys, and the restricted solves all run
    through the same code on the same arrays.

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


def write_message_log(path, messages) -> None:
    """Binary log: per message a 1-byte kind tag, a 4-byte little-endian
    payload length, then the payload as 8-byte words (index count, indices
    as unsigned, reals as doubles). An end record closes it: tag 0, which
    no kind uses, and an 8-byte payload holding the message count."""
    with open(path, "wb") as out:
        for message in messages:
            payload = struct.pack("<Q", message.n_indices)
            payload += np.ascontiguousarray(message.indices, dtype="<u8").tobytes()
            payload += np.ascontiguousarray(message.reals, dtype="<f8").tobytes()
            out.write(struct.pack("<BI", _KIND_TAGS[message.kind], len(payload)))
            out.write(payload)
        out.write(struct.pack("<BIQ", 0, 8, len(messages)))


def read_message_log(path) -> list[WorkerMessage]:
    """Inverse of write_message_log; IngestError on a truncated or corrupt
    record, a missing or miscounting end record, or bytes after it. Each
    record is read only once its length fits in what is left of the file."""
    tags = {tag: kind for kind, tag in _KIND_TAGS.items()}
    messages = []
    with open(path, "rb") as handle:
        reader = _FileReader(path, handle)
        while reader.off < reader.size:
            start = reader.off
            tag, length = struct.unpack("<BI", reader.read(5))
            payload = reader.read(length)
            n_idx = struct.unpack_from("<Q", payload)[0] if length >= 8 else 0
            n_reals = (length - 8) // 8 - n_idx
            if tag == 0 and length == 8:  # the end record
                if n_idx != len(messages) or reader.off < reader.size:
                    raise IngestError(f"{path}: end record at byte {start} counts {n_idx} "
                                      f"messages of {len(messages)}, then "
                                      f"{reader.size - reader.off} bytes follow")
                return messages
            problem = _record_problem(tags.get(tag), tag, length, n_idx, n_reals)
            if problem:
                raise IngestError(f"{path}: record {len(messages)} at byte {start}: {problem}")
            words = payload[8:].view("<u8")  # 8-aligned: the count, then whole words
            messages.append(WorkerMessage(tags[tag], words[:n_idx].astype(np.int64),
                                          words[n_idx:].view("<f8")))
    raise IngestError(f"{path}: the log ends after {len(messages)} messages, without an end record")


def _record_problem(kind, tag: int, length: int, n_idx: int, n_reals: int) -> str | None:
    """Why a log record's header cannot be a protocol message, or None."""
    if kind is None:
        return f"unknown kind tag {tag}"
    if length < 8 or length % 8 or n_reals < 0:
        return f"a {length}-byte payload cannot hold a count and {n_idx} indices"
    idx_shape, real_shape = PROTOCOL_SHAPES[kind]
    if ((idx_shape == "none" and n_idx) or (real_shape == "none" and n_reals)
            or (idx_shape == real_shape == "active" and n_idx != n_reals)):
        return f"{kind} with {n_idx} indices and {n_reals} reals is off protocol"
    return None
