"""Simulated M-machine cluster with exact per-message byte accounting.

Machine 0 is the master and owns the first shard; machines 1..M-1 are
workers that talk to the master only in the six message kinds. A broadcast
is decoded once and moved to each worker in order, which answers it. Every
move is one ledger row and one payload audited by its sizes; a WorkerMessage
is built only when logging. No worker sees another shard, and payloads are
|A|- or p-length aggregates, never row data.

Protocol
--------
Setup (distributed variant only): every worker reports its per-column
curvature (ReportCurvature, p reals) and its raw dual at zero (the empty
BroadcastActiveSet, then ReportDual); the master adds each kind of report to
its own shard's value with sample-size weights n_m/N. Both are per dataset,
so a cluster collects each once and every fit run on it shares them.

Per outer iteration on active set A:

* root finding: the master runs conjugate gradient on the full-sample
  normal equations, preconditioned by the shifted master-shard Gram, until
  the sample-weighted global gradient vanishes on A. Each exchange
  broadcasts a point (BroadcastAnchor, |A| indices + |A| reals) and collects
  local gradients there (ReportGradient, |A| reals), one per conjugate
  gradient step. The distributed variant starts at a point whose
  full-sample gradient the master already holds: the last iterate whose raw
  dual the fit exchanged, if A holds its support, or else zero, whose dual
  is the set-up exchange; the negated raw dual on A is the gradient there.
  A solve already converged at that point exchanges nothing. The
  low-communication variant's duals are the master shard's, so it starts at
  the master's local least squares on A and spends one exchange there.
  Both distributed variants share the steps. A worker keeps
  only its shard's normal equations on the last active set and answers
  anchors from them; these aggregates of its own rows never leave the
  machine. One verification exchange at the final point checks the
  solve: one more anchor for the low-communication variant, the dual
  exchange below for the distributed one, whose active entries are the
  negated full-sample gradient there. Each step's exchange also gives the
  master the full-sample Gram G times the step, and the fit keeps those
  pairs (a ``LearnedGram``). The next root find, in the next outer
  iteration or the next fit of an ACESDAR path, updates the last
  preconditioner by them into a learned Gram and writes its block on the
  coordinates both active sets share over the master's; it falls back to
  the master's alone if that mix is not positive definite. So a set that
  adds a few coordinates to the last one takes a few rounds. The learned
  Gram and the start point are built only from replies already received:
  the master learns nothing new and no message changes.
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
so no fit needs to reset them first, and no fit exchanges an iterate's dual
twice. With M=1 the master holds the dataset itself and no message moves
or surrogate round runs; ESDAR is the low-communication fit on such a
cluster, so both fits at M=1 are ESDAR.

A cluster's options (``fail_worker``, ``log_messages``) are set only where
it is built; a fit runs on the one passed as ``cluster=`` or builds its own.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf

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
    "LearnedGram",
    "KnownDual",
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
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "reals", np.asarray(self.reals, dtype=float))

    def __eq__(self, other):
        return (isinstance(other, WorkerMessage) and self.kind == other.kind
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.reals, other.reals))

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


def _protocol_sizes(kind: str, p: int, active_size: int) -> tuple:
    """The one shape rule: a ``kind`` message's (indices, reals) sizes on p, |A|."""
    size = {"none": 0, "active": active_size if active_size <= p else -1, "p": p}
    return tuple(size[shape] for shape in PROTOCOL_SHAPES[kind])


def _audit_shape(message: WorkerMessage, p: int, active_size: int) -> None:
    """Runtime privacy audit: only aggregate vectors cross machines."""
    if (message.n_indices, message.n_reals) != _protocol_sizes(message.kind, p, active_size):
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
        self.entries.append(tuple.__new__(LedgerEntry, (  # LedgerEntry(...) minus its __new__
            iteration, kind, direction, message_bytes(n_indices, n_reals),
            n_indices, n_reals, worker)))

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

    def unavailable(self) -> WorkerUnavailableError:
        return WorkerUnavailableError(f"worker {self.worker_id} is unavailable (fail-stop)",
                                      worker=self.worker_id)

    def answer(self, kind: str, indices: np.ndarray, reals: np.ndarray, iterate):
        """The reply's reals to a ``kind`` broadcast: the gradient at an anchor, the
        raw dual at ``iterate`` (the decoded BroadcastActiveSet), nothing to BroadcastFinal."""
        if kind == "BroadcastAnchor":
            key = indices.tobytes()  # the index content, not just |A|
            if key != self._normal_key:
                self._normal_key, self._normal = key, normal_equations(self.shard, indices)
            gram, rhs = self._normal
            return gram @ reals - rhs
        if kind == "BroadcastActiveSet":
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

    def _collect(self, kind: str, active_size: int, answer=None) -> list[np.ndarray]:
        """Each worker's ``kind`` reply in order, audited and recorded: ``answer(worker)``,
        or else the answers of the last broadcast, which must have asked for ``kind``."""
        if answer is None:
            if self._pending is None or self._pending[0] != kind:
                raise ValueError(f"no broadcast asked for a {kind} reply")
            answer, self._pending = self._pending[1], None
        want = _protocol_sizes(kind, self.p, active_size)
        replies = []
        for worker in self.workers:
            if worker.failed:  # a down worker is asked nothing
                raise worker.unavailable()
            reals = np.asarray(answer(worker), dtype=float)
            if (0, reals.size) != want:  # raises the audit's off-protocol error
                _audit_shape(WorkerMessage(kind, _NO_INDICES, reals), self.p, active_size)
            self.ledger.record(self.iteration, kind, WORKER_TO_MASTER, 0, reals.size,
                               worker.worker_id)
            if self.messages is not None:
                self.messages.append(WorkerMessage(kind, _NO_INDICES, reals))
            replies.append(reals)
        return replies

    def combine(self, master_share: np.ndarray, replies) -> np.ndarray:
        """n_0/N * master_share + sum_m n_m/N * reply_m, added in place in
        machine order: the full-sample value of a per-machine mean."""
        total = self.weights[0] * master_share
        for weight, share in zip(self.weights[1:], replies):
            total += weight * share
        return total

    def broadcast(self, kind: str, indices: np.ndarray, reals: np.ndarray) -> None:
        """Audit and decode one message, move it to every worker in order and
        keep their answers for the collect of its reply kind."""
        if kind not in _REPLY_KINDS:
            raise ValueError(f"{kind} is not a broadcast kind")
        indices, reals = np.asarray(indices, dtype=np.int64), np.asarray(reals, dtype=float)
        if (indices.size, reals.size) != _protocol_sizes(kind, self.p, indices.size):
            _audit_shape(WorkerMessage(kind, indices, reals), self.p, indices.size)
        iterate = (SparseCoefficients(self.p, indices, reals)
                   if kind == "BroadcastActiveSet" else None)
        message = None if self.messages is None else WorkerMessage(kind, indices, reals)
        answers = {}
        for worker in self.workers:
            if worker.failed:  # a down worker is asked nothing
                raise worker.unavailable()
            self.ledger.record(self.iteration, kind, MASTER_TO_WORKER, indices.size, reals.size,
                               worker.worker_id)
            if message is not None:
                self.messages.append(message)
            answers[worker] = worker.answer(kind, indices, reals, iterate)
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


class LearnedGram(NamedTuple):
    """What one surrogate root find learned of the full-sample Gram G on its
    ``active`` set: the ``preconditioner`` its steps used, and per step the
    direction v (``steps``) and G v (``replies``), the change in the exchanged
    gradient along v. Every pair comes from ReportGradient replies the
    master received anyway. A fit owns it, not the cluster: the engine keeps
    it across outer iterations, ``FitResult.learned`` exposes it, and a fit
    warm-started from that one carries it on."""

    active: np.ndarray
    preconditioner: np.ndarray
    steps: list
    replies: list

    def gram(self) -> np.ndarray:
        """The learned Gram: the preconditioner after one BFGS update over the
        pairs, taken in order. It maps the last step to its reply, and every
        step to its reply while the steps stay G-conjugate; late steps of a
        long solve drift from conjugacy and difference nearly equal
        gradients, so there it maps them only approximately."""
        learned = self.preconditioner
        for step, reply in zip(self.steps, self.replies):
            image = learned @ step
            learned = (learned - np.outer(image, image) / float(step @ image)
                       + np.outer(reply, reply) / float(step @ reply))
        return learned


class KnownDual(NamedTuple):
    """The last iterate whose raw dual X'(y - X beta)/N a fit exchanged on
    the dataset ``data`` refers to, and that dual. On any active set that
    holds the iterate's support, the negated dual is the full-sample
    gradient there, so a root find may start at the iterate without an
    exchange. A fit owns it like its ``LearnedGram``, and a fit
    warm-started from that one on the same dataset carries it on. ``data``
    is a weak reference, so a kept fit does not keep its dataset alive."""

    data: weakref.ref
    iterate: SparseCoefficients
    raw: np.ndarray


def _preconditioner(shifted: np.ndarray, active: np.ndarray, learned) -> np.ndarray:
    """``shifted`` = H1 + mu I with the learned Gram's block on the coordinates
    ``active`` shares with the last root find written over it; ``shifted``
    itself if they share none or the result is not positive definite."""
    if learned is None:
        return shifted
    _, here, there = np.intersect1d(active, learned.active, assume_unique=True,
                                    return_indices=True)
    if here.size == 0:
        return shifted
    mixed = shifted.copy()
    mixed[np.ix_(here, here)] = learned.gram()[np.ix_(there, there)]
    if not np.isfinite(mixed).all() or dpotrf(mixed, lower=1)[1]:
        return shifted
    return mixed


def surrogate_root_find(cluster: SimulatedCluster, active: np.ndarray,
                        curvature: np.ndarray, check=None, learned=None, start=None):
    """Global least squares on ``active`` by preconditioned conjugate gradient.

    The system is the full-sample normal equations G b = c on ``active``.
    An exchange broadcasts a point and averages the per-machine gradients
    with sample-size weights: the exact full-sample gradient there. The
    solve starts at ``start``, a (point, gradient) pair on ``active`` whose
    gradient the caller already holds and that counts as checked, so it
    exchanges nothing there; without one it starts at the master shard's
    local least squares (its Gram H1, unshifted) and exchanges there once.
    Each step solves z = P^-1 r for the
    current gradient r, then exchanges at x + p, which gives
    G p = grad(x + p) - r; in exact arithmetic at most |A| steps are
    needed. The preconditioner P is H1 + mu I, shifted as in DiSCO with
    mu = SURROGATE_SHIFT * tr(H1)/|A|. Given ``learned``, the
    ``LearnedGram`` of the fit's last root find, P takes its learned Gram's
    block on the coordinates ``active`` shares with that solve, and
    H1 + mu I elsewhere; it keeps that mix only if a Cholesky factorization
    of it succeeds, and is H1 + mu I otherwise. With the learned block
    equal to G, P differs from G only in the rows and columns of the |N|
    new coordinates, so at most 2|N| + 1 steps are needed in exact
    arithmetic. The recurrence gradient drifts, so once it passes the stop
    test one more exchange, ``check(x)``, returns the true gradient at x (a
    failed check restarts from x with it). The default check is one more
    anchor exchange; a caller may pass another exchange that yields the
    same gradient. The master's least squares is solved with ``start``
    too, and every round follows one solve, the unused one before a check
    too, so ``rounds`` = solves - 1. Each round makes one exchange, plus one
    anchor at the start without ``start``. So the anchor exchanges number
    rounds + 1 with the default check and no ``start``; with a start and a
    check of another kind that passes at once they number rounds - 1, and
    none if the solve converged at its start (0 rounds).

    A master-shard Gram singular on ``active`` is jittered by ``spd_solve``
    for the master's least squares, and the shifted Gram still
    preconditions G, so the solve converges to the full-sample least
    squares, flagged ``jittered`` (so is the fit); only that start solve
    sets the flag. With no remote worker (M=1) it returns the master's least
    squares after 0 rounds.

    Returns (coefficients, jittered, rounds, converged, learned): the last
    is this solve's ``LearnedGram`` for the next one, None at M=1 or on an
    empty ``active``.
    """
    active = np.asarray(active, dtype=np.int64)
    p = cluster.p
    if active.size == 0:
        return SparseCoefficients.zeros(p), False, 0, True, None
    gram, rhs = normal_equations(cluster.master_shard, active)
    point, jittered = spd_solve(gram, rhs, active_set=active)
    if not cluster.workers:
        return SparseCoefficients(p, active, point), jittered, 0, True, None

    def gradient(at: np.ndarray) -> np.ndarray:
        """One exchange: the full-sample gradient on ``active`` at ``at``."""
        master = gram @ at - rhs
        cluster.broadcast("BroadcastAnchor", active, at)
        return cluster.combine(master, cluster.collect_gradients(active))

    check = gradient if check is None else check
    shifted = gram + SURROGATE_SHIFT * np.trace(gram) / active.size * np.eye(active.size)
    preconditioner = _preconditioner(shifted, active, learned)
    steps, replies = [], []
    g_active = curvature[active]
    point, residual = (point, gradient(point)) if start is None else start
    verified, direction = True, None
    rounds = 0
    while True:
        # Scaled by the current point: a barely regular H1 can throw the
        # start point far off, and a tolerance scaled by it stops too early.
        tol = SURROGATE_TOL * max(1.0, float(np.abs(point).max()))
        small = float(np.abs(residual / g_active).max()) <= tol
        converged = small and verified
        if converged or rounds >= SURROGATE_MAX_ROUNDS:
            break
        step = spd_solve(preconditioner, residual, active_set=active)[0]
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
        steps.append(direction)
        replies.append(g_direction)
        point = point + rz / curv * direction
        residual = residual + rz / curv * g_direction
        rz_prev, verified = rz, False
    return (SparseCoefficients(p, active, point), jittered, rounds, converged,
            LearnedGram(active, preconditioner, steps, replies))


class _ClusterEngine:
    """Averaged-(g, d) engine: the communication-efficient distributed run.

    Its root find checks the surrogate solve on the dual exchange the loop
    needs next anyway: the raw dual at the final point, negated on the
    active set, is the full-sample gradient there. The fit keeps the last
    exchanged dual (``known``, a ``KnownDual``): it answers the loop's
    ``raw_dual`` call at that same iterate, and the next root find starts
    at that iterate when its active set holds the iterate's support.
    """

    def __init__(self, cluster: SimulatedCluster, warm=None):
        self.cluster = cluster
        self.p = cluster.p
        self.surrogate_ok = True
        # The last root find's LearnedGram, and the last exchanged dual.
        self.learned = None if warm is None else warm.learned
        known = None if warm is None else warm.known_dual
        # A carried dual is this fit's only if it is this data's full-sample
        # dual; at M=1 no surrogate round runs, so nothing needs it.
        self.known = (known if cluster.workers and known is not None
                      and known.data() is cluster.data else None)

    def curvature(self) -> np.ndarray:
        return self.cluster.curvature()

    def raw_dual(self, beta: SparseCoefficients) -> np.ndarray:
        if self.known is not None and self.known.iterate == beta:
            return self.known.raw
        return self._exchange(beta)

    def _exchange(self, beta: SparseCoefficients) -> np.ndarray:
        raw = self.cluster.raw_dual(beta)
        if beta.support.size:  # the cluster keeps the zero point's dual itself
            self.known = KnownDual(weakref.ref(self.cluster.data), beta, raw)
        return raw

    def check(self, active: np.ndarray):
        """The surrogate solve's verification exchange on ``active``."""
        def dual_check(point: np.ndarray) -> np.ndarray:
            return -self._exchange(SparseCoefficients(self.p, active, point))[active]
        return dual_check

    def start(self, active: np.ndarray):
        """The root find's start on ``active`` and the full-sample gradient
        there: the known iterate if ``active`` holds its support, else zero.
        The known dual is re-keyed to that point on ``active``, so a solve
        converged at its start exchanges nothing more. None at M=1."""
        if not self.cluster.workers:
            return None
        known = self.known
        iterate = None if known is None else known.iterate.canonical()
        if iterate is None or not np.isin(iterate.support, active).all():
            iterate = SparseCoefficients.zeros(self.p)
            known = KnownDual(weakref.ref(self.cluster.data), iterate,
                              self.cluster.raw_dual(iterate))
        point = np.zeros(active.size)
        point[np.searchsorted(active, iterate.support)] = iterate.values
        self.known = known._replace(iterate=SparseCoefficients(self.p, active, point))
        return point, -known.raw[active]

    def root_find(self, active: np.ndarray):
        self.cluster.iteration += 1
        # The surrogate rounds weight gradients by sample size and use the
        # curvature only for their stop scale, so either engine's works.
        beta, jittered, rounds, ok, self.learned = surrogate_root_find(
            self.cluster, active, self.curvature(), self.check(active), self.learned,
            self.start(active)
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

    # Its duals are the master's, not full-sample gradients: its root finds
    # start at the master's least squares, and one more anchor checks them.
    def check(self, active: np.ndarray):
        return None

    def start(self, active: np.ndarray):
        return None


def _distributed_fit(engine_cls, data: Dataset, machines: int, cfg: SolverConfig,
                     warm=None, cluster=None) -> FitResult:
    """The shared loop on ``cluster`` (or a fresh one), with the fit's own
    ledger, iteration count, message list, learned Gram and known dual."""
    if cfg.sparsity > data.p:
        raise ValueError(f"sparsity {cfg.sparsity} exceeds p={data.p}")
    if cluster is None:
        cluster = SimulatedCluster(data, machines)
    elif cluster.data is not data or cluster.machines != machines:
        raise ValueError("cluster= was built on another dataset or machine count")
    cluster.ledger, cluster.iteration = CommLedger(), 0
    cluster.messages = None if cluster.messages is None else []
    engine = engine_cls(cluster, warm)
    result = _sdar_loop(engine, cfg, warm=warm)
    if not engine.surrogate_ok:
        result.converged = False
    result.learned, result.known_dual = engine.learned, engine.known
    result.ledger = cluster.ledger
    result.messages = cluster.messages
    return result


def cesdar_fit(data: Dataset, machines: int, cfg: SolverConfig, warm=None,
               cluster=None) -> FitResult:
    """Distributed fit with sample-weighted averaged curvature and duals.

    With machines=1 the output is bitwise identical to ESDAR: the combined
    curvature and duals are the master's, which holds every row, and the
    restricted solves are the same least squares with no surrogate round.

    ``warm`` is an earlier fit on this data (a ``FitResult``) or None. Its
    ``beta`` and ``d`` seed the first detection, and the first root find
    starts from its ``learned`` Gram instead of the master's alone, and at
    its ``known_dual`` iterate if the active set holds that support.
    ``cluster`` runs the fit on a ``SimulatedCluster`` built on
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
