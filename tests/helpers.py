"""What several test modules share: an orthogonal design, and the replay of
the protocol's rules into the ledger a fit must record."""
import numpy as np

from cesdar.cluster import MASTER_TO_WORKER, WORKER_TO_MASTER
from cesdar.data import stream_rng


def orthogonal_design(n, p, seed=0):
    """n x p with orthogonal columns of squared norm n."""
    q, _ = np.linalg.qr(stream_rng(seed, "data").standard_normal((n, p)))
    return q * np.sqrt(n)


def ledger_rows(result):
    """A fit's ledger as (iteration, kind, direction, n_indices, n_reals,
    worker) rows."""
    return [(e.iteration, e.kind, e.direction, e.n_indices, e.n_reals, e.worker)
            for e in result.ledger.entries]


def expected_ledger(result, machines, p, sparsity, algo):
    """Replay the protocol rules into the rows ``ledger_rows`` must give for
    a CESDAR or ECESDAR (``algo``) fit on ``machines`` at ``sparsity``."""
    rows = []

    def add(iteration, kind, direction, n_idx, n_reals):
        for worker in range(1, machines):
            rows.append((iteration, kind, direction, n_idx, n_reals, worker))

    if algo == "cesdar":
        add(0, "ReportCurvature", WORKER_TO_MASTER, 0, p)
        add(0, "BroadcastActiveSet", MASTER_TO_WORKER, 0, 0)
        add(0, "ReportDual", WORKER_TO_MASTER, 0, p)
    for k, rounds in enumerate(result.inner_rounds, 1):
        # ECESDAR exchanges at its start and once per round, the last an
        # anchor check. CESDAR starts where it knows the gradient and checks
        # a solve on the dual exchange below, so it sends rounds - 1 anchors,
        # and nothing at all for a solve converged at its start.
        for _ in range(rounds - 1 if algo == "cesdar" else rounds + 1):
            add(k, "BroadcastAnchor", MASTER_TO_WORKER, sparsity, sparsity)
            add(k, "ReportGradient", WORKER_TO_MASTER, 0, sparsity)
        if algo == "cesdar" and rounds:
            add(k, "BroadcastActiveSet", MASTER_TO_WORKER, sparsity, sparsity)
            add(k, "ReportDual", WORKER_TO_MASTER, 0, p)
    final = result.beta.support.size
    add(len(result.inner_rounds), "BroadcastFinal", MASTER_TO_WORKER, final, final)
    return rows
