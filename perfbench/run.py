"""End-to-end benchmark of the cesdar solvers on three fixed-shape workloads.

Run from the repository root:

    python3 perfbench/run.py --workload tall_fit --seed 1 --seconds 60 --trace 0

One run times one workload for about ``--seconds`` seconds of wall clock,
in passes over the workload's fixed set of tasks. Each task generates a
fresh dataset from the workload seed, writes it to the CSDR1 cache and
reads it back (the ``cesdar gen`` -> ``cesdar fit --data`` path, timed as
set-up), then runs the workload's solver calls on the loaded dataset (timed
as the task) and checks every fit (untimed). The last line of standard
output is one JSON object with the run's verdict and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``perfbench/README.md`` explains the workloads and metrics.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported. The solvers' matrices
# are small enough that more threads gain little on a 2-core host, and a
# fixed count keeps reduction order, and so every count, reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Tasks beyond the tail percentile; see tail_rank.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """One fixed-shape workload; the seed is a run argument.

    ``tasks`` is the number of datasets a pass covers. It is fixed, so that
    the traffic, accuracy and convergence counts repeat exactly for a seed
    however many passes the time budget allows.
    """

    name: str
    n: int
    p: int
    s: int
    machines: int
    tasks: int
    why: str
    sparsity: int = 0  # T of the three-solver fit workloads
    step: int = 0      # ACESDAR path step of the path workload


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="tall_fit", n=20000, p=100, s=10, machines=8, sparsity=10,
            tasks=80,
            why="example-1 desk scale: 2500-row shards and few surrogate rounds, "
                "so worker gradient rounds dominate and messages and detection are cheap",
        ),
        Workload(
            name="wide_fit", n=1000, p=2000, s=10, machines=8, sparsity=10,
            tasks=30,
            why="example-2 desk scale: 125-row shards weaken the master-Gram "
                "preconditioner, so hundreds of rounds load messages, ledger and Cholesky",
        ),
        Workload(
            name="acesdar_path", n=2000, p=4000, s=10, machines=4, step=2,
            tasks=10,
            why="criterion-8 shape: one ACESDAR sweep of 16 points and 31 fits, "
                "the only workload that rebuilds a cluster and its curvature per fit",
        ),
    )
}


def tail_rank(count: int, beyond: int = TAIL_BEYOND) -> int:
    """1-based nearest rank of the tail percentile among ``count`` sorted tasks.

    The tail is the highest percentile with at least ``beyond`` tasks above
    it, that is rank ``count - beyond``. A tail never sits below the median:
    with at most ``2 * beyond`` tasks the rule falls back to the upper
    median, rank ``count // 2 + 1``, which then has fewer than ``beyond``
    tasks above it.
    """
    if count < 1:
        raise ValueError("the tail needs at least one task")
    return max(count - beyond, count // 2 + 1)


@dataclass
class TaskOutcome:
    """One timed task: its cost, its counts, and the first check failure."""

    index: int
    seed: int
    setup_s: float = math.nan
    task_s: float = math.nan
    scored: int = 0       # fits scored against the truth
    oracle: int = 0
    checked: int = 0      # fits whose output was checked
    unconverged: int = 0
    bytes: int = 0
    rounds: int = 0
    error: str = ""

    def counts(self) -> tuple:
        return (self.scored, self.oracle, self.checked, self.unconverged, self.bytes,
                self.rounds)


@dataclass
class RunResult:
    """Every pass of one run; ``passes[k][i]`` is task ``i`` in pass ``k``."""

    workload: Workload
    seed: int
    passes: list = field(default_factory=list)

    @property
    def outcomes(self) -> list:
        return [o for outcomes in self.passes for o in outcomes]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error)

    @property
    def first_error(self) -> str:
        return next((f"task {o.index} (data seed {o.seed}): {o.error}"
                     for o in self.outcomes if o.error), "")


class CheckError(Exception):
    """A fit's output failed the benchmark's output check."""


def task_seed(seed: int, index: int) -> int:
    """Data seed of task ``index``; distinct for every (seed, index) pair."""
    return 1_000_000 * seed + index


def import_library():
    """Import the cesdar modules from the checkout's ``src`` directory."""
    if not (SRC_DIR / "cesdar" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cesdar sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import cesdar.cluster
    import cesdar.config
    import cesdar.data
    import cesdar.metrics
    import cesdar.sdar
    import cesdar.tuning
    return cesdar


def environment() -> dict:
    """Versions, cores and BLAS threads the numbers were measured with."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it has no query."""
    import ctypes
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def prepare(lib, workload: Workload, seed: int, cache_path: Path):
    """Generate the task's dataset, round-trip it through the cache."""
    spec = lib.data.SyntheticSpec(n=workload.n, p=workload.p, s=workload.s, seed=seed)
    data, truth = lib.data.generate(spec)
    lib.data.save_cache(cache_path, data)
    return lib.data.load_cache(cache_path), truth


def solve(lib, workload: Workload, data):
    """The timed solver calls of one task.

    Returns ``[(solver, sparsity, fit)]`` for every fit whose output is
    checked, and the fits scored against the truth. Solvers are looked up
    on their modules at call time, so a traced run sees the same calls
    through its wrappers.
    """
    if workload.step:
        best, path = lib.tuning.acesdar_fit(
            data, lib.config.TuningConfig(step=workload.step, machines=workload.machines))
        return [("acesdar", point.sparsity, point.fit) for point in path], [best.fit]
    cfg = lib.config.SolverConfig(sparsity=workload.sparsity)
    fits = [
        ("esdar", lib.sdar.esdar_fit(data, cfg)),
        ("cesdar", lib.cluster.cesdar_fit(data, workload.machines, cfg)),
        ("ecesdar", lib.cluster.ecesdar_fit(data, workload.machines, cfg)),
    ]
    return [(solver, workload.sparsity, fit) for solver, fit in fits], [fit for _, fit in fits]


def exchanges(ledger, machines: int) -> int:
    """Master-worker exchanges: every broadcast plus every curvature collection."""
    workers = machines - 1
    sent = sum(1 for e in ledger.entries if e.direction == "master_to_worker")
    curvature = sum(1 for e in ledger.entries if e.kind == "ReportCurvature")
    if sent % workers or curvature % workers:
        raise CheckError(f"ledger holds {sent} sends and {curvature} curvature reports, "
                         f"not whole rounds over {workers} workers")
    return (sent + curvature) // workers


def check_fit(lib, data, solver: str, sparsity: int, fit) -> None:
    """Raise CheckError unless ``fit`` is a valid output of its solver."""
    beta = fit.beta
    if not np.all(np.isfinite(beta.values)):
        raise CheckError("non-finite coefficients")
    if beta.support.size > sparsity:
        raise CheckError(f"support of {beta.support.size} exceeds T={sparsity}")
    if fit.converged:
        local, _ = lib.sdar.root_find_local(data, beta.support)
        gap = float(np.abs(beta.dense() - local.dense()).max()) if beta.support.size else 0.0
        if not gap <= lib.metrics.ORACLE_TOL:
            raise CheckError(f"converged fit is {gap:.3g} from least squares on its support")
    if solver == "esdar":
        if fit.ledger is not None:
            raise CheckError("single-machine fit kept a communication ledger")
        return
    for entry in fit.ledger.entries:
        words = entry.n_indices + entry.n_reals
        if entry.byte_size != 16 + 8 * words or words > 2 * data.p:
            raise CheckError(f"{entry.kind} entry of {entry.byte_size} bytes "
                             f"for {words} words breaks the 16 + 8k, k <= 2p rule")


def run_task(lib, workload: Workload, index: int, seed: int, cache_path: Path,
             recorder=None) -> TaskOutcome:
    """Set up, solve and check one task; errors are recorded, not raised."""
    outcome = TaskOutcome(index=index, seed=seed)
    phase = recorder.span if recorder is not None else lambda _name: contextlib.nullcontext()
    try:
        with phase("bench.setup") as span:
            start = time.perf_counter()
            data, truth = prepare(lib, workload, seed, cache_path)
            outcome.setup_s = time.perf_counter() - start
        if recorder is not None:
            recorder.notes[span] = cache_path.stat().st_size
        with phase("bench.solve"):
            start = time.perf_counter()
            checked, scored = solve(lib, workload, data)
            outcome.task_s = time.perf_counter() - start
        with phase("bench.check"):
            for solver, sparsity, fit in checked:
                check_fit(lib, data, solver, sparsity, fit)
                outcome.checked += 1
                outcome.unconverged += not fit.converged
                if fit.ledger is not None:
                    outcome.bytes += fit.ledger.total_bytes()
                    outcome.rounds += exchanges(fit.ledger, workload.machines)
            outcome.scored = len(scored)
            outcome.oracle = sum(lib.metrics.oracle_indicator(data, fit.beta, truth.support)
                                 for fit in scored)
    except Exception as exc:  # noqa: BLE001 - a failed task is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        cache_path.unlink(missing_ok=True)
    return outcome


def measure(lib, workload: Workload, seed: int, seconds: float, cache_path: Path,
            passes: int | None = None, tasks: int | None = None,
            recorder=None) -> RunResult:
    """Run passes over tasks 0 .. ``tasks``-1 (default: the workload's).

    Without ``passes``, passes repeat while another one, as long as the last,
    still ends within ``seconds``; the first pass always runs. Every pass
    must reproduce the first pass's counts exactly.
    """
    tasks = workload.tasks if tasks is None else tasks
    result = RunResult(workload, seed)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        outcomes = []
        for index in range(tasks):
            if recorder is not None:
                recorder.task_id = index
            outcome = run_task(lib, workload, index, task_seed(seed, index), cache_path,
                               recorder)
            if result.passes and not outcome.error:
                first = result.passes[0][index]
                if not first.error and outcome.counts() != first.counts():
                    outcome.error = f"counts {outcome.counts()} differ from the first pass"
            outcomes.append(outcome)
        result.passes.append(outcomes)
        now = time.perf_counter()
        if passes is not None:
            if len(result.passes) == passes:
                return result
        elif now + (now - pass_start) > start + seconds:
            return result


def end_to_end(result: RunResult) -> dict:
    """The ten end-to-end metrics: name -> (value, unit, note).

    A task's time is its best over the run's passes. Passes lie seconds
    apart, so the best of them filters out the stretches in which other
    tenants of a shared host slow every task down. Counts come from the
    first pass.
    """
    best_task, best_setup = [], []
    for index in range(len(result.passes[0])):
        runs = [p[index] for p in result.passes if not p[index].error]
        if runs:
            best_task.append(min(o.task_s for o in runs))
            best_setup.append(min(o.setup_s for o in runs))
    if not best_task:
        raise RuntimeError(f"every task failed; first: {result.first_error}")
    times = sorted(best_task)
    rank = tail_rank(len(times))
    first = result.passes[0]
    scored = sum(o.scored for o in first)
    checked = sum(o.checked for o in first)
    attempted = len(result.outcomes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best_of = f"best of {len(result.passes)} passes"
    return {
        "setup_s": (statistics.median(best_setup), "s", f"{len(times)} tasks, {best_of}"),
        "task_s_p50": (statistics.median(times), "s", f"{len(times)} tasks, {best_of}"),
        "task_s_tail": (times[rank - 1], "s",
                        f"p{100 * rank / len(times):.1f} of {len(times)} tasks, "
                        f"{len(times) - rank} beyond"),
        "tasks_per_s": (len(times) / sum(times), "1/s", best_of),
        "bytes_per_task": (sum(o.bytes for o in first) / len(first), "B",
                           f"{len(first)} tasks"),
        "rounds_per_task": (sum(o.rounds for o in first) / len(first), "count",
                            f"{len(first)} tasks"),
        "oracle_rate": (sum(o.oracle for o in first) / scored, "share", f"{scored} fits"),
        "unconverged_rate": (sum(o.unconverged for o in first) / checked, "share",
                             f"{checked} fits"),
        "fail_rate": (result.failed / attempted, "share", f"{attempted} task runs"),
        "peak_rss_mb": (rss_kib / 1024, "MB", ""),
    }


def declared_metrics(kind: str) -> list[str]:
    """Metric names BENCHMARK.json declares under ``kind``."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


def report(workload: Workload, metrics: dict, declared: list[str]) -> dict:
    """Print every metric by name and unit; return the declared ones as JSON."""
    for name, (value, unit, note) in metrics.items():
        print(f"{workload.name} {name} {value!r} {unit}" + (f" ({note})" if note else ""))
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics {missing} were not measured")
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        lib = import_library()
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    OUT_DIR.mkdir(exist_ok=True)
    cache_path = OUT_DIR / f"cache-{workload.name}-{os.getpid()}.bin"

    if not args.trace:
        result = measure(lib, workload, args.seed, args.seconds, cache_path)
        metrics = end_to_end(result)
        problems = []
    else:
        # One untraced and one traced pass over the same tasks: their task
        # medians differ only by the cost of tracing.
        plain = measure(lib, workload, args.seed, 0.0, cache_path, passes=1)
        import spans
        recorder = spans.SpanRecorder()
        recorder.install(lib)
        try:
            traced = measure(lib, workload, args.seed, 0.0, cache_path, passes=1,
                             recorder=recorder)
        finally:
            recorder.uninstall()
        for name, (value, unit, note) in end_to_end(plain).items():
            print(f"{workload.name} untraced.{name} {value!r} {unit}" + (f" ({note})" if note else ""))
        summary = spans.summarize(recorder)
        metrics = spans.layer_metrics(summary, workload.tasks)
        metrics["trace.overhead_s"] = (
            end_to_end(traced)["task_s_p50"][0] - end_to_end(plain)["task_s_p50"][0], "s",
            "traced minus untraced task_s_p50 on the same tasks")
        problems = spans.reconcile(summary)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.csv"
        recorder.write_csv(trace_path)
        print(f"{workload.name} spans {len(recorder.start)} written to {trace_path}")
        result = RunResult(workload, args.seed, plain.passes + traced.passes)

    payload = report(workload, metrics, declared)
    for problem in problems:
        print(f"reconciliation failed: {problem}")
    if result.failed:
        print(f"first error: {result.first_error}")
    correct = not result.failed and not problems
    print(json.dumps({"correct": correct, "attempted": len(result.outcomes),
                      "failed": result.failed, "metrics": payload}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
