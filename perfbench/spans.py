"""Span recorder for the traced benchmark run, and the per-layer metrics.

``SpanRecorder.install`` wraps the public functions and methods of the
cesdar modules at the attributes the library actually calls through (for
example both ``cesdar.sdar.spd_solve`` and ``cesdar.cluster.spd_solve``) and
``uninstall`` restores the originals. Every call becomes one span: a name,
a start, an end, the span open when it began, and the benchmark task it ran
in. Spans stay in memory until the run writes them out. Only
``perfbench/run.py --trace 1`` imports this module, so untraced runs pay
nothing for it.
"""
from __future__ import annotations

import functools
import statistics
import time
from array import array
from contextlib import contextmanager

ANCHOR = "BroadcastAnchor"
ACTIVE_SET = "BroadcastActiveSet"


class SpanRecorder:
    """In-memory spans in parallel arrays, plus per-span notes from results."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.task = array("q")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.task_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark itself; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``note(args, kwargs, result)`` is stored for the call's span when
        given, so a metric can use what the call returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, lib) -> None:
        """Wrap every layer boundary of the cesdar package ``lib``."""
        data, sdar, cluster, tuning = lib.data, lib.sdar, lib.cluster, lib.tuning
        self.wrap(data, "generate", "data.generate")
        self.wrap(data, "save_cache", "data.save_cache")
        self.wrap(data, "load_cache", "data.load_cache")
        self.wrap(data.Dataset, "column_curvature", "data.curvature")
        self.wrap(data.Dataset, "correlate_residual", "data.correlate",
                  note=lambda a, k, r: 8 * a[0].n * a[0].p)
        for module in (sdar, cluster):
            self.wrap(module, "spd_solve", "linalg.spd_solve", note=lambda a, k, r: r[1])
            self.wrap(module, "gram_submatrix", "linalg.gram")
            self.wrap(module, "residual_correlation", "sdar.residual_correlation")
        self.wrap(sdar, "detect_active", "sdar.detect")
        self.wrap(sdar, "root_find_local", "sdar.root_find_local")
        self.wrap(sdar, "esdar_fit", "sdar.esdar_fit", note=_fit_note(1))
        self.wrap(cluster, "cesdar_fit", "cluster.cesdar_fit", note=_fit_note())
        self.wrap(cluster, "ecesdar_fit", "cluster.ecesdar_fit", note=_fit_note())
        self.wrap(cluster, "surrogate_root_find", "cluster.root_find",
                  note=lambda a, k, r: r[3])
        self.wrap(cluster.SimulatedCluster, "__init__", "cluster.build")
        self.wrap(cluster.SimulatedCluster, "collect_curvature", "cluster.curvature")
        self.wrap(cluster.SimulatedCluster, "broadcast", "cluster.broadcast",
                  note=_broadcast_note)
        self.wrap(cluster.SimulatedCluster, "collect_gradients", "cluster.collect_gradients")
        self.wrap(cluster.SimulatedCluster, "collect_duals", "cluster.collect_duals")
        self.wrap(cluster.CommLedger, "record", "cluster.ledger_record",
                  note=lambda a, k, r: (a[3], cluster.message_bytes(a[4], a[5])))
        self.wrap(tuning, "cesdar_fit", "tuning.cesdar_fit", note=_fit_note())
        self.wrap(tuning, "hbic", "tuning.hbic")
        self.wrap(tuning, "acesdar_fit", "tuning.acesdar_fit",
                  note=lambda a, k, r: sum(point.cold_fallback for point in r[1]))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        """All spans, one line each: id, task, parent, name, start, end."""
        with open(path, "w") as out:
            out.write("id,task,parent,name,start,end\n")
            for i in range(len(self.start)):
                out.write(f"{i},{self.task[i]},{self.parent[i]},{self.names[self.name_id[i]]},"
                          f"{self.start[i]!r},{self.end[i]!r}\n")


def _fit_note(machines=None):
    """Note for a solver call: the program's own counts from its FitResult.

    Outer iterations run are ``iterations``, except on a cycled fit, which
    reports the index of its best iterate; there every detected active set
    but the repeated one was solved, so ``len(active_history) - 1`` count.
    """
    def note(args, kwargs, fit):
        m = machines or kwargs.get("machines", args[1] if len(args) > 1 else None)
        run = len(fit.active_history) - 1 if fit.cycled else fit.iterations
        anchors = 0
        if fit.ledger is not None:
            anchors = sum(1 for e in fit.ledger.entries
                          if e.kind == ANCHOR and e.direction == "master_to_worker")
        return {"machines": m, "outer": run, "rounds": sum(fit.inner_rounds),
                "anchor_entries": anchors, "cycled": fit.cycled,
                "bytes": fit.ledger.total_bytes() if fit.ledger is not None else 0}
    return note


def _broadcast_note(args, kwargs, result):
    """Kind of a broadcast and, for an anchor, the bytes of X_m[:, A] the
    workers gather: each reads its shard's active columns twice."""
    cluster, kind, indices = args[0], args[1], args[2]
    if kind != ANCHOR:
        return kind, 0
    worker_rows = sum(cluster.partition.sizes()[1:])
    return kind, 2 * 8 * worker_rows * len(indices)


class _Tally:
    """Per-name call counts and total and self seconds."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.own: dict[str, float] = {}

    def add(self, name, duration, own):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.own[name] = self.own.get(name, 0.0) + own


def _walk(rec: SpanRecorder):
    """Per span: name, phase (top-level benchmark span), duration, self time,
    and the spd_solve calls made directly inside it."""
    count = len(rec.start)
    duration = [rec.end[i] - rec.start[i] for i in range(count)]
    children = [0.0] * count
    solves = [0] * count
    phase = [""] * count
    spd = rec._name_ids.get("linalg.spd_solve", -1)
    for i in range(count):
        parent = rec.parent[i]
        if parent < 0:
            phase[i] = rec.names[rec.name_id[i]]
        else:
            phase[i] = phase[parent]
            children[parent] += duration[i]
            solves[parent] += rec.name_id[i] == spd
    for i in range(count):
        own = duration[i] - children[i]
        yield i, rec.names[rec.name_id[i]], phase[i], duration[i], own, solves[i]


def summarize(rec: SpanRecorder) -> dict:
    """Counts and times of the traced tasks, plus the program's own counts."""
    tally = _Tally()
    out = {
        "jitter": 0, "correlate_bytes": 0, "cache_bytes": 0,
        "rounds": 0, "capped": 0, "capped_rounds": 0,
        "anchor": [], "dual": [], "gather_bytes": 0,
        "bytes_m2w": 0, "bytes_w2m": 0, "fallbacks": 0, "fits": [],
        "setup": _Tally(), "check_s": 0.0,
    }
    pending = {}
    for i, name, phase, duration, own, solves in _walk(rec):
        note = rec.notes.get(i)
        if phase == "bench.setup":
            out["setup"].add(name, duration, own)
            if name == "bench.setup":
                out["cache_bytes"] += note
            continue
        if phase == "bench.check":
            if name == "bench.check":
                out["check_s"] += duration
            continue
        tally.add(name, duration, own)
        if name == "linalg.spd_solve":
            out["jitter"] += bool(note)
        elif name == "data.correlate":
            out["correlate_bytes"] += note
        elif name == "cluster.root_find":
            # One anchor solve, then one correction solve per round; the
            # note is the solve's converged flag.
            traced_rounds = max(solves - 1, 0)
            out["rounds"] += traced_rounds
            if not note:
                out["capped"] += 1
                out["capped_rounds"] += traced_rounds
        elif name == "cluster.broadcast":
            kind, gathered = note
            pending[kind] = rec.start[i]
            out["gather_bytes"] += gathered
        elif name == "cluster.collect_gradients":
            out["anchor"].append(rec.end[i] - pending.pop(ANCHOR))
        elif name == "cluster.collect_duals":
            out["dual"].append(rec.end[i] - pending.pop(ACTIVE_SET))
        elif name == "cluster.ledger_record":
            direction, size = note
            out["bytes_m2w" if direction == "master_to_worker" else "bytes_w2m"] += size
        elif name == "tuning.acesdar_fit":
            out["fallbacks"] += note
        elif name.endswith("_fit") and note is not None:
            out["fits"].append(note)
    out["tally"] = tally
    return out


def layer_metrics(s: dict, tasks: int) -> dict:
    """Per-layer metrics from ``summarize``, per task unless the note says
    median per call."""
    t, setup = s["tally"], s["setup"]

    def calls(name):
        return t.calls.get(name, 0) / tasks

    def secs(name, table=t):
        return table.total.get(name, 0.0) / tasks

    def own(name):
        return t.own.get(name, 0.0) / tasks

    def median(values):
        return statistics.median(values) if values else 0.0

    fits_per_path = t.calls.get("tuning.cesdar_fit", 0)
    points = t.calls.get("tuning.hbic", 0)
    cold = fits_per_path - points
    all_rounds = s["rounds"]
    per_call = "median per call"
    return {
        "data.generate_s": (secs("data.generate", setup), "s", ""),
        "data.cache_write_s": (secs("data.save_cache", setup), "s", ""),
        "data.cache_read_s": (secs("data.load_cache", setup), "s", ""),
        "data.cache_mb": (s["cache_bytes"] / tasks / 1e6, "MB", ""),
        "data.curvature_calls": (calls("data.curvature"), "count", ""),
        "data.curvature_s": (secs("data.curvature"), "s", ""),
        "data.correlate_calls": (calls("data.correlate"), "count", ""),
        "data.correlate_s": (secs("data.correlate"), "s", ""),
        "data.correlate_gb": (s["correlate_bytes"] / tasks / 1e9, "GB", "computed: 8*rows*p per call"),
        "linalg.spd_solve_calls": (calls("linalg.spd_solve"), "count", ""),
        "linalg.spd_solve_s": (secs("linalg.spd_solve"), "s", ""),
        "linalg.gram_calls": (calls("linalg.gram"), "count", ""),
        "linalg.gram_s": (secs("linalg.gram"), "s", ""),
        "linalg.jitter_count": (s["jitter"] / tasks, "count", ""),
        "sdar.detect_calls": (calls("sdar.detect"), "count", ""),
        "sdar.detect_s": (secs("sdar.detect"), "s", ""),
        "sdar.outer_iterations": (
            (t.calls.get("sdar.root_find_local", 0) + t.calls.get("cluster.root_find", 0)) / tasks,
            "count", "restricted solves run inside fits"),
        "sdar.cycled_fits": (sum(f["cycled"] for f in s["fits"]) / tasks, "count", ""),
        "sdar.esdar_s": (secs("sdar.esdar_fit"), "s", "single-machine baseline"),
        "cluster.builds": (calls("cluster.build"), "count", ""),
        "cluster.curvature_s": (secs("cluster.curvature"), "s", ""),
        "cluster.root_find_calls": (calls("cluster.root_find"), "count", ""),
        "cluster.root_find_s": (secs("cluster.root_find"), "s", ""),
        "cluster.root_find_self_s": (own("cluster.root_find"), "s", ""),
        "cluster.surrogate_rounds": (all_rounds / tasks, "count", ""),
        "cluster.surrogate_capped": (s["capped"] / tasks, "count", ""),
        "cluster.surrogate_wasted_share": (
            s["capped_rounds"] / all_rounds if all_rounds else 0.0, "share",
            "rounds spent in capped solves / all rounds"),
        "cluster.anchor_rounds": (len(s["anchor"]) / tasks, "count", ""),
        "cluster.anchor_round_s": (median(s["anchor"]), "s", per_call),
        "cluster.dual_rounds": (len(s["dual"]) / tasks, "count", ""),
        "cluster.dual_round_s": (median(s["dual"]), "s", per_call),
        "cluster.messages": (calls("cluster.ledger_record"), "count", ""),
        "cluster.bytes_m2w": (s["bytes_m2w"] / tasks, "B", ""),
        "cluster.bytes_w2m": (s["bytes_w2m"] / tasks, "B", ""),
        "cluster.ledger_record_s": (secs("cluster.ledger_record"), "s", ""),
        "cluster.gather_mb": (s["gather_bytes"] / tasks / 1e6, "MB",
                              "computed: worker X_m[:, A] reads per anchor round"),
        "tuning.path_points": (points / tasks, "count", ""),
        "tuning.fits_per_path": (fits_per_path / tasks, "count", ""),
        "tuning.cold_fits": (cold / tasks, "count", ""),
        "tuning.cold_win_rate": (s["fallbacks"] / cold if cold else 0.0, "share",
                                 "cold fallbacks taken / cold fits run"),
        "tuning.hbic_s": (secs("tuning.hbic"), "s", ""),
        "tuning.self_s": (own("tuning.acesdar_fit"), "s", ""),
        "metrics.check_s": (s["check_s"] / tasks, "s", "the benchmark's own output check"),
    }


def reconcile(s: dict) -> list[str]:
    """Traced counts from ``summarize`` against the program's own; each
    mismatch is a string."""
    t = s["tally"]
    fits = s["fits"]
    anchor_rounds = 0
    for fit in fits:
        workers = fit["machines"] - 1
        if workers and fit["anchor_entries"] % workers:
            return [f"{fit['anchor_entries']} BroadcastAnchor entries over {workers} workers"]
        anchor_rounds += fit["anchor_entries"] // workers if workers else 0
    pairs = (
        ("cluster.surrogate_rounds vs sum of FitResult.inner_rounds",
         s["rounds"], sum(f["rounds"] for f in fits)),
        ("cluster.anchor_rounds vs ledger BroadcastAnchor entries / (M-1)",
         len(s["anchor"]), anchor_rounds),
        ("sdar.outer_iterations vs sum of FitResult iterations run",
         t.calls.get("sdar.root_find_local", 0) + t.calls.get("cluster.root_find", 0),
         sum(f["outer"] for f in fits)),
        ("cluster bytes recorded vs sum of CommLedger.total_bytes",
         s["bytes_m2w"] + s["bytes_w2m"], sum(f["bytes"] for f in fits)),
    )
    return [f"{label}: traced {traced} != program {program}"
            for label, traced, program in pairs if traced != program]
