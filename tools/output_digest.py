"""Print one SHA-256 per output kind: ``python tools/output_digest.py``.

It imports ``cesdar`` from the ``src/`` beside it, so a copy run in another
checkout digests that one. Hashed: ESDAR, CESDAR and ECESDAR fits (beta, d,
g, active sets, iterations, flags, inner rounds, ledger rows, and each logged
message's kind, dtypes and array bytes) at M = 1, 2, 4, 8 on a tall, a wide
(column-cached) and a jittered shape, and at M = 32 and 128 on a 4000x100
one; ACESDAR paths at steps 1 and 2; the trial CSVs of a small ``bench``;
the CSDR1 cache bytes of a standardized, a plain and a generated dataset,
and what ``load_cache`` reads back from them; and ``ingest``: what
``ingest_csv`` makes of a fixed CSV (numeric columns, two categoricals, three
noise columns) with and without standardizing and dropping the first level,
and the CSDR1 bytes of both halves of each ``split`` of it, or the ``repr``
of the error the split raises. ``estimates`` hashes every fit above, the
ESDAR, CESDAR, ECESDAR and path-point fits, without its ledger and message
log, so it shows whether a change moved an estimate or only the traffic.
Scalars are hashed by ``repr``, so a new type (``np.bool_`` for ``bool``)
shows; arrays by dtype, shape and bytes.

It also checks the M=1 contract: on every shape fitted at M=1, the CESDAR
and ECESDAR records equal ESDAR's on every field but the ledger and the
message log. If one does not, it exits 1 naming the shape, before printing.
"""
import csv
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from cesdar.cli import main  # noqa: E402
from cesdar.cluster import SimulatedCluster, cesdar_fit, ecesdar_fit  # noqa: E402
from cesdar.config import SolverConfig, TuningConfig  # noqa: E402
from cesdar.data import (Dataset, SyntheticSpec, generate, ingest_csv,  # noqa: E402
                         load_cache, save_cache, split)
from cesdar.exceptions import CesdarError  # noqa: E402
from cesdar.sdar import esdar_fit  # noqa: E402
from cesdar.tuning import acesdar_fit, write_path_csv  # noqa: E402

# (n, p, s, T, seed) and machine counts; the third shape jitters the
# master-shard Gram at M=8. ESDAR runs where M=1 does.
SHAPES = [((400, 50, 5, 5, 1), (1, 2, 4, 8)), ((240, 600, 6, 10, 2), (1, 2, 4, 8)),
          ((60, 40, 5, 12, 7), (1, 2, 4, 8)), ((4000, 100, 10, 10, 3), (32, 128))]
LEDGER_FIELDS = ("iteration", "kind", "direction", "byte_size", "n_indices", "n_reals", "worker")


def fit_fields(fit) -> tuple:
    """Every field of a fit but its ledger and message log."""
    arrays = (fit.beta.support, fit.beta.values, fit.d, fit.g, *fit.active_history)
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays], fit.iterations,
            fit.converged, fit.jittered, fit.cycled, fit.rel_loss, fit.inner_rounds)


def fit_record(fit) -> str:
    rows = [tuple(getattr(e, f) for f in LEDGER_FIELDS) for e in fit.ledger.entries] \
        if fit.ledger is not None else None
    log = None
    if fit.messages is not None:
        log = [(m.kind, m.indices.dtype.str, m.indices.tobytes(), m.reals.dtype.str,
                m.reals.tobytes()) for m in fit.messages]
    return repr(fit_fields(fit) + (rows, log))


def cache_datasets():
    """A standardized dataset with non-ASCII and empty names, a plain one and
    a generated 50x300 one."""
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((7, 5)), rng.standard_normal(7)
    names = ["", "\u00e9t\u00e9", "\u6570\u636e", "\U0001f600", "x4"]
    yield Dataset(x, y, names, standardized=True, column_means=rng.standard_normal(5),
                  column_scales=rng.uniform(0.5, 2.0, 5), y_mean=0.25, y_scale=1.5)
    yield Dataset(x[:, :3], y)
    yield generate(SyntheticSpec(n=50, p=300, s=5, seed=4))[0]


def write_ingest_csv(path: Path) -> None:
    """24 rows: two numeric columns, a three-level ``color``, a ``size`` whose
    level XL sits in two rows only, and the response."""
    rng = np.random.default_rng(13)
    sizes = ["S", "M", "L"] * 7 + ["XL", "S", "XL"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "color", "b", "size", "y"])
        for size in sizes:
            a, b, y = rng.standard_normal(3)
            color = ("red", "green", "blue")[rng.integers(3)]
            writer.writerow([f"{a:.6f}", color, f"{b:.6f}", size, f"{y:.6f}"])


def ingest_digest(scratch: Path, h) -> None:
    path = scratch / "ingest.csv"
    write_ingest_csv(path)
    for standardize in (True, False):
        for drop_first in (True, False):
            data = ingest_csv(path, "y", categorical_columns=["color", "size"],
                              n_noise_features=3, noise_seed=2, standardize=standardize,
                              drop_first=drop_first)
            scaling = [None if a is None else a.tobytes()
                       for a in (data.column_means, data.column_scales)]
            h.update(repr((data.feature_names, data.standardized, scaling, data.y_mean,
                           data.y_scale)).encode() + data.x.tobytes() + data.y.tobytes())
            for n_train, seed in ((20, 0), (20, 1), (12, 5), (22, 3)):
                try:
                    halves = split(data, n_train, seed)
                except CesdarError as exc:
                    h.update(repr(exc).encode())
                    continue
                for half in halves:
                    save_cache(scratch / "half.bin", half)
                    h.update((scratch / "half.bin").read_bytes())


def digests(scratch: Path) -> dict:
    kinds = ("esdar", "cesdar", "ecesdar", "acesdar", "bench", "cache", "ingest", "estimates")
    out = {kind: hashlib.sha256() for kind in kinds}
    ingest_digest(scratch, out["ingest"])
    for data in cache_datasets():
        save_cache(scratch / "data.bin", data)
        back = load_cache(scratch / "data.bin")
        out["cache"].update((scratch / "data.bin").read_bytes())
        out["cache"].update(repr(back.feature_names).encode() + back.x.tobytes() + back.y.tobytes())
    for shape, machine_counts in SHAPES:
        n, p, s, sparsity, seed = shape
        data, _ = generate(SyntheticSpec(n=n, p=p, s=s, seed=seed))
        cfg = SolverConfig(sparsity=sparsity)
        if 1 in machine_counts:
            esdar = esdar_fit(data, cfg)
            out["esdar"].update(fit_record(esdar).encode())
            out["estimates"].update(repr(fit_fields(esdar)).encode())
        for machines in machine_counts:
            for kind, fitter in (("cesdar", cesdar_fit), ("ecesdar", ecesdar_fit)):
                cluster = SimulatedCluster(data, machines, log_messages=True)
                fit = fitter(data, machines, cfg, cluster=cluster)
                out[kind].update(fit_record(fit).encode())
                out["estimates"].update(repr(fit_fields(fit)).encode())
                if machines == 1 and repr(fit_fields(fit)) != repr(fit_fields(esdar)):
                    raise SystemExit(f"{kind} at M=1 differs from ESDAR on shape "
                                     f"(n, p, s, T, seed) = {shape}")
    data, _ = generate(SyntheticSpec(n=1000, p=600, s=8, seed=5))
    for step in (1, 2):
        best, path = acesdar_fit(data, TuningConfig(step=step, machines=4))
        write_path_csv(path, scratch / "path.csv")
        out["acesdar"].update((scratch / "path.csv").read_bytes())
        out["acesdar"].update(repr(best.sparsity).encode())
        for point in path:
            out["acesdar"].update(repr((point.sparsity, point.hbic, point.loss)).encode())
            out["acesdar"].update(fit_record(point.fit).encode())
            out["estimates"].update(repr(fit_fields(point.fit)).encode())
    bench = scratch / "bench"
    result = CliRunner().invoke(main, [
        "bench", "--example", "2", "--scale", "0.06", "--replicates", "2", "--seed", "3",
        "--algos", "esdar,cesdar,ecesdar,acesdar", "--machines", "2,4", "--out-dir", str(bench)])
    if result.exit_code != 0:
        raise SystemExit(f"bench failed: {result.output}")
    for csv in sorted(bench.glob("trials_*.csv")):
        out["bench"].update(csv.name.encode() + csv.read_bytes())
    return {kind: h.hexdigest() for kind, h in out.items()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for kind, digest in digests(Path(tmp)).items():
            print(f"{kind:9} {digest}")
