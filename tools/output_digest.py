"""Print one SHA-256 per output kind: ``python tools/output_digest.py``.

It imports ``cesdar`` from the ``src/`` beside it, so a copy run in another
checkout digests that one. Hashed: ESDAR, CESDAR and ECESDAR fits (beta, d,
g, active sets, iterations, flags, inner rounds, ledger rows, message-log
bytes) at M = 1, 2, 4, 8 on a tall, a wide (column-cached) and a jittered
shape; ACESDAR paths at steps 1 and 2; the trial CSVs of a small ``bench``.
Scalars are hashed by ``repr``, so a new type (``np.bool_`` for ``bool``)
shows; arrays by dtype, shape and bytes.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

from cesdar.cli import main  # noqa: E402
from cesdar.cluster import (SimulatedCluster, cesdar_fit, ecesdar_fit,  # noqa: E402
                           write_message_log)
from cesdar.config import SolverConfig, TuningConfig  # noqa: E402
from cesdar.data import SyntheticSpec, generate  # noqa: E402
from cesdar.sdar import esdar_fit  # noqa: E402
from cesdar.tuning import acesdar_fit, write_path_csv  # noqa: E402

# (n, p, s, T, seed); the last one jitters the master-shard Gram at M=8.
SHAPES = [(400, 50, 5, 5, 1), (240, 600, 6, 10, 2), (60, 40, 5, 12, 7)]
LEDGER_FIELDS = ("iteration", "kind", "direction", "byte_size", "n_indices", "n_reals", "worker")


def fit_record(fit, scratch: Path) -> str:
    arrays = (fit.beta.support, fit.beta.values, fit.d, fit.g, *fit.active_history)
    rows = [tuple(getattr(e, f) for f in LEDGER_FIELDS) for e in fit.ledger.entries] \
        if fit.ledger is not None else None
    log = None
    if fit.messages is not None:
        write_message_log(scratch / "messages.bin", fit.messages)
        log = (scratch / "messages.bin").read_bytes()
    return repr(([(a.dtype.str, a.shape, a.tobytes()) for a in arrays], fit.iterations,
                 fit.converged, fit.jittered, fit.cycled, fit.rel_loss, fit.inner_rounds,
                 rows, log))


def digests(scratch: Path) -> dict:
    out = {kind: hashlib.sha256() for kind in ("esdar", "cesdar", "ecesdar", "acesdar", "bench")}
    for n, p, s, sparsity, seed in SHAPES:
        data, _ = generate(SyntheticSpec(n=n, p=p, s=s, seed=seed))
        cfg = SolverConfig(sparsity=sparsity)
        out["esdar"].update(fit_record(esdar_fit(data, cfg), scratch).encode())
        for machines in (1, 2, 4, 8):
            for kind, fitter in (("cesdar", cesdar_fit), ("ecesdar", ecesdar_fit)):
                cluster = SimulatedCluster(data, machines, log_messages=True)
                fit = fitter(data, machines, cfg, cluster=cluster)
                out[kind].update(fit_record(fit, scratch).encode())
    data, _ = generate(SyntheticSpec(n=1000, p=600, s=8, seed=5))
    for step in (1, 2):
        best, path = acesdar_fit(data, TuningConfig(step=step, machines=4))
        write_path_csv(path, scratch / "path.csv")
        out["acesdar"].update((scratch / "path.csv").read_bytes())
        out["acesdar"].update(repr(best.sparsity).encode())
        for point in path:
            out["acesdar"].update(repr((point.sparsity, point.hbic, point.loss)).encode())
            out["acesdar"].update(fit_record(point.fit, scratch).encode())
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
            print(f"{kind:8} {digest}")
