"""Print the median cost in µs of the cluster's small per-round layers:
``python tools/layer_cost.py [--repeats 31]``.

It imports ``cesdar`` from the ``src/`` beside it and uses only the public
cluster and linear-algebra calls, so a copy run in another checkout times
that one. Run it with one BLAS thread (it sets ``OPENBLAS_NUM_THREADS=1``
and friends before numpy loads) on an otherwise idle host, once per
checkout, and compare the lines. Timed, each on generated data with the
true support as active set A:

* ``anchor``: one surrogate gradient exchange, as a root find runs it: the
  master's own gradient, a ``BroadcastAnchor`` to every worker, the
  ``ReportGradient`` collect and the weighted combine. The workers hold
  their normal equations on A already, as they do after a root find's
  first round. At M = 4 (2000x4000, |A| = 20), 8 and 128 (20000x100,
  |A| = 10).
* ``dual``: one ``ReportDual`` exchange through ``raw_dual`` at a nonzero
  iterate on A, master pass included, on the two gated benchmark shapes:
  20000x100 at M = 8 (``tall_fit``) and 2000x4000 at M = 4
  (``acesdar_path``).
* ``spd_solve``: one shifted master-shard system on A, |A| = 10, as each
  surrogate step solves it.
* ``gram``: one ``gram_submatrix`` of the 2500x10 master-shard block.

Each line is the median over ``--repeats`` samples of the mean of a batch
of calls sized to take about 2 ms.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cesdar.cluster import SimulatedCluster  # noqa: E402
from cesdar.data import SparseCoefficients, SyntheticSpec, generate  # noqa: E402
from cesdar.linalg import gram_submatrix, spd_solve  # noqa: E402
from cesdar.sdar import normal_equations  # noqa: E402


def median_us(call, repeats: int) -> float:
    """Median over ``repeats`` batches of the mean µs of one ``call()``."""
    start = time.perf_counter()
    call()
    number = max(1, int(2e-3 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number * 1e6)
    return statistics.median(samples)


def anchor_exchange(cluster: SimulatedCluster, active: np.ndarray):
    gram, rhs = normal_equations(cluster.master_shard, active)
    point = np.linalg.solve(gram, rhs)

    def exchange():
        master = gram @ point - rhs
        cluster.broadcast("BroadcastAnchor", active, point)
        return cluster.combine(master, cluster.collect_gradients(active))
    exchange()  # the workers build their normal equations on A once
    return exchange


def dual_exchange(cluster: SimulatedCluster, active: np.ndarray):
    values = np.linspace(0.5, 1.5, active.size)
    beta = SparseCoefficients(cluster.p, active, values)
    return lambda: cluster.raw_dual(beta)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=31)
    repeats = parser.parse_args().repeats
    tall, tall_truth = generate(SyntheticSpec(n=20000, p=100, s=10, seed=1))
    wide, wide_truth = generate(SyntheticSpec(n=2000, p=4000, s=20, seed=1))
    tall_active, wide_active = tall_truth.support, wide_truth.support
    clusters = {(name, machines): SimulatedCluster(data, machines)
                for name, data, machines in (("tall", tall, 8), ("tall", tall, 128),
                                             ("wide", wide, 4))}
    gram, rhs = normal_equations(clusters["tall", 8].master_shard, tall_active)
    shifted = gram + 1e-2 * np.trace(gram) / tall_active.size * np.eye(tall_active.size)
    block = clusters["tall", 8].master_shard.columns(tall_active)
    layers = (
        ("anchor M=4 |A|=20", anchor_exchange(clusters["wide", 4], wide_active)),
        ("anchor M=8 |A|=10", anchor_exchange(clusters["tall", 8], tall_active)),
        ("anchor M=128 |A|=10", anchor_exchange(clusters["tall", 128], tall_active)),
        ("dual 20000x100 M=8", dual_exchange(clusters["tall", 8], tall_active)),
        ("dual 2000x4000 M=4", dual_exchange(clusters["wide", 4], wide_active)),
        ("spd_solve |A|=10", lambda: spd_solve(shifted, rhs)),
        ("gram 2500x10", lambda: gram_submatrix(block, 2500.0)),
    )
    for name, call in layers:
        print(f"{name:22} {median_us(call, repeats):10.1f} us")


if __name__ == "__main__":
    main()
