"""Command-line entry point: fit, bench, tune, gen, ingest.

Every command is deterministic given (config, seed); trial CSVs are byte
identical across reruns. Wall-clock numbers (the ART column of the summary
table) and timestamps live in the summary table / run log only. Seeds
default to ``$CESDAR_SEED``, then 0. Errors go to stderr as a single
machine-parseable line ``error: <code>: <message>``; ``_Group`` prints a bad
command line as ``usage`` and a data, config or file error, output writes
included, under the command's name.

Exit codes: 0 success, 1 usage or data error, 2 finished with a
non-convergence warning (outputs still written).
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

import click

from .cluster import CommLedger
from .config import ExperimentConfig, SolverConfig, TuningConfig
from .data import (
    SyntheticSpec, example_config, example_grid, generate, ingest_csv,
    load_cache, save_cache, save_truth,
)
from .exceptions import CesdarError
from .metrics import SOLVERS, emit_grid, emit_table, run_cell, write_summary_json, write_trials_csv
from .tuning import acesdar_fit, path_cap, write_path_csv

ENV_SEED = "CESDAR_SEED"
_SEED = {"envvar": ENV_SEED, "default": 0, "show_default": True, "show_envvar": True}


def _fail(code: str, message: str) -> None:
    click.echo(f"error: {code}: {message}", err=True)
    sys.exit(1)


def _load_dataset(data_path: str, response: str | None, categorical, noise_features: int,
                  standardize: bool, seed: int):
    """The dataset of ``--data``: a CSV, ingested with ``seed`` as its noise
    seed, or a dataset cache."""
    if data_path.endswith(".csv"):
        if response is None:
            _fail("config", "--response is required for CSV input")
        return ingest_csv(data_path, response, categorical_columns=list(categorical),
                          n_noise_features=noise_features, noise_seed=seed,
                          standardize=standardize)
    return load_cache(data_path)


def _write_model(path, result, algorithm: str, machines: int, **extra) -> None:
    """Write a fit as sorted, indented JSON: its coefficients, iterations,
    convergence flag and ledger totals (zero without a ledger, as for ESDAR),
    plus the fields in ``extra``."""
    ledger = result.ledger or CommLedger()
    payload = {
        "algorithm": algorithm,
        "machines": machines,
        "dim": result.beta.dim,
        "support": [int(i) for i in result.beta.support],
        "values": [float(v) for v in result.beta.values],
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "ledger": {"messages": len(ledger.entries), "total_bytes": ledger.total_bytes(),
                   "worker_to_master_bytes": ledger.worker_to_master_bytes()},
        **extra,
    }
    with open(path, "w") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")


class _Group(click.Group):
    def main(self, *args, **kwargs):
        """Run the command line, but print a usage error as one ``error: usage:
        <message>`` line and exit 1: exit 2 means a fit did not converge."""
        try:
            return super().main(*args, **kwargs, standalone_mode=False)
        except click.UsageError as exc:
            _fail("usage", exc.format_message())
        except click.Abort:
            _fail("abort", "interrupted")

    def invoke(self, ctx):
        """Run the subcommand, but print a data, config or file error, output
        writes included, as one ``error: <command>: <message>`` line; exit 1."""
        try:
            return super().invoke(ctx)
        except (CesdarError, OSError, ValueError) as exc:
            _fail(ctx.invoked_subcommand, str(exc))


@click.group(cls=_Group, no_args_is_help=False)
def main() -> None:
    """Communication-efficient sparse least-squares toolkit."""


def _model_options(command):
    """The options ``fit`` and ``tune`` share: the data source, the cluster
    size, the solver knobs, the seed and the model path."""
    options = [
        click.option("--data", "data_path", required=True, help="CSV file or dataset cache."),
        click.option("--response", default=None, help="Response column (CSV input)."),
        click.option("--categorical", multiple=True, help="Categorical column (repeatable)."),
        click.option("--noise-features", default=0, show_default=True),
        click.option("--standardize/--no-standardize", default=True, show_default=True),
        click.option("--machines", default=1, show_default=True),
        click.option("--tau", default=0.5, show_default=True),
        click.option("--max-iter", default=50, show_default=True),
        click.option("--seed", **_SEED),
        click.option("--out", "out_path", default="model.json", show_default=True),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@main.command("fit")
@click.option("--algo", type=click.Choice(list(SOLVERS)), default="cesdar", show_default=True)
@_model_options
@click.option("--sparsity", default=10, show_default=True, help="Active-set size T.")
def cmd_fit(algo, machines, sparsity, tau, max_iter, out_path, **source):
    """Fit one model at sparsity T and write its coefficients as JSON.
    ACESDAR, which selects T itself, is the ``tune`` command. ESDAR runs on
    one machine, so its model records ``machines`` 1."""
    data = _load_dataset(**source)
    cfg = SolverConfig(sparsity=sparsity, tau=tau, max_iter=max_iter)
    result = SOLVERS[algo](data, machines, cfg)
    _write_model(out_path, result, algo, 1 if algo == "esdar" else machines)
    click.echo(f"wrote {out_path} (support size {len(result.beta.support)})")
    if not result.converged:
        click.echo("warning: iteration did not converge", err=True)
        sys.exit(2)


def _bench_cells(example: int, scale: float, replicates: int, seed: int, algos):
    """Expand one example into its cells: grid axes in order, algorithms
    innermost. The single-machine baseline of a machine sweep appears once,
    at the first machine count, labeled M=1."""
    grid = example_grid(example)
    cells = []
    for *point, algo in itertools.product(*grid.values(), algos):
        knobs = dict(zip(grid, point))
        baseline = algo == "esdar" and "machines" in knobs
        if baseline and knobs["machines"] != grid["machines"][0]:
            continue
        cell = example_config(example, scale=scale, replicates=replicates,
                              base_seed=seed, algorithm=algo, **knobs)
        cells.append(dataclasses.replace(cell, machines=1) if baseline else cell)
    return cells


@main.command("bench")
@click.option("--example", type=int, default=None, help="Benchmark example 1-4.")
@click.option("--config", "config_path", default=None, help="Cell config JSON.")
@click.option("--scale", default=1.0, show_default=True,
              help="Shrink n and p proportionally for desk-scale runs.")
@click.option("--replicates", default=100, show_default=True)
@click.option("--algos", default="cesdar,ecesdar", show_default=True)
@click.option("--machines", "machines_filter", default=None,
              help="Comma-separated machine counts to keep from the grid.")
@click.option("--jobs", default=1, show_default=True, help="Parallel replicates.")
@click.option("--seed", **_SEED)
@click.option("--out-dir", default="bench-out", show_default=True)
def cmd_bench(example, config_path, scale, replicates, algos, machines_filter,
              jobs, seed, out_dir):
    """Run benchmark cells and write the table, per-trial CSVs, and summaries."""
    algos = [a.strip() for a in algos.split(",") if a.strip()]
    if (example is None) == (config_path is None):
        raise CesdarError("pass exactly one of --example or --config")
    if config_path is not None:
        cells = [ExperimentConfig.from_json(Path(config_path).read_text())]
    else:
        cells = _bench_cells(example, scale, replicates, seed, algos)
    if machines_filter:
        keep = {int(m) for m in machines_filter.split(",")}
        cells = [c for c in cells if c.machines in keep]
    if not cells:
        raise CesdarError("no cells selected")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    done = []
    log_lines = []
    t0 = time.perf_counter()
    for config in cells:
        cell_id = (f"ex{config.example or 0}_{config.algorithm}_m{config.machines}"
                   f"_p{config.p}_s{config.s}_t{config.sparsity}")
        summary, trials = run_cell(config, jobs=jobs)
        done.append((config, summary))
        write_trials_csv(out / f"trials_{cell_id}.csv", config, trials)
        write_summary_json(out / f"summary_{cell_id}.json", config, summary)
        failures = [t for t in trials if t.error]
        log_lines.append(
            f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {cell_id} "
            f"completed={summary.completed}/{summary.replicates} art={summary.art:.4f}"
        )
        if failures:
            log_lines.append(f"  first error: {failures[0].error}")
        click.echo(f"{cell_id}: AEE={summary.aee_mean:.5f} ORA={summary.ora:.2f} "
                   f"ANI={summary.ani:.2f} completed={summary.completed}")
    table_path = out / (f"table_example{example}.csv" if example else "table.csv")
    emit_table(table_path, [summary for _, summary in done])
    grid_path = out / (f"grid_example{example}.csv" if example else "grid.csv")
    emit_grid(grid_path, done)
    log_lines.append(f"total wall clock: {time.perf_counter() - t0:.1f}s")
    (out / "run.log").write_text("\n".join(log_lines) + "\n")
    click.echo(f"wrote {table_path}")


@main.command("tune")
@_model_options
@click.option("--step", default=1, show_default=True)
@click.option("--j-override", default=None, type=int)
@click.option("--path-out", default="path.csv", show_default=True)
def cmd_tune(machines, step, tau, max_iter, j_override, path_out, out_path, **source):
    """Sweep the sparsity, score by HBIC, keep the winner."""
    data = _load_dataset(**source)
    tune = TuningConfig(step=step, machines=machines, tau=tau,
                        max_iter=max_iter, j_override=j_override)
    cap = path_cap(data, tune)
    click.echo(f"sparsity cap J = {cap} (n={data.n // machines}, p={data.p})")
    best, path = acesdar_fit(data, tune)
    write_path_csv(path, path_out)
    _write_model(out_path, best.fit, "acesdar", machines,
                 selected_sparsity=best.sparsity, hbic=best.hbic)
    click.echo(f"selected sparsity {best.sparsity} (HBIC {best.hbic:.6f}); "
               f"wrote {path_out} and {out_path}")
    if not best.fit.converged:
        click.echo("warning: selected fit did not converge", err=True)
        sys.exit(2)


@main.command("gen")
@click.option("--n", default=1000, show_default=True)
@click.option("--p", default=100, show_default=True)
@click.option("--s", default=10, show_default=True)
@click.option("--signal-ratio", default=20.0, show_default=True)
@click.option("--noise-sd", default=1.0, show_default=True)
@click.option("--seed", **_SEED)
@click.option("--out", "out_path", default="synth.bin", show_default=True)
def cmd_gen(n, p, s, signal_ratio, noise_sd, seed, out_path):
    """Emit a synthetic dataset cache plus its ground truth sidecar."""
    spec = SyntheticSpec(n=n, p=p, s=s, signal_ratio=signal_ratio,
                         noise_sd=noise_sd, seed=seed)
    data, truth = generate(spec)
    save_cache(out_path, data)
    save_truth(str(out_path) + ".truth.json", truth)
    click.echo(f"wrote {out_path} ({n} rows, {p} columns) and {out_path}.truth.json")


@main.command("ingest")
@click.option("--data", "data_path", required=True, help="CSV input.")
@click.option("--response", required=True)
@click.option("--categorical", multiple=True)
@click.option("--noise-features", default=0, show_default=True)
@click.option("--noise-seed", **_SEED)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--keep-all-levels", is_flag=True, default=False,
              help="Encode every categorical level instead of dropping the first.")
@click.option("--out", "out_path", default="dataset.bin", show_default=True)
def cmd_ingest(data_path, response, categorical, noise_features, noise_seed,
               standardize, keep_all_levels, out_path):
    """Ingest a CSV (dummies, noise columns, scaling) into a dataset cache."""
    data = ingest_csv(data_path, response, categorical_columns=list(categorical),
                      n_noise_features=noise_features, noise_seed=noise_seed,
                      standardize=standardize, drop_first=not keep_all_levels)
    save_cache(out_path, data)
    click.echo(f"wrote {out_path} ({data.n} rows, {data.p} columns)")


if __name__ == "__main__":
    main()
