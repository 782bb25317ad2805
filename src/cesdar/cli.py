"""Command-line entry point: fit, bench, tune, gen, ingest.

Every command is deterministic given (config, seed); trial CSVs are byte
identical across reruns. Wall-clock numbers (the ART column of the summary
table) and timestamps live in the summary table / run log only. Errors go
to stderr as a single machine-parseable line ``error: <code>: <message>``.

Exit codes: 0 success, 1 usage or data error, 2 finished with a
non-convergence warning (outputs still written).
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from .cluster import cesdar_fit, ecesdar_fit
from .config import ExperimentConfig, SolverConfig, TuningConfig
from .data import (
    SyntheticSpec, example_config, example_grid, generate, ingest_csv,
    load_cache, save_cache, save_truth,
)
from .exceptions import CesdarError
from .metrics import emit_grid, emit_table, run_cell, write_summary_json, write_trials_csv
from .sdar import esdar_fit
from .tuning import acesdar_fit, path_cap, write_path_csv

ENV_SEED = "CESDAR_SEED"


def _fail(code: str, message: str) -> None:
    click.echo(f"error: {code}: {message}", err=True)
    sys.exit(1)


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        _fail("config", f"{ENV_SEED} must be an integer, got {raw!r}")


def _load_dataset(path: str, response: str | None, categorical, noise_features: int,
                  noise_seed: int, standardize: bool):
    if path.endswith(".csv"):
        if response is None:
            _fail("config", "--response is required for CSV input")
        return ingest_csv(path, response, categorical_columns=list(categorical),
                          n_noise_features=noise_features, noise_seed=noise_seed,
                          standardize=standardize)
    return load_cache(path)


def _model_payload(result, algorithm: str, machines: int) -> dict:
    ledger = result.ledger
    return {
        "algorithm": algorithm,
        "machines": machines,
        "dim": result.beta.dim,
        "support": [int(i) for i in result.beta.support],
        "values": [float(v) for v in result.beta.values],
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "ledger": {
            "messages": len(ledger.entries) if ledger else 0,
            "total_bytes": ledger.total_bytes() if ledger else 0,
            "worker_to_master_bytes": ledger.worker_to_master_bytes() if ledger else 0,
        },
    }


@click.group()
def main() -> None:
    """Communication-efficient sparse least-squares toolkit."""


@main.command("fit")
@click.option("--algo", type=click.Choice(["esdar", "cesdar", "ecesdar", "acesdar"]),
              default="cesdar", show_default=True)
@click.option("--data", "data_path", required=True, help="CSV file or dataset cache.")
@click.option("--response", default=None, help="Response column (CSV input).")
@click.option("--categorical", multiple=True, help="Categorical column (repeatable).")
@click.option("--noise-features", default=0, show_default=True)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--machines", default=1, show_default=True)
@click.option("--sparsity", default=10, show_default=True, help="Active-set size T.")
@click.option("--tau", default=0.5, show_default=True)
@click.option("--max-iter", default=50, show_default=True)
@click.option("--step", default=1, show_default=True, help="Sweep step (acesdar only).")
@click.option("--seed", default=None, type=int, help=f"Defaults to ${ENV_SEED} or 0.")
@click.option("--out", "out_path", default="model.json", show_default=True)
def cmd_fit(algo, data_path, response, categorical, noise_features, standardize,
            machines, sparsity, tau, max_iter, step, seed, out_path):
    """Fit one model and write its coefficients as JSON."""
    seed = _default_seed() if seed is None else seed
    try:
        data = _load_dataset(data_path, response, categorical, noise_features,
                             seed, standardize)
        if algo == "acesdar":
            tune = TuningConfig(step=step, machines=machines, tau=tau, max_iter=max_iter)
            best, _path = acesdar_fit(data, tune)
            result = best.fit
        else:
            cfg = SolverConfig(sparsity=sparsity, tau=tau, max_iter=max_iter)
            if algo == "esdar":
                result = esdar_fit(data, cfg)
            elif algo == "cesdar":
                result = cesdar_fit(data, machines, cfg)
            else:
                result = ecesdar_fit(data, machines, cfg)
    except (CesdarError, OSError, ValueError) as exc:
        _fail("fit", str(exc))
    payload = _model_payload(result, algo, machines)
    with open(out_path, "w") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    click.echo(f"wrote {out_path} (support size {len(payload['support'])})")
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
@click.option("--seed", default=None, type=int)
@click.option("--out-dir", default="bench-out", show_default=True)
def cmd_bench(example, config_path, scale, replicates, algos, machines_filter,
              jobs, seed, out_dir):
    """Run benchmark cells and write the table, per-trial CSVs, and summaries."""
    seed = _default_seed() if seed is None else seed
    algos = [a.strip() for a in algos.split(",") if a.strip()]
    try:
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
    except (CesdarError, OSError, ValueError) as exc:
        _fail("bench", str(exc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    pairs = []
    log_lines = []
    t0 = time.perf_counter()
    for config in cells:
        cell_id = (f"ex{config.example or 0}_{config.algorithm}_m{config.machines}"
                   f"_p{config.p}_s{config.s}_t{config.sparsity}")
        summary, trials = run_cell(config, jobs=jobs)
        summaries.append(summary)
        pairs.append((config, summary))
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
    emit_table(table_path, summaries)
    grid_path = out / (f"grid_example{example}.csv" if example else "grid.csv")
    emit_grid(grid_path, pairs)
    log_lines.append(f"total wall clock: {time.perf_counter() - t0:.1f}s")
    (out / "run.log").write_text("\n".join(log_lines) + "\n")
    click.echo(f"wrote {table_path}")


@main.command("tune")
@click.option("--data", "data_path", required=True)
@click.option("--response", default=None)
@click.option("--categorical", multiple=True)
@click.option("--noise-features", default=0, show_default=True)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--machines", default=1, show_default=True)
@click.option("--step", default=1, show_default=True)
@click.option("--tau", default=0.5, show_default=True)
@click.option("--max-iter", default=50, show_default=True)
@click.option("--j-override", default=None, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--path-out", default="path.csv", show_default=True)
@click.option("--out", "out_path", default="model.json", show_default=True)
def cmd_tune(data_path, response, categorical, noise_features, standardize, machines,
             step, tau, max_iter, j_override, seed, path_out, out_path):
    """Sweep the sparsity, score by HBIC, keep the winner."""
    seed = _default_seed() if seed is None else seed
    try:
        data = _load_dataset(data_path, response, categorical, noise_features,
                             seed, standardize)
        tune = TuningConfig(step=step, machines=machines, tau=tau,
                            max_iter=max_iter, j_override=j_override)
        cap = path_cap(data, tune)
        click.echo(f"sparsity cap J = {cap} (n={data.n // machines}, p={data.p})")
        best, path = acesdar_fit(data, tune)
    except (CesdarError, OSError, ValueError) as exc:
        _fail("tune", str(exc))
    write_path_csv(path, path_out)
    payload = _model_payload(best.fit, "acesdar", machines)
    payload["selected_sparsity"] = best.sparsity
    payload["hbic"] = best.hbic
    with open(out_path, "w") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
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
@click.option("--seed", default=None, type=int)
@click.option("--out", "out_path", default="synth.bin", show_default=True)
def cmd_gen(n, p, s, signal_ratio, noise_sd, seed, out_path):
    """Emit a synthetic dataset cache plus its ground truth sidecar."""
    seed = _default_seed() if seed is None else seed
    try:
        spec = SyntheticSpec(n=n, p=p, s=s, signal_ratio=signal_ratio,
                             noise_sd=noise_sd, seed=seed)
        data, truth = generate(spec)
        save_cache(out_path, data)
        save_truth(str(out_path) + ".truth.json", truth)
    except (CesdarError, OSError, ValueError) as exc:
        _fail("gen", str(exc))
    click.echo(f"wrote {out_path} ({n} rows, {p} columns) and {out_path}.truth.json")


@main.command("ingest")
@click.option("--data", "data_path", required=True, help="CSV input.")
@click.option("--response", required=True)
@click.option("--categorical", multiple=True)
@click.option("--noise-features", default=0, show_default=True)
@click.option("--noise-seed", default=None, type=int)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--keep-all-levels", is_flag=True, default=False,
              help="Encode every categorical level instead of dropping the first.")
@click.option("--out", "out_path", default="dataset.bin", show_default=True)
def cmd_ingest(data_path, response, categorical, noise_features, noise_seed,
               standardize, keep_all_levels, out_path):
    """Ingest a CSV (dummies, noise columns, scaling) into a dataset cache."""
    noise_seed = _default_seed() if noise_seed is None else noise_seed
    try:
        data = ingest_csv(data_path, response, categorical_columns=list(categorical),
                          n_noise_features=noise_features, noise_seed=noise_seed,
                          standardize=standardize, drop_first=not keep_all_levels)
        save_cache(out_path, data)
    except (CesdarError, OSError, ValueError) as exc:
        _fail("ingest", str(exc))
    click.echo(f"wrote {out_path} ({data.n} rows, {data.p} columns)")


if __name__ == "__main__":
    main()
