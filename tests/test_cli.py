import json

import numpy as np
import pytest
from click.testing import CliRunner

from cesdar.cli import main
from cesdar.data import Dataset, load_cache, save_cache
from cesdar.metrics import SOLVERS


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def gen_cache(runner, tmp_path, n=300, p=20, s=3, seed=5):
    out = tmp_path / "synth.bin"
    result = run(runner, ["gen", "--n", str(n), "--p", str(p), "--s", str(s),
                          "--seed", str(seed), "--out", str(out)])
    assert result.exit_code == 0
    return out


def test_gen_writes_cache_and_truth(runner, tmp_path):
    out = gen_cache(runner, tmp_path)
    data = load_cache(out)
    assert (data.n, data.p) == (300, 20)
    truth = json.loads((tmp_path / "synth.bin.truth.json").read_text())
    assert len(truth["support"]) == 3


def test_fit_on_cache(runner, tmp_path):
    cache = gen_cache(runner, tmp_path)
    model = tmp_path / "model.json"
    result = run(runner, ["fit", "--algo", "cesdar", "--machines", "4",
                          "--sparsity", "3", "--data", str(cache), "--out", str(model)])
    assert result.exit_code == 0
    payload = json.loads(model.read_text())
    assert payload["dim"] == 20
    assert len(payload["support"]) == 3
    assert payload["converged"] is True
    assert payload["ledger"]["total_bytes"] > 0


def test_fit_esdar_on_csv(runner, tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 4))
    y = 2.0 * x[:, 1] + 0.05 * rng.standard_normal(60)
    csv_path = tmp_path / "d.csv"
    header = "a,b,c,d,y\n"
    rows = "".join(
        ",".join(repr(float(v)) for v in row) + f",{float(resp)!r}\n"
        for row, resp in zip(x, y)
    )
    csv_path.write_text(header + rows)
    model = tmp_path / "m.json"
    result = run(runner, ["fit", "--algo", "esdar", "--sparsity", "1",
                          "--data", str(csv_path), "--response", "y",
                          "--out", str(model)])
    assert result.exit_code == 0
    payload = json.loads(model.read_text())
    assert payload["support"] == [1]


def test_esdar_model_records_one_machine(runner, tmp_path):
    cache = gen_cache(runner, tmp_path)
    model = tmp_path / "m.json"
    result = run(runner, ["fit", "--algo", "esdar", "--machines", "4", "--sparsity", "3",
                          "--data", str(cache), "--out", str(model)])
    assert result.exit_code == 0
    payload = json.loads(model.read_text())
    assert payload["machines"] == 1
    assert payload["ledger"] == {"messages": 0, "total_bytes": 0, "worker_to_master_bytes": 0}


def test_fit_missing_file_is_exit_1(runner, tmp_path):
    result = runner.invoke(main, ["fit", "--data", str(tmp_path / "nope.bin")])
    assert result.exit_code == 1
    assert "error: fit:" in result.output
    assert "nope.bin" in result.output


def test_fit_truncated_cache_is_exit_1(runner, tmp_path):
    cache = gen_cache(runner, tmp_path, n=30, p=4)
    name_count = 21 + 8 * 30 * 5
    cache.write_bytes(cache.read_bytes()[:name_count + 2])
    result = runner.invoke(main, ["fit", "--data", str(cache)])
    assert result.exit_code == 1
    assert result.output.startswith("error: fit: ")
    assert "truncated file" in result.output and "Traceback" not in result.output


def test_fit_cache_without_rows_is_exit_1(runner, tmp_path):
    # Such a cache once gave a "converged" model with an empty support.
    cache = tmp_path / "empty.bin"
    save_cache(cache, Dataset(np.empty((0, 3)), np.empty(0), _validate=False))
    model = tmp_path / "m.json"
    result = runner.invoke(main, ["fit", "--algo", "esdar", "--sparsity", "1",
                                  "--data", str(cache), "--out", str(model)])
    assert result.exit_code == 1
    assert result.output == f"error: fit: {cache}: the cache holds no rows\n"
    assert not model.exists()


@pytest.mark.parametrize("args,problem", [
    (["fit", "--algo", "nope", "--data", "d.bin"], "Invalid value for '--algo'"),
    (["fit", "--algo", "acesdar", "--data", "d.bin"], "Invalid value for '--algo'"),
    (["fit"], "Missing option '--data'"),
    (["tune", "--step", "abc", "--data", "d.bin"], "Invalid value for '--step'"),
    (["bench", "--example", "1", "--machines", "abc"], "Invalid value for '--machines'"),
], ids=["unknown_algo", "acesdar_is_tune", "no_data", "step_not_integer", "machines_not_integers"])
def test_usage_error_is_one_line_exit_1(runner, args, problem):
    # Exit 2 is reserved for a fit that did not converge.
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith(f"error: usage: {problem}")
    assert result.output.count("\n") == 1


def test_bad_env_seed_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["gen", "--out", str(tmp_path / "s.bin")],
                           env={"CESDAR_SEED": "abc"})
    assert result.exit_code == 1
    assert result.output.startswith("error: usage: Invalid value for '--seed'")
    assert "CESDAR_SEED" in result.output and result.output.count("\n") == 1


@pytest.mark.parametrize("command,args", [
    ("fit", ["--sparsity", "3", "--out", "{missing}/m.json"]),
    ("tune", ["--j-override", "4", "--path-out", "{missing}/p.csv", "--out", "{tmp}/m.json"]),
    ("tune", ["--j-override", "4", "--path-out", "{tmp}/p.csv", "--out", "{missing}/m.json"]),
    ("bench", ["--example", "1", "--scale", "0.1", "--replicates", "1",
               "--out-dir", "{cache}/sub"]),
    ("gen", ["--n", "50", "--p", "5", "--s", "1", "--out", "{missing}/s.bin"]),
    ("ingest", ["--response", "y", "--out", "{missing}/d.bin"]),
], ids=["fit_out", "tune_path_out", "tune_out", "bench_out_dir", "gen_out", "ingest_out"])
def test_output_write_failure_is_one_line_exit_1(runner, tmp_path, command, args):
    cache = gen_cache(runner, tmp_path)
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,b,y\n1,2,3\n2,1,4\n3,5,5\n4,4,7\n")
    data = {"fit": cache, "tune": cache, "ingest": csv_path}
    paths = {"missing": tmp_path / "missing", "tmp": tmp_path, "cache": cache}
    argv = [command] + [a.format(**paths) for a in args]
    if command in data:
        argv += ["--data", str(data[command])]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {command}: ")
    assert result.stderr.count("\n") == 1


def test_fit_csv_without_response_is_exit_1(runner, tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,y\n1,2\n")
    result = runner.invoke(main, ["fit", "--data", str(csv_path)])
    assert result.exit_code == 1
    assert "error: config:" in result.output


def test_bench_small_cell_and_determinism(runner, tmp_path):
    args = ["bench", "--example", "1", "--scale", "0.1", "--replicates", "2",
            "--algos", "cesdar", "--machines", "2", "--seed", "9"]
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert run(runner, args + ["--out-dir", str(out1)]).exit_code == 0
    assert run(runner, args + ["--out-dir", str(out2)]).exit_code == 0
    table = (out1 / "table_example1.csv").read_text().splitlines()
    assert table[0] == "M,Method,AEE(sd),APE(sd),APDR,AFDR,ORA,ANI,ART"
    assert len(table) == 2
    trials_name = "trials_ex1_cesdar_m2_p50_s10_t10.csv"
    assert (out1 / trials_name).read_bytes() == (out2 / trials_name).read_bytes()
    assert (out1 / "run.log").exists()


def test_bench_invalid_example_is_exit_1(runner):
    result = runner.invoke(main, ["bench", "--example", "9"])
    assert result.exit_code == 1
    assert "error: bench:" in result.output


def test_bench_example3_grid_axes():
    from cesdar.cli import _bench_cells

    cells = _bench_cells(3, 1.0, 1, 0, ["cesdar", "ecesdar"])
    axes = {(c.p, c.sparsity) for c in cells}
    assert axes == {(p, t) for p in range(2000, 10001, 2000) for t in range(2, 21, 2)}
    assert all(c.machines == 5 and c.n == 5000 for c in cells)
    cells4 = _bench_cells(4, 1.0, 1, 0, ["cesdar"])
    assert {(c.s, c.sparsity) for c in cells4} == \
        {(s, t) for s in range(2, 21, 2) for t in range(2, 21, 2)}


def test_bench_writes_grid_csv(runner, tmp_path):
    out = tmp_path / "g"
    result = run(runner, ["bench", "--example", "2", "--scale", "0.1",
                          "--replicates", "2", "--algos", "cesdar",
                          "--machines", "2", "--seed", "3",
                          "--out-dir", str(out)])
    assert result.exit_code == 0
    grid = (out / "grid_example2.csv").read_text().splitlines()
    assert grid[0].startswith("example,n,p,s,T,M,method")
    assert grid[1].startswith("2,500,1000,10,10,2,cesdar,")


def test_bench_from_config_file(runner, tmp_path):
    config = {
        "algorithm": "cesdar", "n": 200, "p": 20, "s": 2, "sparsity": 2,
        "machines": 2, "replicates": 2, "base_seed": 4, "n_test": 100,
    }
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bench"
    result = run(runner, ["bench", "--config", str(path), "--out-dir", str(out)])
    assert result.exit_code == 0
    assert (out / "table.csv").exists()


@pytest.mark.parametrize("config,problem", [
    ({"n": "abc"}, "'n' must be an integer, got \"abc\""),
    ({"p": 50.5}, "'p' must be an integer, got 50.5"),
    ({"replicates": True}, "'replicates' must be an integer, got true"),
], ids=["string_n", "float_p", "bool_replicates"])
def test_bench_config_with_mistyped_value_is_exit_1(runner, tmp_path, config, problem):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(main, ["bench", "--config", str(path),
                                  "--out-dir", str(tmp_path / "bench")])
    assert result.exit_code == 1
    assert result.output == f"error: bench: config key {problem}\n"
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("config,problem", [
    ({"sparsity": 0}, "sparsity must be >= 1, got 0"),
    ({"n_test": 0}, "n_test must be >= 1, got 0"),
    ({"replicates": 0}, "replicates must be >= 1, got 0"),
    ({"s": -1}, "s=-1 must lie in [0, p=100]"),
    ({"tau": 1.5}, "tau must lie in (0, 1], got 1.5"),
], ids=["sparsity", "n_test", "replicates", "s", "tau"])
def test_bench_config_out_of_range_is_exit_1(runner, tmp_path, config, problem):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"n": 200, "p": 100, "s": 2, "replicates": 1, **config}))
    result = runner.invoke(main, ["bench", "--config", str(path),
                                  "--out-dir", str(tmp_path / "bench")])
    assert result.exit_code == 1
    assert result.output == f"error: bench: {problem}\n"
    assert not (tmp_path / "bench").exists()


def test_tune_writes_path_and_model(runner, tmp_path):
    cache = gen_cache(runner, tmp_path, n=400, p=30, s=3, seed=2)
    path_csv = tmp_path / "path.csv"
    model = tmp_path / "tuned.json"
    result = run(runner, ["tune", "--data", str(cache), "--step", "2",
                          "--machines", "2", "--j-override", "8",
                          "--path-out", str(path_csv), "--out", str(model)])
    assert result.exit_code == 0
    assert "sparsity cap J = 8" in result.output
    lines = path_csv.read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "6", "8"]
    payload = json.loads(model.read_text())
    assert payload["algorithm"] == "acesdar"
    assert "selected_sparsity" in payload


def test_tune_logs_sparsity_cap_example(runner, tmp_path):
    cache = gen_cache(runner, tmp_path, n=10000, p=500, s=3, seed=3)
    result = run(runner, ["tune", "--data", str(cache), "--j-override", "6",
                          "--path-out", str(tmp_path / "p.csv"),
                          "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 0
    assert "J = 6" in result.output


def test_tune_step_zero_is_exit_1(runner, tmp_path):
    cache = gen_cache(runner, tmp_path)
    result = runner.invoke(main, ["tune", "--data", str(cache), "--step", "0"])
    assert result.exit_code == 1
    assert "error: tune:" in result.output


def test_tune_zero_machines_is_exit_1(runner, tmp_path):
    cache = gen_cache(runner, tmp_path, n=400, p=50, s=4, seed=3)
    result = runner.invoke(main, ["tune", "--data", str(cache), "--machines", "0"])
    assert result.exit_code == 1
    assert result.output == "error: tune: machines must be >= 1, got 0\n"


def test_tune_more_machines_than_rows_is_exit_1(runner, tmp_path):
    cache = gen_cache(runner, tmp_path, n=400, p=50, s=4, seed=3)
    result = runner.invoke(main, ["tune", "--data", str(cache), "--machines", "500"])
    assert result.exit_code == 1
    assert result.output == "error: tune: machines=500 exceeds the number of rows 400\n"


def test_tune_logs_cap_the_path_uses(runner, tmp_path):
    # An override above p is clamped to p by the sweep; the log says so.
    cache = gen_cache(runner, tmp_path, n=400, p=50, s=4, seed=3)
    path_csv = tmp_path / "path.csv"
    result = run(runner, ["tune", "--data", str(cache), "--j-override", "80",
                          "--step", "10", "--path-out", str(path_csv),
                          "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 0
    assert "sparsity cap J = 50 (n=400, p=50)" in result.output
    assert path_csv.read_text().splitlines()[-1].startswith("50,")


def test_ingest_round_trip(runner, tmp_path):
    csv_path = tmp_path / "raw.csv"
    csv_path.write_text("a,kind,y\n1,u,3\n2,v,4\n3,u,5\n4,w,6\n")
    out = tmp_path / "ingested.bin"
    result = run(runner, ["ingest", "--data", str(csv_path), "--response", "y",
                          "--categorical", "kind", "--noise-features", "2",
                          "--out", str(out)])
    assert result.exit_code == 0
    data = load_cache(out)
    assert data.p == 1 + 2 + 2  # numeric + two dummies (drop-first) + noise
    assert data.standardized


def test_env_seed_is_default(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("CESDAR_SEED", "77")
    out_a = tmp_path / "a.bin"
    assert run(runner, ["gen", "--n", "50", "--p", "5", "--s", "1",
                        "--out", str(out_a)]).exit_code == 0
    out_b = tmp_path / "b.bin"
    assert run(runner, ["gen", "--n", "50", "--p", "5", "--s", "1", "--seed", "77",
                        "--out", str(out_b)]).exit_code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fit_nonconvergence_exit_2(runner, tmp_path, monkeypatch):
    cache = gen_cache(runner, tmp_path)
    real = SOLVERS["cesdar"]

    def never_converges(data, machines, cfg, **kwargs):
        result = real(data, machines, cfg, **kwargs)
        result.converged = False
        return result

    monkeypatch.setitem(SOLVERS, "cesdar", never_converges)
    model = tmp_path / "m.json"
    result = runner.invoke(main, ["fit", "--algo", "cesdar", "--sparsity", "3",
                                  "--data", str(cache), "--out", str(model)])
    assert result.exit_code == 2
    assert model.exists()  # model still written on warning exit
