import math

import numpy as np
import pytest

from cesdar.config import ExperimentConfig
from cesdar.data import (
    Dataset,
    SyntheticSpec,
    example_config,
    example_grid,
    generate,
    generate_test,
    ingest_csv,
    load_cache,
    load_truth,
    save_cache,
    save_truth,
    split,
)
from cesdar.exceptions import ConfigurationError, DegenerateColumnError, IngestError


def test_signal_floor_hand_value():
    spec = SyntheticSpec(n=100_000, p=500, s=10)
    assert spec.signal_floor == pytest.approx(0.011149, abs=1e-6)
    assert spec.signal_cap == pytest.approx(20 * 0.011149, abs=2e-5)


def test_generate_deterministic_bitwise():
    spec = SyntheticSpec(n=200, p=30, s=4, seed=42)
    d1, t1 = generate(spec)
    d2, t2 = generate(spec)
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
    assert np.array_equal(t1.support, t2.support)
    assert np.array_equal(t1.values, t2.values)


def test_generate_zero_noise_zero_signal():
    data, truth = generate(SyntheticSpec(n=50, p=10, s=0, noise_sd=0.0, seed=1))
    assert np.array_equal(data.y, np.zeros(50))
    assert truth.support.size == 0


def test_generate_truth_shape_and_range():
    spec = SyntheticSpec(n=500, p=60, s=7, seed=5)
    _, truth = generate(spec)
    assert truth.support.size == 7
    assert np.all(np.diff(truth.support) > 0)
    assert np.all(truth.values >= spec.signal_floor)
    assert np.all(truth.values <= spec.signal_cap)


def test_generate_column_moment_bands():
    n = 2000
    data, _ = generate(SyntheticSpec(n=n, p=20, s=3, seed=9))
    means = data.x.mean(axis=0)
    variances = data.x.var(axis=0)
    assert np.abs(means).max() <= 4.0 / math.sqrt(n)
    assert np.abs(variances - 1.0).max() <= 4.0 * math.sqrt(2.0 / n)


def test_generate_test_shares_truth():
    spec = SyntheticSpec(n=100, p=15, s=3, noise_sd=0.0, seed=2)
    data, truth = generate(spec)
    test = generate_test(spec, truth, 40)
    assert test.n == 40
    # noiseless: the test response is exactly X_test beta*
    assert np.allclose(test.y, test.x[:, truth.support] @ truth.values)
    assert not np.array_equal(test.x[:5], data.x[:5])


def test_example_config_values():
    cfg = example_config(1, machines=8)
    assert (cfg.n, cfg.p, cfg.s, cfg.sparsity) == (100_000, 500, 10, 10)
    assert cfg.machines == 8 and cfg.tau == 0.5 and cfg.signal_ratio == 20.0
    cfg2 = example_config(2, machines=16)
    assert (cfg2.n, cfg2.p, cfg2.s, cfg2.sparsity) == (5000, 10_000, 10, 10)
    cfg3 = example_config(3, p=4000)
    assert cfg3.p == 4000 and cfg3.machines == 5
    assert example_grid(3)["sparsity"] == tuple(range(2, 21, 2))


def test_example_config_rejects_bad_example():
    with pytest.raises(ConfigurationError):
        example_config(9)


def test_example_config_scale_recorded():
    cfg = example_config(1, scale=0.2, machines=4)
    assert cfg.scale == 0.2
    assert cfg.n == 20_000 and cfg.p == 100


def test_example_config_rejects_off_grid_knob():
    with pytest.raises(ConfigurationError):
        example_config(1, machines=3)


CSV_BODY = """id,color,amount,price
1,red,2.5,10.0
2,blue,1.0,20.5
3,red,3.5,30.0
4,green,0.5,40.5
"""


def write_csv(tmp_path, body=CSV_BODY):
    path = tmp_path / "data.csv"
    path.write_text(body)
    return path


def test_ingest_dummy_encoding_drop_first(tmp_path):
    data = ingest_csv(write_csv(tmp_path), "price", categorical_columns=["color"],
                      standardize=False)
    # levels sorted: blue, green, red; drop-first removes blue
    assert data.feature_names == ["id", "amount", "color=green", "color=red"]
    assert np.array_equal(data.x[:, 2], [0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(data.x[:, 3], [1.0, 0.0, 1.0, 0.0])


def test_ingest_keep_all_levels(tmp_path):
    data = ingest_csv(write_csv(tmp_path), "price", categorical_columns=["color"],
                      standardize=False, drop_first=False)
    assert data.feature_names == ["id", "amount", "color=blue", "color=green", "color=red"]


def test_ingest_two_level_categorical_single_dummy(tmp_path):
    body = "a,b,y\n1,x,1\n2,z,2\n3,x,3\n"
    data = ingest_csv(write_csv(tmp_path, body), "y", categorical_columns=["b"],
                      standardize=False)
    assert data.feature_names == ["a", "b=z"]


def test_ingest_standardizes_to_unit_variance(tmp_path):
    data = ingest_csv(write_csv(tmp_path), "price", categorical_columns=["color"],
                      n_noise_features=3, noise_seed=4, standardize=True)
    assert data.p == 4 + 3
    assert np.abs(data.x.mean(axis=0)).max() <= 1e-12
    assert np.abs(data.x.var(axis=0) - 1.0).max() <= 1e-12
    assert abs(data.y.mean()) <= 1e-12


def test_standardization_is_idempotent(tmp_path):
    data = ingest_csv(write_csv(tmp_path), "price", categorical_columns=["color"],
                      standardize=True)
    again = (data.x - data.x.mean(axis=0)) / np.sqrt(data.x.var(axis=0))
    assert np.abs(again - data.x).max() <= 1e-12


def test_ingest_unparseable_cell_names_row(tmp_path):
    body = "a,y\n1,2\noops,3\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest_csv(write_csv(tmp_path, body), "y", standardize=False)


def test_ingest_missing_response(tmp_path):
    with pytest.raises(IngestError, match="nope"):
        ingest_csv(write_csv(tmp_path), "nope")


def test_ingest_constant_column_named(tmp_path):
    body = "a,c,y\n1,5,1\n2,5,2\n3,5,3\n"
    with pytest.raises(DegenerateColumnError, match="'c'"):
        ingest_csv(write_csv(tmp_path, body), "y", standardize=True)


def test_ingest_noise_features_seeded(tmp_path):
    d1 = ingest_csv(write_csv(tmp_path), "price", categorical_columns=["color"],
                    n_noise_features=2, noise_seed=7, standardize=False)
    d2 = ingest_csv(write_csv(tmp_path), "price", categorical_columns=["color"],
                    n_noise_features=2, noise_seed=7, standardize=False)
    assert np.array_equal(d1.x, d2.x)


def test_split_sizes_and_boundary():
    data, _ = generate(SyntheticSpec(n=50, p=5, s=2, seed=3))
    train, test = split(data, 30, seed=1)
    assert (train.n, test.n) == (30, 20)
    train2, test2 = split(data, 49, seed=1)
    assert test2.n == 1
    with pytest.raises(ValueError):
        split(data, 50, seed=1)


def test_split_deterministic_and_partitioning():
    data, _ = generate(SyntheticSpec(n=40, p=4, s=2, seed=8))
    a = split(data, 25, seed=9)
    b = split(data, 25, seed=9)
    assert np.array_equal(a[0].x, b[0].x) and np.array_equal(a[1].x, b[1].x)
    rows = np.vstack([a[0].x, a[1].x])
    assert np.array_equal(
        rows[np.lexsort(rows.T)], data.x[np.lexsort(data.x.T)]
    )


def test_split_uses_train_statistics(tmp_path):
    data = ingest_csv(write_csv(tmp_path), "price", categorical_columns=["color"],
                      standardize=True)
    train, test = split(data, 3, seed=2)
    assert np.abs(train.x.mean(axis=0)).max() <= 1e-12
    assert np.array_equal(train.column_means, test.column_means)
    # test rows are scaled by train statistics, not their own
    assert np.abs(test.x.mean(axis=0)).max() > 1e-6


def test_cache_round_trip_bit_exact(tmp_path):
    data, truth = generate(SyntheticSpec(n=30, p=8, s=2, seed=10))
    path = tmp_path / "d.bin"
    save_cache(path, data)
    loaded = load_cache(path)
    assert np.array_equal(loaded.x, data.x)
    assert np.array_equal(loaded.y, data.y)
    assert loaded.feature_names == data.feature_names
    assert loaded.standardized == data.standardized

    tpath = tmp_path / "t.json"
    save_truth(tpath, truth)
    back = load_truth(tpath)
    assert np.array_equal(back.support, truth.support)
    assert np.array_equal(back.values, truth.values)


def test_cache_round_trip_standardized(tmp_path):
    x = np.random.default_rng(0).standard_normal((12, 3))
    data = Dataset(x, x[:, 0] * 2.0, standardized=True,
                   column_means=np.zeros(3), column_scales=np.ones(3),
                   y_mean=0.5, y_scale=2.0)
    path = tmp_path / "s.bin"
    save_cache(path, data)
    loaded = load_cache(path)
    assert loaded.standardized
    assert np.array_equal(loaded.column_means, data.column_means)
    assert (loaded.y_mean, loaded.y_scale) == (0.5, 2.0)


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(IngestError, match="magic"):
        load_cache(path)


def _cache_sections(n, p, names):
    """Byte offset where each section of a standardized cache starts."""
    offsets = {"dims": 5, "x": 21, "y": 21 + 8 * n * p, "name_count": 21 + 8 * n * (p + 1)}
    off = offsets["name_count"] + 4
    for j, name in enumerate(names):
        offsets[f"name{j}_length"] = off
        offsets[f"name{j}_bytes"] = off + 4
        off += 4 + len(name.encode("utf-8"))
    offsets["scaling_flag"] = off
    offsets["means"] = off + 1
    offsets["scales"] = off + 1 + 8 * p
    offsets["response_flag"] = off + 1 + 16 * p
    offsets["response_scaling"] = off + 2 + 16 * p
    return offsets, off + 18 + 16 * p


@pytest.mark.parametrize("section", [
    "dims", "x", "y", "name_count", "name0_length", "name0_bytes", "name1_length",
    "scaling_flag", "means", "scales", "response_flag", "response_scaling",
    "inside_name_count", "inside_name_bytes",
])
def test_truncated_cache_is_ingest_error(tmp_path, section):
    x = np.random.default_rng(1).standard_normal((6, 2))
    data = Dataset(x, x[:, 0], feature_names=["alpha", "beta"], standardized=True,
                   column_means=np.zeros(2), column_scales=np.ones(2),
                   y_mean=0.5, y_scale=2.0)
    path = tmp_path / "cut.bin"
    save_cache(path, data)
    blob = path.read_bytes()
    offsets, total = _cache_sections(6, 2, data.feature_names)
    assert len(blob) == total
    inside = {"inside_name_count": offsets["name_count"] + 2,
              "inside_name_bytes": offsets["name0_bytes"] + 3}
    size = inside.get(section, offsets.get(section))
    path.write_bytes(blob[:size])
    with pytest.raises(IngestError, match=rf"cut\.bin: truncated file: expected at least "
                                          rf"\d+ bytes, found {size}$"):
        load_cache(path)


def test_dataset_rejects_zero_norm_column():
    with pytest.raises(DegenerateColumnError):
        Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.ones(2))


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[1.0], [np.inf]]), np.ones(2))


def test_experiment_config_round_trip():
    cfg = example_config(2, machines=4, replicates=7, base_seed=3)
    text = cfg.to_json()
    back = ExperimentConfig.from_json(text)
    assert back == cfg
    assert back.to_json() == text


def test_experiment_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown"):
        ExperimentConfig.from_json('{"bogus": 1}')
