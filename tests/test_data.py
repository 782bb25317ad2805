import io
import json
import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cesdar.config import ExperimentConfig
from cesdar.data import (
    CACHE_MAGIC,
    COLUMN_CACHE_MIN_COLUMNS,
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
    stream_rng,
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


def test_spec_with_signal_at_p1_is_rejected():
    # At p=1 the signal floor sqrt(2 log(p)/n) is 0, so the truth would list
    # a support whose values are all exactly 0.
    with pytest.raises(ConfigurationError, match=re.escape("s=1 needs p >= 2")):
        SyntheticSpec(n=10, p=1, s=1, seed=0)
    assert generate(SyntheticSpec(n=10, p=1, s=0, seed=0))[1].support.size == 0


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


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), p=st.one_of(st.integers(1, 40), st.integers(512, 540)),
       skip=st.integers(0, 5), order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.lists(st.integers(0, 539), max_size=40), min_size=1, max_size=8))
@example(n=3, p=512, skip=0, order="C", seed=0,
         picks=[list(range(40)), list(range(30, 70)), [69, 70, 5]])  # reaches the limit, 64
def test_cached_columns_are_the_gathered_columns(n, p, skip, order, seed, picks):
    # A shard view of a C- or F-ordered X; every gather, cached, added to the
    # cache, past its limit or from an X too narrow to cache, has the values,
    # shape and strides of x[:, cols], so BLAS products with it have the
    # same bits. Asked again at once, an X too narrow to cache hands back
    # the same read-only block.
    rng = np.random.default_rng(seed)
    x = np.asarray(rng.standard_normal((skip + n, p)), order=order)
    data = Dataset(x, rng.standard_normal(skip + n)).row_slice(skip, skip + n)
    for pick in picks:
        cols = np.array([c % p for c in pick], dtype=np.int64)
        got, want = data.columns(cols), data.x[:, cols]
        again = data.columns(cols.copy())
        assert np.array_equal(again, want)
        if p < COLUMN_CACHE_MIN_COLUMNS:
            assert again is got and not got.flags.writeable
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)
        v = rng.standard_normal(cols.size)
        assert np.array_equal(got @ v, want @ v)
        assert np.array_equal(got.T @ got, want.T @ want)
        assert data._column_count <= (p // 8 if p >= COLUMN_CACHE_MIN_COLUMNS else 0)


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


@pytest.mark.parametrize("body,response,categorical,problem", [
    ("a,b,a,y\n1,2,3,4\n2,3,1,5\n", "y", [], "the header repeats column 'a'"),
    (CSV_BODY, "price", ["color", "color"], "two columns of X would be named 'color=green'"),
    ("c,c=z,y\nx,1,1\nz,0,2\n", "y", ["c"], "two columns of X would be named 'c=z'"),
    (CSV_BODY, "price", ["price"], "response column 'price' cannot be categorical"),
], ids=["repeated_header", "repeated_categorical", "numeric_named_like_dummy",
        "categorical_response"])
def test_ingest_rejects_shared_names(tmp_path, body, response, categorical, problem):
    # Each would give X a column that copies another column or the response.
    with pytest.raises(IngestError, match=re.escape(f"data.csv: {problem}")):
        ingest_csv(write_csv(tmp_path, body), response, categorical_columns=categorical,
                   standardize=False)


def test_ingest_constant_column_named(tmp_path):
    body = "a,c,y\n1,5,1\n2,5,2\n3,5,3\n"
    with pytest.raises(DegenerateColumnError, match="'c'"):
        ingest_csv(write_csv(tmp_path, body), "y", standardize=True)


@pytest.mark.parametrize("body,problem", [
    ("a,c,y\n1,5,1\n2,5,2\n3,5,3\n", "column 'c' is constant"),
    ("a,c,y\n1,5,4\n2,6,4\n3,5,4\n", "the response is constant"),
], ids=["column", "response"])
def test_ingest_constant_names_the_path(tmp_path, body, problem):
    with pytest.raises(DegenerateColumnError, match=re.escape(f"data.csv: {problem}")):
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


def _reference_split(data, n_train, seed):
    """The split formula, kept here: (x, y, scaling) of both halves, the
    standardized ones scaled by the training rows' statistics."""
    perm = stream_rng(seed, "split").permutation(data.n)
    halves = [(data.x[rows], data.y[rows])
              for rows in (np.sort(perm[:n_train]), np.sort(perm[n_train:]))]
    if not data.standardized:
        return [(x, y, (None, None, None, None)) for x, y in halves]
    x_tr, y_tr = halves[0]
    means = x_tr.mean(axis=0)
    centered = x_tr - means
    scales = np.sqrt(np.einsum("ij,ij->j", centered, centered) / n_train)
    y_mean = float(y_tr.mean())
    y_scale = float(np.sqrt(((y_tr - y_mean) ** 2).mean()))
    return [((x - means) / scales, (y - y_mean) / y_scale, (means, scales, y_mean, y_scale))
            for x, y in halves]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 40), p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       standardized=st.booleans(), data=st.data())
def test_split_halves_are_the_reference_bitwise(n, p, seed, standardized, data):
    rng = np.random.default_rng(seed)
    scaling = dict(standardized=True, column_means=rng.standard_normal(p),
                   column_scales=rng.uniform(0.5, 2.0, p)) if standardized else {}
    dataset = Dataset(rng.standard_normal((n, p)), rng.standard_normal(n), **scaling)
    n_train = data.draw(st.integers(2, n - 1))
    halves = split(dataset, n_train, seed)
    for half, (x, y, (means, scales, y_mean, y_scale)) in zip(
            halves, _reference_split(dataset, n_train, seed)):
        assert half.standardized == standardized
        assert half.x.tobytes() == x.tobytes() and half.y.tobytes() == y.tobytes()
        for got, want in ((half.column_means, means), (half.column_scales, scales)):
            assert (got is None) == (want is None)
            assert want is None or got.tobytes() == want.tobytes()
        assert (half.y_mean, half.y_scale) == (y_mean, y_scale)


def test_split_names_a_column_constant_on_either_half():
    # With n_train = n - 1 one row is held out, and the dummy is 1 there
    # only, so it is 0 on every training row.
    n, seed = 8, 4
    held_out = stream_rng(seed, "split").permutation(n)[-1]
    rng = np.random.default_rng(3)
    x = np.column_stack([rng.standard_normal(n), (np.arange(n) == held_out).astype(float)])
    y, names = rng.standard_normal(n), ["a", "size=XL"]
    standardized = Dataset(x, y, names, standardized=True, column_means=np.zeros(2),
                           column_scales=np.ones(2))
    with pytest.raises(DegenerateColumnError,
                       match=re.escape("training rows: column 'size=XL' is constant")) as info:
        split(standardized, n - 1, seed)
    assert info.value.column == "size=XL"
    with pytest.raises(DegenerateColumnError, match=re.escape("column 1 ('size=XL') has zero")):
        split(Dataset(x, y, names), n - 1, seed)


@pytest.mark.parametrize("payload,problem", [
    ({"dim": 8, "support": [4, 1], "values": [1.0, 2.0]}, "strictly increasing"),
    ({"dim": 8, "support": [1, 4], "values": [1.0, float("nan")]}, "finite"),
    ({"dim": 8, "support": [1, 4]}, "truth has no 'values' key"),
], ids=["unsorted", "non_finite", "missing_key"])
def test_load_truth_rejects_invalid(tmp_path, payload, problem):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(IngestError, match=rf"t\.json: .*{problem}"):
        load_truth(path)


# The two examples are the former fixed cases: a 30x8 plain dataset with its
# truth file, and a 12x3 standardized one with response scaling.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 30), names=st.lists(st.text(), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), standardized=st.booleans(), y_scaled=st.booleans())
@example(n=30, names=[f"x{j}" for j in range(8)], seed=10, standardized=False, y_scaled=False)
@example(n=12, names=["x0", "x1", "x2"], seed=0, standardized=True, y_scaled=True)
@example(n=1, names=["", "\u00e9", "\u6570\u636e", "\U0001f600"], seed=1,
         standardized=True, y_scaled=False)
def test_cache_round_trip_bit_exact(tmp_path, n, names, seed, standardized, y_scaled):
    p = len(names)
    plain, truth = generate(SyntheticSpec(n=n, p=p, s=min(2, p) if p > 1 else 0, seed=seed))
    rng = np.random.default_rng(seed)
    scaling = dict(column_means=rng.standard_normal(p), column_scales=rng.uniform(0.5, 2.0, p))
    if y_scaled:
        scaling.update(y_mean=float(rng.standard_normal()), y_scale=float(rng.uniform(0.5, 2.0)))
    data = Dataset(plain.x, plain.y, names, standardized=standardized, **scaling)
    path = tmp_path / "d.bin"
    save_cache(path, data)
    loaded = load_cache(path)
    assert np.array_equal(loaded.x, data.x) and np.array_equal(loaded.y, data.y)
    assert loaded.feature_names == names
    assert loaded.standardized == standardized
    if standardized:
        assert np.array_equal(loaded.column_means, data.column_means)
        assert np.array_equal(loaded.column_scales, data.column_scales)
    else:
        assert loaded.column_means is None and loaded.column_scales is None
    assert (loaded.y_mean, loaded.y_scale) == (data.y_mean, data.y_scale)

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


@pytest.mark.parametrize("scaling,problem", [
    (dict(standardized=True), "needs 3 column_means and column_scales"),
    (dict(standardized=True, column_means=np.zeros(3), column_scales=np.ones(2)),
     "needs 3 column_means and column_scales"),
    (dict(y_mean=0.5), "y_mean and y_scale must be given together"),
    (dict(y_scale=2.0), "y_mean and y_scale must be given together"),
], ids=["standardized_without_stats", "short_scales", "y_mean_alone", "y_scale_alone"])
@pytest.mark.parametrize("validate", [True, False], ids=["checked", "shard"])
def test_dataset_rejects_inconsistent_scaling(scaling, problem, validate):
    # Such a dataset used to be accepted, and save_cache then wrote a file
    # load_cache rejects or died with struct.error.
    x = np.random.default_rng(0).standard_normal((6, 3))
    with pytest.raises(ValueError, match=problem):
        Dataset(x, x[:, 0], _validate=validate, **scaling)


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


def _reference_cache_bytes(data):
    """CSDR1 bytes as the format's first writer wrote them: field by field,
    with one write per name length and per name."""
    out = io.BytesIO()
    out.write(CACHE_MAGIC)
    out.write(struct.pack("<QQ", data.n, data.p))
    out.write(np.ascontiguousarray(data.x, dtype="<f8"))
    out.write(np.ascontiguousarray(data.y, dtype="<f8"))
    out.write(struct.pack("<I", len(data.feature_names)))
    for name in data.feature_names:
        raw = name.encode("utf-8")
        out.write(struct.pack("<I", len(raw)))
        out.write(raw)
    if data.standardized:
        out.write(b"\x01")
        out.write(np.ascontiguousarray(data.column_means, dtype="<f8"))
        out.write(np.ascontiguousarray(data.column_scales, dtype="<f8"))
    else:
        out.write(b"\x00")
    if data.y_mean is not None:
        out.write(b"\x01")
        out.write(struct.pack("<dd", data.y_mean, data.y_scale))
    else:
        out.write(b"\x00")
    return out.getvalue()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 6), names=st.lists(st.text(max_size=8), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), standardized=st.booleans(), y_scaled=st.booleans())
@example(n=2, names=["", "\u00e9", "\u6570\u636e", "\U0001f600", ""], seed=0,
         standardized=True, y_scaled=True)
def test_save_cache_writes_the_reference_bytes(tmp_path, n, names, seed, standardized,
                                               y_scaled):
    p = len(names)
    rng = np.random.default_rng(seed)
    scaling = dict(column_means=rng.standard_normal(p), column_scales=rng.uniform(0.5, 2.0, p))
    if y_scaled:
        scaling.update(y_mean=float(rng.standard_normal()), y_scale=float(rng.uniform(0.5, 2.0)))
    data = Dataset(rng.standard_normal((n, p)), rng.standard_normal(n), names,
                   standardized=standardized, **scaling)
    path = tmp_path / "d.bin"
    save_cache(path, data)
    assert path.read_bytes() == _reference_cache_bytes(data)


def test_cache_cut_at_every_byte_after_y_is_truncated(tmp_path):
    # The name table and the scaling block are read in one call, then walked
    # in memory; a cut anywhere in them names the end of the first section
    # it cuts, as when each section was read from the file.
    x = np.random.default_rng(3).standard_normal((4, 3))
    names = ["alpha", "", "\u00e9\u6570"]
    data = Dataset(x, x[:, 0], names, standardized=True, column_means=np.zeros(3),
                   column_scales=np.ones(3), y_mean=0.5, y_scale=2.0)
    path = tmp_path / "cut.bin"
    save_cache(path, data)
    blob = path.read_bytes()
    offsets, total = _cache_sections(4, 3, names)
    assert len(blob) == total
    ends = [o for o in offsets.values() if o > offsets["name_count"]] + [total]
    for size in range(offsets["name_count"], total):
        path.write_bytes(blob[:size])
        expected = min(end for end in ends if end > size)
        with pytest.raises(IngestError, match=rf"cut\.bin: truncated file: expected at least "
                                              rf"{expected} bytes, found {size}$"):
            load_cache(path)


@pytest.mark.parametrize("extra", [1, 21])
@pytest.mark.parametrize("standardized", [False, True], ids=["plain", "standardized"])
def test_cache_with_trailing_bytes_is_ingest_error(tmp_path, standardized, extra):
    # A concatenated or half-overwritten cache must not load as its first part.
    x = np.random.default_rng(5).standard_normal((4, 2))
    scaling = dict(standardized=True, column_means=np.zeros(2), column_scales=np.ones(2),
                   y_mean=0.5, y_scale=2.0) if standardized else {}
    path = tmp_path / "tail.bin"
    save_cache(path, Dataset(x, x[:, 0], **scaling))
    path.write_bytes(path.read_bytes() + b"\x01" * extra)
    with pytest.raises(IngestError, match=rf"tail\.bin: {extra} bytes after the cache's end$"):
        load_cache(path)


def test_cache_cut_while_read_is_ingest_error(tmp_path, monkeypatch):
    # load_cache checks sections against the size the file had when it was
    # opened; a file cut after that must not leave X partly uninitialised,
    # nor the name table, which is read with the rest of the file in one call.
    import cesdar.data

    x = np.random.default_rng(2).standard_normal((6, 2))
    path = tmp_path / "cut.bin"
    save_cache(path, Dataset(x, x[:, 1], ["alpha", "beta"]))
    blob = path.read_bytes()
    offsets, _ = _cache_sections(6, 2, ["alpha", "beta"])
    monkeypatch.setattr(cesdar.data.os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
    for size in (60, offsets["name0_bytes"] + 2):  # inside X, inside the name table
        path.write_bytes(blob[:size])
        with pytest.raises(IngestError, match=r"cut\.bin: the file shrank while it was read"):
            load_cache(path)


def test_dataset_rejects_zero_norm_column():
    with pytest.raises(DegenerateColumnError):
        Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.ones(2))


def test_dataset_rejects_underflowing_curvature():
    # Column 3's squared norm is positive, but divided by n=40 it rounds to 0,
    # so an unchecked fit would get d[3] = inf and NaN detection keys.
    x = np.random.default_rng(0).standard_normal((40, 6))
    x[:, 3] = 0.0
    x[7, 3] = 5e-162
    assert x[:, 3] @ x[:, 3] > 0.0
    with pytest.raises(DegenerateColumnError, match=r"column 3 \('x3'\) has zero curvature") as err:
        Dataset(x, x[:, 0])
    assert err.value.column == "x3"


def test_dataset_rejects_overflowing_curvature():
    # Column 5's entries are finite but its squared norm overflows: its
    # detection key would be sqrt(inf) * 0 = NaN, which never reaches the
    # threshold, so every fit would silently lose a slot of its active set.
    data, _ = generate(SyntheticSpec(n=200, p=20, s=3, seed=1))
    x = data.x.copy()
    x[:, 5] *= 1e200
    assert np.isfinite(x).all()
    with pytest.raises(DegenerateColumnError,
                       match=r"column 5 \('x5'\) has infinite curvature") as err:
        Dataset(x, data.y)
    assert err.value.column == "x5"


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[1.0], [np.inf]]), np.ones(2))


def _two_pass_verdict(x, y, names):
    """The validation rule as two passes: an entrywise scan of X, then the
    curvature. ``(type, message, column)`` of the error, or None."""
    if not np.all(np.isfinite(x)):
        return ValueError, "design matrix contains non-finite entries", None
    if not np.all(np.isfinite(y)):
        return ValueError, "response contains non-finite entries", None
    curvature = np.einsum("ij,ij->j", x, x) / x.shape[0]
    bad = np.flatnonzero((curvature == 0.0) | (curvature == np.inf))
    if bad.size:
        name = names[bad[0]]
        state = "zero" if curvature[bad[0]] == 0.0 else "infinite"
        return DegenerateColumnError, f"column {bad[0]} ({name!r}) has {state} curvature", name
    return None


_EDITS = st.tuples(st.sampled_from(["x", "y", "column"]), st.integers(0, 2**16),
                   st.integers(0, 2**16),
                   st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200, 1e-170, 5e-162]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 24), p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       edits=st.lists(_EDITS, max_size=4))
@example(n=3, p=2, seed=0, edits=[("x", 0, 1, 1e200), ("column", 1, 0, -1e200)])
@example(n=3, p=2, seed=0, edits=[("x", 0, 1, 1e200), ("x", 2, 1, np.nan)])
@example(n=40, p=2, seed=0, edits=[("column", 7, 0, 5e-162)])
@example(n=4, p=3, seed=1, edits=[("column", 0, 2, 1e-170), ("y", 3, 0, -np.inf)])
def test_one_pass_validation_matches_two_passes(n, p, seed, edits):
    # Cells of X or y set to NaN, +-inf, +-1e200 (whose square overflows) or
    # a value whose square underflows, alone in a column of zeros or not.
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
    for target, row, col, value in edits:
        if target == "column":
            x[:, col % p] = 0.0
        if target == "y":
            y[row % n] = value
        else:
            x[row % n, col % p] = value
    names = [f"c{j}" for j in range(p)]
    expected = _two_pass_verdict(x, y, names)
    if expected is None:
        data = Dataset(x, y, names)
        assert np.array_equal(data.column_curvature(), np.einsum("ij,ij->j", x, x) / n)
        return
    kind, message, column = expected
    with pytest.raises((ValueError, DegenerateColumnError)) as err:
        Dataset(x, y, names)
    assert type(err.value) is kind and str(err.value) == message
    assert getattr(err.value, "column", None) == column


def test_dataset_rejects_zero_rows():
    # Its curvature would be 0/0 = NaN, and a fit would run on it.
    with pytest.raises(ValueError, match=r"dataset has no rows: X \(0, 3\)"):
        Dataset(np.empty((0, 3)), np.empty(0))


def test_cache_without_rows_is_ingest_error(tmp_path):
    path = tmp_path / "empty.bin"
    save_cache(path, Dataset(np.empty((0, 3)), np.empty(0), _validate=False))
    with pytest.raises(IngestError, match=r"empty\.bin: the cache holds no rows"):
        load_cache(path)


def test_experiment_config_round_trip():
    cfg = example_config(2, machines=4, replicates=7, base_seed=3)
    text = cfg.to_json()
    back = ExperimentConfig.from_json(text)
    assert back == cfg
    assert back.to_json() == text


def test_experiment_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown"):
        ExperimentConfig.from_json('{"bogus": 1}')
