"""Datasets: synthetic generation, CSV ingestion, splitting, and caching.

All randomness flows through numpy's PCG64 with named streams so that any
experiment is replayable from a single integer seed:

    stream 0  synthetic design/signal/noise draws
    stream 1  fresh test-set draws for a given ground truth
    stream 2  train/test row splits
    stream 3  appended noise features during ingestion
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .exceptions import ConfigurationError, DegenerateColumnError, IngestError

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "SparseCoefficients",
    "generate",
    "generate_test",
    "example_config",
    "example_grid",
    "ingest_csv",
    "split",
    "save_cache",
    "load_cache",
]

_STREAMS = {"data": 0, "test": 1, "split": 2, "noise": 3}

# Narrowest X (columns, 4 KB of float64 per row) whose gathered columns
# Dataset.columns caches. A gather of |A| columns from a row of 64 or more
# cache lines reads a few scattered lines of each row, and the cache pays:
# on acesdar_path (2000x4000) task_s_p50 fell by about a quarter. From
# narrower rows a gather reads a larger share of each row's lines; on
# tall_fit (20000x100, 13 lines a row) the cache gained nothing, and its
# benchmark runs spread twice as widely as without it.
COLUMN_CACHE_MIN_COLUMNS = 512

CACHE_MAGIC = b"CSDR1"


def stream_rng(seed: int, kind: str) -> np.random.Generator:
    """Named deterministic substream of the given base seed."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAMS[kind])))
    )


class Dataset:
    """Dense design matrix X (n x p) with response y and column names.

    Rejects zero rows, non-finite entries and columns whose curvature is
    zero or overflows at construction in one pass over X, scanning X
    entrywise only when a curvature is not finite, so the solvers never
    re-validate; shards carry only their rows and names. ``column_curvature``
    (squared column norms over n) is cached, as are the columns ``columns``
    has gathered; neither depends on an iterate, and X is never mutated.
    """

    def __init__(self, x, y, feature_names=None, standardized=False,
                 column_means=None, column_scales=None, y_mean=None, y_scale=None,
                 _validate=True):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"incompatible shapes X {self.x.shape}, y {self.y.shape}")
        if feature_names is None:
            feature_names = [f"x{j}" for j in range(self.x.shape[1])]
        if len(feature_names) != self.x.shape[1]:
            raise ValueError("feature_names length does not match the number of columns")
        self.feature_names = list(feature_names)
        self.standardized = bool(standardized)
        self.column_means = None if column_means is None else np.asarray(column_means, float)
        self.column_scales = None if column_scales is None else np.asarray(column_scales, float)
        self.y_mean = y_mean
        self.y_scale = y_scale
        if self.standardized and not np.shape(column_means) == np.shape(column_scales) == (self.p,):
            raise ValueError(f"standardized data needs {self.p} column_means and column_scales")
        if (y_mean is None) != (y_scale is None):
            raise ValueError("y_mean and y_scale must be given together")
        self._curvature = None
        self._column_slot = self._column_rows = None  # see columns
        self._column_count = 0
        self._last_key = self._last_block = None
        if _validate:
            self._validate()

    def _validate(self):
        if self.n < 1:  # the curvature would be 0/0
            raise ValueError(f"dataset has no rows: X {self.x.shape}")
        # A NaN or inf entry makes its column's curvature NaN or inf (as can a
        # finite 1e200, by overflow), so only then is X scanned entry by entry.
        curvature = self.column_curvature()
        if not np.isfinite(curvature).all() and not np.isfinite(self.x).all():
            raise ValueError("design matrix contains non-finite entries")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("response contains non-finite entries")
        self.checked_curvature()

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def column_curvature(self) -> np.ndarray:
        """Per-column curvature ||x_j||^2 / n of the half-mean-square loss."""
        if self._curvature is None:
            self._curvature = np.einsum("ij,ij->j", self.x, self.x) / self.n
        return self._curvature

    def checked_curvature(self, where: str = "") -> np.ndarray:
        """``column_curvature`` of an X with finite entries, or
        DegenerateColumnError naming the first column whose curvature is
        not finite and positive: a zero one (all zero, or its squared norm
        over n underflows) would give d = inf, an overflowing one NaN
        detection keys. ``where`` ends the message."""
        curvature = self.column_curvature()
        bad = np.flatnonzero(~((curvature > 0.0) & (curvature < np.inf)))
        if bad.size:
            j, name = bad[0], self.feature_names[bad[0]]
            state = "zero" if curvature[j] == 0.0 else "infinite"
            raise DegenerateColumnError(f"column {j} ({name!r}) has {state} curvature{where}",
                                        column=name)
        return curvature

    def columns(self, cols) -> np.ndarray:
        """``x[:, cols]`` for integer indices ``cols``: the same values in the
        same memory layout, so every product with it has the same bits.

        In a row-major X one column is n reads one row apart. The solvers
        gather the few columns of an active set that changes little from
        one iteration to the next, so each column gathered is kept as a
        contiguous row of a cache and later gathers read only those rows.
        The cache is one buffer allocated at its bound, an eighth of X's
        columns, whose pages are touched only as its rows fill; past that,
        columns not yet held are read from X.

        An X narrower than ``COLUMN_CACHE_MIN_COLUMNS``, where a gather
        reads almost every row's cache lines, keeps instead the last block
        it returned, read-only: a machine asks for one active set's block
        for its normal equations and again for its residual there. (Kept
        on wide X as well, that block raised the ACESDAR path benchmark's
        peak RSS by 1-8 MB and saved little behind the packed cache.)
        """
        cols = np.asarray(cols, dtype=np.int64)
        if self.p < COLUMN_CACHE_MIN_COLUMNS:
            key = cols.tobytes()
            if key != self._last_key:
                self._last_key, self._last_block = key, self.x[:, cols]
                self._last_block.flags.writeable = False
            return self._last_block
        if cols.size == 0:
            return self.x[:, cols]
        if self._column_slot is None:
            self._column_slot = np.full(self.p, -1, dtype=np.int64)
            self._column_rows = np.empty((max(1, self.p // 8), self.n))
        slots = self._column_slot[cols]
        if (slots < 0).any():
            new = np.unique(cols[slots < 0])
            count, need = self._column_count, self._column_count + new.size
            if need > self._column_rows.shape[0]:
                return self.x[:, cols]
            self._column_rows[count:need] = self.x[:, new].T
            self._column_slot[new] = np.arange(count, need)
            self._column_count = need
            slots = self._column_slot[cols]
        # Rows taken from a C-ordered array and transposed: the F-ordered
        # n x |cols| layout of x[:, cols].
        return self._column_rows[slots].T

    def correlate_residual(self, residual: np.ndarray) -> np.ndarray:
        """X' r / n for a length-n residual vector."""
        return self.x.T @ residual / self.n

    def row_slice(self, start: int, stop: int) -> "Dataset":
        """Unvalidated shard view over contiguous rows; shares storage, never mutated."""
        return Dataset(self.x[start:stop], self.y[start:stop], self.feature_names,
                       _validate=False)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of one synthetic draw; r_* = sqrt(2 log(p)/n) is derived."""

    n: int
    p: int
    s: int
    signal_ratio: float = 20.0
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ConfigurationError("n and p must be positive")
        if not 0 <= self.s <= self.p:
            raise ConfigurationError(f"s={self.s} must lie in [0, p={self.p}]")
        if self.p == 1 and self.s:
            raise ConfigurationError(f"s={self.s} needs p >= 2: at p=1 the signal floor "
                                     "sqrt(2 log(p)/n) is 0, so every signal would be 0")
        if not 0 <= self.noise_sd < math.inf:
            raise ConfigurationError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if not 1 <= self.signal_ratio < math.inf:  # below 1 the cap sits under the floor
            raise ConfigurationError(f"signal_ratio must be finite and >= 1, "
                                     f"got {self.signal_ratio}")

    @property
    def signal_floor(self) -> float:
        return math.sqrt(2.0 * math.log(self.p) / self.n)

    @property
    def signal_cap(self) -> float:
        return self.signal_ratio * self.signal_floor


@dataclass(frozen=True)
class SparseCoefficients:
    """Length-``dim`` coefficient vector stored as (support, values): a fit's
    estimate, or the truth of a synthetic instance.

    The support is strictly increasing; canonical instances store no
    explicit zeros (intermediate ones may, see ``canonical``).
    """

    dim: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        if support.shape != values.shape or support.ndim != 1:
            raise ValueError("support and values must be 1-d and equally long")
        if support.size:
            if support[0] < 0 or support[-1] >= self.dim:
                raise ValueError("support index out of range")
            if np.any(np.diff(support) <= 0):
                raise ValueError("support must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient values must be finite")

    @classmethod
    def zeros(cls, dim: int) -> "SparseCoefficients":
        return cls(dim, np.empty(0, dtype=np.int64), np.empty(0))

    @classmethod
    def from_dense(cls, dense) -> "SparseCoefficients":
        dense = np.asarray(dense, dtype=float)
        support = np.flatnonzero(dense)
        return cls(dense.shape[0], support, dense[support])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.support] = self.values
        return out

    def canonical(self) -> "SparseCoefficients":
        """Drop explicitly stored zeros."""
        keep = self.values != 0.0
        if keep.all():
            return self
        return SparseCoefficients(self.dim, self.support[keep], self.values[keep])

    def __eq__(self, other):
        return (
            isinstance(other, SparseCoefficients)
            and self.dim == other.dim
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None


def _draw_instance(spec: SyntheticSpec, rng, truth: SparseCoefficients | None):
    """Draw order: X, then (support, values) unless given, then noise."""
    x = rng.standard_normal((spec.n, spec.p))
    if truth is None:
        support = np.sort(rng.choice(spec.p, size=spec.s, replace=False))
        values = rng.uniform(spec.signal_floor, spec.signal_cap, size=spec.s)
        truth = SparseCoefficients(spec.p, support, values)
    noise = rng.standard_normal(spec.n)
    if truth.support.size:
        signal = x[:, truth.support] @ truth.values
    else:
        signal = np.zeros(spec.n)
    y = signal + spec.noise_sd * noise
    return Dataset(x, y), truth


def generate(spec: SyntheticSpec):
    """Synthetic instance: Gaussian rows, uniform signals on a random support.

    Fully determined by ``spec.seed``; the same seed gives a bitwise
    identical (X, y, truth).
    """
    return _draw_instance(spec, stream_rng(spec.seed, "data"), truth=None)


def generate_test(spec: SyntheticSpec, truth: SparseCoefficients, n_test: int):
    """Fresh rows and noise under an existing ground truth (held-out set):
    ``spec`` with ``n_test`` rows, drawn from the seed's test stream."""
    test_spec = replace(spec, n=n_test)
    data, _ = _draw_instance(test_spec, stream_rng(spec.seed, "test"), truth=truth)
    return data


# Per example: the base cell, and the grid axes whose knobs override it.
_EXAMPLES = {
    1: (dict(n=100_000, p=500, s=10, sparsity=10, machines=2),
        {"machines": (2, 4, 8, 16, 32, 64, 128)}),
    2: (dict(n=5000, p=10_000, s=10, sparsity=10, machines=2),
        {"machines": tuple(range(2, 17, 2))}),
    3: (dict(n=5000, p=2000, s=10, sparsity=10, machines=5),
        {"p": tuple(range(2000, 10001, 2000)), "sparsity": tuple(range(2, 21, 2))}),
    4: (dict(n=5000, p=10_000, s=10, sparsity=10, machines=5),
        {"s": tuple(range(2, 21, 2)), "sparsity": tuple(range(2, 21, 2))}),
}


def example_config(example: int, scale: float = 1.0, replicates: int = 100,
                   base_seed: int = 0, algorithm: str = "cesdar", **knobs) -> ExperimentConfig:
    """One cell of the benchmark grids (examples 1-4).

    ``scale`` shrinks n and p proportionally (floored) for desk-scale runs
    and is recorded in the returned config. Knobs select the grid point:
    ``machines`` for examples 1-2, ``p``/``sparsity`` for example 3,
    ``s``/``sparsity`` for example 4; each must lie on the example's grid.
    """
    grid = example_grid(example)
    bad = set(knobs) - set(grid)
    if bad:
        raise ConfigurationError(f"example {example} does not take knobs {sorted(bad)}")
    for key, allowed in grid.items():
        if key in knobs and knobs[key] not in allowed:
            raise ConfigurationError(
                f"example {example}: {key}={knobs[key]} not on the grid {allowed}"
            )
    base = {**_EXAMPLES[example][0], **knobs}

    if not 0 < scale <= 1:
        raise ConfigurationError(f"scale must lie in (0, 1], got {scale}")
    if scale != 1.0:
        base["n"] = max(int(base["n"] * scale), base["machines"])
        base["p"] = max(int(base["p"] * scale), base["s"] + 1, base["sparsity"])

    return ExperimentConfig(
        algorithm=algorithm, tau=0.5, signal_ratio=20.0, noise_sd=1.0,
        replicates=replicates, base_seed=base_seed, example=example, scale=scale,
        label=f"example{example}", **base,
    )


def example_grid(example: int):
    """Grid axes (knob name -> values) of one benchmark example."""
    if example not in _EXAMPLES:
        raise ConfigurationError(f"example must be 1..4, got {example}")
    return dict(_EXAMPLES[example][1])


def _standardize(x, y, names, where: str):
    """(x, y, the Dataset scaling fields): each column and the response
    centered and scaled to unit variance. DegenerateColumnError, prefixed by
    ``where``, names a constant one."""
    means = x.mean(axis=0)
    centered = x - means
    scales = np.sqrt(np.einsum("ij,ij->j", centered, centered) / x.shape[0])
    dead = np.flatnonzero(scales == 0.0)
    if dead.size:
        name = names[dead[0]]
        raise DegenerateColumnError(f"{where}column {name!r} is constant; cannot standardize",
                                    column=name)
    y_mean = float(y.mean())
    y_scale = float(np.sqrt(((y - y_mean) ** 2).mean()))
    if y_scale == 0.0:
        raise DegenerateColumnError(f"{where}the response is constant; cannot standardize")
    scaling = dict(standardized=True, column_means=means, column_scales=scales,
                   y_mean=y_mean, y_scale=y_scale)
    return centered / scales, (y - y_mean) / y_scale, scaling


def _check_unique(path, names, problem: str) -> None:
    """IngestError naming ``path`` and the first name listed twice in ``names``."""
    repeat = next((name for name, count in Counter(names).items() if count > 1), None)
    if repeat is not None:
        raise IngestError(f"{path}: {problem} {repeat!r}")


def ingest_csv(path, response_column, categorical_columns=(), n_noise_features=0,
               noise_seed=0, standardize=True, drop_first=True) -> Dataset:
    """Load a CSV into a Dataset: dummy-encode, append noise columns, scale.

    Categorical columns expand to one 0/1 dummy per level, sorted by level
    name; with ``drop_first`` the lexicographically first level is dropped
    (the reference level). ``n_noise_features`` standard-normal columns are
    appended from the dedicated noise stream of ``noise_seed``. With
    ``standardize`` every column (dummies and noise included) is centered to
    mean zero and scaled to unit variance, and so is the response; a
    constant one raises DegenerateColumnError naming ``path`` and the column.

    Unparseable numeric cells raise with the 1-based data row number; a
    repeated header name, a categorical response, a name shared by two
    columns of X (say ``c=v`` beside categorical ``c``) or an X with no
    column raise IngestError.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        rows = list(reader)
    _check_unique(path, header, "the header repeats column")
    if response_column not in header:
        raise IngestError(f"{path}: response column {response_column!r} not found")
    missing = [c for c in categorical_columns if c not in header]
    if missing:
        raise IngestError(f"{path}: categorical columns {missing} not found")
    if response_column in categorical_columns:
        raise IngestError(f"{path}: response column {response_column!r} cannot be categorical")
    if not rows:
        raise IngestError(f"{path}: no data rows")

    col_index = {name: i for i, name in enumerate(header)}
    categorical = set(categorical_columns)
    numeric_cols = [c for c in header if c != response_column and c not in categorical]

    n = len(rows)
    for rownum, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise IngestError(f"{path}: row {rownum}: expected {len(header)} fields, got {len(row)}")

    def parse(colname):
        idx = col_index[colname]
        out = np.empty(n)
        for rownum, row in enumerate(rows, start=1):
            try:
                out[rownum - 1] = float(row[idx])
            except ValueError:
                raise IngestError(
                    f"{path}: row {rownum}: cannot parse {colname!r} value {row[idx]!r}"
                ) from None
        return out

    blocks, names = [], []
    for col in numeric_cols:
        blocks.append(parse(col))
        names.append(col)

    for col in categorical_columns:
        idx = col_index[col]
        raw = [row[idx] for row in rows]
        levels = sorted(set(raw))
        kept = levels[1:] if drop_first and len(levels) > 1 else levels
        for level in kept:
            blocks.append(np.array([1.0 if v == level else 0.0 for v in raw]))
            names.append(f"{col}={level}")

    if n_noise_features:
        rng = stream_rng(noise_seed, "noise")
        noise = rng.standard_normal((n, int(n_noise_features)))
        for j in range(int(n_noise_features)):
            blocks.append(noise[:, j])
            names.append(f"noise{j + 1}")
    _check_unique(path, names, "two columns of X would be named")
    if not blocks:
        raise IngestError(f"{path}: no feature columns")

    x = np.column_stack(blocks)
    y = parse(response_column)

    scaling = {}
    if standardize:
        x, y, scaling = _standardize(x, y, names, f"{path}: ")
    return Dataset(x, y, names, **scaling)


def split(data: Dataset, n_train: int, seed: int):
    """Seeded uniform row split without replacement.

    The halves follow the input's standardization: a standardized input's
    statistics are recomputed on the training rows (a constant one raises
    DegenerateColumnError prefixed ``training rows: ``) and applied to both
    halves, so the test set uses the training means and scales.
    """
    if not 0 < n_train < data.n:
        raise ValueError(f"n_train must lie in (0, {data.n}), got {n_train}")
    perm = stream_rng(seed, "split").permutation(data.n)
    train_rows = np.sort(perm[:n_train])
    test_rows = np.sort(perm[n_train:])

    x_tr, y_tr = data.x[train_rows], data.y[train_rows]
    x_te, y_te = data.x[test_rows], data.y[test_rows]
    scaling = {}
    if data.standardized:
        x_tr, y_tr, scaling = _standardize(x_tr, y_tr, data.feature_names, "training rows: ")
        x_te = (x_te - scaling["column_means"]) / scaling["column_scales"]
        y_te = (y_te - scaling["y_mean"]) / scaling["y_scale"]
    return (Dataset(x_tr, y_tr, data.feature_names, **scaling),
            Dataset(x_te, y_te, data.feature_names, **scaling))


def save_cache(path, data: Dataset) -> None:
    """Binary dataset cache: magic CSDR1, dims, X, y, names, scaling block."""
    with open(path, "wb") as out:
        out.write(CACHE_MAGIC)
        out.write(struct.pack("<QQ", data.n, data.p))
        out.write(np.ascontiguousarray(data.x, dtype="<f8"))  # from its buffer, no bytes copy
        out.write(np.ascontiguousarray(data.y, dtype="<f8"))
        names = [name.encode("utf-8") for name in data.feature_names]
        table = b"".join(struct.pack("<I", len(raw)) + raw for raw in names)
        out.write(struct.pack("<I", len(names)) + table)  # the name table in one write
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


class _FileReader:
    """Bounds-checked cursor over an open binary file: each array is read in
    place once its size fits in what is left of the file."""

    def __init__(self, path, handle):
        self.path, self.handle, self.off = path, handle, 0
        self.size = os.fstat(handle.fileno()).st_size

    def buffer_rest(self) -> None:
        """Read the rest of the file in one call; later reads come from memory."""
        rest = self.handle.read(self.size - self.off)
        if len(rest) != self.size - self.off:
            raise IngestError(f"{self.path}: the file shrank while it was read")
        self.handle = io.BytesIO(rest)

    def bytes(self, size: int) -> bytes:
        """The next ``size`` bytes of the rest that ``buffer_rest`` read."""
        self.take(size)
        return self.handle.read(size)

    def take(self, size: int) -> None:
        """Count the next ``size`` bytes as read; IngestError if the file ends first."""
        end = self.off + size
        if end > self.size:
            raise IngestError(f"{self.path}: truncated file: expected at least {end} "
                              f"bytes, found {self.size}")
        self.off = end

    def read(self, *shape: int, dtype="u1") -> np.ndarray:
        """The next array of ``shape``, its size checked before it is allocated."""
        self.take(np.dtype(dtype).itemsize * math.prod(shape))
        out = np.empty(shape, dtype=dtype)
        if self.handle.readinto(out) != out.nbytes:
            raise IngestError(f"{self.path}: the file shrank while it was read")
        return out


def load_cache(path) -> Dataset:
    """Inverse of save_cache; the round trip is bit exact."""
    with open(path, "rb") as handle:
        reader = _FileReader(path, handle)
        if handle.read(5) != CACHE_MAGIC:
            raise IngestError(f"{path}: not a dataset cache (bad magic)")
        reader.take(5)
        n, p = struct.unpack("<QQ", reader.read(16))
        if n < 1:
            raise IngestError(f"{path}: the cache holds no rows")
        x, y = reader.read(n, p, dtype="<f8"), reader.read(n, dtype="<f8")
        reader.buffer_rest()  # the names and the scaling block
        (count,) = struct.unpack("<I", reader.bytes(4))
        names = []
        for _ in range(count):
            (length,) = struct.unpack("<I", reader.bytes(4))
            names.append(reader.bytes(length).decode("utf-8"))
        standardized = reader.read(1)[0] == 1
        means = scales = None
        if standardized:
            means, scales = reader.read(p, dtype="<f8"), reader.read(p, dtype="<f8")
        y_mean = y_scale = None
        if reader.read(1)[0] == 1:
            y_mean, y_scale = struct.unpack("<dd", reader.read(16))
        if reader.off < reader.size:
            raise IngestError(f"{path}: {reader.size - reader.off} bytes after the cache's end")
    return Dataset(x, y, names, standardized=standardized,
                   column_means=means, column_scales=scales,
                   y_mean=y_mean, y_scale=y_scale)


def save_truth(path, truth: SparseCoefficients) -> None:
    payload = {
        "dim": truth.dim,
        "support": [int(i) for i in truth.support],
        "values": [float(v) for v in truth.values],
    }
    with open(path, "w") as out:
        json.dump(payload, out, sort_keys=True)
        out.write("\n")


def load_truth(path) -> SparseCoefficients:
    """Inverse of save_truth; IngestError naming the path on a missing key or
    an unsorted or non-finite truth."""
    with open(path) as handle:
        payload = json.load(handle)
    try:
        return SparseCoefficients(int(payload["dim"]), payload["support"], payload["values"])
    except KeyError as exc:
        raise IngestError(f"{path}: truth has no {exc.args[0]!r} key") from None
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None
