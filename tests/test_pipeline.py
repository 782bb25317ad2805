"""End-to-end pipeline: ingest a small CSV shaped like the price-prediction
application (numerics + two categoricals + appended noise columns), split,
fit distributed, tune."""
import inspect

import numpy as np
import pytest

from cesdar.cluster import cesdar_fit, ecesdar_fit
from cesdar.config import SolverConfig, TuningConfig
from cesdar.data import ingest_csv, split
from cesdar.metrics import prediction_error
from cesdar.sdar import esdar_fit
from cesdar.tuning import acesdar_fit


# Options a fitter takes beyond its data and configuration; cluster options
# (worker failure, message logging) belong to SimulatedCluster alone.
@pytest.mark.parametrize("fitter,params", [
    (esdar_fit, ["data", "cfg"]),
    (cesdar_fit, ["data", "machines", "cfg", "warm", "cluster"]),
    (ecesdar_fit, ["data", "machines", "cfg", "cluster"]),
    (acesdar_fit, ["data", "tune"]),
], ids=["esdar", "cesdar", "ecesdar", "acesdar"])
def test_fitter_parameters(fitter, params):
    assert list(inspect.signature(fitter).parameters) == params


@pytest.fixture(scope="module")
def price_csv(tmp_path_factory):
    rng = np.random.default_rng(21)
    n = 400
    volume = rng.lognormal(8.0, 1.0, n)
    small, medium, large = (rng.lognormal(6.0, 1.0, n) for _ in range(3))
    year = rng.integers(2015, 2021, n)
    kind = rng.choice(["conventional", "organic"], n)
    region = rng.choice([f"region{i}" for i in range(11)], n)
    price = (
        2.0
        - 0.4 * (np.log(volume) - 8.0)
        + 0.6 * (kind == "organic")
        + 0.05 * (year - 2017)
        + 0.1 * rng.standard_normal(n)
    )
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    with open(path, "w") as out:
        out.write("volume,small,medium,large,year,kind,region,price\n")
        for i in range(n):
            out.write(f"{volume[i]:.4f},{small[i]:.4f},{medium[i]:.4f},{large[i]:.4f},"
                      f"{year[i]},{kind[i]},{region[i]},{price[i]:.6f}\n")
    return path


def test_ingest_shape_matches_documented_arithmetic(price_csv):
    data = ingest_csv(price_csv, "price", categorical_columns=["kind", "region"],
                      n_noise_features=50, noise_seed=1, standardize=True)
    # 5 numerics + (2 levels -> 1 dummy) + (11 levels -> 10 dummies) + noise
    assert data.p == 5 + 1 + 10 + 50
    assert data.standardized


def test_split_fit_predict(price_csv):
    data = ingest_csv(price_csv, "price", categorical_columns=["kind", "region"],
                      n_noise_features=50, noise_seed=1, standardize=True)
    train, test = split(data, 320, seed=5)
    fit = cesdar_fit(train, 5, SolverConfig(sparsity=3))
    assert fit.converged
    names = [train.feature_names[j] for j in fit.beta.support]
    assert "volume" in names and "kind=organic" in names
    ape = prediction_error(test, fit.beta)
    baseline = prediction_error(test, np.zeros(test.p))
    assert ape < 0.5 * baseline


def test_tune_on_ingested_data(price_csv):
    data = ingest_csv(price_csv, "price", categorical_columns=["kind", "region"],
                      n_noise_features=30, noise_seed=2, standardize=True)
    train, _test = split(data, 320, seed=6)
    best, path = acesdar_fit(train, TuningConfig(step=1, machines=4, j_override=8))
    assert 2 <= best.sparsity <= 8
    assert len(path) == 8
    names = [train.feature_names[j] for j in best.fit.beta.support]
    assert "volume" in names
