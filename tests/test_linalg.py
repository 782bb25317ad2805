import numpy as np
import pytest

from cesdar.exceptions import SingularSystemError
from cesdar.linalg import gram_submatrix, spd_solve


def test_gram_identity_scaled():
    out = gram_submatrix(np.eye(2), [0, 1], 2.0)
    assert np.array_equal(out, [[0.5, 0.0], [0.0, 0.5]])


def test_gram_orthogonal_design():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    x = q * np.sqrt(30)
    out = gram_submatrix(x, [0, 2, 3], 30.0)
    assert np.allclose(out, np.eye(3), atol=1e-12)


def test_gram_single_column_hand():
    out = gram_submatrix(np.array([[1.0, 1.0], [1.0, -1.0]]), [0], 1.0)
    assert np.array_equal(out, [[2.0]])


def test_gram_bitwise_symmetric():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((25, 9))
    out = gram_submatrix(x, range(9), 25.0)
    assert np.array_equal(out, out.T)


def test_gram_of_gathered_columns_is_the_gram_of_the_subset():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((25, 9))
    cols = [7, 1, 4]
    assert np.array_equal(gram_submatrix(x[:, cols], None, 25.0),
                          gram_submatrix(x, cols, 25.0))


def test_gram_index_out_of_range():
    with pytest.raises(IndexError):
        gram_submatrix(np.eye(3), [0, 5], 1.0)


def test_spd_solve_identity():
    x, jittered = spd_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, [1.0, 2.0, 3.0])
    assert not jittered


def test_spd_solve_diagonal_hand():
    x, _ = spd_solve(np.array([[4.0, 0.0], [0.0, 9.0]]), np.array([8.0, 27.0]))
    assert np.allclose(x, [2.0, 3.0], atol=1e-12)


def test_spd_solve_singular_jitter_path():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    try:
        x, jittered = spd_solve(a, np.array([1.0, 1.0]), active_set=[3, 7])
    except SingularSystemError as err:
        assert err.active_set == [3, 7]
    else:
        assert jittered
        assert np.all(np.isfinite(x))


def test_spd_solve_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        spd_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_spd_solve_matvec_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = rng.integers(1, 21)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = np.exp(rng.uniform(0.0, np.log(1e6), dim))
        eigs /= eigs.max()
        a = (basis * eigs) @ basis.T
        a = (a + a.T) / 2.0
        x = rng.standard_normal(dim)
        recovered, _ = spd_solve(a, a @ x)
        assert np.linalg.norm(recovered - x) <= 1e-6 * (1.0 + np.linalg.norm(x))
