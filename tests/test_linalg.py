import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from cesdar.exceptions import SingularSystemError
from cesdar.linalg import gram_submatrix, spd_solve


def test_gram_identity_scaled():
    out = gram_submatrix(np.eye(2), 2.0)
    assert np.array_equal(out, [[0.5, 0.0], [0.0, 0.5]])


def test_gram_orthogonal_design():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    x = q * np.sqrt(30)
    out = gram_submatrix(x[:, [0, 2, 3]], 30.0)
    assert np.allclose(out, np.eye(3), atol=1e-12)


def test_gram_single_column_hand():
    out = gram_submatrix(np.array([[1.0], [1.0]]), 1.0)
    assert np.array_equal(out, [[2.0]])


def test_gram_bitwise_symmetric():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((25, 9))
    out = gram_submatrix(x, 25.0)
    assert np.array_equal(out, out.T)


def test_spd_solve_identity():
    x, jittered = spd_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, [1.0, 2.0, 3.0])
    assert jittered is False


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
        assert type(jittered) is bool and jittered
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


def _cho_reference(a, b):
    """spd_solve's rule through scipy's cho_factor/cho_solve: a plain
    Cholesky solve, else one with diagonal jitter 1e-10 * trace(A)/dim."""
    try:
        return cho_solve(cho_factor(a, lower=True), b), False
    except LinAlgError:
        jittered = a + 1e-10 * np.trace(a) / a.shape[0] * np.eye(a.shape[0])
        return cho_solve(cho_factor(jittered, lower=True), b), True


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 30), decades=st.floats(0.0, 20.0), seed=st.integers(0, 2**32 - 1))
def test_spd_solve_is_scipy_cholesky_bit_for_bit(dim, decades, seed):
    # Eigenvalues spread over up to 20 decades: well conditioned, barely
    # regular, or singular in double precision (the jitter path).
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (basis * 10.0 ** -rng.uniform(0.0, decades, dim)) @ basis.T
    a = np.triu(a) + np.triu(a, 1).T  # exactly symmetric
    b = rng.standard_normal(dim)
    try:
        want, want_jittered = _cho_reference(a, b)
    except LinAlgError:
        with pytest.raises(SingularSystemError):
            spd_solve(a, b)
        return
    got, jittered = spd_solve(a, b)
    assert got.tobytes() == want.tobytes()
    assert type(jittered) is bool and jittered == want_jittered
