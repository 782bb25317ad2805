import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

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


def _mirror_reference(sub, scale):
    """gram_submatrix as first written: the product's upper triangle
    mirrored, whatever path the product took."""
    g = np.asarray(sub, dtype=float).T @ np.asarray(sub, dtype=float) / scale
    return np.triu(g) + np.triu(g, 1).T


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 60), cols=st.integers(0, 80), size=st.integers(0, 12),
       layout=st.sampled_from(["gather", "c_gather", "rows_strided", "cols_strided", "f_block"]),
       zeros=st.booleans(), magnitude=st.sampled_from([1.0, 1e-5, 1e5, 1e-161]),
       scale=st.floats(1e-3, 1e4), seed=st.integers(0, 2**32 - 1))
def test_gram_is_the_triu_mirror_bit_for_bit(rows, cols, size, layout, zeros, magnitude, scale,
                                             seed):
    # The symmetric-product fast path must give the mirror's bits on every
    # layout the solvers hand it: an F-ordered gather x[:, A], its C-ordered
    # copy, strided row and column blocks, an F-ordered X's block. Zero
    # columns, and subnormal products that underflow when scaled, make
    # signed zeros.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * rows, cols + size)) * magnitude
    if zeros and x.shape[1]:
        x[:, rng.integers(x.shape[1])] = rng.choice([0.0, -0.0])
    active = np.sort(rng.choice(x.shape[1], min(size, x.shape[1]), replace=False))
    sub = {"gather": lambda: x[:rows, active],
           "c_gather": lambda: np.ascontiguousarray(x[:rows, active]),
           "rows_strided": lambda: x[::2, :size],
           "cols_strided": lambda: x[:rows, ::3][:, :size],
           "f_block": lambda: np.asfortranarray(x)[:rows, :size]}[layout]()
    got = gram_submatrix(sub, scale)
    want = _mirror_reference(sub, scale)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.array_equal(got, got.T)


def test_gram_gives_the_mirrors_positive_zero():
    # -1e-322 / 1e3 underflows to -0.0 in the product; the mirror, and so
    # gram_submatrix, has +0.0 there.
    out = gram_submatrix(np.array([[1e-161, -1e-161]]), 1e3)
    assert out.tobytes() == np.zeros((2, 2)).tobytes()
    assert out.tobytes() == _mirror_reference(np.array([[1e-161, -1e-161]]), 1e3).tobytes()


@pytest.mark.parametrize("a,b,message", [
    (np.full((2, 3), np.nan), np.ones(4), "expects a square matrix"),
    (np.broadcast_to(np.nan, (10_001, 10_001)), np.ones(2), "exceeds cap 10000"),
    (np.full((2, 2), np.nan), np.ones(3), "rhs shape"),
    (np.array([[np.inf, 1.0], [0.0, 1.0]]), np.array([np.nan, 1.0]), "matrix contains non-finite"),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([np.nan, 1.0]), "rhs contains non-finite"),
    (np.array([[1.0, 2.0], [0.0, 0.0]]), np.ones(2), "exactly symmetric"),
])
def test_spd_solve_checks_in_order(a, b, message):
    # Each input breaks its own check and every later one: the first check
    # in order names it, with its text unchanged.
    with pytest.raises(ValueError, match=message):
        spd_solve(a, b)


@pytest.mark.parametrize("a,jitter", [(np.zeros((3, 3)), "0"), (-np.eye(2), "-1e-10")])
def test_spd_solve_singular_after_jitter_names_it(a, jitter):
    with pytest.raises(SingularSystemError, match=f"dimension {a.shape[0]} singular even "
                                                  f"after jitter {jitter}$") as err:
        spd_solve(a, np.ones(a.shape[0]), active_set=[5, 8, 9][:a.shape[0]])
    assert err.value.active_set == [5, 8, 9][:a.shape[0]]


def test_spd_solve_jitter_path_is_flagged_with_its_jitter():
    # Rank 1, so the plain Cholesky fails; the retry adds 1e-10 tr(A)/dim.
    a = np.array([[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    b = np.array([1.0, -2.0, 0.5])
    assert dpotrf(a, lower=1)[1] != 0
    factor, info = dpotrf(a + 1e-10 * np.trace(a) / 3 * np.eye(3), lower=1)
    assert info == 0
    x, jittered = spd_solve(a, b)
    assert type(jittered) is bool and jittered
    assert x.tobytes() == dpotrs(factor, b, lower=1)[0].tobytes()
    x, jittered = spd_solve(np.diag([4.0, 1.0, 1.0]), b)
    assert jittered is False and np.array_equal(x, [0.25, -2.0, 0.5])
