import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from rmtdetect import (
    covariance,
    haar_unitary,
    ring_product,
    singular_value_equivalent,
    standardize,
)
from rmtdetect.errors import AspectRatioError, DegenerateRowError, ParameterError, ShapeError
from rmtdetect.rmm import StandardizedMatrix


def _gauss(n, t, seed=0):
    return np.random.default_rng(seed).standard_normal((n, t))


# --- standardize -----------------------------------------------------------


def test_standardize_single_row_definition():
    s = standardize(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert s.values.mean() == pytest.approx(0.0, abs=1e-12)
    assert s.values.var() == pytest.approx(1.0, rel=1e-12)  # population convention


def test_standardize_idempotent():
    x = standardize(_gauss(5, 40, 1)).values
    again = standardize(x).values
    np.testing.assert_allclose(again, x, atol=1e-12)


def test_constant_row_errors_with_its_row_index():
    # the sweep names the node id instead (tests/test_detect.py)
    with pytest.raises(DegenerateRowError, match=r"zero-variance rows: \[0\]$"):
        standardize(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))


def test_precision_error_names_plain_row_indices():
    x = np.random.default_rng(2).standard_normal((3, 20))
    x[1] = 1e11 + 1e-3 * x[1]  # spread below float64's resolution at this offset
    with pytest.raises(DegenerateRowError, match=r"^rmm: rows \[1\] cannot be standardized"):
        standardize(x)


def test_constant_row_jitter_policy_is_seeded():
    x = np.array([[5.0, 5.0, 5.0, 5.0], [1.0, 2.0, 3.0, 4.0]])
    a = standardize(x, policy="jitter", seed=9).values
    b = standardize(x, policy="jitter", seed=9).values
    c = standardize(x, policy="jitter", seed=10).values
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(a[0].mean()) < 1e-10 and a[0].var() == pytest.approx(1.0, rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=1e-2, max_value=1e3),
    b=st.floats(min_value=-1e3, max_value=1e3),
)
def test_affine_invariance(a, b):
    # offset/gain ranges keep the b*eps/(a*sigma) cancellation error below
    # the 1e-10 contract; larger offsets are checked at 1e-8 in acceptance
    x = _gauss(4, 30, 5)
    base = standardize(x).values
    scaled = standardize(a * x + b).values
    np.testing.assert_allclose(scaled, base, atol=1e-10)


def test_row_permutation_permutes_output():
    x = _gauss(6, 30, 3)
    perm = np.array([4, 2, 0, 5, 1, 3])
    np.testing.assert_allclose(
        standardize(x[perm]).values, standardize(x).values[perm], atol=1e-14
    )
    ev = np.linalg.eigvalsh(covariance(standardize(x), "M").values)
    ev_p = np.linalg.eigvalsh(covariance(standardize(x[perm]), "M").values)
    np.testing.assert_allclose(ev, ev_p, atol=1e-10)


def test_standardized_matrix_validates():
    with pytest.raises(ShapeError):
        StandardizedMatrix(_gauss(3, 10, 0))  # raw Gaussian rows are not standardized
    with pytest.raises(AspectRatioError):
        standardize(_gauss(12, 8, 0))  # N > T


# --- haar ------------------------------------------------------------------


def test_haar_1x1_has_unit_modulus():
    u = haar_unitary(1, seed=3)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitarity():
    u = haar_unitary(50, seed=11)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(50), atol=1e-10)


def test_haar_seed_contract():
    np.testing.assert_array_equal(haar_unitary(8, 1), haar_unitary(8, 1))
    assert not np.array_equal(haar_unitary(8, 1), haar_unitary(8, 2))


def test_haar_eigenvalue_arguments_uniform():
    # pooled eigenvalue angles over repeated draws; eigenvalue repulsion makes
    # the pooled sample super-uniform, so a plain KS test is conservative
    rng = np.random.default_rng(99)
    args = np.concatenate(
        [np.angle(np.linalg.eigvals(haar_unitary(64, rng))) for _ in range(500)]
    )
    res = stats.kstest(args, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert res.pvalue > 0.01


def test_haar_dimension_validation():
    with pytest.raises(ParameterError):
        haar_unitary(0, seed=1)


# --- singular value equivalent ----------------------------------------------


def test_sve_of_identity_is_the_unitary_itself():
    n = 6
    xu = singular_value_equivalent(np.eye(n), seed=21)
    u = haar_unitary(n, seed=21)
    np.testing.assert_allclose(xu, u, atol=1e-10)


def test_sve_preserves_singular_values():
    x = standardize(_gauss(20, 40, 8))
    xu = singular_value_equivalent(x, seed=5)
    sv_x = np.linalg.svd(x.values, compute_uv=False)
    sv_u = np.linalg.svd(xu, compute_uv=False)
    np.testing.assert_allclose(np.sort(sv_u), np.sort(sv_x), rtol=1e-8)


def test_sve_gram_residual_at_scale():
    x = standardize(_gauss(118, 240, 13))
    xu = singular_value_equivalent(x, seed=5)
    h = x.values @ x.values.T
    resid = np.linalg.norm(xu @ xu.conj().T - h) / np.linalg.norm(h)
    assert resid <= 1e-8


# --- ring product ------------------------------------------------------------


def test_ring_product_rows_near_unit_norm():
    x = standardize(_gauss(40, 80, 2))
    rp = ring_product([x], seed=7)
    norms = np.linalg.norm(rp.values, axis=1)
    # rows are scaled by 1/(sqrt(N) std); the residual row mean keeps the
    # norm within O(1/sqrt(N)) of 1 rather than exactly 1
    assert np.all(np.abs(norms - 1.0) < 0.1)
    assert np.isfinite(rp.values).all()


def test_ring_product_seed_contract():
    x = standardize(_gauss(10, 30, 4))
    a = ring_product([x, x], seed=5)
    b = ring_product([x, x], seed=5)
    c = ring_product([x, x], seed=6)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.L == 2


def test_ring_product_single_window_matches_rescaled_sve():
    x = standardize(_gauss(12, 36, 9))
    rp = ring_product([x], seed=31)
    z = singular_value_equivalent(x, np.random.default_rng(np.random.SeedSequence(31)))
    mu = z.mean(axis=1, keepdims=True)
    sd = np.sqrt((np.abs(z - mu) ** 2).mean(axis=1, keepdims=True))
    np.testing.assert_allclose(rp.values, z / (np.sqrt(12) * sd), atol=1e-12)


def test_ring_product_shape_mismatch():
    a = standardize(_gauss(8, 30, 1))
    b = standardize(_gauss(9, 30, 2))
    with pytest.raises(ShapeError):
        ring_product([a, b], seed=0)
    with pytest.raises(ParameterError):
        ring_product([], seed=0)


# --- covariance ---------------------------------------------------------------


def _orthogonal_unit_rows(n, t):
    # DCT-II rows k=1..n: exactly orthogonal, mean zero, variance 1/2
    k = np.arange(1, n + 1)[:, None]
    tt = np.arange(t)[None, :]
    return np.sqrt(2.0) * np.cos(np.pi * k * (2 * tt + 1) / (2 * t))


def test_covariance_of_orthogonal_rows_is_identity():
    # XX^H = T I for these rows, so M = XX^H/N is the identity over c
    x = StandardizedMatrix(_orthogonal_unit_rows(6, 48))
    m = covariance(x, "M")
    np.testing.assert_allclose(m.values * x.c, np.eye(6), atol=1e-10)


def test_m_equals_s_over_c():
    x = standardize(_gauss(10, 40, 3))
    s = x.values @ x.values.T / x.T
    m = covariance(x, "M").values
    np.testing.assert_allclose(m, s / x.c, atol=1e-12)


def test_trace_m_equals_window_length():
    x = standardize(_gauss(17, 51, 6))
    m = covariance(x, "M").values
    assert np.trace(m) == pytest.approx(x.T, rel=1e-8)


def test_eigenvalue_sum_matches_trace():
    x = standardize(_gauss(9, 30, 12))
    m = covariance(x, "M").values
    assert np.linalg.eigvalsh(m).sum() == pytest.approx(np.trace(m), rel=1e-8)


def test_covariance_bad_convention():
    x = standardize(_gauss(4, 10, 0))
    for convention in ("Q", "S"):  # "M" is the only normalization
        with pytest.raises(ParameterError):
            covariance(x, convention)
