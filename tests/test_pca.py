import numpy as np
import pytest

from rmtdetect import DataSource, residual_series, train
from rmtdetect.errors import ParameterError


def _source(vals, prefix="s"):
    n = vals.shape[0]
    return DataSource(vals, tuple(f"{prefix}{i}" for i in range(n)), tuple(range(vals.shape[1])))


def factor_source(n_nodes=10, t=600, n_factors=3, noise=0.1, seed=7):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n_factors, t))
    mix = rng.standard_normal((n_nodes, n_factors))
    return _source(mix @ f + noise * rng.standard_normal((n_nodes, t))), rng


def test_exact_subspace_zero_residuals():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((2, 200))
    mix = rng.standard_normal((6, 2))
    src = _source(mix @ f)
    model = train(src, (0, 150), m_prime=2, m=2)
    assert model.subspace_dim == 2
    np.testing.assert_allclose(model.train_residual_std, 0.0, atol=1e-8)


def test_orthonormal_design_selects_zero_cosine_pair_first():
    t = 128
    base = np.eye(t)
    # nodes 0 and 3 are exactly orthogonal; the rest are correlated mixtures
    cols = np.stack(
        [
            base[:, 0],
            0.9 * base[:, 0] + 0.1 * base[:, 1],
            0.8 * base[:, 0] + 0.2 * base[:, 1],
            base[:, 2],
            0.7 * base[:, 2] + 0.3 * base[:, 0],
        ]
    )
    src = _source(cols + 1e-9)  # tiny offset keeps no row exactly constant
    model = train(src, (0, t), m_prime=2, m=5)
    assert set(model.pilot_ids) == {"s0", "s3"}


def _rms(model, src, sample_range):
    _, resid = residual_series(model, src, sample_range)
    return np.sqrt((resid**2).mean(axis=1))


def test_holdout_residual_comparable_to_training():
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    rms = _rms(model, src, (400, 600))
    assert np.all(rms <= 3 * np.maximum(model.train_residual_std, 1e-12))


def test_judging_training_window_never_flags():
    # the training range reproduces the training residual scale exactly
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    np.testing.assert_allclose(_rms(model, src, (0, 400)), model.train_residual_std, rtol=1e-10)


def test_residual_orthogonality_on_training_range():
    src, _ = factor_source()
    lo, hi = 0, 400
    model = train(src, (lo, hi), m_prime=3)
    rows_b = [src.node_ids.index(n) for n in model.pilot_ids]
    rows_c = [src.node_ids.index(n) for n in model.nonpilot_ids]
    yb = src.values[rows_b, lo:hi].T
    resid = src.values[rows_c, lo:hi].T - yb @ model.coefficients
    assert np.abs(yb.T @ resid).max() <= 1e-8 * np.abs(yb).max() * np.abs(resid).max() + 1e-8


def test_step_on_non_pilot_flags_at_step_time():
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    victim = model.nonpilot_ids[0]
    vrow = src.node_ids.index(victim)
    vals = src.values.copy()
    vals[vrow, 500:] += 5.0
    bumped = _source(vals)
    ts, resid = residual_series(model, bumped, (400, 600))
    j = list(model.nonpilot_ids).index(victim)
    flags = resid[j] > 3 * model.train_residual_std[j]
    assert flags[ts >= 500].all()
    assert flags[ts < 500].mean() < 0.05


def test_global_negation_is_invisible():
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    negated = _source(-src.values)
    ts_a, resid_a = residual_series(model, src, (400, 600))
    ts_b, resid_b = residual_series(model, negated, (400, 600))
    np.testing.assert_array_equal(ts_a, ts_b)
    np.testing.assert_array_equal(resid_a, resid_b)


def test_judging_invariant_under_node_row_permutation():
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    perm = np.random.default_rng(3).permutation(src.n)
    shuffled = DataSource(src.values[perm], tuple(src.node_ids[i] for i in perm), src.timestamps)
    _, resid_a = residual_series(model, src, (400, 600))
    _, resid_b = residual_series(model, shuffled, (400, 600))
    np.testing.assert_allclose(resid_a, resid_b, atol=1e-12)


def test_default_subspace_dimension_from_variance_threshold():
    src, _ = factor_source(n_factors=3, noise=0.01)
    model = train(src, (0, 400), m_prime=3)
    assert model.subspace_dim == 3


def test_ill_conditioned_pilot_basis():
    rng = np.random.default_rng(2)
    base = rng.standard_normal(300)
    vals = np.outer(np.array([1.0, 2.0, -1.0, 0.5]), base)  # rank one: every pair colinear
    src = _source(vals)
    with pytest.raises(ParameterError, match="condition"):
        train(src, (0, 300), m_prime=2, m=4)


def test_parameter_validation():
    src, _ = factor_source()
    with pytest.raises(ParameterError):
        train(src, (0, 700), m_prime=3)  # range beyond source
    with pytest.raises(ParameterError):
        train(src, (0, 400), m_prime=10)  # no non-pilot left
    with pytest.raises(ParameterError):
        train(src, (0, 400), m_prime=5, m=3)  # m' > m
    model = train(src, (0, 400), m_prime=3)
    with pytest.raises(ParameterError):
        residual_series(model, src, (590, 700))


def test_m_prime_range_ends():
    src = DataSource(np.random.default_rng(3).standard_normal((6, 50)), tuple("abcdef"),
                     tuple(range(50)))
    for m_prime in (0, 6):
        with pytest.raises(ParameterError, match=rf"--m-prime\) must satisfy 1 <= m' <= N-1 = 5, .*got m'={m_prime}$"):
            train(src, (0, 40), m_prime=m_prime)
    for m_prime in (1, 5):
        assert len(train(src, (0, 40), m_prime=m_prime, m=5).nonpilot_ids) == 6 - m_prime
