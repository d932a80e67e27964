import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from rmtdetect import DataSource, generate, residual_series, table3_scenario, train, write_csv
from rmtdetect.cli import main
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


def _rms(model, src, lo, hi):
    _, resid = residual_series(model, src)
    return np.sqrt((resid[:, lo:hi] ** 2).mean(axis=1))


def test_holdout_residual_comparable_to_training():
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    rms = _rms(model, src, 400, 600)
    assert np.all(rms <= 3 * np.maximum(model.train_residual_std, 1e-12))


def test_judging_training_window_never_flags():
    # the training range reproduces the training residual scale exactly
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    np.testing.assert_allclose(_rms(model, src, 0, 400), model.train_residual_std, rtol=1e-10)


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
    ts, resid = residual_series(model, bumped)
    j = list(model.nonpilot_ids).index(victim)
    flags = resid[j] > 3 * model.train_residual_std[j]
    assert flags[ts >= 500].all()
    assert flags[(ts >= 400) & (ts < 500)].mean() < 0.05


def test_global_negation_is_invisible():
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    negated = _source(-src.values)
    ts_a, resid_a = residual_series(model, src)
    ts_b, resid_b = residual_series(model, negated)
    np.testing.assert_array_equal(ts_a, ts_b)
    np.testing.assert_array_equal(resid_a, resid_b)


def test_judging_invariant_under_node_row_permutation():
    src, _ = factor_source()
    model = train(src, (0, 400), m_prime=3)
    perm = np.random.default_rng(3).permutation(src.n)
    shuffled = DataSource(src.values[perm], tuple(src.node_ids[i] for i in perm), src.timestamps)
    _, resid_a = residual_series(model, src)
    _, resid_b = residual_series(model, shuffled)
    np.testing.assert_allclose(resid_a, resid_b, atol=1e-12)


def test_default_subspace_dimension_from_variance_threshold():
    src, _ = factor_source(n_factors=3, noise=0.01)
    model = train(src, (0, 400), m_prime=3)
    assert model.subspace_dim == 3


def _reference_pilots(src, train_range, m_prime, m):
    """Pilot indices as picked by projecting the node columns onto the QR
    basis of the principal scores and scanning the nodes one at a time."""
    lo, hi = train_range
    y = src.values[:, lo:hi].T
    w, p = np.linalg.eigh(y.T @ y)
    w, p = w[::-1], p[:, ::-1]
    if m is None:
        m = int(np.searchsorted(np.cumsum(w) / w.sum(), 0.95) + 1)
    q, _ = np.linalg.qr(y @ p[:, :m])
    proj = q @ (q.T @ y)
    norms = np.linalg.norm(proj, axis=0)
    units = proj / np.where(norms > 0, norms, 1.0)
    cos = np.abs(units.T @ units)
    if m_prime == 1:
        return (0,)
    masked = cos + 2.0 * np.eye(src.n)
    chosen = sorted(int(i) for i in np.unravel_index(np.argmin(masked), masked.shape))
    while len(chosen) < m_prime:
        best, best_val = None, np.inf
        for k in range(src.n):
            if k not in chosen:
                val = max(float(cos[k, c]) for c in chosen)
                if val < best_val:
                    best, best_val = k, val
        chosen.append(best)
    return tuple(sorted(chosen))


@pytest.mark.parametrize("seed", [5, 9104, 18007, 22001])
def test_pilots_match_the_projection_reference(seed):
    src = generate(table3_scenario(), seed=seed)
    cases = [(r, mp, None) for r in ((100, 580), (0, 500)) for mp in (1, 2, 3, 5)]
    # fewer samples than nodes, with m up to N
    cases += [((0, 50), 3, m) for m in (3, 50, src.n)]
    for train_range, m_prime, m in cases:
        try:
            model = train(src, train_range, m_prime, m)
        except ParameterError as e:  # the default m fell below m'
            assert m is None and "default m" in str(e)
            continue
        pilots = tuple(src.row_index(nid) for nid in model.pilot_ids)
        assert pilots == _reference_pilots(src, train_range, m_prime, m), (train_range, m_prime, m)


def test_a_zero_training_row_is_picked_and_named():
    # its projection has norm 0 and |cos| 0 with every node, so the greedy
    # rule picks it and the pilot basis is singular
    src = generate(table3_scenario(), seed=5)
    vals = src.values.copy()
    vals[40, 100:580] = 0.0
    src = DataSource(vals, src.node_ids, src.timestamps)
    with pytest.raises(ParameterError, match=r"pilot basis \['bus1', 'bus41', 'bus114'\] is "
                       r"ill-conditioned \(condition number inf\)$"):
        train(src, (100, 580), m_prime=3)
    assert train(src, (100, 580), m_prime=1).pilot_ids == ("bus1",)


def test_train_holds_no_training_range_projection():
    # the pilot angles come from the Gram's eigendecomposition; what is left
    # is the regression's copies of the non-pilot training block
    src = generate(table3_scenario(), seed=5)
    train(src, (100, 580), m_prime=3)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(src, (100, 580), m_prime=3)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rise < 1.3 * src.values.nbytes, rise / src.values.nbytes


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


def test_m_prime_range_ends():
    src = DataSource(np.random.default_rng(3).standard_normal((6, 50)), tuple("abcdef"),
                     tuple(range(50)))
    for m_prime in (0, 6):
        with pytest.raises(ParameterError, match=rf"--m-prime\) must satisfy 1 <= m' <= N-1 = 5, .*got m'={m_prime}$"):
            train(src, (0, 40), m_prime=m_prime)
    for m_prime in (1, 5):
        assert len(train(src, (0, 40), m_prime=m_prime, m=5).nonpilot_ids) == 6 - m_prime


def test_training_range_must_hold_more_samples_than_pilots():
    # with m' samples the pilots fit every node exactly: all training
    # residuals were 0 and nearly every later sample flagged
    src, _ = factor_source()
    for m_prime in (2, 3):
        with pytest.raises(ParameterError, match=rf"--train\) holds {m_prime} samples; need "
                           rf"more than m'={m_prime}$"):
            train(src, (10, 10 + m_prime), m_prime=m_prime, m=m_prime)
    assert len(train(src, (0, 4), m_prime=3, m=3).pilot_ids) == 3


def test_residual_series_matches_the_plain_expression_bit_for_bit():
    src, _ = factor_source()
    model = train(src, (0, 300), m_prime=3)
    samples, resid = residual_series(model, src)
    yb = src.values[[src.row_index(nid) for nid in model.pilot_ids]]
    yc = src.values[[src.row_index(nid) for nid in model.nonpilot_ids]]
    assert np.array_equal(samples, np.arange(src.t))
    assert resid.tobytes() == np.abs(yc - model.coefficients.T @ yb).tobytes()


def test_pca_baseline_holds_no_third_source_sized_array(tmp_path):
    # the residuals overwrite the fitted values, and the source goes once
    # they exist; load_csv's row list and stacked array stay the peak's floor
    src = generate(table3_scenario(), seed=5)
    write_csv(src, tmp_path / "table3.csv")
    argv = ["pca-baseline", "--input", str(tmp_path / "table3.csv"), "--train", "100:580"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / "warm")]) == 0  # imports, caches
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "pca")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2.75 * src.values.nbytes, peak / src.values.nbytes
