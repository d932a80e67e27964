import numpy as np
import pytest

from rmtdetect import (
    DataSource,
    DetectorConfig,
    MarchenkoPastur,
    RingLaw,
    WindowSpec,
    clt_variance,
    covariance,
    eigen_general,
    eigen_hermitian,
    get_function,
    lln_expectation,
    mc_covariance_les,
    msr_moments,
    ring_product,
    sample_gaussian_matrix,
    standardize,
    sweep,
)
from rmtdetect.errors import ContractError, DivergenceError, ParameterError
from rmtdetect.les import (
    DET, LOG_CLAMP, LRF, MSR, T2, T3, T4, TestFunction, les, mc_ring_msr,
)

C_SCENARIO = 118 / 240


def _ring_spectrum(n=118, t=240, seed=0):
    rng = np.random.default_rng(seed)
    x = standardize(rng.standard_normal((n, t)))
    rp = ring_product([x], rng)
    return eigen_general(rp.values, N=n, T=t, L=1)


# --- empirical LES -----------------------------------------------------------


def test_les_det_of_unit_spectrum_is_zero():
    assert les(np.ones(10), DET) == pytest.approx(0.0, abs=1e-14)


def test_les_t2_of_unit_spectrum_counts_dimension():
    assert les(np.ones(118), T2) == pytest.approx(118.0)


def test_msr_single_draw_near_expectation():
    val = les(_ring_spectrum(seed=3), MSR)
    assert abs(val - 0.8645) <= 0.03


def test_les_log_domain_guard_and_clamp():
    from rmtdetect.les import clamp_event_count

    lam = np.array([1.0, 0.0, -3.0, 2.0])
    before = clamp_event_count()
    val = les(lam, DET)
    assert clamp_event_count() == before + 2
    assert val == pytest.approx(np.log(2.0) + 2 * np.log(1e-12))
    assert les(np.array([1.0, 2.0]), DET) == pytest.approx(np.log(2.0))
    assert clamp_event_count() == before + 2


def test_rank_deficient_windows_floor_every_near_zero_eigenvalue():
    # rows 5 and 7 copy rows 4 and 6, so every window's M has two eigenvalues
    # at rounding level; whichever side of 0 they round to, each adds
    # log(LOG_CLAMP) to DET, so tau does not jump from window to window
    assert les(np.array([1e-16, 2.0]), DET) == les(np.array([-1e-17, 2.0]), DET)
    src = sample_gaussian_matrix(10, 150, seed=1)
    vals = src.values.copy()
    vals[5], vals[7] = vals[4], vals[6]
    cfg = DetectorConfig(window=WindowSpec(T=60), functions=("DET",))
    series = sweep(DataSource(vals, src.node_ids), cfg)
    for end, tau in zip(series.t, series.data[("ALL", "DET")].tau):
        lam = eigen_hermitian(covariance(standardize(vals[:, end - 59 : end + 1]))).eigenvalues
        assert (lam[:2] < LOG_CLAMP).all() and (lam[2:] > 1e-3).all()
        assert tau == pytest.approx(2 * np.log(LOG_CLAMP) + np.log(lam[2:]).sum(), rel=1e-12)


def test_les_linearity_of_sum_form():
    lam = np.random.default_rng(0).random(50) + 0.5
    combo = TestFunction("combo", phi=lambda x: 2.5 * T2.phi(x) - 1.25 * T3.phi(x))
    direct = les(lam, combo)
    assert direct == pytest.approx(2.5 * les(lam, T2) - 1.25 * les(lam, T3), rel=1e-10)


def test_les_identity_function_equals_trace():
    x = standardize(np.random.default_rng(4).standard_normal((12, 40)))
    m = covariance(x, "M")
    ident = TestFunction("id", phi=lambda x: x)
    assert les(eigen_hermitian(m), ident) == pytest.approx(np.trace(m).real, rel=1e-8)


# --- LLN expectations ---------------------------------------------------------


def test_lln_msr_matches_closed_form():
    val = lln_expectation(MSR, RingLaw(c=0.4917, L=1), N=118)
    assert val == pytest.approx(0.8645, abs=1e-3)  # plain integral, no N factor


@pytest.mark.parametrize(
    "fname,target",
    [("T2", 1.34e3), ("T3", 1.01e4), ("T4", 8.35e4), ("DET", 48.3), ("LRF", 73.68)],
)
def test_lln_expectation_reference_row(fname, target):
    law = MarchenkoPastur(kind="mp2", c=0.4917)
    val = lln_expectation(get_function(fname), law, N=118)
    assert abs(val - target) / target < 0.02


def test_lln_t2_against_analytic_moments():
    c = 0.37
    law = MarchenkoPastur(kind="mp2", c=c)
    m2 = (1 + c) / c**2  # analytic second moment of the mp2 law
    val = lln_expectation(T2, law, N=100)
    assert val == pytest.approx(100 * (2 * m2 - 1), rel=1e-6)


def test_lln_det_diverges_at_critical_ratio():
    with pytest.raises(DivergenceError):
        lln_expectation(DET, MarchenkoPastur(kind="mp2", c=1.0), N=10)


@pytest.mark.parametrize(
    "moment",
    [lambda f, law: lln_expectation(f, law, N=10), lambda f, law: clt_variance(f, law.c)],
    ids=["lln-expectation", "clt-variance"],
)
@pytest.mark.parametrize("f", [DET, LRF], ids=["DET", "LRF"])
def test_log_domain_moments_diverge_at_the_critical_ratio_by_one_rule(moment, f):
    with pytest.raises(DivergenceError,
                       match=rf"^les: {f.name} diverges against mp2, whose support touches 0$"):
        moment(f, MarchenkoPastur(kind="mp2", c=1.0))


# --- MSR moments ----------------------------------------------------------------


def test_msr_moments_scenario_values():
    mm = msr_moments(0.4917)
    assert mm.expectation == pytest.approx(0.8645, abs=1e-3)
    assert mm.variance == pytest.approx(0.0068, abs=2e-4)
    e2 = mm.variance + mm.expectation**2
    assert e2 == pytest.approx(0.7542, abs=2e-4)


def test_msr_moments_limits():
    assert msr_moments(1.0).expectation == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert msr_moments(1e-9).expectation == pytest.approx(1.0, abs=1e-6)


def test_msr_closed_form_agrees_with_quadrature():
    rng = np.random.default_rng(8)
    for c in rng.uniform(0.02, 1.0, size=20):
        law = RingLaw(c=float(c), L=1)
        closed = msr_moments(float(c), 1)
        e1 = law.mean_phi(lambda r: r)
        e2 = law.mean_phi(lambda r: r**2)
        assert closed.expectation == pytest.approx(e1, abs=1e-8)
        assert closed.variance == pytest.approx(e2 - e1**2, abs=1e-8)


def test_msr_moments_deep_product_matches_quadrature():
    for L in (2, 3):
        for c in (0.2, 0.4917, 1.0):
            mm = msr_moments(c, L)
            law = RingLaw(c=c, L=L)
            e1 = law.mean_phi(lambda r: r)
            e2 = law.mean_phi(lambda r: r**2)
            assert mm.expectation == pytest.approx(e1, abs=1e-8)
            assert mm.variance == pytest.approx(e2 - e1**2, abs=1e-8)


# --- CLT variance ----------------------------------------------------------------


def test_clt_variance_t2_scenario_value():
    # frozen from the quadrature itself; the Monte Carlo gate lives in the
    # acceptance suite (500-trial oracle at N=118, T=240 lands within 5%)
    assert clt_variance(T2, C_SCENARIO) == pytest.approx(665.26, rel=1e-3)


def test_clt_variance_linear_function_is_exact():
    ident = TestFunction("id", phi=lambda x: x, deriv=lambda x: np.ones_like(x))
    c = 0.42
    assert clt_variance(ident, c) == pytest.approx(2.0 / c, rel=1e-9)
    assert clt_variance(ident, c, kappa4=1.0) == pytest.approx(3.0 / c, rel=1e-9)


def test_clt_variance_constant_function_vanishes():
    const = TestFunction("const", phi=lambda x: 7.0 * np.ones_like(x), deriv=lambda x: np.zeros_like(x))
    assert clt_variance(const, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_clt_variance_shift_invariance():
    shifted = TestFunction("t2s", phi=lambda x: T2.phi(x) + 5.0, deriv=T2.deriv)
    assert clt_variance(shifted, 0.6, kappa4=0.7) == pytest.approx(
        clt_variance(T2, 0.6, kappa4=0.7), rel=1e-9
    )


@pytest.mark.parametrize("f", [T2, T3, T4, DET, LRF])
def test_clt_variance_nonnegative(f):
    assert clt_variance(f, 0.5) >= 0.0
    assert clt_variance(f, 0.5, kappa4=1.3) >= 0.0


@pytest.mark.parametrize("kappa4", [-2.0, -1.0, 0.0])
@pytest.mark.parametrize("c", [0.05, 0.49, 0.9, 1.0])
def test_clt_variance_nonnegative_down_to_the_least_kurtosis(kappa4, c):
    # the detector rejects kappa4 < -2, the least excess kurtosis there is
    for f in (T2, T3, T4) if c == 1.0 else (T2, T3, T4, DET, LRF):
        assert clt_variance(f, c, kappa4=kappa4) >= 0.0


def test_clt_variance_rejects_averaged_function():
    with pytest.raises(ContractError):
        clt_variance(MSR, 0.5)
    with pytest.raises(ParameterError):
        clt_variance(T2, 1.5)


def test_clt_variance_monte_carlo_gate_small_scale():
    # cheap analogue of the acceptance oracle: raw i.i.d. trials at N=60
    n, t = 60, 120
    _, var_mc = mc_covariance_les(T2, n, t, reps=300, seed=17, standardized=False)
    v = clt_variance(T2, n / t)
    assert abs(v - var_mc) / var_mc < 0.30


def test_standardization_shrinks_fluctuations():
    # row standardization pins each row's mean/variance, so the pipeline
    # variance sits far below the i.i.d. fluctuation variance
    n, t = 60, 120
    _, var_raw = mc_covariance_les(T2, n, t, reps=200, seed=3, standardized=False)
    _, var_std = mc_covariance_les(T2, n, t, reps=200, seed=3, standardized=True)
    assert var_std < 0.5 * var_raw


# --- Monte Carlo helpers --------------------------------------------------------------


def test_mc_ring_msr_caches_and_tracks_pipeline():
    a = mc_ring_msr(20, 60, reps=50, seed_base=5)
    b = mc_ring_msr(20, 60, reps=50, seed_base=5)
    assert a == b
    mu, var = a
    assert 0.8 < mu < 1.1 and var > 0


def test_mc_ring_msr_needs_a_product_depth_of_at_least_one():
    # an empty product ended in a bare AttributeError
    with pytest.raises(ParameterError, match=r"ring product depth \(--L\) must be >= 1, got 0"):
        mc_ring_msr(4, 10, L=0, reps=2)


def test_unknown_function_name():
    with pytest.raises(ContractError):
        get_function("T9")


def test_package_attribute_les_is_the_submodule():
    import rmtdetect

    assert rmtdetect.les.clamp_event_count() >= 0
    assert rmtdetect.les.les is les
