import numpy as np
import pytest
from scipy import integrate

from rmtdetect import (
    MarchenkoPastur,
    RingLaw,
    Semicircle,
    SpectrumSet,
    covariance,
    eigen_general,
    eigen_hermitian,
    esd_distance,
    sample_goe,
    standardize,
)
from rmtdetect.errors import (
    ContractError,
    InvariantViolationError,
    NumericalFailureError,
    ParameterError,
)

C_SCENARIO = 118 / 240


# --- eigensolvers ------------------------------------------------------------


def test_eigen_general_diagonal():
    s = eigen_general(np.diag([2.0, -1.0]))
    assert sorted(s.eigenvalues.real) == pytest.approx([-1.0, 2.0])
    assert s.kind == "ring"


def test_eigen_general_rotation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 degrees
    lam = np.sort_complex(eigen_general(rot).eigenvalues)
    np.testing.assert_allclose(lam, [-1j, 1j], atol=1e-12)


def test_eigen_general_companion_matrix():
    # companion of lambda^2 - 3 lambda + 2, whose roots factor as {1, 2}
    comp = np.array([[3.0, -2.0], [1.0, 0.0]])
    lam = np.sort(eigen_general(comp).eigenvalues.real)
    np.testing.assert_allclose(lam, [1.0, 2.0], atol=1e-10)


def test_eigen_general_rejects_nonfinite():
    with pytest.raises(NumericalFailureError):
        eigen_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigen_general_sum_and_product_match_trace_and_det():
    rng = np.random.default_rng(3)
    for n in (3, 7, 12, 20):
        a = rng.standard_normal((n, n))
        lam = eigen_general(a).eigenvalues
        assert lam.sum().real == pytest.approx(np.trace(a), rel=1e-8, abs=1e-8)
        assert np.prod(lam).real == pytest.approx(np.linalg.det(a), rel=1e-6, abs=1e-6)


def test_eigen_hermitian_identity_and_diag():
    np.testing.assert_allclose(eigen_hermitian(np.eye(3)).eigenvalues, [1, 1, 1])
    np.testing.assert_allclose(eigen_hermitian(np.diag([0.0, 1.0, 4.0])).eigenvalues, [0, 1, 4])


def test_eigen_hermitian_ascending_and_clamped():
    lam = eigen_hermitian(np.diag([4.0, -1e-14, 2.0])).eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert lam[0] == 0.0


def test_eigen_hermitian_indefinite_errors():
    with pytest.raises(InvariantViolationError):
        eigen_hermitian(np.diag([1.0, -0.5]))


def test_eigen_hermitian_wigner_kind_keeps_negatives():
    lam = eigen_hermitian(np.diag([1.0, -0.5]), kind="wigner").eigenvalues
    assert lam[0] == pytest.approx(-0.5)


def test_eigen_hermitian_permutation_invariance():
    rng = np.random.default_rng(5)
    x = standardize(rng.standard_normal((6, 24)))
    m = covariance(x, "M")
    p = np.eye(6)[rng.permutation(6)]
    a = eigen_hermitian(m).eigenvalues
    b = eigen_hermitian(p @ m @ p.T).eigenvalues
    np.testing.assert_allclose(a, b, atol=1e-10)


# --- densities ---------------------------------------------------------------


@pytest.mark.parametrize(
    "law",
    [
        RingLaw(c=0.3, L=1),
        RingLaw(c=0.7, L=2),
        RingLaw(c=1.0, L=1),
        MarchenkoPastur(kind="mp2", c=0.5),
        MarchenkoPastur(kind="mp2", c=C_SCENARIO),
        MarchenkoPastur(kind="mp2", c=0.9, sigma2=2.0),
        RingLaw(c=C_SCENARIO, L=3),
        MarchenkoPastur(kind="mp2", c=0.95, sigma2=0.5),
    ],
)
def test_densities_integrate_to_one(law):
    assert law.mean_phi(lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-6)


def test_mp2_support_endpoints_at_scenario():
    law = MarchenkoPastur(kind="mp2", c=0.4917)
    lo, hi = law.support()
    assert lo == pytest.approx(0.1816, abs=1e-3)
    assert hi == pytest.approx(5.8864, abs=1e-3)


def test_mp_density_zero_outside_support():
    # the CDF is flat outside the support and rising inside it
    law = MarchenkoPastur(kind="mp2", c=0.5)
    lo, hi = law.support()
    assert law.cdf(lo - 0.01) == law.cdf(lo) == 0.0
    assert law.cdf(hi + 0.01) == law.cdf(hi) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < law.cdf((lo + hi) / 2) < law.cdf((lo + 3 * hi) / 4) < 1.0


def test_semicircle_center_value():
    law = Semicircle(omega2=1.0)
    lo, hi = law.support()
    assert law.cdf(lo) == pytest.approx(0.0, abs=1e-12)
    assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert law.cdf(hi) == pytest.approx(1.0, abs=1e-12)
    h = 1e-5  # the slope of the CDF at 0 is the density there, 1/pi
    slope = (law.cdf(h) - law.cdf(-h)) / (2 * h)
    assert slope == pytest.approx(1 / np.pi, rel=1e-8)


def test_ring_planar_vs_radial_forms():
    law = RingLaw(c=0.5, L=1)
    r = np.array([0.8, 0.9, 1.0])
    np.testing.assert_allclose(law.radial_pdf(r), 2 * np.pi * r * law.pdf(r), rtol=1e-12)
    # closed-form radial CDF endpoints
    lo, hi = law.support()
    assert law.cdf(lo) == pytest.approx(0.0, abs=1e-12)
    assert law.cdf(hi) == pytest.approx(1.0, abs=1e-12)


def test_mp2_is_pushforward_of_mp():
    # the law of S = XX^H/T = cM, integrated directly from its textbook density
    c = 0.37
    mp2 = MarchenkoPastur(kind="mp2", c=c)
    a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2

    def mp_cdf(s):
        # density sqrt((b - u)(u - a)) / (2 pi c u) under u = a + (b - a) sin^2 p
        def integrand(p):
            u = a + (b - a) * np.sin(p) ** 2
            return (b - a) ** 2 * np.sin(2 * p) ** 2 / (4 * np.pi * c * u)

        top = np.arcsin(np.sqrt(np.clip((s - a) / (b - a), 0.0, 1.0)))
        return integrate.quad(integrand, 0.0, top)[0]

    xs = np.linspace(*mp2.support(), 41)
    np.testing.assert_allclose(mp2.cdf(xs), [mp_cdf(c * x) for x in xs], atol=1e-6)


def test_density_parameter_validation():
    with pytest.raises(ParameterError):
        RingLaw(c=1.5)
    with pytest.raises(ParameterError):
        MarchenkoPastur(kind="mp", c=0.5)  # M = XX^H/N ("mp2") is the only normalization
    with pytest.raises(ParameterError):
        MarchenkoPastur(kind="mp2", c=0.0)
    with pytest.raises(ParameterError):
        MarchenkoPastur(kind="mp2", c=0.5, sigma2=-1.0)
    with pytest.raises(ParameterError):
        Semicircle(omega2=0.0)


# --- ESD distance -------------------------------------------------------------


def _mp2_inverse_cdf_sample(law, n):
    """Quantile sample at levels (i - 1/2)/n by bisection on the CDF."""
    qs = (np.arange(1, n + 1) - 0.5) / n
    lo, hi = law.support()
    out = np.empty(n)
    for i, q in enumerate(qs):
        a, b = lo, hi
        for _ in range(60):
            mid = (a + b) / 2
            if float(law.cdf(mid)) < q:
                a = mid
            else:
                b = mid
        out[i] = (a + b) / 2
    return out


def test_esd_distance_plugin_sample():
    law = MarchenkoPastur(kind="mp2", c=0.5)
    n = 200
    lam = _mp2_inverse_cdf_sample(law, n)
    s = SpectrumSet(lam, "covariance")
    assert esd_distance(s, law) <= 1.0 / n


def test_esd_distance_gaussian_covariance():
    rng = np.random.default_rng(5)
    x = standardize(rng.standard_normal((400, 800)))
    lam = eigen_hermitian(covariance(x, "M"), T=800, c=0.5)
    assert esd_distance(lam, MarchenkoPastur(kind="mp2", c=0.5)) <= 0.05


def test_esd_distance_detects_gross_mismatch():
    law = MarchenkoPastur(kind="mp2", c=0.5)
    lam = _mp2_inverse_cdf_sample(law, 400) + 1.0
    s = SpectrumSet(lam, "covariance")
    assert esd_distance(s, law) >= 0.2


SPECTRAL_EXITS = [
    ("unknown-spectrum-kind", lambda: SpectrumSet(np.ones(2), "bogus"), ParameterError,
     "unknown spectrum kind 'bogus'"),
    ("eigen-general-not-square", lambda: eigen_general(np.ones((2, 3))), ContractError,
     "need a square matrix, got shape (2, 3)"),
    ("ring-law-depth-zero", lambda: RingLaw(c=0.5, L=0), ParameterError,
     "ring law needs L >= 1, got 0"),
    ("esd-of-an-empty-spectrum",
     lambda: esd_distance(SpectrumSet(np.array([]), "covariance"), MarchenkoPastur(c=0.5)),
     ContractError, "empty spectrum"),
    ("mean-phi-non-finite-integrand",
     lambda: MarchenkoPastur(c=0.5).mean_phi(lambda x: np.full_like(x, np.inf)),
     NumericalFailureError, "non-finite integrand while integrating against mp2(c=0.5"),
]


@pytest.mark.parametrize("make, error, named", [c[1:] for c in SPECTRAL_EXITS],
                         ids=[c[0] for c in SPECTRAL_EXITS])
def test_spectral_typed_exits(make, error, named):
    with pytest.raises(error) as info:
        make()
    assert named in str(info.value)


def test_esd_distance_kind_mismatch():
    s = SpectrumSet(np.array([1.0, 2.0]), "covariance")
    with pytest.raises(ContractError):
        esd_distance(s, Semicircle(omega2=1.0))


def test_esd_distance_ring_radial():
    rng = np.random.default_rng(11)
    # radii drawn exactly from the radial law via inverse CDF
    c, L = 0.5, 1
    law = RingLaw(c=c, L=L)
    u = (np.arange(1, 301) - 0.5) / 300
    r = np.sqrt((1 - c) + c * u)
    s = SpectrumSet(r * np.exp(2j * np.pi * rng.random(300)), "ring")
    assert esd_distance(s, law) <= 1 / 300


# --- GOE fixture ----------------------------------------------------------------


def test_goe_symmetry_and_scaling():
    m = sample_goe(40, omega2=1.0, seed=2)
    np.testing.assert_array_equal(m, m.T)


def test_goe_1x1_variance():
    draws = np.array([sample_goe(1, omega2=1.5, seed=i)[0, 0] for i in range(4000)])
    assert draws.var() == pytest.approx(2 * 1.5, rel=0.15)


def test_goe_semicircle_ks():
    m = sample_goe(500, omega2=1.0, seed=7)
    s = eigen_hermitian(m, kind="wigner")
    assert esd_distance(s, Semicircle(omega2=1.0)) <= 0.05


def test_goe_parameter_validation():
    with pytest.raises(ParameterError):
        sample_goe(0)
    with pytest.raises(ParameterError):
        sample_goe(5, omega2=-1.0)
