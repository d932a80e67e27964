"""Linear eigenvalue statistics and their theoretical moments.

An LES is tau = sum_i phi(lambda_i) for a scalar test function phi. A ring
function (TestFunction.ring: MSR) is the 1/N-averaged modulus over the ring
spectrum; every other function sums phi over the covariance spectrum of M.
DET and LRF take logarithms, so they need N < T (the sweep checks every
block). The package does not re-export the function `les`, so
`rmtdetect.les` stays this module.

Theoretical references, which theoretical_moments picks per function:

* lln_expectation -- N * integral of phi against the limiting density
  (plain integral for a ring function);
* msr_moments     -- the ring law's radial moments in closed form, for
  every product depth L;
* clt_variance    -- the Gaussian fluctuation variance of a covariance LES,
  a double integral over the angle parametrization of the support. It
  describes fluctuations of matrices with genuinely i.i.d. entries; row
  standardization pins each row's mean and variance and shrinks observed
  fluctuations well below this value, so detection thresholds built from it
  are conservative.

Every window, in the sweep and in the Monte Carlo oracles, runs one kernel,
window_spectra; map_spectra runs it on the worker processes of `workers`
and stacks the spectra in this process for stacked_taus.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import workers
from .errors import ContractError, DivergenceError, NumericalFailureError
# ring_product is imported but unused: the benchmark's tracer tests look the
# name up in this namespace.
from .rmm import (  # noqa: F401
    _check_aspect,
    _check_unit_rows,
    _hermitian_sqrt,
    _rescaled_product,
    _standardized,
    haar_unitary,
    ring_product,
)
from .rng import SeedLike, as_generator, child, derived_seed
from .spectral import (
    MarchenkoPastur,
    RingLaw,
    _converge,
    _covariance_floor,
    _eigvalsh,
    _leggauss,
    eigen_general,
)

LOG_CLAMP = 1e-12

# Running count of eigenvalues clamped for log-domain functions.
_clamp_events = 0
_clamp_lock = threading.Lock()


def clamp_event_count() -> int:
    """Total nonpositive eigenvalues clamped to LOG_CLAMP since import."""
    return _clamp_events


def _add_clamp_events(n: int) -> None:
    global _clamp_events
    with _clamp_lock:
        _clamp_events += n


@dataclass(frozen=True)
class TestFunction:
    """Named scalar map over eigenvalues.

    ring=True marks a function of |lambda| on the ring spectrum whose tau
    carries 1/N (MSR); every other function reads the covariance spectrum
    of M and sums phi. domain "positive" marks log-domain functions whose
    argument must stay strictly positive; "real" imposes nothing.
    """

    __test__ = False  # the name means "LES test function", not a pytest class

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: str = "real"
    ring: bool = False


MSR = TestFunction("MSR", phi=np.abs, ring=True)
T2 = TestFunction("T2", phi=lambda x: 2 * x**2 - 1, deriv=lambda x: 4 * x)
T3 = TestFunction("T3", phi=lambda x: 4 * x**3 - 3 * x, deriv=lambda x: 12 * x**2 - 3)
T4 = TestFunction(
    "T4", phi=lambda x: 8 * x**4 - 8 * x**2 + 1, deriv=lambda x: 32 * x**3 - 16 * x
)
DET = TestFunction("DET", phi=np.log, deriv=lambda x: 1.0 / x, domain="positive")
LRF = TestFunction(
    "LRF", phi=lambda x: x - np.log(x) - 1, deriv=lambda x: 1.0 - 1.0 / x, domain="positive"
)

FUNCTIONS: Dict[str, TestFunction] = {f.name: f for f in (MSR, T2, T3, T4, DET, LRF)}


def get_function(name: str) -> TestFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ContractError(
            f"les: unknown test function {name!r}; known: {sorted(FUNCTIONS)}"
        ) from None


def les(spectrum, f: TestFunction):
    """Empirical LES of a spectrum: sum phi(lambda_i), or the mean modulus
    when f is a ring function (MSR).

    On a stack of spectra, one per row, it returns one tau per row, each
    the same bits as a call on that row alone. Log-domain functions floor
    every eigenvalue at LOG_CLAMP, so a rank-deficient window's tau does not
    hang on the sign its near-zero eigenvalues round to, and add the number
    of nonpositive ones to the counter behind clamp_event_count().
    """
    lam = np.asarray(getattr(spectrum, "eigenvalues", spectrum))
    if f.ring:
        vals = np.abs(lam)
    else:
        vals = lam.real.astype(float)
        if f.domain == "positive":
            bad = int(np.count_nonzero(vals <= 0))
            if bad:
                _add_clamp_events(bad)
            vals = np.maximum(vals, LOG_CLAMP)
    # a sum along the contiguous last axis adds each row as the 1-D sum does
    out = np.sum(f.phi(vals), axis=-1)
    if f.ring:
        out = out / lam.shape[-1]
    return float(out) if out.ndim == 0 else out


Spectra = Tuple[Optional[np.ndarray], Optional[np.ndarray]]


def _needs(functions: Sequence[TestFunction]) -> Tuple[bool, bool]:
    """Whether some function needs the ring spectrum, and some the covariance one."""
    ring = [f.ring for f in functions]
    return any(ring), not all(ring)


def window_spectra(
    x,
    L: int,
    functions: Sequence[TestFunction],
    seed: SeedLike,
    names: Optional[Sequence[str]] = None,
    policy: str = "error",
) -> Spectra:
    """(ring, covariance) eigenvalues of one window, None where no function
    needs them: the per-window kernel of the sweep and the Monte Carlo
    oracles.

    x is a raw N x T window, whose rows are standardized here as standardize
    does, degenerate rows named by `names` (by row index without names).
    h = XX^T is formed once; the ring spectrum is that of the row-rescaled
    product of L copies of sqrt(h) U, square root taken once and U drawn per
    copy, and the covariance spectrum that of M = h / N, before
    _covariance_floor, which stacked_taus applies to the stacked spectra.
    The rows are checked through the diagonal of h. `seed` is the window's
    SeedSequence, whose child 0 seeds the jitter and child 1 the Haar draws,
    each made only when a draw needs it; or a Generator, which serves both.
    """
    ring, cov = _needs(functions)
    X = _standardized(np.asarray(x, dtype=float), policy, lambda: child(seed, 0), names)
    _check_aspect(*X.shape)
    N, T = X.shape
    # numpy forms XX^T of a real X with one triangle mirrored (syrk), and its
    # products commute anyway, so h equals (h + h^T) / 2 bit for bit
    h = X @ X.T
    _check_unit_rows(np.diagonal(h) / T, names)
    ring_lam = cov_lam = None
    if ring:
        root, rng = _hermitian_sqrt(h), as_generator(child(seed, 1))
        z = _rescaled_product((root @ haar_unitary(N, rng) for _ in range(L)), L)
        ring_lam = eigen_general(z, N=N, T=T, L=L).eigenvalues
    if cov:
        h /= N
        cov_lam = _eigvalsh(h)
    return ring_lam, cov_lam


# Windows per les call in stacked_taus: the temporaries of a call stay near
# 0.5 MB a function at N = 118 however many windows a track has.
STACK_ROWS = 128


def stacked_taus(
    ring: Optional[np.ndarray], cov: Optional[np.ndarray], functions: Sequence[TestFunction]
) -> Dict[str, np.ndarray]:
    """tau per window of each function, by name, from the (windows x N)
    stacks of ring and covariance spectra: one les call per function on
    each STACK_ROWS windows, the covariance floor applied once to each."""
    parts: Dict[str, list] = {f.name: [] for f in functions}
    for lo in range(0, len(ring if cov is None else cov), STACK_ROWS):
        rows = slice(lo, lo + STACK_ROWS)
        floored = None if cov is None else _covariance_floor(cov[rows])
        for f in functions:
            lam = ring[rows] if f.ring else floored
            parts[f.name].append(les(lam, f))
    return {name: np.concatenate(taus) for name, taus in parts.items()}


def map_spectra(
    spectra_of: Callable[[Any, int], Spectra], items: Sequence, widths: Sequence[int],
    functions: Sequence[TestFunction],
) -> List[Spectra]:
    """One (ring, covariance) stack pair per block b: spectra_of(x, b) of
    every item x, stacked in item order as (items x widths[b]) arrays, None
    where no function needs them.

    One workers.run call runs spectra_of over every (item, block) pair,
    item-major (for each item, every block in block order), so each
    worker's contiguous chunk holds an even share of every block's items
    and the first error in that order is the one raised. Each call writes
    its row of its block's stacks, which live in shared memory
    (workers.shared_array), so the spectra reach this process without being
    pickled or held twice; every block's stacks live until the caller drops
    them.
    """
    items = list(items)
    need_ring, need_cov = _needs(functions)
    stacks = [
        (workers.shared_array(len(items), n, complex) if need_ring else None,
         workers.shared_array(len(items), n, float) if need_cov else None)
        for n in widths
    ]

    def fill(job: Tuple[int, int]) -> None:
        i, b = job
        r, c = spectra_of(items[i], b)
        ring, cov = stacks[b]
        if ring is not None:
            ring[i] = r
        if cov is not None:
            cov[i] = c

    workers.run(fill, [(i, b) for i in range(len(items)) for b in range(len(widths))])
    return stacks


def _check_log_domain(f: TestFunction, d) -> None:
    """A log-domain function diverges on a support that touches zero."""
    if f.domain == "positive" and d.support()[0] <= 0:
        raise DivergenceError(f"les: {f.name} diverges against {d.kind}, whose support touches 0")


def lln_expectation(f: TestFunction, d, N: int) -> float:
    """Law-of-large-numbers limit: N * integral of phi against the law d
    (RingLaw or MarchenkoPastur).

    A ring function (MSR) returns the plain integral (no N factor),
    matching its 1/N-averaged tau.
    """
    _check_log_domain(f, d)
    mean = d.mean_phi(f.phi)
    return mean if f.ring else N * mean


class TheoreticalMoments(NamedTuple):
    expectation: float
    variance: float


def msr_moments(c: float, L: int = 1) -> TheoreticalMoments:
    """Mean and variance of a single ring radius, in closed form.

    The radial law of the L-deep ring product has E[r^k] =
    2 / (c (2 + kL)) (1 - (1-c)^{(2 + kL)/2}) (RingLaw.radial_moment); at
    L=1 these are E[r] = (2 / 3c)(1 - (1-c)^{3/2}) and
    E[r^2] = (1 / 2c)(1 - (1-c)^2).
    """
    law = RingLaw(c=c, L=L)
    e1 = law.radial_moment(1)
    return TheoreticalMoments(expectation=e1, variance=law.radial_moment(2) - e1**2)


def clt_variance(f: TestFunction, c: float, kappa4: float = 0.0) -> float:
    """Fluctuation variance of a covariance LES for i.i.d. entries.

    With zeta(theta) = 1 + 1/c + (2/sqrt(c)) sin(theta) (the law's own
    substitution, MarchenkoPastur._zeta at sigma2 = 1) and psi the divided
    difference of phi o zeta,

        V = (2 / (c pi^2)) double-int psi^2 (1 - sin t1 sin t2) dt1 dt2
            + (kappa4 / pi^2) (int phi(zeta) sin t dt)^2.

    The diagonal of psi is the derivative limit phi'(zeta) (f.deriv, which
    every covariance function defines); it is used whenever |t1 - t2| < 1e-6.
    """
    law = MarchenkoPastur(kind="mp2", c=c, sigma2=1.0)
    _check_log_domain(f, law)
    if f.ring:
        raise ContractError("les: clt_variance covers covariance LESs, not a ring function")

    def total(n):
        x, w = _leggauss(n)
        th = 0.5 * np.pi * x
        wq = 0.5 * np.pi * w
        z = law._zeta(th)
        fz = f.phi(z)
        dz = np.subtract.outer(z, z)
        dth = np.abs(np.subtract.outer(th, th))
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = np.subtract.outer(fz, fz) / dz
        near = dth < 1e-6
        psi = np.where(near, np.broadcast_to(f.deriv(z)[:, None], psi.shape), psi)
        if not np.isfinite(psi).all():
            raise NumericalFailureError("les: non-finite integrand in the fluctuation integral")
        s = np.sin(th)
        kernel = psi**2 * (1.0 - np.outer(s, s))
        term1 = 2.0 / (c * np.pi**2) * float(wq @ kernel @ wq)
        term2 = kappa4 / np.pi**2 * float(np.sum(wq * fz * s)) ** 2
        v = term1 + term2
        if not np.isfinite(v):
            # inf - inf is NaN, so _converge would call this a slow quadrature
            raise NumericalFailureError(
                f"les: the fluctuation variance of {f.name} overflows float64 at c={c}, "
                f"kappa4={kappa4}"
            )
        return v

    return _converge(total, 1e-7, start=64, cap=2048)


def theoretical_moments(
    f: TestFunction, N: int, T: int, L: int = 1, kappa4: float = 0.0
) -> TheoreticalMoments:
    """The asymptotic reference of f on N x T windows, unchecked: the ring
    law's radial moments at depth L for a ring function, else the mp2
    expectation with the fluctuation variance at excess kurtosis kappa4."""
    c = N / T
    if f.ring:
        return msr_moments(c, L)
    law = MarchenkoPastur(kind="mp2", c=c, sigma2=1.0)
    return TheoreticalMoments(lln_expectation(f, law, N), clt_variance(f, c, kappa4=kappa4))


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------


def mc_covariance_les(
    f: TestFunction,
    N: int,
    T: int,
    reps: int,
    seed: SeedLike = 0,
    standardized: bool = False,
) -> Tuple[float, float]:
    """Mean and variance of tau over Gaussian trials on M = XX^H / N.

    standardized=False samples the i.i.d. ensemble the fluctuation theorem
    addresses; standardized=True runs the sweep's kernel (window_spectra and
    stacked_taus) on the raw window, whose rows it standardizes, which shrinks
    the variance substantially.
    """
    rng = as_generator(seed)
    taus = np.empty(reps)
    for i in range(reps):
        x = rng.standard_normal((N, T))
        if standardized:
            _, lam = window_spectra(x, 1, (f,), rng)
            taus[i] = stacked_taus(None, lam[None], (f,))[f.name][0]
        else:
            h = x @ x.T
            lam = np.linalg.eigvalsh((h + h.T) / 2.0 / N)
            taus[i] = les(lam, f)
    return float(taus.mean()), float(taus.var(ddof=1))


_ring_cache: Dict[tuple, Tuple[float, float]] = {}


def mc_ring_msr(
    N: int,
    T: int,
    L: int = 1,
    reps: int = 200,
    seed_base: int = 0,
) -> Tuple[float, float]:
    """Monte Carlo mean and variance of tau_MSR at finite (N, T, L).

    The asymptotic radial moments carry a visible finite-size bias already
    at N ~ 100 (and a larger one for small regional blocks), so detection
    references calibrate both moments here. Each trial runs window_spectra,
    the sweep's own kernel, on one Gaussian window. Trial i draws from its
    own seed (seed_base, N, T, L, i), so workers.run may split the trials over
    worker processes without changing a bit. Results are cached per
    parameter tuple.
    """
    key = (N, T, L, reps, seed_base)
    if key in _ring_cache:
        return _ring_cache[key]

    def trial(i: int, block: int) -> Spectra:
        rng = as_generator(derived_seed(seed_base, 0xCA11B, N, T, L, i))
        return window_spectra(rng.standard_normal((N, T)), L, (MSR,), rng)

    (spectra,) = map_spectra(trial, range(reps), (N,), (MSR,))
    vals = stacked_taus(*spectra, (MSR,))["MSR"]
    out = (float(vals.mean()), float(vals.var(ddof=1)))
    _ring_cache[key] = out
    return out
