"""Eigen-decomposition and the reference spectral laws.

Three limiting densities are housed here:

* the ring law for products of singular-value equivalents (planar density
  over the annulus, plus its induced radial law),
* the rectangular covariance law of M = XX^H/N ("mp2"),
* the semicircle law for symmetric Gaussian matrices.

Covariance-law integrals run under the substitution
lambda = sigma^2 (1 + 1/c + (2/sqrt(c)) sin(theta)), which removes the
square-root endpoint singularities and leaves a smooth integrand on
[-pi/2, pi/2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    ContractError,
    InvariantViolationError,
    NumericalFailureError,
    ParameterError,
)
from .rng import SeedLike, as_generator

_leggauss_cache: dict = {}


def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    return _leggauss_cache[n]


@dataclass(frozen=True)
class SpectrumSet:
    """Eigenvalues with provenance tags.

    kind "ring" holds complex points from a ring product; "covariance"
    holds nonnegative reals; "wigner" holds reals from a symmetric matrix.
    """

    eigenvalues: np.ndarray
    kind: str
    T: Optional[int] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("ring", "covariance", "wigner"):
            raise ParameterError(f"spectral: unknown spectrum kind {self.kind!r}")
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues))


def eigen_general(
    a: np.ndarray,
    N: Optional[int] = None,
    T: Optional[int] = None,
    L: Optional[int] = None,
) -> SpectrumSet:
    """All eigenvalues (with multiplicity) of a general square matrix; N, T
    and L only name the window when the eigensolver fails."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"spectral: need a square matrix, got shape {a.shape}")
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(
            f"spectral: eigensolver failed on {a.shape[0]}x{a.shape[1]} matrix "
            f"(N={N}, T={T}, L={L}): {e}"
        ) from None
    return SpectrumSet(lam, "ring")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(f"spectral: Hermitian eigensolver failed: {e}") from None


def _covariance_floor(lam: np.ndarray) -> np.ndarray:
    """Ascending covariance spectra (one per row of a stack) with roundoff
    negatives (>= -1e-10 * max) clamped to zero; anything more negative is
    a genuine invariant violation, reported for the first such spectrum."""
    low = lam[..., 0]
    bad = np.flatnonzero(low < -1e-10 * np.maximum(lam[..., -1], 0.0))
    if bad.size:
        raise InvariantViolationError(
            "spectral: covariance matrix is indefinite "
            f"(min eigenvalue {np.ravel(low)[bad[0]]:.3e})"
        )
    return np.clip(lam, 0.0, None)


def eigen_hermitian(
    m: np.ndarray,
    kind: str = "covariance",
    T: Optional[int] = None,
    c: Optional[float] = None,
) -> SpectrumSet:
    """Real ascending eigenvalues of a Hermitian matrix.

    For covariance spectra, tiny negatives from roundoff (>= -1e-10 * max)
    are clamped to zero; anything more negative is a genuine invariant
    violation.
    """
    a = np.asarray(m)
    lam = _eigvalsh(a)
    if kind == "covariance":
        lam = _covariance_floor(lam)
    return SpectrumSet(lam, kind, T=T, c=c)


def sample_goe(n: int, omega2: float = 1.0, seed: SeedLike = None) -> np.ndarray:
    """Symmetric Gaussian matrix scaled by n^{-1/2}.

    Off-diagonal entries have variance omega2, diagonal 2*omega2; the ESD
    converges to the semicircle of parameter omega2. Test fixture.
    """
    if n < 1:
        raise ParameterError(f"spectral: dimension must be >= 1, got {n}")
    if omega2 <= 0:
        raise ParameterError(f"spectral: omega2 must be positive, got {omega2}")
    rng = as_generator(seed)
    a = rng.normal(0.0, np.sqrt(omega2), (n, n))
    w = (a + a.T) / np.sqrt(2.0)
    return w / np.sqrt(n)


# ---------------------------------------------------------------------------
# Reference densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingLaw:
    """Limiting law of the L-fold ring product.

    The planar density over the complex plane is
    rho(lambda) = |lambda|^{2/L-2} / (pi c L) on the annulus
    (1-c)^{L/2} <= |lambda| <= 1. Radial histograms follow the induced law
    2 pi r rho(r), exposed as radial_pdf; pdf() evaluates the planar form.
    """

    kind: str = field(default="ring", init=False)
    c: float = 1.0
    L: int = 1

    def __post_init__(self):
        if not 0 < self.c <= 1:
            raise ParameterError(f"spectral: ring law needs 0 < c <= 1, got {self.c}")
        if self.L < 1:
            raise ParameterError(f"spectral: ring law needs L >= 1, got {self.L}")

    def support(self) -> Tuple[float, float]:
        return ((1.0 - self.c) ** (self.L / 2.0), 1.0)

    def pdf(self, r) -> np.ndarray:
        """Planar density over the complex plane at radius r; zero off the
        annulus. This is not the law of |lambda|: that is radial_pdf."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.support()
        inside = (r >= lo) & (r <= hi)
        with np.errstate(divide="ignore"):
            val = r ** (2.0 / self.L - 2.0) / (np.pi * self.c * self.L)
        return np.where(inside, val, 0.0)

    def radial_pdf(self, r) -> np.ndarray:
        """Density of |lambda|: the planar form times the area element 2 pi r."""
        return 2.0 * np.pi * np.asarray(r, dtype=float) * self.pdf(r)

    def cdf(self, r) -> np.ndarray:
        """CDF of the radius |lambda| (closed form)."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.support()
        out = (np.clip(r, lo, hi) ** (2.0 / self.L) - (1.0 - self.c)) / self.c
        return np.clip(out, 0.0, 1.0)

    def radial_moment(self, k: int) -> float:
        """E[r^k] under the radial law, in closed form."""
        e = (2.0 + k * self.L) / 2.0
        return 2.0 / (self.c * (2.0 + k * self.L)) * (1.0 - (1.0 - self.c) ** e)

    def mean_phi(self, phi: Callable, rtol: float = 1e-8) -> float:
        lo, hi = self.support()

        def total(n):
            x, w = _leggauss(n)
            r = 0.5 * (x + 1.0) * (hi - lo) + lo
            return float(np.sum(w * phi(r) * self.radial_pdf(r)) * 0.5 * (hi - lo))

        return _converge(total, rtol)


@dataclass(frozen=True)
class MarchenkoPastur:
    """Covariance law of M = XX^H/N ("mp2"), support sigma2 (1 +- 1/sqrt(c))^2.

    "mp2" is the only kind; the field stays so callers name the law.
    """

    kind: str = "mp2"
    c: float = 0.5
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind != "mp2":
            raise ParameterError(f"spectral: unknown covariance law {self.kind!r}; only 'mp2'")
        if not 0 < self.c <= 1:
            raise ParameterError(f"spectral: covariance law needs 0 < c <= 1, got {self.c}")
        if self.sigma2 <= 0:
            raise ParameterError(f"spectral: sigma2 must be positive, got {self.sigma2}")

    def support(self) -> Tuple[float, float]:
        s = 1.0 / np.sqrt(self.c)
        return (self.sigma2 * (1.0 - s) ** 2, self.sigma2 * (1.0 + s) ** 2)

    # --- theta substitution ---------------------------------------------
    def _zeta(self, th: np.ndarray) -> np.ndarray:
        rc = np.sqrt(self.c)
        return self.sigma2 * (1.0 + 1.0 / self.c + (2.0 / rc) * np.sin(th))

    def _theta_weight(self, th: np.ndarray) -> np.ndarray:
        """Density of theta such that density(zeta) dzeta = weight(theta) dtheta."""
        z = self._zeta(th) / self.sigma2
        return (2.0 / (np.pi * self.c)) * np.cos(th) ** 2 / z

    def _theta_of(self, x: np.ndarray) -> np.ndarray:
        rc = np.sqrt(self.c)
        shift = 1.0 + 1.0 / self.c
        half = 2.0 / rc
        s = (np.asarray(x, dtype=float) / self.sigma2 - shift) / half
        return np.arcsin(np.clip(s, -1.0, 1.0))

    def cdf(self, x) -> np.ndarray:
        """CDF by Gauss-Legendre on [-pi/2, theta(x)] under the substitution."""
        th = np.atleast_1d(self._theta_of(x))
        nodes, weights = _leggauss(256)
        lo = -np.pi / 2.0
        half = (th - lo) / 2.0
        mid = (th + lo) / 2.0
        grid = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.sum(weights[None, :] * self._theta_weight(grid), axis=1) * half
        out = np.clip(vals, 0.0, 1.0)
        return out if np.ndim(x) else float(out[0])

    def mean_phi(self, phi: Callable) -> float:
        def total(n):
            x, w = _leggauss(n)
            th = 0.5 * np.pi * x
            vals = phi(self._zeta(th)) * self._theta_weight(th)
            if not np.isfinite(vals).all():
                raise NumericalFailureError(
                    "spectral: non-finite integrand while integrating against "
                    f"{self.kind}(c={self.c}, sigma2={self.sigma2})"
                )
            return float(np.sum(w * vals) * 0.5 * np.pi)

        return _converge(total, 1e-8)


@dataclass(frozen=True)
class Semicircle:
    """Semicircle law of parameter omega2, supported on [-2 sqrt(omega2), 2 sqrt(omega2)]."""

    kind: str = field(default="semicircle", init=False)
    omega2: float = 1.0

    def __post_init__(self):
        if self.omega2 <= 0:
            raise ParameterError(f"spectral: omega2 must be positive, got {self.omega2}")

    def support(self) -> Tuple[float, float]:
        r = 2.0 * np.sqrt(self.omega2)
        return (-r, r)

    def cdf(self, x) -> np.ndarray:
        r = 2.0 * np.sqrt(self.omega2)
        x = np.clip(np.asarray(x, dtype=float), -r, r)
        return 0.5 + (x * np.sqrt(r**2 - x**2) + r**2 * np.arcsin(x / r)) / (np.pi * r**2)


def _converge(total: Callable[[int], float], rtol: float, start: int = 64, cap: int = 4096) -> float:
    """Double Gauss-Legendre node counts until successive values agree."""
    prev = total(start)
    n = start * 2
    while n <= cap:
        cur = total(n)
        if abs(cur - prev) <= rtol * (1.0 + abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise NumericalFailureError(f"spectral: quadrature did not converge below rtol={rtol}")


_KIND_MATCH = {
    "covariance": ("mp2",),
    "ring": ("ring",),
    "wigner": ("semicircle",),
}


def esd_distance(s: SpectrumSet, d) -> float:
    """Kolmogorov sup-distance between the empirical spectral CDF and the
    law d (RingLaw, MarchenkoPastur or Semicircle).

    Ring spectra are compared through |lambda| against the radial law.
    """
    if d.kind not in _KIND_MATCH.get(s.kind, ()):
        raise ContractError(
            f"spectral: spectrum kind {s.kind!r} cannot be scored against law {d.kind!r}"
        )
    if s.kind == "ring":
        points = np.sort(np.abs(s.eigenvalues))
    else:
        points = np.sort(s.eigenvalues.real)
    n = len(points)
    if n == 0:
        raise ContractError("spectral: empty spectrum")
    ref = np.asarray(d.cdf(points), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(hi - ref)), np.max(np.abs(lo - ref))))

