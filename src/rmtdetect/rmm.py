"""Random-matrix models built from raw windows.

The chain for the ring pipeline is

    raw window  ->  row-standardized matrix  ->  singular-value equivalent
                ->  L-fold product           ->  row-rescaled product

and for the covariance pipeline

    raw window  ->  row-standardized matrix  ->  M = XX^H/N.

All variances use the population convention (divisor T), which pins the
realized row variance to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    AspectRatioError,
    DegenerateRowError,
    ParameterError,
    ShapeError,
)
from .rng import SeedLike, as_generator

DEGENERATE_POLICIES = ("error", "jitter")

# Noise scale injected under policy="jitter" before re-standardizing.
JITTER_SCALE = 1e-8


def _unstandardized_rows(v: np.ndarray) -> np.ndarray:
    """Indices of the rows whose mean is not 0 or whose variance is not 1
    (a NaN row counts as not standardized)."""
    mu = v.mean(axis=1)
    var = (np.abs(v - mu[:, None]) ** 2).mean(axis=1)
    return np.flatnonzero(~((np.abs(mu) <= 1e-10) & (np.abs(var - 1.0) <= 1e-8)))


def _check_aspect(n: int, t: int) -> None:
    if n > t:
        raise AspectRatioError(f"rmm: {n} rows exceed {t} columns; need c = N/T <= 1")


@dataclass(frozen=True)
class StandardizedMatrix:
    """Row-wise zero-mean unit-variance matrix with aspect ratio c = N/T."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        _check_aspect(*v.shape)
        if _unstandardized_rows(v).size:
            raise ShapeError("rmm: rows are not standardized to mean 0, variance 1")

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def T(self) -> int:
        return self.values.shape[1]

    @property
    def c(self) -> float:
        return self.values.shape[0] / self.values.shape[1]


@dataclass(frozen=True)
class RingProduct:
    """Row-rescaled product of L singular-value equivalents (complex N x N)."""

    values: np.ndarray
    L: int


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian covariance M = XX^H/N of a standardized window."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"rmm: covariance must be square, got {v.shape}")
        scale = max(1.0, float(np.abs(v).max()))
        if np.abs(v - v.conj().T).max() > 1e-12 * scale:
            raise ShapeError("rmm: covariance matrix is not Hermitian")


def _labels(names, rows: np.ndarray) -> list:
    """Node ids of the given rows, or the row indices (plain ints) without names."""
    return rows.tolist() if names is None else [names[i] for i in rows]


def _moments(X: np.ndarray):
    """Row mean, X - mean and row std, bit for bit what np.mean and np.std
    give, with the one subtraction np.std makes reused."""
    mu = X.sum(axis=1, keepdims=True) / X.shape[1]
    d = X - mu
    return mu, d, np.sqrt((d * d).sum(axis=1, keepdims=True) / X.shape[1])


def _standardized(X: np.ndarray, policy: str, jitter_seed: Callable[[], SeedLike], names=None):
    """The rows of standardize(X) as a new array, before any check of them.

    jitter_seed is called only when policy="jitter" has a row to jitter.
    """
    if policy not in DEGENERATE_POLICIES:
        raise ParameterError(f"rmm: unknown degenerate-row policy {policy!r}")
    # a row whose sums or squares overflow turns inf or NaN and fails the caller's check
    with np.errstate(over="ignore", invalid="ignore"):
        mu, d, sd = _moments(X)
        flat = np.flatnonzero(sd.ravel() == 0.0)
        if flat.size:
            if policy == "error":
                raise DegenerateRowError(f"rmm: zero-variance rows: {_labels(names, flat)}")
            noise = as_generator(jitter_seed()).normal(0.0, 1.0, size=(flat.size, X.shape[1]))
            X = X.copy()  # the caller's array stays untouched
            X[flat] += JITTER_SCALE * (1.0 + np.abs(mu[flat])) * noise
            _, d, sd = _moments(X)
        np.divide(d, sd, out=d)
        # second centering pass flushes the O(mean * eps) cancellation residue
        d -= d.sum(axis=1, keepdims=True) / X.shape[1]
    return d


def _precision_error(names, rows: np.ndarray) -> DegenerateRowError:
    return DegenerateRowError(
        f"rmm: rows {_labels(names, rows)} cannot be standardized in float64: their spread "
        "is below what float64 resolves at their magnitude, or their sums or squares overflow"
    )


def _check_unit_rows(gram_diagonal: np.ndarray, names=None) -> None:
    """The row check of StandardizedMatrix, read off the diagonal of XX^T
    of a standardized X, divided by T, instead of a scan of X.

    After the second centering pass a finite row's mean is within a few
    ulps of 0, so the diagonal over T is the row variance up to rounding and
    only a non-finite or non-unit one fails. NaN fails too.
    """
    bad = ~(np.abs(gram_diagonal - 1.0) <= 1e-8)
    if bad.any():
        raise _precision_error(names, np.flatnonzero(bad))


def standardize(
    x: np.ndarray,
    policy: str = "error",
    seed: SeedLike = None,
) -> StandardizedMatrix:
    """Map each row x to (x - mean(x)) / std(x).

    Invariant under per-row positive affine transforms of the input, which
    is what makes every downstream statistic unit-free. A zero-variance row
    raises under policy="error"; policy="jitter" adds seeded Gaussian noise
    of std JITTER_SCALE * (1 + |mean|) and standardizes the result. A row
    float64 cannot standardize (a spread near eps times its offset, or
    values whose sums or squares overflow) raises DegenerateRowError; both
    errors name the rows by index. The sweep's kernel names them by node id.
    """
    out = _standardized(np.asarray(x, dtype=float), policy, lambda: seed)
    try:
        return StandardizedMatrix(out)
    except ShapeError:
        raise _precision_error(None, _unstandardized_rows(out)) from None


def haar_unitary(n: int, seed: SeedLike) -> np.ndarray:
    """Haar-distributed n x n unitary.

    QR of a complex Ginibre matrix with the usual diagonal phase fix: plain
    orthonormalization alone is not Haar-distributed, so each column of Q is
    rescaled by the unit-modulus phase of the matching R diagonal entry,
    making the factorization unique.
    """
    if n < 1:
        raise ParameterError(f"rmm: unitary dimension must be >= 1, got {n}")
    rng = as_generator(seed)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _symmetric_gram(X: np.ndarray) -> np.ndarray:
    """(h + h^H) / 2 for h = XX^H."""
    h = X @ X.conj().T
    return (h + h.conj().T) / 2.0


def _hermitian_sqrt(h: np.ndarray) -> np.ndarray:
    """PSD square root of a Hermitian matrix by eigendecomposition,
    clamping roundoff negatives."""
    w, v = np.linalg.eigh(h)
    clamp = 1e-12 * max(w[-1], 0.0)
    w = np.where(w < clamp, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def singular_value_equivalent(
    x: Union[StandardizedMatrix, np.ndarray], seed: SeedLike
) -> np.ndarray:
    """The square matrix sqrt(XX^H) U sharing X's singular values, U Haar."""
    X = x.values if isinstance(x, StandardizedMatrix) else np.asarray(x)
    return _hermitian_sqrt(_symmetric_gram(X)) @ haar_unitary(X.shape[0], seed)


def _rescaled_product(factors) -> np.ndarray:
    """Row-rescaled product of the factors, taken in order."""
    z = None
    for xu in factors:
        z = xu if z is None else z @ xu
    mu = z.mean(axis=1, keepdims=True)
    sd = np.sqrt((np.abs(z - mu) ** 2).mean(axis=1, keepdims=True))
    if (sd == 0).any():
        raise DegenerateRowError("rmm: ring product produced a constant row")
    return z / (np.sqrt(z.shape[0]) * sd)


def ring_product(windows: Sequence[StandardizedMatrix], seed: SeedLike) -> RingProduct:
    """Product of singular-value equivalents with row rescaling.

    Each row z of the product is scaled to z / (sqrt(N) std(z)). The row
    mean enters only through std(z); it is NOT subtracted from the row.
    Subtracting it would right-multiply the product by the projector
    complementary to the all-ones vector and pin one eigenvalue at zero,
    visibly denting the inner edge of the spectrum at moderate N.
    """
    windows = list(windows)
    if not windows:
        raise ParameterError("rmm: ring product needs at least one window")
    n = windows[0].N
    for wdw in windows[1:]:
        if wdw.N != n:
            raise ShapeError(f"rmm: window row counts differ: {wdw.N} vs {n}")
    rng = as_generator(seed)
    z = _rescaled_product(singular_value_equivalent(wdw, rng) for wdw in windows)
    return RingProduct(z, L=len(windows))


def covariance(x: StandardizedMatrix, convention: str = "M") -> CovarianceMatrix:
    """Covariance M = XX^H/N, symmetrized before return.

    "M" is the only convention; the argument stays so callers name it.
    """
    if convention != "M":
        raise ParameterError(f"rmm: unknown covariance convention {convention!r}; only 'M'")
    h = _symmetric_gram(x.values)
    h /= x.N
    return CovarianceMatrix(h)

