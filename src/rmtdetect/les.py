"""Linear eigenvalue statistics and their theoretical moments.

An LES is tau = sum_i phi(lambda_i) for a scalar test function phi. The
named functions follow two conventions: MSR is the 1/N-AVERAGED modulus of
a ring spectrum, everything else is the plain sum over a covariance
spectrum. Each indicator series records which convention produced it.
DET and LRF take logarithms, so they need N < T (the sweep checks every
block). The package does not re-export the function `les`, so
`rmtdetect.les` stays this module.

Theoretical references:

* lln_expectation -- N * integral of phi against the limiting density
  (plain integral for MSR);
* msr_moments     -- the ring law's radial moments in closed form, for
  every product depth L;
* clt_variance    -- the Gaussian fluctuation variance of a covariance LES,
  a double integral over the angle parametrization of the support. It
  describes fluctuations of matrices with genuinely i.i.d. entries; row
  standardization pins each row's mean and variance and shrinks observed
  fluctuations well below this value, so detection thresholds built from it
  are conservative.

The sweep's windows and the Monte Carlo trials of mc_ring_msr run through
_map, which splits them over forked worker processes where BLAS leaves CPUs
idle; results do not depend on the number of workers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError, DivergenceError, NumericalFailureError, ParameterError
from .rmm import StandardizedMatrix, covariance, ring_product, standardize
from .rng import SeedLike, as_generator, derived_seed
from .spectral import (
    MarchenkoPastur,
    ReferenceDensity,
    RingLaw,
    _converge,
    _leggauss,
    eigen_general,
    eigen_hermitian,
)

LOG_CLAMP = 1e-12

# Running count of eigenvalues clamped for log-domain functions.
_clamp_events = 0
_clamp_lock = threading.Lock()


def clamp_event_count() -> int:
    """Total eigenvalues replaced by LOG_CLAMP since import, in worker
    processes included."""
    return _clamp_events


def _add_clamp_events(n: int) -> None:
    global _clamp_events
    with _clamp_lock:
        _clamp_events += n


@dataclass(frozen=True)
class TestFunction:
    """Named scalar map over eigenvalues.

    domain "positive" marks log-domain functions whose argument must stay
    strictly positive; "modulus" marks functions of |lambda| on complex
    spectra; "real" imposes nothing.
    """

    __test__ = False  # the name means "LES test function", not a pytest class

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: str = "real"
    averaged: bool = False  # True: tau carries 1/N (the MSR convention)


MSR = TestFunction("MSR", phi=np.abs, domain="modulus", averaged=True)
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

RING_FUNCTIONS = ("MSR",)
COVARIANCE_FUNCTIONS = ("T2", "T3", "T4", "DET", "LRF")


def get_function(name: str) -> TestFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ContractError(
            f"les: unknown test function {name!r}; known: {sorted(FUNCTIONS)}"
        ) from None


def les(spectrum, f: TestFunction) -> float:
    """Empirical LES of a spectrum: sum phi(lambda_i), or the mean modulus
    when f is averaged (MSR).

    Log-domain functions replace nonpositive eigenvalues by LOG_CLAMP and
    add their number to the counter behind clamp_event_count().
    """
    lam = np.asarray(getattr(spectrum, "eigenvalues", spectrum))
    if f.domain == "modulus":
        vals = np.abs(lam)
    else:
        vals = lam.real.astype(float)
        if f.domain == "positive":
            bad = int(np.sum(vals <= 0))
            if bad:
                _add_clamp_events(bad)
                vals = np.maximum(vals, LOG_CLAMP)
    out = float(np.sum(f.phi(vals)))
    return out / len(vals) if f.averaged else out


def window_taus(
    x: StandardizedMatrix,
    L: int,
    functions: Sequence[TestFunction],
    seed: SeedLike,
) -> Dict[str, float]:
    """tau of each test function, by name, on one standardized window.

    The per-window pipeline the sweep and both Monte Carlo oracles share.
    MSR is the mean modulus of the spectrum of the L-deep ring product of x,
    with Haar draws from `seed` (consumed only here); every other function
    sums phi over the spectrum of M = XX^H/N, clamping log-domain inputs.
    """
    ring = [f for f in functions if f.name in RING_FUNCTIONS]
    cov = [f for f in functions if f.name not in RING_FUNCTIONS]
    out: Dict[str, float] = {}
    if ring:
        rp = ring_product([x] * L, seed)
        lam = eigen_general(rp.values, N=x.N, T=x.T, L=L)
        for f in ring:
            out[f.name] = les(lam, f)
    if cov:
        lam = eigen_hermitian(covariance(x, "M"), T=x.T, c=x.c)
        for f in cov:
            out[f.name] = les(lam, f)
    return out


def lln_expectation(f: TestFunction, d: ReferenceDensity, N: int) -> float:
    """Law-of-large-numbers limit: N * integral of phi against d.

    MSR returns the plain integral (no N factor), matching its averaged
    convention.
    """
    if f.domain == "positive":
        lo, _ = d.support()
        if lo <= 0:
            raise DivergenceError(
                f"les: {f.name} against {d.kind} with support touching zero diverges"
            )
    mean = d.mean_phi(f.phi)
    return mean if f.averaged else N * mean


@dataclass(frozen=True)
class TheoreticalMoments:
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

    With zeta(theta) = 1 + 1/c + (2/sqrt(c)) sin(theta) and psi the divided
    difference of phi o zeta,

        V = (2 / (c pi^2)) double-int psi^2 (1 - sin t1 sin t2) dt1 dt2
            + (kappa4 / pi^2) (int phi(zeta) sin t dt)^2.

    The diagonal of psi is the derivative limit phi'(zeta) (f.deriv, which
    every covariance function defines); it is used whenever |t1 - t2| < 1e-6.
    """
    if not 0 < c <= 1:
        raise ParameterError(f"les: clt variance needs 0 < c <= 1, got {c}")
    law = MarchenkoPastur(kind="mp2", c=c, sigma2=1.0)
    if f.domain == "positive" and law.support()[0] <= 0:
        raise DivergenceError(f"les: {f.name} is singular on a support touching zero")
    if f.averaged:
        raise ContractError("les: clt_variance covers covariance LESs, not the averaged MSR")

    A = 1.0 + 1.0 / c
    B = 2.0 / np.sqrt(c)

    def total(n):
        x, w = _leggauss(n)
        th = 0.5 * np.pi * x
        wq = 0.5 * np.pi * w
        z = A + B * np.sin(th)
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
        return term1 + term2

    return _converge(total, 1e-7, start=64, cap=2048)


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
    addresses; standardized=True runs the sweep's kernel, window_taus, on the
    row-standardized window, which shrinks the variance substantially.
    """
    rng = as_generator(seed)
    taus = np.empty(reps)
    for i in range(reps):
        x = rng.standard_normal((N, T))
        if standardized:
            taus[i] = window_taus(standardize(x), 1, (f,), rng)[f.name]
        else:
            h = x @ x.T
            lam = np.linalg.eigvalsh((h + h.T) / 2.0 / N)
            taus[i] = les(lam, f)
    return float(taus.mean()), float(taus.var(ddof=1))


_ring_cache: Dict[tuple, Tuple[float, float]] = {}
_ring_cache_lock = threading.Lock()


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
    references calibrate both moments here. Each trial runs window_taus,
    the sweep's own kernel, on one standardized Gaussian window. Trial i
    draws from its own seed (seed_base, N, T, L, i), so _map may split the
    trials over worker processes without changing a bit. Results are
    cached per parameter tuple.
    """
    key = (N, T, L, reps, seed_base)
    with _ring_cache_lock:
        if key in _ring_cache:
            return _ring_cache[key]

    def trial(i: int) -> float:
        rng = as_generator(derived_seed(seed_base, 0xCA11B, N, T, L, i))
        x = standardize(rng.standard_normal((N, T)))
        return window_taus(x, L, (MSR,), rng)["MSR"]

    vals = np.array(_map(trial, range(reps)))
    out = (float(vals.mean()), float(vals.var(ddof=1)))
    with _ring_cache_lock:
        _ring_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _blas_threads(cpus: int) -> int:
    """BLAS threads per process, as OpenBLAS reads them when it loads: the
    first positive OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, else one per
    usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return min(n, cpus)
    return cpus


def _worker_count() -> int:
    """Processes _map may use: usable CPUs over BLAS threads per process.

    Worker processes only pay where BLAS leaves CPUs idle: with BLAS on
    every CPU, two forked workers ran 2.6x slower than one process. The
    count is 1 where fork is unavailable, and while another Python thread
    runs, because a child forked while a thread holds a lock inherits the
    lock held and can deadlock on it.
    """
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, cpus // _blas_threads(cpus))


def _run_chunk(fn: Callable[[Any], Any], chunk: Sequence, conn, parent: int) -> None:
    """Body of a worker process: fn over its chunk, then one message on conn,
    (True, results, clamps) or (False, exception, clamps)."""
    start = _clamp_events
    try:
        out = []
        for x in chunk:
            if os.getppid() != parent:
                return  # orphaned: nobody is left to read the results
            out.append(fn(x))
        conn.send((True, out, _clamp_events - start))
    except Exception as e:  # handed to the parent, which raises it
        conn.send((False, e, _clamp_events - start))
    finally:
        conn.close()


def _map(fn: Callable[[Any], Any], items: Sequence) -> List[Any]:
    """[fn(x) for x in items], split over forked one-shot worker processes.

    items is cut into _worker_count() contiguous chunks. The first runs in
    this process; each other chunk runs in a child forked from it, which
    inherits fn and its chunk, sends its results back through a one-way pipe
    and exits. Every child is joined before _map returns, and terminated
    first when the call fails. fn must not depend on state the other items
    change: results come back in item order and do not depend on the number
    of workers. An error raised by fn reaches the caller with its type and
    message; the earliest chunk's error wins, as in the plain loop. Clamps a
    child counts are added to clamp_event_count().
    """
    items = list(items)
    k = min(len(items), _worker_count())
    if k <= 1:
        return [fn(x) for x in items]
    bounds = [len(items) * j // k for j in range(k + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    ctx = multiprocessing.get_context("fork")
    parent = os.getpid()
    workers = []
    done = False
    try:
        for chunk in chunks[1:]:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_chunk, args=(fn, chunk, writer, parent))
            proc.start()
            writer.close()
            workers.append((proc, reader))
        out = [fn(x) for x in chunks[0]]
        for proc, reader in workers:
            try:
                ok, value, clamps = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"les: worker process {proc.pid} exited with code {proc.exitcode} "
                    "before sending its results"
                ) from None
            _add_clamp_events(clamps)
            if not ok:
                raise value
            out.extend(value)
        done = True
        return out
    finally:
        for proc, reader in workers:
            reader.close()
            if not done:
                proc.terminate()
            proc.join()
