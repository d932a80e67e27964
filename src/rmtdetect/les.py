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

Every window, in the sweep and in the Monte Carlo oracles, runs one kernel,
window_spectra, which returns eigenvalues. The sweep's windows, every
block's in one call, and the Monte Carlo trials of mc_ring_msr run it
through map_spectra, which splits them over forked worker processes where
BLAS leaves CPUs idle (_map) and stacks their spectra in this process, one
stack pair per block; stacked_taus then evaluates each test function over
the stacks. detect.write_indicator_csv also formats its tracks through
_map. Results do not depend on the number of workers.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError, DivergenceError, NumericalFailureError, ParameterError
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


def les(spectrum, f: TestFunction):
    """Empirical LES of a spectrum: sum phi(lambda_i), or the mean modulus
    when f is averaged (MSR).

    On a stack of spectra, one per row, it returns one tau per row, each
    the same bits as a call on that row alone. Log-domain functions floor
    every eigenvalue at LOG_CLAMP, so a rank-deficient window's tau does not
    hang on the sign its near-zero eigenvalues round to, and add the number
    of nonpositive ones to the counter behind clamp_event_count().
    """
    lam = np.asarray(getattr(spectrum, "eigenvalues", spectrum))
    if f.domain == "modulus":
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
    if f.averaged:
        out = out / lam.shape[-1]
    return float(out) if out.ndim == 0 else out


Spectra = Tuple[Optional[np.ndarray], Optional[np.ndarray]]


def _needs(functions: Sequence[TestFunction]) -> Tuple[bool, bool]:
    """Whether some function needs the ring spectrum, and some the covariance one."""
    ring = [f.name in RING_FUNCTIONS for f in functions]
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
        z = _rescaled_product(root @ haar_unitary(N, rng) for _ in range(L))
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
            lam = ring[rows] if f.name in RING_FUNCTIONS else floored
            parts[f.name].append(les(lam, f))
    return {name: np.concatenate(taus) for name, taus in parts.items()}


def _shared(rows: int, cols: int, dtype) -> np.ndarray:
    """A zeroed rows x cols array in anonymous shared memory: a worker forked
    after it is made writes into the caller's copy."""
    size = max(rows * cols * np.dtype(dtype).itemsize, 1)
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype, count=rows * cols).reshape(rows, cols)


def map_spectra(
    spectra_of: Callable[[Any, int], Spectra], items: Sequence, widths: Sequence[int],
    functions: Sequence[TestFunction],
) -> List[Spectra]:
    """One (ring, covariance) stack pair per block b: spectra_of(x, b) of
    every item x, stacked in item order as (items x widths[b]) arrays, None
    where no function needs them.

    One _map call runs spectra_of over every (item, block) pair, item-major
    (for each item, every block in block order), so each worker's
    contiguous chunk holds an even share of every block's items and the
    first error in that order is the one raised. Each call writes its row
    of its block's stacks, which live in shared memory, so the spectra
    reach this process without being pickled or held twice; every block's
    stacks live until the caller drops them.
    """
    items = list(items)
    need_ring, need_cov = _needs(functions)
    stacks = [
        (_shared(len(items), n, complex) if need_ring else None,
         _shared(len(items), n, float) if need_cov else None)
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

    _map(fill, [(i, b) for i in range(len(items)) for b in range(len(widths))])
    return stacks


def lln_expectation(f: TestFunction, d, N: int) -> float:
    """Law-of-large-numbers limit: N * integral of phi against the law d
    (RingLaw or MarchenkoPastur).

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

    With zeta(theta) = 1 + 1/c + (2/sqrt(c)) sin(theta) (the law's own
    substitution, MarchenkoPastur._zeta at sigma2 = 1) and psi the divided
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
    own seed (seed_base, N, T, L, i), so _map may split the trials over
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


def _chunks(items: list, k: int) -> List[list]:
    """items cut into min(len(items), k) contiguous chunks, at least one,
    whose lengths differ by at most one."""
    k = max(1, min(len(items), k))
    bounds = [len(items) * j // k for j in range(k + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_chunk(fn: Callable[[Any], None], chunk: Sequence, conn, parent: int) -> None:
    """Body of a worker process: fn over its chunk, then one message on conn,
    None once every call has returned, or the exception one raised."""
    try:
        for x in chunk:
            if os.getppid() != parent:
                return  # orphaned: nobody is left to read the message
            fn(x)
        conn.send(None)
    except Exception as e:  # handed to the parent, which raises it
        conn.send(e)
    finally:
        conn.close()


def _map(fn: Callable[[Any], None], items: Sequence) -> None:
    """fn(x) for every x in items, for its effect only, split over forked
    one-shot worker processes.

    items is cut into _worker_count() contiguous chunks (_chunks). The
    first runs in this process; each other chunk runs in a child forked
    from it, which inherits fn and its chunk, sends back through a one-way
    pipe only whether fn raised, and exits, so fn's effect must reach this
    process through shared memory (map_spectra's stacks) or through a file
    the caller opened before the call (detect.write_indicator_csv's
    temporary files), which fn flushes itself: a child exits without
    flushing its file buffers. Every child is joined before _map returns,
    and terminated first when the call fails. fn must not depend on state
    the other items change: the effect does not depend on the number of
    workers. An error raised by fn reaches the caller with its type and
    message; the earliest chunk's error wins, as in the plain loop. fn must
    not count clamps: a child's count stays in the child.
    """
    chunks = _chunks(list(items), _worker_count())
    if len(chunks) == 1:
        for x in chunks[0]:
            fn(x)
        return
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
        for x in chunks[0]:
            fn(x)
        for proc, reader in workers:
            try:
                error = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"les: worker process {proc.pid} exited with code {proc.exitcode} "
                    "before reporting"
                ) from None
            if error is not None:
                raise error
        done = True
    finally:
        for proc, reader in workers:
            reader.close()
            if not done:
                proc.terminate()
            proc.join()
