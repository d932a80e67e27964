"""Plain per-window reference for the benchmark's output checks.

Each window's statistic is recomputed here straight from numpy, one window
at a time: row standardization, the ring product with its QR-drawn Haar
unitaries for MSR, the covariance spectrum for the other functions. Seeds
follow the documented derivation ``SeedSequence([base_seed, end])``, split
into a jitter stream and a ring stream, so tau does not depend on how the
program groups or orders windows. Only the reference moments come from the
library (its Monte Carlo calibration and quadrature); the flag rule and the
merging of flagged runs into events are restated here.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

les = importlib.import_module("rmtdetect.les")  # the package's `les` attribute is the function
spectral = importlib.import_module("rmtdetect.spectral")

LOG_CLAMP = 1e-12
TAU_RTOL = 1e-9
# DetectorConfig defaults, which the analyze command also uses.
GAP_TOLERANCE = 2
MIN_DURATION = 3

PHI = {
    "T2": lambda x: 2 * x**2 - 1,
    "T3": lambda x: 4 * x**3 - 3 * x,
    "T4": lambda x: 8 * x**4 - 8 * x**2 + 1,
    "DET": np.log,
    "LRF": lambda x: x - np.log(x) - 1,
}
LOG_DOMAIN = ("DET", "LRF")


@dataclass
class Outcome:
    """What a sweep produced, in one shape for the program and the reference.

    tracks maps (region, function) to (tau, flag); events are
    (start_t, region, function, end_t, direction, peak_sigma) tuples sorted
    the way the program sorts them.
    """

    t: np.ndarray
    tracks: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]]
    events: List[tuple]


def standardize_rows(block: np.ndarray) -> np.ndarray:
    x = (block - block.mean(axis=1, keepdims=True)) / block.std(axis=1, keepdims=True)
    return x - x.mean(axis=1, keepdims=True)


def ring_tau(x: np.ndarray, seed, L: int) -> float:
    """Mean eigenvalue modulus of the L-fold ring product of x."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    h = x @ x.T
    w, v = np.linalg.eigh((h + h.T) / 2.0)
    w = np.where(w < 1e-12 * max(w[-1], 0.0), 0.0, w)
    root = (v * np.sqrt(w)) @ v.T
    z = None
    for _ in range(L):
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        xu = root @ (q * (d / np.abs(d)))
        z = xu if z is None else z @ xu
    mu = z.mean(axis=1, keepdims=True)
    z = z / (np.sqrt(n) * np.sqrt((np.abs(z - mu) ** 2).mean(axis=1, keepdims=True)))
    return float(np.abs(np.linalg.eigvals(z)).mean())


def covariance_taus(x: np.ndarray, names: Sequence[str]) -> Dict[str, float]:
    h = x @ x.T
    lam = np.clip(np.linalg.eigvalsh((h + h.T) / 2.0 / x.shape[0]), 0.0, None)
    out = {}
    for name in names:
        vals = np.maximum(lam, LOG_CLAMP) if name in LOG_DOMAIN else lam
        out[name] = float(np.sum(PHI[name](vals)))
    return out


def window_taus(
    values: np.ndarray, ends: np.ndarray, T: int, L: int, base_seed: int, functions: Sequence[str]
) -> Dict[str, np.ndarray]:
    cov = [f for f in functions if f != "MSR"]
    taus = {f: np.empty(len(ends)) for f in functions}
    for i, end in enumerate(ends):
        x = standardize_rows(values[:, end - T + 1 : end + 1])
        _, ring_seed = np.random.SeedSequence([int(base_seed), int(end)]).spawn(2)
        if "MSR" in taus:
            taus["MSR"][i] = ring_tau(x, ring_seed, L)
        for name, v in covariance_taus(x, cov).items():
            taus[name][i] = v
    return taus


def reference_moments(name: str, N: int, T: int, L: int, base_seed: int, mc_reps: int):
    """(e_flag, d_flag) as the detector's theoretical reference defines them."""
    if name == "MSR":
        return les.mc_ring_msr(N, T, L, reps=mc_reps, seed_base=base_seed)
    f = les.get_function(name)
    law = spectral.MarchenkoPastur(kind="mp2", c=N / T, sigma2=1.0)
    return les.lln_expectation(f, law, N), les.clt_variance(f, N / T)


def flagged_runs(
    region: str, name: str, t: np.ndarray, tau: np.ndarray, flag: np.ndarray,
    e_flag: float, d_flag: float, stride: int,
) -> List[tuple]:
    """Flagged runs merged across gaps of at most GAP_TOLERANCE samples."""
    runs: List[List[int]] = []
    for i in np.flatnonzero(flag):
        if runs and t[i] - t[runs[-1][1]] - stride <= GAP_TOLERANCE:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    out = []
    for lo, hi in runs:
        if t[hi] - t[lo] + stride < MIN_DURATION:
            continue
        dev = tau[lo : hi + 1] - e_flag
        peak = int(np.argmax(np.abs(dev)))
        out.append((
            int(t[lo]), region, name, int(t[hi]), int(np.sign(dev[peak])) or 1,
            float(abs(dev[peak]) / np.sqrt(d_flag)),
        ))
    return out


def reference(
    blocks: Dict[str, np.ndarray], ends: np.ndarray, T: int, L: int, stride: int,
    functions: Sequence[str], base_seed: int, k: float, mc_reps: int,
) -> Tuple[Outcome, Dict[Tuple[str, str], Tuple[float, float]]]:
    """Reference outcome for the given region blocks, and the moments used."""
    tracks, moments, events = {}, {}, []
    for region, values in sorted(blocks.items()):
        taus = window_taus(values, ends, T, L, base_seed, functions)
        for name, tau in sorted(taus.items()):
            e, d = reference_moments(name, values.shape[0], T, L, base_seed, mc_reps)
            flag = np.abs(tau - e) > k * np.sqrt(d)
            tracks[(region, name)] = (tau, flag)
            moments[(region, name)] = (e, d)
            events += flagged_runs(region, name, ends, tau, flag, e, d, stride)
    events.sort(key=lambda ev: ev[:3])
    return Outcome(np.asarray(ends), tracks, events), moments


def _close(a, b) -> bool:
    return abs(a - b) <= TAU_RTOL * max(abs(a), abs(b))


def compare(ref: Outcome, got: Outcome) -> List[str]:
    """Differences between the program's outcome and the reference."""
    errors = []
    if not np.array_equal(ref.t, got.t):
        return [f"window ends differ: {len(got.t)} vs {len(ref.t)} expected"]
    if sorted(ref.tracks) != sorted(got.tracks):
        return [f"tracks differ: {sorted(got.tracks)} vs {sorted(ref.tracks)} expected"]
    for key, (tau, flag) in sorted(ref.tracks.items()):
        g_tau, g_flag = got.tracks[key]
        bad = [i for i in range(len(tau)) if not _close(tau[i], g_tau[i])]
        if bad:
            i = bad[0]
            errors.append(f"{key}: tau differs at {len(bad)} windows, first t={ref.t[i]}: "
                          f"{g_tau[i]!r} vs {tau[i]!r}")
        if not np.array_equal(flag, g_flag):
            errors.append(f"{key}: flags differ at t={ref.t[flag != g_flag].tolist()[:5]}")
    if [ev[:5] for ev in ref.events] != [ev[:5] for ev in got.events]:
        errors.append(f"events differ: {len(got.events)} vs {len(ref.events)} expected")
    elif not all(_close(a[5], b[5]) for a, b in zip(ref.events, got.events)):
        errors.append("event peak_sigma differs")
    return errors
