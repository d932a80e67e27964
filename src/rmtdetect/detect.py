"""Moving-window sweep, indicator normalization, flagging, event extraction.

For every stride-spaced window end, per region: build the window,
standardize rows, form the ring product (for MSR) or the covariance M (for
the other functions), take the spectrum, evaluate each configured LES, and
flag samples where |tau - E_ref| > k sqrt(D_ref). Before any window runs,
every block is checked against the window: N <= T, and N < T for DET and
LRF.

Reference moments: for MSR both moments come from a cached Monte Carlo
calibration at the exact (N, T, L) in play, because the asymptotic radial
moments carry a finite-size bias of a few sigma at these block sizes (eta
still uses the asymptotic expectation, which is what makes eta ~ 1 read as
"normal"). Covariance LESs use the quadrature expectation and the i.i.d.
fluctuation variance; the latter is conservative on standardized windows.
Alternatively a calibration window range estimates both moments from the
data itself.

A step event occupies exactly the windows whose span contains the jump, so
a permanent level change at t* produces a flagged run over ends
[t*, t* + T - 1]: the "U"-shaped excursion. Event extraction therefore
reports runs, not curve shapes.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    AspectRatioError,
    ConfigurationError,
    ContractError,
    InsufficientHistoryError,
    NumericalFailureError,
    ParameterError,
)
from .ingest import DataSource, RawWindow, RegionPartition, WindowSpec
from .les import (
    LOG_CLAMP,
    RING_FUNCTIONS,
    _map,
    clt_variance,
    get_function,
    lln_expectation,
    mc_ring_msr,
    msr_moments,
    window_taus,
)
# ring_product is imported but unused: the benchmark's tracer tests look the
# name up in this namespace.
from .rmm import ring_product, standardize  # noqa: F401
from .rng import window_seed
from .spectral import MarchenkoPastur

WHOLE_SYSTEM = "ALL"


@dataclass(frozen=True)
class DetectorConfig:
    window: WindowSpec
    functions: Tuple[str, ...] = ("MSR",)
    threshold_k: float = 3.0
    reference: str = "theoretical"  # or "calibration"
    calibration_range: Optional[Tuple[int, int]] = None  # window-end range, inclusive
    regions: Optional[RegionPartition] = None
    base_seed: int = 0
    kappa4: float = 0.0
    mc_reps: int = 200
    gap_tolerance: int = 2
    min_duration: int = 3
    degenerate_policy: str = "error"

    def __post_init__(self):
        if not (np.isfinite(self.threshold_k) and self.threshold_k > 0):
            raise ParameterError(
                f"detect: threshold k (--k) must be finite and positive, got {self.threshold_k}"
            )
        if not np.isfinite(self.kappa4):
            raise ParameterError(f"detect: kappa4 (--kappa4) must be finite, got {self.kappa4}")
        object.__setattr__(self, "functions", tuple(self.functions))
        for name in self.functions:
            get_function(name)
        if self.reference not in ("theoretical", "calibration"):
            raise ParameterError(f"detect: unknown reference mode {self.reference!r}")
        if self.reference == "calibration" and self.calibration_range is None:
            raise ConfigurationError("detect: calibration mode needs a calibration range")
        if self.gap_tolerance < 0 or self.min_duration < 1:
            raise ParameterError("detect: gap tolerance must be >= 0 and min duration >= 1")
        if self.mc_reps < 2:
            raise ParameterError(
                f"detect: mc_reps must be >= 2 for a Monte Carlo variance, got {self.mc_reps}"
            )


@dataclass
class FunctionSeries:
    """One (region, function) track of the sweep."""

    tau: np.ndarray
    eta: np.ndarray
    flag: np.ndarray          # bool; always False on calibration windows
    e_eta: float              # expectation used for eta
    e_flag: float             # expectation used for flagging
    d_flag: float             # variance used for flagging
    reference: str            # "theoretical" | "monte-carlo" | "calibration"


@dataclass
class IndicatorSeries:
    """Per-timestamp LES values, indexed by window END sample."""

    t: np.ndarray
    data: Dict[Tuple[str, str], FunctionSeries]
    meta: dict = field(default_factory=dict)

    def functions(self) -> List[str]:
        return sorted({f for _, f in self.data})


@dataclass(frozen=True)
class Event:
    region: str
    function: str
    start_t: int
    end_t: int
    peak_sigma: float
    direction: int  # sign of (tau - E_ref) at the peak

    def __post_init__(self):
        if self.end_t < self.start_t:
            raise ContractError("detect: event must end no earlier than it starts")


@dataclass
class EventReport:
    events: List[Event]
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "events": [
                {
                    "region": e.region,
                    "function": e.function,
                    "start_t": e.start_t,
                    "end_t": e.end_t,
                    "peak_sigma": e.peak_sigma,
                    "direction": e.direction,
                }
                for e in self.events
            ],
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# Core sweep
# ---------------------------------------------------------------------------


def _window_ends(t: int, spec: WindowSpec) -> np.ndarray:
    first = spec.T - 1
    if first >= t:
        raise InsufficientHistoryError(
            f"detect: source with {t} samples is shorter than one window of {spec.T}"
        )
    return np.arange(first, t, spec.stride)


def _sweep_rows(src: DataSource, ends: np.ndarray, cfg: DetectorConfig) -> Dict[str, np.ndarray]:
    """tau per configured function at every window end, in end order.

    Windows share no state and each draws from its own (base_seed, end)
    seed, so _map may split the ends over worker processes without changing
    a bit.
    """
    fns = [get_function(name) for name in cfg.functions]

    def taus_at(end: int) -> Dict[str, float]:
        cols = slice(end - cfg.window.T + 1, end + 1)
        block = RawWindow(src.values[:, cols], src.node_ids, src.timestamps[cols], end)
        jitter_seed, ring_seed = window_seed(cfg.base_seed, end).spawn(2)
        std = standardize(block, policy=cfg.degenerate_policy, seed=jitter_seed)
        return window_taus(std, cfg.window.L, fns, ring_seed)

    rows = _map(taus_at, [int(e) for e in ends])
    return {name: np.array([row[name] for row in rows], dtype=float) for name in cfg.functions}


def _references(
    cfg: DetectorConfig,
    block: str,
    name: str,
    N: int,
    T: int,
    tau: np.ndarray,
    calib_mask: np.ndarray,
) -> Tuple[float, float, float, str]:
    """(e_eta, e_flag, d_flag, mode) for one (region, function) track."""
    c = N / T
    if cfg.reference == "calibration":
        sel = tau[calib_mask]
        if len(sel) < 2:
            raise ConfigurationError(
                f"detect: calibration range holds {len(sel)} windows; need at least 2"
            )
        mu = float(sel.mean())
        var = float(sel.var(ddof=1))
        sd = np.sqrt(var)
        if sd <= 1e-12 * max(1.0, abs(mu)):
            # with a zero band, one ulp of drift flags a window
            lo, hi = cfg.calibration_range
            raise ConfigurationError(
                f"detect: block {block!r}, function {name}: tau does not vary over the "
                f"calibration range [{lo}, {hi}] (sd {sd:.3g}, mean {mu:.6g}); "
                "pick a range where the data fluctuates"
            )
        return mu, mu, var, "calibration"
    f = get_function(name)
    if name in RING_FUNCTIONS:
        e_eta = msr_moments(c, cfg.window.L).expectation
        mu_mc, var_mc = mc_ring_msr(N, T, cfg.window.L, reps=cfg.mc_reps, seed_base=cfg.base_seed)
        return e_eta, mu_mc, var_mc, "monte-carlo"
    law = MarchenkoPastur(kind="mp2", c=c, sigma2=1.0)
    e = lln_expectation(f, law, N)
    v = clt_variance(f, c, kappa4=cfg.kappa4)
    return e, e, v, "theoretical"


def _calibration_mask(ends: np.ndarray, cfg: DetectorConfig) -> np.ndarray:
    if cfg.reference != "calibration":
        return np.zeros(len(ends), dtype=bool)
    lo, hi = cfg.calibration_range
    mask = (ends >= lo) & (ends <= hi)
    return mask


def _assemble(
    block: str,
    ends: np.ndarray,
    taus: Dict[str, np.ndarray],
    cfg: DetectorConfig,
    N: int,
) -> Dict[str, FunctionSeries]:
    calib = _calibration_mask(ends, cfg)
    out = {}
    for name, tau in taus.items():
        e_eta, e_flag, d_flag, mode = _references(cfg, block, name, N, cfg.window.T, tau, calib)
        if not (np.isfinite(e_flag) and np.isfinite(d_flag) and d_flag >= 0):
            # a NaN reference makes every comparison False: the track would never flag
            raise NumericalFailureError(
                f"detect: block {block!r}, function {name}: {mode} reference moments "
                f"E={e_flag}, D={d_flag} are not a finite mean and nonnegative variance"
            )
        eta = tau / e_eta if e_eta != 0.0 else np.full_like(tau, np.nan)
        dev = np.abs(tau - e_flag)
        flag = ~calib & (dev > cfg.threshold_k * np.sqrt(d_flag))
        out[name] = FunctionSeries(
            tau=tau, eta=eta, flag=flag,
            e_eta=e_eta, e_flag=e_flag, d_flag=d_flag, reference=mode,
        )
    return out


def _check_blocks(blocks: Dict[str, DataSource], cfg: DetectorConfig) -> None:
    """Reject every block too wide for the window, before any window runs.

    Every function needs N <= T. DET and LRF need N < T: standardized rows
    have rank at most T - 1, so M is singular at N = T.
    """
    T = cfg.window.T
    logs = [name for name in cfg.functions if get_function(name).domain == "positive"]
    for block, sub in blocks.items():
        if sub.n > T or (sub.n == T and logs):
            names, need = (cfg.functions, "<=") if sub.n > T else (logs, "<")
            raise AspectRatioError(
                f"detect: block {block!r} has {sub.n} nodes for window length {T}; "
                f"{', '.join(names)} need N {need} T"
            )


def sweep(src: DataSource, cfg: DetectorConfig) -> IndicatorSeries:
    """Whole-system sweep: one track per configured function, region "ALL"."""
    _check_blocks({WHOLE_SYSTEM: src}, cfg)
    ends = _window_ends(src.t, cfg.window)
    taus = _sweep_rows(src, ends, cfg)
    series = _assemble(WHOLE_SYSTEM, ends, taus, cfg, src.n)
    data = {(WHOLE_SYSTEM, name): fs for name, fs in series.items()}
    return IndicatorSeries(t=ends, data=data, meta=_meta(cfg, src))


def regional_series(src: DataSource, cfg: DetectorConfig) -> IndicatorSeries:
    """Independent sweeps per region, plus the whole system under "ALL".

    Regions are intersected with the nodes present in the source; regions
    left with fewer than 2 nodes are skipped with a warning, and so is "ALL"
    when the whole system is wider than the window. Every other block is
    checked against the window before any window runs.
    """
    if cfg.regions is None:
        raise ConfigurationError("detect: regional series needs a region partition")
    spec = cfg.window
    blocks = {WHOLE_SYSTEM: src} if src.n <= spec.T else {}
    if not blocks:
        # too wide for one block: analyze per region only (blockwise mode)
        warnings.warn(
            f"detect: whole system of {src.n} nodes exceeds T={spec.T}; "
            'skipping the "ALL" series',
            RuntimeWarning,
            stacklevel=2,
        )
    for region, members in sorted(cfg.regions.regions.items()):
        if region == WHOLE_SYSTEM:
            raise ContractError('detect: region name "ALL" is reserved for the whole system')
        avail = tuple(nid for nid in members if nid in src.node_ids)
        if len(avail) < 2:
            warnings.warn(
                f"detect: region {region!r} has {len(avail)} usable nodes; skipped",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        blocks[region] = src.restrict(avail)
    _check_blocks(blocks, cfg)
    if WHOLE_SYSTEM in blocks:
        base = sweep(blocks.pop(WHOLE_SYSTEM), cfg)
    else:
        base = IndicatorSeries(t=_window_ends(src.t, spec), data={}, meta=_meta(cfg, src))
    for region, sub in blocks.items():
        taus = _sweep_rows(sub, base.t, cfg)
        for name, fs in _assemble(region, base.t, taus, cfg, sub.n).items():
            base.data[(region, name)] = fs
    return base


def _meta(cfg: DetectorConfig, src: DataSource) -> dict:
    return {
        "T": cfg.window.T,
        "stride": cfg.window.stride,
        "L": cfg.window.L,
        "functions": list(cfg.functions),
        "threshold_k": cfg.threshold_k,
        "reference": cfg.reference,
        "calibration_range": list(cfg.calibration_range) if cfg.calibration_range else None,
        "base_seed": cfg.base_seed,
        "kappa4": cfg.kappa4,
        "mc_reps": cfg.mc_reps,
        "n_nodes": src.n,
        "n_samples": src.t,
        "les_convention": {"MSR": "mean of |lambda|", "other": "sum of phi(lambda)"},
        "haar_draws": "redrawn per window from seed (base_seed, end_index)",
        "log_clamp": LOG_CLAMP,
    }


# ---------------------------------------------------------------------------
# Event extraction
# ---------------------------------------------------------------------------


def extract_events(series: IndicatorSeries, cfg: DetectorConfig) -> EventReport:
    """Merge flagged runs into events.

    Runs separated by at most `gap_tolerance` unflagged samples merge; runs
    shorter than `min_duration` samples are dropped. The event start is the
    first flagged window end, which for a step event is the first window
    containing the post-event sample.
    """
    stride = cfg.window.stride
    events: List[Event] = []
    for (region, name), fs in sorted(series.data.items()):
        idx = np.flatnonzero(fs.flag)
        if idx.size == 0:
            continue
        # a run ends where the unflagged samples up to the next flag exceed the gap tolerance
        cut = np.flatnonzero(np.diff(series.t[idx]) - stride > cfg.gap_tolerance)
        runs = zip(idx[np.r_[0, cut + 1]].tolist(), idx[np.r_[cut, idx.size - 1]].tolist())
        sigma = np.sqrt(fs.d_flag) if fs.d_flag > 0 else np.nan
        for lo, hi in runs:
            start_t = int(series.t[lo])
            end_t = int(series.t[hi])
            if end_t - start_t + stride < cfg.min_duration:
                continue
            window = slice(lo, hi + 1)
            dev = fs.tau[window] - fs.e_flag
            peak = int(np.argmax(np.abs(dev)))
            peak_sigma = float(np.abs(dev[peak]) / sigma) if np.isfinite(sigma) else float("inf")
            events.append(
                Event(
                    region=region,
                    function=name,
                    start_t=start_t,
                    end_t=end_t,
                    peak_sigma=peak_sigma,
                    direction=int(np.sign(dev[peak])) or 1,
                )
            )
    events.sort(key=lambda e: (e.start_t, e.region, e.function))
    return EventReport(events=events, meta=dict(series.meta))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def write_indicator_csv(series: IndicatorSeries, path) -> None:
    """One row per (region, function, t), byte for byte what csv.writer
    writes, built and written one track at a time."""
    path = Path(path)
    ts = [int(t) for t in series.t]
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("t,region,function,tau,eta,flag\r\n")
        for (region, name), fs in sorted(series.data.items()):
            # csv.writer quotes the labels; no tau, eta or flag word needs quoting
            label = io.StringIO()
            csv.writer(label).writerow([region, name])
            key = label.getvalue()[:-2]
            taus = map(repr, fs.tau.tolist())
            etas = map(repr, fs.eta.tolist())
            words = ("anomalous" if f else "normal" for f in fs.flag.tolist())
            fh.write("".join(
                f"{t},{key},{tau},{eta},{word}\r\n"
                for t, tau, eta, word in zip(ts, taus, etas, words)
            ))


def read_indicator_csv(path) -> IndicatorSeries:
    """Rebuild a series from its CSV (reference moments are not recoverable)."""
    path = Path(path)
    rows: Dict[Tuple[str, str], Dict[int, Tuple[float, float, bool]]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            key = (rec["region"], rec["function"])
            rows.setdefault(key, {})[int(rec["t"])] = (
                float(rec["tau"]),
                float(rec["eta"]),
                rec["flag"] == "anomalous",
            )
    if not rows:
        raise ContractError(f"detect: {path} holds no indicator rows")
    ts = sorted(next(iter(rows.values())).keys())
    t_arr = np.array(ts, dtype=int)
    data = {}
    for key, by_t in rows.items():
        if sorted(by_t.keys()) != ts:
            raise ContractError(f"detect: {path} has inconsistent timestamps across tracks")
        tau = np.array([by_t[t][0] for t in ts])
        eta = np.array([by_t[t][1] for t in ts])
        flag = np.array([by_t[t][2] for t in ts], dtype=bool)
        data[key] = FunctionSeries(
            tau=tau, eta=eta, flag=flag,
            e_eta=np.nan, e_flag=np.nan, d_flag=np.nan, reference="unknown",
        )
    return IndicatorSeries(t=t_arr, data=data, meta={})


def write_events_json(report: EventReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
