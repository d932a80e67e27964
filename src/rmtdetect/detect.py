"""Moving-window sweep, indicator normalization, flagging, event extraction.

For every stride-spaced window end, per region: standardize the window's
rows, form the ring product (for MSR) or the covariance M (for the other
functions) and take the spectrum (les.window_spectra); then evaluate each
configured LES over the stacked spectra of the track, and flag samples
where |tau - E_ref| > k sqrt(D_ref). Before any window runs, every block is
checked against the window: N <= T, and N < T for DET and LRF.

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
import logging
import shutil
import tempfile
import warnings
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import workers
from .errors import (
    AspectRatioError,
    ConfigurationError,
    ContractError,
    InsufficientHistoryError,
    MalformedInputError,
    NumericalFailureError,
    ParameterError,
)
from .ingest import DataSource, RegionPartition, WindowSpec, _csv_rows
from .les import (
    LOG_CLAMP,
    TestFunction,
    get_function,
    map_spectra,
    mc_ring_msr,
    stacked_taus,
    theoretical_moments,
    window_spectra,
)
from .rmm import DEGENERATE_POLICIES
# ring_product is imported but unused: the benchmark's tracer tests look the
# name up in this namespace.
from .rmm import ring_product  # noqa: F401
from .rng import window_seed

_log = logging.getLogger(__name__)

WHOLE_SYSTEM = "ALL"
INDICATOR_COLUMNS = ("t", "region", "function", "tau", "eta", "flag")

# Excess kurtosis is E[x^4] / E[x^2]^2 - 3 >= -2 for every distribution;
# below it the kappa4 term of clt_variance can turn a variance negative.
KAPPA4_MIN = -2.0


def check_kappa4(kappa4: float) -> None:
    """The one rule for kappa4, shared by the sweep and the theory table."""
    if not (np.isfinite(kappa4) and kappa4 >= KAPPA4_MIN):
        raise ParameterError(
            f"detect: kappa4 (--kappa4) must be finite and >= {KAPPA4_MIN:g}, the least "
            f"excess kurtosis of any distribution; got {kappa4}"
        )


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
        check_kappa4(self.kappa4)
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise ParameterError(
                "detect: the test functions (--functions) name none; give at least one"
            )
        for i, name in enumerate(self.functions):
            get_function(name)
            if name in self.functions[:i]:  # taus are keyed by name: a repeat doubles a track
                raise ParameterError(f"detect: the test functions (--functions) name {name} twice")
        if self.reference not in ("theoretical", "calibration"):
            raise ParameterError(f"detect: unknown reference mode {self.reference!r}")
        if self.reference == "calibration" and self.calibration_range is None:
            raise ConfigurationError("detect: calibration mode needs a calibration range")
        if self.gap_tolerance < 0 or self.min_duration < 1:
            raise ParameterError("detect: gap tolerance must be >= 0 and min duration >= 1")
        if self.mc_reps < 2:
            raise ParameterError(
                f"detect: mc_reps (--mc-reps) must be >= 2 for a Monte Carlo variance, "
                f"got {self.mc_reps}"
            )
        if self.degenerate_policy not in DEGENERATE_POLICIES:
            raise ParameterError(
                f"detect: degenerate-row policy (--degenerate) must be one of "
                f"{list(DEGENERATE_POLICIES)}, got {self.degenerate_policy!r}"
            )


@dataclass
class FunctionSeries:
    """One (region, function) track. The sweep and pca-baseline both build
    theirs by `judged`, the one flag rule."""

    tau: np.ndarray
    eta: np.ndarray
    flag: np.ndarray          # bool; always False on calibration windows
    e_eta: float              # expectation used for eta
    e_flag: float             # expectation used for flagging
    d_flag: float             # variance used for flagging

    @classmethod
    def judged(cls, tau: np.ndarray, e_eta: float, e_flag: float, d_flag: float,
               k: float, calib: np.ndarray) -> "FunctionSeries":
        """eta = tau / e_eta (NaN when e_eta is 0); a sample outside the
        calibration mask `calib` flags when |tau - e_flag| > k sqrt(d_flag)."""
        eta = tau / e_eta if e_eta != 0.0 else np.full_like(tau, np.nan)
        flag = ~calib & (np.abs(tau - e_flag) > k * np.sqrt(d_flag))
        return cls(tau, eta, flag, e_eta, e_flag, d_flag)


@dataclass
class IndicatorSeries:
    """Per-window LES values, indexed by window END sample."""

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
        return {"events": [asdict(e) for e in self.events], "meta": self.meta}


# ---------------------------------------------------------------------------
# Core sweep
# ---------------------------------------------------------------------------


def _too_wide(n: int, cfg: DetectorConfig) -> Optional[str]:
    """Why a block of n nodes cannot be swept with the window, or None.

    Every function needs N <= T. DET and LRF need N < T: standardized rows
    have rank at most T - 1, so M is singular at N = T.
    """
    T = cfg.window.T
    logs = [name for name in cfg.functions if get_function(name).domain == "positive"]
    if n > T or (n == T and logs):
        names, need = (cfg.functions, "<=") if n > T else (logs, "<")
        return f"{n} nodes for window length {T}; {', '.join(names)} need N {need} T"
    return None


def _check_blocks(blocks: Dict[str, Tuple[str, ...]], cfg: DetectorConfig) -> None:
    """Reject every block _too_wide for the window, before any window runs."""
    for block, ids in blocks.items():
        if why := _too_wide(len(ids), cfg):
            raise AspectRatioError(f"detect: block {block!r} has {why}")


def _series(
    src: DataSource, blocks: Dict[str, Tuple[str, ...]], cfg: DetectorConfig
) -> IndicatorSeries:
    """One track per (block, function), every block, named by its node ids,
    swept over the window ends of `src`.

    A block of every node in source order takes each window as a slice of
    `src`; any other block takes its window's rows from `src` one window at
    a time, so no copy of a block's rows lives through the sweep.
    Windows share no state and each draws from its own (base_seed, end)
    seed, so map_spectra may split them over worker processes without
    changing a bit. One map_spectra call covers every block, end-major, so
    a sweep forks its workers once and a degenerate window raises at the
    earliest end, blocks in order at the same end. The workers fill in the
    spectra, into one stack pair per block; the taus are taken here, over
    the stacks.
    """
    _check_blocks(blocks, cfg)
    T, L = cfg.window.T, cfg.window.L
    if T > src.t:
        raise InsufficientHistoryError(
            f"detect: source with {src.t} samples is shorter than one window of {T}"
        )
    ends = np.arange(T - 1, src.t, cfg.window.stride)
    calib = np.zeros(len(ends), dtype=bool)
    if cfg.reference == "calibration":
        lo, hi = cfg.calibration_range
        calib = (ends >= lo) & (ends <= hi)
    fns = [get_function(name) for name in cfg.functions]
    block_ids = list(blocks.values())
    rows = [slice(None) if ids == src.node_ids else np.array([src.row_index(nid) for nid in ids])
            for ids in block_ids]

    def spectra_at(end: int, b: int):
        return window_spectra(
            src.values[rows[b], end - T + 1 : end + 1], L, fns, window_seed(cfg.base_seed, end),
            block_ids[b], cfg.degenerate_policy,
        )

    stacks = map_spectra(spectra_at, ends.tolist(), [len(ids) for ids in block_ids], fns)
    data = {}
    for (block, ids), spectra in zip(blocks.items(), stacks):
        taus = stacked_taus(*spectra, fns)
        for f in fns:
            if f.domain == "positive":
                _log_clamps(block, f.name, spectra[1])
            data[(block, f.name)] = _track(cfg, block, f, len(ids), taus[f.name], calib)
    return IndicatorSeries(t=ends, data=data, meta=_meta(cfg, src))


def _log_clamps(block: str, name: str, cov: np.ndarray) -> None:
    """One WARNING record for a log-domain track where les floors an
    eigenvalue of M at LOG_CLAMP in some window: those windows' taus follow
    the rank of M, not the data."""
    low = cov[:, 0]  # ascending spectra: each window's smallest eigenvalue of M
    floored = int(np.count_nonzero(low < LOG_CLAMP))
    if floored:
        _log.warning(
            "detect: block %r, function %s: M has an eigenvalue below the log floor %g in "
            "%d of %d windows, <= 0 in %d (smallest %.3g); their taus follow the rank of M, "
            "not the data",
            block, name, LOG_CLAMP, floored, len(low), int(np.count_nonzero(low <= 0)),
            low.min(),
        )


def _track(
    cfg: DetectorConfig, block: str, f: TestFunction, N: int, tau: np.ndarray, calib: np.ndarray
) -> FunctionSeries:
    """One (block, function) track: its reference moments, then judged."""
    if cfg.reference == "calibration":
        sel = tau[calib]
        lo, hi = cfg.calibration_range
        if len(sel) < 2:
            raise ConfigurationError(
                f"detect: calibration range holds {len(sel)} windows; need at least 2 "
                f"window ends inside --reference calib:{lo}:{hi}"
            )
        e_eta = e_flag = float(sel.mean())
        d_flag = float(sel.var(ddof=1))
        sd = np.sqrt(d_flag)
        if sd <= 1e-12 * max(1.0, abs(e_flag)):
            # with a zero band, one ulp of drift flags a window
            raise ConfigurationError(
                f"detect: block {block!r}, function {f.name}: tau does not vary over the "
                f"calibration range [{lo}, {hi}] (sd {sd:.3g}, mean {e_flag:.6g}); "
                "pick a range (--reference calib:START:END) where the data fluctuates"
            )
        mode = "calibration"
    else:
        e_eta, d_flag = theoretical_moments(f, N, cfg.window.T, cfg.window.L, cfg.kappa4)
        e_flag, mode = e_eta, "theoretical"
        if f.ring:
            # the asymptotic radial moments are biased at finite N: flag by Monte Carlo
            e_flag, d_flag = mc_ring_msr(N, cfg.window.T, cfg.window.L, reps=cfg.mc_reps,
                                         seed_base=cfg.base_seed)
            mode = "monte-carlo"
    if not (np.isfinite(e_flag) and np.isfinite(d_flag) and d_flag >= 0):
        # a NaN reference makes every comparison False: the track would never flag
        raise NumericalFailureError(
            f"detect: block {block!r}, function {f.name}: {mode} reference moments "
            f"E={e_flag}, D={d_flag} are not a finite mean and nonnegative variance"
        )
    return FunctionSeries.judged(tau, e_eta, e_flag, d_flag, cfg.threshold_k, calib)


def sweep(src: DataSource, cfg: DetectorConfig) -> IndicatorSeries:
    """Whole-system sweep: one track per configured function, region "ALL"."""
    return _series(src, {WHOLE_SYSTEM: src.node_ids}, cfg)


def regional_series(src: DataSource, cfg: DetectorConfig) -> IndicatorSeries:
    """Independent sweeps per region, plus the whole system under "ALL".

    Regions are intersected with the nodes present in the source; regions
    left with fewer than 2 nodes are skipped with a warning, and so is "ALL"
    when _too_wide rejects the whole system. _check_blocks rejects a region
    by that same rule, before any window runs.
    """
    if cfg.regions is None:
        raise ConfigurationError("detect: regional series needs a region partition")
    why = _too_wide(src.n, cfg)
    blocks = {} if why else {WHOLE_SYSTEM: src.node_ids}
    if why:  # analyze per region only (blockwise mode)
        warnings.warn(f'detect: whole system has {why}; skipping the "ALL" series',
                      RuntimeWarning, stacklevel=2)
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
        blocks[region] = avail
    return _series(src, blocks, cfg)


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
    writes, each track built and written as one block of text.

    The sorted tracks are cut into one contiguous run per worker process
    (workers.chunks), and workers.run writes the runs. The first run goes
    straight into the file, after the header; each other run goes into an
    unlinked temporary file beside it, which this process appends in order
    once every worker is done.
    """
    path = Path(path)
    ts = [int(t) for t in series.t]
    runs = workers.chunks(sorted(series.data.items()))
    with path.open("wb") as fh, ExitStack() as temps:
        fh.write((",".join(INDICATOR_COLUMNS) + "\r\n").encode())
        fh.flush()  # before any fork: a child must not inherit buffered bytes
        outs = [fh] + [
            temps.enter_context(tempfile.TemporaryFile(dir=path.parent)) for _ in runs[1:]
        ]

        def write_run(j: int) -> None:
            for (region, name), fs in runs[j]:
                outs[j].write(_track_text(ts, region, name, fs).encode("utf-8"))
            outs[j].flush()

        workers.run(write_run, range(len(runs)))
        for tmp in outs[1:]:
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh)


def _track_text(ts: List[int], region: str, name: str, fs: FunctionSeries) -> str:
    """The CSV rows of one track."""
    # csv.writer quotes the labels; no tau, eta or flag word needs quoting
    label = io.StringIO()
    csv.writer(label).writerow([region, name])
    key = label.getvalue()[:-2]
    taus = map(repr, fs.tau.tolist())
    etas = map(repr, fs.eta.tolist())
    words = ("anomalous" if f else "normal" for f in fs.flag.tolist())
    return "".join(
        f"{t},{key},{tau},{eta},{word}\r\n" for t, tau, eta, word in zip(ts, taus, etas, words)
    )


def read_indicator_csv(path) -> IndicatorSeries:
    """Rebuild a series from its CSV (reference moments are not recoverable).
    A malformed file raises MalformedInputError naming the file and row."""
    path = Path(path)
    what = f"detect: indicator file {path}"
    reader = _csv_rows(path, "detect: indicator file")
    header = next(reader, [])
    missing = [c for c in INDICATOR_COLUMNS if c not in header]
    if missing:
        raise MalformedInputError(f"{what} lacks the columns {missing}")
    cols = [header.index(c) for c in INDICATOR_COLUMNS]
    rows: Dict[Tuple[str, str], Dict[int, Tuple[float, float, bool]]] = {}
    for r, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(header):
            raise MalformedInputError(f"{what} row {r}: {len(rec)} cells, expected {len(header)}")
        t, region, function, tau, eta, flag = (rec[j] for j in cols)
        if flag not in ("normal", "anomalous"):
            raise MalformedInputError(
                f"{what} row {r}: flag {flag!r} is neither 'normal' nor 'anomalous'"
            )
        try:
            t, value = int(t), (float(tau), float(eta), flag == "anomalous")
        except ValueError:
            raise MalformedInputError(f"{what} row {r}: t, tau or eta is not a number") from None
        track = rows.setdefault((region, function), {})
        if t in track:
            raise MalformedInputError(
                f"{what} row {r}: repeats t={t} of region {region!r}, function {function!r}"
            )
        track[t] = value
    if not rows:
        raise MalformedInputError(f"{what} holds no indicator rows")
    first, first_ts = next(iter(rows.items()))
    ts = sorted(first_ts)
    t_arr = np.array(ts, dtype=int)
    data = {}
    for key, by_t in rows.items():
        if by_t.keys() != first_ts.keys():
            odd = min(by_t.keys() ^ first_ts.keys())
            has, lacks = (key, first) if odd in by_t else (first, key)
            raise MalformedInputError(f"{what}: t={odd} is in track {has} but not in {lacks}")
        tau, eta, flag = map(np.array, zip(*(by_t[t] for t in ts)))  # float, float, bool
        data[key] = FunctionSeries(tau, eta, flag, e_eta=np.nan, e_flag=np.nan, d_flag=np.nan)
    return IndicatorSeries(t=t_arr, data=data, meta={})


def write_events_json(report: EventReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
