"""Synthetic scenario generation.

Scenarios are piecewise schedules over [0, t): each segment injects a
deterministic signal on its affected nodes, spreads a rank-one echo
coupling * signal / sqrt(n) onto every node, and (for collapse segments)
inflates the noise on affected nodes exponentially. That reproduces, at
the statistical level, what a coordinated disturbance riding on sensor
noise looks like to the detector: a correlated deviation, not physics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError, ParameterError
from .ingest import DataSource, RegionPartition, _json_object
from .rng import SeedLike, as_generator

SEGMENT_KINDS = ("flat", "step", "ramp", "collapse")


@dataclass(frozen=True)
class Segment:
    """One schedule phase over the half-open sample range [start, end).

    kind "flat" and "step" hold `level`; "ramp" rises from `level` with
    `slope` per sample; "collapse" holds `level` while multiplying the
    affected nodes' noise std by exp(rate * (t - start)).
    """

    start: int
    end: int
    kind: str
    level: float = 0.0
    slope: float = 0.0
    rate: float = 0.0
    nodes: Optional[Tuple[int, ...]] = None  # None = every node
    coupling: float = 0.0

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ParameterError(f"synth: unknown segment kind {self.kind!r}")
        if self.end <= self.start:
            raise ParameterError(f"synth: empty segment range [{self.start}, {self.end})")
        if not 0.0 <= self.coupling <= 1.0:
            raise ParameterError(f"synth: coupling must lie in [0, 1], got {self.coupling}")
        if self.nodes is not None:
            nodes = tuple(int(i) for i in self.nodes)
            repeated = [i for k, i in enumerate(nodes) if i in nodes[:k]]
            if repeated:
                raise ParameterError(
                    f"synth: segment [{self.start}, {self.end}) lists node {repeated[0]} twice"
                )
            object.__setattr__(self, "nodes", nodes)

    def signal(self) -> np.ndarray:
        """Deterministic signal over the segment's own samples."""
        length = self.end - self.start
        if self.kind == "ramp":
            return self.level + self.slope * np.arange(1, length + 1, dtype=float)
        return np.full(length, self.level, dtype=float)


@dataclass(frozen=True)
class Scenario:
    n: int
    t: int
    noise_std: float = 1.0
    segments: Tuple[Segment, ...] = ()
    node_prefix: str = "bus"

    def __post_init__(self):
        if self.n < 2 or self.t < 2:
            raise ParameterError(f"synth: scenario must be at least 2x2, got {self.n}x{self.t}")
        if not (np.isfinite(self.noise_std) and self.noise_std > 0):
            raise ParameterError(f"synth: noise std must be finite and > 0, got {self.noise_std}")
        segs = tuple(sorted(self.segments, key=lambda s: s.start))
        object.__setattr__(self, "segments", segs)
        if segs:
            if segs[0].start != 0 or segs[-1].end != self.t:
                raise ConfigurationError("synth: segments must tile [0, t)")
            for a, b in zip(segs, segs[1:]):
                if a.end != b.start:
                    raise ConfigurationError(
                        f"synth: segments must tile [0, t); gap or overlap at {a.end}..{b.start}"
                    )
        for s in segs:
            if s.nodes is not None and any(i < 0 or i >= self.n for i in s.nodes):
                raise ConfigurationError(f"synth: segment node index outside 0..{self.n - 1}")

    def node_ids(self) -> Tuple[str, ...]:
        return tuple(f"{self.node_prefix}{i + 1}" for i in range(self.n))


def _too_big(n: int, t: int) -> ParameterError:
    return ParameterError(
        f"synth: a source of --n {n} nodes by --t {t} samples needs {8 * n * t} bytes of "
        "float64 values, more than memory holds"
    )


def _check_fits(n: int, t: int) -> None:
    """Refuse, before anything is allocated, an n x t float64 source larger
    than physical memory."""
    if 8 * n * t > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise _too_big(n, t)


def generate(sc: Scenario, seed: SeedLike = 0) -> DataSource:
    """Draw the scenario: i.i.d. Gaussian noise plus the segment schedule.

    Segment contributions are additive and order-independent within a
    sample; with coupling 0, unaffected nodes are statistically identical
    to the no-segment baseline. A source that memory cannot hold is a
    ParameterError (_check_fits, or a MemoryError from the draw).
    """
    _check_fits(sc.n, sc.t)
    rng = as_generator(seed)
    # The draw becomes DataSource.values. Segments tile [0, t), so each
    # segment turns its own column block into values in place, and no
    # other n x t array is made.
    try:
        values = rng.standard_normal((sc.n, sc.t))
    except MemoryError:
        raise _too_big(sc.n, sc.t) from None
    # a float product overflows to inf without a warning, and exactly where
    # scaling the largest draw in the array would
    if not np.isfinite(float(max(-values.min(), values.max())) * sc.noise_std):
        raise ParameterError(f"synth: noise std {sc.noise_std:g} gives values beyond float64")
    if not sc.segments:
        values *= sc.noise_std
    with np.errstate(over="ignore", invalid="ignore"):
        for seg in sc.segments:
            _draw_segment(values[:, seg.start : seg.end], seg, sc)
    return DataSource(values, sc.node_ids())


def _draw_segment(block: np.ndarray, seg: Segment, sc: Scenario) -> None:
    """Turn one segment's block of noise into `signal + scale * noise`.

    scale is noise_std, times exp(rate * (t - start)) on a collapse's
    affected rows; signal is built on zeros: the segment's signal on its
    affected rows, then coupling * signal / sqrt(n) on every row.
    """
    sig = seg.signal()
    hit_sig = 0.0 + sig  # on zeros, as the n x t signal was built
    rest_sig = np.zeros(len(sig))
    if seg.coupling > 0:
        echo = seg.coupling * sig / np.sqrt(sc.n)
        hit_sig += echo
        rest_sig += echo
    hit_scale = sc.noise_std
    if seg.kind == "collapse":
        hit_scale = sc.noise_std * np.exp(seg.rate * np.arange(len(sig)))
    if seg.nodes is None:
        block *= hit_scale
        block += hit_sig
        hit = block
    else:
        rows = list(seg.nodes)
        hit = block[rows] * hit_scale  # a copy, taken before the block changes
        hit += hit_sig
        block *= sc.noise_std
        block += rest_sig
        block[rows] = hit
    if not np.isfinite(hit).all():
        detail = f"level {seg.level}"
        if seg.kind == "ramp":
            detail += f", slope {seg.slope}"
        elif seg.kind == "collapse":
            detail += f", rate {seg.rate}"
        raise ParameterError(
            f"synth: {seg.kind} segment [{seg.start}, {seg.end}) gives values beyond "
            f"float64 ({detail})"
        )


def sample_gaussian_matrix(n: int, t: int, seed: SeedLike = 0) -> DataSource:
    """Pure standard-normal source: the fixture behind every Monte Carlo oracle."""
    return generate(Scenario(n=n, t=t, noise_std=1.0), seed)


# ---------------------------------------------------------------------------
# The bundled three-phase preset
# ---------------------------------------------------------------------------

# Signal scale: the headline step is 100 noise units on the event node, with
# coupling 0.5 echoing ~4.6 noise units onto every other node. That is strong
# enough for the very first window containing one post-event sample to flag,
# both system-wide and per region.
PRESET_STEP_LEVEL = 100.0
PRESET_COUPLING = 0.5
PRESET_EVENT_NODE = 51  # "bus52"
PRESET_STEP_AT = 600
PRESET_RAMP_AT = 1200
PRESET_COLLAPSE_AT = 1306
PRESET_RAMP_SLOPE = PRESET_STEP_LEVEL / 300.0
PRESET_COLLAPSE_RATE = 0.02
PRESET_LAYOUT_SEED = 2024  # the jitter of the invented table3 layout


def table3_scenario(n: int = 118, t: int = 1500, noise_std: float = 1.0) -> Scenario:
    """Three-phase schedule: flat zero, step at 600, ramp from 1200, with the
    tail of the ramp degenerating into a variance collapse from 1306 (0-based
    sample indices; the classic stage split S1..S5 falls out of this timing).

    Scaled into noise units; the phase boundaries scale with t.
    """
    # canonical boundaries 600/1200/1306 out of 1500, scaled for other t
    step_at = round(t * PRESET_STEP_AT / 1500)
    ramp_at = round(t * PRESET_RAMP_AT / 1500)
    collapse_at = round(t * PRESET_COLLAPSE_AT / 1500)
    if not 0 < step_at < ramp_at < collapse_at < t:  # every t below 8, and t = 12
        raise ParameterError(
            "synth: the table3 preset needs 0 < step < ramp < collapse < --t; "
            f"--t {t} gives {step_at}, {ramp_at}, {collapse_at}"
        )
    node = min(PRESET_EVENT_NODE, n - 1)
    lvl = PRESET_STEP_LEVEL * noise_std
    slope = PRESET_RAMP_SLOPE * noise_std
    ramp_end_level = lvl + slope * (collapse_at - ramp_at)
    return Scenario(
        n=n,
        t=t,
        noise_std=noise_std,
        segments=(
            Segment(0, step_at, "flat", level=0.0),
            Segment(step_at, ramp_at, "step", level=lvl, nodes=(node,), coupling=PRESET_COUPLING),
            Segment(
                ramp_at, collapse_at, "ramp", level=lvl, slope=slope,
                nodes=(node,), coupling=PRESET_COUPLING,
            ),
            Segment(
                collapse_at, t, "collapse", level=ramp_end_level,
                rate=PRESET_COLLAPSE_RATE, nodes=(node,), coupling=PRESET_COUPLING,
            ),
        ),
    )


def table3_partition(n: int = 118) -> RegionPartition:
    """Six contiguous regions with an invented planar layout (illustrative
    only): region clusters sit on a 3 x 2 grid of centers, nodes jittered
    around their center. The event node falls in region A3."""
    k = 6
    if n < k:  # a region without a node
        raise ParameterError(
            f"synth: the table3 preset has {k} regions, so it needs at least {k} nodes (--n); "
            f"got {n}"
        )
    ids = [f"bus{i + 1}" for i in range(n)]
    bounds = np.linspace(0, n, k + 1).astype(int)
    regions = {
        f"A{j + 1}": tuple(ids[bounds[j] : bounds[j + 1]]) for j in range(k)
    }
    centers = {
        "A1": (0.0, 0.0), "A2": (10.0, 0.0), "A3": (20.0, 0.0),
        "A4": (0.0, 10.0), "A5": (10.0, 10.0), "A6": (20.0, 10.0),
    }
    rng = as_generator(PRESET_LAYOUT_SEED)
    layout = {}
    for name, nodes in regions.items():
        cx, cy = centers[name]
        for nid in nodes:
            dx, dy = rng.uniform(-3.0, 3.0, size=2)
            layout[nid] = (cx + dx, cy + dy)
    return RegionPartition(regions, layout)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def scenario_from_dict(raw: dict) -> Scenario:
    try:
        segments = tuple(
            Segment(
                start=int(s["start"]),
                end=int(s["end"]),
                kind=str(s["kind"]),
                level=float(s.get("level", 0.0)),
                slope=float(s.get("slope", 0.0)),
                rate=float(s.get("rate", 0.0)),
                nodes=tuple(s["nodes"]) if s.get("nodes") is not None else None,
                coupling=float(s.get("coupling", 0.0)),
            )
            for s in raw.get("segments", [])
        )
        return Scenario(
            n=int(raw["n"]),
            t=int(raw["t"]),
            noise_std=float(raw.get("noise_std", 1.0)),
            segments=segments,
            node_prefix=str(raw.get("node_prefix", "bus")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigurationError(f"synth: bad scenario description: {e}") from None


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_json_object(path, ConfigurationError, "synth: scenario file"))

