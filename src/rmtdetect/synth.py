"""Synthetic scenario generation.

Scenarios are piecewise schedules over [0, t): each segment injects a
deterministic signal on its affected nodes, spreads a rank-one echo
coupling * signal / sqrt(n) onto every node, and (for collapse segments)
inflates the noise on affected nodes exponentially. That reproduces, at
the statistical level, what a coordinated disturbance riding on sensor
noise looks like to the detector: a correlated deviation, not physics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError, ParameterError
from .ingest import DataSource, RegionPartition
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
            object.__setattr__(self, "nodes", tuple(int(i) for i in self.nodes))

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
        if self.noise_std <= 0:
            raise ParameterError(f"synth: noise std must be positive, got {self.noise_std}")
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


def generate(sc: Scenario, seed: SeedLike = 0) -> DataSource:
    """Draw the scenario: i.i.d. Gaussian noise plus the segment schedule.

    Segment contributions are additive and order-independent within a
    sample; with coupling 0, unaffected nodes are statistically identical
    to the no-segment baseline.
    """
    rng = as_generator(seed)
    noise = rng.standard_normal((sc.n, sc.t))
    scale = np.full((sc.n, sc.t), sc.noise_std)
    signal = np.zeros((sc.n, sc.t))
    for seg in sc.segments:
        cols = slice(seg.start, seg.end)
        sig = seg.signal()
        rows = slice(None) if seg.nodes is None else np.array(seg.nodes, dtype=int)
        signal[rows, cols] += sig[None, :]
        if seg.coupling > 0:
            signal[:, cols] += seg.coupling * sig[None, :] / np.sqrt(sc.n)
        if seg.kind == "collapse":
            growth = np.exp(seg.rate * np.arange(seg.end - seg.start))
            scale[rows, cols] *= growth[None, :]
    # signal + scale * noise, in place: no n x t temporaries
    values = np.add(signal, np.multiply(scale, noise, out=scale), out=signal)
    return DataSource(values, sc.node_ids(), tuple(range(sc.t)))


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


def table3_scenario(n: int = 118, t: int = 1500, noise_std: float = 1.0) -> Scenario:
    """Three-phase schedule: flat zero, step at 600, ramp from 1200, with the
    tail of the ramp degenerating into a variance collapse from 1306 (0-based
    sample indices; the classic stage split S1..S5 falls out of this timing).

    Scaled into noise units; requires t >= 1500-proportional phase layout.
    """
    if t < 8 or n < 2:
        raise ParameterError("synth: preset needs a reasonably sized grid")
    # canonical boundaries 600/1200/1306 out of 1500, scaled for other t
    step_at = round(t * PRESET_STEP_AT / 1500)
    ramp_at = round(t * PRESET_RAMP_AT / 1500)
    collapse_at = round(t * PRESET_COLLAPSE_AT / 1500)
    if not 0 < step_at < ramp_at < collapse_at < t:
        raise ParameterError(f"synth: preset phases collapsed for t={t}")
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


def table3_partition(n: int = 118, seed: int = 2024) -> RegionPartition:
    """Six contiguous regions with an invented planar layout (illustrative
    only): region clusters sit on a 3 x 2 grid of centers, nodes jittered
    around their center. The event node falls in region A3."""
    ids = [f"bus{i + 1}" for i in range(n)]
    k = 6
    bounds = np.linspace(0, n, k + 1).astype(int)
    regions = {
        f"A{j + 1}": tuple(ids[bounds[j] : bounds[j + 1]]) for j in range(k)
    }
    centers = {
        "A1": (0.0, 0.0), "A2": (10.0, 0.0), "A3": (20.0, 0.0),
        "A4": (0.0, 10.0), "A5": (10.0, 10.0), "A6": (20.0, 10.0),
    }
    rng = as_generator(seed)
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
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigurationError(f"synth: bad scenario description: {e}") from None


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"synth: no such scenario file: {path}")
    return scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))

