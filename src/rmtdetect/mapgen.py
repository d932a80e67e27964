"""Plot-ready spatial frames: node or region indicator values interpolated
onto a planar grid by inverse-distance weighting.

IDW with exponent p keeps every interpolated cell inside [min, max] of the
node values, is exact at node locations, and falls off smoothly in
between: the three properties the spatial views rely on. Frames of a run
share one bounding box so an animation does not jitter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .detect import IndicatorSeries
from .errors import ConfigurationError, ContractError
from .ingest import RegionPartition

NODE_SNAP = 1e-9


@dataclass(frozen=True)
class MapFrame:
    t: int
    grid: np.ndarray
    bounds: Tuple[float, float, float, float]  # xmin, xmax, ymin, ymax


def layout_bounds(layout: Mapping[str, Tuple[float, float]]) -> Tuple[float, float, float, float]:
    xs = [xy[0] for xy in layout.values()]
    ys = [xy[1] for xy in layout.values()]
    return (min(xs), max(xs), min(ys), max(ys))


def frame(
    values: Mapping[str, float],
    layout: Mapping[str, Tuple[float, float]],
    grid_size: int = 64,
    power: float = 2.0,
    bounds: Optional[Tuple[float, float, float, float]] = None,
    t: int = 0,
) -> MapFrame:
    """Interpolate node values onto a grid_size x grid_size lattice.

    A cell within NODE_SNAP of a node takes that node's value exactly.
    """
    if not values:
        raise ContractError("mapgen: no node values to interpolate")
    missing = [nid for nid in values if nid not in layout]
    if missing:
        raise ContractError(f"mapgen: layout lacks coordinates for {missing[:5]}")
    if grid_size < 2:
        raise ContractError(f"mapgen: grid size must be >= 2, got {grid_size}")
    pts = np.array([layout[nid] for nid in values], dtype=float)
    vals = np.array([values[nid] for nid in values], dtype=float)
    if bounds is None:
        bounds = layout_bounds({nid: layout[nid] for nid in values})
    xmin, xmax, ymin, ymax = bounds
    gx = np.linspace(xmin, xmax, grid_size)
    gy = np.linspace(ymin, ymax, grid_size)
    cx, cy = np.meshgrid(gx, gy, indexing="xy")
    d = np.hypot(cx[..., None] - pts[:, 0], cy[..., None] - pts[:, 1])
    snapped = d < NODE_SNAP
    with np.errstate(divide="ignore"):
        w = d**-power
    grid = np.empty_like(cx)
    on_node = snapped.any(axis=-1)
    # exact-at-node rule beats the weight blow-up at zero distance
    nearest = np.argmax(snapped, axis=-1)
    grid[on_node] = vals[nearest[on_node]]
    off = ~on_node
    wsum = w[off].sum(axis=-1)
    grid[off] = (w[off] * vals).sum(axis=-1) / wsum
    return MapFrame(t=int(t), grid=grid, bounds=tuple(float(b) for b in bounds))


def _series_values_at(
    series: IndicatorSeries,
    function: str,
    index: int,
    partition: Optional[RegionPartition],
    layout: Mapping[str, Tuple[float, float]],
) -> Dict[str, float]:
    """Per-node values for one timestamp: region tracks broadcast to their
    member nodes; node-granular tracks map directly."""
    out: Dict[str, float] = {}
    for (region, fname), fs in series.data.items():
        if fname != function:
            continue
        val = float(fs.eta[index])
        if partition is not None and region in partition.regions:
            for nid in partition.regions[region]:
                if nid in layout:
                    out[nid] = val
        elif region in layout:
            out[region] = val
    return out


def render_run(
    series: IndicatorSeries,
    layout: Mapping[str, Tuple[float, float]],
    out_dir,
    function: Optional[str] = None,
    partition: Optional[RegionPartition] = None,
    frame_stride: int = 1,
    grid_size: int = 64,
    power: float = 2.0,
) -> Path:
    """Write one JSON frame of eta values per selected timestamp plus a manifest.

    Returns the manifest path. The manifest is written last, so its
    presence marks a complete run.
    """
    if not layout:
        raise ConfigurationError("mapgen: rendering needs a layout")
    if frame_stride < 1:
        raise ConfigurationError(f"mapgen: frame stride must be >= 1, got {frame_stride}")
    functions = series.functions()
    if function is None:
        if len(functions) != 1:
            raise ConfigurationError(
                f"mapgen: series holds functions {functions}; pick one to render"
            )
        function = functions[0]
    elif function not in functions:
        raise ConfigurationError(f"mapgen: series has no function {function!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = layout_bounds(layout)
    names = []
    for index in range(0, len(series.t), frame_stride):
        t = int(series.t[index])
        values = _series_values_at(series, function, index, partition, layout)
        if not values:
            raise ConfigurationError(
                "mapgen: no renderable node values; regions and layout do not overlap"
            )
        f = frame(values, layout, grid_size, power, bounds, t=t)
        name = f"frame_{t:06d}.json"
        (out_dir / name).write_text(
            json.dumps(
                {
                    "t": f.t,
                    "bounds": list(f.bounds),
                    "quantity": "eta",
                    "grid": [[float(v) for v in row] for row in f.grid],
                }
            ),
            encoding="utf-8",
        )
        names.append(name)
    manifest = out_dir / "frames.json"
    manifest.write_text(
        json.dumps(
            {
                "function": function,
                "quantity": "eta",
                "grid_size": grid_size,
                "power": power,
                "bounds": list(bounds),
                "frames": names,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return manifest
