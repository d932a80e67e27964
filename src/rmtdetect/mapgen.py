"""Plot-ready spatial frames: node or region indicator values interpolated
onto a planar grid by inverse-distance weighting.

IDW with exponent p keeps every interpolated cell inside [min, max] of the
node values, is exact at node locations, and falls off smoothly in
between: the three properties the spatial views rely on. Frames of a run
share one bounding box so an animation does not jitter, and one set of
weights, computed once per run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .detect import IndicatorSeries
from .errors import ConfigurationError, ContractError, ParameterError
from .ingest import RegionPartition

NODE_SNAP = 1e-9


def _node_tracks(
    series: IndicatorSeries,
    function: str,
    partition: Optional[RegionPartition],
    layout: Mapping[str, Tuple[float, float]],
) -> Dict[str, np.ndarray]:
    """The eta track behind each rendered node: region tracks broadcast to
    their member nodes; node-granular tracks map directly."""
    out: Dict[str, np.ndarray] = {}
    for (region, fname), fs in series.data.items():
        if fname != function:
            continue
        if partition is not None and region in partition.regions:
            for nid in partition.regions[region]:
                if nid in layout:
                    out[nid] = fs.eta
        elif region in layout:
            out[region] = fs.eta
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

    A frame is a grid_size x grid_size lattice over the layout's bounding
    box. A cell within NODE_SNAP of a node takes that node's value exactly;
    every other cell is the mean of the node values weighted by
    distance**-power. The weights depend on node positions only, so they
    are computed once and each frame is one weighted sum.

    Returns the manifest path. The manifest is written last, so its
    presence marks a complete run.
    """
    if not layout:
        raise ConfigurationError("mapgen: rendering needs a layout")
    if frame_stride < 1:
        raise ConfigurationError(
            f"mapgen: frame stride (--stride) must be >= 1, got {frame_stride}"
        )
    functions = series.functions()
    if function is None:
        if len(functions) != 1:
            raise ConfigurationError(
                f"mapgen: series holds functions {functions}; pick one to render "
                "with --function"
            )
        function = functions[0]
    elif function not in functions:
        raise ConfigurationError(
            f"mapgen: series has no function {function!r} (--function); it holds {functions}"
        )
    xs, ys = zip(*layout.values())
    bounds = (min(xs), max(xs), min(ys), max(ys))
    tracks = _node_tracks(series, function, partition, layout)
    if not tracks:
        raise ConfigurationError(
            "mapgen: no renderable node values; regions and layout do not overlap"
        )
    if grid_size < 2:
        raise ContractError(f"mapgen: grid size (--grid) must be >= 2, got {grid_size}")
    if not (np.isfinite(power) and power > 0):  # d**-nan and d**-inf make every cell NaN
        raise ParameterError(
            f"mapgen: IDW power (--power) must be finite and positive, got {power}"
        )
    pts = np.array([layout[nid] for nid in tracks], dtype=float)
    xmin, xmax, ymin, ymax = bounds
    cx, cy = np.meshgrid(
        np.linspace(xmin, xmax, grid_size), np.linspace(ymin, ymax, grid_size), indexing="xy"
    )
    # At most two grid^2 x nodes float arrays live at once: the distances
    # go into the x differences, and the weights replace the distances.
    d = cx[..., None] - pts[:, 0]
    np.hypot(d, cy[..., None] - pts[:, 1], out=d)
    snapped = d < NODE_SNAP
    on_node = snapped.any(axis=-1)
    # exact-at-node rule beats the weight blow-up at zero distance
    nearest = np.argmax(snapped, axis=-1)[on_node]
    w_off = d[~on_node]
    del d, snapped
    w_off **= -power  # every off-node distance is >= NODE_SNAP
    wsum = w_off.sum(axis=-1)
    buf = np.empty_like(w_off)
    etas = np.array(list(tracks.values()), dtype=float)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frame_bounds = [float(b) for b in bounds]
    names = []
    for index in range(0, len(series.t), frame_stride):
        t = int(series.t[index])
        vals = etas[:, index]
        grid = np.empty(on_node.shape)
        grid[on_node] = vals[nearest]
        grid[~on_node] = np.multiply(w_off, vals, out=buf).sum(axis=-1) / wsum
        name = f"frame_{t:06d}.json"
        (out_dir / name).write_text(
            json.dumps(
                {"t": t, "bounds": frame_bounds, "quantity": "eta", "grid": grid.tolist()}
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
