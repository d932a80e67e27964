"""Plot-ready spatial frames: node or region indicator values interpolated
onto a planar grid by inverse-distance weighting.

IDW with exponent p keeps every interpolated cell inside [min, max] of the
node values, is exact at node locations, and falls off smoothly in
between: the three properties the spatial views rely on. Frames of a run
share one bounding box so an animation does not jitter. The weights depend
on node positions only; they are computed one grid row at a time, once per
group of at most one frame per node, so no grid^2 x nodes array is held.
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
    distance**-power. Frames are filled in groups of at most one frame per
    node, one grid row at a time: a row's grid x nodes weights serve every
    frame of the group, and the group's frames are written before the next
    group starts. So a group's grids take no more memory than one
    grid^2 x nodes weights array would. A power whose weights overflow or
    underflow float64 over the layout is a ParameterError, and so is one
    that leaves a non-finite cell in a frame whose node values are all
    finite; it is raised before the failing frame's group is written.

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
    etas = np.array(list(tracks.values()), dtype=float)
    xmin, xmax, ymin, ymax = bounds
    # cell (i, j) sits at (x_j, y_i): dx[j] and dy[i] are its offsets to every node
    dx = np.linspace(xmin, xmax, grid_size)[:, None] - pts[:, 0]
    dy = np.linspace(ymin, ymax, grid_size)[:, None] - pts[:, 1]
    buf = np.empty_like(dx)
    out_dir = Path(out_dir)
    frame_bounds = [float(b) for b in bounds]
    picks = range(0, len(series.t), frame_stride)
    names = []
    for start in range(0, len(picks), len(pts)):
        group = picks[start : start + len(pts)]
        vals = etas[:, group].T
        finite = np.isfinite(vals).all(axis=-1)  # frames whose cells must come out finite
        grids = np.empty((len(group), grid_size, grid_size))
        for i in range(grid_size):
            w = np.hypot(dx, dy[i])
            snapped = w < NODE_SNAP
            on_node = snapped.any(axis=-1)
            # exact-at-node rule beats the weight blow-up at zero distance:
            # a dummy weight here, the node's value below
            w[on_node] = 1.0
            with np.errstate(over="ignore"):
                w **= -power
                wsum = w.sum(axis=-1)
            # weights are >= 0: a finite sum means every weight of its cell is finite
            if not np.all((wsum > 0) & (wsum < np.inf)):
                raise ParameterError(
                    f"mapgen: IDW power (--power) {power} makes the inverse-distance weights "
                    "overflow or underflow float64 over this layout; pick a smaller power"
                )
            with np.errstate(over="ignore", invalid="ignore"):
                for g, v in enumerate(vals):
                    np.multiply(w, v, out=buf).sum(axis=-1, out=grids[g, i])
                grids[:, i] /= wsum
            grids[:, i, on_node] = vals[:, np.argmax(snapped[on_node], axis=-1)]
            bad = finite & ~np.isfinite(grids[:, i]).all(axis=-1)
            if bad.any():
                t = int(series.t[group[int(np.argmax(bad))]])
                raise ParameterError(
                    f"mapgen: IDW power (--power) {power} makes the weighted node values of "
                    f"the frame at t={t} overflow float64 over this layout; pick a smaller power"
                )
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, grid in zip(group, grids):
            t = int(series.t[index])
            name = f"frame_{t:06d}.json"
            (out_dir / name).write_text(
                json.dumps(
                    {"t": t, "bounds": frame_bounds, "quantity": "eta", "grid": grid.tolist()}
                ),
                encoding="utf-8",
            )
            names.append(name)
    out_dir.mkdir(parents=True, exist_ok=True)
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
