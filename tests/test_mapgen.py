import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtdetect import render_run
from rmtdetect.detect import FunctionSeries, IndicatorSeries
from rmtdetect.errors import ConfigurationError, ContractError, ParameterError
from rmtdetect.ingest import RegionPartition


def _eta_series(etas_by_region, t):
    data = {}
    for region, etas in etas_by_region.items():
        arr = np.asarray(etas, dtype=float)
        data[(region, "MSR")] = FunctionSeries(
            tau=arr, eta=arr, flag=np.zeros(len(arr), bool),
            e_eta=1.0, e_flag=1.0, d_flag=1.0,
        )
    return IndicatorSeries(t=np.asarray(t), data=data, meta={})


def _grid(values, layout, **kwargs):
    """The grid render_run draws for one timestamp of node-granular tracks
    holding `values`, over `layout`."""
    series = _eta_series({nid: [v] for nid, v in values.items()}, [0])
    with tempfile.TemporaryDirectory() as d:
        render_run(series, layout, d, **kwargs)
        return np.array(json.loads((Path(d) / "frame_000000.json").read_text())["grid"])


def test_single_node_gives_constant_grid():
    grid = _grid({"a": 3.5}, {"a": (1.0, 2.0)}, grid_size=8)
    np.testing.assert_allclose(grid, 3.5)


def test_cell_coincident_with_node_is_exact():
    layout = {"a": (0.0, 0.0), "b": (1.0, 1.0)}
    grid = _grid({"a": 10.0, "b": -4.0}, layout, grid_size=5)
    assert grid[0, 0] == 10.0   # cell center lands exactly on node a
    assert grid[-1, -1] == -4.0


def test_two_node_interpolation_bounded():
    layout = {"a": (0.0, 0.0), "b": (2.0, 0.0)}
    grid = _grid({"a": 0.0, "b": 1.0}, layout, grid_size=16)
    assert np.all(grid >= 0.0) and np.all(grid <= 1.0)


@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6),
    power=st.floats(min_value=0.5, max_value=4.0),
)
def test_idw_boundedness_property(vals, power):
    rng = np.random.default_rng(len(vals))
    layout = {f"n{i}": tuple(rng.uniform(0, 10, 2)) for i in range(len(vals))}
    values = {f"n{i}": v for i, v in enumerate(vals)}
    grid = _grid(values, layout, grid_size=12, power=power)
    assert grid.min() >= min(vals) - 1e-9
    assert grid.max() <= max(vals) + 1e-9


def test_idw_smooth_away_from_nodes():
    layout = {"a": (0.0, 0.0), "b": (10.0, 10.0), "c": (0.0, 10.0)}
    grid = _grid({"a": 0.0, "b": 1.0, "c": 0.5}, layout, grid_size=128)
    dx = np.abs(np.diff(grid, axis=0)).max()
    dy = np.abs(np.diff(grid, axis=1)).max()
    assert max(dx, dy) < 0.15  # no jumps between adjacent fine-grid cells


def test_frame_errors(tmp_path):
    series = _eta_series({"a": [1.0], "b": [2.0]}, [0])
    for grid_size in (1, 0):
        with pytest.raises(ContractError, match="grid size"):
            render_run(series, {"a": (0, 0), "b": (1, 0)}, tmp_path / "f", grid_size=grid_size)
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("power", [np.nan, np.inf, 0.0, -2.0])
def test_frame_rejects_a_power_that_is_not_finite_and_positive(tmp_path, power):
    series = _eta_series({"a": [1.0], "b": [2.0]}, [0])
    with pytest.raises(ParameterError, match=r"--power"):
        render_run(series, {"a": (0.0, 0.0), "b": (1.0, 0.0)}, tmp_path / "f", grid_size=4,
                   power=power)
    assert not (tmp_path / "f").exists()


def _two_region_setup():
    part = RegionPartition(
        {"EAST": ("e0", "e1"), "WEST": ("w0", "w1")},
        layout={"e0": (8.0, 0.0), "e1": (9.0, 1.0), "w0": (0.0, 0.0), "w1": (1.0, 1.0)},
    )
    series = _eta_series({"EAST": [1.0, 0.4], "WEST": [1.0, 1.01]}, [100, 101])
    return part, series


def test_render_run_writes_frames_and_manifest(tmp_path):
    part, series = _two_region_setup()
    manifest = render_run(series, part.layout, tmp_path / "frames", partition=part)
    meta = json.loads(manifest.read_text())
    assert meta["frames"] == ["frame_000100.json", "frame_000101.json"]
    first = json.loads((tmp_path / "frames" / "frame_000100.json").read_text())
    assert first["t"] == 100
    assert len(first["grid"]) == 64


def test_render_run_single_frame_with_full_stride(tmp_path):
    part, series = _two_region_setup()
    manifest = render_run(series, part.layout, tmp_path / "f", partition=part, frame_stride=2)
    assert json.loads(manifest.read_text())["frames"] == ["frame_000100.json"]


def test_render_run_deterministic_bytes(tmp_path):
    part, series = _two_region_setup()
    render_run(series, part.layout, tmp_path / "a", partition=part)
    render_run(series, part.layout, tmp_path / "b", partition=part)
    for name in ("frame_000100.json", "frame_000101.json", "frames.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_event_region_deviates_most_at_event_frame(tmp_path):
    part, series = _two_region_setup()
    manifest = render_run(series, part.layout, tmp_path / "f", partition=part, grid_size=32)
    meta = json.loads(manifest.read_text())
    grid = np.array(json.loads((tmp_path / "f" / meta["frames"][1]).read_text())["grid"])
    xmin, xmax, ymin, ymax = meta["bounds"]
    iy, ix = np.unravel_index(np.argmax(np.abs(grid - 1.0)), grid.shape)
    x = xmin + (xmax - xmin) * ix / (grid.shape[1] - 1)
    y = ymin + (ymax - ymin) * iy / (grid.shape[0] - 1)
    # the most deviating cell sits inside the EAST cluster's hull (eta dropped to 0.4)
    assert x >= 7.5 and y <= 1.5


def test_constant_eta_gives_identical_grids(tmp_path):
    part = RegionPartition({"R": ("a", "b")}, layout={"a": (0, 0), "b": (1, 1)})
    series = _eta_series({"R": [1.0, 1.0, 1.0]}, [5, 6, 7])
    render_run(series, part.layout, tmp_path / "f", partition=part, grid_size=16)
    grids = [
        json.loads((tmp_path / "f" / f"frame_{t:06d}.json").read_text())["grid"]
        for t in (5, 6, 7)
    ]
    assert grids[0] == grids[1] == grids[2]


def test_render_run_errors(tmp_path):
    part, series = _two_region_setup()
    with pytest.raises(ConfigurationError):
        render_run(series, {}, tmp_path / "f")
    with pytest.raises(ConfigurationError):
        render_run(series, part.layout, tmp_path / "f", partition=part, frame_stride=0)
    with pytest.raises(ConfigurationError):
        render_run(series, part.layout, tmp_path / "f", partition=part, function="T9")
    lonely = RegionPartition({"OTHER": ("q0", "q1")}, layout={"q0": (0, 0), "q1": (1, 1)})
    with pytest.raises(ConfigurationError, match="overlap"):
        render_run(series, lonely.layout, tmp_path / "f", partition=lonely)


def _idw_cell(x, y, points, power):
    """One cell of an IDW grid, computed on its own: the value of a node
    within 1e-9, else the distance**-power weighted mean of all nodes."""
    for (px, py), v in points:
        if math.hypot(x - px, y - py) < 1e-9:
            return v
    weights = [(math.hypot(x - px, y - py) ** -power, v) for (px, py), v in points]
    return sum(w * v for w, v in weights) / sum(w for w, _ in weights)


def test_render_run_frames_match_brute_force_idw(tmp_path):
    # every frame of a run shares one set of IDW weights; each must equal a
    # per-cell IDW over that timestamp's node values, in the layout's bounds
    rng = np.random.default_rng(5)
    layout = {f"n{i}": tuple(rng.uniform(0, 10, 2)) for i in range(1, 7)}
    layout["n0"] = (0.0, 0.0)      # on the grid's corner cell: snaps
    layout["n7"] = (10.0, 10.0)    # no track, but it widens the bounds
    part = RegionPartition({"A": ("n0", "n1", "n2"), "B": ("n3", "n4")}, layout=layout)
    t = np.arange(200, 207)
    regions = {"A": rng.uniform(0.5, 1.5, 7), "B": rng.uniform(0.5, 1.5, 7),
               "n5": rng.uniform(0, 2, 7)}   # a node-granular track
    regions["B"][3] = np.nan
    series = _eta_series(regions, t)
    manifest = render_run(series, layout, tmp_path / "f", partition=part, frame_stride=2,
                          grid_size=9, power=1.5)
    names = json.loads(manifest.read_text())["frames"]
    assert names == [f"frame_{t[i]:06d}.json" for i in range(0, 7, 2)]
    xs, ys = [x for x, _ in layout.values()], [y for _, y in layout.values()]
    bounds = [min(xs), max(xs), min(ys), max(ys)]
    for name, index in zip(names, range(0, 7, 2)):
        points = [
            (layout[nid], float(fs.eta[index]))
            for (region, _), fs in series.data.items()
            for nid in part.regions.get(region, (region,))
        ]
        expected = [
            [_idw_cell(bounds[0] + (bounds[1] - bounds[0]) * ix / 8,
                       bounds[2] + (bounds[3] - bounds[2]) * iy / 8, points, 1.5)
             for ix in range(9)]
            for iy in range(9)
        ]
        got = json.loads((tmp_path / "f" / name).read_text())
        assert (got["t"], got["bounds"], got["quantity"]) == (t[index], bounds, "eta")
        assert got["grid"][0][0] == points[0][1]   # n0's cell takes its value exactly
        np.testing.assert_allclose(got["grid"], expected, rtol=1e-12, atol=0)


def test_render_run_peaks_below_one_weight_cube(tmp_path):
    # the weights are computed one grid row at a time and the grids of a
    # group of at most one frame per node are held: no grid^2 x nodes array
    rng = np.random.default_rng(3)
    layout = {f"bus{i}": tuple(rng.uniform(0, 20, 2)) for i in range(40)}
    series = _eta_series({nid: rng.uniform(0, 2, 5) for nid in layout}, np.arange(5))
    cube = 128 * 128 * 40 * 8
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        render_run(series, layout, tmp_path / "f", grid_size=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube


def _dense_idw(layout, etas, grid_size, power):
    """Every frame at once, as one grid^2 x nodes weights array: the snap
    mask, the off-node weights d**-power and their sums, then one weighted
    sum per frame, each a sum along the nodes axis."""
    pts = np.array(list(layout.values()), dtype=float)
    xs, ys = pts[:, 0], pts[:, 1]
    cx, cy = np.meshgrid(np.linspace(xs.min(), xs.max(), grid_size),
                         np.linspace(ys.min(), ys.max(), grid_size), indexing="xy")
    d = np.hypot(cx[..., None] - xs, cy[..., None] - ys)
    snapped = d < 1e-9
    on_node = snapped.any(axis=-1)
    nearest = np.argmax(snapped, axis=-1)[on_node]
    w_off = d[~on_node] ** -power
    wsum = w_off.sum(axis=-1)
    grids = []
    for vals in etas.T:
        grid = np.empty(on_node.shape)
        grid[on_node] = vals[nearest]
        grid[~on_node] = (w_off * vals).sum(axis=-1) / wsum
        grids.append(grid)
    return grids


def test_render_run_groups_match_a_dense_reference_bit_for_bit(tmp_path):
    # 29 frames over 12 nodes: three groups, the last one short; more than 8
    # nodes, so each cell's sum takes numpy's unrolled pairwise path; three
    # nodes sit on grid cells (two corners and the centre) and snap
    rng = np.random.default_rng(8)
    layout = {"a": (0.0, 0.0), "b": (10.0, 10.0), "c": (5.0, 5.0)}
    layout.update({f"n{i}": tuple(rng.uniform(0, 10, 2)) for i in range(9)})
    etas = rng.uniform(0, 2, (12, 29))
    series = _eta_series(dict(zip(layout, etas)), np.arange(300, 329))
    manifest = render_run(series, layout, tmp_path / "f", grid_size=9, power=2.5)
    names = json.loads(manifest.read_text())["frames"]
    expected = _dense_idw(layout, etas, 9, 2.5)
    assert len(names) == len(expected) == 29
    for name, grid in zip(names, expected):
        assert json.loads((tmp_path / "f" / name).read_text())["grid"] == grid.tolist()
    assert [expected[0][0, 0], expected[0][-1, -1], expected[0][4, 4]] == list(etas[:3, 0])


@pytest.mark.parametrize("power, width", [(400.0, 0.004), (200.0, 4000.0)])
def test_power_whose_weights_leave_float64_is_named(tmp_path, power, width):
    # d**-400 at d ~ 1e-3 overflows; d**-200 at d ~ 1e3 underflows to 0
    layout = {"a": (0.0, 0.0), "b": (width, 0.0), "c": (0.0, width), "d": (width, width)}
    series = _eta_series({nid: [1.0, 2.0] for nid in layout}, [0, 1])
    with pytest.raises(ParameterError, match=r"--power"):
        render_run(series, layout, tmp_path / "f", grid_size=8, power=power)
    assert not (tmp_path / "f").exists()


def test_power_whose_weighted_values_overflow_is_named(tmp_path):
    # the weights and their sums stay finite at d**-95 over a square 0.004
    # wide, but weight x eta overflowed: Infinity cells and a bare warning
    layout = {"a": (0.0, 0.0), "b": (0.004, 0.0), "c": (0.0, 0.004), "d": (0.004, 0.004)}
    # frame t=7 holds a NaN node value, so its NaN cells are no fault of the power
    series = _eta_series({nid: [math.nan if nid == "a" else v, v]
                          for nid, v in zip(layout, (1.0, 2.0, 3.0, 4.0))}, [7, 8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"--power\) 95.0 .* frame at t=8 overflow"):
            render_run(series, layout, tmp_path / "f", grid_size=8, power=95.0)
    assert not (tmp_path / "f").exists()
