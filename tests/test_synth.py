import dataclasses
import json

import numpy as np
import pytest
from scipy import stats

from rmtdetect import Scenario, Segment, generate, sample_gaussian_matrix
from rmtdetect.errors import ConfigurationError, ParameterError
from rmtdetect.synth import load_scenario, scenario_from_dict, table3_partition, table3_scenario


def test_generation_is_deterministic():
    sc = table3_scenario(n=20, t=300)
    a = generate(sc, seed=7)
    b = generate(sc, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, generate(sc, seed=8).values)


def test_pure_gaussian_baseline_moments():
    src = sample_gaussian_matrix(1000, 1000, seed=3)
    cells = src.values.ravel()
    assert abs(cells.mean()) <= 0.004
    assert np.mean(cells**4) == pytest.approx(3.0, abs=0.02)
    assert abs(stats.kurtosis(cells)) <= 0.02


def test_segments_must_tile():
    seg = Segment(0, 50, "flat")
    with pytest.raises(ConfigurationError):
        Scenario(n=4, t=100, segments=(seg,))  # does not reach t
    with pytest.raises(ConfigurationError):
        Scenario(
            n=4, t=100,
            segments=(Segment(0, 60, "flat"), Segment(50, 100, "flat")),  # overlap
        )
    with pytest.raises(ParameterError):
        Segment(10, 10, "flat")
    with pytest.raises(ParameterError):
        Segment(0, 10, "wiggle")
    with pytest.raises(ParameterError):
        Segment(0, 10, "step", coupling=1.5)


def test_segment_superposition_is_order_independent():
    segs = (
        Segment(0, 40, "flat", level=0.0),
        Segment(40, 80, "step", level=5.0, nodes=(1,), coupling=0.4),
        Segment(80, 120, "ramp", level=5.0, slope=0.25, nodes=(1,), coupling=0.4),
    )
    a = generate(Scenario(n=6, t=120, segments=segs), seed=1)
    b = generate(Scenario(n=6, t=120, segments=segs[::-1]), seed=1)
    np.testing.assert_array_equal(a.values, b.values)


def test_zero_coupling_leaves_other_nodes_at_baseline():
    base = Scenario(n=8, t=400)
    seg = Scenario(
        n=8, t=400,
        segments=(
            Segment(0, 200, "flat"),
            Segment(200, 400, "step", level=50.0, nodes=(2,), coupling=0.0),
        ),
    )
    a = generate(base, seed=11).values
    b = generate(seg, seed=11).values
    others = [i for i in range(8) if i != 2]
    np.testing.assert_array_equal(a[others], b[others])
    assert not np.array_equal(a[2], b[2])
    # across independent seeds the unaffected cells stay distributionally flat
    c = generate(seg, seed=12).values
    ks = stats.ks_2samp(b[others].ravel(), c[others].ravel())
    assert ks.pvalue > 0.01


def test_coupling_echoes_on_all_nodes():
    sc = Scenario(
        n=16, t=100,
        segments=(Segment(0, 50, "flat"), Segment(50, 100, "step", level=40.0, nodes=(0,), coupling=0.5)),
    )
    v = generate(sc, seed=5).values
    echo = 0.5 * 40.0 / np.sqrt(16)
    late_means = v[1:, 50:].mean(axis=1)
    early_means = v[1:, :50].mean(axis=1)
    assert np.all(late_means - early_means > echo - 1.5)
    assert v[0, 50:].mean() - v[0, :50].mean() == pytest.approx(40.0 + echo, abs=1.5)


def test_collapse_grows_noise():
    sc = Scenario(
        n=4, t=400,
        segments=(Segment(0, 200, "flat"), Segment(200, 400, "collapse", rate=0.02, nodes=(1,))),
    )
    v = generate(sc, seed=9).values
    assert v[1, 350:].std() > 5 * v[1, :200].std()
    assert v[0, 350:].std() == pytest.approx(v[0, :200].std(), rel=0.5)


def test_ramp_segment_shape():
    seg = Segment(10, 20, "ramp", level=2.0, slope=0.5)
    np.testing.assert_allclose(seg.signal(), 2.0 + 0.5 * np.arange(1, 11))


def test_preset_layout_and_boundaries():
    sc = table3_scenario()
    assert sc.n == 118 and sc.t == 1500
    kinds = [(s.kind, s.start, s.end) for s in sc.segments]
    assert kinds == [
        ("flat", 0, 600),
        ("step", 600, 1200),
        ("ramp", 1200, 1306),
        ("collapse", 1306, 1500),
    ]
    step = sc.segments[1]
    assert step.nodes == (51,) and step.coupling == 0.5
    # ramp continues from the step level; collapse holds the ramp's end level
    ramp = sc.segments[2]
    assert ramp.level == step.level
    assert sc.segments[3].level == pytest.approx(ramp.level + ramp.slope * (1306 - 1200))


def test_preset_partition_covers_nodes():
    part = table3_partition()
    all_nodes = [n for nodes in part.regions.values() for n in nodes]
    assert len(all_nodes) == 118 and len(set(all_nodes)) == 118
    assert part.region_of("bus52") == "A3"
    assert set(part.layout) == set(all_nodes)
    # regions occupy disjoint spatial clusters
    for name, nodes in part.regions.items():
        xs = np.array([part.layout[n] for n in nodes])
        assert np.ptp(xs[:, 0]) <= 6.5 and np.ptp(xs[:, 1]) <= 6.5


def test_scenario_json_roundtrip(tmp_path):
    sc = table3_scenario(n=12, t=300)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(dataclasses.asdict(sc)))
    back = load_scenario(p)
    assert back == sc


def test_scenario_from_bad_dict():
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"n": 4})
    with pytest.raises(ConfigurationError):
        load_scenario("/nonexistent/sc.json")
