import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rmtdetect import Scenario, Segment, generate, sample_gaussian_matrix
from rmtdetect.errors import ConfigurationError, ParameterError
from rmtdetect.rng import as_generator
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


def test_scenario_noise_std_must_be_finite():
    with pytest.raises(ParameterError, match="noise std"):
        scenario_from_dict({"n": 4, "t": 10, "noise_std": float("nan")})


SCENARIO_EXITS = [
    ("below-two-by-two", {"n": 1, "t": 5}, ParameterError,
     "scenario must be at least 2x2, got 1x5"),
    ("segment-node-out-of-range",
     {"n": 4, "t": 10, "segments": [{"start": 0, "end": 10, "kind": "step", "nodes": [4]}]},
     ConfigurationError, "segment node index outside 0..3"),
]


@pytest.mark.parametrize("raw, error, named", [c[1:] for c in SCENARIO_EXITS],
                         ids=[c[0] for c in SCENARIO_EXITS])
def test_scenario_input_exits(raw, error, named):
    with pytest.raises(error) as info:
        scenario_from_dict(raw)
    assert info.value.exit_code == 1 and named in str(info.value)


def test_segment_rejects_a_repeated_node():
    with pytest.raises(ParameterError, match=r"segment \[0, 10\) lists node 1 twice"):
        Segment(0, 10, "step", level=1.0, nodes=(0, 1, 2, 1))


def _three_array_generate(sc, seed):
    """The scenario as signal + scale * noise over three n x t arrays."""
    noise = as_generator(seed).standard_normal((sc.n, sc.t))
    scale = np.full((sc.n, sc.t), sc.noise_std)
    signal = np.zeros((sc.n, sc.t))
    for seg in sc.segments:
        cols = slice(seg.start, seg.end)
        sig = seg.signal()
        rows = slice(None) if seg.nodes is None else list(seg.nodes)
        signal[rows, cols] += sig[None, :]
        if seg.coupling > 0:
            signal[:, cols] += seg.coupling * sig[None, :] / np.sqrt(sc.n)
        if seg.kind == "collapse":
            scale[rows, cols] *= np.exp(seg.rate * np.arange(seg.end - seg.start))[None, :]
    return signal + scale * noise


GENERATE_CASES = {
    "noise-std-1": Scenario(n=12, t=300),
    "noise-std-0.3": Scenario(n=12, t=300, noise_std=0.3),
    "table3": table3_scenario(),
    "collapse-on-a-subset": Scenario(
        n=9, t=500, noise_std=0.7,
        segments=(
            Segment(0, 250, "ramp", level=1.0, slope=0.1, nodes=(2, 5)),
            Segment(250, 500, "collapse", level=3.0, rate=0.01, nodes=(7, 1, 4), coupling=0.3),
        ),
    ),
    "coupling": Scenario(
        n=16, t=100,
        segments=(
            Segment(0, 50, "flat"),
            Segment(50, 100, "step", level=40.0, nodes=(0,), coupling=0.5),
        ),
    ),
    "flat-level-0": Scenario(n=5, t=80, noise_std=2.5, segments=(Segment(0, 80, "flat"),)),
}


@pytest.mark.parametrize("name", GENERATE_CASES)
def test_generate_matches_the_three_array_formula_bit_for_bit(name):
    sc = GENERATE_CASES[name]
    got = generate(sc, seed=13).values
    assert got.tobytes() == _three_array_generate(sc, 13).tobytes()


@pytest.mark.parametrize(
    "sc, bound",
    [(Scenario(n=50, t=4000), 1.5), (table3_scenario(), 2.0)],
    ids=["pure-noise", "table3"],
)
def test_generate_makes_no_n_by_t_temporaries(sc, bound):
    # the noise draw becomes the values; the finiteness mask is 1/8 of it
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        src = generate(sc, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * src.values.nbytes
