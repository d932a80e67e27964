import csv
import math

import numpy as np
import pytest

from rmtdetect import (
    DataSource,
    DetectorConfig,
    RegionPartition,
    Scenario,
    Segment,
    WindowSpec,
    extract_events,
    generate,
    regional_series,
    sample_gaussian_matrix,
    sweep,
)
import rmtdetect.detect as detect_module
from rmtdetect.detect import (
    FunctionSeries,
    IndicatorSeries,
    read_indicator_csv,
    write_events_json,
    write_indicator_csv,
)
from rmtdetect.errors import (
    AspectRatioError,
    ConfigurationError,
    ContractError,
    DegenerateRowError,
    NumericalFailureError,
    ParameterError,
)


def step_source(n=24, t=360, t_star=150, level=50.0, node=5, coupling=0.5, seed=3):
    sc = Scenario(
        n=n, t=t,
        segments=(
            Segment(0, t_star, "flat"),
            Segment(t_star, t, "step", level=level, nodes=(node,), coupling=coupling),
        ),
    )
    return generate(sc, seed=seed)


def small_cfg(**kw):
    defaults = dict(window=WindowSpec(T=60), functions=("MSR",), base_seed=0, mc_reps=150)
    defaults.update(kw)
    return DetectorConfig(**defaults)


# --- sweep behavior ----------------------------------------------------------


def test_step_event_start_and_occupancy():
    src = step_source()
    cfg = small_cfg(functions=("MSR", "LRF"))
    series = sweep(src, cfg)
    report = extract_events(series, cfg)
    by_fn = {e.function: e for e in report.events if e.region == "ALL"}
    for name in ("MSR", "LRF"):
        ev = by_fn[name]
        assert ev.start_t == 150  # first window containing the post-step sample
        assert ev.end_t == 208    # last window straddling the jump (T - 1 occupancy)
    assert by_fn["MSR"].direction == -1  # radii collapse toward the center
    assert by_fn["LRF"].direction == 1   # the log-likelihood excursion is reversed


def test_flags_clear_once_step_leaves_window():
    src = step_source()
    cfg = small_cfg()
    series = sweep(src, cfg)
    fs = series.data[("ALL", "MSR")]
    late = series.t >= 150 + 60  # windows fully inside the post-step regime
    assert not fs.flag[late].any()


def test_eta_is_tau_over_reference():
    src = step_source()
    cfg = small_cfg()
    series = sweep(src, cfg)
    fs = series.data[("ALL", "MSR")]
    np.testing.assert_allclose(fs.eta, fs.tau / fs.e_eta, rtol=1e-12)


def test_impulse_cannot_flag_before_it_happens():
    t_star = 200
    base = Scenario(n=16, t=300)
    spike = Scenario(
        n=16, t=300,
        segments=(
            Segment(0, t_star, "flat"),
            Segment(t_star, t_star + 1, "step", level=60.0, nodes=tuple(range(16))),
            Segment(t_star + 1, 300, "flat"),
        ),
    )
    cfg = small_cfg(window=WindowSpec(T=50), mc_reps=100)
    quiet = sweep(generate(base, seed=21), cfg)
    loud = sweep(generate(spike, seed=21), cfg)
    before = quiet.t < t_star
    # windows ending before t* never saw the impulse: identical statistics
    np.testing.assert_array_equal(
        loud.data[("ALL", "MSR")].tau[before], quiet.data[("ALL", "MSR")].tau[before]
    )
    # and the impulse occupies exactly the windows whose span contains t*
    flags = loud.t[loud.data[("ALL", "MSR")].flag]
    assert len(flags) > 0
    assert flags.min() >= t_star
    assert flags.max() <= t_star + 50 - 1


def test_unit_invariance_of_tau_and_flags():
    src = step_source()
    rng = np.random.default_rng(4)
    gains = rng.uniform(0.5, 200.0, src.n)
    offsets = rng.uniform(-1e3, 1e3, src.n)
    rescaled = DataSource(
        gains[:, None] * src.values + offsets[:, None], src.node_ids, src.timestamps
    )
    cfg = small_cfg(functions=("MSR", "LRF"))
    a = sweep(src, cfg)
    b = sweep(rescaled, cfg)
    for key in a.data:
        np.testing.assert_allclose(b.data[key].tau, a.data[key].tau, atol=1e-8)
        np.testing.assert_array_equal(b.data[key].flag, a.data[key].flag)


def test_sweep_determinism_and_stride_consistency():
    # seeds derive from (base_seed, end), so a stride-k sweep is every k-th
    # window of the stride-1 sweep, bit for bit
    src = step_source()
    cfg = small_cfg(functions=("MSR", "LRF"))
    a = sweep(src, cfg)
    b = sweep(src, cfg)
    c = sweep(src, small_cfg(functions=("MSR", "LRF"), window=WindowSpec(T=60, stride=7)))
    np.testing.assert_array_equal(c.t, a.t[::7])
    for key in a.data:
        np.testing.assert_array_equal(a.data[key].tau, b.data[key].tau)
        np.testing.assert_array_equal(c.data[key].tau, a.data[key].tau[::7])
        np.testing.assert_array_equal(c.data[key].flag, a.data[key].flag[::7])


def _with_constant_row(src, row):
    vals = src.values.copy()
    vals[row] = 1.0
    return DataSource(vals, src.node_ids, src.timestamps)


def test_degenerate_row_error_names_the_node():
    src = _with_constant_row(sample_gaussian_matrix(8, 120, seed=5), 3)
    with pytest.raises(DegenerateRowError, match=repr(src.node_ids[3])):
        sweep(src, small_cfg(window=WindowSpec(T=30)))
    # inside a region, row 5 of Q is node 20; ALL is too wide for the window
    src = _with_constant_row(sample_gaussian_matrix(30, 300, seed=5), 20)
    part = RegionPartition({"P": src.node_ids[:15], "Q": src.node_ids[15:]})
    cfg = small_cfg(window=WindowSpec(T=20), regions=part, mc_reps=50)
    with pytest.warns(RuntimeWarning, match="ALL"):
        with pytest.raises(DegenerateRowError, match=repr(src.node_ids[20])):
            regional_series(src, cfg)


def _lrf_sweep(vals):
    ids = tuple(f"n{i}" for i in range(vals.shape[0]))
    src = DataSource(vals, ids, tuple(range(vals.shape[1])))
    sweep(src, small_cfg(window=WindowSpec(T=30), functions=("LRF",)))


def test_large_offset_row_names_its_node():
    # at an offset-to-noise ratio of 1e12 the centering residue breaks the
    # unit-variance check; the error blames float64 precision, by node
    noise = np.random.default_rng(0).standard_normal((8, 80))
    with pytest.raises(DegenerateRowError, match=r"rows \['n\d'.*float64"):
        _lrf_sweep(1e9 + 1e-3 * noise)
    vals = noise.copy()
    vals[5] = 1e11 + 1e-3 * noise[5]
    with pytest.raises(DegenerateRowError, match=r"rows \['n5'\] .*float64"):
        _lrf_sweep(vals)


def test_row_near_float64_limit_names_its_node():
    # squared deviations of order 1e197, or a row sum near 1e310, overflow:
    # no warning and no NaN reaches the eigensolver, a named error does
    noise = np.random.default_rng(1).standard_normal((8, 80))
    for row, values in ((2, 1e200 * (1.0 + 1e-3 * noise[2])), (6, 1e307 * (5.0 + noise[6]))):
        vals = noise.copy()
        vals[row] = values
        with pytest.raises(DegenerateRowError, match=rf"rows \['n{row}'\] .*float64"):
            _lrf_sweep(vals)


def test_mc_reps_below_two_is_rejected():
    for reps in (0, 1):
        with pytest.raises(ParameterError, match="mc_reps"):
            small_cfg(mc_reps=reps)


def test_kappa4_below_minus_two_is_rejected():
    with pytest.raises(ParameterError, match=r"kappa4 \(--kappa4\) must be finite and >= -2"):
        small_cfg(kappa4=-2.5)
    assert small_cfg(kappa4=-2.0).kappa4 == -2.0


def test_unknown_degenerate_policy_names_the_flag():
    with pytest.raises(ParameterError, match=r"\(--degenerate\) must be one of "
                       r"\['error', 'jitter'\], got 'bogus'"):
        small_cfg(degenerate_policy="bogus")


def test_pure_noise_flag_fraction_small():
    src = sample_gaussian_matrix(24, 500, seed=77)
    cfg = small_cfg()
    series = sweep(src, cfg)
    fs = series.data[("ALL", "MSR")]
    assert fs.flag.mean() <= 0.02


def test_stride_spacing():
    src = step_source()
    cfg = small_cfg(window=WindowSpec(T=60, stride=5))
    series = sweep(src, cfg)
    assert np.all(np.diff(series.t) == 5)
    assert series.t[0] == 59


def test_source_shorter_than_window():
    from rmtdetect.errors import InsufficientHistoryError

    src = sample_gaussian_matrix(4, 30, seed=1)
    with pytest.raises(InsufficientHistoryError):
        sweep(src, small_cfg(window=WindowSpec(T=31)))


def test_too_many_nodes_for_window():
    src = sample_gaussian_matrix(30, 200, seed=1)
    with pytest.raises(AspectRatioError, match="'ALL' has 30 nodes.*MSR need N <= T"):
        sweep(src, small_cfg(window=WindowSpec(T=20)))


def test_log_domain_functions_need_fewer_nodes_than_samples():
    # standardized rows have rank <= T - 1, so M is singular at N = T
    from rmtdetect.les import clamp_event_count

    src = sample_gaussian_matrix(20, 60, seed=2)
    for reference in ("calibration", "theoretical"):
        cfg = small_cfg(
            window=WindowSpec(T=20), functions=("LRF", "DET", "MSR"), mc_reps=20,
            reference=reference, calibration_range=(19, 40),
        )
        with pytest.raises(AspectRatioError, match="'ALL' has 20 nodes.*LRF, DET need N < T"):
            sweep(src, cfg)
    before = clamp_event_count()
    narrower = DataSource(src.values[:19], src.node_ids[:19], src.timestamps)
    series = sweep(narrower, cfg)
    assert np.isfinite(series.data[("ALL", "LRF")].tau).all()
    assert clamp_event_count() == before
    # MSR alone is defined at N = T
    assert ("ALL", "MSR") in sweep(src, small_cfg(window=WindowSpec(T=20), mc_reps=20)).data
    # a region as wide as the window is named; ALL (30 nodes) is skipped
    wide = sample_gaussian_matrix(30, 300, seed=5)
    part = RegionPartition({"EQ": wide.node_ids[:20], "REST": wide.node_ids[20:]})
    cfg = small_cfg(window=WindowSpec(T=20), functions=("MSR", "LRF"), regions=part)
    with pytest.warns(RuntimeWarning, match="ALL"):
        with pytest.raises(AspectRatioError, match="'EQ' has 20 nodes.*LRF need N < T"):
            regional_series(wide, cfg)


def test_covariance_les_invariant_under_row_permutation():
    # MSR is invariant only in distribution: the Haar draw acts on the permuted rows
    src = step_source()
    perm = np.random.default_rng(9).permutation(src.n)
    shuffled = DataSource(src.values[perm], tuple(src.node_ids[i] for i in perm), src.timestamps)
    cfg = small_cfg(functions=("T2", "T3", "T4", "DET", "LRF"))
    a = sweep(src, cfg)
    b = sweep(shuffled, cfg)
    assert len(a.data) == 5
    for key in a.data:
        np.testing.assert_allclose(b.data[key].tau, a.data[key].tau, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(b.data[key].flag, a.data[key].flag)


# --- calibration reference ----------------------------------------------------


def test_calibration_reference_moments():
    src = step_source()
    cfg = small_cfg(reference="calibration", calibration_range=(59, 140))
    series = sweep(src, cfg)
    fs = series.data[("ALL", "MSR")]
    calib = (series.t >= 59) & (series.t <= 140)
    assert fs.flag[calib].sum() == 0
    assert fs.e_flag == pytest.approx(fs.tau[calib].mean())
    assert fs.d_flag == pytest.approx(fs.tau[calib].var(ddof=1))
    assert fs.reference == "calibration"
    # the step still flags against the data-driven reference
    flagged = series.t[fs.flag]
    assert len(flagged) > 0 and flagged.min() == 150


def test_zero_calibration_variance_is_a_configuration_error():
    # a periodic calibration stretch gives identical windows: with d_flag ~ 1e-26
    # one ulp of drift flagged a window at peak_sigma ~ 1e16
    rng = np.random.default_rng(1)
    period = rng.standard_normal((10, 20))
    vals = np.concatenate([np.tile(period, 10), 3 * rng.standard_normal((10, 40)) + 5], axis=1)
    src = DataSource(vals, tuple(f"n{i}" for i in range(10)), tuple(range(240)))
    cfg = small_cfg(window=WindowSpec(T=40, stride=20), functions=("T2",),
                    reference="calibration", calibration_range=(39, 159))
    with pytest.raises(ConfigurationError, match=r"'ALL', function T2: .*\[39, 159\]"):
        sweep(src, cfg)


def test_non_finite_reference_moment_names_block_and_function(monkeypatch):
    # a NaN moment made every comparison False: the track silently never flagged
    real_mc = detect_module.mc_ring_msr

    def nan_for_seven_nodes(N, *args, **kw):
        return (float("nan"), 1e-4) if N == 7 else real_mc(N, *args, **kw)

    monkeypatch.setattr(detect_module, "mc_ring_msr", nan_for_seven_nodes)
    src = step_source(n=12, t=200)
    part = RegionPartition({"P": src.node_ids[:5], "Q": src.node_ids[5:]})
    with pytest.raises(NumericalFailureError, match=r"block 'Q', function MSR"):
        regional_series(src, small_cfg(regions=part, mc_reps=20))
    # a negative fluctuation variance; kappa4 < -2, which once produced one,
    # is now rejected with the config
    monkeypatch.setattr(detect_module, "clt_variance", lambda f, c, kappa4: -0.5)
    with pytest.raises(NumericalFailureError, match=r"block 'ALL', function T2.*D=-0.5"):
        sweep(src, small_cfg(functions=("T2",)))


def test_calibration_mode_requires_range():
    with pytest.raises(ConfigurationError):
        small_cfg(reference="calibration")
    with pytest.raises(ParameterError):
        small_cfg(reference="weird")


# --- regions -------------------------------------------------------------------


def test_single_region_with_all_nodes_matches_whole_system():
    src = step_source(n=12, t=240, t_star=120)
    part = RegionPartition({"EVERYTHING": src.node_ids})
    cfg = small_cfg(window=WindowSpec(T=48), regions=part, mc_reps=80)
    series = regional_series(src, cfg)
    np.testing.assert_array_equal(
        series.data[("EVERYTHING", "MSR")].tau, series.data[("ALL", "MSR")].tau
    )


def test_regions_are_independent_of_each_other():
    src_a = sample_gaussian_matrix(12, 200, seed=1)
    vals = src_a.values.copy()
    vals[6:] += 100.0 * np.random.default_rng(2).standard_normal((6, 200))
    src_b = DataSource(vals, src_a.node_ids, src_a.timestamps)
    half_a = tuple(src_a.node_ids[:6])
    part = RegionPartition({"P": half_a, "Q": tuple(src_a.node_ids[6:])})
    cfg = small_cfg(window=WindowSpec(T=40), regions=part, mc_reps=60)
    sa = regional_series(src_a, cfg)
    sb = regional_series(src_b, cfg)
    np.testing.assert_array_equal(sa.data[("P", "MSR")].tau, sb.data[("P", "MSR")].tau)


def test_tiny_region_is_skipped_with_warning():
    src = sample_gaussian_matrix(8, 120, seed=5)
    part = RegionPartition({"BIG": src.node_ids[:7], "LONE": src.node_ids[7:]})
    cfg = small_cfg(window=WindowSpec(T=30), regions=part, mc_reps=50)
    with pytest.warns(RuntimeWarning, match="LONE"):
        series = regional_series(src, cfg)
    assert ("LONE", "MSR") not in series.data
    assert ("BIG", "MSR") in series.data


def test_region_wider_than_window_errors_by_name():
    src = sample_gaussian_matrix(30, 300, seed=5)
    part = RegionPartition({"WIDE": src.node_ids})
    cfg = small_cfg(window=WindowSpec(T=20), regions=part)
    with pytest.warns(RuntimeWarning, match="ALL"):
        with pytest.raises(AspectRatioError, match="WIDE"):
            regional_series(src, cfg)


def test_wide_system_falls_back_to_blockwise_regions():
    # a source wider than the window can still be analyzed region by region
    src = sample_gaussian_matrix(30, 300, seed=5)
    part = RegionPartition({"P": src.node_ids[:15], "Q": src.node_ids[15:]})
    cfg = small_cfg(window=WindowSpec(T=20), regions=part, mc_reps=50)
    with pytest.warns(RuntimeWarning, match="ALL"):
        series = regional_series(src, cfg)
    assert ("ALL", "MSR") not in series.data
    assert ("P", "MSR") in series.data and ("Q", "MSR") in series.data


def test_reserved_region_name():
    src = sample_gaussian_matrix(8, 120, seed=5)
    part = RegionPartition({"ALL": src.node_ids[:4]})
    cfg = small_cfg(window=WindowSpec(T=30), regions=part)
    with pytest.raises(ContractError, match="reserved"):
        regional_series(src, cfg)


def test_regional_series_requires_partition():
    src = sample_gaussian_matrix(8, 120, seed=5)
    with pytest.raises(ConfigurationError):
        regional_series(src, small_cfg(window=WindowSpec(T=30)))


# --- event extraction -----------------------------------------------------------


def _series_from_flags(flags, taus=None, stride=1):
    t = np.arange(100, 100 + stride * len(flags), stride)
    flags = np.asarray(flags, dtype=bool)
    tau = np.asarray(taus, dtype=float) if taus is not None else flags.astype(float)
    fs = FunctionSeries(
        tau=tau, eta=tau, flag=flags,
        e_eta=1.0, e_flag=0.0, d_flag=1.0, reference="theoretical",
    )
    return IndicatorSeries(t=t, data={("R", "MSR"): fs}, meta={})


def test_extract_events_empty():
    cfg = small_cfg()
    rep = extract_events(_series_from_flags([False] * 10), cfg)
    assert rep.events == []


def test_extract_events_merges_small_gaps():
    cfg = small_cfg()  # gap tolerance 2
    flags = [False, True, True, True, False, True, True, True, False]
    rep = extract_events(_series_from_flags(flags), cfg)
    assert len(rep.events) == 1
    assert rep.events[0].start_t == 101
    assert rep.events[0].end_t == 107


def test_extract_events_respects_gap_tolerance():
    cfg = small_cfg(gap_tolerance=0)
    flags = [True, True, True, False, True, True, True]
    rep = extract_events(_series_from_flags(flags), cfg)
    assert len(rep.events) == 2


def test_extract_events_drops_short_runs():
    cfg = small_cfg()  # min duration 3 samples, gap tolerance 2
    flags = [False, True, False, False, False, True, True, True, False]
    rep = extract_events(_series_from_flags(flags), cfg)
    assert len(rep.events) == 1  # the isolated single-sample run is dropped
    assert rep.events[0].start_t == 105


def test_extract_events_peak_deviation_and_direction():
    cfg = small_cfg(min_duration=1)
    taus = [0.0, -5.0, -2.0, 0.0]
    flags = [False, True, True, False]
    rep = extract_events(_series_from_flags(flags, taus), cfg)
    assert rep.events[0].peak_sigma == pytest.approx(5.0)
    assert rep.events[0].direction == -1


@pytest.mark.parametrize("stride,gap,min_dur", [(1, 0, 1), (1, 2, 3), (3, 2, 3), (3, 4, 7)])
def test_extract_events_matches_plain_run_merge(stride, gap, min_dur):
    cfg = small_cfg(window=WindowSpec(T=60, stride=stride), gap_tolerance=gap, min_duration=min_dur)
    rng = np.random.default_rng(stride * 100 + gap)
    flags = rng.random(400) < 0.6
    taus = rng.standard_normal(400)
    series = _series_from_flags(flags, taus, stride=stride)
    # plain reference: walk the flagged samples, extending the open run while the gap allows
    runs = []
    for i in np.flatnonzero(flags):
        if runs and series.t[i] - series.t[runs[-1][1]] - stride <= gap:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    expected = []
    for lo, hi in runs:
        start, end = int(series.t[lo]), int(series.t[hi])
        if end - start + stride >= min_dur:
            dev = taus[lo:hi + 1]
            expected.append((start, end, float(np.abs(dev).max())))
    got = [(e.start_t, e.end_t, e.peak_sigma) for e in extract_events(series, cfg).events]
    assert got == expected and len(got) > 5


# --- serialization ----------------------------------------------------------------


def test_indicator_csv_roundtrip(tmp_path):
    src = step_source(n=10, t=200, t_star=100)
    cfg = small_cfg(window=WindowSpec(T=40), mc_reps=60)
    series = sweep(src, cfg)
    p = tmp_path / "indicator.csv"
    write_indicator_csv(series, p)
    back = read_indicator_csv(p)
    np.testing.assert_array_equal(back.t, series.t)
    for key in series.data:
        np.testing.assert_allclose(back.data[key].tau, series.data[key].tau, rtol=1e-15)
        np.testing.assert_allclose(back.data[key].eta, series.data[key].eta, rtol=1e-15)
        np.testing.assert_array_equal(back.data[key].flag, series.data[key].flag)


def test_events_json_schema(tmp_path):
    src = step_source(n=10, t=200, t_star=100)
    cfg = small_cfg(window=WindowSpec(T=40), mc_reps=60)
    series = sweep(src, cfg)
    rep = extract_events(series, cfg)
    p = tmp_path / "events.json"
    write_events_json(rep, p)
    import json

    data = json.loads(p.read_text())
    assert {"events", "meta"} <= set(data)
    assert data["meta"]["T"] == 40
    for ev in data["events"]:
        assert {"region", "function", "start_t", "end_t", "peak_sigma", "direction"} <= set(ev)
        assert ev["start_t"] <= ev["end_t"]


def test_indicator_csv_bytes_match_csv_writer(tmp_path):
    t = np.array([7, 8, 9, 10, 11])
    special = [math.nan, -0.0, 1e-05, 1e16, 5e-324]
    tracks = {
        ('A,"east"', "MSR"): (special, [0.1, math.inf, -math.inf, 2.5, 1.0]),
        ('node "7", west', "PCA"): ([1.0, 2.0, 3.0, 4.0, 5.0], special),
        ("line\nbreak", "T2"): ([0.0] * 5, [-1e-300] * 5),
        ("ALL", "LRF"): (special[::-1], special),
    }
    data = {}
    for i, (key, (tau, eta)) in enumerate(tracks.items()):
        flag = (np.arange(5) + i) % 3 == 0
        data[key] = FunctionSeries(
            tau=np.array(tau), eta=np.array(eta), flag=flag,
            e_eta=1.0, e_flag=0.0, d_flag=1.0, reference="theoretical",
        )
    series = IndicatorSeries(t=t, data=data, meta={})
    write_indicator_csv(series, tmp_path / "fast.csv")
    # the plain csv.writer form, one writerow per row
    with (tmp_path / "ref.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "region", "function", "tau", "eta", "flag"])
        for (region, name), fs in sorted(data.items()):
            for i, ti in enumerate(t):
                writer.writerow([int(ti), region, name, repr(float(fs.tau[i])),
                                 repr(float(fs.eta[i])), "anomalous" if fs.flag[i] else "normal"])
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    for text in (b'"A,""east"""', b'"node ""7"", west"', b',nan,', b',-0.0,', b',1e-05,',
                 b',1e+16,', b',5e-324,'):
        assert text in fast
