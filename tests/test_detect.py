import csv
import dataclasses
import math
import tracemalloc

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
    table3_partition,
    table3_scenario,
)
import rmtdetect.detect as detect_module
import rmtdetect.les as les_module
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
    MalformedInputError,
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
    rescaled = DataSource(gains[:, None] * src.values + offsets[:, None], src.node_ids)
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
    return DataSource(vals, src.node_ids)


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
    src = DataSource(vals, ids)
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


@pytest.mark.parametrize("setting", [{"gap_tolerance": -1}, {"min_duration": 0}],
                         ids=["negative-gap-tolerance", "zero-min-duration"])
def test_event_settings_out_of_range_are_rejected(setting):
    message = "gap tolerance must be >= 0 and min duration >= 1"
    with pytest.raises(ParameterError, match=message) as info:
        small_cfg(**setting)
    assert info.value.exit_code == 1


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
    narrower = DataSource(src.values[:19], src.node_ids[:19])
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


def _duplicated_row(n, t, seed):
    src = sample_gaussian_matrix(n, t, seed=seed)
    vals = src.values.copy()
    vals[-1] = vals[-2]
    return DataSource(vals, src.node_ids)


def _clamp_records(caplog, src, cfg):
    caplog.clear()
    with caplog.at_level("WARNING", logger="rmtdetect.detect"):
        sweep(src, cfg)
    return [r.getMessage() for r in caplog.records if r.name == "rmtdetect.detect"]


def test_clamped_log_domain_track_logs_one_warning(caplog):
    # a duplicated row makes M singular in every window: les floors its zero
    # eigenvalue, clamping it where it rounds to <= 0, and each track says so once
    cfg = small_cfg(window=WindowSpec(T=20), functions=("T2", "DET", "LRF"))
    before = les_module.clamp_event_count()
    records = _clamp_records(caplog, _duplicated_row(6, 60, seed=4), cfg)
    clamped = (les_module.clamp_event_count() - before) // 2  # one per window, DET and LRF
    assert 0 < clamped <= 41
    assert [m.split(":")[1] for m in records] == [" block 'ALL', function DET",
                                                  " block 'ALL', function LRF"]
    for message in records:
        assert f"below the log floor 1e-12 in 41 of 41 windows, <= 0 in {clamped} " in message
        assert float(message.split("(smallest ")[1].split(")")[0]) <= 0
    assert not _clamp_records(caplog, sample_gaussian_matrix(6, 60, seed=4), cfg)
    # one window whose zero eigenvalue rounds positive is floored all the same
    before = les_module.clamp_event_count()
    records = _clamp_records(caplog, _duplicated_row(6, 20, seed=4),
                             small_cfg(window=WindowSpec(T=20), functions=("DET",)))
    assert les_module.clamp_event_count() == before
    assert len(records) == 1 and "in 1 of 1 windows, <= 0 in 0 (smallest " in records[0]


def test_covariance_les_invariant_under_row_permutation():
    # MSR is invariant only in distribution: the Haar draw acts on the permuted rows
    src = step_source()
    perm = np.random.default_rng(9).permutation(src.n)
    shuffled = DataSource(src.values[perm], tuple(src.node_ids[i] for i in perm))
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
    # the step still flags against the data-driven reference
    flagged = series.t[fs.flag]
    assert len(flagged) > 0 and flagged.min() == 150


def test_zero_calibration_variance_is_a_configuration_error():
    # a periodic calibration stretch gives identical windows: with d_flag ~ 1e-26
    # one ulp of drift flagged a window at peak_sigma ~ 1e16
    rng = np.random.default_rng(1)
    period = rng.standard_normal((10, 20))
    vals = np.concatenate([np.tile(period, 10), 3 * rng.standard_normal((10, 40)) + 5], axis=1)
    src = DataSource(vals, tuple(f"n{i}" for i in range(10)))
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
    monkeypatch.setattr(les_module, "clt_variance", lambda f, c, kappa4: -0.5)
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
    src_b = DataSource(vals, src_a.node_ids)
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


def test_whole_system_as_wide_as_the_window_is_skipped_under_lrf():
    # _check_blocks and the "ALL" skip share one rule: N = T with LRF once
    # stopped the sweep, while N = T + 1 skipped "ALL" and swept the regions
    src = sample_gaussian_matrix(20, 120, seed=5)
    part = RegionPartition({"P": src.node_ids[:10], "Q": src.node_ids[10:]})
    cfg = small_cfg(window=WindowSpec(T=20, stride=10), functions=("T2", "LRF"), regions=part)
    with pytest.warns(RuntimeWarning, match=r'20 nodes.*LRF need N < T; skipping the "ALL"'):
        series = regional_series(src, cfg)
    assert sorted(series.data) == [(r, f) for r in ("P", "Q") for f in ("LRF", "T2")]
    narrow = small_cfg(window=WindowSpec(T=20, stride=10), functions=("T2",), regions=part)
    assert ("ALL", "T2") in regional_series(src, narrow).data


def test_reserved_region_name():
    src = sample_gaussian_matrix(8, 120, seed=5)
    part = RegionPartition({"ALL": src.node_ids[:4]})
    cfg = small_cfg(window=WindowSpec(T=30), regions=part)
    with pytest.raises(ContractError, match="reserved"):
        regional_series(src, cfg)


def test_regional_series_checks_every_block_once(monkeypatch):
    # "ALL" and the regions go through one block loop, so one check
    calls = []
    check = detect_module._check_blocks
    monkeypatch.setattr(detect_module, "_check_blocks",
                        lambda blocks, cfg: calls.append(list(blocks)) or check(blocks, cfg))
    src = sample_gaussian_matrix(8, 120, seed=5)
    part = RegionPartition({"Q": src.node_ids[4:], "P": src.node_ids[:4]})
    cfg = small_cfg(window=WindowSpec(T=30, stride=15), regions=part, mc_reps=20)
    series = regional_series(src, cfg)
    assert calls == [["ALL", "P", "Q"]]
    assert sorted(series.data) == [("ALL", "MSR"), ("P", "MSR"), ("Q", "MSR")]
    np.testing.assert_array_equal(series.data[("ALL", "MSR")].tau,
                                  sweep(src, cfg).data[("ALL", "MSR")].tau)


def test_interleaved_regions_match_a_sweep_of_each_region_alone(at_workers):
    # every fifth node of a shuffled order: no region is a block of adjacent
    # rows or in source order, and each window takes its rows from the source
    src = step_source(n=30, t=240, t_star=120, node=7)
    order = np.random.default_rng(11).permutation(src.node_ids).tolist()
    part = RegionPartition({f"R{k}": tuple(order[k::5]) for k in range(5)})
    cfg = small_cfg(window=WindowSpec(T=40, stride=3), functions=("MSR", "T2", "LRF"),
                    regions=part, mc_reps=20)
    for n in (1, 2):
        series = at_workers(n, regional_series, src, cfg)
        events = extract_events(series, cfg).events
        assert any(e.region != "ALL" for e in events)
        for region, ids in part.regions.items():
            alone = sweep(src.restrict(ids), cfg)
            for f in cfg.functions:
                got, want = series.data[(region, f)], alone.data[("ALL", f)]
                assert got.tau.tobytes() == want.tau.tobytes()
                assert got.eta.tobytes() == want.eta.tobytes()
                assert np.array_equal(got.flag, want.flag)
            assert [e for e in events if e.region == region] == [
                dataclasses.replace(e, region=region) for e in extract_events(alone, cfg).events
            ]


def test_regional_series_holds_no_copy_of_the_regions():
    # each window slices its rows from the source; the rest of the rise is
    # one ring window's working set and the spectra stacks
    src = generate(table3_scenario(), seed=5)
    cfg = DetectorConfig(window=WindowSpec(T=240, stride=19), functions=("MSR", "LRF"),
                         regions=table3_partition(), base_seed=5, mc_reps=4)
    regional_series(src, cfg)  # fills the calibration cache
    tracemalloc.start()
    try:
        regional_series(src, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * src.values.nbytes, peak / src.values.nbytes


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
        e_eta=1.0, e_flag=0.0, d_flag=1.0,
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


READ_INDICATOR_EXITS = [
    ("header-only", "", "holds no indicator rows"),
    ("timestamps-differ", "0,A,MSR,1.0,1.0,normal\r\n1,B,MSR,1.0,1.0,normal\r\n",
     "t=0 is in track ('A', 'MSR') but not in ('B', 'MSR')"),
    # the writer never repeats a row: the second one silently overwrote the first
    ("repeated-row", "1,ALL,MSR,0.5,1.0,normal\r\n1,ALL,MSR,0.9,1.0,normal\r\n",
     "row 3: repeats t=1 of region 'ALL', function 'MSR'"),
    # nor writes another flag word: "maybe" read as normal
    ("unknown-flag", "1,ALL,MSR,0.5,1.0,maybe\r\n",
     "row 2: flag 'maybe' is neither 'normal' nor 'anomalous'"),
]


@pytest.mark.parametrize("rows, named", [c[1:] for c in READ_INDICATOR_EXITS],
                         ids=[c[0] for c in READ_INDICATOR_EXITS])
def test_read_indicator_csv_input_exits(tmp_path, rows, named):
    p = tmp_path / "indicator.csv"
    p.write_text("t,region,function,tau,eta,flag\r\n" + rows)
    with pytest.raises(MalformedInputError) as info:
        read_indicator_csv(p)
    assert info.value.exit_code == 1 and named in str(info.value) and str(p) in str(info.value)


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
            e_eta=1.0, e_flag=0.0, d_flag=1.0,
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
