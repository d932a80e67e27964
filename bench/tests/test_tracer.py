"""Tests of the benchmark's tracer and reference.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402

detect = importlib.import_module("rmtdetect.detect")
ingest = importlib.import_module("rmtdetect.ingest")
synth = importlib.import_module("rmtdetect.synth")


def _namespace_snapshot():
    return {
        (mod.__name__, attr): obj
        for mod in tracing.namespaces()
        for attr, obj in vars(mod).items()
    }


def _config(stride=1):
    return detect.DetectorConfig(
        window=ingest.WindowSpec(T=40, stride=stride), functions=("MSR", "LRF"),
        base_seed=3, mc_reps=20,
    )


def _sweep(src, cfg):
    series = detect.sweep(src, cfg)
    return series, detect.extract_events(series, cfg)


@pytest.fixture(scope="module")
def source():
    return synth.generate(synth.table3_scenario(n=12, t=150), seed=5)


def test_install_wraps_every_namespace_and_uninstall_restores_it():
    before = _namespace_snapshot()
    tr = tracing.Tracer()
    with tr:
        rmm = sys.modules["rmtdetect.rmm"]
        assert rmm.ring_product is not before[("rmtdetect.rmm", "ring_product")]
        # one wrapper per function, shared by every namespace that imports it
        assert sys.modules["rmtdetect.detect"].ring_product is rmm.ring_product
        assert sys.modules["rmtdetect.les"].ring_product is rmm.ring_product
        assert sys.modules["rmtdetect"].sweep is sys.modules["rmtdetect.detect"].sweep
        # seed helpers and private functions stay unwrapped
        assert sys.modules["rmtdetect.detect"].window_seed is before[("rmtdetect.detect", "window_seed")]
        assert rmm._hermitian_sqrt is before[("rmtdetect.rmm", "_hermitian_sqrt")]
        changed = {k for k, v in _namespace_snapshot().items() if before.get(k) is not v}
        assert changed and all(not attr.startswith("_") for _, attr in changed)
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_sweep_matches_untraced(source):
    cfg = _config()
    plain_series, plain_report = _sweep(source, cfg)
    tr = tracing.Tracer()
    with tr:
        traced_series, traced_report = _sweep(source, cfg)
    assert tr.spans
    assert plain_series.data.keys() == traced_series.data.keys()
    for key, fs in plain_series.data.items():
        assert np.array_equal(fs.tau, traced_series.data[key].tau)
        assert np.array_equal(fs.flag, traced_series.data[key].flag)
    assert plain_report.events == traced_report.events


def test_self_times_are_never_negative_and_spans_nest(source):
    tr = tracing.Tracer()
    with tr:
        _sweep(source, _config())
    for name, start, end, parent in tr.spans:
        assert end >= start
        if parent >= 0:
            _, p_start, p_end, _ = tr.spans[parent]
            assert p_start <= start and end <= p_end
    summary = tr.summary()
    assert summary["detect.sweep"]["calls"] == 1
    windows = len(range(39, source.t))
    assert summary["spectral.eigen_general"]["calls"] >= windows
    for rec in summary.values():
        assert rec["self_s"] >= 0
        assert rec["self_s"] <= rec["total_s"]
    # a slice summarized on its own treats parents outside it as roots
    mark = len(tr.spans) // 2
    assert all(r["self_s"] >= 0 for r in tr.summary(mark).values())


def test_reference_agrees_with_sweep_and_catches_a_changed_tau(source):
    cfg = _config(stride=3)
    series, report = _sweep(source, cfg)
    ends = np.arange(39, source.t, 3)
    expected, _ = ref.reference(
        {detect.WHOLE_SYSTEM: source.values}, ends, 40, 1, 3, cfg.functions,
        cfg.base_seed, cfg.threshold_k, cfg.mc_reps,
    )
    tracks = {key: (fs.tau, fs.flag) for key, fs in series.data.items()}
    events = [(e.start_t, e.region, e.function, e.end_t, e.direction, e.peak_sigma)
              for e in report.events]
    assert events, "the table3 step should produce at least one event"
    assert ref.compare(expected, ref.Outcome(series.t, tracks, events)) == []

    tau, flag = tracks[(detect.WHOLE_SYSTEM, "MSR")]
    bad = dict(tracks)
    bad[(detect.WHOLE_SYSTEM, "MSR")] = (tau * (1 + 1e-8), flag)
    assert ref.compare(expected, ref.Outcome(series.t, bad, events))
    assert ref.compare(expected, ref.Outcome(series.t, tracks, events[1:]))
