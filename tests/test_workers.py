"""Worker processes: the sweep, the Monte Carlo calibration and the
indicator CSV writer give the same bits, errors and clamp counts at one and
at two workers, and leave no process or file behind, not even when their
parent is killed."""

import ctypes
import gc
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import child_pids
from rmtdetect import (
    DataSource,
    DetectorConfig,
    WindowSpec,
    extract_events,
    generate,
    les,
    regional_series,
    sample_gaussian_matrix,
    sweep,
    workers,
)
from rmtdetect.detect import (
    FunctionSeries,
    IndicatorSeries,
    read_indicator_csv,
    write_events_json,
    write_indicator_csv,
)
from rmtdetect.errors import DegenerateRowError
from rmtdetect.synth import table3_partition, table3_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def _outcome(series, cfg, path):
    write_events_json(extract_events(series, cfg), path)
    tracks = {
        key: (fs.tau.tobytes(), fs.flag.tobytes(), fs.e_flag, fs.d_flag)
        for key, fs in series.data.items()
    }
    return series.t.tobytes(), tracks, path.read_bytes()


def _check_same_at_1_and_2(at_workers, tmp_path, run, cfg):
    serial = at_workers(1, lambda: _outcome(run(), cfg, tmp_path / "serial.json"))
    forked = at_workers(2, lambda: _outcome(run(), cfg, tmp_path / "forked.json"))
    assert serial == forked


def test_sweep_bits_do_not_depend_on_worker_count(at_workers, tmp_path):
    src = generate(table3_scenario(n=24, t=300), seed=3)
    cfg = DetectorConfig(window=WindowSpec(T=60, stride=3), functions=("MSR", "T2", "LRF"),
                         mc_reps=30)
    _check_same_at_1_and_2(at_workers, tmp_path, lambda: sweep(src, cfg), cfg)


def test_regional_bits_do_not_depend_on_worker_count(at_workers, tmp_path):
    src = generate(table3_scenario(n=24, t=300), seed=4)
    cfg = DetectorConfig(window=WindowSpec(T=60, stride=2), functions=("MSR", "DET"),
                         regions=table3_partition(n=24), mc_reps=30)
    _check_same_at_1_and_2(at_workers, tmp_path, lambda: regional_series(src, cfg), cfg)


def test_depth_two_sweep_bits_do_not_depend_on_worker_count(at_workers, tmp_path):
    src = generate(table3_scenario(n=16, t=240), seed=5)
    cfg = DetectorConfig(window=WindowSpec(T=40, stride=5, L=2), functions=("MSR",),
                         mc_reps=30)
    _check_same_at_1_and_2(at_workers, tmp_path, lambda: sweep(src, cfg), cfg)


def test_calibration_does_not_depend_on_worker_count(at_workers):
    args = (20, 50, 1, 41, 9)  # N, T, L, reps (an odd count: unequal chunks), seed_base
    serial = at_workers(1, les.mc_ring_msr, *args)
    assert at_workers(2, les.mc_ring_msr, *args) == serial
    assert at_workers(3, les.mc_ring_msr, *args) == serial


def test_error_in_second_chunk_matches_the_serial_error(at_workers):
    # row 3 is constant from sample 150 on: windows ending at 179 and later
    # (all in the second of two chunks of the 171 ends) cannot standardize it
    src = sample_gaussian_matrix(8, 200, seed=6)
    vals = src.values.copy()
    vals[3, 150:] = 1.0
    src = DataSource(vals, src.node_ids, src.timestamps)
    cfg = DetectorConfig(window=WindowSpec(T=30), mc_reps=10)
    errors = []
    for n in (1, 2):
        with pytest.raises(DegenerateRowError) as err:
            at_workers(n, sweep, src, cfg)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert repr(src.node_ids[3]) in errors[0]


def test_regional_sweep_forks_once(at_workers, monkeypatch):
    # no MSR, so no Monte Carlo calibration runs workers.run besides the sweep
    calls = []
    map_once = workers.run

    def counted(fn, items):
        calls.append(len(items))
        return map_once(fn, items)

    monkeypatch.setattr(workers, "run", counted)
    src = generate(table3_scenario(n=24, t=200), seed=8)
    cfg = DetectorConfig(window=WindowSpec(T=40, stride=4), functions=("T2", "LRF"),
                         regions=table3_partition(n=24))
    series = at_workers(2, regional_series, src, cfg)
    # one call over every (end, block) pair: 41 ends, ALL and six regions
    assert calls == [41 * 7] and len(series.data) == 14


def test_blockwise_error_comes_from_the_earliest_window_end(at_workers):
    # T = 20 < 24 nodes, so "ALL" is skipped. bus2 (region A1) is constant
    # from sample 250 and bus22 (region A6) from 220: the first degenerate
    # window ends at 239, in A6, and both ends lie in the second of two
    # chunks of the 281 ends
    src = sample_gaussian_matrix(24, 300, seed=9)
    vals = src.values.copy()
    vals[1, 250:] = 1.0
    vals[21, 220:] = 1.0
    src = DataSource(vals, src.node_ids, src.timestamps)
    cfg = DetectorConfig(window=WindowSpec(T=20), functions=("T2",),
                         regions=table3_partition(n=24))
    errors = []
    for n in (1, 2):
        with pytest.warns(RuntimeWarning, match='skipping the "ALL" series'):
            with pytest.raises(DegenerateRowError) as err:
                at_workers(n, regional_series, src, cfg)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert "'bus22'" in errors[0] and "'bus2'" not in errors[0]


def _tracks(n: int) -> IndicatorSeries:
    """n tracks over seven ends; the first region label needs csv quoting."""
    rng = np.random.default_rng(n)
    t = np.arange(40, 47)
    data = {}
    for i in range(n):
        region = 'east, "7"\nline' if i == 0 else f"r{i:03d}"
        tau = rng.standard_normal(len(t)) * 10.0 ** rng.integers(-8, 9)
        data[(region, ("MSR", "T2", "LRF")[i % 3])] = FunctionSeries(
            tau=tau, eta=tau / 3.0, flag=np.abs(tau) > 1.0,
            e_eta=3.0, e_flag=0.0, d_flag=1.0,
        )
    return IndicatorSeries(t=t, data=data, meta={})


@pytest.mark.parametrize("n_tracks", [0, 1, 2, 3, 115])
def test_indicator_csv_bytes_do_not_depend_on_worker_count(at_workers, tmp_path, n_tracks):
    series = _tracks(n_tracks)
    written = []
    for n in (1, 2):
        out = tmp_path / f"at{n}"
        out.mkdir()
        at_workers(n, write_indicator_csv, series, out / "indicator.csv")
        assert os.listdir(out) == ["indicator.csv"]
        written.append((out / "indicator.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].startswith(b"t,region,function,tau,eta,flag\r\n")
    assert written[0].count(b"\r\n") == 1 + 7 * n_tracks  # a quoted newline is a bare \n
    if n_tracks:
        back = read_indicator_csv(tmp_path / "at2" / "indicator.csv")
        assert sorted(back.data) == sorted(series.data)
        for key, fs in series.data.items():
            assert back.data[key].tau.tobytes() == fs.tau.tobytes()
            assert back.data[key].eta.tobytes() == fs.eta.tobytes()
            assert back.data[key].flag.tolist() == fs.flag.tolist()


def test_indicator_csv_error_in_a_worker_reaches_the_caller(at_workers, tmp_path):
    # the last of four tracks, in the child's run at two workers, has a
    # plain list for tau, which the formatter cannot take
    series = _tracks(4)
    last = sorted(series.data)[-1]
    series.data[last].tau = series.data[last].tau.tolist()
    errors = []
    for n in (1, 2):
        out = tmp_path / f"at{n}"
        out.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(AttributeError) as err:
                at_workers(n, write_indicator_csv, series, out / "indicator.csv")
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert os.listdir(out) == ["indicator.csv"]
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "'list' object has no attribute 'tolist'"


def test_clamp_count_includes_the_workers(at_workers):
    # duplicated rows make M singular: its zero eigenvalues round either
    # side of 0, and the nonpositive ones are clamped
    src = sample_gaussian_matrix(10, 200, seed=2)
    vals = src.values.copy()
    vals[5], vals[7] = vals[4], vals[6]
    src = DataSource(vals, src.node_ids, src.timestamps)
    cfg = DetectorConfig(window=WindowSpec(T=20), functions=("LRF", "DET"))
    moved = []
    for n in (1, 2):
        before = les.clamp_event_count()
        at_workers(n, sweep, src, cfg)
        moved.append(les.clamp_event_count() - before)
    assert moved[0] == moved[1] > 0


def test_map_sends_no_results_and_names_a_worker_that_died(at_workers):
    # fn acts through shared memory; what it returns, here a generator no
    # pipe could carry, never leaves the process that made it
    out = workers.shared_array(1, 6, float)

    def fill(i):
        out[0, i] = i * i
        return (i for _ in ())

    at_workers(2, workers.run, fill, range(6))
    assert out[0].tolist() == [0, 1, 4, 9, 16, 25]

    def die(i):
        if i == 5:  # in the child's chunk
            os._exit(3)

    with pytest.raises(RuntimeError, match="exited with code 3 before reporting"):
        at_workers(2, workers.run, die, range(6))


@pytest.mark.parametrize(
    "env, cpus, expected",
    [
        ({}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ],
)
def test_worker_count_is_cpus_over_blas_threads(monkeypatch, env, cpus, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert workers.count() == expected


def test_worker_count_is_one_while_another_thread_runs(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert workers.count() == 1
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert workers.count() == 2


PR_SET_CHILD_SUBREAPER = 36

# 4000 windows of 60 x 120, about 5 ms each: a worker that ignored its
# parent's death would run on for about 10 s
SWEEP_4000_WINDOWS = """
from rmtdetect import DetectorConfig, WindowSpec, sample_gaussian_matrix, sweep
sweep(sample_gaussian_matrix(60, 4119, seed=1), DetectorConfig(window=WindowSpec(T=120), mc_reps=2))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc, uses prctl")
@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 usable CPUs"
)
def test_workers_stop_when_their_parent_is_killed():
    # This process becomes the subreaper of the sweep's workers, so once
    # their parent is killed they are reparented here and can be reaped.
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip("prctl(PR_SET_CHILD_SUBREAPER) is not permitted")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-c", SWEEP_4000_WINDOWS], env=env)
    try:
        deadline = time.monotonic() + 60
        pids = []
        while not pids and proc.poll() is None and time.monotonic() < deadline:
            pids = child_pids(proc.pid)
            time.sleep(0.01)
        assert pids, "the sweep started no worker process"
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        left = set(pids)
        while left and time.monotonic() < deadline:
            for pid in list(left):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        left.discard(pid)
                except ChildProcessError:  # reaped elsewhere or not yet reparented
                    if not os.path.exists(f"/proc/{pid}"):
                        left.discard(pid)
            time.sleep(0.01)
        assert not left, f"workers {sorted(left)} outlived their parent by 5 s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
