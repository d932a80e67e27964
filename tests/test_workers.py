"""Worker processes: the sweep and the Monte Carlo calibration give the same
bits, errors and clamp counts at one and at two workers, and leave no
process behind, not even when their parent is killed."""

import ctypes
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

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
)
from rmtdetect.detect import write_events_json
from rmtdetect.errors import DegenerateRowError
from rmtdetect.synth import table3_partition, table3_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def at_workers(monkeypatch):
    """at_workers(n, fn, *args): fn(*args) with n workers and a cold
    calibration cache; afterwards no worker process may be left."""

    def run(n, fn, *args):
        monkeypatch.setattr(les, "_worker_count", lambda: n)
        monkeypatch.setattr(les, "_ring_cache", {})
        try:
            return fn(*args)
        finally:
            assert multiprocessing.active_children() == []
            assert child_pids() == []

    return run


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
    out = les._shared(1, 6, float)

    def fill(i):
        out[0, i] = i * i
        return (i for _ in ())

    at_workers(2, les._map, fill, range(6))
    assert out[0].tolist() == [0, 1, 4, 9, 16, 25]

    def die(i):
        if i == 5:  # in the child's chunk
            os._exit(3)

    with pytest.raises(RuntimeError, match="exited with code 3 before reporting"):
        at_workers(2, les._map, die, range(6))


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
    monkeypatch.setattr(les.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert les._worker_count() == expected


def test_worker_count_is_one_while_another_thread_runs(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(les.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert les._worker_count() == 1
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert les._worker_count() == 2


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
        workers = []
        while not workers and proc.poll() is None and time.monotonic() < deadline:
            workers = child_pids(proc.pid)
            time.sleep(0.01)
        assert workers, "the sweep started no worker process"
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        left = set(workers)
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
