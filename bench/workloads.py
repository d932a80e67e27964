"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload follows the same cycle, driven by run.py:

* ``setup(rep)`` makes the inputs and pays the one-off cost a user pays
  once per process; it runs several times so its median can be reported;
* ``run(tracer)`` is one timed pass from generated input to complete
  result and returns ``(result, clamped)``, where ``clamped`` is the change
  in ``les.clamp_event_count()`` over the pass;
* ``check(result)`` lists every way the result is wrong, against a plain
  reference outcome computed (untimed) the first time it is needed;
* ``min_passes`` is the number of passes a run needs for its checks.

Library functions are looked up on their modules at call time, so a
tracer installed around a pass sees the calls this file makes.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import reference as ref
import tracer as tracing

cli = importlib.import_module("rmtdetect.cli")
detect = importlib.import_module("rmtdetect.detect")
ingest = importlib.import_module("rmtdetect.ingest")
les = importlib.import_module("rmtdetect.les")
synth = importlib.import_module("rmtdetect.synth")

N_NODES = 118
T_WINDOW = 240
MC_REPS = 200
K_SIGMA = 3.0
COVARIANCE = ("T2", "T3", "T4", "DET", "LRF")


def _read_csv_outcome(path: Path, events: List[tuple], region: str = "") -> ref.Outcome:
    """An indicator CSV read back; with ``region``, only that region's rows."""
    rows = {}
    with path.open(newline="", encoding="utf-8") as fh:
        lines = fh
        if region:
            lines = (line for i, line in enumerate(fh) if i == 0 or f",{region}," in line)
        for rec in csv.DictReader(lines):
            key = (rec["region"], rec["function"])
            rows.setdefault(key, []).append(
                (int(rec["t"]), float(rec["tau"]), rec["flag"] == "anomalous")
            )
    t = np.array([r[0] for r in next(iter(rows.values()))]) if rows else np.array([], int)
    tracks = {
        key: (np.array([r[1] for r in recs]), np.array([r[2] for r in recs]))
        for key, recs in rows.items()
    }
    return ref.Outcome(t, tracks, events)


def _event_tuples(events) -> List[tuple]:
    """Program events (objects or dicts) as reference event tuples."""
    out = []
    for e in events:
        e = e if isinstance(e, dict) else vars(e)
        out.append((e["start_t"], e["region"], e["function"], e["end_t"],
                    e["direction"], e["peak_sigma"]))
    return out


def _series_outcome(series, report) -> ref.Outcome:
    tracks = {key: (fs.tau, fs.flag) for key, fs in series.data.items()}
    return ref.Outcome(series.t, tracks, _event_tuples(report.events))


class InProcessSweep:
    """A library user's long-lived process: one DetectorConfig, many sweeps.

    Each pass sweeps the next of ``self.sources`` in turn; every source has
    its own reference outcome.
    """

    name = ""
    setup_reps = 1
    min_passes = 1
    stride = 1
    functions: tuple = ()

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.cfg = detect.DetectorConfig(
            window=ingest.WindowSpec(T=T_WINDOW, stride=self.stride, L=1),
            functions=self.functions,
            threshold_k=K_SIGMA,
            reference="theoretical",
            base_seed=seed,
            mc_reps=MC_REPS,
            gap_tolerance=ref.GAP_TOLERANCE,
            min_duration=ref.MIN_DURATION,
        )
        self.sources = []
        self.expected: Dict[int, ref.Outcome] = {}
        self.moments: Dict[tuple, tuple] = {}
        self.passes = 0

    @property
    def windows(self) -> int:
        return len(range(T_WINDOW - 1, self.sources[0].t, self.stride))

    def reference(self, index: int) -> ref.Outcome:
        if index not in self.expected:
            src = self.sources[index]
            ends = np.arange(T_WINDOW - 1, src.t, self.stride)
            self.expected[index], self.moments = ref.reference(
                {detect.WHOLE_SYSTEM: src.values}, ends, T_WINDOW, 1, self.stride,
                self.functions, self.seed, K_SIGMA, MC_REPS,
            )
        return self.expected[index]

    def run(self, tracer: Optional[tracing.Tracer] = None):
        index = self.passes % len(self.sources)
        self.passes += 1
        before = les.clamp_event_count()
        with tracer or contextlib.nullcontext():
            result = self.pass_once(self.sources[index])
        return (index, *result), les.clamp_event_count() - before

    def check_series(self, index: int, series, report) -> List[str]:
        errors = ref.compare(self.reference(index), _series_outcome(series, report))
        for key, fs in series.data.items():
            if (fs.e_flag, fs.d_flag) != self.moments[key]:
                errors.append(f"{key}: reference moments {(fs.e_flag, fs.d_flag)} "
                              f"differ from {self.moments[key]}")
        return errors


class NoiseMSR(InProcessSweep):
    """Whole-system MSR sweep and event extraction on pure Gaussian noise.

    The ring kernel does nearly all the work. As in acceptance criterion 9,
    the flagged fraction is judged over several independent noise streams,
    here eight of 50 windows each, one stream per pass. Windows do not
    overlap (stride T), so their flags are independent draws: overlapping
    windows share most of their samples, their false alarms come in runs
    of five or more, and 200 of them at stride 10 broke the bound on two
    seeds in ten although the per-window rate is near 0.003.
    """

    name = "noise_msr"
    setup_reps = 3
    min_passes = 8  # one per stream
    stride = T_WINDOW
    functions = ("MSR",)
    n_streams = 8
    n_windows = 50
    max_flagged = 0.02  # acceptance criterion 9

    def setup(self, rep: int) -> None:
        t = T_WINDOW + (self.n_windows - 1) * self.stride
        self.sources = []  # free the last rep's streams before making new ones
        self.sources = [
            synth.sample_gaussian_matrix(N_NODES, t, seed=[self.seed, i])
            for i in range(self.n_streams)
        ]
        # A library user pays the cold calibration once per process. Every
        # rep is cold because its seed base differs; rep 0 uses the
        # detector's own seed base, so the timed sweeps find it cached.
        les.mc_ring_msr(N_NODES, T_WINDOW, 1, reps=MC_REPS, seed_base=self.seed + rep)

    def pass_once(self, src):
        series = detect.sweep(src, self.cfg)
        return series, detect.extract_events(series, self.cfg)

    def check(self, result) -> List[str]:
        index, series, report = result
        errors = self.check_series(index, series, report)
        # Every pass must reproduce its stream's reference flags exactly, so
        # once each stream has run, the fraction over the reference flags of
        # all streams is the fraction the program flags.
        if len(self.expected) < self.n_streams:
            return errors
        key = (detect.WHOLE_SYSTEM, "MSR")
        flagged = np.mean([f for out in self.expected.values() for f in out.tracks[key][1]])
        if flagged > self.max_flagged:
            errors.append(f"flagged fraction {flagged:.4f} > {self.max_flagged}")
        return errors


class CovStream(InProcessSweep):
    """Covariance LESs over the 1500-sample table3 stream, written as CSV.

    The ring kernel is bypassed, so per-call overhead, the LES sums, the
    quadrature references and CSV writing are what remains.
    """

    name = "cov_stream"
    setup_reps = 7
    functions = COVARIANCE
    stream_t = 1500

    def setup(self, rep: int) -> None:
        self.sources = [synth.generate(synth.table3_scenario(N_NODES, self.stream_t), self.seed)]

    def pass_once(self, src):
        series = detect.sweep(src, self.cfg)
        report = detect.extract_events(series, self.cfg)
        path = self.out_dir / "indicator.csv"
        detect.write_indicator_csv(series, path)
        return series, report, path

    def check(self, result) -> List[str]:
        index, series, report, path = result
        errors = self.check_series(index, series, report)
        return errors + ref.compare(
            self.reference(index), _read_csv_outcome(path, _event_tuples(report.events))
        )


class Table3CLI:
    """The documented pipeline through ``rmtdetect.cli.main``, step by step.

    analyze, pca-baseline and mapframes run in one long-lived process, as a
    notebook or service calling the CLI entry point would, so the cold
    Monte Carlo calibration for each block size is paid in set-up. Fresh
    processes would pay it in every pass and stretch a pass to 7-11 s, too
    few passes per run to measure steadily on a shared machine.

    analyze runs at stride 19 so that a window ends exactly on the step
    sample (600 = 239 + 19 * 19) while a pass stays near three seconds.
    """

    name = "table3_cli"
    setup_reps = 3
    min_passes = 1
    stride = 19
    functions = ("MSR", "LRF")
    step_at = 600  # synth.PRESET_STEP_AT at t=1500
    event_node = "bus52"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.data = out_dir / "data.csv"
        self.partition = out_dir / "partition.json"
        self.expected: Optional[ref.Outcome] = None
        self.ends = np.arange(T_WINDOW - 1, 1500, self.stride)

    @property
    def windows(self) -> int:
        return len(self.blocks()) * len(self.ends)

    def blocks(self) -> Dict[str, np.ndarray]:
        """Node rows of the whole system and of each region, as analyze builds them."""
        src = ingest.load_csv(self.data)
        blocks = {detect.WHOLE_SYSTEM: src.values}
        for region, members in ingest.load_partition(self.partition).regions.items():
            blocks[region] = src.restrict(members).values
        return blocks

    def setup(self, rep: int) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "simulate", "--preset", "table3", "--n", str(N_NODES), "--t", "1500",
                "--seed", str(self.seed), "--out", str(self.data),
            ])
        if code != 0:
            raise RuntimeError(f"simulate exited {code}")
        # Cold calibration for every block size; rep 0 uses the seed base
        # that analyze uses, later reps other bases, so each rep is cold.
        sizes = {len(members) for members in ingest.load_partition(self.partition).regions.values()}
        for n in sorted(sizes | {N_NODES}):
            les.mc_ring_msr(n, T_WINDOW, 1, reps=MC_REPS, seed_base=self.seed + rep)

    def reference(self) -> ref.Outcome:
        if self.expected is None:
            self.expected, _ = ref.reference(
                self.blocks(), self.ends, T_WINDOW, 1, self.stride, self.functions, self.seed,
                K_SIGMA, MC_REPS,
            )
        return self.expected

    def steps(self):
        report, pca, frames = (self.out_dir / d for d in ("report", "pca", "frames"))
        return [
            ["analyze", "--input", str(self.data), "--partition", str(self.partition),
             "--T", str(T_WINDOW), "--L", "1", "--stride", str(self.stride),
             "--functions", ",".join(self.functions), "--k", str(K_SIGMA),
             "--reference", "theoretical", "--mc-reps", str(MC_REPS),
             "--seed", str(self.seed), "--out", str(report)],
            ["pca-baseline", "--input", str(self.data), "--train", "100:580",
             "--m-prime", "3", "--k", str(K_SIGMA), "--out", str(pca)],
            ["mapframes", "--report", str(report), "--layout", str(self.partition),
             "--grid", "64", "--stride", "10", "--function", "MSR", "--out", str(frames)],
        ]

    def run(self, tracer: Optional[tracing.Tracer] = None):
        for d in ("report", "pca", "frames"):
            shutil.rmtree(self.out_dir / d, ignore_errors=True)
        before = les.clamp_event_count()
        with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
            for argv in self.steps():
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"{argv[0]} exited {code}")
        return self.out_dir, les.clamp_event_count() - before

    def check_step(self, t, flag, events, stride, span, open_end=False) -> List[str]:
        """The step at ``step_at`` as criteria 6 and 10 judge it.

        Every point of ``t`` in ``[step_at, step_at + span)`` must be
        flagged, the first of them at ``step_at``, and one event must hold
        them all. That event starts at ``step_at`` and, unless ``open_end``,
        ends on the last of them, covering ``span`` +/- 10 samples counted as
        ``end_t - start_t + stride``. It may reach further only by merging an
        alarm within the merge gap just outside those points: noise, which
        the reference flags as well, and which some seeds put there.
        """
        flags = dict(zip(t.tolist(), flag.tolist()))
        held = [x for x in flags if self.step_at <= x < self.step_at + span]
        if not held or min(held) != self.step_at or not all(flags[x] for x in held):
            return [f"not every point in [{self.step_at}, {self.step_at + span}) is flagged"]
        first, last = min(held), max(held)
        if abs(last - first + stride - span) > 10:
            return [f"the step covers {last - first + stride} samples, not {span} +/- 10"]
        event = [e for e in events if e["start_t"] <= first and e["end_t"] >= last]
        if not event:
            return [f"no event holds the step, {first}..{last}"]
        start, end = event[0]["start_t"], event[0]["end_t"]
        gap = ref.GAP_TOLERANCE + stride  # the widest step a merge bridges

        def alarm(lo, hi):
            return any(flags.get(x, False) for x in range(lo, hi + 1))

        errors = []
        if start != first and not alarm(first - gap, first - 1):
            errors.append(f"the step event starts at {start}, not {first}")
        if not open_end and end != last and not alarm(last + 1, last + gap):
            errors.append(f"the step event ends at {end}, not {last}")
        return errors

    def check(self, out_dir: Path) -> List[str]:
        report = out_dir / "report"
        events = json.loads((report / "events.json").read_text(encoding="utf-8"))["events"]
        outcome = _read_csv_outcome(report / "indicator.csv", _event_tuples(events))
        errors = ref.compare(self.reference(), outcome)
        errors += [f"ALL/MSR: {err}" for err in self.check_step(
            outcome.t, outcome.tracks[(detect.WHOLE_SYSTEM, "MSR")][1],
            [e for e in events if e["region"] == detect.WHOLE_SYSTEM and e["function"] == "MSR"],
            self.stride, T_WINDOW,
        )]
        # PCA judges single samples and the level step stays in them, so the
        # step run lasts to the end; criterion 10 inspects 120 samples of it.
        pca = json.loads((out_dir / "pca" / "events.json").read_text(encoding="utf-8"))
        scores = _read_csv_outcome(out_dir / "pca" / "indicator.csv", [], self.event_node)
        key = (self.event_node, "PCA")
        if key not in scores.tracks:
            errors.append(f"pca-baseline has no {self.event_node} series")
        else:
            errors += [f"pca-baseline {self.event_node}: {err}" for err in self.check_step(
                scores.t, scores.tracks[key][1],
                [e for e in pca["events"] if e["region"] == self.event_node], 1, 120,
                open_end=True,
            )]
        manifest = json.loads((out_dir / "frames" / "frames.json").read_text(encoding="utf-8"))
        n_frames = len(range(0, len(self.ends), 10))
        if len(manifest["frames"]) != n_frames or not all(
            (out_dir / "frames" / f).is_file() for f in manifest["frames"]
        ):
            errors.append(f"mapframes wrote {len(manifest['frames'])} frames, not {n_frames}")
        return errors

WORKLOADS = {w.name: w for w in (NoiseMSR, CovStream, Table3CLI)}
