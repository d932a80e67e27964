"""rmtdetect benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken in a
separate run that alternates untraced and traced passes. The line before it
records the environment and the error rate. Full results, spans included,
go to ``.bench_out/<workload>-<seed>-trace<t>/``.
"""

import os

# BLAS is pinned to one thread before numpy loads, on both sides of every
# comparison: at N=118 one thread was measured 1.3x faster than two, and it
# avoids thread contention on a shared 2-vCPU machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def attempt(workload, tracer=None):
    """One timed pass: (wall seconds, clamped delta, list of errors)."""
    t0 = time.perf_counter()
    try:
        result, clamped = workload.run(tracer)
    except Exception as e:  # a pass that raises counts as failed
        return time.perf_counter() - t0, 0, [f"{type(e).__name__}: {e}"]
    wall = time.perf_counter() - t0
    try:
        return wall, clamped, workload.check(result)
    except Exception as e:  # missing or unreadable output fails the check
        return wall, clamped, [f"check: {type(e).__name__}: {e}"]


# A machine on which one yardstick() takes this long runs at reference speed.
YARDSTICK_S = 0.1


def yardstick() -> float:
    """Seconds of a fixed loop of the two kinds of work the program does.

    Four dense complex eigensolves at N=118, the ring kernel's LAPACK call,
    and a plain Python loop, about equal shares on the machine the
    benchmark was built on.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((118, 118)) + 1j * rng.standard_normal((118, 118))
    t0 = time.perf_counter()
    for _ in range(4):
        np.linalg.eigvals(a)
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def measure(workload, seconds: float, names) -> dict:
    """End-to-end metrics, tracing off, in seconds at reference speed.

    Set-ups and passes alternate, the extra set-ups and the reference
    outcomes running between the first passes, until the timed work adds
    up to ``seconds`` (and at least ``workload.min_passes`` passes ran).
    A yardstick runs before the first and after every set-up and pass.

    On a shared machine the same work runs up to 1.7x slower for minutes
    at a time while other tenants are busy, longer than a run, so raw
    times of runs made minutes apart spread by more than a bound. The
    yardstick slows with it. Each set-up and pass time is therefore scaled
    by ``YARDSTICK_S`` over the mean of the four yardsticks nearest to it,
    two on either side: the time it would take on a machine where the
    yardstick takes ``YARDSTICK_S``. ``wall_s`` is the median scaled pass
    and ``setup_s`` the median scaled set-up. The raw times are kept in
    the samples.
    """
    yardstick()  # warm-up
    setup, walls, timed, sticks, errors, failed = [], [], [], [yardstick()], [], 0

    def more_passes():
        return len(walls) < workload.min_passes or sum(walls) + sum(sticks) < seconds

    while len(setup) < workload.setup_reps or more_passes():
        if len(setup) < workload.setup_reps:
            t0 = time.perf_counter()
            workload.setup(len(setup))
            setup.append(time.perf_counter() - t0)
            timed.append(("setup", setup[-1]))
            sticks.append(yardstick())
        if more_passes():
            wall, _, errs = attempt(workload)
            walls.append(wall)
            timed.append(("pass", wall))
            sticks.append(yardstick())
            failed += bool(errs)
            errors += errs
    # sticks[i] ran just before timed[i] and sticks[i + 1] just after it
    scaled = {"setup": [], "pass": []}
    for i, (kind, seconds_taken) in enumerate(timed):
        near = sticks[max(0, i - 1) : i + 3]
        scaled[kind].append(seconds_taken * YARDSTICK_S / statistics.mean(near))
    wall_s = statistics.median(scaled["pass"])
    values = {
        "wall_s": wall_s,
        "windows_per_s": workload.windows / wall_s,
        "setup_s": statistics.median(scaled["setup"]),
        # ru_maxrss is in KiB on Linux; every workload runs in this process
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "attempted": len(walls),
        "failed": failed,
        "errors": errors,
        "metrics": {name: values[name] for name in names},
        "samples": {"wall_s": walls, "setup_s": setup, "yardstick_s": sticks,
                    "scaled_wall_s": scaled["pass"], "scaled_setup_s": scaled["setup"]},
    }


def measure_traced(workload, seconds: float, names) -> dict:
    """Per-layer metrics: one traced setup plus alternating plain and traced passes.

    ``<module>.<function>.self_s`` and ``.calls`` cover one setup and one
    pass (the mean over traced passes). ``les.clamped`` is the same for the
    clamp counter, and ``trace.overhead_s`` is the fastest traced pass minus
    the fastest plain pass.
    """
    import tracer as tracing

    les = importlib.import_module("rmtdetect.les")
    tr = tracing.Tracer()
    before = les.clamp_event_count()
    with tr:
        workload.setup(0)
    setup_clamped = les.clamp_event_count() - before
    setup_summary = tr.summary()
    plain, traced, passes, clamped, errors, failed = [], [], [], [], [], 0
    while (len(plain) + len(traced) < max(2, workload.min_passes)
           or sum(plain) + sum(traced) < seconds):
        on = len(plain) > len(traced)
        mark = len(tr.spans)
        wall, delta, errs = attempt(workload, tr if on else None)
        if on:
            traced.append(wall)
            passes.append(tr.summary(mark))
            clamped.append(delta)
        else:
            plain.append(wall)
        failed += bool(errs)
        errors += errs
    per_pass = {
        fn: {k: v / len(passes) for k, v in rec.items()}
        for fn, rec in tracing.merge(*passes).items()
    }
    values = {}
    for name in names:
        fn, _, field = name.rpartition(".")
        if name == "les.clamped":
            values[name] = setup_clamped + clamped[0]
        elif name == "trace.overhead_s":
            values[name] = min(traced) - min(plain)
        else:
            values[name] = (setup_summary.get(fn, {}).get(field, 0)
                            + per_pass.get(fn, {}).get(field, 0))
    return {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "errors": errors,
        "metrics": values,
        "samples": {"wall_s": plain, "traced_wall_s": traced, "clamped": clamped},
        "layers": {"setup": setup_summary, "pass": per_pass},
        "spans": tr.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "rmtdetect" / "__init__.py").is_file():
        print(f"bench: no rmtdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rmtdetect

    if Path(rmtdetect.__file__).resolve().parent != SRC / "rmtdetect":
        print(f"bench: imported rmtdetect from {rmtdetect.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    run = (measure_traced if args.trace else measure)(workload, args.seconds, list(units))

    env = environment(args.seed)
    error_rate = run["failed"] / run["attempted"]
    spans = run.pop("spans", None)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "error_rate": error_rate, **run}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if spans is not None:
        import tracer as tracing

        tracing.write_spans(spans, out_dir / "spans.json")
    for err in run["errors"][:20]:
        print(f"check failed: {err}")
    print(json.dumps({"env": env, "error_rate": error_rate,
                      "samples": {k: len(v) for k, v in run["samples"].items()}}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
