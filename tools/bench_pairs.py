"""Compare two checkouts with the benchmark, in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --runs noise_msr:10,cov_stream:5,table3_cli:5 --seed 3001 --out BENCH_x.json

Each pair runs ``bench/run.py --workload W --seed S --seconds 20 --trace 0``
in both checkouts with the same seed, the parent first in even pairs and
the change first in odd ones; seeds count up from --seed. Every run goes
through a small wrapper process that executes the checkout's own
``bench/run.py`` in-process and then records, from outside ``bench/``:

* ``worker_peak_rss_mb``: ``getrusage(RUSAGE_CHILDREN).ru_maxrss``, the
  peak resident memory of the largest worker process the run started and
  joined (0 when it started none). ``peak_rss_mb`` covers only the
  benchmark process itself.
* ``children_left``: pids still listed as its children, running or
  defunct, when the run is over; it must be empty.

The output file holds every run's metrics and, per workload and metric,
the median and quartiles of each side, the ratio of the medians, and how
many pairs the change won. ``bench/run.py`` exits 0 even when a pass fails
its output checks, so each workload's summary also counts, per side, the
runs whose checks failed (``"correct": false``), names their seeds and the
seeds that failed on both sides; the same is printed when the workload is
done.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Runs bench/run.py as __main__ in this process, then reports the children.
WRAPPER = r"""
import glob, json, resource, runpy, sys
sys.argv = ["bench/run.py"] + sys.argv[1:]
sys.path.insert(0, "bench")
try:
    runpy.run_path("bench/run.py", run_name="__main__")
except SystemExit as e:
    code = e.code or 0
else:
    code = 0
left = []
for path in glob.glob("/proc/self/task/*/children"):
    with open(path) as fh:
        left += [int(p) for p in fh.read().split()]
workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"exit": code, "children_left": left, "worker_peak_rss_mb": workers_kib / 1024.0}))
"""

BETTER = {"wall_s": "lower", "windows_per_s": "higher", "setup_s": "lower",
          "peak_rss_mb": "lower", "worker_peak_rss_mb": "lower"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        raise SystemExit(f"{checkout} {workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    env, result, outer = (json.loads(line) for line in lines[-3:])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": env["env"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "worker_peak_rss_mb": outer["worker_peak_rss_mb"],
        "children_left": outer["children_left"],
    }


def summarize(pairs) -> dict:
    out = {}
    for metric in BETTER:
        side = {
            s: [p[s]["metrics"][metric] if metric in p[s]["metrics"] else p[s][metric]
                for p in pairs]
            for s in ("parent", "change")
        }
        sign = 1 if BETTER[metric] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
        stats = {}
        for s, values in side.items():
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            stats[s] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        p_med, c_med = stats["parent"]["median"], stats["change"]["median"]
        out[metric] = {
            **stats,
            "parent_over_change": p_med / c_med if c_med else None,
            "change_wins": wins,
            "pairs": len(pairs),
        }
    out["incorrect"] = {
        s: {"runs": sum(not p[s]["correct"] for p in pairs),
            "seeds": [p["seed"] for p in pairs if not p[s]["correct"]]}
        for s in ("parent", "change")
    }
    out["incorrect"]["both_sides"] = [
        p["seed"] for p in pairs if not (p["parent"]["correct"] or p["change"]["correct"])
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", required=True, help="WORKLOAD:PAIRS,... in run order")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {"runs": args.runs, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    seed = args.seed
    for item in args.runs.split(","):
        workload, _, count = item.partition(":")
        pairs = []
        for i in range(int(count)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']} "
                      f"workers {pair[side]['worker_peak_rss_mb']:.1f} MB", flush=True)
            pairs.append(pair)
            seed += 1
        record.setdefault("env", pairs[0]["parent"]["env"])
        summary = summarize(pairs)
        record["workloads"][workload] = {"summary": summary, "pairs": pairs}
        bad = summary["incorrect"]
        print(f"{workload}: runs with failed checks, of {len(pairs)} per side: parent "
              f"{bad['parent']['runs']} {bad['parent']['seeds']}, change {bad['change']['runs']} "
              f"{bad['change']['seeds']}; incorrect on both sides: {bad['both_sides']}", flush=True)
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
