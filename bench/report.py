"""Print every benchmark metric by name, with its unit, for every workload.

    python3 bench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs run.py once untraced (end-to-end metrics) and once traced (per-layer
metrics) per workload, each in its own process, and prints one line per
metric. Exits 1 when any run fails an output check or exits non-zero.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: float, trace: int):
    """(result line, environment line, exit code) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-2]:
        if line.startswith("check failed"):
            print(f"  {workload}: {line}")
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None, None, proc.returncode or 1
    return json.loads(lines[-1]), json.loads(lines[-2]), 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        for trace in (0, 1):
            result, info, code = run_one(workload, args.seed, args.seconds, trace)
            if code != 0:
                print(f"{workload:<12} trace={trace} run.py exited {code}")
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            if trace == 0:
                env = " ".join(f"{k}={v}" for k, v in info["env"].items())
                print(f"{workload:<12} env {env}")
            samples = info["samples"].get("wall_s", 0)
            print(f"{workload:<12} {'error_rate':<40} {info['error_rate']:>14.6g} ratio"
                  f"  ({result['failed']}/{result['attempted']} passes failed, trace={trace})")
            for name, m in result["metrics"].items():
                print(f"{workload:<12} {name:<40} {m['value']:>14.6g} {m['unit']}"
                      + (f"  (median of {samples} passes)" if name == "wall_s" else ""))
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
