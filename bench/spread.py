"""Run one workload over several seeds and summarize each end-to-end metric.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--json PATH]

For each metric prints the median over the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json. With
--json the per-run values and the summary are written to PATH. Exits 1 if
any run fails its output checks.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from report import ROOT, run_one


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    runs, ok = [], True
    for seed in args.seeds:
        result, info, code = run_one(args.workload, seed, args.seconds, 0)
        if code != 0:
            print(f"seed {seed}: run.py exited {code}")
            ok = False
            continue
        ok = ok and result["correct"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": values, "env": info["env"]})
        print(f"seed {seed:>4} passes {result['attempted']:>3} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    summary = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median, "bound": m["bound"]}
        print(f"{m['name']:<14} median {median:.6g} {m['unit']}  quartiles {q1:.6g} .. {q3:.6g}"
              f"  spread {(q3 - q1) / median:.3f} (bound {m['bound']})")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "runs": runs, "summary": summary},
            indent=2), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
