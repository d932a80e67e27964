"""Check that two checkouts write the same bytes.

    python3 tools/same_bytes.py --parent DIR --change DIR [--work DIR]

Each checkout runs the fixed command set below from its own ``src``, in a
fresh directory per setting, one subprocess per command:

* ``simulate --preset table3 --seed 7``;
* ``analyze`` of that stream with its partition, ``--T 240 --stride 19
  --functions MSR,T2,T3,T4,DET,LRF``;
* the same ``analyze`` over ``data/interleaved.json``, a partition this
  tool writes (``interleaved_partition``): five regions, each every fifth
  node of a shuffled order, so no region is a block of adjacent rows or
  in source order;
* ``analyze`` with its partition, ``--T 240 --stride 19 --functions
  MSR,T2,LRF --reference calib:239:580``: every track takes its reference
  moments from the calibration windows;
* ``pca-baseline --train 0:500``;
* ``pca-baseline --train 100:580 --m-prime 5 --m 20``: five pilots, so
  three greedy steps run past the first pair;
* ``mapframes --function MSR --grid 32 --stride 10`` of the analyze report;
* ``mapframes --function PCA --grid 16 --stride 3`` of the pca-baseline
  report: 500 frames over 115 nodes, more frames than nodes, so the
  renderer's frame groups (at most one frame per node) meet at a boundary;
* ``theory --N 118 --T 240``, whose stdout is kept as ``theory.txt``.

The settings are BLAS pinned to one thread (two workers on two CPUs), the
same under ``taskset -c 0`` (one worker), and BLAS unpinned. Every path on
the command lines is relative, so ``run.json`` is the same on both sides.

The report has one row per (setting, file) with both md5s. For a CSV or
JSON file that differs it adds the first differing line and the largest
relative difference among the numbers of the lines that differ. It lists
files found on one side only, files left in a run's ``TMPDIR``, commands
that failed and child processes left behind. Within each side, the pinned
runs with one and two workers must match. Pinned and unpinned runs are
compared too, row by row, but only reported: their tau bits follow the
BLAS thread count. The exit code is 0 only when every other comparison matches.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

INTERLEAVED = "data/interleaved.json"

COMMANDS = [
    ["simulate", "--preset", "table3", "--seed", "7", "--out", "data/table3.csv"],
    ["analyze", "--input", "data/table3.csv", "--partition", "data/partition.json",
     "--T", "240", "--stride", "19", "--functions", "MSR,T2,T3,T4,DET,LRF", "--out", "analyze"],
    ["analyze", "--input", "data/table3.csv", "--partition", INTERLEAVED,
     "--T", "240", "--stride", "19", "--functions", "MSR,T2,T3,T4,DET,LRF",
     "--out", "analyze-interleaved"],
    ["analyze", "--input", "data/table3.csv", "--partition", "data/partition.json",
     "--T", "240", "--stride", "19", "--functions", "MSR,T2,LRF", "--reference", "calib:239:580",
     "--out", "analyze-calib"],
    ["pca-baseline", "--input", "data/table3.csv", "--train", "0:500", "--out", "pca"],
    ["pca-baseline", "--input", "data/table3.csv", "--train", "100:580", "--m-prime", "5",
     "--m", "20", "--out", "pca-five"],
    ["mapframes", "--report", "analyze", "--layout", "data/partition.json",
     "--function", "MSR", "--grid", "32", "--stride", "10", "--out", "frames"],
    ["mapframes", "--report", "pca", "--layout", "data/partition.json",
     "--function", "PCA", "--grid", "16", "--stride", "3", "--out", "frames-pca"],
    ["theory", "--N", "118", "--T", "240"],
]


def interleaved_partition(n: int = 118, regions: int = 5) -> Dict[str, List[str]]:
    """Regions of the preset's nodes bus1..bus<n>: region k holds every
    regions-th node of one fixed shuffled order, starting at the k-th."""
    order = [f"bus{i + 1}" for i in range(n)]
    random.Random(7).shuffle(order)
    return {f"I{k + 1}": order[k::regions] for k in range(regions)}


# setting: (OPENBLAS_NUM_THREADS, command prefix)
SETTINGS = {
    "pinned": ("1", []),
    "pinned-cpu0": ("1", ["taskset", "-c", "0"]),
    "unpinned": (None, []),
}
# within a side, each setting against "pinned": must it match?
WITHIN = (("pinned-cpu0", True), ("unpinned", False))

# Runs cli.main in this process, then reports the worker count and the children.
WRAPPER = r"""
import glob, json, sys
from rmtdetect.cli import main
from rmtdetect.workers import count
code = main(sys.argv[1:])
left = []
for path in glob.glob("/proc/self/task/*/children"):
    with open(path) as fh:
        left += [int(p) for p in fh.read().split()]
print(json.dumps({"exit": code, "children_left": left, "workers": count()}))
"""

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def md5s(directory: Path) -> Dict[str, str]:
    """md5 of every file under directory, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.md5(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def describe(a: Path, b: Path, sides: Tuple[str, str]) -> List[str]:
    """The first differing line of two text files, and the largest relative
    difference among the numbers of every differing line pair that holds
    the same count of numbers; sides names the two files."""
    out: List[str] = []
    worst = 0.0
    la = a.read_text(encoding="utf-8", errors="replace").splitlines()
    lb = b.read_text(encoding="utf-8", errors="replace").splitlines()
    for i, (x, y) in enumerate(itertools.zip_longest(la, lb, fillvalue="<no line>"), start=1):
        if x == y:
            continue
        if not out:
            out += [f"    first difference at line {i}:", f"      {sides[0]}: {x}",
                    f"      {sides[1]}: {y}"]
        nx, ny = NUMBER.findall(x), NUMBER.findall(y)
        if len(nx) == len(ny):
            for u, v in zip(map(float, nx), map(float, ny)):
                if u != v and math.isfinite(u) and math.isfinite(v):
                    worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    out.append(f"    largest relative difference among numbers: {worst:.3g}")
    return out


def compare(
    first: Path, second: Path, label: str, sides: Tuple[str, str] = ("parent", "change")
) -> Tuple[List[str], bool]:
    """Report rows for two output directories, named by sides, and whether
    they match."""
    a, b = md5s(first), md5s(second)
    rows, same = [], True
    for name in sorted(a.keys() | b.keys()):
        ha, hb = a.get(name, "-"), b.get(name, "-")
        verdict = "same" if ha == hb else ("DIFF" if name in a and name in b else "STRAY")
        same &= verdict == "same"
        rows.append(f"{label:<12} {name:<40} {ha:<32} {hb:<32} {verdict}")
        if verdict == "STRAY":
            rows.append(f"    only in the {sides[0] if name in a else sides[1]}")
        elif verdict == "DIFF" and Path(name).suffix in (".csv", ".json", ".txt"):
            rows += describe(first / name, second / name, sides)
    return rows, same


def run_setting(checkout: Path, run_dir: Path, setting: str) -> List[str]:
    """Run the command set in run_dir; the problems found."""
    threads, prefix = SETTINGS[setting]
    tmp = run_dir.with_name(run_dir.name + ".tmp")
    run_dir.mkdir(parents=True)
    tmp.mkdir()
    (run_dir / INTERLEAVED).parent.mkdir()
    (run_dir / INTERLEAVED).write_text(json.dumps(interleaved_partition(), indent=2),
                                       encoding="utf-8")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(PYTHONPATH=str(checkout.resolve() / "src"), TMPDIR=str(tmp))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    problems = []
    for argv in COMMANDS:
        proc = subprocess.run([*prefix, sys.executable, "-c", WRAPPER, *argv], cwd=run_dir,
                              env=env, capture_output=True, text=True, check=False)
        *stdout, last = proc.stdout.splitlines() or [""]
        try:
            outer = json.loads(last)
        except json.JSONDecodeError:
            outer = {"exit": proc.returncode, "children_left": [], "workers": None}
        if outer["exit"] != 0 or proc.returncode != 0:
            problems.append(f"{argv[0]} exited {outer['exit']}: {proc.stderr.strip()}")
        if outer["children_left"]:
            problems.append(f"{argv[0]} left child processes {outer['children_left']}")
        if argv[0] == "theory":
            (run_dir / "theory.txt").write_text("\n".join(stdout) + "\n", encoding="utf-8")
    problems += [f"left in TMPDIR: {p.name}" for p in sorted(tmp.iterdir())]
    print(f"{checkout} {setting}: {len(COMMANDS)} commands, workers {outer['workers']}",
          flush=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, default=None,
                        help="where the runs write (default: a temporary directory, removed "
                             "afterwards); must not exist yet")
    args = parser.parse_args()
    work = args.work or Path(tempfile.mkdtemp(prefix="same_bytes-")) / "runs"
    ok = True
    try:
        for side in ("parent", "change"):
            for setting in SETTINGS:
                problems = run_setting(getattr(args, side), work / side / setting, setting)
                ok &= not problems
                for p in problems:
                    print(f"{side} {setting}: {p}")
        print(f"{'setting':<12} {'file':<40} {'parent md5':<32} {'change md5':<32} verdict")
        for setting in SETTINGS:
            rows, same = compare(work / "parent" / setting, work / "change" / setting, setting)
            ok &= same
            print("\n".join(rows))
        for side in ("parent", "change"):
            for other, must in WITHIN:
                rows, same = compare(work / side / "pinned", work / side / other,
                                     f"{side}:{other}", ("pinned", other))
                ok &= same or not must
                for row in rows:
                    if not row.endswith("same"):
                        print(row)
                differ = [r.split()[1] for r in rows if r.endswith(("DIFF", "STRAY"))]
                print(f"{side}: pinned against {other}{'' if must else ' (reported only)'}: "
                      f"{'same' if same else 'differ in ' + ', '.join(differ)}")
    finally:
        if args.work is None:
            shutil.rmtree(work.parent)
    print("all outputs match" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
