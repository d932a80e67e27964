"""The report of tools/same_bytes.py on two hand-made output directories."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

CSV = "t,region,function,tau\r\n1,ALL,T2,0.5\r\n2,ALL,T2,2.0\r\n3,ALL,T2,1.0\r\n"
RUN = "{}\n"


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
    return root


def test_identical_directories_match_file_by_file(tmp_path):
    files = {"run.json": RUN, "analyze/indicator.csv": CSV}
    rows, same = same_bytes.compare(_tree(tmp_path / "p", files), _tree(tmp_path / "c", files),
                                    "pinned")
    assert same
    assert [r.split()[:2] for r in rows] == [["pinned", "analyze/indicator.csv"],
                                             ["pinned", "run.json"]]
    assert all(r.endswith("same") for r in rows)
    assert rows[0].split()[2] == rows[0].split()[3] == _md5(CSV)


def test_report_names_the_first_differing_line_and_the_stray_file(tmp_path):
    changed = CSV.replace("2.0", "2.5").replace("1.0", "1.1")
    parent = _tree(tmp_path / "p", {"analyze/indicator.csv": CSV, "run.json": RUN})
    change = _tree(tmp_path / "c", {"analyze/indicator.csv": changed, "run.json": RUN,
                                    "analyze/tmpab12": ""})
    rows, same = same_bytes.compare(parent, change, "unpinned")
    assert not same
    assert rows == [
        f"unpinned     {'analyze/indicator.csv':<40} {_md5(CSV)} {_md5(changed)} DIFF",
        "    first difference at line 3:",
        "      parent: 2,ALL,T2,2.0",
        "      change: 2,ALL,T2,2.5",
        # |2.0 - 2.5| / 2.5 outweighs |1.0 - 1.1| / 1.1; the equal t values count for nothing
        "    largest relative difference among numbers: 0.2",
        f"unpinned     {'analyze/tmpab12':<40} {'-':<32} {_md5('')} STRAY",
        "    only in the change",
        f"unpinned     {'run.json':<40} {_md5(RUN)} {_md5(RUN)} same",
    ]


def test_interleaved_partition_splits_the_preset_out_of_row_order():
    regions = same_bytes.interleaved_partition()
    nodes = sorted(nid for ids in regions.values() for nid in ids)
    assert nodes == sorted(f"bus{i + 1}" for i in range(118))
    for ids in regions.values():
        rows = [int(nid[3:]) for nid in ids]
        assert rows != sorted(rows) and max(rows) - min(rows) + 1 > len(rows)


def test_an_analyze_run_sweeps_the_interleaved_partition():
    partitions = [argv[argv.index("--partition") + 1] for argv in same_bytes.COMMANDS
                  if argv[0] == "analyze"]
    assert partitions.count(same_bytes.INTERLEAVED) == 1


def test_a_pca_baseline_run_picks_five_pilots():
    # three greedy steps past the first pair, each picking by the max-min angle
    runs = [argv for argv in same_bytes.COMMANDS if argv[0] == "pca-baseline"]
    assert [argv[argv.index("--m-prime") + 1] for argv in runs if "--m-prime" in argv] == ["5"]


def test_an_analyze_run_takes_its_reference_from_calibration_windows():
    runs = [argv for argv in same_bytes.COMMANDS if argv[0] == "analyze"]
    assert [argv[argv.index("--reference") + 1] for argv in runs if "--reference" in argv] == [
        "calib:239:580"]
