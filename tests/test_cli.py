import contextlib
import datetime
import errno
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtdetect import (
    DataSource, DetectorConfig, WindowSpec, haar_unitary, load_csv, sample_gaussian_matrix, sweep,
    write_csv,
)
from rmtdetect.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _theory_table(stdout):
    rows = {}
    for line in stdout.splitlines()[2:]:
        parts = line.split()
        if len(parts) == 4:
            rows[parts[0]] = (float(parts[1]), float(parts[2]), float(parts[3]))
    return rows


def test_theory_prints_reference_table(capsys):
    code, out, _ = run_cli(capsys, "theory", "--N", "118", "--T", "240")
    assert code == 0
    rows = _theory_table(out)
    assert rows["MSR"][0] == pytest.approx(0.8645, abs=1e-3)
    assert rows["MSR"][1] == pytest.approx(0.0068, abs=2e-4)
    assert rows["T2"][0] == pytest.approx(1.34e3, rel=0.02)
    assert rows["DET"][0] == pytest.approx(48.3, rel=0.02)
    assert rows["LRF"][0] == pytest.approx(73.68, rel=0.02)
    assert rows["LRF"][2] == pytest.approx(np.sqrt(rows["LRF"][1]) / rows["LRF"][0], abs=1e-4)


def test_no_arguments_prints_usage_exit_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "theory", "--N", "10", "--T", "20", "--bogus")
    assert code == 1
    assert "usage" in err.lower() or "error" in err.lower()


def test_analyze_missing_input_names_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "analyze", "--input", "/nope/data.csv", "--T", "10",
        "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "/nope/data.csv" in err


def test_numerical_failure_exits_2(capsys):
    # at c = 0.9999 the fluctuation quadrature runs out of nodes
    code, _, err = run_cli(capsys, "theory", "--N", "9999", "--T", "10000")
    assert code == 2
    assert "NumericalFailureError" in err and "quadrature did not converge" in err


def test_overflowing_fluctuation_variance_is_named_as_such(capsys):
    # T3's and T4's variances pass float64's range at every node count; the
    # quadrature check saw only inf - inf = NaN and blamed convergence
    code, _, err = run_cli(capsys, "theory", "--N", "10", "--T", "400", "--L", "3",
                           "--kappa4", "1e300")
    assert code == 2
    assert (
        "error [NumericalFailureError]: les: the fluctuation variance of T3 overflows float64 "
        "at c=0.025, kappa4=1e+300"
    ) in err


@pytest.mark.parametrize("depth", [300, 1000])
def test_ring_product_too_deep_for_float64_is_named(tmp_path, capsys, depth):
    # each factor scales the rows by about sqrt(T): at L=300 the row spread's
    # squares overflowed and every tau was written as 0.0 at exit 0; at
    # L=1000 the product overflowed and the eigensolver took the blame
    data = tmp_path / "g.csv"
    write_csv(sample_gaussian_matrix(6, 60, seed=1), data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "analyze", "--input", str(data), "--T", "20",
                                 "--L", str(depth), "--out", str(tmp_path / "r"))
    assert code == 2 and out == "" and caught == []
    assert err == (f"error [NumericalFailureError]: rmm: the ring product of depth {depth} "
                   "(--L) or its row spread overflows float64; pick a smaller ring product "
                   "depth (--L)\n")


def test_ring_product_too_deep_draws_no_factor_after_the_overflow(tmp_path, capsys,
                                                                   monkeypatch):
    # every factor after the product overflowed still drew a Haar matrix:
    # --L 20000 on one 118 x 1500 window drew all 20,000 before it failed
    import rmtdetect.les as les_module

    draws = []

    def counted(n, rng):
        draws.append(n)
        return haar_unitary(n, rng)

    monkeypatch.setattr(les_module, "haar_unitary", counted)
    data = tmp_path / "g.csv"
    write_csv(sample_gaussian_matrix(6, 20, seed=1), data)  # one window: it runs in this process
    code, out, err = run_cli(capsys, "analyze", "--input", str(data), "--T", "20",
                             "--L", str(10**6), "--out", str(tmp_path / "r"))
    assert (code, out) == (2, "")
    assert "ring product of depth 1000000 (--L) or its row spread overflows" in err
    assert 0 < len(draws) < 1000


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analyze", "--k", "nan"),
        ("analyze", "--k", "inf"),
        ("analyze", "--kappa4", "nan"),
        ("pca-baseline", "--k", "nan"),
        ("theory", "--kappa4", "nan"),
    ],
)
def test_non_finite_threshold_or_kappa4_is_an_input_error(
    small_run, tmp_path, capsys, command, flag, value
):
    # a NaN threshold made every comparison False: no window or sample flagged
    _, data, _ = small_run
    out = tmp_path / "out"
    argv = {
        "analyze": ["--input", str(data), "--T", "60", "--mc-reps", "20", "--out", str(out)],
        "pca-baseline": ["--input", str(data), "--train", "0:100", "--out", str(out)],
        "theory": ["--N", "10", "--T", "20"],
    }[command]
    code, _, err = run_cli(capsys, command, *argv, flag, value)
    assert code == 1
    assert "ParameterError" in err and re.search(rf"{flag}\b", err) and value in err
    assert not out.exists()


def test_theory_needs_fewer_nodes_than_samples(capsys):
    code, out, err = run_cli(capsys, "theory", "--N", "20", "--T", "20")
    assert code == 1 and out == ""
    assert "ParameterError" in err and "--N" in err
    assert "20 nodes for window length 20; DET, LRF need N < T" in err
    code, out, _ = run_cli(capsys, "theory", "--N", "19", "--T", "20")
    assert code == 0
    assert sorted(_theory_table(out)) == ["DET", "LRF", "MSR", "T2", "T3", "T4"]


@pytest.mark.parametrize("flag, value", [("--T", "-5"), ("--T", "0"), ("--L", "0"),
                                         ("--kappa4", "-5")])
def test_theory_and_analyze_apply_one_window_and_kappa4_rule(small_run, tmp_path, capsys,
                                                             flag, value):
    # theory kept copies of these rules that read otherwise: for --T -5 it
    # said "needs N < T for DET and LRF", where analyze names --T
    _, data, _ = small_run
    out = tmp_path / "out"
    theory = run_cli(capsys, "theory", "--N", "10", "--T", "20", flag, value)
    analyze = run_cli(capsys, "analyze", "--input", str(data), "--T", "60", "--out", str(out),
                      flag, value)
    assert theory == analyze
    code, stdout, err = theory
    assert (code, stdout) == (1, "")
    assert err.startswith("error [ParameterError]") and f"({flag})" in err and value in err
    assert not out.exists()


@pytest.mark.parametrize("n, t", [("-1", "0"), ("0", "5")])
def test_theory_needs_at_least_one_node(capsys, n, t):
    # --N -1 --T 0 ended in ZeroDivisionError; --N 0 named c, not the flag
    code, out, err = run_cli(capsys, "theory", "--N", n, "--T", t)
    assert code == 1 and out == ""
    assert "error [ParameterError]" in err and f"--N >= 1, got {n}" in err


@pytest.mark.parametrize("command", ["theory", "analyze"])
def test_kappa4_below_minus_two_is_an_input_error(small_run, tmp_path, capsys, command):
    # no distribution has excess kurtosis below -2; theory printed negative
    # variances for it, analyze failed with a reference-moment error
    _, data, _ = small_run
    out = tmp_path / "out"
    argv = {
        "analyze": ["--input", str(data), "--T", "60", "--functions", "T2", "--out", str(out)],
        "theory": ["--N", "118", "--T", "240"],
    }[command]
    code, stdout, err = run_cli(capsys, command, *argv, "--kappa4", "-5")
    assert code == 1 and stdout == ""
    assert "ParameterError" in err and "--kappa4" in err and ">= -2" in err and "-5" in err
    assert not out.exists()


def test_kappa4_of_minus_two_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "theory", "--N", "118", "--T", "240", "--kappa4", "-2")
    assert code == 0
    assert all(d >= 0 and np.isfinite(cv) for _, d, cv in _theory_table(out).values())


def test_theory_c_v_column_keeps_its_width_at_a_huge_kappa4(capsys):
    # a fixed-point c_v of ~1e148 ran 150 digits into the D column
    code, out, _ = run_cli(capsys, "theory", "--N", "118", "--T", "240", "--kappa4", "1e300")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 7 and all(len(row) == 50 for row in rows)
    assert _theory_table(out)["LRF"][2] == pytest.approx(9.84e147, rel=1e-3)


def test_theory_variance_lost_to_rounding_is_a_numerical_failure(capsys):
    # at c ~ 6e-6 the MSR variance cancelled to -3.9e-12 and c_v printed nan
    code, out, err = run_cli(capsys, "theory", "--N", "10", "--T", "1638077")
    assert code == 2 and out == ""
    assert "error [NumericalFailureError]" in err and "MSR" in err and "T=1638077" in err


def test_theory_table_and_a_theoretical_sweep_read_the_same_references(capsys):
    # the table prints what each track of a sweep at the same N, T, kappa4
    # judges by: the covariance tracks' flag moments and MSR's eta expectation
    n, t, kappa4 = 12, 40, 0.7
    code, out, _ = run_cli(capsys, "theory", "--N", str(n), "--T", str(t), "--kappa4", str(kappa4))
    assert code == 0
    table = _theory_table(out)
    cfg = DetectorConfig(window=WindowSpec(T=t, stride=3), functions=tuple(table),
                         kappa4=kappa4, mc_reps=20)
    series = sweep(sample_gaussian_matrix(n, t + 6, seed=3), cfg)

    def printed(x):
        return float(f"{x:.6g}")

    assert sorted(table) == ["DET", "LRF", "MSR", "T2", "T3", "T4"]
    for name, (e, d, _) in table.items():
        fs = series.data[("ALL", name)]
        if name == "MSR":
            assert printed(fs.e_eta) == e
        else:
            assert (printed(fs.e_flag), printed(fs.d_flag)) == (e, d)


@pytest.mark.parametrize("m_prime", ["0", "18"])
def test_m_prime_outside_its_range_names_the_flag_and_range(small_run, tmp_path, capsys, m_prime):
    _, data, _ = small_run  # 18 nodes
    code, _, err = run_cli(
        capsys, "pca-baseline", "--input", str(data), "--train", "0:100",
        "--m-prime", m_prime, "--out", str(tmp_path / "pca"),
    )
    assert code == 1
    assert "ParameterError" in err and "--m-prime" in err
    assert "1 <= m' <= N-1 = 17" in err and f"got m'={m_prime}" in err


def test_simulate_preset_writes_outputs(capsys, tmp_path):
    out = tmp_path / "data.csv"
    code, msg, _ = run_cli(
        capsys, "simulate", "--preset", "table3", "--n", "20", "--t", "200",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0 and "20x200" in msg
    src = load_csv(out)
    assert src.n == 20 and src.t == 200
    partition = json.loads((tmp_path / "partition.json").read_text())
    assert "layout" in partition and "A3" in partition
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["command"] == "simulate" and run["params"]["seed"] == 5


def test_simulate_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a" / "d.csv", tmp_path / "b" / "d.csv"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys, "simulate", "--preset", "table3", "--n", "16", "--t", "160",
            "--seed", "9", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_needs_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "preset" in err


def test_simulate_custom_scenario(capsys, tmp_path):
    scenario = {
        "n": 8, "t": 120, "noise_std": 1.0,
        "segments": [
            {"start": 0, "end": 60, "kind": "flat"},
            {"start": 60, "end": 120, "kind": "step", "level": 30.0, "nodes": [2], "coupling": 0.4},
        ],
    }
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(scenario))
    out = tmp_path / "data.csv"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(sc_path), "--out", str(out))
    assert code == 0
    assert load_csv(out).n == 8


@pytest.mark.parametrize(
    "segment, named",
    [
        # exp(5 * 199) overflows: a bare RuntimeWarning, then a non-finite-cells error
        ({"start": 200, "end": 400, "kind": "collapse", "rate": 5},
         "collapse segment [200, 400) gives values beyond float64 (level 0.0, rate 5.0)"),
        # a repeated node was applied once
        ({"start": 200, "end": 400, "kind": "step", "level": 1, "nodes": [1, 1]},
         "segment [200, 400) lists node 1 twice"),
        ({"start": 200, "end": 400, "kind": "ramp", "level": 1, "slope": 1e307},
         "ramp segment [200, 400) gives values beyond float64 (level 1.0, slope 1e+307)"),
    ],
)
def test_scenario_segment_that_cannot_be_drawn_is_named(capsys, tmp_path, segment, named):
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(
        {"n": 4, "t": 400, "segments": [{"start": 0, "end": 200, "kind": "flat"}, segment]}
    ))
    out = tmp_path / "data.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--scenario", str(sc_path), "--out", str(out))
    assert code == 1 and stdout == ""
    assert "error [ParameterError]" in err and named in err
    assert not out.exists()


def test_simulate_source_memory_cannot_hold_is_an_input_error(capsys, tmp_path, monkeypatch):
    # a 7.28 TiB preset ended in numpy's _ArrayMemoryError traceback, and a
    # 2**31 x 2**31 scenario in "ValueError: array is too big"; neither case
    # here asks the system for memory
    import rmtdetect.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("built the node ids before the size check")

    monkeypatch.setattr(cli, "table3_partition", never)
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps({"n": 2**31, "t": 2**31}))
    out = tmp_path / "data.csv"
    cases = [(["--scenario", str(sc_path)], 2**31, 2**31),
             (["--preset", "table3", "--n", "100000", "--t", "10000000"], 100000, 10000000)]
    for flags, n, t in cases:
        code, stdout, err = run_cli(capsys, "simulate", *flags, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == (f"error [ParameterError]: synth: a source of --n {n} nodes by --t {t} "
                       f"samples needs {8 * n * t} bytes of float64 values, more than memory "
                       "holds\n")
    assert not out.exists()


def test_simulate_draw_that_memory_refuses_is_an_input_error(capsys, tmp_path, monkeypatch):
    import rmtdetect.synth as synth

    class Refusing:
        def standard_normal(self, size):
            raise MemoryError

    monkeypatch.setattr(synth, "as_generator", lambda seed: Refusing())
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps({"n": 4, "t": 10}))
    out = tmp_path / "data.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--scenario", str(sc_path), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == ("error [ParameterError]: synth: a source of --n 4 nodes by --t 10 samples "
                   "needs 320 bytes of float64 values, more than memory holds\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "segments",
    [
        [],  # the noise alone overflowed with a bare RuntimeWarning
        [{"start": 0, "end": 10, "kind": "flat", "nodes": []}],  # a segment touching no node
    ],
    ids=["no-segments", "segment-without-nodes"],
)
def test_noise_std_beyond_float64_is_named(capsys, tmp_path, segments):
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps({"n": 4, "t": 10, "noise_std": 1e308, "segments": segments}))
    out = tmp_path / "data.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--scenario", str(sc_path), "--out", str(out))
    assert code == 1 and stdout == ""
    assert "error [ParameterError]" in err
    assert "synth: noise std 1e+308 gives values beyond float64" in err
    assert "Warning" not in err and not out.exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """simulate + analyze on a small grid, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli_run")
    data = root / "data.csv"
    import rmtdetect.cli as cli

    assert cli.main([
        "simulate", "--preset", "table3", "--n", "18", "--t", "300",
        "--seed", "4", "--out", str(data),
    ]) == 0
    report = root / "report"
    assert cli.main([
        "analyze", "--input", str(data), "--T", "60", "--functions", "MSR",
        "--k", "3", "--seed", "0", "--mc-reps", "80", "--out", str(report),
    ]) == 0
    return root, data, report


def test_analyze_outputs(small_run):
    _, _, report = small_run
    assert (report / "indicator.csv").exists()
    events = json.loads((report / "events.json").read_text())
    run = json.loads((report / "run.json").read_text())
    assert run["command"] == "analyze"
    # the preset's scaled step (at 0.4 * t = 120) is found at its exact start
    starts = [e["start_t"] for e in events["events"] if e["function"] == "MSR"]
    assert 120 in starts


def test_analyze_rerun_is_identical(small_run, tmp_path):
    root, data, report = small_run
    import rmtdetect.cli as cli

    again = tmp_path / "again"
    assert cli.main([
        "analyze", "--input", str(data), "--T", "60", "--functions", "MSR",
        "--k", "3", "--seed", "0", "--mc-reps", "80", "--out", str(again),
    ]) == 0
    assert (again / "indicator.csv").read_bytes() == (report / "indicator.csv").read_bytes()
    assert (again / "events.json").read_bytes() == (report / "events.json").read_bytes()


def _dates(t):
    return [(datetime.date(2015, 1, 1) + datetime.timedelta(days=j)).isoformat() for j in range(t)]


# The header fixes the column count and nothing else: inf cells and dates
# write the bytes a 0..t-1 header writes.
HEADER_LABEL_RUNS = [
    ("inf-header-analyze", "analyze", lambda t: ["inf"] * t),
    ("date-header-analyze", "analyze", _dates),
    ("inf-header-pca", "pca-baseline", lambda t: ["inf"] * t),
    ("date-header-pca", "pca-baseline", _dates),
]


@pytest.mark.parametrize("command, labels", [c[1:] for c in HEADER_LABEL_RUNS],
                         ids=[c[0] for c in HEADER_LABEL_RUNS])
def test_header_labels_change_no_output_byte(small_run, tmp_path, capsys, command, labels):
    _, data, report = small_run
    header, rows = data.read_bytes().split(b"\r\n", 1)
    assert header == ",".join(["node_id", *map(str, range(300))]).encode()
    relabelled = tmp_path / "labels.csv"
    relabelled.write_bytes(",".join(["node_id", *labels(300)]).encode() + b"\r\n" + rows)
    flags = {
        "analyze": ["--T", "60", "--functions", "MSR", "--k", "3", "--seed", "0",
                    "--mc-reps", "80"],
        "pca-baseline": ["--train", "0:100"],
    }[command]
    if command == "pca-baseline":
        report = tmp_path / "numbered"
        assert run_cli(capsys, command, "--input", str(data), *flags, "--out", str(report))[0] == 0
    out = tmp_path / "labelled"
    assert run_cli(capsys, command, "--input", str(relabelled), *flags, "--out", str(out))[0] == 0
    for name in ("indicator.csv", "events.json"):
        assert (out / name).read_bytes() == (report / name).read_bytes()


def test_analyze_with_partition_and_calibration(small_run, tmp_path, capsys):
    root, data, _ = small_run
    out = tmp_path / "regional"
    code, _, _ = run_cli(
        capsys, "analyze", "--input", str(data), "--partition", str(root / "partition.json"),
        "--T", "60", "--functions", "MSR", "--reference", "calib:59:110",
        "--seed", "0", "--out", str(out),
    )
    assert code == 0
    lines = (out / "indicator.csv").read_text().strip().splitlines()
    regions = {ln.split(",")[1] for ln in lines[1:]}
    assert "ALL" in regions and "A3" in regions


def test_pca_baseline_cli(small_run, tmp_path, capsys):
    _, data, _ = small_run
    out = tmp_path / "pca"
    code, _, _ = run_cli(
        capsys, "pca-baseline", "--input", str(data), "--train", "0:100",
        "--m-prime", "3", "--k", "4", "--out", str(out),
    )
    assert code == 0
    events = json.loads((out / "events.json").read_text())
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "pca-baseline"
    assert all(e["function"] == "PCA" for e in events["events"])
    # the event node's residual spikes at the preset's scaled step (t=120)
    victims = {e["region"] for e in events["events"] if abs(e["start_t"] - 120) <= 1}
    assert victims  # at least the driven node (or a coupled one) flags at the step


def test_mapframes_cli(small_run, tmp_path, capsys):
    root, data, _ = small_run
    regional = tmp_path / "regional"
    import rmtdetect.cli as cli

    assert cli.main([
        "analyze", "--input", str(data), "--partition", str(root / "partition.json"),
        "--T", "60", "--functions", "MSR", "--seed", "0", "--mc-reps", "80",
        "--out", str(regional),
    ]) == 0
    frames = tmp_path / "frames"
    code, _, _ = run_cli(
        capsys, "mapframes", "--report", str(regional), "--layout", str(root / "partition.json"),
        "--grid", "16", "--stride", "40", "--out", str(frames),
    )
    assert code == 0
    manifest = json.loads((frames / "frames.json").read_text())
    assert manifest["grid_size"] == 16
    assert len(manifest["frames"]) >= 1
    first = json.loads((frames / manifest["frames"][0]).read_text())
    assert len(first["grid"]) == 16


@pytest.mark.parametrize("power", ["nan", "inf", "0", "-1"])
def test_mapframes_power_must_be_finite_and_positive(small_run, tmp_path, capsys, power):
    # --power nan or inf wrote frames whose every cell was NaN
    root, _, _ = small_run
    report = tmp_path / "report"
    report.mkdir()
    (report / "indicator.csv").write_text(
        "t,region,function,tau,eta,flag\r\n"
        "0,bus1,MSR,1.0,1.0,normal\r\n0,bus7,MSR,2.0,2.0,normal\r\n"
    )
    frames = tmp_path / "frames"
    code, _, err = run_cli(
        capsys, "mapframes", "--report", str(report), "--layout", str(root / "partition.json"),
        "--grid", "8", "--power", power, "--out", str(frames),
    )
    assert code == 1
    assert "error [ParameterError]" in err and "--power" in err
    assert not frames.exists()


@pytest.mark.parametrize("functions", ["", ","])
def test_empty_functions_is_an_input_error(small_run, tmp_path, capsys, functions):
    _, data, _ = small_run
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "analyze", "--input", str(data), "--T", "60",
                           "--functions", functions, "--out", str(out))
    assert code == 1
    assert "error [ParameterError]" in err and "--functions" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "functions, named, partitioned",
    [("MSR,MSR", "MSR", False), ("T2, T2", "T2", False), ("LRF,LRF", "LRF", True)],
)
def test_repeated_function_is_an_input_error(small_run, tmp_path, capsys,
                                             functions, named, partitioned):
    # a repeated name doubled that function's tau array: a broadcast traceback
    root, data, _ = small_run
    out = tmp_path / "out"
    partition = ["--partition", str(root / "partition.json")] if partitioned else []
    code, _, err = run_cli(capsys, "analyze", "--input", str(data), *partition, "--T", "60",
                           "--functions", functions, "--out", str(out))
    assert code == 1
    assert "error [ParameterError]" in err and "--functions" in err
    assert f"name {named} twice" in err
    assert not out.exists()


INDICATOR_HEADER = "t,region,function,tau,eta,flag\r\n"


UNREADABLE = [
    ("report-without-indicator", "MalformedInputError", "indicator.csv: no such file"),
    ("indicator-without-region", "MalformedInputError", "lacks the columns ['region']"),
    ("indicator-bad-float", "MalformedInputError", "indicator.csv row 3"),
    ("indicator-short-row", "MalformedInputError", "indicator.csv row 2"),
    ("non-utf8-input", "MalformedInputError", "bad.bin row 3 is not UTF-8"),
    ("non-utf8-partition", "MalformedInputError", "bad.bin row 3 is not UTF-8"),
    ("non-utf8-config", "ConfigurationError", "bad.bin row 3 is not UTF-8"),
    ("non-utf8-scenario", "ConfigurationError", "bad.bin row 3 is not UTF-8"),
    ("non-utf8-pca-input", "MalformedInputError", "bad.bin row 3 is not UTF-8"),
    ("oversized-cell-input", "MalformedInputError", "huge.csv row 3: field larger"),
    ("directory-input", "MalformedInputError", "somedir cannot be read"),
    ("directory-partition", "MalformedInputError", "somedir cannot be read"),
]


@pytest.mark.parametrize("case, error, named", UNREADABLE, ids=[c for c, _, _ in UNREADABLE])
def test_unreadable_or_malformed_file_is_an_input_error_naming_it(small_run, tmp_path, capsys,
                                                                  case, error, named):
    # each of these ended in a traceback: FileNotFoundError, KeyError,
    # ValueError, TypeError, UnicodeDecodeError, csv.Error or IsADirectoryError
    root, data, _ = small_run
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"node_id,0,1\nbus1,1.0,2.0\n\xff\xfe,3.0,4.0\n")
    huge = tmp_path / "huge.csv"   # one cell past the csv module's field size limit
    huge.write_text("node_id,0,1\nbus1,1.0,2.0\nbus2," + "1" * 200_000 + ",3.0\n")
    directory = tmp_path / "somedir"
    directory.mkdir()
    report = tmp_path / "report"
    report.mkdir()
    indicator = {
        "indicator-without-region": "t,function,tau,eta,flag\r\n0,MSR,1.0,1.0,normal\r\n",
        "indicator-bad-float":
            INDICATOR_HEADER + "0,bus1,MSR,1.0,1.0,normal\r\n0,bus7,MSR,2.0,x,normal\r\n",
        "indicator-short-row": INDICATOR_HEADER + "0,bus1,MSR,1.0\r\n",
    }
    if case in indicator:
        (report / "indicator.csv").write_text(indicator[case])
    out = tmp_path / "out"
    partition = str(root / "partition.json")
    analyze = ["analyze", "--T", "60", "--out", str(out)]
    argv = {
        "non-utf8-input": [*analyze, "--input", str(bad)],
        "non-utf8-partition": [*analyze, "--input", str(data), "--partition", str(bad)],
        "non-utf8-config": [*analyze, "--input", str(data), "--config", str(bad)],
        "non-utf8-scenario": ["simulate", "--scenario", str(bad), "--out", str(out / "d.csv")],
        "non-utf8-pca-input":
            ["pca-baseline", "--input", str(bad), "--train", "0:100", "--out", str(out)],
        "oversized-cell-input": [*analyze, "--input", str(huge)],
        "directory-input": [*analyze, "--input", str(directory)],
        "directory-partition": [*analyze, "--input", str(data), "--partition", str(directory)],
    }.get(case, ["mapframes", "--report", str(report), "--layout", partition, "--out", str(out)])
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert f"error [{error}]" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, text, error, named",
    [
        ("--scenario", "{not json", "ConfigurationError", "bad.json"),
        ("--scenario", "[1, 2]", "ConfigurationError", "bad.json"),
        ("--scenario", '{"n": 1e400, "t": 10}', "ConfigurationError", "bad scenario description"),
        ("--partition", "{not json", "MalformedInputError", "bad.json"),
        ("--partition", '{"A": ["a", "b"], "layout": [1, 2]}', "MalformedInputError", "bad.json"),
        ("--partition", '{"A": 5}', "MalformedInputError", "bad.json"),
        ("--partition", '{"A": ["bus1", 2]}', "MalformedInputError", "bad.json"),
        ("--partition", '{"A": ["a"], "layout": {"a": 3}}', "MalformedInputError", "bad.json"),
        ("--partition", '{"layout": {"a": [0, NaN]}}', "MalformedInputError", "bad.json"),
        ("--partition", '{"layout": {"a": [0, true]}}', "MalformedInputError", "bad.json"),
        ("--config", "{not json", "ConfigurationError", "bad.json"),
        ("--config", "[1, 2]", "ConfigurationError", "bad.json"),
    ],
)
def test_malformed_json_file_is_an_input_error_naming_it(small_run, tmp_path, capsys,
                                                         flag, text, error, named):
    # a JSON decode error, a list or a wrong-typed entry ended in a traceback
    _, data, _ = small_run
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    argv = {
        "--scenario": ["simulate", "--out", str(out / "d.csv")],
        "--partition": ["analyze", "--input", str(data), "--T", "60", "--out", str(out)],
        "--config": ["theory", "--N", "10", "--T", "20"],
    }[flag]
    code, stdout, err = run_cli(capsys, *argv, flag, str(bad))
    assert code == 1 and stdout == ""
    assert f"error [{error}]" in err and named in err
    assert not out.exists()


def test_config_file_mirrors_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 118, "T": 240}))
    code, out, _ = run_cli(capsys, "theory", "--config", str(cfg))
    assert code == 0
    assert _theory_table(out)["MSR"][0] == pytest.approx(0.8645, abs=1e-3)


def test_config_file_equals_form_is_applied(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "t": 50}))
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--preset", "table3", "--out", str(out), f"--config={cfg}"
    )
    assert code == 0
    assert load_csv(out).values.shape == (10, 50)


def test_config_flag_without_value_exits_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--preset", "table3", "--out", str(tmp_path / "d.csv"), "--config"
    )
    assert code == 1
    assert "usage" in err.lower() and "--config" in err


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_flag": 1}))
    code, _, err = run_cli(capsys, "theory", "--config", str(cfg), "--N", "10", "--T", "20")
    assert code == 1 and "bogus_flag" in err


_, _COMMANDS = _build_parser()


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    key=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12),
)
def test_config_key_matching_no_flag_is_named(command, key):
    if key.replace("-", "_") in _COMMANDS[command].flags:
        return
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
    assert code == 1
    assert f"config key {key!r} matches no flag" in err.getvalue()


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"T": 30.5}, "config key 'T' needs int text, got 30.5"),
        ({"T": True}, "config key 'T' needs a string or a number, got true"),
        ({"T": 40, "k": None}, "config key 'k' needs a string or a number, got null"),
        ({"T": 40, "mc_reps": 2.5}, "config key 'mc_reps' needs int text, got 2.5"),
        ({"T": 40, "degenerate": "bogus"}, "config key 'degenerate' must be one of"),
        ({"T": 40, "functions": 5}, "unknown test function '5'"),
        ({"T": 40, "help": "x"}, "config key 'help' matches no flag"),
    ],
)
def test_config_value_its_flag_cannot_parse_is_an_input_error(small_run, tmp_path, capsys,
                                                              entries, message):
    _, data, _ = small_run
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(entries))
    code, _, err = run_cli(capsys, "analyze", "--config", str(cfg), "--input", str(data),
                           "--out", str(tmp_path / "r"))
    assert code == 1
    assert err.startswith("error [") and message in err


def test_config_values_are_typed_like_their_flags(small_run, tmp_path, capsys):
    _, data, _ = small_run
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"T": "40", "k": 3, "functions": "T2", "seed": "5"}))
    code, _, _ = run_cli(capsys, "analyze", "--config", str(cfg), "--input", str(data),
                         "--out", str(tmp_path / "r"))
    assert code == 0
    params = json.loads((tmp_path / "r" / "run.json").read_text())["params"]
    assert (params["T"], params["k"], params["seed"]) == (40, 3.0, 5)
    assert isinstance(params["k"], float)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 90), st.floats(),
    st.text(max_size=6), st.integers(-3, 90).map(str),
)
_TYPED_FLAGS = [
    (command, dest)
    for command in ("analyze", "theory")
    for dest, action in sorted(_COMMANDS[command].flags.items())
    if action.type is not None or action.choices is not None
]


@settings(max_examples=150, deadline=None)
@given(flag=st.sampled_from(_TYPED_FLAGS), value=_JSON_SCALARS)
def test_any_json_scalar_for_a_typed_flag_ends_in_a_result_or_a_typed_error(
    small_run, flag, value
):
    # T2 alone keeps a run short whatever --L and --mc-reps say; a value that
    # overflows the reference moments (kappa4 near 1e308) is a numerical
    # failure, exit 2
    command, dest = flag
    base = {"analyze": {"T": 40, "functions": "T2"}, "theory": {"N": 10, "T": 40}}[command]
    _, data, _ = small_run
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "cfg.json"
        cfg.write_text(json.dumps({**base, dest: value}))
        argv = [command, "--config", str(cfg)]
        if command == "analyze":
            argv += ["--input", str(data), "--out", str(Path(d) / "r")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code == 0 or (code in (1, 2) and "error [" in err.getvalue()), err.getvalue()


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RMT_EED_SEED", "31")
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--preset", "table3", "--n", "16", "--t", "160", "--out", str(out)
    )
    assert code == 0
    assert json.loads((tmp_path / "run.json").read_text())["params"]["seed"] == 31


def test_negative_seed_is_an_input_error(tmp_path, monkeypatch, capsys):
    argv = ["simulate", "--preset", "table3", "--n", "8", "--t", "40", "--out",
            str(tmp_path / "d.csv")]
    code, _, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 1 and "seed (--seed or $RMT_EED_SEED) must be >= 0, got -1" in err
    monkeypatch.setenv("RMT_EED_SEED", "-2")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "got -2" in err


def test_commands_that_draw_nothing_ignore_the_seed_variable(small_run, tmp_path, capsys,
                                                             monkeypatch):
    # pca-baseline and mapframes read $RMT_EED_SEED and exited 1 on a bad one
    root, data, _ = small_run
    monkeypatch.setenv("RMT_EED_SEED", "abc")
    pca, frames = tmp_path / "pca", tmp_path / "frames"
    code, _, err = run_cli(capsys, "pca-baseline", "--input", str(data), "--train", "0:100",
                           "--out", str(pca))
    assert code == 0, err
    code, _, err = run_cli(capsys, "mapframes", "--report", str(pca), "--layout",
                           str(root / "partition.json"), "--out", str(frames))
    assert code == 0, err
    for out in (pca, frames):
        assert "seed" not in json.loads((out / "run.json").read_text())["params"]


@pytest.mark.parametrize("command", ["theory", "pca-baseline", "mapframes"])
def test_only_commands_that_draw_take_a_seed(small_run, tmp_path, capsys, command):
    root, data, _ = small_run
    pca, out = tmp_path / "pca", tmp_path / "out"
    assert run_cli(capsys, "pca-baseline", "--input", str(data), "--train", "0:100",
                   "--out", str(pca))[0] == 0
    argv = {
        "theory": ["--N", "10", "--T", "20"],
        "pca-baseline": ["--input", str(data), "--train", "0:100", "--out", str(out)],
        "mapframes": ["--report", str(pca), "--layout", str(root / "partition.json"),
                      "--out", str(out)],
    }[command]
    code, stdout, err = run_cli(capsys, command, *argv, "--seed", "1")
    assert code == 1 and stdout == "" and "unrecognized arguments: --seed 1" in err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1}))
    code, stdout, err = run_cli(capsys, command, "--config", str(cfg), *argv)
    assert code == 1 and stdout == "" and "config key 'seed' matches no flag" in err
    assert not out.exists()


def test_bad_reference_argument(small_run, tmp_path, capsys):
    _, data, _ = small_run
    code, _, err = run_cli(
        capsys, "analyze", "--input", str(data), "--T", "60",
        "--reference", "calib:10", "--out", str(tmp_path / "x"),
    )
    assert code == 1 and "calib" in err


INPUT_EXITS = [
    ("calib-under-two-windows", ["analyze", "--reference", "calib:200:100"], None,
     "ConfigurationError", "calibration range holds 0 windows; need at least 2"),
    ("calib-not-integers", ["analyze", "--reference", "calib:a:b"], None,
     "ConfigurationError", "bad calibration range in 'calib:a:b'"),
    ("unknown-reference", ["analyze", "--reference", "bogus"], None,
     "ConfigurationError", "unknown reference mode 'bogus'"),
    ("env-seed-not-integer", ["analyze"], "abc",
     "ConfigurationError", "$RMT_EED_SEED must be an integer, got 'abc'"),
    ("train-three-fields", ["pca-baseline", "--train", "1:2:3"], None,
     "ConfigurationError", "bad training range '1:2:3'"),
    ("train-no-longer-than-m-prime", ["pca-baseline", "--train", "0:3"], None,
     "ParameterError", "training range (--train) holds 3 samples; need more than m'=3"),
    # the step dominates the variance: one eigenvalue holds 95% of it, and
    # the message named an m the user never passed
    ("default-m-below-m-prime", ["pca-baseline", "--train", "0:300", "--m-prime", "3"], None,
     "ParameterError",
     "pca: the default m (--m), the count of eigenvalues holding 95% of the training variance, "
     "is 1, below m'=3 (--m-prime); give --m between 3 and 18, or a smaller --m-prime"),
    # an all-zero training range divided by a zero eigenvalue sum
    ("train-all-zero", ["pca-baseline", "--train", "0:20", "--m-prime", "2", "--input",
                        "zeros.csv"], None,
     "ParameterError", "pca: the training range (--train) [0, 20) has no variance"),
    # y^T y overflowed to inf, and the eigensolver failed with a LinAlgError
    ("train-gram-beyond-float64", ["pca-baseline", "--train", "0:30", "--m-prime", "2",
                                   "--input", "huge.csv"], None,
     "ParameterError", "pca: the Gram matrix of the training range (--train) [0, 30) overflows "
     "float64"),
    # the pilots' Gram underflowed to subnormals: the solve gave NaN residuals and exit 0
    ("train-gram-subnormal", ["pca-baseline", "--train", "0:30", "--m-prime", "2",
                              "--input", "tiny.csv"], None,
     "ParameterError", "pca: the pilots' Gram matrix on the training range (--train) [0, 30) "
     "underflows float64"),
    # c's training residual RMS squared underflowed: eta was nan on every row
    # and a zero band flagged every later nonzero residual, at exit 0
    ("train-residual-rms-subnormal", ["pca-baseline", "--train", "0:40", "--m-prime", "2",
                                      "--m", "2", "--input", "faint.csv"], None,
     "ParameterError", "pca: the training residual RMS of nodes ['c'] on the training range "
     "(--train) [0, 40) underflows float64"),
    # the window and Monte Carlo checks named no flag
    ("window-length-zero", ["analyze", "--T", "0"], None,
     "ParameterError", "window length (--T) must be >= 1, got 0"),
    ("stride-zero", ["analyze", "--stride", "0"], None,
     "ParameterError", "stride (--stride) must be >= 1, got 0"),
    ("product-depth-zero", ["analyze", "--L", "0"], None,
     "ParameterError", "ring product depth (--L) must be >= 1, got 0"),
    ("mc-reps-one", ["analyze", "--mc-reps", "1"], None,
     "ParameterError", "mc_reps (--mc-reps) must be >= 2 for a Monte Carlo variance, got 1"),
    ("theory-product-depth-zero", ["theory", "--N", "10", "--T", "20", "--L", "0"], None,
     "ParameterError", "ring product depth (--L) must be >= 1, got 0"),
    ("layout-without-coordinates", ["mapframes", "--layout", "regions.json"], None,
     "ConfigurationError", "regions.json carries no layout coordinates"),
    # the calibration and map-frame checks named no flag
    ("calib-range-holds-no-window", ["analyze", "--reference", "calib:0:10"], None,
     "ConfigurationError", "need at least 2 window ends inside --reference calib:0:10"),
    ("calib-tau-constant", ["analyze", "--input", "periodic.csv", "--T", "40", "--stride", "20",
                            "--functions", "T2", "--reference", "calib:39:159"], None,
     "ConfigurationError", "pick a range (--reference calib:START:END) where the data"),
    ("grid-below-two", ["mapframes", "--report", "two", "--function", "T2", "--grid", "1"], None,
     "ContractError", "grid size (--grid) must be >= 2, got 1"),
    ("frame-stride-zero", ["mapframes", "--stride", "0"], None,
     "ConfigurationError", "frame stride (--stride) must be >= 1, got 0"),
    ("function-not-in-report", ["mapframes", "--function", "T2"], None,
     "ConfigurationError", "series has no function 'T2' (--function); it holds ['MSR']"),
    ("function-not-picked", ["mapframes", "--report", "two"], None,
     "ConfigurationError", "holds functions ['MSR', 'T2']; pick one to render with --function"),
    ("config-without-subcommand", ["--config", "cfg.json"], None,
     "ConfigurationError", "--config requires a subcommand"),
    # a region of the preset was left empty and named no flag
    ("preset-fewer-nodes-than-regions", ["simulate", "--preset", "table3", "--n", "5",
                                         "--out", "out/table3.csv"], None,
     "ParameterError", "table3 preset has 6 regions, so it needs at least 6 nodes (--n); got 5"),
    # a preset too short for its phases named no flag
    ("preset-t-below-eight", ["simulate", "--preset", "table3", "--t", "7",
                              "--out", "out/table3.csv"], None,
     "ParameterError", "table3 preset needs 0 < step < ramp < collapse < --t; --t 7 gives 3, 6, 6"),
    ("preset-phases-collapse", ["simulate", "--preset", "table3", "--t", "12",
                                "--out", "out/table3.csv"], None,
     "ParameterError", "--t 12 gives 5, 10, 10"),
    # a repeated node id named no id, file or row
    ("node-id-repeats", ["analyze", "--input", "repeat.csv"], None,
     "MalformedInputError", "repeat.csv rows 3 and 5: node id 'b' repeats"),
    # an output path that cannot be made or written ended in a traceback,
    # analyze's only after the whole sweep
    ("out-is-a-file-analyze", ["analyze", "--out", "cfg.json"], None,
     "ConfigurationError", "cannot write the output path (--out) cfg.json: File exists"),
    ("out-is-a-directory-simulate", ["simulate", "--preset", "table3", "--n", "6", "--t", "20",
                                     "--out", "two"], None,
     "ConfigurationError", "cannot write the output path (--out) two: Is a directory"),
    ("out-under-a-file-pca", ["pca-baseline", "--train", "0:100", "--out", "cfg.json/x"], None,
     "ConfigurationError", "cannot write the output path (--out) cfg.json/x: Not a directory"),
    # an indicator.csv that cannot be opened ended in an IsADirectoryError traceback
    ("indicator-csv-is-a-directory-analyze", ["analyze", "--out", "blocked"], None,
     "ConfigurationError", "cannot write the output path (--out) blocked/indicator.csv: "
     "Is a directory"),
    ("indicator-csv-is-a-directory-pca", ["pca-baseline", "--train", "0:100", "--out", "blocked"],
     None, "ConfigurationError", "cannot write the output path (--out) blocked/indicator.csv: "
     "Is a directory"),
]


def test_out_blocked_by_a_file_is_refused_before_loading(small_run, tmp_path, capsys,
                                                         monkeypatch):
    # analyze found such an --out only when it wrote the report, after the sweep
    import rmtdetect.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the --out check")

    for name in ("load_csv", "sweep", "regional_series", "train"):
        monkeypatch.setattr(cli, name, never)
    _, data, _ = small_run
    taken = tmp_path / "taken"
    taken.write_text("")
    cases = [
        (["analyze", "--input", str(data), "--T", "60", "--out", str(taken)],
         f"{taken}: File exists"),
        (["pca-baseline", "--input", str(data), "--train", "0:100", "--out", str(taken / "x")],
         f"{taken / 'x'}: Not a directory"),
    ]
    for argv, named in cases:
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == ("error [ConfigurationError]: cli: cannot write the output path (--out) "
                       f"{named}\n")
    assert taken.read_text() == ""


def test_a_failed_worker_fork_is_not_an_out_error(small_run, tmp_path, monkeypatch):
    # the indicator CSV writer runs under the --out conversion; a fork that
    # fails for want of processes is not the output path's fault
    import multiprocessing.context

    from rmtdetect import workers

    def no_fork(self):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(workers, "count", lambda: 2)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_fork)
    _, data, _ = small_run
    with pytest.raises(BlockingIOError):
        main(["pca-baseline", "--input", str(data), "--train", "0:100",
              "--out", str(tmp_path / "pca")])


def test_mapframes_out_that_is_a_file_is_named(small_run, tmp_path, capsys):
    # render_run's mkdir raised FileExistsError through main
    root, data, _ = small_run
    pca, taken = tmp_path / "pca", tmp_path / "taken"
    assert run_cli(capsys, "pca-baseline", "--input", str(data), "--train", "0:100",
                   "--out", str(pca))[0] == 0
    taken.write_text("")
    code, stdout, err = run_cli(capsys, "mapframes", "--report", str(pca), "--layout",
                                str(root / "partition.json"), "--out", str(taken))
    assert (code, stdout) == (1, "")
    assert err == (f"error [ConfigurationError]: cli: cannot write the output path (--out) "
                   f"{taken}: File exists\n")


@pytest.mark.parametrize("argv, env_seed, error, named", [c[1:] for c in INPUT_EXITS],
                         ids=[c[0] for c in INPUT_EXITS])
def test_input_exits_name_their_cause(small_run, tmp_path, capsys, monkeypatch,
                                      argv, env_seed, error, named):
    # --train 0:3 fitted three pilots exactly and flagged nearly every row
    root, data, report = small_run
    # ten repeats of one 20-sample stretch: every calibration window is the same
    rng = np.random.default_rng(1)
    periodic = np.concatenate([np.tile(rng.standard_normal((10, 20)), 10),
                               rng.standard_normal((10, 40))], axis=1)
    write_csv(DataSource(periodic, tuple(f"n{i}" for i in range(10))),
              tmp_path / "periodic.csv")
    (tmp_path / "two").mkdir()
    (tmp_path / "two" / "indicator.csv").write_text(
        "t,region,function,tau,eta,flag\r\n0,A1,MSR,1.0,1.0,normal\r\n0,A1,T2,1.0,1.0,normal\r\n"
    )
    write_csv(DataSource(np.zeros((5, 40)), tuple(f"n{i}" for i in range(5))),
              tmp_path / "zeros.csv")
    huge = sample_gaussian_matrix(6, 60, seed=1)
    write_csv(DataSource(huge.values * 1e154, huge.node_ids), tmp_path / "huge.csv")
    write_csv(DataSource(huge.values * 1e-160, huge.node_ids), tmp_path / "tiny.csv")
    ab = rng.standard_normal((2, 80)) * 1e-150
    faint = np.vstack([ab, ab.sum(axis=0) + rng.standard_normal(80) * 1e-170])
    write_csv(DataSource(faint, ("a", "b", "c")), tmp_path / "faint.csv")
    (tmp_path / "regions.json").write_text('{"A": ["bus1"]}')
    (tmp_path / "cfg.json").write_text("{}")
    (tmp_path / "blocked" / "indicator.csv").mkdir(parents=True)
    (tmp_path / "repeat.csv").write_text("node_id,0,1,2\na,1,2,3\nb,4,5,7\nc,7,8,8\nb,1,0,0\n")
    if env_seed is not None:
        monkeypatch.setenv("RMT_EED_SEED", env_seed)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    # the case's own flags come last, so they override these, --out too
    defaults = {
        "analyze": ["--input", str(data), "--T", "60", "--functions", "MSR", "--mc-reps", "20"],
        "pca-baseline": ["--input", str(data)],
        "mapframes": ["--report", str(report), "--layout", str(root / "partition.json")],
    }
    command, *flags = argv
    if command in defaults:
        flags = [*defaults[command], "--out", str(out), *flags]
    code, stdout, err = run_cli(capsys, command, *flags)
    assert code == 1 and stdout == ""
    assert f"error [{error}]" in err and named in err
    assert not out.exists()
