import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtdetect import load_csv
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
    assert "ParameterError" in err and "DET and LRF" in err and "N=20, T=20" in err
    code, out, _ = run_cli(capsys, "theory", "--N", "19", "--T", "20")
    assert code == 0
    assert sorted(_theory_table(out)) == ["DET", "LRF", "MSR", "T2", "T3", "T4"]


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


def test_bad_reference_argument(small_run, tmp_path, capsys):
    _, data, _ = small_run
    code, _, err = run_cli(
        capsys, "analyze", "--input", str(data), "--T", "60",
        "--reference", "calib:10", "--out", str(tmp_path / "x"),
    )
    assert code == 1 and "calib" in err
