"""The per-window spectrum kernel and the stacked LES: the sweep gives the
bits of a plain per-window loop over the public pieces, at any stride,
depth and worker count, and its row check names the nodes standardize
names."""

import numpy as np
import pytest

from rmtdetect import (
    DataSource,
    DetectorConfig,
    WindowSpec,
    covariance,
    eigen_general,
    eigen_hermitian,
    generate,
    les,
    load_csv,
    regional_series,
    ring_product,
    sample_gaussian_matrix,
    standardize,
    sweep,
    write_csv,
)
from rmtdetect.cli import main
from rmtdetect.detect import WHOLE_SYSTEM, read_indicator_csv
from rmtdetect.errors import DegenerateRowError
from rmtdetect.les import FUNCTIONS, MSR
from rmtdetect.rng import window_seed
from rmtdetect.synth import table3_partition, table3_scenario

ALL_FUNCTIONS = ("MSR", "T2", "T3", "T4", "DET", "LRF")


def _reference_taus(values, ends, cfg):
    """tau per function, one window at a time, from the public pieces in
    the order the sweep documents them."""
    taus = {name: [] for name in cfg.functions}
    T, L = cfg.window.T, cfg.window.L
    for end in ends:
        jitter_seed, ring_seed = window_seed(cfg.base_seed, end).spawn(2)
        x = standardize(values[:, end - T + 1 : end + 1], cfg.degenerate_policy, jitter_seed)
        cov = eigen_hermitian(covariance(x, "M"))
        ring = eigen_general(ring_product([x] * L, ring_seed).values) if "MSR" in taus else None
        for name in cfg.functions:
            f = FUNCTIONS[name]
            taus[name].append(les.les(ring if name == "MSR" else cov, f))
    return {name: np.array(v) for name, v in taus.items()}


def _tau_bytes(series):
    return {key: fs.tau.tobytes() for key, fs in series.data.items()}


@pytest.mark.parametrize("L, stride", [(1, 1), (2, 7)])
def test_sweep_matches_the_per_window_loop(at_workers, L, stride):
    src = generate(table3_scenario(n=16, t=90), seed=8)
    cfg = DetectorConfig(window=WindowSpec(T=40, stride=stride, L=L), functions=ALL_FUNCTIONS,
                         base_seed=5, mc_reps=4)
    expected = _reference_taus(src.values, np.arange(39, 90, stride), cfg)
    for n in (1, 2):
        got = _tau_bytes(at_workers(n, sweep, src, cfg))
        assert got == {(WHOLE_SYSTEM, name): tau.tobytes() for name, tau in expected.items()}


@pytest.mark.parametrize("L, stride", [(1, 7), (2, 1)])
def test_regional_series_matches_the_per_window_loop(at_workers, L, stride):
    src = generate(table3_scenario(n=24, t=70), seed=9)
    part = table3_partition(n=24)
    cfg = DetectorConfig(window=WindowSpec(T=30, stride=stride, L=L), functions=ALL_FUNCTIONS,
                         regions=part, base_seed=2, mc_reps=4)
    ends = np.arange(29, 70, stride)
    expected = {}
    blocks = {WHOLE_SYSTEM: src, **{r: src.restrict(m) for r, m in part.regions.items()}}
    for block, sub in blocks.items():
        for name, tau in _reference_taus(sub.values, ends, cfg).items():
            expected[(block, name)] = tau.tobytes()
    for n in (1, 2):
        assert _tau_bytes(at_workers(n, regional_series, src, cfg)) == expected


def test_jitter_policy_matches_the_per_window_loop(at_workers):
    # row 4 is flat over samples 20..69: every window ending in 49..69 jitters it
    src = sample_gaussian_matrix(10, 100, seed=3)
    vals = src.values.copy()
    vals[4, 20:70] = 7.5
    src = DataSource(vals, src.node_ids, src.timestamps)
    cfg = DetectorConfig(window=WindowSpec(T=30, stride=2), functions=("MSR", "T2", "LRF"),
                         degenerate_policy="jitter", base_seed=4, mc_reps=4)
    expected = _reference_taus(src.values, np.arange(29, 100, 2), cfg)
    for n in (1, 2):
        got = _tau_bytes(at_workers(n, sweep, src, cfg))
        assert got == {(WHOLE_SYSTEM, name): tau.tobytes() for name, tau in expected.items()}


def test_cli_jitter_policy_writes_the_per_window_loop_taus(tmp_path, capsys):
    src = sample_gaussian_matrix(10, 80, seed=8)
    vals = src.values.copy()
    vals[6, 10:60] = -3.25  # flat in every window ending in 39..59
    data = tmp_path / "data.csv"
    write_csv(DataSource(vals, src.node_ids, src.timestamps), data)
    code = main(["analyze", "--input", str(data), "--T", "30", "--functions", "MSR,T3,DET",
                 "--degenerate", "jitter", "--mc-reps", "4", "--seed", "6",
                 "--out", str(tmp_path / "report")])
    capsys.readouterr()
    assert code == 0
    got = read_indicator_csv(tmp_path / "report" / "indicator.csv")
    cfg = DetectorConfig(window=WindowSpec(T=30), functions=("MSR", "T3", "DET"),
                         degenerate_policy="jitter", base_seed=6)
    expected = _reference_taus(load_csv(data).values, np.arange(29, 80), cfg)
    for name, tau in expected.items():
        assert got.data[(WHOLE_SYSTEM, name)].tau.tobytes() == tau.tobytes()


def test_standardize_gives_the_bits_of_np_mean_and_np_std():
    # a strided window of a wider source, as the sweep passes it
    big = 1e3 + 5.0 * np.random.default_rng(7).standard_normal((9, 200))
    x = big[:, 17:78]
    out = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    out -= out.mean(axis=1, keepdims=True)
    assert standardize(x).values.tobytes() == out.tobytes()


def _spectra_stacks():
    rng = np.random.default_rng(12)
    real = np.sort(rng.gamma(2.0, size=(9, 23)), axis=1)
    real[2, :3] = [-1e-17, 0.0, 1e-15]  # two clamps counted, the tiny positive floored too
    real[4, 0] = 1e-16  # floored at LOG_CLAMP, though not counted: it is positive
    real[6, 0] = 0.0
    ring = rng.standard_normal((9, 23)) + 1j * rng.standard_normal((9, 23))
    return real, ring


@pytest.mark.parametrize("name", ALL_FUNCTIONS)
def test_les_on_a_stack_equals_its_rows(name):
    real, ring = _spectra_stacks()
    stack = ring if name == "MSR" else real
    f = FUNCTIONS[name]
    before = les.clamp_event_count()
    rows = np.array([les.les(row, f) for row in stack])
    by_rows = les.clamp_event_count() - before
    before = les.clamp_event_count()
    stacked = les.les(stack, f)
    assert stacked.tobytes() == rows.tobytes()
    assert les.clamp_event_count() - before == by_rows
    assert by_rows == (3 if f.domain == "positive" else 0)


def test_mc_ring_msr_matches_the_per_trial_loop(monkeypatch):
    monkeypatch.setattr(les, "_ring_cache", {})
    N, T, L, reps, base = 12, 30, 2, 9, 4
    taus = []
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([base, 0xCA11B, N, T, L, i]))
        x = standardize(rng.standard_normal((N, T)))
        taus.append(les.les(eigen_general(ring_product([x] * L, rng).values), MSR))
    taus = np.array(taus)
    assert les.mc_ring_msr(N, T, L, reps, base) == (taus.mean(), taus.var(ddof=1))


@pytest.mark.parametrize("f", [les.T2, les.LRF], ids=lambda f: f.name)
def test_mc_covariance_les_standardized_matches_the_per_trial_loop(f):
    N, T, reps, seed = 12, 30, 9, 4
    rng = np.random.default_rng(seed)
    taus = np.array([les.les(eigen_hermitian(covariance(standardize(
        rng.standard_normal((N, T))))), f) for _ in range(reps)])
    got = les.mc_covariance_les(f, N, T, reps, seed, standardized=True)
    assert got == (taus.mean(), taus.var(ddof=1))


def _standardize_error(values, row):
    """standardize's message on values, row index `row` read as node n<row>."""
    with pytest.raises(DegenerateRowError) as err:
        standardize(values)
    assert f"[{row}]" in str(err.value)
    return str(err.value).replace(f"[{row}]", f"['n{row}']")


@pytest.mark.parametrize(
    "row, values",
    [
        (5, lambda noise: 1e11 + 1e-3 * noise),  # spread below float64's resolution
        (2, lambda noise: 1e200 * (1.0 + 1e-3 * noise)),  # squares overflow
        (6, lambda noise: 1e307 * (5.0 + noise)),  # row sums overflow
    ],
)
def test_sweep_row_check_names_the_nodes_standardize_names(at_workers, row, values):
    noise = np.random.default_rng(1).standard_normal((8, 30))
    vals = noise.copy()
    vals[row] = values(noise[row])
    expected = _standardize_error(vals, row)
    assert f"['n{row}']" in expected and "float64" in expected
    # the last of the 31 windows holds only vals; at two workers it runs in the child
    src = DataSource(np.hstack([noise, vals]), tuple(f"n{i}" for i in range(8)), tuple(range(60)))
    cfg = DetectorConfig(window=WindowSpec(T=30), functions=("MSR", "LRF"), mc_reps=4)
    for n in (1, 2):
        with pytest.raises(DegenerateRowError) as err:
            at_workers(n, sweep, src, cfg)
        assert str(err.value) == expected


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_gram_of_a_real_window_is_exactly_symmetric(layout):
    # the kernel takes XX^T for (XX^T + (XX^T)^T) / 2, which the public
    # covariance and ring_product form
    x = standardize(np.random.default_rng(4).standard_normal((37, 2 * 91))).values
    x = {"C": x, "F": np.asfortranarray(x), "strided": x[:, ::2]}[layout]
    h = x @ x.T
    assert np.array_equal(h, (h + h.T) / 2.0)
