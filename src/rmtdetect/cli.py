"""Command-line entry point wiring the pipeline together.

Subcommands: simulate, analyze, theory, pca-baseline, mapframes. Every one
but theory writes a run.json of the resolved parameters and the package
version; two runs with identical run.json produce identical output files.
Only simulate and analyze draw random numbers: they alone take --seed (else
$RMT_EED_SEED, else 0). Exit codes: 0 success, 1 input/contract errors, 2
numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .detect import (
    DetectorConfig,
    FunctionSeries,
    IndicatorSeries,
    _check_moments,
    _too_wide,
    extract_events,
    read_indicator_csv,
    regional_series,
    sweep,
    write_events_json,
    write_indicator_csv,
)
from .errors import ConfigurationError, ParameterError, RmtDetectError
from .ingest import MISSING_POLICIES, WindowSpec, _json_object, load_csv, load_partition, write_csv
from .les import FUNCTIONS, theoretical_moments
from .mapgen import render_run
from .pca import residual_series, train
from .rmm import DEGENERATE_POLICIES
from .synth import _check_fits, generate, load_scenario, table3_partition, table3_scenario

ENV_SEED = "RMT_EED_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1.

    Each parser also keeps its flags by destination, so a config file can
    be checked against them.
    """

    def __init__(self, *args, **kwargs):
        self.flags: Dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> Tuple[_Parser, Dict[str, _Parser]]:
    """The root parser and its subcommand parsers by name."""
    p = _Parser(prog="rmtdetect", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", metavar="COMMAND")
    commands: Dict[str, _Parser] = {}

    def command(name: str, help: str) -> _Parser:
        sp = commands[name] = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="JSON file supplying defaults for any flag")
        return sp

    seed_help = f"base RNG seed (falls back to ${ENV_SEED}, then 0)"

    sim = command("simulate", help="generate synthetic scenario data")
    sim.add_argument("--preset", choices=["table3"], help="bundled three-phase schedule")
    sim.add_argument("--scenario", help="custom scenario JSON file")
    sim.add_argument("--n", type=int, default=118)
    sim.add_argument("--t", type=int, default=1500)
    sim.add_argument("--noise-std", type=float, default=1.0)
    sim.add_argument("--seed", type=int, help=seed_help)
    sim.add_argument("--out", required=True, help="output CSV path")

    an = command("analyze", help="moving-window detection sweep")
    an.add_argument("--input", required=True, help="measurement CSV")
    an.add_argument("--partition", help="region partition JSON")
    an.add_argument("--T", type=int, required=True, help="window length in samples")
    an.add_argument("--L", type=int, default=1, help="ring product depth")
    an.add_argument("--stride", type=int, default=1)
    an.add_argument("--functions", default="MSR", help="comma-separated test functions")
    an.add_argument("--k", type=float, default=3.0, help="flag threshold in sigmas")
    an.add_argument("--reference", default="theoretical",
                    help='"theoretical" or "calib:START:END" (window-end range, inclusive)')
    an.add_argument("--kappa4", type=float, default=0.0)
    an.add_argument("--mc-reps", type=int, default=200)
    an.add_argument("--missing", default="error", choices=MISSING_POLICIES)
    an.add_argument("--degenerate", default="error", choices=DEGENERATE_POLICIES)
    an.add_argument("--seed", type=int, help=seed_help)
    an.add_argument("--out", required=True, help="output directory")

    th = command("theory", help="print theoretical E, D, c_v for the named functions")
    th.add_argument("--N", type=int, required=True)
    th.add_argument("--T", type=int, required=True)
    th.add_argument("--L", type=int, default=1)
    th.add_argument("--kappa4", type=float, default=0.0)

    pc = command("pca-baseline", help="pilot-regression baseline, same report schema as analyze")
    pc.add_argument("--input", required=True)
    pc.add_argument("--train", required=True, help="training sample range START:END (half-open)")
    pc.add_argument("--m-prime", type=int, default=3, help="number of pilot channels")
    pc.add_argument("--m", type=int, default=None, help="principal subspace dimension")
    pc.add_argument("--k", type=float, default=3.0)
    pc.add_argument("--missing", default="error", choices=MISSING_POLICIES)
    pc.add_argument("--out", required=True)

    mf = command("mapframes", help="render indicator values as spatial grid frames")
    mf.add_argument("--report", required=True, help="analyze/pca-baseline output directory")
    mf.add_argument("--layout", required=True, help="partition or layout JSON")
    mf.add_argument("--grid", type=int, default=64)
    mf.add_argument("--stride", type=int, default=10, help="render every stride-th timestamp")
    mf.add_argument("--power", type=float, default=2.0)
    mf.add_argument("--function", default=None)
    mf.add_argument("--out", required=True, help="frame output directory")
    return p, commands


def _apply_config_file(commands: Dict[str, _Parser], argv: List[str]) -> None:
    """--config file.json mirrors every flag: its entries become defaults.

    A pre-parser that knows only --config reads it, in either the
    "--config FILE" or the "--config=FILE" form, before the full parse.
    """
    pre = _Parser(prog="rmtdetect", add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return
    cfg = _json_object(known.config, ConfigurationError, "cli: config file")
    sp = commands.get(argv[0])
    if sp is None:
        raise ConfigurationError("cli: --config requires a subcommand")
    sp.set_defaults(**_checked_defaults(cfg, sp.flags))


def _checked_defaults(cfg: dict, actions: dict) -> dict:
    out = {}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in actions or actions[dest].nargs == 0:  # --help takes no value
            raise ConfigurationError(f"cli: config key {key!r} matches no flag")
        out[dest] = _flag_value(key, value, actions[dest])
        actions[dest].required = False  # a config-supplied value satisfies the flag
    return out


def _flag_value(key: str, value, action: argparse.Action):
    """A config value as its flag parses it: the flag's type conversion and
    choices applied to the text the value would have on the command line.
    argparse converts only string defaults, so nothing else checks it."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigurationError(
            f"cli: config key {key!r} needs a string or a number, got {json.dumps(value)}"
        )
    text = value if isinstance(value, str) else repr(value)
    try:
        out = text if action.type is None else action.type(text)
    except ValueError:
        raise ConfigurationError(
            f"cli: config key {key!r} needs {action.type.__name__} text, got {value!r}"
        ) from None
    if action.choices is not None and out not in action.choices:
        raise ConfigurationError(
            f"cli: config key {key!r} must be one of {list(action.choices)}, got {out!r}"
        )
    return out


def _resolve_seed(args) -> None:
    seed = args.seed
    if seed is None:
        env = os.environ.get(ENV_SEED)
        try:
            seed = 0 if env is None else int(env)
        except ValueError:
            raise ConfigurationError(f"cli: ${ENV_SEED} must be an integer, got {env!r}") from None
    if seed < 0:  # numpy seeds take nonnegative entropy only
        raise ParameterError(f"cli: the seed (--seed or ${ENV_SEED}) must be >= 0, got {seed}")
    args.seed = seed


@contextlib.contextmanager
def _output(out: Path):
    """An OSError of making or writing the output path --out becomes a
    ConfigurationError naming both. A failed fork or pipe of a worker
    (EAGAIN, ENOMEM, EMFILE, ENFILE) is the system's limit, not the path's:
    it passes through."""
    try:
        yield
    except OSError as e:
        if e.errno in (errno.EAGAIN, errno.ENOMEM, errno.EMFILE, errno.ENFILE):
            raise
        raise ConfigurationError(
            f"cli: cannot write the output path (--out) {e.filename or out}: {e.strerror}"
        ) from None


def _check_out(out: Path) -> None:
    """Refuse, before any work, an output directory --out that an existing
    file blocks: out itself or one of its ancestors. Makes nothing, so an
    error later still leaves no --out behind."""
    with _output(out):
        try:
            mode = os.stat(out).st_mode  # a file among the ancestors: ENOTDIR
        except FileNotFoundError:
            return
        if not stat.S_ISDIR(mode):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out))


def _write_run_json(directory: Path, command: str, args) -> None:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    (directory / "run.json").write_text(
        json.dumps({"command": command, "version": __version__, "params": params},
                   indent=2, sort_keys=True),
        encoding="utf-8",
    )


def _write_report(out: Path, series: IndicatorSeries, report, command: str, args) -> None:
    """indicator.csv, events.json and run.json in the directory out."""
    with _output(out):
        out.mkdir(parents=True, exist_ok=True)
        write_indicator_csv(series, out / "indicator.csv")
        write_events_json(report, out / "events.json")
        _write_run_json(out, command, args)


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    _resolve_seed(args)
    if bool(args.preset) == bool(args.scenario):
        raise ConfigurationError("cli: simulate needs exactly one of --preset / --scenario")
    out = Path(args.out)
    if args.preset:
        _check_fits(args.n, args.t)  # before table3_partition builds --n node ids
        partition = table3_partition(n=args.n)  # names a --n below 6
        sc = table3_scenario(n=args.n, t=args.t, noise_std=args.noise_std)
    else:
        sc = load_scenario(args.scenario)
        partition = None
    src = generate(sc, args.seed)
    with _output(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        write_csv(src, out)
        if partition is not None:
            payload = {name: list(nodes) for name, nodes in partition.regions.items()}
            payload["layout"] = {nid: list(xy) for nid, xy in partition.layout.items()}
            (out.parent / "partition.json").write_text(json.dumps(payload, indent=2),
                                                       encoding="utf-8")
        _write_run_json(out.parent, "simulate", args)
    print(f"wrote {src.n}x{src.t} source to {out}")
    return 0


def _parse_reference(text: str):
    if text == "theoretical":
        return "theoretical", None
    if text.startswith("calib:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"cli: bad reference {text!r}; expected calib:START:END")
        try:
            return "calibration", (int(parts[1]), int(parts[2]))
        except ValueError:
            raise ConfigurationError(f"cli: bad calibration range in {text!r}") from None
    raise ConfigurationError(f"cli: unknown reference mode {text!r}")


def _cmd_analyze(args) -> int:
    _resolve_seed(args)
    out = Path(args.out)
    _check_out(out)
    src = load_csv(args.input, policy=args.missing)
    partition = load_partition(args.partition) if args.partition else None
    mode, calib = _parse_reference(args.reference)
    cfg = DetectorConfig(
        window=WindowSpec(T=args.T, stride=args.stride, L=args.L),
        functions=tuple(f.strip() for f in args.functions.split(",") if f.strip()),
        threshold_k=args.k,
        reference=mode,
        calibration_range=calib,
        regions=partition,
        base_seed=args.seed,
        kappa4=args.kappa4,
        mc_reps=args.mc_reps,
        degenerate_policy=args.degenerate,
    )
    series = regional_series(src, cfg) if partition is not None else sweep(src, cfg)
    report = extract_events(series, cfg)
    _write_report(out, series, report, "analyze", args)
    print(f"{len(series.t)} windows, {len(report.events)} events -> {out}")
    return 0


def _cmd_theory(args) -> int:
    # every rule but --N >= 1 is the sweep's own, so theory fails as analyze does
    if args.N < 1:
        raise ParameterError(f"cli: theory needs --N >= 1, got {args.N}")
    cfg = DetectorConfig(window=WindowSpec(T=args.T, L=args.L), functions=tuple(FUNCTIONS),
                         kappa4=args.kappa4)
    if why := _too_wide(args.N, cfg):
        raise ParameterError(f"cli: theory (--N) has {why}")
    rows = [(f.name, *theoretical_moments(f, args.N, args.T, args.L, args.kappa4))
            for f in FUNCTIONS.values()]
    for name, e, d in rows:
        _check_moments(f"function {name}", args.N, args.T, "theoretical", e, d)
    print(f"N={args.N} T={args.T} c={args.N / args.T:.4f} L={args.L} kappa4={args.kappa4}")
    print(f"{'function':<10}{'E':>14}{'D':>14}{'c_v':>12}")
    for name, e, d in rows:
        cv = np.sqrt(d) / e if e != 0 else np.nan
        # fixed point would overrun the column at a huge --kappa4
        cv_text = f"{cv:.4f}" if abs(cv) < 1e6 else f"{cv:.4g}"
        print(f"{name:<10}{e:>14.6g}{d:>14.6g}{cv_text:>12}")
    return 0


def _cmd_pca(args) -> int:
    # event extraction settings; threshold_k is not used there, but the
    # config checks --k like analyze's
    cfg = DetectorConfig(window=WindowSpec(T=2), functions=("MSR",), threshold_k=args.k)
    out = Path(args.out)
    _check_out(out)
    src = load_csv(args.input, policy=args.missing)
    try:
        lo, hi = (int(x) for x in args.train.split(":"))
    except ValueError:
        raise ConfigurationError(f"cli: bad training range {args.train!r}; expected START:END") from None
    model = train(src, (lo, hi), m_prime=args.m_prime, m=args.m)
    ts, resid = residual_series(model, src)
    del src  # judging and writing need the residuals only
    # the sweep's rule with E = 0 and D = the training RMS^2; |residual| >= 0
    training = (ts >= lo) & (ts < hi)
    data = {}
    for j, nid in enumerate(model.nonpilot_ids):
        std = float(model.train_residual_std[j])
        data[(nid, "PCA")] = FunctionSeries.judged(resid[j], std, 0.0, std**2, args.k, training)
    series = IndicatorSeries(
        t=ts,
        data=data,
        meta={
            "pilots": list(model.pilot_ids),
            "train_range": [lo, hi],
            "m": model.subspace_dim,
            "m_prime": args.m_prime,
            "k": args.k,
            "condition_number": model.condition_number,
        },
    )
    report = extract_events(series, cfg)
    _write_report(out, series, report, "pca-baseline", args)
    print(f"pilots {list(model.pilot_ids)}, {len(report.events)} events -> {out}")
    return 0


def _cmd_mapframes(args) -> int:
    report_dir = Path(args.report)
    series = read_indicator_csv(report_dir / "indicator.csv")
    carrier = load_partition(args.layout)
    if carrier.layout is None:
        raise ConfigurationError(f"cli: {args.layout} carries no layout coordinates")
    out = Path(args.out)
    with _output(out):
        manifest = render_run(
            series,
            carrier.layout,
            out,
            function=args.function,
            partition=carrier if carrier.regions else None,
            frame_stride=args.stride,
            grid_size=args.grid,
            power=args.power,
        )
        _write_run_json(out, "mapframes", args)
    print(f"manifest -> {manifest}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "theory": _cmd_theory,
    "pca-baseline": _cmd_pca,
    "mapframes": _cmd_mapframes,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _apply_config_file(commands, argv)
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except RmtDetectError as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return e.exit_code
    except np.linalg.LinAlgError as e:
        print(f"error [LinAlgError]: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
