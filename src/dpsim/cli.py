"""Command-line interface.

Subcommands:

* ``run``      -- execute one scenario, print its metrics line, optionally
                  write the trace CSV and a final-weight snapshot.
* ``compare``  -- tabulate metrics and steady-state RMS ratios for trace CSVs
                  recorded on the same time grid.
* ``figures``  -- run the six canonical scenarios ({pid, adaptive-nn,
                  nn-fixed} x {constant, markov}) and emit one trace CSV each.
* ``validate`` -- build everything ``run`` builds from a scenario file, run nothing.

Exit codes: 0 success, 1 usage/validation error, 2 runtime abort (diverged).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from dpsim.approximators import AdaptiveWeights, write_weight_csv
from dpsim.config import (CONTROLLER_TYPES, DISTURBANCE_TYPES, ConfigError, load_scenario,
                          parse_scenario, read_scenario)
from dpsim.simulate import (DEFAULT_TAIL_WINDOW_S, SimulationAbort, compare_runs,
                            run_simulation)
from dpsim.traces import read_trace_csv, write_trace_csv

FIGURE_SCENARIOS = (
    ("pid", "constant"),
    ("pid", "markov"),
    ("adaptive-nn", "constant"),
    ("adaptive-nn", "markov"),
    ("nn-fixed", "constant"),
    ("nn-fixed", "markov"),
)


def _metrics_line(metrics) -> str:
    peak = metrics.peak_tau
    return (f"convergence_time_s={metrics.convergence_time:.6g} "
            f"steady_rms_pos_m={metrics.steady_rms_pos:.6g} "
            f"steady_rms_psi_rad={metrics.steady_rms_psi:.6g} "
            f"peak_tau1={peak[0]:.6g} peak_tau2={peak[1]:.6g} peak_tau3={peak[2]:.6g} "
            f"weight_sup={metrics.weight_sup:.6g}")


# command-line flag -> (scenario section, key) it overrides
_OVERRIDES = {
    "controller": ("controller", "type"),
    "disturbance": ("disturbance", "type"),
    "duration": ("simulation", "duration"),
    "dt": ("simulation", "dt"),
    "decimate": ("simulation", "decimation"),
    "grid": ("rbf", "points_per_dim"),
}


def _load_config(args):
    """The scenario with the command-line overrides written in, then validated."""
    raw = read_scenario(args.config) if args.config else {}
    values = {spot: getattr(args, flag, None) for flag, spot in _OVERRIDES.items()}
    seed = getattr(args, "seed", None)
    if seed is not None:
        values["rbf", "weight_seed"] = seed
        values["disturbance", "seed"] = seed + 1
    for (section, key), value in values.items():
        if value is None or not isinstance(raw, dict):
            continue
        part = raw.setdefault(section, {})
        if isinstance(part, dict):  # otherwise parse_scenario rejects the section
            part[key] = value
    return parse_scenario(raw)


def _add_run_overrides(parser):
    parser.add_argument("--controller", help=f"one of {', '.join(CONTROLLER_TYPES)}")
    parser.add_argument("--disturbance", help=f"one of {', '.join(DISTURBANCE_TYPES)}")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--duration", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--grid", type=int, metavar="POINTS_PER_DIM",
                        help="override grid resolution (2 gives a fast 512-node run)")


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    trace, metrics = run_simulation(cfg)
    if args.out:
        write_trace_csv(args.out, trace)
    if args.weights_out:
        if trace.final_theta is None:
            raise ConfigError("--weights-out requires a network-based controller")
        write_weight_csv(args.weights_out, AdaptiveWeights(trace.final_theta))
    print(_metrics_line(metrics))
    return 0


def _cmd_compare(args) -> int:
    traces = [read_trace_csv(path) for path in args.traces]
    try:
        report = compare_runs(traces, window=args.window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = report.format()
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_figures(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for controller, disturbance in FIGURE_SCENARIOS:
        args.controller = controller
        args.disturbance = disturbance
        cfg = _load_config(args)
        trace, metrics = run_simulation(cfg)
        name = f"{controller.replace('-', '_')}_{disturbance}.csv"
        write_trace_csv(outdir / name, trace)
        print(f"{name}: {_metrics_line(metrics)}")
    return 0


def _cmd_validate(args) -> int:
    load_scenario(args.config)
    print(f"{args.config}: ok")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("--config", help="scenario JSON (defaults used when omitted)")
    run.add_argument("--out", help="trace CSV output path")
    run.add_argument("--weights-out", help="final weight snapshot CSV path")
    run.add_argument("--decimate", type=int, help="log every Nth sample")
    _add_run_overrides(run)
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="compare recorded traces")
    compare.add_argument("traces", nargs="+", help="trace CSV files")
    compare.add_argument("--out", help="write the report to this path")
    compare.add_argument("--window", type=float, default=DEFAULT_TAIL_WINDOW_S,
                         help="steady-state window in seconds (default %(default)g)")
    compare.set_defaults(func=_cmd_compare)

    figures = sub.add_parser("figures", help="run the six canonical scenarios")
    figures.add_argument("--outdir", required=True, help="directory for the six trace CSVs")
    figures.add_argument("--config", help="base scenario JSON")
    figures.add_argument("--out", help=argparse.SUPPRESS)
    figures.add_argument("--weights-out", help=argparse.SUPPRESS)
    figures.add_argument("--decimate", type=int)
    _add_run_overrides(figures)
    figures.set_defaults(func=_cmd_figures)

    validate = sub.add_parser("validate", help="validate a scenario file")
    validate.add_argument("--config", required=True)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
