"""Command-line front end.

Subcommands: simulate, sweep, bode, mse, stability, reproduce.  Each
registers only the model flags its result reads; `reproduce` runs the
paper's frozen experiments and takes none.  Any argument beginning with
`@` names an argument file: its whitespace-separated arguments, up to a
`#` on each line, are read in its place.  Given flags, from the command
line or a file, override the built-in defaults; a flag given twice keeps
its later value.  Each command takes only the parsed `args`, resolves its
own parameters and hands them to one of the `experiments` writers.  Exit
codes: 0 success / stable verdict, 1 invalid arguments or a root solve
that fails its residual check, 2 unstable verdict of `stability`, 3
simulation divergence.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .artifacts import write_json
from .control import AdrcConfig, AdrcVariant, SimulationDiverged
from .experiments import (BODE_GRID, DEFAULT_PARAMS, EXPERIMENT_IDS, MSE_GRID,
                          bode_files, gain_scale_entry, mse_files,
                          run_experiment, stability_file, trajectory_files,
                          write_manifest)
from .freqdom import log_grid
from .plant import DisturbanceSignal

PARAM_HELP = {"a_o": "plant pole coefficient", "b_o": "true plant gain",
              "b": "controller's nominal gain",
              "mu": "fractional order in (0, 1)",
              "K": "outer-loop proportional gain",
              "omega_o": "observer bandwidth, rad/s",
              "Ts": "sample time, seconds",
              "horizon": "simulation length, seconds"}
PARAM_KEYS = (*PARAM_HELP, "variant")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number in any form float reads (-1e6, -inf, -NaN, -1_0)
        # is a value, not a flag
        digits = r"\d(_?\d)*"
        self._negative_number_matcher = re.compile(
            rf"^-(({digits}\.?({digits})?|\.{digits})(e[-+]?{digits})?"
            r"|inf(inity)?|nan)$", re.I)

    # argparse exits with 2 on bad flags; this front end reserves 2 for the
    # unstable verdict, so usage errors map to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def convert_arg_line_to_args(self, arg_line):
        # an argument file line: any number of arguments, then a comment
        return arg_line.split("#", 1)[0].split()


def _add_param_flags(p: argparse.ArgumentParser, keys=PARAM_KEYS) -> None:
    # `keys`: the parameters the command's result depends on
    for key in keys:
        if key == "variant":
            p.add_argument("--variant", choices=[v.value for v in AdrcVariant],
                           help="controller structure "
                                f"(default {AdrcConfig.variant.value})")
        else:
            p.add_argument(f"--{key}", type=float, help=PARAM_HELP[key])
    p.add_argument("--output-dir", default="results",
                   help="artifact root directory (default: results)")


def _add_grid_flags(p: argparse.ArgumentParser, grid: tuple) -> None:
    p.add_argument("--omega-min", type=float, default=grid[0])
    p.add_argument("--omega-max", type=float, default=grid[1])
    p.add_argument("--points-per-decade", type=int, default=grid[2])


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracadrc",
                     description="ADRC structures for fractional-order "
                                 "plants: simulation, stability, and "
                                 "estimation-error analysis.",
                     fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one closed-loop step run")
    _add_param_flags(p)
    p.add_argument("--setpoint", type=float, default=1.0,
                   help="constant reference value (default 1.0)")
    p.add_argument("--dist-kind", choices=DisturbanceSignal.KINDS,
                   default="zero", help="input disturbance shape")
    p.add_argument("--dist-amplitude", type=float, default=0.0)
    p.add_argument("--dist-frequency", type=float, default=0.0,
                   help="rad/s, sinusoid disturbance")
    p.add_argument("--dist-onset", type=float, default=0.0,
                   help="seconds, step disturbance")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="loop-gain or parameter grid of runs")
    _add_param_flags(p)
    p.add_argument("--param", required=True,
                   choices=["K", "omega_o", "mu", "a_o", "gain_scale"],
                   help="parameter to grid over; gain_scale scales b_o")
    p.add_argument("--values", required=True, nargs="+", type=float,
                   help="values of --param, one run each")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bode", help="compensated-object Bode CSVs")
    _add_param_flags(p, ("a_o", "b_o", "b", "mu", "omega_o"))
    _add_grid_flags(p, BODE_GRID)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("mse", help="estimation-error closed-form curves")
    _add_param_flags(p, ("a_o", "mu", "omega_o"))
    _add_grid_flags(p, MSE_GRID)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("stability", help="sector test of the closed loop "
                                         "(exit 0 stable, 2 unstable)")
    _add_param_flags(p, ("a_o", "b_o", "b", "mu", "K", "omega_o"))
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("reproduce", help="run the paper's frozen experiments")
    p.add_argument("experiment",
                   help=f"one of {', '.join(EXPERIMENT_IDS)}, or all")
    _add_param_flags(p, ())
    p.set_defaults(func=cmd_reproduce)
    return parser


def resolve_params(args) -> tuple[dict, AdrcConfig]:
    """The defaults overlaid with the given model flags of the command.
    Returns the command's parameters with their loop, each absent field at
    its default; building that AdrcConfig is the only check on them."""
    keys = [key for key in PARAM_KEYS if hasattr(args, key)]
    params = {**DEFAULT_PARAMS, "variant": AdrcConfig.variant.value,
              **{key: getattr(args, key) for key in keys
                 if getattr(args, key) is not None}}
    params = {key: params[key] for key in keys}
    return params, AdrcConfig(**params)


def cmd_simulate(args) -> int:
    params, cfg = resolve_params(args)
    point = {**params, **{key: value for key, value in vars(args).items()
                          if key == "setpoint" or key.startswith("dist_")}}
    outdir = Path(args.output_dir) / "simulate"
    files, [m] = trajectory_files(outdir, [("trajectory.csv", point)])
    write_manifest(outdir, point, files, command="simulate")
    t_end = (cfg.samples() - 1) * cfg.Ts
    settle = (f"did not settle within 2% by t={t_end:.4g}s"
              if math.isnan(m["settle_2pct_s"])
              else f"settle_2pct={m['settle_2pct_s']:.4g}s")
    rise = ("no 10-90% rise" if math.isnan(m["rise_10_90_s"])
            else f"rise_10_90={m['rise_10_90_s']:.4g}s")
    print(f"simulate: {params['variant']} {settle} "
          f"overshoot={m['overshoot_pct']:.3g}% ss_error={m['ss_error']:.3g} "
          f"{rise} comp_resid_rms={m['comp_resid_rms']:.4g}")
    print(f"wrote {outdir / 'trajectory.csv'}")
    return 0


def cmd_sweep(args) -> int:
    params, _ = resolve_params(args)
    if getattr(args, args.param, None) is not None:
        raise ValueError(f"'{args.param}' is given, but --param "
                         f"{args.param} runs only --values")
    entries = [gain_scale_entry(params, value) if args.param == "gain_scale"
               else (f"step_{args.param}_{value:g}.csv",
                     {**params, args.param: value})
               for value in args.values]
    names = [name for name, _ in entries]
    clashes = sorted({n for n in names if names.count(n) > 1})
    if clashes:  # values that would share a file
        raise ValueError(f"--values: more than one value would write "
                         f"{', '.join(clashes)}")
    outdir = Path(args.output_dir) / "sweep"
    files, _ = trajectory_files(outdir, entries)
    write_manifest(outdir, {**params, "param": args.param,
                            "values": args.values}, files, command="sweep")
    print(f"wrote {len(files)} trajectories under {outdir}")
    return 0


def cmd_curves(args) -> int:
    """`bode` and `mse`: the closed-form curves of the parameters over
    one frequency grid."""
    params, _ = resolve_params(args)
    grid = log_grid(args.omega_min, args.omega_max, args.points_per_decade)
    outdir = Path(args.output_dir) / args.command
    if args.command == "bode":
        files = bode_files(outdir, params, grid)
        wrote = f"{len(files)} Bode tables under {outdir}"
    else:
        files, _ = mse_files(outdir, grid, [("mse.csv", params)])
        wrote = outdir / "mse.csv"
    write_manifest(outdir, {**params, "omega_min": float(grid[0]),
                            "omega_max": float(grid[-1]),
                            "points_per_decade": args.points_per_decade},
                   files, command=args.command)
    print(f"wrote {wrote}")
    return 0


def cmd_stability(args) -> int:
    params, _ = resolve_params(args)
    outdir = Path(args.output_dir) / "stability"
    entry, report = stability_file(outdir, params)
    write_manifest(outdir, params, [entry], command="stability")
    verdict = "stable" if report.stable else "unstable"
    if report.marginal:
        verdict += " (marginal)"
    print(f"{verdict}: degree={report.degree} lambda={report.lam:.6g} "
          f"margin={report.margin:.6g} rad "
          f"(K={params['K']:g}, omega_o={params['omega_o']:g}, "
          f"mu={params['mu']:g}, a_o={params['a_o']:g}, "
          f"b={params['b']:g}, b_o={params['b_o']:g})")
    print(f"wrote {outdir / 'stability_report.json'}")
    return 0 if report.stable else 2


def cmd_reproduce(args) -> int:
    ids = list(EXPERIMENT_IDS) if args.experiment == "all" \
        else [args.experiment]
    manifests = []
    runs: dict = {}  # each distinct loop is simulated once per invocation
    for exp_id in ids:
        manifest = run_experiment(exp_id, args.output_dir, runs=runs)
        manifests.append(manifest)
        print(f"{exp_id}: {len(manifest['files'])} artifacts under "
              f"{manifest['directory']}")
    if args.experiment == "all":
        write_json(Path(args.output_dir) / "manifest.json",
                   {"command": "reproduce all",
                    "experiments": [{"experiment": m["experiment"],
                                     "manifest": str(Path(m["directory"]) /
                                                     "manifest.json")}
                                    for m in manifests]})
    return 0


def main(argv=None) -> int:
    try:
        # parsing reads the argument files, which may not decode
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"fracadrc: error: {exc}", file=sys.stderr)
        return 1
    except SimulationDiverged as exc:
        print(f"fracadrc: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
