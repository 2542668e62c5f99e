"""Command-line front end.

Subcommands: simulate, sweep, bode, mse, stability, reproduce.  Each
registers only the model flags its result reads, and its config file takes
only their keys; `reproduce` runs the paper's frozen experiments and takes
neither.  Parameters resolve in three layers: built-in defaults,
then a flat `key = value` config file (--config), then explicit flags.
Exit codes: 0 success / stable verdict, 1 invalid arguments or a root
solve that fails its residual check, 2 unstable verdict of `stability`,
3 simulation divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .artifacts import write_json
from .control import (AdrcConfig, AdrcVariant, SimulationDiverged,
                      run_closed_loop)
from .experiments import (BODE_GRID, DEFAULT_PARAMS, EXPERIMENT_IDS, MSE_GRID,
                          bode_files, gain_scale_entry, make_loop, mse_files,
                          run_experiment, stability_file, step_metrics,
                          trajectory_files, write_manifest)
from .freqdom import log_grid
from .plant import DisturbanceSignal, FracPlant
from .stability import loop_sector_test

PARAM_KEYS = (*DEFAULT_PARAMS, "variant")
VARIANTS = [v.value for v in AdrcVariant]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this front end reserves 2 for the
    # unstable verdict, so usage errors map to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_param_flags(p: argparse.ArgumentParser, keys=PARAM_KEYS) -> None:
    # `keys`: the parameters the command's result depends on; a command
    # that reads none takes no --config either
    if keys:
        p.add_argument("--config", metavar="FILE",
                       help="flat 'key = value' file of these flags' keys; "
                            "flags override it")
    helps = {"a_o": "plant pole coefficient", "b_o": "true plant gain",
             "b": "controller's nominal gain",
             "mu": "fractional order in (0, 1)",
             "K": "outer-loop proportional gain",
             "omega_o": "observer bandwidth, rad/s",
             "Ts": "sample time, seconds",
             "horizon": "simulation length, seconds"}
    for key in keys:
        if key == "variant":
            p.add_argument("--variant", choices=VARIANTS,
                           help="controller structure "
                                f"(default {AdrcConfig.variant.value})")
        else:
            p.add_argument(f"--{key}", type=float, help=helps[key])
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
                                 "estimation-error analysis.")
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
    p.add_argument("--scales", help="comma list of plant-gain scales")
    p.add_argument("--param", choices=["K", "omega_o", "mu", "a_o"],
                   help="parameter to grid over")
    p.add_argument("--values", help="comma list of values for --param")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bode", help="compensated-object Bode CSVs")
    _add_param_flags(p, ("a_o", "b_o", "b", "mu", "omega_o"))
    _add_grid_flags(p, BODE_GRID)
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("mse", help="estimation-error closed-form curves")
    _add_param_flags(p, ("a_o", "mu", "omega_o"))
    _add_grid_flags(p, MSE_GRID)
    p.set_defaults(func=cmd_mse)

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


def load_config_file(path, keys, command: str) -> dict:
    out, set_on = {}, {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        at = f"{path}:{lineno}"
        if not eq:
            raise ValueError(f"{at}: expected 'key = value'")
        if key not in keys:
            raise ValueError(f"{at}: {command} takes no config key '{key}'")
        if key in set_on:
            raise ValueError(f"{at}: '{key}' is already set on line "
                             f"{set_on[key]}")
        set_on[key] = lineno
        try:
            out[key] = (AdrcVariant(value.lower()).value if key == "variant"
                        else float(value))
        except ValueError:
            raise ValueError(f"{at}: invalid value for '{key}': {value!r}"
                             + (f" (choose from {', '.join(VARIANTS)})"
                                if key == "variant" else ""))
    return out


def resolve_params(args) -> tuple[dict, AdrcConfig, FracPlant]:
    """Defaults, then the --config file, then the flags, for the keys of
    the command's model flags.  Every given value is left on `args`.
    Returns the command's parameters with the config and plant of the
    full loop; their constructors are the only check on the values."""
    keys = [key for key in PARAM_KEYS if hasattr(args, key)]
    given = load_config_file(args.config, keys, args.command) \
        if getattr(args, "config", None) else {}
    given.update((key, getattr(args, key)) for key in keys
                 if getattr(args, key) is not None)
    vars(args).update(given)
    params = {**DEFAULT_PARAMS, "variant": AdrcConfig.variant.value, **given}
    return ({key: params[key] for key in keys}, *make_loop(params))


def cmd_simulate(args, params: dict, cfg: AdrcConfig,
                 plant: FracPlant) -> int:
    # a nonzero field that the kind does not read fails here, before any run
    dist = DisturbanceSignal(args.dist_kind, args.dist_amplitude,
                             args.dist_frequency, args.dist_onset)
    traj = run_closed_loop(cfg, plant, v_d=args.setpoint, d=dist)
    outdir = Path(args.output_dir) / "simulate"
    outdir.mkdir(parents=True, exist_ok=True)
    meta = {**params, "setpoint": args.setpoint,
            "dist_kind": args.dist_kind,
            "dist_amplitude": args.dist_amplitude,
            "dist_frequency": args.dist_frequency,
            "dist_onset": args.dist_onset}
    traj.to_csv(outdir / "trajectory.csv")
    write_manifest(outdir, meta, [{"path": "trajectory.csv",
                                   "kind": "trajectory", "parameters": meta}],
                   command="simulate")
    m = step_metrics(traj.t, traj.y, traj.v_d, traj.u0, traj.Ts)
    settle = m["settle_2pct_s"]
    settle = (f"did not settle within 2% by t={traj.t[-1]:.4g}s"
              if math.isnan(settle) else f"settle_2pct={settle:.4g}s")
    rise = m["rise_10_90_s"]
    rise = ("no 10-90% rise" if math.isnan(rise)
            else f"rise_10_90={rise:.4g}s")
    print(f"simulate: {params['variant']} {settle} "
          f"overshoot={m['overshoot_pct']:.3g}% ss_error={m['ss_error']:.3g} "
          f"{rise} comp_resid_rms={m['comp_resid_rms']:.4g}")
    print(f"wrote {outdir / 'trajectory.csv'}")
    return 0


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"invalid value for '{flag}': {raw!r}")
    if not values:
        raise ValueError(f"'{flag}' must list at least one value")
    return values


def _check_file_names(names: list[str], flag: str) -> None:
    """`names` has one file per value of --flag; values that would share a
    file fail."""
    clashes = sorted({n for n in names if names.count(n) > 1})
    if clashes:
        raise ValueError(f"--{flag}: more than one value would write "
                         f"{', '.join(clashes)}")


def cmd_sweep(args, params: dict, cfg: AdrcConfig, plant: FracPlant) -> int:
    if args.scales and not (args.param or args.values):
        scales = _parse_float_list(args.scales, "scales")
        if any(s <= 0.0 for s in scales):
            raise ValueError(f"scales must be positive, got {scales}")
        entries = [gain_scale_entry(params, scale) for scale in scales]
        _check_file_names([name for name, _, _ in entries], "scales")
        meta = {**params, "scales": scales}
    elif args.param and args.values and not args.scales:
        if getattr(args, args.param) is not None:
            raise ValueError(f"'{args.param}' is given, but --param "
                             f"{args.param} runs only --values")
        values = _parse_float_list(args.values, "values")
        names = [f"step_{args.param}_{value:g}.csv" for value in values]
        _check_file_names(names, "values")
        points = [{**params, args.param: value} for value in values]
        entries = list(zip(names, points, points))
        meta = {**params, "param": args.param, "values": values}
    else:
        raise ValueError("sweep takes either --scales, or --param with "
                         "--values, but not both")
    outdir = Path(args.output_dir) / "sweep"
    files = trajectory_files(outdir, {}, {}, entries)
    write_manifest(outdir, meta, files, command="sweep")
    print(f"wrote {len(files)} trajectories under {outdir}")
    return 0


def cmd_bode(args, params: dict, cfg: AdrcConfig, plant: FracPlant) -> int:
    grid = log_grid(args.omega_min, args.omega_max, args.points_per_decade)
    outdir = Path(args.output_dir) / "bode"
    files = bode_files(outdir, params, grid)
    write_manifest(outdir, {**params, "omega_min": float(grid[0]),
                            "omega_max": float(grid[-1]),
                            "points_per_decade": args.points_per_decade},
                   files, command="bode")
    print(f"wrote {len(files)} Bode tables under {outdir}")
    return 0


def cmd_mse(args, params: dict, cfg: AdrcConfig, plant: FracPlant) -> int:
    grid = log_grid(args.omega_min, args.omega_max, args.points_per_decade)
    outdir = Path(args.output_dir) / "mse"
    files = mse_files(outdir, {}, grid, [("mse.csv", params)])
    write_manifest(outdir, {**params, "omega_min": float(grid[0]),
                            "omega_max": float(grid[-1]),
                            "points_per_decade": args.points_per_decade},
                   files, command="mse")
    print(f"wrote {outdir / 'mse.csv'}")
    return 0


def cmd_stability(args, params: dict, cfg: AdrcConfig,
                  plant: FracPlant) -> int:
    outdir = Path(args.output_dir) / "stability"
    poly, report = loop_sector_test(cfg, plant)
    entry = stability_file(outdir, poly, report, params)
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


def cmd_reproduce(args, params: dict, cfg: AdrcConfig,
                  plant: FracPlant) -> int:
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
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, *resolve_params(args))
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"fracadrc: error: {exc}", file=sys.stderr)
        return 1
    except SimulationDiverged as exc:
        print(f"fracadrc: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
