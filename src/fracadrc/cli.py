"""Command-line front end.

Subcommands: simulate, sweep, bode, mse, stability, reproduce.  Parameters
resolve in three layers: built-in defaults, then a flat `key = value`
config file (--config), then explicit flags.  Exit codes: 0 success /
stable verdict, 1 invalid arguments or a root solve that fails its
residual check, 2 unstable verdict, 3 simulation divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifacts import write_json
from .control import (AdrcConfig, AdrcVariant, SimulationDiverged,
                      run_closed_loop)
from .experiments import (BODE_GRID, DEFAULT_PARAMS, EXPERIMENT_IDS, MSE_GRID,
                          UnstableConfigError, bode_files, gain_scale_entry,
                          make_loop, mse_curves, mse_file, run_experiment,
                          step_metrics, trajectory_files, write_manifest)
from .freqdom import log_grid
from .plant import DisturbanceSignal, FracPlant
from .stability import loop_sector_test

PARAM_KEYS = (*DEFAULT_PARAMS, "variant")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this front end reserves 2 for the
    # unstable verdict, so usage errors map to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="flat 'key = value' parameter file; flags override it")
    p.add_argument("--a_o", type=float, help="plant pole coefficient")
    p.add_argument("--b_o", type=float, help="true plant gain")
    p.add_argument("--b", type=float, help="controller's nominal gain")
    p.add_argument("--mu", type=float, help="fractional order in (0, 1)")
    p.add_argument("--K", type=float, help="outer-loop proportional gain")
    p.add_argument("--omega_o", type=float, help="observer bandwidth, rad/s")
    p.add_argument("--Ts", type=float, help="sample time, seconds")
    p.add_argument("--horizon", type=float, help="simulation length, seconds")
    p.add_argument("--variant", choices=[v.value for v in AdrcVariant],
                   help="controller structure "
                        f"(default {AdrcConfig.variant.value})")
    p.add_argument("--output-dir", default="results",
                   help="artifact root directory (default: results)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-min", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--points-per-decade", type=int, default=60)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracadrc",
                     description="ADRC structures for fractional-order "
                                 "plants: simulation, stability, and "
                                 "estimation-error analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[], help="one closed-loop step run")
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
    _add_param_flags(p)
    _add_grid_flags(p)
    p.add_argument("--which", choices=["io", "ifio", "both"], default="both")
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("mse", help="estimation-error closed-form curves")
    _add_param_flags(p)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_mse)

    p = sub.add_parser("stability", help="sector test of the closed loop "
                                         "(exit 0 stable, 2 unstable)")
    _add_param_flags(p)
    p.add_argument("--report", metavar="FILE",
                   help="also write the JSON stability report here")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("reproduce", help="run stored experiments")
    _add_param_flags(p)
    p.add_argument("experiment",
                   help=f"one of {', '.join(EXPERIMENT_IDS)}, custom, or all")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "variant":
        return raw.lower()
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"invalid value for '{key}': {raw!r}")


def load_config_file(path) -> dict:
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        out[key] = _parse_value(key, value)
    return out


def resolve_params(args) -> tuple[dict, AdrcConfig, FracPlant]:
    """Defaults, then the --config file, then the flags.  Returns the
    parameters with the config and plant built from them; their
    constructors are the only check on the values."""
    params = {**DEFAULT_PARAMS, "variant": AdrcConfig.variant.value}
    if getattr(args, "config", None):
        params.update(load_config_file(args.config))
    for key in PARAM_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return (params, *make_loop(params))


def _grid_from(args, default_min: float, default_max: float):
    lo = args.omega_min if args.omega_min is not None else default_min
    hi = args.omega_max if args.omega_max is not None else default_max
    return log_grid(lo, hi, args.points_per_decade)


def cmd_simulate(args, params: dict, cfg: AdrcConfig,
                 plant: FracPlant) -> int:
    # each kind reads only its own fields
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
    print(f"simulate: {params['variant']} settle_2pct={m['settle_2pct_s']:.4g}s "
          f"overshoot={m['overshoot_pct']:.3g}% ss_error={m['ss_error']:.3g}")
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
    grid = _grid_from(args, *BODE_GRID[:2])
    outdir = Path(args.output_dir) / "bode"
    tags = ("io", "ifio") if args.which == "both" else (args.which,)
    files = bode_files(outdir, params, grid, tags)
    write_manifest(outdir, {**params, "which": args.which,
                            "omega_min": float(grid[0]),
                            "omega_max": float(grid[-1]),
                            "points_per_decade": args.points_per_decade},
                   files, command="bode")
    print(f"wrote {len(files)} Bode tables under {outdir}")
    return 0


def cmd_mse(args, params: dict, cfg: AdrcConfig, plant: FracPlant) -> int:
    if params["b"] != params["b_o"]:
        raise ValueError("invalid value for 'b': closed-form estimation-error "
                         "curves require matched gain b = b_o")
    grid = _grid_from(args, *MSE_GRID[:2])
    curves = mse_curves(grid, params)
    outdir = Path(args.output_dir) / "mse"
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(outdir, {**params, "omega_min": float(grid[0]),
                            "omega_max": float(grid[-1]),
                            "points_per_decade": args.points_per_decade},
                   [mse_file(outdir, "mse.csv", grid, curves, params)],
                   command="mse")
    print(f"wrote {outdir / 'mse.csv'}")
    return 0


def cmd_stability(args, params: dict, cfg: AdrcConfig,
                  plant: FracPlant) -> int:
    _, report = loop_sector_test(cfg, plant)
    verdict = "stable" if report.stable else "unstable"
    if report.marginal:
        verdict += " (marginal)"
    print(f"{verdict}: degree={report.degree} lambda={report.lam:.6g} "
          f"margin={report.margin:.6g} rad "
          f"(K={params['K']:g}, omega_o={params['omega_o']:g}, "
          f"mu={params['mu']:g}, a_o={params['a_o']:g}, "
          f"b={params['b']:g}, b_o={params['b_o']:g})")
    if args.report:
        write_json(args.report, report.to_dict())
        print(f"wrote {args.report}")
    return 0 if report.stable else 2


def cmd_reproduce(args, params: dict, cfg: AdrcConfig,
                  plant: FracPlant) -> int:
    given = [f"--{key}" for key in ("config", *PARAM_KEYS)
             if getattr(args, key) is not None]
    if given and args.experiment in (*EXPERIMENT_IDS, "all"):
        raise ValueError(f"reproduce {args.experiment} runs its own fixed "
                         f"parameters; only 'reproduce custom' takes "
                         f"{', '.join(given)}")
    ids = list(EXPERIMENT_IDS) if args.experiment == "all" \
        else [args.experiment]
    manifests = []
    runs: dict = {}  # each distinct loop is simulated once per invocation
    for exp_id in ids:
        # custom runs the resolved parameters
        manifest = run_experiment(exp_id, args.output_dir,
                                  params if exp_id == "custom" else None,
                                  runs=runs)
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
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"fracadrc: error: {exc}", file=sys.stderr)
        return 1
    except SimulationDiverged as exc:
        print(f"fracadrc: {exc}", file=sys.stderr)
        return 3
    except UnstableConfigError as exc:
        print(f"fracadrc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
