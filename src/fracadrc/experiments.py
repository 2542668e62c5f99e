"""Scripted reproduction harness.

Each experiment id maps to one study: estimation-error MSE curves and their
parameter families, Bode comparisons of the compensated objects, the
stability report of the reference configuration, and the step-response /
loop-gain-robustness simulation batteries.  Artifacts land under
<output_dir>/<experiment_id>/ as CSV plus a JSON manifest and a
metrics table, metrics.csv, computed from the results still in memory;
`summarize` derives the same table from a manifest on disk.  Four
writers, `trajectory_files`, `mse_files`, `bode_files` and
`stability_file`, compute and write every artifact; the experiments and
the CLI's commands only choose their parameters, one dict per artifact.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import float_cells, write_json, write_rows
from .control import AdrcConfig, AdrcVariant, Trajectory, run_closed_loop
from .freqdom import (bode, g_ifio, g_io, log_grid, mse_ifio, mse_io,
                      write_bode_csv, write_mse_csv)
from .plant import DisturbanceSignal
from .stability import StabilityReport, loop_sector_test

# Reference bench parameters shared by the simulation experiments and the
# CLI defaults: AdrcConfig's fields but the first, variant.
LOOP_KEYS = tuple(field.name for field in fields(AdrcConfig))
DEFAULT_PARAMS = {key: getattr(AdrcConfig, key) for key in LOOP_KEYS[1:]}
TRAJECTORY_KEYS = {*LOOP_KEYS, "setpoint", "gain_scale",
                   *("dist_" + f.name for f in fields(DisturbanceSignal))}

# Estimation-error studies run at a higher observer bandwidth where the
# integer/fractional contrast is pronounced.
MSE_BASE = {"a_o": 10.0, "omega_o": 1600.0, "mu": 0.6}
MSE_GRID = (1.0, 1e5, 60)          # omega span (rad/s) and points/decade
MSE_GRID_PARAMS = {"omega_min": MSE_GRID[0], "omega_max": MSE_GRID[1],
                   "points_per_decade": MSE_GRID[2]}
MSE_FAMILIES = {
    "fig5": ("mu", (0.4, 0.6, 0.8)),
    "fig6": ("a_o", (5.0, 10.0, 20.0)),
    "fig7": ("omega_o", (800.0, 1600.0, 3200.0)),
}
BODE_MUS = {"fig8": 0.6, "fig9": 0.9}
BODE_GRID = (0.1, 1e5, 60)
BODE_TRANSFERS = {"io": g_io, "ifio": g_ifio}
LOOP_GAIN_SCALES = (0.5, 1.0, 2.0)
LOOP_GAIN_VARIANTS = {
    "fig12": AdrcVariant.IADRC,
    "fig13": AdrcVariant.FADRC,
    "fig14": AdrcVariant.IFADRC,
}

EXPERIMENT_IDS = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                  "fig11", "fig12", "fig13", "fig14")

TRANSIENT_WINDOW = 0.2  # s, window for the compensation-residual RMS


def write_manifest(outdir: Path, parameters: dict, files: list[dict],
                   **label) -> dict:
    """Write and return <outdir>/manifest.json: the `label` entries
    (experiment= or command=), the directory, the parameters and the
    artifact entries."""
    manifest = {**label, "directory": str(outdir), "parameters": parameters,
                "files": files}
    write_json(outdir / "manifest.json", manifest)
    return manifest


def trajectory_files(outdir: Path, entries: list[tuple[str, dict]], *,
                     runs: dict | None = None
                     ) -> tuple[list[dict], list[dict]]:
    """Write one trajectory CSV per (file name, parameters) entry under
    `outdir`; returns their manifest entries and their metrics.

    The parameters, which the manifest records, are all a run reads:
    AdrcConfig's fields, the reference `setpoint` (default 1.0),
    DisturbanceSignal's fields prefixed `dist_` and `gain_scale`, run as
    true plant gain b_o * gain_scale.  Any other key, a scale not positive
    and finite, or a zero or non-finite b_o * gain_scale from a valid b_o
    raises ValueError before any run.  Each loop run
    is keyed in `runs` (key -> (metrics, CSV path)) by its sorted items:
    simulated once, before `outdir` is made, then copied from its CSV."""
    runs, keys, loops = {} if runs is None else runs, [], {}
    for point in [dict(parameters) for _, parameters in entries]:
        scale = point.pop("gain_scale", 1.0)
        if set(point) - TRAJECTORY_KEYS:
            raise ValueError(f"unknown trajectory parameters "
                             f"{sorted(set(point) - TRAJECTORY_KEYS)}")
        if not 0.0 < scale < np.inf:
            raise ValueError(f"gain_scale must be positive and finite, "
                             f"got {scale}")
        b_o = point.get("b_o", AdrcConfig.b_o)
        point["b_o"] = b_o * scale
        if 0.0 < abs(b_o) < np.inf and not 0.0 < abs(point["b_o"]) < np.inf:
            raise ValueError(f"b_o {b_o} times gain_scale {scale} is "
                             f"{point['b_o']}, not a nonzero finite gain")
        keys.append(tuple(sorted(point.items())))
        loops[keys[-1]] = (AdrcConfig(**{k: v for k, v in point.items()
                                         if k in LOOP_KEYS}),
                           point.get("setpoint", 1.0),
                           DisturbanceSignal(**{k.removeprefix("dist_"): v
                                                for k, v in point.items()
                                                if k.startswith("dist_")}))
    new = {key: run_closed_loop(cfg, v_d=v, d=d)
           for key, (cfg, v, d) in loops.items() if key not in runs}
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for key, (name, parameters) in zip(keys, entries):
        if key in runs:
            shutil.copyfile(runs[key][1], outdir / name)
        else:
            traj = new.pop(key)
            traj.to_csv(outdir / name)
            runs[key] = _metrics("trajectory", traj), outdir / name
        files.append({"path": name, "kind": "trajectory",
                      "parameters": parameters})
    return files, [runs[key][0] for key in keys]


def gain_scale_entry(point: dict, scale: float) -> tuple[str, dict]:
    """Trajectory entry of loop `point` (with `variant`) at gain scale
    `scale`: trajectory_files runs the true plant gain b_o * scale."""
    return (f"step_{point['variant']}_scale_{scale:g}.csv",
            {**point, "gain_scale": scale})


def mse_files(outdir: Path, grid: np.ndarray, entries: list[tuple[str, dict]]
              ) -> tuple[list[dict], list[dict]]:
    """Write one estimation-error CSV per (file name, parameters) entry
    under `outdir`: both closed-form curves (e_io, e_ifio) at its a_o, mu
    and omega_o over `grid`, every one computed before `outdir` is made.
    Returns their manifest entries and their metrics."""
    args = [(p["a_o"], p["mu"], p["omega_o"]) for _, p in entries]
    curves = [(mse_io(grid, *a), mse_ifio(grid, *a)) for a in args]
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for (name, parameters), pair in zip(entries, curves):
        write_mse_csv(outdir / name, grid, *pair)
        files.append({"path": name, "kind": "mse", "parameters": parameters})
    return files, [_metrics("mse", pair) for pair in curves]


def bode_files(outdir: Path, params: dict, grid: np.ndarray) -> list[dict]:
    """Write bode_g_<tag>.csv for each compensated object of
    BODE_TRANSFERS, every curve computed before `outdir` is made; returns
    their manifest entries."""
    curves = {tag: bode(partial(g, params["a_o"], params["b_o"], params["b"],
                                params["mu"], params["omega_o"]), grid)
              for tag, g in BODE_TRANSFERS.items()}
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for tag, (mag, phase) in curves.items():
        name = f"bode_g_{tag}.csv"
        write_bode_csv(outdir / name, grid, mag, phase)
        files.append({"path": name, "kind": "bode",
                      "parameters": {**params, "transfer": f"g_{tag}"}})
    return files


def stability_file(outdir: Path,
                   params: dict) -> tuple[dict, StabilityReport]:
    """Sector-test the loop of `params` (AdrcConfig's fields, each absent
    one at its default) and write <outdir>/stability_report.json, made
    only once the test has its verdict.  Returns the report's manifest
    entry and the report."""
    poly, report = loop_sector_test(AdrcConfig(**params))
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "stability_report.json", report.to_dict())
    return ({"path": "stability_report.json", "kind": "stability_report",
             "parameters": {**params, "p": poly.p, "q_den": poly.q_den}},
            report)


def run_experiment(exp_id: str, output_dir: str | Path = "results", *,
                   runs: dict | None = None) -> dict:
    """Execute one experiment; returns the manifest (also written to disk).

    Every experiment runs its own frozen parameters.  `runs` is shared by
    the experiments of one invocation so that each distinct loop is
    simulated once (see `trajectory_files`): fig12-fig14 copy fig11's CSV
    for their scale-1 loop.
    """
    if exp_id not in EXPERIMENT_IDS:
        raise ValueError(f"unknown experiment id {exp_id!r}")
    params = DEFAULT_PARAMS
    runs = {} if runs is None else runs
    outdir = Path(output_dir) / exp_id
    metrics: list[dict] = []  # of each trajectory/MSE file, for metrics.csv

    if exp_id == "fig4":
        files, metrics = mse_files(outdir, log_grid(*MSE_GRID), [
            ("mse.csv", {**MSE_BASE, **MSE_GRID_PARAMS})])
        manifest_params = dict(MSE_BASE)

    elif exp_id in MSE_FAMILIES:
        key, values = MSE_FAMILIES[exp_id]
        files, metrics = mse_files(outdir, log_grid(*MSE_GRID), [
            (f"mse_{key}_{v:g}.csv", {**MSE_BASE, key: v, **MSE_GRID_PARAMS})
            for v in values])
        manifest_params = {**MSE_BASE, "family": key, "values": list(values)}

    elif exp_id in BODE_MUS:
        params = {**MSE_BASE, "mu": BODE_MUS[exp_id], "b": 1.0, "b_o": 1.0}
        files = bode_files(outdir, params, log_grid(*BODE_GRID))
        manifest_params = params

    elif exp_id == "fig10":
        files = [stability_file(outdir, params)[0]]
        manifest_params = params

    elif exp_id == "fig11":
        files, metrics = trajectory_files(outdir, [
            (f"step_{v.value}.csv", {**params, "variant": v.value})
            for v in AdrcVariant], runs=runs)
        manifest_params = params

    else:  # fig12-fig14
        point = {**params, "variant": LOOP_GAIN_VARIANTS[exp_id].value}
        files, metrics = trajectory_files(outdir, [gain_scale_entry(
            point, scale) for scale in LOOP_GAIN_SCALES], runs=runs)
        manifest_params = {**point, "scales": list(LOOP_GAIN_SCALES)}

    manifest = write_manifest(outdir, manifest_params, files,
                              experiment=exp_id)
    _write_metrics(outdir, files, metrics)
    return manifest


def step_metrics(t: np.ndarray, y: np.ndarray, v_d: np.ndarray,
                 u0: np.ndarray, Ts: float) -> dict:
    """Step-response quality numbers for one trajectory.

    overshoot (% of target), 2%-band settling time, relative steady-state
    error, 10-90% rise time, and the RMS of the compensation residual
    ydot - u0 over the transient window.  The settling time is NaN if the
    last sample is still outside the band, the rise time if the output
    never crosses 10% or 90%.  An identically zero trajectory reports all
    zeros.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    v_d = np.asarray(v_d, dtype=float)
    Ts = float(Ts)
    target = float(v_d[-1])
    scale = abs(target) if target != 0.0 else float(np.max(np.abs(y)))
    if scale == 0.0:
        out = {"overshoot_pct": 0.0, "settle_2pct_s": 0.0, "ss_error": 0.0,
               "rise_10_90_s": 0.0}
    else:
        sign = 1.0 if target >= 0.0 else -1.0
        overshoot = max(0.0, float(sign * (np.max(sign * y) - target)) / scale)
        outside = np.abs(y - target) > 0.02 * scale
        # NaN when the run ends outside the band: it has not settled
        settle = (float("nan") if outside[-1] else 0.0 if not outside.any()
                  else float(t[np.max(np.nonzero(outside))] + Ts))
        above10 = np.nonzero(sign * y >= 0.1 * scale)[0]
        above90 = np.nonzero(sign * y >= 0.9 * scale)[0]
        rise = float("nan")
        if above10.size and above90.size:
            rise = float(t[above90[0]] - t[above10[0]])
        out = {"overshoot_pct": 100.0 * overshoot,
               "settle_2pct_s": settle,
               "ss_error": float(abs(y[-1] - target)) / scale,
               "rise_10_90_s": rise}
    window = t <= TRANSIENT_WINDOW
    resid = np.gradient(y, Ts)[window] - np.asarray(u0, float)[window]
    out["comp_resid_rms"] = float(np.sqrt(np.mean(resid * resid)))
    return out


# artifact kinds that get a row in metrics.csv
METRIC_KINDS = ("trajectory", "mse")


def _metrics(kind: str, data) -> dict:
    """Metrics of one trajectory or MSE artifact from its data: a
    Trajectory gives its step_metrics, an (e_io, e_ifio) pair of curves
    the peak ratio max_mse_ratio."""
    if kind == "trajectory":
        return step_metrics(data.t, data.y, data.v_d, data.u0, data.Ts)
    e_io, e_ifio = data
    # inf where e_ifio is 0 (everywhere at a_o = 0) or below e_io by more
    # than the float range, NaN where both are 0
    with np.errstate(all="ignore"):
        return {"max_mse_ratio": float(np.max(e_io / e_ifio))}


def _write_metrics(outdir: Path, files: list[dict],
                   metrics: list[dict]) -> list[dict]:
    """Metrics row of each trajectory/MSE entry of `files`, in order, from
    its `metrics`; written as <outdir>/metrics.csv.  Returns the rows."""
    rows = [{"artifact": entry["path"], "kind": entry["kind"], **row}
            for entry, row in zip([entry for entry in files if entry["kind"]
                                   in METRIC_KINDS], metrics, strict=True)]
    columns = ["artifact", "kind", "overshoot_pct", "settle_2pct_s",
               "ss_error", "rise_10_90_s", "comp_resid_rms", "max_mse_ratio"]
    numbers = {(i, c): row[c] for i, row in enumerate(rows) for c in columns
               if isinstance(row.get(c), (int, float, np.floating))}
    texts = dict(zip(numbers, float_cells(list(numbers.values()))))
    write_rows(outdir / "metrics.csv", columns,
               [[texts.get((i, c), str(row.get(c, ""))) for c in columns]
                for i, row in enumerate(rows)])
    return rows


def _read_artifact(path: Path, kind: str):
    if kind == "trajectory":
        return Trajectory.from_csv(path)
    table = np.genfromtxt(path, delimiter=",", names=True)
    return table["e_io"], table["e_ifio"]


def summarize(manifest: dict | str | Path) -> list[dict]:
    """Metrics table of a manifest's trajectory/MSE artifacts, read back
    from disk.

    Written as metrics.csv beside the manifest, with the same bytes
    run_experiment wrote from memory.  A manifest path is read in its own
    directory; a manifest dict in its "directory".  Returns the rows.
    """
    if isinstance(manifest, dict):
        outdir = Path(manifest["directory"])
    else:
        outdir = Path(manifest).parent
        with open(manifest) as fh:
            manifest = json.load(fh)
    metrics = [_metrics(entry["kind"], _read_artifact(outdir / entry["path"],
                                                      entry["kind"]))
               for entry in manifest["files"] if entry["kind"] in METRIC_KINDS]
    return _write_metrics(outdir, manifest["files"], metrics)
