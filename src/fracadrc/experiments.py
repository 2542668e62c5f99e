"""Scripted reproduction harness.

Each experiment id maps to one study: estimation-error MSE curves and their
parameter families, Bode comparisons of the compensated objects, the
stability report of the reference configuration, and the step-response /
loop-gain-robustness simulation batteries.  Artifacts land under
<output_dir>/<experiment_id>/ as CSV plus a JSON manifest and a
metrics table, metrics.csv, computed from the results still in memory;
`summarize` derives the same table from a manifest on disk.  The CLI
builds its loops and writes its artifacts and manifests with the same
helpers.
"""

from __future__ import annotations

import json
import shutil
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import float_cells, write_json, write_rows
from .control import AdrcConfig, AdrcVariant, Trajectory, run_closed_loop
from .freqdom import (bode, g_ifio, g_io, log_grid, mse_ifio, mse_io,
                      write_bode_csv, write_mse_csv)
from .plant import FracPlant
from .stability import StabilityReport, loop_sector_test

# Reference bench parameters shared by the simulation experiments and the
# CLI defaults: plant 1/(s**0.8 + 10) at 8 kHz, K = 150, omega_o = 400.
DEFAULT_PARAMS = {
    "a_o": 10.0,
    "b_o": 1.0,
    "b": 1.0,
    "mu": 0.8,
    "K": 150.0,
    "omega_o": 400.0,
    "Ts": 1.0 / 8000.0,
    "horizon": 1.0,
}

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


class UnstableConfigError(RuntimeError):
    """Custom experiment rejected because the sector test failed."""

    def __init__(self, report):
        super().__init__(f"configuration is unstable "
                         f"(sector margin {report.margin:.6g})")
        self.report = report


def make_loop(params: dict) -> tuple[AdrcConfig, FracPlant]:
    """Controller config and fresh plant for one parameter set.

    `params` holds the DEFAULT_PARAMS keys and may hold `variant`
    (AdrcConfig's default when absent).  The AdrcConfig and FracPlant
    constructors are the only check on the values.
    """
    cfg = AdrcConfig(variant=params.get("variant", AdrcConfig.variant),
                     K=params["K"], omega_o=params["omega_o"], b=params["b"],
                     Ts=params["Ts"], horizon=params["horizon"])
    plant = FracPlant(params["a_o"], params["b_o"], params["mu"], params["Ts"])
    return cfg, plant


def write_manifest(outdir: Path, parameters: dict, files: list[dict],
                   **label) -> dict:
    """Write and return <outdir>/manifest.json: the `label` entries
    (experiment= or command=), the directory, the parameters and the
    artifact entries."""
    manifest = {**label, "directory": str(outdir), "parameters": parameters,
                "files": files}
    write_json(outdir / "manifest.json", manifest)
    return manifest


def trajectory_files(outdir: Path, runs: dict, data: dict,
                     entries: list[tuple[str, dict, dict]]) -> list[dict]:
    """Write one trajectory CSV per (file name, loop point, manifest
    parameters) entry under `outdir`; returns their manifest entries.

    A loop point (DEFAULT_PARAMS keys and `variant`) is keyed in `runs`
    (key -> (metrics, CSV path)) by its sorted items.  A loop already
    there is copied from its CSV; every other is simulated before `outdir`
    is made, then written and recorded, and its Trajectory dropped.  `data`
    gets each file's metrics, for metrics.csv.
    """
    keys = [tuple(sorted(point.items())) for _, point, _ in entries]
    loops = {key: make_loop(point)  # checks every point before any run
             for key, (_, point, _) in zip(keys, entries) if key not in runs}
    new = {key: run_closed_loop(*loop) for key, loop in loops.items()}
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for key, (name, _, parameters) in zip(keys, entries):
        if key in runs:
            shutil.copyfile(runs[key][1], outdir / name)
        else:
            traj = new.pop(key)
            traj.to_csv(outdir / name)
            runs[key] = _metrics("trajectory", traj), outdir / name
        data[name] = runs[key][0]
        files.append({"path": name, "kind": "trajectory",
                      "parameters": parameters})
    return files


def gain_scale_entry(point: dict, scale: float) -> tuple[str, dict, dict]:
    """Trajectory entry of loop `point` (with `variant`) run at the true
    plant gain b_o * scale."""
    return (f"step_{point['variant']}_scale_{scale:g}.csv",
            {**point, "b_o": point["b_o"] * scale},
            {**point, "gain_scale": scale})


def mse_files(outdir: Path, data: dict, grid: np.ndarray,
              entries: list[tuple[str, dict]]) -> list[dict]:
    """Write one estimation-error CSV per (file name, parameters) entry
    under `outdir`: both closed-form curves (e_io, e_ifio) at its a_o, mu
    and omega_o over `grid`, every one computed before `outdir` is made.
    `data` gets each file's metrics, for metrics.csv.  Returns their
    manifest entries."""
    args = [(p["a_o"], p["mu"], p["omega_o"]) for _, p in entries]
    curves = [(mse_io(grid, *a), mse_ifio(grid, *a)) for a in args]
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for (name, parameters), pair in zip(entries, curves):
        write_mse_csv(outdir / name, grid, *pair)
        data[name] = _metrics("mse", pair)
        files.append({"path": name, "kind": "mse", "parameters": parameters})
    return files


def bode_files(outdir: Path, params: dict, grid: np.ndarray,
               tags=tuple(BODE_TRANSFERS)) -> list[dict]:
    """Write bode_g_<tag>.csv for each compensated object in `tags`,
    every curve computed before `outdir` is made; returns their manifest
    entries."""
    curves = [bode(partial(BODE_TRANSFERS[tag], params["a_o"], params["b_o"],
                           params["b"], params["mu"], params["omega_o"]),
                   grid) for tag in tags]
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for tag, (mag, phase) in zip(tags, curves):
        name = f"bode_g_{tag}.csv"
        write_bode_csv(outdir / name, grid, mag, phase)
        files.append({"path": name, "kind": "bode",
                      "parameters": {**params, "transfer": f"g_{tag}"}})
    return files


def _stability_file(outdir: Path, cfg: AdrcConfig, plant: FracPlant,
                    params: dict) -> tuple[StabilityReport, dict]:
    poly, report = loop_sector_test(cfg, plant)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "stability_report.json", report.to_dict())
    return report, {"path": "stability_report.json",
                    "kind": "stability_report",
                    "parameters": {**params, "p": poly.p,
                                   "q_den": poly.q_den}}


def run_experiment(exp_id: str, output_dir: str | Path = "results",
                   overrides: dict | None = None, *,
                   runs: dict | None = None) -> dict:
    """Execute one experiment; returns the manifest (also written to disk).

    Only `custom` takes `overrides` (DEFAULT_PARAMS keys and `variant`);
    every figure experiment runs its own frozen parameters.  `runs` is
    shared by the experiments of one invocation so that each distinct loop
    is simulated once (see `trajectory_files`): fig12-fig14 copy fig11's
    CSV for their scale-1 loop.
    """
    if exp_id not in EXPERIMENT_IDS and exp_id != "custom":
        raise ValueError(f"unknown experiment id {exp_id!r}")
    # the inputs are checked before anything is made on disk
    overrides = overrides or {}
    unknown = set(overrides) - set(DEFAULT_PARAMS) - {"variant"}
    if unknown:
        raise ValueError(f"unknown override keys {sorted(unknown)}")
    if overrides and exp_id != "custom":
        raise ValueError(f"experiment {exp_id} runs frozen parameters; "
                         f"only custom takes overrides")
    params = {**DEFAULT_PARAMS, **overrides}
    if exp_id == "custom":
        cfg, plant = make_loop(params)
        cfg.samples()  # a run needs two samples
    runs = {} if runs is None else runs
    outdir = Path(output_dir) / exp_id
    files: list[dict] = []
    # artifact path -> its metrics, for metrics.csv
    data: dict[str, dict] = {}

    if exp_id == "fig4":
        files = mse_files(outdir, data, log_grid(*MSE_GRID), [
            ("mse.csv", {**MSE_BASE, **MSE_GRID_PARAMS})])
        manifest_params = dict(MSE_BASE)

    elif exp_id in MSE_FAMILIES:
        key, values = MSE_FAMILIES[exp_id]
        files = mse_files(outdir, data, log_grid(*MSE_GRID), [
            (f"mse_{key}_{v:g}.csv", {**MSE_BASE, key: v, **MSE_GRID_PARAMS})
            for v in values])
        manifest_params = {**MSE_BASE, "family": key, "values": list(values)}

    elif exp_id in BODE_MUS:
        params = {**MSE_BASE, "mu": BODE_MUS[exp_id], "b": 1.0, "b_o": 1.0}
        files = bode_files(outdir, params, log_grid(*BODE_GRID))
        manifest_params = params

    elif exp_id == "fig10":
        files.append(_stability_file(outdir, *make_loop(params), params)[1])
        manifest_params = params

    elif exp_id == "fig11":
        points = [{**params, "variant": v.value} for v in AdrcVariant]
        files = trajectory_files(outdir, runs, data, [
            (f"step_{point['variant']}.csv", point, point)
            for point in points])
        manifest_params = params

    elif exp_id in LOOP_GAIN_VARIANTS:
        point = {**params, "variant": LOOP_GAIN_VARIANTS[exp_id].value}
        files = trajectory_files(outdir, runs, data, [
            gain_scale_entry(point, scale) for scale in LOOP_GAIN_SCALES])
        manifest_params = {**point, "scales": list(LOOP_GAIN_SCALES)}

    else:  # custom
        manifest_params = {**params, "variant": cfg.variant.value}
        report, entry = _stability_file(outdir, cfg, plant, params)
        files.append(entry)
        if not report.stable:
            write_manifest(outdir, manifest_params, files, experiment=exp_id)
            raise UnstableConfigError(report)
        files += trajectory_files(outdir, runs, data, [
            ("trajectory.csv", manifest_params, manifest_params)])

    manifest = write_manifest(outdir, manifest_params, files,
                              experiment=exp_id)
    _write_metrics(outdir, files, data)
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


def _write_metrics(outdir: Path, files: list[dict], data: dict) -> list[dict]:
    """Metrics row of each trajectory/MSE entry of `files`, in order, from
    `data` (path -> its metrics); written as <outdir>/metrics.csv.
    Returns the rows."""
    rows = [{"artifact": entry["path"], "kind": entry["kind"],
             **data[entry["path"]]} for entry in files
            if entry["kind"] in METRIC_KINDS]
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
    data = {entry["path"]: _metrics(entry["kind"], _read_artifact(
                outdir / entry["path"], entry["kind"]))
            for entry in manifest["files"] if entry["kind"] in METRIC_KINDS}
    return _write_metrics(outdir, manifest["files"], data)
