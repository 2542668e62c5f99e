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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .control import (AdrcConfig, AdrcVariant, Trajectory, loop_gain_variants,
                      run_closed_loop)
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


@dataclass
class ExperimentSpec:
    id: str
    overrides: dict = field(default_factory=dict)
    output_dir: str | Path = "results"


def _params(overrides: dict) -> dict:
    params = dict(DEFAULT_PARAMS)
    unknown = set(overrides) - set(DEFAULT_PARAMS) - {"variant"}
    if unknown:
        raise ValueError(f"unknown override keys {sorted(unknown)}")
    params.update(overrides)
    return params


def make_loop(params: dict,
              variant: AdrcVariant | str | None = None
              ) -> tuple[AdrcConfig, FracPlant]:
    """Controller config and fresh plant for one parameter set.

    `params` holds the DEFAULT_PARAMS keys and may hold `variant`; an
    explicit `variant` takes precedence.  The AdrcConfig and FracPlant
    constructors are the only check on the values.
    """
    if variant is None:
        variant = params.get("variant", AdrcVariant.IFADRC)
    cfg = AdrcConfig(variant=variant, K=params["K"],
                     omega_o=params["omega_o"], b=params["b"],
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


def trajectory_file(outdir: Path, name: str, traj: Trajectory,
                    parameters: dict) -> dict:
    """Write `traj` as <outdir>/<name>; returns its manifest entry."""
    traj.to_csv(outdir / name)
    return {"path": name, "kind": "trajectory", "parameters": parameters}


def mse_curves(grid: np.ndarray,
               parameters: dict) -> tuple[np.ndarray, np.ndarray]:
    """Both closed-form estimation-error curves (e_io, e_ifio) at the a_o,
    mu and omega_o of `parameters` over `grid`."""
    args = (parameters["a_o"], parameters["mu"], parameters["omega_o"])
    return mse_io(grid, *args), mse_ifio(grid, *args)


def mse_file(outdir: Path, name: str, grid: np.ndarray,
             curves: tuple[np.ndarray, np.ndarray], parameters: dict) -> dict:
    """Write the (e_io, e_ifio) `curves` over `grid` as <outdir>/<name>;
    returns its manifest entry."""
    write_mse_csv(outdir / name, grid, *curves)
    return {"path": name, "kind": "mse", "parameters": parameters}


def bode_files(outdir: Path, params: dict, grid: np.ndarray,
               tags=tuple(BODE_TRANSFERS)) -> list[dict]:
    """Write bode_g_<tag>.csv for each compensated object in `tags`;
    returns their manifest entries."""
    files = []
    for tag in tags:
        G = partial(BODE_TRANSFERS[tag], params["a_o"], params["b_o"],
                    params["b"], params["mu"], params["omega_o"])
        mag, phase = bode(G, grid)
        name = f"bode_g_{tag}.csv"
        write_bode_csv(outdir / name, grid, mag.values, phase.values)
        files.append({"path": name, "kind": "bode",
                      "parameters": {**params, "transfer": f"g_{tag}"}})
    return files


def _stability_file(outdir: Path,
                    params: dict) -> tuple[StabilityReport, dict]:
    poly, report = loop_sector_test(params["b"], params["b_o"],
                                    params["a_o"], params["K"],
                                    params["omega_o"], params["mu"])
    write_json(outdir / "stability_report.json", report.to_dict())
    return report, {"path": "stability_report.json",
                    "kind": "stability_report",
                    "parameters": {**params, "p": poly.p,
                                   "q_den": poly.q_den}}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute one experiment; returns the manifest (also written to disk)."""
    if spec.id not in EXPERIMENT_IDS and spec.id != "custom":
        raise ValueError(f"unknown experiment id {spec.id!r}")
    outdir = Path(spec.output_dir) / spec.id
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[dict] = []
    # artifact path -> its Trajectory or (e_io, e_ifio), for metrics.csv
    data: dict[str, object] = {}

    if spec.id == "fig4":
        base = dict(MSE_BASE)
        base.update({k: spec.overrides[k] for k in base if k in spec.overrides})
        grid = log_grid(*MSE_GRID)
        parameters = {**base, **MSE_GRID_PARAMS}
        data["mse.csv"] = curves = mse_curves(grid, parameters)
        files.append(mse_file(outdir, "mse.csv", grid, curves, parameters))
        manifest_params = base

    elif spec.id in MSE_FAMILIES:
        key, values = MSE_FAMILIES[spec.id]
        grid = log_grid(*MSE_GRID)
        for v in values:
            name = f"mse_{key}_{v:g}.csv"
            parameters = {**MSE_BASE, key: v, **MSE_GRID_PARAMS}
            data[name] = curves = mse_curves(grid, parameters)
            files.append(mse_file(outdir, name, grid, curves, parameters))
        manifest_params = {**MSE_BASE, "family": key, "values": list(values)}

    elif spec.id in BODE_MUS:
        params = {**MSE_BASE, "mu": BODE_MUS[spec.id], "b": 1.0, "b_o": 1.0}
        files = bode_files(outdir, params, log_grid(*BODE_GRID))
        manifest_params = params

    elif spec.id == "fig10":
        params = _params(spec.overrides)
        files.append(_stability_file(outdir, params)[1])
        manifest_params = params

    elif spec.id == "fig11":
        params = _params(spec.overrides)
        for variant in AdrcVariant:
            name = f"step_{variant.value}.csv"
            data[name] = traj = run_closed_loop(*make_loop(params, variant))
            files.append(trajectory_file(outdir, name, traj,
                                         {**params, "variant": variant.value}))
        manifest_params = params

    elif spec.id in LOOP_GAIN_VARIANTS:
        params = _params(spec.overrides)
        variant = LOOP_GAIN_VARIANTS[spec.id]
        trajs = loop_gain_variants(*make_loop(params, variant),
                                   LOOP_GAIN_SCALES)
        for scale, traj in zip(LOOP_GAIN_SCALES, trajs):
            name = f"step_{variant.value}_scale_{scale:g}.csv"
            data[name] = traj
            files.append(trajectory_file(
                outdir, name, traj,
                {**params, "variant": variant.value, "gain_scale": scale}))
        manifest_params = {**params, "variant": variant.value,
                           "scales": list(LOOP_GAIN_SCALES)}

    else:  # custom
        params = _params(spec.overrides)
        cfg, plant = make_loop(params)
        manifest_params = {**params, "variant": cfg.variant.value}
        report, entry = _stability_file(outdir, params)
        files.append(entry)
        if not report.stable:
            write_manifest(outdir, manifest_params, files, experiment=spec.id)
            raise UnstableConfigError(report)
        data["trajectory.csv"] = traj = run_closed_loop(cfg, plant)
        files.append(trajectory_file(outdir, "trajectory.csv", traj,
                                     manifest_params))

    manifest = write_manifest(outdir, manifest_params, files,
                              experiment=spec.id)
    _write_metrics(outdir, files, data)
    return manifest


def step_metrics(t: np.ndarray, y: np.ndarray, v_d: np.ndarray,
                 u0: np.ndarray | None = None,
                 Ts: float | None = None) -> dict:
    """Step-response quality numbers for one trajectory.

    overshoot (% of target), 2%-band settling time, relative steady-state
    error, 10-90% rise time, and the RMS of the compensation residual
    ydot - u0 over the transient window.  An identically zero trajectory
    reports all zeros.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    v_d = np.asarray(v_d, dtype=float)
    Ts = float(Ts if Ts is not None else (t[1] - t[0]))
    target = float(v_d[-1])
    scale = abs(target) if target != 0.0 else float(np.max(np.abs(y)))
    if scale == 0.0:
        out = {"overshoot_pct": 0.0, "settle_2pct_s": 0.0, "ss_error": 0.0,
               "rise_10_90_s": 0.0}
    else:
        sign = 1.0 if target >= 0.0 else -1.0
        overshoot = max(0.0, float(sign * (np.max(sign * y) - target)) / scale)
        outside = np.abs(y - target) > 0.02 * scale
        settle = 0.0 if not outside.any() else float(t[np.max(np.nonzero(outside))] + Ts)
        above10 = np.nonzero(sign * y >= 0.1 * scale)[0]
        above90 = np.nonzero(sign * y >= 0.9 * scale)[0]
        rise = float("nan")
        if above10.size and above90.size:
            rise = float(t[above90[0]] - t[above10[0]])
        out = {"overshoot_pct": 100.0 * overshoot,
               "settle_2pct_s": settle,
               "ss_error": float(abs(y[-1] - target)) / scale,
               "rise_10_90_s": rise}
    if u0 is not None:
        window = t <= TRANSIENT_WINDOW
        resid = np.gradient(y, Ts)[window] - np.asarray(u0, float)[window]
        out["comp_resid_rms"] = float(np.sqrt(np.mean(resid * resid)))
    return out


# artifact kinds that get a row in metrics.csv
METRIC_KINDS = ("trajectory", "mse")


def _metrics_row(entry: dict, data) -> dict:
    """Metrics row of one trajectory or MSE manifest entry from its data:
    a Trajectory gives its step_metrics, an (e_io, e_ifio) pair of curves
    the peak ratio max_mse_ratio."""
    if entry["kind"] == "trajectory":
        metrics = step_metrics(data.t, data.y, data.v_d, data.u0, data.Ts)
    else:
        e_io, e_ifio = data
        metrics = {"max_mse_ratio": float(np.max(e_io / e_ifio))}
    return {"artifact": entry["path"], "kind": entry["kind"], **metrics}


def _write_metrics(outdir: Path, files: list[dict], data: dict) -> list[dict]:
    """Metrics row of each trajectory/MSE entry of `files`, in order, from
    `data` (path -> Trajectory or (e_io, e_ifio)); written as
    <outdir>/metrics.csv.  Returns the rows."""
    rows = [_metrics_row(entry, data[entry["path"]]) for entry in files
            if entry["kind"] in METRIC_KINDS]
    columns = ["artifact", "kind", "overshoot_pct", "settle_2pct_s",
               "ss_error", "rise_10_90_s", "comp_resid_rms", "max_mse_ratio"]
    with open(outdir / "metrics.csv", "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = ["" if c not in row else repr(float(row[c]))
                     if isinstance(row[c], (int, float, np.floating))
                     else str(row[c]) for c in columns]
            fh.write(",".join(cells) + "\n")
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
    run_experiment wrote from memory.  Returns the rows.
    """
    if not isinstance(manifest, dict):
        with open(manifest) as fh:
            manifest = json.load(fh)
    outdir = Path(manifest["directory"])
    data = {entry["path"]: _read_artifact(outdir / entry["path"], entry["kind"])
            for entry in manifest["files"] if entry["kind"] in METRIC_KINDS}
    return _write_metrics(outdir, manifest["files"], data)
