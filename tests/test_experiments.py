"""Experiment runner: artifact layout, manifests, summary metrics, and the
stability gate on custom configurations."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from fracadrc import (
    DEFAULT_PARAMS,
    EXPERIMENT_IDS,
    ExperimentSpec,
    Trajectory,
    UnstableConfigError,
    run_experiment,
    step_metrics,
    summarize,
)

EXPECTED_FILES = {
    "fig4": ["mse.csv"],
    "fig5": ["mse_mu_0.4.csv", "mse_mu_0.6.csv", "mse_mu_0.8.csv"],
    "fig6": ["mse_a_o_5.csv", "mse_a_o_10.csv", "mse_a_o_20.csv"],
    "fig7": [
        "mse_omega_o_800.csv",
        "mse_omega_o_1600.csv",
        "mse_omega_o_3200.csv",
    ],
    "fig8": ["bode_g_io.csv", "bode_g_ifio.csv"],
    "fig9": ["bode_g_io.csv", "bode_g_ifio.csv"],
    "fig10": ["stability_report.json"],
    "fig11": ["step_iadrc.csv", "step_fadrc.csv", "step_ifadrc.csv"],
    "fig12": [
        "step_iadrc_scale_0.5.csv",
        "step_iadrc_scale_1.csv",
        "step_iadrc_scale_2.csv",
    ],
    "fig13": [
        "step_fadrc_scale_0.5.csv",
        "step_fadrc_scale_1.csv",
        "step_fadrc_scale_2.csv",
    ],
    "fig14": [
        "step_ifadrc_scale_0.5.csv",
        "step_ifadrc_scale_1.csv",
        "step_ifadrc_scale_2.csv",
    ],
}


def test_experiment_registry():
    assert EXPERIMENT_IDS == tuple(f"fig{i}" for i in range(4, 15))
    assert set(EXPECTED_FILES) == set(EXPERIMENT_IDS)


def test_default_parameters():
    assert DEFAULT_PARAMS["a_o"] == 10.0
    assert DEFAULT_PARAMS["K"] == 150.0
    assert DEFAULT_PARAMS["omega_o"] == 400.0
    assert DEFAULT_PARAMS["mu"] == 0.8
    assert DEFAULT_PARAMS["Ts"] == pytest.approx(1.0 / 8000.0)


@pytest.mark.parametrize("fid", ["fig4", "fig6", "fig9", "fig10"])
def test_cheap_experiments_produce_expected_artifacts(fid, tmp_path):
    manifest = run_experiment(ExperimentSpec(id=fid, output_dir=tmp_path))
    outdir = Path(manifest["directory"])
    assert outdir == tmp_path / fid
    produced = [f["path"] for f in manifest["files"]]
    assert produced == EXPECTED_FILES[fid]
    for name in produced + ["manifest.json"]:
        assert (outdir / name).is_file()
    on_disk = json.loads((outdir / "manifest.json").read_text())
    assert on_disk == manifest


def test_step_experiment_artifacts_load_as_trajectories(tmp_path):
    manifest = run_experiment(ExperimentSpec(id="fig11", output_dir=tmp_path))
    produced = [f["path"] for f in manifest["files"]]
    assert produced == EXPECTED_FILES["fig11"]
    for name in produced:
        traj = Trajectory.from_csv(tmp_path / "fig11" / name)
        assert traj.t.size == 8000
        assert abs(traj.y[-1] - 1.0) < 0.02


def test_gain_sweep_experiment(tmp_path):
    manifest = run_experiment(ExperimentSpec(id="fig14", output_dir=tmp_path))
    assert [f["path"] for f in manifest["files"]] == EXPECTED_FILES["fig14"]
    scales = [f["parameters"]["gain_scale"] for f in manifest["files"]]
    assert scales == [0.5, 1.0, 2.0]


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment(ExperimentSpec(id="fig99", output_dir=tmp_path))


@pytest.mark.parametrize("overrides", [{"memory_len": 10}, {"wibble": 1.0}])
def test_unknown_override_key_rejected(tmp_path, overrides):
    # the GL history is never truncated, so memory_len is no parameter
    spec = ExperimentSpec(id="custom", overrides=overrides, output_dir=tmp_path)
    with pytest.raises(ValueError, match="unknown override keys"):
        run_experiment(spec)


def test_rerun_is_byte_identical(tmp_path):
    import hashlib

    manifest = run_experiment(ExperimentSpec(id="fig4", output_dir=tmp_path))
    outdir = tmp_path / "fig4"
    names = [f["path"] for f in manifest["files"]] + ["manifest.json"]
    before = {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in names}
    run_experiment(ExperimentSpec(id="fig4", output_dir=tmp_path))
    after = {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in names}
    assert after == before


def test_manifest_echoes_overrides(tmp_path):
    spec = ExperimentSpec(
        id="custom", overrides={"horizon": 0.25, "K": 120.0}, output_dir=tmp_path
    )
    manifest = run_experiment(spec)
    assert manifest["parameters"]["horizon"] == 0.25
    assert manifest["parameters"]["K"] == 120.0
    assert manifest["parameters"]["a_o"] == DEFAULT_PARAMS["a_o"]
    produced = [f["path"] for f in manifest["files"]]
    assert produced == ["stability_report.json", "trajectory.csv"]


def test_custom_experiment_gates_on_stability(tmp_path):
    spec = ExperimentSpec(
        id="custom", overrides={"b_o": -1.0, "horizon": 0.25}, output_dir=tmp_path
    )
    with pytest.raises(UnstableConfigError):
        run_experiment(spec)
    # The verdict is still recorded for inspection.
    report = json.loads((tmp_path / "custom" / "stability_report.json").read_text())
    assert report["stable"] is False
    assert not (tmp_path / "custom" / "trajectory.csv").exists()
    assert not (tmp_path / "custom" / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_step_metrics_on_flat_zero_error_trajectory():
    t = np.linspace(0, 1, 101)
    y = np.ones_like(t)
    m = step_metrics(t, y, np.ones_like(t))
    assert m["overshoot_pct"] == 0.0
    assert m["settle_2pct_s"] == 0.0
    assert m["ss_error"] == 0.0


def test_step_metrics_values_are_plain_floats(ref_trio):
    traj = ref_trio["ifadrc"]["trajectory"]
    m = step_metrics(traj.t, traj.y, traj.v_d, traj.u0, traj.Ts)
    for key, value in m.items():
        assert type(value) is float, key


def test_reference_step_metrics(ref_trio):
    traj = ref_trio["ifadrc"]["trajectory"]
    m = step_metrics(traj.t, traj.y, traj.v_d, traj.u0, traj.Ts)
    assert m["settle_2pct_s"] == pytest.approx(0.02825, abs=2 * traj.Ts)
    assert m["rise_10_90_s"] == pytest.approx(0.016375, abs=2 * traj.Ts)
    assert m["ss_error"] < 1e-6
    assert m["overshoot_pct"] < 0.01


def test_summarize_step_experiment(tmp_path):
    manifest = run_experiment(ExperimentSpec(id="fig11", output_dir=tmp_path))
    rows = summarize(manifest)
    assert [r["artifact"] for r in rows] == EXPECTED_FILES["fig11"]
    by_name = {r["artifact"]: r for r in rows}
    # The improved structure settles fastest and compensates best.
    assert (
        by_name["step_ifadrc.csv"]["settle_2pct_s"]
        <= by_name["step_iadrc.csv"]["settle_2pct_s"]
    )
    assert (
        by_name["step_ifadrc.csv"]["comp_resid_rms"]
        < by_name["step_iadrc.csv"]["comp_resid_rms"]
    )
    text = (tmp_path / "fig11" / "metrics.csv").read_text()
    assert text.splitlines()[0].startswith("artifact,kind,")
    assert "np.float64" not in text


@pytest.mark.parametrize("fid", ["fig4", "fig5", "fig11"])
def test_summarize_rewrites_the_metrics_run_experiment_wrote(tmp_path, fid):
    run_experiment(ExperimentSpec(id=fid, output_dir=tmp_path))
    metrics = tmp_path / fid / "metrics.csv"
    from_memory = metrics.read_bytes()
    metrics.unlink()
    summarize(tmp_path / fid / "manifest.json")
    assert metrics.read_bytes() == from_memory


def test_summarize_mse_experiment(tmp_path):
    manifest = run_experiment(ExperimentSpec(id="fig4", output_dir=tmp_path))
    rows = summarize(manifest)
    assert rows[0]["artifact"] == "mse.csv"
    # Integer-view error dwarfs the embedding view at high frequency.
    assert rows[0]["max_mse_ratio"] > 1e6
    assert (tmp_path / "fig4" / "metrics.csv").is_file()
