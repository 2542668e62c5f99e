"""Experiment runner: artifact layout, manifests and summary metrics."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fracadrc import (
    DEFAULT_PARAMS,
    EXPERIMENT_IDS,
    Trajectory,
    experiments,
    log_grid,
    run_experiment,
    step_metrics,
    summarize,
)

REPRODUCE_ALL_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
                           / "reference" / "reproduce-all.json")

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
    manifest = run_experiment(fid, tmp_path)
    outdir = Path(manifest["directory"])
    assert outdir == tmp_path / fid
    produced = [f["path"] for f in manifest["files"]]
    assert produced == EXPECTED_FILES[fid]
    for name in produced + ["manifest.json"]:
        assert (outdir / name).is_file()
    on_disk = json.loads((outdir / "manifest.json").read_text())
    assert on_disk == manifest


def test_step_experiment_artifacts_load_as_trajectories(tmp_path):
    manifest = run_experiment("fig11", tmp_path)
    produced = [f["path"] for f in manifest["files"]]
    assert produced == EXPECTED_FILES["fig11"]
    for name in produced:
        traj = Trajectory.from_csv(tmp_path / "fig11" / name)
        assert traj.t.size == 8000
        assert abs(traj.y[-1] - 1.0) < 0.02


def test_gain_sweep_experiment(tmp_path):
    manifest = run_experiment("fig14", tmp_path)
    assert [f["path"] for f in manifest["files"]] == EXPECTED_FILES["fig14"]
    scales = [f["parameters"]["gain_scale"] for f in manifest["files"]]
    assert scales == [0.5, 1.0, 2.0]


def test_gain_sweep_experiment_alone_simulates_every_scale(tmp_path,
                                                          monkeypatch):
    # with no fig11 run to reuse, fig12 simulates its scale-1 loop itself,
    # and nothing recorded by an earlier call in this process is reused
    calls = []
    run = experiments.run_closed_loop
    monkeypatch.setattr(experiments, "run_closed_loop",
                        lambda *args, **kw: calls.append(args)
                        or run(*args, **kw))
    run_experiment("fig11", tmp_path / "earlier")
    calls.clear()
    run_experiment("fig12", tmp_path)
    assert len(calls) == 3
    reference = json.loads(REPRODUCE_ALL_REFERENCE.read_text())["files"]
    produced = {f"fig12/{name}":
                hashlib.sha256((tmp_path / "fig12" / name).read_bytes())
                .hexdigest() for name in EXPECTED_FILES["fig12"]}
    assert produced == {rel: reference[rel]["sha256"] for rel in produced}


def test_trajectory_files_simulates_each_loop_once(tmp_path, monkeypatch):
    # gain scale 1 is the unscaled loop point: within one call, and across
    # calls that share `runs`, that loop is simulated once and then copied
    calls = []
    run = experiments.run_closed_loop
    monkeypatch.setattr(experiments, "run_closed_loop",
                        lambda *args, **kw: calls.append(args)
                        or run(*args, **kw))
    point = {**DEFAULT_PARAMS, "horizon": 0.01, "variant": "iadrc"}
    runs = {}
    _, (x, y) = experiments.trajectory_files(tmp_path / "a", [
        ("x.csv", point), ("y.csv", {**point, "gain_scale": 1.0})], runs=runs)
    _, (z,) = experiments.trajectory_files(tmp_path / "b",
                                           [("z.csv", point)], runs=runs)
    assert len(calls) == 1
    written = [tmp_path / "a" / "x.csv", tmp_path / "a" / "y.csv",
               tmp_path / "b" / "z.csv"]
    assert len({path.read_bytes() for path in written}) == 1
    assert x is y is z


def test_trajectory_files_rejects_a_key_it_does_not_run(tmp_path,
                                                       monkeypatch):
    # a recorded key that no run reads would write the bytes of the entry
    # without it: it fails, naming the key, before any run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "run_closed_loop", no_run)
    point = {**DEFAULT_PARAMS, "horizon": 0.01, "variant": "iadrc"}
    with pytest.raises(ValueError, match="'Kp'"):
        experiments.trajectory_files(tmp_path / "out", [
            ("a.csv", point), ("b.csv", {**point, "Kp": 3.0})])
    assert not (tmp_path / "out").exists()


def test_trajectory_files_rejects_a_scaled_gain_that_is_no_gain(
        tmp_path, monkeypatch):
    # a scale that is not positive and finite names itself; a valid b_o and
    # a valid scale whose product over- or underflows: the error names both
    # and the product; each before any run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "run_closed_loop", no_run)
    point = {**DEFAULT_PARAMS, "horizon": 0.01, "variant": "iadrc"}
    for b_o, scale, message in [
        *((1.0, scale, rf"^gain_scale must be positive and finite, "
                       rf"got {scale}$")
          for scale in (float("nan"), float("inf"), 0.0, -1.0)),
        (10.0, 1e308, r"^b_o 10\.0 times gain_scale 1e\+308 is inf, not a "
                      r"nonzero finite gain$"),
        (1e-30, 1e-300, r"^b_o 1e-30 times gain_scale 1e-300 is 0\.0, not a "
                        r"nonzero finite gain$"),
    ]:
        with pytest.raises(ValueError, match=message):
            experiments.trajectory_files(tmp_path / "out", [
                ("a.csv", point),
                ("b.csv", {**point, "b_o": b_o, "gain_scale": scale})])
        assert not (tmp_path / "out").exists()


def test_mse_files_computes_every_curve_before_making_a_directory(tmp_path):
    grid = log_grid(*experiments.MSE_GRID)
    with pytest.raises(OverflowError, match="mse_io"):
        experiments.mse_files(tmp_path / "out", grid, [
            ("a.csv", experiments.MSE_BASE),
            ("b.csv", {**experiments.MSE_BASE, "a_o": 1e200})])
    assert not (tmp_path / "out").exists()


def test_unknown_experiment_rejected(tmp_path):
    for exp_id in ("fig99", "custom"):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(exp_id, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_rerun_is_byte_identical(tmp_path):
    import hashlib

    manifest = run_experiment("fig4", tmp_path)
    outdir = tmp_path / "fig4"
    names = [f["path"] for f in manifest["files"]] + ["manifest.json"]
    before = {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in names}
    run_experiment("fig4", tmp_path)
    after = {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in names}
    assert after == before


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_step_metrics_on_flat_zero_error_trajectory():
    t = np.linspace(0, 1, 101)
    y = np.ones_like(t)
    m = step_metrics(t, y, np.ones_like(t), np.zeros_like(t), t[1] - t[0])
    assert m["overshoot_pct"] == 0.0
    assert m["settle_2pct_s"] == 0.0
    assert m["ss_error"] == 0.0


def test_unsettled_step_has_no_settling_time():
    # the run ends 50% off target: neither its end (t_end + Ts) nor any
    # other time is a settling time
    t = np.linspace(0, 1, 101)
    y = np.minimum(t, 0.5)
    m = step_metrics(t, y, np.ones_like(t), np.zeros_like(t), t[1] - t[0])
    assert np.isnan(m["settle_2pct_s"])
    assert m["ss_error"] == pytest.approx(0.5)


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
    manifest = run_experiment("fig11", tmp_path)
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
    run_experiment(fid, tmp_path)
    metrics = tmp_path / fid / "metrics.csv"
    from_memory = metrics.read_bytes()
    metrics.unlink()
    summarize(tmp_path / fid / "manifest.json")
    assert metrics.read_bytes() == from_memory


def test_summarize_reads_the_directory_of_the_manifest_path(tmp_path,
                                                            monkeypatch):
    # the manifest's "directory" is relative to where run_experiment ran
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    run_experiment("fig5", "results")
    metrics = tmp_path / "a" / "results" / "fig5" / "metrics.csv"
    from_memory = metrics.read_bytes()
    metrics.unlink()
    monkeypatch.chdir(tmp_path / "b")
    summarize(metrics.with_name("manifest.json"))
    assert metrics.read_bytes() == from_memory
    assert not (tmp_path / "b" / "results").exists()


def test_summarize_mse_experiment(tmp_path):
    manifest = run_experiment("fig4", tmp_path)
    rows = summarize(manifest)
    assert rows[0]["artifact"] == "mse.csv"
    # Integer-view error dwarfs the embedding view at high frequency.
    assert rows[0]["max_mse_ratio"] > 1e6
    assert (tmp_path / "fig4" / "metrics.csv").is_file()
