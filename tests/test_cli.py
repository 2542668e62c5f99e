"""Command-line interface: argument handling, config files, exit codes,
and artifact generation for every subcommand."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fracadrc import Trajectory, cli, experiments, run_closed_loop
from fracadrc.cli import main

from helpers import ref_config, ref_plant

ROOT = Path(__file__).resolve().parents[1]
REPRODUCE_ALL_REFERENCE = ROOT / "perfbench" / "reference" / "reproduce-all.json"


def run_cli(*argv) -> int:
    return main(list(argv))


def _src_env() -> dict:
    """The environment of a subprocess that imports this checkout."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


# ---------------------------------------------------------------------------
# Argument and config handling
# ---------------------------------------------------------------------------


def test_no_subcommand_fails(capsys):
    assert run_cli() == 1
    assert "usage" in (capsys.readouterr().err + capsys.readouterr().out).lower()


def test_unknown_subcommand_fails():
    assert run_cli("frobnicate") == 1


def test_invalid_order_fails(capsys):
    assert run_cli("stability", "--mu", "1.5") == 1
    assert "mu" in capsys.readouterr().err


def test_non_numeric_flag_fails():
    assert run_cli("stability", "--K", "abc") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--memory-len", "10"],
    ["reproduce", "custom", "--memory-len", "10"],
])
def test_unknown_flag_fails(tmp_path, capsys, argv):
    # the GL history is never truncated, so there is no --memory-len
    assert run_cli(*argv, "--output-dir", str(tmp_path / "out")) == 1
    assert argv[-2] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("K = 300\nwibble = 7\n")
    assert run_cli("stability", "--config", str(cfg)) == 1
    assert "wibble" in capsys.readouterr().err
    cfg.write_text("memory_len = 10\n")
    assert run_cli("simulate", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")) == 1
    assert "memory_len" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep", "--scales", "1"], ["bode"], ["mse"],
    ["stability"], ["reproduce", "fig4"],
])
def test_config_variant_is_checked_for_every_command(tmp_path, capsys,
                                                     command):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("variant = foo\n")
    out = tmp_path / "out"
    assert run_cli(*command, "--config", str(cfg), "--output-dir", str(out)) == 1
    assert "foo" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    pytest.param(["simulate", "--horizon", "inf"], "horizon", id="--horizon-inf"),
    pytest.param(["simulate", "--a_o", "nan"], "a_o", id="--a_o-nan"),
    pytest.param(["simulate", "--dist-kind", "step", "--dist-amplitude", "nan"],
                 "amplitude", id="--dist-amplitude-nan"),
    pytest.param(["simulate", "--dist-kind", "sinusoid", "--dist-amplitude", "1",
                  "--dist-frequency", "inf"], "frequency",
                 id="--dist-frequency-inf"),
    pytest.param(["simulate", "--dist-kind", "step", "--dist-amplitude", "1",
                  "--dist-onset", "nan"], "onset", id="--dist-onset-nan"),
    pytest.param(["simulate", "--setpoint", "inf"], "reference",
                 id="--setpoint-inf"),
    pytest.param(["bode", "--omega-min", "nan"], "omega_min",
                 id="bode--omega-min-nan"),
    pytest.param(["bode", "--omega-max", "inf"], "omega_max",
                 id="bode--omega-max-inf"),
    pytest.param(["mse", "--omega-min", "nan"], "omega_min",
                 id="mse--omega-min-nan"),
    pytest.param(["mse", "--omega-max", "inf"], "omega_max",
                 id="mse--omega-max-inf"),
])
def test_non_finite_parameter_fails(tmp_path, capsys, argv, name):
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 1
    assert name in capsys.readouterr().err


def test_simulate_says_a_run_that_ends_outside_the_band_did_not_settle(
        tmp_path, capsys):
    assert run_cli("simulate", "--horizon", "0.00025",
                   "--output-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "did not settle within 2% by t=0.000125s" in out
    assert "settle_2pct=" not in out


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["--dist-kind", "sinusoid", "--dist-frequency", "50265.48"],
                 "Nyquist limit pi/Ts", id="sinusoid-at-2pi-over-Ts"),
    pytest.param(["--dist-kind", "sinusoid", "--dist-frequency", "1e9"],
                 "Nyquist limit pi/Ts", id="sinusoid-at-1e9"),
    # sin(0 * t) is 0 at every sample: the run would never see it
    pytest.param(["--dist-kind", "sinusoid"], "frequency 0 rad/s",
                 id="sinusoid-at-0"),
    pytest.param(["--dist-kind", "step", "--dist-onset", "0.02",
                  "--horizon", "0.01"],
                 "after the last sample time", id="step-onset-past-horizon"),
    # a field the kind does not read: the run would never see it
    pytest.param(["--dist-frequency", "100"],
                 "kind 'zero' does not read amplitude", id="zero-amplitude"),
    pytest.param(["--dist-kind", "step", "--dist-frequency", "5"],
                 "kind 'step' does not read frequency", id="step-frequency"),
    pytest.param(["--dist-kind", "sinusoid", "--dist-frequency", "50",
                  "--dist-onset", "0.1"],
                 "kind 'sinusoid' does not read onset", id="sinusoid-onset"),
])
def test_disturbance_the_loop_cannot_sample_fails_before_writing(
        tmp_path, capsys, argv, limit):
    out = tmp_path / "out"
    assert run_cli("simulate", "--dist-amplitude", "1", *argv,
                   "--output-dir", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("fracadrc: error: disturbance ")
    assert limit in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["stability", "--report", "{tmp}/missing/r.json"],
                 id="stability--report-in-missing-directory"),
    pytest.param(["simulate", "--horizon", "0.01", "--output-dir",
                  "{tmp}/file"], id="simulate--output-dir-is-a-file"),
])
def test_unwritable_output_fails_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert run_cli(*[arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("fracadrc: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    pytest.param(["simulate"], id="simulate"),
    pytest.param(["reproduce", "custom"], id="reproduce-custom"),
    pytest.param(["sweep", "--scales", "1"], id="sweep--scales"),
    pytest.param(["sweep", "--param", "K", "--values", "100"],
                 id="sweep--param"),
])
def test_one_sample_horizon_fails_before_writing(tmp_path, capsys, command):
    # a run needs two samples: its step metrics take a numerical gradient
    out = tmp_path / "out"
    assert run_cli(*command, "--horizon", "0.000125",
                   "--output-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "fracadrc: error: horizon shorter than two samples"]
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    # File overrides defaults; explicit flags override the file.
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# tuning\nK = 300\nmu = 0.85\n")
    assert run_cli("stability", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "degree=57" in out  # mu = 17/20 -> 17 + 2*20
    assert "lambda=0.05" in out
    assert run_cli("stability", "--config", str(cfg), "--mu", "0.8") == 0
    assert "degree=14" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_stability_verdict_exit_codes(capsys):
    assert run_cli("stability") == 0
    assert "stable" in capsys.readouterr().out
    assert run_cli("stability", "--b_o", "-1") == 2
    assert "unstable" in capsys.readouterr().out


def test_failed_root_check_is_one_error_line(tmp_path):
    # in a subprocess, so that a numpy warning would reach stderr too; the
    # degree-14 solve of K = 1e200 leaves nine roots at 0, residual 0.995
    proc = subprocess.run([sys.executable, "-m", "fracadrc.cli", "stability",
                           "--K", "1e200"], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("fracadrc: error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "degree-14" in proc.stderr
    assert "max normalized residual 9.950e-01" in proc.stderr


@pytest.mark.parametrize("argv, cause", [
    (("stability", "--omega_o", "1e200"), "omega_o"),
    (("stability", "--K", "1e300", "--omega_o", "1e10"),
     "characteristic polynomial"),
    (("mse", "--a_o", "1e200", "--points-per-decade", "1"), "mse_io"),
    (("bode", "--omega_o", "1e200"), "omega = 0.1 rad/s"),
    (("bode", "--which", "ifio", "--omega_o", "1e200"), "omega = 0.1 rad/s"),
    (("bode", "--omega-min", "1e-320"), "omega = 9.99989e-321 rad/s"),
    (("reproduce", "custom", "--K", "1e200"), "degree-14"),
    (("reproduce", "custom", "--K", "1e300", "--omega_o", "1e10"),
     "characteristic polynomial"),
], ids=["stability", "stability-coefficient", "mse", "bode", "bode-ifio",
        "bode-omega-min", "custom-residual", "custom-coefficient"])
def test_overflow_is_one_error_line_and_writes_nothing(tmp_path, argv, cause):
    # in a subprocess, so that a numpy warning would reach stderr too; each
    # value is finite, but a square or a power of it overflows, or (custom
    # --K 1e200) the root solve fails its residual check; a custom gate
    # that cannot be computed makes no directory
    proc = subprocess.run([sys.executable, "-m", "fracadrc.cli", *argv,
                           "--output-dir", "out"], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("fracadrc: error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert cause in proc.stderr
    assert not (tmp_path / "out").exists()


# degree 273 and 287: the Aberth root source and its sparse Newton polish
@pytest.mark.parametrize("mu, degree", [(0.8, 14), (0.73, 273), (0.87, 287)],
                         ids=["degree-14", "degree-273", "degree-287"])
def test_stability_report_file(tmp_path, mu, degree):
    report = tmp_path / "report.json"
    assert run_cli("stability", "--mu", str(mu), "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert sorted(payload) == [
        "degree",
        "lambda",
        "margin",
        "residual_max",
        "roots",
        "stable",
    ]
    assert payload["stable"] is True
    assert payload["degree"] == degree
    assert len(payload["roots"]) == degree
    assert sorted(payload["roots"][0]) == ["arg", "im", "re"]
    if degree == 14:
        assert payload["lambda"] == pytest.approx(0.2)
        assert payload["margin"] == pytest.approx(0.3028, abs=1e-3)
        assert payload["residual_max"] < 1e-8
    else:
        assert payload["residual_max"] <= 1e-13


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_trajectory_identical_to_library_run(tmp_path):
    assert (
        run_cli(
            "simulate",
            "--horizon",
            "0.25",
            "--output-dir",
            str(tmp_path),
        )
        == 0
    )
    csv_path = tmp_path / "simulate" / "trajectory.csv"
    assert csv_path.is_file()
    assert (tmp_path / "simulate" / "manifest.json").is_file()

    direct = run_closed_loop(ref_config(horizon=0.25), ref_plant(), v_d=1.0)
    expected = tmp_path / "expected.csv"
    direct.to_csv(expected)
    assert csv_path.read_bytes() == expected.read_bytes()


def test_simulate_defaults_match_step_experiment_trajectory(tmp_path):
    assert run_cli("simulate", "--output-dir", str(tmp_path / "a")) == 0
    assert run_cli("reproduce", "fig11", "--output-dir", str(tmp_path / "b")) == 0
    sim = (tmp_path / "a" / "simulate" / "trajectory.csv").read_bytes()
    rep = (tmp_path / "b" / "fig11" / "step_ifadrc.csv").read_bytes()
    assert sim == rep


def test_simulate_with_step_disturbance(tmp_path):
    assert (
        run_cli(
            "simulate",
            "--horizon",
            "0.5",
            "--dist-kind",
            "step",
            "--dist-amplitude",
            "1.0",
            "--dist-onset",
            "0.25",
            "--output-dir",
            str(tmp_path),
        )
        == 0
    )
    traj = Trajectory.from_csv(tmp_path / "simulate" / "trajectory.csv")
    onset = traj.t >= 0.25
    assert np.max(np.abs(traj.d[~onset])) == 0.0
    assert np.all(traj.d[onset] == 1.0)
    assert abs(traj.y[-1] - 1.0) < 1e-3  # disturbance rejected
    manifest = json.loads((tmp_path / "simulate" / "manifest.json").read_text())
    assert manifest["parameters"]["dist_kind"] == "step"
    assert manifest["parameters"]["dist_onset"] == 0.25


def test_simulate_divergence_exit_code(tmp_path, capsys):
    code = run_cli(
        "simulate", "--b_o", "-1", "--horizon", "0.5",
        "--output-dir", str(tmp_path),
    )
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_divergence_prints_its_cause_once(tmp_path, capsys):
    assert run_cli("simulate", "--variant", "fadrc", "--mu", "0.6",
                   "--output-dir", str(tmp_path)) == 3
    assert capsys.readouterr().err.count("simulation diverged") == 1


def test_oversized_run_is_one_error_line(tmp_path, capsys, monkeypatch):
    # `simulate --Ts 1e-12` asks for 10**12 samples; the refused allocation
    # is raised in place of the run, so that the test allocates nothing
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          "shape (1000000000000,) and data type float64")

    monkeypatch.setattr(cli, "run_closed_loop", refuse)
    assert run_cli("simulate", "--Ts", "1e-12",
                   "--output-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracadrc: error: Unable to allocate 7.28 TiB")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "simulate").exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_over_gain_scales(tmp_path):
    assert (
        run_cli(
            "sweep",
            "--scales",
            "0.5,1,2",
            "--horizon",
            "0.1",
            "--output-dir",
            str(tmp_path),
        )
        == 0
    )
    names = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
    assert names == [
        "step_ifadrc_scale_0.5.csv",
        "step_ifadrc_scale_1.csv",
        "step_ifadrc_scale_2.csv",
    ]


def test_sweep_over_parameter_grid(tmp_path):
    assert (
        run_cli(
            "sweep",
            "--param",
            "K",
            "--values",
            "100,150",
            "--horizon",
            "0.1",
            "--output-dir",
            str(tmp_path),
        )
        == 0
    )
    names = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
    assert names == ["step_K_100.csv", "step_K_150.csv"]


def test_sweep_requires_a_mode(tmp_path, capsys):
    assert run_cli("sweep", "--output-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "--scales" in err or "--param" in err


def test_sweep_rejects_both_modes(tmp_path, capsys):
    # the modes are exclusive: a grid given with --scales is not dropped
    assert run_cli("sweep", "--scales", "1", "--param", "K",
                   "--values", "100,200", "--output-dir", str(tmp_path)) == 1
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("argv, name", [
    (["--param", "K", "--values", "100,100.00001"], "step_K_100.csv"),
    (["--scales", "1,1.0000001"], "step_ifadrc_scale_1.csv"),
])
def test_sweep_rejects_values_sharing_a_file_name(tmp_path, capsys, argv,
                                                  name):
    assert run_cli("sweep", *argv, "--horizon", "0.01",
                   "--output-dir", str(tmp_path)) == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("argv, message", [
    (["--scales", "-1"], "scales must be positive"),
    (["--param", "K", "--values", "100,-100"], "K must be positive"),
])
def test_sweep_checks_every_value_before_making_a_directory(tmp_path, capsys,
                                                            argv, message):
    assert run_cli("sweep", *argv, "--horizon", "0.01",
                   "--output-dir", str(tmp_path)) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_that_diverges_writes_nothing(tmp_path, capsys):
    # mu = 0.6 diverges after mu = 0.8 has run; neither is written
    assert run_cli("sweep", "--param", "mu", "--values", "0.8,0.6",
                   "--variant", "fadrc", "--horizon", "0.1",
                   "--output-dir", str(tmp_path)) == 3
    assert "simulation diverged" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


# ---------------------------------------------------------------------------
# bode / mse
# ---------------------------------------------------------------------------


def test_bode_writes_both_curves(tmp_path):
    assert run_cli("bode", "--which", "both", "--output-dir", str(tmp_path)) == 0
    bdir = tmp_path / "bode"
    for name in ("bode_g_io.csv", "bode_g_ifio.csv"):
        header = (bdir / name).read_text().splitlines()[0]
        assert header == "omega_rad_s,mag_db,phase_deg"


def test_bode_single_curve(tmp_path):
    assert run_cli("bode", "--which", "io", "--output-dir", str(tmp_path)) == 0
    names = sorted(p.name for p in (tmp_path / "bode").glob("*.csv"))
    assert names == ["bode_g_io.csv"]


def test_mse_writes_error_curves(tmp_path):
    assert run_cli("mse", "--output-dir", str(tmp_path)) == 0
    path = tmp_path / "mse" / "mse.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_rad_s,e_io,e_ifio"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert np.all(data[:, 1] >= 0.0)
    assert np.all(data[:, 2] >= 0.0)


def test_mse_takes_a_span_wider_than_a_float_ratio(tmp_path):
    # 1e5 / 1e-320 overflows; the grid counts decades by logarithms instead
    assert run_cli("mse", "--omega-min", "1e-320", "--output-dir",
                   str(tmp_path)) == 0
    lines = (tmp_path / "mse" / "mse.csv").read_text().splitlines()
    assert len(lines) == 1 + 325 * 60 + 1


def test_mse_without_pole_mismatch_has_no_estimation_error(tmp_path,
                                                           capsys):
    # a_o = 0: G_ifio is 1/s and e_ifio is 0 at every frequency, so the
    # peak ratio e_io / e_ifio divides by zero without a warning
    assert run_cli("mse", "--a_o", "0", "--output-dir", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "mse" / "mse.csv").read_text().splitlines()
    assert len(lines) == 1 + 301
    assert {line.split(",")[2] for line in lines[1:]} == {"0.0"}


@pytest.mark.parametrize("argv", [
    ["--a_o", "1e-155"],                         # e_io / e_ifio overflows
    ["--a_o", "0", "--omega-min", "1e-320"],     # both curves underflow to 0
])
def test_mse_peak_ratio_out_of_range_is_no_warning(tmp_path, capsys, argv):
    assert run_cli("mse", *argv, "--output-dir", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""


def test_mse_requires_matched_gain(tmp_path, capsys):
    assert run_cli("mse", "--b", "2", "--output-dir", str(tmp_path)) == 1
    assert "b" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_single_experiment(tmp_path):
    assert run_cli("reproduce", "fig5", "--output-dir", str(tmp_path)) == 0
    names = sorted(p.name for p in (tmp_path / "fig5").glob("mse_*.csv"))
    assert names == ["mse_mu_0.4.csv", "mse_mu_0.6.csv", "mse_mu_0.8.csv"]
    assert (tmp_path / "fig5" / "metrics.csv").is_file()


@pytest.mark.parametrize("experiment", ["fig5", "fig11"])
def test_reproduce_reads_no_artifact_back(tmp_path, monkeypatch, experiment):
    # metrics.csv comes from the results in memory, not from the CSVs
    def no_read(*args, **kwargs):
        raise AssertionError("reproduce read an artifact back")

    monkeypatch.setattr(Trajectory, "from_csv", no_read)
    monkeypatch.setattr(np, "genfromtxt", no_read)
    assert run_cli("reproduce", experiment, "--output-dir", str(tmp_path)) == 0
    assert (tmp_path / experiment / "metrics.csv").is_file()


@pytest.fixture(scope="module")
def reproduce_all_calls():
    """Simulations and trajectory CSV writes of the `reproduce all` run."""
    return Counter()


@pytest.fixture(scope="module")
def reproduce_all_root(tmp_path_factory, reproduce_all_calls):
    """One `reproduce all` run shared by the tests that inspect its tree."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            reproduce_all_calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every manifest embeds the output path as given, so run from a fresh
    # directory with the same relative path the reference was made with
    workdir = tmp_path_factory.mktemp("reproduce_all")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        mp.setattr(experiments, "run_closed_loop",
                   counted("run_closed_loop", experiments.run_closed_loop))
        mp.setattr(Trajectory, "to_csv",
                   counted("to_csv", Trajectory.to_csv))
        assert run_cli("reproduce", "all", "--output-dir", "results") == 0
    return workdir / "results"


def test_reproduce_all_simulates_each_loop_once(reproduce_all_root,
                                                reproduce_all_calls):
    # 12 trajectories, of which fig12-fig14's scale-1 runs are fig11's
    assert reproduce_all_calls == {"run_closed_loop": 9, "to_csv": 9}


def test_reproduce_all_writes_index(reproduce_all_root, monkeypatch):
    # the index lists each manifest by the relative path it was written to
    monkeypatch.chdir(reproduce_all_root.parent)
    index = json.loads((reproduce_all_root / "manifest.json").read_text())
    assert index["command"] == "reproduce all"
    listed = [e["experiment"] for e in index["experiments"]]
    assert listed == [f"fig{i}" for i in range(4, 15)]
    for entry in index["experiments"]:
        assert Path(entry["manifest"]).is_file()


def test_reproduce_all_is_byte_identical_to_reference(reproduce_all_root):
    root = reproduce_all_root
    reference = json.loads(REPRODUCE_ALL_REFERENCE.read_text())["files"]
    produced = {p.relative_to(root).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in root.rglob("*") if p.is_file()}
    assert produced == {rel: rec["sha256"] for rel, rec in reference.items()}


def test_sweep_over_gain_scales_matches_reproduce(reproduce_all_root,
                                                  tmp_path):
    # both run a gain scale s as the loop with true plant gain b_o * s
    assert run_cli("sweep", "--scales", "0.5,1,2", "--variant", "iadrc",
                   "--output-dir", str(tmp_path)) == 0
    for scale in ("0.5", "1", "2"):
        name = f"step_iadrc_scale_{scale}.csv"
        assert ((tmp_path / "sweep" / name).read_bytes()
                == (reproduce_all_root / "fig12" / name).read_bytes())


def test_reproduce_unstable_custom_exit_code(tmp_path, capsys):
    code = run_cli(
        "reproduce", "custom", "--b_o", "-1", "--output-dir", str(tmp_path)
    )
    assert code == 2
    assert "unstable" in capsys.readouterr().err
    report = tmp_path / "custom" / "stability_report.json"
    assert report.is_file()
    assert not (tmp_path / "custom" / "metrics.csv").exists()


@pytest.mark.parametrize("experiment, flags", [
    ("fig11", ["--K", "200", "--horizon", "0.1"]),
    ("fig5", ["--variant", "iadrc"]),
    ("all", ["--horizon", "0.1"]),
    ("fig4", ["--config"]),
])
def test_reproduce_frozen_experiment_rejects_model_flags(tmp_path, capsys,
                                                         experiment, flags):
    # only custom runs the resolved parameters; the figures are fixed
    if flags == ["--config"]:
        cfg = tmp_path / "params.cfg"
        cfg.write_text("K = 200\n")
        flags = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert run_cli("reproduce", experiment, *flags,
                   "--output-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not out.exists()


def test_reproduce_rejects_unknown_id(tmp_path, capsys):
    assert run_cli("reproduce", "fig99", "--output-dir", str(tmp_path)) == 1
    assert run_cli("reproduce", "fig99", "--K", "200",
                   "--output-dir", str(tmp_path)) == 1
    assert "unknown experiment id 'fig99'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------

NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import fracadrc.cli
loaded = [m for m in sys.modules if m.startswith("scipy") and m != "scipy"]
assert not loaded and sys.modules["scipy"] is None, loaded
for argv in (["stability"], ["simulate", "--horizon", "0.05"], ["bode"],
             ["mse"], ["reproduce", "fig5"]):
    assert fracadrc.cli.main(argv) == 0, argv
"""


def test_commands_run_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
