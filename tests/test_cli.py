"""Command-line interface: argument handling, argument files, exit codes,
and artifact generation for every subcommand."""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fracadrc import (FracPlant, Trajectory, cli, experiments, fracops,
                      run_closed_loop)
from fracadrc.cli import main

from helpers import ref_loop

ROOT = Path(__file__).resolve().parents[1]
REPRODUCE_ALL_REFERENCE = ROOT / "perfbench" / "reference" / "reproduce-all.json"


def run_cli(*argv) -> int:
    return main(list(argv))


def _src_env() -> dict:
    """The environment of a subprocess that imports this checkout."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


# ---------------------------------------------------------------------------
# Argument and argument-file handling
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
    ["reproduce", "fig4", "--memory-len", "10"],
    # a model flag is registered only where the result reads it
    ["mse", "--b", "2"],
    ["stability", "--variant", "iadrc"],
    ["stability", "--Ts", "0.01"],
    ["bode", "--K", "3"],
])
def test_unknown_flag_fails(tmp_path, capsys, argv):
    # the GL history is never truncated, so there is no --memory-len
    assert run_cli(*argv, "--output-dir", str(tmp_path / "out")) == 1
    assert argv[-2] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_argument_file_rejects_a_flag_the_command_does_not_take(tmp_path,
                                                                capsys):
    # a file's flags are parsed as the command line's: a flag the command
    # does not register names itself, and nothing is written
    args = tmp_path / "model.args"
    out = tmp_path / "out"
    for command, text, flag in [
        ("stability", "--K 300\n--wibble 7\n", "--wibble"),
        ("simulate", "--memory-len 10\n", "--memory-len"),
        ("stability", "--K 100\n--Ts 0.01\n", "--Ts"),
        ("mse", "--b 2 --b_o 2\n", "--b"),
        ("stability", "--mu 0.8\n--K 100 3\n", "3"),
        ("stability", "--K abc\n", "abc"),
    ]:
        args.write_text(text)
        assert run_cli(command, f"@{args}", "--output-dir", str(out)) == 1
        [message] = [line for line in capsys.readouterr().err.splitlines()
                     if "error:" in line]
        assert flag in message
    assert not out.exists()


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param(b"--K 300  # \xff\n", id="not-utf-8"),
])
def test_unreadable_argument_file_fails_with_one_error_line(tmp_path, capsys,
                                                            content):
    args = tmp_path / "model.args"
    if content is not None:
        args.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli("stability", f"@{args}", "--output-dir", str(out)) == 1
    [error] = [line for line in capsys.readouterr().err.splitlines()
               if "error:" in line]
    if content is None:
        assert str(args) in error
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep", "--param", "gain_scale", "--values", "1"],
    ["bode"], ["mse"], ["stability"],
])
def test_argument_file_variant_is_checked_for_every_command(tmp_path, capsys,
                                                            command):
    args = tmp_path / "model.args"
    out = tmp_path / "out"
    for variant in ("foo", "IADRC"):
        args.write_text(f"--variant {variant}\n")
        assert run_cli(*command, f"@{args}", "--output-dir", str(out)) == 1
        # bode, mse and stability read no variant, so take no --variant
        message = (f"unrecognized arguments: --variant {variant}"
                   if command[0] in ("bode", "mse", "stability") else
                   f"argument --variant: invalid choice: '{variant}'")
        assert message in capsys.readouterr().err
    assert not out.exists()


def _model_flags() -> list[tuple[str, str]]:
    """(subcommand, key) of every model flag the parser registers."""
    [sub] = [action for action in cli._build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    return [(name, action.dest) for name, p in sub.choices.items()
            for action in p._actions if action.dest in cli.PARAM_KEYS]


FLAG_RUNS = {"simulate": [],
             "sweep": ["--param", "gain_scale", "--values", "1"],
             "bode": [], "mse": [], "stability": []}
PERTURBED = {"a_o": "12", "b_o": "1.2", "b": "1.2", "mu": "0.9", "K": "200",
             "omega_o": "500", "Ts": "0.00025", "horizon": "0.02",
             "variant": "iadrc"}


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--horizon", "0.05", "--a_o", "-1e1"],
                 id="simulate--a_o"),
    pytest.param(["simulate", "--horizon", "0.05", "--setpoint", "-2.5E-1"],
                 id="simulate--setpoint"),
    pytest.param(["sweep", "--param", "gain_scale", "--values", "1",
                  "--horizon", "0.05", "--b_o", "-1e-1"], id="sweep--b_o"),
    pytest.param(["stability", "--a_o", "-1e1"], id="stability--a_o"),
    pytest.param(["bode", "--a_o", "-.5e1"], id="bode--a_o"),
    pytest.param(["mse", "--a_o", "-1e1"], id="mse--a_o"),
])
def test_negative_value_in_exponent_form_follows_its_flag(tmp_path, argv):
    # `--a_o -1e1` reads -1e1 as the value, as `--a_o=-1e1` does; both
    # write into one directory, since manifest.json records it
    *head, flag, value = argv
    out = tmp_path / "out"
    written = []
    for given in ([flag, value], [f"{flag}={value}"]):
        assert run_cli(*head, *given, "--output-dir", str(out)) == 0
        written.append({p.relative_to(out): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
    assert written[0] == written[1]


@pytest.mark.parametrize("flag, value", [
    ("--a_o", "-inf"), ("--b_o", "-Infinity"), ("--setpoint", "-nan"),
    ("--dist-amplitude", "-inf"),
])
def test_negative_non_finite_value_follows_its_flag(tmp_path, capsys, flag,
                                                    value):
    # `--a_o -inf` is the value -inf, as `--a_o=-inf` is: both fail on the
    # value with one error line, not on a missing argument
    errors = []
    for given in ([flag, value], [f"{flag}={value}"]):
        assert run_cli("simulate", *given, "--output-dir", str(tmp_path)) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("fracadrc: error: ")
    assert len(errors[0].splitlines()) == 1
    assert not any(tmp_path.iterdir())


README = (ROOT / "README.md").read_text()


def test_readme_command_table_lists_each_commands_model_flags():
    # every row of README's command table names the model flags that its
    # command registers: "all nine", "none" or the flags themselves
    section = README.split("## Command line")[1].split("\n## ")[0]
    nine = set(re.search(r"all nine of `([^`]*)`", section.replace("\n", " "))
               .group(1).replace("--", "").split())
    assert nine == set(cli.PARAM_KEYS)
    registered = {}
    for command, key in _model_flags():
        registered.setdefault(command, set()).add(key)
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    listed = {}
    for cells in rows:
        command = cells[0].strip(" `").split()[0]
        flags = cells[2].strip()
        listed[command] = (nine if flags.startswith("all nine") else set()
                           if flags == "none" else
                           set(" ".join(re.findall(r"`([^`]*)`", flags))
                               .split()))
        assert listed[command] == registered.get(command, set()), command
    [sub] = [action for action in cli._build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    assert set(listed) == set(sub.choices)


@pytest.mark.parametrize("command, key", [
    pytest.param(command, key, id=f"{command}--{key}")
    for command, key in _model_flags()])
def test_every_model_flag_changes_what_its_command_writes(tmp_path, command,
                                                          key):
    # a flag that the result does not read would write the same bytes and
    # record its value; the runs are short where the command has --horizon
    flags = ({"horizon": "0.01"} if (command, "horizon") in _model_flags()
             else {})
    # and the flag read from an argument file writes the flag's bytes; both
    # write into one directory, since manifest.json records it
    args = tmp_path / "model.args"
    args.write_text(f"--{key} {PERTURBED[key]}\n")
    argv = [arg for k, v in flags.items() for arg in (f"--{k}", v)]
    written = []
    for given, out in (([], tmp_path / "default"),
                       ([f"--{key}", PERTURBED[key]], tmp_path / "perturbed"),
                       ([f"@{args}"], tmp_path / "perturbed")):
        assert run_cli(command, *FLAG_RUNS[command], *argv, *given,
                       "--output-dir", str(out)) == 0
        written.append({p.relative_to(out): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
    default, flag, from_file = written
    assert ({k: v for k, v in default.items() if k.name != "manifest.json"}
            != {k: v for k, v in flag.items() if k.name != "manifest.json"})
    assert from_file == flag


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
    pytest.param(["--dist-kind", "step", "--dist-onset", "-5",
                  "--horizon", "0.01"], "before the first sample time",
                 id="step-onset-before-the-first-sample"),
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
    pytest.param(["stability", "--output-dir", "{tmp}/file"],
                 id="stability--output-dir-is-a-file"),
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
    pytest.param(["sweep", "--param", "gain_scale", "--values", "1"],
                 id="sweep--gain_scale"),
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


def test_argument_file_and_flag_precedence(tmp_path, capsys):
    # the file's flags override the defaults; of a flag given twice, in the
    # file or on the command line, the later one wins
    args = tmp_path / "model.args"
    args.write_text("# tuning\n--K 300   --mu 0.85  # mu = 17/20\n")
    out = str(tmp_path / "out")
    assert run_cli("stability", f"@{args}", "--output-dir", out) == 0
    printed = capsys.readouterr().out
    assert "degree=57" in printed  # mu = 17/20 -> 17 + 2*20
    assert "lambda=0.05" in printed
    assert run_cli("stability", f"@{args}", "--mu", "0.8",
                   "--output-dir", out) == 0
    assert "degree=14" in capsys.readouterr().out
    assert run_cli("stability", "--mu", "0.8", f"@{args}",
                   "--output-dir", out) == 0
    assert "degree=57" in capsys.readouterr().out
    args.write_text("--mu 0.85\n--mu 0.8\n")
    assert run_cli("stability", f"@{args}", "--output-dir", out) == 0
    assert "degree=14" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_stability_verdict_exit_codes(tmp_path, capsys):
    assert run_cli("stability", "--output-dir", str(tmp_path / "a")) == 0
    assert "stable" in capsys.readouterr().out
    # an unstable verdict writes its report and manifest too
    assert run_cli("stability", "--b_o", "-1",
                   "--output-dir", str(tmp_path / "b")) == 2
    assert "unstable" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "b" / "stability").iterdir()) \
        == ["manifest.json", "stability_report.json"]


def test_stability_writes_the_report_of_reproduce_fig10(tmp_path):
    # one writer: at the defaults both commands write the same bytes
    assert run_cli("stability", "--output-dir", str(tmp_path)) == 0
    assert run_cli("reproduce", "fig10", "--output-dir", str(tmp_path)) == 0
    assert sorted(p.name for p in (tmp_path / "stability").iterdir()) == [
        "manifest.json", "stability_report.json"]
    assert ((tmp_path / "stability" / "stability_report.json").read_bytes()
            == (tmp_path / "fig10" / "stability_report.json").read_bytes())


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
    (("bode", "--omega-min", "1e-320"), "omega = 9.99989e-321 rad/s"),
    # more samples than one array holds
    (("simulate", "--Ts", "1e-300"), "horizon 1.0 s at Ts 1e-300 s is 1e+300 "
                                     "samples"),
], ids=["stability", "stability-coefficient", "mse", "bode", "bode-omega-min",
        "simulate-samples"])
def test_overflow_is_one_error_line_and_writes_nothing(tmp_path, argv, cause):
    # in a subprocess, so that a numpy warning would reach stderr too; each
    # value is finite, but a square or a power of it overflows
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
    assert run_cli("stability", "--mu", str(mu),
                   "--output-dir", str(tmp_path)) == 0
    outdir = tmp_path / "stability"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "stability"
    [entry] = manifest["files"]
    assert entry["path"] == "stability_report.json"
    assert entry["kind"] == "stability_report"
    assert {"p", "q_den"} <= set(entry["parameters"])
    payload = json.loads((outdir / "stability_report.json").read_text())
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

    direct = run_closed_loop(ref_loop(horizon=0.25), v_d=1.0)
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


@pytest.mark.parametrize("variant", ["iadrc", "fadrc", "ifadrc"])
def test_simulate_prints_the_metrics_row_of_reproduce(reproduce_all_root,
                                                      tmp_path, capsys,
                                                      variant):
    # one metrics path: the numbers simulate prints are the metrics.csv row
    # that reproduce writes for the same loop
    assert run_cli("simulate", "--variant", variant,
                   "--output-dir", str(tmp_path)) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    with open(reproduce_all_root / "fig11" / "metrics.csv") as fh:
        [row] = [row for row in csv.DictReader(fh)
                 if row["artifact"] == f"step_{variant}.csv"]
    m = {key: float(text) for key, text in row.items()
         if key not in ("artifact", "kind") and text}
    assert printed == (
        f"simulate: {variant} settle_2pct={m['settle_2pct_s']:.4g}s "
        f"overshoot={m['overshoot_pct']:.3g}% ss_error={m['ss_error']:.3g} "
        f"rise_10_90={m['rise_10_90_s']:.4g}s "
        f"comp_resid_rms={m['comp_resid_rms']:.4g}")


def test_oversized_run_is_one_error_line(tmp_path, capsys, monkeypatch):
    # `simulate --Ts 1e-12` asks for 10**12 samples; the refused allocation
    # is raised in place of the run, so that the test allocates nothing
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          "shape (1000000000000,) and data type float64")

    monkeypatch.setattr(experiments, "run_closed_loop", refuse)
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
            "--param",
            "gain_scale",
            "--values",
            "0.5",
            "1",
            "2",
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
            "100",
            "150",
            "--horizon",
            "0.1",
            "--output-dir",
            str(tmp_path),
        )
        == 0
    )
    names = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
    assert names == ["step_K_100.csv", "step_K_150.csv"]


def test_sweep_over_orders_writes_each_orders_solo_bytes(tmp_path):
    # the three orders share one process and its per-order weight tables;
    # each solo run starts from an empty table cache
    assert run_cli("sweep", "--param", "mu", "--values", "0.7", "0.8",
                   "0.9", "--horizon", "0.05",
                   "--output-dir", str(tmp_path)) == 0
    for mu in ("0.7", "0.8", "0.9"):
        fracops._near_weights.cache_clear()
        solo = tmp_path / f"solo-{mu}"
        assert run_cli("simulate", "--mu", mu, "--horizon", "0.05",
                       "--output-dir", str(solo)) == 0
        assert ((tmp_path / "sweep" / f"step_mu_{mu}.csv").read_bytes()
                == (solo / "simulate" / "trajectory.csv").read_bytes())


@pytest.mark.parametrize("argv, message", [
    pytest.param([], "the following arguments are required: --param, "
                 "--values", id="none"),
    pytest.param(["--param", "K"], "the following arguments are required: "
                 "--values", id="param-alone"),
    pytest.param(["--values", "100"], "the following arguments are "
                 "required: --param", id="values-alone"),
    # an empty list is a missing value, not an empty grid
    pytest.param(["--param", "K", "--values"],
                 "argument --values: expected at least one argument",
                 id="empty-values"),
    # the values are separate arguments, not a comma list
    pytest.param(["--param", "K", "--values", "100,150"],
                 "argument --values: invalid float value: '100,150'",
                 id="comma-list"),
])
def test_sweep_requires_a_mode(tmp_path, capsys, argv, message):
    # --param and --values are both required, and parsed by the parser
    assert run_cli("sweep", *argv, "--output-dir", str(tmp_path)) == 1
    [error] = [line for line in capsys.readouterr().err.splitlines()
               if "error:" in line]
    assert error == f"fracadrc sweep: error: {message}"
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("argv, name", [
    (["--param", "K", "--values", "100", "100.00001"], "step_K_100.csv"),
    (["--param", "gain_scale", "--values", "1", "1.0000001"],
     "step_ifadrc_scale_1.csv"),
])
def test_sweep_rejects_values_sharing_a_file_name(tmp_path, capsys, argv,
                                                  name):
    assert run_cli("sweep", *argv, "--horizon", "0.01",
                   "--output-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"fracadrc: error: --values: more than one value would write {name}"]
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("argv, message", [
    (["--param", "gain_scale", "--values", "-1"],
     "gain_scale must be positive and finite, got -1.0"),
    (["--param", "K", "--values", "100", "-100"], "K must be positive"),
])
def test_sweep_checks_every_value_before_making_a_directory(tmp_path, capsys,
                                                            argv, message):
    assert run_cli("sweep", *argv, "--horizon", "0.01",
                   "--output-dir", str(tmp_path)) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("scale, b_o, message", [
    *(pytest.param(scale, "1", "gain_scale must be positive and finite, "
                   f"got {float(scale)}", id=scale)
      for scale in ("nan", "inf", "0", "-1")),
    # each factor is valid, but the true gain b_o * gain_scale is not
    pytest.param("1e308", "10", "b_o 10.0 times gain_scale 1e+308 is inf, "
                 "not a nonzero finite gain", id="overflow"),
    pytest.param("1e-300", "1e-30", "b_o 1e-30 times gain_scale 1e-300 is "
                 "0.0, not a nonzero finite gain", id="underflow"),
    # a b_o that is no gain itself is named alone
    pytest.param("2", "0", "b_o must be nonzero and finite, got 0.0",
                 id="zero-b_o"),
])
def test_sweep_gain_scale_is_checked_by_the_writer(tmp_path, capsys,
                                                   monkeypatch, scale, b_o,
                                                   message):
    # trajectory_files checks every gain scale, and the true gain it makes,
    # before any run; a NaN scale, or one whose product with b_o overflows,
    # used to fail as "b_o must be nonzero and finite", naming a b_o that
    # was not given
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "run_closed_loop", no_run)
    assert run_cli("sweep", "--param", "gain_scale", "--values", "1", scale,
                   "--b_o", b_o, "--horizon", "0.01",
                   "--output-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"fracadrc: error: {message}"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("given", ["flag", "argfile"])
def test_sweep_rejects_a_value_of_the_swept_parameter(tmp_path, capsys,
                                                      given):
    # --values sets K in every run, so a given K would change nothing
    args = tmp_path / "model.args"
    args.write_text("--K 300\n")
    flags = ["--K", "300"] if given == "flag" else [f"@{args}"]
    out = tmp_path / "out"
    assert run_cli("sweep", "--param", "K", "--values", "100", "150", *flags,
                   "--horizon", "0.01", "--output-dir", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "fracadrc: error: 'K' is given, but --param K runs only --values"]
    assert not out.exists()


def test_sweep_values_in_negative_form_are_values(tmp_path):
    # `--values -1 -2.5e0` are two values, not flags
    assert run_cli("sweep", "--param", "a_o", "--values", "-1", "-2.5e0",
                   "--horizon", "0.01", "--output-dir", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert manifest["parameters"]["values"] == [-1.0, -2.5]
    assert [entry["path"] for entry in manifest["files"]] == [
        "step_a_o_-1.csv", "step_a_o_-2.5.csv"]


def test_sweep_reads_its_grid_from_an_argument_file(tmp_path):
    # a file's values may span lines; both write into one directory, since
    # manifest.json records it
    args = tmp_path / "grid.args"
    args.write_text("--param gain_scale  # of b_o\n--values 0.5 1\n2\n")
    out = tmp_path / "out"
    written = []
    for given in (["--param", "gain_scale", "--values", "0.5", "1", "2"],
                  [f"@{args}"]):
        assert run_cli("sweep", *given, "--horizon", "0.05",
                       "--output-dir", str(out)) == 0
        written.append({p.relative_to(out): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
    assert written[0] == written[1]
    assert sorted(path.name for path in written[0]) == [
        "manifest.json", "step_ifadrc_scale_0.5.csv",
        "step_ifadrc_scale_1.csv", "step_ifadrc_scale_2.csv"]


def test_sweep_that_diverges_writes_nothing(tmp_path, capsys):
    # mu = 0.6 diverges after mu = 0.8 has run; neither is written
    assert run_cli("sweep", "--param", "mu", "--values", "0.8", "0.6",
                   "--variant", "fadrc", "--horizon", "0.1",
                   "--output-dir", str(tmp_path)) == 3
    assert "simulation diverged" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


# ---------------------------------------------------------------------------
# bode / mse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv, count", [
    pytest.param(["mse", "--points-per-decade", "1000000000000000000"],
                 "5e+18", id="mse"),
    pytest.param(["bode", "--omega-max", "1e300",
                  "--points-per-decade", "100000000000000000"], "3.01e+19",
                 id="bode"),
])
def test_grid_larger_than_one_array_names_its_flags(tmp_path, capsys, argv,
                                                    count):
    # the grid is refused before it is allocated, and the message names its
    # flags, not numpy's size limit
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 1
    [error] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"fracadrc: error: omega_min \S+ to omega_max \S+ at "
                        rf"points_per_decade {argv[-1]} is {re.escape(count)} "
                        r"points, more than one array holds", error)
    assert not any(tmp_path.iterdir())


def test_bode_writes_both_curves(tmp_path):
    assert run_cli("bode", "--output-dir", str(tmp_path)) == 0
    bdir = tmp_path / "bode"
    for name in ("bode_g_io.csv", "bode_g_ifio.csv"):
        header = (bdir / name).read_text().splitlines()[0]
        assert header == "omega_rad_s,mag_db,phase_deg"


def test_mse_writes_error_curves(tmp_path):
    assert run_cli("mse", "--output-dir", str(tmp_path)) == 0
    path = tmp_path / "mse" / "mse.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_rad_s,e_io,e_ifio"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert np.all(data[:, 1] >= 0.0)
    assert np.all(data[:, 2] >= 0.0)


def test_mse_grid_ends_at_omega_max(tmp_path):
    # a span shorter than one grid step keeps both of its bounds
    assert run_cli("mse", "--omega-min", "1", "--omega-max", "2",
                   "--points-per-decade", "1", "--output-dir",
                   str(tmp_path)) == 0
    lines = (tmp_path / "mse" / "mse.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "2.0"]
    manifest = json.loads((tmp_path / "mse" / "manifest.json").read_text())
    assert manifest["parameters"]["omega_max"] == 2.0


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
    assert run_cli("sweep", "--param", "gain_scale", "--values", "0.5", "1",
                   "2", "--variant", "iadrc",
                   "--output-dir", str(tmp_path)) == 0
    for scale in ("0.5", "1", "2"):
        name = f"step_iadrc_scale_{scale}.csv"
        assert ((tmp_path / "sweep" / name).read_bytes()
                == (reproduce_all_root / "fig12" / name).read_bytes())


REPLAYED = {
    "simulate": ["simulate", "--setpoint", "2.5", "--dist-kind", "step",
                 "--dist-amplitude", "0.5", "--dist-onset", "0.02"],
    "sweep": ["sweep", "--param", "gain_scale", "--values", "0.5", "1", "2",
              "--variant", "iadrc"],
    "sweep-param": ["sweep", "--param", "mu", "--values", "0.7", "0.9"],
}


@pytest.mark.parametrize("run", ["fig11", "fig12", "fig13", "fig14",
                                 *REPLAYED])
def test_trajectory_replays_from_its_manifest_parameters(reproduce_all_root,
                                                         tmp_path, run):
    # a manifest entry's parameters are all its run reads: the writer,
    # given them alone, writes the same bytes
    if run in REPLAYED:
        assert run_cli(*REPLAYED[run], "--horizon", "0.05",
                       "--output-dir", str(tmp_path / "cli")) == 0
        outdir = tmp_path / "cli" / REPLAYED[run][0]
    else:
        outdir = reproduce_all_root / run
    entries = [(entry["path"], entry["parameters"]) for entry in json.loads(
        (outdir / "manifest.json").read_text())["files"]]
    experiments.trajectory_files(tmp_path / "replay", entries)
    for name, _ in entries:
        assert ((tmp_path / "replay" / name).read_bytes()
                == (outdir / name).read_bytes()), name


@pytest.mark.parametrize("experiment, flags", [
    ("fig11", ["--K", "200", "--horizon", "0.1"]),
    ("fig5", ["--variant", "iadrc"]),
    ("all", ["--horizon", "0.1"]),
    ("fig4", ["@model.args"]),
])
def test_reproduce_frozen_experiment_rejects_model_flags(tmp_path, capsys,
                                                         monkeypatch,
                                                         experiment, flags):
    # every experiment runs its frozen parameters: reproduce has no model
    # flag, from the command line or an argument file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.args").write_text("--K 200\n")
    out = tmp_path / "out"
    assert run_cli("reproduce", experiment, *flags,
                   "--output-dir", str(out)) == 1
    err = capsys.readouterr().err
    named = ["--K"] if flags == ["@model.args"] else flags
    assert all(flag in err for flag in named if flag.startswith("--"))
    assert not out.exists()


@pytest.mark.parametrize("argv, plants", [
    pytest.param(["reproduce", "fig4"], 0, id="fig4-0"),
    pytest.param(["reproduce", "fig10"], 0, id="fig10-0"),
    pytest.param(["reproduce", "fig11"], 3, id="fig11-3"),
    pytest.param(["reproduce", "all"], 9, id="all-9"),
    pytest.param(["simulate", "--horizon", "0.01"], 1, id="simulate-1"),
    pytest.param(["stability"], 0, id="stability-0"),
    pytest.param(["bode"], 0, id="bode-0"),
    pytest.param(["mse"], 0, id="mse-0"),
    pytest.param(["sweep", "--param", "gain_scale", "--values", "0.5", "1",
                  "--horizon", "0.01"], 2, id="sweep-2"),
])
def test_reproduce_builds_no_loop_it_does_not_run(tmp_path, monkeypatch,
                                                  argv, plants):
    # every command builds one plant stepper per run it simulates and no
    # other: a sector test and the closed forms step no plant, and
    # reproduce all simulates fig12-fig14's scale-1 loops once, in fig11
    built = []
    init = FracPlant.__init__
    monkeypatch.setattr(FracPlant, "__init__",
                        lambda self, *args: built.append(args)
                        or init(self, *args))
    assert run_cli(*argv, "--output-dir", str(tmp_path)) == 0
    assert len(built) == plants


def test_reproduce_rejects_unknown_id(tmp_path, capsys):
    # there is no custom experiment: stability, then simulate, write its
    # report and its trajectory
    for exp_id in ("fig99", "custom"):
        assert run_cli("reproduce", exp_id, "--output-dir", str(tmp_path)) == 1
        assert f"unknown experiment id '{exp_id}'" in capsys.readouterr().err
    assert run_cli("reproduce", "fig99", "--K", "200",
                   "--output-dir", str(tmp_path)) == 1
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------

NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import fracadrc.cli
loaded = [m for m in sys.modules if m.startswith("scipy") and m != "scipy"]
assert not loaded and sys.modules["scipy"] is None, loaded
short = ["--horizon", "0.05"]
for argv in (["stability"], ["simulate", *short], ["bode"], ["mse"],
             ["reproduce", "fig5"],
             *(["simulate", "--variant", v, *short]
               for v in ("iadrc", "fadrc", "ifadrc")),
             ["simulate", "--dist-kind", "step", "--dist-amplitude", "0.5",
              "--dist-onset", "0.02", *short],
             ["simulate", "--dist-kind", "sinusoid", "--dist-amplitude", "0.5",
              "--dist-frequency", "50", *short],
             ["sweep", "--param", "gain_scale", "--values", "0.5", "1", "2",
              *short],
             ["sweep", "--param", "K", "--values", "100", "150", *short]):
    assert fracadrc.cli.main(argv) == 0, argv
"""


def test_commands_run_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
