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
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

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


def _files(root: Path) -> dict:
    """The bytes of every file under `root`, by its path relative to it."""
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


# ---------------------------------------------------------------------------
# Argument and argument-file handling
# ---------------------------------------------------------------------------


def assert_rejected(argv, pattern: str, capsys) -> None:
    """Hold a command line, run from a fresh working directory, to the
    contract of every rejected one: exit 1, no warning, no traceback; one
    error line, stderr's last, matching `pattern`, after a usage block only
    if the parser reported it; nothing new under the directory."""
    before = set(Path.cwd().rglob("*"))
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
            cli._Parser, "error", autospec=True,
            side_effect=cli._Parser.error) as parser_error:
        warnings.simplefilter("always")
        code = main(list(argv))
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert not caught, [str(w.message) for w in caught]
    *usage, error = err or [""]
    assert [line for line in err if ": error: " in line] == [error], err
    # argparse's usage block, "usage: ..." and its indented lines, comes
    # before each error that the parser reports, and before no other
    assert bool(usage) == parser_error.called, err
    assert all(line[:1].isspace() if i else line.startswith("usage:")
               for i, line in enumerate(usage)), err
    assert not any("Traceback" in line for line in err)
    assert re.search(pattern, error), error
    assert set(Path.cwd().rglob("*")) == before


def reject(id: str, argv: str, pattern: str, args: bytes | None = None):
    """A row of a rejection table: the command line, split at whitespace;
    the pattern its error line matches; the bytes of `model.args`, if it
    reads one."""
    return pytest.param(argv.split(), pattern, args, id=id)


def rejection_test(rows):
    """The one test body of every rejection table: each row runs from a
    fresh working directory and is held to `assert_rejected`."""
    @pytest.mark.parametrize("argv, pattern, args", rows)
    def test(tmp_path, monkeypatch, capsys, argv, pattern, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")  # an --output-dir that is a file
        if args is not None:
            (tmp_path / "model.args").write_bytes(args)
        assert_rejected(argv, pattern, capsys)
    return test


ERR = r"^fracadrc: error: "
UNRECOGNIZED = ERR + r"unrecognized arguments: "
SWEEP_ERR = r"^fracadrc sweep: error: "

# REJECTED holds every row that no group below it takes; each group runs
# the same body under a test name of its own
REJECTED = [
    reject("no-command", "",
           ERR + r"the following arguments are required: command$"),
    reject("unknown-command", "frobnicate",
           ERR + r"argument command: invalid choice: 'frobnicate'"),
    reject("mu-out-of-range", "stability --mu 1.5",
           ERR + r"mu must lie in \(0, 1\), got 1\.5$"),
    reject("non-numeric-K", "stability --K abc", r"^fracadrc stability: "
           r"error: argument --K: invalid float value: 'abc'$"),
    *(reject(f"{command.split()[0]}{flag}", f"{command} {flag} {value}",
             UNRECOGNIZED + re.escape(f"{flag} {value}") + "$")
      for command, flag, value in [
          # the GL history is never truncated, so there is no --memory-len
          ("simulate", "--memory-len", "10"),
          ("reproduce fig4", "--memory-len", "10"),
          # a model flag is registered only where the result reads it
          ("mse", "--b", "2"), ("stability", "--variant", "iadrc"),
          ("stability", "--Ts", "0.01"), ("bode", "--K", "3")]),
    # a file's flags are parsed as the command line's: a flag the command
    # does not register names itself
    reject("file--wibble", "stability @model.args",
           UNRECOGNIZED + r"--wibble 7$", b"--K 300\n--wibble 7\n"),
    reject("file-simulate--memory-len", "simulate @model.args",
           UNRECOGNIZED + r"--memory-len 10$", b"--memory-len 10\n"),
    reject("file-stability--Ts", "stability @model.args",
           UNRECOGNIZED + r"--Ts 0\.01$", b"--K 100\n--Ts 0.01\n"),
    reject("file-mse--b", "mse @model.args",
           UNRECOGNIZED + r"--b 2 --b_o 2$", b"--b 2 --b_o 2\n"),
    reject("file-stray-value", "stability @model.args",
           UNRECOGNIZED + r"3$", b"--mu 0.8\n--K 100 3\n"),
    reject("file-non-numeric-K", "stability @model.args",
           r"^fracadrc stability: error: argument --K: invalid float value: "
           r"'abc'$", b"--K abc\n"),
    reject("file-missing", "stability @model.args",
           ERR + r".*No such file or directory: 'model\.args'$"),
    reject("file-not-utf-8", "stability @model.args",
           ERR + r"'utf-8' codec can't decode byte 0xff",
           b"--K 300  # \xff\n"),
    # bode, mse and stability read no variant, so take no --variant
    *(reject(f"file-{command.split()[0]}--variant-{variant}",
             f"{command} @model.args",
             UNRECOGNIZED + f"--variant {variant}$"
             if command in ("bode", "mse", "stability") else
             rf"^fracadrc {command.split()[0]}: error: argument --variant: "
             rf"invalid choice: '{variant}'",
             f"--variant {variant}\n".encode())
      for command in ("simulate", "sweep --param gain_scale --values 1",
                      "bode", "mse", "stability")
      for variant in ("foo", "IADRC")),
    # `--a_o -inf` is the value -inf, as `--a_o=-inf` is: both fail on the
    # value, not on a missing argument
    *(reject(f"{flag}{sep}{value}".replace(" ", "-"),
             f"simulate {flag}{sep}{value}", ERR + f"{line}$")
      for flag, value, line in [
          ("--a_o", "-inf", "a_o must be finite, got -inf"),
          ("--b_o", "-Infinity", "b_o must be nonzero and finite, got -inf"),
          ("--setpoint", "-nan", "reference must be finite, got nan"),
          ("--dist-amplitude", "-inf",
           "disturbance amplitude must be finite, got -inf")]
      for sep in (" ", "=")),
    reject("stability--output-dir-is-a-file", "stability --output-dir file",
           ERR + r".*Not a directory: 'file/stability'$"),
    reject("simulate--output-dir-is-a-file",
           "simulate --horizon 0.01 --output-dir file",
           ERR + r".*Not a directory: 'file/simulate'$"),
    # the degree-14 solve of K = 1e200 leaves nine roots at 0, residual 0.995
    reject("failed-root-check", "stability --K 1e200",
           ERR + r".*degree-14.*max normalized residual 9\.950e-01"),
    # more grid points than one array holds: the grid is refused before it
    # is allocated, and the message names its flags, not numpy's size limit
    *(reject(f"grid-{id}", f"{command} --points-per-decade {count}",
             ERR + r"omega_min \S+ to omega_max \S+ at points_per_decade "
             rf"{count} is {size} than one array holds$")
      for id, command, count, size in [
          ("mse", "mse", "1000000000000000000", r"5e\+18 points, more"),
          ("bode", "bode --omega-max 1e300", "100000000000000000",
           r"3\.01e\+19 points, more"),
          # an int beyond the float range
          ("mse-beyond-float", "mse", "1" + "0" * 400, "more points")]),
    *(reject(f"sweep-clash-{name}", f"sweep {argv} --horizon 0.01",
             ERR + r"--values: more than one value would write "
             rf"{re.escape(name)}$")
      for argv, name in [
          ("--param K --values 100 100.00001", "step_K_100.csv"),
          ("--param gain_scale --values 1 1.0000001",
           "step_ifadrc_scale_1.csv")]),
    # every value is checked before the directory is made
    reject("sweep-gain_scale-negative",
           "sweep --param gain_scale --values -1 --horizon 0.01",
           ERR + r"gain_scale must be positive and finite, got -1\.0"),
    reject("sweep-K-negative", "sweep --param K --values 100 -100 "
           "--horizon 0.01", ERR + r"K must be positive"),
    # --values sets K in every run, so a given K would change nothing
    *(reject(f"sweep-swept-K-{id}", f"sweep --param K --values 100 150 "
             f"{flags} --horizon 0.01",
             ERR + r"'K' is given, but --param K runs only --values$", args)
      for id, flags, args in [("flag", "--K 300", None),
                              ("file", "@model.args", b"--K 300\n")]),
    # every experiment runs its frozen parameters: reproduce has no model
    # flag, from the command line or an argument file
    reject("reproduce-fig11-flags", "reproduce fig11 --K 200 --horizon 0.1",
           UNRECOGNIZED + r"--K 200 --horizon 0\.1$"),
    reject("reproduce-fig5-flags", "reproduce fig5 --variant iadrc",
           UNRECOGNIZED + r"--variant iadrc$"),
    reject("reproduce-all-flags", "reproduce all --horizon 0.1",
           UNRECOGNIZED + r"--horizon 0\.1$"),
    reject("reproduce-fig4-file", "reproduce fig4 @model.args",
           UNRECOGNIZED + r"--K 200$", b"--K 200\n"),
    # there is no custom experiment: stability, then simulate, write its
    # report and its trajectory
    *(reject(f"reproduce-{id}", f"reproduce {id}",
             ERR + f"unknown experiment id '{id}'$")
      for id in ("fig99", "custom")),
    reject("reproduce-fig99-flags", "reproduce fig99 --K 200",
           UNRECOGNIZED + r"--K 200$"),
]
test_rejected_command_line = rejection_test(REJECTED)


test_non_finite_parameter_fails = rejection_test([
    *(reject(id, f"simulate {argv}", ERR + f"{line}$")
      for id, argv, line in [
          ("--horizon-inf", "--horizon inf",
           "horizon must be positive and finite, got inf"),
          ("--a_o-nan", "--a_o nan", "a_o must be finite, got nan"),
          ("--dist-amplitude-nan", "--dist-kind step --dist-amplitude nan",
           "disturbance amplitude must be finite, got nan"),
          ("--dist-frequency-inf", "--dist-kind sinusoid --dist-amplitude 1 "
           "--dist-frequency inf", "disturbance frequency must be finite, "
           "got inf"),
          ("--dist-onset-nan", "--dist-kind step --dist-amplitude 1 "
           "--dist-onset nan", "disturbance onset must be finite, got nan"),
          ("--setpoint-inf", "--setpoint inf",
           "reference must be finite, got inf")]),
    *(reject(f"{command}--omega-{end}-{value}",
             f"{command} --omega-{end} {value}",
             ERR + r"omega_min and omega_max must be finite, "
             rf"got {re.escape(bounds)}$")
      for command, end, value, bounds in [
          ("bode", "min", "nan", "nan, 100000.0"),
          ("bode", "max", "inf", "0.1, inf"),
          ("mse", "min", "nan", "nan, 100000.0"),
          ("mse", "max", "inf", "1.0, inf")]),
])


test_disturbance_the_loop_cannot_sample_fails_before_writing = rejection_test([
    # a disturbance the loop cannot sample
    *(reject(id, f"simulate --dist-amplitude 1 {argv}",
             ERR + f"disturbance .*{limit}")
      for id, argv, limit in [
          ("sinusoid-at-2pi-over-Ts",
           "--dist-kind sinusoid --dist-frequency 50265.48",
           r"Nyquist limit pi/Ts"),
          ("sinusoid-at-1e9", "--dist-kind sinusoid --dist-frequency 1e9",
           r"Nyquist limit pi/Ts"),
          # sin(0 * t) is 0 at every sample: the run would never see it
          ("sinusoid-at-0", "--dist-kind sinusoid", r"frequency 0 rad/s"),
          ("step-onset-past-horizon",
           "--dist-kind step --dist-onset 0.02 --horizon 0.01",
           r"after the last sample time"),
          ("step-onset-before-the-first-sample",
           "--dist-kind step --dist-onset -5 --horizon 0.01",
           r"before the first sample time"),
          # a field the kind does not read: the run would never see it
          ("zero-amplitude", "--dist-frequency 100",
           r"kind 'zero' does not read amplitude"),
          ("step-frequency", "--dist-kind step --dist-frequency 5",
           r"kind 'step' does not read frequency"),
          ("sinusoid-onset",
           "--dist-kind sinusoid --dist-frequency 50 --dist-onset 0.1",
           r"kind 'sinusoid' does not read onset")]),
])


test_one_sample_horizon_fails_before_writing = rejection_test([
    # a run needs two samples: its step metrics take a numerical gradient
    *(reject(id, f"{command} --horizon 0.000125",
             ERR + r"horizon shorter than two samples$")
      for id, command in [
          ("simulate", "simulate"),
          ("sweep--gain_scale", "sweep --param gain_scale --values 1"),
          ("sweep--param", "sweep --param K --values 100")]),
])


test_overflow_is_one_error_line_and_writes_nothing = rejection_test([
    # each value is finite, but a square or a power of it overflows
    *(reject(id, argv, ERR + f".*{cause}")
      for id, argv, cause in [
          ("stability", "stability --omega_o 1e200", "omega_o"),
          ("stability-coefficient", "stability --K 1e300 --omega_o 1e10",
           "characteristic polynomial"),
          ("mse", "mse --a_o 1e200 --points-per-decade 1", "mse_io"),
          ("bode", "bode --omega_o 1e200", r"omega = 0\.1 rad/s"),
          ("bode-omega-min", "bode --omega-min 1e-320",
           r"omega = 9\.99989e-321 rad/s"),
          # more samples than one array holds
          ("simulate-samples", "simulate --Ts 1e-300",
           r"horizon 1\.0 s at Ts 1e-300 s is 1e\+300 samples")]),
    # np.roots divides every coefficient by the leading one, b
    reject("stability-leading-coefficient", "stability --b 1e-320",
           ERR + r"a coefficient of the degree-14 characteristic polynomial "
           r"divided by its leading coefficient 1e-320 is not finite$"),
])


test_sweep_requires_a_mode = rejection_test([
    # --param and --values are both required, and parsed by the parser
    reject("none", "sweep", SWEEP_ERR +
           r"the following arguments are required: --param, --values$"),
    reject("param-alone", "sweep --param K",
           SWEEP_ERR + r"the following arguments are required: --values$"),
    reject("values-alone", "sweep --values 100",
           SWEEP_ERR + r"the following arguments are required: --param$"),
    # an empty list is a missing value, not an empty grid
    reject("empty-values", "sweep --param K --values",
           SWEEP_ERR + r"argument --values: expected at least one argument$"),
    # the values are separate arguments, not a comma list
    reject("comma-list", "sweep --param K --values 100,150",
           SWEEP_ERR + r"argument --values: invalid float value: '100,150'$"),
])


test_sweep_gain_scale_is_checked_by_the_writer = rejection_test([
    # trajectory_files checks every gain scale, and the true gain it makes,
    # before any run; a NaN scale, or one whose product with b_o overflows,
    # used to fail as "b_o must be nonzero and finite", naming a b_o that
    # was not given
    *(reject(id, f"sweep --param gain_scale --values 1 "
             f"{scale} --b_o {b_o} --horizon 0.01",
             ERR + f"{re.escape(message)}$")
      for id, scale, b_o, message in [
          *((scale, scale, "1", "gain_scale must be positive and finite, "
             f"got {float(scale)}") for scale in ("nan", "inf", "0", "-1")),
          # each factor is valid, but the true gain b_o * gain_scale is not
          ("overflow", "1e308", "10", "b_o 10.0 times gain_scale 1e+308 is "
           "inf, not a nonzero finite gain"),
          ("underflow", "1e-300", "1e-30", "b_o 1e-30 times gain_scale "
           "1e-300 is 0.0, not a nonzero finite gain"),
          # a b_o that is no gain itself is named alone
          ("zero-b_o", "2", "0", "b_o must be nonzero and finite, got 0.0")]),
])


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
    # with digit-group underscores, as float reads it
    pytest.param(["simulate", "--horizon", "0.05", "--a_o", "-1_0"],
                 id="simulate--a_o-underscores"),
])
def test_negative_value_in_exponent_form_follows_its_flag(tmp_path, argv):
    # `--a_o -1e1` reads -1e1 as the value, as `--a_o=-1e1` does; both
    # write into one directory, since manifest.json records it
    *head, flag, value = argv
    out = tmp_path / "out"
    written = []
    for given in ([flag, value], [f"{flag}={value}"]):
        assert run_cli(*head, *given, "--output-dir", str(out)) == 0
        written.append(_files(out))
    assert written[0] == written[1]


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
        written.append(_files(out))
    default, flag, from_file = written
    assert ({k: v for k, v in default.items() if k.name != "manifest.json"}
            != {k: v for k, v in flag.items() if k.name != "manifest.json"})
    assert from_file == flag


def test_simulate_says_a_run_that_ends_outside_the_band_did_not_settle(
        tmp_path, capsys):
    assert run_cli("simulate", "--horizon", "0.00025",
                   "--output-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "did not settle within 2% by t=0.000125s" in out
    assert "settle_2pct=" not in out


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
    assert run_cli("simulate", "--horizon", "0.25",
                   "--output-dir", str(tmp_path)) == 0
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
    assert run_cli("simulate", "--horizon", "0.5", "--dist-kind", "step",
                   "--dist-amplitude", "1.0", "--dist-onset", "0.25",
                   "--output-dir", str(tmp_path)) == 0
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
    monkeypatch.chdir(tmp_path)
    assert_rejected(["simulate", "--Ts", "1e-12"],
                    ERR + r"Unable to allocate 7\.28 TiB", capsys)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_over_gain_scales(tmp_path):
    assert run_cli("sweep", "--param", "gain_scale", "--values", "0.5", "1",
                   "2", "--horizon", "0.1", "--output-dir", str(tmp_path)) == 0
    names = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
    assert names == [
        "step_ifadrc_scale_0.5.csv",
        "step_ifadrc_scale_1.csv",
        "step_ifadrc_scale_2.csv",
    ]


def test_sweep_over_parameter_grid(tmp_path):
    assert run_cli("sweep", "--param", "K", "--values", "100", "150",
                   "--horizon", "0.1", "--output-dir", str(tmp_path)) == 0
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
        written.append(_files(out))
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
    produced = {path.as_posix(): hashlib.sha256(data).hexdigest()
                for path, data in _files(root).items()}
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
    # a fresh interpreter that imports this checkout
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
