"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up `setup_s` measures), runs one timed iteration in `run`, and
judges the iteration's outputs in `check`, outside the timed region.  Every
call into fracadrc goes through a module attribute (`control.run_closed_loop`,
not a name imported from it) so the tracer's patches reach it.

An operation is one unit the workload attempts: an artifact file of
`reproduce all`, one 16 s run, one sweep configuration.  It fails on a
divergence, a configuration the stability gate rejects, an output that
fails the check, or an exception.  A run repeats the same operations in
every iteration, so it counts each operation once, as failed if it failed
in any iteration; the counts then depend on the seed only, not on how many
iterations fit in the run.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracadrc import cli, control, experiments, plant, stability
import reference

DEFAULT_SEED = 0


@dataclass
class Outcome:
    """What one iteration attempted and how it went."""

    ops: dict = field(default_factory=dict)  # operation -> whether it failed
    check_failures: int = 0  # outputs that exist but fail the check
    steps: int = 0           # closed-loop samples simulated
    configs: int = 0         # closed-loop configurations attempted
    artifacts: int = 0
    bytes_changed: int = 0
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.ops.values())


def _params() -> dict:
    return dict(experiments.DEFAULT_PARAMS)


def _finite(traj) -> bool:
    return all(np.all(np.isfinite(col))
               for col in reference.trajectory_columns(traj).values())


def _describe(result) -> str:
    if isinstance(result, control.SimulationDiverged):
        return f"diverged@{result.step_index}"
    return f"error:{type(result).__name__}"


def _steps(result) -> int:
    if isinstance(result, control.SimulationDiverged):
        return result.step_index + 1
    return 0 if isinstance(result, Exception) else len(result)


class ReproduceAll:
    """`fracadrc reproduce all` in-process, from a fresh empty working
    directory each iteration.  The output path is relative because every
    manifest embeds it; so the tree is byte-identical from run to run.  The
    experiments have frozen parameters, so the seed does not apply."""

    name = "reproduce-all"
    reference_name = "reproduce-all.json"
    host_sampled = True  # see hostspeed.py
    ARGV = ("reproduce", "all", "--output-dir", "results")

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.argv = list(self.ARGV)
        self._iteration = 0
        self._dir: Path | None = None

    def prepare(self) -> None:
        self._iteration += 1
        self._dir = self.workdir / f"iteration-{self._iteration}"
        self._dir.mkdir(parents=True)

    def run(self):
        here = os.getcwd()
        os.chdir(self._dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(self.argv)
        finally:
            os.chdir(here)

    def cleanup(self) -> None:
        shutil.rmtree(self._dir)

    def _produced(self) -> dict[str, Path]:
        root = self._dir / "results"
        if not root.is_dir():
            return {}
        return {p.relative_to(root).as_posix(): p
                for p in sorted(root.rglob("*")) if p.is_file()}

    def check(self, result, ref: dict) -> Outcome:
        produced = self._produced()
        out = Outcome(steps=ref["steps"], configs=ref["configs"],
                      artifacts=len(produced))
        expected = ref["files"]
        for rel in sorted(set(expected) | set(produced)):
            if rel not in produced or rel not in expected:
                status = "failed"
            else:
                status = reference.compare_file(expected[rel], produced[rel])
            if status == "failed":
                out.check_failures += 1
                out.notes.append(f"{rel}: {'missing' if rel not in produced else 'mismatch'}")
            elif status == "values":
                out.bytes_changed += 1
            # the command itself failing fails every artifact
            out.ops[rel] = status == "failed" or result != 0
        if result != 0:
            out.notes.append(f"reproduce all: {result!r}")
        return out

    def make_reference(self) -> dict:
        self.prepare()
        try:
            if self.run() != 0:
                raise RuntimeError("reproduce all failed")
            files = {rel: reference.file_record(path)
                     for rel, path in self._produced().items()}
        finally:
            self.cleanup()
        trajectories = [rec for rec in files.values()
                        if "fingerprint" in rec and "y" in rec["fingerprint"]]
        reports = [rec for rec in files.values() if "verdict" in rec]
        return {"files": files,
                "steps": sum(rec["fingerprint"]["t"]["n"]
                             for rec in trajectories),
                "configs": len(trajectories) + len(reports)}


class LongHorizon:
    """One 16 s closed-loop run per variant at the default bench parameters,
    in memory, with a seeded input-step disturbance in the second half."""

    name = "long-horizon"
    reference_name = "long-horizon-seed0.json"
    # timed as measured, not at reference host speed (hostspeed.py): the
    # GL history sum's long dot products slow by other amounts than the
    # calibration kernel when the host slows, and the one 32 s iteration
    # averages over the host's modes.  Over five seeds its raw time spread
    # by 0.04 and its normalized time by 0.10.
    host_sampled = False
    HORIZON = 16.0
    SETTLE_TOL = 0.01  # |y - v_d| at the last sample, relative to v_d

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        onset = float(rng.uniform(0.5, 0.875) * self.HORIZON)
        amplitude = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
        self.disturbance = plant.DisturbanceSignal.step(amplitude, onset)
        p = _params()
        self.plant_args = (p["a_o"], p["b_o"], p["mu"], p["Ts"])
        self.configs = [control.AdrcConfig(variant=v, K=p["K"],
                                           omega_o=p["omega_o"], b=p["b"],
                                           Ts=p["Ts"], horizon=self.HORIZON)
                        for v in control.AdrcVariant]

    def prepare(self) -> None:
        pass

    def run(self) -> dict:
        out = {}
        for cfg in self.configs:
            try:
                out[cfg.variant.value] = control.run_closed_loop(
                    cfg, plant.FracPlant(*self.plant_args), v_d=1.0,
                    d=self.disturbance)
            except Exception as exc:  # an exception is a failed operation
                out[cfg.variant.value] = exc
        return out

    def cleanup(self) -> None:
        pass

    def check(self, result: dict, ref: dict | None) -> Outcome:
        out = Outcome(configs=len(self.configs))
        for variant, traj in result.items():
            out.steps += _steps(traj)
            out.ops[variant] = isinstance(traj, Exception)
            if isinstance(traj, Exception):
                out.notes.append(f"{variant}: {_describe(traj)}")
                if ref is not None:
                    out.check_failures += 1
                continue
            ok = _finite(traj) and abs(traj.y[-1] - traj.v_d[-1]) \
                <= self.SETTLE_TOL * abs(traj.v_d[-1])
            if ok and ref is not None:
                ok = reference.matches(ref["runs"][variant],
                                       reference.fingerprint(
                                           reference.trajectory_columns(traj)))
            out.notes.append(f"{variant}: {'completed' if ok else 'check failed'}")
            if not ok:
                out.ops[variant] = True
                out.check_failures += 1
        return out

    def make_reference(self) -> dict:
        result = self.run()
        return {"seed": self.seed,
                "runs": {v: reference.fingerprint(
                    reference.trajectory_columns(traj))
                    for v, traj in result.items()}}


@dataclass(frozen=True)
class SweepConfig:
    mu: float
    K: float
    gain_scale: float
    variant: control.AdrcVariant

    def label(self) -> str:
        return (f"mu={self.mu:g} K={self.K:.2f} scale={self.gain_scale:.3f} "
                f"{self.variant.value}")


class DesignSweep:
    """24 configurations: mu cycles through MUS at each true-gain scale in
    SCALES, each (mu, scale) runs every variant, and K is drawn from the
    seed.  Each configuration runs the stability gate of `stability` and
    `reproduce custom`; if it passes, a 1 s closed-loop run and its step
    metrics, in memory.

    The scales are the two ends of [0.5, 2].  Between them, whether mu = 0.73
    diverges depends on K and the scale; at the ends it does not depend on
    K in K_RANGE.  So every seed gives the same 6 divergences of 24: fadrc
    and ifadrc at mu = 0.6 on both scales and at mu = 0.73 on scale 2."""

    name = "design-sweep"
    reference_name = "design-sweep-seed0.json"
    host_sampled = True  # see hostspeed.py
    MUS = (0.6, 0.73, 0.8, 0.87)
    SCALES = (0.5, 2.0)
    K_RANGE = (100.0, 200.0)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.params = _params()
        self.configs = []
        for scale in self.SCALES:
            for mu in self.MUS:
                K = float(rng.uniform(*self.K_RANGE))
                self.configs += [SweepConfig(mu, K, scale, v)
                                 for v in control.AdrcVariant]

    def prepare(self) -> None:
        pass

    def _one(self, c: SweepConfig):
        p = self.params
        b_o = c.gain_scale * p["b_o"]
        num, den = stability.rationalize_order(c.mu)
        poly = stability.build_char_poly(p["b"], b_o, p["a_o"], c.K,
                                         2.0 * p["omega_o"],
                                         p["omega_o"] ** 2, num, den)
        report = stability.sector_test(poly)
        if not report.stable:
            return report, None, None
        cfg = control.AdrcConfig(variant=c.variant, K=c.K,
                                 omega_o=p["omega_o"], b=p["b"], Ts=p["Ts"],
                                 horizon=p["horizon"])
        traj = control.run_closed_loop(
            cfg, plant.FracPlant(p["a_o"], b_o, c.mu, p["Ts"]))
        metrics = experiments.step_metrics(traj.t, traj.y, traj.v_d,
                                           traj.u0, traj.Ts)
        return report, traj, metrics

    def run(self) -> list:
        out = []
        for c in self.configs:
            try:
                out.append(self._one(c))
            except Exception as exc:  # an exception is a failed operation
                out.append(exc)
        return out

    def cleanup(self) -> None:
        pass

    def check(self, result: list, ref: dict | None) -> Outcome:
        out = Outcome(configs=len(self.configs))
        for i, (c, res) in enumerate(zip(self.configs, result)):
            expected = ref["configs"][i] if ref is not None else None
            if isinstance(res, Exception):
                status = _describe(res)
                out.steps += _steps(res)
            elif res[1] is None:
                status = "gated"
            else:
                out.steps += len(res[1])
                status = "completed"
                if not _finite(res[1]):
                    status = "check failed: not finite"
                elif expected is not None \
                        and expected["outcome"] == "completed" \
                        and not self._matches(expected, self._entry(c, res)):
                    status = "check failed: differs from reference"
            # a configuration the reference completed must still complete
            lost = expected is not None \
                and expected["outcome"] == "completed" \
                and status != "completed"
            if status.startswith("check failed") or lost:
                out.check_failures += 1
            out.ops[f"{i}: {c.label()}"] = status != "completed"
            out.notes.append(f"{c.label()}: {status}")
        return out

    @staticmethod
    def _entry(c: SweepConfig, res) -> dict:
        entry = {"label": c.label()}
        if isinstance(res, Exception):
            entry["outcome"] = _describe(res)
        elif res[1] is None:
            entry["outcome"] = "gated"
        else:
            entry.update(outcome="completed",
                         fingerprint=reference.fingerprint(
                             reference.trajectory_columns(res[1])),
                         metrics=reference.fingerprint(
                             {k: [v] for k, v in res[2].items()}))
        return entry

    @staticmethod
    def _matches(expected: dict, entry: dict) -> bool:
        return expected["label"] == entry["label"] \
            and reference.matches(expected["fingerprint"], entry["fingerprint"]) \
            and reference.matches(expected["metrics"], entry["metrics"])

    def make_reference(self) -> dict:
        return {"seed": self.seed,
                "configs": [self._entry(c, res)
                            for c, res in zip(self.configs, self.run())]}


WORKLOADS = {w.name: w for w in (ReproduceAll, LongHorizon, DesignSweep)}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)


def load_reference(workload) -> dict | None:
    """The committed reference this iteration is compared with: always for
    reproduce-all, at the default seed only for the seeded workloads."""
    if isinstance(workload, ReproduceAll) or workload.seed == DEFAULT_SEED:
        return reference.load(workload.reference_name)
    return None

