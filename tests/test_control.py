"""Closed-loop controller: simulation driver, trajectory serialization,
disturbance rejection, gain-scale runs, and variant reductions."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracadrc import (
    AdrcConfig,
    AdrcVariant,
    DisturbanceSignal,
    Feso,
    FracPlant,
    GLOperator,
    Ieso,
    Ifeso,
    SimulationDiverged,
    Trajectory,
    bandwidth_gains,
    gl_differintegral,
    loop_symbol,
    reconstruct_disturbances,
    run_closed_loop,
)
from fracadrc import control
from fracadrc.artifacts import CSV_BLOCK_ROWS
from fracadrc.control import DIVERGENCE_LIMIT, TRAJECTORY_COLUMNS
from fracadrc.experiments import trajectory_files

from helpers import REF, continuous_step, ref_loop, symbol_response, talbot


# ---------------------------------------------------------------------------
# Simulation driver basics
# ---------------------------------------------------------------------------


def test_zero_reference_stays_at_rest():
    traj = run_closed_loop(ref_loop(horizon=0.1), v_d=0.0)
    for arr in (traj.y, traj.u, traj.u0, traj.z1, traj.z2, traj.q_hat):
        assert np.max(np.abs(arr)) == 0.0


def test_simulation_is_deterministic():
    a = run_closed_loop(ref_loop(horizon=0.1), v_d=1.0)
    b = run_closed_loop(ref_loop(horizon=0.1), v_d=1.0)
    for name in ("t", "v_d", "y", "u", "u0", "z1", "z2", "q_hat", "d"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_trajectory_length_and_grid():
    cfg = ref_loop(horizon=0.1)
    traj = run_closed_loop(cfg, v_d=1.0)
    assert traj.t.size == int(round(0.1 / cfg.Ts))
    np.testing.assert_allclose(np.diff(traj.t), cfg.Ts, rtol=1e-9)
    assert traj.Ts == cfg.Ts


def test_requires_matching_sample_time():
    with pytest.raises(ValueError, match="Ts"):
        run_closed_loop(ref_loop(horizon=0.01),
                        FracPlant(10.0, 1.0, 0.8, 1e-3))


def _outcome(*args, **kwargs):
    """The bytes of every column of run_closed_loop(*args, **kwargs), or
    where and how it diverged."""
    try:
        traj = run_closed_loop(*args, **kwargs)
    except SimulationDiverged as exc:
        return exc.step_index, exc.value
    return [getattr(traj, name).tobytes() for name in TRAJECTORY_COLUMNS]


@pytest.mark.parametrize("plant, d", [
    pytest.param({"a_o": 10.0, "b_o": 2.0, "mu": 0.73}, None,
                 id="mu-0.73-b_o-2"),
    pytest.param({"a_o": 10.0, "b_o": 1.0, "mu": 0.8},
                 DisturbanceSignal.step(-1.5, 0.02), id="step-disturbance"),
])
@pytest.mark.parametrize("variant", list(AdrcVariant))
def test_a_passed_plant_runs_as_the_one_loop_value(variant, plant, d):
    # the call form of the benchmark harness: a config of the controller
    # fields with a plant beside it runs the loop that holds both, bit for bit
    cfg = AdrcConfig(variant=variant, K=REF["K"], omega_o=REF["omega_o"],
                     b=REF["b"], Ts=REF["Ts"], horizon=0.05)
    passed = _outcome(cfg, FracPlant(Ts=REF["Ts"], **plant), v_d=1.0, d=d)
    assert passed == _outcome(ref_loop(variant=variant, horizon=0.05, **plant),
                              v_d=1.0, d=d)


def test_horizon_must_hold_two_samples():
    # the step metrics of a run take a numerical gradient of y
    with pytest.raises(ValueError, match="shorter than two samples"):
        run_closed_loop(ref_loop(horizon=REF["Ts"]))
    assert len(run_closed_loop(ref_loop(horizon=2 * REF["Ts"]))) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ref_loop(horizon=0.0)
    with pytest.raises(ValueError):
        ref_loop(K=-1.0)
    with pytest.raises(ValueError):
        ref_loop(omega_o=0.0)
    with pytest.raises(ValueError):
        ref_loop(b=0.0)
    with pytest.raises(ValueError):
        ref_loop(variant=None)
    with pytest.raises(ValueError):
        ref_loop(variant=5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("build", [
    pytest.param(lambda v: ref_loop(K=v), id="AdrcConfig.K"),
    pytest.param(lambda v: ref_loop(omega_o=v), id="AdrcConfig.omega_o"),
    pytest.param(lambda v: ref_loop(Ts=v), id="AdrcConfig.Ts"),
    pytest.param(lambda v: ref_loop(horizon=v), id="AdrcConfig.horizon"),
    pytest.param(lambda v: ref_loop(b=v), id="AdrcConfig.b"),
    pytest.param(lambda v: ref_loop(a_o=v), id="AdrcConfig.a_o"),
    pytest.param(lambda v: ref_loop(b_o=v), id="AdrcConfig.b_o"),
    pytest.param(lambda v: FracPlant(10.0, 1.0, 0.8, v), id="FracPlant.Ts"),
    pytest.param(lambda v: FracPlant(v, 1.0, 0.8, REF["Ts"]),
                 id="FracPlant.a_o"),
    pytest.param(lambda v: FracPlant(10.0, v, 0.8, REF["Ts"]),
                 id="FracPlant.b_o"),
    pytest.param(bandwidth_gains, id="bandwidth_gains"),
    pytest.param(lambda v: Ieso(v, 1.0, REF["Ts"]), id="Ieso.omega_o"),
    pytest.param(lambda v: Feso(v, 1.0, 0.8, REF["Ts"]), id="Feso.omega_o"),
    pytest.param(lambda v: Ifeso(v, 1.0, 0.8, REF["Ts"]), id="Ifeso.omega_o"),
    pytest.param(lambda v: DisturbanceSignal.step(v),
                 id="DisturbanceSignal.amplitude"),
    pytest.param(lambda v: DisturbanceSignal.sinusoid(1.0, v),
                 id="DisturbanceSignal.frequency"),
    pytest.param(lambda v: DisturbanceSignal.step(1.0, v),
                 id="DisturbanceSignal.onset"),
    pytest.param(lambda v: run_closed_loop(ref_loop(horizon=0.001), v_d=v),
                 id="run_closed_loop.v_d"),
    pytest.param(lambda v: Ieso(400.0, 1.0, v), id="Ieso.Ts"),
    pytest.param(lambda v: Feso(400.0, 1.0, 0.8, v), id="Feso.Ts"),
    pytest.param(lambda v: Ifeso(400.0, 1.0, 0.8, v), id="Ifeso.Ts"),
    pytest.param(lambda v: GLOperator(0.8, v), id="GLOperator.step"),
    pytest.param(lambda v: gl_differintegral(np.ones(4), 0.8, v),
                 id="gl_differintegral.step"),
])
def test_constructors_reject_non_finite_values(build, value):
    with pytest.raises(ValueError):
        build(value)


def test_each_variant_runs_its_own_observer(monkeypatch):
    seen = []
    for cls in (Ieso, Feso, Ifeso):
        def spy(self, u, y, step=cls.step):
            seen.append(type(self))
            step(self, u, y)
        monkeypatch.setattr(cls, "loop_step", spy)
    expected = {AdrcVariant.IADRC: Ieso, AdrcVariant.FADRC: Feso,
                AdrcVariant.IFADRC: Ifeso}
    for variant, cls in expected.items():
        seen.clear()
        run_closed_loop(ref_loop(variant=variant, horizon=0.001))
        assert seen == [cls] * 8  # 1 ms at 8 kHz


def test_loop_arithmetic_stays_in_python_floats(monkeypatch):
    # numpy scalar arithmetic costs several times a float's, and one numpy
    # operand turns every later state into a numpy scalar
    disturbances = []
    plant_step = FracPlant.step

    def spy_step(self, u, d=0.0):
        disturbances.append(type(d))
        return plant_step(self, u, d)

    observers = []

    def spy_observer(cfg, make=control._observer):
        observers.append(make(cfg))
        return observers[-1]

    monkeypatch.setattr(FracPlant, "step", spy_step)
    monkeypatch.setattr(control, "_observer", spy_observer)
    gains = {name: np.float64(REF[name]) for name in ("K", "omega_o", "b")}
    for variant in AdrcVariant:
        disturbances.clear()
        run_closed_loop(ref_loop(variant=variant, horizon=0.01, **gains),
                        d=DisturbanceSignal.step(0.5, 0.005))
        assert disturbances == [float] * 80
        obs = observers[-1]
        assert [type(obs.z1), type(obs.z2), type(obs.q_hat), type(obs.beta1),
                type(obs.beta2)] == [float] * 5
    cfg = AdrcConfig(**{name: np.float64(value)
                        for name, value in REF.items()})
    for name in REF:
        assert type(getattr(cfg, name)) is float


def test_disturbance_must_be_a_signal():
    with pytest.raises(TypeError, match="DisturbanceSignal"):
        run_closed_loop(ref_loop(horizon=0.01), d=np.zeros(80))


NYQUIST = math.pi / REF["Ts"]


@pytest.mark.parametrize("frequency", [NYQUIST, -NYQUIST, 2.0 * NYQUIST],
                         ids=["pi/Ts", "-pi/Ts", "2pi/Ts"])
def test_sinusoid_at_or_above_nyquist_fails_before_any_step(monkeypatch,
                                                            frequency):
    # at 2 pi/Ts every sample of the sinusoid is about zero
    steps = []
    monkeypatch.setattr(FracPlant, "step",
                        lambda self, u, d=0.0: steps.append(d) or 0.0)
    with pytest.raises(ValueError, match="Nyquist limit pi/Ts"):
        run_closed_loop(ref_loop(horizon=0.01),
                        d=DisturbanceSignal.sinusoid(1.0, frequency))
    assert not steps


def test_sinusoid_just_below_nyquist_runs():
    below = math.nextafter(NYQUIST, 0.0)
    traj = run_closed_loop(ref_loop(horizon=0.01),
                           d=DisturbanceSignal.sinusoid(1.0, below))
    np.testing.assert_array_equal(traj.d, np.sin(below * traj.t))


LAST_SAMPLE = 79 * REF["Ts"]  # a 10 ms run at 8 kHz: samples 0 .. 79


def test_step_onset_at_the_last_sample_runs():
    traj = run_closed_loop(ref_loop(horizon=0.01),
                           d=DisturbanceSignal.step(0.5, LAST_SAMPLE))
    assert traj.t[-1] == LAST_SAMPLE
    assert traj.d.tolist() == [0.0] * 79 + [0.5]


def test_step_onset_after_the_last_sample_fails_before_any_step(monkeypatch):
    steps = []
    monkeypatch.setattr(FracPlant, "step",
                        lambda self, u, d=0.0: steps.append(d) or 0.0)
    onset = math.nextafter(LAST_SAMPLE, 1.0)
    with pytest.raises(ValueError, match="after the last sample time"):
        run_closed_loop(ref_loop(horizon=0.01),
                        d=DisturbanceSignal.step(0.5, onset))
    assert not steps


def test_divergence_raises_with_step_index():
    with pytest.raises(SimulationDiverged) as exc:
        run_closed_loop(ref_loop(horizon=0.5, b_o=-1.0))
    assert exc.value.step_index > 0
    assert "diverged at step" in str(exc.value)
    assert "np.float64" not in str(exc.value)  # plain-float message


@pytest.mark.parametrize("beyond", [np.nan, np.inf, -np.inf,
                                    np.nextafter(DIVERGENCE_LIMIT, np.inf)],
                         ids=["nan", "inf", "-inf", "next-above-limit"])
def test_divergence_is_caught_at_the_first_output_out_of_bounds(monkeypatch,
                                                               beyond):
    # +-DIVERGENCE_LIMIT are in bounds; the next output, past the limit or
    # not finite, stops the run at its own step with its own value
    outputs = iter([DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT, float(beyond)])
    monkeypatch.setattr(FracPlant, "step",
                        lambda self, u, d=0.0: next(outputs, 0.0))
    with pytest.raises(SimulationDiverged) as exc:
        run_closed_loop(ref_loop(horizon=0.01))
    assert exc.value.step_index == 2
    assert type(exc.value.value) is float
    assert (exc.value.value == beyond
            or (math.isnan(beyond) and math.isnan(exc.value.value)))


@pytest.mark.parametrize("variant", list(AdrcVariant))
@pytest.mark.parametrize("size, disturbed", [(2e9, False), (1e12, True)],
                         ids=["reference-2e9", "reference-and-step-1e12"])
def test_divergence_bound_scales_with_the_inputs(variant, size, disturbed):
    # the loop is linear: inputs `size` times the unit ones run `size` times
    # the unit run, past DIVERGENCE_LIMIT, and complete
    cfg = ref_loop(variant=variant, horizon=0.2)
    d = DisturbanceSignal("step", amplitude=1.0, onset=0.1)
    unit = run_closed_loop(cfg, d=d if disturbed else None).y
    big = run_closed_loop(cfg, v_d=size, d=DisturbanceSignal(
        "step", amplitude=size, onset=0.1) if disturbed else None).y
    assert np.max(np.abs(big)) > DIVERGENCE_LIMIT
    np.testing.assert_allclose(big / size, unit, rtol=0,
                               atol=1e-12 * np.max(np.abs(unit)))


def test_scaled_divergence_bound_still_stops_a_diverging_run(monkeypatch):
    # the bound scales with the reference, but a loop that diverges still
    # stops; at a reference past 1e299 the bound is the largest float, so
    # an infinite output stops the run at its own step
    with pytest.raises(SimulationDiverged):
        run_closed_loop(ref_loop(horizon=0.5, b_o=-1.0), v_d=2e9)
    outputs = iter([1e300, float("inf")])
    monkeypatch.setattr(FracPlant, "step",
                        lambda self, u, d=0.0: next(outputs, 0.0))
    with pytest.raises(SimulationDiverged) as exc:
        run_closed_loop(ref_loop(horizon=0.01), v_d=1e300)
    assert exc.value.step_index == 1


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    traj = run_closed_loop(ref_loop(horizon=0.02), v_d=1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,v_d,y,u,u0,z1,z2,q_hat,d"
    back = Trajectory.from_csv(path)
    for name in ("t", "v_d", "y", "u", "u0", "z1", "z2", "q_hat", "d"):
        np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))
    assert back.Ts == pytest.approx(traj.Ts, rel=1e-12)


@pytest.mark.parametrize("rows", [1, 0])
def test_short_trajectory_csv_is_rejected(tmp_path, rows):
    # one row reads back as a 0-d table, none as an empty one
    header = ",".join(TRAJECTORY_COLUMNS) + "\n"
    row = ",".join(["0.0"] * len(TRAJECTORY_COLUMNS)) + "\n"
    path = tmp_path / "traj.csv"
    path.write_text(header + row * rows)
    with pytest.raises(ValueError, match="needs at least 2 rows"):
        Trajectory.from_csv(path)


def test_trajectory_csv_is_row_by_row_repr_across_write_blocks(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(7)
    cols = {name: rng.standard_normal(n) for name in TRAJECTORY_COLUMNS}
    cols["y"][[0, CSV_BLOCK_ROWS, n - 1]] = [np.nan, -0.0, np.inf]
    Trajectory(Ts=1e-3, **cols).to_csv(tmp_path / "traj.csv")
    # the plain per-row writer is the reference
    expected = ",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n"
        for row in zip(*(cols[name] for name in TRAJECTORY_COLUMNS)))
    # as lists of lines, so that a mismatch is reported without a
    # character diff of two long texts
    assert ((tmp_path / "traj.csv").read_text().splitlines(keepends=True)
            == expected.splitlines(keepends=True))


# ---------------------------------------------------------------------------
# Reference tracking and disturbance estimation at the reference point
# ---------------------------------------------------------------------------


def test_integer_variant_observer_tracks_output(ref_trio):
    traj = ref_trio["iadrc"]["trajectory"]
    settled = traj.t >= 0.05
    assert np.max(np.abs(traj.z1 - traj.y)[settled]) < 1e-2


def test_improved_variant_observer_tracks_output(ref_trio):
    traj = ref_trio["ifadrc"]["trajectory"]
    settled = traj.t >= 0.05
    assert np.max(np.abs(traj.z1 - traj.y)[settled]) < 1e-3


def test_improved_variant_estimates_lumped_disturbance(ref_trio):
    traj = ref_trio["ifadrc"]["trajectory"]
    rec = reconstruct_disturbances(traj, ref_loop())
    settled = traj.t >= 0.05
    truth = rec["f_ifo"][settled]
    err = traj.z2[settled] - truth
    assert np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(truth**2)) < 0.05


def test_compensated_loop_behaves_first_order(ref_trio):
    # Once the observer has locked on, the drive reduces to ydot = u0, so
    # the numeric derivative of y must follow the outer-loop command.
    traj = ref_trio["ifadrc"]["trajectory"]
    window = (traj.t >= 0.01) & (traj.t <= 0.2)
    ydot = np.gradient(traj.y, traj.Ts)
    err = ydot[window] - traj.u0[window]
    scale = np.sqrt(np.mean(traj.u0[window] ** 2))
    assert np.sqrt(np.mean(err**2)) / scale < 0.05


def test_step_disturbance_is_rejected():
    cfg = ref_loop(horizon=1.0)
    dist = DisturbanceSignal(kind="step", amplitude=1.0, onset=0.5)
    traj = run_closed_loop(cfg, v_d=1.0, d=dist)
    after = traj.t >= 0.5
    assert np.max(np.abs(traj.y[after] - 1.0)) < 0.01
    assert abs(traj.y[-1] - 1.0) < 1e-6


# sha256 of the y, z1, z2 and q_hat bytes (<f8, in that order) of a 2.05 s
# run of each variant at the reference point: 16,400 samples, past
# NEAR_WINDOW, its first far-field blocks and the growth at 16,384 samples
LONG_RUN_SHA256 = {
    "iadrc": "4970fb41c339c78f77839727ce26bb3312a7af924ad8a7d2b0f0409f16305117",
    "fadrc": "9ed42948d9aef3a736d55c8c41001dcbbef41904935191929594c708079655cd",
    "ifadrc": "32751e8683ce40ed5250ca20bbcf52ab887d0a0c63cdabddb8fbfcfac31b99f8",
}


def test_runs_past_the_near_window_keep_their_bits():
    produced = {}
    for variant in LONG_RUN_SHA256:
        traj = run_closed_loop(ref_loop(variant=variant, horizon=2.05))
        assert traj.y.size == 16_400
        digest = hashlib.sha256()
        for column in (traj.y, traj.z1, traj.z2, traj.q_hat):
            digest.update(column.astype("<f8").tobytes())
        produced[variant] = digest.hexdigest()
    assert produced == LONG_RUN_SHA256


# ---------------------------------------------------------------------------
# Gain-scale sweeps
# ---------------------------------------------------------------------------


def scaled_runs(outdir, horizon: float, scales) -> list[Trajectory]:
    """The reference loop's runs with its true plant gain b_o scaled, as a
    sweep makes them: gain scale s runs the loop with b_o * s."""
    point = {**REF, "horizon": horizon,
             "variant": AdrcConfig.variant.value}
    trajectory_files(outdir, [(f"scale_{s:g}.csv", {**point, "gain_scale": s})
                              for s in scales])
    return [Trajectory.from_csv(outdir / f"scale_{s:g}.csv") for s in scales]


def test_unit_scale_sweep_matches_single_run(tmp_path):
    cfg = ref_loop(horizon=0.1)
    single = run_closed_loop(cfg, v_d=1.0)
    (swept,) = scaled_runs(tmp_path, 0.1, [1.0])
    np.testing.assert_array_equal(single.y, swept.y)
    np.testing.assert_array_equal(single.u, swept.u)


def test_sweep_returns_one_trajectory_per_scale(tmp_path):
    out = scaled_runs(tmp_path, 0.05, [0.5, 1.0, 2.0])
    assert len(out) == 3
    # Heavier plant gain means larger early output for the same command.
    early = [traj.y[10] for traj in out]
    assert early[0] < early[1] < early[2]


# ---------------------------------------------------------------------------
# Variant reductions at integer order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", [AdrcVariant.FADRC, AdrcVariant.IFADRC])
def test_fractional_variants_reduce_to_integer_variant(variant):
    mu = 1.0 - 1e-12
    base = run_closed_loop(ref_loop(variant=AdrcVariant.IADRC, mu=mu,
                                    horizon=0.25), v_d=1.0)
    other = run_closed_loop(ref_loop(variant=variant, mu=mu, horizon=0.25),
                            v_d=1.0)
    rms = np.sqrt(np.mean((other.y - base.y) ** 2))
    assert rms < 1e-6


# ---------------------------------------------------------------------------
# Smallest stable sampling rate
# ---------------------------------------------------------------------------

# Hz, at the reference K, omega_o, a_o and b = b_o: the bisected limits of
# README's "Numerical notes" table
STABLE_RATES = {
    "iadrc": {0.7: 1.1e3, 0.8: 0.82e3, 0.9: 0.67e3},
    "fadrc": {0.7: 12.1e3, 0.8: 3.4e3, 0.9: 1.3e3},
    "ifadrc": {0.7: 7.2e3, 0.8: 2.4e3, 0.9: 1.07e3},
}


@pytest.mark.parametrize("mu", [0.7, 0.8, 0.9])
@pytest.mark.parametrize("variant", list(STABLE_RATES))
def test_smallest_stable_sampling_rate(variant, mu):
    def run(rate, horizon):
        Ts = 1.0 / rate
        return run_closed_loop(
            ref_loop(variant=variant, Ts=Ts, horizon=horizon, mu=mu))

    rate = STABLE_RATES[variant][mu]
    with pytest.raises(SimulationDiverged):
        run(0.85 * rate, 200 / (0.85 * rate))
    assert np.max(np.abs(run(1.15 * rate, 0.5).y)) < 1.5


# ---------------------------------------------------------------------------
# The loop symbol
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [None, DisturbanceSignal.step(0.5, onset=0.3)],
                         ids=["no-disturbance", "step-disturbance"])
@pytest.mark.parametrize("variant", ["iadrc", "fadrc", "ifadrc"])
def test_simulator_is_its_symbol(variant, d):
    # The symbol's rows, inverted on a contour, give every column of the
    # run; measured within 2.3e-13 of each column's max_abs.
    cfg = ref_loop(variant=variant)
    traj = run_closed_loop(cfg, v_d=1.0, d=d)
    _assert_is_symbol(traj, symbol_response(cfg, v_d=1.0, d=d))


@settings(max_examples=25)
@given(variant=st.sampled_from(AdrcVariant),
       mu=st.floats(0.5, 0.95), K=st.floats(50.0, 300.0),
       omega_o=st.floats(100.0, 2000.0), a_o=st.floats(0.0, 20.0),
       b_o=st.floats(0.5, 2.0), fs=st.sampled_from([4e3, 8e3, 16e3, 32e3]),
       amplitude=st.floats(-2.0, 2.0), onset=st.floats(0.0, 1.0))
def test_random_loops_are_their_symbol(variant, mu, K, omega_o, a_o, b_o, fs,
                                       amplitude, onset):
    # every loop that does not diverge within 0.1 s matches its symbol's
    # response; `onset` is the step's time as a fraction of the last sample
    cfg = ref_loop(variant=variant, K=K, omega_o=omega_o, a_o=a_o, b_o=b_o,
                   mu=mu, Ts=1.0 / fs, horizon=0.1)
    d = DisturbanceSignal.step(amplitude,
                               onset=onset * (cfg.samples() - 1) * cfg.Ts)
    try:
        traj = run_closed_loop(cfg, v_d=1.0, d=d)
    except SimulationDiverged:
        return
    _assert_is_symbol(traj, symbol_response(cfg, v_d=1.0, d=d))


def _assert_is_symbol(traj: Trajectory, oracle: dict) -> None:
    """Each column of `oracle` matches `traj`'s within 1e-11 of that
    column's max_abs.  A q_hat the observer holds at zero comes back as
    rounding noise, held to y's size."""
    for name, column in oracle.items():
        simulated = getattr(traj, name)
        scale = np.max(np.abs(simulated)) or np.max(np.abs(traj.y))
        assert np.max(np.abs(column - simulated)) <= 1e-11 * scale, name


def test_loop_symbol_takes_exactly_one_kind_of_point():
    cfg = ref_loop()
    with pytest.raises(ValueError, match="exactly one"):
        loop_symbol(cfg)
    with pytest.raises(ValueError, match="exactly one"):
        loop_symbol(cfg, zeta=0.5, s=1j)
    assert loop_symbol(cfg, zeta=np.zeros((2, 3))).shape == (2, 3, 5, 5)


# ---------------------------------------------------------------------------
# The simulated loops against their continuous twins
# ---------------------------------------------------------------------------

# every millisecond of the first half second, on every sampling grid below
TWIN_MS = np.arange(1, 500)


@pytest.fixture(scope="module")
def continuous_twins():
    """y(t) of each variant's continuous loop at TWIN_MS, reference point."""
    return {v.value: continuous_step(ref_loop(variant=v),
                                     TWIN_MS * 1e-3) for v in AdrcVariant}


def test_talbot_inverts_a_known_transform():
    t = TWIN_MS * 1e-3
    y = talbot(lambda s: 1.0 / (s * (s + 1.0)), t)
    assert np.max(np.abs(y - (1.0 - np.exp(-t)))) < 1e-11  # 1.1e-12 measured


def test_continuous_improved_loop_is_first_order(continuous_twins):
    # The paper's claim: the improved observer turns the plant into 1/s, so
    # the loop follows 1 - exp(-K t); measured 1.76e-2 for ifadrc against
    # 0.339 and 0.353 for iadrc and fadrc.
    target = 1.0 - np.exp(-REF["K"] * TWIN_MS * 1e-3)
    dist = {v: np.max(np.abs(y - target)) for v, y in continuous_twins.items()}
    assert dist["ifadrc"] < 2.5e-2
    assert min(dist["iadrc"], dist["fadrc"]) > 10.0 * dist["ifadrc"]


@pytest.mark.parametrize("variant", ["iadrc", "fadrc", "ifadrc"])
def test_discretization_error_is_first_order(variant, ref_trio,
                                             continuous_twins):
    # max |y_sim - y_cont| at 8 and 32 kHz; measured 1.4e-2 / 2.8e-2 / 1.0e-2
    # at 8 kHz for iadrc / fadrc / ifadrc, and ratios 4.05 / 3.99 / 3.96
    fast = run_closed_loop(ref_loop(variant=variant, Ts=1.0 / 32000,
                                    horizon=0.5), v_d=1.0)
    y_cont = continuous_twins[variant]
    err_8k = np.max(np.abs(ref_trio[variant]["trajectory"].y[8 * TWIN_MS]
                           - y_cont))
    err_32k = np.max(np.abs(fast.y[32 * TWIN_MS] - y_cont))
    assert 3.0 <= err_8k / err_32k <= 5.0
