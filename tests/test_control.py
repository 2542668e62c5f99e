"""Closed-loop controller: simulation driver, trajectory serialization,
disturbance rejection, gain-scale runs, and variant reductions."""
from __future__ import annotations

import numpy as np
import pytest

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
from fracadrc.control import TRAJECTORY_COLUMNS
from fracadrc.experiments import trajectory_files

from helpers import REF, ref_config, ref_plant, symbol_response


# ---------------------------------------------------------------------------
# Simulation driver basics
# ---------------------------------------------------------------------------


def test_zero_reference_stays_at_rest():
    traj = run_closed_loop(ref_config(horizon=0.1), ref_plant(), v_d=0.0)
    for arr in (traj.y, traj.u, traj.u0, traj.z1, traj.z2, traj.q_hat):
        assert np.max(np.abs(arr)) == 0.0


def test_simulation_is_deterministic():
    a = run_closed_loop(ref_config(horizon=0.1), ref_plant(), v_d=1.0)
    b = run_closed_loop(ref_config(horizon=0.1), ref_plant(), v_d=1.0)
    for name in ("t", "v_d", "y", "u", "u0", "z1", "z2", "q_hat", "d"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_trajectory_length_and_grid():
    cfg = ref_config(horizon=0.1)
    traj = run_closed_loop(cfg, ref_plant(), v_d=1.0)
    assert traj.t.size == int(round(0.1 / cfg.Ts))
    np.testing.assert_allclose(np.diff(traj.t), cfg.Ts, rtol=1e-9)
    assert traj.Ts == cfg.Ts


def test_requires_fresh_plant():
    plant = ref_plant()
    plant.step(1.0)
    with pytest.raises(ValueError, match="fresh"):
        run_closed_loop(ref_config(horizon=0.01), plant)


def test_requires_matching_sample_time():
    with pytest.raises(ValueError, match="Ts"):
        run_closed_loop(ref_config(horizon=0.01), ref_plant(Ts=1e-3))


def test_horizon_must_hold_two_samples():
    # the step metrics of a run take a numerical gradient of y
    with pytest.raises(ValueError, match="shorter than two samples"):
        run_closed_loop(ref_config(horizon=REF["Ts"]), ref_plant())
    assert len(run_closed_loop(ref_config(horizon=2 * REF["Ts"]),
                               ref_plant())) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ref_config(horizon=0.0)
    with pytest.raises(ValueError):
        ref_config(K=-1.0)
    with pytest.raises(ValueError):
        ref_config(omega_o=0.0)
    with pytest.raises(ValueError):
        ref_config(b=0.0)
    with pytest.raises(ValueError):
        ref_config(variant=None)
    with pytest.raises(ValueError):
        ref_config(variant=5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("build", [
    pytest.param(lambda v: ref_config(K=v), id="AdrcConfig.K"),
    pytest.param(lambda v: ref_config(omega_o=v), id="AdrcConfig.omega_o"),
    pytest.param(lambda v: ref_config(Ts=v), id="AdrcConfig.Ts"),
    pytest.param(lambda v: ref_config(horizon=v), id="AdrcConfig.horizon"),
    pytest.param(lambda v: ref_config(b=v), id="AdrcConfig.b"),
    pytest.param(lambda v: ref_plant(a_o=v), id="FracPlant.a_o"),
    pytest.param(lambda v: ref_plant(b_o=v), id="FracPlant.b_o"),
    pytest.param(lambda v: ref_plant(Ts=v), id="FracPlant.Ts"),
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
    pytest.param(lambda v: run_closed_loop(ref_config(horizon=0.001),
                                           ref_plant(), v_d=v),
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
        run_closed_loop(ref_config(variant=variant, horizon=0.001), ref_plant())
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

    def spy_observer(cfg, plant, make=control._observer):
        observers.append(make(cfg, plant))
        return observers[-1]

    monkeypatch.setattr(FracPlant, "step", spy_step)
    monkeypatch.setattr(control, "_observer", spy_observer)
    gains = {name: np.float64(REF[name]) for name in ("K", "omega_o", "b")}
    for variant in AdrcVariant:
        disturbances.clear()
        run_closed_loop(ref_config(variant=variant, horizon=0.01, **gains),
                        ref_plant(), d=DisturbanceSignal.step(0.5, 0.005))
        assert disturbances == [float] * 80
        obs = observers[-1]
        assert [type(obs.z1), type(obs.z2), type(obs.q_hat), type(obs.beta1),
                type(obs.beta2)] == [float] * 5
    cfg = AdrcConfig(K=np.float64(150.0), omega_o=np.float64(400.0),
                     b=np.float64(1.0), Ts=np.float64(REF["Ts"]),
                     horizon=np.float64(1.0))
    for name in ("K", "omega_o", "b", "Ts", "horizon"):
        assert type(getattr(cfg, name)) is float


def test_disturbance_must_be_a_signal():
    with pytest.raises(TypeError, match="DisturbanceSignal"):
        run_closed_loop(ref_config(horizon=0.01), ref_plant(),
                        d=np.zeros(80))


def test_divergence_raises_with_step_index():
    with pytest.raises(SimulationDiverged) as exc:
        run_closed_loop(ref_config(horizon=0.5), ref_plant(b_o=-1.0))
    assert exc.value.step_index > 0
    assert "diverged at step" in str(exc.value)
    assert "np.float64" not in str(exc.value)  # plain-float message


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    traj = run_closed_loop(ref_config(horizon=0.02), ref_plant(), v_d=1.0)
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
    assert (tmp_path / "traj.csv").read_text() == expected


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
    rec = reconstruct_disturbances(traj, ref_plant(), b=REF["b"])
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
    cfg = ref_config(horizon=1.0)
    dist = DisturbanceSignal(kind="step", amplitude=1.0, onset=0.5)
    traj = run_closed_loop(cfg, ref_plant(), v_d=1.0, d=dist)
    after = traj.t >= 0.5
    assert np.max(np.abs(traj.y[after] - 1.0)) < 0.01
    assert abs(traj.y[-1] - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# Gain-scale sweeps
# ---------------------------------------------------------------------------


def scaled_runs(outdir, horizon: float, scales) -> list[Trajectory]:
    """The reference loop's runs with its true plant gain b_o scaled, as a
    sweep makes them: gain scale s is the loop point with b_o * s."""
    point = {**REF, "horizon": horizon,
             "variant": AdrcConfig.variant.value}
    trajectory_files(outdir, {}, {}, [
        (f"scale_{s:g}.csv", {**point, "b_o": point["b_o"] * s}, point)
        for s in scales])
    return [Trajectory.from_csv(outdir / f"scale_{s:g}.csv") for s in scales]


def test_unit_scale_sweep_matches_single_run(tmp_path):
    cfg = ref_config(horizon=0.1)
    single = run_closed_loop(cfg, ref_plant(), v_d=1.0)
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
    cfg_int = ref_config(variant=AdrcVariant.IADRC, horizon=0.25)
    base = run_closed_loop(cfg_int, ref_plant(mu=mu), v_d=1.0)
    cfg = ref_config(variant=variant, horizon=0.25)
    other = run_closed_loop(cfg, ref_plant(mu=mu), v_d=1.0)
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
            ref_config(variant=variant, Ts=Ts, horizon=horizon),
            ref_plant(mu=mu, Ts=Ts))

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
    # run; measured within 2.3e-13 of each column's max_abs.  A q_hat the
    # observer holds at zero comes back as rounding noise, held to y's size.
    cfg = ref_config(variant=variant)
    traj = run_closed_loop(cfg, ref_plant(), v_d=1.0, d=d)
    oracle = symbol_response(cfg, ref_plant(), v_d=1.0, d=d)
    for name, column in oracle.items():
        simulated = getattr(traj, name)
        scale = np.max(np.abs(simulated)) or np.max(np.abs(traj.y))
        assert np.max(np.abs(column - simulated)) <= 1e-11 * scale, name


def test_loop_symbol_takes_exactly_one_kind_of_point():
    cfg, plant = ref_config(), ref_plant()
    with pytest.raises(ValueError, match="exactly one"):
        loop_symbol(cfg, plant)
    with pytest.raises(ValueError, match="exactly one"):
        loop_symbol(cfg, plant, zeta=0.5, s=1j)
    assert loop_symbol(cfg, plant, zeta=np.zeros((2, 3))).shape == (2, 3, 5, 5)
