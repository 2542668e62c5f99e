"""Extended state observers: gain design, equilibria, disturbance
tracking, frequency response, boundedness, and cross-variant reductions."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracadrc import (
    Feso,
    FracPlant,
    Ieso,
    Ifeso,
    bandwidth_gains,
)

REF_TS = 1.0 / 8000.0


def _build(cls, omega_o=400.0):
    if cls is Ieso:
        return Ieso(omega_o, b=1.0, Ts=REF_TS)
    return cls(omega_o, b=1.0, mu=0.8, Ts=REF_TS)


# ---------------------------------------------------------------------------
# Gain design
# ---------------------------------------------------------------------------


def test_bandwidth_gain_examples():
    assert bandwidth_gains(400.0) == (800.0, 160000.0)
    assert bandwidth_gains(1600.0) == (3200.0, 2560000.0)
    assert bandwidth_gains(1.0) == (2.0, 1.0)
    gains = bandwidth_gains(np.float64(400.0))
    assert gains == (800.0, 160000.0)
    assert [type(g) for g in gains] == [float] * 2


@given(omega_o=st.floats(min_value=1e-3, max_value=1e6))
def test_bandwidth_gains_critically_damped(omega_o):
    beta1, beta2 = bandwidth_gains(omega_o)
    # (s + omega_o)^2 = s^2 + beta1*s + beta2
    assert beta1 == pytest.approx(2.0 * omega_o, rel=1e-12)
    assert beta2 == pytest.approx(omega_o**2, rel=1e-12)


def test_gain_validation():
    # 1e200 and 1e-200 are finite, but their squares are inf and 0
    for omega_o in (0.0, -5.0, math.nan, math.inf, -math.inf, 1e200,
                    1e-200):
        with pytest.raises(ValueError, match="omega_o"):
            bandwidth_gains(omega_o)
        for cls in (Ieso, Feso, Ifeso):
            with pytest.raises(ValueError, match="omega_o"):
                _build(cls, omega_o)


# ---------------------------------------------------------------------------
# Rest state and reset
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [Ieso, Feso, Ifeso])
def test_zero_input_keeps_rest_state(cls):
    obs = _build(cls)
    for _ in range(100):
        obs.step(0.0, 0.0)
    assert obs.z1 == 0.0
    assert obs.z2 == 0.0
    assert getattr(obs, "q_hat", 0.0) == 0.0


@pytest.mark.parametrize("cls", [Ieso, Feso, Ifeso])
def test_reset_reproduces_identical_run(cls):
    # a run restarts from a fresh observer, which must repeat it bit for bit
    rng = np.random.default_rng(1)
    drive = rng.normal(size=(50, 2))
    runs = []
    for _ in range(2):
        obs = _build(cls)
        states = []
        for u, y in drive:
            obs.step(u, y)
            states.append((obs.z1, obs.z2, obs.q_hat))
        runs.append(np.array(states).tobytes())
    assert runs[0] == runs[1]


def test_integer_observer_in_loop_form_is_plain_step():
    assert Ieso.loop_step is Ieso.step
    assert Feso.loop_step is Feso.step
    assert Ifeso.loop_step is Ifeso.step


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


def test_integer_observer_equilibrium():
    # Constant y = 1, u = 0: z1 locks onto y and z2 onto the (zero)
    # residual drive within 20 bandwidth time constants.
    omega_o = 400.0
    obs = Ieso(omega_o, b=1.0, Ts=REF_TS)
    n = int(round(20.0 / omega_o / REF_TS))
    for _ in range(n):
        obs.step(0.0, 1.0)
    assert abs(obs.z1 - 1.0) < 0.01
    assert abs(obs.z2) < 0.01


def test_fractional_observer_pins_output_slow_residual():
    # For constant y the fractional state z1 still locks onto y quickly,
    # but z2 must absorb the fractional derivative of the step history,
    # which decays only algebraically: monotone shrink, small by t=10.
    omega_o, Ts, mu = 40.0, 1e-3, 0.8
    obs = Feso(omega_o, b=1.0, mu=mu, Ts=Ts)
    checkpoints = {}
    for k in range(int(10.0 / Ts)):
        obs.step(0.0, 1.0)
        t = (k + 1) * Ts
        for mark in (0.5, 2.0, 5.0, 10.0):
            if abs(t - mark) < Ts / 2:
                checkpoints[mark] = (obs.z1, abs(obs.z2))
    assert abs(checkpoints[2.0][0] - 1.0) < 1e-3
    residuals = [checkpoints[m][1] for m in (0.5, 2.0, 5.0, 10.0)]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 0.05
    # Late residual equals the power-law tail t**-mu / gamma(1 - mu).
    tail = 10.0**-mu / math.gamma(1.0 - mu)
    assert residuals[-1] == pytest.approx(tail, rel=0.05)


# ---------------------------------------------------------------------------
# Disturbance-estimate tracking against reconstructed truth
# ---------------------------------------------------------------------------


def test_fractional_observer_estimates_lumped_disturbance():
    # Open-loop step drive: the plant output feeds the observer and z2
    # should converge to the true lumped term -a_o * y.
    a_o, mu, Ts = 10.0, 0.8, REF_TS
    plant = FracPlant(a_o=a_o, b_o=1.0, mu=mu, Ts=Ts)
    obs = Feso(400.0, b=1.0, mu=mu, Ts=Ts)
    n = int(round(1.0 / Ts))
    z2 = np.empty(n)
    truth = np.empty(n)
    y = 0.0
    for k in range(n):
        obs.step(1.0, y)
        z2[k] = obs.z2
        truth[k] = -a_o * y
        y = plant.step(1.0)
    sel = np.arange(n) * Ts >= 0.05
    scale = np.sqrt(np.mean(truth[sel] ** 2))
    rms = np.sqrt(np.mean((z2[sel] - truth[sel]) ** 2))
    assert rms / scale < 0.05


# ---------------------------------------------------------------------------
# Frequency response
# ---------------------------------------------------------------------------


def _measured_gain(obs, omega: float, Ts: float) -> float:
    n = int(round(30.0 * 2.0 * math.pi / omega / Ts))
    t = np.arange(n) * Ts
    y = np.sin(omega * t)
    z1 = np.empty(n)
    for k in range(n):
        obs.step(0.0, y[k])
        z1[k] = obs.z1
    tail = slice(2 * n // 3, n)
    return (z1[tail].max() - z1[tail].min()) / 2.0


def _transfers(obs, s) -> dict[str, complex]:
    """The continuous observer's transfers from y and u at Laplace point s,
    from its rows with Y and U as inputs; q_z1 maps z1 to q_hat."""
    s = complex(s)
    rows = np.array(obs.symbol_rows(1.0, s, s ** getattr(obs, "mu", 1.0)),
                    dtype=complex)
    x = np.linalg.solve(rows[:, 1:4], -rows[:, [0, 4]])
    return {"z1_y": x[0, 0], "z1_u": x[0, 1], "z2_y": x[1, 0],
            "z2_u": x[1, 1], "q_z1": x[2, 0] / x[0, 0]}


def test_improved_observer_gain_matches_transfer_function():
    omega = 50.0
    obs = Ifeso(400.0, b=1.0, mu=0.8, Ts=REF_TS)
    measured = _measured_gain(obs, omega, REF_TS)
    expected = abs(_transfers(obs, 1j * omega)["z1_y"])
    assert abs(measured - expected) / expected < 0.02


@pytest.mark.parametrize("omega", [10.0, 50.0, 200.0])
def test_integer_observer_gain_matches_transfer_function(omega):
    obs = Ieso(400.0, b=1.0, Ts=REF_TS)
    measured = _measured_gain(obs, omega, REF_TS)
    expected = abs(_transfers(obs, 1j * omega)["z1_y"])
    assert abs(measured - expected) / expected < 0.02


def test_transfer_dicts_reduce_at_integer_order():
    s = 1j * 70.0
    ie = _transfers(Ieso(400.0, b=1.0, Ts=REF_TS), s)
    ife = _transfers(Ifeso(400.0, b=1.0, mu=1.0, Ts=REF_TS),
                     s)
    for key in ("z1_y", "z1_u", "z2_y", "z2_u"):
        assert ife[key] == pytest.approx(ie[key], rel=1e-12)
    assert ife["q_z1"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Bounded input, bounded state
# ---------------------------------------------------------------------------

# Explicit fractional stepping needs omega_o * Ts**mu well below one, and
# the continuous observer modes sit at omega_o**(1/mu) rad/s, so small
# orders only resolve at reduced bandwidth on a fixed 8 kHz grid.
BOUNDED_CASES = [(0.2, 2.0), (0.5, 40.0), (0.8, 400.0), (0.95, 400.0)]


@pytest.mark.parametrize("mu, omega_o", BOUNDED_CASES)
def test_improved_observer_bounded_under_bounded_drive(mu, omega_o):
    rng = np.random.default_rng(3)
    obs = Ifeso(omega_o, b=1.0, mu=mu, Ts=REF_TS)
    peak = 0.0
    for u, y in rng.uniform(-1.0, 1.0, size=(80000, 2)):
        obs.step(u, y)
        peak = max(peak, abs(obs.z1), abs(obs.z2), abs(obs.q_hat))
    assert math.isfinite(peak)
    assert peak < 1e6


@pytest.mark.parametrize("mu, omega_o", BOUNDED_CASES)
def test_fractional_observer_bounded_under_bounded_drive(mu, omega_o):
    rng = np.random.default_rng(3)
    obs = Feso(omega_o, b=1.0, mu=mu, Ts=REF_TS)
    peak = 0.0
    for u, y in rng.uniform(-1.0, 1.0, size=(80000, 2)):
        obs.step(u, y)
        peak = max(peak, abs(obs.z1), abs(obs.z2))
    assert math.isfinite(peak)
    assert peak < 1e6


# ---------------------------------------------------------------------------
# Integer-order reduction
# ---------------------------------------------------------------------------


def test_improved_observer_collapses_to_integer_at_order_one():
    rng = np.random.default_rng(17)
    drive = rng.normal(size=(4000, 2))
    ife = Ifeso(400.0, b=1.0, mu=1.0, Ts=REF_TS)
    ie = Ieso(400.0, b=1.0, Ts=REF_TS)
    worst = 0.0
    for u, y in drive:
        ife.step(u, y)
        ie.step(u, y)
        worst = max(worst, abs(ife.z1 - ie.z1), abs(ife.q_hat))
    assert worst < 1e-6
