"""Single-pole fractional plant: transfer function, time stepping, and
reconstruction of the lumped-disturbance decompositions."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracadrc import (
    DisturbanceSignal,
    FracPlant,
    reconstruct_disturbances,
    run_closed_loop,
)

from helpers import REF, ref_loop, talbot


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------


def _tf(plant, s) -> complex:
    """Y/U of the continuous plant row at Laplace point s."""
    s = np.asarray(s, dtype=complex)
    (row,) = plant.symbol_rows(1.0, s, s ** plant.mu)
    return complex(-row[4] / row[0])


def test_dc_gain():
    plant = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=1e-3)
    assert _tf(plant, 0.0) == pytest.approx(0.1, rel=1e-12)


def test_tf_at_unit_imaginary():
    plant = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=1e-3)
    expected = 1.0 / (1j ** 0.8 + 10.0)
    assert _tf(plant, 1j) == pytest.approx(expected, rel=1e-12)


@given(
    omega=st.floats(min_value=1e-2, max_value=1e5),
    a_o=st.floats(min_value=0.5, max_value=100.0),
    b_o=st.floats(min_value=0.1, max_value=10.0),
    mu=st.floats(min_value=0.1, max_value=0.95),
)
def test_tf_self_consistency(omega, a_o, b_o, mu):
    plant = FracPlant(a_o=a_o, b_o=b_o, mu=mu, Ts=1e-3)
    expected = b_o / ((1j * omega) ** mu + a_o)
    assert _tf(plant, 1j * omega) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def test_zero_input_stays_at_rest():
    plant = FracPlant(REF["a_o"], REF["b_o"], REF["mu"], REF["Ts"])
    ys = [plant.step(0.0) for _ in range(200)]
    assert max(abs(v) for v in ys) == 0.0


def test_step_input_converges_to_dc_gain():
    plant = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=1e-3)
    y = 0.0
    for _ in range(5000):
        y = plant.step(1.0)
    assert abs(y - 0.1) / 0.1 < 0.02


@pytest.mark.parametrize("omega, periods", [(1.0, 8), (10.0, 40), (100.0, 200)])
def test_sinusoid_response_matches_transfer_function(omega, periods):
    Ts = 1e-3
    plant = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=Ts)
    n = int(round(periods * 2 * math.pi / omega / Ts))
    t = np.arange(n) * Ts
    u = np.sin(omega * t)
    y = np.array([plant.step(v) for v in u])
    tail = slice(3 * n // 4, n)
    measured = (y[tail].max() - y[tail].min()) / 2.0
    expected = abs(_tf(plant, 1j * omega))
    assert abs(measured - expected) / expected < 0.02


def test_step_response_error_is_first_order():
    # against the exact response b_o*t**mu*E_{mu,mu+1}(-a_o*t**mu), the
    # Talbot inverse of b_o/(s*(s**mu + a_o)); step n is the output at
    # t = n*Ts.  Measured at 8 kHz: 4.42e-5 at 10 ms, 2.01e-5 at 0.1 s and
    # 2.88e-7 at 1 s; the max error over t >= 10 ms is 3.99x that at 32 kHz
    t0 = time.perf_counter()
    n = np.arange(80, 8001)  # t = 10 ms ... 1 s at 8 kHz
    exact = talbot(lambda s: REF["b_o"] / (s * (s ** REF["mu"] + REF["a_o"])),
                   n / 8000.0)
    err = {}
    for fs in (8000, 32000):
        plant = FracPlant(REF["a_o"], REF["b_o"], REF["mu"], 1.0 / fs)
        y = np.array([plant.step(1.0) for _ in range(fs)])
        err[fs] = np.abs(y[n * (fs // 8000) - 1] - exact)
    elapsed = time.perf_counter() - t0
    assert err[8000][n == 80] < 5e-5
    assert err[8000][n == 800] < 2.5e-5
    assert err[8000][n == 8000] < 3.5e-7
    assert 3.0 <= err[8000].max() / err[32000].max() <= 5.0
    assert elapsed < 0.5


def test_gain_scaling_scales_output():
    base = FracPlant(REF["a_o"], REF["b_o"], REF["mu"], REF["Ts"])
    doubled = FracPlant(REF["a_o"], 2.0 * REF["b_o"], REF["mu"], REF["Ts"])
    assert doubled.b_o == pytest.approx(2.0 * REF["b_o"])
    y1 = [base.step(1.0) for _ in range(50)]
    y2 = [doubled.step(1.0) for _ in range(50)]
    np.testing.assert_allclose(y2, np.array(y1) * 2.0, rtol=1e-12)


def test_disturbance_input_enters_like_control():
    # d adds inside the drive before the gain split: with b_o=1 the pair
    # (u=1, d=0) and (u=0, d=1) produce identical outputs.
    p1 = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=1e-3)
    p2 = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=1e-3)
    for _ in range(100):
        y1 = p1.step(1.0, 0.0)
        y2 = p2.step(0.0, 1.0)
    assert y1 == pytest.approx(y2, rel=1e-12)


def test_singular_update_rejected():
    with pytest.raises(ValueError, match="singular"):
        FracPlant(a_o=-1.0, b_o=1.0, mu=0.5, Ts=1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        FracPlant(a_o=10.0, b_o=1.0, mu=1.5, Ts=1e-3)
    with pytest.raises(ValueError):
        FracPlant(a_o=10.0, b_o=1.0, mu=0.0, Ts=1e-3)
    with pytest.raises(ValueError):
        FracPlant(a_o=10.0, b_o=0.0, mu=0.5, Ts=1e-3)
    with pytest.raises(ValueError):
        FracPlant(a_o=10.0, b_o=1.0, mu=0.5, Ts=0.0)


# ---------------------------------------------------------------------------
# Disturbance signals
# ---------------------------------------------------------------------------


def test_disturbance_zero():
    t = np.linspace(0, 1, 5)
    np.testing.assert_array_equal(DisturbanceSignal().render(t), np.zeros(5))


def test_disturbance_step_onset():
    t = np.array([0.0, 0.5, 1.0, 1.5])
    d = DisturbanceSignal(kind="step", amplitude=2.0, onset=1.0).render(t)
    np.testing.assert_array_equal(d, [0.0, 0.0, 2.0, 2.0])


def test_disturbance_sinusoid_uses_radian_frequency():
    sig = DisturbanceSignal(kind="sinusoid", amplitude=2.0, frequency=50.0)
    t = np.array([0.0, math.pi / 100.0])  # quarter period of 50 rad/s
    d = sig.render(t)
    assert d[0] == pytest.approx(0.0, abs=1e-12)
    assert d[1] == pytest.approx(2.0, rel=1e-12)


def test_disturbance_rejects_unknown_kind():
    with pytest.raises(ValueError):
        DisturbanceSignal(kind="ramp").render(np.linspace(0, 1, 3))


@pytest.mark.parametrize("kind, name", [
    ("zero", "amplitude"), ("zero", "frequency"), ("zero", "onset"),
    ("step", "frequency"), ("sinusoid", "onset"),
])
def test_disturbance_rejects_a_field_its_kind_does_not_read(kind, name):
    # the run would ignore the value, and the manifest would record it
    with pytest.raises(ValueError, match=f"kind '{kind}' does not read {name}"):
        DisturbanceSignal(kind=kind, **{name: 0.5})


def test_disturbance_rejects_a_step_before_the_first_sample():
    # an onset before t = 0 runs as onset 0, but the manifest would record it
    with pytest.raises(ValueError, match="onset -5.0 s is before the first"):
        DisturbanceSignal.step(1.0, -5.0)
    d = DisturbanceSignal.step(1.0, -0.0).render(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(d, [1.0, 1.0])


def test_disturbance_rejects_a_sinusoid_of_zero_frequency():
    # sin(0 * t) is 0 at every sample: the run would never see the amplitude
    with pytest.raises(ValueError, match="frequency 0 rad/s"):
        DisturbanceSignal.sinusoid(1.0, 0.0)
    assert not DisturbanceSignal.sinusoid(0.0, 0.0).render(np.ones(3)).any()


# ---------------------------------------------------------------------------
# Lumped-disturbance reconstruction
# ---------------------------------------------------------------------------


def _closed_loop_record(**overrides):
    cfg = ref_loop(horizon=0.25, **overrides)
    return run_closed_loop(cfg, v_d=1.0), cfg


def test_no_model_error_means_no_disturbance():
    # a_o = 0 with matched gain leaves nothing for the observer to lump.
    rec = reconstruct_disturbances(*_closed_loop_record(a_o=0.0))
    assert np.max(np.abs(rec["f_ifo"])) < 1e-12


def test_integer_view_disturbance_is_pole_feedback():
    # With matched gain and no injected disturbance the lumped term seen
    # by the fractional-embedding view is exactly -a_o * y.
    traj, cfg = _closed_loop_record()
    rec = reconstruct_disturbances(traj, cfg)
    np.testing.assert_allclose(
        rec["f_ifo"], -REF["a_o"] * traj.y, rtol=1e-9, atol=1e-9
    )


def test_order_mismatch_term_vanishes_at_integer_order():
    # q mixes a central-difference estimate of ydot with the GL fractional
    # derivative, so it is only meaningful once the step transient has
    # smoothed out; after that it collapses with the order mismatch.
    traj, cfg = _closed_loop_record(mu=1.0 - 1e-9)
    rec = reconstruct_disturbances(traj, cfg)
    settled = traj.t >= 0.1
    assert np.max(np.abs(rec["q"][settled])) < 1e-3


def test_integer_view_is_embedding_view_plus_order_term():
    rec = reconstruct_disturbances(*_closed_loop_record())
    np.testing.assert_allclose(
        rec["f_io"], rec["f_ifo"] + rec["q"], rtol=1e-12, atol=1e-12
    )


def test_gain_mismatch_enters_lumped_terms():
    # With b != b_o the (b_o - b) * u component must appear in every view.
    traj, cfg = _closed_loop_record(b=0.5)
    rec = reconstruct_disturbances(traj, cfg)
    expected = -REF["a_o"] * traj.y + (REF["b_o"] - 0.5) * traj.u
    np.testing.assert_allclose(rec["f_ifo"], expected, rtol=1e-9, atol=1e-9)
