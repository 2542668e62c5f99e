"""Single-pole fractional plant: transfer function, time stepping, and
reconstruction of the lumped-disturbance decompositions."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracadrc import (
    AdrcConfig,
    DisturbanceSignal,
    FracPlant,
    frac_pow,
    reconstruct_disturbances,
    run_closed_loop,
)

from helpers import REF, ref_config, ref_plant


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------


def test_dc_gain():
    plant = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=1e-3)
    assert plant.tf(0.0) == pytest.approx(0.1, rel=1e-12)


def test_tf_at_unit_imaginary():
    plant = FracPlant(a_o=10.0, b_o=1.0, mu=0.8, Ts=1e-3)
    expected = 1.0 / (frac_pow(1j, 0.8) + 10.0)
    assert plant.tf(1j) == pytest.approx(expected, rel=1e-12)


@given(
    omega=st.floats(min_value=1e-2, max_value=1e5),
    a_o=st.floats(min_value=0.5, max_value=100.0),
    b_o=st.floats(min_value=0.1, max_value=10.0),
    mu=st.floats(min_value=0.1, max_value=0.95),
)
def test_tf_self_consistency(omega, a_o, b_o, mu):
    plant = FracPlant(a_o=a_o, b_o=b_o, mu=mu, Ts=1e-3)
    expected = b_o / (frac_pow(1j * omega, mu) + a_o)
    assert plant.tf(1j * omega) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def test_zero_input_stays_at_rest():
    plant = ref_plant()
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
    expected = abs(plant.tf(1j * omega))
    assert abs(measured - expected) / expected < 0.02


def test_gain_scaling_scales_output():
    base = ref_plant()
    doubled = base.with_gain_scale(2.0)
    assert doubled.b_o == pytest.approx(2.0 * REF["b_o"])
    y1 = [base.step(1.0) for _ in range(50)]
    y2 = [doubled.step(1.0) for _ in range(50)]
    np.testing.assert_allclose(y2, np.array(y1) * 2.0, rtol=1e-12)


def test_with_gain_scale_returns_fresh_plant():
    plant = ref_plant()
    for _ in range(10):
        plant.step(1.0)
    scaled = plant.with_gain_scale(2.0)
    assert scaled.y == 0.0  # starts from rest regardless of source state
    assert plant.y != 0.0  # original untouched
    assert scaled.step(0.0) == 0.0


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


def test_disturbance_samples_passthrough():
    t = np.linspace(0, 1, 4)
    raw = np.array([1.0, -2.0, 3.0, 0.5])
    d = DisturbanceSignal(kind="samples", samples=raw).render(t)
    np.testing.assert_array_equal(d, raw)


def test_disturbance_rejects_unknown_kind():
    with pytest.raises(ValueError):
        DisturbanceSignal(kind="ramp").render(np.linspace(0, 1, 3))


# ---------------------------------------------------------------------------
# Lumped-disturbance reconstruction
# ---------------------------------------------------------------------------


def _closed_loop_record(**plant_overrides):
    cfg = ref_config(horizon=0.25)
    plant = ref_plant(**plant_overrides)
    traj = run_closed_loop(cfg, plant, v_d=1.0)
    fresh = ref_plant(**plant_overrides)
    return traj, fresh


def test_no_model_error_means_no_disturbance():
    # a_o = 0 with matched gain leaves nothing for the observer to lump.
    traj, fresh = _closed_loop_record(a_o=0.0)
    rec = reconstruct_disturbances(traj, fresh, b=1.0)
    assert np.max(np.abs(rec["f_ifo"])) < 1e-12
    assert np.max(np.abs(rec["f_fo"])) < 1e-12


def test_integer_view_disturbance_is_pole_feedback():
    # With matched gain and no injected disturbance the lumped term seen
    # by the fractional-embedding view is exactly -a_o * y.
    traj, fresh = _closed_loop_record()
    rec = reconstruct_disturbances(traj, fresh, b=1.0)
    np.testing.assert_allclose(
        rec["f_ifo"], -REF["a_o"] * traj.y, rtol=1e-9, atol=1e-9
    )


def test_order_mismatch_term_vanishes_at_integer_order():
    # q mixes a central-difference estimate of ydot with the GL fractional
    # derivative, so it is only meaningful once the step transient has
    # smoothed out; after that it collapses with the order mismatch.
    traj, fresh = _closed_loop_record(mu=1.0 - 1e-9)
    rec = reconstruct_disturbances(traj, fresh, b=1.0)
    settled = traj.t >= 0.1
    assert np.max(np.abs(rec["q"][settled])) < 1e-3


def test_integer_view_is_embedding_view_plus_order_term():
    traj, fresh = _closed_loop_record()
    rec = reconstruct_disturbances(traj, fresh, b=1.0)
    np.testing.assert_allclose(
        rec["f_io"], rec["f_ifo"] + rec["q"], rtol=1e-12, atol=1e-12
    )


def test_gain_mismatch_enters_lumped_terms():
    # With b != b_o the (b_o - b) * u component must appear in every view.
    cfg = ref_config(horizon=0.25, b=0.5)
    plant = ref_plant()
    traj = run_closed_loop(cfg, plant, v_d=1.0)
    rec = reconstruct_disturbances(traj, ref_plant(), b=0.5)
    expected = -REF["a_o"] * traj.y + (REF["b_o"] - 0.5) * traj.u
    np.testing.assert_allclose(rec["f_ifo"], expected, rtol=1e-9, atol=1e-9)
