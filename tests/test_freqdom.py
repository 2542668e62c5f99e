"""Frequency-domain disturbance-estimation analysis: estimation transfer
functions, closed-form mean-square error, Bode sampling, and grids."""
from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracadrc import (
    AdrcConfig,
    bandwidth_gains,
    bode,
    g_ifio,
    g_io,
    log_grid,
    mse_ifio,
    mse_io,
)
from fracadrc.experiments import MSE_BASE, MSE_GRID

from helpers import compensated_object, delta

# in the argument order of g_io and g_ifio
PARAMS = dict(a_o=10.0, b_o=1.0, b=1.0, mu=0.8, omega_o=400.0)

tuples = st.tuples(
    st.floats(min_value=1.0, max_value=50.0),     # a_o
    st.floats(min_value=0.1, max_value=0.95),     # mu
    st.floats(min_value=100.0, max_value=5000.0), # omega_o
    st.floats(min_value=0.1, max_value=1e5),      # omega
)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def test_perfect_model_estimates_exactly():
    # Without a pole mismatch (a_o = 0) and with matched gain, the
    # embedding-view estimate integrates the disturbance exactly:
    # j*omega*G == 1 at every frequency.
    for omega in (0.5, 5.0, 77.0, 2000.0):
        val = 1j * omega * g_ifio(0.0, 1.0, 1.0, 0.8, 400.0, 1j * omega)
        assert val == pytest.approx(1.0, rel=1e-12)


@given(t=tuples)
def test_closed_forms_match_transfer_magnitudes(t):
    a_o, mu, omega_o, omega = t
    e_io = float(mse_io(omega, a_o, mu, omega_o))
    e_ifio = float(mse_ifio(omega, a_o, mu, omega_o))
    d_io = delta(partial(g_io, a_o, 1.0, 1.0, mu, omega_o), omega)
    d_ifio = delta(partial(g_ifio, a_o, 1.0, 1.0, mu, omega_o), omega)
    assert e_io == pytest.approx(abs(d_io) ** 2, rel=1e-9, abs=1e-30)
    assert e_ifio == pytest.approx(abs(d_ifio) ** 2, rel=1e-9, abs=1e-30)


# ---------------------------------------------------------------------------
# Closed-form error laws
# ---------------------------------------------------------------------------


def test_errors_agree_at_dc():
    # Both observer structures leave the same static residual, set by the
    # unmodeled pole against the observer stiffness.
    a_o, mu, omega_o = 10.0, 0.6, 1600.0
    beta1, beta2 = bandwidth_gains(omega_o)
    dc = (a_o * beta1) ** 2 / (a_o * beta1 + beta2) ** 2
    assert float(mse_io(1e-9, a_o, mu, omega_o)) == pytest.approx(dc, rel=1e-6)
    assert float(mse_ifio(1e-9, a_o, mu, omega_o)) == pytest.approx(dc, rel=1e-6)


def test_no_pole_means_no_embedding_error():
    out = mse_ifio(np.array([1.0, 100.0, 1e4]), 0.0, 0.8, 400.0)
    np.testing.assert_array_equal(out, 0.0)


def test_high_frequency_scaling_laws():
    a_o, mu, omega_o = 10.0, 0.6, 1600.0
    # Integer-view error keeps growing like omega**(2 - 2*mu); its
    # asymptote sets in within a couple of decades of the bandwidth.
    ratio_io = float(mse_io(1e7, a_o, mu, omega_o)) / float(
        mse_io(1e6, a_o, mu, omega_o)
    )
    assert ratio_io == pytest.approx(10.0 ** (2.0 - 2.0 * mu), rel=0.05)
    # The embedding view rolls off like omega**(-2*mu), but its leading
    # correction decays only like beta1/omega**mu, so probe far out.
    ratio_ifio = float(mse_ifio(1e10, a_o, mu, omega_o)) / float(
        mse_ifio(1e9, a_o, mu, omega_o)
    )
    assert ratio_ifio == pytest.approx(10.0 ** (-2.0 * mu), rel=0.05)
    # Inside the plotted window it is already strictly shrinking.
    grid = np.array([1e3, 1e4, 1e5])
    vals = mse_ifio(grid, a_o, mu, omega_o)
    assert np.all(np.diff(vals) < 0.0)


def test_embedding_error_scales_with_pole_squared():
    mu, omega_o = 0.6, 1600.0
    for a_o in (5.0, 10.0):
        ratio = float(mse_ifio(1e5, 2.0 * a_o, mu, omega_o)) / float(
            mse_ifio(1e5, a_o, mu, omega_o)
        )
        assert ratio == pytest.approx(4.0, rel=0.02)


def test_closed_forms_vectorize():
    w = np.array([1.0, 10.0, 100.0])
    out = mse_io(w, 10.0, 0.8, 400.0)
    assert out.shape == (3,)
    for i, omega in enumerate(w):
        assert out[i] == pytest.approx(float(mse_io(omega, 10.0, 0.8, 400.0)))
    for form in (mse_io, mse_ifio):
        assert type(form(10.0, 10.0, 0.8, 400.0)) is float


def test_vanishing_denominator_names_its_form():
    # a_o = -omega_o/2 zeroes both denominators at omega = 0
    for form, name in ((mse_io, "mse_io"), (mse_ifio, "mse_ifio")):
        for omega in (0.0, np.array([0.0, 1.0])):
            with pytest.raises(ZeroDivisionError,
                               match=f"^{name} denominator vanished$"):
                form(omega, -1.0, 0.5, 2.0)


@given(t=tuples)
def test_errors_are_nonnegative(t):
    a_o, mu, omega_o, omega = t
    assert float(mse_io(omega, a_o, mu, omega_o)) >= 0.0
    assert float(mse_ifio(omega, a_o, mu, omega_o)) >= 0.0


# ---------------------------------------------------------------------------
# Grids and Bode sampling
# ---------------------------------------------------------------------------


def test_log_grid_default_span():
    grid = log_grid()
    assert grid.size == 361  # six decades at sixty points each, inclusive
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(1e5)
    assert np.all(np.diff(np.log10(grid)) > 0)


@pytest.mark.parametrize("bounds", [(0.1, math.inf), (math.nan, 10.0),
                                    (1.0, math.nan), (-math.inf, 10.0)])
def test_log_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        log_grid(*bounds)


def test_log_grid_spans_wider_than_a_float_ratio():
    # 1e5 / 1e-320 overflows, although both bounds are finite
    grid = log_grid(1e-320, 1e5, 1)
    assert grid.size == 326
    assert grid[-1] == 1e5


def test_log_grid_ends_exactly_at_its_bounds():
    # less than one step per span still gives both bounds, and the last
    # point is omega_max itself, not 10 ** log10(omega_max)
    assert log_grid(1.0, 2.0, 1).tolist() == [1.0, 2.0]
    assert log_grid(1.0, 50.0, 1)[-1] == 50.0


def test_log_grid_larger_than_one_array_is_refused():
    # AdrcConfig.samples()'s rule: no more points than one float64 array
    # holds, checked before anything is allocated
    too_many = np.iinfo(np.intp).max // 8 + 1
    with pytest.raises(ValueError, match=r"^omega_min 1\.0 to omega_max "
                       rf"10\.0 at points_per_decade {too_many} is "):
        log_grid(1.0, 10.0, too_many)


def test_log_grid_validation():
    with pytest.raises(ValueError):
        log_grid(10.0, 1.0)
    with pytest.raises(ValueError):
        log_grid(-1.0, 10.0)
    with pytest.raises(ValueError):
        log_grid(points_per_decade=0)


def test_bode_curves():
    G = partial(g_ifio, *PARAMS.values())
    grid = np.array([1.0, 10.0, 100.0])
    mag, phase = bode(G, grid)
    assert mag.shape == phase.shape == grid.shape
    for i, omega in enumerate(grid):
        val = G(1j * omega)
        assert mag[i] == pytest.approx(20.0 * math.log10(abs(val)))
        assert phase[i] == pytest.approx(math.degrees(np.angle(val)))


def test_bode_raises_at_a_pole_naming_its_frequency():
    G = lambda s: 1.0 / (s - 10j)  # noqa: E731 - pole exactly on the grid
    with pytest.raises(ZeroDivisionError, match="omega = 10 rad/s"):
        bode(G, np.array([5.0, 10.0, 20.0]))


@pytest.mark.parametrize("bad", [math.inf, complex(math.nan, 0.0), 0.0],
                         ids=["inf", "nan", "zero"])
def test_bode_raises_on_a_value_that_is_not_a_finite_nonzero_number(bad):
    # no curve carries a NaN row: one bad point stops the whole sampling
    G = lambda s: bad if s == 10j else 1.0 / s  # noqa: E731
    with pytest.raises(OverflowError, match="omega = 10 rad/s"):
        bode(G, np.array([5.0, 10.0, 20.0]))


@pytest.mark.parametrize("g, cause", [
    (g_io, "complex exponentiation"),
    (g_ifio, r"is \(nan\+nanj\) .* not a finite nonzero number"),
], ids=["g_io", "g_ifio"])
def test_bode_of_an_overflowing_compensated_object_names_the_frequency(
        g, cause):
    # omega_o = 1e200: each object's powers of omega_o overflow, and the
    # first grid point names where
    with pytest.raises(OverflowError, match="omega = 0.1 rad/s") as info:
        bode(partial(g, 10.0, 1.0, 1.0, 0.6, 1e200), log_grid(0.1, 1e5, 60))
    assert info.match(cause)


@pytest.mark.parametrize("g", [g_io, g_ifio])
def test_compensated_objects_have_a_pole_at_zero(g):
    with pytest.raises(ZeroDivisionError):
        g(*PARAMS.values(), 0.0)


def test_integrated_estimate_flat_for_embedding_view():
    # The headline frequency-domain contrast: near-unity integrated
    # estimation for the embedding view across four decades, while the
    # integer view deviates at high frequency.
    mu = 0.9
    grid = log_grid(1.0, 1e4, 30)
    flat = np.array(
        [abs(1j * w * g_ifio(10.0, 1.0, 1.0, mu, 400.0, 1j * w)) for w in grid]
    )
    dev_db = 20.0 * np.log10(flat)
    assert np.max(np.abs(dev_db)) < 1.0
    drift = np.array(
        [abs(1j * w * g_io(10.0, 1.0, 1.0, mu, 400.0, 1j * w)) for w in grid]
    )
    drift_db = 20.0 * np.log10(drift)
    assert np.max(np.abs(drift_db[grid > 1e3])) > 1.0


# ---------------------------------------------------------------------------
# The closed forms against the loop symbol
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [0.4, 0.6, 0.8])
def test_closed_forms_are_the_continuous_loop_symbol(mu):
    # Two routes to the same loop: the paper's formulas, and the rows of
    # each update at zeta = 1, D = s, D^mu = s**mu (fig4's grid and setting;
    # measured within 1.8e-15 for G and 6.7e-13 for the squared mismatch).
    a_o, omega_o = MSE_BASE["a_o"], MSE_BASE["omega_o"]
    grid = log_grid(*MSE_GRID)
    s = 1j * grid
    for variant, g, mse in (("iadrc", g_io, mse_io),
                            ("ifadrc", g_ifio, mse_ifio)):
        cfg = AdrcConfig(variant=variant, omega_o=omega_o, b=1.0, a_o=a_o,
                         b_o=1.0, mu=mu)
        G = compensated_object(cfg, s)
        closed = np.array([g(a_o, 1.0, 1.0, mu, omega_o, p) for p in s])
        np.testing.assert_allclose(G, closed, rtol=1e-11, atol=0)
        np.testing.assert_allclose(np.abs(1.0 - s * G) ** 2,
                                   mse(grid, a_o, mu, omega_o),
                                   rtol=1e-11, atol=0)
