"""Fractional-kernel building blocks: weight tables, the streaming
operator, batch evaluation, and analytic kernels, among them the exact
fractional derivative of sin(t)."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracadrc import (
    GLOperator,
    gl_coefficients,
    gl_differintegral,
)
from fracadrc.fracops import NEAR_WINDOW, SHORT_WINDOW, _near_weights

from helpers import frac_sin

orders = st.floats(min_value=0.05, max_value=0.95)


# ---------------------------------------------------------------------------
# Weight tables
# ---------------------------------------------------------------------------


def test_half_order_weights_exact():
    w = gl_coefficients(0.5, 5)
    assert w.tolist() == [1.0, -0.5, -0.125, -0.0625, -0.0390625]


@given(mu=orders, count=st.integers(min_value=2, max_value=64))
def test_weight_recurrence(mu, count):
    w = gl_coefficients(mu, count)
    assert w[0] == 1.0
    for k in range(1, count):
        assert w[k] == pytest.approx(w[k - 1] * (1.0 - (mu + 1.0) / k), rel=1e-12)


@given(mu=orders, count=st.integers(min_value=3, max_value=200))
def test_weight_signs_and_decay(mu, count):
    w = gl_coefficients(mu, count)
    assert w[1] == pytest.approx(-mu, rel=1e-12)
    assert np.all(w[1:] < 0.0)
    mags = np.abs(w[1:])
    assert np.all(np.diff(mags) <= 1e-18)


@given(mu=orders, count=st.integers(min_value=2, max_value=500))
def test_weight_partial_sums_positive_decreasing(mu, count):
    # Partial sums of the differencing weights are (1-z)^mu truncations:
    # they stay positive and shrink monotonically toward zero.
    sums = np.cumsum(gl_coefficients(mu, count))
    assert np.all(sums > 0.0)
    assert np.all(np.diff(sums) <= 1e-18)


def test_order_zero_weights_are_identity():
    x = np.array([0.3, -1.2, 2.0, 5.5])
    np.testing.assert_allclose(gl_differintegral(x, 0.0, 0.1), x, atol=1e-15)


def test_order_one_is_backward_difference():
    y = gl_differintegral(np.array([0.0, 1.0]), 1.0, 0.1)
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert y[1] == pytest.approx(10.0, rel=1e-12)


def test_negative_order_accumulates():
    # Order -1 on a unit signal is the running rectangle-rule integral.
    y = gl_differintegral(np.ones(4), -1.0, 0.5)
    np.testing.assert_allclose(y, [0.5, 1.0, 1.5, 2.0], rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 8191, 8193, 10007])
@pytest.mark.parametrize("mu", [-0.6, 0.5, 1.0])
def test_batch_matches_direct_convolution(mu, n):
    # the FFT product against the plain O(n^2) convolution.  FFT rounding
    # spreads over the whole output, so every sample is held to 1e-13 of
    # the largest sum of magnitudes sum_k |w_k x_{m-k}| over the signal:
    # at mu = 1 one sample's own sum |x_m| + |x_{m-1}| can be far smaller.
    step = 1e-3
    x = np.random.default_rng(n).normal(size=n)
    w = gl_coefficients(mu, n)
    direct = np.convolve(x, w)[:n] * step**-mu
    bound = np.convolve(np.abs(x), np.abs(w))[:n].max() * step**-mu
    err = np.abs(gl_differintegral(x, mu, step) - direct)
    assert err.max() <= 1e-13 * bound


# ---------------------------------------------------------------------------
# Streaming operator vs batch evaluation
# ---------------------------------------------------------------------------


@given(
    mu=orders,
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_streaming_matches_batch(mu, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    op = GLOperator(order=mu, step=0.01)
    stream = np.array([op.apply(v) for v in x])
    batch = gl_differintegral(x, mu, 0.01)
    np.testing.assert_allclose(stream, batch, rtol=1e-9, atol=1e-9)


def test_streaming_matches_batch_across_buffer_growth():
    # Long enough to cross several internal buffer-doubling boundaries.
    rng = np.random.default_rng(11)
    x = rng.normal(size=2051)
    op = GLOperator(order=0.7, step=1e-3)
    stream = np.array([op.apply(v) for v in x])
    batch = gl_differintegral(x, 0.7, 1e-3)
    assert np.max(np.abs(stream - batch)) < 1e-9


@given(
    mu=orders,
    a=st.floats(min_value=-3, max_value=3),
    b=st.floats(min_value=-3, max_value=3),
)
def test_operator_linearity(mu, a, b):
    rng = np.random.default_rng(2)
    x = rng.normal(size=64)
    y = rng.normal(size=64)
    lhs = gl_differintegral(a * x + b * y, mu, 0.05)
    rhs = a * gl_differintegral(x, mu, 0.05) + b * gl_differintegral(y, mu, 0.05)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Near window plus blocked-FFT far field
# ---------------------------------------------------------------------------


def _stream(op, x):
    return np.array([op.apply(v) for v in x])


def _max_rel_err(stream, batch):
    return np.max(np.abs(stream - batch)) / np.max(np.abs(batch))


def test_tail_sum_is_plain_dot_below_near_window():
    # Below NEAR_WINDOW samples the history sum is the direct reversed-
    # weight dot product, bit for bit: short runs keep their exact bytes.
    # Two orders pushed alternately must each read their own order's table.
    rng = np.random.default_rng(4)
    x = rng.normal(size=NEAR_WINDOW - 1)
    orders = (0.8, 0.3)
    ws = [gl_coefficients(mu, NEAR_WINDOW) for mu in orders]
    ops = [GLOperator(order=mu, step=1.0 / 8000.0) for mu in orders]
    for n in range(NEAR_WINDOW):
        for w, op in zip(ws, ops):
            plain = float(np.dot(w[n:0:-1], x[:n])) if n else 0.0
            assert op.tail_sum() == plain
            if n < x.size:
                op.push(float(x[n]))
    # one read-only base per order, viewed once per history length
    for mu in orders:
        table = _near_weights(mu)
        base = table[-1].base
        assert len(table) == NEAR_WINDOW and isinstance(base, np.ndarray)
        assert all(entry.base is base and not entry.flags.writeable
                   for entry in table)


@pytest.mark.parametrize("mu", [-0.5, 0.3, 0.8, 1.0])
def test_long_streaming_matches_batch(mu):
    # 40,000 samples cross the near window, flush the far-field levels
    # P = 8192, 16384 and 32768, and grow the buffers three times.
    assert 40_000 > 4 * NEAR_WINDOW
    rng = np.random.default_rng(21)
    x = rng.normal(size=40_000)
    stream = _stream(GLOperator(order=mu, step=1e-3), x)
    batch = gl_differintegral(x, mu, 1e-3)
    assert _max_rel_err(stream, batch) < 1e-12


def _plain_tail(w, x, n):
    """The full-history sum sum_{k=1..n} w_k x_{n-k}, and the same sum of
    magnitudes that bounds its rounding error."""
    wn, xn = w[n:0:-1], x[:n]
    return float(np.dot(wn, xn)), float(np.dot(np.abs(wn), np.abs(xn)))


@pytest.mark.parametrize("mu", [-0.5, 0.3, 0.8])
def test_tail_sum_across_the_short_window_switch(mu):
    # at NEAR_WINDOW samples the direct window shrinks to SHORT_WINDOW - 1
    # lags and every fine far-field level is read for the first time
    last = NEAR_WINDOW + 2 * SHORT_WINDOW + 3
    rng = np.random.default_rng(5)
    x = rng.normal(size=last + 1)
    w = gl_coefficients(mu, last + 1)
    op = GLOperator(order=mu, step=1e-3)
    for v in x[: NEAR_WINDOW - 7]:
        op.push(float(v))
    for n in range(NEAR_WINDOW - 7, last + 1):
        plain, bound = _plain_tail(w, x, n)
        if n < NEAR_WINDOW:
            assert op.tail_sum() == plain
        else:
            assert abs(op.tail_sum() - plain) <= 1e-13 * bound
        op.push(float(x[n]))


def _state(op):
    """Every attribute of `op`, arrays as their bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v
            for k, v in vars(op).items()}


def test_tail_sum_only_reads():
    # push adds every far-field block, so an operator that was only pushed
    # and one that also summed before every push hold the same state, and
    # summing changes nothing
    n = NEAR_WINDOW + 3 * SHORT_WINDOW + 1
    rng = np.random.default_rng(6)
    x = rng.normal(size=n)
    pushed = GLOperator(order=0.8, step=1e-3)
    summed = GLOperator(order=0.8, step=1e-3)
    for k, v in enumerate(x):
        if k in (0, NEAR_WINDOW - 1, NEAR_WINDOW, NEAR_WINDOW + SHORT_WINDOW):
            before = _state(summed)
            summed.tail_sum()
            assert _state(summed) == before
        else:
            summed.tail_sum()
        pushed.push(float(v))
        summed.push(float(v))
    assert _state(pushed) == _state(summed)
    assert pushed.tail_sum() == summed.tail_sum()
    plain, bound = _plain_tail(gl_coefficients(0.8, n + 1), x, n)
    assert abs(pushed.tail_sum() - plain) <= 1e-13 * bound


def test_ffts_run_in_the_push_that_reaches_near_window(monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def counted_rfft(*args, **kwargs):
        calls.append(args)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    op = GLOperator(order=0.8, step=1e-3)
    hist = op._hist
    x = np.random.default_rng(7).normal(size=NEAR_WINDOW + SHORT_WINDOW)
    for v in x[: NEAR_WINDOW - 1]:
        op.apply(float(v))
    assert not calls
    # the history allocated by the constructor holds every sample so far
    assert op._hist is hist
    op.tail_sum()
    op.push(float(x[NEAR_WINDOW - 1]))
    # the 9 of the 31 blocks ending at or below NEAR_WINDOW that feed a
    # step at or past it: P = 512 .. 8192 ending at NEAR_WINDOW, then
    # 4096 at 4096, 2048 at 6144, 1024 at 7168 and 512 at 7680; two real
    # FFTs each
    assert len(calls) == 2 * 9
    calls.clear()
    for v in x[NEAR_WINDOW:]:
        op.tail_sum()
        assert not calls
        op.push(float(v))
    # the push that reaches NEAR_WINDOW + SHORT_WINDOW adds its one block
    assert len(calls) == 2
    op.tail_sum()
    assert len(calls) == 2


def test_operator_history():
    # a fresh operator is the only reset; it keeps every sample pushed
    op = GLOperator(order=0.5, step=0.1)
    for v in (1.0, 2.0, 3.0):
        op.apply(v)
    assert op.size == 3
    w = gl_coefficients(0.5, 4)
    assert op.tail_sum() == pytest.approx(w[1] * 3.0 + w[2] * 2.0 + w[3])


def test_operator_validates_inputs():
    with pytest.raises(ValueError):
        GLOperator(order=0.5, step=0.0)
    with pytest.raises(ValueError):
        gl_differintegral(np.ones(3), 0.5, -1.0)


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
def test_non_finite_order_fails_before_any_weight_is_cached(order):
    cached = _near_weights.cache_info().currsize
    with pytest.raises(ValueError, match=f"order must be finite, got {order}"):
        gl_coefficients(order, 3)
    with pytest.raises(ValueError, match="order must be finite"):
        GLOperator(order=order, step=0.1)
    with pytest.raises(ValueError, match="order must be finite"):
        gl_differintegral([1.0, 2.0], order, 0.1)
    assert _near_weights.cache_info().currsize == cached


def test_empty_input_gives_empty_output():
    assert gl_differintegral(np.array([]), 0.5, 0.1).size == 0


# ---------------------------------------------------------------------------
# Analytic kernels
# ---------------------------------------------------------------------------


def test_half_derivative_of_ramp():
    # d^{1/2}/dt^{1/2} of t is 2*sqrt(t/pi); checked at t=1 on an 8 kHz grid.
    Ts = 1.0 / 8000.0
    t = np.arange(0, 1.0 + Ts / 2, Ts)
    y = gl_differintegral(t, 0.5, Ts)
    exact = 2.0 * math.sqrt(1.0 / math.pi)
    assert abs(y[-1] - exact) < 1e-3
    # Away from the origin the whole curve tracks the analytic law.
    sel = t >= 0.25
    rel = np.abs(y[sel] - 2.0 * np.sqrt(t[sel] / math.pi)) / (
        2.0 * np.sqrt(t[sel] / math.pi)
    )
    assert np.max(rel) < 5e-3


def test_half_derivative_composes_to_first_derivative():
    # Applying the half-order kernel twice reproduces the backward
    # difference exactly, so the ramp's derivative is 1 on [0.5, 1].
    Ts = 1.0 / 8000.0
    t = np.arange(0, 1.0 + Ts / 2, Ts)
    once = gl_differintegral(t, 0.5, Ts)
    twice = gl_differintegral(once, 0.5, Ts)
    sel = t >= 0.5
    assert np.max(np.abs(twice[sel] - 1.0)) < 5e-3


def test_inverse_composition_recovers_signal():
    # Differentiate then integrate at the same order: identity.
    rng = np.random.default_rng(9)
    x = rng.normal(size=256)
    d = gl_differintegral(x, 0.6, 0.01)
    back = gl_differintegral(d, -0.6, 0.01)
    np.testing.assert_allclose(back, x, rtol=1e-8, atol=1e-8)


def _sine_rel_rms(mu, fs):
    """Relative RMS of GL against the exact D^mu sin(t), over 2 <= t < 10."""
    Ts = 1.0 / fs
    t = np.arange(0, 10.0, Ts)
    exact = frac_sin(t, mu)
    err = gl_differintegral(np.sin(t), mu, Ts) - exact
    sel = t >= 2.0
    return math.sqrt(np.mean(err[sel] ** 2) / np.mean(exact[sel] ** 2))


@pytest.mark.parametrize("mu", [-0.5, 0.3, 0.6, 0.9])
def test_gl_converges_to_exact_fractional_derivative_of_sine(mu):
    # from zero history GL is first order: 8x the rate, 1/8 the error
    # (measured 2.1e-5 to 5.2e-5 at 8 kHz, ratio 8.00 at every order)
    fine = _sine_rel_rms(mu, 8000.0)
    assert fine < 1e-4
    assert 7.0 <= _sine_rel_rms(mu, 1000.0) / fine <= 9.0
