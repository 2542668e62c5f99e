"""Fractional-calculus kernels.

Two interchangeable realizations of the order-mu differintegral d^mu/dt^mu:
a discrete Grunwald-Letnikov (GL) convolution with binomial weights, and a
band-limited Oustaloup pole/zero ladder approximating s**mu.  The GL form is
the time-domain engine used by the plant and observers; its streaming history
sum is exact up to rounding and costs O(n log^2 n) over n samples beyond
NEAR_WINDOW samples.  The Oustaloup filter exists mainly to cross-validate it
and for frequency-shaped filtering.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as _signal


def gl_coefficients(mu: float, count: int) -> np.ndarray:
    """First `count` GL binomial weights w_k for order `mu`.

    w_0 = 1 and w_k = w_{k-1} * (1 - (mu + 1) / k).  For 0 < mu < 1 every
    weight after w_0 is negative with strictly decreasing magnitude, and the
    partial sums decrease monotonically toward 0.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count == 1:
        return np.ones(1)
    factors = np.empty(count)
    factors[0] = 1.0
    factors[1:] = 1.0 - (mu + 1.0) / np.arange(1.0, count)
    return np.cumprod(factors)


# lags below this are summed directly at every step, older ones come from
# the blocked FFT far field of GLOperator
NEAR_WINDOW = 8192


@functools.lru_cache(maxsize=16)
def _near_weights(order: float) -> np.ndarray:
    """w_NEAR_WINDOW .. w_1, read-only, shared by all operators of `order`."""
    w = gl_coefficients(order, NEAR_WINDOW + 1)[:0:-1].copy()
    w.flags.writeable = False
    return w


class GLOperator:
    """Streaming GL differintegrator of order `order` at fixed step `step`.

    Keeps the full input history; negative orders integrate.

    The history sum is exact up to rounding and costs O(n log^2 n) over n
    samples (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6(3),
    1985).  Lags 1 .. NEAR_WINDOW-1 are one direct dot product per step, so
    below NEAR_WINDOW samples `tail_sum` is that plain dot product bit for
    bit.  Each lag k >= NEAR_WINDOW lies in exactly one octave [P, 2P),
    P = NEAR_WINDOW * 2**j.  Whenever the history length n is a multiple of
    P, the block x[n-P:n] is convolved with w[P:2P] by one real FFT of
    length 2P and added into a far-field accumulator at n .. n+2P-2, all of
    which is read at step n or later.
    """

    # perfbench/tracing.py reads this; the history is never truncated
    memory_len = None

    def __init__(self, order: float, step: float):
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"step must be positive and finite, got {step}")
        self.order = float(order)
        self.step = float(step)
        self._scale = self.step ** -self.order
        # _wnear[-m:] lines up with the newest m samples of _hist in the sum
        self._wnear = _near_weights(self.order)
        self._near = NEAR_WINDOW - 1
        self._hist = np.zeros(0)
        self._far = np.zeros(0)
        self._size = 0
        self._flushed = 0
        self._cap = 0
        self._grow(1024)

    def _grow(self, capacity: int) -> None:
        hist = np.zeros(capacity)
        hist[: self._size] = self._hist[: self._size]
        self._hist = hist
        self._cap = capacity
        if capacity > NEAR_WINDOW:
            # the history stays below capacity, so a flushed block has
            # P <= capacity/2, ends at n <= capacity - P and writes the
            # far field up to n + 2P - 2 < 1.5 * capacity
            far = np.zeros(capacity + capacity // 2)
            far[: self._far.size] = self._far
            self._far = far

    @property
    def size(self) -> int:
        return self._size

    @property
    def last(self) -> float:
        """Most recent sample, 0.0 before anything was pushed."""
        return float(self._hist[self._size - 1]) if self._size else 0.0

    @property
    def history(self) -> np.ndarray:
        """Every sample pushed so far (newest last)."""
        return self._hist[: self._size].copy()

    def _flush(self, n: int) -> None:
        """Add every block that ends at history length `n` to the far field."""
        P = NEAR_WINDOW
        while n % P == 0:
            nfft = 2 * P
            seg = gl_coefficients(self.order, nfft)[P:]
            spec = np.fft.rfft(seg, nfft)
            del seg  # frees the 2P weights before the next transform
            spec *= np.fft.rfft(self._hist[n - P : n], nfft)
            self._far[n : n + nfft - 1] += np.fft.irfft(spec, nfft)[:-1]
            P *= 2

    def tail_sum(self) -> float:
        """sum_{k>=1} w_k x_{n-k} for the upcoming sample index n.

        This is the history part of the GL sum, exposed separately so that
        implicit update rules can solve for the newest sample.
        """
        n = self._size
        m = n if n < self._near else self._near
        if m == 0:
            return 0.0
        tail = float(self._wnear[-m:].dot(self._hist[n - m : n]))
        if n < NEAR_WINDOW:
            return tail
        while self._flushed + NEAR_WINDOW <= n:
            self._flushed += NEAR_WINDOW
            self._flush(self._flushed)
        return tail + self._far.item(n)

    def push(self, sample: float) -> None:
        self._hist[self._size] = sample
        self._size += 1
        if self._size == self._cap:
            self._grow(2 * self._cap)

    def apply(self, sample: float) -> float:
        """Push `sample` and return the differintegral at the new sample."""
        tail = self.tail_sum()
        self.push(sample)
        return self._scale * (sample + tail)


def gl_differintegral(x, mu: float, step: float) -> np.ndarray:
    """Order-`mu` GL differintegral of a whole uniformly sampled signal.

    Zero history is assumed before the first sample and a value is returned
    at every sample.  Numerically equivalent to streaming GLOperator.apply
    over `x`, but computed as a single FFT convolution.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if x.size == 0:
        return x.copy()
    w = gl_coefficients(mu, x.size)
    y = _signal.fftconvolve(x, w)[: x.size]
    return (step ** -mu) * y


def frac_pow(s, mu: float) -> complex:
    """Principal-branch complex power s**mu.

    On the positive imaginary axis: (j*w)**mu = w**mu * exp(j*mu*pi/2).
    s = 0 maps to 0 for mu > 0 and is a domain error otherwise.
    """
    s = complex(s)
    if s == 0:
        if mu > 0:
            return 0j
        raise ValueError(f"s**mu undefined at s=0 for mu <= 0 (mu={mu})")
    return s ** mu


@dataclass
class OustaloupFilter:
    """Band-limited rational approximation of s**order.

    A ladder of 2*n_cells + 1 real zero/pole pairs spread log-evenly over
    [band_low, band_high] rad/s.  `zeros` and `poles` hold the actual
    (negative real) root locations; `freq_response` evaluates the continuous
    filter, while `filter_signal` runs the bilinear discretization attached
    via `attach_discretization`.
    """

    order: float
    band_low: float
    band_high: float
    n_cells: int
    zeros: np.ndarray
    poles: np.ndarray
    gain: float
    step: float | None = None
    _sos: np.ndarray | None = field(default=None, repr=False)

    def freq_response(self, s):
        """Continuous response H(s); accepts a complex scalar or array."""
        arr = np.asarray(s, dtype=complex)
        num = np.prod(arr[..., None] - self.zeros, axis=-1)
        den = np.prod(arr[..., None] - self.poles, axis=-1)
        out = self.gain * num / den
        if arr.ndim == 0:
            return complex(out)
        return out

    def attach_discretization(self, step: float) -> None:
        """Bilinear-map the ladder to sample time `step`."""
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"step must be positive and finite, got {step}")
        zd, pd, kd = _signal.bilinear_zpk(self.zeros, self.poles, self.gain,
                                          fs=1.0 / step)
        self._sos = _signal.zpk2sos(zd, pd, kd)
        self.step = step

    def filter_signal(self, x) -> np.ndarray:
        """Filter a whole signal from zero initial state."""
        sos = self._sos
        if sos is None:
            raise RuntimeError("filter not discretized; call "
                               "attach_discretization or pass step= to "
                               "oustaloup_design")
        zi = np.zeros((sos.shape[0], 2))
        y, _ = _signal.sosfilt(sos, np.asarray(x, dtype=float), zi=zi)
        return y


def oustaloup_design(mu: float, band_low: float = 1e-2, band_high: float = 1e4,
                     n_cells: int = 5, step: float | None = None) -> OustaloupFilter:
    """Design the recursive band-limited approximation of s**mu.

    Zero/pole break frequencies follow the standard geometric recursion over
    the band; the high-frequency gain is band_high**mu.  Negative orders are
    built by inverting the ladder for |mu|.
    """
    if not 0.0 < abs(mu) < 1.0:
        raise ValueError(f"|mu| must lie in (0, 1), got {mu}")
    if not 0.0 < band_low < band_high:
        raise ValueError(f"need 0 < band_low < band_high, got "
                         f"[{band_low}, {band_high}]")
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    n = n_cells
    r = abs(mu)
    ratio = band_high / band_low
    k = np.arange(-n, n + 1, dtype=float)
    zeros = -band_low * ratio ** ((k + n + 0.5 * (1.0 - r)) / (2 * n + 1))
    poles = -band_low * ratio ** ((k + n + 0.5 * (1.0 + r)) / (2 * n + 1))
    gain = band_high ** r
    if mu < 0:
        zeros, poles = poles, zeros
        gain = band_high ** mu
    filt = OustaloupFilter(order=float(mu), band_low=float(band_low),
                           band_high=float(band_high), n_cells=n_cells,
                           zeros=zeros, poles=poles, gain=float(gain))
    if step is not None:
        filt.attach_discretization(step)
    return filt
