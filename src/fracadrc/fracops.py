"""Fractional-calculus kernels.

The order-mu differintegral d^mu/dt^mu as a discrete Grunwald-Letnikov (GL)
convolution with binomial weights, in two forms: the streaming GLOperator
that the plant and observers step sample by sample, and gl_differintegral,
which takes a whole signal at once through numpy's real FFT.  The streaming
history is allocated at NEAR_WINDOW (8192) samples and grows, together with
its far field, only past them.  Below NEAR_WINDOW samples its sum is one
direct dot product over the whole history, its weights read-only views from
a per-order table (about 1 MB per order, at most 16 orders cached).  From
there on it sums only the newest SHORT_WINDOW - 1 lags directly, `push`
adds each older block to an FFT far field, `tail_sum` only reads, and
n samples cost O(n log^2 n), exact up to rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def gl_coefficients(mu: float, count: int) -> np.ndarray:
    """First `count` GL binomial weights w_k for order `mu`.

    w_0 = 1 and w_k = w_{k-1} * (1 - (mu + 1) / k).  For 0 < mu < 1 every
    weight after w_0 is negative with strictly decreasing magnitude, and the
    partial sums decrease monotonically toward 0.
    """
    if not math.isfinite(mu):
        raise ValueError(f"order must be finite, got {mu}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    factors = np.empty(count)
    factors[0] = 1.0
    factors[1:] = 1.0 - (mu + 1.0) / np.arange(1.0, count)
    return np.cumprod(factors)


# below this many samples the whole history is summed directly at every
# step; from there on only lags below SHORT_WINDOW are, and older ones come
# from the blocked FFT far field of GLOperator
NEAR_WINDOW = 8192
SHORT_WINDOW = 512


@functools.lru_cache(maxsize=16)
def _near_weights(order: float) -> tuple[np.ndarray, ...]:
    """Entry n is w_n .. w_1 for n < NEAR_WINDOW: read-only views of one
    array, shared by all operators of `order`."""
    w = gl_coefficients(order, NEAR_WINDOW + 1)[:0:-1].copy()
    w.flags.writeable = False
    return tuple(w[NEAR_WINDOW - n:] for n in range(NEAR_WINDOW))


class GLOperator:
    """Streaming GL differintegrator of order `order` at fixed step `step`.

    Keeps every input sample in one buffer of NEAR_WINDOW samples, grown
    with the far field only past them; negative orders integrate.

    The history sum is exact up to rounding and costs O(n log^2 n) over n
    samples (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6(3),
    1985).  Below NEAR_WINDOW samples `tail_sum` is one direct dot product
    over the whole history, bit for bit, with w_n .. w_1 read from entry n of
    the order's table of weight views, built once and shared by every
    operator of that order.  From NEAR_WINDOW samples on, lags
    1 .. SHORT_WINDOW-1 are one direct dot product per step, and each lag
    k >= SHORT_WINDOW lies in exactly one octave [P, 2P),
    P = SHORT_WINDOW * 2**j.  Whenever the history length n is a multiple of
    P, the block x[n-P:n] is convolved with w[P:2P] by one real FFT of
    length 2P and added into a far-field accumulator at n .. n+2P-2, all of
    which is read at step n or later.  `push` adds the blocks from
    NEAR_WINDOW samples on (at NEAR_WINDOW, every earlier one that feeds a
    step at or past it), so no FFT runs before then and `tail_sum` only reads.
    """

    # perfbench/tracing.py reads this; the history is never truncated
    memory_len = None

    def __init__(self, order: float, step: float):
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"step must be positive and finite, got {step}")
        self.order = float(order)
        self.step = float(step)
        self._scale = self.step ** -self.order
        # _wnear[m] lines up with the newest m samples of _hist in the sum
        self._wnear = _near_weights(self.order)
        self._wshort = self._wnear[SHORT_WINDOW - 1]
        self._hist = np.zeros(NEAR_WINDOW)
        self._far = np.zeros(0)
        self._size = 0
        self._next = NEAR_WINDOW  # push grows buffers or adds blocks here

    @property
    def size(self) -> int:
        return self._size

    def tail_sum(self) -> float:
        """sum_{k>=1} w_k x_{n-k} for the upcoming sample index n.

        This is the history part of the GL sum, exposed separately so that
        implicit update rules can solve for the newest sample.
        """
        n = self._size
        if n < NEAR_WINDOW:
            return float(self._wnear[n].dot(self._hist[:n]))
        tail = float(self._wshort.dot(self._hist[n + 1 - SHORT_WINDOW : n]))
        return tail + self._far.item(n)

    def push(self, sample: float) -> None:
        """Append `sample`: the only method that changes the operator."""
        self._hist[self._size] = sample
        self._size = n = self._size + 1
        if n != self._next:
            return
        self._next = n + SHORT_WINDOW
        if n == self._hist.size:
            hist = np.zeros(2 * n)
            hist[:n] = self._hist
            self._hist = hist
            # blocks end at m <= 2n - P, P <= n: all write below 3n
            far = np.zeros(3 * n)
            far[: self._far.size] = self._far
            self._far = far
        for m in range(SHORT_WINDOW if n == NEAR_WINDOW else n, n + 1,
                       SHORT_WINDOW):
            P = SHORT_WINDOW
            while m % P == 0:
                nfft = 2 * P
                if m + nfft - 2 >= NEAR_WINDOW:  # it feeds steps m .. m+2P-2
                    spec = np.fft.rfft(gl_coefficients(self.order, nfft)[P:],
                                       nfft)
                    spec *= np.fft.rfft(self._hist[m - P : m], nfft)
                    self._far[m : m + nfft - 1] += np.fft.irfft(spec, nfft)[:-1]
                P *= 2

    def apply(self, sample: float) -> float:
        """Push `sample` and return the differintegral at the new sample."""
        tail = self.tail_sum()
        self.push(sample)
        return self._scale * (sample + tail)


def gl_differintegral(x, mu: float, step: float) -> np.ndarray:
    """Order-`mu` GL differintegral of a whole uniformly sampled signal.

    Zero history is assumed before the first sample and a value is returned
    at every sample.  Numerically equivalent to streaming GLOperator.apply
    over `x`, but computed as one zero-padded real FFT convolution of
    length 2n.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if x.size == 0:
        return x.copy()
    n = x.size
    spec = np.fft.rfft(gl_coefficients(mu, n), 2 * n)
    spec *= np.fft.rfft(x, 2 * n)
    return (step ** -mu) * np.fft.irfft(spec, 2 * n)[:n]

