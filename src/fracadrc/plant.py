"""Fractional SISO plant, its parameter checks and an input disturbance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracops import GLOperator, gl_differintegral


def check_plant(a_o: float, b_o: float, mu: float, Ts: float) -> None:
    """Raise ValueError unless FracPlant can step b_o/(s**mu + a_o) at Ts."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not math.isfinite(a_o):
        raise ValueError(f"a_o must be finite, got {a_o}")
    if not (math.isfinite(b_o) and b_o != 0.0):
        raise ValueError(f"b_o must be nonzero and finite, got {b_o}")
    if not (math.isfinite(Ts) and Ts > 0.0):
        raise ValueError(f"Ts must be positive and finite, got {Ts}")
    if float(Ts) ** -float(mu) + float(a_o) == 0.0:
        raise ValueError("singular update: Ts**-mu + a_o == 0")


class FracPlant:
    """Plant b_o / (s**mu + a_o), simulated with the implicit GL update.

    Time-domain model: y^(mu) + a_o*y = b_o*u + d, zero initial conditions.
    Each step solves the GL-discretized relation exactly for the newest
    output sample, so the update is unconditionally well defined whenever
    Ts**-mu + a_o != 0.
    """

    def __init__(self, a_o: float, b_o: float, mu: float, Ts: float):
        check_plant(a_o, b_o, mu, Ts)
        self.a_o, self.b_o, self.mu, self.Ts = map(float, (a_o, b_o, mu, Ts))
        self.gl = GLOperator(mu, Ts)
        self._scale = self.Ts ** -self.mu
        self._denom = self._scale + self.a_o  # w_0 = 1

    def step(self, u: float, d: float = 0.0) -> float:
        """Advance one sample under held input u and disturbance d."""
        tail = self.gl.tail_sum()
        y_new = (self.b_o * u + d - self._scale * tail) / self._denom
        self.gl.push(y_new)
        return y_new

    def symbol_rows(self, zeta, D, Dmu):
        """The row of `step`: (D^mu + a_o)*Y - zeta*b_o*U = zeta*d."""
        return [(Dmu + self.a_o, 0, 0, 0, -self.b_o * zeta)]


@dataclass
class DisturbanceSignal:
    """Additive plant-input disturbance d(t).

    Each kind reads only its own fields, and any other field must be zero;
    a sinusoid of nonzero amplitude needs a nonzero frequency.
    """

    # each kind with the fields it reads
    KINDS = {"zero": (), "step": ("amplitude", "onset"),
             "sinusoid": ("amplitude", "frequency")}

    kind: str = "zero"
    amplitude: float = 0.0
    frequency: float = 0.0  # rad/s, sinusoid only
    onset: float = 0.0      # seconds, step only

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for name in ("amplitude", "frequency", "onset"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"disturbance {name} must be finite, "
                                 f"got {value}")
            if value != 0.0 and name not in self.KINDS[self.kind]:
                raise ValueError(f"disturbance kind {self.kind!r} does not "
                                 f"read {name}, got {value}")
        if self.onset < 0.0:
            raise ValueError(f"disturbance onset {self.onset} s is before "
                             f"the first sample time 0 s")
        if self.kind == "sinusoid" and self.amplitude and not self.frequency:
            raise ValueError(f"disturbance frequency 0 rad/s samples the "
                             f"sinusoid of amplitude {self.amplitude} as 0")

    @classmethod
    def step(cls, amplitude: float, onset: float = 0.0) -> "DisturbanceSignal":
        return cls(kind="step", amplitude=amplitude, onset=onset)

    @classmethod
    def sinusoid(cls, amplitude: float, frequency: float) -> "DisturbanceSignal":
        return cls(kind="sinusoid", amplitude=amplitude, frequency=frequency)

    def render(self, t: np.ndarray) -> np.ndarray:
        """Sample the disturbance on the time grid `t`."""
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros(t.size)
        if self.kind == "step":
            return self.amplitude * (t >= self.onset).astype(float)
        return self.amplitude * np.sin(self.frequency * t)


def reconstruct_disturbances(trajectory, cfg) -> dict[str, np.ndarray]:
    """Ground-truth disturbance signals for observer-accuracy scoring.

    `trajectory` must carry aligned y/u/d arrays and the sample time Ts;
    `cfg`, its AdrcConfig, supplies a_o, b_o, mu and b.  ydot comes from
    central differences (one-sided at the ends), the fractional derivative
    from the GL convolution.  Returns the lumped total disturbance seen by
    each observer structure plus the derivative mismatch q = ydot - y^(mu):

      f_ifo = -a_o*y + (b_o - b)*u + d        (both fractional observers)
      f_io  = f_ifo + q                        (integer observer)
    """
    y = np.asarray(trajectory.y, dtype=float)
    u = np.asarray(trajectory.u, dtype=float)
    d = np.asarray(trajectory.d, dtype=float)
    if y.size < 3:
        raise ValueError("trajectory must have at least 3 samples")
    if not (y.size == u.size == d.size):
        raise ValueError("trajectory arrays must have equal length")
    Ts = float(trajectory.Ts)
    ydot = np.gradient(y, Ts)
    ymu = gl_differintegral(y, cfg.mu, Ts)
    q = ydot - ymu
    f_ifo = -cfg.a_o * y + (cfg.b_o - cfg.b) * u + d
    return {"f_ifo": f_ifo, "f_io": f_ifo + q, "q": q}
