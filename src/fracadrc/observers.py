"""Extended state observers with bandwidth-parameterized gains.

Three variants share one interface (step(u, y), then read z1/z2/q_hat):

* Ieso  -- integer-order dynamics for both states, q_hat identically 0;
* Feso  -- both states advance at the plant's fractional order;
* Ifeso -- fractional z1, integer z2, plus an estimate q_hat of the
           mismatch between the integer and fractional derivatives of the
           plant output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .fracops import GLOperator


class EsoVariant(enum.Enum):
    IESO = "ieso"
    FESO = "feso"
    IFESO = "ifeso"


@dataclass(frozen=True)
class ObserverGains:
    """Observer gain pair; both entries must be positive and finite."""

    beta1: float
    beta2: float
    omega_o: float | None = None

    def __post_init__(self):
        if not all(math.isfinite(g) and g > 0.0
                   for g in (self.beta1, self.beta2)):
            raise ValueError(f"observer gains must be positive and finite, "
                             f"got ({self.beta1}, {self.beta2})")


def bandwidth_gains(omega_o: float) -> ObserverGains:
    """All-observer-poles-at -omega_o parameterization:
    beta1 = 2*omega_o, beta2 = omega_o**2."""
    if not (math.isfinite(omega_o) and omega_o > 0.0):
        raise ValueError(f"omega_o must be positive and finite, got {omega_o}")
    return ObserverGains(2.0 * omega_o, omega_o * omega_o, float(omega_o))


def _check_order(mu: float) -> float:
    # mu = 1 admitted so the fractional variants can be collapsed onto the
    # integer one for equivalence checks
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"observer order must lie in (0, 1], got {mu}")
    return float(mu)


class Ieso:
    """Integer-order ESO: z1 tracks y, z2 the lumped disturbance."""

    variant = EsoVariant.IESO

    def __init__(self, gains: ObserverGains, b: float, Ts: float):
        if not (math.isfinite(Ts) and Ts > 0.0):
            raise ValueError(f"Ts must be positive and finite, got {Ts}")
        self.gains = gains
        self.b = float(b)
        self.Ts = float(Ts)
        self.z1 = 0.0
        self.z2 = 0.0
        self.q_hat = 0.0  # identically zero for this variant

    def step(self, u: float, y: float) -> None:
        e = y - self.z1
        dz1 = self.z2 + self.b * u + self.gains.beta1 * e
        dz2 = self.gains.beta2 * e
        self.z1 += self.Ts * dz1
        self.z2 += self.Ts * dz2

    # no q_hat path, so in-loop stepping is the plain update
    loop_step = step

    def reset(self) -> None:
        self.z1 = self.z2 = self.q_hat = 0.0


class Feso:
    """Fractional ESO: both observer states advance at order mu.

    Each state solves its GL relation for the newest sample with the
    right-hand side held at the previous state (collapses to forward Euler
    at mu = 1).
    """

    variant = EsoVariant.FESO

    def __init__(self, gains: ObserverGains, b: float, mu: float, Ts: float,
                 memory_len: int | None = None):
        if not (math.isfinite(Ts) and Ts > 0.0):
            raise ValueError(f"Ts must be positive and finite, got {Ts}")
        self.gains = gains
        self.b = float(b)
        self.mu = _check_order(mu)
        self.Ts = float(Ts)
        self._gl1 = GLOperator(self.mu, Ts, memory_len)
        self._gl2 = GLOperator(self.mu, Ts, memory_len)
        self._hmu = self.Ts ** self.mu
        self.z1 = 0.0
        self.z2 = 0.0
        self.q_hat = 0.0  # not produced by this variant

    def step(self, u: float, y: float) -> None:
        e = y - self.z1
        r1 = self.z2 + self.b * u + self.gains.beta1 * e
        r2 = self.gains.beta2 * e
        z1_new = self._hmu * r1 - self._gl1.tail_sum()
        z2_new = self._hmu * r2 - self._gl2.tail_sum()
        self._gl1.push(z1_new)
        self._gl2.push(z2_new)
        self.z1 = z1_new
        self.z2 = z2_new

    # no q_hat path, so in-loop stepping is the plain update
    loop_step = step

    def reset(self) -> None:
        self._gl1.reset()
        self._gl2.reset()
        self.z1 = self.z2 = self.q_hat = 0.0


class Ifeso:
    """Improved fractional ESO: adds the derivative-mismatch output q_hat.

    Continuously the observer is dz1/dt = z2 + b*u + q_hat + beta1*(y - z1)
    with q_hat = dz1/dt - D^mu z1, which resolves algebraically to the
    fractional relation D^mu z1 = z2 + b*u + beta1*(y - z1).  The two
    relations are equivalent, but a fixed-step realization can only keep
    one of them exact, and the right choice depends on how the observer is
    driven:

    * `step` keeps the fractional relation exact (GL solve for z1, q_hat by
      backward differencing).  Stable filter for any exogenous bounded
      (u, y) at any order, so it is the form for running the observer over
      recorded data.  Inside the compensating loop, however, u carries
      -q_hat/b, and with the unavoidable one-sample lag that feedback path
      has gain Ts**(mu - 1) -- divergent at practical sample rates.
    * `loop_step` keeps the integer relation exact (Euler on z1 with the
      previous q_hat in the drive; q_hat then compares that drive against a
      GL differentiation of z1).  When u is the compensating control, the
      q_hat inside b*u cancels the q_hat in the drive sample for sample,
      which reproduces the exact continuous cancellation and keeps the loop
      stable at any order.  Driven open loop at small orders its q_hat
      self-feed corrects too slowly and can ring up, so it stays in-loop.

    Both share one GL history on z1, and both collapse to Ieso bit for bit
    at mu = 1 (the GL weights reduce to a first difference and q_hat
    vanishes).
    """

    variant = EsoVariant.IFESO

    def __init__(self, gains: ObserverGains, b: float, mu: float, Ts: float,
                 memory_len: int | None = None):
        if not (math.isfinite(Ts) and Ts > 0.0):
            raise ValueError(f"Ts must be positive and finite, got {Ts}")
        self.gains = gains
        self.b = float(b)
        self.mu = _check_order(mu)
        self.Ts = float(Ts)
        self._gl = GLOperator(self.mu, Ts, memory_len)
        self._hmu = self.Ts ** self.mu
        self.z1 = 0.0
        self.z2 = 0.0
        self.q_hat = 0.0

    def step(self, u: float, y: float) -> None:
        e = y - self.z1
        rhs = self.z2 + self.b * u + self.gains.beta1 * e
        z1_new = self._hmu * rhs - self._gl.tail_sum()
        self._gl.push(z1_new)
        # rhs is D^mu z1 at the new sample by construction of the GL solve
        self.q_hat = (z1_new - self.z1) / self.Ts - rhs
        self.z2 = self.z2 + self.Ts * self.gains.beta2 * e
        self.z1 = z1_new

    def loop_step(self, u: float, y: float) -> None:
        e = y - self.z1
        rhs = self.z2 + self.b * u + self.q_hat + self.gains.beta1 * e
        z1_new = self.z1 + self.Ts * rhs
        dmu = self._gl.apply(z1_new)
        # rhs == (z1_new - z1)/Ts by construction of the Euler update
        self.q_hat = rhs - dmu
        self.z2 = self.z2 + self.Ts * self.gains.beta2 * e
        self.z1 = z1_new

    def reset(self) -> None:
        self._gl.reset()
        self.z1 = self.z2 = self.q_hat = 0.0


def make_observer(variant: EsoVariant, gains: ObserverGains, b: float,
                  mu: float, Ts: float, memory_len: int | None = None):
    """Build the observer for `variant`; mu is ignored by the integer one."""
    if variant is EsoVariant.IESO:
        return Ieso(gains, b, Ts)
    if variant is EsoVariant.FESO:
        return Feso(gains, b, mu, Ts, memory_len)
    if variant is EsoVariant.IFESO:
        return Ifeso(gains, b, mu, Ts, memory_len)
    raise ValueError(f"unknown observer variant {variant!r}")
