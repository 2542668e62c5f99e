"""Extended state observers with bandwidth-parameterized gains.

Three variants share one interface (step(u, y), then read z1/z2/q_hat):

* Ieso  -- integer-order dynamics for both states, q_hat identically 0;
* Feso  -- both states advance at the plant's fractional order;
* Ifeso -- fractional z1, integer z2, plus an estimate q_hat of the
           mismatch between the integer and fractional derivatives of the
           plant output: Euler on z1 with the previous q_hat in the drive,
           and q_hat set to that drive minus the GL derivative of z1.

Each variant has one update, `step` (`loop_step` is the closed-loop
engine's name for it), and beside it `symbol_rows`: the update's rows in
`control.loop_symbol`, linear in the delay zeta, D and D^mu, with the
innovation E = Y - zeta*Z1.
"""

from __future__ import annotations

import math

from .fracops import GLOperator


def bandwidth_gains(omega_o: float) -> tuple[float, float]:
    """All-observer-poles-at -omega_o parameterization: the float pair
    (beta1, beta2) = (2*omega_o, omega_o**2).  omega_o must be positive
    with a finite, nonzero square."""
    beta2 = omega_o * omega_o
    if not (omega_o > 0.0 and 0.0 < beta2 < math.inf):
        raise ValueError(f"omega_o must be positive with a finite, nonzero "
                         f"square, got {omega_o}")
    return float(2.0 * omega_o), float(beta2)


def _check_order(mu: float) -> float:
    # mu = 1 admitted so the fractional variants can be collapsed onto the
    # integer one for equivalence checks
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"observer order must lie in (0, 1], got {mu}")
    return float(mu)


class _Eso:
    """State shared by every variant; starts at rest."""

    def __init__(self, omega_o: float, b: float, Ts: float):
        if not (math.isfinite(Ts) and Ts > 0.0):
            raise ValueError(f"Ts must be positive and finite, got {Ts}")
        self.beta1, self.beta2 = bandwidth_gains(omega_o)
        self.b = float(b)
        self.Ts = float(Ts)
        self.z1 = 0.0
        self.z2 = 0.0
        self.q_hat = 0.0  # identically zero unless the variant produces it


class Ieso(_Eso):
    """Integer-order ESO: z1 tracks y, z2 the lumped disturbance."""

    def step(self, u: float, y: float) -> None:
        e = y - self.z1
        dz1 = self.z2 + self.b * u + self.beta1 * e
        dz2 = self.beta2 * e
        self.z1 += self.Ts * dz1
        self.z2 += self.Ts * dz2

    loop_step = step

    def symbol_rows(self, zeta, D, Dmu):
        """D*Z1 = zeta*(Z2 + b*U) + beta1*E; D*Z2 = beta2*E; Q_hat = 0."""
        b1, b2 = self.beta1, self.beta2
        return [(-b1, D + b1 * zeta, -zeta, 0, -self.b * zeta),
                (-b2, b2 * zeta, D, 0, 0), (0, 0, 0, 1, 0)]


class Feso(_Eso):
    """Fractional ESO: both observer states advance at order mu.

    Each state solves its GL relation for the newest sample with the
    right-hand side held at the previous state (collapses to forward Euler
    at mu = 1).
    """

    def __init__(self, omega_o: float, b: float, mu: float, Ts: float):
        super().__init__(omega_o, b, Ts)
        self.mu = _check_order(mu)
        self._gl1 = GLOperator(self.mu, Ts)
        self._gl2 = GLOperator(self.mu, Ts)
        self._hmu = self.Ts ** self.mu

    def step(self, u: float, y: float) -> None:
        e = y - self.z1
        r1 = self.z2 + self.b * u + self.beta1 * e
        r2 = self.beta2 * e
        z1_new = self._hmu * r1 - self._gl1.tail_sum()
        z2_new = self._hmu * r2 - self._gl2.tail_sum()
        self._gl1.push(z1_new)
        self._gl2.push(z2_new)
        self.z1 = z1_new
        self.z2 = z2_new

    loop_step = step

    def symbol_rows(self, zeta, D, Dmu):
        """Ieso's rows with D^mu in place of D."""
        return Ieso.symbol_rows(self, zeta, Dmu, Dmu)


class Ifeso(_Eso):
    """Improved fractional ESO: adds the derivative-mismatch output q_hat.

    Continuously the observer is dz1/dt = z2 + b*u + q_hat + beta1*(y - z1)
    with q_hat = dz1/dt - D^mu z1, which resolves algebraically to the
    fractional relation D^mu z1 = z2 + b*u + beta1*(y - z1).

    The fixed-step realization keeps the integer relation exact: z1 takes
    an Euler step whose drive carries the previous q_hat, and q_hat is then
    that drive minus a GL differentiation of z1 (one GL history, on z1).
    When u is the compensating control, the q_hat inside b*u cancels the
    q_hat in the drive sample for sample, which reproduces the exact
    continuous cancellation.  At mu = 1 the GL weights reduce to a first
    difference, q_hat vanishes up to rounding and the update collapses to
    Ieso.
    """

    def __init__(self, omega_o: float, b: float, mu: float, Ts: float):
        super().__init__(omega_o, b, Ts)
        self.mu = _check_order(mu)
        self._gl = GLOperator(self.mu, Ts)

    def step(self, u: float, y: float) -> None:
        e = y - self.z1
        rhs = self.z2 + self.b * u + self.q_hat + self.beta1 * e
        z1_new = self.z1 + self.Ts * rhs
        dmu = self._gl.apply(z1_new)
        # rhs == (z1_new - z1)/Ts by construction of the Euler update
        self.q_hat = rhs - dmu
        self.z2 = self.z2 + self.Ts * self.beta2 * e
        self.z1 = z1_new

    loop_step = step

    def symbol_rows(self, zeta, D, Dmu):
        """D*Z1 = R; Q_hat = R - D^mu*Z1; D*Z2 = beta2*E, with
        R = zeta*(Z2 + b*U + Q_hat) + beta1*E."""
        b1, b2, b = self.beta1, self.beta2, self.b
        return [(-b1, D + b1 * zeta, -zeta, -zeta, -b * zeta),
                (-b1, Dmu + b1 * zeta, -zeta, 1 - zeta, -b * zeta),
                (-b2, b2 * zeta, D, 0, 0)]
