"""Commensurate-order closed-loop stability analysis.

The loop order mu is rationalized to p/q; substituting w = s**(1/q) turns
the closed-loop characteristic equation into an ordinary polynomial in w,
and the loop is stable iff every root satisfies |arg(w_i)| > lambda*pi/2
with lambda = 1/q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .control import AdrcConfig
from .observers import bandwidth_gains
from .plant import FracPlant

MAX_DEGREE = 300
SECTOR_GUARD = 1e-9
RESIDUAL_TOL = 1e-8
ORDER_TOL = 1e-9
MAX_DEN = 100


def rationalize_order(mu: float) -> tuple[int, int]:
    """Smallest-denominator coprime p/q matching mu within ORDER_TOL,
    q <= MAX_DEN."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    for q_den in range(1, MAX_DEN + 1):
        p = round(mu * q_den)
        if p < 1 or p >= q_den or math.gcd(p, q_den) != 1:
            continue
        if abs(p / q_den - mu) <= ORDER_TOL:
            return p, q_den
    raise ValueError(f"no rational p/q with q <= {MAX_DEN} matches "
                     f"mu={mu} within {ORDER_TOL}")


@dataclass(frozen=True, eq=False)
class CharPoly:
    """Real polynomial in w; coeffs indexed by power (length degree + 1)."""

    coeffs: np.ndarray
    p: int
    q_den: int

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def lam(self) -> float:
        return 1.0 / self.q_den


def build_char_poly(b: float, b_o: float, a_o: float, K: float, beta1: float,
                    beta2: float, p: int, q_den: int) -> CharPoly:
    """Closed-loop characteristic polynomial of the improved-observer ADRC.

    Sparse in w: nonzero coefficients sit only at powers
    {2q+p, 2q, q+p, q, 0}.
    """
    if p < 1 or q_den <= p:
        raise ValueError(f"need 0 < p < q_den, got p={p}, q_den={q_den}")
    if b == 0.0:
        raise ValueError("b must be nonzero")
    degree = 2 * q_den + p
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds cap {MAX_DEGREE}")
    c = np.zeros(degree + 1)
    c[degree] = b
    c[2 * q_den] = b_o * beta1 + a_o * b
    c[q_den + p] = b * K + beta1 * b - beta1 * b_o
    c[q_den] = a_o * b * beta1 + a_o * b * K + K * b_o * beta1 + b_o * beta2
    c[0] = b_o * beta2 * K
    return CharPoly(coeffs=c, p=int(p), q_den=int(q_den))


def _normalized_residuals(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|P(w)| / sum_k |c_k| * max(1, |w|)**k, one entry per root."""
    vals = np.abs(npoly.polyval(roots, c))
    powers = np.arange(c.size)
    absc = np.abs(c)
    scale = np.array([np.sum(absc * np.maximum(1.0, abs(w)) ** powers)
                      for w in roots])
    return vals / scale


def poly_roots(poly: CharPoly) -> np.ndarray:
    """All complex roots, via eigenvalues of the balanced companion matrix
    plus one Newton polish per root, verified against a residual bound.

    Raises ArithmeticError with the per-root residuals if the bound fails.
    Output is sorted by (real, imag) so repeated calls are reproducible.
    """
    c = poly.coeffs
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if c[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    roots = np.roots(c[::-1]).astype(complex)
    dc = npoly.polyder(c)
    pv = npoly.polyval(roots, c)
    dv = npoly.polyval(roots, dc)
    safe = dv != 0
    polished = np.where(safe, roots - pv / np.where(safe, dv, 1.0), roots)
    r_raw = _normalized_residuals(c, roots)
    r_pol = _normalized_residuals(c, polished)
    take = r_pol <= r_raw
    roots = np.where(take, polished, roots)
    residuals = np.where(take, r_pol, r_raw)
    worst = float(np.max(residuals))
    if worst > RESIDUAL_TOL:
        raise ArithmeticError(
            f"root refinement failed: max normalized residual {worst:.3e} "
            f"exceeds {RESIDUAL_TOL:.1e}; residuals={residuals!r}")
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Sector-test outcome for one characteristic polynomial."""

    roots: np.ndarray
    args: np.ndarray
    margin: float
    stable: bool
    residuals: np.ndarray
    marginal: bool
    lam: float
    degree: int

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "lambda": self.lam,
            "roots": [{"re": float(w.real), "im": float(w.imag),
                       "arg": float(a)}
                      for w, a in zip(self.roots, self.args)],
            "margin": self.margin,
            "stable": self.stable,
            "residual_max": float(np.max(self.residuals)),
        }


def sector_test(poly: CharPoly) -> StabilityReport:
    """Verdict on |arg(w_i)| > lam*pi/2 for every root.

    margin = min |arg(w_i)| - lam*pi/2.  A margin inside (0, SECTOR_GUARD]
    is flagged marginal and judged unstable (conservative).
    """
    roots = poly_roots(poly)
    residuals = _normalized_residuals(poly.coeffs, roots)
    args = np.angle(roots)
    margin = float(np.min(np.abs(args)) - poly.lam * np.pi / 2.0)
    return StabilityReport(roots=roots, args=args, margin=margin,
                           stable=margin > SECTOR_GUARD,
                           residuals=residuals,
                           marginal=0.0 < margin <= SECTOR_GUARD,
                           lam=poly.lam, degree=poly.degree)


def loop_sector_test(cfg: AdrcConfig,
                     plant: FracPlant) -> tuple[CharPoly, StabilityReport]:
    """Sector test of the improved-observer loop that `cfg` and `plant`
    describe: the controller's K, b and bandwidth gains against the
    plant's a_o, b_o and rationalized order.  Returns the characteristic
    polynomial with its report."""
    p, q_den = rationalize_order(plant.mu)
    gains = bandwidth_gains(cfg.omega_o)
    poly = build_char_poly(cfg.b, plant.b_o, plant.a_o, cfg.K, gains.beta1,
                           gains.beta2, p, q_den)
    return poly, sector_test(poly)
