"""Commensurate-order closed-loop stability analysis.

The loop order mu is rationalized to p/q; substituting w = s**(1/q) turns
the closed-loop characteristic equation into an ordinary polynomial in w,
and the loop is stable iff every root satisfies |arg(w_i)| > lambda*pi/2
with lambda = 1/q.

Roots come from the companion-matrix eigenvalues (`np.roots`) below degree
ABERTH_MIN_DEGREE, and from an Aberth-Ehrlich iteration on the nonzero
terms at or above it, which falls back to the eigenvalues unless it
converges and its inclusion disks are pairwise disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
# Root source switch, at the measured crossover: the Aberth solve takes
# a median 1.13 / 1.06 / 0.89 / 0.52 times the companion eigensolve's time
# at degree 35-39 / 40-44 / 45-49 / 70-74 (2-vCPU x86, BLAS on 1 thread).
ABERTH_MIN_DEGREE = 40
ABERTH_MAX_SWEEPS = 100
ABERTH_STEP_TOL = 1e-14


def rationalize_order(mu: float) -> tuple[int, int]:
    """Smallest-denominator coprime p/q matching mu within ORDER_TOL,
    q <= MAX_DEN."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    # two such fractions lie at least 1/MAX_DEN**2 > 2 * ORDER_TOL apart,
    # so the nearest one is the only candidate
    nearest = Fraction(mu).limit_denominator(MAX_DEN)
    p, q_den = nearest.numerator, nearest.denominator
    if not 0 < p < q_den or abs(p / q_den - mu) > ORDER_TOL:
        raise ValueError(f"no rational p/q with q <= {MAX_DEN} matches "
                         f"mu={mu} within {ORDER_TOL}")
    return p, q_den


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


def _term_scale(abs_c: np.ndarray, base: np.ndarray) -> np.ndarray:
    """sum_k abs_c[k] * base**k per base, bit for bit as the dense table
    sums it: terms are formed only at the nonzero abs_c[k], and the other
    entries are left 0 except at the highest zero power, whose 0 * base**k
    is NaN exactly when some zero term's power overflows (base >= 1)."""
    cols = np.flatnonzero(abs_c)
    zero = np.flatnonzero(abs_c == 0.0)
    if zero.size:
        cols = np.append(cols, zero[-1])
    table = np.zeros((base.size, abs_c.size))
    table[:, cols] = abs_c[cols] * base[:, None] ** cols
    return table.sum(axis=1)


def _normalized_residuals(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|P(w)| / sum_k |c_k| * max(1, |w|)**k, one entry per root; NaN
    where that cannot be evaluated in floating point."""
    # hypot, not np.abs: it is the scalar abs(w) bit for bit, which the
    # frozen fig10 report's residual_max was computed with
    modulus = np.hypot(roots.real, roots.imag)
    with np.errstate(all="ignore"):
        res = np.abs(npoly.polyval(roots, c)) / _term_scale(
            np.abs(c), np.maximum(1.0, modulus))
        big = ~np.isfinite(res) & (modulus > 1.0)
        if big.any():  # |w|**k overflowed: divide P(w) and the scale by w**n
            rev = c[::-1]
            res[big] = (np.abs(npoly.polyval(1.0 / roots[big], rev))
                        / _term_scale(np.abs(rev), 1.0 / modulus[big]))
    return res


def _sparse_horner(c: np.ndarray,
                   z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(z) and P'(z) by Horner's rule over the nonzero terms of c only,
    down to c_0, which must be nonzero: each gap between two powers is
    bridged by z**gap, formed by binary powering."""
    powers = np.flatnonzero(c)[::-1].tolist()
    value = np.full(z.shape, c[powers[0]], dtype=complex)
    z_slope = powers[0] * value  # z * P'(z): Horner over k * c_k
    for hi, lo in zip(powers[:-1], powers[1:]):
        gap, square, z_gap = hi - lo, z, None
        while gap:
            if gap & 1:
                z_gap = square if z_gap is None else z_gap * square
            gap >>= 1
            if gap:
                square = square * square
        value = value * z_gap + c[lo]
        z_slope = z_slope * z_gap + lo * c[lo]
    return value, z_slope / z


def _scaled_terms(z: np.ndarray, powers: np.ndarray,
                  log_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms c_k * z**k of the nonzero powers, one row per z, each row
    divided by exp(m) with m its largest log|c_k * z**k|, and m: no
    power of z is formed, so nothing overflows."""
    logs = np.log(z)[:, None] * powers + log_c
    m = logs.real.max(axis=1)
    return np.exp(logs - m[:, None]), m


def _newton_polygon_starts(powers: np.ndarray, log_abs: np.ndarray,
                           n: int) -> np.ndarray:
    """n starting points: each edge of the Newton polygon (the upper convex
    hull of the points (k, log|c_k|)) from power i to power j puts j - i
    points on the circle of radius (|c_i| / |c_j|)**(1 / (j - i))."""
    hull: list[int] = []
    for i in range(powers.size):
        while len(hull) >= 2 and (
                (log_abs[hull[-1]] - log_abs[hull[-2]])
                * (powers[i] - powers[hull[-2]])
                <= (log_abs[i] - log_abs[hull[-2]])
                * (powers[hull[-1]] - powers[hull[-2]])):
            hull.pop()
        hull.append(i)
    starts = []
    for lo, hi in zip(hull[:-1], hull[1:]):
        m = powers[hi] - powers[lo]
        radius = np.exp((log_abs[lo] - log_abs[hi]) / m)
        theta = 2.0 * np.pi * (np.arange(m) / m + powers[lo] / n) + 0.7
        starts.append(radius * np.exp(1j * theta))
    return np.concatenate(starts)


def _disks_disjoint(c: np.ndarray, z: np.ndarray) -> bool:
    """Whether the disks |w - z_i| <= n |P(z_i)| / |c_n prod_{j != i}
    (z_i - z_j)| are pairwise disjoint.  Together they hold all n roots of
    P, and then one root each (Carstensen, Numer. Math. 59, 1991)."""
    n = c.size - 1
    powers = np.flatnonzero(c)
    with np.errstate(all="ignore"):
        terms, m = _scaled_terms(z, powers,
                                 np.log(c[powers].astype(complex)))
        log_p = m + np.log(np.abs(terms.sum(axis=1)))
        dist = np.abs(z[:, None] - z)
        np.fill_diagonal(dist, 1.0)
        radii = n * np.exp(log_p - np.log(abs(c[-1]))
                           - np.log(dist).sum(axis=1))
        np.fill_diagonal(dist, np.inf)
        return bool(np.all(dist > radii[:, None] + radii))


def _aberth_roots(c: np.ndarray) -> np.ndarray | None:
    """All roots by the Aberth-Ehrlich iteration (Bini, Numer. Algorithms
    13, 1996) from the Newton-polygon starts, evaluating P and P' from the
    nonzero terms only; None unless it converges within ABERTH_MAX_SWEEPS
    sweeps and its inclusion disks are pairwise disjoint."""
    n = c.size - 1
    if c[0] == 0.0:  # no logarithm to take
        return None
    powers = np.flatnonzero(c)
    log_c = np.log(c[powers].astype(complex))
    z = _newton_polygon_starts(powers, log_c.real, n)
    active = np.arange(n)
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_MAX_SWEEPS):
            za = z[active]
            terms, _ = _scaled_terms(za, powers, log_c)
            value = terms.sum(axis=1)
            newton = za * value / (terms @ powers)  # P / P'
            diff = za[:, None] - z
            diff[np.arange(active.size), active] = np.inf
            pull = np.reciprocal(diff, out=diff).sum(axis=1)
            step = newton / (1.0 - newton * pull)
            z[active] = za - step
            # a root also stops once P(z) is within the rounding error of
            # its terms, each of which carries k * |log z| ulps from z**k
            noise = (2.0 * np.finfo(float).eps
                     * np.maximum(1.0, np.abs(np.log(za)))
                     * (np.abs(terms) @ (1.0 + powers)))
            active = active[(np.abs(step) > ABERTH_STEP_TOL * np.abs(za))
                            & (np.abs(value) > noise)]
            if active.size == 0:
                break
        else:
            return None
    return z if _disks_disjoint(c, z) else None


def poly_roots(poly: CharPoly) -> tuple[np.ndarray, np.ndarray]:
    """All complex roots and their normalized residuals, same order.  The
    roots come from the Aberth iteration at degree >= ABERTH_MIN_DEGREE
    when it certifies them, else from the eigenvalues of the balanced
    companion matrix; then one Newton polish per root (from the nonzero
    terms for Aberth roots, from every coefficient for eigenvalues),
    verified against a residual bound.

    Raises OverflowError with the degree if a coefficient is not finite,
    and ArithmeticError with the degree and the largest residual if any
    residual exceeds the bound or is not finite.  Output is sorted by
    (real, imag) so repeated calls are reproducible.
    """
    c = poly.coeffs
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if c[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    if not np.all(np.isfinite(c)):
        raise OverflowError(f"a coefficient of the degree-{poly.degree} "
                            f"characteristic polynomial is not finite")
    roots = _aberth_roots(c) if poly.degree >= ABERTH_MIN_DEGREE else None
    certified = roots is not None
    if not certified:
        roots = np.roots(c[::-1]).astype(complex)
    with np.errstate(all="ignore"):  # a non-finite step is not taken
        if certified:  # Aberth refuses c_0 = 0: the sparse pass ends at c_0
            pv, dv = _sparse_horner(c, roots)
        else:
            pv = npoly.polyval(roots, c)
            dv = npoly.polyval(roots, npoly.polyder(c))
        safe = dv != 0
        polished = np.where(safe, roots - pv / np.where(safe, dv, 1.0),
                            roots)
    r_raw = _normalized_residuals(c, roots)
    r_pol = _normalized_residuals(c, polished)
    take = r_pol <= r_raw
    roots = np.where(take, polished, roots)
    residuals = np.where(take, r_pol, r_raw)
    if not np.all(residuals <= RESIDUAL_TOL):  # a NaN fails too
        raise ArithmeticError(
            f"root solve of the degree-{poly.degree} characteristic "
            f"polynomial failed its residual check: max normalized residual "
            f"{np.max(residuals):.3e} (bound {RESIDUAL_TOL:.1e})")
    order = np.lexsort((roots.imag, roots.real))
    return roots[order], residuals[order]


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
    roots, residuals = poly_roots(poly)
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
    poly = build_char_poly(cfg.b, plant.b_o, plant.a_o, cfg.K,
                           *bandwidth_gains(cfg.omega_o), p, q_den)
    return poly, sector_test(poly)
