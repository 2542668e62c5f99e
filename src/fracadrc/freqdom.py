"""Frequency-domain analysis of disturbance estimation quality.

Covers the paper's closed forms: the compensated-object transfer functions
of the outer proportional loop (principal s**mu), the squared magnitude of
the integrator mismatch delta(w) = 1 - jw*G(jw) (real trigonometric
arithmetic on shared terms, b = b_o), and Bode sampling over log grids.  The
same loops, from the rows of each update, are `control.loop_symbol`.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .artifacts import write_csv


def log_grid(omega_min: float = 0.1, omega_max: float = 1e5,
             points_per_decade: int = 60) -> np.ndarray:
    """Log-spaced grid, `points_per_decade` per decade, at least two
    points; its first and last are exactly `omega_min` and `omega_max`."""
    if not (math.isfinite(omega_min) and math.isfinite(omega_max)):
        raise ValueError(f"omega_min and omega_max must be finite, "
                         f"got {omega_min}, {omega_max}")
    if not 0.0 < omega_min < omega_max:
        raise ValueError("need 0 < omega_min < omega_max")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    # a points_per_decade beyond the float range is refused before it is
    # converted to one, and the message then leaves out the point count
    decades = math.log10(omega_max) - math.log10(omega_min)
    count = (decades * points_per_decade
             if points_per_decade <= sys.float_info.max else math.inf)
    if count > np.iinfo(np.intp).max // 8:  # bytes per float64
        size = (f"{count:.4g} points, more" if count < math.inf
                else "more points")
        raise ValueError(f"omega_min {omega_min} to omega_max {omega_max} at "
                         f"points_per_decade {points_per_decade} is {size} "
                         f"than one array holds")
    n = max(2, int(round(count)) + 1)
    grid = np.logspace(math.log10(omega_min), math.log10(omega_max), n)
    # 10 ** log10(x) can miss x by a rounding step
    grid[0], grid[-1] = omega_min, omega_max
    return grid


def g_io(a_o: float, b_o: float, b: float, mu: float, omega_o: float,
         s) -> complex:
    """Compensated object (outer-loop plant) under the integer observer.

    Raises ZeroDivisionError at s = 0 and wherever the denominator is 0.
    """
    s = complex(s)
    smu = s ** mu
    den = s * (b_o * omega_o * omega_o
               + a_o * b * (s + 2.0 * omega_o)
               + b * smu * (s + 2.0 * omega_o))
    return b_o * (s + omega_o) ** 2 / den


def g_ifio(a_o: float, b_o: float, b: float, mu: float, omega_o: float,
           s) -> complex:
    """Compensated object under the improved fractional observer.

    With a_o = 0 and b = b_o this is exactly 1/s: the mismatch estimate
    cancels the fractional dynamics completely.  Raises ZeroDivisionError
    at s = 0 and wherever the denominator is 0.
    """
    s = complex(s)
    smu = s ** mu
    num = b_o * (s ** (1.0 + mu) + 2.0 * omega_o * s + omega_o * omega_o)
    den = s * (b_o * omega_o * (2.0 * s - 2.0 * smu + omega_o)
               + a_o * b * (s + 2.0 * omega_o)
               + b * smu * (s + 2.0 * omega_o))
    return num / den


def _mse_terms(omega, mu: float, omega_o: float):
    """omega as an array, checked >= 0, and the terms both forms share."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("omega must be >= 0")
    return (w, 2.0 * omega_o, omega_o * omega_o, math.cos(0.5 * math.pi * mu),
            math.sin(0.5 * math.pi * mu), w ** mu)


def _mse_ratio(name: str, omega, num, den):
    """num / den, a float when omega is a scalar.  Raises, naming the
    form, ZeroDivisionError when an entry of den is 0 and OverflowError
    when one of the ratio is not finite (a term overflowed)."""
    if np.any(den == 0.0):
        raise ZeroDivisionError(f"{name} denominator vanished")
    out = num / den
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"{name} is not finite at these parameters")
    return float(out) if np.ndim(omega) == 0 else out


def mse_io(omega, a_o: float, mu: float, omega_o: float):
    """|1 - jw*G_io(jw)|**2 in closed form, matched gain b = b_o.

    Real arithmetic only (powers of omega and cos/sin of pi*mu/2), so it is
    an independent route against the complex evaluation of g_io by
    `tests/helpers.py::delta`.
    Accepts a scalar or an array of frequencies; omega = 0 is the finite
    limit (2*a_o*omega_o / (2*a_o*omega_o + omega_o**2))**2.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w, b1, b2, cmu, smu, wmu = _mse_terms(omega, mu, omega_o)
        n1 = (b1 * b1 + w * w) * (a_o * a_o + w * w + w ** (2.0 * mu)
                                  + 2.0 * wmu * (a_o * cmu - w * smu))
        re = a_o * b1 + b2 + b1 * wmu * cmu - w * wmu * smu
        im = a_o * w + w * wmu * cmu + b1 * wmu * smu
        return _mse_ratio("mse_io", omega, n1, re * re + im * im)


def mse_ifio(omega, a_o: float, mu: float, omega_o: float):
    """|1 - jw*G_ifio(jw)|**2 in closed form, matched gain b = b_o.

    The numerator carries a_o**2 as a factor: with a_o = 0 the improved
    observer leaves no integrator mismatch at any frequency.  Equals mse_io
    at omega = 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w, b1, b2, cmu, smu, wmu = _mse_terms(omega, mu, omega_o)
        n2 = a_o * a_o * (b1 * b1 + w * w)
        re = a_o * b1 + b2 - w * wmu * smu
        im = a_o + b1 + wmu * cmu
        return _mse_ratio("mse_ifio", omega, n2,
                          re * re + w * w * (im * im))


def bode(G, omega_grid) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude (dB) and unwrapped phase (deg) of G over the grid.

    Every point is a number, or nothing is returned: an ArithmeticError
    inside G is raised again with the frequency it happened at (a
    ZeroDivisionError or OverflowError keeps its type), and a value of G
    that is 0 or not finite raises OverflowError naming its frequency.
    """
    w = np.asarray(omega_grid, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("omega grid must be a nonempty 1-D array")
    if np.any(w <= 0.0) or np.any(np.diff(w) <= 0.0):
        raise ValueError("omega grid must be positive and strictly "
                         "increasing")
    h = np.empty(w.size, dtype=complex)
    for i, wi in enumerate(w):
        at = f"at omega = {wi:g} rad/s"
        try:
            h[i] = G(1j * wi)
        except ArithmeticError as exc:
            kind = next(k for k in (ZeroDivisionError, OverflowError,
                                    ArithmeticError) if isinstance(exc, k))
            raise kind(f"transfer function failed {at} ({exc})") from None
        if h[i] == 0 or not cmath.isfinite(h[i]):
            raise OverflowError(f"transfer function is {h[i]} {at}, not a "
                                f"finite nonzero number")
    return 20.0 * np.log10(np.abs(h)), np.degrees(np.unwrap(np.angle(h)))


def write_mse_csv(path, omega, e_io, e_ifio) -> None:
    """CSV with header omega_rad_s,e_io,e_ifio in full double precision."""
    write_csv(path, ("omega_rad_s", "e_io", "e_ifio"), (omega, e_io, e_ifio))


def write_bode_csv(path, omega, mag_db, phase_deg) -> None:
    """CSV with header omega_rad_s,mag_db,phase_deg in full precision."""
    write_csv(path, ("omega_rad_s", "mag_db", "phase_deg"),
              (omega, mag_db, phase_deg))
