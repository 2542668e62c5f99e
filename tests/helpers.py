"""Shared constants, factories and oracles for the test suite."""
from __future__ import annotations

import math

import numpy as np

from fracadrc import AdrcConfig, DisturbanceSignal, loop_symbol

# Reference operating point used throughout the suite: the plant
# 1/(s^0.8 + 10) under a K=150 outer loop with a 400 rad/s observer,
# sampled at 8 kHz for one second.
REF = {
    "a_o": 10.0,
    "b_o": 1.0,
    "b": 1.0,
    "mu": 0.8,
    "K": 150.0,
    "omega_o": 400.0,
    "Ts": 1.0 / 8000.0,
    "horizon": 1.0,
}


def ref_loop(**overrides) -> AdrcConfig:
    """The reference loop REF, with any AdrcConfig field overridden."""
    return AdrcConfig(**{**REF, **overrides})


def frac_sin(t, mu: float) -> np.ndarray:
    """The exact Riemann-Liouville D**mu sin(t) from rest at times t >= 0,
    for any order mu < 1 (a negative one integrates): the series
    sum_k (-1)**k t**(2k+1-mu) / Gamma(2k+2-mu), 0 at t = 0.  Its 80 terms
    agree with 120 to the last bit up to t = 10."""
    t = np.asarray(t, dtype=float)
    log_t = np.log(t, out=np.full_like(t, -np.inf), where=t > 0.0)
    out = np.zeros_like(t)
    for k in reversed(range(80)):  # smallest terms first
        p = 2 * k + 1 - mu
        out += (-1) ** k * np.exp(p * log_t - math.lgamma(p + 1.0))
    return out


def symbol_response(cfg: AdrcConfig, v_d: float = 1.0,
                    d: DisturbanceSignal | None = None) -> dict:
    """The columns y, u, u0, z1, z2, q_hat of run_closed_loop(cfg, v_d=v_d,
    d=d), from the loop's symbol alone, in numpy only.

    Contour inversion: the symbol is solved for an impulse reference and
    an impulse disturbance at 8n points on |zeta| = rho, rho**n = 1e-2, and
    an FFT turns those into impulse responses, with aliasing of order
    rho**(8n) = 1e-16.  The step reference is their cumulative sum (a
    1/(1 - zeta) right-hand side loses an order of magnitude), and the
    disturbance response is the convolution with d's samples.
    """
    n = cfg.samples()
    N = 8 * n
    rho = 1e-2 ** (1.0 / n)
    zeta = rho * np.exp(2j * np.pi * np.arange(N) / N)
    rhs = np.zeros((N, 5, 2), dtype=complex)
    rhs[:, 4, 0] = cfg.K      # control row: K*v
    rhs[:, 0, 1] = zeta       # plant row: zeta*d
    solved = np.linalg.solve(loop_symbol(cfg, zeta=zeta), rhs)
    h = np.fft.fft(solved, axis=0)[:n].real / N
    h /= (rho ** np.arange(n))[:, None, None]
    darr = (d or DisturbanceSignal()).render(np.arange(n) * cfg.Ts)
    x = v_d * np.cumsum(h[..., 0], axis=0) + np.stack(
        [np.convolve(h[:, i, 1], darr)[:n] for i in range(5)], axis=1)
    y, z1, z2, q_hat, u = x.T
    return {"y": y, "u": u, "u0": cfg.K * (v_d - z1), "z1": z1, "z2": z2,
            "q_hat": q_hat}


def compensated_object(cfg: AdrcConfig, s) -> np.ndarray:
    """G = Y/U0 of the continuous loop at Laplace points `s`: the inner
    loop the outer law u0 = K*(v - z1) sees, so the control row drops its
    K*Z1 entry and reads b*U + Z2 + Q_hat = U0."""
    M = loop_symbol(cfg, s=s)
    M[..., 4, 1] = 0.0
    rhs = np.zeros(M.shape[:-1], dtype=complex)
    rhs[..., 4] = 1.0
    return np.linalg.solve(M, rhs[..., None])[..., 0, 0]


def delta(G, omega: float) -> complex:
    """Integrator mismatch 1 - j*omega*G(j*omega) at one frequency."""
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return 1.0 - 1j * omega * G(1j * omega)


def talbot(F, t, M: int = 32) -> np.ndarray:
    """f(t) from its Laplace transform F, vectorised over points s, by the
    fixed Talbot contour (Abate & Valko, "Multi-precision Laplace transform
    inversion", Int. J. Numer. Meth. Eng. 60, 2004): M points on
    s = r*theta*(cot(theta) + i), r = 2M/(5t), for each of the times `t`."""
    t = np.asarray(t, dtype=float)[:, None]
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    path = np.concatenate([[1.0], theta * (cot + 1j)])
    weight = np.concatenate(
        [[0.5], 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)])
    r = 2.0 * M / (5.0 * t)
    s = r * path
    return (r[:, 0] / M) * np.sum(weight * np.exp(s * t) * F(s), axis=1).real


def continuous_step(cfg: AdrcConfig, t) -> np.ndarray:
    """y(t) of the paper's continuous loop (loop_symbol at Laplace points)
    for a unit-step reference V = 1/s, by Talbot inversion."""
    def Y(s):
        rhs = np.zeros(s.shape + (5,), dtype=complex)
        rhs[..., 4] = cfg.K / s   # control row: K*V
        return np.linalg.solve(loop_symbol(cfg, s=s),
                               rhs[..., None])[..., 0, 0]
    return talbot(Y, t)
