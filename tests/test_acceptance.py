"""End-to-end acceptance gates.

Each test checks one headline capability at its stated tolerance and
runtime budget and prints a single PASS/FAIL verdict line.  Expected
values were frozen from independent oracle computations: closed forms
re-derived by hand and cross-checked against numeric transfer-function
magnitudes, analytic fractional-calculus identities, and hand-expanded
characteristic polynomials.
"""
from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from fracadrc import (
    AdrcVariant,
    Feso,
    Ieso,
    Ifeso,
    SimulationDiverged,
    bandwidth_gains,
    build_char_poly,
    gl_differintegral,
    g_ifio,
    g_io,
    log_grid,
    mse_ifio,
    mse_io,
    poly_roots,
    rationalize_order,
    run_closed_loop,
    sector_test,
    step_metrics,
)

from helpers import REF, delta, frac_sin, ref_loop


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Closed-form error laws match transfer-function magnitudes
# ---------------------------------------------------------------------------


def test_criterion_1_mse_closed_forms():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a_o = rng.uniform(1.0, 50.0)
        mu = rng.uniform(0.1, 0.95)
        omega_o = rng.uniform(100.0, 5000.0)
        omega = 10.0 ** rng.uniform(-1.0, 5.0)
        for closed, transfer in (
            (mse_io, g_io),
            (mse_ifio, g_ifio),
        ):
            G = partial(transfer, a_o, 1.0, 1.0, mu, omega_o)
            expect = abs(delta(G, omega)) ** 2
            got = float(closed(omega, a_o, mu, omega_o))
            worst = max(worst, abs(got - expect) / max(expect, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _verdict(
        1,
        "mse closed forms vs |1 - jwG|^2 over 200 random tuples",
        ok,
        f"worst rel err {worst:.2e} (tol 1e-9), {elapsed:.2f}s (budget 1s)",
    )


# ---------------------------------------------------------------------------
# 2. Embedding-view error dominated by integer-view error
# ---------------------------------------------------------------------------


def test_criterion_2_error_dominance():
    a_o, mu, omega_o = 10.0, 0.6, 1600.0
    t0 = time.perf_counter()
    grid = log_grid(1.0, 1e5, 60)
    e_io = np.array([float(mse_io(w, a_o, mu, omega_o)) for w in grid])
    e_ifio = np.array([float(mse_ifio(w, a_o, mu, omega_o)) for w in grid])
    dominated = bool(np.all(e_ifio <= e_io))
    # The two laws share one analytic DC limit, approached like omega**mu,
    # so equality is checked at omega = 0 exactly.
    dc_io = float(mse_io(0.0, a_o, mu, omega_o))
    dc_ifio = float(mse_ifio(0.0, a_o, mu, omega_o))
    analytic_dc = (a_o * 2.0 * omega_o) ** 2 / (
        a_o * 2.0 * omega_o + omega_o**2
    ) ** 2
    dc_equal = (
        abs(dc_io - dc_ifio) <= 1e-12 * dc_io
        and abs(dc_io - analytic_dc) <= 1e-9 * analytic_dc
    )
    # ...and split strictly apart away from it.
    sel = grid >= 10.0
    min_ratio = float(np.min(e_io[sel] / e_ifio[sel]))
    elapsed = time.perf_counter() - t0
    ok = dominated and dc_equal and min_ratio > 1.0 and elapsed < 1.0
    _verdict(
        2,
        "estimation error dominance on [1, 1e5] rad/s",
        ok,
        f"dominated={dominated}, dc equal={dc_equal}, "
        f"min ratio at w>=10 {min_ratio:.3f} (>1), {elapsed:.2f}s (budget 1s)",
    )


# ---------------------------------------------------------------------------
# 3. Reference characteristic polynomial and sector verdict
# ---------------------------------------------------------------------------


def test_criterion_3_sector_stability():
    t0 = time.perf_counter()
    p, q_den = rationalize_order(REF["mu"])
    beta1, beta2 = bandwidth_gains(REF["omega_o"])
    cp = build_char_poly(
        b=REF["b"], b_o=REF["b_o"], a_o=REF["a_o"], K=REF["K"],
        beta1=beta1, beta2=beta2, p=p, q_den=q_den,
    )
    expected = {14: 1.0, 10: 810.0, 9: 150.0, 5: 289500.0, 0: 2.4e7}
    coeffs_ok = cp.coeffs.size == 15 and all(
        math.isclose(cp.coeffs[k], v, rel_tol=1e-12)
        for k, v in expected.items()
    ) and all(
        cp.coeffs[k] == 0.0 for k in range(15) if k not in expected
    )
    roots, _ = poly_roots(cp)
    rep = sector_test(cp)
    sector_ok = (
        roots.size == 14
        and bool(np.all(np.abs(rep.args) > 0.1 * math.pi))
        and rep.margin > 0.0
        and float(np.max(rep.residuals)) < 1e-8
    )
    elapsed = time.perf_counter() - t0
    ok = coeffs_ok and sector_ok and elapsed < 0.1
    _verdict(
        3,
        "degree-14 polynomial with all roots outside the 0.1*pi sector",
        ok,
        f"coeffs exact={coeffs_ok}, margin {rep.margin:.4f}, "
        f"max residual {float(np.max(rep.residuals)):.2e}, "
        f"{elapsed * 1e3:.1f}ms (budget 100ms)",
    )


# ---------------------------------------------------------------------------
# 4. Reference step response
# ---------------------------------------------------------------------------


def test_criterion_4_reference_step_response(ref_trio):
    run = ref_trio["ifadrc"]
    traj = run["trajectory"]
    m = step_metrics(traj.t, traj.y, traj.v_d, traj.u0, traj.Ts)
    ss_ok = m["ss_error"] < 0.01
    nominal_rise = 2.2 / REF["K"]
    rise_ok = nominal_rise / 2.0 <= m["rise_10_90_s"] <= 2.0 * nominal_rise
    ok = ss_ok and rise_ok and run["elapsed_s"] < 2.0
    _verdict(
        4,
        "reference step: 1% steady state, rise within 2x of 2.2/K",
        ok,
        f"ss err {m['ss_error']:.2e}, rise {m['rise_10_90_s']:.4f}s "
        f"(nominal {nominal_rise:.4f}s), sim {run['elapsed_s']:.2f}s (budget 2s)",
    )


# ---------------------------------------------------------------------------
# 5. Variant ordering by settling time
# ---------------------------------------------------------------------------


def test_criterion_5_settling_order(ref_trio):
    settle = {}
    for variant in ("iadrc", "fadrc", "ifadrc"):
        traj = ref_trio[variant]["trajectory"]
        m = step_metrics(traj.t, traj.y, traj.v_d, traj.u0, traj.Ts)
        settle[variant] = m["settle_2pct_s"]
    total = sum(ref_trio[v]["elapsed_s"] for v in settle)
    ok = (
        settle["ifadrc"] <= settle["iadrc"]
        and settle["ifadrc"] <= settle["fadrc"]
        and total < 5.0
    )
    _verdict(
        5,
        "improved variant settles first at the reference point",
        ok,
        f"settle(2%) ifadrc {settle['ifadrc']:.4f}s <= "
        f"iadrc {settle['iadrc']:.4f}s, fadrc {settle['fadrc']:.4f}s; "
        f"three sims {total:.2f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# 6. Robustness to plant-gain variation
# ---------------------------------------------------------------------------


def test_criterion_6_gain_robustness():
    t0 = time.perf_counter()
    worst = 0.0
    for variant in (AdrcVariant.FADRC, AdrcVariant.IFADRC):
        for scale in (0.5, 1.0, 2.0):
            traj = run_closed_loop(ref_loop(variant=variant,
                                            b_o=REF["b_o"] * scale))
            err = abs(float(traj.y[-1]) - 1.0)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 10.0
    _verdict(
        6,
        "fractional variants hold 2% accuracy at 0.5x/1x/2x plant gain",
        ok,
        f"worst ss err {worst:.2e} over 6 runs, {elapsed:.2f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# 7. Fractional-kernel oracles
# ---------------------------------------------------------------------------


def test_criterion_7_kernel_oracles():
    t0 = time.perf_counter()
    # (a) half derivative of the ramp at t = 1
    Ts = 1.0 / 8000.0
    t = np.arange(0, 1.0 + Ts / 2, Ts)
    ramp_err = abs(
        gl_differintegral(t, 0.5, Ts)[-1] - 2.0 / math.sqrt(math.pi)
    )
    # (b) convolution kernel vs the exact series for D^0.6 sin(t)
    tt = np.arange(0, 10.0, Ts)
    exact = frac_sin(tt, 0.6)
    sel = tt >= 2.0
    sine_rms = float(
        np.sqrt(np.mean((gl_differintegral(np.sin(tt), 0.6, Ts)[sel]
                         - exact[sel]) ** 2))
        / np.sqrt(np.mean(exact[sel] ** 2))
    )
    # (c) improved observer collapses onto the integer observer at mu = 1
    rng = np.random.default_rng(7)
    ife = Ifeso(400.0, b=1.0, mu=1.0, Ts=Ts)
    ie = Ieso(400.0, b=1.0, Ts=Ts)
    diffs = np.empty(4000)
    for k, (u, y) in enumerate(rng.normal(size=(4000, 2))):
        ife.step(u, y)
        ie.step(u, y)
        diffs[k] = ife.z1 - ie.z1
    collapse_rms = float(np.sqrt(np.mean(diffs**2)))
    elapsed = time.perf_counter() - t0
    ok = (
        ramp_err < 1e-3
        and sine_rms < 1e-4
        and collapse_rms < 1e-6
        and elapsed < 2.0
    )
    _verdict(
        7,
        "kernel oracles: ramp value, exact D^0.6 sin, integer collapse",
        ok,
        f"ramp err {ramp_err:.2e} (tol 1e-3), sine rms {sine_rms:.2e} "
        f"(tol 1e-4), collapse rms {collapse_rms:.2e} (tol 1e-6), "
        f"{elapsed:.2f}s (budget 2s)",
    )


# ---------------------------------------------------------------------------
# 8. Sector verdict vs simulated boundedness
# ---------------------------------------------------------------------------


def _sample_configs(rng, count):
    """Randomized loops near the reference point, skipping the marginal
    band where root placement and fixed-step simulation may legitimately
    disagree."""
    kept = []
    while len(kept) < count:
        mu = round(rng.uniform(0.75, 0.9), 2)
        K = rng.uniform(50.0, 500.0)
        omega_o = rng.uniform(200.0, 600.0)
        a_o = rng.uniform(-300.0, 50.0)
        mag = rng.uniform(0.5, 2.0)
        b_o = -mag if rng.uniform() < 0.35 else mag
        p, q_den = rationalize_order(mu)
        beta1, beta2 = bandwidth_gains(omega_o)
        cp = build_char_poly(
            b=1.0, b_o=b_o, a_o=a_o, K=K,
            beta1=beta1, beta2=beta2, p=p, q_den=q_den,
        )
        rep = sector_test(cp)
        if abs(rep.margin) <= 0.03:
            continue
        kept.append((mu, K, omega_o, a_o, b_o, rep.stable))
    return kept


def test_criterion_8_stability_concordance():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    agree = 0
    outcomes = []
    for mu, K, omega_o, a_o, b_o, predicted in _sample_configs(rng, 20):
        cfg = ref_loop(K=K, omega_o=omega_o, a_o=a_o, b_o=b_o, mu=mu,
                       horizon=2.0)
        try:
            traj = run_closed_loop(cfg, v_d=1.0)
            peak = float(np.max(np.abs(traj.y)))
            bounded = math.isfinite(peak) and peak < 1e6
        except SimulationDiverged:
            bounded = False
        outcomes.append((predicted, bounded))
        agree += predicted == bounded
    elapsed = time.perf_counter() - t0
    ok = agree >= 19 and elapsed < 30.0
    stable_count = sum(1 for pred, _ in outcomes if pred)
    _verdict(
        8,
        "sector verdict vs 2s simulation on 20 sampled loops",
        ok,
        f"{agree}/20 agree ({stable_count} predicted stable), "
        f"{elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# 9. Integrated-estimate flatness contrast
# ---------------------------------------------------------------------------


def test_criterion_9_integrated_estimate_contrast():
    mu = 0.9
    t0 = time.perf_counter()
    grid = log_grid(1.0, 1e4, 60)
    ifio_db = np.array(
        [
            20.0 * math.log10(abs(1j * w * g_ifio(10.0, 1.0, 1.0, mu, 400.0, 1j * w)))
            for w in grid
        ]
    )
    io_db = np.array(
        [
            20.0 * math.log10(abs(1j * w * g_io(10.0, 1.0, 1.0, mu, 400.0, 1j * w)))
            for w in grid
        ]
    )
    flat_max = float(np.max(np.abs(ifio_db)))
    drift_max = float(np.max(np.abs(io_db[grid > 1e3])))
    elapsed = time.perf_counter() - t0
    ok = flat_max < 1.0 and drift_max > 1.0 and elapsed < 1.0
    _verdict(
        9,
        "embedding view flat within 1 dB while integer view drifts",
        ok,
        f"max |ifio| {flat_max:.3f} dB on [1, 1e4] (tol 1 dB), "
        f"max |io| above 1e3 rad/s {drift_max:.2f} dB (> 1 dB), "
        f"{elapsed:.2f}s (budget 1s)",
    )
