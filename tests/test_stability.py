"""Commensurate-order stability analysis: order rationalization,
characteristic polynomial construction, root finding, and the angular
sector verdict."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from fracadrc import stability
from fracadrc import (
    CharPoly,
    bandwidth_gains,
    build_char_poly,
    loop_sector_test,
    poly_roots,
    rationalize_order,
    sector_test,
)

from helpers import ref_loop

REF = dict(b=1.0, b_o=1.0, a_o=10.0, K=150.0, omega_o=400.0, p=4, q_den=5)


def ref_poly(**overrides):
    kw = dict(REF)
    kw.update(overrides)
    beta1, beta2 = bandwidth_gains(kw.pop("omega_o"))
    return build_char_poly(beta1=beta1, beta2=beta2, **kw)


# ---------------------------------------------------------------------------
# Order rationalization
# ---------------------------------------------------------------------------


def test_rationalize_examples():
    assert rationalize_order(0.8) == (4, 5)
    assert rationalize_order(0.5) == (1, 2)
    assert rationalize_order(0.6) == (3, 5)
    assert rationalize_order(0.95) == (19, 20)
    assert rationalize_order(1.0 / 3.0) == (1, 3)


def test_rationalize_validation():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            rationalize_order(bad)
    # 1e-12 and 1 - 1e-12 lie within ORDER_TOL of 0/1 and 1/1, which are
    # not proper orders
    for bad in (0.1234567891, 1e-12, 1.0 - 1e-12):
        with pytest.raises(ValueError, match="within"):
            rationalize_order(bad)


@given(p=st.integers(min_value=1, max_value=99), q=st.integers(min_value=2, max_value=100))
def test_rationalize_round_trips_exact_fractions(p, q):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if p >= q:
        return
    assert rationalize_order(p / q) == (p, q)
    for offset in (-0.9 * stability.ORDER_TOL, 0.9 * stability.ORDER_TOL):
        assert rationalize_order(p / q + offset) == (p, q)
    for offset in (-1.1 * stability.ORDER_TOL, 1.1 * stability.ORDER_TOL):
        with pytest.raises(ValueError, match="within"):
            rationalize_order(p / q + offset)


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


def test_reference_polynomial_exact_coefficients():
    cp = ref_poly()
    assert cp.lam == pytest.approx(0.2)
    assert cp.coeffs.size == 15  # degree 14, ascending storage
    expected = {0: 2.4e7, 5: 289500.0, 9: 150.0, 10: 810.0, 14: 1.0}
    for power, value in expected.items():
        assert cp.coeffs[power] == pytest.approx(value, rel=1e-12)
    others = [k for k in range(15) if k not in expected]
    assert all(cp.coeffs[k] == 0.0 for k in others)


@given(
    a_o=st.floats(min_value=-50.0, max_value=50.0),
    K=st.floats(min_value=1.0, max_value=500.0),
    omega_o=st.floats(min_value=10.0, max_value=2000.0),
    b=st.floats(min_value=0.2, max_value=3.0),
    p=st.integers(min_value=1, max_value=6),
    q_den=st.integers(min_value=2, max_value=8),
)
def test_matched_gain_polynomial_structure(a_o, K, omega_o, b, p, q_den):
    # With b == b_o the closed-loop polynomial has exactly five terms whose
    # placement and values follow from expanding the loop by hand:
    #   w^(p+2q) + (beta1+a_o) w^(2q) + K w^(p+q)
    #     + (a_o*beta1 + beta2 + K*(beta1+a_o)) w^q + K*beta2,
    # all scaled by the common drive gain b.
    if p >= q_den or math.gcd(p, q_den) != 1:
        return
    beta1, beta2 = bandwidth_gains(omega_o)
    cp = build_char_poly(
        b=b, b_o=b, a_o=a_o, K=K, beta1=beta1, beta2=beta2, p=p, q_den=q_den
    )
    deg = p + 2 * q_den
    expected = np.zeros(deg + 1)
    expected[p + 2 * q_den] += 1.0
    expected[2 * q_den] += beta1 + a_o
    expected[p + q_den] += K
    expected[q_den] += a_o * beta1 + beta2 + K * (beta1 + a_o)
    expected[0] += K * beta2
    expected *= b
    np.testing.assert_allclose(cp.coeffs, expected, rtol=1e-9, atol=1e-6)
    assert cp.p == p and cp.q_den == q_den
    assert cp.lam == pytest.approx(1.0 / q_den)


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


def test_reference_roots_satisfy_polynomial():
    cp = ref_poly()
    roots, _ = poly_roots(cp)
    assert roots.size == 14
    # ascending coefficients: evaluate sum c_k w^k directly
    for w in roots:
        val = sum(c * w**k for k, c in enumerate(cp.coeffs))
        assert abs(val) / np.max(np.abs(cp.coeffs)) < 1e-8


def test_roots_close_under_conjugation():
    roots, _ = poly_roots(ref_poly())
    conj = np.conj(roots)
    for r in roots:
        assert np.min(np.abs(conj - r)) < 1e-6


# ---------------------------------------------------------------------------
# Sector verdict
# ---------------------------------------------------------------------------


def test_reference_configuration_is_stable():
    rep = sector_test(ref_poly())
    assert rep.stable
    assert not rep.marginal
    assert rep.degree == 14
    assert rep.lam == pytest.approx(0.2)
    assert rep.margin == pytest.approx(0.3028, abs=1e-3)
    assert np.max(rep.residuals) < 1e-8
    assert np.all(np.abs(rep.args) > rep.lam * math.pi / 2.0)


def test_flipped_gain_is_unstable_by_a_real_root():
    rep = sector_test(ref_poly(b_o=-1.0))
    assert not rep.stable
    # A positive real root has zero argument: the margin is exactly the
    # negative sector half-angle.
    assert rep.margin == pytest.approx(-0.2 * math.pi / 2.0, rel=1e-9)


def test_boundary_roots_flag_marginal():
    ang = 0.1 * math.pi  # exactly on the lam = 0.2 sector edge
    coeffs = np.array([1.0, -2.0 * math.cos(ang), 1.0])
    cp = CharPoly(coeffs=coeffs, p=0, q_den=5)
    rep = sector_test(cp)
    assert rep.marginal
    assert not rep.stable
    assert abs(rep.margin) < 1e-9


@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_margin_invariant_under_coefficient_scaling(scale):
    cp = ref_poly()
    scaled = CharPoly(coeffs=cp.coeffs * scale, p=cp.p, q_den=cp.q_den)
    assert sector_test(scaled).margin == pytest.approx(
        sector_test(cp).margin, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Gain sweeps and auxiliary checks
# ---------------------------------------------------------------------------


def test_matched_loop_never_destabilizes_with_gain():
    for K in (0.01, 150.0, 1e9):
        assert loop_sector_test(ref_loop(K=K))[1].stable


def test_everywhere_unstable_loop_fails_at_sweep_floor():
    assert not loop_sector_test(ref_loop(K=0.01, a_o=-2000.0))[1].stable


@pytest.mark.parametrize("mu", [0.6, 0.73, 0.8, 0.87])
def test_loop_gate_matches_its_composition(mu):
    # the steps the gate composes, spelled out from the loop's parameters
    cfg = ref_loop(mu=mu)
    poly, report = loop_sector_test(cfg)
    p, q_den = rationalize_order(mu)
    beta1, beta2 = bandwidth_gains(cfg.omega_o)
    expected = build_char_poly(cfg.b, cfg.b_o, cfg.a_o, cfg.K, beta1,
                               beta2, p, q_den)
    np.testing.assert_array_equal(poly.coeffs, expected.coeffs)
    assert (poly.p, poly.q_den) == (p, q_den)
    assert report.margin == sector_test(expected).margin


# ---------------------------------------------------------------------------
# Root sources: companion eigenvalues and the certified Aberth iteration
# ---------------------------------------------------------------------------


def _eig_only(monkeypatch):
    # every degree on the companion-eigenvalue path
    monkeypatch.setattr(stability, "ABERTH_MIN_DEGREE", 10**9)


def _loop_residuals(c, roots):
    # the per-root loop the broadcast residuals replaced
    vals = np.abs(npoly.polyval(roots, c))
    powers = np.arange(c.size)
    scale = np.array([np.sum(np.abs(c) * np.maximum(1.0, abs(w)) ** powers)
                      for w in roots])
    return vals / scale


def _dense_residuals(c, roots):
    # the residuals with the scale's table formed at every power, zeros too
    modulus = np.hypot(roots.real, roots.imag)
    powers = np.arange(c.size)
    with np.errstate(all="ignore"):
        res = np.abs(npoly.polyval(roots, c)) / np.sum(
            np.abs(c) * np.maximum(1.0, modulus)[:, None] ** powers, axis=1)
        big = ~np.isfinite(res) & (modulus > 1.0)
        rev = c[::-1]
        res[big] = (np.abs(npoly.polyval(1.0 / roots[big], rev))
                    / np.sum(np.abs(rev) * (1.0 / modulus[big])[:, None]
                             ** powers, axis=1))
    return res


def test_sparse_scale_is_the_dense_table_bit_for_bit():
    # P(w) = 1e-300 * w**300 + 1 stays finite at |w| = 20, where 20**k
    # overflows from k = 237 on: the dense table's 0 * inf makes the scale
    # NaN and sends the row to the reversed evaluation, and so must the
    # sparse one; mu = 1/60 has a root near 810
    tiny = np.zeros(301)
    tiny[[0, 300]] = 1.0, 1e-300
    large, _ = loop_sector_test(ref_loop(mu=1 / 60))
    roots = np.r_[20.0, 20j, -1.5 + 0.5j, 0.3, 810.0, 1e10j]
    for c in (tiny, large.coeffs):
        np.testing.assert_array_equal(
            stability._normalized_residuals(c, roots),
            _dense_residuals(c, roots))


@pytest.mark.parametrize("mu", [0.6, 0.8, 0.73])
def test_broadcast_residuals_match_the_per_root_loop(mu):
    poly, _ = loop_sector_test(ref_loop(mu=mu))
    roots = np.roots(poly.coeffs[::-1])
    np.testing.assert_array_equal(
        stability._normalized_residuals(poly.coeffs, roots),
        _loop_residuals(poly.coeffs, roots))


@pytest.mark.parametrize("mu", [0.8, 0.73])
def test_sector_test_takes_its_roots_from_poly_roots(monkeypatch, mu):
    # the public root solve is the one that runs, once per sector test
    calls = []
    solve = stability.poly_roots

    def counted(poly):
        calls.append(solve(poly))
        return calls[-1]

    monkeypatch.setattr(stability, "poly_roots", counted)
    _, report = loop_sector_test(ref_loop(mu=mu))
    assert len(calls) == 1
    assert report.roots is calls[0][0]
    assert report.residuals is calls[0][1]


@pytest.mark.parametrize("mu, degree", [(0.8, 14), (0.73, 273)])
def test_report_carries_its_own_roots_residuals(mu, degree):
    poly, report = loop_sector_test(ref_loop(mu=mu))
    assert poly.degree == degree
    roots, residuals = poly_roots(poly)
    np.testing.assert_array_equal(report.roots, roots)
    np.testing.assert_array_equal(report.residuals, residuals)
    assert np.array_equal(
        report.residuals,
        stability._normalized_residuals(poly.coeffs, report.roots))


@pytest.mark.parametrize("mu", [0.37, 0.51, 0.73, 0.87])
@pytest.mark.parametrize("K, b_o, omega_o", [(150.0, 1.0, 400.0),
                                             (1e4, 0.5, 100.0),
                                             (10.0, 2.0, 3000.0),
                                             (150.0, -1.0, 400.0)])
def test_aberth_roots_match_the_eigenvalues(monkeypatch, mu, K, b_o,
                                            omega_o):
    poly, report = loop_sector_test(
        ref_loop(K=K, omega_o=omega_o, mu=mu, b_o=b_o))
    assert poly.degree >= stability.ABERTH_MIN_DEGREE
    assert stability._aberth_roots(poly.coeffs) is not None
    (roots, _), eig = poly_roots(poly), np.roots(poly.coeffs[::-1])
    # root for root: each eigenvalue's nearest root, a different one each
    gap = np.abs(eig[:, None] - roots[None, :])
    nearest = gap.argmin(axis=1)
    assert np.unique(nearest).size == roots.size
    assert np.all(gap.min(axis=1) <= 1e-10 * np.maximum(1.0, np.abs(eig)))
    _eig_only(monkeypatch)
    eig_report = sector_test(poly)
    assert report.stable == eig_report.stable
    assert report.margin == pytest.approx(eig_report.margin, abs=1e-12)


@pytest.mark.parametrize("mu", [0.37, 0.51, 0.73, 0.87])
@pytest.mark.parametrize("K, b_o, omega_o", [(150.0, 1.0, 400.0),
                                             (1e4, 0.5, 100.0),
                                             (10.0, 2.0, 3000.0),
                                             (150.0, -1.0, 400.0)])
def test_aberth_roots_take_the_sparse_newton_polish(mu, K, b_o, omega_o):
    poly, report = loop_sector_test(
        ref_loop(K=K, omega_o=omega_o, mu=mu, b_o=b_o))
    c, k = poly.coeffs, np.arange(poly.coeffs.size)
    z = stability._aberth_roots(c)
    assert z is not None
    # P and P' from the five nonzero terms are the dense ones, to within
    # 1e-12 of the sum of the moduli of their terms
    value, slope = stability._sparse_horner(c, z)
    dense_value = npoly.polyval(z, c)
    dense_slope = npoly.polyval(z, npoly.polyder(c))
    modulus = np.abs(z)[:, None]
    assert np.all(np.abs(value - dense_value)
                  <= 1e-12 * np.sum(np.abs(c) * modulus ** k, axis=1))
    assert np.all(np.abs(slope - dense_slope)
                  <= 1e-12 * np.sum(k[1:] * np.abs(c[1:])
                                    * modulus ** (k[1:] - 1), axis=1))
    # the polish is as good as one dense Newton step from the same roots
    dense = stability._normalized_residuals(c, z - dense_value / dense_slope)
    assert report.residuals.max() <= 2.0 * dense.max()


def test_double_root_falls_back_to_the_eigenvalues(monkeypatch):
    # (w - 2)**2 * (w**40 + 1): the double root never meets the step test
    c = npoly.polymul(npoly.polyfromroots([2.0, 2.0]),
                      np.r_[1.0, np.zeros(39), 1.0])
    poly = CharPoly(coeffs=c, p=0, q_den=1)
    assert poly.degree == 42 >= stability.ABERTH_MIN_DEGREE
    assert stability._aberth_roots(c) is None
    roots, residuals = poly_roots(poly)
    _eig_only(monkeypatch)
    eig_roots, eig_residuals = poly_roots(poly)
    np.testing.assert_array_equal(roots, eig_roots)
    np.testing.assert_array_equal(residuals, eig_residuals)


def test_inclusion_disks_reject_a_repeated_approximation():
    poly, _ = loop_sector_test(ref_loop(mu=0.73))
    roots, _ = poly_roots(poly)
    assert stability._disks_disjoint(poly.coeffs, roots)
    twice = roots.copy()
    twice[1] = twice[0]  # one root found twice, its neighbour not at all
    assert not stability._disks_disjoint(poly.coeffs, twice)


def test_nan_residual_fails_the_root_check(monkeypatch):
    # a NaN must fail the check, not pass it as NaN > tol == False
    residuals = stability._normalized_residuals

    def one_nan(c, roots):
        res = residuals(c, roots)
        res[0] = np.nan
        return res

    monkeypatch.setattr(stability, "_normalized_residuals", one_nan)
    with pytest.raises(ArithmeticError, match="degree-14"):
        poly_roots(ref_poly())


def test_huge_gain_fails_the_root_check_at_degree_14():
    # np.roots puts nine of the fourteen roots at exactly 0, with residual
    # 0.995; the other five once overflowed to NaN residuals that hid them
    with pytest.raises(ArithmeticError, match="residual 9.950e-01"):
        loop_sector_test(ref_loop(K=1e200))


def test_huge_gain_solves_on_the_scaled_aberth_path():
    # the nonzero terms are evaluated scaled, so K = 1e200 does not
    # overflow at degree 273 and agrees with K = 1e9
    _, huge = loop_sector_test(ref_loop(K=1e200, mu=0.73))
    _, large = loop_sector_test(ref_loop(K=1e9, mu=0.73))
    assert huge.stable and large.stable
    assert huge.margin == pytest.approx(large.margin, abs=1e-9)


@pytest.mark.parametrize("mu", [1 / 60, 1 / 100])
def test_residuals_of_large_roots_are_verified(mu):
    # a root near 810 at degree 2q + 1 makes |w|**k overflow; its residual
    # is then evaluated as P(w) / w**n, and must still be checked
    _, report = loop_sector_test(ref_loop(mu=mu))
    assert np.all(np.isfinite(report.residuals))
    assert np.max(report.residuals) <= 1e-8
