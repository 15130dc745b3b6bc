"""Conical functions, complex Gamma, and the spectrum formula."""

import math

import numpy as np
import pytest

from hyperboloid import conical
from hyperboloid.conical import (
    ConicalError, complex_gamma, conical_p0, conical_p0_oracle, conical_pn,
    conical_pn_oracle, energy, normalization, radial_profiles,
)


# -- complex Gamma ------------------------------------------------------


def test_gamma_real_values():
    assert complex_gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert complex_gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_reflection_strip():
    # |Gamma(1/2 + i lam)|^2 = pi / cosh(pi lam)
    for lam in np.linspace(0.0, 20.0, 41):
        val = abs(complex_gamma(complex(0.5, lam))) ** 2
        ref = math.pi / math.cosh(math.pi * lam)
        assert abs(val - ref) / ref < 1e-10


def test_gamma_recurrence_complex():
    for z in (complex(0.5, 3.0), complex(2.3, -1.1), complex(-0.7, 0.4)):
        assert complex_gamma(z + 1) == pytest.approx(z * complex_gamma(z),
                                                     rel=1e-12)


# -- order zero ---------------------------------------------------------


def test_p0_at_zero_is_one():
    for lam in (0.0, 0.5, 1.0, 3.0):
        assert conical_p0(lam, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_p0_matches_oracle():
    worst = 0.0
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0):
        for theta in (0.1, 0.5, 1.0, 1.5, 2.5):
            val = conical_p0(lam, theta)
            ref = conical_p0_oracle(lam, theta)
            worst = max(worst, abs(val - ref) / max(abs(ref), 1e-3))
    assert worst < 1e-10


def test_p0_legendre_ode_residual():
    # (1-x^2) P'' - 2 x P' + nu(nu+1) P = 0 with nu(nu+1) = -(lam^2+1/4)
    h = 2e-3   # balances FD truncation against evaluation noise / h^2
    for lam, theta in ((0.7, 0.8), (2.0, 1.5), (1.0, 2.2)):
        x = math.cosh(theta)

        def p_of_x(xx):
            return conical_p0(lam, math.acosh(xx))

        p = p_of_x(x)
        dp = (p_of_x(x + h) - p_of_x(x - h)) / (2 * h)
        d2p = (p_of_x(x + h) - 2 * p + p_of_x(x - h)) / (h * h)
        res = (1 - x * x) * d2p - 2 * x * dp - (lam * lam + 0.25) * p
        assert abs(res) < 1e-4 * max(abs(p), 1.0)


def test_p0_negative_theta_rejected():
    with pytest.raises(ConicalError):
        conical_p0(1.0, -0.1)


# -- general order ------------------------------------------------------


def test_pn_matches_oracle():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for n in range(6):
            for theta in (0.2, 0.5, 1.0, 2.0):
                val = conical_pn(lam, n, theta)
                ref = conical_pn_oracle(lam, n, theta)
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-6))
    assert worst < 1e-8


def test_pn_order_zero_delegates():
    assert conical_pn(1.3, 0, 0.7) == conical_p0(1.3, 0.7)


def test_negative_order_proportionality():
    # P^{-n} = (-1)^n P^n / prod_{j=1..n}(lam^2 + (j-1/2)^2)
    lam, theta = 1.1, 0.9
    for n in (1, 2, 3):
        denom = 1.0
        for j in range(1, n + 1):
            denom *= lam * lam + (j - 0.5) ** 2
        expected = (-1) ** n * conical_pn(lam, n, theta) / denom
        assert conical_pn(lam, -n, theta) == pytest.approx(expected, rel=1e-12)


def test_pn_errors():
    with pytest.raises(ConicalError):
        conical_pn(1.0, 13, 0.5)       # beyond n_max
    with pytest.raises(ConicalError):
        conical_pn(1.0, 2, 0.0)        # nonzero order needs theta > 0
    with pytest.raises(ConicalError):
        conical_pn(15.0, 1, 3.0)       # 40 + 24 lam theta nodes > GAUSS_ORDER_MAX
    # raising the cap admits higher orders (oracle is unreliable there:
    # the Laplace integral cancels to ~1e-19 of its integrand at n=13)
    assert math.isfinite(conical_pn(1.0, 13, 0.5, n_max=13))


def test_radial_profiles_match_oracle():
    # theta on both sides of the series / quadrature switch at 1.2
    thetas = (0.2, 0.7, 1.1, 1.3, 2.0, 2.5)
    worst = 0.0
    for lam in (0.25, 1.0, 2.2):
        profiles = radial_profiles(lam, 5, thetas)
        assert profiles.shape == (6, len(thetas))
        for n in range(6):
            for theta, val in zip(thetas, profiles[n]):
                ref = conical_pn_oracle(lam, n, theta)
                worst = max(worst, abs(val - ref) / max(abs(ref), 1e-6))
        # row n does not depend on how many orders are computed
        assert np.array_equal(radial_profiles(lam, 2, thetas), profiles[:3])
    assert worst < 1e-8


# -- Gauss-Legendre tables ----------------------------------------------


def _legendre_rows(n, x):
    """P_0 .. P_{n-1} at x by the three-term recurrence, one row per degree."""
    rows = np.empty((n, x.size), dtype=x.dtype)
    rows[0], rows[1] = 1, x
    for j in range(2, n):
        rows[j] = ((2 * j - 1) * x * rows[j - 1] - (j - 1) * rows[j - 2]) / j
    return rows


def test_gauss_rule_integrates_legendre_products():
    # the n-point rule is exact up to degree 2n - 1, so it reproduces the
    # Legendre Gram matrix 2 delta_jk / (2k + 1) for j, k < n
    for n in (32, 33, 224, 1024):
        nodes, weights = conical._leggauss_table(n)
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        rows = _legendre_rows(n, nodes)
        gram = (rows * weights) @ rows.T
        exact = np.diag(2.0 / (2 * np.arange(n) + 1))
        assert np.max(np.abs(gram - exact)) <= 1e-14


def test_gauss_rule_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for n in (32, 224, 1024):
        nodes, weights = conical._leggauss_table(n)
        # both ends, the middle and a stride between them
        for i in sorted({0, 1, n // 2, n - 2, n - 1, *range(0, n, n // 8)}):
            with mpmath.workdps(40):
                # Newton in x on the same recurrence, from the double node
                x = mpmath.mpf(float(nodes[i]))
                for _ in range(4):
                    p_prev, p = mpmath.mpf(1), x
                    for j in range(2, n + 1):
                        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
                    slope = n * (p_prev - x * p) / (1 - x * x)   # P_n'(x)
                    x -= p / slope
                weight = 2 / ((1 - x * x) * slope ** 2)
                assert abs(nodes[i] - x) <= 2e-16
                assert abs(weights[i] / weight - 1) <= 1e-10


# -- normalization ------------------------------------------------------


def test_normalization_ratio_modulus():
    # |N^0 / N^1| = |Gamma(3/2 + i lam) / Gamma(1/2 + i lam)| = sqrt(1/4 + lam^2)
    for lam in (0.5, 1.0, 2.0, 7.0):
        r = abs(normalization(lam, 0)) / abs(normalization(lam, 1))
        assert r == pytest.approx(math.sqrt(0.25 + lam * lam), rel=1e-12)


def test_normalization_finite_at_large_lam():
    # Gamma(1/2 + i lam) underflows at lam = 500; the Pochhammer product does not
    lam = 500.0
    pre = math.sqrt(2 * math.pi / (lam * math.tanh(math.pi * lam)))
    expected = {2: pre / (complex(0.5, lam) * complex(1.5, lam)),
                -2: pre * complex(-0.5, lam) * complex(-1.5, lam)}
    for n, ref in expected.items():
        val = normalization(lam, n)
        assert math.isfinite(val.real) and math.isfinite(val.imag)
        assert abs(val - ref) <= 1e-14 * abs(ref)


def test_normalization_diverges_at_zero():
    with pytest.raises(ConicalError):
        normalization(0.0, 0)
    with pytest.raises(ConicalError):
        normalization(-1.0, 0)


# -- energies -----------------------------------------------------------


def test_energy_formula():
    assert energy(0.0) == pytest.approx(0.125)
    assert energy(1.0) == pytest.approx(0.625)
    assert energy(2.0, m=2.0, a=3.0, hbar=2.0) == pytest.approx(
        4.0 / (2 * 2 * 9) * 4.25)


def test_energy_negative_lam_rejected():
    with pytest.raises(ConicalError):
        energy(-0.5)
