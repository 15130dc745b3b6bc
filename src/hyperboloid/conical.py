"""Conical (Mehler) functions and the complex-argument Gamma function.

P^n_{i*lam - 1/2}(cosh theta) for integer order n, evaluated by a
Mehler-Dirichlet integral at n = 0, a Laplace-type integral at n = 1,
and an order-raising recurrence above; plus the Lanczos approximation
for Gamma at complex argument, needed by the normalization factor of
the energy eigenfunctions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from functools import lru_cache
from scipy.integrate import quad

N_MAX_DEFAULT = 12


class ConicalError(Exception):
    pass


# -- complex Gamma (Lanczos, g = 7, 9 coefficients) --------------------

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z: complex) -> complex:
    """Gamma(z) for complex z via the Lanczos approximation.

    Reflection formula for Re z < 0.5; relative accuracy ~1e-13 over
    the strip needed here (|Gamma(1/2 + i*lam)|^2 = pi/cosh(pi*lam) is
    the validation identity).
    """
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1 - z))
    z -= 1
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


# -- order 0: Mehler-Dirichlet integral --------------------------------


def _md_integrand(u, lam, theta):
    # substitution t = theta - u^2 removes the endpoint singularity
    t = theta - u * u
    g = 2 * np.cosh(theta) - 2 * np.cosh(t)
    # near u = 0, g ~ 2 sinh(theta) u^2; guard the removable 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2 * u * np.cos(lam * t) / np.sqrt(g)
    return np.where(u == 0.0, 2 / np.sqrt(2 * np.sinh(theta)) if theta > 0 else 0.0, val)


def conical_p0(lam: float, theta: float) -> float:
    """P_{i*lam - 1/2}(cosh theta), real for real lam and theta >= 0.

    Mehler-Dirichlet integral with a singularity-removing substitution,
    evaluated by fixed-order Gauss-Legendre; hypergeometric series for
    small theta.
    """
    if theta < 0:
        raise ConicalError(f"theta must be >= 0, got {theta}")
    if theta < 1.2:
        return _conical_p0_series(lam, theta)
    n = max(120, int(40 + 24 * abs(lam) * theta))
    nodes, weights = _leggauss(n)
    b = math.sqrt(theta)
    u = 0.5 * b * (nodes + 1.0)
    vals = _md_integrand(u, lam, theta)
    return float(2 / math.pi * 0.5 * b * np.dot(weights, vals))


def _conical_p0_series(lam: float, theta: float) -> float:
    # P = sum_k prod_{j<k} ((j+1/2)^2 + lam^2) / (k!)^2 * w^k,
    # w = (1 - cosh theta)/2; rapidly convergent for small theta
    w = (1.0 - math.cosh(theta)) / 2.0
    total, term = 1.0, 1.0
    for k in range(1, 60):
        term *= ((k - 0.5) ** 2 + lam * lam) * w / (k * k)
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1.0):
            break
    return total


def _conical_pn_series(lam: float, n: int, theta: float) -> float:
    # P^n = (-1)^n prod_{j<=n}(lam^2+(j-1/2)^2) * tanh(theta/2)^n / n!
    #       * 2F1(nu+1, -nu; 1+n; w),  w = (1 - cosh theta)/2,
    # with real positive coefficient ratios (lam^2+(k-1/2)^2)/(k(n+k));
    # the order-raising recurrence cancels catastrophically where P^n
    # decays like sinh^n, so small theta must be evaluated directly
    w = (1.0 - math.cosh(theta)) / 2.0
    pre = math.tanh(theta / 2.0) ** n
    for j in range(1, n + 1):
        pre *= -(lam * lam + (j - 0.5) ** 2) / j
    total, term = 1.0, 1.0
    for k in range(1, 200):
        term *= (lam * lam + (k - 0.5) ** 2) * w / (k * (n + k))
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1.0):
            break
    return pre * total


def _leggauss(n: int):
    # node tables are expensive to build; quantize the order before the
    # cache lookup so sweeps over theta reuse a handful of tables
    return _leggauss_table(32 * ((n + 31) // 32))


@lru_cache(maxsize=32)
def _leggauss_table(n: int):
    return np.polynomial.legendre.leggauss(n)


def conical_p0_oracle(lam: float, theta: float) -> float:
    """Independent check value: adaptive quadrature of the same integral."""
    if theta == 0:
        return 1.0
    val, _ = quad(
        _md_integrand, 0.0, math.sqrt(theta), args=(lam, theta),
        epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    return 2 / math.pi * val


# -- general integer order ---------------------------------------------


def _laplace_integral(lam: float, n: int, theta: float, fixed_order: int | None = None):
    """Laplace-type representation for order n >= 0.

    P^n_nu(x) = Gamma(nu+n+1)/Gamma(nu+1) * (1/pi) *
    int_0^pi (x + sqrt(x^2-1) cos t)^nu cos(n t) dt with nu = i*lam - 1/2;
    the integrand is smooth (the base stays >= e^{-theta} > 0).
    """
    x = math.cosh(theta)
    s = math.sinh(theta)
    nu = complex(-0.5, lam)

    def base(t):
        return x + s * np.cos(t)

    if fixed_order is not None:
        nodes, weights = _leggauss(fixed_order)
        t = 0.5 * math.pi * (nodes + 1.0)
        f = np.exp(nu * np.log(base(t))) * np.cos(n * t)
        integral = 0.5 * math.pi * complex(np.dot(weights, f.real), np.dot(weights, f.imag))
    else:
        re, _ = quad(lambda t: (base(t) ** nu * math.cos(n * t)).real, 0, math.pi,
                     epsabs=1e-13, epsrel=1e-13, limit=400)
        im, _ = quad(lambda t: (base(t) ** nu * math.cos(n * t)).imag, 0, math.pi,
                     epsabs=1e-13, epsrel=1e-13, limit=400)
        integral = complex(re, im)
    ratio = complex_gamma(nu + n + 1) / complex_gamma(nu + 1)
    return (ratio * integral / math.pi).real


def _negative_order_factor(lam: float, n: int) -> float:
    """P^{-n} = factor * P^{n}: (-1)^n / prod_{j=1..n} (lam^2 + (j-1/2)^2)."""
    f = 1.0
    for j in range(1, n + 1):
        f *= -(lam * lam + (j - 0.5) ** 2)
    return 1.0 / f


def conical_pn(lam: float, n: int, theta: float, n_max: int = N_MAX_DEFAULT) -> float:
    """P^n_{i*lam - 1/2}(cosh theta) for integer n, |n| <= n_max.

    Hypergeometric series at small theta (the order-raising recurrence
    cancels catastrophically there: P^n decays like sinh^n while the
    recurrence terms do not); elsewhere the recurrence, signs validated
    against the quadrature oracle, seeded from n = 0 and n = 1.
    Negative orders use the standard proportionality to positive orders.
    """
    if abs(n) > n_max:
        raise ConicalError(f"|n| = {abs(n)} exceeds n_max = {n_max}")
    if n == 0:
        return conical_p0(lam, theta)
    if theta <= 0:
        raise ConicalError("theta must be > 0 for nonzero order")
    if n < 0:
        return _negative_order_factor(lam, -n) * conical_pn(lam, -n, theta, n_max)
    if theta < 1.2:
        return _conical_pn_series(lam, n, theta)
    x = math.cosh(theta)
    rs = x / math.sinh(theta)  # x / sqrt(x^2 - 1)
    p_prev = conical_p0(lam, theta)
    p1 = _laplace_integral(lam, 1, theta, fixed_order=_seed_order(lam, theta))
    if n == 1:
        return p1
    p_cur = p1
    for mu in range(1, n):
        # P^{mu+1} = -2 mu x/sqrt(x^2-1) P^mu + (nu+mu)(nu-mu+1) P^{mu-1}
        # with (nu+mu)(nu-mu+1) = -(lam^2 + (mu-1/2)^2), real
        p_next = -2 * mu * rs * p_cur - (lam * lam + (mu - 0.5) ** 2) * p_prev
        p_prev, p_cur = p_cur, p_next
    return p_cur


def _seed_order(lam: float, theta: float) -> int:
    return max(100, int(60 + 16 * abs(lam) + 10 * theta))


def conical_pn_oracle(lam: float, n: int, theta: float) -> float:
    """Adaptive-quadrature oracle for any order (independent of the recurrence)."""
    if n < 0:
        return _negative_order_factor(lam, -n) * conical_pn_oracle(lam, -n, theta)
    if n == 0:
        return conical_p0_oracle(lam, theta)
    return _laplace_integral(lam, n, theta, fixed_order=None)


# -- normalization of the energy eigenfunctions ------------------------


def normalization(lam: float, n: int) -> complex:
    """N^n_lam = sqrt(2 pi / (lam tanh(pi lam))) * G(i lam + 1/2) / G(i lam + n + 1/2).

    Diverges at lam = 0 (continuum-normalization edge).
    """
    if lam <= 0:
        raise ConicalError("normalization requires lam > 0")
    prefactor = math.sqrt(2 * math.pi / (lam * math.tanh(math.pi * lam)))
    ratio = complex_gamma(complex(0.5, lam)) / complex_gamma(complex(0.5 + n, lam))
    return prefactor * ratio


def energy(lam: float, m: float = 1.0, a: float = 1.0, hbar: float = 1.0) -> float:
    """E_lam = hbar^2/(2 m a^2) (lam^2 + 1/4)."""
    if lam < 0:
        raise ConicalError("lam must be >= 0")
    return hbar * hbar / (2 * m * a * a) * (lam * lam + 0.25)
