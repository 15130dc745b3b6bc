"""Conical (Mehler) functions and the complex-argument Gamma function.

P^n_{i*lam - 1/2}(cosh theta) for integer order n, evaluated for all
orders up to n_max and all theta in one pass (radial_profiles): a
hypergeometric series at small theta, elsewhere one Mehler-Dirichlet
kernel at n = 0 and n = 1 and an order-raising recurrence above.  The
normalization factor of the energy eigenfunctions is a finite Pochhammer
product; the Lanczos approximation for Gamma at complex argument serves
the adaptive-quadrature oracles.
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


# -- radial profiles: every order at every theta in one pass -----------

SERIES_THETA = 1.2   # hypergeometric series below, quadrature and recurrence above
GAUSS_QUANTUM = 32   # Gauss orders are rounded up to a multiple of this
# Largest Gauss-Legendre table built.  The Mehler-Dirichlet order grows as
# 40 + 24 lam theta, so the quadrature branch resolves lam * theta <~ 41;
# beyond it the (theta x nodes) blocks, and the time and memory they take,
# would grow without bound, so the evaluation raises ConicalError (the CLI
# exits 2) instead.
GAUSS_ORDER_MAX = 1024
_BLOCK = 128         # theta rows per (theta x nodes) block: bounds scratch memory


def radial_profiles(lam: float, n_max: int, thetas) -> np.ndarray:
    """P^n_{i*lam - 1/2}(cosh theta) for n = 0..n_max at every theta.

    Row n of the (n_max + 1, len(thetas)) result is order n.  Below
    SERIES_THETA each order is its own hypergeometric series (the
    order-raising recurrence cancels catastrophically there: P^n decays
    like sinh^n while the recurrence terms do not).  Elsewhere P^0 and
    P^1 come from one Mehler-Dirichlet kernel, fixed-order Gauss-Legendre
    over blocks of (theta x nodes), with node tables built by Newton's
    method on the Legendre recurrence (_leggauss_table), and the
    recurrence raises the order for all theta at once.  Row n does
    not depend on n_max.  Negative orders: see profile_row.
    """
    th = np.asarray(thetas, dtype=float).reshape(-1)
    if not np.all(th >= 0):
        raise ConicalError(f"theta must be >= 0, got {th.min()}")
    if n_max > 0 and np.any(th == 0):
        raise ConicalError("theta must be > 0 for nonzero order")
    out = np.empty((n_max + 1, th.size))
    big = th >= SERIES_THETA
    tb = th[big]
    if tb.size:
        # 40 + 24 lam theta nodes for the oscillatory Mehler-Dirichlet integrand
        order = np.maximum(120, (40 + 24 * abs(lam) * tb).astype(int))
        p_prev, p_minus1 = _gauss_blocks(lam, tb, order)
        out[0, big] = p_prev
        if n_max >= 1:
            p_cur = out[1, big] = -(lam * lam + 0.25) * p_minus1
            rs = np.cosh(tb) / np.sinh(tb)   # x / sqrt(x^2 - 1)
            for mu in range(1, n_max):
                # P^{mu+1} = -2 mu x/sqrt(x^2-1) P^mu + (nu+mu)(nu-mu+1) P^{mu-1}
                # with (nu+mu)(nu-mu+1) = -(lam^2 + (mu-1/2)^2), real
                p_next = -2 * mu * rs * p_cur - (lam * lam + (mu - 0.5) ** 2) * p_prev
                p_prev, p_cur = p_cur, p_next
                out[mu + 1, big] = p_cur
    small = ~big
    for n in range(n_max + 1):
        out[n, small] = _series(lam, n, th[small])
    return out


def profile_row(profiles: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Order n of radial_profiles output, |n| <= n_max.

    Negative orders use P^{-n} = (-1)^n / prod_{j=1..n} (lam^2 + (j-1/2)^2) P^n.
    """
    if n >= 0:
        return profiles[n]
    return _negative_order_factor(lam, -n) * profiles[-n]


def _series(lam: float, n: int, theta: np.ndarray) -> np.ndarray:
    # P^n = (-1)^n prod_{j<=n}(lam^2+(j-1/2)^2) * tanh(theta/2)^n / n!
    #       * 2F1(nu+1, -nu; 1+n; w),  w = (1 - cosh theta)/2,
    # with real positive coefficient ratios (lam^2+(k-1/2)^2)/(k(n+k));
    # each theta stops adding terms once its own term is negligible
    w = (1.0 - np.cosh(theta)) / 2.0
    pre = np.tanh(theta / 2.0) ** n
    for j in range(1, n + 1):
        pre *= -(lam * lam + (j - 0.5) ** 2) / j
    total, term = np.ones_like(w), np.ones_like(w)
    active = np.ones(w.shape, dtype=bool)
    for k in range(1, 200):
        if not active.any():
            break
        term *= (lam * lam + (k - 0.5) ** 2) * w / (k * (n + k))
        total += np.where(active, term, 0.0)
        active &= np.abs(term) >= 1e-17 * np.maximum(np.abs(total), 1.0)
    return pre * total


def _gauss_blocks(lam: float, theta: np.ndarray, orders: np.ndarray):
    """(P^0, P^-1) at every theta by _mehler_dirichlet, grouped by
    quantised Gauss order and cut into blocks of _BLOCK rows."""
    out = np.empty((2, theta.size))
    quantised = _gauss_order(orders)
    for order in np.unique(quantised)[::-1]:   # the largest order is checked first
        nodes, weights = _leggauss(int(order))
        rows = np.flatnonzero(quantised == order)
        for k in range(0, rows.size, _BLOCK):
            block = rows[k:k + _BLOCK]
            out[:, block] = _mehler_dirichlet(lam, theta[block, None], nodes, weights)
    return out


def _mehler_dirichlet(lam, theta, nodes, weights):
    # DLMF 14.12.4 at mu = 0 and 1, from shared nodes, cosines and
    # s = sqrt(2 cosh theta - 2 cosh t): P^0 = (2/pi) int_0^theta cos(lam t) / s dt
    # and P^-1 = (2/pi) / sinh theta * int_0^theta cos(lam t) s dt; t = theta - u^2
    # removes the endpoint singularity, and s^2 = 4 sinh((theta + t)/2) sinh(u^2/2)
    # does not cancel where t nears theta
    b = np.sqrt(theta)
    u = 0.5 * b * (nodes + 1.0)
    t = theta - u * u
    c = 2 * u * np.cos(lam * t)
    s = np.sqrt(4 * np.sinh((theta + t) / 2) * np.sinh(u * u / 2))
    pre = 2 / math.pi * 0.5 * b[:, 0]
    return (pre * (c / s * weights).sum(axis=1),
            pre / np.sinh(theta[:, 0]) * (c * s * weights).sum(axis=1))


def _gauss_order(n):
    return GAUSS_QUANTUM * ((n + GAUSS_QUANTUM - 1) // GAUSS_QUANTUM)


def _leggauss(n: int):
    # node tables are expensive to build; quantize the order before the
    # cache lookup so sweeps over theta reuse a handful of tables
    order = _gauss_order(n)
    if order > GAUSS_ORDER_MAX:
        raise ConicalError(
            f"Gauss-Legendre order {order} exceeds {GAUSS_ORDER_MAX}: "
            f"lambda * theta is beyond the resolvable range")
    return _leggauss_table(order)


@lru_cache(maxsize=32)
def _leggauss_table(n: int):
    """Gauss-Legendre nodes (ascending) and weights of order n, with no
    matrix: Newton's method in the angle on P_n(cos theta) from Tricomi's
    initial guesses (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652),
    for the ceil(n/2) nonnegative nodes, mirrored."""
    theta = math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    # Tricomi's n^-3 and n^-4 corrections, made in x = cos theta
    shrink = 1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)
    theta = np.arccos(shrink * np.cos(theta))
    step = math.inf
    while step > 1e-10:   # at most 3 steps for every order up to GAUSS_ORDER_MAX
        p, slope = _legendre_slope(n, theta)
        delta = p / slope
        theta = theta + delta
        step = np.max(np.abs(delta))
    _, slope = _legendre_slope(n, theta)
    # w = 2 / ((1 - x^2) P_n'(x)^2), with sin^2 theta for 1 - x^2: accurate at the ends
    w = 2 / slope**2
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0   # the middle node
    half = x.size - n % 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


def _legendre_slope(n: int, theta: np.ndarray):
    # P_n(cos theta) and sin(theta) P_n'(cos theta) by the three-term recurrence
    x = np.cos(theta)
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / np.sin(theta)


def _negative_order_factor(lam: float, n: int) -> float:
    """P^{-n} = factor * P^{n}: (-1)^n / prod_{j=1..n} (lam^2 + (j-1/2)^2)."""
    f = 1.0
    for j in range(1, n + 1):
        f *= -(lam * lam + (j - 0.5) ** 2)
    return 1.0 / f


# -- single points ------------------------------------------------------


def conical_p0(lam: float, theta: float) -> float:
    """P_{i*lam - 1/2}(cosh theta), real for real lam and theta >= 0."""
    return float(radial_profiles(lam, 0, [theta])[0, 0])


def conical_pn(lam: float, n: int, theta: float, n_max: int = N_MAX_DEFAULT) -> float:
    """P^n_{i*lam - 1/2}(cosh theta) for integer n, |n| <= n_max.

    One point of radial_profiles; negative orders use the standard
    proportionality to positive orders.
    """
    if abs(n) > n_max:
        raise ConicalError(f"|n| = {abs(n)} exceeds n_max = {n_max}")
    return float(profile_row(radial_profiles(lam, abs(n), [theta]), lam, n)[0])


# -- oracles: adaptive quadrature, independent of radial_profiles --------


def _md_integrand(u, lam, theta):
    # t = theta - u^2 removes the endpoint singularity; g = 2 cosh theta - 2 cosh t
    t = theta - u * u
    g = 4 * np.sinh((theta + t) / 2) * np.sinh(u * u / 2)
    # near u = 0, g ~ 2 sinh(theta) u^2; guard the removable 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2 * u * np.cos(lam * t) / np.sqrt(g)
    return np.where(u == 0.0, 2 / np.sqrt(2 * np.sinh(theta)) if theta > 0 else 0.0, val)


def conical_p0_oracle(lam: float, theta: float) -> float:
    """Independent check value: adaptive quadrature of the same integral."""
    if theta == 0:
        return 1.0
    val, _ = quad(
        _md_integrand, 0.0, math.sqrt(theta), args=(lam, theta),
        epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    return 2 / math.pi * val


def conical_pn_oracle(lam: float, n: int, theta: float) -> float:
    """Adaptive-quadrature oracle for any order (independent of the recurrence).

    Laplace-type representation for order n >= 0:
    P^n_nu(x) = Gamma(nu+n+1)/Gamma(nu+1) * (1/pi) *
    int_0^pi (x + sqrt(x^2-1) cos t)^nu cos(n t) dt with nu = i*lam - 1/2.
    """
    if n < 0:
        return _negative_order_factor(lam, -n) * conical_pn_oracle(lam, -n, theta)
    if n == 0:
        return conical_p0_oracle(lam, theta)
    x = math.cosh(theta)
    s = math.sinh(theta)
    nu = complex(-0.5, lam)

    def base(t):
        return x + s * np.cos(t)

    re, _ = quad(lambda t: (base(t) ** nu * math.cos(n * t)).real, 0, math.pi,
                 epsabs=1e-13, epsrel=1e-13, limit=400)
    im, _ = quad(lambda t: (base(t) ** nu * math.cos(n * t)).imag, 0, math.pi,
                 epsabs=1e-13, epsrel=1e-13, limit=400)
    ratio = complex_gamma(nu + n + 1) / complex_gamma(nu + 1)
    return (ratio * complex(re, im) / math.pi).real


# -- normalization of the energy eigenfunctions ------------------------


def normalization(lam: float, n: int) -> complex:
    """N^n_lam = sqrt(2 pi / (lam tanh(pi lam))) * G(i lam + 1/2) / G(i lam + n + 1/2).

    Diverges at lam = 0 (continuum-normalization edge).
    """
    if lam <= 0:
        raise ConicalError("normalization requires lam > 0")
    prefactor = math.sqrt(2 * math.pi / (lam * math.tanh(math.pi * lam)))
    # the Gamma ratio is a finite Pochhammer product, 1 / prod_{j<n} (1/2+j+i lam)
    # or prod_{j=1..|n|} (1/2-j+i lam); unlike the Lanczos Gamma values it
    # does not underflow at large lam
    ratio = 1.0 + 0.0j
    for j in range(n):
        ratio /= complex(0.5 + j, lam)
    for j in range(1, 1 - n):
        ratio *= complex(0.5 - j, lam)
    return prefactor * ratio


def energy(lam: float, m: float = 1.0, a: float = 1.0, hbar: float = 1.0) -> float:
    """E_lam = hbar^2/(2 m a^2) (lam^2 + 1/4)."""
    if lam < 0:
        raise ConicalError("lam must be >= 0")
    return hbar * hbar / (2 * m * a * a) * (lam * lam + 0.25)
