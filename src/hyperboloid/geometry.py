"""Minkowski R^{1,2} linear algebra and the hyperboloid chart.

The surface is the z > 0 sheet of x^2 + y^2 - z^2 = -a^2 with metric
diag(1, 1, -1) on the ambient space and induced metric
a^2 dtheta^2 + a^2 sinh^2(theta) dphi^2 in the chart
x = a cos(phi) sinh(theta), y = a sin(phi) sinh(theta), z = a cosh(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# The index conventions of the whole package (Henneaux & Teitelboim,
# Quantization of Gauge Systems, ch. 1-2); index i in 1..3 is slot i-1.
# eta = diag(1, 1, -1), its own inverse
METRIC = np.array([1.0, 1.0, -1.0])

# epsilon_{ijk} with lower indices and epsilon_{123} = +1, so that
# epsilon_{ijk} u^j v^k = (u x v)_i; raising all three indices with eta
# gives epsilon^{ijk} = -epsilon_{ijk}
EPS = np.array([[[(i - j) * (j - k) * (k - i) // 2 for k in range(3)]
                 for j in range(3)] for i in range(3)])

# grid.apply_j(i) is J_SIGN times the quantized J^i = -epsilon^{ijk} x_j p_k
# of the Dirac table, whose J^3 = -i hbar d/dphi
J_SIGN = -1


class ChartError(Exception):
    pass


def inner(u, v):
    """Minkowski inner product u^i v_i with metric diag(1,1,-1)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def lower(v):
    """Lower an index: v_i = g_ij v^j.  Preserves the input dtype."""
    v = np.asarray(v)
    return v * _metric_as(v.dtype)


@cache
def _metric_as(dtype) -> np.ndarray:
    metric = METRIC.astype(dtype)
    metric.flags.writeable = False  # one copy per dtype, shared by every call
    return metric


@dataclass(frozen=True)
class ChartPoint:
    theta: float
    phi: float

    def __post_init__(self):
        if self.theta < 0:
            raise ChartError(f"theta must be >= 0, got {self.theta}")


def embed(p: ChartPoint, a: float) -> np.ndarray:
    """Ambient coordinates of a chart point; z-component >= a."""
    if a <= 0:
        raise ChartError(f"a must be positive, got {a}")
    sh, ch = math.sinh(p.theta), math.cosh(p.theta)
    return np.array([a * math.cos(p.phi) * sh, a * math.sin(p.phi) * sh, a * ch])


def chart_inverse(v, a: float, tol: float = 1e-9) -> ChartPoint:
    """Invert the chart; phi is 0 at the apex by convention."""
    v = np.asarray(v, dtype=float)
    if a <= 0:
        raise ChartError(f"a must be positive, got {a}")
    if v[2] < 0:
        raise ChartError("point is on the z < 0 sheet")
    residual = inner(v, v) + a * a
    if abs(residual) > tol * a * a:
        raise ChartError(f"point off the hyperboloid: |x.x + a^2| = {abs(residual):.3e}")
    theta = math.acosh(max(v[2] / a, 1.0))
    rho = math.hypot(v[0], v[1])
    phi = math.atan2(v[1], v[0]) % (2 * math.pi) if rho > 0 else 0.0
    return ChartPoint(theta, phi)


def induced_metric(theta: float, a: float) -> np.ndarray:
    """Matrix of the induced metric in (theta, phi) coordinates."""
    return np.diag([a * a, a * a * math.sinh(theta) ** 2])


def christoffel(p: ChartPoint) -> np.ndarray:
    """Gamma[i, j, k] = Gamma^i_{jk}, coordinate order (theta, phi).

    Nonzero components: Gamma^theta_{phi phi} = -sinh cosh and
    Gamma^phi_{theta phi} = coth; independent of a.
    """
    if p.theta <= 0:
        raise ChartError("chart singularity at theta = 0")
    g = np.zeros((2, 2, 2))
    sh, ch = math.sinh(p.theta), math.cosh(p.theta)
    g[0, 1, 1] = -sh * ch
    g[1, 0, 1] = g[1, 1, 0] = ch / sh
    return g


def killing_fields(p: ChartPoint) -> np.ndarray:
    """Rows K_(1), K_(2), K_(3) in (d/dtheta, d/dphi) components."""
    if p.theta <= 0:
        raise ChartError("K_(1), K_(2) are singular at theta = 0")
    coth = math.cosh(p.theta) / math.sinh(p.theta)
    s, c = math.sin(p.phi), math.cos(p.phi)
    return np.array([[s, c * coth], [-c, s * coth], [0.0, 1.0]])


def chart_jacobian(p: ChartPoint, a: float) -> np.ndarray:
    """Columns d(embed)/dtheta and d(embed)/dphi."""
    sh, ch = math.sinh(p.theta), math.cosh(p.theta)
    s, c = math.sin(p.phi), math.cos(p.phi)
    return np.array([
        [a * c * ch, -a * s * sh],
        [a * s * ch, a * c * sh],
        [a * sh, 0.0],
    ])


def killing_pushforward(p: ChartPoint, a: float) -> np.ndarray:
    """Rows: ambient components of each Killing field at embed(p)."""
    return killing_fields(p) @ chart_jacobian(p, a).T


def ambient_killing(i: int, v) -> np.ndarray:
    """The coefficients of d/dx^l in {x^l, J^i} = epsilon_{ikl} x_k at v.

    This is the ambient rotation/boost generator, the pushforward of the
    chart Killing field K_(i).
    """
    return lower(np.asarray(v, dtype=float)) @ EPS[i - 1]


def scalar_curvature(a: float, theta: float = 1.0, h: float = 1e-4) -> float:
    """Ricci scalar of the induced metric, by finite differences.

    Computed as twice the Gaussian curvature of the orthogonal metric
    diag(E, G) via K = -(1/(2 sqrt(EG))) d/dtheta (G_theta / sqrt(EG));
    the metric depends on theta only.  Constant over the surface.
    """
    if a <= 0:
        raise ChartError(f"a must be positive, got {a}")

    def sqrt_eg(t):
        g = induced_metric(t, a)
        return math.sqrt(g[0, 0] * g[1, 1])

    def g_phiphi(t):
        return induced_metric(t, a)[1, 1]

    def dG(t):
        return (g_phiphi(t + h) - g_phiphi(t - h)) / (2 * h)

    def inner_term(t):
        return dG(t) / sqrt_eg(t)

    k_gauss = -(inner_term(theta + h) - inner_term(theta - h)) / (2 * h) / (
        2 * sqrt_eg(theta)
    )
    return 2 * k_gauss
