"""Seeded inputs of the four workloads.

Operation k of a run with seed s always receives the same inputs: every
generator below draws from ``numpy.random.default_rng([s, k])``.  The
program only ever sees the generated CLI arguments or ``RunConfig``
seeds, never the benchmark seed itself.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# CLI defaults the referees rely on; the workloads never override them.
A = 1.0
M = 1.0
HBAR = 1.0
T = 10.0
DT = 1e-3
THETA_MIN, THETA_MAX, GRID_H = 0.1, 3.0, 1e-3
TOL_EIGEN = 1e-4

WORKLOADS = ("derive", "spectrum", "simulate", "verify-warm")
MIN_OPS = 3   # untraced operations per run, at least


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, k])


def derive_argv(out: str) -> list:
    return ["derive", "--format", "json", "--out", out]


def derive_points(seed: int, k: int, count: int = 4) -> list:
    """On-shell phase-space points at which the derive referee evaluates
    the printed brackets: x.x = -a^2, x^i p_i = 0, lam at its on-shell
    value -p.p/(2 m a^2), p_lam = 0."""
    rng = _rng(seed, k)
    points = []
    for _ in range(count):
        a, m = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
        x, y, px, py = (float(v) for v in rng.normal(size=4))
        z = math.sqrt(x * x + y * y + a * a)
        pz = -(x * px + y * py) / z
        lam = -(px * px + py * py - pz * pz) / (2 * m * a * a)
        points.append({"a": a, "m": m, "x": x, "y": y, "z": z, "p_x": px,
                       "p_y": py, "p_z": pz, "lam": lam, "p_lam": 0.0})
    return points


def spectrum_inputs(seed: int, k: int):
    """Three lambda in [0.25, 2.2] and the orders (-i, 0, j) with i, j
    drawn from 1..3, so that every operation spans the series and
    quadrature branches, the recurrence and a negative order.

    lam1 is uniform on [0.25, 1].  The cost of an operation is set by
    the Gauss tables that its large-lambda nodes build, so lam2 and lam3
    are an antithetic pair, 1 + 0.75u and 2.5 - 0.75u with u uniform on
    [0.4, 1]: independent draws over [0.25, 2.5] made that cost vary by
    a quarter between operations, this pair by about 4%."""
    rng = _rng(seed, k)
    w, u = rng.uniform(size=2)
    u = 0.4 + 0.6 * u
    lams = [float(v) for v in (0.25 + 0.75 * w, 1.0 + 0.75 * u, 2.5 - 0.75 * u)]
    ns = [-int(rng.integers(1, 4)), 0, int(rng.integers(1, 4))]
    return lams, ns


def spectrum_argv(lams, ns, out: str) -> list:
    # "--flag=value" form: argparse reads a leading minus as a new flag
    return ["spectrum", "--lam=" + ",".join(repr(v) for v in lams),
            "--n=" + ",".join(str(n) for n in ns), "--out", out]


def simulate_inputs(seed: int, k: int):
    """An on-shell start (x0, lower-index p0) with theta0 <= 1 and
    tangent speed sqrt(u.u) in [0.25, 1]."""
    rng = _rng(seed, k)
    theta = rng.uniform(0.0, 1.0)
    phi, alpha = rng.uniform(0.0, 2 * math.pi, size=2)
    speed = rng.uniform(0.25, 1.0)
    sh, ch = math.sinh(theta), math.cosh(theta)
    x0 = A * np.array([sh * math.cos(phi), sh * math.sin(phi), ch])
    e_theta = np.array([ch * math.cos(phi), ch * math.sin(phi), sh])
    e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
    u = speed * (math.cos(alpha) * e_theta + math.sin(alpha) * e_phi)
    p0 = M * u * np.array([1.0, 1.0, -1.0])
    return x0, p0


def simulate_argv(x0, p0, out: str) -> list:
    def triple(v):
        return ",".join(repr(float(c)) for c in v)
    return ["simulate", "--T", repr(T), "--x0=" + triple(x0),
            "--p0=" + triple(p0), "--out", out]


def verify_seed(seed: int, k: int) -> int:
    return int(_rng(seed, k).integers(0, 2 ** 31))


def keep_going(walls: list, seconds: float, min_ops: int) -> bool:
    """Closed-loop stop rule: start another operation while it is
    predicted to end within the run's measuring time."""
    if len(walls) < min_ops:
        return True
    return sum(walls) + statistics.median(walls) <= seconds
