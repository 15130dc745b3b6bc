"""Classical geodesic motion on the hyperboloid.

Two pictures: the embedded one, integrating xdot = p/m and
pdot = (p.p / (m a^2)) x with optional projection back onto the
constraint surface, and the intrinsic one, integrating the geodesic
equations in the (theta, phi) chart.  A closed-form geodesic provides an
exact oracle for both.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from os import PathLike

import numpy as np

from . import geometry
from .geometry import ChartPoint, inner


class SimulationError(Exception):
    pass


@dataclass
class EmbeddedState:
    x: np.ndarray
    p: np.ndarray
    t: float = 0.0


@dataclass
class IntrinsicState:
    theta: float
    phi: float
    theta_dot: float
    phi_dot: float
    t: float = 0.0


@dataclass
class TrajectoryRecord:
    """Sampled trajectory with per-sample diagnostics."""

    t: np.ndarray
    x: np.ndarray            # (N, 3) ambient positions
    p: np.ndarray            # (N, 3) ambient momenta
    theta: np.ndarray
    phi: np.ndarray
    H: np.ndarray
    J: np.ndarray            # (N, 3)
    c2_residual: np.ndarray
    c3_residual: np.ndarray
    drift_warning: bool = False
    chart_exit: bool = False

    CSV_COLUMNS = (
        "t", "x", "y", "z", "p_x", "p_y", "p_z", "theta", "phi",
        "H", "J1", "J2", "J3", "C2_residual", "C3_residual",
    )

    def drift(self, a: float) -> dict:
        """Worst constraint residual (x.x + a^2 relative to a^2) and the
        largest H and J drifts relative to the first sample."""
        h0, j0 = self.H[0], self.J[0]
        h_span = float(np.max(np.abs(self.H - h0)))
        j_span = float(np.max(np.abs(self.J - j0)))
        return {
            "max_constraint_residual": max(
                float(np.max(self.c2_residual)) / (a * a),
                float(np.max(self.c3_residual))),
            "max_H_drift": float(h_span / abs(h0)) if h0 else 0.0,
            "max_J_drift": j_span / max(float(np.max(np.abs(j0))), 1e-30),
        }

    def write_csv(self, out):
        """Write the samples to a path or an open text stream, row by row."""
        table = np.column_stack([
            np.asarray(c, dtype=float) for c in (
                self.t, self.x, self.p, self.theta, self.phi, self.H, self.J,
                self.c2_residual, self.c3_residual)])
        to_path = isinstance(out, (str, PathLike))
        with open(out, "w") if to_path else nullcontext(out) as fh:
            fh.write(",".join(self.CSV_COLUMNS) + "\n")
            for row in table:
                fh.write(",".join(map(repr, row.tolist())) + "\n")


def hamiltonian(p, m: float):
    """H = (p_x^2 + p_y^2 - p_z^2) / 2m with lower-index momenta.

    p may be one state or a stack of them along the leading axes.
    """
    return inner(p, p) / (2 * m)


def angular_momenta(x, p) -> np.ndarray:
    """J^i = -eps^{ijk} x_j p_k = (x_lower cross p)_i, lower-index p."""
    return np.cross(geometry.lower(x), p)


def hamiltonian_from_j(j, m: float, a: float) -> float:
    """H = J^i J_i / (2 m a^2)."""
    return inner(j, j) / (2 * m * a * a)


def eom_embedded(y, m: float, a: float, psq=None) -> np.ndarray:
    """d/dt of the state y = (x, p): xdot = p^i/m, pdot = (p.p/(m a^2)) x.

    p is stored with lower indices, so p^i = g^{ij} p_j flips the z
    component; the force is parallel to x (pure constraint force).
    psq, if given, replaces p.p evaluated from the state: p.p is
    conserved, and evaluating it from components that grow like cosh(t)
    cancels catastrophically.
    """
    y = np.asarray(y)
    return _embedded_rhs(m, a, psq, y.dtype)(y)


def _embedded_rhs(m: float, a: float, psq, dtype):
    """eom_embedded as y -> y[swap] / (m, m, m, 1, 1, 1) * (g, c g), built once.

    g = METRIC; c = p.p / (m a^2) is fixed by psq, or with psq None taken
    from each state.  Lowering is an exact sign flip (and also raises), so
    this is (lower(p) / m, c lower(x)) bit for bit.
    """
    swap = np.array([3, 4, 5, 0, 1, 2])  # (x, p) -> (p, x)
    div = np.array([m, m, m, 1, 1, 1], dtype=np.result_type(dtype, m))

    def scale(pp):
        c = pp / (m * a * a)
        return np.concatenate((geometry.METRIC, c * geometry.METRIC)).astype(
            np.result_type(dtype, c))

    if psq is None:  # inner() lowers one slot: p^i p_i
        return lambda y: y[swap] / div * scale(inner(y[3:], y[3:]))
    fixed = scale(psq)
    return lambda y: y[swap] / div * fixed


def project_embedded(x, p, a: float, noise_guard: bool = False):
    """Rescale x onto the surface and remove the normal component of p.

    With noise_guard, a correction is skipped when the measured
    violation is below the rounding floor of the cancelling dot product;
    correcting below that floor only injects noise (the components grow
    like cosh(t), so the floor rises along a trajectory).
    """
    eps = float(np.finfo(np.asarray(x).dtype).eps)
    xx = inner(x, x)
    if not noise_guard or abs(xx + a * a) > 64 * eps * float(np.dot(np.abs(x), np.abs(x))):
        x = x * a / np.sqrt(-xx)
    # x^i p_i is a plain dot since p carries lower indices
    c3 = np.dot(x, p)
    if not noise_guard or abs(c3) > 64 * eps * float(np.dot(np.abs(x), np.abs(p))):
        p = p - (c3 / inner(x, x)) * geometry.lower(x)
    return x, p


def _rk4_step(rhs, y, dt):
    """One classical RK4 step of ydot = rhs(y) on a flat state vector."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    # k + k is 2 k exactly, and cheaper
    return y + dt / 6 * (k1 + (k2 + k2) + (k3 + k3) + k4)


def integrate_embedded(
    s0: EmbeddedState,
    m: float,
    a: float,
    dt: float,
    T: float,
    projection: bool = True,
    tol_c: float | None = None,
    sample_every: int = 1,
) -> TrajectoryRecord:
    """Fixed-step RK4 on the embedded equations of motion.

    The state is carried in extended precision and the conserved p.p is
    evaluated once at the initial time: the components grow like
    cosh(t), so re-deriving p.p (or the constraint residuals) from them
    in double precision loses all significance by t ~ 10.  The first
    state that is not finite (a step too large for the flow) ends the
    run as its last sample and sets the drift warning.
    """
    if dt <= 0:
        raise SimulationError(f"dt must be positive, got {dt}")
    if tol_c is None:
        tol_c = 1e-8 * a * a
    n_steps = int(round(T / dt))
    y = np.concatenate((s0.x, s0.p)).astype(np.longdouble)
    # with projection, p^i p_i is frozen at t = 0 (conserved on-shell)
    rhs = _embedded_rhs(m, a, inner(y[3:], y[3:]) if projection else None,
                        y.dtype)
    # k = 0, sample_every, 2 sample_every, ... and the last step
    ts = np.empty(-(-n_steps // sample_every) + 1)
    ys = np.empty((len(ts), 6), dtype=y.dtype)
    n = 0
    drift_warning = False
    pscale = max(np.abs(y[3:]).max(), 1.0)
    for k in range(n_steps + 1):
        blown_up = not np.isfinite(y).all()
        if blown_up or k % sample_every == 0 or k == n_steps:
            ts[n], ys[n] = s0.t + k * dt, y
            n += 1
        if blown_up:
            drift_warning = True
            break
        if not projection:
            x, p = y[:3], y[3:]
            # a NaN residual warns too: it is not <= its bound
            if not (abs(inner(x, x) + a * a) <= 1e3 * tol_c
                    and abs(float(np.dot(x, p))) <= 1e3 * tol_c * pscale):
                drift_warning = True
        if k == n_steps:
            break
        y = _rk4_step(rhs, y, dt)
        if projection:
            y = np.concatenate(project_embedded(y[:3], y[3:], a, noise_guard=True))
    return _make_record(ts[:n], ys[:n, :3], ys[:n, 3:], m, a, drift_warning)


def _make_record(ts, xs, ps, m, a, drift_warning=False, chart_exit=False):
    """Diagnostics of every sample; p^i x_i is a plain dot (lower-index p)."""
    c3 = xs[:, 0] * ps[:, 0] + xs[:, 1] * ps[:, 1] + xs[:, 2] * ps[:, 2]
    # math.acosh/atan2 round differently from their numpy counterparts
    theta = np.array([math.acosh(v) for v in
                      np.maximum(xs[:, 2] / a, 1.0).astype(float).tolist()])
    phi = np.array([math.atan2(y, x) % (2 * math.pi) if math.hypot(x, y) > 0
                    else 0.0 for x, y in xs[:, :2].astype(float).tolist()])
    return TrajectoryRecord(
        ts, xs, ps, theta, phi, hamiltonian(ps, m), angular_momenta(xs, ps),
        np.abs(inner(xs, xs) + a * a), np.abs(c3.astype(float)),
        drift_warning=drift_warning, chart_exit=chart_exit,
    )


def closed_form_geodesic(s0: EmbeddedState, m: float, a: float, t) -> EmbeddedState:
    """Exact geodesic x(t) = x0 cosh(st) + (u/s) sinh(st), u = p0^i/m.

    s = sqrt(u.u)/a; the tangent u is spacelike on-shell so u.u > 0.
    Satisfies m xddot = (p.p/(m a^2)) x and x.x = -a^2 identically.
    """
    x0 = np.asarray(s0.x, dtype=float)
    u = geometry.lower(np.asarray(s0.p, dtype=float)) / m  # raise index
    uu = inner(s0.p, s0.p) / (m * m)
    if uu <= 0:
        if np.allclose(s0.p, 0):
            return EmbeddedState(x0.copy(), np.zeros(3), s0.t + t)
        raise SimulationError("tangent vector is not spacelike")
    s = math.sqrt(uu) / a
    try:
        ch, sh = math.cosh(s * t), math.sinh(s * t)
    except OverflowError:
        raise SimulationError(f"closed-form geodesic overflows at s t = {s * t:.3e}") from None
    x = x0 * ch + (u / s) * sh
    v = x0 * s * sh + u * ch
    p = geometry.lower(m * v)  # store lower-index momenta
    return EmbeddedState(x, p, s0.t + t)


def eom_intrinsic(y) -> np.ndarray:
    """Geodesic equations in the chart, y = (theta, phi, theta_dot, phi_dot)."""
    G = geometry.christoffel(ChartPoint(y[0], y[1]))
    v = y[2:]
    return np.concatenate((v, -np.einsum("ijk,j,k->i", G, v, v)))


def integrate_intrinsic(
    s0: IntrinsicState,
    a: float,
    dt: float,
    T: float,
    m: float = 1.0,
    theta_min: float = 1e-6,
    sample_every: int = 1,
) -> TrajectoryRecord:
    """RK4 on the chart geodesic equations; record maps to the embedding."""
    if dt <= 0:
        raise SimulationError(f"dt must be positive, got {dt}")
    if s0.theta <= theta_min:
        raise SimulationError(f"theta0 must exceed theta_min = {theta_min}")
    n_steps = int(round(T / dt))
    y = np.array([s0.theta, s0.phi, s0.theta_dot, s0.phi_dot])
    ts, xs, ps = [], [], []
    chart_exit = False
    for k in range(n_steps + 1):
        if k % sample_every == 0 or k == n_steps:
            ts.append(s0.t + k * dt)
            x, p = intrinsic_to_embedded(IntrinsicState(*y), m, a)
            xs.append(x)
            ps.append(p)
        if k == n_steps:
            break
        y = _rk4_step(eom_intrinsic, y, dt)
        if y[0] <= theta_min:
            chart_exit = True
            break
    return _make_record(
        np.array(ts), np.array(xs), np.array(ps), m, a, chart_exit=chart_exit
    )


def intrinsic_to_embedded(s: IntrinsicState, m: float, a: float):
    """Map a chart state to ambient (x, lower-index p)."""
    cp = ChartPoint(s.theta, s.phi)
    x = geometry.embed(cp, a)
    jac = geometry.chart_jacobian(cp, a)
    v = jac @ np.array([s.theta_dot, s.phi_dot])  # upper-index velocity
    p = geometry.lower(m * v)
    return x, p


def embedded_to_intrinsic(s: EmbeddedState, m: float, a: float) -> IntrinsicState:
    cp = geometry.chart_inverse(s.x, a)
    jac = geometry.chart_jacobian(cp, a)
    v = geometry.lower(s.p) / m
    # least-squares in the Euclidean sense is exact for tangent v
    vel, *_ = np.linalg.lstsq(jac, v, rcond=None)
    return IntrinsicState(cp.theta, cp.phi, vel[0], vel[1], s.t)


def energy_reduced(x2d, p2d, m: float, a: float) -> float:
    """H on the constraint-solved phase space, the factored form.

    With z and p_z solved from the constraints, H equals
    (p_x^2+p_y^2)/2m * [1 - (x^2+y^2) cos^2(alpha) / (x^2+y^2+a^2)]
    where alpha is the planar angle between (x, y) and (p_x, p_y);
    manifestly >= 0.  Falls back to the direct quadratic form at the
    coordinate or momentum origin where alpha is undefined.
    """
    x, y = x2d
    px, py = p2d
    r2 = x * x + y * y
    q2 = px * px + py * py
    if r2 == 0 or q2 == 0:
        return energy_direct(x2d, p2d, m, a)
    cos_alpha = (x * px + y * py) / math.sqrt(r2 * q2)
    return q2 / (2 * m) * (1 - r2 * cos_alpha ** 2 / (r2 + a * a))


def energy_direct(x2d, p2d, m: float, a: float) -> float:
    """H = (p_x^2 + p_y^2 - p_z^2)/2m with z, p_z solved from C1, C2."""
    x, y = x2d
    px, py = p2d
    z = math.sqrt(x * x + y * y + a * a)
    pz = -(x * px + y * py) / z
    return (px * px + py * py - pz * pz) / (2 * m)
