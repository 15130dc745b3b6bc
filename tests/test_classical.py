"""Geodesic simulation against the closed-form oracle."""

import math

import numpy as np
import pytest

from hyperboloid import classical
from hyperboloid.classical import (
    EmbeddedState, IntrinsicState, SimulationError, angular_momenta,
    closed_form_geodesic, embedded_to_intrinsic, eom_embedded, hamiltonian,
    hamiltonian_from_j, integrate_embedded, integrate_intrinsic,
    intrinsic_to_embedded, project_embedded,
)
from hyperboloid import geometry
from hyperboloid.geometry import inner

APEX = np.array([0.0, 0.0, 1.0])
PX = np.array([1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def apex_run():
    s0 = EmbeddedState(APEX.copy(), PX.copy())
    return s0, integrate_embedded(s0, 1.0, 1.0, 1e-3, 10.0, projection=True)


def test_rest_point():
    xdot, pdot = np.split(eom_embedded(np.concatenate((APEX, np.zeros(3))), 1.0, 1.0), 2)
    assert np.allclose(xdot, 0) and np.allclose(pdot, 0)


def test_flow_tangency_and_constraint_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        si = IntrinsicState(rng.uniform(0.1, 2), rng.uniform(0, 6),
                            rng.normal(), rng.normal())
        x, p = intrinsic_to_embedded(si, 1.0, 1.0)
        xdot, pdot = np.split(eom_embedded(np.concatenate((x, p)), 1.0, 1.0), 2)
        assert abs(inner(x, xdot)) < 1e-12          # motion stays on surface
        # pure constraint force: pdot is parallel to the lowered position
        assert np.linalg.norm(np.cross(pdot, geometry.lower(x))) < 1e-12


def test_closed_form_t0_identity():
    s0 = EmbeddedState(APEX.copy(), PX.copy())
    s = closed_form_geodesic(s0, 1.0, 1.0, 0.0)
    assert np.allclose(s.x, s0.x) and np.allclose(s.p, s0.p)


def test_closed_form_stays_on_surface():
    s0 = EmbeddedState(APEX.copy(), np.array([0.7, -0.3, 0.0]))
    for t in (0.5, 2.0, 7.3):
        s = closed_form_geodesic(s0, 1.0, 1.0, t)
        assert abs(inner(s.x, s.x) + 1.0) < 1e-9 * math.cosh(t) ** 2


def test_closed_form_satisfies_eom():
    s0 = EmbeddedState(APEX.copy(), PX.copy())
    h = 1e-5
    for t in (0.3, 1.7):
        xm = closed_form_geodesic(s0, 1.0, 1.0, t - h).x
        x0 = closed_form_geodesic(s0, 1.0, 1.0, t).x
        xp = closed_form_geodesic(s0, 1.0, 1.0, t + h).x
        xdd = (xp - 2 * x0 + xm) / (h * h)
        s2 = inner(s0.p, s0.p)  # u.u with m = a = 1
        assert np.max(np.abs(xdd - s2 * x0)) < 1e-5


def test_rk4_matches_closed_form(apex_run):
    s0, rec = apex_run
    worst = max(
        float(np.max(np.abs(rec.x[k] - closed_form_geodesic(s0, 1, 1, rec.t[k]).x)))
        for k in range(len(rec.t)))
    assert worst <= 1e-8


def test_rk4_order():
    s0 = EmbeddedState(APEX.copy(), PX.copy())

    def err(dt):
        rec = integrate_embedded(s0, 1, 1, dt, 10.0, sample_every=10 ** 9)
        ref = closed_form_geodesic(s0, 1, 1, rec.t[-1])
        return float(np.max(np.abs(rec.x[-1] - ref.x)))

    ratio = err(4e-3) / err(2e-3)
    assert 8 <= ratio <= 32   # fourth order: ~16


def test_conserved_quantities(apex_run):
    _, rec = apex_run
    assert np.max(np.abs(rec.H - rec.H[0])) / abs(rec.H[0]) <= 1e-8
    assert np.max(np.abs(rec.J - rec.J[0])) <= 1e-8
    assert np.max(rec.c2_residual) <= 1e-8
    assert np.max(rec.c3_residual) <= 1e-8


def test_hamiltonian_from_j_on_shell():
    rng = np.random.default_rng(8)
    for _ in range(50):
        si = IntrinsicState(rng.uniform(0.1, 3), rng.uniform(0, 6),
                            rng.normal(), rng.normal())
        x, p = intrinsic_to_embedded(si, 1.3, 0.7)
        hj = hamiltonian_from_j(angular_momenta(x, p), 1.3, 0.7)
        assert hj == pytest.approx(hamiltonian(p, 1.3), rel=1e-10, abs=1e-12)


def test_projection_restores_constraints():
    x = np.array([0.1, -0.2, 1.1])
    p = np.array([0.5, 0.3, 0.2])
    xp, pp = project_embedded(x, p, 1.0)
    assert abs(inner(xp, xp) + 1.0) < 1e-14
    assert abs(np.dot(xp, pp)) < 1e-14


def test_drift_warning_without_projection():
    s0 = EmbeddedState(APEX.copy(), 5 * PX.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        rec = integrate_embedded(s0, 1, 1, 1e-2, 10.0, projection=False,
                                 tol_c=1e-12)
    assert rec.drift_warning


def test_first_non_finite_state_ends_the_run():
    # RK4 at dt = 1 leaves the flow; the run stops instead of going on over NaN
    for projection in (True, False):
        with np.errstate(all="ignore"):
            rec = integrate_embedded(EmbeddedState(APEX.copy(), PX.copy()), 1, 1,
                                     1.0, 10000.0, projection=projection)
        finite = np.isfinite(np.hstack((rec.x, rec.p))).all(axis=1)
        assert rec.drift_warning and len(rec.t) < 10
        assert finite[:-1].all() and not finite[-1]


def test_negative_dt_rejected():
    with pytest.raises(SimulationError):
        integrate_embedded(EmbeddedState(APEX, PX), 1, 1, -1e-3, 1.0)


def test_intrinsic_pure_boost():
    # phi_dot = 0: the theta line is a geodesic, theta grows linearly
    s0 = IntrinsicState(0.5, 1.0, 0.25, 0.0)
    rec = integrate_intrinsic(s0, 1.0, 1e-3, 4.0)
    assert np.allclose(rec.phi, 1.0, atol=1e-10)
    assert rec.theta[-1] == pytest.approx(0.5 + 0.25 * 4.0, abs=1e-10)


def test_intrinsic_chart_exit_flag():
    s0 = IntrinsicState(0.3, 0.0, -0.5, 0.0)
    rec = integrate_intrinsic(s0, 1.0, 1e-3, 5.0, theta_min=1e-3)
    assert rec.chart_exit
    assert rec.t[-1] < 5.0


def test_cross_integrator_agreement():
    si = IntrinsicState(0.7, 1.1, 0.4, 0.3)
    x0, p0 = intrinsic_to_embedded(si, 1.0, 1.0)
    rec_e = integrate_embedded(EmbeddedState(x0, p0), 1, 1, 1e-3, 5.0)
    rec_i = integrate_intrinsic(si, 1.0, 1e-3, 5.0)
    n = min(len(rec_e.t), len(rec_i.t))
    assert float(np.max(np.abs(rec_e.x[:n] - rec_i.x[:n]))) <= 1e-6


def test_intrinsic_speed_conserved():
    from hyperboloid.geometry import induced_metric
    si = IntrinsicState(0.6, 0.2, 0.3, 0.5)
    rec = integrate_intrinsic(si, 1.0, 1e-3, 5.0)
    # reconstruct the chart velocity from the record via H = (m/2) g v v
    speeds = 2 * rec.H
    assert np.max(np.abs(speeds - speeds[0])) / speeds[0] <= 1e-8


def test_roundtrip_intrinsic_embedded():
    si = IntrinsicState(1.2, 2.5, -0.3, 0.8)
    x, p = intrinsic_to_embedded(si, 1.4, 0.9)
    back = embedded_to_intrinsic(EmbeddedState(x, p), 1.4, 0.9)
    assert back.theta == pytest.approx(si.theta, abs=1e-10)
    assert back.phi == pytest.approx(si.phi, abs=1e-10)
    assert back.theta_dot == pytest.approx(si.theta_dot, abs=1e-10)
    assert back.phi_dot == pytest.approx(si.phi_dot, abs=1e-10)


def test_energy_zero_at_zero_momentum():
    assert classical.energy_reduced((0.3, -0.8), (0.0, 0.0), 1.0, 1.0) == 0.0


def test_energy_lower_bound():
    rng = np.random.default_rng(13)
    for _ in range(10 ** 4):
        x2d = rng.normal(scale=2, size=2)
        p2d = rng.normal(scale=2, size=2)
        hr = classical.energy_reduced(x2d, p2d, 1.0, 1.0)
        hd = classical.energy_direct(x2d, p2d, 1.0, 1.0)
        assert hr >= -1e-12
        assert abs(hr - hd) <= 1e-12 * max(abs(hd), 1.0)


def test_csv_roundtrip(tmp_path):
    # short run: at late times the components grow like cosh(t) and a
    # float64 recomputation of p_x^2 - p_z^2 from the CSV loses the
    # cancellation, so the 1e-12 reproduction is checked where the
    # double-precision evaluation is itself meaningful
    s0 = EmbeddedState(APEX.copy(), np.array([0.8, 0.3, 0.0]))
    rec = integrate_embedded(s0, 1.0, 1.0, 1e-3, 2.0)
    path = tmp_path / "traj.csv"
    rec.write_csv(path)
    import csv
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rec.t)
    # recompute diagnostics from the stored state columns
    for k in (0, len(rows) // 2, len(rows) - 1):
        r = rows[k]
        x = np.array([float(r["x"]), float(r["y"]), float(r["z"])])
        p = np.array([float(r["p_x"]), float(r["p_y"]), float(r["p_z"])])
        assert hamiltonian(p, 1.0) == pytest.approx(float(r["H"]), rel=1e-12)
        j = angular_momenta(x, p)
        for i, col in enumerate(("J1", "J2", "J3")):
            assert j[i] == pytest.approx(float(r[col]), rel=1e-12, abs=1e-12)


# -- bit identity of the embedded integrator ----------------------------
# A literal reference step: four right-hand-side calls that each build
# (lower(p) / m, p.p / (m a^2) lower(x)), and the projection written out
# term by term.  The integrator must reproduce it bit for bit.

def _frozen_eom(y, m, a, psq=None):
    x, p = y[:3], y[3:]
    if psq is None:
        psq = inner(p, p)
    return np.concatenate((geometry.lower(p) / m,
                           psq / (m * a * a) * geometry.lower(x)))


def _frozen_project(x, p, a, noise_guard):
    eps = float(np.finfo(np.asarray(x).dtype).eps)
    c2 = inner(x, x) + a * a
    if not noise_guard or abs(c2) > 64 * eps * float(np.dot(np.abs(x), np.abs(x))):
        x = x * a / np.sqrt(-inner(x, x))
    c3 = np.dot(x, p)
    if not noise_guard or abs(c3) > 64 * eps * float(np.dot(np.abs(x), np.abs(p))):
        p = p - (c3 / inner(x, x)) * geometry.lower(x)
    return x, p


def _frozen_states(x0, p0, m, a, dt, n_steps, projection):
    y = np.concatenate((x0, p0)).astype(np.longdouble)
    psq = inner(y[3:], y[3:]) if projection else None
    states = [y]
    for _ in range(n_steps):
        k1 = _frozen_eom(y, m, a, psq)
        k2 = _frozen_eom(y + 0.5 * dt * k1, m, a, psq)
        k3 = _frozen_eom(y + 0.5 * dt * k2, m, a, psq)
        k4 = _frozen_eom(y + dt * k3, m, a, psq)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if projection:
            y = np.concatenate(_frozen_project(y[:3], y[3:], a, noise_guard=True))
        states.append(y)
    return np.array(states)


@pytest.mark.parametrize("x0, p0, m, a, projection", [
    (APEX, PX, 1.0, 1.0, True),
    # the pinned off-shell start of the CLI test
    (np.array([0.3, 0.2, 1.0630145812734648]), np.array([0.5, 0.1, 0.16]),
     1.0, 1.0, True),
    (np.array([0.0, 0.0, 1.3]), np.array([0.4, -0.9, 0.0]), 0.7, 1.3, True),
    (APEX, np.array([0.6, 0.8, 0.0]), 1.0, 1.0, False),
])
def test_integrator_bit_identical_to_frozen_step(x0, p0, m, a, projection):
    # both start from the float64 initial projection that simulate makes
    xs, ps = project_embedded(x0, p0, a)
    xr, pr = _frozen_project(x0, p0, a, noise_guard=False)
    assert np.array_equal(xs, xr) and np.array_equal(ps, pr)
    dt, n_steps = 5e-3, 2000
    rec = integrate_embedded(EmbeddedState(xs, ps), m, a, dt, n_steps * dt,
                             projection=projection)
    got = np.hstack((rec.x, rec.p))
    want = _frozen_states(xr, pr, m, a, dt, n_steps, projection)
    assert got.dtype == want.dtype == np.longdouble
    assert np.array_equal(got, want)


def test_eom_embedded_bit_identical_to_frozen():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m, a = rng.uniform(0.2, 3.0, size=2)
        y = rng.normal(scale=5.0, size=6)
        for state in (y, y.astype(np.longdouble)):
            psq = inner(state[3:], state[3:])
            for given in (None, psq, float(psq)):
                got, want = (f(state, m, a, psq=given)
                             for f in (eom_embedded, _frozen_eom))
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
