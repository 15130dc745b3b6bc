"""Verification suites for every module, collected into one report.

Each check records its tolerance and measured value so the JSON report
is self-describing.  Fault-injection hooks (epsilon_sign on the symbolic
side, drop_hermitian_term on the grid side) exist so the negative
controls can demonstrate that the checks actually bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import brackets, classical, geometry
from .config import RunConfig
from .conical import conical_p0_oracle, conical_pn_oracle, profile_row, radial_profiles
from .expr import parse_expr
from .grid import (
    Grid, SpectralMode, apply_h_via_j, apply_j, apply_p, bump, casimir_xj,
    eigen_residual, gamma_identity_error, inner_product, interior,
    laplace_beltrami, mode_overlap, norm, sample_modes,
)

MODULES = ("phase_algebra", "geometry", "classical_sim", "spectral")

FAULTS = ("epsilon_sign", "drop_hermitian_term")


@dataclass
class CheckResult:
    module: str
    name: str
    tolerance: float
    measured: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        # comparisons against numpy scalars yield numpy types; coerce so
        # the report serializes as plain JSON
        return {
            "module": self.module,
            "name": self.name,
            "tolerance": float(self.tolerance),
            "measured": float(self.measured),
            "passed": bool(self.passed),
            "detail": self.detail,
        }


@dataclass
class Report:
    checks: list = field(default_factory=list)
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in sorted(
                self.checks, key=lambda c: (c.module, c.name))],
        }


# -- phase_algebra ------------------------------------------------------

_EXPECTED_CONSTRAINTS = (
    "p_lam",
    "z^2 - x^2 - y^2 - a^2",
    "x*p_x + y*p_y + z*p_z",
    # C4 = H_tilde + 2 lam C2 + lam a^2 collapses to this
    "(p_x^2 + p_y^2 - p_z^2)/(2*m) + lam*(z^2 - x^2 - y^2)",
)

_PSQ = "(p_x^2 + p_y^2 - p_z^2)"

_EXPECTED_M = (
    ("0", "0", "0", "-a^2"),
    ("0", "0", "2*a^2", "0"),
    ("0", "-2*a^2", "0", f"2*{_PSQ}/m"),
    ("a^2", "0", f"-2*{_PSQ}/m", "0"),
)

_EXPECTED_M_INV = (
    ("0", f"{_PSQ}/(m*a^4)", "0", "1/a^2"),
    (f"-{_PSQ}/(m*a^4)", "0", "-1/(2*a^2)", "0"),
    ("0", "1/(2*a^2)", "0", "0"),
    ("-1/a^2", "0", "0", "0"),
)


def checks_phase_algebra(flip_epsilon_sign: bool = False) -> list:
    out = []
    cs = brackets.constraint_chain()

    bad = sum(
        1 for k in range(4)
        if cs[k] != brackets.reduce_on_shell(parse_expr(_EXPECTED_CONSTRAINTS[k]))
        and cs[k] != parse_expr(_EXPECTED_CONSTRAINTS[k])
    )
    out.append(CheckResult("phase_algebra", "constraint_chain", 0, bad, bad == 0,
                           "four constraints in conventional rescaled form"))

    bm = brackets.bracket_matrix(cs)
    bad_m = sum(
        1 for i in range(4) for j in range(4)
        if bm.entry(i, j) != parse_expr(_EXPECTED_M[i][j])
    )
    bad_inv = sum(
        1 for i in range(4) for j in range(4)
        if bm.inv_entry(i, j) != parse_expr(_EXPECTED_M_INV[i][j])
    )
    out.append(CheckResult("phase_algebra", "bracket_matrix", 0, bad_m, bad_m == 0))
    out.append(CheckResult("phase_algebra", "bracket_matrix_inverse", 0, bad_inv,
                           bad_inv == 0))

    one, zero = parse_expr("1"), parse_expr("0")
    bad_id = 0
    for i in range(4):
        for j in range(4):
            acc = zero
            for k in range(4):
                acc = acc + bm.entry(i, k) * bm.inv_entry(k, j)
            if acc != (one if i == j else zero):
                bad_id += 1
    out.append(CheckResult("phase_algebra", "matrix_times_inverse_is_identity",
                           0, bad_id, bad_id == 0,
                           "rational-function identity, no on-shell reduction needed"))

    iso = brackets.verify_iso12(bm, flip_epsilon_sign=flip_epsilon_sign)
    fails = iso.failures()
    detail = "; ".join(c.name for c in fails[:6]) if fails else (
        f"{len(iso.checks)} bracket identities")
    out.append(CheckResult("phase_algebra", "iso12_closure", 0, len(fails),
                           iso.passed, detail))
    return out


# -- geometry -----------------------------------------------------------


def checks_geometry(seed: int = 0) -> list:
    out = []
    rng = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(100):
        p = geometry.ChartPoint(rng.uniform(0.01, 3.0), rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0.5, 3.0)
        v = geometry.embed(p, a)
        worst = max(worst, abs(geometry.inner(v, v) + a * a) / (a * a))
    out.append(CheckResult("geometry", "embedding_on_surface", 1e-12, worst,
                           worst <= 1e-12))

    worst = 0.0
    for _ in range(50):
        p = geometry.ChartPoint(rng.uniform(0.1, 3.0), rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0.5, 2.0)
        kk = geometry.killing_pushforward(p, a)
        v = geometry.embed(p, a)
        for i in range(3):
            worst = max(worst, abs(geometry.inner(v, kk[i])))
    out.append(CheckResult("geometry", "killing_fields_tangent", 1e-10, worst,
                           worst <= 1e-10))

    worst = 0.0
    for _ in range(50):
        p = geometry.ChartPoint(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0.5, 2.0)
        kk = geometry.killing_pushforward(p, a)
        for i in range(3):
            amb = geometry.ambient_killing(i + 1, geometry.embed(p, a))
            worst = max(worst, float(np.max(np.abs(kk[i] - amb))))
    out.append(CheckResult("geometry", "ambient_generators_match_killing",
                           1e-9, worst, worst <= 1e-9))

    worst = 0.0
    h = 1e-5
    for _ in range(50):
        th = rng.uniform(0.3, 2.5)
        ph = rng.uniform(0, 2 * math.pi)
        a = rng.uniform(0.5, 2.0)
        # Killing equation: d_a K_b - Gamma^c_ab K_c, symmetrized, K lowered
        gamma = geometry.christoffel(geometry.ChartPoint(th, ph))

        def k_low(t, p_, i):
            g = geometry.induced_metric(t, a)
            return g @ geometry.killing_fields(geometry.ChartPoint(t, p_))[i]

        for i in range(3):
            dk = np.zeros((2, 2))
            dk[0] = (k_low(th + h, ph, i) - k_low(th - h, ph, i)) / (2 * h)
            dk[1] = (k_low(th, ph + h, i) - k_low(th, ph - h, i)) / (2 * h)
            kl = k_low(th, ph, i)
            cov = dk - np.einsum("cab,c->ab", gamma, kl)
            worst = max(worst, float(np.max(np.abs(cov + cov.T))))
    out.append(CheckResult("geometry", "killing_equation_residual", 1e-7, worst,
                           worst <= 1e-7, "finite differences, O(h^2) at h=1e-5"))

    err = max(abs(geometry.scalar_curvature(1.0) + 2.0),
              abs(geometry.scalar_curvature(2.0) + 0.5) * 4)
    out.append(CheckResult("geometry", "scalar_curvature", 1e-6, err, err <= 1e-6,
                           "R = -2/a^2 at a = 1 and a = 2"))
    return out


# -- classical_sim ------------------------------------------------------


def checks_classical(cfg: RunConfig) -> list:
    out = []
    a, m = cfg.a, cfg.m
    apex = np.array([0.0, 0.0, a])
    p0 = np.array([1.0, 0.0, 0.0])
    s0 = classical.EmbeddedState(apex, p0)

    rec = classical.integrate_embedded(s0, m, a, cfg.dt, cfg.T,
                                       projection=cfg.projection)
    worst = 0.0
    for k in range(len(rec.t)):
        ref = classical.closed_form_geodesic(s0, m, a, rec.t[k])
        worst = max(worst, float(np.max(np.abs(rec.x[k] - ref.x))))
    out.append(CheckResult("classical_sim", "geodesic_vs_closed_form",
                           1e-8 * a, worst, worst <= 1e-8 * a,
                           f"T={cfg.T}, dt={cfg.dt}"))

    def endpoint_error(dt):
        r = classical.integrate_embedded(s0, m, a, dt, cfg.T,
                                         projection=cfg.projection,
                                         sample_every=10 ** 9)
        ref = classical.closed_form_geodesic(s0, m, a, r.t[-1])
        return float(np.max(np.abs(r.x[-1] - ref.x)))

    e_coarse = endpoint_error(4 * cfg.dt)
    e_fine = endpoint_error(2 * cfg.dt)
    order = math.log2(e_coarse / e_fine) if e_fine > 0 else 4.0
    out.append(CheckResult("classical_sim", "rk4_order", 0.8, abs(order - 4.0),
                           abs(order - 4.0) <= 0.8,
                           f"halving ratio {e_coarse / max(e_fine, 1e-300):.1f}"))

    drift = rec.drift(a)
    h_drift, j_drift = drift["max_H_drift"], drift["max_J_drift"]
    c_worst = drift["max_constraint_residual"]
    # J.J = a^2 p.p is exact on-shell only; test it on states that are
    # on-shell to machine precision (trajectory samples carry the
    # projection noise floor, which enters this identity linearly)
    rng_hj = np.random.default_rng(cfg.seed + 7)
    hj_err = 0.0
    for _ in range(100):
        si_r = classical.IntrinsicState(
            rng_hj.uniform(0.1, 3.0), rng_hj.uniform(0, 2 * math.pi),
            rng_hj.normal(), rng_hj.normal())
        xr, pr = classical.intrinsic_to_embedded(si_r, m, a)
        hd = classical.hamiltonian(pr, m)
        hjv = classical.hamiltonian_from_j(classical.angular_momenta(xr, pr), m, a)
        hj_err = max(hj_err, abs(hjv - hd) / max(abs(hd), 1e-30))
    out.append(CheckResult("classical_sim", "conservation_H", cfg.tol_drift,
                           h_drift, h_drift <= cfg.tol_drift))
    out.append(CheckResult("classical_sim", "conservation_J", cfg.tol_drift,
                           j_drift, j_drift <= cfg.tol_drift))
    out.append(CheckResult("classical_sim", "hamiltonian_from_j", 1e-10,
                           hj_err, hj_err <= 1e-10))
    out.append(CheckResult("classical_sim", "constraint_residuals",
                           cfg.tol_constraint, c_worst,
                           c_worst <= cfg.tol_constraint))

    si = classical.IntrinsicState(0.7, 1.1, 0.4, 0.3)
    x0, pp0 = classical.intrinsic_to_embedded(si, m, a)
    rec_e = classical.integrate_embedded(classical.EmbeddedState(x0, pp0), m, a,
                                         cfg.dt, 5.0, projection=cfg.projection)
    rec_i = classical.integrate_intrinsic(si, a, cfg.dt, 5.0, m=m)
    nsamp = min(len(rec_e.t), len(rec_i.t))
    cross = float(np.max(np.abs(rec_e.x[:nsamp] - rec_i.x[:nsamp])))
    out.append(CheckResult("classical_sim", "embedded_vs_intrinsic", 1e-6 * a,
                           cross, cross <= 1e-6 * a))

    rng = np.random.default_rng(cfg.seed)
    h_min, form_gap = 0.0, 0.0
    for _ in range(10 ** 4):
        x2d = rng.normal(scale=2.0, size=2)
        p2d = rng.normal(scale=2.0, size=2)
        hr = classical.energy_reduced(x2d, p2d, m, a)
        hd = classical.energy_direct(x2d, p2d, m, a)
        h_min = min(h_min, hr)
        form_gap = max(form_gap, abs(hr - hd) / max(abs(hd), 1e-30))
    out.append(CheckResult("classical_sim", "energy_lower_bound", 1e-12,
                           -h_min, h_min >= -1e-12, "10^4 random on-shell states"))
    out.append(CheckResult("classical_sim", "energy_forms_agree", 1e-12,
                           form_gap, form_gap <= 1e-12))
    return out


# -- spectral -----------------------------------------------------------


def _rich_test_function(g: Grid, seed: int) -> np.ndarray:
    """Multi-n superposition; single-n modes would hide the phi-coupling
    terms of the operators from the hermiticity inner products."""
    rng = np.random.default_rng(seed)
    f = np.zeros((g.n_theta, g.n_phi), dtype=complex)
    for n in range(-3, 4):
        c = rng.normal() + 1j * rng.normal()
        f += c * bump(g, 1.0 + 0.3 * abs(n), 0.25, n=n)
    return f


def checks_spectral(cfg: RunConfig, drop_hermitian_term: bool = False) -> list:
    out = []
    a, m, hbar = cfg.a, cfg.m, cfg.hbar

    worst = max(gamma_identity_error(lam) for lam in np.linspace(0.0, 20.0, 81))
    out.append(CheckResult("spectral", "gamma_identity", 1e-10, worst,
                           worst <= 1e-10, "|Gamma(1/2+i lam)|^2 = pi/cosh(pi lam)"))

    worst = 0.0
    thetas = (0.3, 0.7, 1.1, 1.6, 2.5)
    for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
        p0 = radial_profiles(lam, 0, thetas)[0]
        for th, val in zip(thetas, p0):
            ref = conical_p0_oracle(lam, th)
            worst = max(worst, abs(val - ref) / abs(ref))
    out.append(CheckResult("spectral", "conical_p0_vs_oracle", 1e-10, worst,
                           worst <= 1e-10, "5x5 (lam, theta) grid"))

    worst = 0.0
    thetas = (0.5, 1.0, 2.0)
    for lam in (0.5, 1.0, 2.0):
        profiles = radial_profiles(lam, 5, thetas)
        for n in range(-5, 6):
            for th, val in zip(thetas, profile_row(profiles, lam, n)):
                ref = conical_pn_oracle(lam, n, th)
                worst = max(worst, abs(val - ref) / abs(ref))
    out.append(CheckResult("spectral", "conical_recurrence_vs_oracle", 1e-8,
                           worst, worst <= 1e-8, "n in [-5, 5]"))

    g = Grid(cfg.theta_min, cfg.theta_max, cfg.n_theta, cfg.n_phi)
    g2 = Grid(cfg.theta_min, cfg.theta_max, (cfg.n_theta - 1) // 2 + 1, cfg.n_phi)

    residual = {(lam, n): eigen_residual(g, SpectralMode(lam, n), a, m, hbar, psi=psi)
                for lam in (0.5, 1.0, 2.0)
                for n, psi in zip((0, 1, 2), sample_modes(g, lam, (0, 1, 2)))}
    worst = max(residual.values())
    out.append(CheckResult("spectral", "eigen_residual", cfg.tol_eigen, worst,
                           worst <= cfg.tol_eigen,
                           f"(lam, n) grid at h={g.h:.1e}"))

    r_f = residual[1.0, 1]
    r_c = eigen_residual(g2, SpectralMode(1.0, 1), a, m, hbar)
    p_order = math.log2(r_c / r_f)
    out.append(CheckResult("spectral", "eigen_residual_order", 0.2,
                           abs(p_order - 2.0), abs(p_order - 2.0) <= 0.2,
                           f"measured order {p_order:.2f}"))

    ov = abs(mode_overlap(g2, SpectralMode(1.0, 0), SpectralMode(1.0, 1)))
    out.append(CheckResult("spectral", "phi_orthogonality", 1e-12, ov,
                           ov <= 1e-12))

    fa = _rich_test_function(g2, cfg.seed + 1)
    fb = _rich_test_function(g2, cfg.seed + 2)
    na, nb = norm(g2, fa), norm(g2, fb)

    worst = 0.0
    for i in (1, 2, 3):
        d = abs(inner_product(g2, fa, apply_j(i, g2, fb, hbar))
                - np.conj(inner_product(g2, fb, apply_j(i, g2, fa, hbar))))
        worst = max(worst, d / (na * nb))
    out.append(CheckResult("spectral", "j_hermiticity", 1e-12, worst,
                           worst <= 1e-12, "exact by the weighted skew stencil"))

    d = abs(inner_product(g2, fa, laplace_beltrami(g2, fb, a, m, hbar))
            - np.conj(inner_product(g2, fb, laplace_beltrami(g2, fa, a, m, hbar))))
    d /= na * nb
    out.append(CheckResult("spectral", "h_hermiticity", 1e-12, d, d <= 1e-12,
                           "summation-by-parts of the conservative stencil"))

    worst = 0.0
    for i in (1, 2, 3):
        d = abs(inner_product(g2, fa, apply_p(i, g2, fb, a, hbar,
                                              drop_hermitian_term=drop_hermitian_term))
                - np.conj(inner_product(g2, fb, apply_p(i, g2, fa, a, hbar,
                                                        drop_hermitian_term=drop_hermitian_term))))
        worst = max(worst, d / (na * nb))
    out.append(CheckResult("spectral", "p_hermiticity", 5e-4, worst,
                           worst <= 5e-4,
                           "O(h^2) defect from the discrete [J, x] commutators"))

    f = _rich_test_function(g2, cfg.seed + 3)
    fscale = float(np.max(np.abs(f)))

    def closure_worst(grid, ff):
        w = 0.0
        for (i, j, k, s) in ((1, 2, 3, 1j), (2, 3, 1, -1j), (3, 1, 2, -1j)):
            c = (apply_j(i, grid, apply_j(j, grid, ff, hbar), hbar)
                 - apply_j(j, grid, apply_j(i, grid, ff, hbar), hbar))
            r = c - s * hbar * apply_j(k, grid, ff, hbar)
            w = max(w, float(np.max(np.abs(interior(grid, r, 2)))))
        return w

    cl_c = closure_worst(g2, f)
    cl_f = closure_worst(g, _rich_test_function(g, cfg.seed + 3))
    cl_order = math.log2(cl_c / cl_f)
    out.append(CheckResult("spectral", "j_commutator_closure", 1e-3,
                           cl_f / fscale, cl_f / fscale <= 1e-3,
                           f"[J^i, J^j] = -i hbar eps J, order {cl_order:.2f}"))
    out.append(CheckResult("spectral", "j_commutator_closure_order", 0.5,
                           abs(cl_order - 2.0), abs(cl_order - 2.0) <= 0.5))

    cas = float(np.max(np.abs(interior(g2, casimir_xj(g2, f, a, hbar), 2))))
    out.append(CheckResult("spectral", "casimir_xj_annihilation", 1e-10,
                           cas / fscale, cas / fscale <= 1e-10,
                           "x.J f = 0 pointwise"))

    hv = apply_h_via_j(g2, f, a, m, hbar)
    hd = laplace_beltrami(g2, f, a, m, hbar)
    hscale = max(float(np.max(np.abs(interior(g2, hd, 2)))), 1e-30)
    dh = float(np.max(np.abs(interior(g2, hv - hd, 2)))) / hscale
    out.append(CheckResult("spectral", "h_via_j_vs_direct", 2e-4, dh,
                           dh <= 2e-4, "H = J.J/(2 m a^2)"))
    return out


# -- top level ----------------------------------------------------------


def run_verification(cfg: RunConfig, only: str | None = None,
                     faults: tuple = ()) -> Report:
    for f in faults:
        if f not in FAULTS:
            raise ValueError(f"unknown fault {f!r}; known: {FAULTS}")
    if only is not None and only not in MODULES:
        raise ValueError(f"unknown module {only!r}; known: {MODULES}")
    report = Report(seed=cfg.seed)
    if only in (None, "phase_algebra"):
        report.checks += checks_phase_algebra(
            flip_epsilon_sign="epsilon_sign" in faults)
    if only in (None, "geometry"):
        report.checks += checks_geometry(seed=cfg.seed)
    if only in (None, "classical_sim"):
        report.checks += checks_classical(cfg)
    if only in (None, "spectral"):
        report.checks += checks_spectral(
            cfg, drop_hermitian_term="drop_hermitian_term" in faults)
    return report
