"""Verification suites for every module, collected into one report.

Each suite returns its checks as (name, tolerance, measured[, detail])
records, so the JSON report is self-describing.  A check passes when its
measurement is <= its tolerance; a NaN measurement fails.  Fault-injection
hooks (epsilon_sign on the symbolic side, drop_hermitian_term on the grid
side) exist so the negative controls can demonstrate that the checks
actually bite.
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
    detail: str = ""

    @property
    def passed(self) -> bool:
        # a NaN measurement is not <= its tolerance, so it fails
        return bool(self.measured <= self.tolerance)

    def to_dict(self) -> dict:
        # measurements may be numpy scalars; coerce so the report
        # serializes as plain JSON
        return {
            "module": self.module,
            "name": self.name,
            "tolerance": float(self.tolerance),
            "measured": float(self.measured),
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class Report:
    checks: list = field(default_factory=list)
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in sorted(
                self.checks, key=lambda c: (c.module, c.name))],
        }


def _worst(samples) -> float:
    """The largest of a list (or array) of samples, NaN when any sample is
    NaN: a builtin max() accumulation would skip it."""
    return float(np.max(samples))


def _order(coarse: float, fine: float) -> float:
    """Observed convergence order log2(coarse/fine) of an error that
    shrinks as the step halves; NaN when the ratio is not positive and
    finite."""
    ratio = coarse / fine if fine else math.nan
    return math.log2(ratio) if 0 < ratio < math.inf else math.nan


def _rel_err(val, ref) -> float:
    return abs(val - ref) / abs(ref)


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


def checks_phase_algebra(cfg: RunConfig, faults: tuple) -> list:
    cs = brackets.constraint_chain()
    bad = sum(
        1 for k in range(4)
        if cs[k] != brackets.reduce_on_shell(parse_expr(_EXPECTED_CONSTRAINTS[k]))
        and cs[k] != parse_expr(_EXPECTED_CONSTRAINTS[k])
    )

    bm = brackets.bracket_matrix(cs)

    def mismatches(entry, expected):
        return sum(1 for i in range(4) for j in range(4)
                   if entry(i, j) != parse_expr(expected[i][j]))

    def product(i, j):
        return sum((bm.entry(i, k) * bm.inv_entry(k, j) for k in range(4)),
                   parse_expr("0"))

    identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]

    iso = brackets.verify_iso12(bm, flip_epsilon_sign="epsilon_sign" in faults)
    fails = iso.failures()
    detail = "; ".join(c.name for c in fails[:6]) if fails else (
        f"{len(iso.checks)} bracket identities")
    return [
        ("constraint_chain", 0, bad, "four constraints in conventional rescaled form"),
        ("bracket_matrix", 0, mismatches(bm.entry, _EXPECTED_M)),
        ("bracket_matrix_inverse", 0, mismatches(bm.inv_entry, _EXPECTED_M_INV)),
        ("matrix_times_inverse_is_identity", 0, mismatches(product, identity),
         "rational-function identity, no on-shell reduction needed"),
        ("iso12_closure", 0, len(fails), detail),
    ]


# -- geometry -----------------------------------------------------------


def checks_geometry(cfg: RunConfig, faults: tuple) -> list:
    rng = np.random.default_rng(cfg.seed)

    def samples(n, theta_lo, theta_hi=3.0, a_hi=2.0):
        """n random (chart point, a) pairs, drawn theta, phi, a in turn."""
        for _ in range(n):
            p = geometry.ChartPoint(rng.uniform(theta_lo, theta_hi),
                                    rng.uniform(0, 2 * math.pi))
            yield p, rng.uniform(0.5, a_hi)

    def surface_error(p, a):
        v = geometry.embed(p, a)
        return abs(geometry.inner(v, v) + a * a) / (a * a)

    on_surface = _worst([surface_error(p, a) for p, a in samples(100, 0.01, a_hi=3.0)])
    tangent = _worst([abs(geometry.inner(geometry.embed(p, a), k))
                      for p, a in samples(50, 0.1)
                      for k in geometry.killing_pushforward(p, a)])
    ambient = _worst([np.abs(k - geometry.ambient_killing(i + 1, geometry.embed(p, a)))
                      for p, a in samples(50, 0.2)
                      for i, k in enumerate(geometry.killing_pushforward(p, a))])

    h = 1e-5

    def killing_residual(p, a, i):
        # Killing equation: d_a K_b - Gamma^c_ab K_c, symmetrized, K lowered
        def k_low(t, ph):
            g = geometry.induced_metric(t, a)
            return g @ geometry.killing_fields(geometry.ChartPoint(t, ph))[i]

        th, ph = p.theta, p.phi
        dk = np.array([(k_low(th + h, ph) - k_low(th - h, ph)) / (2 * h),
                       (k_low(th, ph + h) - k_low(th, ph - h)) / (2 * h)])
        cov = dk - np.einsum("cab,c->ab", geometry.christoffel(p), k_low(th, ph))
        return np.abs(cov + cov.T)

    killing = _worst([killing_residual(p, a, i)
                      for p, a in samples(50, 0.3, theta_hi=2.5) for i in range(3)])
    curvature = _worst([abs(geometry.scalar_curvature(1.0) + 2.0),
                        abs(geometry.scalar_curvature(2.0) + 0.5) * 4])
    return [
        ("embedding_on_surface", 1e-12, on_surface),
        ("killing_fields_tangent", 1e-10, tangent),
        ("ambient_generators_match_killing", 1e-9, ambient),
        ("killing_equation_residual", 1e-7, killing, "finite differences, O(h^2) at h=1e-5"),
        ("scalar_curvature", 1e-6, curvature, "R = -2/a^2 at a = 1 and a = 2"),
    ]


# -- classical_sim ------------------------------------------------------


def checks_classical(cfg: RunConfig, faults: tuple) -> list:
    a, m = cfg.a, cfg.m
    s0 = classical.EmbeddedState(np.array([0.0, 0.0, a]), np.array([1.0, 0.0, 0.0]))

    def closed_form_error(t, x):
        return np.abs(x - classical.closed_form_geodesic(s0, m, a, t).x)

    rec = classical.integrate_embedded(s0, m, a, cfg.dt, cfg.T,
                                       projection=cfg.projection)
    geodesic = _worst([closed_form_error(t, x) for t, x in zip(rec.t, rec.x)])

    def endpoint_error(dt):
        r = classical.integrate_embedded(s0, m, a, dt, cfg.T,
                                         projection=cfg.projection,
                                         sample_every=10 ** 9)
        return _worst(closed_form_error(r.t[-1], r.x[-1]))

    e_coarse = endpoint_error(4 * cfg.dt)
    e_fine = endpoint_error(2 * cfg.dt)
    rk4_order = _order(e_coarse, e_fine)

    drift = rec.drift(a)
    # J.J = a^2 p.p is exact on-shell only; test it on states that are
    # on-shell to machine precision (trajectory samples carry the
    # projection noise floor, which enters this identity linearly)
    rng_hj = np.random.default_rng(cfg.seed + 7)
    hj_err = []
    for _ in range(100):
        si_r = classical.IntrinsicState(
            rng_hj.uniform(0.1, 3.0), rng_hj.uniform(0, 2 * math.pi),
            rng_hj.normal(), rng_hj.normal())
        xr, pr = classical.intrinsic_to_embedded(si_r, m, a)
        hd = classical.hamiltonian(pr, m)
        hjv = classical.hamiltonian_from_j(classical.angular_momenta(xr, pr), m, a)
        hj_err.append(abs(hjv - hd) / max(abs(hd), 1e-30))

    si = classical.IntrinsicState(0.7, 1.1, 0.4, 0.3)
    x0, pp0 = classical.intrinsic_to_embedded(si, m, a)
    rec_e = classical.integrate_embedded(classical.EmbeddedState(x0, pp0), m, a,
                                         cfg.dt, 5.0, projection=cfg.projection)
    rec_i = classical.integrate_intrinsic(si, a, cfg.dt, 5.0, m=m)
    nsamp = min(len(rec_e.t), len(rec_i.t))
    cross = _worst(np.abs(rec_e.x[:nsamp] - rec_i.x[:nsamp]))

    rng = np.random.default_rng(cfg.seed)
    energies = []
    for _ in range(10 ** 4):
        x2d = rng.normal(scale=2.0, size=2)
        p2d = rng.normal(scale=2.0, size=2)
        energies.append((classical.energy_reduced(x2d, p2d, m, a),
                         classical.energy_direct(x2d, p2d, m, a)))
    h_red, h_dir = np.array(energies).T
    return [
        ("geodesic_vs_closed_form", 1e-8 * a, geodesic, f"T={cfg.T}, dt={cfg.dt}"),
        ("rk4_order", 0.8, abs(rk4_order - 4.0),
         f"halving ratio {e_coarse / max(e_fine, 1e-300):.1f}"),
        ("conservation_H", cfg.tol_drift, drift["max_H_drift"]),
        ("conservation_J", cfg.tol_drift, drift["max_J_drift"]),
        ("hamiltonian_from_j", 1e-10, _worst(hj_err)),
        ("constraint_residuals", cfg.tol_constraint, drift["max_constraint_residual"]),
        ("embedded_vs_intrinsic", 1e-6 * a, cross),
        # the largest violation of H >= 0, counting from H = 0
        ("energy_lower_bound", 1e-12, -np.min(h_red, initial=0.0),
         "10^4 random on-shell states"),
        ("energy_forms_agree", 1e-12,
         _worst(np.abs(h_red - h_dir) / np.maximum(np.abs(h_dir), 1e-30))),
    ]


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


def checks_spectral(cfg: RunConfig, faults: tuple) -> list:
    a, m, hbar = cfg.a, cfg.m, cfg.hbar
    drop_hermitian_term = "drop_hermitian_term" in faults

    gamma = _worst([gamma_identity_error(lam) for lam in np.linspace(0.0, 20.0, 81)])

    thetas = (0.3, 0.7, 1.1, 1.6, 2.5)
    p0_err = _worst([_rel_err(val, conical_p0_oracle(lam, th))
                     for lam in (0.25, 0.5, 1.0, 2.0, 4.0)
                     for th, val in zip(thetas, radial_profiles(lam, 0, thetas)[0])])

    thetas = (0.5, 1.0, 2.0)
    pn_err = []
    for lam in (0.5, 1.0, 2.0):
        profiles = radial_profiles(lam, 5, thetas)
        pn_err += [_rel_err(val, conical_pn_oracle(lam, n, th)) for n in range(-5, 6)
                   for th, val in zip(thetas, profile_row(profiles, lam, n))]

    g = Grid(cfg.theta_min, cfg.theta_max, cfg.n_theta, cfg.n_phi)
    g2 = Grid(cfg.theta_min, cfg.theta_max, (cfg.n_theta - 1) // 2 + 1, cfg.n_phi)

    residual = {(lam, n): eigen_residual(g, SpectralMode(lam, n), a, m, hbar, psi=psi)
                for lam in (0.5, 1.0, 2.0)
                for n, psi in zip((0, 1, 2), sample_modes(g, lam, (0, 1, 2)))}
    p_order = _order(eigen_residual(g2, SpectralMode(1.0, 1), a, m, hbar),
                     residual[1.0, 1])

    ov = abs(mode_overlap(g2, SpectralMode(1.0, 0), SpectralMode(1.0, 1)))

    fa = _rich_test_function(g2, cfg.seed + 1)
    fb = _rich_test_function(g2, cfg.seed + 2)
    na, nb = norm(g2, fa), norm(g2, fb)

    def asymmetry(op):
        """|<fa, op fb> - conj <fb, op fa>| relative to |fa| |fb|."""
        return abs(inner_product(g2, fa, op(fb))
                   - np.conj(inner_product(g2, fb, op(fa)))) / (na * nb)

    j_herm = _worst([asymmetry(lambda f: apply_j(i, g2, f, hbar)) for i in (1, 2, 3)])
    h_herm = asymmetry(lambda f: laplace_beltrami(g2, f, a, m, hbar))
    p_herm = _worst([asymmetry(lambda f: apply_p(i, g2, f, a, hbar,
                                                 drop_hermitian_term=drop_hermitian_term))
                     for i in (1, 2, 3)])

    f = _rich_test_function(g2, cfg.seed + 3)
    fscale = _worst(np.abs(f))

    def closure_worst(grid, ff):
        # [J^i, J^j] = i hbar eps_{ijk} J_k for the quantized J = J_SIGN * apply_j
        def defect(i, j, k):
            s = 1j * geometry.EPS[i - 1, j - 1, k - 1] * geometry.METRIC[k - 1] * geometry.J_SIGN
            c = (apply_j(i, grid, apply_j(j, grid, ff, hbar), hbar)
                 - apply_j(j, grid, apply_j(i, grid, ff, hbar), hbar))
            return np.abs(interior(grid, c - s * hbar * apply_j(k, grid, ff, hbar), 2))
        return _worst([defect(*ijk) for ijk in ((1, 2, 3), (2, 3, 1), (3, 1, 2))])

    cl_c = closure_worst(g2, f)
    cl_f = closure_worst(g, _rich_test_function(g, cfg.seed + 3))
    cl_order = _order(cl_c, cl_f)

    cas = _worst(np.abs(interior(g2, casimir_xj(g2, f, a, hbar), 2)))

    hv = apply_h_via_j(g2, f, a, m, hbar)
    hd = laplace_beltrami(g2, f, a, m, hbar)
    hscale = max(_worst(np.abs(interior(g2, hd, 2))), 1e-30)
    dh = _worst(np.abs(interior(g2, hv - hd, 2))) / hscale
    return [
        ("gamma_identity", 1e-10, gamma, "|Gamma(1/2+i lam)|^2 = pi/cosh(pi lam)"),
        ("conical_p0_vs_oracle", 1e-10, p0_err, "5x5 (lam, theta) grid"),
        ("conical_recurrence_vs_oracle", 1e-8, _worst(pn_err), "n in [-5, 5]"),
        ("eigen_residual", cfg.tol_eigen, _worst(list(residual.values())),
         f"(lam, n) grid at h={g.h:.1e}"),
        ("eigen_residual_order", 0.2, abs(p_order - 2.0), f"measured order {p_order:.2f}"),
        ("phi_orthogonality", 1e-12, ov),
        ("j_hermiticity", 1e-12, j_herm, "exact by the weighted skew stencil"),
        ("h_hermiticity", 1e-12, h_herm, "summation-by-parts of the conservative stencil"),
        ("p_hermiticity", 5e-4, p_herm, "O(h^2) defect from the discrete [J, x] commutators"),
        ("j_commutator_closure", 1e-3, cl_f / fscale,
         f"[J^i, J^j] = -i hbar eps J, order {cl_order:.2f}"),
        ("j_commutator_closure_order", 0.5, abs(cl_order - 2.0)),
        ("casimir_xj_annihilation", 1e-10, cas / fscale, "x.J f = 0 pointwise"),
        ("h_via_j_vs_direct", 2e-4, dh, "H = J.J/(2 m a^2)"),
    ]


# -- top level ----------------------------------------------------------


def run_verification(cfg: RunConfig, only: str | None = None,
                     faults: tuple = ()) -> Report:
    for f in faults:
        if f not in FAULTS:
            raise ValueError(f"unknown fault {f!r}; known: {FAULTS}")
    if only is not None and only not in MODULES:
        raise ValueError(f"unknown module {only!r}; known: {MODULES}")
    # looked up when called, so a wrapper patched over a suite sees the call
    suites = {
        "phase_algebra": lambda: checks_phase_algebra(cfg, faults),
        "geometry": lambda: checks_geometry(cfg, faults),
        "classical_sim": lambda: checks_classical(cfg, faults),
        "spectral": lambda: checks_spectral(cfg, faults),
    }
    report = Report(seed=cfg.seed)
    for module in MODULES:
        if only in (None, module):
            report.checks += [CheckResult(module, *record) for record in suites[module]()]
    return report
