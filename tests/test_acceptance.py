"""Acceptance gate: one criterion per test, one printed pass/fail line each."""

import math
import sys
import time

import numpy as np
import pytest

from hyperboloid import brackets, classical
from hyperboloid.brackets import (
    angular_j, constraint_chain, bracket_matrix, coord, dirac_bracket,
    momentum, reduce_on_shell, verify_iso12,
)
from hyperboloid.classical import (
    EmbeddedState, IntrinsicState, closed_form_geodesic, integrate_embedded,
    integrate_intrinsic, intrinsic_to_embedded,
)
from hyperboloid.cli import main
from hyperboloid.conical import (
    complex_gamma, conical_p0, conical_p0_oracle, conical_pn,
    conical_pn_oracle,
)
from hyperboloid.expr import parse_expr
from hyperboloid.grid import (
    Grid, SpectralMode, apply_h_via_j, apply_j, apply_p, bump, casimir_xj,
    eigen_residual, inner_product, interior, laplace_beltrami, norm,
)

APEX = np.array([0.0, 0.0, 1.0])
PX = np.array([1.0, 0.0, 0.0])


def _line(num, desc, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status} - {desc}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def chain():
    return constraint_chain()


@pytest.fixture(scope="module")
def apex_run():
    s0 = EmbeddedState(APEX.copy(), PX.copy())
    return s0, integrate_embedded(s0, 1.0, 1.0, 1e-3, 10.0, projection=True)


def test_criterion_1_constraint_chain(chain):
    t0 = time.monotonic()
    expected = [
        parse_expr("p_lam"),
        parse_expr("z^2 - x^2 - y^2 - a^2"),
        parse_expr("x*p_x + y*p_y + z*p_z"),
        brackets.extended_hamiltonian()
        + parse_expr("2*lam") * chain[1] + parse_expr("lam*a^2"),
    ]
    # printed normal forms round-trip to the expected expressions
    ok = len(chain) == 4 and all(
        parse_expr(str(c)) == e for c, e in zip(chain, expected))
    ok = ok and (time.monotonic() - t0) < 1.0
    _line(1, "constraint chain reproduces the four constraints, < 1 s", ok)


def test_criterion_2_bracket_matrix(chain):
    t0 = time.monotonic()
    bm = bracket_matrix(chain)
    psq = "(p_x^2 + p_y^2 - p_z^2)"
    expected = {
        (0, 3): "-a^2", (1, 2): "2*a^2", (2, 3): f"2*{psq}/m",
    }
    expected_inv = {
        (0, 1): f"{psq}/(m*a^4)", (0, 3): "1/a^2", (1, 2): "-1/(2*a^2)",
    }
    ok = all(bm.entry(i, j) == parse_expr(t) for (i, j), t in expected.items())
    ok = ok and all(bm.inv_entry(i, j) == parse_expr(t)
                    for (i, j), t in expected_inv.items())
    one, zero = parse_expr("1"), parse_expr("0")
    for i in range(4):
        for j in range(4):
            acc = zero
            for k in range(4):
                acc = acc + bm.entry(i, k) * bm.inv_entry(k, j)
            ok = ok and acc == (one if i == j else zero)
    ok = ok and (time.monotonic() - t0) < 1.0
    _line(2, "M, M^-1 entries match and M*M^-1 = I exactly, < 1 s", ok)


def test_criterion_3_dirac_algebra(chain):
    t0 = time.monotonic()
    bm = bracket_matrix(chain)
    ok = True
    for i in range(1, 4):
        for j in range(1, 4):
            ok = ok and dirac_bracket(coord(i), coord(j), bm).is_zero()
    ok = ok and dirac_bracket(coord(1), momentum(1), bm) == \
        reduce_on_shell(parse_expr("1 + x^2/a^2"))
    ok = ok and dirac_bracket(momentum(1), momentum(2), bm) == \
        reduce_on_shell(parse_expr("(x*p_y - y*p_x)/a^2"))
    ok = ok and dirac_bracket(angular_j(3), coord(1), bm) == parse_expr("y")
    report = verify_iso12(bm)
    ok = ok and report.passed and len(report.checks) == 60
    xx = reduce_on_shell(parse_expr("x^2 + y^2 - z^2"))
    xj = reduce_on_shell(sum(
        (coord(i) * brackets.angular_j_lower(i) for i in range(1, 4)),
        parse_expr("0")))
    for i in range(1, 4):
        ok = ok and brackets.is_zero_on_shell(
            dirac_bracket(xx, angular_j(i), bm))
        ok = ok and brackets.is_zero_on_shell(
            dirac_bracket(xj, angular_j(i), bm))
    ok = ok and (time.monotonic() - t0) < 5.0
    _line(3, "Dirac brackets and Casimir centrality hold on-shell, < 5 s", ok)


def test_criterion_4_rk4_vs_oracle(apex_run):
    t0 = time.monotonic()
    s0, rec = apex_run

    def final_err(dt):
        r = integrate_embedded(s0, 1, 1, dt, 10.0, sample_every=10 ** 9)
        ref = closed_form_geodesic(s0, 1, 1, r.t[-1])
        return float(np.max(np.abs(r.x[-1] - ref.x)))

    worst = max(
        float(np.max(np.abs(rec.x[k] - closed_form_geodesic(s0, 1, 1, rec.t[k]).x)))
        for k in range(0, len(rec.t), 10))
    ratio = final_err(4e-3) / final_err(2e-3)
    ok = worst <= 1e-8 and 8 <= ratio <= 32
    ok = ok and (time.monotonic() - t0) < 10.0
    _line(4, f"RK4 error {worst:.2e} <= 1e-8 a, halving ratio {ratio:.1f} ~ 16",
          ok)


def test_criterion_5_conservation(apex_run):
    _, rec = apex_run
    h_drift = float(np.max(np.abs(rec.H - rec.H[0]))) / abs(rec.H[0])
    j_drift = float(np.max(np.abs(rec.J - rec.J[0])))
    c_worst = max(float(np.max(rec.c2_residual)), float(np.max(rec.c3_residual)))
    si = IntrinsicState(0.7, 1.1, 0.4, 0.3)
    x0, p0 = intrinsic_to_embedded(si, 1.0, 1.0)
    rec_e = integrate_embedded(EmbeddedState(x0, p0), 1, 1, 1e-3, 5.0)
    rec_i = integrate_intrinsic(si, 1.0, 1e-3, 5.0)
    n = min(len(rec_e.t), len(rec_i.t))
    cross = float(np.max(np.abs(rec_e.x[:n] - rec_i.x[:n])))
    ok = (h_drift <= 1e-8 and j_drift <= 1e-8 and c_worst <= 1e-8
          and cross <= 1e-6)
    _line(5, f"drift H {h_drift:.1e}, J {j_drift:.1e}, constraints "
             f"{c_worst:.1e} <= 1e-8; integrators agree to {cross:.1e}", ok)


def test_criterion_6_energy_bound():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(10 ** 4):
        x2d = rng.normal(scale=2, size=2)
        p2d = rng.normal(scale=2, size=2)
        hr = classical.energy_reduced(x2d, p2d, 1.0, 1.0)
        hd = classical.energy_direct(x2d, p2d, 1.0, 1.0)
        ok = ok and hr >= -1e-12
        ok = ok and abs(hr - hd) <= 1e-12 * max(abs(hd), 1.0)
    _line(6, "10^4 on-shell states: H >= -1e-12, factored = direct to 1e-12",
          ok)


def test_criterion_7_eigen_residuals():
    t0 = time.monotonic()
    g = Grid(0.1, 3.0, 2901, 16)   # h = 1e-3
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for n in (0, 1, 2):
            worst = max(worst, eigen_residual(g, SpectralMode(lam, n)))
    # (1, 1) is built on P^1 alone (the P^-1 sum); the other rows see the P^0 sum
    orders = [math.log2(eigen_residual(Grid(0.1, 3.0, 1451, 16), SpectralMode(lam, n))
                        / eigen_residual(g, SpectralMode(lam, n)))
              for lam, n in ((1.0, 1), (0.5, 0), (1.0, 0), (2.0, 0), (1.0, 2))]
    order = max(orders, key=lambda o: abs(o - 2.0))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and abs(order - 2.0) < 0.2 and elapsed < 60.0
    _line(7, f"eigen-residual {worst:.2e} < 1e-4 at h = 1e-3, order "
             f"{order:.2f} = 2 +- 0.2, {elapsed:.0f} s < 60 s", ok)


def test_criterion_8_operator_identities():
    def rich(g):
        rng = np.random.default_rng(23)
        f = np.zeros((g.n_theta, g.n_phi), dtype=complex)
        for n in (-2, -1, 0, 1, 3):
            c = rng.normal() + 1j * rng.normal()
            f += c * bump(g, rng.uniform(1.3, 1.8), 0.2, n)
        return f

    def residuals(n_theta):
        g = Grid(0.1, 3.0, n_theta, 16)
        f = rich(g)
        scale = np.max(np.abs(f))
        comm = (apply_j(1, g, apply_j(2, g, f))
                - apply_j(2, g, apply_j(1, g, f)) - 1j * apply_j(3, g, f))
        r_close = np.max(np.abs(interior(g, comm, 2))) / scale
        r_cas = np.max(np.abs(interior(g, casimir_xj(g, f), 2))) / scale
        hv = apply_h_via_j(g, f) - laplace_beltrami(g, f)
        r_h = np.max(np.abs(interior(g, hv, 2))) / scale
        f2 = rich(g) * np.exp(1j * 0.3)   # second test function
        lhs = inner_product(g, apply_p(1, g, f), f2)
        rhs = inner_product(g, f, apply_p(1, g, f2))
        r_p = abs(lhs - rhs) / max(abs(lhs), 1.0)
        return np.array([r_close, r_cas, r_h, r_p])

    coarse, fine = residuals(146), residuals(291)
    orders = np.log2(coarse / fine)
    # the Casimir identity is exact on the grid (machine floor at any h),
    # so it is bounded rather than order-checked
    ok = bool(np.all(np.abs(orders[[0, 2, 3]] - 2.0) < 0.7))
    ok = ok and fine[1] < 1e-12
    g = Grid(0.1, 3.0, 291, 16)
    f, f2 = rich(g), rich(g) * 1j
    lhs = inner_product(g, apply_p(1, g, f, drop_hermitian_term=True), f2)
    rhs = inner_product(g, f, apply_p(1, g, f2, drop_hermitian_term=True))
    bad = abs(lhs - rhs) / max(abs(lhs), 1.0)
    ok = ok and bad > 50 * fine[3]
    _line(8, f"closure/H-via-J/p-hermiticity orders "
             f"{np.round(orders[[0, 2, 3]], 2)} ~ 2, Casimir exact at "
             f"{fine[1]:.1e}; negative control defect {bad:.1e} >> "
             f"{fine[3]:.1e}", ok)


def test_criterion_9_special_functions():
    worst_p0 = max(
        abs(conical_p0(lam, th) - conical_p0_oracle(lam, th))
        / abs(conical_p0_oracle(lam, th))
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0)
        for th in (0.3, 0.7, 1.1, 1.6, 2.5))
    worst_g = max(
        abs(abs(complex_gamma(complex(0.5, lam))) ** 2
            - math.pi / math.cosh(math.pi * lam))
        / (math.pi / math.cosh(math.pi * lam))
        for lam in np.linspace(0.0, 20.0, 81))
    worst_pn = max(
        abs(conical_pn(lam, n, th) - conical_pn_oracle(lam, n, th))
        / max(abs(conical_pn_oracle(lam, n, th)), 1e-6)
        for lam in (0.5, 1.0, 2.0)
        for n in range(6)
        for th in (0.3, 0.7, 1.2, 2.0))
    ok = worst_p0 < 1e-10 and worst_g < 1e-10 and worst_pn < 1e-8
    _line(9, f"p0 vs oracle {worst_p0:.1e} < 1e-10, Gamma identity "
             f"{worst_g:.1e} < 1e-10, orders <= 5 {worst_pn:.1e} < 1e-8", ok)


def test_criterion_10_verify_exit_codes(capsys):
    code0 = main(["verify"])
    out0 = capsys.readouterr().out
    import json
    ok = code0 == 0 and json.loads(out0)["passed"] is True

    code1 = main(["verify", "--only", "phase_algebra",
                  "--inject-fault", "epsilon_sign"])
    doc1 = json.loads(capsys.readouterr().out)
    failed1 = [c["name"] for c in doc1["checks"] if not c["passed"]]
    ok = ok and code1 == 1 and "iso12_closure" in failed1

    code2 = main(["verify", "--only", "spectral",
                  "--inject-fault", "drop_hermitian_term"])
    doc2 = json.loads(capsys.readouterr().out)
    failed2 = [c["name"] for c in doc2["checks"] if not c["passed"]]
    ok = ok and code2 == 1 and any("p_hermiticity" in n for n in failed2)
    _line(10, "verify exits 0 on defaults; each fault flips to 1 naming "
              "the broken check", ok)
