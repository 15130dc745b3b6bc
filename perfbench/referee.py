"""Correctness checks made apart from the package.

Nothing here imports ``hyperboloid``: the printed brackets are evaluated
by the small float evaluator below (not ``parse_expr`` or
``PhaseExpr.eval``), the spectral samples are compared with mpmath's
conical functions (not ``conical_*_oracle``), and trajectories with a
closed form written out here (not ``closed_form_geodesic``).  Each
``check_*`` raises ``Rejected`` on the first disagreement; each
``corrupt_*`` makes the one-entry corruption that the matching check
must reject.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from workloads import (A, DT, GRID_H, HBAR, M, T, THETA_MAX, THETA_MIN,
                       TOL_EIGEN)


class Rejected(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise Rejected(message)


# -- derive -------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")


def evaluate(text: str, env: dict) -> float:
    """Float value of a printed expression: integers, names from env,
    + - * / ^ and parentheses, with the usual precedence and a
    right-associative ^."""
    tokens = []
    for num, name, op in _TOKEN.findall(text):
        tokens.append(("n", float(num)) if num else ("v", env[name]) if name
                      else (op, None))
    tokens.append(("end", None))
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        val = term()
        while tokens[pos][0] in "+-":
            val = val + term() if take()[0] == "+" else val - term()
        return val

    def term():
        val = factor()
        while tokens[pos][0] in "*/":
            val = val * factor() if take()[0] == "*" else val / factor()
        return val

    def factor():
        if tokens[pos][0] in "+-":
            return factor() if take()[0] == "+" else -factor()
        val = atom()
        if tokens[pos][0] == "^":
            take()
            return val ** factor()
        return val

    def atom():
        kind, val = take()
        if kind in "nv":
            return val
        _require(kind == "(", f"unexpected token {kind!r} in {text!r}")
        val = expr()
        _require(take()[0] == ")", f"unbalanced parentheses in {text!r}")
        return val

    val = expr()
    _require(tokens[pos][0] == "end", f"trailing input in {text!r}")
    return val


def _perm(i, j, k) -> int:
    """Sign of the permutation (i, j, k) of (1, 2, 3), else 0."""
    return (i - j) * (j - k) * (k - i) // 2


def expected_dirac_table(pt: dict) -> dict:
    """The paper's closed forms, with x_i = g_ij x^j, g = diag(1, 1, -1),
    lower-index p, J^i = -eps^{ijk} x_j p_k and eps^{123} = -1:
    {x^i, x^j} = 0, {x^i, p_j} = delta + x^i x_j/a^2,
    {p_i, p_j} = (x_i p_j - x_j p_i)/a^2, {J^i, x^j} = -eps^{ijk} x_k,
    {J^i, J^j} = -eps^{ijk} J_k."""
    a2 = pt["a"] ** 2
    xu = {1: pt["x"], 2: pt["y"], 3: pt["z"]}
    xl = {1: pt["x"], 2: pt["y"], 3: -pt["z"]}
    p = {1: pt["p_x"], 2: pt["p_y"], 3: pt["p_z"]}
    ju = {i: sum(_perm(i, j, k) * xl[j] * p[k] for j in xu for k in xu) for i in xu}
    jl = {1: ju[1], 2: ju[2], 3: -ju[3]}
    table = {}
    for i in xu:
        for j in xu:
            table[f"x{i},x{j}"] = 0.0
            table[f"x{i},p{j}"] = (i == j) + xu[i] * xl[j] / a2
            table[f"p{i},p{j}"] = (xl[i] * p[j] - xl[j] * p[i]) / a2
            table[f"J{i},x{j}"] = sum(_perm(i, j, k) * xl[k] for k in xu)
            table[f"J{i},J{j}"] = sum(_perm(i, j, k) * jl[k] for k in xu)
    return table


def _close(got: float, want: float, what: str, tol: float = 1e-9):
    _require(abs(got - want) <= tol * (1.0 + abs(want)),
             f"{what}: {got!r} != {want!r}")


def check_derive(text: str, rc: int, points: list):
    _require(rc == 0, f"derive exited {rc}")
    doc = json.loads(text)
    _require(doc["identities_checked"] == 60,
             f"identities_checked = {doc['identities_checked']}")
    _require(doc["identities_failed"] == [],
             f"identities_failed = {doc['identities_failed']}")
    for pt in points:
        want = expected_dirac_table(pt)
        _require(sorted(doc["dirac_table"]) == sorted(want), "dirac_table keys")
        for key, val in want.items():
            _close(evaluate(doc["dirac_table"][key], pt), val, f"{{{key}}}")
        m = np.array([[evaluate(e, pt) for e in row] for row in doc["M"]])
        minv = np.array([[evaluate(e, pt) for e in row] for row in doc["M_inv"]])
        _require(m.shape == (4, 4) and np.allclose(m, -m.T, rtol=0, atol=1e-12),
                 "M is not antisymmetric")
        scale = 1.0 + np.abs(m).max() * np.abs(minv).max()
        _require(np.abs(m @ minv - np.eye(4)).max() <= 1e-12 * scale,
                 "M M^-1 != I")
        for k, c in enumerate(doc["constraints"]):
            _close(evaluate(c, pt), 0.0, f"C{k + 1} on shell")
        for key, val in doc["casimirs"].items():
            _close(evaluate(val, pt), -pt["a"] ** 2 if key == "x.x" else 0.0, key)


def corrupt_derive(text: str) -> str:
    doc = json.loads(text)
    doc["dirac_table"]["x1,p1"] = f"-({doc['dirac_table']['x1,p1']})"
    return json.dumps(doc)


# -- spectrum -----------------------------------------------------------

SPECTRUM_HEADER = "lambda,n,theta,psi_real,psi_imag,eigen_residual,E"


def spectrum_thetas() -> np.ndarray:
    """The CSV rows of each mode: every stride-th node of the default
    theta grid, as the CLI documents them."""
    n_theta = int(round((THETA_MAX - THETA_MIN) / GRID_H)) + 1
    stride = max(1, (n_theta - 1) // 24)
    return np.linspace(THETA_MIN, THETA_MAX, n_theta)[::stride]


def spectrum_reference(lams, ns) -> dict:
    """N P^n_{-1/2+i lam}(cosh theta) from mpmath for every expected row,
    N = sqrt(2 pi/(lam tanh(pi lam))) Gamma(1/2+i lam)/Gamma(1/2+n+i lam)."""
    import mpmath
    ref = {}
    with mpmath.workdps(15):
        for lam in lams:
            for n in ns:
                nu = mpmath.mpc(-0.5, lam)
                norm = (mpmath.sqrt(2 * mpmath.pi / (lam * mpmath.tanh(mpmath.pi * lam)))
                        * mpmath.gamma(mpmath.mpc(0.5, lam))
                        / mpmath.gamma(mpmath.mpc(0.5 + n, lam)))
                ref[(lam, n)] = [
                    complex(norm * mpmath.legenp(nu, n, mpmath.cosh(th), type=3))
                    for th in spectrum_thetas()]
    return ref


def check_spectrum(text: str, rc: int, lams, ns, ref: dict):
    """Every row within 1e-8 relative of mpmath; near a zero of the
    conical function the relative scale is floored at 1e-3 of the
    mode's largest sample, so rounding there cannot fail a correct row."""
    _require(rc == 0, f"spectrum exited {rc}")
    lines = text.splitlines()
    _require(lines[0] == SPECTRUM_HEADER, f"header {lines[0]!r}")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    thetas = spectrum_thetas()
    _require(len(rows) == len(lams) * len(ns) * len(thetas), f"{len(rows)} rows")
    it = iter(rows)
    for lam in lams:
        for n in ns:
            want = ref[(lam, n)]
            floor = 1e-3 * max(abs(w) for w in want)
            energy = HBAR ** 2 * (lam * lam + 0.25) / (2 * M * A * A)
            for th, w in zip(thetas, want):
                r_lam, r_n, r_th, re_, im_, res, e = next(it)
                where = f"(lam={lam}, n={n}, theta={th:.3f})"
                _require(float(r_lam) == lam and int(r_n) == n
                         and abs(float(r_th) - th) <= 1e-12, f"row order at {where}")
                psi = complex(float(re_), float(im_))
                _require(abs(psi - w) <= 1e-8 * max(abs(w), floor),
                         f"psi {psi!r} vs mpmath {w!r} at {where}")
                _close(float(e), energy, f"E at {where}", tol=1e-13)
                _require(float(res) <= TOL_EIGEN, f"eigen_residual {res} at {where}")


def corrupt_spectrum(text: str) -> str:
    """Scale psi by 1 + 1e-6 in the row of largest |psi|."""
    lines = text.splitlines()
    k = max(range(1, len(lines)), key=lambda i: abs(complex(
        *map(float, lines[i].split(",")[3:5]))))
    f = lines[k].split(",")
    f[3], f[4] = (repr(float(v) * (1 + 1e-6)) for v in f[3:5])
    lines[k] = ",".join(f)
    return "\n".join(lines) + "\n"


# -- simulate -----------------------------------------------------------

SIMULATE_HEADER = ("t,x,y,z,p_x,p_y,p_z,theta,phi,H,J1,J2,J3,"
                   "C2_residual,C3_residual")


def check_simulate(text: str, rc: int, x0, p0):
    """Every sample close to x0 cosh(st) + (u/s) sinh(st), u = p0^i/m,
    s = sqrt(u.u)/a, and on the hyperboloid.

    Close means within 1e-8 a plus 1e-11 of the sample's size: fixed-step
    RK4 at dt = 1e-3 keeps about 1e-12 relative accuracy, and from
    theta0 = 1 at unit speed the position reaches ~3e4 by t = 10, where
    1e-8 absolute would ask for 3e-13.  |x.x + a^2| is evaluated in
    extended precision and allowed the rounding floor of the printed
    doubles on top of 1e-8 a^2, since rounding components of ~3e4 to
    double alone moves x.x by more than 1e-8."""
    _require(rc == 0, f"simulate exited {rc}")
    header, _, body = text.partition("\n")
    _require(header == SIMULATE_HEADER, f"header {header!r}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    n_rows = int(round(T / DT)) + 1
    _require(data.shape == (n_rows, 15), f"shape {data.shape}")
    t = data[:, 0]
    _require(np.abs(t - DT * np.arange(n_rows)).max() <= 1e-9, "time column")
    u = np.asarray(p0) * np.array([1.0, 1.0, -1.0]) / M
    s = math.sqrt(u[0] ** 2 + u[1] ** 2 - u[2] ** 2) / A
    want = (np.asarray(x0)[None, :] * np.cosh(s * t)[:, None]
            + (u / s)[None, :] * np.sinh(s * t)[:, None])
    excess = (np.abs(data[:, 1:4] - want).max(axis=1)
              - 1e-8 * A - 1e-11 * np.abs(want).max(axis=1))
    k = int(excess.argmax())
    _require(excess[k] <= 0, f"x off the closed form by "
             f"{np.abs(data[k, 1:4] - want[k]).max():.3e} at t={t[k]}")
    x = data[:, 1:4].astype(np.longdouble)
    c2 = np.abs(x[:, 0] ** 2 + x[:, 1] ** 2 - x[:, 2] ** 2 + A * A)
    floor = 4 * np.finfo(float).eps * (x * x).sum(axis=1)
    _require(bool(np.all(c2 <= 1e-8 * A * A + floor)), "x.x != -a^2")


def corrupt_simulate(text: str) -> str:
    """Shift the x coordinate of the middle sample by 1e-6."""
    lines = text.split("\n")
    k = (len(lines) - 1) // 2
    f = lines[k].split(",")
    f[1] = repr(float(f[1]) + 1e-6)
    lines[k] = ",".join(f)
    return "\n".join(lines)


# -- verify-warm --------------------------------------------------------

VERIFY_CHECKS = sorted(
    [f"phase_algebra.{n}" for n in (
        "constraint_chain", "bracket_matrix", "bracket_matrix_inverse",
        "matrix_times_inverse_is_identity", "iso12_closure")]
    + [f"geometry.{n}" for n in (
        "embedding_on_surface", "killing_fields_tangent",
        "ambient_generators_match_killing", "killing_equation_residual",
        "scalar_curvature")]
    + [f"classical_sim.{n}" for n in (
        "geodesic_vs_closed_form", "rk4_order", "conservation_H",
        "conservation_J", "hamiltonian_from_j", "constraint_residuals",
        "embedded_vs_intrinsic", "energy_lower_bound", "energy_forms_agree")]
    + [f"spectral.{n}" for n in (
        "gamma_identity", "conical_p0_vs_oracle", "conical_recurrence_vs_oracle",
        "eigen_residual", "eigen_residual_order", "phi_orthogonality",
        "j_hermiticity", "h_hermiticity", "p_hermiticity",
        "j_commutator_closure", "j_commutator_closure_order",
        "casimir_xj_annihilation", "h_via_j_vs_direct")])


def check_verify(text: str, seed: int):
    doc = json.loads(text)
    _require(doc["seed"] == seed, f"report seed {doc['seed']} != {seed}")
    names = sorted(f"{c['module']}.{c['name']}" for c in doc["checks"])
    _require(names == VERIFY_CHECKS, "check names differ from the 32 expected")
    for c in doc["checks"]:
        _require(c["passed"] and c["measured"] <= c["tolerance"],
                 f"{c['module']}.{c['name']} failed: {c['measured']} > {c['tolerance']}")
    _require(doc["passed"] is True, "report not passed")


def corrupt_verify(text: str) -> str:
    doc = json.loads(text)
    doc["seed"] += 1
    return json.dumps(doc)
