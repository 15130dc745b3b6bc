"""Poisson brackets, the constraint chain, and the Dirac-bracket algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperboloid import brackets, classical, geometry
from hyperboloid.brackets import (
    MOMENTUM_NAMES, ConstraintError, angular_j, bracket_matrix,
    constraint_chain, coord, dirac_bracket, extended_hamiltonian,
    is_zero_on_shell, momentum, poisson, reduce_on_shell, verify_iso12,
)
from hyperboloid.expr import ExprError, PhaseExpr, parse_expr


@pytest.fixture(scope="module")
def cs():
    return constraint_chain()


@pytest.fixture(scope="module")
def bm(cs):
    return bracket_matrix(cs)


# -- Poisson bracket ---------------------------------------------------


def test_canonical_pairs():
    assert poisson(parse_expr("x"), parse_expr("p_x")) == parse_expr("1")
    assert poisson(parse_expr("lam"), parse_expr("p_lam")) == parse_expr("1")
    assert poisson(parse_expr("x"), parse_expr("p_y")).is_zero()


def test_c2_c3_bracket():
    c2 = parse_expr("z^2 - x^2 - y^2 - a^2")
    c3 = parse_expr("x*p_x + y*p_y + z*p_z")
    out = poisson(c2, c3)
    assert out == parse_expr("2*(z^2 - x^2 - y^2)")
    # on-shell value matches the M_23 entry
    assert reduce_on_shell(out) == parse_expr("2*a^2")


names = st.sampled_from(["lam", "x", "y", "z", "p_lam", "p_x", "p_y", "p_z"])


@st.composite
def phase_polys(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(-2, 2), names, st.integers(1, 2)),
        min_size=1, max_size=3))
    e = PhaseExpr.const(0)
    for c, v, k in terms:
        e = e + PhaseExpr.const(c) * PhaseExpr.var(v) ** k
    return e


@settings(max_examples=100, deadline=None)
@given(phase_polys(), phase_polys())
def test_poisson_antisymmetry(f, g):
    assert poisson(f, g) == -poisson(g, f)
    assert poisson(f, f).is_zero()


@settings(max_examples=100, deadline=None)
@given(phase_polys(), phase_polys(), phase_polys())
def test_poisson_leibniz(f, g, h):
    assert poisson(f, g * h) == poisson(f, g) * h + g * poisson(f, h)


@settings(max_examples=100, deadline=None)
@given(phase_polys(), phase_polys(), phase_polys())
def test_poisson_jacobi(f, g, h):
    total = (poisson(f, poisson(g, h)) + poisson(g, poisson(h, f))
             + poisson(h, poisson(f, g)))
    assert total.is_zero()


# -- constraint chain --------------------------------------------------


def test_chain_produces_conventional_forms(cs):
    assert str(cs[0]) == "p_lam"
    assert cs[1] == parse_expr("z^2 - x^2 - y^2 - a^2")
    assert cs[2] == parse_expr("x*p_x + y*p_y + z*p_z")
    h = extended_hamiltonian()
    c4 = h + parse_expr("2*lam") * cs[1] + parse_expr("lam*a^2")
    assert cs[3] == c4


def test_chain_rescalings(cs):
    # C3 = (-m/2) {C2, H}; the raw derivative is -2 C3/m
    assert cs.rescale_factors[1] == parse_expr("-m/2")
    assert cs.raw_derivatives[1] == parse_expr("-2/m") * cs[2]
    # C4 = (1/2) {C3, H}
    assert cs.rescale_factors[2] == parse_expr("1/2")


def test_chain_terminates_after_c4(cs):
    dot4 = poisson(cs[3], extended_hamiltonian())
    assert not dot4.is_zero()          # vanishes only on-shell
    assert is_zero_on_shell(dot4)
    assert len(cs) == 4


def test_chain_cap_guards_nontermination():
    with pytest.raises(ConstraintError):
        constraint_chain(h_tilde=parse_expr("p_x^2*x^2*z"), max_length=4)


# -- bracket matrix ----------------------------------------------------


def test_matrix_entries(cs):
    bm = bracket_matrix(cs)
    psq = "(p_x^2 + p_y^2 - p_z^2)"
    assert bm.entry(0, 3) == parse_expr("-a^2")
    assert bm.entry(1, 2) == parse_expr("2*a^2")
    assert bm.entry(2, 3) == parse_expr(f"2*{psq}/m")
    for i in range(4):
        assert bm.entry(i, i).is_zero()
        for j in range(4):
            assert bm.entry(i, j) == -bm.entry(j, i)


def test_inverse_entries(cs):
    bm = bracket_matrix(cs)
    psq = "(p_x^2 + p_y^2 - p_z^2)"
    assert bm.inv_entry(0, 1) == parse_expr(f"{psq}/(m*a^4)")
    assert bm.inv_entry(1, 2) == parse_expr("-1/(2*a^2)")
    assert bm.inv_entry(0, 3) == parse_expr("1/a^2")
    assert bm.inv_entry(3, 0) == parse_expr("-1/a^2")


def test_matrix_times_inverse_is_identity(cs):
    # rational-function identity: holds for arbitrary p.p, no reduction
    bm = bracket_matrix(cs)
    one, zero = parse_expr("1"), parse_expr("0")
    for i in range(4):
        for j in range(4):
            acc = zero
            for k in range(4):
                acc = acc + bm.entry(i, k) * bm.inv_entry(k, j)
            assert acc == (one if i == j else zero), (i, j)


def test_singular_matrix_rejected():
    zero = [["0"] * 4] * 4
    # rank 3: the last row is the sum of the first two
    rank3 = [["x", "1", "0", "0"], ["0", "y", "1", "0"], ["0", "0", "1/m", "a"],
             ["x", "1 + y", "1", "0"]]
    for rows in (zero, rank3):
        with pytest.raises(ConstraintError):
            brackets.invert_matrix(tuple(tuple(map(parse_expr, r)) for r in rows))


def test_inverse_with_row_swap():
    # M[0][0] = 0, so the first column pivots on a later row
    m = tuple(tuple(map(parse_expr, r)) for r in (
        ["0", "x", "1/y"], ["a", "0", "m"], ["1", "x/(a*m)", "m/a"]))
    inv = brackets.invert_matrix(m)
    one, zero = parse_expr("1"), parse_expr("0")
    for i in range(3):
        for j in range(3):
            want = one if i == j else zero
            assert sum((m[i][k] * inv[k][j] for k in range(3)), zero) == want
            assert sum((inv[i][k] * m[k][j] for k in range(3)), zero) == want


# -- on-shell reduction ------------------------------------------------


def test_reduce_examples():
    assert reduce_on_shell(parse_expr("z^2 - x^2 - y^2 - a^2")).is_zero()
    e = parse_expr("p_x*x + a*m")
    assert reduce_on_shell(e) == e   # no z, p_z, lam, p_lam: untouched


def test_reduce_idempotent():
    for text in ("z^2*p_z^2", "z^3*p_z + x*z^2", "lam*z^2 + p_lam*x",
                 "(z*p_z + x*p_x)^2 / a^2"):
        r = reduce_on_shell(parse_expr(text))
        assert reduce_on_shell(r) == r


def test_reduce_refuses_a_constraint_in_the_denominator():
    # z^2 -> x^2 + y^2 + a^2 would leave a denominator that is not a monomial
    with pytest.raises(ExprError):
        reduce_on_shell(parse_expr("1/z^2"))


def _numeric_env(rng):
    theta = rng.uniform(0.2, 2.0)
    phi = rng.uniform(0.0, 2 * math.pi)
    a, m = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    td, pd = rng.normal(), rng.normal()
    x = a * math.cos(phi) * math.sinh(theta)
    y = a * math.sin(phi) * math.sinh(theta)
    z = a * math.cosh(theta)
    # lower-index momenta of the tangent velocity (theta_dot, phi_dot)
    vx = a * (math.cos(phi) * math.cosh(theta) * td
              - math.sin(phi) * math.sinh(theta) * pd)
    vy = a * (math.sin(phi) * math.cosh(theta) * td
              + math.cos(phi) * math.sinh(theta) * pd)
    vz = a * math.sinh(theta) * td
    px, py, pz = m * vx, m * vy, -m * vz
    psq = px * px + py * py - pz * pz
    return {"x": x, "y": y, "z": z, "p_x": px, "p_y": py, "p_z": pz,
            "a": a, "m": m, "lam": -psq / (2 * m * a * a), "p_lam": 0.0}


def test_reduce_agrees_with_parametrization():
    import numpy as np
    rng = np.random.default_rng(3)
    exprs = [parse_expr(t) for t in (
        "z^2*p_z^2", "z*p_z*x*p_x + z^2*y", "lam*z^2 + p_lam*p_z",
        "(x*p_x + y*p_y + z*p_z)*z", "z^3 + z*a^2",
    )]
    for _ in range(20):
        env = _numeric_env(rng)
        for e in exprs:
            before = e.eval(env)
            after = reduce_on_shell(e).eval(env)
            scale = max(abs(before), 1.0)
            assert abs(before - after) / scale < 1e-12


def test_is_zero_on_shell_catches_ideal_members():
    c2 = parse_expr("z^2 - x^2 - y^2 - a^2")
    c3 = parse_expr("x*p_x + y*p_y + z*p_z")
    assert is_zero_on_shell(c2 * parse_expr("x"))
    assert is_zero_on_shell(parse_expr("z") * c3)
    assert not is_zero_on_shell(parse_expr("x*p_x"))


# -- Dirac brackets ----------------------------------------------------


def test_dirac_xp(bm):
    assert dirac_bracket(coord(1), momentum(1), bm) == \
        reduce_on_shell(parse_expr("1 + x^2/a^2"))
    # lowered z index flips the sign of the correction
    assert dirac_bracket(coord(3), momentum(3), bm) == \
        reduce_on_shell(parse_expr("1 - z^2/a^2"))
    assert dirac_bracket(coord(1), momentum(2), bm) == \
        reduce_on_shell(parse_expr("x*y/a^2"))


def test_dirac_pp(bm):
    assert dirac_bracket(momentum(1), momentum(2), bm) == \
        reduce_on_shell(parse_expr("(x*p_y - y*p_x)/a^2"))


def test_dirac_xx(bm):
    for i in range(1, 4):
        for j in range(1, 4):
            assert dirac_bracket(coord(i), coord(j), bm).is_zero()


def test_dirac_j3_x(bm):
    # J3 = x p_y - y p_x, the rotation about the z axis
    assert angular_j(3) == parse_expr("x*p_y - y*p_x")
    assert dirac_bracket(angular_j(3), coord(1), bm) == parse_expr("y")
    assert dirac_bracket(angular_j(3), coord(2), bm) == parse_expr("-x")
    assert dirac_bracket(angular_j(3), coord(3), bm).is_zero()


# on-shell points at a = 1 (x.x = -1 and x^i p_i = 0); the entries are
# dyadic, so the float arithmetic of classical and geometry is exact there
EXACT_POINTS = (
    ((2, 2, 3), (Fraction(3, 2), 0, -1)),
    ((4, -8, 9), (Fraction(3, 8), Fraction(3, 4), Fraction(1, 2))),
)


def _env(x, p):
    return dict(zip(("x", "y", "z") + MOMENTUM_NAMES, x + p))


def test_classical_j_is_the_dirac_table_j():
    for x, p in EXACT_POINTS:
        j = classical.angular_momenta(np.array(x, dtype=float), np.array(p, dtype=float))
        for i in range(1, 4):
            assert j[i - 1] == angular_j(i).eval(_env(x, p)), (x, p, i)


def test_ambient_killing_is_the_bracket_with_j():
    # {x^l, J^i} = dJ^i/dp_l
    for x, p in EXACT_POINTS:
        for i in range(1, 4):
            k = geometry.ambient_killing(i, np.array(x, dtype=float))
            for l in range(1, 4):
                assert k[l - 1] == angular_j(i).diff(MOMENTUM_NAMES[l - 1]).eval(
                    _env(x, p)), (x, i, l)


def test_full_iso12_report(bm):
    report = verify_iso12(bm)
    assert report.passed, [c.name for c in report.failures()]
    assert len(report.checks) == 60


def test_epsilon_fault_breaks_closure(bm):
    report = verify_iso12(bm, flip_epsilon_sign=True)
    assert not report.passed
    assert report.failures()


def test_casimirs_central(bm):
    xx = reduce_on_shell(parse_expr("x^2 + y^2 - z^2"))
    assert is_zero_on_shell(xx + parse_expr("a^2"))
    for i in range(1, 4):
        assert is_zero_on_shell(dirac_bracket(xx, angular_j(i), bm))
