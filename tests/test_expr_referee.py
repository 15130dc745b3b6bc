"""PhaseExpr arithmetic refereed by sympy's cancel, exactly at rational points.

Both sides are built from the same drawn coefficients and exponents, with
no call from one into the other: the package's result must be sympy's
reduced fraction, with the same monic monomial denominator.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperboloid.expr import NVARS, VAR_INDEX, PhaseExpr, Poly

sympy = pytest.importorskip("sympy")

NAMES = ("x", "z", "p_z", "a", "m")
GENS = sympy.symbols(NAMES)
SLOTS = [VAR_INDEX[n] for n in NAMES]

coeffs = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4) if n
                                 for d in (1, 2, 3)}))
exps = st.tuples(*[st.integers(0, 2)] * len(NAMES))
points = st.tuples(*[coeffs] * len(NAMES))


@st.composite
def drawn(draw, max_terms=3):
    """(numerator terms, denominator term) of a polynomial over a monomial,
    keyed by the exponents of NAMES."""
    num = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms))
    return num, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=1))


def _full(e):
    out = [0] * NVARS
    for slot, k in zip(SLOTS, e):
        out[slot] = k
    return tuple(out)


def phase(num_den):
    num, den = ({_full(e): c for e, c in p.items()} for p in num_den)
    return PhaseExpr(Poly(num), Poly(den))


def sym(num_den):
    """The same drawn fraction as a (numerator, denominator) pair of sympy Polys."""
    # from_dict converts the coefficients of the dict it is given in place
    return tuple(sympy.Poly.from_dict(dict(p), GENS, domain="QQ") for p in num_den)


def sym_poly(p: Poly):
    return sympy.Poly.from_dict({tuple(e[s] for s in SLOTS): c
                                 for e, c in p.terms.items()}, GENS, domain="QQ")


def assert_matches(out, expected, point):
    c, p, q = expected[0].cancel(expected[1])
    p = p.mul_ground(c)
    # the same reduced fraction, with the same monic monomial denominator
    assert len(out.den.terms) == 1
    assert q.monic() == sym_poly(out.den)
    assert sym_poly(out.num) * q == p * sym_poly(out.den)
    env = dict.fromkeys(VAR_INDEX, 0) | dict(zip(NAMES, point))
    assert out.eval(env) == p.eval(point) / q.eval(point)


@settings(max_examples=20, deadline=1000)
@given(drawn(), drawn(), drawn(max_terms=1), st.sampled_from(range(len(NAMES))),
       drawn(), points)
def test_arithmetic_matches_sympy_cancel(f, g, mono, i, value, point):
    fe, ge, me = phase(f), phase(g), phase(mono)
    (fp, fq), (gp, gq), (mp, mq) = sym(f), sym(g), sym(mono)
    x = GENS[i]
    assert_matches(fe + ge, (fp * gq + gp * fq, fq * gq), point)
    assert_matches(fe * ge, (fp * gp, fq * gq), point)
    assert_matches(fe / me, (fp * mq, fq * mp), point)
    assert_matches(fe.diff(NAMES[i]), (fp.diff(x) * fq - fp * fq.diff(x), fq**2), point)
    # a value with one numerator term keeps a monomial denominator monomial
    if any(e[SLOTS[i]] for e in fe.den.terms):
        value = (dict([next(iter(value[0].items()))]), value[1])
    vp, vq = sym(value)
    at = {x: vp.as_expr() / vq.as_expr()}
    subs = sympy.cancel(fp.as_expr().xreplace(at) / fq.as_expr().xreplace(at))
    assert_matches(fe.subs(NAMES[i], phase(value)),
                   [sympy.Poly(t, GENS, domain="QQ") for t in sympy.fraction(subs)], point)
