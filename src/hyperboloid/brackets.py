"""Poisson brackets, Dirac's constraint chain, and the Dirac bracket.

Everything here is exact symbolic computation on PhaseExpr values.  The
canonical pairs are (x, p_x), (y, p_y), (z, p_z) and (lam, p_lam); the
metric and the epsilon symbol are geometry.METRIC and geometry.EPS, each
entry taken as an exact int.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .expr import PhaseExpr, Poly, parse_expr
from .geometry import EPS, METRIC

CANONICAL_PAIRS = (("x", "p_x"), ("y", "p_y"), ("z", "p_z"), ("lam", "p_lam"))

# index i in {1,2,3} maps to coordinates (x,y,z)
COORD_NAMES = ("x", "y", "z")
MOMENTUM_NAMES = ("p_x", "p_y", "p_z")


class ConstraintError(Exception):
    pass


def poisson(f: PhaseExpr, g: PhaseExpr) -> PhaseExpr:
    """Canonical Poisson bracket {f, g}."""
    out = PhaseExpr.const(0)
    for q, p in CANONICAL_PAIRS:
        out = out + f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q)
    return out


def coord(i: int) -> PhaseExpr:
    """x^i (upper index), i in 1..3."""
    return PhaseExpr.var(COORD_NAMES[i - 1])


def coord_lower(i: int) -> PhaseExpr:
    """x_i = g_{ij} x^j."""
    return PhaseExpr.const(int(METRIC[i - 1])) * coord(i)


def momentum(i: int) -> PhaseExpr:
    """p_i (lower index), i in 1..3."""
    return PhaseExpr.var(MOMENTUM_NAMES[i - 1])


def eps_contract(i: int, u, v, eps=EPS) -> PhaseExpr:
    """epsilon_{ijk} u(j) v(k), summed over j, k in 1..3; v(k) is not
    called where epsilon or u(j) is zero."""
    out = PhaseExpr.const(0)
    for j in range(1, 4):
        for k in range(1, 4):
            s = int(eps[i - 1, j - 1, k - 1])
            if s and (uj := u(j)):
                out = out + PhaseExpr.const(s) * uj * v(k)
    return out


def angular_j(i: int) -> PhaseExpr:
    """J^i = -epsilon^{ijk} x_j p_k = epsilon_{ijk} x_j p_k."""
    return eps_contract(i, coord_lower, momentum)


def angular_j_lower(i: int) -> PhaseExpr:
    return PhaseExpr.const(int(METRIC[i - 1])) * angular_j(i)


def extended_hamiltonian() -> PhaseExpr:
    return parse_expr("(p_x^2 + p_y^2 - p_z^2)/(2*m) + lam*(x^2 + y^2 - z^2 + a^2)")


# -- on-shell reduction ------------------------------------------------

# lam is fixed on the constraint surface: C4 = 0 with C2 = 0 gives
# lam*a^2 = -H, i.e. lam = -(p_x^2+p_y^2-p_z^2)/(2*m*a^2)
_LAM_ON_SHELL = parse_expr("-(p_x^2 + p_y^2 - p_z^2)/(2*m*a^2)")


def _rule(lhs: str, rhs: str):
    """The rewrite lhs -> rhs of a monomial: (exponents of lhs, rhs - lhs)."""
    (exps,) = parse_expr(lhs).num.terms
    return exps, parse_expr(f"{rhs} - ({lhs})").num


_Z_SQ_RULE = _rule("z^2", "x^2 + y^2 + a^2")
_ZPZ_RULE = _rule("z*p_z", "-(x*p_x + y*p_y)")


def _reduce_poly(p: Poly, use_zsq=True, use_zpz=True) -> PhaseExpr:
    """Rewrite z^2 -> x^2+y^2+a^2 and z*p_z -> -(x p_x + y p_y) to fixpoint.

    z^2 is rewritten first where both apply.  Each step adds a multiple
    of a constraint, so the rewrite stays on Poly.
    """
    rules = [r for r, on in ((_Z_SQ_RULE, use_zsq), (_ZPZ_RULE, use_zpz)) if on]
    while True:
        hit = next(((exps, lhs, diff) for exps in p.terms for lhs, diff in rules
                    if all(k >= l for k, l in zip(exps, lhs))), None)
        if hit is None:
            return PhaseExpr(p)
        exps, lhs, diff = hit
        p = p + Poly({tuple(k - l for k, l in zip(exps, lhs)): p.terms[exps]}) * diff


def _reduce_partial(e: PhaseExpr, stage: int) -> PhaseExpr:
    """Reduce modulo only the first `stage` constraints (chain termination test)."""
    if stage >= 1:
        e = e.subs("p_lam", PhaseExpr.const(0))
    if stage >= 4:
        e = e.subs("lam", _LAM_ON_SHELL)
    num, den = (_reduce_poly(q, use_zsq=stage >= 2, use_zpz=stage >= 3)
                for q in (e.num, e.den))
    return num / den


def reduce_on_shell(e: PhaseExpr) -> PhaseExpr:
    """Normal form modulo the constraint ideal.

    p_lam and lam are eliminated first (C1 = 0 and the on-shell value of
    lam fixed by C4), then each monomial is rewritten by
    z^2 -> x^2 + y^2 + a^2 and z*p_z -> -(x p_x + y p_y) until no rule
    applies; the z-degree strictly decreases so the rewrite terminates.
    """
    return _reduce_partial(e, 4)


_PZ_ON_SHELL = parse_expr("-(x*p_x + y*p_y)/z")


def is_zero_on_shell(e: PhaseExpr) -> bool:
    """Exact test whether e vanishes identically on the constraint surface.

    The two-rule rewrite in reduce_on_shell is not confluent for every
    ideal member (z*C3 is a counterexample), so identity checks use a
    complete decision procedure instead: solve C3 for p_z, reduce z^2 by
    C2, and demand the z-linear remainder A + B*z vanish coefficientwise
    (z is a degree-2 algebraic element over the remaining variables).
    """
    e = e.subs("p_lam", PhaseExpr.const(0)).subs("lam", _LAM_ON_SHELL)
    return _reduce_poly(e.subs("p_z", _PZ_ON_SHELL).num, use_zpz=False).is_zero()


# -- constraint chain --------------------------------------------------


@dataclass(frozen=True)
class ConstraintSet:
    """The four second-class constraints, with raw chain derivatives.

    constraints holds the rescaled forms used to build the bracket
    matrix; raw_derivatives[k] is {C_k, H_tilde} before rescaling
    (raw_derivatives[0] is the derivative of C1, etc.).
    """

    constraints: tuple
    raw_derivatives: tuple
    rescale_factors: tuple
    h_tilde: PhaseExpr

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def __getitem__(self, i):
        return self.constraints[i]


def constraint_chain(h_tilde: PhaseExpr | None = None, max_length: int = 8) -> ConstraintSet:
    """Run Dirac's consistency algorithm starting from C1 = p_lam.

    Each new constraint is the bracket of the previous one with the
    extended Hamiltonian, rescaled to the conventional form; the chain
    stops when the next bracket reduces to zero on-shell.
    """
    if h_tilde is None:
        h_tilde = extended_hamiltonian()
    c1 = PhaseExpr.var("p_lam")
    constraints = [c1]
    raw = []
    factors = []
    while len(constraints) < max_length:
        dot = poisson(constraints[-1], h_tilde)
        raw.append(dot)
        if _reduce_partial(dot, len(constraints)).is_zero():
            factors.append(None)
            break
        k = len(constraints)  # producing constraint number k+1
        if k == 1:
            nxt, fac = dot, PhaseExpr.const(1)
        elif k == 2:
            fac = parse_expr("-m/2")
            nxt = fac * dot
        elif k == 3:
            fac = PhaseExpr.const(Fraction(1, 2))
            nxt = fac * dot
        else:
            raise ConstraintError(
                f"unexpected constraint structure: chain did not close after {k} steps"
            )
        factors.append(fac)
        constraints.append(nxt)
    else:
        raise ConstraintError(f"constraint chain exceeded cap {max_length}")
    if len(constraints) != 4:
        raise ConstraintError(
            f"expected 4 constraints, found {len(constraints)}"
        )
    return ConstraintSet(
        tuple(constraints), tuple(raw), tuple(factors), h_tilde
    )


# -- bracket matrix and its exact inverse ------------------------------


@dataclass(frozen=True)
class BracketMatrix:
    constraints: ConstraintSet
    entries: tuple          # 4x4 tuple of PhaseExpr, reduced on-shell
    inverse: tuple          # 4x4 tuple of PhaseExpr

    def entry(self, i, j):
        return self.entries[i][j]

    def inv_entry(self, i, j):
        return self.inverse[i][j]


def invert_matrix(entries) -> tuple:
    """Exact inverse of a matrix of PhaseExpr by Gauss-Jordan elimination.

    Each column pivots on its first nonzero entry on or below the
    diagonal.  Every entry stays a polynomial over a monic monomial, so a
    pivot that is not a monomial must divide its row exactly (ExprError).
    """
    n = len(entries)
    rows = [list(row) + [PhaseExpr.const(int(i == j)) for j in range(n)]
            for i, row in enumerate(entries)]
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            raise ConstraintError("bracket matrix is singular: constraints not second-class")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        rows[k] = [e / pivot for e in rows[k]]
        for r in range(n):
            f = rows[r][k]
            if r != k and f:
                rows[r] = [e - f * ek for e, ek in zip(rows[r], rows[k])]
    return tuple(tuple(row[n:]) for row in rows)


def bracket_matrix(cs: ConstraintSet) -> BracketMatrix:
    """M_ij = {C_i, C_j}, reduced on-shell, with exact inverse."""
    n = len(cs)
    entries = tuple(
        tuple(reduce_on_shell(poisson(cs[i], cs[j])) for j in range(n))
        for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            if entries[i][j] != -entries[j][i]:
                raise ConstraintError(f"bracket matrix not antisymmetric at ({i},{j})")
    inverse = invert_matrix(entries)
    return BracketMatrix(cs, entries, inverse)


# -- Dirac bracket -----------------------------------------------------


def constraint_vector(a: PhaseExpr, bm: BracketMatrix) -> tuple:
    """({A, C_1}, ..., {A, C_4}), each reduced on-shell."""
    return tuple(reduce_on_shell(poisson(a, c)) for c in bm.constraints)


def _dirac(a: PhaseExpr, a_vec: tuple, b: PhaseExpr, b_vec: tuple,
           bm: BracketMatrix) -> PhaseExpr:
    # {C_j, B} = -{B, C_j}, so one constraint vector per operand serves
    # both sides of the correction term
    out = poisson(a, b)
    for i, ac in enumerate(a_vec):
        if ac.is_zero():
            continue
        for j, bc in enumerate(b_vec):
            if not bc.is_zero():
                out = out + ac * bm.inv_entry(i, j) * bc
    return reduce_on_shell(out)


def dirac_bracket(a: PhaseExpr, b: PhaseExpr, bm: BracketMatrix) -> PhaseExpr:
    """{A, B}_M = {A, B} - {A, C_i} Minv_ij {C_j, B}, reduced on-shell."""
    return _dirac(a, constraint_vector(a, bm), b, constraint_vector(b, bm), bm)


# -- ISO(1,2) verification ---------------------------------------------


@dataclass
class IdentityCheck:
    name: str
    passed: bool


@dataclass
class Iso12Report:
    checks: list = field(default_factory=list)
    # every Dirac bracket computed, keyed "A,B" ("x1,p2", "J3,x1", "x.x,J2")
    table: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_iso12(bm: BracketMatrix, flip_epsilon_sign: bool = False) -> Iso12Report:
    """Check the full Dirac-bracket algebra of (x^i, J^i) symbolically.

    Each operand's constraint vector is computed once and shared by all
    the brackets it enters.  flip_epsilon_sign negates epsilon in the
    expected laws (negative-control hook for the verification CLI).
    """
    eps = -EPS if flip_epsilon_sign else EPS
    report = Iso12Report()

    def add(name, residual):
        report.checks.append(IdentityCheck(name, is_zero_on_shell(residual)))

    operands = {
        "x.x": sum((coord(i) * coord_lower(i) for i in range(1, 4)), PhaseExpr.const(0)),
        "x.J": sum((coord(i) * angular_j_lower(i) for i in range(1, 4)), PhaseExpr.const(0)),
    }
    for i in range(1, 4):
        operands.update({f"x{i}": coord(i), f"p{i}": momentum(i), f"J{i}": angular_j(i)})
    vectors = {k: constraint_vector(v, bm) for k, v in operands.items()}

    def dirac(a, b):
        val = _dirac(operands[a], vectors[a], operands[b], vectors[b], bm)
        report.table[f"{a},{b}"] = val
        return val

    a2 = parse_expr("a^2")

    def delta(j):
        return lambda k: int(k == j)

    # (left, right, law, expected {left^i, right^j}_M); the J laws are
    # -epsilon^{ijk} v_k = epsilon_{ijk} v_k
    pair_laws = (
        ("x", "x", "0", lambda i, j: PhaseExpr.const(0)),
        ("x", "p", "delta+xx/a^2",
         lambda i, j: coord(i) * coord_lower(j) / a2 + (1 if i == j else 0)),
        ("p", "p", "(xp-xp)/a^2",
         lambda i, j: (coord_lower(i) * momentum(j) - coord_lower(j) * momentum(i)) / a2),
        ("J", "x", "-eps*x", lambda i, j: eps_contract(i, delta(j), coord_lower, eps)),
        ("J", "J", "-eps*J", lambda i, j: reduce_on_shell(
            eps_contract(i, delta(j), angular_j_lower, eps))),
    )
    for left, right, law, expected in pair_laws:
        for i in range(1, 4):
            for j in range(1, 4):
                add(f"dirac({left}{i},{right}{j})={law}",
                    dirac(f"{left}{i}", f"{right}{j}") - expected(i, j))

    # Casimir centrality: {x.x, f}_M = 0 and {x.J, f}_M = 0 for every generator
    for g in [f"x{i}" for i in range(1, 4)] + [f"J{i}" for i in range(1, 4)]:
        add(f"dirac(x.x,{g})=0", dirac("x.x", g))
        add(f"dirac(x.J,{g})=0", dirac("x.J", g))

    # momentum recovery p_i = eps_{ijk} x^j J^k / a^2 on-shell
    for i in range(1, 4):
        rec = eps_contract(i, coord, angular_j, eps) / a2
        add(f"p{i}=eps*x*J/a^2", reduce_on_shell(rec - momentum(i)))

    return report
