"""Exact symbolic phase-space expressions.

Sparse multivariate polynomials over the rationals, and polynomials over
a monic monomial, in the eight canonical variables lam, x, y, z, p_lam,
p_x, p_y, p_z and the two positive parameters a, m.  All coefficients
are `Fraction`s; no floating point enters the algebra.  Every division
the kernel makes is by a monomial (the 1/a^2 of the laws, the pivots of
the bracket matrix, the on-shell lam and p_z); any other denominator must
divide its numerator exactly, up to a monomial, or raises `ExprError`.
Normal forms are unique: fixed variable order, graded-lex monomial
order, merged monomials, a monic monomial denominator with no monomial
factor in common with the numerator.
"""

from __future__ import annotations

from fractions import Fraction

VARS = ("lam", "x", "y", "z", "p_lam", "p_x", "p_y", "p_z", "a", "m")
NVARS = len(VARS)
VAR_INDEX = {name: i for i, name in enumerate(VARS)}
ALIASES = {"lambda": "lam", "p_lambda": "p_lam"}

ZERO_EXP = (0,) * NVARS


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DivisionByZeroExpr(ExprError):
    pass


def _grlex_key(exps):
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly({ZERO_EXP: c}) if c else Poly()

    @staticmethod
    def var(name: str) -> "Poly":
        name = ALIASES.get(name, name)
        if name not in VAR_INDEX:
            raise ExprError(f"unknown variable {name!r}")
        e = [0] * NVARS
        e[VAR_INDEX[name]] = 1
        return Poly({tuple(e): Fraction(1)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ZERO_EXP in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ExprError("not a constant polynomial")
        return self.terms.get(ZERO_EXP, Fraction(0))

    def leading(self):
        """(exps, coeff) of the graded-lex leading term."""
        if not self.terms:
            raise ExprError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(out)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Poly()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(out)

    def scale(self, c: Fraction) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly()
        return Poly({e: cf * c for e, cf in self.terms.items()})

    def pow(self, n: int) -> "Poly":
        if n < 0:
            raise ExprError("negative power on polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, name: str) -> "Poly":
        vi = VAR_INDEX[ALIASES.get(name, name)]
        out = {}
        for e, c in self.terms.items():
            k = e[vi]
            if k:
                e2 = list(e)
                e2[vi] = k - 1
                out[tuple(e2)] = c * k
        return Poly(out)

    # -- evaluation ---------------------------------------------------

    def eval(self, env: dict):
        """Substitute numeric values for every variable appearing."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for vi, k in enumerate(e):
                if k:
                    v *= env[VARS[vi]] ** k
            total += v
        return total

    # -- exact division ----------------------------------------------

    def exact_div(self, g: "Poly"):
        """Quotient self/g if the division is exact, else None."""
        if g.is_zero():
            raise DivisionByZeroExpr("division by zero polynomial")
        if self.is_zero():
            return Poly()
        ge, gc = g.leading()
        r = Poly(dict(self.terms))
        q = {}
        while r.terms:
            re, rc = r.leading()
            de = tuple(a - b for a, b in zip(re, ge))
            if any(d < 0 for d in de):
                return None
            coeff = rc / gc
            q[de] = coeff
            r = r - g * Poly({de: coeff})
        return Poly(q)

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for vi, k in enumerate(e):
                if k == 1:
                    factors.append(VARS[vi])
                elif k > 1:
                    factors.append(f"{VARS[vi]}^{k}")
            if not factors:
                mono = str(abs(c))
            elif abs(c) == 1:
                mono = "*".join(factors)
            else:
                mono = str(abs(c)) + "*" + "*".join(factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, mono))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, mono in parts[1:]:
            out += f" {sign} {mono}"
        return out

    __repr__ = __str__


# -- univariate view and monomial gcd ---------------------------------


def _to_uni(f: Poly, vi: int):
    """View f as univariate in variable vi with Poly coefficients."""
    coeffs = {}
    for e, c in f.terms.items():
        k = e[vi]
        e2 = list(e)
        e2[vi] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    return {k: Poly(t) for k, t in coeffs.items()}


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """The largest monic monomial dividing both f and g (neither zero).

    When either is a monomial, as every kernel denominator is, this is
    their whole gcd.
    """
    return Poly({tuple(map(min, zip(*f.terms, *g.terms))): Fraction(1)})


# -- rational phase-space expressions ---------------------------------


class PhaseExpr:
    """A polynomial over a monic monomial that shares no monomial factor
    with it, so structurally equal PhaseExprs are mathematically equal and
    vice versa.  Other denominators must divide exactly, up to a monomial,
    or raise ExprError.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, _normalized=False):
        if den is None:
            den = Poly.const(1)
        if den.is_zero():
            raise DivisionByZeroExpr("division by identically zero expression")
        if not _normalized:
            num, den = self._normalize(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _normalize(num: Poly, den: Poly):
        if num.is_zero():
            return Poly(), Poly.const(1)
        g = poly_gcd(num, den)
        if not g.is_const():
            num, den = num.exact_div(g), den.exact_div(g)
        if len(den.terms) > 1:  # keep its monomial factor if the rest divides num
            mono = poly_gcd(den, den)
            q = num.exact_div(den.exact_div(mono))
            if q is None:
                raise ExprError(f"denominator {den} is no monomial times a divisor of {num}")
            num, den = q, mono
        _, lc = den.leading()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return num, den

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "PhaseExpr":
        return PhaseExpr(Poly.const(c), Poly.const(1), _normalized=True)

    @staticmethod
    def var(name: str) -> "PhaseExpr":
        return PhaseExpr(Poly.var(name), Poly.const(1), _normalized=True)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_const()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PhaseExpr.const(other)
        if not isinstance(other, PhaseExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(v) -> "PhaseExpr":
        if isinstance(v, PhaseExpr):
            return v
        if isinstance(v, (int, Fraction)):
            return PhaseExpr.const(v)
        raise TypeError(f"cannot coerce {v!r} to PhaseExpr")

    def __add__(self, other):
        other = self._coerce(other)
        return PhaseExpr(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return PhaseExpr(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return PhaseExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZeroExpr("division by identically zero expression")
        return PhaseExpr(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return PhaseExpr.const(1) / self.__pow__(-n)
        return PhaseExpr(self.num.pow(n), self.den.pow(n))

    def diff(self, name: str) -> "PhaseExpr":
        n = self.num.diff(name) * self.den - self.num * self.den.diff(name)
        return PhaseExpr(n, self.den * self.den)

    def eval(self, env: dict):
        d = self.den.eval(env)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(env) / d

    def subs(self, name: str, value: "PhaseExpr") -> "PhaseExpr":
        """Substitute an expression for a variable (exact).

        num and den are each evaluated as sum_k c_k * value^k, where c_k
        is the coefficient of the k-th power of the variable.
        """
        vi = VAR_INDEX[ALIASES.get(name, name)]

        def at(poly):
            return sum((PhaseExpr(c, _normalized=True) * value**k
                        for k, c in _to_uni(poly, vi).items()), PhaseExpr.const(0))

        return at(self.num) / at(self.den)

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        num_s = f"({self.num})" if len(self.num.terms) > 1 else str(self.num)
        (de,) = self.den.terms
        den_s = str(self.den) if sum(1 for k in de if k) == 1 else f"({self.den})"
        return f"{num_s}/{den_s}"

    __repr__ = __str__


# -- parser ------------------------------------------------------------

_TOKEN_NAME = "name"
_TOKEN_INT = "int"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_TOKEN_INT, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOKEN_NAME, text[i:j], i))
            i = j
            continue
        if text.startswith("**", i):
            tokens.append(("^", "^", i))
            i += 2
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse(self) -> PhaseExpr:
        e = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected token {t[1]!r}", t[2])
        return e

    def expr(self) -> PhaseExpr:
        kind = self.peek()[0]
        neg = False
        if kind in "+-":
            neg = self.next()[0] == "-"
        e = self.term()
        if neg:
            e = -e
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> PhaseExpr:
        e = self.factor()
        while self.peek()[0] in "*/":
            op, _, pos = self.next()
            rhs = self.factor()
            if op == "*":
                e = e * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by an identically zero expression", pos)
                e = e / rhs
        return e

    def factor(self) -> PhaseExpr:
        kind = self.peek()[0]
        if kind in "+-":
            neg = self.next()[0] == "-"
            e = self.factor()
            return -e if neg else e
        e = self.atom()
        if self.peek()[0] == "^":
            self.next()
            e2 = self.factor()  # right-associative exponent
            if not (e2.is_polynomial() and e2.num.is_const()):
                raise ParseError("exponent must be an integer", self.peek()[2])
            c = e2.num.const_value() / e2.den.const_value()
            if c.denominator != 1:
                raise ParseError("exponent must be an integer", self.peek()[2])
            return e ** int(c)
        return e

    def atom(self) -> PhaseExpr:
        kind, value, pos = self.next()
        if kind == _TOKEN_INT:
            return PhaseExpr.const(int(value))
        if kind == _TOKEN_NAME:
            name = ALIASES.get(value, value)
            if name not in VAR_INDEX:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return PhaseExpr.var(name)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expr(text: str) -> PhaseExpr:
    """Parse an arithmetic expression into normal form.

    Grammar: integers, the phase-space variable names, a, m, and
    + - * / ^ ( ).  print/parse is a fixpoint on normal forms.
    """
    return _Parser(text).parse()
