"""Sparse multivariate polynomials over Q or an extension tower.

The main pipeline works with polynomials in at most 3 variables whose
coefficients live in a field from :mod:`polarmorse.fields`.  Heavy
classical algorithms over Q (factorization, gcd, exact division,
resultants and subresultant sequences) are sympy ``Poly`` methods; the
one bridge, ``to_sympy`` / ``from_sympy``, passes exponent dicts both
ways and builds no sympy expressions.  Resultants are over Q only.
``common_zeros`` finds the common zeros of two plane curves by one
elimination.  Over an extension tower, univariate gcd and Trager norm
factorization are implemented here.  Relative minimal polynomials and
Trager's norm are both the first linear dependence among the powers of
an element, over the base field.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from math import comb

import sympy

from .fields import (
    QQ,
    ExtensionTooLarge,
    coerce,
    rat,
    uadd,
    udivmod,
    ugcd,
    ugcdext,
    umul,
    uscale,
    usub,
)

DEFAULT_VARS = ("x", "y", "z")


class PolyParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial: a map from exponent tuples to nonzero coefficients."""

    field: object
    arity: int
    terms: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for e in self.terms:
            if len(e) != self.arity:
                raise ValueError("exponent vector of wrong length")

    # -- constructors --------------------------------------------------
    @staticmethod
    def zero(field, arity):
        return Poly(field, arity, {})

    @staticmethod
    def const(field, arity, c):
        if field.is_zero(c):
            return Poly.zero(field, arity)
        return Poly(field, arity, {(0,) * arity: c})

    @staticmethod
    def var(field, arity, i):
        e = [0] * arity
        e[i] = 1
        return Poly(field, arity, {tuple(e): field.one()})

    # -- basic queries --------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.arity, self.field.zero())

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=-1)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = self._match(other)
        terms = dict(self.terms)
        f = self.field
        for e, c in other.terms.items():
            s = f.add(terms.get(e, f.zero()), c)
            if f.is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
        return Poly(f, self.arity, terms)

    def __neg__(self):
        f = self.field
        return Poly(f, self.arity, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._match(other))

    def __mul__(self, other):
        other = self._match(other)
        f = self.field
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = f.mul(c1, c2)
                if e in terms:
                    p = f.add(terms[e], p)
                if f.is_zero(p):
                    terms.pop(e, None)
                else:
                    terms[e] = p
        return Poly(f, self.arity, terms)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.const(self.field, self.arity, self.field.one())
        out = None
        acc = self
        while n:
            if n & 1:
                out = acc if out is None else out * acc
            n >>= 1
            if n:
                acc = acc * acc
        return out

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return Poly.zero(f, self.arity)
        return Poly(f, self.arity, {e: f.mul(v, c) for e, v in self.terms.items()})

    def _match(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise ValueError("mixed coefficient fields; coerce first")
            return other
        return Poly.const(self.field, self.arity, self.field.from_rat(rat(other)))

    def map_coeffs(self, target_field, fn):
        terms = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not target_field.is_zero(v):
                terms[e] = v
        return Poly(target_field, self.arity, terms)

    def to_field(self, target_field):
        """Coerce into a larger field of the same tower."""
        if target_field is self.field:
            return self
        return self.map_coeffs(target_field, lambda c: coerce(target_field, self.field, c))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.field is not other.field or self.arity != other.arity:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.field.eq(c, other.terms[e]) for e, c in self.terms.items())

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms)))

    # -- calculus and substitution --------------------------------------
    def diff(self, i):
        f = self.field
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = f.mul(c, f.from_rat(rat(e[i])))
        return Poly(f, self.arity, terms)

    def eval(self, values):
        """Full evaluation; values are field elements (len == arity)."""
        f = self.field
        return substitute(self, values, lambda c: c, f.add, f.mul)

    def compose(self, args):
        """Substitute polynomials (over the same field) for the variables."""
        f, arity = self.field, args[0].arity
        return substitute(self, args, lambda c: Poly.const(f, arity, c))

    def translate(self, center):
        """p(x1 + c1, ..., xn + cn)."""
        f = self.field
        args = [
            Poly.var(f, self.arity, i) + Poly.const(f, self.arity, c)
            for i, c in enumerate(center)
        ]
        return self.compose(args)

    # -- homogenization ---------------------------------------------------
    def homogenize(self):
        """Homogenize with one extra variable appended."""
        d = self.total_degree()
        if d < 0:
            return Poly.zero(self.field, self.arity + 1)
        terms = {}
        for e, c in self.terms.items():
            terms[e + (d - sum(e),)] = c
        return Poly(self.field, self.arity + 1, terms)

    def dehomogenize(self, i):
        """Substitute 1 for variable i (input must be homogeneous)."""
        if not self.is_homogeneous():
            raise ValueError("dehomogenize requires a homogeneous polynomial")
        # dropping one exponent of a homogeneous polynomial's terms is
        # injective: no two terms merge
        return Poly(self.field, self.arity - 1,
                    {e[:i] + e[i + 1:]: c for e, c in self.terms.items()})

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def top_form(self):
        d = self.total_degree()
        return Poly(self.field, self.arity,
                    {e: c for e, c in self.terms.items() if sum(e) == d})

    # -- univariate views -------------------------------------------------
    def coeffs_in(self, i):
        """Coefficient list (low-to-high) in variable i; entries are Polys
        in the remaining variables (or field elements when arity == 1)."""
        f = self.field
        n = self.degree_in(i)
        if self.arity == 1:
            out = [f.zero()] * (n + 1)
            for e, c in self.terms.items():
                out[e[0]] = c
            return out
        out = [dict() for _ in range(n + 1)]
        for e, c in self.terms.items():
            out[e[i]][e[:i] + e[i + 1:]] = c
        return [Poly(f, self.arity - 1, t) for t in out]

    @staticmethod
    def from_coeffs(field, coeffs):
        """Univariate Poly from a coefficient list (low-to-high), the
        inverse of coeffs_in for arity 1."""
        return Poly(field, 1, {(k,): c for k, c in enumerate(coeffs)
                               if not field.is_zero(c)})

    # -- printing ---------------------------------------------------------
    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return "Poly(%s)" % poly_str(self)


def substitute(p, args, lift, add=operator.add, mul=operator.mul):
    """p(args): the one evaluator of the package.

    ``lift`` maps a coefficient of p into the ring of ``args``; ``add`` and
    ``mul`` are that ring's operations.  Each argument's powers are
    computed once, by repeated multiplication.  A tuple of polynomials
    over one field gives the tuple of their values, all read off one table
    of powers; each value is the one its polynomial alone would give.
    """
    polys = p if isinstance(p, tuple) else (p,)
    field = polys[0].field
    one = lift(field.one())
    pows = [[one] for _ in args]
    outs = []
    for q in polys:
        out = lift(field.zero())
        for e, c in q.terms.items():
            t = lift(c)
            for i, n in enumerate(e):
                if n:
                    pw = pows[i]
                    while len(pw) <= n:
                        pw.append(mul(pw[-1], args[i]))
                    t = mul(t, pw[n])
            out = add(out, t)
        outs.append(out)
    return tuple(outs) if isinstance(p, tuple) else outs[0]


def _coeff_str(field, c, need_sign):
    if field is QQ:
        s = str(c)
        neg = s.startswith("-")
        mag = s[1:] if neg else s
        if need_sign:
            return (" - " if neg else " + "), mag
        return ("-" if neg else ""), mag
    s = "(%s)" % field.elem_str(c)
    return (" + " if need_sign else ""), s


def poly_str(p, names=None):
    if p.is_zero():
        return "0"
    names = names or DEFAULT_VARS[: p.arity]
    keys = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
    out = []
    first = True
    for e in keys:
        sign, mag = _coeff_str(p.field, p.terms[e], not first)
        vars_part = "*".join(
            n if k == 1 else "%s^%d" % (n, k)
            for n, k in zip(names, e) if k
        )
        if vars_part:
            body = vars_part if mag == "1" else "%s*%s" % (mag, vars_part)
        else:
            body = mag
        out.append(sign + body)
        first = False
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()/":
            toks.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        else:
            raise PolyParseError("unexpected character %r" % ch, i)
    toks.append(("end", "", n))
    return toks


def parse_poly(text, variables=None):
    """Parse the input grammar into a polynomial over Q.

    Grammar: sums of '*'-separated factors, each a variable, a rational
    literal, or a parenthesized expression, optionally raised by '^' to a
    non-negative integer.  A leading sign is accepted so that printing is
    a parse fixed point.
    """
    variables = list(variables) if variables is not None else list(DEFAULT_VARS[:2])
    arity = len(variables)
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(kind=None):
        t = toks[pos[0]]
        if kind is not None and t[0] != kind:
            raise PolyParseError("expected %s, found %r" % (kind, t[1] or "end of input"), t[2])
        pos[0] += 1
        return t

    def parse_expr():
        sign = 1
        if peek()[0] in "+-":
            sign = -1 if take()[0] == "-" else 1
        acc = parse_term().scale(QQ.from_rat(rat(sign)))
        while peek()[0] in "+-":
            op = take()[0]
            t = parse_term()
            acc = acc + (t if op == "+" else -t)
        return acc

    def parse_term():
        acc = parse_factor()
        while peek()[0] == "*":
            take()
            acc = acc * parse_factor()
        return acc

    def parse_factor():
        base = parse_base()
        if peek()[0] == "^":
            take()
            t = take("int")
            return base ** int(t[1])
        return base

    def parse_base():
        kind, val, at = peek()
        if kind == "name":
            take()
            if val not in variables:
                raise PolyParseError("unknown variable %r" % val, at)
            return Poly.var(QQ, arity, variables.index(val))
        if kind == "int":
            take()
            num = int(val)
            if peek()[0] == "/":
                take()
                dt = take("int")
                den = int(dt[1])
                if den == 0:
                    raise PolyParseError("zero denominator", dt[2])
                return Poly.const(QQ, arity, rat(num, den))
            return Poly.const(QQ, arity, rat(num))
        if kind == "(":
            take()
            inner = parse_expr()
            take(")")
            return inner
        raise PolyParseError("expected a variable, number or '('", at)

    result = parse_expr()
    end = take("end")
    del end
    return result


# ---------------------------------------------------------------------------
# sympy bridge (Q coefficients only): exponent dicts in and out, so a
# gcd, factorization or resultant over Q is one sympy ``Poly`` method call

_SYM_VARS = sympy.symbols("v0 v1 v2")


def to_sympy(p):
    """p as a sympy ``Poly`` over ``QQ`` in ``v0, v1, ...``, built from its
    exponent dict."""
    if p.field is not QQ:
        raise ValueError("sympy bridge is for Q coefficients")
    return sympy.Poly.from_dict(
        {e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()},
        _SYM_VARS[: p.arity], domain=sympy.QQ)


def from_sympy(sp):
    """Inverse of ``to_sympy``: a sympy ``Poly`` over ``QQ``, in as many
    variables as it has generators."""
    return Poly(QQ, len(sp.gens), {
        e: rat(int(c.numerator), int(c.denominator))
        for e, c in sp.as_dict(native=True).items()})


# ---------------------------------------------------------------------------
# gcd / squarefree / factorization


def gcd_qq(p, q):
    """Gcd over Q in any arity (monic-normalized leading coefficient)."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    return from_sympy(to_sympy(p).gcd(to_sympy(q)))


def gcd_univar(p, q):
    """Univariate gcd over any field, monic."""
    f = p.field
    g = ugcd(f, p.coeffs_in(0), q.coeffs_in(0))
    return Poly.from_coeffs(f, g)


def exact_div(p, q):
    """The exact quotient p / q; ArithmeticError when q does not divide p.

    Over Q, in any arity, it is one sympy ``exquo``.  Over an extension
    field only univariate division is supported, by ``udivmod``."""
    f = p.field
    if f is QQ:
        try:
            return from_sympy(to_sympy(p).exquo(to_sympy(q)))
        except sympy.polys.polyerrors.ExactQuotientFailed as exc:
            raise ArithmeticError("inexact polynomial division") from exc
    if p.arity != 1:
        raise ValueError("exact division over an extension field needs "
                         "univariate inputs")
    if q.is_constant():
        return p.scale(f.inv(q.constant_term()))
    quo, rem = udivmod(f, p.coeffs_in(0), q.coeffs_in(0))
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return Poly.from_coeffs(f, quo)


def factor_qq(p):
    """Irreducible factorization over Q, any arity.

    Returns (rational content, [(primitive irreducible Poly, multiplicity)]).
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.field is not QQ:
        raise ValueError("factor_qq needs rational coefficients")
    content, facs = to_sympy(p).factor_list()
    return (rat(int(content.p), int(content.q)),
            [(from_sympy(fac), m) for fac, m in facs])


def factor_univariate(p):
    """Complete factorization of a univariate p over its field.

    Returns (unit, [(monic irreducible Poly, multiplicity), ...]).
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.arity != 1:
        raise ValueError("factor_univariate needs a univariate input")
    f = p.field
    if p.is_constant():
        return p.constant_term(), []
    if f is QQ:
        unit, facs = factor_qq(p)
        out = []
        for fp, m in facs:
            lead = fp.terms[(fp.degree_in(0),)]
            unit *= lead ** m
            out.append((fp.scale(QQ.inv(lead)), m))
        return unit, out
    # extension field: squarefree split, then Trager on each squarefree part
    lead = p.terms[max(p.terms, key=lambda e: e[0])]
    monic = p.scale(f.inv(lead))
    out = {}
    for part, mult in _squarefree_decomposition(monic):
        for fac in _trager_factor_squarefree(part):
            out[fac] = out.get(fac, 0) + mult
    return lead, sorted(out.items(), key=lambda kv: (kv[0].degree_in(0), poly_str(kv[0])))


def _squarefree_decomposition(p):
    """Yun-style decomposition of a monic univariate p: [(part, mult), ...]."""
    f = p.field
    out = []
    g = gcd_univar(p, p.diff(0))
    w = exact_div(p, g)
    i = 1
    while w.degree_in(0) > 0:
        y = gcd_univar(w, g)
        part = exact_div(w, y)
        if part.degree_in(0) > 0:
            out.append((part, i))
        w, g = y, exact_div(g, y)
        i += 1
    return out


def _trager_factor_squarefree(p):
    """Irreducible monic factors of squarefree monic p over an ExtensionField
    K (Trager, SYMSAC 1976).  The norm over K.base of p(y + lam*theta) is
    the characteristic polynomial of eta = Y - lam*theta on K[Y]/(p);
    since p is squarefree, the first linear dependence over K.base among
    the powers of eta has degree deg p * [K:base] exactly when that norm
    is squarefree, and then it is the norm."""
    K = p.field
    base = K.base
    n = p.degree_in(0)
    if n == 1:
        return [p]
    pc = p.coeffs_in(0)
    theta = K.gen()
    zero = K.zero()

    def mulmod(a, b):
        return udivmod(K, umul(K, a, b), pc)[1]

    def coords(a):
        return [v for c in a + [zero] * (n - len(a))
                for v in _flatten(K, base, c)]

    for lam in itertools.count(0):
        shift = K.neg(K.mul(K.from_rat(rat(lam)), theta))     # -lam*theta
        eta = [shift, K.one()]
        powers = itertools.accumulate(itertools.repeat(eta), mulmod,
                                      initial=[K.one()])
        norm = _first_dependence(base, map(coords, powers))
        if norm.degree_in(0) == n * K.degree:
            break
        if lam > 40:
            raise ArithmeticError("no squarefree norm found (input not squarefree?)")
    _, nfacs = factor_univariate(norm)
    out = []
    for nf, m in nfacs:
        if m != 1:
            raise ArithmeticError("the norm has a repeated factor")
        cand = nf.to_field(K).translate((shift,))     # N_i(y - lam*theta)
        g = gcd_univar(p, cand)
        if g.degree_in(0) > 0:
            out.append(g)
    if sum(g.degree_in(0) for g in out) != p.degree_in(0):
        raise ArithmeticError("the norm factors do not split p")
    return out


# ---------------------------------------------------------------------------
# resultants over Q


def resultant(p, q, var, sequence=False):
    """Sylvester resultant of bivariate p and q over Q eliminating variable
    ``var``; with ``sequence``, and of positive degrees, also their
    subresultant sequence (from p and q down, up to rational factors)."""
    if p.arity != 2 or q.arity != 2:
        raise ValueError("resultant needs bivariate inputs")
    if p.field is not QQ or q.field is not QQ:
        raise ValueError("resultant needs rational coefficients")
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp < 1 and dq < 1:
        raise ValueError("both inputs are constant in the eliminated variable")
    if p.is_zero() or q.is_zero():
        return Poly.zero(QQ, 1)
    if dp < 1 or dq < 1:
        # resultant with a constant-in-var polynomial: c^deg(other)
        const, d = (p, dq) if dp < 1 else (q, dp)
        return const.coeffs_in(var)[0] ** d
    # sympy's PRS, on P = cp*p and Q = cq*q over ZZ where it is cheaper
    # than over QQ: Res(p, q) = Res(P, Q) / (cp^dq * cq^dp).  It gets
    # the operand of higher degree first: Res(P, Q) = (-1)^(dp*dq) Res(Q, P)
    order = (_SYM_VARS[var], _SYM_VARS[1 - var])
    (cp, sp), (cq, sq) = (to_sympy(g).reorder(*order).clear_denoms(
        convert=True) for g in (p, q))
    a, b, sign = (sp, sq, 1) if dp >= dq else (sq, sp, (-1) ** (dp * dq))
    res, seq = a.resultant(b, includePRS=True)
    res = from_sympy(res).scale(rat(sign, int(cp) ** dq * int(cq) ** dp))
    if sequence:
        return res, [from_sympy(s.reorder(*_SYM_VARS[:2])) for s in seq]
    return res


# ---------------------------------------------------------------------------
# common zeros of two plane curves


def common_zeros(g1, g2, cap=None):
    """The common zeros of bivariate g1, g2 over Q that share no curve, by
    one elimination (González-Vega & El Kahoui, J. Complexity 12, 1996):
    (c, [(g, x0, y0, m), ...]).  Each g is an irreducible factor over Q of
    R = Res_y(g1(x + c*y, y), g2(x + c*y, y)); exactly one zero
    (x0(X), y0(X)) lies over each root X of g, with x0, y0 residues mod g,
    and m, the exponent of g in R, is its intersection number.  The shear
    c is the first of 0, 1, -1, 2, ... that ``_sheared_zeros`` certifies
    (fewer than ``bound`` are bad).  A factor of degree above ``cap``
    raises ExtensionTooLarge."""
    if any(g.is_constant() and not g.is_zero() for g in (g1, g2)):
        return 0, []
    if g1.is_zero() or g2.is_zero():
        raise ValueError("the two polynomials share a curve component")
    n1, n2 = g1.total_degree(), g2.total_degree()
    bound = n1 + n2 + (n1 * n2) ** 2 // 2
    for i in range(bound + 1):
        c = (i + 1) // 2 * (1 if i % 2 else -1)
        zeros = _sheared_zeros(g1, g2, c, cap)
        if zeros is not None:
            return c, zeros
    raise ArithmeticError("no shear among %d values certifies the common "
                          "zeros" % (bound + 1))


def _sheared_zeros(g1, g2, c, cap):
    """The zeros of ``common_zeros`` at the shear c, or None when its
    certificate fails: the leading coefficients in y of h1 = g1(x + c*y, y)
    and h2 are constant, and for each factor g of their resultant the
    first member P of their subresultant sequence, from the low end, that
    is nonzero mod g has a leading coefficient lc that is a unit mod g,
    and P = lc*(y - y0)^k mod g with y0 = -p_(k-1)/(k*lc)."""
    x, y = Poly.var(QQ, 2, 0), Poly.var(QQ, 2, 1)
    hs = [g.compose([x + y.scale(rat(c)), y]) if c else g for g in (g1, g2)]
    if any(h.degree_in(1) < 1 or not h.coeffs_in(1)[-1].is_constant()
           for h in hs):
        return None
    res, seq = resultant(*hs, 1, sequence=True)
    if res.is_zero():
        raise ValueError("the two polynomials share a curve component")
    facs = factor_qq(res)[1]
    top = max((g.degree_in(0) for g, _m in facs), default=0)
    if cap is not None and top > cap:
        raise ExtensionTooLarge("tower degree %d exceeds cap %d" % (top, cap))
    out = []
    for g, m in facs:
        gc = g.coeffs_in(0)
        for P in reversed(seq[:-1]):    # coefficients in y mod g, high first
            coeffs = [udivmod(QQ, cf.coeffs_in(0), gc)[1]
                      for cf in reversed(P.coeffs_in(1))]
            if any(coeffs):
                break
        lc, k = coeffs[0], len(coeffs) - 1
        unit, inv, _ = ugcdext(QQ, lc, gc)
        if unit != [1]:
            return None
        y0 = udivmod(QQ, umul(QQ, coeffs[1], uscale(QQ, inv, rat(-1, k))), gc)[1]
        power = lc                      # lc*(-y0)^j, against p_(k-j)
        for j, cf in enumerate(coeffs[1:], 1):
            power = udivmod(QQ, umul(QQ, power, uscale(QQ, y0, rat(-1))), gc)[1]
            if usub(QQ, cf, uscale(QQ, power, rat(comb(k, j)))):
                return None
        x0 = udivmod(QQ, uadd(QQ, [rat(0), rat(1)], uscale(QQ, y0, rat(c))), gc)[1]
        out.append((g, Poly.from_coeffs(QQ, x0), Poly.from_coeffs(QQ, y0), m))
    return out


# ---------------------------------------------------------------------------
# relative minimal polynomials


def _flatten(field, subfield, x):
    """Coordinates of x over subfield: gen^k major, base minor."""
    if field is subfield:
        return [x]
    out = []
    for c in x:
        out.extend(_flatten(field.base, subfield, c))
    return out


def _first_dependence(sub, vectors):
    """Monic sum of c_k*T^k over the first linear dependence
    sum c_k*v_k = 0, c_k in ``sub``, among the coordinate lists v_0, v_1,
    ..., all of one length, that the endless iterable ``vectors`` yields
    (Cohen, *A Course in Computational Algebraic Number Theory*, 1993).
    Each vector is reduced against the echelon rows of the earlier ones,
    carrying along the combination of vectors that produced it; the first
    that reduces to zero gives the polynomial.
    """
    rows = []  # (pivot, reduced coordinates with 1 at pivot, combination)
    for k, vec in enumerate(vectors):
        comb = [sub.zero()] * k + [sub.one()]
        for piv, row, rcomb in rows:
            c = vec[piv]
            if sub.is_zero(c):
                continue
            vec = [sub.sub(v, sub.mul(c, r)) for v, r in zip(vec, row)]
            comb = ([sub.sub(v, sub.mul(c, r)) for v, r in zip(comb, rcomb)]
                    + comb[len(rcomb):])
        piv = next((i for i, v in enumerate(vec) if not sub.is_zero(v)), None)
        if piv is None:
            return Poly.from_coeffs(sub, comb)
        if not sub.eq(vec[piv], sub.one()):     # 1 = elem^0 has pivot 1
            inv = sub.inv(vec[piv])
            vec, comb = [sub.mul(v, inv) for v in vec], [sub.mul(v, inv) for v in comb]
        rows.append((piv, vec, comb))


def minpoly_over(field, elem, subfield):
    """Monic minimal polynomial of ``elem`` (in ``field``) over ``subfield``:
    the first linear dependence over ``subfield`` among 1, elem, elem^2, ...
    """
    powers = itertools.accumulate(itertools.repeat(elem), field.mul,
                                  initial=field.one())
    return _first_dependence(subfield, (_flatten(field, subfield, x)
                                        for x in powers))
