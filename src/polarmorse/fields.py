"""Exact arithmetic in towers of algebraic extensions of the rationals.

Coefficients throughout the symbolic pipeline are exact: rationals at the
bottom, and elements of iterated extensions Q(g1)(g2)... above.  An
extension element is stored as a coordinate tuple over the power basis of
its top generator, with entries in the field one level down, so an element
of a simple extension Q(g) is a tuple of ``Fraction``.  Over Q(g) the hot
operations run on Python integers: a product is computed over one common
denominator and normalized once per coordinate, an inverse solves the
system of multiplication by fraction-free elimination, and a series over
Q(g) (``series.LaurentSeries``) holds each coefficient as (denominator,
integer coordinates) between operations and shares the integer
convolution and reduction of the product; ``Fraction`` tuples are built
only when a coefficient is read.  A field over an extension uses the
operations of its base.  A field is only its definition; its numeric
embeddings (one complex root per generator) are computed on first use
and kept, so that elements can be approximated, compared against
numerics, and serialized deterministically.  Numbers are sorted and
deduplicated by one key, ``conj_key``, so no order depends on how a field
is presented.  One root finder, ``poly_roots``, serves the embeddings
here and the oracle's start solve: Durand–Kerner in hardware floats gives
the start points of ``mpmath.polyroots`` at the working precision.
Fields are made in one place, ``adjoin``: a root of an irreducible
polynomial over a field is that field's own element when the polynomial
is linear, else the generator of a new extension.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

import mpmath


def rat(num, den=1):
    return Fraction(num, den)


#: Largest allowed total degree of an extension tower over Q.  Desk-scale
#: inputs stay far below this; hitting the cap is reported, never silent.
DEFAULT_TOWER_CAP = 16

#: Working decimal precision for embedding roots.
EMBED_DPS = 60

#: Relative size of a correction at which the float root finder stops.
FLOAT_TOL = 2.0 ** -50


class ExtensionTooLarge(Exception):
    """Raised when an extension tower would exceed the degree cap."""


class RationalField:
    """The field Q.  Elements are exact rationals.  ``QQ`` is the one
    instance, so coefficient fields compare by identity."""

    base = None
    name = None
    degree = 1
    total_degree = 1

    def zero(self):
        return rat(0)

    def one(self):
        return rat(1)

    def from_rat(self, r):
        return rat(r)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / rat(a)

    def div(self, a, b):
        return a / rat(b)

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def pow(self, a, n):
        return rat(a) ** n

    def levels(self):
        return []

    def embeddings(self):
        return ((),)

    def to_mpc(self, a, embedding=()):
        return mpmath.mpc(mpmath.mpf(int(a.numerator)) / mpmath.mpf(int(a.denominator)))

    def elem_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# --- list-based univariate helpers over an arbitrary field -------------
# Coefficient lists are low-to-high and trimmed (no trailing zeros).

def utrim(field, cs):
    cs = list(cs)
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return cs


def uadd(field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(field.add(x, y))
    return utrim(field, out)


def usub(field, a, b):
    return uadd(field, a, [field.neg(c) for c in b])


def uscale(field, a, c):
    if field.is_zero(c):
        return []
    return [field.mul(x, c) for x in a]


def umul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return utrim(field, out)


def udivmod(field, a, b):
    """Division with remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    q = [field.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b):
        c = field.mul(a[-1], inv_lead)
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = field.sub(a[k + i], field.mul(c, bc))
        a = utrim(field, a)
        if not a:
            break
    return utrim(field, q), utrim(field, a)


def ugcd(field, a, b):
    a, b = utrim(field, a), utrim(field, b)
    while b:
        _, r = udivmod(field, a, b)
        a, b = b, r
    if a:
        a = uscale(field, a, field.inv(a[-1]))
    return a


def ugcdext(field, a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = utrim(field, a), utrim(field, b)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = udivmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, usub(field, s0, umul(field, q, s1))
        t0, t1 = t1, usub(field, t0, umul(field, q, t1))
    if r0:
        c = field.inv(r0[-1])
        r0 = uscale(field, r0, c)
        s0 = uscale(field, s0, c)
        t0 = uscale(field, t0, c)
    return r0, s0, t0


def _float_seeds(coeffs, maxsteps):
    """Durand–Kerner in hardware ``complex`` on high-to-low coefficients,
    from mpmath's own start points (0.4+0.9i)^k: the iterates once every
    correction is below FLOAT_TOL of its root, or after ``maxsteps`` sweeps.
    None when a coefficient or an iterate is not a finite float
    (``complex`` of a huge mpf is inf, it does not raise)."""
    cs = [complex(c) for c in coeffs]
    if not all(map(cmath.isfinite, cs)) or not cs[0]:
        return None
    cs = [c / cs[0] for c in cs]
    roots = [(0.4 + 0.9j) ** k for k in range(len(cs) - 1)]
    for _ in range(maxsteps):
        done = True
        for i, p in enumerate(roots):
            x = 0j
            for c in cs:
                x = x * p + c
            for q in roots:
                if q != p:
                    x /= p - q
            roots[i] = p - x
            done = done and abs(x) <= FLOAT_TOL * abs(p)
        if not all(map(cmath.isfinite, roots)):
            return None
        if done:
            break
    return roots


def poly_roots(coeffs, maxsteps, extraprec):
    """All complex roots of a polynomial given low-to-high mpmath
    coefficients (exact zero leading ones are dropped), in ``conj_key``
    order.  ``mpmath.polyroots`` at the working precision starts from the
    roots found in hardware floats by ``_float_seeds``, or from its own
    start points when there are none or the seeded call does not
    converge; either way its stopping test is the same, so the seeds move
    only where the iteration starts, not the roots it returns."""
    cs = list(coeffs)
    while cs and abs(cs[-1]) == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    cs.reverse()
    seeds = _float_seeds(cs, maxsteps)
    roots = None
    if seeds is not None:
        try:
            roots = mpmath.polyroots(cs, maxsteps=maxsteps, extraprec=extraprec,
                                     roots_init=seeds)
        except mpmath.libmp.NoConvergence:
            pass
    if roots is None:
        roots = mpmath.polyroots(cs, maxsteps=maxsteps, extraprec=extraprec)
    return sorted(roots, key=conj_key)


def conj_key(z):
    """Sort and dedup key of a complex approximation: (re, im) rounded to a
    1e-30 grid at 40 digits, so numbers equal up to that grid share it.
    The only key by which numbers are ordered."""
    with mpmath.workdps(40):
        return tuple(int(mpmath.nint(v * 10 ** 30)) for v in (z.real, z.imag))


def on_grid(z):
    """z rounded to the ``conj_key`` grid: a number read off an embedding,
    independent of the field's presentation (no stray 1e-41*i)."""
    with mpmath.workdps(40):
        re, im = conj_key(z)
        return mpmath.mpc(re, im) / 10 ** 30


def int_coords(a):
    """(den, integer coordinates) of a tuple of ``Fraction``: den is the
    lcm of the denominators, and a = coordinates/den."""
    den = lcm(*(x.denominator for x in a))
    return den, tuple(x.numerator * (den // x.denominator) for x in a)


def convolve_into(out, na, nb):
    """Add the integer polynomial product na*nb into ``out``."""
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb):
                out[i + j] += x * y


def solve_fraction_free(rows):
    """Solve A y = b for the augmented integer rows [A | b], A square, by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every
    division is exact, so entries stay integers no larger than minors of
    [A | b].  Returns (num, det) with y = num/det, or None when A is
    singular.  ``rows`` is overwritten."""
    n = len(rows)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        piv = top[k]
        for r in rows[k + 1:]:
            rk = r[k]
            r[k] = 0
            for j in range(k + 1, n + 1):
                r[j] = (piv * r[j] - rk * top[j]) // prev
        prev = piv
    # The last pivot is det A up to sign and det*y is an integer vector,
    # so back substitution divides exactly.
    det = prev
    num = [0] * n
    for i in range(n - 1, -1, -1):
        r = rows[i]
        num[i] = (det * r[n] - sum(r[j] * num[j] for j in range(i + 1, n))) // r[i]
    return num, det


class ExtensionField:
    """A simple algebraic extension of ``base`` by a root of ``minpoly``.

    ``minpoly`` is a monic coefficient list (low-to-high) over ``base``,
    assumed irreducible there.  Elements are tuples of ``degree`` base
    elements, so tuples of ``Fraction`` when ``base`` is Q.  In such a
    field ``mul`` and ``inv`` run on integers, and every product, the
    series product of ``series.LaurentSeries`` included, is reduced by
    ``_reduce_int``.
    Constructing a field finds no roots: its numeric embeddings
    are computed on first use by ``embeddings()`` and kept.  The first of
    them is the canonical embedding, the one ``to_mpc`` uses by default.
    """

    def __init__(self, base, name, minpoly):
        minpoly = utrim(base, list(minpoly))
        if len(minpoly) < 3:
            raise ValueError("extension by a linear polynomial is pointless")
        if not base.eq(minpoly[-1], base.one()):
            lead_inv = base.inv(minpoly[-1])
            minpoly = [base.mul(c, lead_inv) for c in minpoly]
        self.base = base
        self.name = name
        self.minpoly = tuple(minpoly)
        self.degree = len(minpoly) - 1
        self.total_degree = base.total_degree * self.degree
        if self.total_degree > DEFAULT_TOWER_CAP:
            raise ExtensionTooLarge("tower degree %d exceeds cap %d"
                                    % (self.total_degree, DEFAULT_TOWER_CAP))
        self._red = self._reduction_table()
        if base is QQ:
            # The same table as integer rows over one common denominator,
            # for the integer reduction of ``_reduce_int``.
            self._red_den = lcm(*(c.denominator for row in self._red.values()
                                  for c in row))
            self._red_int = [[c.numerator * (self._red_den // c.denominator)
                              for c in self._red[k]]
                             for k in range(self.degree, 2 * self.degree - 1)]
        self._embeddings = None

    def _reduction_table(self):
        """Representations of gen^k, k = degree..2*degree-2, as vectors."""
        base, d = self.base, self.degree
        # gen^d = -(m_0 + m_1 gen + ...)
        top = [base.neg(c) for c in self.minpoly[:d]]
        table = {d: list(top)}
        cur = list(top)
        for k in range(d + 1, 2 * d - 1):
            nxt = [base.zero()] + cur[: d - 1]
            if not base.is_zero(cur[d - 1]):
                hi = cur[d - 1]
                nxt = [base.add(nxt[i], base.mul(hi, top[i])) for i in range(d)]
            table[k] = nxt
            cur = nxt
        return table

    # -- element construction ------------------------------------------
    def zero(self):
        return (self.base.zero(),) * self.degree

    def one(self):
        return (self.base.one(),) + (self.base.zero(),) * (self.degree - 1)

    def gen(self):
        v = [self.base.zero()] * self.degree
        v[1] = self.base.one()
        return tuple(v)

    def from_rat(self, r):
        return self.lift(self.base.from_rat(r))

    def lift(self, x):
        """Embed a base-field element."""
        return (x,) + (self.base.zero(),) * (self.degree - 1)

    def lift_from(self, field, x):
        """Embed an element of any field lower in this tower."""
        if field is self:
            return x
        chain = []
        f = self
        while f is not None and f is not field:
            chain.append(f)
            f = f.base
        if f is None:
            raise ValueError("field is not in this tower")
        for g in reversed(chain):
            x = g.lift(x)
        return x

    def from_vec(self, vec):
        vec = list(vec)
        if len(vec) > self.degree:
            raise ValueError("coordinate vector too long")
        vec += [self.base.zero()] * (self.degree - len(vec))
        return tuple(vec)

    # -- arithmetic ----------------------------------------------------
    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        base, d = self.base, self.degree
        if base is QQ:
            da, na = int_coords(a)
            db, nb = int_coords(b)
            prod = [0] * (2 * d - 1)
            convolve_into(prod, na, nb)
            out, scale = self._reduce_int(prod)
            den = da * db * scale
            return tuple(Fraction(n, den) for n in out)
        prod = [base.zero()] * (2 * d - 1)
        for i, x in enumerate(a):
            if base.is_zero(x):
                continue
            for j, y in enumerate(b):
                prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if base.is_zero(c):
                continue
            red = self._red[k]
            out = [base.add(out[i], base.mul(c, red[i])) for i in range(d)]
        return tuple(out)

    def _reduce_int(self, prod):
        """(out, scale): out/scale is the remainder of the integer
        polynomial ``prod`` (2*degree - 1 coefficients) by the minimal
        polynomial, from one pass over the integer reduction table (Cohen,
        A Course in Computational Algebraic Number Theory, 4.2).  The one
        reduction step of every product over Q, in ``mul``, ``inv`` and the
        series product."""
        d = self.degree
        if not any(prod[d:]):
            return prod[:d], 1
        scale = self._red_den
        out = [scale * c for c in prod[:d]]
        for c, row in zip(prod[d:], self._red_int):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return out, scale

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.base is not QQ:
            g, s, _ = ugcdext(self.base, utrim(self.base, list(a)),
                              list(self.minpoly))
            if len(g) != 1:
                raise ArithmeticError("minimal polynomial is not irreducible")
            return self.from_vec(s)
        # Over Q, a*x = 1 is M x = e_0, where column j of M holds the
        # coordinates of a*gen^j.  That column is c_j*v_j with v_j a
        # primitive integer vector; V y = e_0 is solved on integers and
        # x_j = y_j/c_j.  M is singular exactly when a is a zero divisor.
        d = self.degree
        da, na = int_coords(a)
        cols, factors = [], []
        for j in range(d):
            out, scale = self._reduce_int((0,) * j + na + (0,) * (d - 1 - j))
            g = gcd(*out) or 1
            cols.append([c // g for c in out])
            factors.append((da * scale, g))
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        solved = solve_fraction_free(rows)
        if solved is None:
            raise ArithmeticError("minimal polynomial is not irreducible")
        y, det = solved
        return tuple(Fraction(n * s, det * g) for n, (s, g) in zip(y, factors))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if n == 0:
            return self.one()
        out = None
        acc = a
        while n:
            if n & 1:
                out = acc if out is None else self.mul(out, acc)
            n >>= 1
            if n:
                acc = self.mul(acc, acc)
        return out

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def eq(self, a, b):
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    # -- structure -----------------------------------------------------
    def levels(self):
        return self.base.levels() + [self]

    def embeddings(self):
        """All numeric embeddings of the tower, as tuples of generator values,
        each base embedding followed by the roots of ``minpoly`` under it in
        ``conj_key`` order.  Computed once, on first use."""
        if self._embeddings is None:
            out = []
            with mpmath.workdps(EMBED_DPS):
                for emb in self.base.embeddings():
                    coeffs = [self.base.to_mpc(c, emb) for c in self.minpoly]
                    for r in poly_roots(coeffs, 300, 200):
                        out.append(emb + (r,))
            self._embeddings = tuple(out)
        return self._embeddings

    def to_mpc(self, a, embedding=None):
        if embedding is None:
            embedding = self.embeddings()[0]
        r = embedding[-1]
        acc = mpmath.mpc(0)
        for c in reversed(a):
            acc = acc * r + self.base.to_mpc(c, embedding[:-1])
        return acc

    def elem_str(self, a):
        parts = []
        for k, c in enumerate(a):
            if self.base.is_zero(c):
                continue
            cs = self.base.elem_str(c)
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append("(%s)*%s" % (cs, self.name))
            else:
                parts.append("(%s)*%s^%d" % (cs, self.name, k))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "%r(%s deg %d)" % (self.base, self.name, self.degree)


def coerce(field, src_field, x):
    """Lift x from src_field into field (which must contain it)."""
    if field is src_field:
        return x
    if field is QQ:
        raise ValueError("cannot coerce an extension element into Q")
    return field.lift_from(src_field, x)


def adjoin(base, coeffs, prefix):
    """A root of the irreducible polynomial with coefficients ``coeffs``
    (low-to-high, over ``base``), as (field, root): ``base`` and the root
    itself for a linear polynomial, else a new extension of ``base`` and
    its generator, named ``prefix`` plus the first number not yet used in
    the tower.  The one place where an ``ExtensionField`` is made."""
    if len(coeffs) == 2:
        return base, base.neg(base.div(coeffs[0], coeffs[1]))
    used = {lvl.name for lvl in base.levels()}
    k = len(used)
    while "%s%d" % (prefix, k) in used:
        k += 1
    ext = ExtensionField(base, "%s%d" % (prefix, k), coeffs)
    return ext, ext.gen()
