"""Truncated Laurent series with exact coefficients.

A series stores finitely many exact coefficients indexed by integer
exponents, together with a truncation order: exponents >= trunc are
unknown.  Orders of vanishing computed from these series are exact as
long as a nonzero coefficient is stored below the truncation; a series
with no stored coefficients is only known to vanish up to its truncation,
which callers must treat as "insufficient precision", not as zero.

Over a simple extension Q(θ) a series holds each coefficient on
integers, as (den, integer coordinates) with den > 0 and gcd 1, from one
operation to the next; the ``Fraction`` tuples of the field are built
only when a coefficient is read.  Series over Q and over towers hold
field elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import QQ, convolve_into, int_coords, rat
from .poly import substitute


class SeriesPrecisionLoss(Exception):
    """A quantity's order could not be certified at the current truncation."""


def _on_integers(field):
    """Whether series over ``field`` hold their coefficients on integers."""
    return field.base is QQ


def _canon(den, nums):
    """The canonical (den, integer coordinates) of nums/den for den > 0,
    or None when it is zero."""
    if not any(nums):
        return None
    g = gcd(den, *nums)
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple(n // g for n in nums)


def _fractions(c):
    """The field element of a canonical coefficient."""
    den, nums = c
    return tuple(Fraction(n, den) for n in nums)


def _add_ints(a, b):
    (da, na), (db, nb) = a, b
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return _canon(da * sa, [x * sa + y * sb for x, y in zip(na, nb)])


def _product_ints(field, pairs):
    """The sum of the products of ``pairs`` of canonical coefficients,
    summed on integers over one denominator and reduced once."""
    den = lcm(*(da * db for (da, _), (db, _) in pairs))
    prod = [0] * (2 * field.degree - 1)
    for (da, na), (db, nb) in pairs:
        k = den // (da * db)
        convolve_into(prod, na if k == 1 else [k * x for x in na], nb)
    nums, scale = field._reduce_int(prod)
    return _canon(den * scale, nums)


class LaurentSeries:
    """A truncated Laurent series: ``field``, the nonzero coefficients
    ``coeffs`` (exponent -> field element) and ``trunc``, the exponent from
    which coefficients are unknown.

    Over a simple extension of Q the terms are held as exponent ->
    (den, integer coordinates), and ``coeffs`` and ``coeff`` build
    ``Fraction`` tuples from them when read; ``order``, ``_low`` and
    ``is_zero_shown`` read only the exponents."""

    __slots__ = ("field", "trunc", "_coeffs", "_ints")

    def __init__(self, field, coeffs, trunc):
        for e in coeffs:
            if e >= trunc:
                raise ValueError("stored coefficient at/above truncation")
        self.field = field
        self.trunc = trunc
        self._coeffs = coeffs
        self._ints = None

    @classmethod
    def _of(cls, field, terms, trunc):
        """The series of ``terms`` as ``_terms`` gives them, every exponent
        below ``trunc``."""
        s = object.__new__(cls)
        s.field, s.trunc = field, trunc
        if _on_integers(field):
            s._coeffs, s._ints = None, terms
        else:
            s._coeffs, s._ints = terms, None
        return s

    def _terms(self):
        """Exponent -> coefficient in the form the arithmetic uses:
        (den, integer coordinates) over a simple extension of Q, else the
        field element."""
        if self._ints is None and _on_integers(self.field):
            self._ints = {e: int_coords(c) for e, c in self._coeffs.items()}
        return self._coeffs if self._ints is None else self._ints

    @property
    def coeffs(self):
        """Exponent -> nonzero field element."""
        if self._coeffs is None:
            self._coeffs = {e: _fractions(c) for e, c in self._ints.items()}
        return self._coeffs

    def _exponents(self):
        return self._ints if self._coeffs is None else self._coeffs

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(field, trunc):
        return LaurentSeries(field, {}, trunc)

    @staticmethod
    def const(field, c, trunc):
        if field.is_zero(c):
            return LaurentSeries(field, {}, trunc)
        return LaurentSeries(field, {0: c}, trunc)

    @staticmethod
    def monomial(field, c, exponent, trunc):
        if field.is_zero(c):
            return LaurentSeries(field, {}, trunc)
        return LaurentSeries(field, {exponent: c}, trunc)

    # -- queries ---------------------------------------------------------
    def is_zero_shown(self):
        """True if no nonzero coefficient is stored (zero up to trunc)."""
        return not self._exponents()

    def order(self):
        """Exact order of vanishing; raises if nothing nonzero is stored."""
        if not self._exponents():
            raise SeriesPrecisionLoss(
                "series vanishes to its truncation (%d); order unknown" % self.trunc)
        return min(self._exponents())

    def coeff(self, e):
        if e >= self.trunc:
            raise SeriesPrecisionLoss("coefficient at %d is beyond truncation" % e)
        if self._coeffs is not None:
            return self._coeffs.get(e, self.field.zero())
        c = self._ints.get(e)
        return self.field.zero() if c is None else _fractions(c)

    def _low(self):
        """Lowest known exponent for truncation bookkeeping."""
        return min(self._exponents()) if self._exponents() else self.trunc

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = self._match(other)
        f = self.field
        trunc = min(self.trunc, other.trunc)
        if _on_integers(f):
            add = _add_ints
        else:
            def add(x, y):
                s = f.add(x, y)
                return None if f.is_zero(s) else s
        terms = {e: c for e, c in self._terms().items() if e < trunc}
        for e, c in other._terms().items():
            if e >= trunc:
                continue
            if e in terms:
                c = add(terms[e], c)
                if c is None:
                    del terms[e]
                    continue
            terms[e] = c
        return LaurentSeries._of(f, terms, trunc)

    def __neg__(self):
        f = self.field
        if _on_integers(f):
            terms = {e: (den, tuple(-n for n in nums))
                     for e, (den, nums) in self._terms().items()}
        else:
            terms = {e: f.neg(c) for e, c in self._terms().items()}
        return LaurentSeries._of(f, terms, self.trunc)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __mul__(self, other):
        other = self._match(other)
        f = self.field
        trunc = min(self.trunc + other._low(), other.trunc + self._low())
        if _on_integers(f):
            # All pairs of one exponent are summed on integers and the sum
            # is reduced once.
            pairs = {}
            for e1, c1 in self._terms().items():
                for e2, c2 in other._terms().items():
                    if e1 + e2 < trunc:
                        pairs.setdefault(e1 + e2, []).append((c1, c2))
            terms = {}
            for e, group in pairs.items():
                c = _product_ints(f, group)
                if c is not None:
                    terms[e] = c
            return LaurentSeries._of(f, terms, trunc)
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e >= trunc:
                    continue
                p = f.mul(c1, c2)
                if e in coeffs:
                    p = f.add(coeffs[e], p)
                if f.is_zero(p):
                    coeffs.pop(e, None)
                else:
                    coeffs[e] = p
        return LaurentSeries(f, coeffs, trunc)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return LaurentSeries(f, {}, self.trunc)
        if _on_integers(f):
            c = int_coords(c)
            terms = {e: _product_ints(f, [(v, c)])
                     for e, v in self._terms().items()}
        else:
            terms = {e: f.mul(v, c) for e, v in self._terms().items()}
        return LaurentSeries._of(f, terms, self.trunc)

    def shift(self, k):
        """Multiply by s^k."""
        return LaurentSeries._of(self.field,
                                 {e + k: c for e, c in self._terms().items()},
                                 self.trunc + k)

    def __pow__(self, n):
        f = self.field
        if n == 0:
            return LaurentSeries.const(f, f.one(), self.trunc - self._low() + 1
                                       if self._exponents() else self.trunc)
        out = None
        acc = self
        while n:
            if n & 1:
                out = acc if out is None else out * acc
            n >>= 1
            if n:
                acc = acc * acc
        return out

    def inverse(self):
        """Multiplicative inverse; requires a certified leading term.

        Newton iteration g <- g + g*(1 - u*g) on u = self*s^-o from
        g = 1/lead, which doubles the number of correct coefficients of 1/u
        per step.  The result is known up to s^(trunc - 2*o).
        """
        f = self.field
        o = self.order()  # raises on precision loss
        u = self.shift(-o)
        g = LaurentSeries.const(f, f.inv(self.coeff(o)), 1)
        n = 1
        while n < u.trunc:
            # g is exact below the old n; one step makes it exact below the new
            n = min(2 * n, u.trunc)
            g = LaurentSeries._of(f, g._terms(), n)
            g = g - g * (u * g - 1)
        return g.shift(-o)

    def __truediv__(self, other):
        return self * self._match(other).inverse()

    def _match(self, other):
        if isinstance(other, LaurentSeries):
            if other.field is not self.field:
                raise ValueError("mixed coefficient fields in series arithmetic")
            return other
        c = self.field.from_rat(rat(other))
        return LaurentSeries.const(self.field, c, self.trunc)



def poly_at_series(p, args):
    """Evaluate a polynomial at a tuple of series over p's field."""
    f = p.field
    trunc = min(a.trunc for a in args)
    return substitute(p, args, lambda c: LaurentSeries.const(f, c, trunc))
