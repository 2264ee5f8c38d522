"""Truncated Laurent series with exact coefficients.

A series stores finitely many exact coefficients indexed by integer
exponents, together with a truncation order: exponents >= trunc are
unknown.  Orders of vanishing computed from these series are exact as
long as a nonzero coefficient is stored below the truncation; a series
with no stored coefficients is only known to vanish up to its truncation,
which callers must treat as "insufficient precision", not as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ, coerce, rat
from .poly import substitute


class SeriesPrecisionLoss(Exception):
    """A quantity's order could not be certified at the current truncation."""


@dataclass(frozen=True)
class LaurentSeries:
    field: object
    coeffs: dict          # exponent -> nonzero field element
    trunc: int            # coefficients at exponents >= trunc are unknown

    def __post_init__(self):
        for e in self.coeffs:
            if e >= self.trunc:
                raise ValueError("stored coefficient at/above truncation")

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
        return not self.coeffs

    def order(self):
        """Exact order of vanishing; raises if nothing nonzero is stored."""
        if not self.coeffs:
            raise SeriesPrecisionLoss(
                "series vanishes to its truncation (%d); order unknown" % self.trunc)
        return min(self.coeffs)

    def coeff(self, e):
        if e >= self.trunc:
            raise SeriesPrecisionLoss("coefficient at %d is beyond truncation" % e)
        return self.coeffs.get(e, self.field.zero())

    def _low(self):
        """Lowest known exponent for truncation bookkeeping."""
        return min(self.coeffs) if self.coeffs else self.trunc

    # -- field coercion ---------------------------------------------------
    def to_field(self, target):
        if target is self.field:
            return self
        return LaurentSeries(
            target,
            {e: coerce(target, self.field, c) for e, c in self.coeffs.items()},
            self.trunc)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = self._match(other)
        f = self.field
        trunc = min(self.trunc, other.trunc)
        coeffs = {e: c for e, c in self.coeffs.items() if e < trunc}
        for e, c in other.coeffs.items():
            if e >= trunc:
                continue
            s = f.add(coeffs.get(e, f.zero()), c)
            if f.is_zero(s):
                coeffs.pop(e, None)
            else:
                coeffs[e] = s
        return LaurentSeries(f, coeffs, trunc)

    def __neg__(self):
        f = self.field
        return LaurentSeries(f, {e: f.neg(c) for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __mul__(self, other):
        other = self._match(other)
        f = self.field
        trunc = min(self.trunc + other._low(), other.trunc + self._low())
        if f.base is QQ:
            return LaurentSeries(f, f.cauchy_product(self.coeffs, other.coeffs, trunc),
                                 trunc)
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
        return LaurentSeries(f, {e: f.mul(v, c) for e, v in self.coeffs.items()}, self.trunc)

    def shift(self, k):
        """Multiply by s^k."""
        return LaurentSeries(self.field, {e + k: c for e, c in self.coeffs.items()},
                             self.trunc + k)

    def __pow__(self, n):
        f = self.field
        if n == 0:
            return LaurentSeries.const(f, f.one(), self.trunc - self._low() + 1
                                       if self.coeffs else self.trunc)
        if n < 0:
            return self.inverse() ** (-n)
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
        g = LaurentSeries.const(f, f.inv(self.coeffs[o]), 1)
        n = 1
        while n < u.trunc:
            # g is exact below the old n; one step makes it exact below the new
            n = min(2 * n, u.trunc)
            g = LaurentSeries(f, g.coeffs, n)
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

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.field is not other.field:
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.field.eq(c, other.coeffs[e]) for e, c in self.coeffs.items())

    def __hash__(self):
        return hash((frozenset(self.coeffs), self.trunc))

    def __str__(self):
        if not self.coeffs:
            return "O(s^%d)" % self.trunc
        parts = []
        for e in sorted(self.coeffs):
            c = self.field.elem_str(self.coeffs[e])
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append("(%s)*s" % c)
            else:
                parts.append("(%s)*s^%d" % (c, e))
        return " + ".join(parts) + " + O(s^%d)" % self.trunc


def poly_at_series(p, args):
    """Evaluate a polynomial at a tuple of series over p's field."""
    f = p.field
    trunc = min(a.trunc for a in args)
    return substitute(p, args, lambda c: LaurentSeries.const(f, c, trunc))
