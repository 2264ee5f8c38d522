"""Newton-polygon expansion of plane-curve germ branches.

Branches of F(x, y) = 0 through a point are computed rational-Puiseux
style: each class of conjugate branches is expanded once, over the
smallest extension of the coefficient field that supports it, and the
class size is recorded instead of expanding conjugates separately.  Edge
polynomials are taken in the variable c^q (Duval's reduction), so a
single geometric branch with ramification never splits into spurious
root-of-unity copies.  Parametrizations use an honest integer-exponent
local parameter: x(s) is a monomial c*s^e (or 0 for the vertical axis)
and y(s) an ordinary truncated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import adjoin, coerce
from .poly import Poly, factor_univariate
from .series import LaurentSeries, poly_at_series

_MAX_DEPTH = 64
_MAX_LIFT_ROUNDS = 64


class DegenerateComposition(Exception):
    """A composed series vanished identically up to the safety bound."""


INFINITE = "infinite"  # sentinel for limits at infinity on the value sphere


@dataclass(frozen=True)
class PuiseuxBranch:
    """One conjugacy class of branches of a curve germ.

    ``x_series`` is always a monomial (or the zero series for the
    vertical-line branch); ``y_series`` is a truncated power series.
    ``conj_multiplicity`` counts the conjugate geometric branches this
    expansion stands for.
    """

    field: object
    x_series: LaurentSeries
    y_series: LaurentSeries
    conj_multiplicity: int


def _staircase(points):
    """Minimal j per i, sorted by i."""
    best = {}
    for i, j in points:
        if i not in best or j < best[i]:
            best[i] = j
    return sorted(best.items())


def _lower_hull(points):
    pts = _staircase(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    # keep only the strictly descending part (edges facing the origin)
    out = []
    for a, b in zip(hull, hull[1:]):
        if b[1] < a[1]:
            out.append((a, b))
    return out


def _edge_data(F, a_pt, b_pt):
    """Slope p/q, Bezout pair, weight, and on-edge terms."""
    (i1, j1), (i2, j2) = a_pt, b_pt
    di, dj = i2 - i1, j1 - j2
    g = math.gcd(di, dj)
    p, q = di // g, dj // g
    weight = q * i1 + p * j1
    on_edge = {e: c for e, c in F.terms.items() if q * e[0] + p * e[1] == weight}
    # a*q - b*p = 1
    gg, a, minus_b = _ext_gcd(q, p)
    if gg != 1:
        raise AssertionError("edge slope %d/%d not in lowest terms" % (p, q))
    b = -minus_b
    return p, q, a, b, weight, on_edge


def _ext_gcd(m, n):
    if n == 0:
        return m, 1, 0
    g, x, y = _ext_gcd(n, m % n)
    return g, y, x - (m // n) * y


def _edge_poly(field, on_edge, a, b):
    """Reduced edge polynomial in the variable c^q."""
    exps = {b * i + a * j: c for (i, j), c in on_edge.items()}
    lo = min(exps)
    return Poly(field, 1, {(k - lo,): c for k, c in exps.items()})


def _strip_axis_powers(F):
    ax = min(e[0] for e in F.terms)
    ay = min(e[1] for e in F.terms)
    if ax == 0 and ay == 0:
        return F, 0, 0
    stripped = Poly(F.field, 2, {(i - ax, j - ay): c for (i, j), c in F.terms.items()})
    return stripped, ax, ay


def _duval_substitute(F, field, c0, p, q, a, b, weight):
    """F(c0^b * x1^q, x1^p * (c0^a + y1)) / x1^weight over ``field``."""
    x1 = Poly(field, 2, {(q, 0): field.pow(c0, b)})
    y1 = Poly(field, 2, {(p, 1): field.one(), (p, 0): field.pow(c0, a)})
    G = F.compose((x1, y1))
    if any(i < weight for i, _j in G.terms):
        raise AssertionError("a term of the substitution lies below the edge")
    return Poly(field, 2, {(i - weight, j): c for (i, j), c in G.terms.items()})


def _newton_lift(G, field, target):
    """Unique series y(x) with y(0) = 0, G(x, y(x)) = 0, dG/dy a unit."""
    x = LaurentSeries.monomial(field, field.one(), 1, target)
    y = LaurentSeries.zero(field, target)
    gy = G.diff(1)
    for _ in range(_MAX_LIFT_ROUNDS):
        num = poly_at_series(G, (x, y))
        if num.is_zero_shown():
            return y
        den = poly_at_series(gy, (x, y))
        y = y - num / den
    raise ArithmeticError("Newton lifting failed to converge")


def _expand_core(F, field, target, depth, top_level):
    if depth > _MAX_DEPTH:
        raise ArithmeticError("Puiseux recursion exceeded its depth bound")
    branches = []
    F, ax, ay = _strip_axis_powers(F)
    if ax > 0 and top_level:
        branches.append((field, LaurentSeries.zero(field, target),
                         LaurentSeries.monomial(field, field.one(), 1, target), 1))
    if ay > 0:
        branches.append((field, LaurentSeries.monomial(field, field.one(), 1, target),
                         LaurentSeries.zero(field, target), 1))
    if not field.is_zero(F.constant_term()):
        return branches
    for a_pt, b_pt in _lower_hull(F.terms.keys()):
        p, q, a, b, weight, on_edge = _edge_data(F, a_pt, b_pt)
        edge = _edge_poly(field, on_edge, a, b)
        _unit, facs = factor_univariate(edge)
        for h, mult in facs:
            # the edge polynomial has a nonzero constant term, so c0 != 0
            f2, c0 = adjoin(field, h.coeffs_in(0), "g")
            G1 = _duval_substitute(F.to_field(f2), f2, c0, p, q, a, b, weight)
            c0b = f2.pow(c0, b)
            c0a = f2.pow(c0, a)
            if mult == 1:
                psi = _newton_lift(G1, f2, target)
                inner = [(f2, LaurentSeries.monomial(f2, f2.one(), 1, target), psi, 1)]
            else:
                inner = _expand_core(G1, f2, target, depth + 1, False)
            for bf, x_in, y_in, cm in inner:
                c0b_l = coerce(bf, f2, c0b)
                c0a_l = coerce(bf, f2, c0a)
                x_out = (x_in ** q).scale(c0b_l)
                y_out = (x_in ** p) * (y_in + LaurentSeries.const(bf, c0a_l, y_in.trunc))
                branches.append((bf, x_out, y_out, cm * h.degree_in(0)))
    return branches


def expand_branches(F, target_order):
    """All branch classes of F = 0 through the origin.

    ``F`` must be bivariate and squarefree.  Each branch satisfies
    F(x(s), y(s)) = 0 exactly to its truncation.
    """
    if F.is_zero():
        raise ValueError("cannot expand branches of the zero polynomial")
    field = F.field
    if not field.is_zero(F.constant_term()):
        raise ValueError("the curve does not pass through the origin")
    return [PuiseuxBranch(*b) for b in _expand_core(F, field, target_order, 0, True)]


def series_order_after_limit(series):
    """Limit value and order convention for f along an escaping arc.

    For a certified series: negative order means the limit is infinite and
    the order is returned as-is; otherwise the limit is the constant term
    and the order is that of (series - limit).
    """
    o = series.order()  # raises SeriesPrecisionLoss when uncertified
    if o < 0:
        return INFINITE, o
    alpha = series.coeff(0)
    rest = series - LaurentSeries.const(series.field, alpha, series.trunc)
    return alpha, rest.order()
