"""Polar curve, singular locus, and genericity certification.

For f in two variables and a linear form ell = a*x + b*y, the polar
curve is the closure of the locus where grad f is parallel to (a, b)
away from Sing f: the squarefree part of a*f_y - b*f_x without the
one-dimensional components of Sing f, the irreducible factors that
divide both partials; ``singular_locus`` gives those components alone.
The points of Sing f on the polar curve, its isolated points among
them, are the common zeros of the polar curve and one partial
(``morse.affine_candidates``).
Each Galois orbit of points of P^2 is one ``PointClass``: the field of
one representative, whose total degree is the number of points, and the
representative's ``coords``, (x, y) or (u, 1, 0) or (1, 0, 0).  Its
``chart`` is the coordinate divided out to see it: None (that is, z) for
an affine point, else y or x.
Genericity of ell is certified a posteriori rather than described
symbolically: the raw polar must be squarefree, and the point of the
line ell = 0 on the line at infinity must avoid the ends of both the
polar curve and Sing f.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import QQ, adjoin, rat
from .poly import Poly, factor_qq, gcd_qq


class GenericityError(Exception):
    """No accepted linear form within the redraw budget."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class LinearForm:
    a: object
    b: object

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("the zero linear form is not allowed")

    def poly(self):
        x = Poly.var(QQ, 2, 0)
        y = Poly.var(QQ, 2, 1)
        return x.scale(rat(self.a)) + y.scale(rat(self.b))

    def __str__(self):
        return "(%s)*x + (%s)*y" % (self.a, self.b)


@dataclass(frozen=True)
class PointClass:
    """A Galois orbit of points of P^2 with coordinates in ``field``, one
    representative expanded; the orbit has ``field.total_degree`` points.

    ``coords`` are (x, y) for an affine point, and the homogeneous
    coordinates (u, 1, 0) or (1, 0, 0) for a point on the line at infinity.
    """

    field: object
    coords: tuple

    @property
    def chart(self):
        """The coordinate divided out to see the point: None (the affine
        plane) for an affine point, else "y" where y != 0 and "x" otherwise."""
        if len(self.coords) == 2:
            return None
        return "x" if self.field.is_zero(self.coords[1]) else "y"

    @classmethod
    def affine(cls, g, xr, yr):
        """The affine orbit over the roots X of g, irreducible over Q, at
        (xr(X), yr(X)), with xr and yr residues mod g in Q[X]."""
        K, X = adjoin(QQ, g.coeffs_in(0), "r")
        return cls(K, tuple(r.to_field(K).eval((X,)) for r in (xr, yr)))

    def coords_str(self):
        fmt = "(%s, %s)" if len(self.coords) == 2 else "[%s : %s : %s]"
        return fmt % tuple(map(self.field.elem_str, self.coords))


@dataclass(frozen=True)
class PolarCurve:
    equation: Poly
    infinity_points: tuple
    squarefree: bool           # the raw polar a*f_y - b*f_x is squarefree

    def is_empty(self):
        return self.equation.is_constant()


@dataclass
class GenericityReport:
    polar_squarefree: bool
    ell_avoids_infinity_points: bool
    no_degenerate_compositions: bool = True
    redraws: int = 0
    seed: object = None

    def accepted(self):
        return (self.polar_squarefree and self.ell_avoids_infinity_points
                and self.no_degenerate_compositions)


def _raw_polar(f, ell):
    fx, fy = f.diff(0), f.diff(1)
    return fy.scale(rat(ell.a)) - fx.scale(rat(ell.b))


def polar_equation(f, ell, components):
    """The polar curve of f with respect to ell, given the one-dimensional
    components of Sing f.

    The raw polar a*f_y - b*f_x is factored once.  A factor of it divides
    both partials exactly when it divides their gcd, that is when it is a
    one-dimensional component of Sing f; ``factor_qq`` normalizes the
    factors of both, so those are dropped by equality.  The others make up
    the equation, and the multiplicities give the ``squarefree`` flag.  A
    raw polar that vanishes identically (f a polynomial in ell) gives the
    zero equation.
    """
    if f.is_constant():
        raise ValueError("polar curve of a constant polynomial")
    raw = _raw_polar(f, ell)
    if raw.is_zero():
        return PolarCurve(raw, (), False)
    eq = Poly.const(QQ, 2, rat(1))
    if raw.is_constant():
        return PolarCurve(eq, (), True)
    _c, facs = factor_qq(raw)
    for fac, _m in facs:
        if fac not in components:
            eq = eq * fac
    squarefree = all(m == 1 for _fac, m in facs)
    if eq.is_constant():
        return PolarCurve(eq, (), squarefree)
    return PolarCurve(eq, tuple(_top_form_roots(eq)), squarefree)


def _top_form_roots(eq):
    """Orbits of roots of the top-degree form, as points [x : y : 0], one
    per irreducible factor."""
    top = eq.top_form()
    j_min = min(e[1] for e in top.terms)
    out = []
    if j_min > 0:
        out.append(PointClass(QQ, (QQ.one(), QQ.zero(), QQ.zero())))
    # dehomogenize by y: u = x/y
    tu = Poly(QQ, 1, {(e[0],): c for e, c in top.terms.items() if e[1] >= j_min})
    if not tu.is_constant():
        _c, facs = factor_qq(tu)
        for fac, _m in sorted(facs, key=lambda t: (t[0].degree_in(0), str(t[0]))):
            K, u = adjoin(QQ, fac.coeffs_in(0), "r")
            out.append(PointClass(K, (u, K.one(), K.zero())))
    return out


def singular_locus(f):
    """The one-dimensional components of Sing f: the irreducible factors
    of gcd(f_x, f_y), as ``factor_qq`` normalizes them."""
    if f.is_constant():
        raise ValueError("singular locus of a constant polynomial")
    comp = gcd_qq(f.diff(0), f.diff(1))
    if comp.is_constant():
        return ()
    return tuple(fac for fac, _m in factor_qq(comp)[1])


def check_genericity(ell, components, polar):
    """A-posteriori genericity flags for a candidate linear form, given
    the one-dimensional components of Sing f and the polar curve of
    (f, ell)."""
    if polar.equation.is_zero():
        return GenericityReport(False, False)
    # the point {ell = 0} ∩ {z = 0} is [b : -a : 0]
    pb, pa = rat(ell.b), QQ.neg(rat(ell.a))
    forms = [] if polar.is_empty() else [polar.equation]
    forms += list(components)
    avoided = not any(QQ.is_zero(g.top_form().eval((pb, pa))) for g in forms)
    return GenericityReport(polar.squarefree, avoided)


def draw_generic_ell(seed, max_redraws):
    """The seeded candidate linear forms, as (draw index, form): at most
    ``max_redraws`` small-height draws from one ``random.Random(seed)``
    sequence.  A draw of the zero form is counted but not yielded."""
    if max_redraws < 1:
        raise ValueError("max_redraws must be at least 1")
    rng = random.Random(seed)
    for i in range(max_redraws):
        a = rat(rng.randint(-97, 97), rng.randint(1, 97))
        b = rat(rng.randint(-97, 97), rng.randint(1, 97))
        if a != 0 or b != 0:
            yield i, LinearForm(a, b)
