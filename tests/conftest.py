"""Fixtures and helpers shared by the tests; the helpers are imported as
``from conftest import ...``."""

import mpmath
import pytest

from polarmorse.fields import QQ, rat
from polarmorse.poly import Poly, exact_div, factor_qq, parse_poly
from polarmorse.polar import LinearForm
from polarmorse.series import LaurentSeries, poly_at_series

VARS = ("x", "y")


def make_series(field, items, trunc):
    """The series sum of c*s^e over ``items`` (repeated exponents add up),
    known to O(s^trunc)."""
    coeffs = {}
    for e, c in items:
        if e >= trunc or field.is_zero(c):
            continue
        if e in coeffs:
            c = field.add(coeffs[e], c)
            if field.is_zero(c):
                del coeffs[e]
                continue
        coeffs[e] = c
    return LaurentSeries(field, coeffs, trunc)


def branch_residual(F, branch):
    """F composed with the branch parametrization (must vanish to trunc)."""
    Fb = F.to_field(branch.field)
    return poly_at_series(Fb, (branch.x_series, branch.y_series))


def divides(q, p):
    """Whether q divides p exactly."""
    try:
        exact_div(p, q)
    except ArithmeticError:
        return False
    return True


def squarefree_part(p):
    """Product of the distinct irreducible factors of p over Q
    (unit-normalized)."""
    out = Poly.const(QQ, p.arity, rat(1))
    for fac, _m in factor_qq(p)[1]:
        out = out * fac
    return out


def count_polyval(monkeypatch):
    """Count the polynomial evaluations of mpmath's Durand–Kerner
    iteration from now on: one per root per sweep."""
    calls = []
    real = type(mpmath.mp).polyval

    def polyval(ctx, *args, **kwargs):
        calls.append(None)
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(type(mpmath.mp), "polyval", polyval)
    return calls


def random_acceptance_f(rng):
    """A random input of the acceptance suite's conservation corpus: each
    monomial of total degree at most 4 with probability 0.45, coefficient
    +-1..9 over 1..9; total degree at least 2."""
    while True:
        terms = {}
        for i in range(5):
            for j in range(5 - i):
                if rng.random() < 0.45:
                    num = rng.randint(-9, 9)
                    if num:
                        terms[(i, j)] = rat(num, rng.randint(1, 9))
        f = Poly(QQ, 2, terms)
        if f.total_degree() >= 2:
            return f


def count_vanishing_solutions(g_order, h_order):
    """Number of nonzero roots of g - t*h converging to 0 as t -> 0."""
    return g_order - h_order if g_order >= h_order else 0


@pytest.fixture(scope="session")
def ell_xy():
    return LinearForm(rat(1), rat(1))


@pytest.fixture(scope="session")
def cubic_tail():
    """f = x + x^2*y: empty singular locus, everything escapes."""
    return parse_poly("x + x^2*y", VARS)


@pytest.fixture(scope="session")
def quintic_node():
    """f = xy + x^3*y^2/3: one singular point at the origin."""
    return parse_poly("x*y + 1/3*x^3*y^2", VARS)


@pytest.fixture(scope="session")
def sextic_eight():
    """f = xy + x^3*y^2/3 + x^6: eight isolated singular points."""
    return parse_poly("x*y + 1/3*x^3*y^2 + x^6", VARS)
