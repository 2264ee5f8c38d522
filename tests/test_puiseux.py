import random

import mpmath
import pytest

from conftest import branch_residual, count_vanishing_solutions, squarefree_part
from polarmorse.fields import QQ, adjoin, rat
from polarmorse.poly import Poly, factor_qq, parse_poly, resultant
from polarmorse.puiseux import expand_branches, series_order_after_limit, INFINITE
from polarmorse.series import poly_at_series

V = ("x", "y")


def residual_ok(F, branches):
    for b in branches:
        r = branch_residual(F, b)
        assert r.is_zero_shown(), "branch fails to satisfy its curve"
    return True


def test_cusp_single_branch():
    F = parse_poly("y^2 - x^3", V)
    brs = expand_branches(F, target_order=12)
    assert len(brs) == 1
    b = brs[0]
    assert b.conj_multiplicity == 1
    assert b.x_series.order() == 2
    assert b.y_series.order() == 3
    residual_ok(F, brs)


def test_tangent_smooth_pair():
    F = parse_poly("y^2 - x^4 + y^5", V)
    brs = expand_branches(F, target_order=12)
    assert len(brs) == 2
    assert all(b.conj_multiplicity == 1 for b in brs)
    assert sorted(b.y_series.coeff(2) for b in brs) == [rat(-1), rat(1)]
    residual_ok(F, brs)


def test_conjugate_pair_counted_once():
    F = parse_poly("y^2 - 2*x^2", V)
    brs = expand_branches(F, target_order=8)
    assert len(brs) == 1
    assert brs[0].conj_multiplicity == 2
    residual_ok(F, brs)


def test_axis_branches():
    F = parse_poly("x*y^2 - x^2*y", V)   # x * y * (y - x)
    brs = expand_branches(F, target_order=8)
    assert len(brs) == 3
    kinds = set()
    for b in brs:
        if b.x_series.is_zero_shown():
            kinds.add("vertical")
        elif b.y_series.is_zero_shown():
            kinds.add("horizontal")
        else:
            kinds.add("diagonal")
    assert kinds == {"vertical", "horizontal", "diagonal"}


def test_ramified_class_over_extension():
    # c^3 + 1-type edge: one geometric branch despite three edge roots
    F = parse_poly("y^3 - x*y^3 + x^2 - 2/3*x^3", ("x", "y"))
    brs = expand_branches(F, target_order=12)
    assert len(brs) == 1
    assert brs[0].conj_multiplicity == 1
    assert brs[0].x_series.order() == 3
    assert brs[0].y_series.order() == 2
    residual_ok(F, brs)


def test_expand_at_shifted_center():
    # the curve through (1, 1), translated so that point is the origin
    G = parse_poly("y^2 - x^3", V).translate((rat(1), rat(1)))
    brs = expand_branches(G, target_order=8)
    assert len(brs) >= 1
    for b in brs:
        r = poly_at_series(G.to_field(b.field), (b.x_series, b.y_series))
        assert r.is_zero_shown()


def test_compose_and_limit():
    F = parse_poly("y^2 - x^3", V)
    b = expand_branches(F, target_order=12)[0]

    def on_branch(text):
        return poly_at_series(parse_poly(text, V).to_field(b.field),
                              (b.x_series, b.y_series))

    ser = on_branch("x*y")
    assert ser.order() == 5
    alpha, order = series_order_after_limit(ser)
    assert alpha == rat(0) and order == 5
    ratio = on_branch("1") / on_branch("x")
    alpha, order = series_order_after_limit(ratio)
    assert alpha is INFINITE and order == -2


def test_count_vanishing_solutions_formula():
    assert count_vanishing_solutions(3, 1) == 2
    assert count_vanishing_solutions(1, 1) == 0
    assert count_vanishing_solutions(-2, -1) == 0
    assert count_vanishing_solutions(2, -3) == 5


def _fiber_contact_total(G, x0=rat(0)):
    """Sum over all points of G above x = x0 of the branchwise contact
    with dG/dy, from expansions."""
    Gy = G.diff(1)
    gx = Poly(QQ, 1, {(e[1],): c for e, c in G.terms.items() if e[0] == 0})
    total = 0
    _c, facs = factor_qq(gx)
    for fac, _m in facs:
        if fac.degree_in(0) == 0:
            continue
        fld, y0 = adjoin(QQ, fac.coeffs_in(0), "r")
        brs = expand_branches(G.to_field(fld).translate((fld.zero(), y0)),
                              target_order=2 * G.total_degree() + 6)
        for b in brs:
            ser = poly_at_series(
                Gy.to_field(fld).translate((fld.zero(), y0)).to_field(b.field),
                (b.x_series, b.y_series))
            total += b.conj_multiplicity * ser.order()
    return total


@pytest.mark.parametrize("text", [
    "y^2 - x^3",
    "y^2 - x^5",
    "y^2 - x^4 + y^5",
    "y^3 - x^4",
    "y^2 - x^2 - x^3",
    "(1/2)*y^3 - x^2*y + x^4 - 1/3*x^5",
])
def test_multiplicity_sums_match_resultant_orders(text):
    G = squarefree_part(parse_poly(text.replace("(1/2)*", "1/2*"), V))
    n = G.degree_in(1)
    lead = G.coeffs_in(1)[n]
    assert not QQ.is_zero(lead.eval((rat(0),)))  # identity hypothesis
    R = resultant(G, G.diff(1), 1)
    m = 0
    while QQ.is_zero(R.coeffs_in(0)[m]):
        m += 1
    assert _fiber_contact_total(G) == m


def test_multiplicity_sums_random_curves():
    rng = random.Random(4242)
    checked = 0
    while checked < 6:
        terms = {}
        for i in range(4):
            for j in range(4 - i):
                if rng.random() < 0.6:
                    c = rng.randint(-4, 4)
                    if c:
                        terms[(i, j)] = rat(c)
        G = Poly(QQ, 2, terms)
        if G.is_constant() or G.degree_in(1) < 1:
            continue
        G = squarefree_part(G)
        if G.is_constant() or G.degree_in(1) < 1:
            continue
        n = G.degree_in(1)
        if QQ.is_zero(G.coeffs_in(1)[n].eval((rat(0),))):
            continue
        R = resultant(G, G.diff(1), 1)
        if R.is_constant() and not R.is_zero():
            ord_r = 0
        else:
            ord_r = 0
            cs = R.coeffs_in(0)
            while QQ.is_zero(cs[ord_r]):
                ord_r += 1
        assert _fiber_contact_total(G) == ord_r
        checked += 1
