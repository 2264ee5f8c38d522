import pytest

from conftest import divides, squarefree_part
from polarmorse.fields import QQ, rat
from polarmorse.poly import Poly, factor_qq, parse_poly
from polarmorse.morse import affine_candidates
from polarmorse.polar import (LinearForm, check_genericity, draw_generic_ell,
                              polar_equation, singular_locus)

V = ("x", "y")


def polar_of(f, ell):
    """The polar curve of (f, ell), with Sing f computed for it."""
    return polar_equation(f, ell, singular_locus(f))


def test_linear_form_rejects_zero():
    with pytest.raises(ValueError):
        LinearForm(rat(0), rat(0))


def test_polar_equation_cubic(cubic_tail, ell_xy):
    pc = polar_of(cubic_tail, ell_xy)
    # x^2 - 2xy - 1 = -(2xy + 1 - x^2)
    assert pc.equation == parse_poly("x^2 - 2*x*y - 1", V)
    assert pc.equation.total_degree() == 2


def test_polar_equation_quintic(quintic_node, ell_xy):
    pc = polar_of(quintic_node, ell_xy)
    expected = parse_poly("y - x + x^2*y^2 - 2/3*x^3*y", V)
    # equal up to a constant unit
    ratio = None
    assert set(pc.equation.terms) == set(expected.terms)
    for e, c in expected.terms.items():
        r = pc.equation.terms[e] / c
        assert ratio is None or r == ratio
        ratio = r


def test_polar_quadratic_is_line(ell_xy):
    pc = polar_of(parse_poly("x^2 + y^2", V), ell_xy)
    assert pc.equation.total_degree() == 1
    assert set(pc.equation.terms) == {(1, 0), (0, 1)}


@pytest.mark.parametrize("text", [
    pytest.param("x*y + 1/3*x^3*y^2 + x^6", id="sextic"),
    pytest.param("(x^2 - y^2)^2*(x + 3)", id="two_lines"),
    pytest.param("x^2*y^2*(x + y + 1)", id="axes"),
    # f = p^2*q, as in the benchmark's non-reduced corpus
    pytest.param("(x - 2*y + 1)^2*(x^2 + y - 2)", id="p2q_line"),
    pytest.param("(2*x^2 - x*y + y - 1)^2*(x + 2*y)", id="p2q_conic"),
    pytest.param("(x*y - x + 2)^2*(y^2 + x - 1)", id="p2q_hyperbola")])
def test_polar_factors_divide_raw_and_not_both_partials(text, ell_xy):
    # the equation is the product of the factors of the raw polar that do
    # not divide both partials; those that do are the curves of Sing f
    f = parse_poly(text, V)
    components = singular_locus(f)
    pc = polar_equation(f, ell_xy, components)
    fx, fy = f.diff(0), f.diff(1)
    raw = fy - fx
    expected = Poly.const(QQ, 2, rat(1))
    dropped = 0
    for fac, _m in factor_qq(raw)[1]:
        if divides(fac, fx) and divides(fac, fy):
            dropped += 1
        else:
            expected = expected * fac
    assert pc.equation == expected
    assert divides(pc.equation, raw)
    assert dropped == len(components)


def test_infinity_points_cubic(cubic_tail, ell_xy):
    pts = polar_of(cubic_tail, ell_xy).infinity_points
    reps = sorted(p.coords_str() for p in pts)
    assert reps == ["[0 : 1 : 0]", "[2 : 1 : 0]"]


def test_infinity_points_quintic(quintic_node, ell_xy):
    pts = polar_of(quintic_node, ell_xy).infinity_points
    reps = sorted(p.coords_str() for p in pts)
    assert reps == ["[0 : 1 : 0]", "[1 : 0 : 0]", "[3/2 : 1 : 0]"]


def test_infinity_degrees_sum_to_degree(quintic_node, sextic_eight, ell_xy):
    # one orbit per irreducible factor of the top-degree form, of the
    # factor's degree
    for f in (quintic_node, sextic_eight):
        pc = polar_of(f, ell_xy)
        top = squarefree_part(pc.equation.top_form())
        assert (sum(p.field.total_degree for p in pc.infinity_points)
                == top.total_degree())


def test_singular_locus_empty(cubic_tail, ell_xy):
    assert singular_locus(cubic_tail) == ()
    assert affine_candidates(cubic_tail, ell_xy, polar_of(cubic_tail, ell_xy)) == []


def test_singular_locus_origin(quintic_node, ell_xy):
    # the node at the origin is the one point of Sing f, of Milnor number 1
    (cand,) = affine_candidates(quintic_node, ell_xy, polar_of(quintic_node, ell_xy))
    p, m = cand
    assert p.field is QQ and p.coords == (rat(0), rat(0))
    assert m == 1


def test_singular_locus_eight_points(sextic_eight, ell_xy):
    cands = affine_candidates(sextic_eight, ell_xy, polar_of(sextic_eight, ell_xy))
    assert sum(p.field.total_degree for p, _m in cands) == 8
    assert all(m == 1 for _p, m in cands)
    # each listed point annihilates both partials
    fx, fy = sextic_eight.diff(0), sextic_eight.diff(1)
    for p, _m in cands:
        assert p.field.is_zero(fx.to_field(p.field).eval(p.coords))
        assert p.field.is_zero(fy.to_field(p.field).eval(p.coords))


def test_singular_points_lie_on_polar(sextic_eight, ell_xy):
    pc = polar_of(sextic_eight, ell_xy)
    for p, _m in affine_candidates(sextic_eight, ell_xy, pc):
        val = pc.equation.to_field(p.field).eval(p.coords)
        assert p.field.is_zero(val)


def test_one_dim_component_detected():
    (component,) = singular_locus(parse_poly("x^2*y", V))
    assert component.total_degree() == 1


def genericity(f, ell):
    components = singular_locus(f)
    return check_genericity(ell, components, polar_equation(f, ell, components))


def test_genericity_accepts_good_pair(cubic_tail, ell_xy):
    rep = genericity(cubic_tail, ell_xy)
    assert rep.polar_squarefree and rep.ell_avoids_infinity_points
    assert rep.accepted()


def test_genericity_rejects_nonreduced_polar():
    rep = genericity(parse_poly("x^2*y", V), LinearForm(rat(1), rat(0)))
    assert not rep.polar_squarefree


def test_genericity_rejects_ell_through_infinity_point(cubic_tail):
    # polar top form for ell = x: x^2 - 0 has the root [0:1:0] = [b:-a:0]
    rep = genericity(cubic_tail, LinearForm(rat(1), rat(0)))
    assert not rep.ell_avoids_infinity_points


def test_draw_is_deterministic():
    def draws(seed):
        return [(i, e.a, e.b) for i, e in draw_generic_ell(seed, 16)]

    assert draws(7) == draws(7)
    assert [i for i, _a, _b in draws(7)] == list(range(16))
    assert draws(8)[0][1:] != draws(7)[0][1:]


def test_draw_height_bound():
    for _i, ell in draw_generic_ell(3, 16):
        for c in (ell.a, ell.b):
            assert abs(c.numerator) <= 97 and 1 <= c.denominator <= 97


def test_polar_records_squarefree_flag(ell_xy):
    assert polar_of(parse_poly("x^2 + y^2", V), ell_xy).squarefree
    pc = polar_of(parse_poly("x^2*y", V), LinearForm(rat(1), rat(0)))
    assert not pc.squarefree


def test_polar_of_a_function_of_ell_is_zero():
    f = parse_poly("(x + 2*y)^3 + x + 2*y", V)
    ell = LinearForm(rat(1), rat(2))
    components = singular_locus(f)
    pc = polar_equation(f, ell, components)
    assert pc.equation.is_zero() and not pc.squarefree
    rep = check_genericity(ell, components, pc)
    assert not (rep.polar_squarefree or rep.ell_avoids_infinity_points)


def test_polar_constant_rejected(ell_xy):
    with pytest.raises(ValueError):
        polar_equation(parse_poly("5", V), ell_xy, ())
