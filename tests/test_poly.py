import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from conftest import divides, squarefree_part
from polarmorse.fields import (QQ, ExtensionField, ExtensionTooLarge,
                               coerce, rat)
from polarmorse.poly import (Poly, PolyParseError, common_zeros, exact_div,
                             factor_qq,
                             factor_univariate, from_sympy, gcd_qq,
                             gcd_univar, minpoly_over, parse_poly, poly_str,
                             resultant, substitute, to_sympy)
from polarmorse.oracle import _to_mpf
from polarmorse.series import LaurentSeries, poly_at_series

V = ("x", "y")


def small_polys(arity=2, max_deg=3):
    coeff = st.integers(-5, 5).map(rat)
    exps = st.tuples(*(st.integers(0, max_deg) for _ in range(arity)))
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda d: Poly(QQ, arity, {e: c for e, c in d.items() if c != 0}))


def test_parse_and_print_round_trip():
    text = "2*x^3*y - 3*x^2*y^2 + 3*x - 3*y"
    p = parse_poly(text, V)
    assert poly_str(p, V) == text
    assert parse_poly(poly_str(p, V), V) == p


def test_parse_rational_coefficients():
    p = parse_poly("1/3*x^3*y^2 + x*y", V)
    assert p.terms[(3, 2)] == rat(1, 3)
    assert p.terms[(1, 1)] == rat(1)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError):
        parse_poly("x + * y", V)
    with pytest.raises(PolyParseError):
        parse_poly("x + z", V)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == Poly.zero(QQ, 2)


@given(small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_derivation_product_rule(p, q):
    assert (p * q).diff(0) == p.diff(0) * q + p * q.diff(0)


def test_homogenize_dehomogenize():
    f = parse_poly("x + x^2*y", V)
    F = f.homogenize()
    assert F.is_homogeneous()
    assert F.dehomogenize(2) == f
    chart = F.dehomogenize(1)          # (x, z) coordinates
    assert chart == parse_poly("x*z^2 + x^2", ("x", "z"))


def test_eval_and_translate():
    f = parse_poly("x^2 + y^2 - 1", V)
    assert f.eval((rat(1), rat(0))) == rat(0)
    g = f.translate((rat(1), rat(0)))
    assert g.constant_term() == rat(0)
    assert g == parse_poly("x^2 + 2*x + y^2", V)


def test_resultant_eliminates_common_root():
    # Res_x(x - y, x^2 - 2) = y^2 - 2
    r = resultant(parse_poly("x - y", V), parse_poly("x^2 - 2", V), 0)
    assert r == Poly(QQ, 1, {(2,): rat(1), (0,): rat(-2)})


def test_resultant_vanishes_iff_common_factor():
    p = parse_poly("x*y - 1", V)
    q = parse_poly("x^2*y - x", V)     # = x*(x*y - 1)
    assert resultant(p, q, 1).is_zero()


SQRT2 = ExtensionField(QQ, "s", [rat(-2), rat(0), rat(1)])


@given(small_polys(), small_polys(), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_rational_resultant_matches_sylvester(p, q, var):
    # sympy's PRS over ZZ against the determinant of the Sylvester matrix
    assume(p.degree_in(var) > 0 and q.degree_in(var) > 0)
    P, Q = to_sympy(p), to_sympy(q)
    det = sylvester(P.as_expr(), Q.as_expr(), P.gens[var]).det()
    expected = sympy.Poly(det, P.gens[1 - var], domain=sympy.QQ)
    assert to_sympy(resultant(p, q, var)).all_coeffs() == expected.all_coeffs()


@pytest.mark.parametrize("arity", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_sympy_bridge_round_trip(arity, data):
    coeff = st.builds(rat, st.integers(-9, 9), st.integers(1, 7))
    exps = st.tuples(*(st.integers(0, 4) for _ in range(arity)))
    terms = data.draw(st.dictionaries(exps, coeff, max_size=6))
    p = Poly(QQ, arity, {e: c for e, c in terms.items() if c != 0})
    assert from_sympy(to_sympy(p)) == p
    for c in (rat(0), rat(-3, 4)):
        const = Poly.const(QQ, arity, c)
        assert from_sympy(to_sympy(const)) == const


def test_resultant_rejects_non_bivariate():
    x = parse_poly("x^2 - 2", ("x",))
    with pytest.raises(ValueError):
        resultant(x, x.diff(0), 0)
    xyz = parse_poly("x*z - y", ("x", "y", "z"))
    with pytest.raises(ValueError):
        resultant(xyz, xyz, 2)
    xy = parse_poly("x*y - 1", V).to_field(SQRT2)
    with pytest.raises(ValueError):
        resultant(xy, xy.diff(1), 0)


def test_exact_div_and_divides():
    p = parse_poly("x^2 - y^2", V)
    q = parse_poly("x - y", V)
    assert exact_div(p, q) == parse_poly("x + y", V)
    assert divides(q, p)
    assert not divides(parse_poly("x + 1", V), p)
    with pytest.raises(ZeroDivisionError):
        exact_div(p, Poly.zero(QQ, 2))


def test_exact_div_over_extension():
    # univariate over Q(sqrt 2) by udivmod; multivariate is not supported
    s = Poly.const(SQRT2, 1, SQRT2.gen())
    t = Poly.var(SQRT2, 1, 0)
    assert exact_div(t * t - Poly.const(SQRT2, 1, SQRT2.from_rat(rat(2))),
                     t - s) == t + s
    with pytest.raises(ArithmeticError):
        exact_div(t * t, t - s)
    xy = parse_poly("x*y", V).to_field(SQRT2)
    with pytest.raises(ValueError):
        exact_div(xy, xy)


def test_gcd_and_squarefree():
    p = parse_poly("x^2*y - x*y^2", V)
    q = parse_poly("x^2 - x*y", V)
    g = gcd_qq(p, q)
    assert divides(g, p) and divides(g, q)
    assert g.total_degree() == 2       # x*(x - y) up to a unit
    sq = squarefree_part(parse_poly("x^2*y^3", V))
    assert sq.total_degree() == 2


def test_squarefree_part_needs_rationals():
    K = ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])
    t = Poly.var(K, 1, 0)
    with pytest.raises(ValueError):
        squarefree_part(t * t)


def test_factor_qq_bivariate():
    p = parse_poly("x^2 - y^2", V)
    _c, facs = factor_qq(p)
    assert sorted(f.total_degree() for f, _m in facs) == [1, 1]
    assert all(m == 1 for _f, m in facs)


def test_factor_univariate_over_extension():
    K = ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])   # Q(sqrt2)
    p = Poly(K, 1, {(2,): K.one(), (0,): K.from_rat(rat(-2))})  # T^2 - 2
    unit, facs = factor_univariate(p)
    assert len(facs) == 2
    assert all(f.degree_in(0) == 1 for f, _m in facs)
    prod = Poly.const(K, 1, unit)
    for f, m in facs:
        prod = prod * f ** m
    assert prod == p


def test_minpoly_over_subfield():
    K = ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])
    x = K.add(K.one(), K.gen())        # 1 + sqrt2
    mp = minpoly_over(K, x, QQ)
    assert mp == Poly(QQ, 1, {(2,): rat(1), (1,): rat(-2), (0,): rat(-1)})


K1 = ExtensionField(QQ, "a", [rat(-2), rat(0), rat(0), rat(1)])         # Q(2^(1/3))
K2 = ExtensionField(K1, "b", [K1.sub(K1.gen(), K1.one()), K1.zero(), K1.one()])
# K2 = K1(sqrt(1 - a)): 1 - a has norm -1 over Q, so it is no square in K1


@given(st.lists(st.builds(rat, st.integers(-4, 4), st.integers(1, 3)),
                min_size=6, max_size=6),
       st.sampled_from([QQ, K1, K2]))
@settings(max_examples=40, deadline=None)
def test_minpoly_over_tower(cs, sub):
    elem = (tuple(cs[:3]), tuple(cs[3:]))
    mp = minpoly_over(K2, elem, sub)
    deg = mp.degree_in(0)
    assert sub.eq(mp.terms[(deg,)], sub.one())
    assert K2.is_zero(mp.to_field(K2).eval([elem]))
    assert (K2.total_degree // sub.total_degree) % deg == 0
    _unit, facs = factor_univariate(mp)
    assert facs == [(mp, 1)]


def test_factor_univariate_over_tower():
    # Trager's norm over K2 down to K1, then over K1 down to Q
    a, b = coerce(K2, K1, K1.gen()), K2.gen()
    t = Poly.var(K2, 1, 0)
    ta, tb = t - Poly.const(K2, 1, a), t - Poly.const(K2, 1, b)
    tb_neg = t + Poly.const(K2, 1, b)
    tb2 = t * t - Poly.const(K2, 1, b)     # sqrt(b) is not in K2
    for p, degrees in ((tb * tb_neg * ta, [1, 1, 1]), (tb2 * ta, [1, 2])):
        unit, facs = factor_univariate(p)
        assert [f.degree_in(0) for f, _m in facs] == degrees
        prod = Poly.const(K2, 1, unit)
        for f, m in facs:
            prod = prod * f ** m
        assert prod == p


def test_minpoly_of_zero_over_own_field():
    for F in (QQ, K1, K2):
        assert minpoly_over(F, F.zero(), F) == Poly(F, 1, {(1,): F.one()})


def test_gcd_univar_over_extension():
    K = ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])
    r2 = K.gen()
    # (T - sqrt2)(T + 1) and (T - sqrt2)(T - 3)
    t = Poly.var(K, 1, 0)
    one = Poly.const(K, 1, K.one())
    lin = t - Poly.const(K, 1, r2)
    g = gcd_univar(lin * (t + one), lin * (t - one.scale(K.from_rat(rat(3)))))
    assert g == lin


@given(small_polys(max_deg=4), st.tuples(*[st.builds(rat, st.integers(-9, 9),
                                                     st.integers(1, 9))] * 2))
@settings(max_examples=80, deadline=None)
def test_evaluators_agree(p, v):
    """eval, compose, poly_at_series and numeric substitute are one evaluator."""
    value = p.eval(v)
    composed = p.compose([Poly.const(QQ, 2, c) for c in v])
    assert composed.is_constant() and composed.constant_term() == value
    series = poly_at_series(p, [LaurentSeries.const(QQ, c, 5) for c in v])
    assert series.coeff(0) == value
    with mpmath.workprec(256):
        numeric = substitute(p, (_to_mpf(v[0]), _to_mpf(v[1])), _to_mpf)
        assert abs(numeric - _to_mpf(value)) < mpmath.mpf(10) ** -60


def complex_points():
    part = st.builds(rat, st.integers(-99, 99), st.integers(1, 99))
    return st.tuples(*[st.tuples(part, part)] * 2)


@given(small_polys(max_deg=4), small_polys(max_deg=4), small_polys(max_deg=4),
       complex_points())
@settings(max_examples=60, deadline=None)
def test_shared_power_table_is_exact(p, q, r, pt):
    """A tuple of polynomials evaluates to exactly the values of the
    one-polynomial calls: sharing the table of powers changes no bit."""
    with mpmath.workprec(256):
        args = tuple(mpmath.mpc(_to_mpf(re), _to_mpf(im)) for re, im in pt)
        together = substitute((p, q, r), args, _to_mpf)
        assert together == tuple(substitute(s, args, _to_mpf) for s in (p, q, r))


def quotient_dimension(g1, g2):
    """dim_Q Q[x, y]/(g1, g2): the number of standard monomials of a
    grevlex Groebner basis, or None when that number is infinite."""
    gens = sympy.symbols("v0 v1")
    basis = sympy.groebner([to_sympy(g1), to_sympy(g2)], *gens, order="grevlex")
    leads = [sympy.Poly(b, *gens).monoms(order="grevlex")[0] for b in basis.exprs]
    pure_x = [a for a, b in leads if b == 0]
    pure_y = [b for a, b in leads if a == 0]
    if not pure_x or not pure_y:
        return None
    return sum(1 for i in range(min(pure_x)) for j in range(min(pure_y))
               if not any(i >= a and j >= b for a, b in leads))


def check_common_zeros(g1, g2):
    """The orbits of ``common_zeros`` are common zeros, and their
    multiplicities sum to the dimension of the quotient; returns the
    shear and the orbits."""
    c, zeros = common_zeros(g1, g2)
    for g, xr, yr, m in zeros:
        assert m >= 1 and max(xr.degree_in(0), yr.degree_in(0)) < g.degree_in(0)
        for h in (g1, g2):
            assert divides(g, h.compose([xr, yr]))
    total = sum(m * g.degree_in(0) for g, _x, _y, m in zeros)
    assert total == quotient_dimension(g1, g2)
    return c, zeros


def coprime_pair(g1, g2):
    return (not g1.is_constant() and not g2.is_constant()
            and gcd_qq(g1, g2).is_constant())


@given(small_polys(max_deg=2), small_polys(max_deg=2))
@settings(max_examples=40, deadline=None)
def test_common_zeros_multiplicities(g1, g2):
    assume(coprime_pair(g1, g2))
    check_common_zeros(g1, g2)


@given(small_polys(arity=1, max_deg=3), small_polys(max_deg=2))
@settings(max_examples=30, deadline=None)
def test_common_zeros_shear_univariate(p, g2):
    # a polynomial in x alone has no constant leading coefficient in y
    g1 = Poly(QQ, 2, {(e[0], 0): c for e, c in p.terms.items()})
    assume(coprime_pair(g1, g2))
    c, zeros = check_common_zeros(g1, g2)
    assert c != 0 or not zeros


def test_common_zeros_shear_vertical_line():
    # (+-1, +-sqrt 2): two points over each of x = 1 and x = -1
    g1, g2 = parse_poly("y^2 - 2", V), parse_poly("x^2 + y^2 - 3", V)
    c, zeros = check_common_zeros(g1, g2)
    assert c != 0 and sum(g.degree_in(0) for g, *_ in zeros) == 4


def singular_polys(max_deg=3):
    """Polynomials singular at the origin: every term of degree >= 2."""
    coeff = st.integers(-5, 5).filter(bool).map(rat)
    exps = st.tuples(*[st.integers(0, max_deg)] * 2).filter(
        lambda e: sum(e) >= 2)
    return st.dictionaries(exps, coeff, min_size=2, max_size=5).map(
        lambda d: Poly(QQ, 2, d))


@given(singular_polys(), singular_polys())
@settings(max_examples=30, deadline=None)
def test_common_zeros_both_singular(g1, g2):
    # both curves singular at the origin: the subresultant that reads y0
    # there has degree k > 1 in y, and the origin counts at least 2*2
    assume(coprime_pair(g1, g2))
    _c, zeros = check_common_zeros(g1, g2)
    origin = [m for g, xr, yr, m in zeros
              if g.degree_in(0) == 1 and xr.is_zero() and yr.is_zero()]
    assert origin and origin[0] >= 4


def test_common_zeros_milnor_sixteen():
    # the partials of -3/2*x^5 - x^2*y^3 - y^5 are both singular at the
    # origin, where they meet with multiplicity 16
    f = parse_poly("-3/2*x^5 - x^2*y^3 - y^5", V)
    _c, zeros = check_common_zeros(f.diff(0), f.diff(1))
    assert [m for g, xr, yr, m in zeros if xr.is_zero() and yr.is_zero()] == [16]


def test_common_zeros_cap():
    # the points (0, +-sqrt 2) form one orbit of two
    g1, g2 = parse_poly("y^2 - 2", V), parse_poly("x", V)
    assert [g.degree_in(0) for g, *_ in common_zeros(g1, g2)[1]] == [2]
    with pytest.raises(ExtensionTooLarge):
        common_zeros(g1, g2, cap=1)
    assert common_zeros(g1, parse_poly("3", V)) == (0, [])
    with pytest.raises(ValueError):
        common_zeros(g1, g1 * parse_poly("x", V))


def test_pow_costs_the_binary_expansion(monkeypatch):
    # p**k squares while bits remain and multiplies in the set bits after
    # the first: bit_length(k) - 1 + popcount(k) - 1 products
    p = parse_poly("x + y + 1", V)
    real = Poly.__mul__
    calls = []

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    expected = p
    for k, cost in enumerate([0, 1, 2, 2, 3, 3, 4, 3], start=1):
        calls.clear()
        assert p ** k == expected
        assert len(calls) == cost, k
        expected = real(expected, p)
    assert p ** 0 == Poly.const(QQ, 2, rat(1))
