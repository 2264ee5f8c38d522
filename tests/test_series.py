from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_series
from polarmorse.fields import QQ, ExtensionField, rat
from polarmorse.poly import parse_poly
from polarmorse.series import LaurentSeries, SeriesPrecisionLoss, poly_at_series


def series_from(items, trunc=10):
    return make_series(QQ, [(e, rat(c)) for e, c in items], trunc)


def laurent_strategy():
    coeff = st.integers(-5, 5)
    item = st.tuples(st.integers(-4, 6), coeff)
    return st.lists(item, max_size=5).map(lambda xs: series_from(xs, trunc=12))


def test_order_and_coeff():
    s = series_from([(-2, 3), (1, 5)])
    assert s.order() == -2
    assert s.coeff(-2) == rat(3)
    assert s.coeff(0) == rat(0)
    with pytest.raises(SeriesPrecisionLoss):
        s.coeff(11)


def test_zero_shown_is_not_zero_certified():
    z = LaurentSeries.zero(QQ, 5)
    assert z.is_zero_shown()
    with pytest.raises(SeriesPrecisionLoss):
        z.order()


def test_multiplication_truncation_bookkeeping():
    a = series_from([(1, 1)], trunc=5)     # s + O(s^5)
    b = series_from([(2, 1)], trunc=7)     # s^2 + O(s^7)
    p = a * b
    assert p.order() == 3
    # error terms: O(s^5)*s^2 and O(s^7)*s meet at s^7
    assert p.trunc == 7


def test_inverse_round_trip():
    a = series_from([(-1, 2), (0, 1)], trunc=12)   # 2/s + 1
    prod = a * a.inverse()
    assert prod.coeff(0) == rat(1)
    assert all(prod.coeff(k) == rat(0) for k in range(1, prod.trunc))


def test_inverse_requires_certified_leading_term():
    with pytest.raises(SeriesPrecisionLoss):
        LaurentSeries.zero(QQ, 8).inverse()


def test_negative_power():
    s = series_from([(1, 1)], trunc=9)
    inv2 = s ** (-2)
    assert inv2.order() == -2
    assert inv2.coeff(-2) == rat(1)


@given(laurent_strategy(), laurent_strategy(), laurent_strategy())
@example(series_from([(-4, 1)], trunc=12),
         series_from([(2, 1), (-4, -1)], trunc=12),
         series_from([(6, 1)], trunc=12))
@settings(max_examples=60, deadline=None)
def test_ring_identities(a, b, c):
    # a + b may cancel its low terms, so (a+b)*c can be known further
    # than a*c + b*c: they agree up to the smaller truncation
    lhs, rhs = (a + b) * c, a * c + b * c
    if lhs.trunc == rhs.trunc:
        assert lhs == rhs
    else:
        assert (lhs - rhs).is_zero_shown()
    assert a * b == b * a
    assert (a - a).is_zero_shown()


@given(laurent_strategy())
@settings(max_examples=60, deadline=None)
def test_shift_round_trip(a):
    assert a.shift(3).shift(-3) == a


SQRT2 = ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])


def invertible_series(field):
    """Series with a certified leading term; coefficients a + b*gen."""
    def elem(ab):
        a, b = ab
        if field is QQ:
            return rat(a)
        return field.add(field.from_rat(rat(a)),
                         field.mul(field.from_rat(rat(b)), field.gen()))

    coeff = st.tuples(st.integers(-5, 5), st.integers(-3, 3)).map(elem)
    lead = coeff.filter(lambda c: not field.is_zero(c))
    return st.builds(
        lambda o, c0, rest, trunc: make_series(
            field, [(o, c0)] + [(o + 1 + k, c) for k, c in enumerate(rest)], trunc),
        st.integers(-3, 3), lead, st.lists(coeff, max_size=6),
        st.integers(4, 12))


@pytest.mark.parametrize("field", [QQ, SQRT2], ids=["QQ", "sqrt2"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_is_exact(field, data):
    a = data.draw(invertible_series(field))
    inv = a.inverse()
    assert inv.trunc == a.trunc - 2 * a.order()
    prod = a * inv
    assert prod.trunc > 0
    assert prod == LaurentSeries.const(field, field.one(), prod.trunc)


# Q(theta) for a cubic with non-integer coefficients and a non-unit leading
# coefficient, and Q(sqrt2)(b) with b^2 = sqrt2.
CUBIC = ExtensionField(QQ, "t", [rat(3, 2), rat(-1, 3), rat(0), rat(5, 7)])
TOWER = ExtensionField(SQRT2, "b", [SQRT2.neg(SQRT2.gen()), SQRT2.zero(),
                                    SQRT2.one()])


def reference_product(a, b):
    """a*b by the schoolbook sum of c1*c2 over every pair of stored
    coefficients below the truncation, zero sums dropped."""
    f = a.field
    trunc = min(a.trunc + b._low(), b.trunc + a._low())
    coeffs = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            if e1 + e2 < trunc:
                coeffs[e1 + e2] = f.add(coeffs.get(e1 + e2, f.zero()),
                                        f.mul(c1, c2))
    return LaurentSeries(f, {e: c for e, c in coeffs.items()
                             if not f.is_zero(c)}, trunc)


def field_element(field, draw):
    if field is QQ:
        return draw(st.builds(rat, st.integers(-9, 9), st.integers(1, 9)))
    if field is TOWER:
        return TOWER.from_vec([field_element(SQRT2, draw),
                               field_element(SQRT2, draw)])
    n = draw(st.integers(0, field.degree))
    return field.from_vec([draw(st.builds(rat, st.integers(-2 ** 40, 2 ** 40),
                                          st.integers(1, 30)))
                           for _ in range(n)])


def random_series(field, draw):
    items = draw(st.lists(st.integers(-3, 8), max_size=6))
    return make_series(field, [(e, field_element(field, draw)) for e in items],
                       draw(st.integers(1, 10)))


@pytest.mark.parametrize("field", [CUBIC, TOWER, QQ], ids=["cubic", "tower", "QQ"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_product_matches_schoolbook(field, data):
    a, b = random_series(field, data.draw), random_series(field, data.draw)
    got, want = a * b, reference_product(a, b)
    assert got == want and got.trunc == want.trunc
    assert not any(field.is_zero(c) for c in got.coeffs.values())
    if field is CUBIC:
        assert all(type(x) is Fraction for c in got.coeffs.values() for x in c)


@pytest.mark.parametrize("field", [CUBIC, TOWER, QQ], ids=["cubic", "tower", "QQ"])
def test_product_drops_cancelled_coefficient(field):
    # (u + v s)(w + z s) with u z = -v w: the coefficient of s cancels
    if field is QQ:
        u, v, w = rat(2, 3), rat(-5), rat(7, 4)
    else:
        g = field.gen()
        u, v = g, field.add(field.one(), g)
        w = field.mul(g, g)
    z = field.neg(field.div(field.mul(v, w), u))
    a = make_series(field, [(0, u), (1, v), (5, field.one())], 6)
    b = make_series(field, [(0, w), (1, z)], 4)
    got = a * b
    assert got.trunc == 4
    assert set(got.coeffs) == {0, 2}
    assert got == reference_product(a, b)


def test_poly_at_series_matches_direct_composition():
    f = parse_poly("x + x^2*y", ("x", "y"))
    s = LaurentSeries.monomial(QQ, QQ.one(), 1, 10)
    # y = s/2 - 1/(2 s)
    y = series_from([(1, rat(1, 2)), (-1, rat(-1, 2))])
    val = poly_at_series(f, (s, y))
    assert val.coeff(1) == rat(1, 2)
    assert val.coeff(3) == rat(1, 2)
    assert val.order() == 1


def test_monotone_refinement():
    """Recomputing with a deeper truncation agrees on the shared prefix."""
    f = parse_poly("x + x^2*y + y^3", ("x", "y"))
    base = None
    for trunc in (6, 12, 24):
        s = LaurentSeries.monomial(QQ, QQ.one(), 1, trunc)
        y = make_series(
            QQ, [(1, rat(1, 2)), (-1, rat(-1, 2))], trunc)
        val = poly_at_series(f, (s, y))
        if base is None:
            base = val
        else:
            assert val.trunc >= base.trunc
            for e in range(base.order(), base.trunc):
                assert val.coeff(e) == base.coeff(e)
