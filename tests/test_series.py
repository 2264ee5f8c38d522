from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import make_series
from polarmorse.fields import QQ, ExtensionField, coerce, rat
from polarmorse.poly import Poly, parse_poly
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


# A test-local reference: a series is (dict exponent -> field element,
# trunc), and every operation works on field elements, with the
# truncation rules of ``LaurentSeries``.

def ref_of(s):
    return dict(s.coeffs), s.trunc


def ref_low(a):
    return min(a[0]) if a[0] else a[1]


def ref_nonzero(f, coeffs, trunc):
    return {e: c for e, c in coeffs.items() if not f.is_zero(c)}, trunc


def ref_add(f, a, b):
    trunc = min(a[1], b[1])
    out = {}
    for coeffs, _ in (a, b):
        for e, c in coeffs.items():
            if e < trunc:
                out[e] = f.add(out.get(e, f.zero()), c)
    return ref_nonzero(f, out, trunc)


def ref_neg(f, a):
    return {e: f.neg(c) for e, c in a[0].items()}, a[1]


def ref_mul(f, a, b):
    """The schoolbook sum of c1*c2 over every pair of stored coefficients
    below the truncation, zero sums dropped."""
    trunc = min(a[1] + ref_low(b), b[1] + ref_low(a))
    out = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            if e1 + e2 < trunc:
                out[e1 + e2] = f.add(out.get(e1 + e2, f.zero()), f.mul(c1, c2))
    return ref_nonzero(f, out, trunc)


def ref_inverse(f, a):
    """1/a by long division of 1 by u = a*s^-o, known to s^(trunc - 2*o)."""
    o = min(a[0])
    u = {e - o: c for e, c in a[0].items()}
    lead_inv = f.inv(u[0])
    g = []
    for n in range(a[1] - o):
        acc = f.one() if n == 0 else f.zero()
        for k in range(1, n + 1):
            if k in u:
                acc = f.sub(acc, f.mul(u[k], g[n - k]))
        g.append(f.mul(acc, lead_inv))
    return ref_nonzero(f, {n - o: c for n, c in enumerate(g)}, a[1] - 2 * o)


def ref_poly_at(p, args):
    """p(args) from one table of powers, as ``poly.substitute`` builds it."""
    f = p.field
    trunc = min(a[1] for a in args)

    def const(c):
        return ref_nonzero(f, {0: c}, trunc)

    pows = [[const(f.one())] for _ in args]
    out = const(f.zero())
    for e, c in p.terms.items():
        t = const(c)
        for i, n in enumerate(e):
            if n:
                pw = pows[i]
                while len(pw) <= n:
                    pw.append(ref_mul(f, pw[-1], args[i]))
                t = ref_mul(f, t, pw[n])
        out = ref_add(f, out, t)
    return out


def reference_product(a, b):
    return LaurentSeries(a.field, *ref_mul(a.field, ref_of(a), ref_of(b)))


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


FIELDS = pytest.mark.parametrize("field", [CUBIC, TOWER, QQ],
                                 ids=["cubic", "tower", "QQ"])


def assert_matches(got, want):
    """``got`` has the reference's coefficients and truncation, stores no
    zero, and over Q(theta) holds canonical integer coefficients, read as
    ``Fraction`` tuples."""
    f = got.field
    assert (got.coeffs, got.trunc) == want
    assert not any(f.is_zero(c) for c in got.coeffs.values())
    if f.base is QQ:
        assert all(type(x) is Fraction for c in got.coeffs.values() for x in c)
        for den, nums in got._terms().values():
            assert type(nums) is tuple and den > 0 and any(nums)
            assert gcd(den, *nums) == 1


@FIELDS
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_reference(field, data):
    a, b = random_series(field, data.draw), random_series(field, data.draw)
    # b takes -a's coefficient at some exponents, so that sums cancel
    cancel = data.draw(st.sets(st.sampled_from(sorted(a.coeffs) or [0])))
    b = LaurentSeries(field, {**b.coeffs, **{e: field.neg(a.coeffs[e])
                                             for e in cancel
                                             if e in a.coeffs and e < b.trunc}},
                      b.trunc)
    c = field_element(field, data.draw)
    k = data.draw(st.integers(-4, 4))
    m = LaurentSeries.monomial(field, c, k, data.draw(st.integers(k + 1, 12)))
    A, B, M = ref_of(a), ref_of(b), ref_of(m)

    def ref_scale(x, c):
        return ref_nonzero(field, {e: field.mul(v, c) for e, v in x[0].items()},
                           x[1])

    def ref_shift(x, k):
        return {e + k: v for e, v in x[0].items()}, x[1] + k

    assert_matches(a + b, ref_add(field, A, B))
    assert_matches(a - b, ref_add(field, A, ref_neg(field, B)))
    assert_matches(-a, ref_neg(field, A))
    assert_matches(a * b, ref_mul(field, A, B))
    assert_matches(a * m, ref_mul(field, A, M))
    assert_matches(m * b, ref_mul(field, M, B))
    assert_matches(a.scale(c), ref_scale(A, c))
    assert_matches(a.shift(k), ref_shift(A, k))
    assert_matches(a - a, ({}, a.trunc))
    # operands that are themselves results, held in the arithmetic's form
    x = a + b
    y = -(x * a)
    z = y.shift(k) - x.scale(c)
    X = ref_add(field, A, B)
    Y = ref_neg(field, ref_mul(field, X, A))
    assert_matches(z, ref_add(field, ref_shift(Y, k),
                              ref_neg(field, ref_scale(X, c))))
    assert_matches(z * y, ref_mul(field, ref_of(z), Y))


@FIELDS
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_matches_reference(field, data):
    a = random_series(field, data.draw)
    assume(not a.is_zero_shown())
    assert_matches(a.inverse(), ref_inverse(field, ref_of(a)))
    b = a.shift(2) + a.shift(2)
    assert_matches(b.inverse(), ref_inverse(field, ref_of(b)))


@pytest.mark.parametrize("field, sub", [(CUBIC, QQ), (SQRT2, QQ), (TOWER, SQRT2),
                                        (TOWER, QQ)],
                         ids=["cubic/QQ", "sqrt2/QQ", "tower/sqrt2", "tower/QQ"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_to_field_matches_reference(field, sub, data):
    a, b = random_series(sub, data.draw), random_series(field, data.draw)
    for s in (a, a + a):
        want = ({e: coerce(field, sub, c) for e, c in s.coeffs.items()}, s.trunc)
        got = s.to_field(field)
        assert_matches(got, want)
        assert_matches(got * b, ref_mul(field, want, ref_of(b)))


def random_poly(field, draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = field_element(field, draw)
        if not field.is_zero(c):
            terms[e] = c
    return Poly(field, 2, terms)


@FIELDS
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_poly_at_series_matches_reference(field, data):
    args = (random_series(field, data.draw), random_series(field, data.draw))
    refs = tuple(map(ref_of, args))
    for p in (random_poly(field, data.draw), Poly.zero(field, 2),
              Poly.const(field, 2, field.from_rat(rat(-3, 4)))):
        assert_matches(poly_at_series(p, args), ref_poly_at(p, refs))


def test_hash_ignores_the_truncation_as_eq_does():
    a, b = LaurentSeries(QQ, {0: rat(1)}, 5), LaurentSeries(QQ, {0: rat(1)}, 6)
    assert a == b and hash(a) == hash(b)


@FIELDS
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_hash_agrees_with_eq(field, data):
    a = random_series(field, data.draw)
    held = a.shift(1).shift(-1)
    fresh = LaurentSeries(field, dict(a.coeffs), a.trunc + 3)
    assert hash(fresh) == hash(held) and fresh == held
    assert len({fresh, held, a}) == 1


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
