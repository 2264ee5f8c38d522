from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from polarmorse import fields
from polarmorse.fields import (DEFAULT_TOWER_CAP, EMBED_DPS, QQ, ExtensionField,
                               ExtensionTooLarge, conj_key, poly_roots, rat,
                               udivmod, ugcd, ugcdext, umul, utrim)

rationals = st.builds(rat, st.integers(-50, 50), st.integers(1, 20))


def sqrt2_field():
    return ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])


def sqrt2_tower():
    """K = Q(sqrt2) and L = K(b) with b^2 = sqrt2."""
    K = sqrt2_field()
    return K, ExtensionField(K, "b", [K.neg(K.gen()), K.zero(), K.one()])


def test_rat_arithmetic():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(2, 4) == rat(1, 2)
    assert QQ.inv(rat(3, 7)) == rat(7, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(rat(0))


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert QQ.add(a, QQ.add(b, c)) == QQ.add(QQ.add(a, b), c)
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero()


def test_extension_basic_arithmetic():
    K = sqrt2_field()
    r2 = K.gen()
    assert K.eq(K.mul(r2, r2), K.from_rat(rat(2)))
    x = K.add(K.one(), r2)                     # 1 + sqrt2
    inv = K.inv(x)                             # sqrt2 - 1
    assert K.eq(K.mul(x, inv), K.one())
    assert K.eq(inv, K.sub(r2, K.one()))


def test_extension_embeddings_and_numerics():
    K = sqrt2_field()
    embs = K.embeddings()
    assert len(embs) == 2
    vals = sorted(float(K.to_mpc(K.gen(), e).real) for e in embs)
    assert vals[0] == pytest.approx(-2 ** 0.5)
    assert vals[1] == pytest.approx(2 ** 0.5)


def test_nested_tower():
    _K, L = sqrt2_tower()
    b = L.gen()
    b4 = L.pow(b, 4)
    assert L.eq(b4, L.from_rat(rat(2)))
    assert len(L.embeddings()) == 4


def test_tower_cap_enforced():
    K = sqrt2_field()
    with pytest.raises(ExtensionTooLarge):
        ExtensionField(K, "c", [K.from_rat(rat(2))] + [K.zero()] * 15 + [K.one()])


def _value_at(field, base, coeffs, root):
    """The polynomial with ``coeffs`` (low-to-high, over ``base``) at
    ``root``, an element of ``field``, by Horner."""
    acc = field.zero()
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, root), fields.coerce(field, base, c))
    return acc


@pytest.mark.parametrize("over_k", [False, True], ids=["Q", "Q(sqrt2)"])
def test_adjoin_linear_and_quadratic(over_k):
    base = sqrt2_field() if over_k else QQ
    s = base.gen() if over_k else rat(2)
    two, three = base.from_rat(rat(2)), base.from_rat(rat(3))
    # a linear factor 2T - 3*s: its root, in the base field itself
    lin = [base.neg(base.mul(three, s)), two]
    field, root = fields.adjoin(base, lin, "r")
    assert field is base
    assert base.is_zero(_value_at(base, base, lin, root))
    # a quadratic factor T^2 - s: a new field of twice the degree
    quad = [base.neg(s), base.zero(), base.one()]
    field, root = fields.adjoin(base, quad, "r")
    assert field.base is base and field.total_degree == 2 * base.total_degree
    assert field.is_zero(_value_at(field, base, quad, root))
    assert field.name not in {lvl.name for lvl in base.levels()}


def test_adjoin_past_the_tower_cap():
    # T^n - sqrt2 is irreducible over Q(sqrt2) (2^(1/2n) has degree 2n)
    K = sqrt2_field()
    at_cap = DEFAULT_TOWER_CAP // 2
    field, _b = fields.adjoin(K, [K.neg(K.gen())] + [K.zero()] * (at_cap - 1)
                              + [K.one()], "b")
    assert field.total_degree == DEFAULT_TOWER_CAP
    with pytest.raises(ExtensionTooLarge):
        fields.adjoin(K, [K.neg(K.gen())] + [K.zero()] * at_cap + [K.one()], "b")


def test_construction_finds_no_roots(monkeypatch):
    def no_roots(*args, **kwargs):
        raise AssertionError("root finding is not needed for exact arithmetic")

    monkeypatch.setattr(fields, "poly_roots", no_roots)
    _K, L = sqrt2_tower()
    b = L.add(L.one(), L.gen())
    assert L.eq(L.mul(b, L.inv(b)), L.one())
    assert L.eq(L.pow(L.gen(), 4), L.from_rat(rat(2)))
    assert L.eq(L.pow(b, -2), L.inv(L.mul(b, b)))


def test_embeddings_computed_once(monkeypatch):
    calls = []
    real = fields.poly_roots

    def counting(coeffs, *args, **kwargs):
        calls.append(len(coeffs))
        return real(coeffs, *args, **kwargs)

    monkeypatch.setattr(fields, "poly_roots", counting)
    K, L = sqrt2_tower()
    embs = L.embeddings()
    assert isinstance(embs, tuple) and len(embs) == 4
    assert L.embeddings() is embs
    for _ in range(3):
        L.to_mpc(L.gen())
        K.to_mpc(K.gen())
    # one root finding for K over Q, one for L per embedding of K
    assert len(calls) == 1 + 2
    assert K.embeddings() is K.embeddings()
    assert len(calls) == 3


def test_to_mpc_defaults_to_first_embedding():
    K, L = sqrt2_tower()
    first = L.embeddings()[0]
    assert first[:1] == K.embeddings()[0]
    for a in (L.gen(), L.add(L.one(), L.gen()), L.from_vec([K.gen(), K.one()])):
        assert L.to_mpc(a) == L.to_mpc(a, first)
    assert K.to_mpc(K.gen()) == K.to_mpc(K.gen(), K.embeddings()[0])


@given(rationals, rationals, rationals, rationals)
def test_extension_field_axioms(p, q, r, s):
    K = sqrt2_field()
    x = K.from_vec([p, q])
    y = K.from_vec([r, s])
    assert K.eq(K.mul(x, y), K.mul(y, x))
    assert K.eq(K.add(x, K.neg(x)), K.zero())
    if not K.is_zero(x):
        assert K.eq(K.mul(x, K.inv(x)), K.one())


def test_to_mpc_tracks_canonical_root():
    K = sqrt2_field()
    with mpmath.workdps(50):
        v = K.to_mpc(K.gen())
        assert abs(v * v - 2) < mpmath.mpf("1e-45")


def reference_mul(K, a, b):
    """a*b in K as the remainder of the schoolbook product by the minimal
    polynomial, padded to ``K.degree`` coordinates."""
    base = K.base
    prod = umul(base, utrim(base, a), utrim(base, b))
    rem = udivmod(base, prod, list(K.minpoly))[1]
    return tuple(rem) + (base.zero(),) * (K.degree - len(rem))


wide_rationals = st.builds(rat, st.integers(-2 ** 64, 2 ** 64),
                           st.integers(1, 20))


@st.composite
def field_and_elements(draw):
    """A field Q(theta) of degree 2-9 whose minimal polynomial has
    non-integer coefficients and a non-unit leading coefficient, and two
    elements whose coordinates beyond a drawn length are zero, so that
    zero and products with no terms of degree >= degree both occur."""
    d = draw(st.integers(2, 9))
    lead = draw(wide_rationals.filter(lambda c: c != 0))
    minpoly = draw(st.lists(wide_rationals, min_size=d, max_size=d)) + [lead]
    K = ExtensionField(QQ, "t", minpoly)

    def element():
        n = draw(st.integers(0, d))
        coords = draw(st.lists(wide_rationals, min_size=n, max_size=n))
        return K.from_vec(coords)

    return K, element(), element()


@settings(max_examples=200, deadline=None)
@given(field_and_elements())
def test_mul_over_q_matches_reference(case):
    K, a, b = case
    got = K.mul(a, b)
    assert got == reference_mul(K, a, b)
    assert all(type(c) is Fraction for c in got)
    zero = K.mul(a, K.zero())
    assert zero == K.zero() and all(type(c) is Fraction for c in zero)


def reference_inv(K, a):
    """The inverse of a in K from the extended Euclid of a and the minimal
    polynomial, or None when their gcd is not 1 (a is a zero divisor)."""
    g, s, _ = ugcdext(K.base, utrim(K.base, list(a)), list(K.minpoly))
    return K.from_vec(s) if len(g) == 1 else None


@settings(max_examples=200, deadline=None)
@given(field_and_elements())
def test_inv_over_q_matches_reference(case):
    K, a, _ = case
    assume(not K.is_zero(a))
    want = reference_inv(K, a)
    if want is None:
        with pytest.raises(ArithmeticError):
            K.inv(a)
        return
    got = K.inv(a)
    assert got == want
    assert all(type(c) is Fraction for c in got)


def test_inv_of_zero_and_of_zero_divisors():
    K = sqrt2_field()
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero())
    # t^3 - 1 = (t - 1)(t^2 + t + 1) and t^2 + t = t(t + 1)
    cube = ExtensionField(QQ, "t", [rat(-1), rat(0), rat(0), rat(1)])
    with pytest.raises(ArithmeticError):
        cube.inv(cube.from_vec([rat(-1), rat(1)]))
    assert cube.mul(cube.gen(), cube.inv(cube.gen())) == cube.one()
    split = ExtensionField(QQ, "t", [rat(0), rat(1), rat(1)])
    with pytest.raises(ArithmeticError):
        split.inv(split.gen())
    with pytest.raises(ArithmeticError):
        split.inv(split.from_vec([rat(1, 3), rat(1, 3)]))


@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
def test_mul_in_tower_matches_reference(p, q):
    K, L = sqrt2_tower()
    a = L.from_vec([K.from_vec(p[:2]), K.from_vec(p[2:])])
    b = L.from_vec([K.from_vec(q[:2]), K.from_vec(q[2:])])
    for x, y in ((a, b), (a, L.zero()), (L.lift(a[0]), L.lift(b[0]))):
        got = L.mul(x, y)
        assert L.eq(got, reference_mul(L, x, y))
        assert all(type(c) is Fraction for coord in got for c in coord)


@given(st.lists(rationals, min_size=2, max_size=2), st.integers(-6, 6))
def test_pow_matches_repeated_mul(p, n):
    K = sqrt2_field()
    a = K.from_vec(p)
    if n < 0 and K.is_zero(a):
        return
    want = K.one()
    for _ in range(abs(n)):
        want = K.mul(want, a if n > 0 else K.inv(a))
    assert K.pow(a, n) == want


# --- the seeded root finder --------------------------------------------

@st.composite
def squarefree_int_polys(draw):
    """Low-to-high integer coefficients of a squarefree polynomial of
    degree 1-16."""
    d = draw(st.integers(1, 16))
    cs = draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))
    cs.append(draw(st.integers(1, 30)) * draw(st.sampled_from((-1, 1))))
    deriv = [k * c for k, c in enumerate(cs)][1:]
    assume(len(ugcd(QQ, [rat(c) for c in cs], [rat(c) for c in deriv])) == 1)
    return cs


def unseeded_roots(cs, maxsteps, extraprec):
    roots = mpmath.polyroots(list(reversed(cs)), maxsteps=maxsteps,
                             extraprec=extraprec)
    return sorted(roots, key=conj_key)


# the two settings of the program: the embeddings, and the oracle's solve
SETTINGS = ((lambda: mpmath.workdps(EMBED_DPS), 300, 200),
            (lambda: mpmath.workprec(256), 200, 256))


@settings(max_examples=30, deadline=None)
@given(squarefree_int_polys())
def test_seeded_roots_equal_unseeded(cs):
    for context, maxsteps, extraprec in SETTINGS:
        with context():
            coeffs = [mpmath.mpf(c) for c in cs]
            assert fields._float_seeds(list(reversed(coeffs)), maxsteps)
            got = poly_roots(coeffs, maxsteps, extraprec)
            assert got == unseeded_roots(coeffs, maxsteps, extraprec)


def recording_polyroots(monkeypatch, fail_seeded=False):
    """Replace mpmath.polyroots by a wrapper that records whether each
    call was seeded; with ``fail_seeded`` a seeded call raises
    NoConvergence."""
    calls = []
    real = mpmath.polyroots

    def polyroots(coeffs, **kwargs):
        seeded = kwargs.get("roots_init") is not None
        calls.append(seeded)
        if seeded and fail_seeded:
            raise mpmath.libmp.NoConvergence("seeded call refused")
        return real(coeffs, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", polyroots)
    return calls


def test_root_finder_without_float_seeds(monkeypatch):
    # 10^400 (x^3 - 2x + 1): complex() of each coefficient is inf
    with mpmath.workprec(256):
        cs = [c * mpmath.mpf(10) ** 400 for c in (1, -2, 0, 1)]
        assert fields._float_seeds(list(reversed(cs)), 200) is None
        want = unseeded_roots(cs, 200, 256)
        calls = recording_polyroots(monkeypatch)
        assert poly_roots(cs, 200, 256) == want
    assert calls == [False]


def test_root_finder_repeats_a_seeded_call_unseeded(monkeypatch):
    with mpmath.workdps(EMBED_DPS):
        cs = [mpmath.mpc(c) for c in (-2, 0, 0, 1)]
        want = unseeded_roots(cs, 300, 200)
        calls = recording_polyroots(monkeypatch, fail_seeded=True)
        assert poly_roots(cs, 300, 200) == want
    assert calls == [True, False]
    assert len(want) == 3


def test_root_finder_trims_zero_leading_coefficients():
    with mpmath.workprec(256):
        cs = [mpmath.mpf(c) for c in (-2, 0, 1, 0, 0)]
        assert poly_roots(cs, 200, 256) == unseeded_roots(cs[:3], 200, 256)
        assert poly_roots([mpmath.mpf(3), mpmath.mpf(0)], 200, 256) == []
