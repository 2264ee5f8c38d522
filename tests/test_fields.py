import mpmath
import pytest
from hypothesis import given, strategies as st

from polarmorse import fields
from polarmorse.fields import (ExtensionField, ExtensionTooLarge,
                               RationalField, rat)

QQ = RationalField()

rationals = st.builds(rat, st.integers(-50, 50), st.integers(1, 20))


def sqrt2_field():
    return ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])


def sqrt2_tower():
    """K = Q(sqrt2) and L = K(b) with b^2 = sqrt2."""
    K = sqrt2_field()
    return K, ExtensionField(K, "b", [K.neg(K.gen()), K.zero(), K.one()])


def test_rational_field_is_singleton():
    assert RationalField() is RationalField()


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


def test_construction_finds_no_roots(monkeypatch):
    def no_roots(*args, **kwargs):
        raise AssertionError("root finding is not needed for exact arithmetic")

    monkeypatch.setattr(fields, "_poly_roots", no_roots)
    _K, L = sqrt2_tower()
    b = L.add(L.one(), L.gen())
    assert L.eq(L.mul(b, L.inv(b)), L.one())
    assert L.eq(L.pow(L.gen(), 4), L.from_rat(rat(2)))
    assert L.eq(L.pow(b, -2), L.inv(L.mul(b, b)))


def test_embeddings_computed_once(monkeypatch):
    calls = []
    real = fields._poly_roots

    def counting(coeffs, *args, **kwargs):
        calls.append(len(coeffs))
        return real(coeffs, *args, **kwargs)

    monkeypatch.setattr(fields, "_poly_roots", counting)
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
