import functools
import json

import mpmath
import pytest
from conftest import count_polyval

from polarmorse import fields, morse, report
from polarmorse.fields import QQ, ExtensionField, rat
from polarmorse.morse import analyze_symbolic, build_report
from polarmorse.puiseux import INFINITE
from polarmorse.polar import LinearForm
from polarmorse.poly import parse_poly
from polarmorse.report import to_json

V = ("x", "y")

# (f, ell, seed): the pinned inputs of tests/data (the three goldens and
# a tower); an input whose conjugate orbits have roots that are not in the
# order of the orbit's embeddings; an orbit over Q whose limit values
# +-sqrt(2) lie outside the point field; verify-d6 input 23, whose limit
# values lie outside the point field; and conjugate points +-i with equal
# real parts.
INPUTS = {
    "cubic": ("x + x^2*y", LinearForm(rat(1), rat(1)), 0),
    "quintic": ("x*y + 1/3*x^3*y^2", LinearForm(rat(1), rat(1)), 0),
    "sextic": ("x*y + 1/3*x^3*y^2 + x^6", LinearForm(rat(1), rat(1)), 0),
    "tower": ("(x^2-2)^2 + (y^2-x)^2", LinearForm(rat(1), rat(1)), 0),
    "seed6": ("1/2*x^3*y + 3/7*y^2 - x + 1/2", None, 6),
    "sqrt2_alpha": ("x*(y^2-2)^2 + y", None, 0),
    "d6_23": ("-2/3*x^3*y^2 + 2/3*x^2*y + 2*x^5 - 3*x - 2/3*x^3", None, 24),
    "plus_minus_i": ("(x^2+1)^2 + y^2", LinearForm(rat(1), rat(1)), 0),
}


def algebraic_entries(node):
    if isinstance(node, dict):
        if "min_poly" in node:
            yield node
        for v in node.values():
            yield from algebraic_entries(v)
    elif isinstance(node, list):
        for v in node:
            yield from algebraic_entries(v)


def by_re_then_im(z, w):
    # conjugate roots have equal real parts, computed equal only up to
    # the working precision
    if abs(z.real - w.real) > mpmath.mpf(10) ** -30:
        return -1 if z.real < w.real else 1
    return (z.imag > w.imag) - (z.imag < w.imag)


def expected_root_index(entry):
    """Position of the root nearest to ``approx`` among the roots of
    ``min_poly`` sorted by (re, im), from mpmath alone."""
    coeffs = parse_poly(entry["min_poly"], ("T",)).coeffs_in(0)
    with mpmath.workdps(50):
        roots = mpmath.polyroots(
            [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)],
            maxsteps=500, extraprec=300)
        roots = sorted(roots, key=functools.cmp_to_key(by_re_then_im))
        z = mpmath.mpc(*entry["approx"])
        return min(range(len(roots)), key=lambda k: abs(roots[k] - z))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_root_index_is_position_among_sorted_roots(name):
    f, ell, seed = INPUTS[name]
    rep = analyze_symbolic(parse_poly(f, V), ell=ell, seed=seed)
    entries = list(algebraic_entries(json.loads(to_json(rep))))
    assert entries or name in ("cubic", "quintic")
    for entry in entries:
        assert entry["root_index"] == expected_root_index(entry), entry


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_no_root_finding_after_analysis(monkeypatch, name):
    # every route to fields.poly_roots ends in mpmath.polyroots
    f, ell, seed = INPUTS[name]
    rep = analyze_symbolic(parse_poly(f, V), ell=ell, seed=seed)
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(mpmath, "polyroots", counted(mpmath.polyroots))
    to_json(rep)
    monkeypatch.setattr(morse, "minpoly_over", counted(morse.minpoly_over))
    rebuilt = build_report(rep.f, rep.ell, rep.genericity, rep.attractors)
    assert rebuilt.individuals == rep.individuals
    assert calls == []


def test_embeddings_are_seeded(monkeypatch, sextic_eight, ell_xy):
    # the float seeds leave 3-4 sweeps per embedding solve (112
    # evaluations unseeded)
    calls = count_polyval(monkeypatch)
    to_json(analyze_symbolic(sextic_eight, ell=ell_xy))
    assert 0 < len(calls) <= 40


def test_conjugates_json_certifies_their_number():
    K = ExtensionField(QQ, "a", [rat(-2), rat(0), rat(1)])
    roots = [K.to_mpc(K.gen(), emb) for emb in K.embeddings()]
    encode = report._conjugates_json(K, K.gen(), roots + roots[::-1])
    assert [encode(z)["root_index"] for z in roots] == [0, 1]
    with pytest.raises(ArithmeticError):
        report._conjugates_json(K, K.gen(), roots[:1])


def test_minpoly_once_per_orbit_coordinate(monkeypatch, sextic_eight, ell_xy):
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    calls = []
    orig = report.minpoly_over

    def counted(field, elem, subfield):
        calls.append(elem)
        return orig(field, elem, subfield)

    monkeypatch.setattr(report, "minpoly_over", counted)
    to_json(rep)
    expected, alphas = [], 0
    for a in rep.attractors:
        p = a.point
        if p.field is not QQ:
            # (x, y), or u of [u : 1 : 0]
            expected += p.coords[:2 if p.chart is None else 1]
        if a.alpha_kind == "finite" and a.alpha_field is not QQ:
            expected.append(a.alpha_value)
            alphas += 1
    assert alphas and len(expected) > alphas
    assert calls == expected


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_json_independent_of_root_order(monkeypatch, name):
    f, ell, seed = INPUTS[name]
    text = to_json(analyze_symbolic(parse_poly(f, V), ell=ell, seed=seed))
    real = fields.poly_roots
    monkeypatch.setattr(fields, "poly_roots",
                        lambda *args: real(*args)[::-1])
    rep = analyze_symbolic(parse_poly(f, V), ell=ell, seed=seed)
    assert to_json(rep) == text


def entry_cmp(a, b):
    """Compare two individual attractors: affine points, then [u : 1 : 0],
    then [1 : 0 : 0]; then coordinate by coordinate; then the limit
    value, finite before infinite.  Numbers compare by re, then im."""
    def rank(ind):
        if ind.parent.kind == "affine":
            return 0
        return 2 if ind.parent.point.chart == "x" else 1

    def numbers(ind):
        loc = () if rank(ind) == 2 else ind.location
        return loc + ((ind.alpha,) if ind.alpha is not INFINITE else ())

    if rank(a) != rank(b):
        return -1 if rank(a) < rank(b) else 1
    na, nb = numbers(a), numbers(b)
    for z, w in zip(na, nb):
        c = by_re_then_im(z, w)
        if c:
            return c
    return (len(na) < len(nb)) - (len(na) > len(nb))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_entries_in_numeric_order(name):
    f, ell, seed = INPUTS[name]
    rep = analyze_symbolic(parse_poly(f, V), ell=ell, seed=seed)
    orbits = [[ind for ind in rep.individuals if ind.parent is a]
              for a in rep.attractors]
    assert [ind for inds in orbits for ind in inds] == rep.individuals
    for inds in orbits:
        for a, b in zip(inds, inds[1:]):
            assert entry_cmp(a, b) < 0, (a, b)
    for a, b in zip(orbits, orbits[1:]):
        assert entry_cmp(a[0], b[0]) < 0, (a[0], b[0])
