import functools
import json

import mpmath
import pytest

from polarmorse import report
from polarmorse.fields import RationalField, rat
from polarmorse.morse import analyze_symbolic
from polarmorse.polar import LinearForm
from polarmorse.poly import parse_poly
from polarmorse.report import to_json

V = ("x", "y")
QQ = RationalField()

# (f, ell, seed): the three goldens, and an input whose conjugate orbits
# have roots that are not in the order of the orbit's embeddings.
INPUTS = {
    "cubic": ("x + x^2*y", LinearForm(rat(1), rat(1)), 0),
    "quintic": ("x*y + 1/3*x^3*y^2", LinearForm(rat(1), rat(1)), 0),
    "sextic": ("x*y + 1/3*x^3*y^2 + x^6", LinearForm(rat(1), rat(1)), 0),
    "seed6": ("1/2*x^3*y + 3/7*y^2 - x + 1/2", None, 6),
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


def test_minpoly_once_per_orbit_coordinate(monkeypatch, sextic_eight, ell_xy):
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    calls = []
    orig = report.minpoly_over

    def counted(field, elem, subfield):
        calls.append(elem)
        return orig(field, elem, subfield)

    monkeypatch.setattr(report, "minpoly_over", counted)
    to_json(rep)
    coordinates = []
    for a in rep.attractors:
        p = a.point
        if p.field is QQ:
            continue
        if a.kind == "affine":
            coordinates += [p.x, p.y]
        elif p.u is not None:
            coordinates.append(p.u)
    assert coordinates
    assert calls == coordinates
