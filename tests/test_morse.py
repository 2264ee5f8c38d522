import functools
import operator
import random
import sys

import mpmath
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from conftest import random_acceptance_f
from polarmorse import morse, polar
from polarmorse.fields import EMBED_DPS, QQ, ExtensionTooLarge, conj_key, rat
from polarmorse.poly import Poly, common_zeros, exact_div, gcd_qq, parse_poly
from polarmorse.polar import (GenericityError, LinearForm, PointClass, polar_equation,
                              singular_locus)
from polarmorse.morse import (affine_candidates, affine_index, analyze_symbolic,
                              build_report, chart_center, infinity_index,
                              total_morse_number)
from polarmorse.puiseux import INFINITE, DegenerateComposition

V = ("x", "y")


def by_location(report):
    out = {}
    for a in report.attractors:
        key = (a.kind, a.point.coords_str(), a.alpha_kind)
        out[key] = a
    return out


def test_cubic_report(cubic_tail, ell_xy):
    rep = analyze_symbolic(cubic_tail, ell=ell_xy)
    assert rep.morse_number == 2
    locs = by_location(rep)
    a = locs[("infinity", "[0 : 1 : 0]", "finite")]
    assert a.index == 2
    assert a.alpha_field.is_zero(a.alpha_value)
    (c,) = a.contributions
    assert (c.mult_fbar, c.mult_hinf) == (4, 1)
    assert rep.degree == 3
    z = locs[("infinity", "[2 : 1 : 0]", "infinite")]
    assert z.index == 0


def test_quintic_report(quintic_node, ell_xy):
    rep = analyze_symbolic(quintic_node, ell=ell_xy)
    assert rep.morse_number == 4
    locs = by_location(rep)
    assert locs[("affine", "(0, 0)", "finite")].index == 1
    assert locs[("infinity", "[0 : 1 : 0]", "infinite")].index == 1
    assert locs[("infinity", "[1 : 0 : 0]", "finite")].index == 2
    assert locs[("infinity", "[3/2 : 1 : 0]", "infinite")].index == 0


def test_sextic_report(sextic_eight, ell_xy):
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    assert rep.morse_number == 9
    affine = [a for a in rep.attractors if a.kind == "affine"]
    assert sum(a.n_points for a in affine) == 8
    assert all(a.index == 1 for a in affine)
    inf = [a for a in rep.attractors if a.kind == "infinity"]
    assert len(inf) == 1
    assert inf[0].point.coords_str() == "[0 : 1 : 0]"
    assert inf[0].alpha_kind == "infinite"
    assert inf[0].index == 1


def test_affine_candidates_restricted_to_polar(quintic_node, ell_xy):
    polar = polar_equation(quintic_node, ell_xy, singular_locus(quintic_node))
    cands = affine_candidates(quintic_node, ell_xy, polar)
    assert len(cands) == 1
    assert cands[0][0].coords == (rat(0), rat(0))


def test_affine_candidates_where_components_meet():
    # Sing f has the components x = 0 and y = 0, which meet at (0, 0) on
    # the polar curve; (-2/5, -2/5) is an isolated singular point
    f = parse_poly("x^2*y^2*(x + y + 1)", V)
    ell = LinearForm(rat(1), rat(2))
    cands = [p for p, _m in
             affine_candidates(f, ell, polar_equation(f, ell, singular_locus(f)))]
    coords = [c.coords for c in cands]
    assert all(c.field is QQ for c in cands)
    assert sorted(coords) == [(rat(-1), rat(0)), (rat(-2, 5), rat(-2, 5)),
                              (rat(0), rat(-1)), (rat(0), rat(0))]


def reference_candidates(f, polar_curve):
    """The affine candidates by two eliminations: the common zeros of the
    partials divided by their gcd that lie on no component of Sing f, and
    the points of the polar curve on the components."""
    fx, fy = f.diff(0), f.diff(1)
    comp = gcd_qq(fx, fy)
    product = functools.reduce(operator.mul, singular_locus(f), Poly.const(QQ, 2, rat(1)))
    isolated = [PointClass.affine(g, xr, yr) for g, xr, yr, _m
                in common_zeros(exact_div(fx, comp), exact_div(fy, comp))[1]]
    on_components = [PointClass.affine(g, xr, yr) for g, xr, yr, _m
                     in common_zeros(polar_curve.equation, product)[1]]
    return [p for p in isolated
            if not p.field.is_zero(product.to_field(p.field).eval(p.coords))
            ] + on_components


def grid_points(points):
    """The points of the orbits under every embedding, on the ``conj_key``
    grid; no point twice.  The coordinates are evaluated at the digits of
    the embeddings: at 40, a residue with large coefficients can miss the
    1e-30 grid."""
    out = set()
    with mpmath.workdps(EMBED_DPS):
        for p in points:
            for emb in p.field.embeddings():
                out.add(tuple(conj_key(p.field.to_mpc(c, emb)) for c in p.coords))
    assert len(out) == sum(p.field.total_degree for p in points)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_individual_locations_read_at_embedding_digits(seed):
    """An individual's location is on the grid of its coordinates evaluated
    at the digits of the embeddings.  At 40 digits, the y coordinates of
    this input's degree-7 affine orbit miss that grid by 169 units."""
    f = parse_poly("1/3*x*y^3 - 3/4*x^3 + 8*x^2*y + 9/7*x^2 - 3/8*x*y"
                   " - 1/2*y^2 - 2*y", ("x", "y"))
    report = analyze_symbolic(f, seed=seed)
    orbits = [a for a in report.attractors
              if len(a.point.coords) == 2 and a.point.field.total_degree == 7]
    assert orbits
    for a in orbits:
        keys = {tuple(conj_key(z) for z in ind.location)
                for ind in report.individuals if ind.parent is a}
        assert keys == grid_points([a.point])


def check_candidates(f, seed):
    """One elimination finds the points of two, and each m is the index."""
    try:
        ell = analyze_symbolic(f, seed=seed).ell
    except (GenericityError, ExtensionTooLarge):
        assume(False)
    polar_curve = polar_equation(f, ell, singular_locus(f))
    cands = affine_candidates(f, ell, polar_curve)
    event("affine points: %d" % sum(p.field.total_degree for p, _m in cands))
    assert (grid_points([p for p, _m in cands])
            == grid_points(reference_candidates(f, polar_curve)))
    for p, m in cands:
        assert m >= 1
        assert affine_index(f, ell, polar_curve, p).index == m


def poly_from(terms):
    return Poly(QQ, 2, {e: rat(c) for e, c in terms.items() if c})


@st.composite
def dense_polys(draw):
    """Dense polynomials of total degree 1 or 2, integer coefficients in
    -2..2, as in the benchmark's non-reduced corpus; one top-degree
    monomial is sure to be present."""
    degree = draw(st.integers(1, 2))
    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    terms = dict(zip(monos, draw(st.lists(st.integers(-2, 2), min_size=len(monos),
                                          max_size=len(monos)))))
    top = draw(st.integers(0, degree))
    terms[(top, degree - top)] = draw(st.sampled_from([-2, -1, 1, 2]))
    return poly_from(terms)


@st.composite
def non_tame_polys(draw):
    """x^i*y^j plus up to four terms of lower total degree: the top form
    vanishes at [1 : 0 : 0] and [0 : 1 : 0], so f is not tame."""
    i, j = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lower = [(a, b) for a in range(i + j) for b in range(i + j - a)]
    terms = draw(st.dictionaries(st.sampled_from(lower),
                                 st.builds(rat, st.integers(-3, 3), st.integers(1, 2)),
                                 max_size=4))
    terms[(i, j)] = 1
    return poly_from(terms)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_affine_candidates_acceptance_inputs(seed):
    check_candidates(random_acceptance_f(random.Random(seed)), seed)


@settings(max_examples=12, deadline=None)
@given(dense_polys(), dense_polys(), st.integers(0, 99))
def test_affine_candidates_nonreduced_inputs(p, q, seed):
    check_candidates(p * p * q, seed)


@settings(max_examples=20, deadline=None)
@given(non_tame_polys(), st.integers(0, 99))
def test_affine_candidates_non_tame_inputs(f, seed):
    check_candidates(f, seed)


@pytest.mark.parametrize("text, ell, morse_number", [
    # ell = y: the candidates are the zeros of the polar curve and f_y
    ("x*y + 1/3*x^3*y^2 + x^6", LinearForm(rat(0), rat(1)), 9),
    ("(x^2 - y^3)^2*(x + 2*y + 1)", LinearForm(rat(1), rat(0)), 14)],
    ids=["sextic_ell_y", "cusp_squared_ell_x"])
def test_candidates_along_an_axis(text, ell, morse_number):
    f = parse_poly(text, V)
    assert analyze_symbolic(f, ell=ell).morse_number == morse_number
    polar_curve = polar_equation(f, ell, singular_locus(f))
    for p, m in affine_candidates(f, ell, polar_curve):
        assert affine_index(f, ell, polar_curve, p).index == m >= 1


def test_affine_contributions_nonnegative(sextic_eight, ell_xy):
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    for a in rep.attractors:
        if a.kind != "affine":
            continue
        for c in a.contributions:
            assert c.contribution == c.ord_f - c.ord_ell >= 0


def test_point_class_chart():
    # the chart drops a nonzero coordinate: z for an affine point, else y
    # where it is nonzero, else x
    one, zero = rat(1), rat(0)
    assert PointClass(QQ, (rat(2), rat(3))).chart is None
    assert PointClass(QQ, (rat(2), one, zero)).chart == "y"
    assert PointClass(QQ, (zero, one, zero)).chart == "y"
    assert PointClass(QQ, (one, zero, zero)).chart == "x"


@pytest.mark.parametrize("coords, expected", [
    ((2, 3), {None: (2, 3), "x": (rat(3, 2), rat(1, 2)), "y": (rat(2, 3), rat(1, 3))}),
    ((1, 0, 0), {None: None, "x": (0, 0), "y": None}),
    ((0, 1, 0), {None: None, "x": None, "y": (0, 0)}),
    ((2, 1, 0), {None: None, "x": (rat(1, 2), 0), "y": (2, 0)}),
], ids=["(2, 3)", "[1 : 0 : 0]", "[0 : 1 : 0]", "[2 : 1 : 0]"])
def test_chart_center(coords, expected):
    # the chart's coordinate (z for chart None) is divided out of the
    # others; None where it is zero
    point = PointClass(QQ, tuple(map(rat, coords)))
    for chart in (None, "x", "y"):
        assert chart_center(point, chart) == expected[chart], chart


@pytest.mark.parametrize("name", ["quintic_node", "sextic_eight"])
def test_one_translate_per_expansion_center(monkeypatch, request, ell_xy, name):
    # the germ of the polar curve is the one polynomial moved to a center;
    # f and ell are composed at center + branch
    f = request.getfixturevalue(name)
    polar = polar_equation(f, ell_xy, singular_locus(f))
    candidates = [p for p, _m in affine_candidates(f, ell_xy, polar)]
    real = Poly.translate
    centers = []

    def counted(p, center):
        if sys._getframe(1).f_globals["__name__"] == morse.__name__:
            centers.append(center)
        return real(p, center)

    monkeypatch.setattr(Poly, "translate", counted)
    for p in candidates:
        affine_index(f, ell_xy, polar, p)
    for p in polar.infinity_points:
        infinity_index(f, ell_xy, polar, p)
    assert len(centers) == len(candidates) + len(polar.infinity_points) > 1


def test_chart_consistency_recorded(quintic_node, ell_xy):
    rep = analyze_symbolic(quintic_node, ell=ell_xy)
    d = rep.degree
    for a in rep.attractors:
        if a.kind != "infinity":
            continue
        for c in a.contributions:
            assert c.mult_fbar - (d - 1) * c.mult_hinf == c.ord_f - c.ord_ell
            assert c.contribution == max(0, c.mult_fbar - (d - 1) * c.mult_hinf)


def test_chart_independence(cubic_tail, quintic_node, ell_xy):
    for f in (cubic_tail, quintic_node):
        polar = polar_equation(f, ell_xy, singular_locus(f))
        for ip in polar.infinity_points:
            results = {}
            for chart in ("y", "x"):
                if chart_center(ip, chart) is None:
                    continue
                ats = infinity_index(f, ell_xy, polar, ip, chart=chart)
                results[chart] = sorted(
                    (a.alpha_kind, a.index, a.n_points) for a in ats)
            if len(results) == 2:
                assert results["y"] == results["x"]


def test_morse_number_invariant_under_ell(cubic_tail, quintic_node, ell_xy):
    for f in (cubic_tail, quintic_node):
        r1 = analyze_symbolic(f, seed=0)
        r2 = analyze_symbolic(f, seed=1)
        assert (r1.ell.a, r1.ell.b) != (r2.ell.a, r2.ell.b)
        assert r1.morse_number == r2.morse_number


def test_one_dim_component_attractor():
    # Morse points of the deformation converge to the origin on the
    # singular line x = 0 even though ell has no critical point there.
    f = parse_poly("x^2*y", V)
    rep = analyze_symbolic(f, seed=2)
    assert rep.morse_number == 2
    affine = [a for a in rep.attractors if a.kind == "affine"]
    assert len(affine) == 1
    p = affine[0].point
    assert all(p.field.is_zero(c) for c in p.coords)


def test_linear_f_has_no_morse_points():
    rep = analyze_symbolic(parse_poly("x + y", V), seed=0)
    assert rep.morse_number == 0
    assert rep.attractors == []


def test_explicit_nongeneric_ell_raises():
    with pytest.raises(GenericityError):
        analyze_symbolic(parse_poly("x^2*y", V), ell=LinearForm(rat(1), rat(0)))


def test_conjugate_expansion_counts(sextic_eight, ell_xy):
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    inds = rep.individuals
    assert len(inds) == sum(a.n_points for a in rep.attractors)
    assert sum(i.parent.index for i in inds) == rep.morse_number


def test_expand_individuals_with_alpha_zero():
    # an infinity orbit whose alpha = 0 lies outside the point field: its
    # minimal polynomial over the point field is T
    f = parse_poly("-2/3*x^3*y^2 + 2/3*x^2*y + 2*x^5 - 3*x - 2/3*x^3", V)
    rep = analyze_symbolic(f, seed=24)
    inds = rep.individuals
    assert len(inds) == sum(a.n_points for a in rep.attractors)
    assert any(i.alpha == 0 for i in inds)


def test_total_is_sum_of_orbit_totals(quintic_node, ell_xy):
    rep = analyze_symbolic(quintic_node, ell=ell_xy)
    assert rep.morse_number == total_morse_number(rep.attractors)


def test_report_sorted_affine_first(sextic_eight, ell_xy):
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    kinds = [a.kind for a in rep.attractors]
    assert kinds == sorted(kinds, key=lambda k: k != "affine")


def test_zero_index_attractors_retained(cubic_tail, ell_xy):
    rep = analyze_symbolic(cubic_tail, ell=ell_xy)
    assert any(a.index == 0 for a in rep.attractors)


def nth_draw(seed, k):
    """(a, b) of the k-th (0-based) linear form drawn from Random(seed)."""
    rng = random.Random(seed)
    for _ in range(k + 1):
        a = rat(rng.randint(-97, 97), rng.randint(1, 97))
        b = rat(rng.randint(-97, 97), rng.randint(1, 97))
    return a, b


def patch_everywhere(monkeypatch, name, wrap):
    """Replace polar's ``name`` by ``wrap(original)`` in polar and morse."""
    new = wrap(getattr(polar, name))
    for mod in (polar, morse):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, new)


def count_calls(monkeypatch, name):
    calls = []

    def wrap(orig):
        def counted(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)
        return counted

    patch_everywhere(monkeypatch, name, wrap)
    return calls


def test_genericity_layer_computes_each_object_once(monkeypatch):
    sing = count_calls(monkeypatch, "singular_locus")
    polars = count_calls(monkeypatch, "polar_equation")
    checks = count_calls(monkeypatch, "check_genericity")
    rep = analyze_symbolic(parse_poly("(x+y)^2*(x-2*y+1)", V), seed=0)
    assert len(sing) == 1
    assert len(polars) == len(checks) == rep.genericity.redraws + 1


def test_rejected_first_draw_is_counted(monkeypatch, cubic_tail):
    orig = morse.check_genericity
    calls = []

    def reject_first(*args, **kwargs):
        report = orig(*args, **kwargs)
        calls.append(report)
        if len(calls) == 1:
            report.polar_squarefree = False
        return report

    monkeypatch.setattr(morse, "check_genericity", reject_first)
    rep = analyze_symbolic(cubic_tail, seed=5)
    assert rep.genericity.redraws == 1
    assert rep.genericity.seed == 5
    assert (rep.ell.a, rep.ell.b) == nth_draw(5, 1)


def test_degenerate_composition_takes_next_draw(monkeypatch, cubic_tail):
    orig = morse.compute_attractors
    tried = []

    def degenerate_first(f, ell, polar_curve):
        tried.append((ell.a, ell.b))
        if len(tried) == 1:
            raise DegenerateComposition("forced")
        return orig(f, ell, polar_curve)

    monkeypatch.setattr(morse, "compute_attractors", degenerate_first)
    rep = analyze_symbolic(cubic_tail, seed=5)
    assert tried == [nth_draw(5, 0), nth_draw(5, 1)]
    assert rep.genericity.redraws == 1
    assert rep.genericity.no_degenerate_compositions


def test_redraw_budget_counts_every_candidate(monkeypatch, cubic_tail):
    # every other candidate fails the checks, every accepted one degenerates
    checks = []

    def reject_odd(orig):
        def check(*args, **kwargs):
            report = orig(*args, **kwargs)
            checks.append(report)
            if len(checks) % 2 == 1:
                report.ell_avoids_infinity_points = False
            return report
        return check

    def degenerate(*_args):
        raise DegenerateComposition("forced")

    patch_everywhere(monkeypatch, "check_genericity", reject_odd)
    monkeypatch.setattr(morse, "compute_attractors", degenerate)
    with pytest.raises(GenericityError, match="no generic linear form accepted") as exc:
        analyze_symbolic(cubic_tail, seed=5, max_redraws=4)
    assert len(checks) == 4
    assert exc.value.report is checks[-1]
    assert exc.value.report.redraws == 3
    assert not exc.value.report.no_degenerate_compositions


def test_redraw_budget_exhausted_by_rejections(monkeypatch, cubic_tail):
    checks = []

    def reject_all(orig):
        def check(*args, **kwargs):
            report = orig(*args, **kwargs)
            checks.append(report)
            report.polar_squarefree = False
            return report
        return check

    patch_everywhere(monkeypatch, "check_genericity", reject_all)
    with pytest.raises(GenericityError, match=r"found in 3 draws \(seed 5\)"):
        analyze_symbolic(cubic_tail, seed=5, max_redraws=3)
    assert len(checks) == 3
