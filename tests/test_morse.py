import random
import sys

import pytest

from polarmorse import morse, polar
from polarmorse.fields import QQ, rat
from polarmorse.poly import Poly, parse_poly
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
    sing = singular_locus(quintic_node)
    polar = polar_equation(quintic_node, ell_xy, sing)
    cands = affine_candidates(polar, sing)
    assert len(cands) == 1
    assert cands[0].coords == (rat(0), rat(0))


def test_affine_candidates_where_components_meet():
    # Sing f has the components x = 0 and y = 0, which meet at (0, 0) on
    # the polar curve; (-2/5, -2/5) is an isolated singular point
    f = parse_poly("x^2*y^2*(x + y + 1)", V)
    ell = LinearForm(rat(1), rat(2))
    sing = singular_locus(f)
    cands = affine_candidates(polar_equation(f, ell, sing), sing)
    coords = [c.coords for c in cands]
    assert all(c.field is QQ for c in cands)
    assert sorted(coords) == [(rat(-1), rat(0)), (rat(-2, 5), rat(-2, 5)),
                              (rat(0), rat(-1)), (rat(0), rat(0))]


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
    sing = singular_locus(f)
    polar = polar_equation(f, ell_xy, sing)
    candidates = affine_candidates(polar, sing)
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

    def degenerate_first(f, ell, polar_curve, sing):
        tried.append((ell.a, ell.b))
        if len(tried) == 1:
            raise DegenerateComposition("forced")
        return orig(f, ell, polar_curve, sing)

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
