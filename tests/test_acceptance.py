"""End-to-end acceptance suite.

Golden runs with exact expected outputs and wall-clock bounds, a random
conservation suite diffing symbolic totals against the numeric oracle, a
random suite for the vanishing-solution count formula, chart-independence
and linear-form-invariance checks, and exact residual/multiplicity
bookkeeping for every Puiseux branch emitted along the way.
"""

import random
import time

import mpmath
import pytest

from conftest import (branch_residual, count_vanishing_solutions,
                      random_acceptance_f)
from polarmorse.fields import QQ, rat
from polarmorse.poly import Poly, minpoly_over, parse_poly, poly_str
from polarmorse.polar import LinearForm, polar_equation, singular_locus
from polarmorse.morse import (_chart_polys, analyze_symbolic, chart_center,
                              infinity_index)
from polarmorse.oracle import critical_points
from polarmorse.series import SeriesPrecisionLoss

V = ("x", "y")

GOLDEN = [
    ("cubic", "x + x^2*y", 1.0),
    ("quintic", "x*y + 1/3*x^3*y^2", 2.0),
    ("sextic", "x*y + 1/3*x^3*y^2 + x^6", 5.0),
]

RANDOM_TRIALS = 50
RANDOM_TIME_BUDGET = 300.0
LAURENT_TRIALS = 200


@pytest.fixture(scope="module")
def golden():
    out = {}
    ell = LinearForm(rat(1), rat(1))
    for name, text, limit in GOLDEN:
        f = parse_poly(text, V)
        t0 = time.perf_counter()
        rep = analyze_symbolic(f, ell=ell)
        elapsed = time.perf_counter() - t0
        out[name] = (f, rep, elapsed, limit)
    return out


def _locate(report):
    out = {}
    for a in report.attractors:
        out[(a.kind, a.point.coords_str(), a.alpha_kind)] = a
    return out


def test_criterion_1_cubic_golden(golden):
    f, rep, elapsed, limit = golden["cubic"]
    assert elapsed < limit
    assert rep.morse_number == 2
    assert rep.degree == 3
    locs = _locate(rep)
    a = locs[("infinity", "[0 : 1 : 0]", "finite")]
    assert a.index == 2
    assert a.alpha_field.is_zero(a.alpha_value)
    (c,) = a.contributions
    assert c.mult_fbar == 4 and c.mult_hinf == 1
    assert c.contribution == 4 - (rep.degree - 1) * 1 == 2
    z = locs[("infinity", "[2 : 1 : 0]", "infinite")]
    assert z.index == 0


def test_criterion_2_quintic_golden(golden):
    _f, rep, elapsed, limit = golden["quintic"]
    assert elapsed < limit
    assert rep.morse_number == 4
    locs = _locate(rep)
    assert locs[("affine", "(0, 0)", "finite")].index == 1
    assert locs[("infinity", "[0 : 1 : 0]", "infinite")].index == 1
    p = locs[("infinity", "[1 : 0 : 0]", "finite")]
    assert p.index == 2
    assert p.alpha_field.is_zero(p.alpha_value)
    assert locs[("infinity", "[3/2 : 1 : 0]", "infinite")].index == 0


def test_criterion_3_sextic_golden(golden):
    _f, rep, elapsed, limit = golden["sextic"]
    assert elapsed < limit
    assert rep.morse_number == 9
    affine = [a for a in rep.attractors if a.kind == "affine"]
    assert sum(a.n_points for a in affine) == 8
    assert all(a.index == 1 for a in affine)
    inf = [a for a in rep.attractors if a.kind == "infinity"]
    assert len(inf) == 1
    assert inf[0].point.coords_str() == "[0 : 1 : 0]"
    assert inf[0].alpha_kind == "infinite"
    assert inf[0].index == 1


# --------------------------------------------------------------------------
# criterion 4: conservation against the oracle on random inputs
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_suite():
    from polarmorse.polar import GenericityError
    rng = random.Random(20260824)
    t0 = time.perf_counter()
    runs = []
    attempts = 0
    while len(runs) < RANDOM_TRIALS:
        attempts += 1
        assert attempts <= 3 * RANDOM_TRIALS, "too many rejected random inputs"
        f = random_acceptance_f(rng)
        try:
            rep = analyze_symbolic(f, seed=attempts)
        except GenericityError:
            continue
        n_oracle = len(critical_points(f, rep.ell, rat(1, 100000)).points)
        runs.append((f, rep, n_oracle))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_4_random_conservation(random_suite):
    runs, elapsed = random_suite
    assert len(runs) >= RANDOM_TRIALS
    for f, rep, n_oracle in runs:
        assert rep.morse_number == n_oracle, \
            "conservation failed for f = %s" % poly_str(f, V)
    assert elapsed < RANDOM_TIME_BUDGET


# --------------------------------------------------------------------------
# criterion 5: vanishing-solution counts for Laurent pairs
# --------------------------------------------------------------------------

def _random_laurent(rng):
    order = rng.randint(-4, 4)
    coeffs = {order: rng.choice([c for c in range(-5, 6) if c])}
    for k in range(1, rng.randint(1, 5)):
        c = rng.randint(-5, 5)
        if c:
            coeffs[order + k] = c
    return coeffs, order


def _numeric_vanishing_count(g, h):
    """Roots of g(s) - t*h(s) inside |s| < 1e-2 for tiny t.

    After clearing the common s-power the constant term is nonzero, so
    every small root genuinely converges to 0 as t -> 0; the remaining
    roots stay near the nonzero roots of the leading part (modulus at
    least 1/6 for integer coefficients bounded by 5) or escape."""
    m = min(min(g), min(h))
    deg = max(max(g), max(h)) - m
    with mpmath.workprec(400):
        for attempt in range(4):
            t = mpmath.mpf(10) ** -28 * (1 + mpmath.mpf(attempt) / 7)
            coeffs = [mpmath.mpf(0)] * (deg + 1)
            for e, c in g.items():
                coeffs[e - m] += c
            for e, c in h.items():
                coeffs[e - m] -= t * c
            rev = list(reversed(coeffs))
            while rev and rev[0] == 0:
                rev.pop(0)
            assert rev and rev[-1] != 0
            if len(rev) == 1:
                return 0
            try:
                roots = mpmath.polyroots(rev, maxsteps=200, extraprec=200)
            except mpmath.libmp.NoConvergence:
                continue
            return sum(1 for r in roots if abs(r) < mpmath.mpf("1e-2"))
    raise AssertionError("root finding failed for every perturbed t")


def test_criterion_5_vanishing_count_formula():
    rng = random.Random(36)
    for _ in range(LAURENT_TRIALS):
        g, og = _random_laurent(rng)
        h, oh = _random_laurent(rng)
        expected = count_vanishing_solutions(og, oh)
        assert _numeric_vanishing_count(g, h) == expected, (g, h)


# --------------------------------------------------------------------------
# criteria 6 and 7: chart independence and linear-form invariance
# --------------------------------------------------------------------------

def _alpha_key(a):
    if a.alpha_kind == "infinite":
        return ("infinite",)
    if a.alpha_field is QQ:
        return ("finite", str(a.alpha_value))
    mp = minpoly_over(a.alpha_field, a.alpha_value, QQ)
    return ("finite", poly_str(mp, ("T",)))


def test_criterion_6_chart_independence(golden):
    checked = 0
    for f, rep, _e, _l in golden.values():
        polar = polar_equation(f, rep.ell, singular_locus(f))
        for ip in polar.infinity_points:
            per_chart = {}
            for chart in ("y", "x"):
                if chart_center(ip, chart) is None:
                    continue
                ats = infinity_index(f, rep.ell, polar, ip, chart=chart)
                per_chart[chart] = sorted(
                    (_alpha_key(a), a.index, a.n_points) for a in ats)
            if len(per_chart) == 2:
                assert per_chart["y"] == per_chart["x"]
                checked += 1
    # exactly [2:1:0] and [3/2:1:0] are visible in both charts
    assert checked >= 2


def test_criterion_7_ell_invariance(golden):
    for f, rep, _e, _l in golden.values():
        r1 = analyze_symbolic(f, seed=0)
        r2 = analyze_symbolic(f, seed=1)
        assert (r1.ell.a, r1.ell.b) != (r2.ell.a, r2.ell.b)
        assert r1.morse_number == r2.morse_number == rep.morse_number


# --------------------------------------------------------------------------
# criterion 8: branch residuals and multiplicity bookkeeping
# --------------------------------------------------------------------------

def _center_groups(f, rep):
    """(germ, branches) for every expansion center used by a report."""
    polar = polar_equation(f, rep.ell, singular_locus(f))
    groups = {}
    for a in rep.attractors:
        G, _f, _ell = _chart_polys(f, rep.ell, polar, a.chart)
        germ = G.to_field(a.point.field).translate(chart_center(a.point, a.chart))
        entry = groups.setdefault((id(a.point), a.chart), (germ, []))
        entry[1].extend(c.branch for c in a.contributions)
    return list(groups.values())


def _line_contact_sum(germ, branches):
    """Total branch contact with the line y = mu*x through the center,
    checked against the order of germ(x, mu*x) = +-Res_y(germ, y - mu*x)."""
    K = germ.field
    x = Poly.var(K, 1, 0)
    for mu in (1, 2, 3, 5, 7, 11):
        r = germ.compose([x, x.scale(K.from_rat(rat(mu)))])
        if r.is_zero():
            continue  # the line is a component of the germ
        cs = r.coeffs_in(0)
        order = 0
        while K.is_zero(cs[order]):
            order += 1
        try:
            total = 0
            for b in branches:
                ser = b.y_series - b.x_series.scale(b.field.from_rat(rat(mu)))
                total += b.conj_multiplicity * ser.order()
        except SeriesPrecisionLoss:
            continue  # tangent line at low truncation: try another slope
        return total, order
    raise AssertionError("no usable test line through the center")


def _check_branches(f, rep):
    for germ, branches in _center_groups(f, rep):
        assert branches
        for b in branches:
            assert branch_residual(germ, b).is_zero_shown(), \
                "branch residual nonzero for f = %s" % poly_str(f, V)
        total, order = _line_contact_sum(germ, branches)
        assert total == order, \
            "multiplicity sum mismatch for f = %s" % poly_str(f, V)


def test_criterion_8_golden_branch_bookkeeping(golden):
    for f, rep, _e, _l in golden.values():
        _check_branches(f, rep)


def test_criterion_8_random_branch_bookkeeping(random_suite):
    runs, _elapsed = random_suite
    for f, rep, _n in runs:
        _check_branches(f, rep)
