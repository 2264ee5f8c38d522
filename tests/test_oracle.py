import mpmath
import pytest

from polarmorse.fields import rat
from polarmorse.poly import parse_poly
from polarmorse.morse import analyze_symbolic
from polarmorse.oracle import (DEFAULT_SCHEDULE, classify_trajectories,
                               critical_points)

V = ("x", "y")


def test_critical_points_closed_form(cubic_tail, ell_xy):
    # f = x + x^2*y: the system is 1 + 2xy = t, x^2 = t
    t = rat(1, 10000)
    cs = critical_points(cubic_tail, ell_xy, t)
    assert len(cs.points) == 2
    xs = sorted(float(p[0].real) for p in cs.points)
    root = float(mpmath.sqrt(mpmath.mpf(1) / 10000))
    assert xs[0] == pytest.approx(-root, rel=1e-12)
    assert xs[1] == pytest.approx(root, rel=1e-12)
    with mpmath.workprec(256):
        for x, y in cs.points:
            assert abs(1 + 2 * x * y - mpmath.mpf(1) / 10000) < 1e-30


def test_critical_points_quadratic(ell_xy):
    f = parse_poly("x^2 + y^2", V)
    cs = critical_points(f, ell_xy, rat(1, 100))
    assert len(cs.points) == 1
    (x, y) = cs.points[0]
    with mpmath.workprec(256):
        assert abs(x - mpmath.mpf(1) / 200) < 1e-40
        assert abs(y - mpmath.mpf(1) / 200) < 1e-40


def test_critical_points_sextic(sextic_eight, ell_xy):
    cs = critical_points(sextic_eight, ell_xy, rat(1, 1000))
    assert len(cs.points) == 9


def test_residuals_below_tolerance(quintic_node, ell_xy):
    cs = critical_points(quintic_node, ell_xy, rat(1, 1000), precision=256)
    fx = quintic_node.diff(0)
    fy = quintic_node.diff(1)
    from polarmorse.oracle import _eval_numeric
    with mpmath.workprec(300):
        for x, y in cs.points:
            r1 = abs(_eval_numeric(fx, x, y) - mpmath.mpf(1) / 1000)
            r2 = abs(_eval_numeric(fy, x, y) - mpmath.mpf(1) / 1000)
            scale = max(1, abs(x), abs(y)) ** quintic_node.total_degree()
            assert r1 < mpmath.mpf(10) ** -40 * scale
            assert r2 < mpmath.mpf(10) ** -40 * scale


def test_rejects_zero_t(cubic_tail, ell_xy):
    with pytest.raises(ValueError):
        critical_points(cubic_tail, ell_xy, rat(0))


def test_count_stability_across_schedule(quintic_node, ell_xy):
    counts = {len(critical_points(quintic_node, ell_xy, t).points)
              for t in DEFAULT_SCHEDULE}
    assert len(counts) == 1


def test_classify_golden(cubic_tail, quintic_node, sextic_eight, ell_xy):
    for f in (cubic_tail, quintic_node, sextic_eight):
        rep = analyze_symbolic(f, ell=ell_xy)
        v = classify_trajectories(f, ell_xy, DEFAULT_SCHEDULE, rep)
        assert v.matched, v.mismatches
        assert sum(v.observed.values()) == rep.morse_number


def test_classify_requires_decreasing_schedule(cubic_tail, ell_xy):
    rep = analyze_symbolic(cubic_tail, ell=ell_xy)
    with pytest.raises(ValueError):
        classify_trajectories(cubic_tail, ell_xy,
                              [rat(1, 100), rat(1, 10), rat(1, 1000)], rep)


def test_verdict_detects_wrong_report(cubic_tail, quintic_node, ell_xy):
    # feed the oracle a report for a different polynomial
    wrong = analyze_symbolic(quintic_node, ell=ell_xy)
    v = classify_trajectories(cubic_tail, ell_xy, DEFAULT_SCHEDULE, wrong)
    assert not v.matched
    assert v.mismatches


def test_rejects_precision_below_one(cubic_tail, ell_xy):
    with pytest.raises(ValueError):
        critical_points(cubic_tail, ell_xy, rat(1, 100), precision=0)


@pytest.mark.parametrize("schedule", [(rat(1, 100), rat(1, 1000), rat(0)),
                                      (rat(-1, 10000), rat(-1, 1000), rat(-1, 100))])
def test_classify_rejects_nonpositive_schedule(cubic_tail, ell_xy, schedule,
                                               monkeypatch):
    from polarmorse import oracle

    def refine(schedule):
        pytest.fail("a nonpositive schedule reached the refinement")

    monkeypatch.setattr(oracle, "_refine_schedule", refine)
    report = analyze_symbolic(cubic_tail, ell=ell_xy)
    with pytest.raises(ValueError):
        classify_trajectories(cubic_tail, ell_xy, schedule, report)
