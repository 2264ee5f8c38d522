import math
import signal
import sys

import mpmath
import pytest
from conftest import count_polyval

from polarmorse import cli, oracle
from polarmorse.fields import conj_key, rat
from polarmorse.poly import parse_poly, substitute
from polarmorse.morse import analyze_symbolic
from polarmorse.polar import LinearForm
from polarmorse.oracle import (DEFAULT_SCHEDULE, _dist, _refine_schedule,
                               _to_mpf, _track, classify_trajectories,
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


@pytest.mark.parametrize("k", [130, 150, 154, 160, 300])
def test_critical_points_at_small_t(cubic_tail, ell_xy, k):
    # x = +-sqrt(t) is read off its own residue mod the eliminant's factor,
    # not computed as X + c*y from the sheared coordinate X ~ 1/sqrt(t),
    # which cancels to 0 below about t = 1e-154 at 256 bits
    t = rat(1, 10**k)
    cs = critical_points(cubic_tail, ell_xy, t)
    assert len(cs.points) == 2
    with mpmath.workprec(256):
        root = mpmath.sqrt(_to_mpf(t))
        xs = sorted(p[0].real for p in cs.points)
        assert abs(xs[0] / root + 1) < 1e-30 and abs(xs[1] / root - 1) < 1e-30


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
    with mpmath.workprec(300):
        for x, y in cs.points:
            gx, gy = substitute((fx, fy), (x, y), _to_mpf)
            r1 = abs(gx - mpmath.mpf(1) / 1000)
            r2 = abs(gy - mpmath.mpf(1) / 1000)
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


def test_rejects_precision_above_cap(cubic_tail, ell_xy):
    with pytest.raises(ValueError):
        critical_points(cubic_tail, ell_xy, rat(1, 100),
                        precision=oracle.MAX_PRECISION + 1)


def point_key(p):
    return conj_key(p[0]), conj_key(p[1])


@pytest.mark.parametrize("text, ell", [
    ("x*y + 1/3*x^3*y^2 + x^6", LinearForm(rat(1), rat(1))),
    # verify-d6 input 19: 16 points, conjugate pairs among them
    ("-3/2*x^5 - x^2*y^3 - y^5", LinearForm(rat(1), rat(-59, 34)))])
def test_critical_points_in_key_order(text, ell, monkeypatch):
    f = parse_poly(text, V)
    points = critical_points(f, ell, rat(1, 100)).points
    keys = [point_key(p) for p in points]
    assert len(points) > 1 and keys == sorted(set(keys))
    # the order does not depend on the order the root finder lands in
    real = oracle.poly_roots
    monkeypatch.setattr(oracle, "poly_roots",
                        lambda *args: real(*args)[::-1])
    assert critical_points(f, ell, rat(1, 100)).points == points


def test_start_solve_is_seeded(sextic_eight, ell_xy, monkeypatch):
    # the float seeds leave 3-4 sweeps per solve (426 evaluations unseeded)
    calls = count_polyval(monkeypatch)
    assert len(critical_points(sextic_eight, ell_xy, rat(1, 100)).points) == 9
    assert 0 < len(calls) <= 200


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


def _norm(p):
    return max(abs(p[0]), abs(p[1]))


def test_tracked_points_match_solves(cubic_tail, quintic_node, sextic_eight,
                                     ell_xy):
    # the continuation must reproduce an independent solve at every
    # record value of t, one tracked point per solved point
    tower = parse_poly("(x^2-2)^2 + (y^2-x)^2", V)
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    for f in (cubic_tail, quintic_node, sextic_eight, tower):
        trajectories = _track(f, ell_xy, fine, 256)
        assert trajectories is not None, f
        for k, t in enumerate(fine):
            tracked = [tr[k] for tr in trajectories]
            solved = critical_points(f, ell_xy, t).points
            assert len(tracked) == len(solved)
            nearest = set()
            for p in tracked:
                d, j = min((_dist(p, q), j) for j, q in enumerate(solved))
                assert d <= 1e-30 * _norm(p), (t, p)
                nearest.add(j)
            assert len(nearest) == len(solved), t
            for i, p in enumerate(tracked):
                for q in tracked[:i]:
                    assert _dist(p, q) > 1e-30 * _norm(p), (t, p)


def test_tiny_t_schedule_finishes(capsys):
    # 1,324 record values of t between 1e-3 and 1e-400
    def timeout(signum, frame):
        raise TimeoutError("the oracle ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        code = cli.main(["--f", "x + x^2*y", "--ell", "x + y", "--verify",
                         "--t-schedule", "1e-2,1e-3,1e-400"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK, captured.err
    assert "verification: matched=True" in captured.out


def test_one_solve_and_tracking_failure(sextic_eight, ell_xy, monkeypatch,
                                        capsys):
    report = analyze_symbolic(sextic_eight, ell=ell_xy)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return critical_points(*args, **kwargs)

    monkeypatch.setattr(oracle, "critical_points", counted)
    v = classify_trajectories(sextic_eight, ell_xy, DEFAULT_SCHEDULE, report)
    assert v.matched, v.mismatches
    assert len(calls) == 1

    # a corrector that never converges fails every step at every halving
    monkeypatch.setattr(oracle, "_newton", lambda *args: None)
    v = classify_trajectories(sextic_eight, ell_xy, DEFAULT_SCHEDULE, report)
    assert not v.matched
    assert v.mismatches == ["trajectory tracking failed"]
    code = cli.main(["--f", "x*y + 1/3*x^3*y^2 + x^6", "--ell", "x + y",
                     "--verify"])
    assert code == cli.EXIT_MISMATCH == 4
    assert "trajectory tracking failed" in capsys.readouterr().out


def test_merged_paths_fail_tracking(quintic_node, ell_xy, monkeypatch):
    # paths that land on one point at the last record value of t, where
    # no later step can notice, must not be counted as two trajectories
    report = analyze_symbolic(quintic_node, ell=ell_xy)
    carry = oracle._carry
    t_last = _refine_schedule(DEFAULT_SCHEDULE)[-1]
    ends = []

    def merging(system, ell, p, t, t_next, gap, depth=0):
        q = carry(system, ell, p, t, t_next, gap, depth)
        if depth == 0 and t_next == t_last:
            ends.append(q)
            return ends[0]
        return q

    monkeypatch.setattr(oracle, "_carry", merging)
    v = classify_trajectories(quintic_node, ell_xy, DEFAULT_SCHEDULE, report)
    assert len(ends) >= 2
    assert v.mismatches == ["trajectory tracking failed"]


def _reference_gaps(points):
    """Nearest-neighbour distances, each pair measured from both ends."""
    gaps = []
    for i, p in enumerate(points):
        gap = min((_dist(p, q) for j, q in enumerate(points) if j != i),
                  default=mpmath.inf)
        assert gap > mpmath.ldexp(max(abs(p[0]), abs(p[1])), -(mpmath.mp.prec // 4))
        gaps.append(gap)
    return gaps


def _reference_track(f, ell, fine, precision, double=True):
    """The tracker with five separate evaluations per Newton step, each
    converting every coefficient anew, every pairwise distance measured
    from both of its ends and, with ``double``, each corrector started
    from a Newton refinement in hardware floats when that converges."""
    fx, fy = f.diff(0), f.diff(1)
    hessian = (fx.diff(0), fx.diff(1), fy.diff(1))

    def solve(p, u, v, lift):
        h11, h12, h22 = (substitute(h, p, lift) for h in hessian)
        det = h11 * h22 - h12 * h12
        if det == 0:
            return None
        return ((h22 * u - h12 * v) / det, (h11 * v - h12 * u) / det)

    def newton(p, t, lift, ldexp, prec):
        ta, tb = lift(t * ell.a), lift(t * ell.b)
        eps = ldexp(1, -(prec // 2))
        last = None
        for _ in range(oracle.NEWTON_STEPS):
            d = solve(p, substitute(fx, p, lift) - ta,
                      substitute(fy, p, lift) - tb, lift)
            if d is None:
                return None
            p = (p[0] - d[0], p[1] - d[1])
            floor = ldexp(max(abs(p[0]), abs(p[1])), -(prec // 4))
            if all(abs(di) <= eps * max(abs(c), floor) for di, c in zip(d, p)):
                return p
            size = max(abs(d[0]), abs(d[1]))
            if last is not None and size > last:
                return None
            last = size
        return None

    def refine(p, t):
        if not double or t < sys.float_info.min:
            return None
        start = tuple(complex(c) if isinstance(c, mpmath.mpc) else float(c)
                      for c in p)
        try:
            q = newton(start, t, float, math.ldexp, 53)
        except OverflowError:
            return None
        return q and tuple(mpmath.mpmathify(c) for c in q)

    def carry(p, t, t_next, gap, depth=0):
        v = solve(p, _to_mpf(ell.a), _to_mpf(ell.b), _to_mpf)
        if v is not None:
            dt = _to_mpf(t_next - t)
            guess = (p[0] + dt * v[0], p[1] + dt * v[1])
            refined = refine(guess, t_next)
            for start in ([refined] if refined else []) + [guess]:
                q = newton(start, t_next, _to_mpf, mpmath.ldexp, mpmath.mp.prec)
                if q is not None and _dist(q, guess) < gap / 4:
                    return q
        if depth == oracle.MAX_HALVINGS:
            return None
        mid = (t + t_next) / 2
        m = carry(p, t, mid, gap, depth + 1)
        return m and carry(m, mid, t_next, gap, depth + 1)

    trajectories = [[p] for p in critical_points(f, ell, fine[0], precision).points]
    with mpmath.workprec(precision):
        for t, t_next in zip(fine, fine[1:]):
            gaps = _reference_gaps([tr[-1] for tr in trajectories])
            for tr, gap in zip(trajectories, gaps):
                q = carry(tr[-1], t, t_next, gap)
                assert q is not None
                tr.append(q)
    return trajectories


@pytest.mark.parametrize("text", ["x + x^2*y", "x*y + 1/3*x^3*y^2",
                                  "x*y + 1/3*x^3*y^2 + x^6",
                                  "(x^2-2)^2 + (y^2-x)^2",
                                  "10^320*x^2 + y^2 + x^3"])
def test_tracked_paths_unchanged(text, ell_xy, monkeypatch):
    """One table of powers per step and coefficients converted once per
    ring give exactly the points of separate evaluations, bit for bit.
    When the double stage fails, as it does for a coefficient beyond the
    float range, the corrector is the working-precision Newton alone."""
    f = parse_poly(text, V)
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    assert _track(f, ell_xy, fine, 256) == _reference_track(f, ell_xy, fine, 256)
    monkeypatch.setattr(oracle, "_refine", lambda *args: None)
    assert _track(f, ell_xy, fine, 256) == _reference_track(f, ell_xy, fine, 256,
                                                            double=False)


def _count_newton_iterations(monkeypatch):
    """Count the working-precision Newton iterations from now on: the
    evaluations of f_x, f_y and the Hessian at an mpmath point."""
    counts = []

    def counted(p, args, lift):
        if isinstance(p, tuple) and len(p) == 5 and isinstance(
                args[0], (mpmath.mpf, mpmath.mpc)):
            counts.append(args)
        return substitute(p, args, lift)

    monkeypatch.setattr(oracle, "substitute", counted)
    return counts


def test_working_precision_iterations(sextic_eight, ell_xy, monkeypatch):
    # the double stage leaves about three working-precision iterations
    # per step: 654 in all, against 892 with the predictor's guess alone
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    counts = _count_newton_iterations(monkeypatch)
    v = classify_trajectories(sextic_eight, ell_xy, DEFAULT_SCHEDULE, rep)
    assert v.matched, v.mismatches
    assert 0 < len(counts) < 750


def test_real_paths_stay_real(cubic_tail, ell_xy):
    # x + x^2*y has two real paths; a complex round trip through the
    # double stage would make mpc points of them
    trajectories = _track(cubic_tail, ell_xy, _refine_schedule(DEFAULT_SCHEDULE), 256)
    assert len(trajectories) == 2
    for tr in trajectories:
        for p in tr:
            assert all(type(c) is mpmath.mpf for c in p), p


def test_no_double_stage_below_float_range(ell_xy, monkeypatch):
    # below about 1e-308, t*(a, b) is no float: the double stage is skipped
    newton, targets = oracle._newton, []

    def recorded(polys, ring, p, target):
        if ring[0] is float:
            targets.append(target[0])
        return newton(polys, ring, p, target)

    monkeypatch.setattr(oracle, "_newton", recorded)
    fine = _refine_schedule([rat(1, 10**300), rat(1, 10**305), rat(1, 10**310)])
    trajectories = _track(parse_poly("x^2 + y^2 + x^3", V), ell_xy, fine, 256)
    assert len(trajectories) == 2
    assert targets and min(targets) >= sys.float_info.min
    assert fine[-1] < sys.float_info.min


@pytest.mark.parametrize("precision, code, line", [
    (4, cli.EXIT_MISMATCH, "  mismatch: trajectory tracking failed"),
    (32, cli.EXIT_OK, "verification: matched=True schedule=1/100,1/1000,"
                      "1/10000,1/100000"),
    (53, cli.EXIT_OK, "verification: matched=True schedule=1/100,1/1000,"
                      "1/10000,1/100000")])
def test_low_precision_tracking(precision, code, line, capsys):
    # the double stage carries more bits than a 4-bit working precision
    # but does not make such a run pass; at 32 bits the start points,
    # exact up to root finding, carry the run
    assert cli.main(["--f", "x*y + 1/3*x^3*y^2", "--ell", "x + y", "--verify",
                     "--precision", str(precision)]) == code
    assert line in capsys.readouterr().out.splitlines()


def test_steps_end_at_working_precision(quintic_node, ell_xy, monkeypatch):
    # every accepted step of a 32-bit run ends in a Newton at 32 bits
    newton, carry = oracle._newton, oracle._carry
    corrected, accepted = [], []

    def recorded_newton(polys, ring, p, target):
        q = newton(polys, ring, p, target)
        if ring[0] is not float and q is not None:
            assert mpmath.mp.prec == 32
            corrected.append(q)
        return q

    def recorded_carry(*args):
        q = carry(*args)
        if q is not None:
            accepted.append(q)
        return q

    monkeypatch.setattr(oracle, "_newton", recorded_newton)
    monkeypatch.setattr(oracle, "_carry", recorded_carry)
    rep = analyze_symbolic(quintic_node, ell=ell_xy)
    v = classify_trajectories(quintic_node, ell_xy, DEFAULT_SCHEDULE, rep,
                              precision=32)
    assert v.matched, v.mismatches
    assert accepted and all(any(q is c for c in corrected) for q in accepted)


def test_coefficients_converted_once(sextic_eight, ell_xy, monkeypatch):
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    calls = []
    monkeypatch.setattr(oracle, "_to_mpf", lambda q: calls.append(q) or _to_mpf(q))
    v = classify_trajectories(sextic_eight, ell_xy, DEFAULT_SCHEDULE, rep)
    assert v.matched, v.mismatches
    assert 0 < len(calls) < 3000
