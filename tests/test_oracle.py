import cmath
import itertools
import math
import random
import signal
import sys
from fractions import Fraction

import mpmath
import pytest
from conftest import count_polyval
from hypothesis import assume, given, settings, strategies as st

from polarmorse import cli, oracle
from polarmorse.fields import QQ, ExtensionTooLarge, conj_key, rat
from polarmorse.poly import Poly, parse_poly, substitute
from polarmorse.morse import analyze_symbolic
from polarmorse.polar import GenericityError, LinearForm
from polarmorse.puiseux import DegenerateComposition
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


def _reference_track(f, ell, fine, precision, double=True, fixed=True,
                     starts=None):
    """The tracker with separate evaluations, each converting every
    coefficient anew, and every pairwise distance measured from both of its
    ends.  With ``double`` and ``fixed``, a step first tries the float
    stage: the predictor's tangent and the Hessian's inverse in floats, a
    Newton refinement in floats, and a corrector at the working precision
    that evaluates only f_x and f_y.  When that fails, or without
    ``fixed``, each Newton at the working precision starts from the
    refinement in floats (with ``double``) and from the guess.  The paths
    start from ``starts``, or from the points of ``critical_points``."""
    fx, fy = f.diff(0), f.diff(1)
    hessian = (fx.diff(0), fx.diff(1), fy.diff(1))

    def solve(p, u, v, lift):
        h11, h12, h22 = (substitute(h, p, lift) for h in hessian)
        det = h11 * h22 - h12 * h12
        if det == 0:
            return None
        return ((h22 * u - h12 * v) / det, (h11 * v - h12 * u) / det)

    def newton(p, t, lift, ldexp, prec, solve=solve):
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

    def floats(p):
        return tuple(complex(c) if isinstance(c, mpmath.mpc) else float(c)
                     for c in p)

    def refine(p, t):
        if not double or t < sys.float_info.min:
            return None
        try:
            q = newton(floats(p), t, float, math.ldexp, 53)
        except OverflowError:
            return None
        return q and tuple(mpmath.mpmathify(c) for c in q)

    def float_inverse(p):
        try:
            h11, h12, h22 = (substitute(h, floats(p), float) for h in hessian)
            det = h11 * h22 - h12 * h12
            inverse = (h22 / det, -h12 / det, h11 / det)
        except (OverflowError, ZeroDivisionError):
            return None
        return inverse if all(cmath.isfinite(c) for c in inverse) else None

    def correct(p, t, inverse):
        i11, i12, i22 = (mpmath.mpmathify(c) for c in inverse)
        return newton(p, t, _to_mpf, mpmath.ldexp, mpmath.mp.prec,
                      lambda p, u, v, lift: (i11 * u + i12 * v, i12 * u + i22 * v))

    def carry(p, t, t_next, gap, depth=0):
        dt = _to_mpf(t_next - t)
        tangent = double and fixed and float_inverse(p)
        if tangent:
            a, b = float(ell.a), float(ell.b)
            guess = (p[0] + dt * (tangent[0] * a + tangent[1] * b),
                     p[1] + dt * (tangent[1] * a + tangent[2] * b))
            refined = refine(guess, t_next)
            inverse = refined and float_inverse(refined)
            if inverse:
                q = correct(refined, t_next, inverse)
                if q is not None and _dist(q, guess) < gap / 4:
                    return q
        v = solve(p, _to_mpf(ell.a), _to_mpf(ell.b), _to_mpf)
        if v is not None:
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

    trajectories = [[p] for p in starts or
                    critical_points(f, ell, fine[0], precision).points]
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
                                  "10^320*x^2 + y^2 + x^3",
                                  "-3/2*x^5 - x^2*y^3 - y^5",
                                  "-y^6 - x^3 - x^5"])
def test_tracked_paths_unchanged(text, ell_xy, monkeypatch):
    """One table of powers per step, coefficients converted once per ring
    and one path per conjugate pair give exactly the points of separate
    evaluations on every point, bit for bit.  When the double stage fails,
    as it does for a coefficient beyond the float range, the corrector is
    the working-precision Newton alone."""
    f = parse_poly(text, V)
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    assert _track(f, ell_xy, fine, 256) == _reference_track(f, ell_xy, fine, 256)
    monkeypatch.setattr(oracle, "_refine", lambda *args: None)
    assert _track(f, ell_xy, fine, 256) == _reference_track(f, ell_xy, fine, 256,
                                                            double=False)


def _count_carries(monkeypatch):
    """The start points of the top-level ``_carry`` calls from now on, by
    the value of t they start from."""
    carry, steps = oracle._carry, {}

    def counted(system, ell, p, t, t_next, gap, depth=0):
        if depth == 0:
            steps.setdefault(t, []).append(p)
        return carry(system, ell, p, t, t_next, gap, depth)

    monkeypatch.setattr(oracle, "_carry", counted)
    return steps


@pytest.mark.parametrize("text, carried", [("-y^6 - x^3 - x^5", 10),
                                           ("x*y + 1/3*x^3*y^2", 4)])
def test_one_path_per_conjugate_pair(text, carried, ell_xy, monkeypatch):
    # the 20 non-real points of -y^6 - x^3 - x^5 are ten conjugate pairs,
    # each carried once; the quintic's four points are real
    f = parse_poly(text, V)
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    steps = _count_carries(monkeypatch)
    assert _track(f, ell_xy, fine, 256) is not None
    assert sorted(steps) == sorted(fine[:-1])
    assert all(len(points) == carried for points in steps.values())


def _track_from(f, ell, fine, points, monkeypatch):
    """``_track`` from the start points ``points``, with the start points of
    its top-level ``_carry`` calls by step, and the tracker's paths from
    the same points carried each on its own."""
    monkeypatch.setattr(oracle, "critical_points",
                        lambda *args: oracle.CriticalSet(tuple(points)))
    steps = _count_carries(monkeypatch)
    tracked = _track(f, ell, fine, 256)
    assert tracked == _reference_track(f, ell, fine, 256, starts=points)
    return steps


def test_conjugate_pairs_are_exact(ell_xy, monkeypatch):
    # a point off its partner's conjugate by one ulp at the working
    # precision is no partner: both are carried on their own, the other
    # nine pairs once each
    f = parse_poly("-y^6 - x^3 - x^5", V)
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    points = list(critical_points(f, ell_xy, fine[0]).points)
    with mpmath.workprec(256):
        (x, y), partner = points[0], tuple(map(mpmath.conj, points[0]))
        man, exp = x.imag.man_exp
        ulp = mpmath.ldexp(1, exp + man.bit_length() - 256)
        points[0] = (mpmath.mpc(x.real, x.imag + ulp), y)
    assert points[0] != (x, y) and partner in points
    steps = _track_from(f, ell_xy, fine, points, monkeypatch)
    assert points[0] in steps[fine[0]] and partner in steps[fine[0]]
    assert [len(steps[t]) for t in fine[:-1]] == [11] * (len(fine) - 1)


def test_pair_with_unequal_gaps_is_carried_apart(ell_xy, monkeypatch):
    # a point i moved by 2^-20 of the way to a non-real point k it is
    # nearest to brings k's gap below that of conj(k): the pair of k is
    # carried on its own too, and so is that of i
    f = parse_poly("-y^6 - x^3 - x^5", V)
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    points = list(critical_points(f, ell_xy, fine[0]).points)
    assert len(points) == 20
    with mpmath.workprec(256):
        conj = [tuple(map(mpmath.conj, p)) for p in points]
        gaps = oracle._gaps(points)
        k, i = next((k, i) for k, i in itertools.permutations(range(20), 2)
                    if conj[k] != points[k] and conj[k] != points[i]
                    and _dist(points[k], points[i]) == gaps[k])
        points[i] = tuple(c + (d - c) * mpmath.ldexp(1, -20)
                          for c, d in zip(points[i], points[k]))
        gaps = oracle._gaps(points)
    assert gaps[k] != gaps[points.index(conj[k])]
    steps = _track_from(f, ell_xy, fine, points, monkeypatch)
    assert all(p in steps[fine[0]]
               for p in (points[k], conj[k], points[i], conj[i]))


@pytest.mark.parametrize("text", ["x + x^2*y", "x*y + 1/3*x^3*y^2 + x^6",
                                  "(x^2-2)^2 + (y^2-x)^2"])
def test_fallback_is_full_newton(text, ell_xy, monkeypatch):
    """Without a float inverse of the Hessian every step is Newton at the
    working precision from the refined point, then from the guess, with
    the predictor at the working precision: the points of the tracker
    before the fixed-inverse corrector, bit for bit."""
    f = parse_poly(text, V)
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    full_newton = _reference_track(f, ell_xy, fine, 256, fixed=False)
    assert full_newton != _reference_track(f, ell_xy, fine, 256)
    monkeypatch.setattr(oracle, "_float_inverse", lambda *args: None)
    assert _track(f, ell_xy, fine, 256) == full_newton


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
    # full Newton iterations at the working precision are left only to the
    # steps where the float stage fails: 234 in all, against 654 when every
    # step ended in Newton from the float refinement and 892 with the
    # predictor's guess alone
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    counts = _count_newton_iterations(monkeypatch)
    v = classify_trajectories(sextic_eight, ell_xy, DEFAULT_SCHEDULE, rep)
    assert v.matched, v.mismatches
    assert 0 < len(counts) < 750


def test_working_precision_evaluations(sextic_eight, ell_xy, monkeypatch):
    # polynomials evaluated at an mpmath point, solve and classification
    # included: 2,299 with the fixed-inverse corrector, which evaluates only
    # f_x and f_y, against 3,859 with Newton on all five
    rep = analyze_symbolic(sextic_eight, ell=ell_xy)
    evaluations = []

    def counted(p, args, lift, *ops):
        if isinstance(args[0], (mpmath.mpf, mpmath.mpc)):
            evaluations.append(len(p) if isinstance(p, tuple) else 1)
        return substitute(p, args, lift, *ops)

    monkeypatch.setattr(oracle, "substitute", counted)
    v = classify_trajectories(sextic_eight, ell_xy, DEFAULT_SCHEDULE, rep)
    assert v.matched, v.mismatches
    assert 0 < sum(evaluations) <= 2400


def test_fixed_inverse_falls_back_at_high_precision(cubic_tail, ell_xy,
                                                    monkeypatch):
    # 16 iterations of about 50 bits do not reach 2^-1024: at 2048 bits
    # most fixed-inverse corrections give up, and those steps are the full
    # Newton step of the reference
    fine = _refine_schedule(DEFAULT_SCHEDULE)
    correct, results = oracle._correct, []

    def recorded(*args):
        results.append(correct(*args))
        return results[-1]

    monkeypatch.setattr(oracle, "_correct", recorded)
    points = _track(cubic_tail, ell_xy, fine, 2048)
    assert sum(q is None for q in results) > len(results) / 2
    assert points == _reference_track(cubic_tail, ell_xy, fine, 2048)


@pytest.mark.parametrize("precision", [256, 128])
def test_dist_in_floats(precision):
    # a float distance is within 2^-12 of the working-precision one; a
    # distance at or below 2^-40 of the larger point, and every distance
    # where the merge test's 2^(-prec/4) is not below 2^-40, is the
    # working-precision one
    rng = random.Random(precision)
    with mpmath.workprec(precision):
        for _ in range(300):
            scale = mpmath.mpf(10) ** rng.randint(-40, 40)
            p = (mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale,
                 mpmath.mpf(rng.uniform(-1, 1)) * scale)
            step = mpmath.mpf(2) ** -rng.uniform(0, 80) * scale
            q = (p[0] + step * mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 p[1] + step * rng.uniform(-1, 1))
            exact = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
            d = _dist(p, q)
            assert abs(d - exact) <= 2 ** -12 * exact, (p, q)
            if (exact <= 2 ** -40 * max(_norm(p), _norm(q))
                    or precision // 4 <= 40):
                assert d == exact and isinstance(d, mpmath.mpf), (p, q)


@st.composite
def sparse_sextics(draw):
    """Inputs like the verify-d6 pool: degree 5-6, 3-5 monomials, one of
    top degree, coefficients +-{1,2,3}/{1,2,3}."""
    d = draw(st.integers(5, 6))
    monos = [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if i + j >= 1]
    top = draw(st.sampled_from([e for e in monos if sum(e) == d]))
    rest = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=4,
                         unique=True).filter(lambda es: top not in es))
    coeffs = st.builds(lambda s, n, m: s * Fraction(n, m), st.sampled_from((-1, 1)),
                       st.integers(1, 3), st.integers(1, 3))
    return Poly(QQ, 2, {e: draw(coeffs) for e in [top] + rest})


@settings(max_examples=6, deadline=None)
@given(sparse_sextics())
def test_float_stage_keeps_verdict(f):
    """The float stage moves no verdict, and the ends of the tracks with
    and without it agree to 1e-30 of their size."""
    try:
        rep = analyze_symbolic(f)
    except (GenericityError, ExtensionTooLarge, DegenerateComposition):
        assume(False)
    tracks = []

    def recorded(*args):
        tracks.append(_track(*args))
        return tracks[-1]

    verdicts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_track", recorded)
        verdicts.append(classify_trajectories(f, rep.ell, DEFAULT_SCHEDULE, rep))
        mp.setattr(oracle, "_refine", lambda *args: None)
        verdicts.append(classify_trajectories(f, rep.ell, DEFAULT_SCHEDULE, rep))
    assert verdicts[0] == verdicts[1]
    assert (tracks[0] is None) == (tracks[1] is None)
    for a, b in zip(*(tracks if tracks[0] else ([], []))):
        assert _dist(a[-1], b[-1]) <= 1e-30 * _norm(a[-1]), (a[-1], b[-1])


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
    # every accepted step of a 32-bit run ends in a corrector at 32 bits:
    # a Newton, or the fixed-inverse corrector
    newton, correct, carry = oracle._newton, oracle._correct, oracle._carry
    corrected, accepted = [], []

    def recorded_newton(polys, ring, p, target):
        q = newton(polys, ring, p, target)
        if ring[0] is not float and q is not None:
            assert mpmath.mp.prec == 32
            corrected.append(q)
        return q

    def recorded_correct(polys, ring, p, inverse, target):
        q = correct(polys, ring, p, inverse, target)
        if q is not None:
            assert mpmath.mp.prec == 32
            corrected.append(q)
        return q

    def recorded_carry(*args):
        q = carry(*args)
        if q is not None:
            accepted.append(q)
        return q

    monkeypatch.setattr(oracle, "_newton", recorded_newton)
    monkeypatch.setattr(oracle, "_correct", recorded_correct)
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
