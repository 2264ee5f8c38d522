"""Numeric verification of the symbolic attractor report.

Solves the critical-point system grad f = t * (a, b) once, at the largest
t, by ``poly.common_zeros``, which gives exact residues of both
coordinates mod each factor of a resultant, plus ``fields.poly_roots``
(multiprecision Durand–Kerner seeded from hardware floats) on each
factor, takes the points in ``conj_key`` order, and carries each solution
down the schedule by predictor-corrector continuation.
Each trajectory is classified as converging to an affine attractor or
escaping to a direction at infinity (with its f-limit), and the cluster
sizes are diffed against the symbolic indices.  Nothing here reuses
series expansions: the oracle is an independent route to the same counts.
A step is an Euler predictor, Newton in hardware floats, then a corrector
at the working precision.  The float stage carries the step: the
predictor's tangent comes from the Hessian inverted in floats, and the
corrector applies the float inverse of the Hessian at the refined point,
so the working precision evaluates only f_x and f_y and makes the update
(iterative refinement, about 50 bits per iteration).  Distances between
points are measured in floats unless they are at float round-off.  When
the float stage fails (no float ring, t below the float range, the float
Newton does not converge, the float Hessian is singular or not finite, or
the fixed-inverse corrector does not converge within NEWTON_STEPS, as at
a working precision too high for 50 bits per iteration to reach), the
step is full Newton at the working precision from the refined point, or
from the predictor's guess when that fails.  Every numeric evaluation goes through ``poly.substitute``: a Newton step
evaluates the gradient and the Hessian of f together, from one table of
powers, with the coefficients converted once per track in each ring.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

import mpmath

from .fields import QQ, conj_key, poly_roots, rat
from .poly import Poly, common_zeros, substitute
from .puiseux import INFINITE

DEFAULT_SCHEDULE = (rat(1, 100), rat(1, 1000), rat(1, 10000), rat(1, 100000))
MAX_PRECISION = 4096
NEWTON_STEPS = 16         # corrector iterations per step
MAX_HALVINGS = 10         # step halvings between two record values of t
# the distances floats resolve: above 2^-40 (3/4 of a float's 53 bits) of
# a point, its round-off of about 2^-52 of the point is 2^-12 of a distance
FLOAT_BITS = sys.float_info.mant_dig - sys.float_info.mant_dig // 4
FLOAT_RESOLUTION = 2.0 ** -FLOAT_BITS


@dataclass(frozen=True)
class CriticalSet:
    points: tuple              # (x, y) mpc pairs


@dataclass
class OracleVerdict:
    t_schedule: tuple
    observed: dict             # cluster label -> count
    matched: bool
    mismatches: list


def _to_mpf(q):
    return mpmath.mpf(int(q.numerator)) / mpmath.mpf(int(q.denominator))


def critical_points(f, ell, t, precision=256):
    """All complex solutions of {f_x = t*a, f_y = t*b}, sorted by
    (conj_key(x), conj_key(y)); the root finding starts at ``precision``
    bits and doubles it up to MAX_PRECISION."""
    if t == 0:
        raise ValueError("the deformation parameter must be nonzero")
    if precision < 1:
        raise ValueError("the precision must be at least 1 bit")
    if precision > MAX_PRECISION:
        raise ValueError("the precision must be at most %d bits" % MAX_PRECISION)
    if f.is_constant():
        raise ValueError("a constant polynomial has no critical points")
    g1 = f.diff(0) - Poly.const(QQ, 2, rat(t) * rat(ell.a))
    g2 = f.diff(1) - Poly.const(QQ, 2, rat(t) * rat(ell.b))
    zeros = common_zeros(g1, g2)[1]
    prec = precision
    while prec <= MAX_PRECISION:
        with mpmath.workprec(prec):
            pts = _solve(zeros, prec)
            if pts is not None:
                return CriticalSet(tuple(sorted(
                    pts, key=lambda p: (conj_key(p[0]), conj_key(p[1])))))
        prec *= 2
    raise ArithmeticError("root finding failed at precision cap")


def _solve(zeros, prec):
    """The points (x0(X), y0(X)) over the roots X of each g of the orbits
    ``zeros`` at ``prec`` bits: a coordinate read off its own residue keeps
    its relative precision however large X is.  Its error is about
    2^-prec * deg(g) * sum |c_j| |X|^j; None when that exceeds 2^(-prec/2)
    of the value, or the root finder does not converge."""
    pts = []
    for g, xr, yr, _m in zeros:
        try:
            roots = poly_roots([_to_mpf(c) for c in g.coeffs_in(0)], 200, prec)
        except mpmath.libmp.NoConvergence:
            return None
        _, lift, eps, _ = _ring((QQ.zero(), QQ.one(), *xr.terms.values(),
                                 *yr.terms.values()), _to_mpf, prec)
        for X in roots:
            p = substitute((xr, yr), (X,), lift)
            sizes = substitute((xr, yr), (abs(X),), lambda c: abs(lift(c)))
            if any(abs(v) < eps * s for v, s in zip(p, sizes)):
                return None
            pts.append(p)
    return pts


def _floats(p):
    """p in hardware floats: ``complex`` for an mpc coordinate, so real
    paths stay real, ``float`` for an mpf one."""
    return tuple(complex(c) if isinstance(c, mpmath.mpc) else float(c)
                 for c in p)


def _dist(p, q, images=None):
    """max(|p_x - q_x|, |p_y - q_y|), in hardware floats where they resolve
    it, to about 2^-12 of itself: above FLOAT_RESOLUTION of the larger
    point, both in the normal float range, and at a working precision whose
    merge test in ``_gaps`` (2^(-prec/4) of a point) lies below
    FLOAT_RESOLUTION, so that test reads a float only far from its bound.
    Otherwise, and always for a distance at round-off, at the working
    precision.  ``images`` are ``_floats`` of p and q when known."""
    if mpmath.mp.prec // 4 > FLOAT_BITS:
        pf, qf = images or (_floats(p), _floats(q))
        try:
            d = max(abs(pf[0] - qf[0]), abs(pf[1] - qf[1]))
            size = max(abs(c) for c in pf + qf)
        except OverflowError:
            d = size = math.inf
        if sys.float_info.min <= size and FLOAT_RESOLUTION * size < d < math.inf:
            return d
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _hessian_solve(h11, h12, h22, u, v):
    """H^-1 (u, v) for the Hessian H = [[h11, h12], [h12, h22]] of f at a
    point; None when H is singular."""
    det = h11 * h22 - h12 * h12
    if det == 0:
        return None
    return ((h22 * u - h12 * v) / det, (h11 * v - h12 * u) / det)


def _float_inverse(system, p):
    """The entries (i11, i12, i22) of the inverse of the Hessian of f at p,
    evaluated and inverted in hardware floats; None without a float ring,
    or when an entry is not finite (a singular Hessian, or p beyond the
    float range)."""
    polys, _, double = system
    if double is None:
        return None
    try:
        h11, h12, h22 = substitute(polys[2:], _floats(p), double[1])
        det = h11 * h22 - h12 * h12
        inverse = (h22 / det, -h12 / det, h11 / det)
    except (OverflowError, ZeroDivisionError):
        return None
    return inverse if all(map(cmath.isfinite, inverse)) else None


def _ring(values, convert, prec):
    """A number ring for Newton: the rationals ``values`` taken into it by
    ``convert`` once, read back by (numerator, denominator), since hashing a
    Fraction costs a modular inverse; and the tolerances 2^(-prec/2) and
    2^(-prec/4) of a ring with ``prec`` bits."""
    table = {(c.numerator, c.denominator): convert(c) for c in values}
    return (convert, lambda c: table[c.numerator, c.denominator],
            convert(rat(1, 2 ** (prec // 2))), convert(rat(1, 2 ** (prec // 4))))


def _iterate(ring, p, target, correction):
    """p less ``correction(p, t*a, t*b)`` in ``ring``, with ``target`` the
    rationals (t*a, t*b), until a correction falls to 2^(-prec/2) of each
    coordinate (or 2^(-3prec/4) of the point, for a coordinate at
    round-off); None when a correction is None or grows, or after
    NEWTON_STEPS."""
    convert, _, eps, quarter = ring
    ta, tb = convert(target[0]), convert(target[1])
    last = None
    for _ in range(NEWTON_STEPS):
        d = correction(p, ta, tb)
        if d is None:
            return None
        p = (p[0] - d[0], p[1] - d[1])
        sizes, steps = (abs(p[0]), abs(p[1])), (abs(d[0]), abs(d[1]))
        floor = max(sizes) * quarter
        if all(s <= eps * max(c, floor) for s, c in zip(steps, sizes)):
            return p
        size = max(steps)
        if last is not None and size > last:
            return None           # diverging: the step was too long
        last = size
    return None


def _newton(polys, ring, p, target):
    """Newton on (f_x - t*a, f_y - t*b) from p in ``ring``: each iteration
    evaluates f_x, f_y and the Hessian from one table of powers."""
    lift = ring[1]

    def correction(p, ta, tb):
        gx, gy, *hessian = substitute(polys, p, lift)
        return _hessian_solve(*hessian, gx - ta, gy - tb)

    return _iterate(ring, p, target, correction)


def _correct(polys, ring, p, inverse, target):
    """Newton on (f_x - t*a, f_y - t*b) from p in ``ring`` with the fixed
    inverse Hessian ``inverse`` of ``_float_inverse``: each iteration
    evaluates only f_x and f_y, and gains about 50 bits, the accuracy of the
    inverse (iterative refinement)."""
    lift = ring[1]
    i11, i12, i22 = (mpmath.mpmathify(c) for c in inverse)

    def correction(p, ta, tb):
        gx, gy = substitute(polys[:2], p, lift)
        u, v = gx - ta, gy - tb
        return (i11 * u + i12 * v, i12 * u + i22 * v)

    return _iterate(ring, p, target, correction)


def _refine(system, p, t_next, target):
    """p refined by Newton in floats (``_floats``); None when that fails or
    leaves the float range."""
    polys, _, double = system
    if double is None or t_next < sys.float_info.min:
        return None
    try:
        q = _newton(polys, double, _floats(p), target)
    except OverflowError:     # t*(a, b) or abs() beyond the float range
        return None
    return q and (mpmath.mpmathify(q[0]), mpmath.mpmathify(q[1]))


def _carry(system, ell, p, t, t_next, gap, depth=0):
    """The point at t_next on the path through p at t, or None.

    The float stage: the Euler predictor p + (t_next - t) H^-1 (a, b),
    with H^-1 inverted in floats, then ``_refine``, then ``_correct`` at the
    working precision with the float inverse of the Hessian at the refined
    point.  When the
    float stage does not run or any of these fails (``_correct`` also when
    it cannot reach 2^(-prec/2) within NEWTON_STEPS), the step is Newton at
    the working precision: the predictor with the Hessian at that precision,
    ``_refine``, then ``_newton`` from the refined point, or from the
    predictor's guess when that fails.  The step is accepted when the
    corrector converges within a quarter of ``gap``, the distance from p to
    its nearest neighbour, of the guess (both distances from ``_dist``);
    otherwise it is halved, at most MAX_HALVINGS deep."""
    polys, mp, double = system
    convert, lift, _, _ = mp
    dt = convert(t_next - t)
    target = (t_next * ell.a, t_next * ell.b)
    tangent = _float_inverse(system, p)
    if tangent:
        i11, i12, i22 = tangent
        a, b = double[1](ell.a), double[1](ell.b)
        guess = (p[0] + dt * (i11 * a + i12 * b), p[1] + dt * (i12 * a + i22 * b))
        refined = _refine(system, guess, t_next, target)
        inverse = refined and _float_inverse(system, refined)
        if inverse:
            q = _correct(polys, mp, refined, inverse, target)
            if q is not None and _dist(q, guess) < gap / 4:
                return q
    v = _hessian_solve(*substitute(polys[2:], p, lift), lift(ell.a),
                       lift(ell.b))
    if v is not None:
        guess = (p[0] + dt * v[0], p[1] + dt * v[1])
        refined = _refine(system, guess, t_next, target)
        for start in (refined, guess) if refined else (guess,):
            q = _newton(polys, mp, start, target)
            if q is not None and _dist(q, guess) < gap / 4:
                return q
    if depth == MAX_HALVINGS:
        return None
    mid = (t + t_next) / 2
    m = _carry(system, ell, p, t, mid, gap, depth + 1)
    return m and _carry(system, ell, m, mid, t_next, gap, depth + 1)


def _gaps(points):
    """Each point's distance to its nearest neighbour, or None when two
    points agree to a quarter of the working precision: two paths merged.
    Each pair's distance is computed once and given to both ends."""
    gaps = [mpmath.inf] * len(points)
    images = [_floats(p) for p in points]
    for i, j in itertools.combinations(range(len(points)), 2):
        d = _dist(points[i], points[j], (images[i], images[j]))
        gaps[i], gaps[j] = min(gaps[i], d), min(gaps[j], d)
    for p, gap in zip(points, gaps):
        if gap <= mpmath.ldexp(max(abs(p[0]), abs(p[1])), -(mpmath.mp.prec // 4)):
            return None
    return gaps


def _track(f, ell, fine, precision):
    """Solve once at fine[0] and carry every critical point through the
    later values of ``fine``: one list of points per trajectory, in the
    order of ``critical_points``, or None when some step fails or two
    paths merge."""
    fx, fy = f.diff(0), f.diff(1)
    polys = (fx, fy, fx.diff(0), fx.diff(1), fy.diff(1))
    trajectories = [[p] for p in critical_points(f, ell, fine[0], precision).points]
    # f_x, f_y and the Hessian entries, with their coefficients and ell's
    # (a, b) converted once per ring: the working precision, and floats
    values = (QQ.zero(), QQ.one(), ell.a, ell.b,
              *(c for p in polys for c in p.terms.values()))
    try:
        double = _ring(values, float, 53)
    except OverflowError:     # a coefficient beyond the float range
        double = None
    with mpmath.workprec(precision):
        system = (polys, _ring(values, _to_mpf, precision), double)
        for t, t_next in zip(fine, fine[1:]):
            gaps = _gaps([tr[-1] for tr in trajectories])
            if gaps is None:
                return None
            for tr, gap in zip(trajectories, gaps):
                q = _carry(system, ell, tr[-1], t, t_next, gap)
                if q is None:
                    return None
                tr.append(q)
        if _gaps([tr[-1] for tr in trajectories]) is None:
            return None
    return trajectories


def _refine_schedule(schedule):
    """Insert halving steps: the values of t at which every trajectory is
    recorded."""
    out = []
    for t, t_next in zip(schedule, schedule[1:]):
        s = t
        while s > t_next:
            out.append(s)
            s = s / 2
            if s <= t_next:
                break
    out.append(schedule[-1])
    return out


def classify_trajectories(f, ell, schedule, report, precision=256):
    """Track critical points along the schedule and diff against the report."""
    schedule = [rat(t) for t in schedule]
    if len(schedule) < 3 or any(schedule[i] <= schedule[i + 1]
                                for i in range(len(schedule) - 1)):
        raise ValueError("need a strictly decreasing schedule of length >= 3")
    if any(t <= 0 for t in schedule):
        raise ValueError("the schedule values must be positive")
    fine = _refine_schedule(schedule)
    trajectories = _track(f, ell, fine, precision)
    if trajectories is None:
        return OracleVerdict(tuple(schedule), {}, False,
                             ["trajectory tracking failed"])

    individuals = report.individuals
    t_min = fine[-1]
    r_affine = 10 * mpmath.sqrt(_to_mpf(t_min))
    ang_tol = 1e-3
    observed = {i: 0 for i in range(len(individuals))}
    mismatches = []

    for tr in trajectories:
        label = _classify_one(f, fine, tr, individuals, r_affine, ang_tol)
        if label is None:
            mismatches.append("unclassified trajectory ending at %s"
                              % (mpmath.nstr(tr[-1][0], 8),))
            continue
        observed[label] += 1

    for i, ind in enumerate(individuals):
        if observed[i] != ind.parent.index:
            mismatches.append(
                "attractor %d (%s): observed %d, symbolic %d"
                % (i, ind.parent.kind, observed[i], ind.parent.index))
    matched = not mismatches
    return OracleVerdict(tuple(schedule), observed, matched, mismatches)


def _classify_one(f, schedule, tr, individuals, r_affine, ang_tol):
    end = tr[-1]
    norms = [max(abs(p[0]), abs(p[1])) for p in tr]
    escaping = norms[-1] > max(10, 2 * norms[0]) or norms[-1] > 1 / r_affine

    if not escaping:
        best, bestd = None, None
        for i, ind in enumerate(individuals):
            if ind.parent.kind != "affine":
                continue
            d = max(abs(end[0] - ind.location[0]), abs(end[1] - ind.location[1]))
            if bestd is None or d < bestd:
                best, bestd = i, d
        if best is not None and bestd < r_affine:
            return best
        return None

    # escaping: direction on the line at infinity, as u = x / y (or y = 0)
    vals = [substitute(f, p, _to_mpf) for p in tr]
    fvals = [abs(v) for v in vals]
    if abs(end[1]) < ang_tol * abs(end[0]):
        direction = None          # the point [1 : 0 : 0]
    else:
        direction = end[0] / end[1]
    # f-limit: fit log|f| against log(1/t)
    xs = [mpmath.log(1 / _to_mpf(t)) for t in schedule]
    ys = [mpmath.log(v) if v > 0 else mpmath.mpf(-999) for v in fvals]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    f_infinite = slope > 0.2
    if not f_infinite:
        # Richardson-style extrapolation of the (complex) f values
        f_lim = vals[-1] + (vals[-1] - vals[-2])
    best, bestd = None, None
    for i, ind in enumerate(individuals):
        if ind.parent.kind != "infinity":
            continue
        if ind.parent.point.chart == "x":             # [1 : 0 : 0]
            if direction is not None and abs(direction) < 1 / ang_tol:
                continue
            dd = 0
        elif direction is None:
            continue
        else:
            dd = abs(direction - ind.location[0])
            if dd > max(ang_tol * 100, ang_tol * (1 + abs(direction))) and dd > 0.05:
                continue
        if f_infinite != (ind.alpha is INFINITE):
            continue
        if not f_infinite:
            dd += abs(f_lim - ind.alpha)
        if bestd is None or dd < bestd:
            best, bestd = i, dd
    return best
