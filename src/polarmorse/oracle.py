"""Numeric verification of the symbolic attractor report.

Solves the critical-point system grad f = t * (a, b) exactly at rational
values of t by resultant elimination plus multiprecision root finding,
tracks the solutions as t decreases, classifies every trajectory as
converging to an affine attractor or escaping to a direction at infinity
(with its f-limit), and diffs the cluster sizes against the symbolic
indices.  Nothing here reuses series expansions: the oracle is an
independent route to the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .fields import RationalField, rat
from .poly import Poly, resultant, squarefree_part, substitute
from .puiseux import INFINITE

QQ = RationalField()

DEFAULT_SCHEDULE = (rat(1, 100), rat(1, 1000), rat(1, 10000), rat(1, 100000))
MAX_PRECISION = 4096


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


def _poly_to_mp(p):
    """Univariate rational Poly -> high-to-low mpf coefficient list."""
    cs = p.coeffs_in(0)
    return [_to_mpf(c) for c in reversed(cs)]


def _eval_numeric(p, x, y):
    """Evaluate a bivariate rational Poly at complex arguments."""
    return substitute(p, (x, y), _to_mpf)


def critical_points(f, ell, t, precision=256):
    """All complex solutions of {f_x = t*a, f_y = t*b}."""
    if t == 0:
        raise ValueError("the deformation parameter must be nonzero")
    if precision < 1:
        raise ValueError("the precision must be at least 1 bit")
    if f.is_constant():
        raise ValueError("a constant polynomial has no critical points")
    g1 = f.diff(0) - Poly.const(QQ, 2, rat(t) * rat(ell.a))
    g2 = f.diff(1) - Poly.const(QQ, 2, rat(t) * rat(ell.b))

    # eliminate the variable giving the smaller resultant degree (tie: y)
    r_elim_y = resultant(g1, g2, 1) if g1.degree_in(1) or g2.degree_in(1) else None
    r_elim_x = resultant(g1, g2, 0) if g1.degree_in(0) or g2.degree_in(0) else None
    cands = []
    if r_elim_y is not None and not r_elim_y.is_zero():
        cands.append(("y", r_elim_y))
    if r_elim_x is not None and not r_elim_x.is_zero():
        cands.append(("x", r_elim_x))
    if not cands:
        raise ValueError("degenerate critical system")
    cands.sort(key=lambda kv: (kv[1].degree_in(0), kv[0] != "y"))
    which, elim = cands[0]
    if elim.is_constant():
        return CriticalSet(())
    elim = squarefree_part(elim)  # repeated eliminant roots stall the solver

    prec = precision
    while True:
        with mpmath.workprec(prec):
            tol = mpmath.mpf(10) ** (-(prec // 4))
            try:
                roots = mpmath.polyroots(_poly_to_mp(elim), maxsteps=200,
                                         extraprec=prec)
            except mpmath.libmp.NoConvergence:
                roots = None
            if roots is not None:
                pts = _back_substitute(f, g1, g2, which, roots, tol)
                if pts is not None:
                    return CriticalSet(tuple(pts))
        prec *= 2
        if prec > MAX_PRECISION:
            raise ArithmeticError("root finding failed at precision cap")


def _back_substitute(f, g1, g2, which, roots, tol):
    """Pair eliminant roots with the complementary coordinate; None when
    the root finder fails to converge."""
    pts = []
    # coefficients of g1, g2 in the unsolved variable, as polys in the solved one
    unsolved = 1 if which == "y" else 0
    coeffs = [g.coeffs_in(unsolved) for g in (g1, g2)]
    for r in roots:
        # substitute the solved coordinate, get univariate polys in the other
        uni = [[substitute(cp, (r,), _to_mpf) for cp in cs] for cs in coeffs]
        # use the lowest-degree substituted polynomial that still depends
        # on the unsolved variable (a vanishing one carries no constraint)
        trimmed = []
        for v in uni:
            v = list(v)
            while len(v) > 1 and abs(v[-1]) < tol:
                v.pop()
            if len(v) > 1:
                trimmed.append(v)
        if not trimmed:
            continue
        trimmed.sort(key=len)
        try:
            # badly scaled coefficients are common here; boost precision
            yroots = mpmath.polyroots(list(reversed(trimmed[0])), maxsteps=200,
                                      extraprec=mpmath.mp.prec)
        except mpmath.libmp.NoConvergence:
            return None
        for yr in yroots:
            x, y = (r, yr) if which == "y" else (yr, r)
            res = max(abs(_eval_numeric(g1, x, y)), abs(_eval_numeric(g2, x, y)))
            scale = max(1, abs(x), abs(y)) ** max(1, f.total_degree() - 1)
            if res > tol * scale * 1e6:
                continue
            pts.append((x, y))
    return pts


def _pair_dist(p, c):
    """Distance between consecutive positions of one moving critical point.

    Small points are compared absolutely; large (escaping) points by
    log-norm drift plus (heavily weighted) direction change, since an
    escaping point keeps its direction while its norm grows."""
    np_ = max(abs(p[0]), abs(p[1]))
    nc = max(abs(c[0]), abs(c[1]))
    if np_ < 1 and nc < 1:
        return float(abs(p[0] - c[0]) + abs(p[1] - c[1]))
    drift = abs(mpmath.log((nc + 1) / (np_ + 1)))
    up = (p[0] / np_, p[1] / np_) if np_ > 0 else (0, 0)
    uc = (c[0] / nc, c[1] / nc) if nc > 0 else (0, 0)
    ang = abs(up[0] - uc[0]) + abs(up[1] - uc[1])
    return float(drift + 5 * ang)


def _match_sets(prev, cur):
    """Globally-greedy nearest-neighbor matching of consecutive sets."""
    if len(prev) != len(cur):
        return None
    pairs = sorted((_pair_dist(p, c), i, j)
                   for i, p in enumerate(prev) for j, c in enumerate(cur))
    order = [None] * len(prev)
    used = set()
    for _d, i, j in pairs:
        if order[i] is None and j not in used:
            order[i] = j
            used.add(j)
    return order


def _refine_schedule(schedule):
    """Insert halving steps so consecutive solves stay close."""
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
    sets = None
    while True:
        fine = _refine_schedule(schedule)
        sets = [critical_points(f, ell, t, precision) for t in fine]
        counts = {len(s.points) for s in sets}
        if len(counts) == 1:
            break
        schedule = [t / 2 for t in schedule]  # collision: shrink the window

    trajectories = [[p] for p in sets[0].points]
    prev = list(sets[0].points)
    for s in sets[1:]:
        order = _match_sets(prev, list(s.points))
        if order is None:
            return OracleVerdict(tuple(schedule), {}, False,
                                 ["trajectory matching failed"])
        cur = [s.points[j] for j in order]
        for tr, p in zip(trajectories, cur):
            tr.append(p)
        prev = cur

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
        if observed[i] != ind.index:
            mismatches.append(
                "attractor %d (%s): observed %d, symbolic %d"
                % (i, ind.parent.kind, observed[i], ind.index))
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
    vals = [_eval_numeric(f, p[0], p[1]) for p in tr]
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
        if direction is None:
            if ind.location != ("x-point",):
                continue
            dd = 0
        else:
            if ind.location == ("x-point",):
                if abs(direction) < 1 / ang_tol:
                    continue
                dd = 0
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
