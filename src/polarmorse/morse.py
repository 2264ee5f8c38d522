"""Attractors of Morse points of the deformation f - t*ell, with indices.

As t -> 0 each Morse critical point of f_t travels along a branch of the
polar curve and either converges to a singular point of f (an affine
attractor) or escapes to a point P on the line at infinity with f
converging to a limit alpha in C or to infinity (an attractor (P, alpha)
at infinity).  The number of Morse points absorbed by an attractor is
read off order data of f and ell expanded along the polar branches:

  affine:    index  = sum over branches of  ord(f - f(p)) - ord(ell - ell(p))
  infinity:  index  = sum over branches of  max(0, m_fbar - (d-1) * m_Hinf)

where along each branch of the projective polar closure m_fbar is the
contact order with the closure of the fiber {f = alpha} and m_Hinf the
contact order with the line at infinity, d = deg f.  The two routes are
linked by  m_fbar - (d-1)*m_Hinf = ord(f|branch - alpha) - ord(ell|branch),
which is computed independently on every branch and asserted.  The
affine term is its right side with alpha = f(p) and ell - ell(p), so one
routine serves every point, in a chart named by the coordinate it divides
out (z for the affine plane): it expands the germ of the polar curve at
the point's center in the chart, and composes f and ell there.  An orbit
record expands into one individual attractor per embedding of its point's
field and conjugate of alpha; the location of an individual is the point's
``coords`` under that embedding: (x, y), [u : 1 : 0] or [1 : 0 : 0].
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .fields import DEFAULT_TOWER_CAP, EMBED_DPS, coerce, conj_key, on_grid
from .poly import Poly, common_zeros, minpoly_over
from .polar import (GenericityError, LinearForm, PointClass, check_genericity,
                    draw_generic_ell, polar_equation, singular_locus)
from .puiseux import (DegenerateComposition, INFINITE, expand_branches,
                      poly_at_series, series_order_after_limit)
from .series import LaurentSeries, SeriesPrecisionLoss


@dataclass(frozen=True)
class BranchContribution:
    branch: object
    ord_f: int
    ord_ell: int
    mult_fbar: object          # int at infinity, None for affine attractors
    mult_hinf: object
    contribution: int
    conj_multiplicity: int


@dataclass(frozen=True)
class Attractor:
    """One Galois orbit of attractors sharing an index.

    ``index`` is the per-point index; the orbit contains ``n_points``
    individual attractors (conjugate locations x conjugate alpha values),
    each absorbing ``index`` Morse points.
    """

    point: object              # PointClass
    chart: object              # the chart of the expansion, None if affine
    alpha_kind: str            # "finite" | "infinite"
    alpha_field: object
    alpha_value: object        # representative value when finite
    index: int
    n_points: int
    contributions: tuple

    @property
    def kind(self):
        return "affine" if self.chart is None else "infinity"

    def total(self):
        return self.index * self.n_points


@dataclass
class MorseReport:
    f: Poly
    ell: LinearForm
    degree: int
    genericity: object
    attractors: list
    individuals: list          # IndividualAttractor, in report order
    morse_number: int
    verification: object = None


def safety_bound(f, polar):
    d = max(f.total_degree(), polar.equation.total_degree(), 1)
    return d * (2 * d - 1) + d + 1


def affine_candidates(f, ell, polar):
    """The affine points that can absorb Morse points, as (PointClass, m)
    pairs: one per orbit of the common zeros of the polar curve Γ and
    h = f_x, or f_y when ell = b*y, with m their intersection number.

    On Γ, a*f_y = b*f_x, so along a branch γ, d(f∘γ) = (f_x/a)·d(ell∘γ)
    and ord(f - f(p)) - ord(ell - ell(p)) = ord(h∘γ): summed over the
    branches at p, the index is m = (Γ·{h = 0})_p, the Milnor number at an
    isolated point of Sing f (Teissier 1973).  Γ and h share no curve:
    a factor of Γ that divides h divides both partials, and
    ``polar_equation`` drops it.  So Γ ∩ {h = 0}, which is Γ ∩ Sing f,
    is finite, and every Morse-point trajectory with an affine limit ends
    there."""
    h = f.diff(0) if ell.a != 0 else f.diff(1)
    return [(PointClass.affine(g, xr, yr), m) for g, xr, yr, m
            in common_zeros(polar.equation, h, DEFAULT_TOWER_CAP)[1]]


def _expand_retry(germ, compute, bound):
    """Run ``compute`` on branch expansions, doubling the truncation on
    precision loss up to the safety bound.

    Orders are certified at every truncation (a loss raises
    SeriesPrecisionLoss), so starting low costs only the doublings that a
    germ really needs."""
    target = 4
    while True:
        branches = expand_branches(germ, target_order=target)
        try:
            return compute(branches)
        except SeriesPrecisionLoss:
            if target > 2 * bound:
                raise DegenerateComposition(
                    "a composition vanished beyond the safety bound %d" % bound)
            target *= 2


def _chart_polys(f, ell, polar, chart):
    """The polar equation, f and ell in a chart, named by the coordinate
    it divides out.

    Chart None is the affine plane, where they are themselves.  Chart "y"
    has coordinates (u, z) with [x : y : 1] = [u/z : 1/z : 1]; chart "x"
    has (v, z) with [1/z : v/z : 1].  There they are the polar closure,
    fbar and ellbar, with f = fbar / z^d and ell = ellbar / z, d = deg f.
    """
    polys = (polar.equation, f, ell.poly())
    if chart is None:
        return polys
    return tuple(p.homogenize().dehomogenize("xy".index(chart)) for p in polys)


def chart_center(point, chart):
    """The point in a chart: its homogeneous coordinates, [x : y : 1] for
    an affine point, with the chart's coordinate (z for chart None)
    divided out of the others; None where that coordinate is zero."""
    K = point.field
    coords = point.coords + (K.one(),) * (3 - len(point.coords))
    i = 2 if chart is None else "xy".index(chart)
    if K.is_zero(coords[i]):
        return None
    if K.eq(coords[i], K.one()):
        return coords[:i] + coords[i + 1:]
    s = K.inv(coords[i])
    return tuple(K.mul(c, s) for j, c in enumerate(coords) if j != i)


def _records(f, ell, polar, point, chart):
    """Attractor records at a point, one per orbit over its field K of the
    limit values alpha, from the polar branches through its center in
    ``chart``; f and ell are composed at center + branch, and divided by
    z^d and z at infinity.  An alpha in K is stored in K."""
    center = chart_center(point, chart)
    if center is None:
        raise ValueError("point is not visible in chart %s" % chart)
    K = point.field
    G, F, E = _chart_polys(f, ell, polar, chart)
    germ = G.to_field(K).translate(center)
    if not K.is_zero(germ.constant_term()):
        raise ValueError("point is not on the closure of the polar curve")
    d = f.total_degree()

    def compute(branches):
        data = []
        for br in branches:
            bf = br.field
            arc = tuple(s + LaurentSeries.const(bf, coerce(bf, K, c), s.trunc)
                        for c, s in zip(center, (br.x_series, br.y_series)))
            fbar = poly_at_series(F.to_field(bf), arc)
            if chart is None:
                mh, zinv, fser = None, None, fbar
            else:
                mh, zinv = arc[1].order(), arc[1].inverse()
                fser = fbar * zinv ** d
            alpha, of = series_order_after_limit(fser)
            ellser = poly_at_series(E.to_field(bf), arc)
            _ell_p, oe = series_order_after_limit(
                ellser if zinv is None else ellser * zinv)
            c = of - oe
            if chart is None:
                mfb = None
                if c < 0:
                    raise ArithmeticError(
                        "affine branch with ord f < ord ell at %s" % point.coords_str())
            else:
                mfb = (fbar if alpha is INFINITE
                       else fbar - (arc[1] ** d).scale(alpha)).order()
                if mfb - (d - 1) * mh != c:
                    raise AssertionError(
                        "chart-consistency failure at %s: %d - %d*%d != %d - %d"
                        % (point.coords_str(), mfb, d - 1, mh, of, oe))
            data.append((alpha, BranchContribution(br, of, oe, mfb, mh, max(0, c),
                                                   br.conj_multiplicity)))
        return data

    groups = {}
    for alpha, c in _expand_retry(germ, compute, safety_bound(f, polar)):
        mp = None if alpha is INFINITE else minpoly_over(c.branch.field, alpha, K)
        groups.setdefault(mp, []).append((alpha, c))
    out = []
    for mp, members in groups.items():
        # each point of the orbit carries e conjugate values of alpha
        a0, c0 = members[0]
        if mp is None:
            e, alpha = 1, ("infinite", None, None)
        elif mp.degree_in(0) == 1:
            e, alpha = 1, ("finite", K, K.neg(mp.constant_term()))
        else:
            e, alpha = mp.degree_in(0), ("finite", c0.branch.field, a0)
        contribs = tuple(c for _a, c in members)
        if any(c.conj_multiplicity % e for c in contribs):
            raise AssertionError("branch orbit not divisible by alpha orbit")
        index = sum(c.contribution * (c.conj_multiplicity // e) for c in contribs)
        out.append(Attractor(point, chart, *alpha, index, K.total_degree * e,
                             contribs))
    return out


def affine_index(f, ell, polar, point):
    """The attractor record at an affine candidate point."""
    (record,) = _records(f, ell, polar, point, None)
    return record


def infinity_index(f, ell, polar, point, chart=None):
    """Attractor records (one per limit value alpha) at a point at
    infinity, seen in ``chart``, by default the point's own."""
    return _records(f, ell, polar, point, chart or point.chart)


def total_morse_number(attractors):
    return sum(a.total() for a in attractors)


def compute_attractors(f, ell, polar):
    """All attractor records for an accepted (f, ell).  The index of each
    affine record, from the polar branches, must be the intersection
    number m of its candidate, and positive."""
    out = []
    for p, m in affine_candidates(f, ell, polar):
        record = affine_index(f, ell, polar, p)
        if m < 1 or record.index != m:
            raise AssertionError(
                "index %d at %s is not the intersection number %d"
                % (record.index, p.coords_str(), m))
        out.append(record)
    for ip in polar.infinity_points:
        out.extend(infinity_index(f, ell, polar, ip))
    return out


@dataclass(frozen=True)
class IndividualAttractor:
    """One concrete attractor: a numeric location with its limit value.

    Conjugate orbits in an Attractor record expand into one of these per
    embedding; exact data stays on the parent record."""

    parent: Attractor
    location: tuple            # the point's ``coords`` under one embedding, mpc
    alpha: object              # mpc value or INFINITE


def _individual_key(ind):
    """Order of individual attractors: affine points (x, y) by x, then y;
    then points [u : 1 : 0] by u; then [1 : 0 : 0], the one location with
    y = 0.  At one location a finite alpha comes before an infinite one.
    Every number compares by ``conj_key``."""
    loc = tuple(conj_key(z) for z in ind.location)
    x_point = len(loc) == 3 and loc[1] == (0, 0)
    return ((len(loc), x_point) + loc
            + ((1,) if ind.alpha is INFINITE else (0, conj_key(ind.alpha))))


def _orbit_individuals(a):
    """The individual attractors of one orbit record, in ``_individual_key``
    order.  There is one location per embedding of the point field K, its
    coordinates under that embedding; a finite alpha contributes, at each
    embedding, its distinct values under the embeddings of its own field
    that extend it (its conjugates over K).  Every number is evaluated at
    the digits of the embeddings before it is rounded to the ``conj_key``
    grid: at fewer, a residue with large coefficients can miss the grid,
    and the grid value would depend on the field's presentation."""
    K, F = a.point.field, a.alpha_field
    out = []
    with mpmath.workdps(EMBED_DPS):
        for emb in K.embeddings():
            loc = tuple(on_grid(K.to_mpc(c, emb)) for c in a.point.coords)
            if a.alpha_kind == "infinite":
                alphas = [INFINITE]
            else:
                # on the grid, numbers with one key are one number
                alphas = sorted({on_grid(F.to_mpc(a.alpha_value, E))
                                 for E in F.embeddings()
                                 if E[:len(emb)] == emb}, key=conj_key)
            out.extend(IndividualAttractor(a, loc, al)
                       for al in alphas)
        if len(out) != a.n_points:
            raise AssertionError("orbit of %d points expanded to %d individuals"
                                 % (a.n_points, len(out)))
        return sorted(out, key=_individual_key)


def build_report(f, ell, genericity, attractors, verdict=None):
    """Assemble the report, with the orbits ordered by their first
    individual (``_individual_key``)."""
    orbits = sorted((_orbit_individuals(a) for a in attractors),
                    key=lambda inds: _individual_key(inds[0]))
    attractors = [inds[0].parent for inds in orbits]
    return MorseReport(f, ell, f.total_degree(), genericity, attractors,
                       [ind for inds in orbits for ind in inds],
                       total_morse_number(attractors), verdict)


def analyze_symbolic(f, ell=None, seed=0, max_redraws=16):
    """Full symbolic pipeline: choose/accept ell, certify genericity,
    expand all attractors, and assemble the report.

    The candidates are the given ``ell`` alone, or else the seeded draws
    of ``draw_generic_ell``.  A candidate that fails the genericity
    checks, or whose compositions degenerate, gives way to the next one;
    ``redraws`` of the accepted report is the index of its draw."""
    if f.is_constant():
        raise ValueError("a constant polynomial has no Morse points")
    components = singular_locus(f)
    explicit = ell is not None
    if explicit:
        candidates, seed = [(0, ell)], None
    else:
        candidates = draw_generic_ell(seed, max_redraws)
    report = None
    for i, cand in candidates:
        polar = polar_equation(f, cand, components)
        report = check_genericity(cand, components, polar)
        report.redraws = i
        report.seed = seed
        if not report.accepted():
            continue
        try:
            attractors = compute_attractors(f, cand, polar)
        except DegenerateComposition:
            report.no_degenerate_compositions = False
            continue
        return build_report(f, cand, report, attractors)
    degenerate = report is not None and not report.no_degenerate_compositions
    if explicit:
        msg = ("compositions degenerate for the given linear form" if degenerate
               else "the given linear form fails the genericity checks")
    elif degenerate:
        msg = "no generic linear form accepted"
    else:
        msg = "no generic linear form found in %d draws (seed %s)" % (
            max_redraws, seed)
    raise GenericityError(msg, report)
