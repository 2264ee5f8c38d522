"""Serialization of Morse reports: canonical JSON and readable text.

Each individual attractor of the report is one entry.  The exact data of
an orbit (minimal polynomials over Q and their sorted roots) is computed
once and shared by its conjugates.  Algebraic numbers serialize as an
exact minimal polynomial over Q plus a floating approximation and a
deterministic root index (roots of the minimal polynomial sorted
lexicographically by (re, im)); rationals serialize as exact "p/q"
strings.  JSON output is canonical (sorted keys, fixed float
formatting), so identical runs are byte-identical.
"""

from __future__ import annotations

import json

import mpmath

from .fields import RationalField, _poly_roots
from .poly import minpoly_over, poly_str

QQ = RationalField()


def _f(x):
    """Deterministic float rendering."""
    v = float(x)
    if v == 0:
        v = 0.0  # normalize -0.0
    return v


def _rat_str(q):
    return str(q)


def _minpoly_str(mp):
    return poly_str(mp, ("T",))


def _conjugates_json(mp, value):
    """JSON encoder of the conjugates of one algebraic number.

    ``mp`` is its minimal polynomial over Q, or None when ``value`` is
    rational.  The minimal polynomial and its sorted roots are computed
    here once; the returned function maps the approximation of one
    conjugate to its JSON entry, whose root index is that of the nearest
    root."""
    if mp is not None and mp.degree_in(0) == 1:
        value = QQ.neg(QQ.div(mp.constant_term(), mp.terms[(1,)]))
        mp = None
    if mp is None:
        text = _rat_str(value)
        return lambda approx: {"rational": text}
    text = _minpoly_str(mp)
    with mpmath.workdps(40):
        roots = _poly_roots([mpmath.mpf(c.numerator) / c.denominator
                             for c in mp.coeffs_in(0)])

    def encode(approx):
        with mpmath.workdps(40):
            k = min(range(len(roots)), key=lambda k: abs(roots[k] - approx))
        return {"min_poly": text,
                "approx": [_f(approx.real), _f(approx.imag)],
                "root_index": k}
    return encode


def _coordinate_json(field, value):
    """Encoder of the conjugates of one coordinate of an orbit's point."""
    mp = minpoly_over(field, value, QQ) if field is not QQ else None
    return _conjugates_json(mp, value)


def _branch_json(c):
    return {"ord_f": c.ord_f, "ord_ell": c.ord_ell,
            "mult_fbar": c.mult_fbar, "mult_hinf": c.mult_hinf,
            "contribution": c.contribution,
            "conj_multiplicity": c.conj_multiplicity}


def _orbit_docs(a, individuals):
    """JSON entries of the individual attractors of one orbit ``a``."""
    p = a.point
    if a.kind == "affine":
        xs, ys = _coordinate_json(p.field, p.x), _coordinate_json(p.field, p.y)
    elif p.u is not None:
        us = _coordinate_json(p.field, p.u)
    if a.alpha_kind == "finite":
        alphas = _conjugates_json(a.alpha_minpoly, a.alpha_value)
    out = []
    for ind in individuals:
        if a.kind == "affine":
            location = {"type": "affine", "chart": None,
                        "point": [xs(ind.location[0]), ys(ind.location[1])]}
        elif p.u is None:
            location = {"type": "infinity", "chart": a.chart,
                        "point": [{"rational": "1"}, {"rational": "0"},
                                  {"rational": "0"}]}
        else:
            location = {"type": "infinity", "chart": a.chart,
                        "point": [us(ind.location[0]), {"rational": "1"},
                                  {"rational": "0"}]}
        if a.alpha_kind == "finite":
            alpha = {"type": "finite", "value": alphas(ind.alpha)}
        else:
            alpha = {"type": "infinite"}
        out.append({"location": location, "alpha": alpha, "index": ind.index,
                    "branches": [_branch_json(c) for c in a.contributions]})
    return out


def report_to_doc(report, variables=("x", "y")):
    """MorseReport -> plain JSON-ready dictionary."""
    gen = report.genericity
    doc = {
        "input": {
            "f": poly_str(report.f, variables),
            "ell": "(%s)*%s + (%s)*%s" % (report.ell.a, variables[0],
                                          report.ell.b, variables[1]),
            "degree": report.degree,
        },
        "genericity": {
            "polar_squarefree": gen.polar_squarefree,
            "ell_avoids_infinity_points": gen.ell_avoids_infinity_points,
            "no_degenerate_compositions": gen.no_degenerate_compositions,
            "redraws": gen.redraws,
            "seed": gen.seed,
        },
        "attractors": [
            entry for a in report.attractors for entry in _orbit_docs(
                a, [ind for ind in report.individuals if ind.parent is a])
        ],
        "morse_number": report.morse_number,
        "verification": None,
    }
    if report.verification is not None:
        v = report.verification
        doc["verification"] = {
            "matched": v.matched,
            "clusters": {str(k): n for k, n in sorted(v.observed.items())},
            "t_schedule": [_rat_str(t) for t in v.t_schedule],
            "mismatches": list(v.mismatches),
        }
    return doc


def to_json(report, variables=("x", "y")):
    return json.dumps(report_to_doc(report, variables), sort_keys=True,
                      indent=2, ensure_ascii=True)


def from_json(text):
    """Inverse of to_json up to document identity."""
    return json.loads(text)


def doc_to_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)


def _coord_text(entry):
    if "rational" in entry:
        return entry["rational"]
    return "root #%d of %s (~%.6g%+.6gi)" % (
        entry["root_index"], entry["min_poly"],
        entry["approx"][0], entry["approx"][1])


def to_text(report, variables=("x", "y")):
    doc = report_to_doc(report, variables)
    lines = []
    lines.append("f      = %s" % doc["input"]["f"])
    lines.append("ell    = %s" % doc["input"]["ell"])
    lines.append("degree = %d" % doc["input"]["degree"])
    g = doc["genericity"]
    lines.append("genericity: squarefree=%s avoids-infinity=%s "
                 "non-degenerate=%s redraws=%s seed=%s"
                 % (g["polar_squarefree"], g["ell_avoids_infinity_points"],
                    g["no_degenerate_compositions"], g["redraws"], g["seed"]))
    lines.append("")
    lines.append("attractors:")
    for a in doc["attractors"]:
        loc = a["location"]
        if loc["type"] == "affine":
            where = "(%s, %s)" % tuple(_coord_text(p) for p in loc["point"])
        else:
            where = "[%s : %s : %s]" % tuple(_coord_text(p) for p in loc["point"])
        al = "infinity" if a["alpha"]["type"] == "infinite" \
            else _coord_text(a["alpha"]["value"])
        lines.append("  %-8s %-40s alpha=%-20s index=%d"
                     % (loc["type"], where, al, a["index"]))
        for b in a["branches"]:
            lines.append("      branch: ord_f=%s ord_ell=%s mult_fbar=%s "
                         "mult_hinf=%s contribution=%s conj=%s"
                         % (b["ord_f"], b["ord_ell"], b["mult_fbar"],
                            b["mult_hinf"], b["contribution"],
                            b["conj_multiplicity"]))
    lines.append("")
    lines.append("morse_number = %d" % doc["morse_number"])
    if doc["verification"] is not None:
        v = doc["verification"]
        lines.append("verification: matched=%s schedule=%s"
                     % (v["matched"], ",".join(v["t_schedule"])))
        for m in v["mismatches"]:
            lines.append("  mismatch: %s" % m)
    return "\n".join(lines) + "\n"
