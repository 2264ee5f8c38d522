"""Serialization of Morse reports: canonical JSON and readable text.

Each individual attractor of the report is one entry, in the report's
order of individuals (``morse.build_report``).  The exact data of
an orbit (the minimal polynomials over Q of its coordinates and limit
value) is computed once and shared by its conjugates; their numeric
values are the ones the individuals carry, from the field embeddings.
Algebraic numbers serialize as an exact minimal polynomial over Q plus a
floating approximation and a deterministic root index (the position among
the distinct conjugates sorted by (re, im)); rationals serialize as exact
"p/q" strings.  JSON output is canonical (sorted keys, fixed float
formatting), so identical runs are byte-identical.
"""

from __future__ import annotations

import json

from .fields import QQ, conj_key
from .poly import minpoly_over, poly_str


def _f(x):
    """Deterministic float rendering."""
    v = float(x)
    if v == 0:
        v = 0.0  # normalize -0.0
    return v


def _minpoly_str(mp):
    return poly_str(mp, ("T",))


def _conjugates_json(field, value, conjugates):
    """JSON encoder of the conjugates of ``value``, an element of ``field``.

    ``conjugates`` are the approximations that the orbit's individuals
    carry, with repeats.  The minimal polynomial over Q is computed here
    once.  The root index of a conjugate is its position among the
    distinct conjugates in (re, im) order, certified by their number being
    the degree of the minimal polynomial.  The returned function maps one
    conjugate to its JSON entry.  A value lifted from a field lower in the
    tower, such as the coordinates 1 and 0 of [u : 1 : 0], is read there."""
    while field is not QQ and all(map(field.base.is_zero, value[1:])):
        field, value = field.base, value[0]
    mp = minpoly_over(field, value, QQ) if field is not QQ else None
    if mp is None or mp.degree_in(0) == 1:
        text = str(value if mp is None else -mp.constant_term())
        return lambda approx: {"rational": text}
    text = _minpoly_str(mp)
    keys = sorted({conj_key(z) for z in conjugates})
    if len(keys) != mp.degree_in(0):
        raise ArithmeticError("%d distinct conjugates of a root of %s"
                              % (len(keys), text))
    return lambda approx: {"min_poly": text,
                           "approx": [_f(approx.real), _f(approx.imag)],
                           "root_index": keys.index(conj_key(approx))}


def _branch_json(c):
    return {"ord_f": c.ord_f, "ord_ell": c.ord_ell,
            "mult_fbar": c.mult_fbar, "mult_hinf": c.mult_hinf,
            "contribution": c.contribution,
            "conj_multiplicity": c.conj_multiplicity}


def _orbit_docs(a, individuals):
    """JSON entries of the individual attractors of one orbit ``a``: one
    encoder per coordinate of the point, fed the individuals' locations."""
    p = a.point
    coords = [_conjugates_json(p.field, c, [ind.location[i]
                                            for ind in individuals])
              for i, c in enumerate(p.coords)]
    if a.alpha_kind == "finite":
        alphas = _conjugates_json(a.alpha_field, a.alpha_value,
                                  [ind.alpha for ind in individuals])
    out = []
    for ind in individuals:
        location = {"type": a.kind, "chart": a.chart,
                    "point": [enc(z) for enc, z in zip(coords, ind.location)]}
        if a.alpha_kind == "finite":
            alpha = {"type": "finite", "value": alphas(ind.alpha)}
        else:
            alpha = {"type": "infinite"}
        out.append({"location": location, "alpha": alpha, "index": a.index,
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
            "t_schedule": [str(t) for t in v.t_schedule],
            "mismatches": list(v.mismatches),
        }
    return doc


def to_json(report, variables=("x", "y")):
    return doc_to_json(report_to_doc(report, variables))


def from_json(text):
    """Inverse of to_json up to document identity."""
    return json.loads(text)


def doc_to_json(doc):
    """The canonical JSON text of a document."""
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
