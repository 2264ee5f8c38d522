"""Command-line entry point.

Parses the input polynomial and linear form, runs the symbolic pipeline
(drawing a generic linear form when none is given), optionally verifies
the result with the numeric oracle, and prints the report as text or
canonical JSON.

Exit codes: 0 success; 2 parse error; 3 genericity exhausted;
4 oracle mismatch; 5 extension tower over the degree cap;
1 internal invariant violation.  Exit 2 covers every input error, found
before the analysis starts: an unparsable --f or --ell, a constant --f,
a --t-schedule without at least 3 positive, strictly decreasing values,
a --precision below 1 or above the oracle's cap of 4096 bits
(``oracle.MAX_PRECISION``) and a --max-redraws below 1.  Any other error
raised during the analysis ends in exit 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .fields import ExtensionTooLarge, rat
from .poly import PolyParseError, parse_poly
from .polar import GenericityError, LinearForm
from .morse import analyze_symbolic
from .oracle import DEFAULT_SCHEDULE, MAX_PRECISION, classify_trajectories
from .report import to_json, to_text

VARIABLES = ("x", "y")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_GENERICITY = 3
EXIT_MISMATCH = 4
EXIT_TOWER = 5


def _parse_ell(text):
    """A linear form given as a polynomial expression in x and y."""
    p = parse_poly(text, VARIABLES)
    if p.total_degree() > 1 or not p.field.is_zero(p.constant_term()):
        raise PolyParseError("the linear form must be a*x + b*y", 0)
    a = p.terms.get((1, 0), rat(0))
    b = p.terms.get((0, 1), rat(0))
    return LinearForm(rat(a), rat(b))


def _parse_schedule(text):
    """--t-schedule values, read exactly by ``Fraction``: 0.01, 1e-2, 1/100."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(Fraction(part))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % part) from None
    if len(out) < 3:
        raise ValueError("the schedule needs at least 3 values")
    if any(t <= 0 for t in out):
        raise ValueError("the schedule values must be positive")
    if any(t <= t_next for t, t_next in zip(out, out[1:])):
        raise ValueError("the schedule must be strictly decreasing")
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polarmorse",
        description="Attractors and indices of Morse points of f - t*ell "
                    "for a bivariate polynomial f.")
    ap.add_argument("--f", required=True, help="polynomial in x and y")
    ap.add_argument("--ell", default=None, help="linear form a*x + b*y "
                    "(drawn from --seed when omitted)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--verify", action="store_true",
                    help="run the numeric oracle and diff the counts")
    ap.add_argument("--t-schedule", default=None,
                    help='comma-separated t values, e.g. "1e-2,1e-3,1/10000"')
    ap.add_argument("--precision", type=int, default=256, help="bits")
    ap.add_argument("--max-redraws", type=int, default=16)
    return ap


def run(args):
    try:
        f = parse_poly(args.f, VARIABLES)
        ell = _parse_ell(args.ell) if args.ell is not None else None
        schedule = _parse_schedule(args.t_schedule) if args.t_schedule \
            else list(DEFAULT_SCHEDULE)
        if args.precision < 1:
            raise ValueError("the precision must be at least 1 bit")
        if args.precision > MAX_PRECISION:
            raise ValueError("the precision must be at most %d bits"
                             % MAX_PRECISION)
        if args.max_redraws < 1:
            raise ValueError("max_redraws must be at least 1")
        if f.is_constant():
            raise ValueError("a constant polynomial has no Morse points")
    except (PolyParseError, ValueError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE

    try:
        report = analyze_symbolic(f, ell=ell, seed=args.seed,
                                  max_redraws=args.max_redraws)
    except GenericityError as exc:
        print("genericity failure: %s" % exc, file=sys.stderr)
        return EXIT_GENERICITY
    except ExtensionTooLarge as exc:
        print("extension too large: %s" % exc, file=sys.stderr)
        return EXIT_TOWER
    except (ArithmeticError, AssertionError, ValueError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL

    try:
        if args.verify:
            report.verification = classify_trajectories(
                f, report.ell, schedule, report, precision=args.precision)
        if args.format == "json":
            text = to_json(report, VARIABLES) + "\n"
        else:
            text = to_text(report, VARIABLES)
    except (ArithmeticError, AssertionError, ValueError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    print(text, end="")
    if args.verify and not report.verification.matched:
        return EXIT_MISMATCH
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
