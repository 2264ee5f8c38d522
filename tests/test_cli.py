import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import event, given, settings, strategies as st

from polarmorse import cli, fields, morse
from polarmorse.fields import rat
from polarmorse.morse import analyze_symbolic
from polarmorse.oracle import DEFAULT_SCHEDULE, classify_trajectories
from polarmorse.polar import LinearForm
from polarmorse.poly import parse_poly
from polarmorse.report import to_json

DATA = pathlib.Path(__file__).parent / "data"
GOLDENS = {"cubic": "x + x^2*y", "quintic": "x*y + 1/3*x^3*y^2",
           "sextic": "x*y + 1/3*x^3*y^2 + x^6"}
# Pinned inputs: the goldens; one whose attractor point has y = 2^(1/4),
# of degree 4 over Q; and one that builds extensions over Q(sqrt 2): at
# its quadruple points x = +-sqrt 2 the polar germs have edge polynomials
# of degree >= 2 over Q(sqrt 2).
PINNED = dict(GOLDENS, tower="(x^2-2)^2 + (y^2-x)^2",
              quartic_tower="(x^2-2)^4 + y^4")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_report_cubic(capsys):
    code, out, err = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y")
    assert code == cli.EXIT_OK
    assert "morse_number = 2" in out
    assert "[0 : 1 : 0]" in out
    assert "[2 : 1 : 0]" in out


def test_json_report_quintic(capsys):
    code, out, _ = run_cli(capsys, "--f", "x*y + 1/3*x^3*y^2",
                           "--ell", "x + y", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["morse_number"] == 4
    assert doc["input"]["degree"] == 5
    assert doc["verification"] is None
    kinds = [a["location"]["type"] for a in doc["attractors"]]
    assert kinds.count("affine") == 1
    assert kinds.count("infinity") == 3


def test_json_output_is_deterministic(capsys):
    args = ("--f", "x*y + 1/3*x^3*y^2 + x^6", "--format", "json", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_json_round_trip(capsys):
    from polarmorse.report import doc_to_json, from_json
    _, out, _ = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                        "--format", "json")
    doc = from_json(out)
    assert doc_to_json(doc) + "\n" == out


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "--f", "x + * y")
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


def test_bad_ell_exit_code(capsys):
    code, _, err = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x^2")
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


def test_nongeneric_ell_exit_code(capsys):
    code, _, err = run_cli(capsys, "--f", "x^2*y", "--ell", "x")
    assert code == cli.EXIT_GENERICITY
    assert "genericity" in err


def test_verify_matched(capsys):
    code, out, _ = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                           "--verify", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["verification"]["matched"] is True
    assert doc["verification"]["mismatches"] == []
    assert sum(doc["verification"]["clusters"].values()) == 2


def test_custom_schedule(capsys):
    code, out, _ = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                           "--verify", "--t-schedule", "1e-2,1e-3,1e-4,1e-5")
    assert code == cli.EXIT_OK
    assert "matched=True" in out


def test_tiny_schedule_matches(capsys):
    # the start solve keeps the points x = +-sqrt(t) below t = 1e-154
    code, out, _ = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                           "--verify", "--t-schedule", "1e-154,1e-155,1e-156")
    assert code == cli.EXIT_OK
    assert "matched=True" in out


def test_short_schedule_rejected(capsys):
    code, _, err = run_cli(capsys, "--f", "x + x^2*y", "--verify",
                           "--t-schedule", "1e-2,1e-3")
    assert code == cli.EXIT_PARSE


BAD_SCHEDULES = ["1e-2,1e-3,0", "-1e-4,-1e-3,-1e-2", "1e-2,1e-3,1e-2",
                 "1e-2,1e-2,1e-3"]


@pytest.fixture
def oracle_unreachable(monkeypatch):
    """A rejected option must stop the CLI before the oracle runs."""
    def reached(*args, **kwargs):
        pytest.fail("the oracle ran on a rejected option")

    monkeypatch.setattr(cli, "classify_trajectories", reached)


@pytest.mark.parametrize("text", BAD_SCHEDULES)
def test_parse_schedule_rejects(text):
    with pytest.raises(ValueError):
        cli._parse_schedule(text)


@pytest.mark.parametrize("text", BAD_SCHEDULES)
def test_bad_schedule_exit_code(capsys, oracle_unreachable, text):
    code, out, err = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                             "--verify", "--t-schedule=" + text)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_schedule_zero_denominator_exit_code(capsys, oracle_unreachable):
    code, out, err = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                             "--verify", "--t-schedule", "1/100,1/1000,1/0")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("bits", ["0", "-8", "4097", "65536"])
def test_bad_precision_exit_code(capsys, oracle_unreachable, bits):
    code, out, err = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                             "--verify", "--precision", bits)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.fixture
def analysis_unreachable(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("the analysis ran on a bad input")

    monkeypatch.setattr(cli, "analyze_symbolic", reached)


@pytest.mark.parametrize("argv", [["--f", "3"],
                                  ["--f", "x + x^2*y", "--max-redraws", "0"]])
def test_input_error_exit_code(capsys, analysis_unreachable, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_analysis_value_error_is_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("the two polynomials share a curve component")

    monkeypatch.setattr(cli, "analyze_symbolic", broken)
    code, out, err = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y")
    assert code == cli.EXIT_INTERNAL == 1
    assert out == ""
    assert err == "internal error: the two polynomials share a curve component\n"


def test_index_off_the_intersection_number_is_internal_error(capsys, monkeypatch):
    # an affine index that differs from the candidate's intersection
    # number m fails the analysis, on one line
    real = morse.affine_candidates

    def off_by_one(*args):
        return [(p, m + 1) for p, m in real(*args)]

    monkeypatch.setattr(morse, "affine_candidates", off_by_one)
    code, out, err = run_cli(capsys, "--f", "x*y + 1/3*x^3*y^2", "--ell", "x + y")
    assert code == cli.EXIT_INTERNAL == 1
    assert out == ""
    assert err == ("internal error: index 1 at (0, 0) is not the "
                   "intersection number 2\n")


def test_linear_f(capsys):
    code, out, _ = run_cli(capsys, "--f", "x - 2*y", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["morse_number"] == 0
    assert doc["attractors"] == []


def test_decimal_to_rat_exact():
    # schedule literals are read as exact rationals, p/q as the JSON prints
    assert cli._parse_schedule("2.5e1, 3, 0.25, 1e-3, 1/3000") == [
        rat(25), rat(3), rat(1, 4), rat(1, 1000), rat(1, 3000)]
    assert cli._parse_schedule("1e-150,1e-151,1E-152")[-1] == rat(1, 10**152)


@pytest.mark.parametrize("name", sorted(PINNED) + sorted(
    "%s.verify" % g for g in PINNED))
def test_canonical_json_pinned(name):
    # tests/data/<input>.json is the output of
    # polarmorse --f <input> --ell "x + y" --format json,
    # and tests/data/<input>.verify.json that of the same call with --verify
    golden, _, verify = name.partition(".")
    f = parse_poly(PINNED[golden], cli.VARIABLES)
    ell = LinearForm(rat(1), rat(1))
    report = analyze_symbolic(f, ell=ell)
    if verify:
        report.verification = classify_trajectories(f, ell, DEFAULT_SCHEDULE, report)
    expected = (DATA / ("%s.json" % name)).read_text()
    assert to_json(report, cli.VARIABLES) + "\n" == expected


def test_quartic_tower_builds_a_tower(monkeypatch):
    bases = []
    init = fields.ExtensionField.__init__

    def recorded(self, base, *args):
        bases.append(base)
        init(self, base, *args)

    monkeypatch.setattr(fields.ExtensionField, "__init__", recorded)
    report = analyze_symbolic(parse_poly(PINNED["quartic_tower"], cli.VARIABLES),
                              ell=LinearForm(rat(1), rat(1)))
    assert report.morse_number == 21
    assert sum(base is not fields.QQ for base in bases) == 2


def test_tower_over_cap_exit_code(capsys):
    code, out, err = run_cli(capsys, "--f",
                             "x^6 + y^6 + x^2*y + 3*x*y^2 + x + 2*y",
                             "--ell", "x + 2*y")
    assert code == cli.EXIT_TOWER == 5
    assert out == ""
    assert err.startswith("extension too large: ") and err.count("\n") == 1


def test_render_failure_is_internal_error(capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("broken renderer")

    monkeypatch.setattr(cli, "to_json", broken)
    code, out, err = run_cli(capsys, "--f", "x + x^2*y", "--ell", "x + y",
                             "--format", "json")
    assert code == cli.EXIT_INTERNAL == 1
    assert out == ""
    assert err == "internal error: broken renderer\n"


# Short --f and --ell texts: sums of small terms, malformed probes, or
# garbage over the parser's alphabet.  Exponents stay small so that every
# analysis is quick.
TERMS = st.tuples(
    st.sampled_from([" + ", " - "]),
    st.sampled_from(["", "1", "3", "1/2", "7/3", "2.5"]),
    st.sampled_from(["x", "y", "x^2", "x*y", "y^2", "x^3", "x^2*y",
                     "(x+y)^2"]),
).map(lambda t: t[0] + "*".join(s for s in t[1:] if s))
PROBES = st.sampled_from(["0", "3", "x^", "1/0*x", "1e3*y", "x + y + 1",
                          "x^2", "(x", "y", "2*x - 3*y"])
GARBAGE = st.text(alphabet="xyz0+-*/^()., e", max_size=10)
SUMS = st.lists(TERMS, min_size=1, max_size=4).map(
    lambda ts: "".join(ts).lstrip(" +"))
F_TEXTS = st.one_of(SUMS, PROBES, GARBAGE)
ELL_TEXTS = st.one_of(st.just("x + y"), PROBES, GARBAGE)
EXTRA_ARGS = st.sampled_from([[], ["--format", "json"], ["--precision", "2"],
                              ["--precision", "0"], ["--max-redraws", "1"]])


@settings(max_examples=100, deadline=None)
@given(F_TEXTS, st.one_of(st.none(), ELL_TEXTS), EXTRA_ARGS)
def test_exit_codes_are_documented(f, ell, extra):
    argv = ["--f=" + f] + ([] if ell is None else ["--ell=" + ell]) + extra
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event("exit %s" % code)
    assert code in (cli.EXIT_OK, cli.EXIT_INTERNAL, cli.EXIT_PARSE,
                    cli.EXIT_GENERICITY, cli.EXIT_MISMATCH, cli.EXIT_TOWER)
    if code == cli.EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n")
