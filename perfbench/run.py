"""polarmorse benchmark: four workloads, output checks, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.
NAME is cli-golden, corpus-d4, corpus-nonreduced, verify-d6, or ``all``
for the four in turn.  Every workload is a closed loop with one client:
the next input goes in when the previous one is done.  A run makes
whole passes over its workload's inputs (see inputs.py), at least two
and as many as fit in S seconds, takes each input's time from its
passes, then checks the outputs outside the timed region.

Standard output carries one line per metric, by name and with its unit,
and ends with one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the run times the same passes once
untraced and once with the span recorder installed, and the metrics are
the per-layer metrics of BENCHMARK.json.  Per-input records (outcome,
times, sha256 of the canonical JSON) and the spans go to perfbench/out/.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracer import NAMES, Recorder  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LAUNCHER = os.path.join(HERE, "cli_launch.py")
ENV = dict(os.environ, PYTHONPATH=SRC)
VARS = ("x", "y")

WORKLOADS = ("cli-golden", "corpus-d4", "corpus-nonreduced", "verify-d6")
# An untraced run makes at least MIN_PASSES whole passes over the pool,
# so that every input is timed more than once, then another pass as long
# as one more of the mean pass time so far ends within --seconds of the
# start of the first.  On a slow machine a run ends at its last whole
# pass instead of running long.
MIN_PASSES = 2
CHILD_TIMEOUT = 150          # seconds for one CLI call
CHECK_T = Fraction(1, 100000)

# Traced functions that must fire on each workload's traced run.
REQUIRED = {
    "cli-golden": set(NAMES) - {"polar.draw_generic_ell"},
    "corpus-d4": set(NAMES) - {"oracle.critical_points",
                               "oracle.classify_trajectories", "cli.main"},
    "corpus-nonreduced": set(NAMES) - {"oracle.critical_points",
                                       "oracle.classify_trajectories",
                                       "cli.main"},
    "verify-d6": set(NAMES) - {"cli.main"},
}

EXIT_CODES = {3: "genericity", 4: "oracle_mismatch"}
CATEGORIES = ("genericity", "extension_too_large", "degenerate",
              "oracle_mismatch", "internal")

clock = time.perf_counter
# CPU time of this process.  The machine is a virtual one whose cores are
# shared with other tenants: wall time includes the time the core was
# given to someone else (steal time), CPU time does not.
cpu_clock = time.process_time

# The speed of a shared core also drifts by up to 1.5x for tens of
# seconds at a time (other tenants on the same physical core), and CPU
# time follows that drift.  So the result line's times are rescaled to a
# reference speed, measured by a fixed reference loop: REF_NOMINAL_S is
# the CPU time that loop takes at the reference speed.  The loop runs
# between operations and, from a CPU-time timer, every SAMPLE_EVERY_S
# inside an in-process operation, so that a long operation is rescaled by
# the speed of the core while it ran.
REF_NOMINAL_S = 0.008
SAMPLE_EVERY_S = 0.25
# An operation is rescaled by the median of at least this many samples:
# those taken since the previous operation ended, or else the latest ones.
WINDOW = 8


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


# Six rationals of 60 to 130 bits, like the coefficients of the program's
# number fields.
REF_COEFFS = [Fraction(3 ** (40 + 5 * i) + i, 7 ** (25 + 3 * i) + 2 * i + 1)
              for i in range(6)]


def reference_loop():
    """A fixed piece of interpreter work that uses nothing of the program:
    products of two degree-5 polynomials with rational coefficients, as
    in the program's exact arithmetic.  Of the loops tried, this one's
    speed followed the program's most closely."""
    for _ in range(45):
        prod = [Fraction(0)] * 11
        for i, a in enumerate(REF_COEFFS):
            for j, b in enumerate(REF_COEFFS):
                prod[i + j] += a * b


class Speed:
    """Reference-loop samples, and the clocks of the timed regions.

    ``clock()`` and ``cpu()`` leave out the time spent in samples taken
    inside an operation.  ``scale(cpu_s)`` rescales the CPU time of the
    operation that just ended by the median of the samples taken since
    the previous call (the one before the operation, those inside it, and
    one after it, which is also the one before the next), or of the last
    WINDOW samples if there are fewer."""

    def __init__(self, sampling=True):
        self.sampling = sampling
        self.spent_wall = self.spent_cpu = 0.0
        self.samples = []
        for _ in range(WINDOW):
            self.sample()
        self.mark = WINDOW - 1
        if sampling:
            signal.signal(signal.SIGPROF, lambda _sig, _frame: self.sample())

    def sample(self):
        c0, t0 = cpu_clock(), clock()
        reference_loop()
        cpu = cpu_clock() - c0
        self.spent_wall += clock() - t0
        self.spent_cpu += cpu
        self.samples.append(cpu)

    def _read(self, read):
        while True:
            wall, cpu = self.spent_wall, self.spent_cpu
            now = read()
            if (wall, cpu) == (self.spent_wall, self.spent_cpu):
                return now, wall, cpu

    def clock(self):
        now, wall, _cpu = self._read(clock)
        return now - wall

    def cpu(self):
        now, _wall, cpu = self._read(cpu_clock)
        return now - cpu

    def start(self):
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)

    def stop(self):
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, cpu_s):
        self.sample()
        window = self.samples[min(self.mark, len(self.samples) - WINDOW):]
        self.mark = len(self.samples) - 1
        return cpu_s * REF_NOMINAL_S / statistics.median(window)


# ---------------------------------------------------------------------------
# set-up and context


def children_cpu():
    """CPU seconds (user plus system) of every child reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(runs):
    """(wall, CPU) seconds of ``runs`` fresh interpreters importing
    polarmorse.cli (which imports sympy and mpmath)."""
    times = []
    for _ in range(runs):
        c0 = children_cpu()
        t0 = clock()
        proc = subprocess.run([sys.executable, "-c", "import polarmorse.cli"],
                              env=ENV, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        times.append((clock() - t0, children_cpu() - c0))
        if proc.returncode != 0:
            raise BenchError("importing polarmorse.cli failed:\n" + proc.stderr)
    return times


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def context(args):
    import mpmath
    import sympy
    import polarmorse.fields
    backend = type(polarmorse.fields.rat(1))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "%s.%s" % (backend.__module__, backend.__qualname__),
    }


# ---------------------------------------------------------------------------
# operations


def _category(exc):
    from polarmorse.fields import ExtensionTooLarge
    from polarmorse.polar import GenericityError
    from polarmorse.puiseux import DegenerateComposition
    if isinstance(exc, ExtensionTooLarge):
        return "extension_too_large"
    if isinstance(exc, DegenerateComposition):
        return "degenerate"
    if isinstance(exc, GenericityError):
        rep = exc.report
        if rep is not None and not rep.no_degenerate_compositions:
            return "degenerate"
        return "genericity"
    return "internal"


def _record(item, k):
    return {"input": item.base, "pass": k, "f": item.f,
            "verify": item.verify, "category": None, "error": None,
            "op_s": None, "cpu_s": None, "ref_s": None, "analysis_s": None,
            "verify_s": None, "sha256": None}


def corpus_op(item, k, verify, check_render, speed):
    """One input: parse, analyse, optionally verify, render, timed by the
    clocks of ``speed``.  With ``check_render`` the report is rendered a second time, and once more
    through from_json/doc_to_json, after the timed region.  Returns the
    record and, for a completed analysis, (f, ell, morse number) for the
    conservation check."""
    from polarmorse.morse import analyze_symbolic
    from polarmorse.oracle import DEFAULT_SCHEDULE, classify_trajectories
    from polarmorse.poly import parse_poly
    from polarmorse.report import doc_to_json, from_json, to_json
    rec = _record(item, k)
    rec["verify"] = verify
    clock, cpu_clock = speed.clock, speed.cpu
    c0 = cpu_clock()
    t0 = clock()
    try:
        f = parse_poly(item.f, VARS)
        t1 = clock()
        report = analyze_symbolic(f, seed=item.seed)
        t2 = clock()
        rec["analysis_s"] = t2 - t1
        if verify:
            verdict = classify_trajectories(f, report.ell,
                                            list(DEFAULT_SCHEDULE), report,
                                            precision=256)
            report.verification = verdict
            rec["verify_s"] = clock() - t2
            if not verdict.matched:
                rec["category"] = "oracle_mismatch"
                rec["error"] = "; ".join(verdict.mismatches)[:300]
        text = to_json(report)
    except Exception as exc:  # the loop goes on; the failure is counted
        rec["op_s"] = clock() - t0
        rec["cpu_s"] = cpu_clock() - c0
        rec["category"] = _category(exc)
        rec["error"] = "%s: %s" % (type(exc).__name__, str(exc)[:200])
        if rec["category"] == "internal":
            rec["traceback"] = traceback.format_exc()
        return rec, None
    rec["op_s"] = clock() - t0
    rec["cpu_s"] = cpu_clock() - c0
    rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    if check_render and (to_json(report) != text
                         or doc_to_json(from_json(text)) != text):
        _fail(rec, "internal", "canonical JSON renderings differ")
    return rec, (f, report.ell, report.morse_number)


def cli_op(item, k, spans_path=None):
    """One CLI call in a fresh interpreter; traced through the launcher
    when ``spans_path`` is given."""
    argv = ["--f", item.f, "--ell", inputs.GOLDEN_ELL, "--format", "json"]
    if item.verify:
        argv.append("--verify")
    if spans_path is None:
        cmd = [sys.executable, "-m", "polarmorse.cli"] + argv
    else:
        cmd = [sys.executable, LAUNCHER, spans_path, "--"] + argv
    rec = _record(item, k)
    rec["golden"] = item.golden
    c0 = children_cpu()
    t0 = clock()
    try:
        proc = subprocess.run(cmd, env=ENV, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        rec["op_s"] = clock() - t0
        rec["cpu_s"] = children_cpu() - c0
        rec["category"] = "internal"
        rec["error"] = "timed out after %d s" % CHILD_TIMEOUT
        return rec, None
    rec["op_s"] = clock() - t0
    rec["cpu_s"] = children_cpu() - c0
    rec["exit_code"] = proc.returncode
    if proc.returncode != 0:
        rec["category"] = EXIT_CODES.get(proc.returncode, "internal")
        rec["error"] = proc.stderr.strip()[-300:]
        return rec, None
    rec["json"] = proc.stdout.rstrip("\n")
    rec["sha256"] = hashlib.sha256(rec["json"].encode()).hexdigest()
    return rec, None


# ---------------------------------------------------------------------------
# passes


def warm_up(workload):
    """One untimed operation on the quintic golden, so that sympy's lazily
    imported modules are loaded, and the files they come from are in the
    page cache, before the first timed pass."""
    item = inputs.Item("warm-up", inputs.GOLDEN[1][1], verify=True)
    if workload == "cli-golden":
        cli_op(item, -1)
    else:
        corpus_op(item, -1, workload == "verify-d6", True,
                  Speed(sampling=False))


def make_pass(workload, seed, k, pick):
    if workload == "cli-golden":
        items = inputs.golden_pass(seed, k)
    else:
        items = inputs.corpus_pass(workload, seed, k)
    if pick is not None:
        items = [it for it in items if it.base.split("#")[1] in pick]
    return items


def run_passes(workload, seed, min_passes, seconds=0.0, pick=None,
               recorder=None, spans_dir=None, setup_times=None):
    """Whole passes over the workload's pool: ``min_passes``, then more
    while one more of the mean pass time so far ends within ``seconds``
    of the start.

    Returns the records of every operation, (item, result) pairs for the
    checks, and the busy time (sum of operation times) of each pass.  With
    ``setup_times`` given, two fresh-interpreter imports run before every
    pass and two after the last, so that set-up is sampled across the
    whole run; each sample is (wall, CPU, CPU at reference speed)."""
    from sympy.core.cache import clear_cache
    records, results, busy = [], [], []
    rendered = set()
    speed = Speed(sampling=recorder is None)

    def setup(runs):
        for wall, cpu in measure_setup(runs):
            setup_times.append((wall, cpu, speed.scale(cpu)))

    start = clock()
    k = 0
    while k < min_passes or (clock() - start) * (k + 1) / k <= seconds:
        if setup_times is not None:
            setup(2)
        items = make_pass(workload, seed, k, pick)
        clear_cache()        # every pass starts from a cold sympy cache
        gc.collect()
        if recorder is not None:
            recorder.install()
        first = len(records)
        try:
            for n, item in enumerate(items):
                if recorder is not None:
                    recorder.item = len(records)
                if workload == "cli-golden":
                    path = None
                    if spans_dir is not None:
                        path = os.path.join(spans_dir, "cli-%d-%d.json" % (k, n))
                    rec, res = cli_op(item, k, path)
                    if path is not None and os.path.exists(path):
                        with open(path) as fh:
                            recorder.merge(json.load(fh))
                        os.remove(path)
                else:
                    # the render check once per input, never under the
                    # recorder (it would count to_json twice)
                    check = recorder is None and item.base not in rendered
                    speed.start()
                    try:
                        rec, res = corpus_op(item, k, workload == "verify-d6",
                                             check, speed)
                    finally:
                        speed.stop()
                    rendered.add(item.base)
                rec["ref_s"] = speed.scale(rec["cpu_s"])
                records.append(rec)
                results.append((item, res))
        finally:
            if recorder is not None:
                recorder.uninstall()
        busy.append(sum(r["op_s"] for r in records[first:]))
        k += 1
    if setup_times is not None:
        setup(2)
    return records, results, busy


# ---------------------------------------------------------------------------
# output checks (outside the timed region)


def _fail(rec, category, message):
    if rec["category"] is None:
        rec["category"] = category
    rec["check"] = message


def _golden_criteria(name, report):
    """Criteria 1-3 of the acceptance suite on an in-process report."""
    locs = {(a.kind, a.point.coords_str(), a.alpha_kind): a
            for a in report.attractors}
    if name == "cubic":
        a = locs[("infinity", "[0 : 1 : 0]", "finite")]
        (c,) = a.contributions
        return (report.morse_number == 2 and a.index == 2
                and a.alpha_field.is_zero(a.alpha_value)
                and c.mult_fbar == 4 and c.mult_hinf == 1
                and locs[("infinity", "[2 : 1 : 0]", "infinite")].index == 0)
    if name == "quintic":
        p = locs[("infinity", "[1 : 0 : 0]", "finite")]
        return (report.morse_number == 4
                and locs[("affine", "(0, 0)", "finite")].index == 1
                and locs[("infinity", "[0 : 1 : 0]", "infinite")].index == 1
                and p.index == 2 and p.alpha_field.is_zero(p.alpha_value)
                and locs[("infinity", "[3/2 : 1 : 0]", "infinite")].index == 0)
    affine = [a for a in report.attractors if a.kind == "affine"]
    inf = [a for a in report.attractors if a.kind == "infinity"]
    return (report.morse_number == 9
            and sum(a.n_points for a in affine) == 8
            and all(a.index == 1 for a in affine)
            and len(inf) == 1 and inf[0].point.coords_str() == "[0 : 1 : 0]"
            and inf[0].alpha_kind == "infinite" and inf[0].index == 1)


def check_golden(records):
    """CLI output against an in-process run of the same golden: morse
    number, criteria 1-3, and identical canonical JSON."""
    from polarmorse.fields import rat
    from polarmorse.morse import analyze_symbolic
    from polarmorse.polar import LinearForm
    from polarmorse.poly import parse_poly
    from polarmorse.report import to_json
    expected = {}
    for name, text, morse in inputs.GOLDEN:
        try:
            rep = analyze_symbolic(parse_poly(text, VARS),
                                   ell=LinearForm(rat(1), rat(1)))
            ok = rep.morse_number == morse and _golden_criteria(name, rep)
            expected[name] = (ok, to_json(rep))
        except (KeyError, ValueError, ArithmeticError, AssertionError) as exc:
            expected[name] = (False, repr(exc))
    for rec in records:
        if rec["category"] is not None:
            continue
        ok, text = expected[rec["golden"]]
        if not ok:
            _fail(rec, "internal", "golden criteria failed in-process: " + text)
            continue
        doc = json.loads(rec["json"])
        if json.loads(text) != dict(doc, verification=None):
            _fail(rec, "internal", "CLI JSON differs from the in-process JSON")
        elif rec["verify"] and not doc["verification"]["matched"]:
            _fail(rec, "oracle_mismatch", "verification did not match")
        elif not rec["verify"] and rec["json"] != text:
            _fail(rec, "internal", "CLI JSON is not byte-identical")


def check_corpus(records, results):
    """The morse number equals the oracle's count of critical points at
    t = 1/100000, once per input that completed without failure."""
    from polarmorse.oracle import critical_points
    counts = {}
    for rec, (item, res) in zip(records, results):
        if res is None or rec["category"] is not None:
            continue
        f, ell, morse = res
        if item.base not in counts:     # the same problem in every pass
            try:
                counts[item.base] = len(critical_points(f, ell,
                                                        CHECK_T).points)
            except (ArithmeticError, ValueError) as exc:
                counts[item.base] = "oracle failed: %s" % exc
        n = counts[item.base]
        if n != morse:
            _fail(rec, "oracle_mismatch",
                  "morse number %d, oracle count %s" % (morse, n))


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile rank) of the highest percentile with at least
    ten samples above it, or (None, None) with ten samples or fewer."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return None, None
    return s[n - 11], 100.0 * (n - 10) / n


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-golden" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def best_per_input(records):
    """One record per input (and ``--verify`` flag), saying whether any
    repetition in the run failed.  Wall and CPU times are the input's
    fastest repetition: other load only ever slows an operation down, so
    the fastest pass is the one least disturbed.  ``ref_s`` is the mean
    over the repetitions, since rescaling errs both ways."""
    groups = {}
    for r in records:
        groups.setdefault((r["input"], r["verify"]), []).append(r)
    out = []
    for reps in groups.values():
        best = dict(reps[0])
        for field in ("op_s", "cpu_s", "analysis_s", "verify_s"):
            values = [r[field] for r in reps if r[field] is not None]
            best[field] = min(values) if values else None
        best["ref_s"] = statistics.fmean(r["ref_s"] for r in reps)
        best["category"] = next((r["category"] for r in reps
                                 if r["category"] is not None), None)
        out.append(best)
    return out


def end_to_end(workload, records, walls, setup_times, peak):
    """Every end-to-end metric of the workload: {name: (value, unit, n)}.

    Times per input are each input's fastest repetition in the run;
    ``*_per_s`` rates and ``failed_share`` count every operation.
    ``setup_s``, ``*ref_s*`` are CPU seconds rescaled to the reference
    speed, ``*cpu_s*`` CPU seconds, every other time is wall time."""
    wall = sum(walls)
    ok_ops = [r for r in records if r["category"] is None]
    best = best_per_input(records)
    ok = [r for r in best if r["category"] is None]
    n_setup = len(setup_times)
    out = {"setup_s": (statistics.median(t[2] for t in setup_times),
                       "s", n_setup),
           "setup_cpu_s": (statistics.median(t[1] for t in setup_times),
                           "s", n_setup),
           "setup_wall_s": (statistics.median(t[0] for t in setup_times),
                            "s", n_setup),
           "failed_share": ((len(records) - len(ok_ops)) / len(records),
                            "share", len(records)),
           "peak_rss_mb": (peak, "MB", 1),
           "sweep_s": (sum(r["op_s"] for r in best), "s", len(best)),
           "sweep_cpu_s": (sum(r["cpu_s"] for r in best), "s", len(best)),
           "sweep_ref_s": (sum(r["ref_s"] for r in best), "s", len(best)),
           "passes": (len(walls), "count", len(walls))}

    def dist(name, values):
        if not values:
            return
        out[name + ".p50"] = (statistics.median(values), "s", len(values))
        value, rank = tail(values)
        if value is not None:
            out[name + ".tail"] = (value, "s", len(values))
            out[name + ".tail_rank"] = (rank, "percentile", len(values))

    if workload == "cli-golden":
        plain = [r["op_s"] for r in ok if not r["verify"]]
        dist("cli_s", plain)
        dist("cli_verify_s", [r["op_s"] for r in ok if r["verify"]])
        out["calls_per_s"] = (len(ok_ops) / wall, "1/s", len(ok_ops))
        op = plain
    else:
        dist("analysis_s", [r["analysis_s"] for r in best
                            if r["analysis_s"] is not None])
        analysed = [r for r in records if r["analysis_s"] is not None]
        out["analyses_per_s"] = (len(analysed) / wall, "1/s", len(analysed))
        op = [r["op_s"] for r in ok]
        if workload == "verify-d6":
            dist("verify_s", [r["verify_s"] for r in best
                              if r["verify_s"] is not None])
            out["verified_per_s"] = (len(ok_ops) / wall, "1/s", len(ok_ops))
    if not op:
        raise BenchError("no operation of %s succeeded" % workload)
    out["op_s.p50"] = (statistics.median(op), "s", len(op))
    out["op_s.gmean"] = (statistics.geometric_mean(r["op_s"] for r in ok),
                         "s", len(ok))
    for field in ("cpu_s", "ref_s"):
        out["op_%s.gmean" % field] = (
            statistics.geometric_mean(r[field] for r in ok), "s", len(ok))
    out["ops_per_s"] = (len(ok_ops) / wall, "1/s", len(ok_ops))
    return out


def failures_by_category(records):
    out = {c: 0 for c in CATEGORIES}
    for r in records:
        if r["category"] is not None:
            out[r["category"]] += 1
    return out


# ---------------------------------------------------------------------------
# one workload


def _write(name, doc):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=str)


def run_workload(workload, args, pick=None):
    """Run one workload, check its outputs and write its run file.
    Returns (records, metrics, correct); metrics maps a name to
    (value, unit, sample count)."""
    tag = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    spans_file = None
    warm_up(workload)
    if not args.trace:
        setup_times = []
        records, results, walls = run_passes(
            workload, args.seed, MIN_PASSES, args.seconds,
            pick=pick, setup_times=setup_times)
        metrics = end_to_end(workload, records, walls, setup_times,
                             _peak_rss_mb(workload))
    else:
        records, results, walls = run_passes(
            workload, args.seed, 1, args.seconds / 2, pick=pick)
        rec = Recorder()
        spans_dir = None
        if workload == "cli-golden":
            spans_dir = os.path.join(OUT, "tmp-" + tag)
            os.makedirs(spans_dir, exist_ok=True)
        t_records, _res, t_walls = run_passes(
            workload, args.seed, 1, pick=pick, recorder=rec,
            spans_dir=spans_dir)
        if spans_dir is not None:
            os.rmdir(spans_dir)
        metrics = per_layer(workload, rec, records, t_records,
                            statistics.median(walls), t_walls[0])
        missing = sorted(n for n in REQUIRED[workload]
                         if rec.calls[NAMES.index(n)] == 0)
        if pick is None and missing:
            raise BenchError("traced functions did not fire on %s: %s"
                             % (workload, ", ".join(missing)))
        os.makedirs(OUT, exist_ok=True)
        spans_file = os.path.join(OUT, "spans-%s.json" % tag)
        rec.dump(spans_file)
    if workload == "cli-golden":
        check_golden(records)
    else:
        check_corpus(records, results)
    correct = not any("check" in r for r in records)
    _write(tag + ".json", {
        "context": context(args), "pass_busy_s": walls,
        "failures": failures_by_category(records),
        "metrics": {k: list(v) for k, v in metrics.items()},
        "spans_file": spans_file,
        "records": [{k: v for k, v in r.items() if k != "json"}
                    for r in records]})
    return records, metrics, correct


def per_layer(workload, rec, records, t_records, wall, t_wall):
    """Per-layer metrics of one traced pass; ``wall`` is the median
    untraced pass time and ``t_wall`` the traced one."""
    out = {}
    for name, value in rec.metrics().items():
        unit = "s" if name.endswith("_s") else (
            "ratio" if "_per_" in name else "count")
        out[name] = (value, unit, 1)
    out["trace.overhead_share"] = (t_wall / wall - 1.0, "share", 1)
    if workload == "cli-golden":
        # CLI wall time minus the traced in-process analysis and to_json
        # time of the same input, per golden; the median over the goldens.
        best = {r["input"]: r["op_s"] for r in best_per_input(records)
                if not r["verify"] and r["category"] is None}
        per_golden = []
        for i, r in enumerate(t_records):
            if r["verify"] or r["input"] not in best:
                continue
            inner = sum(d for span in ("morse.analyze_symbolic",
                                       "report.to_json")
                        for item, d in rec.span_times(span) if item == i)
            per_golden.append(best[r["input"]] - inner)
        if per_golden:
            out["cli.overhead_s"] = (statistics.median(per_golden), "s",
                                     len(per_golden))
    return out


# ---------------------------------------------------------------------------
# entry point


def _load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def _fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polarmorse", "__init__.py")):
        raise BenchError("no polarmorse sources under %s: run from the root "
                         "of a checkout" % SRC)
    sys.path.insert(0, SRC)
    spec = _load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    result = {}
    for workload in workloads:
        records, metrics, ok = run_workload(workload, args)
        correct = correct and ok
        attempted += len(records)
        failed += sum(1 for r in records if r["category"] is not None)
        for name, (value, unit, n) in sorted(metrics.items()):
            print("%-18s %-40s %14s %-10s n=%d"
                  % (workload, name, _fmt(value), unit, n))
        for cat, count in failures_by_category(records).items():
            print("%-18s %-40s %14d %-10s" % (workload, "failed." + cat,
                                                count, "count"))
        for m in wanted:
            if m["name"] not in metrics:
                raise BenchError("metric %s not measured on %s"
                                 % (m["name"], workload))
            key = m["name"] if len(workloads) == 1 \
                else "%s.%s" % (workload, m["name"])
            result[key] = {"value": metrics[m["name"]][0], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        sys.exit(2)
