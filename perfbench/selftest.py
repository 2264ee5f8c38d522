"""Fast self-test of the benchmark on a few inputs per workload.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs one untraced and one traced pass of every workload over a few cheap
inputs, then checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted on every workload, that each workload also
emits its own named metrics, and that every traced function fires on at
least one workload.  Exits 0 and prints "selftest ok" when all hold.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import NAMES  # noqa: E402

# Pool entries to use, by their position in the workload's input stream
# (golden name for cli-golden).  verify-d6 keeps one input of each of
# three outcomes: verified, no generic linear form, tower over the cap.
PICK = {
    "cli-golden": {"cubic"},
    "corpus-d4": {"1", "5"},
    "corpus-nonreduced": {"1", "7"},
    "verify-d6": {"0", "9", "12"},
}

NAMED = {
    "cli-golden": ("cli_s.p50", "cli_verify_s.p50", "calls_per_s"),
    "corpus-d4": ("analysis_s.p50", "analyses_per_s"),
    "corpus-nonreduced": ("analysis_s.p50", "analyses_per_s"),
    "verify-d6": ("analysis_s.p50", "analyses_per_s", "verify_s.p50",
                  "verified_per_s"),
}
COMMON = ("setup_s", "failed_share", "peak_rss_mb")


def main():
    if not os.path.isdir(os.path.join(run.SRC, "polarmorse")):
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    spec = run._load_spec()
    problems = []
    if run.tail(list(range(20))) != (9, 50.0) or run.tail([1.0] * 10) != (None, None):
        problems.append("tail() picks the wrong sample")
    fired = set()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0,
                                      seconds=0.1, trace=trace)
            records, metrics, correct = run.run_workload(
                workload, args, pick=PICK[workload])
            if not correct:
                problems.append("%s: an output check failed" % workload)
            wanted = [m["name"] for m in
                      spec["per_layer" if trace else "end_to_end"]]
            if not trace:
                wanted += list(COMMON + NAMED[workload])
            elif workload == "cli-golden":
                wanted.append("cli.overhead_s")
            for name in wanted:
                if name not in metrics:
                    problems.append("%s trace=%d: no metric %s"
                                    % (workload, trace, name))
            if trace:
                fired |= {n for n in NAMES if metrics[n + ".calls"][0] > 0}
    for name in NAMES:
        if name not in fired:
            problems.append("traced function %s never fired" % name)
    for p in problems:
        print("FAIL", p)
    if problems:
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
