"""The traced benchmark run requires every function in ``REQUIRED`` of
perfbench/run.py to fire on its workload, and ends in exit 2 when one
does not.  These tests run one pass of each workload in process under the
span recorder and check that gate, so that a change which stops a traced
function from being called on some workload fails here first.  The
corpus pools' canonical JSON is also checked against the render check of
``corpus_op`` under several run seeds."""

import importlib.util
from pathlib import Path

import pytest

from polarmorse import cli
from polarmorse.morse import analyze_symbolic
from polarmorse.poly import parse_poly
from polarmorse.report import doc_to_json, from_json, to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def unfired(bench, workload, recorder):
    return sorted(n for n in bench.REQUIRED[workload]
                  if recorder.calls[bench.NAMES.index(n)] == 0)


def test_cli_golden_fires_every_required_function(bench, capsys):
    rec = bench.Recorder()
    rec.install()
    try:
        for _name, text, _morse in bench.inputs.GOLDEN:
            for verify in (False, True):
                argv = ["--f", text, "--ell", bench.inputs.GOLDEN_ELL,
                        "--format", "json"] + (["--verify"] if verify else [])
                assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    finally:
        rec.uninstall()
    capsys.readouterr()
    assert unfired(bench, "cli-golden", rec) == []


@pytest.mark.parametrize("workload",
                         ["corpus-d4", "corpus-nonreduced", "verify-d6"])
def test_corpus_pass_fires_every_required_function(bench, workload):
    speed = bench.Speed(sampling=False)
    rec = bench.Recorder()
    rec.install()
    try:
        for n, item in enumerate(bench.inputs.corpus_pass(workload, 0, 0)):
            rec.item = n
            bench.corpus_op(item, 0, workload == "verify-d6", False, speed)
    finally:
        rec.uninstall()
    assert unfired(bench, workload, rec) == []


@pytest.mark.parametrize("workload", ["corpus-d4", "corpus-nonreduced"])
def test_corpus_json_independent_of_term_order(bench, workload):
    """Run seeds reorder each input's terms and the pass.  Every base input
    gives one canonical JSON under run seeds 1-4, and that text comes back
    from a second ``to_json`` and from ``doc_to_json(from_json(...))``,
    the render check of ``corpus_op``."""
    texts = {}
    for seed in range(1, 5):
        for item in bench.inputs.corpus_pass(workload, seed, 0):
            report = analyze_symbolic(parse_poly(item.f, bench.VARS),
                                      seed=item.seed)
            text = to_json(report)
            assert to_json(report) == text
            assert doc_to_json(from_json(text)) == text
            texts.setdefault(item.base, set()).add(text)
    assert len(texts) == len(bench.inputs.POOLS[workload]())
    assert all(len(t) == 1 for t in texts.values())
