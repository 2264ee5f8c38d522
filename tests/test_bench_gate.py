"""The traced benchmark run requires every function in ``REQUIRED`` of
perfbench/run.py to fire on its workload, and ends in exit 2 when one
does not.  These tests run one pass of each workload in process under the
span recorder and check that gate, so that a change which stops a traced
function from being called on some workload fails here first."""

import importlib.util
from pathlib import Path

import pytest

from polarmorse import cli

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
