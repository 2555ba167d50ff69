"""Reference rows of the benchmark, checked on every test run.

Every ``--seed 0`` invocation with committed reference rows in
``perfbench/reference/{small-dims,large-dims}.json.gz`` runs through
``cli.main`` and must pass the benchmark's own output gate,
``perfbench/checks.check_invocation``: exit code 0, no invariant failures,
and every cell within ``checks.REFERENCE_TOL`` of the reference.  Nothing is
written under ``perfbench/``.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from arrowlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("small-dims", "large-dims")


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return module


checks = _load_checks()
REFERENCES = {workload: checks.load_references(workload) for workload in WORKLOADS}
CASES = [(workload, key) for workload in WORKLOADS for key in sorted(REFERENCES[workload]) if key.endswith(" --seed 0")]


def test_every_workload_has_seed_0_references():
    assert {workload for workload, _ in CASES} == set(WORKLOADS)


@pytest.mark.parametrize("workload, key", CASES, ids=[f"{w}: {k}" for w, k in CASES])
def test_seed_0_invocation_passes_the_output_gate(workload, key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(key.split())
    verdict = checks.check_invocation(code, out.getvalue(), REFERENCES[workload][key])
    assert not verdict.failed, verdict.problems
    assert verdict.compared
