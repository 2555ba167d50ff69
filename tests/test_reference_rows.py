"""Reference rows of the benchmark, checked on every test run.

Every invocation with committed reference rows in
``perfbench/reference/small-dims.json.gz`` and
``perfbench/reference/optimizer.json.gz`` (seeds 0-4) and every ``--seed 0``
invocation in ``perfbench/reference/large-dims.json.gz`` runs through
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
WORKLOADS = ("small-dims", "large-dims", "optimizer")
# a pass of each of these takes well under a second, so their other seeds are checked too
EVERY_SEED = ("small-dims", "optimizer")


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
LATER_SEEDS = [
    (workload, key) for workload in EVERY_SEED for key in sorted(REFERENCES[workload]) if not key.endswith(" --seed 0")
]


def _passes_the_output_gate(workload: str, key: str) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(key.split())
    verdict = checks.check_invocation(code, out.getvalue(), REFERENCES[workload][key])
    assert not verdict.failed, verdict.problems
    assert verdict.compared


def test_every_workload_has_seed_0_references():
    assert {workload for workload, _ in CASES} == set(WORKLOADS)


@pytest.mark.parametrize("workload", EVERY_SEED)
def test_workload_has_references_at_seeds_1_to_4(workload):
    later = [key for w, key in LATER_SEEDS if w == workload]
    assert {key.rsplit(" ", 1)[1] for key in later} == {"1", "2", "3", "4"}
    assert len(later) == 4 * sum(1 for w, _ in CASES if w == workload)


@pytest.mark.parametrize("workload, key", CASES, ids=[f"{w}: {k}" for w, k in CASES])
def test_seed_0_invocation_passes_the_output_gate(workload, key):
    _passes_the_output_gate(workload, key)


@pytest.mark.parametrize("workload, key", LATER_SEEDS, ids=[f"{w}: {k}" for w, k in LATER_SEEDS])
def test_invocation_at_seeds_1_to_4_passes_the_output_gate(workload, key):
    _passes_the_output_gate(workload, key)
