"""The registry's contract: each record's ``run`` returns named columns.

Every experiment, at a small size and at the choices that reach other
code, returns every column its record lists as a 1-D array of one length
and of a plain dtype, which the CLI picks in the record's order.  The
``schrodinger`` record runs ``balance``'s trials, so the cells the two
records share are the same.  A stacked run asked for fewer than one trial
raises a one-line ``ValueError`` that names the count.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import arrowlab
from arrowlab import core, experiments
from arrowlab.cli import run, validate_config

# small values for the parameters that set an experiment's size
SMALL = {"trials": "2", "restarts": "2", "max-iter": "5", "collisions": "3"}
# the choices that reach code the defaults do not
CHOICES = [
    ("collide", {"init": "random"}),
    ("collide", {"mode": "reduced"}),
    ("search", {"demo": "near-product"}),
    ("search", {"demo": "classical"}),
]
CASES = [(name, {}) for name in experiments.EXPERIMENTS] + CHOICES


def small_config(name: str, overrides: dict):
    keys = {p.key for p in experiments.EXPERIMENTS[name].params}
    return validate_config(name, overrides={**{k: v for k, v in SMALL.items() if k in keys}, **overrides})


@pytest.mark.parametrize(
    "name, overrides", CASES, ids=[" ".join([name, *(f"--{k} {v}" for k, v in o.items())]) for name, o in CASES]
)
def test_run_returns_every_listed_column_as_one_plain_array(name, overrides):
    experiment = experiments.EXPERIMENTS[name]
    columns, extra = experiment.run(small_config(name, overrides).values)
    assert isinstance(extra, dict)
    assert set(experiment.columns) <= set(columns)
    for column in columns.values():
        assert isinstance(column, np.ndarray) and column.ndim == 1
        assert column.dtype.kind in "bifU"
    assert len({len(column) for column in columns.values()}) == 1


SHARED = ("trial", "ds_s", "ds_r", "sum")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dims", ["2x2", "2x3", "16x16"])
def test_schrodinger_shares_balances_trials(monkeypatch, dims, seed):
    dim_s, dim_r = map(int, dims.split("x"))
    # one trial per chunk
    monkeypatch.setattr(core, "STACK_ENTRIES", (dim_s * dim_r) ** 2)
    tables = []
    for name in ("balance", "schrodinger"):
        code, record = run(validate_config(name, overrides={"trials": "2", "dims": dims, "seed": str(seed)}))
        assert code == 0 and len(record.rows) == 2
        tables.append({column: record.table[column].tobytes() for column in SHARED})
    assert tables[0] == tables[1]


# the records whose run stacks its trials; damping's three canonical rows
# need no trial, so damping at 0 trials writes those three
STACKED = [name for name, e in experiments.EXPERIMENTS.items() if "trials" in {p.key for p in e.params} and name != "damping"]


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("name", [name for name in STACKED if name != "search"])
def test_a_stacked_run_of_fewer_than_one_trial_names_the_count(name, trials):
    values = {**small_config(name, {}).values, "trials": trials}
    with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
        experiments.EXPERIMENTS[name].run(values)


@pytest.mark.parametrize("demo", ["random", "near-product", "classical"])
def test_a_search_of_no_trials_names_the_count(demo):
    # in a child process with a timeout: a random search of no trials once
    # drew stacks of no states for ever
    values = {**small_config("search", {"demo": demo}).values, "trials": 0}
    code = f"from arrowlab import experiments; experiments.EXPERIMENTS['search'].run({values!r})"
    src = os.path.dirname(os.path.dirname(arrowlab.__file__))
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert child.returncode == 1
    assert child.stderr.splitlines()[-1] == "ValueError: trials must be at least 1, got 0"


def test_damping_of_no_random_states_writes_the_canonical_rows():
    columns, _ = experiments.EXPERIMENTS["damping"].run({**small_config("damping", {}).values, "trials": 0})
    assert columns["kind"].tolist() == ["thermal", "maximally-mixed", "excited"]


@pytest.mark.parametrize("trials", [-1, -5])
def test_damping_of_fewer_than_no_random_states_names_the_count(trials):
    with pytest.raises(ValueError, match=f"^trials must be at least 0, got {trials}$"):
        experiments.EXPERIMENTS["damping"].run({**small_config("damping", {}).values, "trials": trials})
