"""The registry's contract: each record's ``run`` returns named columns.

Every experiment, at a small size and at the choices that reach other
code, returns every column its record lists as a 1-D array of one length
and of a plain dtype, which the CLI picks in the record's order.  The
``schrodinger`` record runs ``balance``'s trials, so the cells the two
records share are the same.
"""

import numpy as np
import pytest

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
