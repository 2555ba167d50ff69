"""Every run invariant of the registry fires.

For each (experiment, invariant) pair of ``experiments.EXPERIMENTS``, one
case wraps the experiment's real ``run`` and moves one cell of a named
column, or one ``extra`` value, just past the invariant's tolerance.  Through ``cli.main``
the unmoved run passes the invariant, and the moved run exits 2 with the
invariant recorded as failed and a failure line that names it.  A registry
walk fails when a pair has no case, so a new invariant arrives with one.

The two input checks fire too: a Hamiltonian decomposition, or an outcome
distribution, moved just past its tolerance ends the run with exit 1 and
one error line.
"""

import dataclasses
import math

import numpy as np
import pytest

from arrowlab import core, experiments, fluctuation
from arrowlab.cli import main

# how far past its tolerance each case moves an invariant's value
PAST = 1e-6
# the same for an input check, relative to its tolerance, which is far
# smaller than PAST
PAST_FACTOR = 1.1


def cell(column, value, row=0):
    """Move ``columns[column][row]`` to ``value(cells, tol)`` on a copy of
    that column, with ``cells`` row ``row`` by column name; ``column`` may
    be a function of ``cells``."""

    def move(columns, extra, tol):
        cells = {name: cells[row].item() for name, cells in columns.items()}
        name = column(cells) if callable(column) else column
        moved = columns[name].copy()
        moved[row] = value(cells, tol)
        return {**columns, name: moved}, extra

    return move


def extra_value(key, value):
    """Move ``extra[key]`` to ``value(extra, tol)``."""

    def move(columns, extra, tol):
        return columns, {**extra, key: value(extra, tol)}

    return move


def above(cells, tol):
    return tol + PAST


def below_minus(cells, tol):
    return -(tol + PAST)


SMALL = {
    "balance": ["--trials", "2"],
    "near-product": [],
    "decorrelate": [],
    "search": ["--trials", "2"],
    "schrodinger": ["--trials", "2"],
    "sweep": [],
    "collide": ["--collisions", "3"],
    "crooks": ["--trials", "2"],
    "jarzynski": ["--trials", "2"],
    "heatflow": ["--trials", "2"],
    "damping": ["--trials", "1"],
}

# (experiment, invariant) -> (extra arguments, fault)
FAULTS = {
    ("balance", "minus_sum"): ([], cell("sum", below_minus)),
    ("balance", "balance_deviation"): ([], cell("balance_deviation", above)),
    ("near-product", "sum_deviation"): ([], cell("sum_deviation", above)),
    ("near-product", "mi_final"): ([], cell("mi_final", above)),
    ("decorrelate", "sum_deviation"): ([], cell("sum", lambda c, tol: -math.log(2.0) + tol + PAST)),
    ("decorrelate", "mi_final"): ([], cell("mi_final", above)),
    # the near-product optimum -I(eps) bounds the achieved sum from above
    ("search", "achieved_sum_above_bound"): (
        ["--demo", "near-product"],
        cell("achieved_sum", lambda c, tol: -experiments.near_product_mutual_information(0.1) + tol + PAST),
    ),
    ("search", "decrease_beyond_mi_initial"): ([], cell("achieved_sum", lambda c, tol: -c["mi_initial"] - (tol + PAST))),
    ("schrodinger", "minus_sum"): ([], cell("sum", below_minus)),
    # row 0 of the default grid has g = 0 and epsilon = 0
    ("sweep", "uncoupled_abs_sum"): ([], cell("sum", above)),
    ("sweep", "product_minus_sum"): ([], cell("sum", below_minus)),
    ("collide", "reversal_distance"): ([], extra_value("recovered_trace_distance", above)),
    ("collide", "joint_renyi2_deviation"): (
        [],
        extra_value("joint_renyi2_final", lambda x, tol: x["joint_renyi2_initial"] + tol + PAST),
    ),
    ("collide", "trajectory_deviation"): ([], extra_value("trajectory_deviation", above)),
    ("crooks", "max_ratio_deviation"): ([], cell("max_ratio_deviation", above)),
    ("crooks", "jarzynski_deviation"): ([], cell("jarzynski_deviation", above)),
    ("crooks", "identity_deviation"): ([], cell("identity_deviation", above)),
    ("jarzynski", "relative_deviation"): ([], cell("relative_deviation", above)),
    ("heatflow", "hotter_energy_gain"): ([], cell(lambda c: "du_s" if c["hotter"] == "S" else "du_r", above)),
    ("heatflow", "minus_clausius_lhs"): ([], cell("clausius_lhs", below_minus)),
    # the colder side gains what the hotter loses, and tol + PAST more
    ("heatflow", "abs_total_energy_change"): (
        [],
        cell(lambda c: "du_r" if c["hotter"] == "S" else "du_s", lambda c, tol: -(c["du_s"] if c["hotter"] == "S" else c["du_r"]) + tol + PAST),
    ),
    # |tr(h rho'_S) - tr((h (x) 1) rho')|, a column the record checks but
    # does not write
    ("heatflow", "marginal_energy_deviation"): ([], cell("marginal_energy_deviation", above)),
    # S(rho') - S(rho), a column the records check but do not write
    **{(name, "abs_joint_entropy_change"): ([], cell("joint_entropy_change", above))
       for name in ("balance", "near-product", "decorrelate", "schrodinger", "sweep", "heatflow")},
    # the heat before its clamp at 0, a column the record checks but does
    # not write; row 1 is the maximally mixed state, which the thermal check
    # skips, and row 0 the thermal state, which the sign check skips
    ("damping", "minus_heat"): ([], cell("unclamped_heat", below_minus, row=1)),
    ("damping", "thermal_abs_heat"): ([], cell("unclamped_heat", above)),
}


def test_every_invariant_has_a_fault_case():
    pairs = {(name, inv.name) for name, experiment in experiments.EXPERIMENTS.items() for inv in experiment.invariants}
    assert set(FAULTS) == pairs
    assert set(SMALL) == set(experiments.EXPERIMENTS)


@pytest.mark.parametrize("name, invariant", list(FAULTS), ids=[f"{e}-{i}" for e, i in FAULTS])
def test_invariant_fires(capsys, monkeypatch, name, invariant):
    args, fault = FAULTS[name, invariant]
    argv = [name, *SMALL[name], *args]
    experiment = experiments.EXPERIMENTS[name]
    (tol,) = [inv.tol for inv in experiment.invariants if inv.name == invariant]

    assert main(argv) == 0
    assert f"# invariant.{invariant}.passed=true\n" in capsys.readouterr().out

    def faulty(values):
        columns, extra = experiment.run(values)
        return fault(columns, extra, tol)

    monkeypatch.setitem(experiments.EXPERIMENTS, name, dataclasses.replace(experiment, run=faulty))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert f"# invariant.{invariant}.passed=false\n" in out
    named = [line for line in err.splitlines() if f": {invariant} = " in line]
    assert named and all(line.startswith("arrowlab: invariant failure: ") for line in named)
    assert all(line.endswith(f" is not <= {tol!r}") for line in named)


def input_check_fires(capsys, argv, message):
    """The moved run exits 1, with one error line naming the check and no rows."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("arrowlab: error: ") and message in err
    assert err.count("\n") == 1


def test_hamiltonian_reconstruction_check_fires(capsys, monkeypatch):
    argv = ["crooks", *SMALL["crooks"]]
    assert main(argv) == 0
    capsys.readouterr()
    eigh = np.linalg.eigh
    # shifting every eigenvalue by the same amount moves V diag(evals) V+
    # away from H by that amount on the diagonal
    shift = PAST_FACTOR * core.RECONSTRUCTION_TOL

    def shifted(m):
        evals, evecs = eigh(m)
        return evals + shift, evecs

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    input_check_fires(capsys, argv, "eigendecomposition fails to reconstruct")


def test_distribution_sum_check_fires(capsys, monkeypatch):
    argv = ["crooks", *SMALL["crooks"]]
    assert main(argv) == 0
    capsys.readouterr()
    check = fluctuation.check_distributions
    scale = 1.0 + PAST_FACTOR * fluctuation.DISTRIBUTION_SUM_TOL
    monkeypatch.setattr(fluctuation, "check_distributions", lambda probs: check(probs * scale))
    input_check_fires(capsys, argv, "outcome probabilities sum to")
