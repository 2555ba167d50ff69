"""Named experiments behind the CLI, one registry record each.

Each experiment is one :class:`Experiment` in :data:`EXPERIMENTS`: its
parameters, its columns with their powers of nats, its run invariants and a
``run`` that maps validated parameter values to ``(rows, extra)``.  Every
``run_*`` function returns that one shape: metric rows in column order and a
dict of extra metadata.  All randomness derives from one seed via
RandomSource children, and rows are ordered by trial / grid index, never by
completion time, so a rerun with the same configuration reproduces them byte
for byte.

Invariants are data.  Each yields (row label, value) pairs from the rows,
extra and config of a run, and :func:`check_invariants` tests every value as
``not (value <= tol)``, so that a NaN counts as a failure.  A lower bound is
stated as an upper bound on the negated value (``-sum <= BALANCE_TOL``).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import arrow, collisions, fluctuation
from .core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    draw_streams,
    gibbs_state,
    haar_unitaries,
    mutual_information,
    pure_state,
    random_density_matrices,
    random_density_operator,
    renyi2_of_matrix,
    trace_distance,
    trial_chunks,
)

BALANCE_TOL = 1e-9
FINAL_MI_TOL = 1e-10
RATIO_TOL = 1e-9
RECOVERY_TOL = 1e-9
RENYI2_TOL = 1e-9
FEASIBLE_MARGIN = 1e-6
HOTTER_GAIN_TOL = 1e-12
HEAT_SIGN_TOL = 0.0
THERMAL_HEAT_TOL = 1e-12
# the joint trace sums 2^n terms per entry: up to 2e-14 seen at 11 collisions
TRAJECTORY_TOL = 1e-10
# random draws per search trial that may fall below --min-mi before the run
# gives up
MAX_REJECTED_DRAWS = 10_000

LN3 = 1.0986122886681098

Row = tuple
Result = tuple[list[Row], dict]


# ---------------------------------------------------------------------------
# registry records
# ---------------------------------------------------------------------------

FINITE = (-math.nextafter(math.inf, 0.0), math.nextafter(math.inf, 0.0))
POSITIVE = (math.nextafter(0.0, 1.0), FINITE[1])
UNIT = (0.0, 1.0)
AT_LEAST_ONE = (1, math.inf)
# a floor a two-qubit state can exceed: its mutual information is at most ln 4
BELOW_LN4 = (POSITIVE[0], math.nextafter(math.log(4.0), 0.0))


@dataclass(frozen=True)
class Param:
    """``domain`` holds a choice's choices, or closed bounds (lo, hi) on an int or float,
    on each entry of a non-empty float_list or on each factor of dims; a str has none."""

    key: str
    kind: str  # int | float | float_list | dims | choice | str
    default: object
    help: str
    domain: tuple = ()

    def rule(self) -> str:
        """The domain in words, as a rejection and --help state it."""
        if self.kind == "choice":
            return f"must be one of {', '.join(self.domain)}"
        lo, hi = self.domain
        words = {FINITE: "finite", POSITIVE: "finite and > 0"}.get(self.domain, f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]")
        noun = {"int": "an integer ", "float_list": "a non-empty list, each value ", "dims": "AxB, each factor an integer "}
        return "must be " + noun.get(self.kind, "") + words

    def check(self, value) -> str | None:
        """None when ``value`` lies in the domain, else :meth:`rule`."""
        if self.kind == "str":
            return None
        if self.kind == "choice":
            ok = value in self.domain
        else:
            entries = value if self.kind in ("float_list", "dims") else (value,)
            ok = bool(entries) and all(self.domain[0] <= x <= self.domain[1] for x in entries)
        return None if ok else self.rule()


@dataclass(frozen=True)
class Invariant:
    """``values(rows, extra, config)`` yields (row label, value) pairs, each of
    which must satisfy ``value <= tol``; rows arrive as column-keyed dicts."""

    name: str
    tol: float
    values: Callable[[list[dict], dict, dict], Iterable[tuple[str, float]]]


@dataclass(frozen=True)
class Experiment:
    """One experiment: its parameters, its columns mapped to their power of
    nats (0 for a column that is not an entropy), its invariants, and a
    ``run`` from validated parameter values to ``(rows, extra)``."""

    params: tuple[Param, ...]
    columns: dict[str, int]
    run: Callable[[dict], Result]
    invariants: tuple[Invariant, ...] = ()


def check_invariants(experiment: Experiment, rows: list[Row], extra: dict, config: dict) -> tuple[dict, list[str]]:
    """Evaluate every invariant of a run on its (nats) rows.

    Returns ``{name: {"worst", "tol", "passed"}}``, where ``worst`` is the
    largest value (NaN if any value is NaN, None if the run yielded none),
    and one failure line per value that is not ``<= tol``.
    """
    named = [dict(zip(experiment.columns, row)) for row in rows]
    summary, failures = {}, []
    for inv in experiment.invariants:
        pairs = [(label, float(value)) for label, value in inv.values(named, extra, config)]
        failing = [f"{label}: {inv.name} = {value!r} is not <= {inv.tol!r}" for label, value in pairs if not value <= inv.tol]
        worst = float(np.max([value for _, value in pairs])) if pairs else None
        summary[inv.name] = {"worst": worst, "tol": inv.tol, "passed": not failing}
        failures.extend(failing)
    return summary, failures


def _each_row(name: str, tol: float, value: Callable[[dict], float], where: Callable[[dict], bool] = lambda r: True) -> Invariant:
    """Invariant ``value(row) <= tol`` on every row selected by ``where``."""
    return Invariant(name, tol, lambda rows, extra, config: ((f"row {i}", value(r)) for i, r in enumerate(rows) if where(r)))


def _joint_only(name: str, tol: float, label: str, value: Callable[[dict], float]) -> Invariant:
    """Invariant ``value(extra) <= tol`` on a joint-mode collide run; reduced mode yields none."""
    return Invariant(name, tol, lambda rows, extra, config: [(label, value(extra))] if config["mode"] == "joint" else [])


def _trials(default: int, help: str) -> Param:
    return Param("trials", "int", default, help, AT_LEAST_ONE)


_DIMS = Param("dims", "dims", (2, 2), "system and rest dimensions", (2, 16))


def _beta(default: float, help: str = "inverse temperature") -> Param:
    return Param("beta", "float", default, help, POSITIVE)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def near_product_mutual_information(epsilon: float) -> float:
    """Analytic mutual information 2 H2(eps/2) - H2(eps) of the near-product family."""
    return 2.0 * _binary_entropy(epsilon / 2.0) - _binary_entropy(epsilon)


def _by_chunks(trials: int, entries_per_trial: int, run_chunk: Callable[[range], list[Row]]) -> list[Row]:
    """Rows of ``run_chunk`` over consecutive chunks of the trials, each
    chunk run as one stack (see :func:`core.trial_chunks`).

    Trial k draws from ``root.child(k)`` whatever chunk it falls in.  When a
    chunk fails, its trials rerun one at a time, so the error raised is the
    one the first failing trial raises on its own.
    """
    rows = []
    for chunk in trial_chunks(trials, entries_per_trial):
        try:
            rows += run_chunk(chunk)
        except ValueError:
            for k in chunk:
                run_chunk(range(k, k + 1))
            raise
    return rows


def _product_balances(layout: BipartitionLayout, sources: RandomSource) -> arrow.EntropyBalanceReport:
    """Stacked entropy balances of random product inputs under Haar
    unitaries: per source, the two factors from its children 0 and 1 and
    the unitary from child 2.  The inputs are validated and evolved
    through their factors (:func:`arrow.product_balances`)."""
    rho_s = random_density_matrices(layout.dim_s, layout.dim_s, sources.child(0))
    rho_r = random_density_matrices(layout.dim_r, layout.dim_r, sources.child(1))
    u = haar_unitaries(layout.dim, sources.child(2))
    return arrow.product_balances(rho_s, rho_r, layout, u)[0]


def run_balance(trials: int, dim_s: int, dim_r: int, seed: int) -> Result:
    """Entropy-balance identity on random product inputs under Haar unitaries."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> list[Row]:
        rep = _product_balances(layout, root.children(chunk))
        alignments = arrow.schrodinger_checks(rep.schrodinger_product)
        columns = (rep.ds_s, rep.ds_r, rep.sum, rep.mi_initial, rep.mi_final, np.abs(rep.sum - rep.mi_final))
        return [(k, *cells, a.value) for k, cells, a in zip(chunk, zip(*(c.tolist() for c in columns)), alignments)]

    return _by_chunks(trials, layout.dim**2, run_chunk), {}


def run_near_product(epsilon: float) -> Result:
    """Near-product construction plus its analytic decorrelating unitary."""
    rep = arrow.entropy_balance(arrow.near_product_state(epsilon), arrow.TWO_QUBITS, arrow.decorrelating_unitary())
    analytic = -near_product_mutual_information(epsilon)
    dev = abs(rep.sum - analytic)
    return [(epsilon, rep.ds_s, rep.ds_r, rep.sum, rep.mi_initial, rep.mi_final, analytic, dev)], {}


def run_decorrelate() -> Result:
    """Classically correlated pair mapped to an exact product state."""
    rep = arrow.classical_correlated_demo()
    return [(rep.ds_s, rep.ds_r, rep.sum, rep.mi_initial, rep.mi_final)], {}


def _demo_state(demo: str, epsilon: float):
    """A named demo input and the analytic optimum of its entropy sum."""
    if demo == "near-product":
        return arrow.near_product_state(epsilon), -near_product_mutual_information(epsilon)
    if demo == "classical":
        return arrow.classical_correlated_state(), -math.log(2.0)
    raise ValueError(f"unknown demo {demo!r}")


def run_search(
    trials: int,
    restarts: int,
    max_iterations: int,
    min_mutual_information: float,
    seed: int,
    demo: str,
    epsilon: float,
) -> Result:
    """Optimizer hunting entropy-decreasing unitaries.

    demo='random' draws non-product two-qubit states; the named demos rerun
    the analytic constructions, whose achievable sums bound the optimizer.
    Every trial's state is drawn first, then all trials are searched in one
    call, trial k drawing its kicks from ``root.child(k).child(1)``.  The
    extra metadata counts the descent probes run and converged over all
    trials, and their accepted steps.
    """
    layout = arrow.TWO_QUBITS
    root = RandomSource(seed)
    if demo != "random":
        states = [_demo_state(demo, epsilon)[0]] * trials
    else:
        states = []
        draw_index = 0
        for _ in range(trials):
            largest = -math.inf
            for _ in range(MAX_REJECTED_DRAWS):
                rho = random_density_operator(layout.dim, layout.dim, root.child(10**6 + draw_index))
                draw_index += 1
                information = mutual_information(rho, layout)
                if information > min_mutual_information:
                    break
                largest = max(largest, information)
            else:
                raise ValueError(
                    f"no random state with mutual information above min-mi {min_mutual_information} "
                    f"in {MAX_REJECTED_DRAWS} draws; the draws are full-rank random two-qubit states, "
                    f"and the largest mutual information drawn was {largest!r}"
                )
            states.append(rho)
    with warnings.catch_warnings():
        # a sum that stays >= 0 is a row (improved = false), not a warning
        warnings.filterwarnings("ignore", arrow.NO_DECREASE_WARNING, UserWarning)
        result = arrow.search_entropy_decreasing_unitaries(
            states, layout, root.children(range(trials)).child(1), restarts, max_iterations
        )
    report = result.report
    rows = list(zip(range(trials), report.mi_initial.tolist(), report.sum.tolist(), (report.sum < 0.0).tolist(), result.best_restarts.tolist()))
    probes = [probe for own in result.probes for probe in own]
    extra = {
        "probes_run": len(probes),
        "probes_converged": sum(probe.converged for probe in probes),
        "probe_steps": sum(len(probe.sums) - 1 for probe in probes),
    }
    return rows, extra


def _above_feasible_bound(rows: list[dict], extra: dict, config: dict):
    if config["demo"] == "random":
        return ()
    bound = _demo_state(config["demo"], config["epsilon"])[1]
    return ((f"row {i}", r["achieved_sum"] - bound) for i, r in enumerate(rows))


def run_schrodinger(trials: int, dim_s: int, dim_r: int, seed: int) -> Result:
    """Census of relative arrow directions for product inputs under Haar unitaries."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> list[Row]:
        rep = _product_balances(layout, root.children(chunk))
        alignments = arrow.schrodinger_checks(rep.schrodinger_product)
        columns = zip(rep.ds_s.tolist(), rep.ds_r.tolist(), rep.schrodinger_product.tolist(), alignments, rep.sum.tolist())
        return [(k, ds_s, ds_r, product, a.value, total) for k, (ds_s, ds_r, product, a, total) in zip(chunk, columns)]

    return _by_chunks(trials, layout.dim**2, run_chunk), {}


def run_sweep(
    g_values: tuple[float, ...],
    eps_values: tuple[float, ...],
    t_values: tuple[float, ...],
    gap_s: float,
    gap_r: float,
) -> Result:
    """Coupling-strength phase map: detuned qubit gaps with a swap coupling."""
    h_s = Hamiltonian(np.diag([0.0, gap_s]).astype(complex))
    h_r = Hamiltonian(np.diag([0.0, gap_r]).astype(complex))
    h_int = Hamiltonian(collisions.SWAP)
    grid = arrow.SweepGrid(g_values, eps_values, t_values)
    sums = arrow.weak_coupling_sweep(h_s, h_r, h_int, grid).ravel().tolist()
    cells = itertools.product(grid.coupling_strengths, grid.correlation_strengths, grid.evolution_times)
    return [(*cell, s) for cell, s in zip(cells, sums)], {"planned_cells": grid.size}


def run_collide(
    count: int,
    theta: float,
    beta: float,
    seed: int,
    mode: str,
    init: str,
) -> Result:
    """Collision trajectory, convergence fit and (joint mode) exact reversal.

    The extra metadata holds the fitted rate, the reversal distances, the
    joint state's Renyi-2 entropy before and after the collisions and the
    joint trajectory's largest trace distance from the reduced-mode
    recursion; those numbers are recomputable from the same seed.
    """
    h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
    xi = gibbs_state(h, beta)
    spec = collisions.ReservoirSpec(ancilla_state=xi, count=count)
    gate = collisions.partial_swap_unitary(theta)
    root = RandomSource(seed)
    if init == "excited":
        rho0 = pure_state([0.0, 1.0])
    elif init == "random":
        rho0 = random_density_operator(2, 2, root.child(0))
    else:
        raise ValueError(f"unknown init {init!r}")

    extra: dict = {}
    if mode == "joint":
        record, joint_final = collisions.run_collisions_joint(rho0, spec, gate)
        recovered = collisions.reverse_collisions(joint_final, gate)
        extra["recovered_trace_distance"] = trace_distance(recovered, rho0)
        # a unitary conserves every Renyi entropy; Renyi-2 is additive on the
        # product input and costs O(D^2) on the final joint state
        extra["joint_renyi2_initial"] = renyi2_of_matrix(rho0.matrix) + count * renyi2_of_matrix(xi.matrix)
        extra["joint_renyi2_final"] = renyi2_of_matrix(joint_final)
        # fresh ancillas make the 2x2 recursion exact, so the joint state
        # must reduce to its state after every collision
        recursion = collisions.run_collisions(rho0, spec, gate)
        extra["trajectory_deviation"] = max(map(trace_distance, record.states, recursion.states))
        if count >= 2:
            order = [int(i) for i in root.child(1).generator().permutation(count)]
            if order == list(range(count - 1, -1, -1)):
                order = order[::-1]
            shuffled = collisions.reverse_collisions(joint_final, gate, order=order)
            extra["shuffled_order"] = order
            extra["shuffled_trace_distance"] = trace_distance(shuffled, rho0)
    elif mode == "reduced":
        record = collisions.run_collisions(rho0, spec, gate)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if len(record.entropies) >= 3:
        report = collisions.convergence_report(record)
        extra["fitted_rate"] = report.rate
        extra["fit_residual"] = report.residual
        extra["exact_convergence"] = report.exact
    rows = [(k, record.entropies[k], record.distances_to_ancilla[k]) for k in range(len(record.entropies))]
    return rows, extra


def run_crooks(trials: int, beta: float, dim_s: int, dim_r: int, seed: int) -> Result:
    """Detailed ratio, work-average and entropy-production identities on
    random two-point protocols."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> list[Row]:
        rows = []
        stack = fluctuation.random_protocols(layout, beta, root.children(chunk))
        for k, report in zip(chunk, fluctuation.crooks_checks(stack)):
            lhs, rhs = report.jarzynski_lhs, report.jarzynski_rhs
            kl, avg = report.entropy_production, report.average_sigma
            rows.append((k, report.delta_f, report.max_deviation, lhs, rhs, abs(lhs - rhs) / rhs, kl, avg, abs(kl - avg)))
        return rows

    # the largest stacks hold a few d x d matrices per trial
    return _by_chunks(trials, layout.dim**2, run_chunk), {}


def run_jarzynski(trials: int, beta: float, dim_s: int, dim_r: int, seed: int) -> Result:
    """Work-average identity alone, on the same random protocol family."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> list[Row]:
        stack = fluctuation.random_protocols(layout, beta, root.children(chunk))
        lhs, rhs = fluctuation.jarzynski_checks(stack)
        return [(k, lh, rh, abs(lh - rh) / rh) for k, lh, rh in zip(chunk, lhs.tolist(), rhs.tolist())]

    return _by_chunks(trials, layout.dim**2, run_chunk), {}


def _heatflow_draw(g: np.random.Generator) -> tuple[float, float, float]:
    """(beta_s, beta_r, time) of one heat-flow trial, from the start of its
    stream."""
    beta_hot = g.uniform(0.2, 1.0)
    beta_cold = beta_hot + g.uniform(0.5, 2.0)
    hot_is_s = bool(g.integers(2))
    beta_s, beta_r = (beta_hot, beta_cold) if hot_is_s else (beta_cold, beta_hot)
    return beta_s, beta_r, g.uniform(0.5, 1.2)


def run_heatflow(trials: int, seed: int) -> Result:
    """Random product-Gibbs pairs under an energy-conserving exchange; the
    hotter side must not gain energy and the Clausius combination must be
    non-negative."""
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> list[Row]:
        beta_s, beta_r, times = zip(*draw_streams(root.children(chunk), _heatflow_draw))
        rep = fluctuation.heat_flow_trials(beta_s, beta_r, times)
        columns = (rep.du_s, rep.du_r, rep.balance.ds_s, rep.balance.ds_r, rep.t_s, rep.t_r, rep.balance.sum)
        return [
            (k, b_s, b_r, "S" if b_s < b_r else "R", *cells)
            for k, b_s, b_r, cells in zip(chunk, beta_s, beta_r, zip(*(c.tolist() for c in columns)))
        ]

    return _by_chunks(trials, arrow.TWO_QUBITS.dim**2, run_chunk), {}


def run_damping(trials: int, beta: float, seed: int) -> Result:
    """Relative-entropy heat of damping canonical and random states into a
    thermal bath; row 0 is the bath's own thermal state."""
    h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
    root = RandomSource(seed)
    named = [
        ("thermal", gibbs_state(h, beta)),
        ("maximally-mixed", gibbs_state(h, 0.0)),
        ("excited", pure_state([0.0, 1.0])),
    ]
    named += [("random", DensityOperator(m)) for m in random_density_matrices(2, 2, root.children(range(trials)))]
    return [(k, kind, fluctuation.damping_heat(state, h, beta)) for k, (kind, state) in enumerate(named)], {}


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_BALANCE = {"ds_s": 1, "ds_r": 1, "sum": 1, "mi_initial": 1, "mi_final": 1}
_MINUS_SUM = _each_row("minus_sum", BALANCE_TOL, lambda r: -r["sum"])
_MI_FINAL = _each_row("mi_final", FINAL_MI_TOL, lambda r: r["mi_final"])

EXPERIMENTS: dict[str, Experiment] = {
    "balance": Experiment(
        params=(_trials(100, "number of random product inputs"), _DIMS),
        columns={"trial": 0, **_BALANCE, "balance_deviation": 1, "alignment": 0},
        run=lambda v: run_balance(v["trials"], *v["dims"], v["seed"]),
        invariants=(_MINUS_SUM, _each_row("balance_deviation", BALANCE_TOL, lambda r: r["balance_deviation"])),
    ),
    "near-product": Experiment(
        params=(Param("epsilon", "float", 0.1, "mixing weight of the correlated part", UNIT),),
        columns={"epsilon": 0, **_BALANCE, "analytic_sum": 1, "sum_deviation": 1},
        run=lambda v: run_near_product(v["epsilon"]),
        invariants=(_each_row("sum_deviation", BALANCE_TOL, lambda r: r["sum_deviation"]), _MI_FINAL),
    ),
    "decorrelate": Experiment(
        params=(),
        columns=dict(_BALANCE),
        run=lambda v: run_decorrelate(),
        invariants=(_each_row("sum_deviation", BALANCE_TOL, lambda r: abs(r["sum"] + math.log(2.0))), _MI_FINAL),
    ),
    "search": Experiment(
        params=(
            _trials(20, "number of optimizer runs"),
            Param("restarts", "int", 4, "spectral-assignment answer plus restarts-1 descent probes", AT_LEAST_ONE),
            Param("max-iter", "int", 300, "descent steps per probe", AT_LEAST_ONE),
            Param("min-mi", "float", 0.01, "mutual-information floor for random inputs", BELOW_LN4),
            Param("demo", "choice", "random", "input family", ("random", "near-product", "classical")),
            Param("epsilon", "float", 0.1, "epsilon for demo=near-product", UNIT),
        ),
        columns={"trial": 0, "mi_initial": 1, "achieved_sum": 1, "improved": 0, "best_restart": 0},
        run=lambda v: run_search(
            v["trials"], v["restarts"], v["max-iter"], v["min-mi"], v["seed"], demo=v["demo"], epsilon=v["epsilon"]
        ),
        invariants=(
            Invariant("achieved_sum_above_bound", FEASIBLE_MARGIN, _above_feasible_bound),
            # dS_S + dS_R = dI >= -I_0: the sum falls at most by the initial correlations
            _each_row("decrease_beyond_mi_initial", BALANCE_TOL, lambda r: -(r["achieved_sum"] + r["mi_initial"])),
        ),
    ),
    "schrodinger": Experiment(
        params=(_trials(200, "number of random product inputs"), _DIMS),
        columns={"trial": 0, "ds_s": 1, "ds_r": 1, "schrodinger_product": 2, "alignment": 0, "sum": 1},
        run=lambda v: run_schrodinger(v["trials"], *v["dims"], v["seed"]),
        invariants=(_MINUS_SUM,),
    ),
    "sweep": Experiment(
        params=(
            Param("g-values", "float_list", (0.0, 0.25, 0.5, 1.0, 2.0), "coupling strengths", FINITE),
            Param("eps-values", "float_list", (0.0, 0.25, 0.5), "correlation strengths", UNIT),
            Param("t-values", "float_list", (0.5, 1.0, 2.0, 4.0), "evolution times", FINITE),
            Param("gap-s", "float", 1.0, "system qubit gap", FINITE),
            Param("gap-r", "float", 1.5, "rest qubit gap", FINITE),
        ),
        columns={"g": 0, "epsilon": 0, "t": 0, "sum": 1},
        run=lambda v: run_sweep(v["g-values"], v["eps-values"], v["t-values"], gap_s=v["gap-s"], gap_r=v["gap-r"]),
        invariants=(
            # local evolution leaves the entropy sum at zero; a product input keeps it >= 0
            _each_row("uncoupled_abs_sum", BALANCE_TOL, lambda r: abs(r["sum"]), where=lambda r: r["g"] == 0.0),
            _each_row("product_minus_sum", BALANCE_TOL, lambda r: -r["sum"], where=lambda r: r["epsilon"] == 0.0),
        ),
    ),
    "collide": Experiment(
        params=(
            # the joint state holds the system and one qubit per collision
            Param("collisions", "int", 8, "number of fresh-ancilla collisions", (1, collisions.JOINT_DIM_CAP.bit_length() - 2)),
            Param("theta", "float", math.pi / 4.0, "partial-swap angle", FINITE),
            _beta(LN3, "inverse temperature of the reservoir qubits"),
            Param("mode", "choice", "joint", "simulation mode", ("joint", "reduced")),
            Param("init", "choice", "excited", "initial system state", ("excited", "random")),
        ),
        columns={"step": 0, "entropy": 1, "distance_to_ancilla": 0},
        run=lambda v: run_collide(v["collisions"], v["theta"], v["beta"], v["seed"], mode=v["mode"], init=v["init"]),
        invariants=(
            _joint_only("reversal_distance", RECOVERY_TOL, "reversal", lambda x: x["recovered_trace_distance"]),
            _joint_only(
                "joint_renyi2_deviation", RENYI2_TOL, "joint state", lambda x: abs(x["joint_renyi2_final"] - x["joint_renyi2_initial"])
            ),
            _joint_only("trajectory_deviation", TRAJECTORY_TOL, "trajectory", lambda x: x["trajectory_deviation"]),
        ),
    ),
    "crooks": Experiment(
        params=(_trials(100, "number of random protocols"), _beta(1.0), _DIMS),
        columns={"trial": 0, "delta_f": 0, "max_ratio_deviation": 0, "jarzynski_lhs": 0, "jarzynski_rhs": 0,
                 "jarzynski_deviation": 0, "kl_divergence": 1, "average_sigma": 1, "identity_deviation": 1},
        run=lambda v: run_crooks(v["trials"], v["beta"], *v["dims"], v["seed"]),
        invariants=tuple(
            _each_row(column, RATIO_TOL, lambda r, c=column: r[c])
            for column in ("max_ratio_deviation", "jarzynski_deviation", "identity_deviation")
        ),
    ),
    "jarzynski": Experiment(
        params=(_trials(100, "number of random protocols"), _beta(1.0), _DIMS),
        columns={"trial": 0, "lhs": 0, "rhs": 0, "relative_deviation": 0},
        run=lambda v: run_jarzynski(v["trials"], v["beta"], *v["dims"], v["seed"]),
        invariants=(_each_row("relative_deviation", RATIO_TOL, lambda r: r["relative_deviation"]),),
    ),
    "heatflow": Experiment(
        params=(_trials(50, "number of random Gibbs pairs"),),
        columns={"trial": 0, "beta_s": 0, "beta_r": 0, "hotter": 0, "du_s": 0, "du_r": 0,
                 "ds_s": 1, "ds_r": 1, "t_s": 0, "t_r": 0, "clausius_lhs": 1},
        run=lambda v: run_heatflow(v["trials"], v["seed"]),
        invariants=(
            _each_row("hotter_energy_gain", HOTTER_GAIN_TOL, lambda r: r["du_s"] if r["hotter"] == "S" else r["du_r"]),
            _each_row("minus_clausius_lhs", BALANCE_TOL, lambda r: -r["clausius_lhs"]),
        ),
    ),
    "damping": Experiment(
        params=(_trials(10, "number of random states"), _beta(LN3, "inverse temperature of the bath")),
        columns={"trial": 0, "kind": 0, "heat": 1},
        run=lambda v: run_damping(v["trials"], v["beta"], v["seed"]),
        invariants=(
            _each_row("minus_heat", HEAT_SIGN_TOL, lambda r: -r["heat"]),
            _each_row("thermal_abs_heat", THERMAL_HEAT_TOL, lambda r: abs(r["heat"]), where=lambda r: r["kind"] == "thermal"),
        ),
    ),
}
