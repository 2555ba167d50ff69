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

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import arrow, collisions, fluctuation
from .core import (
    BipartitionLayout,
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
# random draws per search trial that may fall below --min-mi before the run
# gives up; two-qubit mutual information never exceeds ln 4
MAX_REJECTED_DRAWS = 10_000

LN3 = 1.0986122886681098

Row = tuple
Result = tuple[list[Row], dict]


# ---------------------------------------------------------------------------
# registry records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    key: str
    kind: str  # int | float | float_list | dims | choice | str
    default: object
    help: str
    choices: tuple[str, ...] = ()
    validate: Callable[[object], str | None] | None = None


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


def _rule(ok: Callable[[object], bool], message: str) -> Callable[[object], str | None]:
    return lambda v: None if ok(v) else message


_at_least_one = _rule(lambda v: v >= 1, "must be >= 1")
_unit_interval = _rule(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_positive = _rule(lambda v: math.isfinite(v) and v > 0.0, "must be finite and > 0")
_finite = _rule(math.isfinite, "must be finite")
_finite_list = _rule(lambda v: bool(v) and all(math.isfinite(x) for x in v), "must be a non-empty finite list")
_unit_list = _rule(lambda v: bool(v) and all(0.0 <= x <= 1.0 for x in v), "every value must lie in [0, 1]")
_dims_range = _rule(lambda v: all(2 <= d <= 16 for d in v), "each factor must lie in [2, 16]")
_collision_range = _rule(lambda v: 1 <= v <= 11, "must lie in [1, 11] (joint dimension cap 2^12)")


def _trials(default: int, help: str) -> Param:
    return Param("trials", "int", default, help, validate=_at_least_one)


_DIMS = Param("dims", "dims", (2, 2), "bipartition as AxB, e.g. 2x2", validate=_dims_range)


def _beta(default: float, help: str = "inverse temperature") -> Param:
    return Param("beta", "float", default, help, validate=_positive)


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


def _product_balances(layout: BipartitionLayout, sources: list[RandomSource]) -> arrow.EntropyBalanceReport:
    """Stacked entropy balances of random product inputs under Haar
    unitaries: per source, the two factors from its children 0 and 1 and
    the unitary from child 2.  The inputs are validated through their
    factors (:func:`arrow.product_balances`)."""
    rho_s = random_density_matrices(layout.dim_s, layout.dim_s, [src.child(0) for src in sources])
    rho_r = random_density_matrices(layout.dim_r, layout.dim_r, [src.child(1) for src in sources])
    u = haar_unitaries(layout.dim, [src.child(2) for src in sources])
    return arrow.product_balances(rho_s, rho_r, layout, u)[0]


def run_balance(trials: int, dim_s: int, dim_r: int, seed: int) -> Result:
    """Entropy-balance identity on random product inputs under Haar unitaries."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> list[Row]:
        rep = _product_balances(layout, [root.child(k) for k in chunk])
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
    The extra metadata counts the descent probes run and converged over all
    trials.
    """
    layout = arrow.TWO_QUBITS
    root = RandomSource(seed)
    rows = []
    extra = {"probes_run": 0, "probes_converged": 0}
    draw_index = 0
    for k in range(trials):
        if demo == "random":
            for _ in range(MAX_REJECTED_DRAWS):
                rho = random_density_operator(layout.dim, layout.dim, root.child(10**6 + draw_index))
                draw_index += 1
                if mutual_information(rho, layout) > min_mutual_information:
                    break
            else:
                raise ValueError(
                    f"no random state with mutual information above min-mi {min_mutual_information} "
                    f"in {MAX_REJECTED_DRAWS} draws (two-qubit mutual information is at most ln 4)"
                )
        else:
            rho, _ = _demo_state(demo, epsilon)
        config = arrow.UnitarySearchConfig(max_iterations=max_iterations, restarts=restarts, rng=root.child(k).child(1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = arrow.search_entropy_decreasing_unitary(rho, layout, config)
        rows.append((k, res.report.mi_initial, res.achieved_sum, res.improved, res.best_restart))
        extra["probes_run"] += res.probes_run
        extra["probes_converged"] += res.probes_converged
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
        rep = _product_balances(layout, [root.child(k) for k in chunk])
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
    points = arrow.weak_coupling_sweep(h_s, h_r, h_int, grid)
    return [(p.coupling, p.epsilon, p.time, p.sum) for p in points], {"planned_cells": grid.size}


def run_collide(
    count: int,
    theta: float,
    beta: float,
    seed: int,
    mode: str,
    init: str,
) -> Result:
    """Collision trajectory, convergence fit and (joint mode) exact reversal.

    The extra metadata holds the fitted rate, the reversal distances and the
    joint state's Renyi-2 entropy before and after the collisions; those
    numbers are recomputable from the same seed.
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
        stack = fluctuation.random_protocols(layout, beta, [root.child(k) for k in chunk])
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
        stack = fluctuation.random_protocols(layout, beta, [root.child(k) for k in chunk])
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
        beta_s, beta_r, times = zip(*draw_streams([root.child(k) for k in chunk], _heatflow_draw))
        return [
            (k, t.beta_s, t.beta_r, t.hotter, t.du_s, t.du_r, t.ds_s, t.ds_r, t.t_s, t.t_r, t.clausius_lhs)
            for k, t in zip(chunk, fluctuation.heat_flow_trials(beta_s, beta_r, times))
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
    named += [("random", random_density_operator(2, 2, root.child(k))) for k in range(trials)]
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
        params=(Param("epsilon", "float", 0.1, "mixing weight of the correlated part", validate=_unit_interval),),
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
            Param("restarts", "int", 4, "spectral-assignment answer plus restarts-1 descent probes", validate=_at_least_one),
            Param("max-iter", "int", 300, "descent steps per probe", validate=_at_least_one),
            Param("min-mi", "float", 0.01, "mutual-information floor for random inputs", validate=_positive),
            Param("demo", "choice", "random", "input family", choices=("random", "near-product", "classical")),
            Param("epsilon", "float", 0.1, "epsilon for demo=near-product", validate=_unit_interval),
        ),
        columns={"trial": 0, "mi_initial": 1, "achieved_sum": 1, "improved": 0, "best_restart": 0},
        run=lambda v: run_search(
            v["trials"], v["restarts"], v["max-iter"], v["min-mi"], v["seed"], demo=v["demo"], epsilon=v["epsilon"]
        ),
        invariants=(Invariant("achieved_sum_above_bound", FEASIBLE_MARGIN, _above_feasible_bound),),
    ),
    "schrodinger": Experiment(
        params=(_trials(200, "number of random product inputs"), _DIMS),
        columns={"trial": 0, "ds_s": 1, "ds_r": 1, "schrodinger_product": 2, "alignment": 0, "sum": 1},
        run=lambda v: run_schrodinger(v["trials"], *v["dims"], v["seed"]),
        invariants=(_MINUS_SUM,),
    ),
    "sweep": Experiment(
        params=(
            Param("g-values", "float_list", (0.0, 0.25, 0.5, 1.0, 2.0), "coupling strengths", validate=_finite_list),
            Param("eps-values", "float_list", (0.0, 0.25, 0.5), "correlation strengths", validate=_unit_list),
            Param("t-values", "float_list", (0.5, 1.0, 2.0, 4.0), "evolution times", validate=_finite_list),
            Param("gap-s", "float", 1.0, "system qubit gap", validate=_finite),
            Param("gap-r", "float", 1.5, "rest qubit gap", validate=_finite),
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
            Param("collisions", "int", 8, "number of fresh-ancilla collisions", validate=_collision_range),
            Param("theta", "float", math.pi / 4.0, "partial-swap angle", validate=_finite),
            _beta(LN3, "inverse temperature of the reservoir qubits"),
            Param("mode", "choice", "joint", "simulation mode", choices=("joint", "reduced")),
            Param("init", "choice", "excited", "initial system state", choices=("excited", "random")),
        ),
        columns={"step": 0, "entropy": 1, "distance_to_ancilla": 0},
        run=lambda v: run_collide(v["collisions"], v["theta"], v["beta"], v["seed"], mode=v["mode"], init=v["init"]),
        invariants=(
            Invariant(
                "reversal_distance",
                RECOVERY_TOL,
                lambda rows, extra, v: [("reversal", extra["recovered_trace_distance"])] if "recovered_trace_distance" in extra else [],
            ),
            Invariant(
                "joint_renyi2_deviation",
                RENYI2_TOL,
                lambda rows, extra, v: (
                    [("joint state", abs(extra["joint_renyi2_final"] - extra["joint_renyi2_initial"]))]
                    if "joint_renyi2_final" in extra
                    else []
                ),
            ),
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
