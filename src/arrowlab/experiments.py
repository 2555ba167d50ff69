"""Named experiments behind the CLI: thin, deterministic orchestration.

Every experiment function takes plain parameters, derives all randomness
from one seed via RandomSource children, and returns ``(columns, rows,
failures)`` where ``failures`` lists violated run invariants; ``run_search``
and ``run_collide`` append a dict of extra metadata.  Invariants are checked
as ``not (value <= tolerance)`` so that a NaN counts as a failure.  Rows are
ordered by trial / grid index, never by completion time, so a rerun with
the same configuration reproduces them byte for byte.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import arrow, collisions, fluctuation
from .core import (
    BipartitionLayout,
    Hamiltonian,
    RandomSource,
    entropy_of_matrix,
    gibbs_state,
    haar_random_unitary,
    mutual_information,
    pure_state,
    random_density_operator,
    tensor_product,
    trace_distance,
    von_neumann_entropy,
)

BALANCE_TOL = 1e-9
FINAL_MI_TOL = 1e-10
RATIO_TOL = 1e-9
RECOVERY_TOL = 1e-9
SHUFFLE_FLOOR = 1e-2
FEASIBLE_MARGIN = 1e-6

Row = tuple
Result = tuple[list[str], list[Row], list[str]]


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def near_product_mutual_information(epsilon: float) -> float:
    """Analytic mutual information 2 H2(eps/2) - H2(eps) of the near-product family."""
    return 2.0 * _binary_entropy(epsilon / 2.0) - _binary_entropy(epsilon)


def _random_product_trial(layout: BipartitionLayout, src: RandomSource):
    rho = tensor_product(
        random_density_operator(layout.dim_s, layout.dim_s, src.child(0)),
        random_density_operator(layout.dim_r, layout.dim_r, src.child(1)),
    )
    u = haar_random_unitary(layout.dim, src.child(2))
    return arrow.entropy_balance(rho, layout, u)


def run_balance(trials: int, dim_s: int, dim_r: int, seed: int) -> Result:
    """Entropy-balance identity on random product inputs under Haar unitaries."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)
    columns = ["trial", "ds_s", "ds_r", "sum", "mi_initial", "mi_final", "balance_deviation", "alignment"]
    rows, failures = [], []
    for k in range(trials):
        rep = _random_product_trial(layout, root.child(k))
        dev = abs(rep.sum - rep.mi_final)
        rows.append((k, rep.ds_s, rep.ds_r, rep.sum, rep.mi_initial, rep.mi_final, dev, arrow.schrodinger_check(rep).value))
        if not rep.sum >= -BALANCE_TOL:
            failures.append(f"trial {k}: entropy sum {rep.sum} below -{BALANCE_TOL}")
        if not dev <= BALANCE_TOL:
            failures.append(f"trial {k}: |sum - final mutual information| = {dev}")
    return columns, rows, failures


def run_near_product(epsilon: float) -> Result:
    """Near-product construction plus its analytic decorrelating unitary."""
    rep = arrow.entropy_balance(arrow.near_product_state(epsilon), arrow.TWO_QUBITS, arrow.decorrelating_unitary())
    analytic = -near_product_mutual_information(epsilon)
    columns = ["epsilon", "ds_s", "ds_r", "sum", "mi_initial", "mi_final", "analytic_sum", "sum_deviation"]
    dev = abs(rep.sum - analytic)
    rows = [(epsilon, rep.ds_s, rep.ds_r, rep.sum, rep.mi_initial, rep.mi_final, analytic, dev)]
    failures = []
    if not dev <= BALANCE_TOL:
        failures.append(f"entropy sum deviates from analytic value by {dev}")
    if not rep.mi_final <= FINAL_MI_TOL:
        failures.append(f"final mutual information {rep.mi_final} not erased")
    return columns, rows, failures


def run_decorrelate() -> Result:
    """Classically correlated pair mapped to an exact product state."""
    rep = arrow.classical_correlated_demo()
    columns = ["ds_s", "ds_r", "sum", "mi_initial", "mi_final"]
    rows = [(rep.ds_s, rep.ds_r, rep.sum, rep.mi_initial, rep.mi_final)]
    failures = []
    if not abs(rep.sum + math.log(2.0)) <= BALANCE_TOL:
        failures.append(f"entropy sum {rep.sum} is not -ln 2")
    if not rep.mi_final <= FINAL_MI_TOL:
        failures.append(f"final mutual information {rep.mi_final} not erased")
    return columns, rows, failures


def _demo_state(demo: str, epsilon: float):
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
    demo: str = "random",
    epsilon: float = 0.1,
) -> tuple[list[str], list[Row], list[str], dict]:
    """Optimizer hunting entropy-decreasing unitaries.

    demo='random' draws non-product two-qubit states; the named demos rerun
    the analytic constructions, whose achievable sums bound the optimizer.
    Returns an extra metadata dict with the descent probes run and converged
    over all trials.
    """
    layout = arrow.TWO_QUBITS
    root = RandomSource(seed)
    columns = ["trial", "mi_initial", "achieved_sum", "improved", "best_restart"]
    rows, failures = [], []
    extra = {"probes_run": 0, "probes_converged": 0}
    draw_index = 0
    for k in range(trials):
        src = root.child(k)
        if demo == "random":
            while True:
                rho = random_density_operator(layout.dim, layout.dim, root.child(10**6 + draw_index))
                draw_index += 1
                if mutual_information(rho, layout) > min_mutual_information:
                    break
            bound = None
        else:
            rho, bound = _demo_state(demo, epsilon)
        config = arrow.UnitarySearchConfig(
            max_iterations=max_iterations,
            restarts=restarts,
            rng=src.child(1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = arrow.search_entropy_decreasing_unitary(rho, layout, config)
        rows.append((k, res.report.mi_initial, res.achieved_sum, res.improved, res.best_restart))
        extra["probes_run"] += res.probes_run
        extra["probes_converged"] += res.probes_converged
        if bound is not None and not res.achieved_sum <= bound + FEASIBLE_MARGIN:
            failures.append(f"trial {k}: achieved sum {res.achieved_sum} above feasible bound {bound}")
    return columns, rows, failures, extra


def run_schrodinger(trials: int, dim_s: int, dim_r: int, seed: int) -> Result:
    """Census of relative arrow directions for product inputs under Haar unitaries."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)
    columns = ["trial", "ds_s", "ds_r", "schrodinger_product", "alignment", "sum"]
    rows, failures = [], []
    for k in range(trials):
        rep = _random_product_trial(layout, root.child(k))
        rows.append((k, rep.ds_s, rep.ds_r, rep.schrodinger_product, arrow.schrodinger_check(rep).value, rep.sum))
        if not rep.sum >= -BALANCE_TOL:
            failures.append(f"trial {k}: entropy sum {rep.sum} below -{BALANCE_TOL}")
    return columns, rows, failures


DEFAULT_GAP_S = 1.0
DEFAULT_GAP_R = 1.5


def run_sweep(
    g_values: tuple[float, ...],
    eps_values: tuple[float, ...],
    t_values: tuple[float, ...],
    gap_s: float = DEFAULT_GAP_S,
    gap_r: float = DEFAULT_GAP_R,
) -> Result:
    """Coupling-strength phase map: detuned qubit gaps with a swap coupling."""
    h_s = Hamiltonian(np.diag([0.0, gap_s]).astype(complex))
    h_r = Hamiltonian(np.diag([0.0, gap_r]).astype(complex))
    h_int = Hamiltonian(collisions.SWAP)
    grid = arrow.SweepGrid(g_values, eps_values, t_values)
    points = arrow.weak_coupling_sweep(h_s, h_r, h_int, grid)
    columns = ["g", "epsilon", "t", "sum"]
    rows = [(p.coupling, p.epsilon, p.time, p.sum) for p in points]
    failures = []
    for p in points:
        if p.coupling == 0.0 and not abs(p.sum) <= BALANCE_TOL:
            failures.append(f"local evolution changed the entropy sum by {p.sum} at eps={p.epsilon}, t={p.time}")
        if p.epsilon == 0.0 and not p.sum >= -BALANCE_TOL:
            failures.append(f"product input gave entropy sum {p.sum} at g={p.coupling}, t={p.time}")
    return columns, rows, failures


def run_collide(
    count: int,
    theta: float,
    beta: float,
    seed: int,
    mode: str = "joint",
    init: str = "excited",
) -> tuple[list[str], list[Row], list[str], dict]:
    """Collision trajectory, convergence fit and (joint mode) exact reversal.

    Returns an extra metadata dict with the fitted rate and the reversal
    distances; those numbers are recomputable from the same seed.
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
    failures: list[str] = []
    if mode == "joint":
        record, joint_final = collisions.run_collisions_joint(rho0, spec, gate)
        recovered = collisions.reverse_collisions(joint_final, gate)
        recover_dist = trace_distance(recovered, rho0)
        extra["recovered_trace_distance"] = recover_dist
        extra["joint_entropy_initial"] = von_neumann_entropy(rho0) + count * von_neumann_entropy(xi)
        extra["joint_entropy_final"] = entropy_of_matrix(joint_final)
        if not recover_dist <= RECOVERY_TOL:
            failures.append(f"reversal missed the initial state by {recover_dist}")
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
    columns = ["step", "entropy", "distance_to_ancilla"]
    rows = [(k, record.entropies[k], record.distances_to_ancilla[k]) for k in range(len(record.entropies))]
    return columns, rows, failures, extra


def run_crooks(trials: int, beta: float, dim_s: int, dim_r: int, seed: int) -> Result:
    """Detailed ratio, work-average and entropy-production identities on
    random two-point protocols."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)
    columns = [
        "trial",
        "delta_f",
        "max_ratio_deviation",
        "jarzynski_lhs",
        "jarzynski_rhs",
        "jarzynski_deviation",
        "kl_divergence",
        "average_sigma",
        "identity_deviation",
    ]
    rows, failures = [], []
    for k in range(trials):
        protocol = fluctuation.random_protocol(layout, beta, root.child(k))
        report = fluctuation.crooks_check(protocol)
        lhs, rhs = report.jarzynski_lhs, report.jarzynski_rhs
        kl, avg = report.entropy_production, report.average_sigma
        jarzynski_dev = abs(lhs - rhs) / rhs
        identity_dev = abs(kl - avg)
        rows.append((k, report.delta_f, report.max_deviation, lhs, rhs, jarzynski_dev, kl, avg, identity_dev))
        if not report.max_deviation <= RATIO_TOL:
            failures.append(f"trial {k}: detailed ratio deviation {report.max_deviation}")
        if not jarzynski_dev <= RATIO_TOL:
            failures.append(f"trial {k}: work-average deviation {jarzynski_dev}")
        if not identity_dev <= RATIO_TOL:
            failures.append(f"trial {k}: entropy-production identity deviation {identity_dev}")
    return columns, rows, failures


def run_jarzynski(trials: int, beta: float, dim_s: int, dim_r: int, seed: int) -> Result:
    """Work-average identity alone, on the same random protocol family."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)
    columns = ["trial", "lhs", "rhs", "relative_deviation"]
    rows, failures = [], []
    for k in range(trials):
        protocol = fluctuation.random_protocol(layout, beta, root.child(k))
        delta_f = fluctuation.free_energy_difference(protocol)
        lhs, rhs = fluctuation.jarzynski_check(fluctuation.forward_distribution(protocol), beta, delta_f)
        dev = abs(lhs - rhs) / rhs
        rows.append((k, lhs, rhs, dev))
        if not dev <= RATIO_TOL:
            failures.append(f"trial {k}: work-average deviation {dev}")
    return columns, rows, failures


def run_heatflow(trials: int, seed: int) -> Result:
    """Random product-Gibbs pairs under an energy-conserving exchange; the
    hotter side must not gain energy and the Clausius combination must be
    non-negative."""
    root = RandomSource(seed)
    columns = [
        "trial",
        "beta_s",
        "beta_r",
        "hotter",
        "du_s",
        "du_r",
        "ds_s",
        "ds_r",
        "t_s",
        "t_r",
        "clausius_lhs",
    ]
    rows, failures = [], []
    for k in range(trials):
        g = root.child(k).generator()
        beta_hot = g.uniform(0.2, 1.0)
        beta_cold = beta_hot + g.uniform(0.5, 2.0)
        hot_is_s = bool(g.integers(2))
        beta_s, beta_r = (beta_hot, beta_cold) if hot_is_s else (beta_cold, beta_hot)
        t = fluctuation.heat_flow_trial(beta_s, beta_r, time=g.uniform(0.5, 1.2))
        rows.append((k, t.beta_s, t.beta_r, t.hotter, t.du_s, t.du_r, t.ds_s, t.ds_r, t.t_s, t.t_r, t.clausius_lhs))
        if not t.du_hotter <= 1e-12:
            failures.append(f"trial {k}: hotter subsystem gained energy {t.du_hotter}")
        if not t.clausius_lhs >= -BALANCE_TOL:
            failures.append(f"trial {k}: Clausius combination {t.clausius_lhs} negative")
    return columns, rows, failures


def run_damping(trials: int, beta: float, seed: int) -> Result:
    """Relative-entropy heat of damping canonical and random states into a
    thermal bath."""
    h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
    root = RandomSource(seed)
    columns = ["trial", "kind", "heat"]
    rows, failures = [], []
    named = [
        ("thermal", gibbs_state(h, beta)),
        ("maximally-mixed", gibbs_state(h, 0.0)),
        ("excited", pure_state([0.0, 1.0])),
    ]
    for k, (kind, state) in enumerate(named):
        heat = fluctuation.damping_heat(state, h, beta)
        rows.append((k, kind, heat))
        if not heat >= 0.0:
            failures.append(f"trial {k}: negative damping heat {heat}")
    if not abs(rows[0][2]) <= 1e-12:
        failures.append(f"thermal state reports nonzero damping heat {rows[0][2]}")
    for k in range(trials):
        state = random_density_operator(2, 2, root.child(k))
        heat = fluctuation.damping_heat(state, h, beta)
        rows.append((len(named) + k, "random", heat))
        if not heat >= 0.0:
            failures.append(f"random trial {k}: negative damping heat {heat}")
    return columns, rows, failures
