"""Named experiments behind the CLI, one registry record each.

Each experiment is one :class:`Experiment` in :data:`EXPERIMENTS`: its
parameters, its columns with their powers of nats, its run invariants and a
``run`` that maps validated parameter values to ``(columns, extra)``.  Every
``run_*`` function returns that one shape: column name -> 1-D array in nats,
taken straight from the stacked kernels, and a dict of extra metadata.  A
run may return more columns than its record lists (``schrodinger`` runs
``balance``'s trials); the record's ``columns`` name the ones it writes and
their order.  All randomness derives from one seed via RandomSource
children, and rows are ordered by trial / grid index, never by completion
time, so a rerun with the same configuration reproduces them byte for byte.

Invariants are data.  Each invariant maps the columns, extra and config of
a run to one array of values, and :func:`check_invariants` tests the whole
array as ``not (value <= tol)``, so that a NaN counts as a failure, building
a row label only for a value that fails.  A lower bound is stated as an
upper bound on the negated value (``-sum <= BALANCE_TOL``).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import arrow, collisions, fluctuation
from .core import (
    STACK_ENTRIES,
    BipartitionLayout,
    Hamiltonian,
    RandomSource,
    draw_streams,
    gibbs_matrices,
    gibbs_state,
    haar_unitaries,
    mutual_informations,
    pure_state,
    random_density_matrices,
    random_density_operator,
    renyi2_of_matrix,
    trace_distances,
    trial_chunks,
    validate_states,
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


# ---------------------------------------------------------------------------
# registry records
# ---------------------------------------------------------------------------

FINITE = (-math.nextafter(math.inf, 0.0), math.nextafter(math.inf, 0.0))
POSITIVE = (math.nextafter(0.0, 1.0), FINITE[1])
UNIT = (0.0, 1.0)
AT_LEAST_ONE = (1, math.inf)
# a floor a two-qubit state can exceed: its mutual information is at most ln 4
BELOW_LN4 = (POSITIVE[0], math.nextafter(math.log(4.0), 0.0))
# a near-product search input passes the product check: its mutual
# information, about eps ln 2, is arrow.NON_PRODUCT_TOL at eps = 1.44e-6
SEARCH_EPSILON = (1e-5, 1.0)


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


Columns = dict[str, np.ndarray]
Result = tuple[Columns, dict]


@dataclass(frozen=True)
class Invariant:
    """``values(columns, extra, config)`` returns a run's values as one 1-D
    array, each of which must satisfy ``value <= tol``; the columns arrive as
    column name -> 1-D array of the rows' cells, in nats: every column the
    run returns, the record's own and any it does not write.  With ``where``,
    only the rows that ``where(columns)`` selects are checked, and
    ``values`` still returns one value per row.  A failing value is named by
    ``label`` formatted with its row index."""

    name: str
    tol: float
    values: Callable[[Columns, dict, dict], np.ndarray]
    where: Callable[[Columns], np.ndarray] | None = None
    label: str = "row {}"


@dataclass(frozen=True)
class Experiment:
    """One experiment: its parameters, its columns mapped to their power of
    nats (0 for a column that is not an entropy) in output order, its
    invariants, and a ``run`` from validated parameter values to
    ``(columns, extra)``, whose columns include every one listed here."""

    params: tuple[Param, ...]
    columns: dict[str, int]
    run: Callable[[dict], Result]
    invariants: tuple[Invariant, ...] = ()


def check_invariants(experiment: Experiment, columns: Columns, extra: dict, config: dict) -> tuple[dict, list[str]]:
    """Evaluate every invariant of a run on its (nats) columns.

    Returns ``{name: {"worst", "tol", "passed"}}``, where ``worst`` is the
    largest value (NaN if any value is NaN, None if the run yielded none),
    and one failure line per value that is not ``<= tol``, in row order.
    """
    summary, failures = {}, []
    for inv in experiment.invariants:
        values = np.asarray(inv.values(columns, extra, config), dtype=float)
        rows = np.arange(len(values))
        if inv.where is not None:
            selected = inv.where(columns)
            values, rows = values[selected], rows[selected]
        failing = np.flatnonzero(~(values <= inv.tol))
        failures.extend(f"{inv.label.format(rows[i])}: {inv.name} = {values[i].item()!r} is not <= {inv.tol!r}" for i in failing)
        worst = values.max().item() if len(values) else None
        summary[inv.name] = {"worst": worst, "tol": inv.tol, "passed": not len(failing)}
    return summary, failures


def _each_row(name: str, tol: float, value: Callable[[Columns], np.ndarray], where: Callable[[Columns], np.ndarray] | None = None) -> Invariant:
    """Invariant ``value(columns) <= tol`` on every row selected by ``where``."""
    return Invariant(name, tol, lambda columns, extra, config: value(columns), where)


def _joint_only(name: str, tol: float, label: str, value: Callable[[dict], float]) -> Invariant:
    """Invariant ``value(extra) <= tol`` on a joint-mode collide run; reduced mode yields none."""
    return Invariant(name, tol, lambda columns, extra, config: [value(extra)] if config["mode"] == "joint" else [], label=label)


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


# the thread counts that OpenBLAS, OpenMP and MKL read at load
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy lets other threads run only during a gufunc loop of more than this
# many outputs (NPY_BEGIN_THREADS_THRESHOLDED in
# numpy/_core/include/numpy/ndarraytypes.h): the eigvalsh of a stack of n
# D x D matrices has n*D, and so has the tau of its QR's geqrf step
NUMPY_GIL_THRESHOLD = 500


def _helper_count(chunks: int) -> int:
    """How many helper threads join the calling thread on ``chunks`` chunks:
    one per core that BLAS leaves idle, c // b - 1, capped at chunks - 1.

    c is the number of usable cores and b the BLAS thread count, the
    largest positive integer that THREAD_VARIABLES are set to; with none of
    them set to one, BLAS takes every core (b = c) and no helper runs."""
    if chunks < 2:
        return 0
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    counts = []
    for var in THREAD_VARIABLES:
        try:
            counts.append(int(os.environ.get(var, "")))
        except ValueError:
            continue
    blas = max((n for n in counts if n > 0), default=cores)
    return max(0, min(cores // blas - 1, chunks - 1))


def _at_least_one_trial(trials: int) -> None:
    """Reject a stacked run of fewer than one trial, which has no stack to
    run; the CLI's trials domain starts at 1, the library's runs check."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _by_chunks(trials: int, dim: int, run_chunk: Callable[[range], Columns]) -> Columns:
    """The columns of ``run_chunk`` over consecutive chunks of the trials,
    each chunk run as one stack (see :func:`core.trial_chunks`), joined in
    trial order with one ``np.concatenate`` per column.  A trial's largest
    matrices are ``dim`` x ``dim``.

    The calling thread takes the chunks in order, and where BLAS is pinned
    below the usable cores, :func:`_helper_count` helper threads, started
    for this call and joined before it returns, take them with it from the
    same iterator.  A helper that cannot start leaves its chunks to the
    threads that run.  The threads overlap only where numpy releases the
    GIL, in loops of more than NUMPY_GIL_THRESHOLD outputs, so a run shared
    with helpers holds at least NUMPY_GIL_THRESHOLD // dim + 1 trials per
    chunk, as long as that leaves two chunks or more; at 16x16 that is two
    trials, where a run on one thread holds one.  Each chunk runs under a
    copy of the caller's context, so numpy's ``errstate`` holds on every
    thread, and its result or exception is kept by chunk index; once a
    chunk raises, no further chunk is taken.  A chunk does the same
    arithmetic on any thread and in any stack, and trial k draws from
    ``root.child(k)`` whatever chunk it falls in, so the rows do not depend
    on the helpers.  When a chunk fails with a ``ValueError``, the first
    failing chunk in trial order reruns its trials one at a time on the
    calling thread, so the error raised is the one the first failing trial
    raises on its own; any other exception of that chunk is raised as it
    is.  Fewer than one trial raises a ``ValueError``.
    """
    _at_least_one_trial(trials)
    least = NUMPY_GIL_THRESHOLD // dim + 1
    spare = _helper_count(trials)
    # cut at numpy's threshold where helpers can join and two chunks remain
    chunks = trial_chunks(trials, dim**2, least if trials > least and spare else 1)
    pending = iter(enumerate(chunks))
    lock = threading.Lock()
    context = contextvars.copy_context()
    results: list[Columns | None] = [None] * len(chunks)
    failures: dict[int, BaseException] = {}

    def work() -> None:
        while True:
            with lock:
                taken = None if failures else next(pending, None)
            if taken is None:
                return
            index, chunk = taken
            try:
                results[index] = context.copy().run(run_chunk, chunk)
            except BaseException as exc:  # re-raised on the calling thread
                with lock:
                    failures[index] = exc

    helpers = []
    for _ in range(min(spare, len(chunks) - 1)):
        helper = threading.Thread(target=work, name="arrowlab-chunks", daemon=True)
        try:
            helper.start()
        except RuntimeError:  # out of threads, as under a pids limit: those running take the chunks
            break
        helpers.append(helper)
    work()
    for helper in helpers:
        helper.join()
    if failures:
        index = min(failures)
        if isinstance(failures[index], ValueError):
            for k in chunks[index]:
                run_chunk(range(k, k + 1))
        # popped, not bound to a local: the traceback keeps this frame
        raise failures.pop(index)
    return {name: np.concatenate([columns[name] for columns in results]) for name in results[0]}


def _report_columns(report: arrow.EntropyBalanceReport) -> Columns:
    """A stacked balance report's fields as columns of the same names."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


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
    """Entropy-balance identity on random product inputs under Haar
    unitaries, with the census of relative arrow directions: the columns of
    both ``balance`` and ``schrodinger``, which run the same trials."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> Columns:
        rep = _product_balances(layout, root.children(chunk))
        alignments = np.array([a.value for a in arrow.schrodinger_checks(rep.schrodinger_product)])
        return {"trial": np.array(chunk), **_report_columns(rep), "balance_deviation": np.abs(rep.sum - rep.mi_final), "alignment": alignments}

    return _by_chunks(trials, layout.dim, run_chunk), {}


def run_near_product(epsilon: float) -> Result:
    """Near-product construction plus its analytic decorrelating unitary."""
    rho, u = arrow.near_product_state(epsilon), arrow.decorrelating_unitary()
    rep = arrow.state_balances(rho.matrix[None], rho.spectrum[None], arrow.TWO_QUBITS, u.matrix[None])
    analytic = np.array([-near_product_mutual_information(epsilon)])
    columns = {"epsilon": np.array([epsilon]), **_report_columns(rep), "analytic_sum": analytic, "sum_deviation": np.abs(rep.sum - analytic)}
    return columns, {}


def run_decorrelate() -> Result:
    """Classically correlated pair mapped to an exact product state; the
    entropy sum drops by ln 2."""
    rho, u = arrow.classical_correlated_state(), arrow.classical_decorrelating_unitary()
    rep = arrow.state_balances(rho.matrix[None], rho.spectrum[None], arrow.TWO_QUBITS, u.matrix[None])
    return _report_columns(rep), {}


def _demo_bound(demo: str, epsilon: float) -> float:
    """The analytic optimum of a named demo's entropy sum."""
    return -near_product_mutual_information(epsilon) if demo == "near-product" else -math.log(2.0)


def _random_states(trials: int, min_mutual_information: float, layout: BipartitionLayout, root: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Trial k's random state: the first full-rank random state, in draw
    order after trial k - 1's, whose mutual information exceeds the floor,
    draw i coming from ``root.child(10**6 + i)``.  A trial that rejects
    MAX_REJECTED_DRAWS draws raises.  Returns the states (trials, D, D) and
    their spectra, the accepted rows of the stacks that validated them.

    The draws are made, validated and scored in stacks
    ``root.children(range(10**6 + i, 10**6 + i + m))`` and walked in order:
    the first stack holds one draw per trial, and the size doubles after a
    stack with a rejection, up to one chunk of STACK_ENTRIES entries.  Each
    draw's score has the bits it has in a stack of one.
    """
    cap = max(1, STACK_ENTRIES // layout.dim**2)
    matrices, spectra, drawn, size = [], [], 0, min(trials, cap)
    rejected, largest = 0, -math.inf
    while True:
        m = random_density_matrices(layout.dim, layout.dim, root.children(range(10**6 + drawn, 10**6 + drawn + size)))
        lam = validate_states(m)
        informations = mutual_informations(m, lam, layout).tolist()
        drawn += size
        for candidate, spectrum, information in zip(m, lam, informations):
            if information > min_mutual_information:
                matrices.append(candidate)
                spectra.append(spectrum)
                if len(matrices) == trials:
                    return np.stack(matrices), np.stack(spectra)
                rejected, largest = 0, -math.inf
                continue
            rejected += 1
            largest = max(largest, information)
            if rejected == MAX_REJECTED_DRAWS:
                raise ValueError(
                    f"no random state with mutual information above min-mi {min_mutual_information} "
                    f"in {MAX_REJECTED_DRAWS} draws; the draws are full-rank random two-qubit states, "
                    f"and the largest mutual information drawn was {largest!r}"
                )
        # a stack ends before the last trial's state only after a rejection, or at the cap
        size = min(2 * size, cap)


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

    demo='random' draws non-product two-qubit states; a named demo's one
    state, whose achievable sum bounds the optimizer, is every trial's.
    Every trial's state is drawn first, then all trials are searched in one
    call, trial k drawing its kicks from ``root.child(k).child(1)``.  The
    extra metadata counts the descent probes run and converged over all
    trials, and their accepted steps.  Fewer than one trial raises a
    ``ValueError``.
    """
    _at_least_one_trial(trials)
    layout = arrow.TWO_QUBITS
    root = RandomSource(seed)
    if demo == "random":
        rho, spectra = _random_states(trials, min_mutual_information, layout, root)
    elif demo in ("near-product", "classical"):
        state = arrow.near_product_state(epsilon) if demo == "near-product" else arrow.classical_correlated_state()
        rho, spectra = (np.broadcast_to(a, (trials, *a.shape)) for a in (state.matrix, state.spectrum))
    else:
        raise ValueError(f"unknown demo {demo!r}")
    with warnings.catch_warnings():
        # a sum that stays >= 0 is a row (improved = false), not a warning
        warnings.filterwarnings("ignore", arrow.NO_DECREASE_WARNING, UserWarning)
        result = arrow.search_entropy_decreasing_unitaries(
            rho, spectra, layout, root.children(range(trials)).child(1), restarts, max_iterations
        )
    report = result.report
    columns = {"trial": np.arange(trials), "mi_initial": report.mi_initial, "achieved_sum": report.sum,
               "improved": report.sum < 0.0, "best_restart": result.best_restarts}
    probes = [probe for own in result.probes for probe in own]
    extra = {
        "probes_run": len(probes),
        "probes_converged": sum(probe.converged for probe in probes),
        "probe_steps": sum(len(probe.sums) - 1 for probe in probes),
    }
    return columns, extra


def _above_feasible_bound(columns: Columns, extra: dict, config: dict) -> np.ndarray:
    if config["demo"] == "random":
        return np.empty(0)
    return columns["achieved_sum"] - _demo_bound(config["demo"], config["epsilon"])


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
    rep = arrow.weak_coupling_sweep(h_s, h_r, h_int, grid)
    axes = np.meshgrid(grid.coupling_strengths, grid.correlation_strengths, grid.evolution_times, indexing="ij")
    g, eps, t = (axis.ravel() for axis in axes)
    columns = {"g": g, "epsilon": eps, "t": t, "sum": rep.sum, "joint_entropy_change": rep.joint_entropy_change}
    return columns, {"planned_cells": grid.size}


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
    recursion; those numbers are recomputable from the same seed.  The
    reversal distances, and the trajectory's, take one ``eigvalsh`` each.
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
        recovered = [collisions.reverse_collisions(joint_final, gate)]
        if count >= 2:
            order = [int(i) for i in root.child(1).generator().permutation(count)]
            if order == list(range(count - 1, -1, -1)):
                order = order[::-1]
            recovered.append(collisions.reverse_collisions(joint_final, gate, order=order))
        recovery = trace_distances(np.stack(recovered), rho0.matrix).tolist()
        extra["recovered_trace_distance"] = recovery[0]
        # a unitary conserves every Renyi entropy; Renyi-2 is additive on the
        # product input and costs O(D^2) on the final joint state
        extra["joint_renyi2_initial"] = renyi2_of_matrix(rho0.matrix) + count * renyi2_of_matrix(xi.matrix)
        extra["joint_renyi2_final"] = renyi2_of_matrix(joint_final)
        # fresh ancillas make the 2x2 recursion exact, so the joint state
        # must reduce to its state after every collision
        recursion = collisions.run_collisions(rho0, spec, gate)
        extra["trajectory_deviation"] = trace_distances(record.states, recursion.states).max().item()
        if count >= 2:
            extra["shuffled_order"] = order
            extra["shuffled_trace_distance"] = recovery[1]
    elif mode == "reduced":
        record = collisions.run_collisions(rho0, spec, gate)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if len(record.entropies) >= 3:
        report = collisions.convergence_report(record)
        extra["fitted_rate"] = report.rate
        extra["fit_residual"] = report.residual
        extra["exact_convergence"] = report.exact
    columns = {"step": np.arange(len(record.entropies)), "entropy": record.entropies, "distance_to_ancilla": record.distances_to_ancilla}
    return columns, extra


def run_crooks(trials: int, beta: float, dim_s: int, dim_r: int, seed: int) -> Result:
    """Detailed ratio, work-average and entropy-production identities on
    random two-point protocols."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> Columns:
        rep = fluctuation.crooks_checks(fluctuation.random_protocols(layout, beta, root.children(chunk)))
        lhs, rhs, kl, avg = rep.jarzynski_lhs, rep.jarzynski_rhs, rep.entropy_production, rep.average_sigma
        return {"trial": np.array(chunk), "delta_f": rep.delta_f, "max_ratio_deviation": rep.max_deviation,
                "jarzynski_lhs": lhs, "jarzynski_rhs": rhs, "jarzynski_deviation": np.abs(lhs - rhs) / rhs,
                "kl_divergence": kl, "average_sigma": avg, "identity_deviation": np.abs(kl - avg)}

    # the largest stacks hold a few d x d matrices per trial
    return _by_chunks(trials, layout.dim, run_chunk), {}


def run_jarzynski(trials: int, beta: float, dim_s: int, dim_r: int, seed: int) -> Result:
    """Work-average identity alone, on the same random protocol family."""
    layout = BipartitionLayout(dim_s, dim_r)
    root = RandomSource(seed)

    def run_chunk(chunk: range) -> Columns:
        lhs, rhs = fluctuation.jarzynski_checks(fluctuation.random_protocols(layout, beta, root.children(chunk)))
        return {"trial": np.array(chunk), "lhs": lhs, "rhs": rhs, "relative_deviation": np.abs(lhs - rhs) / rhs}

    return _by_chunks(trials, layout.dim, run_chunk), {}


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

    def run_chunk(chunk: range) -> Columns:
        beta_s, beta_r, times = zip(*draw_streams(root.children(chunk), _heatflow_draw))
        rep = fluctuation.heat_flow_trials(beta_s, beta_r, times)
        beta_s, beta_r = np.array(beta_s), np.array(beta_r)
        return {"trial": np.array(chunk), "beta_s": beta_s, "beta_r": beta_r, "hotter": np.where(beta_s < beta_r, "S", "R"),
                "du_s": rep.du_s, "du_r": rep.du_r, "ds_s": rep.balance.ds_s, "ds_r": rep.balance.ds_r,
                "t_s": rep.t_s, "t_r": rep.t_r, "clausius_lhs": rep.balance.sum,
                "joint_entropy_change": rep.balance.joint_entropy_change,
                "marginal_energy_deviation": rep.marginal_energy_deviation}

    return _by_chunks(trials, arrow.TWO_QUBITS.dim, run_chunk), {}


def run_damping(trials: int, beta: float, seed: int) -> Result:
    """Relative-entropy heat of damping canonical and random states into a
    thermal bath; row 0 is the bath's own thermal state.  The states are
    one stack, validated once (:func:`fluctuation.damping_heats`)."""
    # the excited state |1><1| is the qubit Hamiltonian diag(0, 1) itself
    h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
    states = np.concatenate(
        (gibbs_matrices(h, [beta, 0.0]), h.matrix[None], random_density_matrices(2, 2, RandomSource(seed).children(range(trials))))
    )
    kinds = np.array(["thermal", "maximally-mixed", "excited"] + ["random"] * trials)
    heat, unclamped = fluctuation.damping_heats(states, h, beta)
    return {"trial": np.arange(len(kinds)), "kind": kinds, "heat": heat, "unclamped_heat": unclamped}, {}


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_BALANCE = {"ds_s": 1, "ds_r": 1, "sum": 1, "mi_initial": 1, "mi_final": 1}
_MINUS_SUM = _each_row("minus_sum", BALANCE_TOL, lambda c: -c["sum"])
_MI_FINAL = _each_row("mi_final", FINAL_MI_TOL, lambda c: c["mi_final"])
# a unitary conserves the joint entropy: S(rho') from the final state's own
# spectrum against S(rho), read from the run's joint_entropy_change column
_JOINT_ENTROPY = _each_row("abs_joint_entropy_change", BALANCE_TOL, lambda c: np.abs(c["joint_entropy_change"]))

EXPERIMENTS: dict[str, Experiment] = {
    "balance": Experiment(
        params=(_trials(100, "number of random product inputs"), _DIMS),
        columns={"trial": 0, **_BALANCE, "balance_deviation": 1, "alignment": 0},
        run=lambda v: run_balance(v["trials"], *v["dims"], v["seed"]),
        invariants=(_MINUS_SUM, _each_row("balance_deviation", BALANCE_TOL, lambda c: c["balance_deviation"]), _JOINT_ENTROPY),
    ),
    "near-product": Experiment(
        params=(Param("epsilon", "float", 0.1, "mixing weight of the correlated part", UNIT),),
        columns={"epsilon": 0, **_BALANCE, "analytic_sum": 1, "sum_deviation": 1},
        run=lambda v: run_near_product(v["epsilon"]),
        invariants=(_each_row("sum_deviation", BALANCE_TOL, lambda c: c["sum_deviation"]), _MI_FINAL, _JOINT_ENTROPY),
    ),
    "decorrelate": Experiment(
        params=(),
        columns=dict(_BALANCE),
        run=lambda v: run_decorrelate(),
        invariants=(_each_row("sum_deviation", BALANCE_TOL, lambda c: np.abs(c["sum"] + math.log(2.0))), _MI_FINAL, _JOINT_ENTROPY),
    ),
    "search": Experiment(
        params=(
            _trials(20, "number of optimizer runs"),
            Param("restarts", "int", 4, "spectral-assignment answer plus restarts-1 descent probes", AT_LEAST_ONE),
            Param("max-iter", "int", 300, "descent steps per probe", AT_LEAST_ONE),
            Param("min-mi", "float", 0.01, "mutual-information floor for random inputs", BELOW_LN4),
            Param("demo", "choice", "random", "input family", ("random", "near-product", "classical")),
            Param("epsilon", "float", 0.1, "epsilon for demo=near-product", SEARCH_EPSILON),
        ),
        columns={"trial": 0, "mi_initial": 1, "achieved_sum": 1, "improved": 0, "best_restart": 0},
        run=lambda v: run_search(
            v["trials"], v["restarts"], v["max-iter"], v["min-mi"], v["seed"], demo=v["demo"], epsilon=v["epsilon"]
        ),
        invariants=(
            Invariant("achieved_sum_above_bound", FEASIBLE_MARGIN, _above_feasible_bound),
            # dS_S + dS_R = dI >= -I_0: the sum falls at most by the initial correlations
            _each_row("decrease_beyond_mi_initial", BALANCE_TOL, lambda c: -(c["achieved_sum"] + c["mi_initial"])),
        ),
    ),
    "schrodinger": Experiment(
        params=(_trials(200, "number of random product inputs"), _DIMS),
        columns={"trial": 0, "ds_s": 1, "ds_r": 1, "schrodinger_product": 2, "alignment": 0, "sum": 1},
        run=lambda v: run_balance(v["trials"], *v["dims"], v["seed"]),
        invariants=(_MINUS_SUM, _JOINT_ENTROPY),
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
            _each_row("uncoupled_abs_sum", BALANCE_TOL, lambda c: np.abs(c["sum"]), where=lambda c: c["g"] == 0.0),
            _each_row("product_minus_sum", BALANCE_TOL, lambda c: -c["sum"], where=lambda c: c["epsilon"] == 0.0),
            _JOINT_ENTROPY,
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
            _each_row(column, RATIO_TOL, lambda c, name=column: c[name])
            for column in ("max_ratio_deviation", "jarzynski_deviation", "identity_deviation")
        ),
    ),
    "jarzynski": Experiment(
        params=(_trials(100, "number of random protocols"), _beta(1.0), _DIMS),
        columns={"trial": 0, "lhs": 0, "rhs": 0, "relative_deviation": 0},
        run=lambda v: run_jarzynski(v["trials"], v["beta"], *v["dims"], v["seed"]),
        invariants=(_each_row("relative_deviation", RATIO_TOL, lambda c: c["relative_deviation"]),),
    ),
    "heatflow": Experiment(
        params=(_trials(50, "number of random Gibbs pairs"),),
        columns={"trial": 0, "beta_s": 0, "beta_r": 0, "hotter": 0, "du_s": 0, "du_r": 0,
                 "ds_s": 1, "ds_r": 1, "t_s": 0, "t_r": 0, "clausius_lhs": 1},
        run=lambda v: run_heatflow(v["trials"], v["seed"]),
        invariants=(
            _each_row("hotter_energy_gain", HOTTER_GAIN_TOL, lambda c: np.where(c["hotter"] == "S", c["du_s"], c["du_r"])),
            _each_row("minus_clausius_lhs", BALANCE_TOL, lambda c: -c["clausius_lhs"]),
            # the exchange commutes with h_S + h_R: what one side loses, the other gains
            _each_row("abs_total_energy_change", HOTTER_GAIN_TOL, lambda c: np.abs(c["du_s"] + c["du_r"])),
            # tr(h rho'_S) through the partial trace against tr((h (x) 1) rho'),
            # a column the record checks but does not write: a trace over
            # the wrong factor reads the other side's energy
            _each_row("marginal_energy_deviation", HOTTER_GAIN_TOL, lambda c: c["marginal_energy_deviation"]),
            _JOINT_ENTROPY,
        ),
    ),
    "damping": Experiment(
        params=(_trials(10, "number of random states"), _beta(LN3, "inverse temperature of the bath")),
        columns={"trial": 0, "kind": 0, "heat": 1},
        run=lambda v: run_damping(v["trials"], v["beta"], v["seed"]),
        invariants=(
            # the heat before its clamp at 0, a column the record checks but
            # does not write: a heat that rounds below 0 prints as 0
            _each_row("minus_heat", HEAT_SIGN_TOL, lambda c: -c["unclamped_heat"], where=lambda c: c["kind"] != "thermal"),
            _each_row("thermal_abs_heat", THERMAL_HEAT_TOL, lambda c: np.abs(c["unclamped_heat"]), where=lambda c: c["kind"] == "thermal"),
        ),
    ),
}
