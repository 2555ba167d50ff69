"""Entropy balance under global unitaries and its deliberate violations.

The central identity: when a joint state starts as a product, the change in
the two local entropies under any global unitary equals the mutual
information of the final state, hence is non-negative.  This module computes
that balance, builds the canonical correlated states whose local entropies
can be pushed *down*, classifies the relative direction of the two local
arrows, and searches the unitary group for entropy-decreasing evolutions of
arbitrary correlated inputs.  The search runs on core's partial trace,
Hermitian draw and spectrum entropy; its probes stop at the module constant
PROBE_CONVERGENCE_TOL.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    basis_ket,
    marginal_entropies_of_stack,
    partial_traces,
    product_spectra,
    raise_first_failure,
    random_hermitians,
    spectrum_entropies,
    state_checks,
    tensor_products,
    unitaries_from_hamiltonian,
    unitary_checks,
    unitary_from_hamiltonian,
    validate_unitaries,
)

PRODUCT_INPUT_TOL = 1e-9
ALIGNMENT_TOL = 1e-10
NON_PRODUCT_TOL = 1e-6
BALANCE_CONSISTENCY_TOL = 1e-12


class Alignment(str, Enum):
    """Relative direction of the two local entropy changes."""

    ALIGNED = "aligned"
    ANTI_ALIGNED = "anti-aligned"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class EntropyBalanceReport:
    """Local entropy changes of one joint state under one global unitary,
    or of a stack of them, with every field an (n,) array.

    ``sum`` is dS_S + dS_R; for product inputs it must equal the final
    mutual information (that equality is validated on construction).
    """

    ds_s: float
    ds_r: float
    sum: float
    mi_initial: float
    mi_final: float
    schrodinger_product: float
    product_input: bool

    def __post_init__(self):
        gap = np.atleast_1d(np.subtract(self.sum, self.mi_final))
        raise_first_failure((
            (
                np.atleast_1d(np.abs(np.subtract(self.sum, np.add(self.ds_s, self.ds_r))) > BALANCE_CONSISTENCY_TOL),
                lambda k: "sum field is inconsistent with ds_s + ds_r",
            ),
            (
                np.atleast_1d(self.product_input) & (np.abs(gap) > PRODUCT_INPUT_TOL),
                lambda k: f"product input but sum - final mutual information = {gap[k]:.3e}",
            ),
        ))

    def trial(self, k: int) -> "EntropyBalanceReport":
        """Trial k of a stacked report, with Python scalars as fields."""
        return EntropyBalanceReport(**{f.name: getattr(self, f.name)[k].item() for f in fields(self)})


def entropy_balances(
    rho: np.ndarray,
    initial: tuple[np.ndarray, np.ndarray, np.ndarray],
    layout: BipartitionLayout,
    u: np.ndarray,
) -> tuple[EntropyBalanceReport, np.ndarray]:
    """Evolve a stack (n, D, D) of validated joint states by a stack of
    validated unitaries; return the stacked report and the evolved states
    U rho U+.

    ``initial`` holds the states' entropies (S(rho_S), S(rho_R), S(rho)),
    each (n,), as the caller already knows them: from a DensityOperator's
    spectrum, or for a product input from its factors (see
    :func:`product_balances`).  The final entropies are computed here, S of
    the final state from its own ``eigvalsh``: that is the one independent
    input to the product-input check sum == mi_final.
    """
    s_s0, s_r0, s0 = initial
    # U rho U+ of a valid state under a valid unitary is a state: no re-validation
    final = u @ rho @ u.conj().swapaxes(-1, -2)
    s_s1, s_r1 = marginal_entropies_of_stack(final, layout)
    s1 = spectrum_entropies(np.linalg.eigvalsh(final))
    ds_s = s_s1 - s_s0
    ds_r = s_r1 - s_r0
    mi_initial = s_s0 + s_r0 - s0
    report = EntropyBalanceReport(
        ds_s=ds_s,
        ds_r=ds_r,
        sum=ds_s + ds_r,
        mi_initial=mi_initial,
        mi_final=s_s1 + s_r1 - s1,
        schrodinger_product=ds_s * ds_r,
        product_input=mi_initial <= PRODUCT_INPUT_TOL,
    )
    return report, final


def product_balances(
    rho_s: np.ndarray, rho_r: np.ndarray, layout: BipartitionLayout, u: np.ndarray
) -> tuple[EntropyBalanceReport, np.ndarray, np.ndarray]:
    """Entropy balances of the product inputs rho_S (x) rho_R of two stacks
    of factors (n, d_S, d_S) and (n, d_R, d_R) under a stack of unitaries
    (n, D, D); return the stacked report, the products and the evolved
    states.

    The factors and the unitaries are validated here, each trial in the
    order rho_S, rho_R, U, so a stack raises what its first failing trial
    raises on its own.  The product of two states is a state, so it is built
    for the evolution only, never validated or decomposed: its spectrum is
    the sorted outer product of the factor spectra, and its marginal
    entropies are the factors' own.
    """
    if rho_s.shape[-1] != layout.dim_s or rho_r.shape[-1] != layout.dim_r or u.shape[-1] != layout.dim:
        raise ValueError("factor, layout and unitary dimensions must agree")
    spectra_s, checks_s = state_checks(rho_s)
    spectra_r, checks_r = state_checks(rho_r)
    raise_first_failure((*checks_s, *checks_r, *unitary_checks(u)))
    rho = tensor_products(rho_s, rho_r)
    initial = (
        spectrum_entropies(spectra_s),
        spectrum_entropies(spectra_r),
        spectrum_entropies(product_spectra(spectra_s, spectra_r)),
    )
    report, final = entropy_balances(rho, initial, layout, u)
    return report, rho, final


def entropy_balance(rho_joint: DensityOperator, layout: BipartitionLayout, u: UnitaryOperator) -> EntropyBalanceReport:
    """Evolve the joint state and report both local entropy changes."""
    if rho_joint.dim != layout.dim or u.dim != layout.dim:
        raise ValueError("state, layout and unitary dimensions must agree")
    rho = rho_joint.matrix[None]
    initial = (*marginal_entropies_of_stack(rho, layout), spectrum_entropies(rho_joint.spectrum[None]))
    report, _ = entropy_balances(rho, initial, layout, u.matrix[None])
    return report.trial(0)


def schrodinger_checks(products: np.ndarray, tol: float = ALIGNMENT_TOL) -> list[Alignment]:
    """Classify, for each Schrodinger product dS_S * dS_R of a stack, whether
    the two local arrows point the same way."""
    return [
        Alignment.ALIGNED if p > tol else Alignment.ANTI_ALIGNED if p < -tol else Alignment.DEGENERATE
        for p in products.tolist()
    ]


def schrodinger_check(report: EntropyBalanceReport, tol: float = ALIGNMENT_TOL) -> Alignment:
    """Classify whether the two local arrows point the same way."""
    return schrodinger_checks(np.array([report.schrodinger_product]), tol)[0]


# ---------------------------------------------------------------------------
# canonical two-qubit constructions
# ---------------------------------------------------------------------------

TWO_QUBITS = BipartitionLayout(2, 2)


def near_product_state(epsilon: float) -> DensityOperator:
    """(1 - eps)|00><00| + eps |psi+><psi+| with |psi+> = (|01> + |10>)/sqrt(2).

    Mutual information is 2 H2(eps/2) - H2(eps) in nats, strictly positive
    for eps in (0, 1].
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    ket00 = np.kron(basis_ket(2, 0), basis_ket(2, 0))
    psi_plus = (np.kron(basis_ket(2, 0), basis_ket(2, 1)) + np.kron(basis_ket(2, 1), basis_ket(2, 0))) / np.sqrt(2.0)
    m = (1.0 - epsilon) * np.outer(ket00, ket00) + epsilon * np.outer(psi_plus, psi_plus)
    return DensityOperator(m)


def decorrelating_unitary() -> UnitaryOperator:
    """Two-qubit unitary fixing |00> and |11> while mapping the triplet
    (|01>+|10>)/sqrt(2) -> |01> and the singlet (|01>-|10>)/sqrt(2) -> |10>.

    Applied to :func:`near_product_state` it produces an exact product state,
    so both correlations and the local entropy sum drop.
    """
    ket = [np.kron(basis_ket(2, a), basis_ket(2, b)) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    triplet = (ket[1] + ket[2]) / np.sqrt(2.0)
    singlet = (ket[1] - ket[2]) / np.sqrt(2.0)
    u = (
        np.outer(ket[0], ket[0].conj())
        + np.outer(ket[1], triplet.conj())
        + np.outer(ket[2], singlet.conj())
        + np.outer(ket[3], ket[3].conj())
    )
    return UnitaryOperator(u)


def classical_correlated_state() -> DensityOperator:
    """Equal classical mixture of |00><00| and |11><11| (mutual information ln 2)."""
    ket00 = np.kron(basis_ket(2, 0), basis_ket(2, 0))
    ket11 = np.kron(basis_ket(2, 1), basis_ket(2, 1))
    return DensityOperator(0.5 * np.outer(ket00, ket00) + 0.5 * np.outer(ket11, ket11))


def classical_decorrelating_unitary() -> UnitaryOperator:
    """Maps |11> -> |10> and fixes |00>; completed unitarily by |10> -> |11>
    and |01> -> |01> (a controlled flip of R on S)."""
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = 1.0  # |00> -> |00>
    u[1, 1] = 1.0  # |01> -> |01>
    u[3, 2] = 1.0  # |10> -> |11>
    u[2, 3] = 1.0  # |11> -> |10>
    return UnitaryOperator(u)


def classical_correlated_demo() -> EntropyBalanceReport:
    """Decorrelate two classically correlated bits; the entropy sum drops by ln 2."""
    return entropy_balance(classical_correlated_state(), TWO_QUBITS, classical_decorrelating_unitary())


# ---------------------------------------------------------------------------
# unitary-group search for entropy-decreasing evolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitarySearchConfig:
    """Knobs for the search: ``restarts`` counts the spectral-assignment
    answer plus ``restarts - 1`` descent probes, and ``max_iterations``
    bounds the steps of each probe."""

    max_iterations: int = 300
    restarts: int = 4
    rng: RandomSource = field(default_factory=lambda: RandomSource(0))

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class DescentProbe:
    """One kicked steepest descent on U(d).

    ``sums`` holds dS_S + dS_R at the kicked start and after every accepted
    step; ``converged`` is False when the step budget ran out first.
    """

    unitary: np.ndarray
    sums: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class UnitarySearchResult:
    unitary: UnitaryOperator
    achieved_sum: float
    report: EntropyBalanceReport
    best_restart: int
    probes: tuple[DescentProbe, ...]

    @property
    def improved(self) -> bool:
        return self.achieved_sum < 0.0

    @property
    def probes_run(self) -> int:
        return len(self.probes)

    @property
    def probes_converged(self) -> int:
        return sum(probe.converged for probe in self.probes)


# Frobenius norm of the random generator that kicks a probe off the answer
PROBE_KICK = 0.1
# a probe stops once an accepted step lowers the entropy sum by less than this
PROBE_CONVERGENCE_TOL = 1e-12
# Armijo sufficient-decrease fraction and the step halvings tried per iteration
ARMIJO_FRACTION = 0.5
ARMIJO_HALVINGS = 60
# marginal eigenvalues are clamped here before the log in the gradient
LOG_FLOOR = 1e-300


def _assignment_cells(dim_s: int, dim_r: int) -> list[tuple[int, ...]]:
    """Candidate placements of the descending spectrum on computational cells."""
    dim = dim_s * dim_r
    if dim <= 8:
        return list(itertools.permutations(range(dim)))
    # staircase heuristic for larger spaces: fill low (s + r) shells first
    order = sorted(range(dim), key=lambda i: (divmod(i, dim_r)[0] + divmod(i, dim_r)[1], i))
    return [tuple(order)]


def spectral_assignment_unitary(rho_joint: DensityOperator, layout: BipartitionLayout) -> np.ndarray:
    """Rotate the eigenbasis of the state onto computational basis cells,
    choosing the placement whose diagonal final state has the smallest sum of
    marginal entropies.  The candidates are every permutation of up to 8
    cells, and above that one staircase, a heuristic that descent probes beat
    on random 3x3 and 2x5 states.  All are scored in one stacked pass, and a
    later candidate wins only by more than 1e-15.  This is the answer of the
    search."""
    lam, v = np.linalg.eigh(rho_joint.matrix)
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, None)
    vecs = v[:, order]
    placements = np.array(_assignment_cells(layout.dim_s, layout.dim_r))
    s_of, r_of = np.divmod(placements, layout.dim_r)
    each = np.arange(len(placements))
    p_s = np.zeros((len(placements), layout.dim_s))
    p_r = np.zeros((len(placements), layout.dim_r))
    for i, weight in enumerate(lam):  # in spectrum order, as one placement adds them
        p_s[each, s_of[:, i]] += weight
        p_r[each, r_of[:, i]] += weight
    best, best_val = 0, np.inf
    for k, val in enumerate((spectrum_entropies(p_s) + spectrum_entropies(p_r)).tolist()):
        if val < best_val - 1e-15:
            best, best_val = k, val
    u = np.zeros((layout.dim, layout.dim), dtype=complex)
    u[placements[best]] = vecs.T.conj()
    return u


def _objective(final: np.ndarray, dim_s: int, dim_r: int) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """S(rho_S) + S(rho_R) of a joint matrix, with 0 ln 0 := 0, and the
    ``eigh`` of both marginals, which the gradient at an accepted point
    reads: each marginal is decomposed once per evaluated point."""
    eigensystems = [np.linalg.eigh(partial_traces(final[None], dim_s, dim_r, keep)[0]) for keep in "SR"]
    total = 0.0
    for p, _ in eigensystems:
        p = p[p > 0.0]
        total -= float(p @ np.log(p))
    return total, eigensystems


def _descend(
    rho: np.ndarray, dim_s: int, dim_r: int, u: np.ndarray, s_local0: float, max_iterations: int
) -> DescentProbe:
    """Armijo-backtracked steepest descent U <- exp(-mu C) U on U(d), with
    C = [rho', ln rho'_S (x) I + I (x) ln rho'_R] the Riemannian gradient of
    the local entropy sum (Abrudan, Eriksson & Koivunen, IEEE TSP 2008)."""
    final = u @ rho @ u.conj().T
    value, eigensystems = _objective(final, dim_s, dim_r)
    sums = [value - s_local0]
    eye_s, eye_r = np.eye(dim_s), np.eye(dim_r)
    mu = 1.0
    for _ in range(max_iterations):
        log_s, log_r = ((v * np.log(np.clip(lam, LOG_FLOOR, None))) @ v.conj().T for lam, v in eigensystems)
        # a broadcast: np.kron gives the same bits at several times the cost
        log_sum = log_s[:, None, :, None] * eye_r[None, :, None, :] + eye_s[:, None, :, None] * log_r[None, :, None, :]
        log_sum = log_sum.reshape(dim_s * dim_r, dim_s * dim_r)
        c = final @ log_sum - log_sum @ final
        slope = float(np.sum(np.abs(c) ** 2))
        h = 1j * c  # Hermitian, and exp(-mu C) = exp(i mu h)
        lam, v = np.linalg.eigh(h)
        mu *= 2.0
        for _ in range(ARMIJO_HALVINGS):
            u_new = ((v * np.exp(1j * mu * lam)) @ v.conj().T) @ u
            final_new = u_new @ rho @ u_new.conj().T
            value_new, eigensystems_new = _objective(final_new, dim_s, dim_r)
            if value - value_new >= ARMIJO_FRACTION * mu * slope:
                break
            mu *= 0.5
        else:  # no step lowers the sum measurably: stationary up to rounding
            return DescentProbe(unitary=u, sums=tuple(sums), converged=True)
        decrease = value - value_new
        u, final, value, eigensystems = u_new, final_new, value_new, eigensystems_new
        sums.append(value - s_local0)
        if decrease < PROBE_CONVERGENCE_TOL:
            return DescentProbe(unitary=u, sums=tuple(sums), converged=True)
    return DescentProbe(unitary=u, sums=tuple(sums), converged=False)


def search_entropy_decreasing_unitary(
    rho_joint: DensityOperator,
    layout: BipartitionLayout,
    config: UnitarySearchConfig | None = None,
) -> UnitarySearchResult:
    """Minimize dS_S + dS_R over the unitary group.

    Restart 0 is the answer: the spectral-assignment unitary, exact for
    states whose spectrum factorizes.  Restarts 1 .. restarts - 1 probe its
    local optimality: each kicks it by exp(-i PROBE_KICK H) with H a random
    unit-norm Hermitian drawn from ``config.rng.child(k)``, then descends
    along the Riemannian gradient until a step lowers the sum by less than
    ``PROBE_CONVERGENCE_TOL`` or ``config.max_iterations`` steps are taken.
    A probe replaces the answer only when its sum is lower by more than
    ``BALANCE_CONSISTENCY_TOL``, so rounding ties keep restart 0.  A result
    that never dips below zero is returned with a warning, not an error:
    finitely many steps cannot refute the existence of a decreasing unitary.
    """
    if rho_joint.dim != layout.dim:
        raise ValueError("state and layout dimensions must agree")
    config = config or UnitarySearchConfig()
    u_best = UnitaryOperator(spectral_assignment_unitary(rho_joint, layout))
    report = entropy_balance(rho_joint, layout, u_best)
    if report.mi_initial <= NON_PRODUCT_TOL:
        raise ValueError("input is a product state; local entropies cannot decrease")
    best_sum, best_restart = report.sum, 0
    rho, dim_s, dim_r = rho_joint.matrix, layout.dim_s, layout.dim_r
    s_local0, _ = _objective(rho, dim_s, dim_r)
    probes = []
    for k in range(1, config.restarts):
        h = random_hermitians(layout.dim, [config.rng.child(k)])[0]
        kick = unitary_from_hamiltonian(Hamiltonian(h / np.linalg.norm(h)), PROBE_KICK)
        probe = _descend(rho, dim_s, dim_r, kick.matrix @ u_best.matrix, s_local0, config.max_iterations)
        probes.append(probe)
        if probe.sums[-1] < best_sum - BALANCE_CONSISTENCY_TOL:
            best_sum, best_restart = probe.sums[-1], k
    if best_restart:
        u_best = UnitaryOperator(probes[best_restart - 1].unitary)
        report = entropy_balance(rho_joint, layout, u_best)

    if report.sum >= 0.0:
        warnings.warn("search did not find an entropy-decreasing unitary within its budget", stacklevel=2)
    return UnitarySearchResult(
        unitary=u_best,
        achieved_sum=report.sum,
        report=report,
        best_restart=best_restart,
        probes=tuple(probes),
    )


# ---------------------------------------------------------------------------
# the weak-coupling map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of coupling strengths, correlation strengths and times."""

    coupling_strengths: tuple[float, ...]
    correlation_strengths: tuple[float, ...]
    evolution_times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coupling_strengths", tuple(float(x) for x in self.coupling_strengths))
        object.__setattr__(self, "correlation_strengths", tuple(float(x) for x in self.correlation_strengths))
        object.__setattr__(self, "evolution_times", tuple(float(x) for x in self.evolution_times))
        for name in ("coupling_strengths", "correlation_strengths", "evolution_times"):
            values = getattr(self, name)
            if not values or not all(np.isfinite(v) for v in values):
                raise ValueError(f"{name} must be non-empty and finite")
        if any(not 0.0 <= e <= 1.0 for e in self.correlation_strengths):
            raise ValueError("correlation strengths must lie in [0, 1]")

    @property
    def size(self) -> int:
        return len(self.coupling_strengths) * len(self.correlation_strengths) * len(self.evolution_times)


@dataclass(frozen=True)
class SweepPoint:
    coupling: float
    epsilon: float
    time: float
    sum: float


def weak_coupling_sweep(
    h_local_s: Hamiltonian,
    h_local_r: Hamiltonian,
    h_int: Hamiltonian,
    grid: SweepGrid,
) -> list[SweepPoint]:
    """Entropy-sum phase map of the near-product family under
    exp(-i (H_S + H_R + g H_int) t) over the whole grid.

    At g = 0 the evolution is local and every sum vanishes; the eps = 0
    column is a product input so its sums are non-negative.  Rows come out
    in (g, eps, t) lexicographic grid order.
    """
    if h_local_s.dim != 2 or h_local_r.dim != 2 or h_int.dim != 4:
        raise ValueError("sweep expects qubit local Hamiltonians and a 4-dim interaction")
    h_local = np.kron(h_local_s.matrix, np.eye(2)) + np.kron(np.eye(2), h_local_r.matrix)
    states = [near_product_state(eps) for eps in grid.correlation_strengths]
    times = grid.evolution_times
    matrices = np.stack([state.matrix for state in states])
    spectra = np.stack([state.spectrum for state in states])
    # one stack per coupling, over the (eps, t) cells in grid order; each
    # state's initial entropies are computed once and repeated over its times
    rho = np.repeat(matrices, len(times), axis=0)
    entropies = (*marginal_entropies_of_stack(matrices, TWO_QUBITS), spectrum_entropies(spectra))
    initial = tuple(np.repeat(e, len(times)) for e in entropies)
    cells = list(itertools.product(grid.correlation_strengths, times))
    points = []
    for g in grid.coupling_strengths:
        u = unitaries_from_hamiltonian(Hamiltonian(h_local + g * h_int.matrix), times)
        validate_unitaries(u)
        report, _ = entropy_balances(rho, initial, TWO_QUBITS, np.tile(u, (len(states), 1, 1)))
        points += [SweepPoint(coupling=g, epsilon=eps, time=t, sum=s) for (eps, t), s in zip(cells, report.sum.tolist())]
    return points
