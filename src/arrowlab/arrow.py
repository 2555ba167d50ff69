"""Entropy balance under global unitaries and its deliberate violations.

The central identity: when a joint state starts as a product, the change in
the two local entropies under any global unitary equals the mutual
information of the final state, hence is non-negative.  This module computes
that balance, builds the canonical correlated states whose local entropies
can be pushed *down*, classifies the relative direction of the two local
arrows, and searches the unitary group for entropy-decreasing evolutions of
arbitrary correlated inputs.  The search takes a stack (n, D, D) of
validated states with their spectra, as ``core.validate_states`` returns
them, and a source stack of n rows, and returns one result of stacked
fields.  It runs on core's partial trace, Hermitian draw and spectrum
entropy, and its probes descend by Riemannian conjugate gradient (Abrudan,
Eriksson & Koivunen, Signal Processing 89, 1704 (2009)), the probes of one
call in lockstep as one stack, each Armijo round evaluating the next
ARMIJO_BATCH step sizes of every pending probe, and both marginals of every
point in one (n, 2, d, d) ``eigh``; the probes stop at the module constant
PROBE_CONVERGENCE_TOL.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    basis_ket,
    evolve_products,
    evolve_states,
    marginal_entropies_of_stack,
    partial_traces,
    product_spectra,
    raise_first_failure,
    random_hermitians,
    spectrum_entropies,
    state_checks,
    trial_chunks,
    unitaries_from_hamiltonian,
    unitary_checks,
    validate_hamiltonians,
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


@dataclass(frozen=True, eq=False)
class EntropyBalanceReport:
    """Local entropy changes of a stack of n joint states under global
    unitaries, every field an (n,) array; one state is a stack of one.

    ``sum`` is dS_S + dS_R; for product inputs it must equal the final
    mutual information (that equality is validated on construction).
    """

    ds_s: np.ndarray
    ds_r: np.ndarray
    sum: np.ndarray
    mi_initial: np.ndarray
    mi_final: np.ndarray
    schrodinger_product: np.ndarray
    product_input: np.ndarray

    def __post_init__(self):
        gap = self.sum - self.mi_final
        raise_first_failure((
            (
                np.abs(self.sum - (self.ds_s + self.ds_r)) > BALANCE_CONSISTENCY_TOL,
                lambda k: "sum field is inconsistent with ds_s + ds_r",
            ),
            (
                self.product_input & (np.abs(gap) > PRODUCT_INPUT_TOL),
                lambda k: f"product input but sum - final mutual information = {gap[k]:.3e}",
            ),
        ))


def entropy_balances(
    final: np.ndarray,
    initial: tuple[np.ndarray, np.ndarray, np.ndarray],
    layout: BipartitionLayout,
) -> EntropyBalanceReport:
    """The stacked report of a stack (n, D, D) of joint states evolved by
    global unitaries, from their final states U rho U+.

    ``initial`` holds the initial states' entropies (S(rho_S), S(rho_R),
    S(rho)), each (n,), as the caller already knows them: from a
    DensityOperator's spectrum, or for a product input from its factors (see
    :func:`product_balances`).  The final entropies are computed here, S of
    the final state from its own ``eigvalsh``: that is the one independent
    input to the product-input check sum == mi_final.  U rho U+ of a valid
    state under a valid unitary is a state, so ``final`` is not validated.
    """
    s_s0, s_r0, s0 = initial
    s_s1, s_r1 = marginal_entropies_of_stack(final, layout)
    s1 = spectrum_entropies(np.linalg.eigvalsh(final))
    ds_s = s_s1 - s_s0
    ds_r = s_r1 - s_r0
    mi_initial = s_s0 + s_r0 - s0
    return EntropyBalanceReport(
        ds_s=ds_s,
        ds_r=ds_r,
        sum=ds_s + ds_r,
        mi_initial=mi_initial,
        mi_final=s_s1 + s_r1 - s1,
        schrodinger_product=ds_s * ds_r,
        product_input=mi_initial <= PRODUCT_INPUT_TOL,
    )


def product_balances(
    rho_s: np.ndarray, rho_r: np.ndarray, layout: BipartitionLayout, u: np.ndarray
) -> tuple[EntropyBalanceReport, np.ndarray]:
    """Entropy balances of the product inputs rho_S (x) rho_R of two stacks
    of factors (n, d_S, d_S) and (n, d_R, d_R) under a stack of unitaries
    (n, D, D); return the stacked report and the evolved states.

    The factors and the unitaries are validated here, each trial in the
    order rho_S, rho_R, U, so a stack raises what its first failing trial
    raises on its own.  The D x D product is never built: the inputs evolve
    through their factors (:func:`core.evolve_products`), the product's
    spectrum is the sorted outer product of the factor spectra, and its
    marginal entropies are the factors' own.
    """
    if rho_s.shape[-1] != layout.dim_s or rho_r.shape[-1] != layout.dim_r or u.shape[-1] != layout.dim:
        raise ValueError("factor, layout and unitary dimensions must agree")
    spectra_s, checks_s = state_checks(rho_s)
    spectra_r, checks_r = state_checks(rho_r)
    raise_first_failure((*checks_s, *checks_r, *unitary_checks(u)))
    initial = (
        spectrum_entropies(spectra_s),
        spectrum_entropies(spectra_r),
        spectrum_entropies(product_spectra(spectra_s, spectra_r)),
    )
    final = evolve_products(rho_s, rho_r, u)
    return entropy_balances(final, initial, layout), final


def state_balances(rho: np.ndarray, spectra: np.ndarray, layout: BipartitionLayout, u: np.ndarray) -> EntropyBalanceReport:
    """Entropy balances of a stack (n, D, D) of validated joint states,
    correlated or not, with their spectra (n, D) as
    :func:`core.validate_states` returns them, under a stack of validated
    unitaries (n, D, D); nothing is validated again."""
    if rho.shape[-1] != layout.dim or u.shape[-1] != layout.dim:
        raise ValueError("state, layout and unitary dimensions must agree")
    initial = (*marginal_entropies_of_stack(rho, layout), spectrum_entropies(spectra))
    return entropy_balances(evolve_states(rho, u), initial, layout)


def schrodinger_checks(products: np.ndarray) -> list[Alignment]:
    """Classify, for each Schrodinger product dS_S * dS_R of a stack, whether
    the two local arrows point the same way; within ALIGNMENT_TOL of zero
    they are degenerate."""
    return [
        Alignment.ALIGNED if p > ALIGNMENT_TOL else Alignment.ANTI_ALIGNED if p < -ALIGNMENT_TOL else Alignment.DEGENERATE
        for p in products.tolist()
    ]


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


# ---------------------------------------------------------------------------
# unitary-group search for entropy-decreasing evolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescentProbe:
    """One kicked conjugate-gradient descent on U(d).

    ``sums`` holds dS_S + dS_R at the kicked start and after every accepted
    step; ``converged`` is False when the step budget ran out first.
    """

    unitary: np.ndarray
    sums: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class UnitarySearchResult:
    """The search of a stack of n states: the best unitaries (n, D, D),
    their stacked :class:`EntropyBalanceReport`, whose ``sum`` is the
    achieved dS_S + dS_R, the restart each came from (n,), 0 for the answer,
    and each state's descent probes in restart order."""

    unitaries: np.ndarray
    report: EntropyBalanceReport
    best_restarts: np.ndarray
    probes: tuple[tuple[DescentProbe, ...], ...]


# Frobenius norm of the random generator that kicks a probe off the answer
PROBE_KICK = 0.1
# a probe stops once an accepted step lowers the entropy sum by less than this
PROBE_CONVERGENCE_TOL = 1e-12
# Armijo sufficient-decrease fraction, the step halvings tried per iteration,
# and how many of them one stacked round evaluates
ARMIJO_FRACTION = 0.5
ARMIJO_HALVINGS = 60
ARMIJO_BATCH = 4
# marginal eigenvalues are clamped here before the log in the gradient
LOG_FLOOR = 1e-300
# warned, with a count, when states' best sums stay >= 0
NO_DECREASE_WARNING = "search did not find an entropy-decreasing unitary within its budget"


def _assignment_cells(dim_s: int, dim_r: int) -> list[tuple[int, ...]]:
    """Candidate placements of the descending spectrum on computational cells."""
    dim = dim_s * dim_r
    if dim <= 8:
        return list(itertools.permutations(range(dim)))
    # staircase heuristic for larger spaces: fill low (s + r) shells first
    order = sorted(range(dim), key=lambda i: (divmod(i, dim_r)[0] + divmod(i, dim_r)[1], i))
    return [tuple(order)]


def spectral_assignment_unitary(rho: np.ndarray, layout: BipartitionLayout) -> np.ndarray:
    """Rotate the eigenbasis of each state of a stack (n, D, D) onto
    computational basis cells, choosing the placement whose diagonal final
    state has the smallest sum of marginal entropies.  The candidates are
    every permutation of up to 8 cells, and above that one staircase, a
    heuristic that descent probes beat on random 3x3 and 2x5 states.  One
    ``eigh`` and one stacked pass score them all, and within a state a later
    candidate wins only by more than 1e-15.  These are the search's answers."""
    lam, v = np.linalg.eigh(rho)
    order = np.argsort(lam, axis=-1)[:, ::-1]
    lam = np.clip(np.take_along_axis(lam, order, axis=-1), 0.0, None)
    vecs = np.take_along_axis(v, order[:, None, :], axis=-1)
    placements = np.array(_assignment_cells(layout.dim_s, layout.dim_r))
    s_of, r_of = np.divmod(placements, layout.dim_r)
    each = np.arange(len(placements))
    p_s = np.zeros((len(rho), len(placements), layout.dim_s))
    p_r = np.zeros((len(rho), len(placements), layout.dim_r))
    for i in range(layout.dim):  # in spectrum order, as one placement adds them
        p_s[:, each, s_of[:, i]] += lam[:, i, None]
        p_r[:, each, r_of[:, i]] += lam[:, i, None]
    scores = spectrum_entropies(p_s.reshape(-1, layout.dim_s)) + spectrum_entropies(p_r.reshape(-1, layout.dim_r))
    best = []
    for row in scores.reshape(len(rho), -1).tolist():  # each state's candidates, in order
        best.append(0)
        for k, val in enumerate(row):
            if val < row[best[-1]] - 1e-15:
                best[-1] = k
    u = np.zeros(rho.shape, dtype=complex)
    u[np.arange(len(rho))[:, None], placements[best]] = vecs.conj().swapaxes(-1, -2)
    return u


def _objectives(finals: np.ndarray, dim_s: int, dim_r: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """S(rho_S) + S(rho_R) of each joint matrix in a stack (n, D, D), with
    0 ln 0 := 0, and the ``eigh`` of both marginals, which the gradient at an
    accepted point reads.  The marginals are grouped by size: one (n, 2, d, d)
    stack of rho_S and rho_R when d_S = d_R, so one ``eigh`` decomposes both
    marginals of every point, else (n, 1, d_S, d_S) and (n, 1, d_R, d_R).
    Each marginal's entropy is one dot product, a 1 x d by d x 1 matmul; a
    marginal with an eigenvalue <= 0 drops those from its dot product, so
    every marginal rounds as its matrix would on its own."""
    marginals = [partial_traces(finals, dim_s, dim_r, keep) for keep in "SR"]
    groups = [np.stack(marginals, axis=1)] if dim_s == dim_r else [m[:, None] for m in marginals]
    eigensystems = [np.linalg.eigh(m) for m in groups]
    terms = []
    for p, _ in eigensystems:
        positive = p > 0.0
        t = (p[..., None, :] @ np.log(np.where(positive, p, 1.0))[..., :, None])[..., 0, 0]
        for k, m in zip(*np.nonzero(~positive.all(axis=-1))):
            q = p[k, m][positive[k, m]]
            t[k, m] = q @ np.log(q)
        terms.append(t)
    t_s, t_r = np.concatenate(terms, axis=1).T
    return (0.0 - t_s) - t_r, eigensystems  # 0 - S - R, as a lone probe sums it, zeros' signs included


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<A, B> = Re tr(A+ B) of each pair of matrices in two stacks (n, D, D)."""
    return (a.real * b.real + a.imag * b.imag).reshape(len(a), -1).sum(axis=-1)


def _descend(
    rho: np.ndarray, u: np.ndarray, s_local0: np.ndarray, max_iterations: int, dim_s: int, dim_r: int
) -> list[DescentProbe]:
    """Armijo-backtracked Riemannian conjugate gradient U <- exp(-mu H) U on
    U(d) (Abrudan, Eriksson & Koivunen, Signal Processing 89, 1704 (2009)).
    C = [rho', ln rho'_S (x) I + I (x) ln rho'_R] is the Riemannian gradient
    of the local entropy sum, and the direction is Polak-Ribiere+:
    H_k = C_k + gamma_k H_{k-1}, gamma_k = max(0, <C_k - C_{k-1}, C_k> /
    <C_{k-1}, C_{k-1}>), with <A, B> = Re tr(A+ B).  H_k restarts as C_k on
    a probe's first step, when <C_{k-1}, C_{k-1}> = 0, or when H_k is not a
    descent direction, <H_k, C_k> <= 0.  The Armijo slope is <C_k, H_k>.

    Probe i starts at u[i] on the state rho[i], whose local entropy sum is
    s_local0[i], and takes at most max_iterations steps.  The probes run in
    lockstep: one gradient, one direction and one ``eigh`` of iH per step
    for the probes still running, then rounds of Armijo tries for the probes
    whose step is still pending.  One round evaluates the next
    ``ARMIJO_BATCH`` step sizes mu, mu/2, mu/4, ... of every pending probe as
    one stack, and each probe takes its first candidate that passes; every
    candidate counts against ``ARMIJO_HALVINGS``.  The marginal eigensystems
    of the points are kept grouped as :func:`_objectives` returns them.  A
    probe that converges, stalls or spends its budget leaves the stack.
    Every candidate does the arithmetic of one try of a probe descending
    alone.
    """
    dim = dim_s * dim_r
    eye_s, eye_r = np.eye(dim_s), np.eye(dim_r)
    u = u.copy()  # each accepted step is written into its row
    final = evolve_states(rho, u)
    value, eigensystems = _objectives(final, dim_s, dim_r)
    sums = [[s] for s in (value - s_local0).tolist()]
    probes: list[DescentProbe | None] = [None] * len(u)
    live = np.arange(len(u))  # the probe each row of the stack holds
    mu = np.ones(len(u))
    steps = 0
    while live.size:
        # ln rho_S and ln rho_R, in that order, from the grouped eigensystems
        logs = [
            (v * np.log(np.clip(lam, LOG_FLOOR, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
            for lam, v in eigensystems
        ]
        log_s, log_r = (log[:, m] for log in logs for m in range(log.shape[1]))
        # a broadcast: np.kron gives the same bits at several times the cost
        log_sum = (
            log_s[:, :, None, :, None] * eye_r[None, None, :, None, :]
            + eye_s[None, :, None, :, None] * log_r[:, None, :, None, :]
        ).reshape(len(live), dim, dim)
        c = final @ log_sum - log_sum @ final
        norm2 = _inner(c, c)  # <C, C>
        if steps:
            restart = norm2_prev == 0.0
            gamma = np.maximum(0.0, _inner(c - c_prev, c) / np.where(restart, 1.0, norm2_prev))
            h = c + gamma[:, None, None] * h_prev
            restart |= _inner(h, c) <= 0.0
            h[restart] = c[restart]
        else:
            h = c
        slope = _inner(c, h)
        lam, v = np.linalg.eigh(1j * h)  # Hermitian, and exp(-mu H) = exp(i mu lam)
        mu *= 2.0
        # a probe's accepted point replaces its row; the rows still pending
        # keep the point their step starts from
        decrease = np.zeros(len(live))
        pending = np.arange(len(live))
        for tried in range(0, ARMIJO_HALVINGS, ARMIJO_BATCH):
            count = min(ARMIJO_BATCH, ARMIJO_HALVINGS - tried)
            # halved one at a time, as a lone probe halves its step
            mus = np.empty((len(pending), count))
            mus[:, 0] = mu[pending]
            for j in range(1, count):
                mus[:, j] = mus[:, j - 1] * 0.5
            v_p = v[pending][:, None]
            phases = np.exp(1j * mus[:, :, None] * lam[pending][:, None, :])
            u_try = ((v_p * phases[..., None, :]) @ v_p.conj().swapaxes(-1, -2)) @ u[pending][:, None]
            final_try = evolve_states(rho[pending][:, None], u_try).reshape(-1, dim, dim)
            value_try, eigensystems_try = _objectives(final_try, dim_s, dim_r)
            gain = value[pending][:, None] - value_try.reshape(len(pending), count)
            ok = gain >= ARMIJO_FRACTION * mus * slope[pending][:, None]
            passed = ok.any(axis=1)
            rows, first = np.flatnonzero(passed), ok.argmax(axis=1)[passed]
            done, picked = pending[passed], rows * count + first  # picked: rows of the candidate stack
            mu[done], decrease[done] = mus[rows, first], gain[rows, first]
            u[done], final[done], value[done] = u_try.reshape(-1, dim, dim)[picked], final_try[picked], value_try[picked]
            for (w, x), (w_try, x_try) in zip(eigensystems, eigensystems_try):
                w[done], x[done] = w_try[picked], x_try[picked]
            mu[pending[~passed]] = mus[~passed, -1] * 0.5
            pending = pending[~passed]
            if not pending.size:
                break
        # a probe still pending found no step that lowers the sum measurably:
        # it is stationary up to rounding and stops where it stands
        moved = np.ones(len(live), dtype=bool)
        moved[pending] = False
        for i, s in zip(np.flatnonzero(moved).tolist(), (value[moved] - s_local0[moved]).tolist()):
            sums[live[i]].append(s)
        steps += 1
        c_prev, h_prev, norm2_prev = c, h, norm2
        converged = ~moved | (decrease < PROBE_CONVERGENCE_TOL)
        leaving = converged | (steps == max_iterations)
        if not leaving.any():
            continue
        for i in np.flatnonzero(leaving).tolist():
            probes[live[i]] = DescentProbe(unitary=u[i].copy(), sums=tuple(sums[live[i]]), converged=bool(converged[i]))
        staying = ~leaving
        live, rho, u, final, value, s_local0, mu, c_prev, h_prev, norm2_prev = (
            a[staying] for a in (live, rho, u, final, value, s_local0, mu, c_prev, h_prev, norm2_prev)
        )
        eigensystems = [(w[staying], x[staying]) for w, x in eigensystems]
    return probes


def search_entropy_decreasing_unitaries(
    rho: np.ndarray,
    spectra: np.ndarray,
    layout: BipartitionLayout,
    sources: RandomSource,
    restarts: int = 4,
    max_iterations: int = 300,
) -> UnitarySearchResult:
    """Minimize dS_S + dS_R over the unitary group for each state of a
    stack (n, D, D) of validated states, with their spectra (n, D) as
    :func:`core.validate_states` returns them, state j drawing from row j of
    the source stack ``sources``; nothing is validated again.

    Restart 0 is the answer: the spectral-assignment unitary, exact for
    states whose spectrum factorizes.  Restarts 1 .. restarts - 1 probe its
    local optimality: probe k of state j kicks it by exp(-i PROBE_KICK H),
    with H a random unit-norm Hermitian drawn from row j's child k, then
    descends by Riemannian conjugate gradient until a step lowers the sum by
    less than ``PROBE_CONVERGENCE_TOL`` or ``max_iterations`` steps are
    taken.  A probe replaces the answer only when its sum is lower by more
    than ``BALANCE_CONSISTENCY_TOL``, so rounding ties keep restart 0.

    The answers are checked as one stack, each for U+U = I and then for a
    product input, so the first failing state raises what it raises alone;
    then the kicks are drawn and checked, all before any descent.  The
    probes of all states descend in lockstep (:func:`_descend`), in stacks
    of at most ``STACK_ENTRIES`` entries per array, a round's candidates
    included, and the states whose probe wins get one stacked balance.
    Best sums that stay >= 0 are returned with a warning, not an error:
    finitely many steps cannot refute the existence of a decreasing unitary.
    """
    if restarts < 1 or max_iterations < 1:
        raise ValueError("restarts and max_iterations must be >= 1")
    if len(sources) != len(rho):
        raise ValueError("give one source per state")
    if rho.shape[-1] != layout.dim:
        raise ValueError("state and layout dimensions must agree")
    initial = (*marginal_entropies_of_stack(rho, layout), spectrum_entropies(spectra))
    # each state's answer, replaced below where a probe beats it
    unitaries = spectral_assignment_unitary(rho, layout)
    report = entropy_balances(evolve_states(rho, unitaries), initial, layout)
    raise_first_failure((
        *unitary_checks(unitaries),
        (report.mi_initial <= NON_PRODUCT_TOL, lambda k: "input is a product state; local entropies cannot decrease"),
    ))

    count = restarts - 1
    probes = []
    if count:
        h = random_hermitians(layout.dim, sources.children(range(1, restarts)))
        for m in h:  # each by its own norm: a stacked norm rounds differently
            m /= np.linalg.norm(m)
        evals, evecs = validate_hamiltonians(h)
        kicks = (evecs * np.exp(-1j * (PROBE_KICK * evals))[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
        validate_unitaries(kicks)
        owners = np.repeat(np.arange(len(rho)), count)
        starts = kicks @ unitaries[owners]
        s_local0, _ = _objectives(rho, layout.dim_s, layout.dim_r)
        # a round's candidates hold ARMIJO_BATCH matrices per probe
        for chunk in trial_chunks(len(starts), ARMIJO_BATCH * layout.dim**2):
            trial = owners[chunk]
            probes += _descend(rho[trial], starts[chunk], s_local0[trial], max_iterations, layout.dim_s, layout.dim_r)
    own = tuple(tuple(probes[j * count : (j + 1) * count]) for j in range(len(rho)))

    best_restarts = np.zeros(len(rho), dtype=int)
    for j, best_sum in enumerate(report.sum.tolist()):
        for k, probe in enumerate(own[j], start=1):
            if probe.sums[-1] < best_sum - BALANCE_CONSISTENCY_TOL:
                best_sum, best_restarts[j] = probe.sums[-1], k
    won = np.flatnonzero(best_restarts)
    if won.size:
        unitaries[won] = [own[j][best_restarts[j] - 1].unitary for j in won]
        validate_unitaries(unitaries[won])
        better = entropy_balances(evolve_states(rho[won], unitaries[won]), tuple(e[won] for e in initial), layout)
        columns = {f.name: getattr(report, f.name).copy() for f in fields(report)}
        for name, column in columns.items():
            column[won] = getattr(better, name)
        report = EntropyBalanceReport(**columns)
    short = np.count_nonzero(report.sum >= 0.0)
    if short:
        warnings.warn(f"{NO_DECREASE_WARNING} for {short} of {len(rho)} states", stacklevel=2)
    return UnitarySearchResult(unitaries=unitaries, report=report, best_restarts=best_restarts, probes=own)


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


def weak_coupling_sweep(
    h_local_s: Hamiltonian,
    h_local_r: Hamiltonian,
    h_int: Hamiltonian,
    grid: SweepGrid,
) -> np.ndarray:
    """Entropy-sum phase map of the near-product family under
    exp(-i (H_S + H_R + g H_int) t) over the whole grid, as an
    (n_g, n_eps, n_t) array of dS_S + dS_R indexed like the grid's axes.

    At g = 0 the evolution is local and every sum vanishes; the eps = 0
    column is a product input so its sums are non-negative.

    Each coupling's Hamiltonian is validated in turn, then all unitaries as
    one stack, and every (g, eps, t) cell is balanced as one stack, each
    state's initial entropies computed once.
    """
    if h_local_s.dim != 2 or h_local_r.dim != 2 or h_int.dim != 4:
        raise ValueError("sweep expects qubit local Hamiltonians and a 4-dim interaction")
    h_local = np.kron(h_local_s.matrix, np.eye(2)) + np.kron(np.eye(2), h_local_r.matrix)
    states = [near_product_state(eps) for eps in grid.correlation_strengths]
    times = grid.evolution_times
    u = np.stack([unitaries_from_hamiltonian(Hamiltonian(h_local + g * h_int.matrix), times) for g in grid.coupling_strengths])
    validate_unitaries(u.reshape(-1, 4, 4))
    matrices = np.stack([state.matrix for state in states])
    spectra = np.stack([state.spectrum for state in states])
    entropies = (*marginal_entropies_of_stack(matrices, TWO_QUBITS), spectrum_entropies(spectra))
    cells = (len(grid.coupling_strengths), len(states), len(times))
    rho = np.broadcast_to(matrices[None, :, None], (*cells, 4, 4)).reshape(-1, 4, 4)
    initial = tuple(np.broadcast_to(e[None, :, None], cells).ravel() for e in entropies)
    final = evolve_states(rho, np.broadcast_to(u[:, None], (*cells, 4, 4)).reshape(-1, 4, 4))
    return entropy_balances(final, initial, TWO_QUBITS).sum.reshape(cells)
