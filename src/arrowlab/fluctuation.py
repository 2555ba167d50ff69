"""Two-point measurement protocol and fluctuation relations.

Forward protocol: prepare the Gibbs state of the initial Hamiltonian,
projectively measure its energy, apply a unitary, measure in the final
Hamiltonian's eigenbasis.  The backward protocol starts from the final
Hamiltonian's Gibbs state and runs the conjugate order.  The ratio of the
two joint outcome distributions obeys the detailed fluctuation relation
p_f/p_b = exp(beta (W - dF)), from which the work-average identity
<exp(-beta W)> = exp(-beta dF) and the entropy-production identity
KL(p_f || p_b) = <beta (W - dF)> follow.

Degenerate spectra are handled by clustering eigenvalues: each outcome is
one cluster, whose projector P_n is the sum of its levels' eigenvector
projectors, and the post-measurement state is the normalized projector,
which keeps the detailed ratio exact for every (n, m) pair.  So a transition
probability tr(Q_m U P_n U+) is a sum of squared eigenvector overlaps
|<f_j| U |i_k>|^2 over the levels k of cluster n and j of cluster m; no
projector is formed on the way to a distribution.

Every protocol is part of a :class:`ProtocolStack`, which
:meth:`ProtocolStack.of` validates and :func:`random_protocols` draws; a
single protocol is a stack of one.  :func:`crooks_checks` returns one
:class:`CrooksReport`: each protocol's distributions, and its worst
detailed ratio, dF and both integral identities as (n,) arrays;
:func:`jarzynski_checks` the work average alone.  Measurement statistics
alone carry no arrow of time: p_f(n, m) / w_n = tr(Q_m U P_n U+) equals
p_b(n, m) / w'_m = tr(P_n U+ Q_m U) for the Gibbs weights w and w', and
the backward side is computed from U+ on its own, so a report's ``forward``
and ``backward`` test that symmetry.

:func:`heat_flow_trials` evolves a stack of product Gibbs qubit pairs under
an energy-conserving exchange and returns one :class:`HeatFlowReport` of
(n,) arrays: the entropy balance of :func:`arrow.product_balances`, each
side's energy change and its effective temperature dU/dS, and the gap
between the S energy read from the reduced final state and from the joint
one.  No D x D product is built; the initial energies are tr(h rho) of the
Gibbs factors.

:func:`damping_heats` gives the heat D(rho || gamma) of each state of a
stack damped into a Gibbs bath, clamped at 0 and before the clamp, from one
validation of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrow import TWO_QUBITS, EntropyBalanceReport, product_balances
from .core import (
    BipartitionLayout,
    Hamiltonian,
    RandomSource,
    gibbs_matrices,
    haar_unitaries,
    masked_row_sums,
    partial_traces,
    raise_first_failure,
    random_hermitians,
    spectrum_entropies,
    unitaries_from_hamiltonian,
    validate_hamiltonians,
    validate_states,
    validate_unitaries,
)

CLUSTER_GAP_TOL = 1e-9
PROBABILITY_FLOOR = 1e-15
DISTRIBUTION_SUM_TOL = 1e-12
TEMPERATURE_DS_FLOOR = 1e-10


def _cluster_breaks(evals: np.ndarray) -> np.ndarray:
    """(n, d - 1) mask over a stack of ascending spectra: level i + 1 starts
    a new cluster, its gap to level i being above CLUSTER_GAP_TOL."""
    return ~(np.diff(evals, axis=-1) <= CLUSTER_GAP_TOL)


def _cluster_starts(breaks: np.ndarray) -> np.ndarray:
    """The first level of each cluster, from one row of cluster breaks."""
    return np.concatenate(([0], np.flatnonzero(breaks) + 1))


def _cluster_energies(evals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean eigenvalue of each cluster of a stack of spectra (n, d)."""
    return np.add.reduceat(evals, starts, axis=-1) / np.diff(starts, append=evals.shape[-1])


@dataclass(frozen=True, eq=False)
class ProtocolStack:
    """n validated two-point protocols of one dimension at one inverse
    temperature, as stacks: the eigenvalues (n, d) and eigenvectors
    (n, d, d) of both Hamiltonians, and the drives (n, d, d).  Build one
    with :meth:`of`, which validates the matrices."""

    evals_initial: np.ndarray
    evecs_initial: np.ndarray
    evals_final: np.ndarray
    evecs_final: np.ndarray
    unitaries: np.ndarray
    beta: float

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta <= 0.0:
            raise ValueError("beta must be finite and > 0")

    def __len__(self) -> int:
        return len(self.unitaries)

    @classmethod
    def of(cls, h_initial, h_final, unitaries, beta: float) -> "ProtocolStack":
        """Validate and stack n protocols at one beta: the initial and final
        Hamiltonians (n, d, d) are checked and decomposed, in that order, then
        the drives (n, d, d) are checked for unitarity."""
        h_initial, h_final, unitaries = (np.asarray(m, dtype=complex) for m in (h_initial, h_final, unitaries))
        shape = h_initial.shape
        if len(shape) != 3 or shape[1] != shape[2] or not shape == h_final.shape == unitaries.shape:
            raise ValueError("protocol dimensions must agree")
        evals_initial, evecs_initial = validate_hamiltonians(h_initial)
        evals_final, evecs_final = validate_hamiltonians(h_final)
        validate_unitaries(unitaries)
        return cls(evals_initial, evecs_initial, evals_final, evecs_final, unitaries, beta)


def check_distributions(probs: np.ndarray) -> np.ndarray:
    """Validate a stack (n, a, b) of joint outcome distributions: no
    probability below -1e-12 and each sum within 1e-12 of 1.  Returns the
    stack clipped at zero."""
    lowest = probs.min(axis=(-2, -1))
    p = np.clip(probs, 0.0, None)
    total = p.sum(axis=(-2, -1))
    raise_first_failure((
        (lowest < -DISTRIBUTION_SUM_TOL, lambda k: f"negative outcome probability {lowest[k]:.3e}"),
        (np.abs(total - 1.0) > DISTRIBUTION_SUM_TOL, lambda k: f"outcome probabilities sum to {total[k]!r}, not 1"),
    ))
    return p


def log_partitions(evals: np.ndarray, beta: float) -> np.ndarray:
    """ln sum exp(-beta E) of each spectrum in a stack (n, d), in the form of
    scipy.special.logsumexp, so results match it bit for bit: every maximal
    term is taken out of the sum and counted, the rest are summed relative
    to the maximum."""
    a = -beta * evals
    a_max = a.max(axis=-1, keepdims=True)
    top = a == a_max
    count = np.count_nonzero(top, axis=-1)
    rest = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=-1) / count
    return np.log1p(rest) + np.log(count) + a_max[:, 0]


def _transitions(v_from: np.ndarray, v_to: np.ndarray, u: np.ndarray, starts_from: np.ndarray, starts_to: np.ndarray) -> np.ndarray:
    """t[k, n, m] = tr(Q_m U P_n U+) for each trial k of stacked eigenvectors
    v_from, v_to (N, d, d) and drives u (N, d, d): the squared overlaps
    |<to_j| U |from_i>|^2, summed over the levels i of cluster n and j of
    cluster m, the clusters beginning at ``starts_from`` and ``starts_to``."""
    overlaps = v_to.conj().swapaxes(-1, -2) @ u @ v_from
    levels = (overlaps.real**2 + overlaps.imag**2).swapaxes(-1, -2)
    return np.add.reduceat(np.add.reduceat(levels, starts_from, axis=-2), starts_to, axis=-1)


@dataclass(frozen=True, eq=False)
class _ProtocolGroup:
    """The trials of a protocol stack whose spectra share their cluster
    sizes: the eigenvectors of both Hamiltonians, the first level of each
    cluster and the cluster energies."""

    trials: np.ndarray
    evecs_initial: np.ndarray
    starts_initial: np.ndarray
    energies_initial: np.ndarray
    evecs_final: np.ndarray
    starts_final: np.ndarray
    energies_final: np.ndarray
    unitaries: np.ndarray
    log_z_initial: np.ndarray
    log_z_final: np.ndarray
    beta: float

    def forward(self) -> np.ndarray:
        """Unvalidated p_f(n, m): Gibbs-weighted initial outcome, drive, final measurement."""
        weights = np.exp(-self.beta * self.energies_initial - self.log_z_initial[:, None])
        t = _transitions(self.evecs_initial, self.evecs_final, self.unitaries, self.starts_initial, self.starts_final)
        return weights[:, :, None] * t

    def backward(self) -> np.ndarray:
        """Unvalidated p_b(n, m): start thermal on h_final, drive with U+,
        measure h_initial; computed from U+ on its own, never as the
        transpose of p_f's transitions, which equal it only in exact arithmetic."""
        weights = np.exp(-self.beta * self.energies_final - self.log_z_final[:, None])
        u_dag = self.unitaries.conj().swapaxes(-1, -2)
        t = _transitions(self.evecs_final, self.evecs_initial, u_dag, self.starts_final, self.starts_initial)
        return t.swapaxes(-1, -2) * weights[:, None, :]

    def delta_f(self) -> np.ndarray:
        """dF = F(h_final) - F(h_initial) of each trial, as -(ln Z' - ln Z) / beta:
        at the smallest beta, ln Z / beta alone overflows."""
        return -(self.log_z_final - self.log_z_initial) / self.beta

    def work(self) -> np.ndarray:
        """W[k, n, m] = E'_m - E_n."""
        return self.energies_final[:, None, :] - self.energies_initial[:, :, None]


def _groups(stack: ProtocolStack) -> list[_ProtocolGroup]:
    """Split a stack by the cluster sizes of both spectra; random draws make
    one group, a degenerate protocol a group of its own."""
    d = stack.evals_initial.shape[-1]
    breaks = np.concatenate([_cluster_breaks(stack.evals_initial), _cluster_breaks(stack.evals_final)], axis=-1)
    keys, inverse = np.unique(breaks, axis=0, return_inverse=True)
    groups = []
    for g, key in enumerate(keys):
        trials = np.flatnonzero(inverse.ravel() == g)
        evals_i, evals_f = stack.evals_initial[trials], stack.evals_final[trials]
        starts_i, starts_f = _cluster_starts(key[: d - 1]), _cluster_starts(key[d - 1 :])
        groups.append(
            _ProtocolGroup(
                trials=trials,
                evecs_initial=stack.evecs_initial[trials],
                starts_initial=starts_i,
                energies_initial=_cluster_energies(evals_i, starts_i),
                evecs_final=stack.evecs_final[trials],
                starts_final=starts_f,
                energies_final=_cluster_energies(evals_f, starts_f),
                unitaries=stack.unitaries[trials],
                log_z_initial=log_partitions(evals_i, stack.beta),
                log_z_final=log_partitions(evals_f, stack.beta),
                beta=stack.beta,
            )
        )
    return groups


@dataclass(frozen=True, eq=False)
class CrooksReport:
    """Detailed-ratio check and the derived integral identities of n
    protocols, every field but the distributions an (n,) array.

    ``forward`` and ``backward`` hold each protocol's validated joint
    outcome distributions p_f(n, m) and p_b(n, m) over (initial cluster,
    final cluster) pairs, both indexed (n, m) so they compare elementwise;
    the clusters are in ascending energy order, and their count varies.

    ``max_deviation`` is the largest |p_f/p_b - e^sigma| / e^sigma, sigma =
    beta (W - dF), over pairs with a backward probability above the 1e-15
    floor (0 if there is none).  ``jarzynski_lhs`` and ``jarzynski_rhs``
    are <exp(-beta W)> and exp(-beta dF); ``entropy_production`` is
    KL(p_f || p_b), which must equal ``average_sigma`` = <sigma>.
    """

    forward: tuple[np.ndarray, ...]
    backward: tuple[np.ndarray, ...]
    max_deviation: np.ndarray
    delta_f: np.ndarray
    jarzynski_lhs: np.ndarray
    jarzynski_rhs: np.ndarray
    entropy_production: np.ndarray
    average_sigma: np.ndarray


def _work_averages(pf: np.ndarray, work: np.ndarray, beta: float) -> np.ndarray:
    """<exp(-beta W)> over each forward distribution of a stack."""
    return (pf * np.exp(-beta * work)).reshape(len(pf), -1).sum(axis=-1)


def _entropy_productions(pf, pb, work, beta: float, delta_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(KL(p_f || p_b), <beta (W - dF)>_pf) for each trial of a stack, both
    summed over the forward support."""
    on = (pf > PROBABILITY_FLOOR).reshape(len(pf), -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = pf * np.log(pf / pb)
    sigma = beta * (work - delta_f[:, None, None])
    return masked_row_sums(terms.reshape(on.shape), on), masked_row_sums((pf * sigma).reshape(on.shape), on)


def crooks_checks(stack: ProtocolStack) -> CrooksReport:
    """Verify p_f/p_b = exp(beta (W - dF)) pair by pair for every protocol
    of a stack; return one report, in stack order, its (n,) fields filled
    group by group.

    Pairs where p_f is supported but p_b is not are impossible for a finite
    temperature bath (both Gibbs states are full rank) and raise.
    """
    forward, backward = [None] * len(stack), [None] * len(stack)
    names = ("max_deviation", "delta_f", "jarzynski_lhs", "jarzynski_rhs", "entropy_production", "average_sigma")
    columns = {name: np.empty(len(stack)) for name in names}
    for group in _groups(stack):
        pf = check_distributions(group.forward())
        pb = check_distributions(group.backward())
        delta_f = group.delta_f()
        w = group.work()
        supported = pb > PROBABILITY_FLOOR
        if np.any((pf > PROBABILITY_FLOOR) & ~supported):
            raise ValueError("forward-supported outcome pair with vanishing backward probability")
        ratio = np.divide(pf, pb, out=np.full_like(pf, np.nan), where=supported)
        predicted = np.where(supported, np.exp(stack.beta * (w - delta_f[:, None, None])), np.nan)
        deviation = np.abs(ratio - predicted) / predicted
        finite = np.isfinite(deviation)
        max_deviation = np.where(finite, deviation, -np.inf).max(axis=(-2, -1))
        max_deviation[~finite.any(axis=(-2, -1))] = 0.0
        kl, avg_sigma = _entropy_productions(pf, pb, w, stack.beta, delta_f)
        values = (max_deviation, delta_f, _work_averages(pf, w, stack.beta), np.exp(-stack.beta * delta_f), kl, avg_sigma)
        for column, value in zip(columns.values(), values):
            column[group.trials] = value
        for k, trial in enumerate(group.trials.tolist()):
            forward[trial], backward[trial] = pf[k], pb[k]
    return CrooksReport(forward=tuple(forward), backward=tuple(backward), **columns)


def jarzynski_checks(stack: ProtocolStack) -> tuple[np.ndarray, np.ndarray]:
    """(<exp(-beta W)>, exp(-beta dF)) over the forward distribution of every
    protocol of a stack, in stack order."""
    lhs, rhs = np.empty(len(stack)), np.empty(len(stack))
    for group in _groups(stack):
        lhs[group.trials] = _work_averages(check_distributions(group.forward()), group.work(), stack.beta)
        rhs[group.trials] = np.exp(-stack.beta * group.delta_f())
    return lhs, rhs


# ---------------------------------------------------------------------------
# effective temperatures and heat flow
# ---------------------------------------------------------------------------

def effective_temperatures(report: EntropyBalanceReport, du_s, du_r) -> tuple:
    """(T_S, T_R) with T = dU/dS per subsystem, so that the Clausius
    combination dU_S/T_S + dU_R/T_R is dS_S + dS_R, the report's ``sum``.
    The report's stack of n takes (n,) arrays of energy changes and gives
    (n,) arrays."""
    if np.any((np.abs(report.ds_s) <= TEMPERATURE_DS_FLOOR) | (np.abs(report.ds_r) <= TEMPERATURE_DS_FLOOR)):
        raise ValueError("effective temperature undefined: a local entropy change vanishes")
    return du_s / report.ds_s, du_r / report.ds_r


# resonant excitation exchange |01><10| + |10><01|; commutes with the sum of
# two equal-gap local Hamiltonians
EXCHANGE = np.zeros((4, 4), dtype=complex)
EXCHANGE[1, 2] = EXCHANGE[2, 1] = 1.0
EXCHANGE.setflags(write=False)


@dataclass(frozen=True, eq=False)
class HeatFlowReport:
    """Energy and entropy bookkeeping of a stack of heat-flow trials, every
    field an (n,) array: the entropy balance, each side's energy change and
    effective temperature.  The Clausius combination is ``balance.sum``.
    ``marginal_energy_deviation`` is |tr(h rho'_S) - tr((h (x) 1) rho')|,
    with rho'_S from :func:`core.partial_traces`: zero up to rounding only
    where the partial trace keeps S."""

    balance: EntropyBalanceReport
    du_s: np.ndarray
    du_r: np.ndarray
    t_s: np.ndarray
    t_r: np.ndarray
    marginal_energy_deviation: np.ndarray


def heat_flow_trials(beta_s, beta_r, times) -> HeatFlowReport:
    """Evolve products of Gibbs qubits under an energy-conserving exchange
    and report energy/entropy bookkeeping for both sides, one trial for each
    entry of the equal-length sequences ``beta_s``, ``beta_r`` and ``times``,
    run as one stack.

    The two unit-gap local Hamiltonians share their gap, so the exchange
    commutes with their sum; total energy is conserved and the hotter side
    can only lose.  The Gibbs pairs are validated and evolved through their
    factors, and the initial energies are the factors' own tr(h rho).
    """
    raise_first_failure(((np.equal(beta_s, beta_r), lambda k: "beta_s and beta_r must differ so that one side is hotter"),))
    h_local = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
    rho_s = gibbs_matrices(h_local, beta_s)
    rho_r = gibbs_matrices(h_local, beta_r)
    h_s = np.kron(h_local.matrix, np.eye(2))
    h_r = np.kron(np.eye(2), h_local.matrix)
    u = unitaries_from_hamiltonian(Hamiltonian(h_s + h_r + EXCHANGE), times)
    balance, final = product_balances(rho_s, rho_r, TWO_QUBITS, u)

    def energies(h: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.einsum("ij,nji->n", h, m).real

    u_s = energies(h_s, final)
    du_s = u_s - energies(h_local.matrix, rho_s)
    du_r = energies(h_r, final) - energies(h_local.matrix, rho_r)
    t_s, t_r = effective_temperatures(balance, du_s, du_r)
    marginal = np.abs(energies(h_local.matrix, partial_traces(final, 2, 2, "S")) - u_s)
    return HeatFlowReport(balance=balance, du_s=du_s, du_r=du_r, t_s=t_s, t_r=t_r, marginal_energy_deviation=marginal)


def damping_heats(states: np.ndarray, h_final: Hamiltonian, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Heat released when each state of a stack (n, d, d) is damped into a
    bath thermal on h_final: the relative entropy to its Gibbs state,
    beta tr(rho H) + ln Z - S(rho), clamped at 0, and the same before the
    clamp, whose sign a check can read.  The stack is validated here, once,
    and S(rho) read from the spectra of that validation.  No Gibbs weight is
    formed, so no large beta underflows."""
    if states.shape[-1] != h_final.dim:
        raise ValueError("state and Hamiltonian dimensions must agree")
    if not (np.isfinite(beta) and beta >= 0.0):
        raise ValueError("beta must be finite and >= 0")
    spectra = validate_states(states)
    energies = np.einsum("nij,ji->n", states, h_final.matrix).real
    heats = beta * energies + log_partitions(h_final.eigenvalues[None], beta)[0] - spectrum_entropies(spectra)
    return np.where(heats < 0.0, 0.0, heats), heats  # max(heat, 0.0), -0.0 and NaN kept


# ---------------------------------------------------------------------------
# randomized protocol factory (used by experiment suites)
# ---------------------------------------------------------------------------

def random_protocols(layout: BipartitionLayout, beta: float, sources: RandomSource) -> ProtocolStack:
    """Random Hermitian initial/final Hamiltonians with a Haar drive, one
    protocol per source of the stack, drawn and validated as one stack: the
    Hamiltonians from the children 0 and 1 of each source, the drive from
    child 2."""
    h_initial = random_hermitians(layout.dim, sources.child(0))
    h_final = random_hermitians(layout.dim, sources.child(1))
    unitaries = haar_unitaries(layout.dim, sources.child(2))
    return ProtocolStack.of(h_initial, h_final, unitaries, beta)
