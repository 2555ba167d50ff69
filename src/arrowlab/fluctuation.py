"""Two-point measurement protocol and fluctuation relations.

Forward protocol: prepare the Gibbs state of the initial Hamiltonian,
projectively measure its energy, apply a unitary, measure in the final
Hamiltonian's eigenbasis.  The backward protocol starts from the final
Hamiltonian's Gibbs state and runs the conjugate order.  The ratio of the
two joint outcome distributions obeys the detailed fluctuation relation
p_f/p_b = exp(beta (W - dF)), from which the work-average identity
<exp(-beta W)> = exp(-beta dF) and the entropy-production identity
KL(p_f || p_b) = <beta (W - dF)> follow.

Degenerate spectra are handled by clustering eigenvalues: each projector
covers one cluster and the post-measurement state is the normalized
projector, which keeps the detailed ratio exact for every (n, m) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrow import TWO_QUBITS, EntropyBalanceReport, entropy_balance
from .core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    gibbs_state,
    haar_random_unitary,
    relative_entropy,
    tensor_product,
    unitary_from_hamiltonian,
)

CLUSTER_GAP_TOL = 1e-9
PROBABILITY_FLOOR = 1e-15
DISTRIBUTION_SUM_TOL = 1e-12
TEMPERATURE_DS_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class EnergyProjector:
    """One eigenvalue cluster of a Hamiltonian: its energy and projector."""

    energy: float
    projector: np.ndarray

    @property
    def multiplicity(self) -> int:
        return int(round(np.real(self.projector.trace())))


def eigen_projectors(h: Hamiltonian) -> list[EnergyProjector]:
    """Spectral projectors, one per eigenvalue cluster (gap tolerance 1e-9)."""
    evals, evecs = h.eigenvalues, h.eigenvectors
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[clusters[-1][-1]] <= CLUSTER_GAP_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    out = []
    for members in clusters:
        v = evecs[:, members]
        out.append(EnergyProjector(energy=float(np.mean(evals[members])), projector=v @ v.conj().T))
    return out


@dataclass(frozen=True, eq=False)
class TwoPointProtocol:
    """Initial/final Hamiltonians, the drive between the measurements, and
    the inverse temperature of the preparing bath."""

    h_initial: Hamiltonian
    h_final: Hamiltonian
    unitary: UnitaryOperator
    beta: float

    def __post_init__(self):
        if not (self.h_initial.dim == self.h_final.dim == self.unitary.dim):
            raise ValueError("protocol dimensions must agree")
        if not np.isfinite(self.beta) or self.beta <= 0.0:
            raise ValueError("beta must be finite and > 0")


@dataclass(frozen=True, eq=False)
class JointOutcomeDistribution:
    """p(n, m) over (initial cluster, final cluster) outcome pairs."""

    probs: np.ndarray
    energies_initial: np.ndarray
    energies_final: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.min() < -DISTRIBUTION_SUM_TOL:
            raise ValueError(f"negative outcome probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > DISTRIBUTION_SUM_TOL:
            raise ValueError(f"outcome probabilities sum to {p.sum()!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "energies_initial", np.asarray(self.energies_initial, dtype=float))
        object.__setattr__(self, "energies_final", np.asarray(self.energies_final, dtype=float))

    def work_values(self) -> np.ndarray:
        """W[n, m] = E'_m - E_n."""
        return self.energies_final[None, :] - self.energies_initial[:, None]


def _log_partition(h: Hamiltonian, beta: float) -> float:
    """ln sum exp(-beta E) in the form of scipy.special.logsumexp, so results
    match it bit for bit: every maximal term is taken out of the sum and
    counted, the rest are summed relative to the maximum."""
    a = -beta * h.eigenvalues
    a_max = a.max()
    top = a == a_max
    count = np.count_nonzero(top)
    rest = np.exp(np.where(top, -np.inf, a) - a_max).sum() / count
    return float(np.log1p(rest) + np.log(count) + a_max)


def free_energy(h: Hamiltonian, beta: float) -> float:
    """F = -ln(Z)/beta in the same (dimensionless) energy units as H."""
    return -_log_partition(h, beta) / beta


def free_energy_difference(protocol: TwoPointProtocol) -> float:
    """dF = F(h_final) - F(h_initial) at the protocol temperature."""
    return free_energy(protocol.h_final, protocol.beta) - free_energy(protocol.h_initial, protocol.beta)


def _transition_matrix(p_proj, q_proj, u: np.ndarray) -> np.ndarray:
    """t[n, m] = tr(Q_m U P_n U+); symmetric under protocol reversal.

    One contraction against the stacked Q_m per initial cluster n.
    """
    q = np.stack([qm.projector for qm in q_proj])
    t = np.empty((len(p_proj), len(q_proj)))
    for n, pn in enumerate(p_proj):
        rotated = u @ pn.projector @ u.conj().T
        t[n] = np.real(np.einsum("mij,ji->m", q, rotated))
    return np.clip(t, 0.0, None)


def forward_distribution(protocol: TwoPointProtocol) -> JointOutcomeDistribution:
    """p_f(n, m): Gibbs-weighted initial outcome, drive, final measurement."""
    p_proj = eigen_projectors(protocol.h_initial)
    q_proj = eigen_projectors(protocol.h_final)
    log_z = _log_partition(protocol.h_initial, protocol.beta)
    weights = np.exp(-protocol.beta * np.array([p.energy for p in p_proj]) - log_z)
    t = _transition_matrix(p_proj, q_proj, protocol.unitary.matrix)
    probs = weights[:, None] * t
    return JointOutcomeDistribution(
        probs=probs,
        energies_initial=np.array([p.energy for p in p_proj]),
        energies_final=np.array([q.energy for q in q_proj]),
    )


def backward_distribution(protocol: TwoPointProtocol) -> JointOutcomeDistribution:
    """p_b(n, m): start thermal on h_final, drive with U+, measure h_initial.

    Indexed (n, m) exactly like the forward distribution so the two can be
    compared elementwise.
    """
    p_proj = eigen_projectors(protocol.h_initial)
    q_proj = eigen_projectors(protocol.h_final)
    log_z = _log_partition(protocol.h_final, protocol.beta)
    weights = np.exp(-protocol.beta * np.array([q.energy for q in q_proj]) - log_z)
    u_dag = protocol.unitary.matrix.conj().T
    p = np.stack([pn.projector for pn in p_proj])
    t = np.empty((len(p_proj), len(q_proj)))
    for m, qm in enumerate(q_proj):
        rotated = u_dag @ qm.projector @ u_dag.conj().T
        t[:, m] = np.real(np.einsum("nij,ji->n", p, rotated))
    probs = np.clip(t, 0.0, None) * weights[None, :]
    return JointOutcomeDistribution(
        probs=probs,
        energies_initial=np.array([p.energy for p in p_proj]),
        energies_final=np.array([q.energy for q in q_proj]),
    )


@dataclass(frozen=True, eq=False)
class CrooksReport:
    """Elementwise detailed-ratio check plus the derived integral identities.

    ``ratio``, ``predicted`` and ``deviation`` are NaN wherever the backward
    probability falls below the 1e-15 floor (those pairs carry no data).
    ``jarzynski_lhs`` and ``jarzynski_rhs`` are <exp(-beta W)> and
    exp(-beta dF); ``entropy_production`` is KL(p_f || p_b), which must equal
    ``average_sigma`` = <beta (W - dF)>.
    """

    ratio: np.ndarray
    predicted: np.ndarray
    deviation: np.ndarray
    delta_f: float
    jarzynski_lhs: float
    jarzynski_rhs: float
    entropy_production: float
    average_sigma: float

    @property
    def max_deviation(self) -> float:
        finite = self.deviation[np.isfinite(self.deviation)]
        return float(finite.max()) if finite.size else 0.0


def crooks_check(protocol: TwoPointProtocol) -> CrooksReport:
    """Verify p_f/p_b = exp(beta (W - dF)) pair by pair.

    Pairs where p_f is supported but p_b is not are impossible for a finite
    temperature bath (both Gibbs states are full rank) and raise.
    """
    pf = forward_distribution(protocol)
    pb = backward_distribution(protocol)
    delta_f = free_energy_difference(protocol)
    w = pf.work_values()
    supported = pb.probs > PROBABILITY_FLOOR
    if np.any((pf.probs > PROBABILITY_FLOOR) & ~supported):
        raise ValueError("forward-supported outcome pair with vanishing backward probability")
    ratio = np.full_like(pf.probs, np.nan)
    ratio[supported] = pf.probs[supported] / pb.probs[supported]
    predicted = np.exp(protocol.beta * (w - delta_f))
    predicted_masked = np.where(supported, predicted, np.nan)
    deviation = np.abs(ratio - predicted_masked) / predicted_masked
    lhs, rhs = jarzynski_check(pf, protocol.beta, delta_f)
    kl, avg_sigma = entropy_production_identity(pf, pb, protocol.beta, delta_f)
    return CrooksReport(
        ratio=ratio,
        predicted=predicted_masked,
        deviation=deviation,
        delta_f=delta_f,
        jarzynski_lhs=lhs,
        jarzynski_rhs=rhs,
        entropy_production=kl,
        average_sigma=avg_sigma,
    )


def jarzynski_check(dist: JointOutcomeDistribution, beta: float, delta_f: float) -> tuple[float, float]:
    """(<exp(-beta W)> over the forward distribution, exp(-beta dF))."""
    lhs = float(np.sum(dist.probs * np.exp(-beta * dist.work_values())))
    rhs = float(np.exp(-beta * delta_f))
    return lhs, rhs


def entropy_production_identity(
    pf: JointOutcomeDistribution,
    pb: JointOutcomeDistribution,
    beta: float,
    delta_f: float,
) -> tuple[float, float]:
    """(KL(p_f || p_b), <beta (W - dF)>_pf); the two agree identically."""
    if pf.probs.shape != pb.probs.shape:
        raise ValueError("distributions must share outcome indexing")
    f = pf.probs
    b = pb.probs
    on = f > PROBABILITY_FLOOR
    if np.any(on & (b <= PROBABILITY_FLOOR)):
        raise ValueError("support of the forward distribution exceeds the backward one")
    kl = float(np.sum(f[on] * np.log(f[on] / b[on])))
    sigma = beta * (pf.work_values() - delta_f)
    avg_sigma = float(np.sum(f[on] * sigma[on]))
    return kl, avg_sigma


def measurement_symmetry_check(p: np.ndarray, q: np.ndarray, u: UnitaryOperator) -> tuple[float, float]:
    """tr(Q U P U+) and tr(P U+ Q U): identical by trace cyclicity, which is
    why measurement statistics alone carry no arrow of time."""
    m = u.matrix
    forward = float(np.real(np.einsum("ij,ji->", q, m @ p @ m.conj().T)))
    backward = float(np.real(np.einsum("ij,ji->", p, m.conj().T @ q @ m)))
    return forward, backward


# ---------------------------------------------------------------------------
# effective temperatures and heat flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveTemperatureReport:
    t_s: float
    t_r: float
    clausius_lhs: float


def effective_temperatures(report: EntropyBalanceReport, du_s: float, du_r: float) -> EffectiveTemperatureReport:
    """T = dU/dS per subsystem; the Clausius combination dU_S/T_S + dU_R/T_R
    collapses to dS_S + dS_R by construction."""
    if abs(report.ds_s) <= TEMPERATURE_DS_FLOOR or abs(report.ds_r) <= TEMPERATURE_DS_FLOOR:
        raise ValueError("effective temperature undefined: a local entropy change vanishes")
    return EffectiveTemperatureReport(
        t_s=du_s / report.ds_s,
        t_r=du_r / report.ds_r,
        clausius_lhs=report.ds_s + report.ds_r,
    )


def exchange_interaction() -> Hamiltonian:
    """Resonant excitation exchange |01><10| + |10><01|; commutes with the
    sum of two equal-gap local Hamiltonians."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = m[2, 1] = 1.0
    return Hamiltonian(m)


@dataclass(frozen=True)
class HeatFlowTrial:
    beta_s: float
    beta_r: float
    du_s: float
    du_r: float
    ds_s: float
    ds_r: float
    t_s: float
    t_r: float
    clausius_lhs: float
    hotter: str
    du_hotter: float


def heat_flow_trial(
    beta_s: float,
    beta_r: float,
    gap: float = 1.0,
    coupling: float = 1.0,
    time: float = 1.0,
) -> HeatFlowTrial:
    """Evolve a product of Gibbs qubits under an energy-conserving exchange
    and record energy/entropy bookkeeping for both sides.

    The local Hamiltonians share one gap so the exchange commutes with their
    sum; total energy is conserved and the hotter side can only lose.
    """
    if beta_s == beta_r:
        raise ValueError("beta_s and beta_r must differ so that one side is hotter")
    h_local = Hamiltonian(np.diag([0.0, gap]).astype(complex))
    rho = tensor_product(gibbs_state(h_local, beta_s), gibbs_state(h_local, beta_r))
    h_s = np.kron(h_local.matrix, np.eye(2))
    h_r = np.kron(np.eye(2), h_local.matrix)
    h_total = Hamiltonian(h_s + h_r + coupling * exchange_interaction().matrix)
    u = unitary_from_hamiltonian(h_total, time)
    report = entropy_balance(rho, TWO_QUBITS, u)
    final = u.matrix @ rho.matrix @ u.matrix.conj().T

    def energy(h: np.ndarray, m: np.ndarray) -> float:
        return float(np.real(np.einsum("ij,ji->", h, m)))

    du_s = energy(h_s, final) - energy(h_s, rho.matrix)
    du_r = energy(h_r, final) - energy(h_r, rho.matrix)
    temps = effective_temperatures(report, du_s, du_r)
    hotter = "S" if beta_s < beta_r else "R"
    return HeatFlowTrial(
        beta_s=beta_s,
        beta_r=beta_r,
        du_s=du_s,
        du_r=du_r,
        ds_s=report.ds_s,
        ds_r=report.ds_r,
        t_s=temps.t_s,
        t_r=temps.t_r,
        clausius_lhs=temps.clausius_lhs,
        hotter=hotter,
        du_hotter=du_s if hotter == "S" else du_r,
    )


def damping_heat(state: DensityOperator, h_final: Hamiltonian, beta: float) -> float:
    """Heat released when the state is damped into a bath thermal on h_final:
    the relative entropy to the corresponding Gibbs state."""
    return relative_entropy(state, gibbs_state(h_final, beta))


# ---------------------------------------------------------------------------
# randomized protocol factory (used by experiment suites)
# ---------------------------------------------------------------------------

def random_protocol(layout: BipartitionLayout, beta: float, rng: RandomSource) -> TwoPointProtocol:
    """Random Hermitian initial/final Hamiltonians with a Haar drive."""

    def random_hamiltonian(source: RandomSource) -> Hamiltonian:
        g = source.generator()
        z = g.standard_normal((layout.dim, layout.dim)) + 1j * g.standard_normal((layout.dim, layout.dim))
        return Hamiltonian((z + z.conj().T) / 2.0)

    return TwoPointProtocol(
        h_initial=random_hamiltonian(rng.child(0)),
        h_final=random_hamiltonian(rng.child(1)),
        unitary=haar_random_unitary(layout.dim, rng.child(2)),
        beta=beta,
    )
