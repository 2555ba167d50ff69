import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.arrow import TWO_QUBITS, entropy_balance
from arrowlab.core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    evolve_states,
    gibbs_state,
    haar_unitaries,
    mutual_information,
    pure_state,
    random_density_operator,
    random_hermitians,
)
from arrowlab.fluctuation import (
    ProtocolStack,
    _groups,
    _transitions,
    crooks_checks,
    damping_heat,
    effective_temperatures,
    heat_flow_trials,
    jarzynski_checks,
    log_partitions,
    random_protocols,
)
from oracles import PAULI_X, ket, kl_divergence, projector, transition_matrix_by_pairs

LN3 = 1.0986122886681098
H_QUBIT = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))


def one_protocol(h_initial, h_final, unitary, beta) -> ProtocolStack:
    """The stack of one protocol given by d x d matrices."""
    return ProtocolStack.of(h_initial[None], h_final[None], unitary[None], beta)


def draw(layout: BipartitionLayout, sources: RandomSource) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The initial and final Hamiltonians and drives that
    :func:`random_protocols` draws from a stack of sources."""
    return (
        random_hermitians(layout.dim, sources.child(0)),
        random_hermitians(layout.dim, sources.child(1)),
        haar_unitaries(layout.dim, sources.child(2)),
    )


# the single-qubit bit-flip protocol whose numbers are all hand-computable:
# thermal populations (0.75, 0.25) at beta = ln 3, W = +-1, dF = 0
FLIP = one_protocol(H_QUBIT.matrix, H_QUBIT.matrix, PAULI_X, LN3)
TRIVIAL = one_protocol(H_QUBIT.matrix, H_QUBIT.matrix, np.eye(2), LN3)


class TestClustering:
    def test_gap_tolerance_and_degenerate_outcomes(self):
        # levels 1e-10 apart are one outcome, 1e-8 apart two (CLUSTER_GAP_TOL = 1e-9)
        h_initial = np.array([np.diag([0.0, 1e-10]), np.diag([0.0, 1e-8])])
        h_final = np.array([np.diag([0.0, 1.0])] * 2)
        u = np.repeat(haar_unitaries(2, RandomSource(0)), 2, axis=0)
        close, apart = crooks_checks(ProtocolStack.of(h_initial, h_final, u, 1.0))
        assert close.forward.shape == close.backward.shape == (1, 2)
        assert apart.forward.shape == apart.backward.shape == (2, 2)
        # a Gibbs state of the identity is maximally mixed under any drive,
        # so each final cluster is measured with its multiplicity over 3
        h_final = np.array([np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 0.0, 1.0])])
        u = haar_unitaries(3, RandomSource(1).children(range(2)))
        distinct, paired = crooks_checks(ProtocolStack.of(np.array([np.eye(3)] * 2), h_final, u, 1.0))
        assert distinct.forward.shape == (1, 3)
        assert np.abs(distinct.forward - 1.0 / 3.0).max() <= 1e-15
        assert paired.forward.shape == (1, 2)
        assert np.abs(paired.forward - [[2.0 / 3.0, 1.0 / 3.0]]).max() <= 1e-15


class TestProtocolStack:
    def test_validation(self):
        with pytest.raises(ValueError, match="beta"):
            one_protocol(H_QUBIT.matrix, H_QUBIT.matrix, np.eye(2), 0.0)
        with pytest.raises(ValueError, match="dimensions"):
            one_protocol(H_QUBIT.matrix, H_QUBIT.matrix, np.eye(4), 1.0)
        with pytest.raises(ValueError, match="dimensions"):
            ProtocolStack.of(H_QUBIT.matrix, H_QUBIT.matrix, np.eye(2), 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            one_protocol(H_QUBIT.matrix, np.triu(np.ones((2, 2))), np.eye(2), 1.0)
        with pytest.raises(ValueError, match="unitary"):
            one_protocol(H_QUBIT.matrix, H_QUBIT.matrix, 2.0 * np.eye(2), 1.0)

    def test_random_protocols_validate_their_draws_through_of(self):
        layout = BipartitionLayout(2, 3)
        drawn = random_protocols(layout, 0.7, RandomSource(0).children(range(4)))
        built = ProtocolStack.of(*draw(layout, RandomSource(0).children(range(4))), 0.7)
        for name in ("evals_initial", "evecs_initial", "evals_final", "evecs_final", "unitaries"):
            assert np.array_equal(getattr(drawn, name), getattr(built, name))
        assert drawn.beta == built.beta == 0.7


class TestDistributions:
    def test_trivial_protocol_is_diagonal_gibbs(self):
        (report,) = crooks_checks(TRIVIAL)
        assert np.allclose(report.forward, np.diag([0.75, 0.25]), atol=1e-14)
        assert np.allclose(report.backward, np.diag([0.75, 0.25]), atol=1e-14)

    def test_flip_forward_hand_values(self):
        (report,) = crooks_checks(FLIP)
        assert np.allclose(report.forward, [[0.0, 0.75], [0.25, 0.0]], atol=1e-14)

    def test_flip_backward_hand_values(self):
        (report,) = crooks_checks(FLIP)
        assert np.allclose(report.backward, [[0.0, 0.25], [0.75, 0.0]], atol=1e-14)

    def test_pauli_x_initial_basis_hand_values(self):
        # thermal on X at beta = ln 3 holds |-> and |+> with (0.9, 0.1); each
        # has overlap 1/2 with both levels of the final Z-basis Hamiltonian
        (report,) = crooks_checks(one_protocol(PAULI_X, H_QUBIT.matrix, np.eye(2), LN3))
        assert np.allclose(report.forward, [[0.45, 0.45], [0.05, 0.05]], atol=1e-14)
        assert np.allclose(report.backward, [[0.375, 0.125], [0.375, 0.125]], atol=1e-14)

    @staticmethod
    def populations(h: np.ndarray, beta: float) -> np.ndarray:
        """Gibbs populations of the eigenvectors of h, as projector traces."""
        rho = gibbs_state(Hamiltonian(h), beta).matrix
        _, v = np.linalg.eigh(h)
        return np.array([float(np.real(np.einsum("ij,ji->", projector(v[:, n]), rho))) for n in range(len(h))])

    def test_forward_marginal_consistency(self):
        h_initial, _, _ = draw(TWO_QUBITS, RandomSource(0).children(range(10)))
        for h, report in zip(h_initial, crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(10))))):
            assert np.allclose(report.forward.sum(axis=1), self.populations(h, 1.0), atol=1e-12)

    def test_backward_marginal_consistency(self):
        _, h_final, _ = draw(TWO_QUBITS, RandomSource(0).children(range(10)))
        for h, report in zip(h_final, crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(10))))):
            assert np.allclose(report.backward.sum(axis=0), self.populations(h, 1.0), atol=1e-12)

    def test_distributions_normalize(self):
        for report in crooks_checks(random_protocols(TWO_QUBITS, 0.7, RandomSource(0).children(range(20)))):
            assert report.forward.sum() == pytest.approx(1.0, abs=1e-12)
            assert report.backward.sum() == pytest.approx(1.0, abs=1e-12)


class TestCrooks:
    def test_trivial_protocol_ratios_are_one(self):
        (report,) = crooks_checks(TRIVIAL)
        assert report.delta_f == pytest.approx(0.0, abs=1e-14)
        diag = np.diag(report.ratio)
        assert np.allclose(diag, 1.0, atol=1e-12)

    def test_flip_ratio_is_three(self):
        (report,) = crooks_checks(FLIP)
        assert report.delta_f == pytest.approx(0.0, abs=1e-14)
        assert report.ratio[0, 1] == pytest.approx(3.0, abs=1e-12)
        assert report.predicted[0, 1] == pytest.approx(3.0, abs=1e-12)
        assert report.ratio[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert report.max_deviation <= 1e-12

    def test_ratio_is_the_reported_distributions_divided(self):
        for report in crooks_checks(random_protocols(BipartitionLayout(2, 3), 1.0, RandomSource(0).children(range(5)))):
            assert np.array_equal(report.ratio, report.forward / report.backward)

    def test_vanishing_backward_probability_raises(self):
        # at beta = 40 the backward flip starts in the excited level with
        # weight e^-40 < PROBABILITY_FLOOR, while the forward one is certain
        with pytest.raises(ValueError, match="vanishing backward probability"):
            crooks_checks(one_protocol(H_QUBIT.matrix, H_QUBIT.matrix, PAULI_X, 40.0))

    def test_random_protocols_satisfy_detailed_ratio(self):
        for report in crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(100)))):
            assert report.max_deviation <= 1e-9

    def test_random_qutrit_pair_protocols(self):
        layout = BipartitionLayout(3, 3)
        for report in crooks_checks(random_protocols(layout, 0.5, RandomSource(0).children(range(5)))):
            assert report.max_deviation <= 1e-9

    @pytest.mark.parametrize("dims, trials, chunks", [((2, 2), 3, 1), ((4, 4), 300, 2)], ids=["2x2", "4x4"])
    def test_run_crooks_builds_two_stacks_per_chunk(self, monkeypatch, dims, trials, chunks):
        from arrowlab import experiments, fluctuation

        calls = []
        for name in ("forward", "backward"):
            original = getattr(fluctuation._ProtocolGroup, name)
            monkeypatch.setattr(fluctuation._ProtocolGroup, name, lambda group, f=original: calls.append(len(group.trials)) or f(group))
        experiments.run_crooks(trials=trials, beta=1.0, dim_s=dims[0], dim_r=dims[1], seed=0)
        # 4x4 stacks hold at most 2^16 / 16^2 = 256 trials
        assert len(calls) == 2 * chunks
        assert sum(calls) == 2 * trials


class TestTransitionMatrix:
    @staticmethod
    def oracle(h_initial, h_final, unitary, beta, labels_i, labels_f) -> np.ndarray:
        """p(N, M) from single eigenvectors: Gibbs weight of level n times
        |<f_m| U |i_n>|^2, summed over the levels of each labelled cluster."""
        e_i, v_i = np.linalg.eigh(h_initial)
        _, v_f = np.linalg.eigh(h_final)
        w = np.exp(-beta * (e_i - e_i.min()))
        levels = (w / w.sum())[:, None] * np.abs(v_f.conj().T @ unitary @ v_i).T ** 2
        out = np.zeros((max(labels_i) + 1, max(labels_f) + 1))
        np.add.at(out, (np.asarray(labels_i)[:, None], np.asarray(labels_f)[None, :]), levels)
        return out

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)], ids=["3x3", "4x4"])
    def test_forward_matches_eigenvector_oracle(self, dims):
        layout = BipartitionLayout(*dims)
        matrices = draw(layout, RandomSource(0).children(range(5)))
        levels = range(layout.dim)
        for k, report in enumerate(crooks_checks(ProtocolStack.of(*matrices, 0.7))):
            assert report.forward.shape == (layout.dim, layout.dim)
            expected = self.oracle(*(m[k] for m in matrices), 0.7, levels, levels)
            assert np.abs(report.forward - expected).max() <= 1e-14

    # spectra with repeated levels in Haar bases, clustered as [3, 2, 1, 2, 1]
    # initially and [1, 3, 1, 2, 2] finally
    LABELS_I = [0, 0, 0, 1, 1, 2, 3, 3, 4]
    LABELS_F = [0, 1, 1, 1, 2, 3, 3, 4, 4]

    @staticmethod
    def degenerate_protocol() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h_initial, h_final, unitary) of the degenerate protocol at beta 0.8."""
        energies_i = [0.0, 0.0, 0.0, 0.5, 0.5, 1.2, 2.0, 2.0, 3.0]
        energies_f = [-1.0, 0.2, 0.2, 0.2, 0.9, 1.5, 1.5, 2.5, 2.5]

        def hamiltonian(energies, seed):
            (v,) = haar_unitaries(9, RandomSource(seed))
            m = (v * np.array(energies)) @ v.conj().T
            return (m + m.conj().T) / 2.0

        return hamiltonian(energies_i, 1), hamiltonian(energies_f, 2), haar_unitaries(9, RandomSource(3))[0]

    def test_degenerate_forward_matches_clustered_oracle(self):
        # the oracle sums single levels over each cluster
        protocol = self.degenerate_protocol()
        stack = one_protocol(*protocol, 0.8)
        (group,) = _groups(stack)
        assert np.diff(group.starts_initial, append=9).tolist() == [3, 2, 1, 2, 1]
        assert np.diff(group.starts_final, append=9).tolist() == [1, 3, 1, 2, 2]
        expected = self.oracle(*protocol, 0.8, self.LABELS_I, self.LABELS_F)
        (report,) = crooks_checks(stack)
        assert np.abs(report.forward - expected).max() <= 1e-14

    def test_degenerate_transitions_sum_to_cluster_multiplicities(self):
        # the cluster projectors are complete on both sides: summed over the
        # final clusters, tr(Q_m U P_n U+) is the multiplicity of cluster n
        (group,) = _groups(one_protocol(*self.degenerate_protocol(), 0.8))
        t = _transitions(group.evecs_initial, group.evecs_final, group.unitaries, group.starts_initial, group.starts_final)[0]
        assert np.abs(t.sum(axis=1) - [3, 2, 1, 2, 1]).max() <= 1e-14
        assert np.abs(t.sum(axis=0) - [1, 3, 1, 2, 2]).max() <= 1e-14

    def test_degenerate_and_nondegenerate_protocols_share_a_stack(self):
        # the degenerate protocol of the test above and a random one, stacked:
        # each is its own cluster-size group and gives the reports and work
        # averages of its own stack of one
        protocols = [self.degenerate_protocol(), tuple(m[0] for m in draw(BipartitionLayout(3, 3), RandomSource(4)))]
        stack = ProtocolStack.of(*(np.stack(m) for m in zip(*protocols)), 0.8)
        groups = _groups(stack)
        assert sorted(int(k) for group in groups for k in group.trials) == [0, 1]
        (degenerate,) = [group for group in groups if group.trials[0] == 0]
        expected = self.oracle(*protocols[0], 0.8, self.LABELS_I, self.LABELS_F)
        assert np.abs(degenerate.forward()[0] - expected).max() <= 1e-14
        lhs, rhs = jarzynski_checks(stack)
        for k, (report, protocol) in enumerate(zip(crooks_checks(stack), protocols)):
            single_stack = one_protocol(*protocol, 0.8)
            (single,) = crooks_checks(single_stack)
            assert report.max_deviation == single.max_deviation <= 1e-9
            for name in ("forward", "backward", "ratio"):
                assert np.array_equal(getattr(report, name), getattr(single, name), equal_nan=True)
            assert (report.delta_f, report.jarzynski_lhs, report.entropy_production) == (
                single.delta_f, single.jarzynski_lhs, single.entropy_production
            )
            assert (lhs[k], rhs[k]) == tuple(a[0] for a in jarzynski_checks(single_stack))

    def test_each_direction_transported_once_the_backward_by_u_dagger(self, monkeypatch):
        from arrowlab import fluctuation

        drives = []
        original = fluctuation._transitions

        def counting(v_from, v_to, u, starts_from, starts_to):
            drives.append(u)
            return original(v_from, v_to, u, starts_from, starts_to)

        monkeypatch.setattr(fluctuation, "_transitions", counting)
        stack = random_protocols(BipartitionLayout(2, 2), 1.0, RandomSource(0))
        crooks_checks(stack)
        # the backward transition matrix is computed on its own, from U+
        u = stack.unitaries[0]
        assert len(drives) == 2
        assert np.array_equal(drives[0][0], u)
        assert np.array_equal(drives[1][0], u.conj().T)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)], ids=["2x2", "3x3", "4x4"])
    def test_stacked_transitions_match_single_protocols_and_pairwise_traces(self, dims):
        # the transition matrices of 50 protocols, computed as one stack
        stack = random_protocols(BipartitionLayout(*dims), 1.0, RandomSource(0).children(range(50)))
        (group,) = _groups(stack)
        transitions = (group.evecs_initial, group.evecs_final, group.unitaries, group.starts_initial, group.starts_final)
        stacked = _transitions(*transitions)
        for k in range(len(stack)):
            single = _transitions(*(a[k : k + 1] for a in transitions[:3]), *transitions[3:])
            assert np.array_equal(stacked[k], single[0])
            p = [np.outer(v, v.conj()) for v in stack.evecs_initial[k].T]
            q = [np.outer(v, v.conj()) for v in stack.evecs_final[k].T]
            expected = transition_matrix_by_pairs(p, q, stack.unitaries[k])
            assert np.abs(stacked[k] - expected).max() <= 1e-15

    def test_no_einsum_in_a_crooks_check(self, monkeypatch):
        stack = random_protocols(BipartitionLayout(4, 4), 1.0, RandomSource(0))
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs))
        crooks_checks(stack)
        assert calls == []

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)], ids=["3x3", "4x4"])
    def test_run_crooks_ratio_deviation_stays_at_rounding_level(self, dims):
        # small probabilities are squared overlaps, not differences of O(1)
        # projector traces, so the detailed ratio holds far inside RATIO_TOL
        from arrowlab import experiments

        worst = max(row[2] for seed in range(10) for row in experiments.run_crooks(100, 1.0, *dims, seed)[0])
        assert worst <= 1e-12


class TestFreeEnergy:
    def test_matches_scipy_logsumexp_bit_for_bit(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(0)
        for dim in (2, 4, 6):
            for k in range(40):
                z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                # odd draws get a degenerate spectrum with exact ties
                m = (z + z.conj().T) / 2 if k % 2 == 0 else np.diag(np.round(2 * rng.standard_normal(dim)) / 2)
                h = Hamiltonian(m.astype(complex))
                for beta in (0.1, 1.0, 50.0):
                    assert log_partitions(h.eigenvalues[None], beta)[0] == logsumexp(-beta * h.eigenvalues)


class TestJarzynski:
    def test_trivial_protocol(self):
        (report,) = crooks_checks(TRIVIAL)
        assert report.jarzynski_lhs == pytest.approx(1.0, abs=1e-14)
        assert report.jarzynski_rhs == 1.0
        assert (report.jarzynski_lhs, report.jarzynski_rhs) == tuple(a[0] for a in jarzynski_checks(TRIVIAL))

    def test_flip_hand_sum(self):
        # 0.75 e^{-ln 3} + 0.25 e^{+ln 3} = 0.25 + 0.75 = 1
        lhs, rhs = jarzynski_checks(FLIP)
        assert lhs[0] == pytest.approx(1.0, abs=1e-14)
        assert rhs[0] == 1.0

    def test_random_protocols(self):
        lhs, rhs = jarzynski_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(100))))
        assert np.all(np.abs(lhs - rhs) / rhs <= 1e-9)


class TestEntropyProduction:
    def test_trivial_protocol_is_zero(self):
        (report,) = crooks_checks(TRIVIAL)
        assert report.entropy_production == pytest.approx(0.0, abs=1e-14)
        assert report.average_sigma == pytest.approx(0.0, abs=1e-14)

    def test_flip_hand_value(self):
        (report,) = crooks_checks(FLIP)
        kl, avg = report.entropy_production, report.average_sigma
        assert kl == pytest.approx(0.5 * LN3, abs=1e-13)  # 0.549306...
        assert avg == pytest.approx(0.5 * LN3, abs=1e-13)
        assert kl == pytest.approx(kl_divergence([0.75, 0.25], [0.25, 0.75]), abs=1e-13)

    def test_identity_holds_on_random_protocols(self):
        for report in crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(100)))):
            kl, avg = report.entropy_production, report.average_sigma
            assert abs(kl - avg) <= 1e-9
            assert kl >= -1e-12
            assert avg >= -1e-12

    def test_positive_entropy_production_with_product_final_state(self):
        # drive two thermal qubits with local flips: the final state stays
        # product (zero mutual information) yet sigma > 0
        h_joint = Hamiltonian(np.kron(H_QUBIT.matrix, np.eye(2)) + np.kron(np.eye(2), H_QUBIT.matrix))
        u = np.kron(PAULI_X, PAULI_X)
        (report,) = crooks_checks(one_protocol(h_joint.matrix, h_joint.matrix, u, LN3))
        final = DensityOperator(evolve_states(gibbs_state(h_joint, LN3).matrix[None], u[None])[0])
        assert mutual_information(final, TWO_QUBITS) == pytest.approx(0.0, abs=1e-12)
        assert report.average_sigma > 0.1


class TestEffectiveTemperatures:
    def test_arithmetic_of_definition(self):
        from arrowlab.arrow import EntropyBalanceReport

        report = EntropyBalanceReport(
            ds_s=-0.2, ds_r=0.4, sum=0.2, mi_initial=0.3, mi_final=0.4, schrodinger_product=-0.08, product_input=False
        )
        t_s, t_r = effective_temperatures(report, du_s=-0.1, du_r=0.1)
        assert t_s == pytest.approx(0.5, abs=1e-14)
        assert t_r == pytest.approx(0.25, abs=1e-14)

    def test_undefined_for_identity_evolution(self):
        rho = pure_state(np.kron(ket(0), ket(1)))
        report = entropy_balance(rho, TWO_QUBITS, UnitaryOperator(np.eye(4, dtype=complex)))
        with pytest.raises(ValueError, match="undefined"):
            effective_temperatures(report, 0.0, 0.0)

    def test_heat_flows_hot_to_cold(self):
        root = RandomSource(55)
        for i in range(50):
            g = root.child(i).generator()
            beta_hot = g.uniform(0.2, 1.0)
            beta_cold = beta_hot + g.uniform(0.5, 2.0)
            if g.integers(2):
                beta_s, beta_r = beta_hot, beta_cold
            else:
                beta_s, beta_r = beta_cold, beta_hot
            rep = heat_flow_trials([beta_s], [beta_r], [g.uniform(0.5, 1.2)])
            (du_s,), (du_r,), clausius = rep.du_s, rep.du_r, rep.balance.sum[0]
            assert (du_s if beta_s < beta_r else du_r) <= 1e-12
            assert du_s + du_r == pytest.approx(0.0, abs=1e-12)  # exchange conserves energy
            assert clausius >= -1e-9
            assert clausius == pytest.approx(rep.balance.ds_s[0] + rep.balance.ds_r[0], abs=1e-14)
            assert (rep.t_s[0], rep.t_r[0]) == (du_s / rep.balance.ds_s[0], du_r / rep.balance.ds_r[0])

    def test_equal_betas_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            heat_flow_trials([1.0], [1.0], [1.0])

    def test_state_evolved_once_and_no_reduced_state_built(self, monkeypatch):
        calls = {"eig": 0, "state": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, "eig"))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh, "eig"))
        monkeypatch.setattr(DensityOperator, "__post_init__", counting(DensityOperator.__post_init__, "state"))
        heat_flow_trials([0.5], [1.5], [0.8])
        # the two Gibbs factors, each validated as a stack of one; the local
        # and the total Hamiltonian; the two final marginals and the final
        # joint state.  The product is neither validated nor decomposed: its
        # initial entropies come from the factor spectra
        assert calls == {"eig": 7, "state": 0}


class TestDampingHeat:
    def test_thermal_state_has_zero_heat(self):
        assert damping_heat(gibbs_state(H_QUBIT, LN3), H_QUBIT, LN3) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_hand_value(self):
        got = damping_heat(DensityOperator(np.eye(2) / 2), H_QUBIT, LN3)
        assert got == pytest.approx(0.14384103622589042, abs=1e-12)  # 0.5 ln(0.5/0.75) + 0.5 ln(0.5/0.25)

    def test_excited_state_hand_value(self):
        got = damping_heat(pure_state(ket(1)), H_QUBIT, LN3)
        assert got == pytest.approx(math.log(4.0), abs=1e-12)

    def test_nonnegative_on_random_states(self):
        for seed in range(30):
            state = random_density_operator(2, 2, RandomSource(seed))
            assert damping_heat(state, H_QUBIT, 1.3) >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        beta=st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
        r=st.floats(min_value=0.0, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_heat_is_finite_and_nonnegative_and_vanishes_when_thermal(self, beta, r, theta, phi):
        # the qubit with Bloch vector r (sin theta cos phi, sin theta sin phi, cos theta)
        x, y, z = r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi), r * math.cos(theta)
        state = DensityOperator(np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]) / 2.0)
        heat = damping_heat(state, H_QUBIT, beta)
        assert math.isfinite(heat) and heat >= 0.0
        assert abs(damping_heat(gibbs_state(H_QUBIT, beta), H_QUBIT, beta)) <= 1e-12

    @pytest.mark.parametrize("beta", [1e-300, 50.0, 800.0, 1e300])
    def test_extreme_beta_heats_are_finite(self, beta):
        # beyond beta ~ 745 every Gibbs weight but the ground one underflows
        assert damping_heat(gibbs_state(H_QUBIT, beta), H_QUBIT, beta) == pytest.approx(0.0, abs=1e-12)
        assert damping_heat(pure_state(ket(1)), H_QUBIT, beta) == pytest.approx(beta + math.log1p(math.exp(-beta)), rel=1e-15)
