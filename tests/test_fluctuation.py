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
    gibbs_state,
    haar_random_unitary,
    identity_unitary,
    maximally_mixed,
    mutual_information,
    pure_state,
    random_density_operator,
)
from arrowlab.fluctuation import (
    ProtocolStack,
    TwoPointProtocol,
    _groups,
    _transitions,
    backward_distribution,
    crooks_check,
    crooks_checks,
    damping_heat,
    effective_temperatures,
    eigen_projectors,
    entropy_production_identity,
    forward_distribution,
    free_energy,
    free_energy_difference,
    heat_flow_trial,
    jarzynski_check,
    jarzynski_checks,
    measurement_symmetry_check,
    random_protocol,
)
from oracles import PAULI_X, ket, kl_divergence, projector, transition_matrix_by_pairs

LN3 = 1.0986122886681098
H_QUBIT = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))

# the single-qubit bit-flip protocol whose numbers are all hand-computable:
# thermal populations (0.75, 0.25) at beta = ln 3, W = +-1, dF = 0
FLIP = TwoPointProtocol(h_initial=H_QUBIT, h_final=H_QUBIT, unitary=UnitaryOperator(PAULI_X), beta=LN3)


class TestEigenProjectors:
    def test_diagonal_hamiltonian(self):
        projs = eigen_projectors(H_QUBIT)
        assert len(projs) == 2
        assert np.allclose(projs[0].projector, projector(ket(0)))
        assert np.allclose(projs[1].projector, projector(ket(1)))
        assert [p.energy for p in projs] == [0.0, 1.0]

    def test_pauli_x_eigenbasis(self):
        projs = eigen_projectors(Hamiltonian(PAULI_X))
        minus = (ket(0) - ket(1)) / math.sqrt(2)
        plus = (ket(0) + ket(1)) / math.sqrt(2)
        assert np.allclose(projs[0].projector, projector(minus), atol=1e-14)
        assert np.allclose(projs[1].projector, projector(plus), atol=1e-14)

    def test_fully_degenerate_clusters_to_identity(self):
        projs = eigen_projectors(Hamiltonian(np.eye(3, dtype=complex)))
        assert len(projs) == 1
        assert np.allclose(projs[0].projector, np.eye(3))
        assert projs[0].multiplicity == 3

    def test_completeness_and_orthogonality(self):
        g = RandomSource(4).generator()
        z = g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))
        projs = eigen_projectors(Hamiltonian((z + z.conj().T) / 2))
        total = sum(p.projector for p in projs)
        assert np.abs(total - np.eye(5)).max() <= 1e-12
        for i, a in enumerate(projs):
            for j, b in enumerate(projs):
                product = a.projector @ b.projector
                target = a.projector if i == j else np.zeros((5, 5))
                assert np.abs(product - target).max() <= 1e-12

    def test_nondegenerate_projector_count_equals_dim(self):
        for seed in range(5):
            g = RandomSource(seed).generator()
            z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
            projs = eigen_projectors(Hamiltonian((z + z.conj().T) / 2))
            assert len(projs) == 4


class TestDistributions:
    def test_trivial_protocol_is_diagonal_gibbs(self):
        protocol = TwoPointProtocol(H_QUBIT, H_QUBIT, identity_unitary(2), LN3)
        pf = forward_distribution(protocol)
        assert np.allclose(pf.probs, np.diag([0.75, 0.25]), atol=1e-14)
        pb = backward_distribution(protocol)
        assert np.allclose(pb.probs, np.diag([0.75, 0.25]), atol=1e-14)

    def test_flip_forward_hand_values(self):
        pf = forward_distribution(FLIP)
        assert np.allclose(pf.probs, [[0.0, 0.75], [0.25, 0.0]], atol=1e-14)

    def test_flip_backward_hand_values(self):
        pb = backward_distribution(FLIP)
        assert np.allclose(pb.probs, [[0.0, 0.25], [0.75, 0.0]], atol=1e-14)

    def test_forward_marginal_consistency(self):
        for seed in range(10):
            protocol = random_protocol(TWO_QUBITS, 1.0, RandomSource(seed))
            pf = forward_distribution(protocol)
            rho = gibbs_state(protocol.h_initial, protocol.beta)
            populations = [
                float(np.real(np.einsum("ij,ji->", p.projector, rho.matrix)))
                for p in eigen_projectors(protocol.h_initial)
            ]
            assert np.allclose(pf.probs.sum(axis=1), populations, atol=1e-12)

    def test_backward_marginal_consistency(self):
        for seed in range(10):
            protocol = random_protocol(TWO_QUBITS, 1.0, RandomSource(seed))
            pb = backward_distribution(protocol)
            rho = gibbs_state(protocol.h_final, protocol.beta)
            populations = [
                float(np.real(np.einsum("ij,ji->", q.projector, rho.matrix)))
                for q in eigen_projectors(protocol.h_final)
            ]
            assert np.allclose(pb.probs.sum(axis=0), populations, atol=1e-12)

    def test_distributions_normalize(self):
        for seed in range(20):
            protocol = random_protocol(TWO_QUBITS, 0.7, RandomSource(seed))
            assert forward_distribution(protocol).probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert backward_distribution(protocol).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_protocol_validation(self):
        with pytest.raises(ValueError, match="beta"):
            TwoPointProtocol(H_QUBIT, H_QUBIT, identity_unitary(2), 0.0)
        with pytest.raises(ValueError, match="dimensions"):
            TwoPointProtocol(H_QUBIT, H_QUBIT, identity_unitary(4), 1.0)


class TestCrooks:
    def test_trivial_protocol_ratios_are_one(self):
        protocol = TwoPointProtocol(H_QUBIT, H_QUBIT, identity_unitary(2), LN3)
        report = crooks_check(protocol)
        assert report.delta_f == pytest.approx(0.0, abs=1e-14)
        diag = np.diag(report.ratio)
        assert np.allclose(diag, 1.0, atol=1e-12)

    def test_flip_ratio_is_three(self):
        report = crooks_check(FLIP)
        assert report.delta_f == pytest.approx(0.0, abs=1e-14)
        assert report.ratio[0, 1] == pytest.approx(3.0, abs=1e-12)
        assert report.predicted[0, 1] == pytest.approx(3.0, abs=1e-12)
        assert report.ratio[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert report.max_deviation <= 1e-12

    def test_random_protocols_satisfy_detailed_ratio(self):
        for seed in range(100):
            report = crooks_check(random_protocol(TWO_QUBITS, 1.0, RandomSource(seed)))
            assert report.max_deviation <= 1e-9

    def test_random_qutrit_pair_protocols(self):
        layout = BipartitionLayout(3, 3)
        for seed in range(5):
            report = crooks_check(random_protocol(layout, 0.5, RandomSource(seed)))
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
    def oracle(protocol: TwoPointProtocol, labels_i, labels_f) -> np.ndarray:
        """p(N, M) from single eigenvectors: Gibbs weight of level n times
        |<f_m| U |i_n>|^2, summed over the levels of each labelled cluster."""
        e_i, v_i = np.linalg.eigh(protocol.h_initial.matrix)
        _, v_f = np.linalg.eigh(protocol.h_final.matrix)
        w = np.exp(-protocol.beta * (e_i - e_i.min()))
        levels = (w / w.sum())[:, None] * np.abs(v_f.conj().T @ protocol.unitary.matrix @ v_i).T ** 2
        out = np.zeros((max(labels_i) + 1, max(labels_f) + 1))
        np.add.at(out, (np.asarray(labels_i)[:, None], np.asarray(labels_f)[None, :]), levels)
        return out

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)], ids=["3x3", "4x4"])
    def test_forward_matches_eigenvector_oracle(self, dims):
        layout = BipartitionLayout(*dims)
        for seed in range(5):
            protocol = random_protocol(layout, 0.7, RandomSource(seed))
            assert len(eigen_projectors(protocol.h_initial)) == len(eigen_projectors(protocol.h_final)) == layout.dim
            levels = range(layout.dim)
            expected = self.oracle(protocol, levels, levels)
            assert np.abs(forward_distribution(protocol).probs - expected).max() <= 1e-14

    @staticmethod
    def degenerate_protocol() -> TwoPointProtocol:
        """Spectra with repeated levels in Haar bases, clustered as
        [3, 2, 1, 2, 1] initially and [1, 3, 1, 2, 2] finally."""
        energies_i = [0.0, 0.0, 0.0, 0.5, 0.5, 1.2, 2.0, 2.0, 3.0]
        energies_f = [-1.0, 0.2, 0.2, 0.2, 0.9, 1.5, 1.5, 2.5, 2.5]

        def hamiltonian(energies, seed):
            v = haar_random_unitary(9, RandomSource(seed)).matrix
            m = (v * np.array(energies)) @ v.conj().T
            return Hamiltonian((m + m.conj().T) / 2.0)

        return TwoPointProtocol(
            hamiltonian(energies_i, 1), hamiltonian(energies_f, 2), haar_random_unitary(9, RandomSource(3)), 0.8
        )

    def test_degenerate_forward_matches_clustered_oracle(self):
        # the oracle sums single levels over each cluster
        labels_i = [0, 0, 0, 1, 1, 2, 3, 3, 4]
        labels_f = [0, 1, 1, 1, 2, 3, 3, 4, 4]
        protocol = self.degenerate_protocol()
        assert [p.multiplicity for p in eigen_projectors(protocol.h_initial)] == [3, 2, 1, 2, 1]
        assert [q.multiplicity for q in eigen_projectors(protocol.h_final)] == [1, 3, 1, 2, 2]
        expected = self.oracle(protocol, labels_i, labels_f)
        assert np.abs(forward_distribution(protocol).probs - expected).max() <= 1e-14

    def test_degenerate_and_nondegenerate_protocols_share_a_stack(self):
        # the degenerate protocol of the test above and a random one, stacked:
        # each is its own cluster-size group and gives its own distributions
        protocols = [self.degenerate_protocol(), random_protocol(BipartitionLayout(3, 3), 0.8, RandomSource(4))]
        stack = ProtocolStack.of(protocols)
        groups = _groups(stack)
        assert sorted(int(k) for group in groups for k in group.trials) == [0, 1]
        for group in groups:
            (trial,) = group.trials
            protocol = protocols[trial]
            assert np.array_equal(group.forward()[0], forward_distribution(protocol).probs)
            assert np.array_equal(group.backward()[0], backward_distribution(protocol).probs)
        expected = self.oracle(protocols[0], [0, 0, 0, 1, 1, 2, 3, 3, 4], [0, 1, 1, 1, 2, 3, 3, 4, 4])
        (degenerate,) = [group for group in groups if group.trials[0] == 0]
        assert np.abs(degenerate.forward()[0] - expected).max() <= 1e-14
        for report, protocol in zip(crooks_checks(stack), protocols):
            single = crooks_check(protocol)
            assert report.max_deviation == single.max_deviation <= 1e-9
            assert np.array_equal(report.ratio, single.ratio, equal_nan=True)
            assert (report.delta_f, report.jarzynski_lhs, report.entropy_production) == (
                single.delta_f, single.jarzynski_lhs, single.entropy_production
            )
        lhs, rhs = jarzynski_checks(stack)
        for k, protocol in enumerate(protocols):
            single = jarzynski_check(forward_distribution(protocol), protocol.beta, free_energy_difference(protocol))
            assert (lhs[k], rhs[k]) == single

    def test_each_direction_transported_once_the_backward_by_u_dagger(self, monkeypatch):
        from arrowlab import fluctuation

        drives = []
        original = fluctuation._transitions

        def counting(v_from, v_to, u, starts_from, starts_to):
            drives.append(u)
            return original(v_from, v_to, u, starts_from, starts_to)

        monkeypatch.setattr(fluctuation, "_transitions", counting)
        protocol = random_protocol(BipartitionLayout(2, 2), 1.0, RandomSource(0))
        crooks_check(protocol)
        # the backward transition matrix is computed on its own, from U+
        u = protocol.unitary.matrix
        assert len(drives) == 2
        assert np.array_equal(drives[0][0], u)
        assert np.array_equal(drives[1][0], u.conj().T)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)], ids=["2x2", "3x3", "4x4"])
    def test_stacked_transitions_match_single_protocols_and_pairwise_traces(self, dims):
        # the transition matrices of 50 protocols, computed as one stack
        protocols = [random_protocol(BipartitionLayout(*dims), 1.0, RandomSource(seed)) for seed in range(50)]
        (group,) = _groups(ProtocolStack.of(protocols))
        transitions = (group.evecs_initial, group.evecs_final, group.unitaries, group.starts_initial, group.starts_final)
        stacked = _transitions(*transitions)
        for k, protocol in enumerate(protocols):
            single = _transitions(*(a[k : k + 1] for a in transitions[:3]), *transitions[3:])
            assert np.array_equal(stacked[k], single[0])
            p = [pn.projector for pn in eigen_projectors(protocol.h_initial)]
            q = [qm.projector for qm in eigen_projectors(protocol.h_final)]
            expected = transition_matrix_by_pairs(p, q, protocol.unitary.matrix)
            assert np.abs(stacked[k] - expected).max() <= 1e-15

    def test_no_einsum_in_a_crooks_check(self, monkeypatch):
        protocol = random_protocol(BipartitionLayout(4, 4), 1.0, RandomSource(0))
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs))
        crooks_check(protocol)
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
                    assert free_energy(h, beta) == -float(logsumexp(-beta * h.eigenvalues)) / beta


class TestJarzynski:
    def test_trivial_protocol(self):
        protocol = TwoPointProtocol(H_QUBIT, H_QUBIT, identity_unitary(2), LN3)
        lhs, rhs = jarzynski_check(forward_distribution(protocol), LN3, 0.0)
        assert lhs == pytest.approx(1.0, abs=1e-14)
        assert rhs == 1.0

    def test_flip_hand_sum(self):
        # 0.75 e^{-ln 3} + 0.25 e^{+ln 3} = 0.25 + 0.75 = 1
        lhs, rhs = jarzynski_check(forward_distribution(FLIP), LN3, 0.0)
        assert lhs == pytest.approx(1.0, abs=1e-14)
        assert rhs == 1.0

    def test_random_protocols(self):
        for seed in range(100):
            protocol = random_protocol(TWO_QUBITS, 1.0, RandomSource(seed))
            delta_f = free_energy_difference(protocol)
            lhs, rhs = jarzynski_check(forward_distribution(protocol), 1.0, delta_f)
            assert abs(lhs - rhs) / rhs <= 1e-9


class TestEntropyProduction:
    def test_trivial_protocol_is_zero(self):
        protocol = TwoPointProtocol(H_QUBIT, H_QUBIT, identity_unitary(2), LN3)
        kl, avg = entropy_production_identity(
            forward_distribution(protocol), backward_distribution(protocol), LN3, 0.0
        )
        assert kl == pytest.approx(0.0, abs=1e-14)
        assert avg == pytest.approx(0.0, abs=1e-14)

    def test_flip_hand_value(self):
        kl, avg = entropy_production_identity(forward_distribution(FLIP), backward_distribution(FLIP), LN3, 0.0)
        assert kl == pytest.approx(0.5 * LN3, abs=1e-13)  # 0.549306...
        assert avg == pytest.approx(0.5 * LN3, abs=1e-13)
        assert kl == pytest.approx(kl_divergence([0.75, 0.25], [0.25, 0.75]), abs=1e-13)

    def test_identity_holds_on_random_protocols(self):
        for seed in range(100):
            protocol = random_protocol(TWO_QUBITS, 1.0, RandomSource(seed))
            delta_f = free_energy_difference(protocol)
            kl, avg = entropy_production_identity(
                forward_distribution(protocol), backward_distribution(protocol), 1.0, delta_f
            )
            assert abs(kl - avg) <= 1e-9
            assert kl >= -1e-12
            assert avg >= -1e-12

    def test_positive_entropy_production_with_product_final_state(self):
        # drive two thermal qubits with local flips: the final state stays
        # product (zero mutual information) yet sigma > 0
        h_joint = Hamiltonian(np.kron(H_QUBIT.matrix, np.eye(2)) + np.kron(np.eye(2), H_QUBIT.matrix))
        u = UnitaryOperator(np.kron(PAULI_X, PAULI_X))
        protocol = TwoPointProtocol(h_joint, h_joint, u, LN3)
        kl, avg = entropy_production_identity(
            forward_distribution(protocol), backward_distribution(protocol), LN3, free_energy_difference(protocol)
        )
        from arrowlab.core import evolve

        final = evolve(gibbs_state(h_joint, LN3), u)
        assert mutual_information(final, TWO_QUBITS) == pytest.approx(0.0, abs=1e-12)
        assert avg > 0.1

    def test_support_violation_raises(self):
        pf = forward_distribution(FLIP)
        protocol_id = TwoPointProtocol(H_QUBIT, H_QUBIT, identity_unitary(2), LN3)
        pb = backward_distribution(protocol_id)  # diagonal support, disjoint from FLIP's
        with pytest.raises(ValueError, match="support"):
            entropy_production_identity(pf, pb, LN3, 0.0)


class TestMeasurementSymmetry:
    def test_identity_drive_reduces_to_overlap(self):
        p = projector(ket(0))
        q = projector((ket(0) + ket(1)) / math.sqrt(2))
        f, b = measurement_symmetry_check(p, q, identity_unitary(2))
        assert f == pytest.approx(0.5, abs=1e-14)
        assert b == pytest.approx(0.5, abs=1e-14)

    def test_equality_on_random_instances(self):
        root = RandomSource(314)
        for i in range(1000):
            src = root.child(i)
            g = src.child(0).generator()
            p = projector(g.standard_normal(4) + 1j * g.standard_normal(4))
            q = projector(g.standard_normal(4) + 1j * g.standard_normal(4))
            u = haar_random_unitary(4, src.child(1))
            f, b = measurement_symmetry_check(p, q, u)
            assert abs(f - b) <= 1e-12

    def test_matrix_element_symmetry(self):
        # |<m|P|n>|^2 = |<n|P|m>|^2 for Hermitian P
        g = RandomSource(8).generator()
        z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        p = (z + z.conj().T) / 2
        for _ in range(50):
            m = g.standard_normal(4) + 1j * g.standard_normal(4)
            n = g.standard_normal(4) + 1j * g.standard_normal(4)
            m /= np.linalg.norm(m)
            n /= np.linalg.norm(n)
            lhs = abs(m.conj() @ p @ n) ** 2
            rhs = abs(n.conj() @ p @ m) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEffectiveTemperatures:
    def test_arithmetic_of_definition(self):
        from arrowlab.arrow import EntropyBalanceReport

        report = EntropyBalanceReport(
            ds_s=-0.2, ds_r=0.4, sum=0.2, mi_initial=0.3, mi_final=0.4, schrodinger_product=-0.08, product_input=False
        )
        temps = effective_temperatures(report, du_s=-0.1, du_r=0.1)
        assert temps.t_s == pytest.approx(0.5, abs=1e-14)
        assert temps.t_r == pytest.approx(0.25, abs=1e-14)
        assert temps.clausius_lhs == pytest.approx(0.2, abs=1e-14)

    def test_undefined_for_identity_evolution(self):
        rho = pure_state(np.kron(ket(0), ket(1)))
        report = entropy_balance(rho, TWO_QUBITS, identity_unitary(4))
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
            trial = heat_flow_trial(beta_s, beta_r, time=g.uniform(0.5, 1.2))
            assert trial.du_hotter <= 1e-12
            assert trial.du_s + trial.du_r == pytest.approx(0.0, abs=1e-12)  # exchange conserves energy
            assert trial.clausius_lhs >= -1e-9
            assert trial.clausius_lhs == pytest.approx(trial.ds_s + trial.ds_r, abs=1e-14)

    def test_equal_betas_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            heat_flow_trial(1.0, 1.0)

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
        heat_flow_trial(0.5, 1.5, time=0.8)
        # two Gibbs states and their product, each validated as a stack of
        # one; the local and the total Hamiltonian; the five spectra of the
        # entropy balance
        assert calls == {"eig": 10, "state": 0}


class TestDampingHeat:
    def test_thermal_state_has_zero_heat(self):
        assert damping_heat(gibbs_state(H_QUBIT, LN3), H_QUBIT, LN3) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_hand_value(self):
        got = damping_heat(maximally_mixed(2), H_QUBIT, LN3)
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
