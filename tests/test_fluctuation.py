import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.arrow import TWO_QUBITS, state_balances
from arrowlab.core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    evolve_states,
    gibbs_state,
    haar_unitaries,
    pure_state,
    random_density_operator,
    random_hermitians,
)
from arrowlab.fluctuation import (
    CrooksReport,
    ProtocolStack,
    _groups,
    _transitions,
    crooks_checks,
    damping_heats,
    effective_temperatures,
    heat_flow_trials,
    jarzynski_checks,
    log_partitions,
    random_protocols,
)
from oracles import (
    PAULI_X,
    bits,
    crooks_reports_one_at_a_time,
    ket,
    kl_divergence,
    mutual_information,
    projector,
    rows,
    transition_matrix_by_pairs,
)

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
        report = crooks_checks(ProtocolStack.of(h_initial, h_final, u, 1.0))
        assert [(pf.shape, pb.shape) for pf, pb in zip(report.forward, report.backward)] == [((1, 2), (1, 2)), ((2, 2), (2, 2))]
        # a Gibbs state of the identity is maximally mixed under any drive,
        # so each final cluster is measured with its multiplicity over 3
        h_final = np.array([np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 0.0, 1.0])])
        u = haar_unitaries(3, RandomSource(1).children(range(2)))
        distinct, paired = crooks_checks(ProtocolStack.of(np.array([np.eye(3)] * 2), h_final, u, 1.0)).forward
        assert distinct.shape == (1, 3)
        assert np.abs(distinct - 1.0 / 3.0).max() <= 1e-15
        assert paired.shape == (1, 2)
        assert np.abs(paired - [[2.0 / 3.0, 1.0 / 3.0]]).max() <= 1e-15


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
        report = crooks_checks(TRIVIAL)
        assert np.allclose(report.forward[0], np.diag([0.75, 0.25]), atol=1e-14)
        assert np.allclose(report.backward[0], np.diag([0.75, 0.25]), atol=1e-14)

    def test_flip_forward_hand_values(self):
        (forward,) = crooks_checks(FLIP).forward
        assert np.allclose(forward, [[0.0, 0.75], [0.25, 0.0]], atol=1e-14)

    def test_flip_backward_hand_values(self):
        (backward,) = crooks_checks(FLIP).backward
        assert np.allclose(backward, [[0.0, 0.25], [0.75, 0.0]], atol=1e-14)

    def test_pauli_x_initial_basis_hand_values(self):
        # thermal on X at beta = ln 3 holds |-> and |+> with (0.9, 0.1); each
        # has overlap 1/2 with both levels of the final Z-basis Hamiltonian
        report = crooks_checks(one_protocol(PAULI_X, H_QUBIT.matrix, np.eye(2), LN3))
        assert np.allclose(report.forward[0], [[0.45, 0.45], [0.05, 0.05]], atol=1e-14)
        assert np.allclose(report.backward[0], [[0.375, 0.125], [0.375, 0.125]], atol=1e-14)

    @staticmethod
    def populations(h: np.ndarray, beta: float) -> np.ndarray:
        """Gibbs populations of the eigenvectors of h, as projector traces."""
        rho = gibbs_state(Hamiltonian(h), beta).matrix
        _, v = np.linalg.eigh(h)
        return np.array([float(np.real(np.einsum("ij,ji->", projector(v[:, n]), rho))) for n in range(len(h))])

    def test_forward_marginal_consistency(self):
        h_initial, _, _ = draw(TWO_QUBITS, RandomSource(0).children(range(10)))
        report = crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(10))))
        for h, forward in zip(h_initial, report.forward, strict=True):
            assert np.allclose(forward.sum(axis=1), self.populations(h, 1.0), atol=1e-12)

    def test_backward_marginal_consistency(self):
        _, h_final, _ = draw(TWO_QUBITS, RandomSource(0).children(range(10)))
        report = crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(10))))
        for h, backward in zip(h_final, report.backward, strict=True):
            assert np.allclose(backward.sum(axis=0), self.populations(h, 1.0), atol=1e-12)

    def test_distributions_normalize(self):
        report = crooks_checks(random_protocols(TWO_QUBITS, 0.7, RandomSource(0).children(range(20))))
        assert len(report.forward) == len(report.backward) == 20
        for forward, backward in zip(report.forward, report.backward):
            assert forward.sum() == pytest.approx(1.0, abs=1e-12)
            assert backward.sum() == pytest.approx(1.0, abs=1e-12)


class TestCrooks:
    def test_trivial_protocol_ratios_are_one(self):
        report = crooks_checks(TRIVIAL)
        assert report.delta_f[0] == pytest.approx(0.0, abs=1e-14)
        diag = np.diag(report.forward[0]) / np.diag(report.backward[0])
        assert np.allclose(diag, 1.0, atol=1e-12)

    def test_flip_ratio_is_three(self):
        report = crooks_checks(FLIP)
        (delta_f,), (forward,), (backward,) = report.delta_f, report.forward, report.backward
        assert delta_f == pytest.approx(0.0, abs=1e-14)
        # W = E'_1 - E_0 = 1 on the (0, 1) pair
        assert forward[0, 1] / backward[0, 1] == pytest.approx(3.0, abs=1e-12)
        assert math.exp(LN3 * (1.0 - delta_f)) == pytest.approx(3.0, abs=1e-12)
        assert forward[1, 0] / backward[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert report.max_deviation[0] <= 1e-12

    def test_vanishing_backward_probability_raises(self):
        # at beta = 40 the backward flip starts in the excited level with
        # weight e^-40 < PROBABILITY_FLOOR, while the forward one is certain
        with pytest.raises(ValueError, match="vanishing backward probability"):
            crooks_checks(one_protocol(H_QUBIT.matrix, H_QUBIT.matrix, PAULI_X, 40.0))

    def test_random_protocols_satisfy_detailed_ratio(self):
        report = crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(100))))
        assert report.max_deviation.shape == (100,)
        assert np.all(report.max_deviation <= 1e-9)

    def test_random_qutrit_pair_protocols(self):
        layout = BipartitionLayout(3, 3)
        assert np.all(crooks_checks(random_protocols(layout, 0.5, RandomSource(0).children(range(5)))).max_deviation <= 1e-9)

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
        for k, forward in enumerate(crooks_checks(ProtocolStack.of(*matrices, 0.7)).forward):
            assert forward.shape == (layout.dim, layout.dim)
            expected = self.oracle(*(m[k] for m in matrices), 0.7, levels, levels)
            assert np.abs(forward - expected).max() <= 1e-14

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
        (forward,) = crooks_checks(stack).forward
        assert np.abs(forward - expected).max() <= 1e-14

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
        report = crooks_checks(stack)
        for k, protocol in enumerate(protocols):
            single_stack = one_protocol(*protocol, 0.8)
            single = crooks_checks(single_stack)
            assert report.max_deviation[k] == single.max_deviation[0] <= 1e-9
            for name in ("forward", "backward"):
                assert np.array_equal(getattr(report, name)[k], getattr(single, name)[0])
            for name in ("delta_f", "jarzynski_lhs", "jarzynski_rhs", "entropy_production", "average_sigma"):
                assert getattr(report, name)[k] == getattr(single, name)[0]
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

        worst = max(row[2] for seed in range(10) for row in rows("crooks", experiments.run_crooks(100, 1.0, *dims, seed)[0]))
        assert worst <= 1e-12


class TestStackedReport:
    COLUMNS = ("max_deviation", "delta_f", "jarzynski_lhs", "jarzynski_rhs", "entropy_production", "average_sigma")

    def assert_matches_one_report_per_trial(self, stack: ProtocolStack) -> None:
        """Every field of the stacked report is the per-trial loop's, bit for bit."""
        report = crooks_checks(stack)
        expected = crooks_reports_one_at_a_time(stack)
        for name in ("forward", "backward"):
            got = getattr(report, name)
            assert isinstance(got, tuple) and len(got) == len(stack)
            for a, b in zip(got, (getattr(e, name) for e in expected), strict=True):
                assert a.shape == b.shape and np.array_equal(bits(a), bits(b))
        for name in self.COLUMNS:
            column = getattr(report, name)
            assert column.shape == (len(stack),)
            assert np.array_equal(bits(column), bits([getattr(e, name) for e in expected]))

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(CrooksReport)] == ["forward", "backward", *self.COLUMNS]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4)], ids=["2x2", "2x3", "4x4"])
    def test_matches_one_report_per_trial(self, dims):
        for seed in range(3):
            self.assert_matches_one_report_per_trial(random_protocols(BipartitionLayout(*dims), 1.0, RandomSource(seed).children(range(20))))

    def test_groups_scatter_back_in_stack_order(self):
        # the degenerate protocol is its own cluster group, and the groups
        # come out of order: its group first, then the random protocols'
        randoms = draw(BipartitionLayout(3, 3), RandomSource(5).children(range(3)))
        degenerate = TestTransitionMatrix.degenerate_protocol()
        matrices = [np.insert(m, 1, d, axis=0) for m, d in zip(randoms, degenerate)]
        stack = ProtocolStack.of(*matrices, 0.8)
        assert [group.trials.tolist() for group in _groups(stack)] == [[1], [0, 2, 3]]
        self.assert_matches_one_report_per_trial(stack)
        assert [pf.shape for pf in crooks_checks(stack).forward] == [(9, 9), (5, 5), (9, 9), (9, 9)]


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
        report = crooks_checks(TRIVIAL)
        assert report.jarzynski_lhs[0] == pytest.approx(1.0, abs=1e-14)
        assert report.jarzynski_rhs[0] == 1.0
        assert (report.jarzynski_lhs[0], report.jarzynski_rhs[0]) == tuple(a[0] for a in jarzynski_checks(TRIVIAL))

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
        report = crooks_checks(TRIVIAL)
        assert report.entropy_production[0] == pytest.approx(0.0, abs=1e-14)
        assert report.average_sigma[0] == pytest.approx(0.0, abs=1e-14)

    def test_flip_hand_value(self):
        report = crooks_checks(FLIP)
        (kl,), (avg,) = report.entropy_production, report.average_sigma
        assert kl == pytest.approx(0.5 * LN3, abs=1e-13)  # 0.549306...
        assert avg == pytest.approx(0.5 * LN3, abs=1e-13)
        assert kl == pytest.approx(kl_divergence([0.75, 0.25], [0.25, 0.75]), abs=1e-13)

    def test_identity_holds_on_random_protocols(self):
        report = crooks_checks(random_protocols(TWO_QUBITS, 1.0, RandomSource(0).children(range(100))))
        kl, avg = report.entropy_production, report.average_sigma
        assert kl.shape == avg.shape == (100,)
        assert np.all(np.abs(kl - avg) <= 1e-9)
        assert np.all(kl >= -1e-12)
        assert np.all(avg >= -1e-12)

    def test_positive_entropy_production_with_product_final_state(self):
        # drive two thermal qubits with local flips: the final state stays
        # product (zero mutual information) yet sigma > 0
        h_joint = Hamiltonian(np.kron(H_QUBIT.matrix, np.eye(2)) + np.kron(np.eye(2), H_QUBIT.matrix))
        u = np.kron(PAULI_X, PAULI_X)
        report = crooks_checks(one_protocol(h_joint.matrix, h_joint.matrix, u, LN3))
        final = DensityOperator(evolve_states(gibbs_state(h_joint, LN3).matrix[None], u[None])[0])
        assert mutual_information(final.matrix, 2, 2) == pytest.approx(0.0, abs=1e-12)
        assert report.average_sigma[0] > 0.1


class TestEffectiveTemperatures:
    def test_arithmetic_of_definition(self):
        from arrowlab.arrow import EntropyBalanceReport

        fields = dict(ds_s=-0.2, ds_r=0.4, sum=0.2, mi_initial=0.3, mi_final=0.4, schrodinger_product=-0.08, product_input=False)
        report = EntropyBalanceReport(**{name: np.array([value]) for name, value in fields.items()})
        t_s, t_r = effective_temperatures(report, du_s=-0.1, du_r=0.1)
        assert t_s == pytest.approx(0.5, abs=1e-14)
        assert t_r == pytest.approx(0.25, abs=1e-14)

    def test_undefined_for_identity_evolution(self):
        rho = pure_state(np.kron(ket(0), ket(1)))
        report = state_balances(rho.matrix[None], rho.spectrum[None], TWO_QUBITS, np.eye(4, dtype=complex)[None])
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


def damping_heat(state: DensityOperator, h: Hamiltonian, beta: float) -> float:
    """One state's damping heat, through the stacked path as a stack of one."""
    return damping_heats(state.matrix[None], h, beta)[0]


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
