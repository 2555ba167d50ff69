import itertools
import math
import tracemalloc

import numpy as np
import pytest

from arrowlab import collisions, experiments
from arrowlab.collisions import (
    JOINT_DIM_CAP,
    ReservoirSpec,
    _attach_and_gate,
    _gate_and_trace,
    convergence_report,
    partial_swap_unitary,
    reverse_collisions,
    run_collisions,
    run_collisions_joint,
)
from arrowlab.core import (
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    gibbs_state,
    haar_unitaries,
    pure_state,
    random_density_operator,
    renyi2_of_matrix,
    spectrum_entropies,
    trace_distances,
)
from oracles import SWAP, ket, pair_gate_einsum, pair_gate_on_qubits, replay_then_trace, trace_out_qubit

H_QUBIT = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
XI = gibbs_state(H_QUBIT, math.log(3))  # diag(0.75, 0.25)


def haar_unitary(dim: int, seed: int) -> UnitaryOperator:
    return UnitaryOperator(haar_unitaries(dim, RandomSource(seed))[0])


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """The trace distance of one pair of 2 x 2 matrices, as a stack of one."""
    return trace_distances(a[None], b[None])[0]


def entropy(rho: DensityOperator) -> float:
    """S(rho) of one state, from the spectrum it was validated with."""
    return spectrum_entropies(rho.spectrum[None])[0]


def diag_state(p0: float) -> DensityOperator:
    return DensityOperator(np.diag([p0, 1.0 - p0]).astype(complex))


class TestPartialSwap:
    def test_zero_angle_is_identity(self):
        assert np.allclose(partial_swap_unitary(0.0).matrix, np.eye(4))

    def test_quarter_turn_is_full_swap_up_to_phase(self):
        u = partial_swap_unitary(math.pi / 2).matrix
        assert np.allclose(u, 1j * SWAP, atol=1e-15)

    def test_unitary_for_generic_angle(self):
        u = partial_swap_unitary(0.37).matrix
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-14

    def test_reduced_map_mixes_commuting_states(self):
        # for diagonal rho, xi the reduced map is cos^2(t) rho + sin^2(t) xi
        rho, xi = diag_state(0.9), diag_state(0.3)
        u = partial_swap_unitary(math.pi / 4).matrix
        joint = u @ np.kron(rho.matrix, xi.matrix) @ u.conj().T
        reduced = np.einsum("ikjk->ij", joint.reshape(2, 2, 2, 2))
        assert np.allclose(reduced, 0.5 * rho.matrix + 0.5 * xi.matrix, atol=1e-14)


class TestRunCollisions:
    def test_identity_gate_keeps_trajectory_constant(self):
        spec = ReservoirSpec(ancilla_state=XI, count=5)
        record = run_collisions(diag_state(0.2), spec, UnitaryOperator(np.eye(4, dtype=complex)))
        for state in record.states:
            assert np.allclose(state, np.diag([0.2, 0.8]), atol=1e-14)

    def test_full_swap_thermalizes_in_one_collision(self):
        spec = ReservoirSpec(ancilla_state=XI, count=3)
        record = run_collisions(pure_state(ket(1)), spec, UnitaryOperator(SWAP))
        for state in record.states[1:]:
            assert distance(state, XI.matrix) <= 1e-14

    def test_distance_halves_at_quarter_angle(self):
        spec = ReservoirSpec(ancilla_state=XI, count=8)
        record = run_collisions(pure_state(ket(1)), spec, partial_swap_unitary(math.pi / 4))
        d = record.distances_to_ancilla
        for k in range(len(d) - 1):
            assert d[k + 1] == pytest.approx(0.5 * d[k], abs=1e-12)

    def test_trajectory_lengths(self):
        spec = ReservoirSpec(ancilla_state=XI, count=4)
        record = run_collisions(diag_state(0.5), spec, partial_swap_unitary(0.3))
        assert len(record.states) == 5
        assert len(record.entropies) == 5


class TestJointMode:
    def test_joint_matches_reduced_trajectory(self):
        spec = ReservoirSpec(ancilla_state=XI, count=6)
        gate = partial_swap_unitary(0.6)
        rho0 = random_density_operator(2, 2, RandomSource(5))
        reduced_rec = run_collisions(rho0, spec, gate)
        joint_rec, _ = run_collisions_joint(rho0, spec, gate)
        for a, b in zip(reduced_rec.states, joint_rec.states):
            assert distance(a, b) <= 1e-12

    def test_joint_entropy_is_conserved(self):
        spec = ReservoirSpec(ancilla_state=XI, count=6)
        rho0 = random_density_operator(2, 2, RandomSource(9))
        _, joint_final = run_collisions_joint(rho0, spec, partial_swap_unitary(0.7))
        expected = entropy(rho0) + 6 * entropy(XI)
        assert entropy(DensityOperator(joint_final)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("count", range(1, 9))
    def test_renyi2_entropy_is_conserved_under_a_haar_gate(self, count):
        rho0 = random_density_operator(2, 2, RandomSource(40 + count))
        gate = haar_unitary(4, 50 + count)
        _, joint_final = run_collisions_joint(rho0, ReservoirSpec(ancilla_state=XI, count=count), gate)
        expected = renyi2_of_matrix(rho0.matrix) + count * renyi2_of_matrix(XI.matrix)
        assert abs(renyi2_of_matrix(joint_final) - expected) <= 1e-12

    def test_sum_of_marginal_entropies_is_nondecreasing(self):
        # fresh uncorrelated partners make every collision a product-input
        # balance on the colliding pair
        count = 5
        gate = partial_swap_unitary(0.5).matrix
        joint = random_density_operator(2, 2, RandomSource(3)).matrix

        def marginal_entropy_sum(m):
            n = m.shape[0].bit_length() - 1
            total = 0.0
            for q in range(n):
                left, right = 2**q, 2 ** (n - q - 1)
                t = m.reshape(left, 2, right, left, 2, right)
                red = np.einsum("aibajb->ij", t)
                lam = np.clip(np.linalg.eigvalsh(red), 0, None)
                lam = lam[lam > 0]
                total += float(-(lam * np.log(lam)).sum())
            return total

        # each ancilla not yet attached adds its own entropy to the sum
        ancilla = marginal_entropy_sum(XI.matrix)
        previous = marginal_entropy_sum(joint)
        for k in range(count):
            joint = _attach_and_gate(joint, XI.matrix, gate)
            current = marginal_entropy_sum(joint)
            assert current >= previous + ancilla - 1e-10
            previous = current

    def test_final_joint_state_is_read_only(self):
        spec = ReservoirSpec(ancilla_state=XI, count=3)
        _, joint_final = run_collisions_joint(diag_state(0.4), spec, partial_swap_unitary(0.5))
        assert joint_final.shape == (16, 16)
        with pytest.raises(ValueError, match="read-only"):
            joint_final[0, 0] = 0.0

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6, 7])
    def test_pair_gate_matches_dense_oracle(self, n_qubits):
        d = 2**n_qubits
        rho = random_density_operator(d, d, RandomSource(n_qubits)).matrix
        small = random_density_operator(d // 2, d // 2, RandomSource(60 + n_qubits)).matrix
        xi = random_density_operator(2, 2, RandomSource(80 + n_qubits)).matrix
        (u4,) = haar_unitaries(4, RandomSource(100 + n_qubits))
        g = pair_gate_on_qubits(u4, n_qubits, n_qubits - 1)
        expected = g @ np.kron(small, xi) @ g.conj().T
        assert np.abs(_attach_and_gate(small, xi, u4) - expected).max() <= 1e-14
        for k in range(1, n_qubits):
            g = pair_gate_on_qubits(u4, n_qubits, k)
            expected = trace_out_qubit(g @ rho @ g.conj().T, n_qubits, k)
            assert np.abs(_gate_and_trace(rho, u4, n_qubits, k) - expected).max() <= 1e-14

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6, 7])
    def test_pair_gate_is_bit_identical_to_einsum_for_the_partial_swap(self, n_qubits):
        d = 2**n_qubits
        rho = random_density_operator(d, d, RandomSource(20 + n_qubits)).matrix
        small = random_density_operator(d // 2, d // 2, RandomSource(40 + n_qubits)).matrix
        for theta in (0.3, math.pi / 4, 1.5, math.pi / 2):
            u4 = partial_swap_unitary(theta).matrix
            for xi in (XI.matrix, random_density_operator(2, 2, RandomSource(60 + n_qubits)).matrix):
                got = _attach_and_gate(small, xi, u4)
                expected = pair_gate_einsum(np.kron(small, xi), u4, n_qubits, n_qubits - 1)
                assert np.array_equal(got.view(float), expected.view(float))
            for k in range(1, n_qubits):
                got = _gate_and_trace(rho, u4, n_qubits, k)
                expected = trace_out_qubit(pair_gate_einsum(rho, u4, n_qubits, k), n_qubits, k)
                assert np.array_equal(got.view(float), expected.view(float))

    def test_pair_gate_allocates_about_one_state(self):
        # the result, plus a quarter of the gate's state for temporaries
        n_qubits = 9
        d = 2**n_qubits
        rho = random_density_operator(d, d, RandomSource(11)).matrix
        small = np.ascontiguousarray(rho[: d // 2, : d // 2])
        (u4,) = haar_unitaries(4, RandomSource(12))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = _attach_and_gate(small, XI.matrix, u4)
            peak = tracemalloc.get_traced_memory()[1] - before
            del out
            assert peak <= 1.25 * rho.nbytes, peak / rho.nbytes
            for k in range(1, n_qubits):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = _gate_and_trace(rho, u4, n_qubits, k)
                peak = tracemalloc.get_traced_memory()[1] - before
                del out
                assert peak <= 0.5 * rho.nbytes, (k, peak / rho.nbytes)
        finally:
            tracemalloc.stop()

    def test_forward_peak_is_the_final_state_and_its_quarter_size_input(self):
        # the last collision holds its output, its input and chunk
        # temporaries; building rho x xi whole took twice the final state
        spec = ReservoirSpec(ancilla_state=XI, count=10)
        rho0 = random_density_operator(2, 2, RandomSource(4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, joint_final = run_collisions_joint(rho0, spec, partial_swap_unitary(0.3))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * joint_final.nbytes, peak / joint_final.nbytes

    def test_cap_enforced(self):
        spec = ReservoirSpec(ancilla_state=XI, count=12)
        with pytest.raises(ValueError, match="cap"):
            run_collisions_joint(diag_state(0.5), spec, partial_swap_unitary(0.4))


class TestReversal:
    def test_zero_collisions_unsupported_by_spec_but_single_swap_recovers(self):
        spec = ReservoirSpec(ancilla_state=XI, count=1)
        rho0 = random_density_operator(2, 2, RandomSource(1))
        gate = UnitaryOperator(SWAP)
        _, joint_final = run_collisions_joint(rho0, spec, gate)
        recovered = reverse_collisions(joint_final, gate)
        assert distance(recovered, rho0.matrix) <= 1e-12

    def test_eight_collisions_round_trip(self):
        spec = ReservoirSpec(ancilla_state=XI, count=8)
        rho0 = random_density_operator(2, 2, RandomSource(7))
        gate = partial_swap_unitary(math.pi / 4)
        record, joint_final = run_collisions_joint(rho0, spec, gate)
        recovered = reverse_collisions(joint_final, gate)
        assert distance(recovered, rho0.matrix) <= 1e-9
        assert distance(record.states[-1], rho0.matrix) >= 0.1  # forward really moved

    def test_shuffled_replay_fails_to_recover(self):
        spec = ReservoirSpec(ancilla_state=XI, count=8)
        rho0 = random_density_operator(2, 2, RandomSource(7))
        gate = partial_swap_unitary(math.pi / 4)
        _, joint_final = run_collisions_joint(rho0, spec, gate)
        order = [3, 7, 0, 5, 1, 6, 2, 4]
        shuffled = reverse_collisions(joint_final, gate, order=order)
        assert distance(shuffled, rho0.matrix) > 0.01

    def test_order_must_be_permutation(self):
        spec = ReservoirSpec(ancilla_state=XI, count=2)
        gate = partial_swap_unitary(0.5)
        _, joint_final = run_collisions_joint(diag_state(0.4), spec, gate)
        with pytest.raises(ValueError, match="permutation"):
            reverse_collisions(joint_final, gate, order=[0, 0])

    def test_replays_one_gate_per_collision_and_no_forward_pass(self, monkeypatch):
        count = 5
        spec = ReservoirSpec(ancilla_state=XI, count=count)
        gate = partial_swap_unitary(0.5)
        _, joint_final = run_collisions_joint(diag_state(0.3), spec, gate)
        calls, forward = [], []

        def counting(joint, u4, n_qubits, k):
            calls.append(k)
            return _gate_and_trace(joint, u4, n_qubits, k)

        def attaching(joint, xi, u4):
            forward.append(joint.shape)
            return _attach_and_gate(joint, xi, u4)

        monkeypatch.setattr(collisions, "_gate_and_trace", counting)
        monkeypatch.setattr(collisions, "_attach_and_gate", attaching)
        reverse_collisions(joint_final, gate)
        assert calls == list(range(count, 0, -1))
        assert forward == []

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_every_order_matches_full_size_replay_oracle(self, count):
        d = 2 ** (count + 1)
        joint = random_density_operator(d, d, RandomSource(200 + count)).matrix
        gate = haar_unitary(4, 300 + count)
        inverse = gate.matrix.conj().T
        for order in itertools.permutations(range(count)):
            expected = replay_then_trace(joint, inverse, order)
            got = reverse_collisions(joint, gate, order=order)
            assert np.abs(got - expected).max() <= 1e-14

    @pytest.mark.parametrize("order", [None, [3, 7, 0, 5, 1, 6, 2, 4]], ids=["exact", "shuffled"])
    def test_each_gate_acts_on_a_state_half_the_size_of_the_last(self, monkeypatch, order):
        spec = ReservoirSpec(ancilla_state=XI, count=8)
        _, joint_final = run_collisions_joint(diag_state(0.3), spec, partial_swap_unitary(0.5))
        dims = []

        def recording(joint, u4, n_qubits, k):
            dims.append(joint.shape[0])
            return _gate_and_trace(joint, u4, n_qubits, k)

        monkeypatch.setattr(collisions, "_gate_and_trace", recording)
        recovered = reverse_collisions(joint_final, partial_swap_unitary(0.5), order=order)
        assert dims == [2**9 >> i for i in range(8)]
        assert recovered.shape == (2, 2)

    def test_reversal_peak_above_the_held_state_is_a_quarter_of_it(self):
        # the first step's quarter-size output and chunk temporaries; the
        # full-size gate output and its trace-out took 1.25 times the state
        spec = ReservoirSpec(ancilla_state=XI, count=10)
        rho0 = random_density_operator(2, 2, RandomSource(4))
        gate = partial_swap_unitary(0.3)
        _, joint_final = run_collisions_joint(rho0, spec, gate)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            recovered = reverse_collisions(joint_final, gate)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 0.35 * joint_final.nbytes, peak / joint_final.nbytes
        assert distance(recovered, rho0.matrix) <= 1e-9

    def test_order_entries_must_be_integers(self):
        spec = ReservoirSpec(ancilla_state=XI, count=3)
        gate = partial_swap_unitary(0.5)
        _, joint_final = run_collisions_joint(diag_state(0.4), spec, gate)
        with pytest.raises(ValueError, match="integers"):
            reverse_collisions(joint_final, gate, order=[2.9, 1.5, 0.99])

    @pytest.mark.parametrize(
        "joint, match",
        [
            (np.zeros((4, 8), dtype=complex), "square"),
            (np.eye(6, dtype=complex) / 6, "power of two"),
            (np.eye(2, dtype=complex) / 2, "power of two"),
            # a zero-stride view: the cap check must not need the memory
            (np.broadcast_to(np.zeros((1, 1), dtype=complex), (2 * JOINT_DIM_CAP,) * 2), "power of two"),
        ],
        ids=["non-square", "not-power-of-two", "dim-2", "above-cap"],
    )
    def test_rejects_malformed_joint_state(self, joint, match):
        with pytest.raises(ValueError, match=match):
            reverse_collisions(joint, partial_swap_unitary(0.5))

    def test_rejects_gate_that_is_not_two_qubit(self):
        joint = np.eye(8, dtype=complex) / 8
        with pytest.raises(ValueError, match="two qubits"):
            reverse_collisions(joint, UnitaryOperator(np.eye(2, dtype=complex)))

    def test_joint_mode_builds_no_state_larger_than_a_qubit(self, monkeypatch):
        dims = []
        validate = DensityOperator.__post_init__
        validate_stack = collisions.validate_states

        def recording(self):
            validate(self)
            dims.append(self.dim)

        def recording_stack(m):
            dims.append(m.shape[-1])
            return validate_stack(m)

        monkeypatch.setattr(DensityOperator, "__post_init__", recording)
        monkeypatch.setattr(collisions, "validate_states", recording_stack)
        _, extra = experiments.run_collide(6, math.pi / 4, math.log(3), 0, mode="joint", init="excited")
        assert extra["recovered_trace_distance"] <= 1e-9
        assert "shuffled_trace_distance" in extra
        # the initial state and the bath's, then the two trajectories' stacks
        assert dims == [2, 2, 2, 2]


class TestConvergenceReport:
    def test_requires_three_points(self):
        spec = ReservoirSpec(ancilla_state=XI, count=1)
        record = run_collisions(diag_state(0.4), spec, partial_swap_unitary(0.3))
        with pytest.raises(ValueError, match=">= 3"):
            convergence_report(record)

    def test_constant_at_fixed_point_reports_exact(self):
        spec = ReservoirSpec(ancilla_state=XI, count=4)
        record = run_collisions(XI, spec, partial_swap_unitary(0.9))
        report = convergence_report(record)
        assert report.final_distance <= 1e-14
        assert report.exact
        assert report.rate is None

    def test_quarter_angle_rate(self):
        spec = ReservoirSpec(ancilla_state=XI, count=10)
        record = run_collisions(pure_state(ket(1)), spec, partial_swap_unitary(math.pi / 4))
        report = convergence_report(record)
        assert report.rate == pytest.approx(math.log(0.5), abs=1e-6)
        assert report.residual <= 1e-8

    def test_rate_monotone_in_angle(self):
        spec = ReservoirSpec(ancilla_state=XI, count=10)
        rates = []
        for theta in (0.3, 0.6, 0.9, 1.2, 1.5):
            record = run_collisions(pure_state(ket(1)), spec, partial_swap_unitary(theta))
            rates.append(convergence_report(record).rate)
        assert all(a > b for a, b in zip(rates, rates[1:]))
        # the full swap converges exactly in one step, below any finite rate
        record = run_collisions(pure_state(ket(1)), spec, partial_swap_unitary(math.pi / 2))
        assert convergence_report(record).exact
