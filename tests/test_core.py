import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    bipartite_entropies,
    evolve,
    gibbs_state,
    haar_random_unitary,
    identity_unitary,
    maximally_mixed,
    mutual_information,
    partial_trace,
    product_spectra,
    pure_state,
    random_density_matrices,
    random_density_operator,
    random_hermitians,
    relative_entropy,
    renyi2_of_matrix,
    spectrum_entropies,
    tensor_product,
    tensor_products,
    trace_distance,
    unitary_from_hamiltonian,
    von_neumann_entropy,
)
from oracles import BELL_PHI, CNOT, PAULI_X, binary_entropy, ket, projector, unit_hermitian

LN2 = 0.6931471805599453
H2_005 = 0.1985152433458726  # binary_entropy(0.05)

QUBITS = BipartitionLayout(2, 2)


def diag_state(*populations) -> DensityOperator:
    return DensityOperator(np.diag(populations).astype(complex))


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

class TestTypes:
    def test_density_operator_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m)

    def test_density_operator_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2, dtype=complex))

    def test_density_operator_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            diag_state(1.2, -0.2)

    def test_density_operator_tolerates_roundoff_negativity(self):
        rho = diag_state(1.0 + 5e-11, -5e-11)
        assert rho.dim == 2

    def test_density_operator_keeps_its_read_only_spectrum(self):
        rho = random_density_operator(8, 8, RandomSource(4))
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
        with pytest.raises(ValueError, match="read-only"):
            rho.spectrum[0] = 0.0

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOperator(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_hamiltonian_eigendecomposition_reconstructs(self):
        g = RandomSource(3).generator()
        z = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
        h = Hamiltonian((z + z.conj().T) / 2)
        recon = (h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
        assert np.abs(recon - h.matrix).max() <= 1e-10
        assert np.all(np.diff(h.eigenvalues) >= 0)

    def test_layout_rejects_trivial_factor(self):
        with pytest.raises(ValueError):
            BipartitionLayout(1, 4)

    def test_random_source_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)

    def test_random_source_streams_are_reproducible(self):
        a = RandomSource(99).generator().standard_normal(8)
        b = RandomSource(99).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_random_source_children_are_independent_of_parent_stream(self):
        child = RandomSource(99).child(0)
        again = RandomSource(99).child(0)
        assert np.array_equal(child.generator().standard_normal(4), again.generator().standard_normal(4))
        assert not np.array_equal(
            child.generator().standard_normal(4), RandomSource(99).child(1).generator().standard_normal(4)
        )


# ---------------------------------------------------------------------------
# composition and reduction
# ---------------------------------------------------------------------------

class TestTensorAndTrace:
    def test_tensor_of_pure_products(self):
        zero = pure_state(ket(0))
        assert np.allclose(tensor_product(zero, zero).matrix, projector(ket(0, 0)))

    def test_tensor_of_maximally_mixed(self):
        out = tensor_product(maximally_mixed(2), maximally_mixed(2))
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_tensor_of_diagonals_matches_hand_kronecker(self):
        out = tensor_product(diag_state(0.7, 0.3), diag_state(0.6, 0.4))
        assert np.allclose(np.diag(out.matrix).real, [0.42, 0.28, 0.18, 0.12], atol=1e-15)

    def test_partial_trace_of_product_recovers_factor(self):
        a = diag_state(0.7, 0.3)
        b = diag_state(0.6, 0.4)
        joint = tensor_product(a, b)
        assert np.allclose(partial_trace(joint, QUBITS, "S").matrix, a.matrix, atol=1e-14)
        assert np.allclose(partial_trace(joint, QUBITS, "R").matrix, b.matrix, atol=1e-14)

    def test_partial_trace_of_bell_state_is_maximally_mixed(self):
        bell = pure_state(BELL_PHI)
        assert np.allclose(partial_trace(bell, QUBITS, "S").matrix, np.eye(2) / 2, atol=1e-14)

    def test_partial_trace_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            partial_trace(maximally_mixed(6), QUBITS, "S")


def assert_product_entropy_matches_the_decomposed_product(dim_a, rank_a, dim_b, rank_b, seed):
    src = RandomSource(seed)
    a = random_density_matrices(dim_a, rank_a, [src.child(0)])
    b = random_density_matrices(dim_b, rank_b, [src.child(1)])
    spectra = product_spectra(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))
    assert spectra.shape == (1, dim_a * dim_b)
    assert np.all(np.diff(spectra, axis=-1) >= 0.0)
    decomposed = spectrum_entropies(np.linalg.eigvalsh(tensor_products(a, b)))
    assert abs(spectrum_entropies(spectra)[0] - decomposed[0]) <= 1e-13


class TestProductSpectra:
    def test_sorted_outer_product_of_the_factor_spectra(self):
        # dyadic weights: every product is exact
        got = product_spectra(np.array([[0.25, 0.75]]), np.array([[0.125, 0.375, 0.5]]))
        assert np.array_equal(got, [[0.03125, 0.09375, 0.09375, 0.125, 0.28125, 0.375]])

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entropy_matches_the_decomposed_product(self, dims, ranks, seed):
        (dim_a, dim_b), (rank_a, rank_b) = dims, ranks
        assert_product_entropy_matches_the_decomposed_product(dim_a, min(rank_a, dim_a), dim_b, min(rank_b, dim_b), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_entropy_matches_the_decomposed_product_at_16x16(self, seed):
        assert_product_entropy_matches_the_decomposed_product(16, 16, 16, 16, seed)


# ---------------------------------------------------------------------------
# entropy and mutual information
# ---------------------------------------------------------------------------

class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert von_neumann_entropy(pure_state([1, 1j])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(LN2, abs=1e-12)

    def test_binary_entropy_value(self):
        s = von_neumann_entropy(diag_state(0.95, 0.05))
        assert s == pytest.approx(binary_entropy(0.05), abs=1e-12)
        assert s == pytest.approx(H2_005, abs=1e-12)

    def test_entropy_bounded_by_log_dim(self):
        for seed in range(20):
            rho = random_density_operator(5, 5, RandomSource(seed))
            s = von_neumann_entropy(rho)
            assert -1e-12 <= s <= math.log(5) + 1e-12

    def test_renyi2_hand_values(self):
        # -ln tr rho^2: 0 for a pure state, ln d for the maximally mixed one,
        # -ln(p^2 + q^2) for a diagonal qubit
        assert renyi2_of_matrix(pure_state([1, 1j]).matrix) == pytest.approx(0.0, abs=1e-15)
        assert renyi2_of_matrix(maximally_mixed(5).matrix) == pytest.approx(math.log(5), abs=1e-15)
        assert renyi2_of_matrix(diag_state(0.95, 0.05).matrix) == pytest.approx(-math.log(0.905), abs=1e-15)

    def test_mutual_information_of_product_is_zero(self):
        joint = tensor_product(diag_state(0.8, 0.2), maximally_mixed(2))
        assert mutual_information(joint, QUBITS) == pytest.approx(0.0, abs=1e-12)

    def test_mutual_information_of_bell_state(self):
        assert mutual_information(pure_state(BELL_PHI), QUBITS) == pytest.approx(2 * LN2, abs=1e-12)

    def test_bipartite_entropies_of_raw_matrices(self):
        s_s, s_r, s = bipartite_entropies(pure_state(BELL_PHI).matrix, QUBITS)
        assert (s_s, s_r, s) == pytest.approx((LN2, LN2, 0.0), abs=1e-12)
        # a raw matrix is not validated as a state, but its spectra still are
        with pytest.raises(ValueError, match="negative eigenvalue"):
            bipartite_entropies(np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex), QUBITS)
        with pytest.raises(ValueError, match="does not match layout"):
            bipartite_entropies(np.eye(3) / 3, QUBITS)

    def test_entropy_invariant_under_unitaries(self):
        for seed, d in [(0, 2), (1, 5), (2, 16)]:
            rho = random_density_operator(d, d, RandomSource(seed))
            u = haar_random_unitary(d, RandomSource(seed + 100))
            assert abs(von_neumann_entropy(evolve(rho, u)) - von_neumann_entropy(rho)) <= 1e-10

    def test_subadditivity_on_random_joint_states(self):
        count = 0
        for d in (2, 3, 4):
            layout = BipartitionLayout(d, d)
            for seed in range(334):
                rho = random_density_operator(layout.dim, layout.dim, RandomSource(seed).child(d))
                assert mutual_information(rho, layout) >= -1e-10
                count += 1
        assert count >= 1000


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

class TestDistances:
    def test_trace_distance_extremes(self):
        rho = random_density_operator(3, 3, RandomSource(4))
        assert trace_distance(rho, rho) == 0.0
        assert trace_distance(pure_state(ket(0)), pure_state(ket(1))) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_hand_value(self):
        assert trace_distance(diag_state(0.7, 0.3), diag_state(0.5, 0.5)) == pytest.approx(0.2, abs=1e-14)

    def test_distances_symmetric_and_triangular(self):
        for seed in range(25):
            src = RandomSource(seed)
            a = random_density_operator(3, 3, src.child(0))
            b = random_density_operator(3, 3, src.child(1))
            c = random_density_operator(3, 3, src.child(2))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-10)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------

class TestRelativeEntropy:
    def test_zero_for_identical_states(self):
        rho = random_density_operator(4, 4, RandomSource(12))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_versus_maximally_mixed(self):
        assert relative_entropy(pure_state(ket(0)), maximally_mixed(2)) == pytest.approx(LN2, abs=1e-12)

    def test_classical_value(self):
        got = relative_entropy(diag_state(0.75, 0.25), diag_state(0.5, 0.5))
        assert got == pytest.approx(0.13081203594113697, abs=1e-12)  # 0.75 ln 1.5 + 0.25 ln 0.5

    def test_support_violation_raises(self):
        with pytest.raises(ValueError, match="support"):
            relative_entropy(maximally_mixed(2), pure_state(ket(0)))

    def test_nonnegative_on_random_pairs(self):
        for seed in range(30):
            src = RandomSource(seed)
            a = random_density_operator(3, 3, src.child(0))
            b = random_density_operator(3, 3, src.child(1))
            assert relative_entropy(a, b) >= 0.0


# ---------------------------------------------------------------------------
# evolution, thermal states
# ---------------------------------------------------------------------------

class TestPurifyEvolve:
    def test_evolve_identity(self):
        rho = random_density_operator(4, 4, RandomSource(2))
        assert np.allclose(evolve(rho, identity_unitary(4)).matrix, rho.matrix)

    def test_evolve_pauli_x_flips(self):
        out = evolve(pure_state(ket(0)), UnitaryOperator(PAULI_X))
        assert np.allclose(out.matrix, projector(ket(1)), atol=1e-15)

    def test_evolve_bell_through_cnot_gives_pure_product(self):
        out = evolve(pure_state(BELL_PHI), UnitaryOperator(CNOT))
        plus = (ket(0) + ket(1)) / math.sqrt(2)
        assert np.allclose(out.matrix, projector(np.kron(plus, ket(0))), atol=1e-12)
        assert mutual_information(out, QUBITS) == pytest.approx(0.0, abs=1e-12)

    def test_evolve_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(maximally_mixed(2), UnitaryOperator(CNOT))


class TestHamiltonianMaps:
    def test_exponential_at_zero_time(self):
        h = Hamiltonian(np.diag([0.0, 1.3, 2.0]).astype(complex))
        assert np.allclose(unitary_from_hamiltonian(h, 0.0).matrix, np.eye(3))

    def test_exponential_phases(self):
        h = Hamiltonian(np.diag([0.0, math.pi]).astype(complex))
        assert np.allclose(unitary_from_hamiltonian(h, 1.0).matrix, np.diag([1.0, -1.0]), atol=1e-12)

    def test_time_reversal_inverts(self):
        g = RandomSource(17).generator()
        z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        h = Hamiltonian((z + z.conj().T) / 2)
        prod = unitary_from_hamiltonian(h, 0.7).matrix @ unitary_from_hamiltonian(h, -0.7).matrix
        assert np.abs(prod - np.eye(4)).max() <= 1e-12

    def test_gibbs_infinite_temperature(self):
        h = Hamiltonian(np.diag([0.0, 1.0, 5.0]).astype(complex))
        assert np.allclose(gibbs_state(h, 0.0).matrix, np.eye(3) / 3)

    def test_gibbs_worked_populations(self):
        h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
        rho = gibbs_state(h, math.log(3))
        assert np.allclose(np.diag(rho.matrix).real, [0.75, 0.25], atol=1e-14)

    def test_gibbs_low_temperature_is_ground_state(self):
        h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
        rho = gibbs_state(h, 50.0)
        assert abs(rho.matrix[1, 1]) <= 1e-20

    def test_gibbs_commutes_with_hamiltonian(self):
        g = RandomSource(23).generator()
        z = g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))
        h = Hamiltonian((z + z.conj().T) / 2)
        rho = gibbs_state(h, 0.8)
        comm = h.matrix @ rho.matrix - rho.matrix @ h.matrix
        assert np.abs(comm).max() <= 1e-12

    def test_gibbs_rejects_negative_beta(self):
        h = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValueError):
            gibbs_state(h, -0.1)


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_haar_is_deterministic_per_source(self):
        a = haar_random_unitary(4, RandomSource(7))
        b = haar_random_unitary(4, RandomSource(7))
        assert np.array_equal(a.matrix, b.matrix)

    def test_haar_dimension_one(self):
        u = haar_random_unitary(1, RandomSource(0))
        assert abs(abs(u.matrix[0, 0]) - 1.0) <= 1e-12

    def test_haar_eigenangles_uniform(self):
        # chi-squared test at the 1% level: one eigenangle per sample,
        # chosen uniformly so samples stay independent
        root = RandomSource(2024)
        n, bins = 10000, 16
        pick = root.child(10**6).generator()
        angles = np.empty(n)
        for i in range(n):
            u = haar_random_unitary(2, root.child(i))
            angles[i] = np.angle(np.linalg.eigvals(u.matrix)[pick.integers(2)])
        counts, _ = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
        stat = float(((counts - n / bins) ** 2 / (n / bins)).sum())
        from scipy.stats import chi2

        assert stat < chi2.isf(0.01, bins - 1)

    def test_random_hermitians_are_hermitian_and_stack_like_single_draws(self):
        sources = [RandomSource(5).child(k) for k in range(6)]
        stack = random_hermitians(3, sources)
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        for source, h in zip(sources, stack):
            assert np.array_equal(random_hermitians(3, [source])[0], h)

    def test_random_hermitian_over_its_norm_is_the_unit_draw(self):
        # halving the draw is exact, so the search's unit-norm kick keeps its bits
        for k in range(500):
            h = random_hermitians(4, [RandomSource(k)])[0]
            assert np.array_equal(h / np.linalg.norm(h), unit_hermitian(4, RandomSource(k)))

    def test_random_density_rank_one_is_pure(self):
        rho = random_density_operator(4, 1, RandomSource(3))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_random_density_reproducible(self):
        a = random_density_operator(3, 2, RandomSource(11))
        b = random_density_operator(3, 2, RandomSource(11))
        assert np.array_equal(a.matrix, b.matrix)

    def test_random_density_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            random_density_operator(3, 0, RandomSource(0))
        with pytest.raises(ValueError):
            random_density_operator(3, 4, RandomSource(0))

    def test_random_density_ensemble_mean_is_maximally_mixed(self):
        root = RandomSource(31)
        total = np.zeros((2, 2), dtype=complex)
        n = 10000
        for i in range(n):
            total += random_density_operator(2, 2, root.child(i)).matrix
        assert np.abs(total / n - np.eye(2) / 2).max() <= 0.02
