import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab import core
from arrowlab.core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    evolve_products,
    evolve_states,
    gaussian_matrices,
    gibbs_state,
    haar_unitaries,
    marginal_entropies_of_stack,
    mutual_information,
    partial_traces,
    product_spectra,
    pure_state,
    random_density_matrices,
    random_density_operator,
    random_hermitians,
    renyi2_of_matrix,
    spectrum_entropies,
    trace_distance,
    unitaries_from_hamiltonian,
    unitary_checks,
    von_neumann_entropy,
)
from oracles import BELL_PHI, CNOT, PAULI_X, binary_entropy, ket, projector, unit_hermitian

LN2 = 0.6931471805599453
H2_005 = 0.1985152433458726  # binary_entropy(0.05)

QUBITS = BipartitionLayout(2, 2)


def diag_state(*populations) -> DensityOperator:
    return DensityOperator(np.diag(populations).astype(complex))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim) / dim)


def evolved(rho: DensityOperator, u: np.ndarray) -> DensityOperator:
    """U rho U+ through the stacked kernel, validated as a state."""
    return DensityOperator(evolve_states(rho.matrix[None], u[None])[0])


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

def product(a: DensityOperator, b: DensityOperator) -> np.ndarray:
    """a (x) b, as the product kernel builds it: evolved by U = I."""
    return evolve_products(a.matrix[None], b.matrix[None], np.eye(a.dim * b.dim, dtype=complex)[None])[0]


class TestTensorAndTrace:
    def test_tensor_of_pure_products(self):
        zero = pure_state(ket(0))
        assert np.allclose(product(zero, zero), projector(ket(0, 0)))

    def test_tensor_of_maximally_mixed(self):
        out = product(maximally_mixed(2), maximally_mixed(2))
        assert np.allclose(out, np.eye(4) / 4)

    def test_tensor_of_diagonals_matches_hand_kronecker(self):
        out = product(diag_state(0.7, 0.3), diag_state(0.6, 0.4))
        assert np.allclose(np.diag(out).real, [0.42, 0.28, 0.18, 0.12], atol=1e-15)

    def test_partial_trace_of_product_recovers_factor(self):
        a = diag_state(0.7, 0.3)
        b = diag_state(0.6, 0.4)
        joint = product(a, b)[None]
        assert np.allclose(partial_traces(joint, 2, 2, "S")[0], a.matrix, atol=1e-14)
        assert np.allclose(partial_traces(joint, 2, 2, "R")[0], b.matrix, atol=1e-14)

    def test_partial_trace_of_bell_state_is_maximally_mixed(self):
        bell = pure_state(BELL_PHI)
        assert np.allclose(partial_traces(bell.matrix[None], 2, 2, "S")[0], np.eye(2) / 2, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 16])
def test_eigh_of_a_stack_of_marginal_pairs_rounds_like_each_marginal(d):
    # the search decomposes both marginals of each point as one (n, 2, d, d)
    # stack; rank-1 products leave marginals with eigenvalues at or near zero
    root = RandomSource(d)
    joint = [random_density_matrices(d * d, rank, root.child(0))[0] for rank in (d * d, 2, 1)]
    pure_s, pure_r = (random_density_matrices(d, 1, root.child(k)) for k in (1, 2))
    joint.append(np.kron(pure_s[0], pure_r[0]))
    joint.append(projector(np.eye(d * d)[0]))
    joint = np.stack(joint)
    pairs = np.stack([core.partial_traces(joint, d, d, keep) for keep in "SR"], axis=1)
    lam, v = np.linalg.eigh(pairs)
    assert (lam[-2:, :, 0] <= 1e-16).all() and (lam[-1, :, :-1] == 0.0).all()
    for k, m in np.ndindex(pairs.shape[:2]):
        lam_1, v_1 = np.linalg.eigh(pairs[k, m].copy())
        assert np.array_equal(lam[k, m], lam_1) and np.array_equal(v[k, m], v_1)


def assert_product_entropy_matches_the_decomposed_product(dim_a, rank_a, dim_b, rank_b, seed):
    src = RandomSource(seed)
    a = random_density_matrices(dim_a, rank_a, src.child(0))
    b = random_density_matrices(dim_b, rank_b, src.child(1))
    spectra = product_spectra(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))
    assert spectra.shape == (1, dim_a * dim_b)
    assert np.all(np.diff(spectra, axis=-1) >= 0.0)
    decomposed = spectrum_entropies(np.linalg.eigvalsh(np.kron(a[0], b[0])[None]))
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
        joint = DensityOperator(np.kron(np.diag([0.8, 0.2]), np.eye(2) / 2))
        assert mutual_information(joint, QUBITS) == pytest.approx(0.0, abs=1e-12)

    def test_mutual_information_of_bell_state(self):
        assert mutual_information(pure_state(BELL_PHI), QUBITS) == pytest.approx(2 * LN2, abs=1e-12)

    def test_marginal_entropies_of_raw_matrices(self):
        s_s, s_r = marginal_entropies_of_stack(pure_state(BELL_PHI).matrix[None], QUBITS)
        assert (s_s[0], s_r[0]) == pytest.approx((LN2, LN2), abs=1e-12)
        # a raw matrix is not validated as a state, but its marginal spectra still are
        with pytest.raises(ValueError, match="negative eigenvalue"):
            marginal_entropies_of_stack(np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)[None], QUBITS)
        with pytest.raises(ValueError, match="does not match layout"):
            mutual_information(maximally_mixed(3), QUBITS)

    def test_entropy_invariant_under_unitaries(self):
        for seed, d in [(0, 2), (1, 5), (2, 16)]:
            rho = random_density_operator(d, d, RandomSource(seed))
            u = haar_unitaries(d, RandomSource(seed + 100))[0]
            assert abs(von_neumann_entropy(evolved(rho, u)) - von_neumann_entropy(rho)) <= 1e-10

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
# evolution, thermal states
# ---------------------------------------------------------------------------

class TestPurifyEvolve:
    def test_evolve_identity(self):
        rho = random_density_operator(4, 4, RandomSource(2))
        assert np.allclose(evolved(rho, np.eye(4, dtype=complex)).matrix, rho.matrix)

    def test_evolve_pauli_x_flips(self):
        out = evolved(pure_state(ket(0)), PAULI_X)
        assert np.allclose(out.matrix, projector(ket(1)), atol=1e-15)

    def test_evolve_bell_through_cnot_gives_pure_product(self):
        out = evolved(pure_state(BELL_PHI), CNOT)
        plus = (ket(0) + ket(1)) / math.sqrt(2)
        assert np.allclose(out.matrix, projector(np.kron(plus, ket(0))), atol=1e-12)
        assert mutual_information(out, QUBITS) == pytest.approx(0.0, abs=1e-12)


FACTOR_DIMS = [(2, 2), (2, 3), (3, 2), (2, 16), (16, 2), (16, 16)]


def factor_stack(dim_s, dim_r, rank, seed):
    """Factors of the given rank and Haar unitaries, two trials (one at
    16 x 16)."""
    sources = RandomSource(seed).children(range(1 if dim_s * dim_r == 256 else 2))
    a = random_density_matrices(dim_s, min(rank, dim_s), sources.child(0))
    b = random_density_matrices(dim_r, min(rank, dim_r), sources.child(1))
    return a, b, core.haar_unitaries(dim_s * dim_r, sources.child(2))


class TestEvolveProducts:
    @pytest.mark.parametrize("rank", [1, 16], ids=["rank-1", "full-rank"])
    @pytest.mark.parametrize("dims", FACTOR_DIMS, ids=[f"{a}x{b}" for a, b in FACTOR_DIMS])
    def test_matches_the_evolved_kronecker_product(self, dims, rank):
        # non-square layouts catch a contraction over the wrong index
        a, b, u = factor_stack(*dims, rank, seed=sum(dims) + rank)
        final = evolve_products(a, b, u)
        for k in range(len(u)):
            expected = u[k] @ np.kron(a[k], b[k]) @ u[k].conj().T
            assert np.abs(final[k] - expected).max() <= 1e-13

    def test_stacked_trials_evolve_as_on_their_own(self):
        a, b, u = factor_stack(2, 3, 3, seed=5)
        final = evolve_products(a, b, u)
        for k in range(len(u)):
            assert np.array_equal(evolve_products(a[k : k + 1], b[k : k + 1], u[k : k + 1])[0], final[k])


class TestHamiltonianMaps:
    def test_exponential_at_zero_time(self):
        h = Hamiltonian(np.diag([0.0, 1.3, 2.0]).astype(complex))
        assert np.allclose(unitaries_from_hamiltonian(h, [0.0])[0], np.eye(3))

    def test_exponential_phases(self):
        h = Hamiltonian(np.diag([0.0, math.pi]).astype(complex))
        assert np.allclose(unitaries_from_hamiltonian(h, [1.0])[0], np.diag([1.0, -1.0]), atol=1e-12)

    def test_time_reversal_inverts(self):
        g = RandomSource(17).generator()
        z = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        h = Hamiltonian((z + z.conj().T) / 2)
        forward, backward = unitaries_from_hamiltonian(h, [0.7, -0.7])
        prod = forward @ backward
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
        a = haar_unitaries(4, RandomSource(7))
        b = haar_unitaries(4, RandomSource(7))
        assert np.array_equal(a, b)

    def test_haar_dimension_one(self):
        (u,) = haar_unitaries(1, RandomSource(0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_haar_eigenangles_uniform(self):
        # chi-squared test at the 1% level: one eigenangle per sample,
        # chosen uniformly so samples stay independent
        root = RandomSource(2024)
        n, bins = 10000, 16
        pick = root.child(10**6).generator()
        angles = np.empty(n)
        for i, u in enumerate(haar_unitaries(2, root.children(range(n)))):
            angles[i] = np.angle(np.linalg.eigvals(u)[pick.integers(2)])
        counts, _ = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
        stat = float(((counts - n / bins) ** 2 / (n / bins)).sum())
        from scipy.stats import chi2

        assert stat < chi2.isf(0.01, bins - 1)

    def test_random_hermitians_are_hermitian_and_stack_like_single_draws(self):
        stack = random_hermitians(3, RandomSource(5).children(range(6)))
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        for k, h in enumerate(stack):
            assert np.array_equal(random_hermitians(3, RandomSource(5).child(k))[0], h)

    def test_random_hermitian_over_its_norm_is_the_unit_draw(self):
        # halving the draw is exact, so the search's unit-norm kick keeps its bits
        for k in range(500):
            h = random_hermitians(4, RandomSource(k))[0]
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


class TestAllocationTrims:
    """The Ginibre draw, the unitarity check and the Haar scaling write in
    place; their bits are those of the allocating expressions."""

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (16, 16)])
    def test_gaussian_matrices_are_re_plus_i_im(self, rows, cols):
        sources = RandomSource(9).children(range(4))
        expected = []
        for k in range(4):
            g = RandomSource(9).child(k).generator()
            re, im = g.standard_normal((rows, cols)), g.standard_normal((rows, cols))
            expected.append(re + 1j * im)
        assert np.array_equal(gaussian_matrices(sources, rows, cols).view(float), np.stack(expected).view(float))

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_unitarity_defect_is_the_distance_from_identity(self, dim):
        sources = RandomSource(3).children(range(3))
        u = core.haar_unitaries(dim, sources)
        u[1] *= 1.0 + 1e-9
        expected = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim)).max(axis=(-2, -1))
        assert np.array_equal(core._unitarity_defects(u), expected)
        ((failed, message),) = unitary_checks(u)
        assert failed.tolist() == [False, True, False]
        assert message(1) == f"matrix is not unitary (max deviation {expected[1]:.3e})"
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(max deviation 2\.000e-09\)$"):
            UnitaryOperator(u[1])

    def test_haar_unitaries_are_the_scaled_ginibre_qr(self):
        sources = RandomSource(4).children(range(3))
        q, r = np.linalg.qr(gaussian_matrices(sources, 4, 4) / np.sqrt(2.0))
        diagonal = np.diagonal(r, axis1=-2, axis2=-1)
        expected = q * (diagonal / np.abs(diagonal))[:, None, :]
        assert np.array_equal(core.haar_unitaries(4, sources).view(float), expected.view(float))
