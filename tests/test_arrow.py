import itertools
import math
import warnings

import numpy as np
import pytest

from arrowlab import arrow
from arrowlab.arrow import (
    TWO_QUBITS,
    Alignment,
    EntropyBalanceReport,
    SweepGrid,
    classical_correlated_state,
    classical_decorrelating_unitary,
    decorrelating_unitary,
    near_product_state,
    schrodinger_checks,
    search_entropy_decreasing_unitaries,
    spectral_assignment_unitary,
    state_balances,
    weak_coupling_sweep,
)
from arrowlab.core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    evolve_states,
    haar_unitaries,
    marginal_entropies_of_stack,
    partial_traces,
    pure_state,
    random_density_operator,
)
from oracles import BELL_PHI, CNOT, SWAP, binary_entropy, ket, mutual_information, projector, spectral_assignment_per_cell, stacked, trial

LN2 = 0.6931471805599453
DS_S_01 = -0.1985152433458726  # -H2(0.05)
DS_R_01 = 0.12656773004557562  # H2(0.1) - H2(0.05)
MI_01 = 0.07194751330029697  # 2 H2(0.05) - H2(0.1)


IDENTITY = UnitaryOperator(np.eye(4, dtype=complex))


def random_product(seed: int) -> DensityOperator:
    src = RandomSource(seed)
    a, b = (random_density_operator(2, 2, src.child(k)).matrix for k in (0, 1))
    return DensityOperator(np.kron(a, b))


def haar_unitary(seed: int) -> UnitaryOperator:
    return UnitaryOperator(haar_unitaries(4, RandomSource(seed))[0])


def balance(rho: DensityOperator, layout: BipartitionLayout, u: UnitaryOperator):
    """One state's entropy balance, through the stacked path as a stack of
    one, with its fields as built-in values."""
    return trial(state_balances(rho.matrix[None], rho.spectrum[None], layout, u.matrix[None]), 0)


def evolved(rho: DensityOperator, u: UnitaryOperator) -> DensityOperator:
    """U rho U+ through the stacked kernel, validated as a state."""
    return DensityOperator(evolve_states(rho.matrix[None], u.matrix[None])[0])


# ---------------------------------------------------------------------------
# entropy balance
# ---------------------------------------------------------------------------

class TestEntropyBalance:
    def test_identity_on_product_input_is_all_zero(self):
        rep = balance(random_product(0), TWO_QUBITS, IDENTITY)
        assert rep.ds_s == pytest.approx(0.0, abs=1e-12)
        assert rep.ds_r == pytest.approx(0.0, abs=1e-12)
        assert rep.sum == pytest.approx(0.0, abs=1e-12)
        assert rep.mi_final == pytest.approx(0.0, abs=1e-12)
        assert rep.product_input

    def test_product_input_sum_equals_final_mutual_information(self):
        for seed in range(200):
            rep = balance(random_product(seed), TWO_QUBITS, haar_unitary(seed + 10**6))
            assert rep.product_input
            assert abs(rep.sum - rep.mi_final) <= 1e-9
            assert rep.sum >= -1e-9

    def test_bell_state_through_disentangler(self):
        rep = balance(pure_state(BELL_PHI), TWO_QUBITS, UnitaryOperator(CNOT))
        assert rep.ds_s == pytest.approx(-LN2, abs=1e-12)
        assert rep.ds_r == pytest.approx(-LN2, abs=1e-12)
        assert rep.sum == pytest.approx(-2 * LN2, abs=1e-12)
        assert not rep.product_input

    def test_report_rejects_inconsistent_sum(self):
        with pytest.raises(ValueError, match="inconsistent"):
            fields = dict(ds_s=0.1, ds_r=0.1, sum=0.3, mi_initial=0.5, mi_final=0.5, joint_entropy_change=0.0, schrodinger_product=0.01, product_input=False)
            EntropyBalanceReport(**{name: np.array([value]) for name, value in fields.items()})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions must agree"):
            balance(random_product(1), BipartitionLayout(2, 3), IDENTITY)

    def test_five_spectra_and_no_revalidated_state(self, monkeypatch):
        rho, u = random_product(2), haar_unitary(3)
        calls = {"eig": 0, "state": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, "eig"))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh, "eig"))
        monkeypatch.setattr(DensityOperator, "__post_init__", counting(DensityOperator.__post_init__, "state"))
        balance(rho, TWO_QUBITS, u)
        # S(rho_S), S(rho_R) before and after the unitary, and S(rho) after
        # it; S(rho) before reads the spectrum rho was validated with
        assert calls == {"eig": 5, "state": 0}


# ---------------------------------------------------------------------------
# near-product construction and its decorrelator
# ---------------------------------------------------------------------------

class TestNearProduct:
    def test_epsilon_zero_is_pure_product(self):
        rho = near_product_state(0.0)
        assert np.allclose(rho.matrix, projector(ket(0, 0)))
        assert mutual_information(rho.matrix, 2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_one_is_maximally_correlated(self):
        rho = near_product_state(1.0)
        assert mutual_information(rho.matrix, 2, 2) == pytest.approx(2 * LN2, abs=1e-12)

    def test_epsilon_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="epsilon"):
                near_product_state(bad)

    def test_mutual_information_formula_on_grid(self):
        for eps in [float(e) for e in np.arange(0.01, 0.98, 0.04)] + [0.99]:
            analytic = 2 * binary_entropy(eps / 2) - binary_entropy(eps)
            assert mutual_information(near_product_state(eps).matrix, 2, 2) == pytest.approx(analytic, abs=1e-10)

    def test_known_point(self):
        rho = near_product_state(0.1)
        assert mutual_information(rho.matrix, 2, 2) == pytest.approx(MI_01, abs=1e-12)
        # the overlap <00|rho|00> = 1 - eps
        assert np.real(ket(0, 0).conj() @ rho.matrix @ ket(0, 0)) == pytest.approx(0.9, abs=1e-12)

    def test_marginal_populations(self):
        (reduced,) = partial_traces(near_product_state(0.1).matrix[None], 2, 2, "S")
        assert np.allclose(reduced, np.diag([0.95, 0.05]), atol=1e-14)

    def test_decorrelator_basis_action(self):
        u = decorrelating_unitary().matrix
        psi_plus = (ket(0, 1) + ket(1, 0)) / math.sqrt(2)
        psi_minus = (ket(0, 1) - ket(1, 0)) / math.sqrt(2)
        assert np.allclose(u @ ket(0, 0), ket(0, 0))
        assert np.allclose(u @ psi_plus, ket(0, 1))
        assert np.allclose(u @ psi_minus, ket(1, 0))
        assert np.allclose(u @ ket(1, 1), ket(1, 1))

    def test_decorrelator_produces_exact_product(self):
        u = decorrelating_unitary()
        for eps in (0.05, 0.1, 0.3, 0.7, 1.0):
            final = evolved(near_product_state(eps), u)
            expected = np.kron(projector(ket(0)), np.diag([1 - eps, eps]))
            assert np.allclose(final.matrix, expected, atol=1e-12)
            assert mutual_information(final.matrix, 2, 2) <= 1e-10

    def test_decorrelator_fixes_corner_state(self):
        out = evolved(pure_state(ket(0, 0)), decorrelating_unitary())
        assert np.allclose(out.matrix, projector(ket(0, 0)), atol=1e-14)

    def test_balance_at_epsilon_01(self):
        rep = balance(near_product_state(0.1), TWO_QUBITS, decorrelating_unitary())
        assert rep.ds_s == pytest.approx(DS_S_01, abs=1e-10)
        assert rep.ds_r == pytest.approx(DS_R_01, abs=1e-10)
        assert rep.sum == pytest.approx(-MI_01, abs=1e-10)


class TestClassicalDemo:
    def test_initial_mutual_information(self):
        assert mutual_information(classical_correlated_state().matrix, 2, 2) == pytest.approx(LN2, abs=1e-12)

    def test_final_state_is_mixed_times_ground(self):
        final = evolved(classical_correlated_state(), classical_decorrelating_unitary())
        expected = np.kron(np.eye(2) / 2, projector(ket(0)))
        assert np.allclose(final.matrix, expected, atol=1e-14)
        assert mutual_information(final.matrix, 2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_report_values(self):
        rep = balance(classical_correlated_state(), TWO_QUBITS, classical_decorrelating_unitary())
        assert rep.ds_s == pytest.approx(0.0, abs=1e-12)
        assert rep.ds_r == pytest.approx(-LN2, abs=1e-12)
        assert rep.sum == pytest.approx(-LN2, abs=1e-12)


# ---------------------------------------------------------------------------
# relative-arrow classification
# ---------------------------------------------------------------------------

class TestSchrodingerCheck:
    def test_identity_evolution_is_degenerate(self):
        rep = balance(random_product(3), TWO_QUBITS, IDENTITY)
        assert schrodinger_checks(np.array([rep.schrodinger_product])) == [Alignment.DEGENERATE]

    def test_near_product_decorrelation_is_anti_aligned(self):
        rep = balance(near_product_state(0.1), TWO_QUBITS, decorrelating_unitary())
        assert rep.ds_s < 0 < rep.ds_r
        assert schrodinger_checks(np.array([rep.schrodinger_product])) == [Alignment.ANTI_ALIGNED]

    def test_product_inputs_census(self):
        # no theorem forbids anti-aligned outcomes for product inputs; we
        # only require the identity sum = I(final) >= 0 and record counts
        counts = {a: 0 for a in Alignment}
        products = []
        for seed in range(300):
            rep = balance(random_product(seed), TWO_QUBITS, haar_unitary(seed + 5 * 10**5))
            products.append(rep.schrodinger_product)
            assert rep.sum >= -1e-9
        for alignment in schrodinger_checks(np.array(products)):
            counts[alignment] += 1
        assert sum(counts.values()) == 300
        assert counts[Alignment.ALIGNED] > 0


# ---------------------------------------------------------------------------
# the unitary search
# ---------------------------------------------------------------------------

def search_one(rho, source=RandomSource(0), restarts=4, max_iterations=300):
    """The search of one state, as scalars: (unitary, achieved sum, best
    restart, probes)."""
    result = search_entropy_decreasing_unitaries(rho.matrix[None], rho.spectrum[None], TWO_QUBITS, source, restarts, max_iterations)
    return result.unitaries[0], result.report.sum[0].item(), int(result.best_restarts[0]), result.probes[0]


class TestSearch:
    def test_rejects_product_input(self):
        with pytest.raises(ValueError, match="product"):
            search_one(random_product(0))

    def test_spectral_assignment_reaches_analytic_optimum(self):
        for rho, target in [
            (near_product_state(0.1), -MI_01),
            (classical_correlated_state(), -LN2),
        ]:
            u = UnitaryOperator(spectral_assignment_unitary(rho.matrix[None], TWO_QUBITS)[0])
            assert balance(rho, TWO_QUBITS, u).sum == pytest.approx(target, abs=1e-12)

    def test_single_restart_is_the_spectral_assignment(self):
        rho = random_density_operator(4, 4, RandomSource(77))
        unitary, achieved, best, probes = search_one(rho, restarts=1)
        u = UnitaryOperator(spectral_assignment_unitary(rho.matrix[None], TWO_QUBITS)[0])
        assert achieved == balance(rho, TWO_QUBITS, u).sum
        assert np.array_equal(unitary, u.matrix)
        assert best == 0
        assert probes == ()

    def test_near_product_probes_descend_and_converge(self):
        _, achieved, best, probes = search_one(near_product_state(0.1), RandomSource(1))
        assert len(probes) == 3
        for probe in probes:
            assert len(probe.sums) >= 2
            assert probe.sums[0] > achieved  # the kick leaves the optimum
            assert all(later <= earlier for earlier, later in zip(probe.sums, probe.sums[1:]))
            assert probe.converged
            assert len(probe.sums) - 1 < 300
        assert best == 0

    def test_near_product_feasible_bound(self):
        _, achieved, _, _ = search_one(near_product_state(0.1), RandomSource(1), restarts=2)
        assert achieved <= -0.0719 + 1e-6
        assert achieved < 0.0

    def test_classical_feasible_bound(self):
        _, achieved, _, _ = search_one(classical_correlated_state(), RandomSource(1), restarts=2)
        assert achieved <= -LN2 + 1e-6

    def test_decrease_is_bounded_by_initial_mutual_information(self):
        # the decrease can never exceed the correlations initially present
        rho = near_product_state(0.3)
        _, achieved, _, _ = search_one(rho, RandomSource(0), restarts=2)
        assert achieved < 0.0
        assert achieved >= -mutual_information(rho.matrix, 2, 2) - 1e-9

    def test_achieved_sum_matches_recomputed_balance(self):
        rho = random_density_operator(4, 4, RandomSource(77))
        unitary, achieved, _, _ = search_one(rho, RandomSource(2), restarts=2, max_iterations=200)
        recomputed = balance(rho, TWO_QUBITS, UnitaryOperator(unitary))
        assert abs(achieved - recomputed.sum) <= 1e-12

    def test_stacked_report_is_each_states_balance(self):
        # the states whose probe wins are balanced again, as one stack; at
        # 3x3 the answer is a staircase placement, which probes often beat
        layout = BipartitionLayout(3, 3)
        states = [random_density_operator(9, 9, RandomSource(seed)) for seed in range(4)]
        result = search_entropy_decreasing_unitaries(*stacked(states), layout, RandomSource(0).children(range(4)))
        assert 0 < np.count_nonzero(result.best_restarts) < 4
        for k, rho in enumerate(states):
            expected = balance(rho, layout, UnitaryOperator(result.unitaries[k]))
            assert trial(result.report, k) == expected
            probe_sums = [probe.sums[-1] for probe in result.probes[k]]
            if result.best_restarts[k]:
                assert abs(probe_sums[result.best_restarts[k] - 1] - expected.sum) <= 1e-12

    def test_random_correlated_states_admit_decrease(self):
        hits = 0
        for seed in range(10):
            rho = random_density_operator(4, 4, RandomSource(seed + 400))
            if mutual_information(rho.matrix, 2, 2) <= 0.01:
                continue
            _, achieved, _, _ = search_one(rho, RandomSource(seed), restarts=3)
            hits += achieved < 0.0
        assert hits >= 9

    def test_warning_when_budget_too_small_is_result_not_error(self):
        # a one-step probe runs out of budget; the search still returns a result
        rho = random_density_operator(4, 4, RandomSource(900))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, achieved, _, probes = search_one(rho, RandomSource(0), restarts=2, max_iterations=1)
        assert isinstance(achieved, float)
        assert [probe.converged for probe in probes] == [False]

    def test_one_warning_counts_the_states_without_decrease(self, monkeypatch):
        # the identity keeps a sum at exactly 0; the true answer lowers it
        states = [near_product_state(0.1), near_product_state(0.2), near_product_state(0.3)]
        answer = arrow.spectral_assignment_unitary

        def first_answer_only(rho, layout):
            u = answer(rho, layout)
            u[1:] = np.eye(4)
            return u

        monkeypatch.setattr(arrow, "spectral_assignment_unitary", first_answer_only)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = search_entropy_decreasing_unitaries(*stacked(states), TWO_QUBITS, RandomSource(0).children(range(3)), 1)
        assert (result.report.sum >= 0.0).tolist() == [False, True, True]
        assert [str(w.message) for w in caught] == [f"{arrow.NO_DECREASE_WARNING} for 2 of 3 states"]

    @pytest.mark.parametrize("dim_s, dim_r, states", [(2, 2, 40), (2, 3, 12), (2, 4, 2), (3, 3, 20)])
    def test_stacked_placement_scorer_matches_the_per_cell_loop(self, dim_s, dim_r, states):
        layout = BipartitionLayout(dim_s, dim_r)
        # low ranks leave cells empty, so placements tie and the first one must win
        rho = np.stack(
            [random_density_operator(layout.dim, layout.dim - seed % layout.dim, RandomSource(seed + 3000)).matrix for seed in range(states)]
        )
        for m, u in zip(rho, spectral_assignment_unitary(rho, layout), strict=True):
            assert np.array_equal(u, spectral_assignment_per_cell(m, dim_s, dim_r))

    def test_probe_decomposes_each_marginal_once_per_evaluated_point(self, monkeypatch):
        calls = {"eig_2x2": 0, "points": 0, "balances": 0}

        def counting_2x2(decompose):
            def wrapper(m, *args, **kwargs):
                # a stack counts each 2x2 matrix it decomposes
                if np.shape(m)[-2:] == (2, 2):
                    calls["eig_2x2"] += math.prod(np.shape(m)[:-2])
                return decompose(m, *args, **kwargs)

            return wrapper

        def counting_rows(fn, key):
            def wrapper(finals, *args, **kwargs):
                calls[key] += len(finals)
                return fn(finals, *args, **kwargs)

            return wrapper

        states = [random_density_operator(4, 4, RandomSource(seed)) for seed in (77, 78)]
        monkeypatch.setattr(np.linalg, "eigh", counting_2x2(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_2x2(np.linalg.eigvalsh))
        monkeypatch.setattr(arrow, "_objectives", counting_rows(arrow._objectives, "points"))
        monkeypatch.setattr(arrow, "entropy_balances", counting_rows(arrow.entropy_balances, "balances"))
        # four probes share each stacked decomposition
        res = search_entropy_decreasing_unitaries(*stacked(states), TWO_QUBITS, RandomSource(2).children(range(2)), restarts=3)
        # accepted steps, whose gradients read the marginals of their point
        assert all(len(probe.sums) >= 3 for own in res.probes for probe in own)
        # each state's initial marginals are decomposed once, and a balance
        # takes both marginals of its final state; the points include every
        # candidate of an Armijo round, the ones after a probe's first
        # passing candidate, which are thrown away, too
        assert calls["balances"] == len(states) + np.count_nonzero(res.best_restarts)
        assert calls["eig_2x2"] == 2 * len(states) + 2 * calls["balances"] + 2 * calls["points"]


# ---------------------------------------------------------------------------
# weak-coupling sweep
# ---------------------------------------------------------------------------

class TestSweep:
    H_S = Hamiltonian(np.diag([0.0, 1.0]).astype(complex))
    H_R = Hamiltonian(np.diag([0.0, 1.5]).astype(complex))
    H_INT = Hamiltonian(SWAP)

    def sums(self, grid):
        """The sweep's entropy sums, indexed like the grid's axes."""
        return weak_coupling_sweep(self.H_S, self.H_R, self.H_INT, grid).sum.reshape(grid.shape)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid((), (0.1,), (1.0,))
        with pytest.raises(ValueError):
            SweepGrid((1.0,), (1.5,), (1.0,))

    def test_zero_coupling_never_moves_local_spectra(self):
        grid = SweepGrid((0.0,), (0.0, 0.3, 0.8), (0.5, 2.0))
        assert np.abs(self.sums(grid)).max() <= 1e-10

    def test_product_column_is_nonnegative(self):
        grid = SweepGrid((0.0, 0.5, 2.0), (0.0,), (0.5, 1.0, 3.0))
        assert self.sums(grid).min() >= -1e-9

    def test_strong_coupling_reaches_negative_cells(self):
        grid = SweepGrid((1.0, 2.0), (0.5,), (0.5, 1.0, 2.0, 4.0))
        assert self.sums(grid).min() < -1e-3

    def test_initial_entropies_once_per_state(self, monkeypatch):
        stacks = []

        def recording(m, layout):
            stacks.append(len(m))
            return marginal_entropies_of_stack(m, layout)

        monkeypatch.setattr(arrow, "marginal_entropies_of_stack", recording)
        grid = SweepGrid((0.0, 0.5, 1.0, 2.0, 4.0), (0.0, 0.25, 0.5), (0.5, 1.0, 2.0, 4.0))
        weak_coupling_sweep(self.H_S, self.H_R, self.H_INT, grid)
        # the three states once, then the sixty final states of every cell
        assert stacks == [3, 60]

    def test_axes_follow_the_grid(self):
        grid = SweepGrid((0.0, 1.0), (0.0, 0.5), (1.0, 2.0))
        sums = self.sums(grid)
        assert sums.shape == (2, 2, 2)
        for (i, g), (j, eps), (k, t) in itertools.product(
            *map(enumerate, (grid.coupling_strengths, grid.correlation_strengths, grid.evolution_times))
        ):
            cell = self.sums(SweepGrid((g,), (eps,), (t,)))
            assert cell[0, 0, 0] == sums[i, j, k]
