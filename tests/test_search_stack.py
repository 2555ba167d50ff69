"""The search's descent probes, run as one lockstep stack per call.

Every probe of a stacked search must give the unitary, the sums and the
convergence flag of the one-probe-at-a-time descent in ``oracles.py``, bit
for bit, whatever else shares its stack and however the stack is chunked.
"""

import itertools
import warnings

import numpy as np
import pytest

import oracles
from arrowlab import arrow, core, experiments
from arrowlab.cli import main
from arrowlab.core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    mutual_information,
    random_density_operator,
    random_hermitians,
    unitary_from_hamiltonian,
)

LAYOUTS = [(2, 2), (2, 3), (3, 3)]
LAYOUT_IDS = [f"{a}x{b}" for a, b in LAYOUTS]


def correlated_states(layout: BipartitionLayout) -> list[DensityOperator]:
    """Random states of every rank from full down to 1, and at 2x2 a Bell
    state, whose marginals have exact zero eigenvalues after its answer."""
    states = [random_density_operator(layout.dim, rank, RandomSource(7 + 31 * rank)) for rank in range(layout.dim, 0, -1)]
    if layout.dim == 4:
        states.append(DensityOperator(oracles.projector(oracles.BELL_PHI)))
    assert all(mutual_information(rho, layout) > arrow.NON_PRODUCT_TOL for rho in states)
    return states


def kicked_starts(rho: DensityOperator, layout: BipartitionLayout, config: arrow.UnitarySearchConfig) -> list[np.ndarray]:
    """Where the search's probes start: its answer kicked by exp(-i PROBE_KICK H)
    for a unit-norm Hermitian H drawn from config.rng.child(k)."""
    answer = UnitaryOperator(arrow.spectral_assignment_unitary(rho, layout)).matrix
    starts = []
    for k in range(1, config.restarts):
        h = random_hermitians(layout.dim, config.rng.child(k))[0]
        starts.append(unitary_from_hamiltonian(Hamiltonian(h / np.linalg.norm(h)), arrow.PROBE_KICK).matrix @ answer)
    return starts


def search(states, layout, configs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return arrow.search_entropy_decreasing_unitaries(states, layout, configs)


def assert_probes_match_oracle(states, layout, configs, results) -> list[list[int]]:
    """Check every probe against the oracle; return, probe by probe in stack
    order, the step sizes the oracle tried at each step."""
    tries = []
    for rho, config, result in zip(states, configs, results):
        expected = oracles.search_probes(
            rho.matrix, layout.dim_s, layout.dim_r, kicked_starts(rho, layout, config), config.max_iterations, tries
        )
        assert len(result.probes) == len(expected) == config.restarts - 1
        for probe, (unitary, sums, converged) in zip(result.probes, expected):
            assert np.array_equal(probe.unitary, unitary)
            assert probe.sums == sums
            assert probe.converged == converged
    return tries


@pytest.mark.parametrize("max_iterations", [1, 5, 300])
@pytest.mark.parametrize("dims", LAYOUTS, ids=LAYOUT_IDS)
def test_lockstep_probes_match_one_at_a_time_descent(dims, max_iterations):
    layout = BipartitionLayout(*dims)
    states = correlated_states(layout)
    configs = [arrow.UnitarySearchConfig(max_iterations, 3, RandomSource(100 + j)) for j in range(len(states))]
    assert_probes_match_oracle(states, layout, configs, search(states, layout, configs))


def test_candidate_rounds_at_the_batch_edges(monkeypatch):
    # at 3x3 the rank-2 state's probes need up to 6 tries in a step, and two
    # of the rank-1 state's probes spend all their tries and stop
    layout = BipartitionLayout(3, 3)
    states = correlated_states(layout)[-2:]
    configs = [arrow.UnitarySearchConfig(300, 4, RandomSource(107 + j)) for j in range(len(states))]
    rows = []
    objectives = arrow._objectives

    def counting(finals, *dims):
        rows.append(len(finals))
        return objectives(finals, *dims)

    monkeypatch.setattr(arrow, "_objectives", counting)
    results = search(states, layout, configs)
    tries = assert_probes_match_oracle(states, layout, configs, results)
    # (tries, accepted) of each step of each probe: a probe's last step
    # accepted nothing when it stopped there without a step
    probes = [probe for result in results for probe in result.probes]
    steps = [[(n, k < len(probe.sums) - 1) for k, n in enumerate(t)] for t, probe in zip(tries, probes)]

    # replay the lockstep stack: each step runs the rounds its slowest probe
    # needs, each round the next ARMIJO_BATCH tries of the probes pending
    batch, halvings = arrow.ARMIJO_BATCH, arrow.ARMIJO_HALVINGS
    expected = [len(states), len(probes)]  # the initial sums, then the kicked starts
    mixed = False
    for k in itertools.count():
        live = [s[k] for s in steps if len(s) > k]
        if not live:
            break
        for r in range(-(-max(n for n, _ in live) // batch)):
            pending = [(n, accepted) for n, accepted in live if n > r * batch]
            expected.append(len(pending) * min(batch, halvings - r * batch))
            mixed |= len({n for n, accepted in pending if accepted and n <= (r + 1) * batch}) > 1
    assert rows == expected
    # a step accepted after more than one round, two probes that spent every
    # try and stopped, and probes of one round accepting different candidates
    assert any(accepted and n > batch for s in steps for n, accepted in s)
    assert [n for s in steps for n, accepted in s if not accepted] == [halvings, halvings]
    assert mixed


def test_rows_with_nonpositive_marginal_eigenvalues_drop_them():
    # a rank-1 or rank-2 state at 2x16 leaves its 16-dim marginal with
    # eigenvalues <= 0; a 16-term dot product with zeros in their place
    # groups its sum differently from the dot product over the rest
    layout = BipartitionLayout(2, 16)
    states = [random_density_operator(layout.dim, rank, RandomSource(40 + rank)) for rank in (1, 2)]
    configs = [arrow.UnitarySearchConfig(5, 2, RandomSource(rank)) for rank in (1, 2)]
    assert_probes_match_oracle(states, layout, configs, search(states, layout, configs))


def test_configs_of_one_call_may_differ():
    layout = arrow.TWO_QUBITS
    states = correlated_states(layout)
    budgets = itertools.cycle([(1, 2), (5, 4), (300, 1), (300, 3), (40, 6)])
    configs = [arrow.UnitarySearchConfig(*next(budgets), RandomSource(j)) for j in range(len(states))]
    results = search(states, layout, configs)
    assert_probes_match_oracle(states, layout, configs, results)
    # a trial's result does not depend on the trials that share its stack
    for rho, config, result in zip(states, configs, results):
        (alone,) = search([rho], layout, [config])
        assert np.array_equal(alone.unitary.matrix, result.unitary.matrix)
        assert (alone.achieved_sum, alone.best_restart) == (result.achieved_sum, result.best_restart)
        for a, b in zip(alone.probes, result.probes, strict=True):
            assert np.array_equal(a.unitary, b.unitary) and (a.sums, a.converged) == (b.sums, b.converged)


def test_single_restarts_descend_nothing(monkeypatch):
    def unreachable(*args):
        raise AssertionError("an empty probe stack descended")

    monkeypatch.setattr(arrow, "_descend", unreachable)
    layout = arrow.TWO_QUBITS
    states = correlated_states(layout)
    results = search(states, layout, [arrow.UnitarySearchConfig(restarts=1)] * len(states))
    for rho, result in zip(states, results):
        assert result.probes == ()
        assert result.best_restart == 0
        assert np.array_equal(result.unitary.matrix, arrow.spectral_assignment_unitary(rho, layout))


def test_product_input_raises_before_any_descent(monkeypatch):
    def unreachable(*args):
        raise AssertionError("probes descended before every trial was checked")

    monkeypatch.setattr(arrow, "_descend", unreachable)
    layout = arrow.TWO_QUBITS
    correlated = correlated_states(layout)[:3]
    product = core.tensor_product(core.maximally_mixed(2), core.pure_state([1.0, 0.0]))
    with pytest.raises(ValueError, match="^input is a product state; local entropies cannot decrease$"):
        search([*correlated[:2], product, correlated[2]], layout, [arrow.UnitarySearchConfig()] * 4)


def test_one_config_per_state():
    with pytest.raises(ValueError, match="one search config per state"):
        arrow.search_entropy_decreasing_unitaries(correlated_states(arrow.TWO_QUBITS)[:2], arrow.TWO_QUBITS, [])


@pytest.mark.parametrize("demo", ["random", "near-product"])
def test_search_rows_do_not_depend_on_the_chunk_size(monkeypatch, demo):
    expected = experiments.run_search(5, 4, 300, 0.01, 3, demo, 0.1)
    sizes = []

    def recording(probes, entries_per_probe):
        chunks = core.trial_chunks(probes, entries_per_probe)
        sizes.append([len(chunk) for chunk in chunks])
        return chunks

    # the candidates of two 4x4 probes per chunk: fifteen probes in eight chunks
    monkeypatch.setattr(core, "STACK_ENTRIES", 2 * arrow.ARMIJO_BATCH * 16)
    monkeypatch.setattr(arrow, "trial_chunks", recording)
    rows, extra = experiments.run_search(5, 4, 300, 0.01, 3, demo, 0.1)
    assert sizes == [[2] * 7 + [1]]
    assert [tuple(map(repr, row)) for row in rows] == [tuple(map(repr, row)) for row in expected[0]]
    assert extra == expected[1]


def test_probe_steps_count_the_accepted_steps(monkeypatch):
    searched = []
    stacked = arrow.search_entropy_decreasing_unitaries

    def recording(states, layout, configs):
        results = stacked(states, layout, configs)
        searched.extend(results)
        return results

    monkeypatch.setattr(experiments.arrow, "search_entropy_decreasing_unitaries", recording)
    _, extra = experiments.run_search(4, 3, 300, 0.01, 0, "random", 0.1)
    probes = [probe for result in searched for probe in result.probes]
    assert len(searched) == 4 and len(probes) == 8
    assert extra["probe_steps"] == sum(len(probe.sums) - 1 for probe in probes) > 0
    assert (extra["probes_run"], extra["probes_converged"]) == (8, sum(probe.converged for probe in probes))


def test_exhausted_draws_exit_1_with_one_line_before_any_search(monkeypatch, capsys):
    # trial 0 accepts its first draw; trial 1 rejects every draw it may make
    informations = iter([0.5] + [0.0] * 3)
    monkeypatch.setattr(experiments, "MAX_REJECTED_DRAWS", 3)
    monkeypatch.setattr(experiments, "mutual_information", lambda rho, layout: next(informations))

    def unreachable(*args):
        raise AssertionError("searched before every state was drawn")

    monkeypatch.setattr(experiments.arrow, "search_entropy_decreasing_unitaries", unreachable)
    assert main(["search", "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("arrowlab: error: no random state with mutual information above min-mi")
    assert captured.err.count("\n") == 1


def test_search_hides_only_its_own_no_decrease_warning(monkeypatch):
    search = arrow.search_entropy_decreasing_unitaries

    def warning(states, layout, configs):
        warnings.warn(arrow.NO_DECREASE_WARNING, UserWarning)
        warnings.warn("a numerical defect", RuntimeWarning)
        return search(states, layout, configs)

    monkeypatch.setattr(experiments.arrow, "search_entropy_decreasing_unitaries", warning)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        experiments.run_search(2, 2, 1, 0.01, 0, "random", 0.1)
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "a numerical defect")]


def test_every_probe_converges_at_the_cli_defaults():
    # steepest descent takes 4,843 steps here and leaves 3 of the 60 probes
    # at their 300-step budget
    _, extra = experiments.run_search(20, 4, 300, 0.01, 0, "random", 0.1)
    assert (extra["probes_run"], extra["probes_converged"]) == (60, 60)
    assert extra["probe_steps"] <= 4843 // 2


def test_probes_converge_above_eight_cells():
    # at 3x3 the answer is one staircase placement, not a local optimum;
    # steepest descent converges none of these probes within 300 steps
    layout = BipartitionLayout(3, 3)
    states = [random_density_operator(layout.dim, layout.dim, RandomSource(k)) for k in range(4)]
    configs = [arrow.UnitarySearchConfig(rng=RandomSource(k)) for k in range(4)]
    results = search(states, layout, configs)
    assert all(probe.converged for result in results for probe in result.probes)
    assert sum(result.best_restart > 0 for result in results) >= 3
