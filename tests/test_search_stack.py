"""The search's descent probes, run as one lockstep stack per call, and
its random inputs, drawn in stacks.

Every probe of a stacked search must give the unitary, the sums and the
convergence flag of the one-probe-at-a-time descent in ``oracles.py``, bit
for bit, whatever else shares its stack and however the stack is chunked;
and the stacked draws must accept the states, or raise the error, of the
one-draw-at-a-time loop there.
"""

import itertools
import tracemalloc
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
    random_density_operator,
    random_hermitians,
    unitaries_from_hamiltonian,
)

LAYOUTS = [(2, 2), (2, 3), (3, 3)]
LAYOUT_IDS = [f"{a}x{b}" for a, b in LAYOUTS]


def correlated_states(layout: BipartitionLayout) -> list[DensityOperator]:
    """Random states of every rank from full down to 1, and at 2x2 a Bell
    state, whose marginals have exact zero eigenvalues after its answer."""
    states = [random_density_operator(layout.dim, rank, RandomSource(7 + 31 * rank)) for rank in range(layout.dim, 0, -1)]
    if layout.dim == 4:
        states.append(DensityOperator(oracles.projector(oracles.BELL_PHI)))
    assert all(oracles.mutual_information(rho.matrix, layout.dim_s, layout.dim_r) > arrow.NON_PRODUCT_TOL for rho in states)
    return states


def kicked_starts(rho: DensityOperator, layout: BipartitionLayout, source: RandomSource, restarts: int) -> list[np.ndarray]:
    """Where the search's probes start, one matrix at a time: its answer
    kicked by exp(-i PROBE_KICK H) for a unit-norm Hermitian H drawn from
    source.child(k)."""
    answer = oracles.spectral_assignment_unitary(rho.matrix, layout.dim_s, layout.dim_r)
    starts = []
    for k in range(1, restarts):
        h = random_hermitians(layout.dim, source.child(k))[0]
        starts.append(unitaries_from_hamiltonian(Hamiltonian(h / np.linalg.norm(h)), [arrow.PROBE_KICK])[0] @ answer)
    return starts


def search(states, layout, sources, restarts=4, max_iterations=300):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return arrow.search_entropy_decreasing_unitaries(*oracles.stacked(states), layout, sources, restarts, max_iterations)


def rows(sources: RandomSource) -> list[RandomSource]:
    """Each row of a source stack as a lone source."""
    return [RandomSource(sources.seed, [key]) for key in sources.keys.tolist()]


def assert_probes_match_oracle(states, layout, sources, restarts, max_iterations, result) -> list[list[int]]:
    """Check every probe against the oracle; return, probe by probe in stack
    order, the step sizes the oracle tried at each step."""
    tries = []
    for rho, source, probes in zip(states, rows(sources), result.probes, strict=True):
        starts = kicked_starts(rho, layout, source, restarts)
        expected = oracles.search_probes(rho.matrix, layout.dim_s, layout.dim_r, starts, max_iterations, tries)
        assert len(probes) == len(expected) == restarts - 1
        for probe, (unitary, sums, converged) in zip(probes, expected):
            assert np.array_equal(probe.unitary, unitary)
            assert probe.sums == sums
            assert probe.converged == converged
    return tries


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dims", LAYOUTS, ids=LAYOUT_IDS)
def test_stacked_answers_match_the_single_state_form(dims, seed):
    # states of every rank, so that low ranks leave cells empty and
    # placements tie; at 3x3 the answer is the staircase placement
    layout = BipartitionLayout(*dims)
    states = [random_density_operator(layout.dim, rank, RandomSource(seed).child(rank)) for rank in range(layout.dim, 0, -1)]
    rho, _ = oracles.stacked(states)
    expected = oracles.bits(np.stack([oracles.spectral_assignment_unitary(m, *dims) for m in rho]))
    assert np.array_equal(oracles.bits(arrow.spectral_assignment_unitary(rho, layout)), expected)
    result = search(states, layout, RandomSource(seed).children(range(len(states))), restarts=1)
    assert np.array_equal(oracles.bits(result.unitaries), expected)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)], ids=["2x2", "2x3", "2x4"])
def test_answers_scored_in_chunks_match_the_single_state_form(monkeypatch, dims):
    # at 2x2 the 24 placements of 4 marginal entries put 6 states in a
    # chunk, and 9 states cross a chunk boundary; at 2x3 and 2x4 each state
    # is a chunk of its own
    layout = BipartitionLayout(*dims)
    monkeypatch.setattr(core, "STACK_ENTRIES", 6 * 24 * 4)
    rho = core.random_density_matrices(layout.dim, layout.dim, RandomSource(5).children(range(9 if dims == (2, 2) else 3)))
    expected = np.stack([oracles.spectral_assignment_unitary(m, *dims) for m in rho])
    assert np.array_equal(oracles.bits(arrow.spectral_assignment_unitary(rho, layout)), oracles.bits(expected))


def test_answers_at_2x4_hold_one_chunk_of_scores_at_a_time():
    # 40,320 placements: every state's marginals at once peaked at 134 MiB
    # for 20 states, one chunk at a time holds a few MiB
    rho = core.random_density_matrices(8, 8, RandomSource(0).children(range(20)))
    tracemalloc.start()
    try:
        arrow.spectral_assignment_unitary(rho, BipartitionLayout(2, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("demo", ["random", "near-product"])
def test_no_density_operator_per_search_trial(monkeypatch, capsys, demo):
    # the random draws are validated once, as the stacks that drew them; a
    # named demo builds its one state and broadcasts it
    counts = []
    post_init = DensityOperator.__post_init__

    def counting(self):
        counts[-1] += 1
        post_init(self)

    monkeypatch.setattr(DensityOperator, "__post_init__", counting)
    for trials in (2, 20):
        counts.append(0)
        assert main(["search", "--demo", demo, "--trials", str(trials)]) == 0
    capsys.readouterr()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("max_iterations", [1, 5, 300])
@pytest.mark.parametrize("dims", LAYOUTS, ids=LAYOUT_IDS)
def test_lockstep_probes_match_one_at_a_time_descent(dims, max_iterations):
    layout = BipartitionLayout(*dims)
    states = correlated_states(layout)
    sources = RandomSource(100).children(range(len(states)))
    assert_probes_match_oracle(states, layout, sources, 3, max_iterations, search(states, layout, sources, 3, max_iterations))


def test_candidate_rounds_at_the_batch_edges(monkeypatch):
    # at 3x3 the rank-2 state's probes need up to 6 tries in a step, and two
    # of the rank-1 state's probes spend all their tries and stop
    layout = BipartitionLayout(3, 3)
    states = correlated_states(layout)[-2:]
    sources = RandomSource(2).children(range(len(states)))
    rows = []
    objectives = arrow._objectives

    def counting(finals, *dims):
        rows.append(len(finals))
        return objectives(finals, *dims)

    monkeypatch.setattr(arrow, "_objectives", counting)
    result = search(states, layout, sources)
    tries = assert_probes_match_oracle(states, layout, sources, 4, 300, result)
    # (tries, accepted) of each step of each probe: a probe's last step
    # accepted nothing when it stopped there without a step
    probes = [probe for own in result.probes for probe in own]
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


@pytest.mark.parametrize("seed, restarted", [(0, 3), (3, 4)])
def test_lockstep_probes_match_the_oracle_where_directions_restart(monkeypatch, seed, restarted):
    # the classical state's probes meet directions with <H, C> <= 0, which
    # restart as H = C; the lockstep stack then takes <C, C> as the slope
    values = []
    inner = oracles.inner

    def recording(a, b):
        values.append(inner(a, b))
        return values[-1]

    monkeypatch.setattr(oracles, "inner", recording)
    layout = arrow.TWO_QUBITS
    states = [arrow.classical_correlated_state()] * 3
    sources = RandomSource(seed).children(range(len(states)))
    tries = assert_probes_match_oracle(states, layout, sources, 4, 300, search(states, layout, sources))
    # a probe's first step takes one inner product, the slope; each later
    # step five: <C', C'> twice, <C - C', C>, the restart test <H, C> and
    # the slope
    restarts, at = 0, 0
    for t in tries:
        probe = values[at : at + 1 + 5 * (len(t) - 1)]
        restarts += sum(probe[1 + 5 * k + 3] <= 0.0 for k in range(len(t) - 1))
        at += len(probe)
    assert at == len(values)
    assert restarts == restarted


def test_rows_with_nonpositive_marginal_eigenvalues_drop_them():
    # a rank-1 or rank-2 state at 2x16 leaves its 16-dim marginal with
    # eigenvalues <= 0; a 16-term dot product with zeros in their place
    # groups its sum differently from the dot product over the rest
    layout = BipartitionLayout(2, 16)
    states = [random_density_operator(layout.dim, rank, RandomSource(40 + rank)) for rank in (1, 2)]
    sources = RandomSource(0, [[1], [2]])
    assert_probes_match_oracle(states, layout, sources, 2, 5, search(states, layout, sources, 2, 5))


@pytest.mark.parametrize("restarts, max_iterations", [(2, 1), (4, 5), (1, 300), (3, 300), (6, 40)])
def test_a_states_search_does_not_depend_on_its_stack(restarts, max_iterations):
    layout = arrow.TWO_QUBITS
    states = correlated_states(layout)
    sources = RandomSource(0).children(range(len(states)))
    result = search(states, layout, sources, restarts, max_iterations)
    assert_probes_match_oracle(states, layout, sources, restarts, max_iterations, result)
    for j, (rho, source) in enumerate(zip(states, rows(sources))):
        alone = search([rho], layout, source, restarts, max_iterations)
        assert np.array_equal(alone.unitaries[0], result.unitaries[j])
        assert (oracles.trial(alone.report, 0), alone.best_restarts[0]) == (oracles.trial(result.report, j), result.best_restarts[j])
        for a, b in zip(alone.probes[0], result.probes[j], strict=True):
            assert np.array_equal(a.unitary, b.unitary) and (a.sums, a.converged) == (b.sums, b.converged)


def test_single_restarts_descend_nothing(monkeypatch):
    def unreachable(*args):
        raise AssertionError("an empty probe stack descended")

    monkeypatch.setattr(arrow, "_descend", unreachable)
    layout = arrow.TWO_QUBITS
    states = correlated_states(layout)
    result = search(states, layout, RandomSource(0).children(range(len(states))), restarts=1)
    assert result.probes == ((),) * len(states)
    assert result.best_restarts.tolist() == [0] * len(states)
    for rho, unitary in zip(states, result.unitaries, strict=True):
        assert np.array_equal(unitary, oracles.spectral_assignment_unitary(rho.matrix, layout.dim_s, layout.dim_r))


def test_product_input_raises_before_any_descent(monkeypatch):
    def unreachable(*args):
        raise AssertionError("probes descended before every trial was checked")

    monkeypatch.setattr(arrow, "_descend", unreachable)
    layout = arrow.TWO_QUBITS
    correlated = correlated_states(layout)[:3]
    product = core.DensityOperator(np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))
    with pytest.raises(ValueError, match="^input is a product state; local entropies cannot decrease$"):
        search([*correlated[:2], product, correlated[2]], layout, RandomSource(0).children(range(4)))


def test_one_source_per_state():
    states = correlated_states(arrow.TWO_QUBITS)[:2]
    for sources in (RandomSource(0), RandomSource(0).children(range(3))):
        with pytest.raises(ValueError, match="^give one source per state$"):
            arrow.search_entropy_decreasing_unitaries(*oracles.stacked(states), arrow.TWO_QUBITS, sources)


@pytest.mark.parametrize("restarts, max_iterations", [(0, 300), (4, 0)])
def test_counts_are_at_least_one(restarts, max_iterations):
    states = correlated_states(arrow.TWO_QUBITS)[:1]
    with pytest.raises(ValueError, match="^restarts and max_iterations must be >= 1$"):
        arrow.search_entropy_decreasing_unitaries(*oracles.stacked(states), arrow.TWO_QUBITS, RandomSource(0), restarts, max_iterations)


@pytest.mark.parametrize("demo", ["random", "near-product"])
def test_search_rows_do_not_depend_on_the_chunk_size(monkeypatch, demo):
    expected = experiments.run_search(5, 4, 300, 0.01, 3, demo, 0.1)
    sizes = []

    def recording(probes, entries_per_probe):
        chunks = core.trial_chunks(probes, entries_per_probe)
        sizes.append([len(chunk) for chunk in chunks])
        return chunks

    # the candidates of two 4x4 probes per chunk: fifteen probes in eight
    # chunks; the answers score 24 placements x 4 marginal entries per
    # state, so each of the five states is a chunk of its own
    monkeypatch.setattr(core, "STACK_ENTRIES", 2 * arrow.ARMIJO_BATCH * 16)
    monkeypatch.setattr(arrow, "trial_chunks", recording)
    columns, extra = experiments.run_search(5, 4, 300, 0.01, 3, demo, 0.1)
    assert sizes == [[1] * 5, [2] * 7 + [1]]
    rows, expected_rows = oracles.rows("search", columns), oracles.rows("search", expected[0])
    assert [tuple(map(repr, row)) for row in rows] == [tuple(map(repr, row)) for row in expected_rows]
    assert extra == expected[1]


def test_probe_steps_count_the_accepted_steps(monkeypatch):
    searched = []
    stacked = arrow.search_entropy_decreasing_unitaries

    def recording(*args):
        searched.append(stacked(*args))
        return searched[-1]

    monkeypatch.setattr(experiments.arrow, "search_entropy_decreasing_unitaries", recording)
    _, extra = experiments.run_search(4, 3, 300, 0.01, 0, "random", 0.1)
    (result,) = searched
    probes = [probe for own in result.probes for probe in own]
    assert len(result.probes) == 4 and len(probes) == 8
    assert extra["probe_steps"] == sum(len(probe.sums) - 1 for probe in probes) > 0
    assert (extra["probes_run"], extra["probes_converged"]) == (8, sum(probe.converged for probe in probes))


def test_trial_k_searches_with_its_own_streams(monkeypatch):
    # trial k kicks from root.child(k).child(1), whatever the other trials
    calls = []
    stacked = arrow.search_entropy_decreasing_unitaries

    def recording(rho, spectra, layout, sources, *counts):
        calls.append(sources.keys.tolist())
        return stacked(rho, spectra, layout, sources, *counts)

    monkeypatch.setattr(experiments.arrow, "search_entropy_decreasing_unitaries", recording)
    experiments.run_search(3, 2, 5, 0.01, 0, "near-product", 0.1)
    assert calls == [[[0, 1], [1, 1], [2, 1]]]


# (seed, trials, min-mi, MAX_REJECTED_DRAWS, STACK_ENTRIES): the defaults; a
# floor that rejects most draws, so that stacks double; a floor one trial
# cannot pass; a cap of 4 draws per stack below the trial count
RANDOM_DRAWS = [
    (0, 20, 0.01, 10_000, core.STACK_ENTRIES),
    (1, 6, 0.5, 10_000, core.STACK_ENTRIES),
    (2, 4, 0.6, 40, core.STACK_ENTRIES),
    (0, 1, 1.3, 50, core.STACK_ENTRIES),
    (3, 9, 0.3, 10_000, 64),
]


@pytest.mark.parametrize("seed, trials, min_mi, max_rejected, entries", RANDOM_DRAWS)
def test_stacked_draws_accept_the_one_at_a_time_states(monkeypatch, seed, trials, min_mi, max_rejected, entries):
    monkeypatch.setattr(experiments, "MAX_REJECTED_DRAWS", max_rejected)
    monkeypatch.setattr(experiments, "STACK_ENTRIES", entries)
    root = RandomSource(seed)
    expected, largest = oracles.random_states_one_at_a_time(trials, min_mi, root, max_rejected)
    if largest is None:
        matrices, spectra = experiments._random_states(trials, min_mi, arrow.TWO_QUBITS, root)
        assert matrices.shape == (trials, 4, 4) and spectra.shape == (trials, 4)
        assert all(np.array_equal(m, rho) for m, rho in zip(matrices, expected, strict=True))
        # each accepted state's spectrum is its own, as validating it alone gives it
        assert all(np.array_equal(lam, DensityOperator(m).spectrum) for m, lam in zip(matrices, spectra))
        return
    with pytest.raises(ValueError) as raised:
        experiments._random_states(trials, min_mi, arrow.TWO_QUBITS, root)
    assert str(raised.value) == (
        f"no random state with mutual information above min-mi {min_mi} in {max_rejected} draws; the draws are "
        f"full-rank random two-qubit states, and the largest mutual information drawn was {largest!r}"
    )


def stack_sizes(monkeypatch, trials, min_mi, seed) -> list[int]:
    """The size of each stack of draws that a search's random inputs take."""
    drawn = []
    draw = experiments.random_density_matrices

    def recording(dim, rank, sources):
        drawn.append(len(sources))
        return draw(dim, rank, sources)

    monkeypatch.setattr(experiments, "random_density_matrices", recording)
    try:
        experiments._random_states(trials, min_mi, arrow.TWO_QUBITS, RandomSource(seed))
    except ValueError:
        pass
    return drawn


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_searches_draw_one_stack_of_one_draw_per_trial(monkeypatch, seed):
    assert stack_sizes(monkeypatch, 2, 0.01, seed) == [2]


def test_stacks_double_after_a_rejection(monkeypatch):
    # every draw is rejected: 1 + 2 + 4 + 8 draws, then a stack of 16 that
    # holds the 20th rejection
    monkeypatch.setattr(experiments, "MAX_REJECTED_DRAWS", 20)
    assert stack_sizes(monkeypatch, 1, 1.3, 0) == [1, 2, 4, 8, 16]
    sizes = stack_sizes(monkeypatch, 3, 0.5, 0)
    assert len(sizes) > 1 and sizes == [3 * 2**k for k in range(len(sizes))]


def test_exhausted_draws_exit_1_with_one_line_before_any_search(monkeypatch, capsys):
    # trial 0 accepts its first draw; trial 1 rejects every draw it may make
    informations = iter([0.5] + [0.0] * 3)
    monkeypatch.setattr(experiments, "MAX_REJECTED_DRAWS", 3)
    monkeypatch.setattr(experiments, "mutual_informations", lambda m, spectra, layout: np.array([next(informations, 0.0) for _ in m]))

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

    def warning(*args):
        warnings.warn(f"{arrow.NO_DECREASE_WARNING} for 1 of 2 states", UserWarning)
        warnings.warn("a numerical defect", RuntimeWarning)
        return search(*args)

    monkeypatch.setattr(experiments.arrow, "search_entropy_decreasing_unitaries", warning)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        experiments.run_search(2, 2, 1, 0.01, 0, "random", 0.1)
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "a numerical defect")]


@pytest.mark.parametrize("demo", ["random", "near-product"])
def test_three_trials_print_the_first_three_rows_of_the_default_twenty(capsys, demo):
    # the tier-1 twin of CI's console-script check: a trial's search does
    # not depend on the stack it shares
    def rows(argv):
        assert main(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]

    three = rows(["search", "--demo", demo, "--trials", "3"])
    assert len(three) == 4
    assert three == rows(["search", "--demo", demo])[:4]


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
    results = [search([rho], layout, RandomSource(k)) for k, rho in enumerate(states)]
    assert all(probe.converged for result in results for probe in result.probes[0])
    assert sum(result.best_restarts[0] > 0 for result in results) >= 3
