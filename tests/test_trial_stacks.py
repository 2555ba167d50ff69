"""Trial-stacked experiments against their per-trial references.

The five experiments whose trials run as stacks (balance, schrodinger,
crooks, jarzynski, heatflow) must give the rows of the per-trial loops in
``oracles.py`` bit for bit, whatever the chunking, and a stacked validation
must raise what the first failing trial raises on its own.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from arrowlab import core, experiments
from arrowlab.core import BipartitionLayout, RandomSource

SEEDS = range(5)
DIMS = [(2, 2), (2, 3), (3, 3), (4, 4)]
DIM_IDS = [f"{a}x{b}" for a, b in DIMS]


def exact(rows):
    """Rows as reprs: equal only if every cell has the same type and bits."""
    return [tuple(map(repr, row)) for row in rows]


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The chunk lengths of each trial_chunks call the experiments make."""
    sizes = []

    def recording(trials, entries_per_trial):
        chunks = core.trial_chunks(trials, entries_per_trial)
        sizes.append([len(chunk) for chunk in chunks])
        return chunks

    monkeypatch.setattr(experiments, "trial_chunks", recording)
    return sizes


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_balance_and_schrodinger_match_per_trial_loops(dims, seed):
    rows, _ = experiments.run_balance(12, *dims, seed)
    assert exact(rows) == exact(oracles.balance_rows(12, *dims, RandomSource(seed)))
    rows, _ = experiments.run_schrodinger(12, *dims, seed)
    assert exact(rows) == exact(oracles.schrodinger_rows(12, *dims, RandomSource(seed)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_crooks_and_jarzynski_match_per_trial_loops(monkeypatch, chunk_sizes, dims, seed):
    # a trial takes d^2 entries, so chunks hold 16 trials and 18 trials
    # cross a chunk boundary at every dimension
    layout = BipartitionLayout(*dims)
    monkeypatch.setattr(core, "STACK_ENTRIES", 16 * layout.dim**2)
    rows, _ = experiments.run_crooks(18, 1.0, *dims, seed)
    assert exact(rows) == exact(oracles.crooks_rows(18, 1.0, layout, RandomSource(seed)))
    rows, _ = experiments.run_jarzynski(18, 1.0, *dims, seed)
    assert exact(rows) == exact(oracles.jarzynski_rows(18, 1.0, layout, RandomSource(seed)))
    assert chunk_sizes == [[16, 2], [16, 2]]


@pytest.mark.parametrize("seed", SEEDS)
def test_heatflow_matches_per_trial_loop(seed):
    rows, _ = experiments.run_heatflow(30, seed)
    assert exact(rows) == exact(oracles.heatflow_rows(30, RandomSource(seed)))


def test_balance_at_16x16_keeps_each_trial_on_its_own_stream():
    # one 256 x 256 trial per chunk: trial k still draws from root.child(k)
    assert [len(chunk) for chunk in core.trial_chunks(3, 256**2)] == [1, 1, 1]
    rows, _ = experiments.run_balance(3, 16, 16, 7)
    assert exact(rows) == exact(oracles.balance_rows(3, 16, 16, RandomSource(7)))


@pytest.mark.parametrize(
    "run, entries",
    [
        (lambda: experiments.run_balance(10, 2, 2, 3), 4**2),
        (lambda: experiments.run_schrodinger(10, 2, 2, 3), 4**2),
        (lambda: experiments.run_crooks(10, 1.0, 2, 2, 3), 4**2),
        (lambda: experiments.run_jarzynski(10, 1.0, 2, 2, 3), 4**2),
        (lambda: experiments.run_heatflow(10, 3), 4**2),
    ],
    ids=["balance", "schrodinger", "crooks", "jarzynski", "heatflow"],
)
def test_rows_do_not_depend_on_the_chunk_size(monkeypatch, chunk_sizes, run, entries):
    whole, _ = run()
    monkeypatch.setattr(core, "STACK_ENTRIES", 3 * entries)
    assert exact(run()[0]) == exact(whole)
    # the experiment itself sizes a trial at ``entries``
    assert chunk_sizes == [[10], [3, 3, 3, 1]]


def test_balance_at_16x16_allocates_no_more_than_one_trial_at_a_time():
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stacked = peak(lambda: experiments.run_balance(3, 16, 16, 0))
    per_trial = peak(lambda: oracles.balance_rows(3, 16, 16, RandomSource(0)))
    assert stacked <= 1.25 * per_trial


def test_chunk_sizes_cover_every_trial_once():
    for trials, entries in [(1, 16), (100, 16), (25, 4096), (10, 65536), (7, 10**6)]:
        chunks = core.trial_chunks(trials, entries)
        assert [k for chunk in chunks for k in chunk] == list(range(trials))
        assert all(len(chunk) * entries <= core.STACK_ENTRIES or len(chunk) == 1 for chunk in chunks)


class TestFirstFailure:
    def test_stacked_validation_names_the_first_failing_trial(self):
        good = np.eye(2, dtype=complex) / 2
        negative = np.diag([1.5, -0.5]).astype(complex)
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
            core.validate_states(np.stack([good, negative, skew]))
        with pytest.raises(ValueError, match="not Hermitian"):
            core.validate_states(np.stack([good, skew, negative]))

    def test_failing_chunk_reruns_its_trials_one_at_a_time(self):
        # stacked, trial 3's error is found first; on its own, trial 1 fails first
        def run_chunk(chunk):
            if 3 in chunk:
                raise ValueError("trial 3")
            if 1 in chunk:
                raise ValueError("trial 1")
            return [(k,) for k in chunk]

        with pytest.raises(ValueError, match="trial 1"):
            experiments._by_chunks(5, 16, run_chunk)
        assert experiments._by_chunks(1, 16, run_chunk) == [(0,)]
