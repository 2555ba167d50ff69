"""Trial chunks run on the cores that a pinned BLAS leaves idle.

With BLAS pinned below the usable cores, ``experiments._by_chunks`` starts
helper threads that take chunks beside the calling thread, and cuts
chunks of at least NUMPY_GIL_THRESHOLD // D + 1 trials of D x D matrices,
so that numpy's stacked QR and eigvalsh let the threads overlap.  Here the
rule's inputs (the thread-count variables and ``os.sched_getaffinity``) are
set to give one or three helpers, and the rows must still be the per-trial
loops' of ``oracles.py`` bit for bit, the first failing trial must still
name the error, and an out-of-memory error on a helper must still reach
``cli.main``.  A run of one chunk starts no thread, a helper that cannot
start leaves the rows as they are, and no helper outlives its call.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from arrowlab import core, experiments
from arrowlab.cli import main
from arrowlab.core import BipartitionLayout, RandomSource

# how long a test waits for another thread before it fails
TIMEOUT = 30

# a matrix dimension whose one matrix passes NUMPY_GIL_THRESHOLD and
# overfills STACK_ENTRIES: one trial per chunk, with helpers or without
ONE_PER_CHUNK = 512


def timeless(out):
    """A run's output lines, without the one that holds its wall clock."""
    return [line for line in out.splitlines() if not line.startswith("# duration_seconds")]


def exact(rows):
    """Rows as reprs: equal only if every cell has the same type and bits."""
    return [tuple(map(repr, row)) for row in rows]


def pin(monkeypatch, cores, **settings):
    """``cores`` usable cores and only the given thread-count variables set."""
    for var in experiments.THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    for var, value in settings.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


@pytest.fixture(params=[1, 3], ids=["1-helper", "3-helpers"])
def helpers(request, monkeypatch):
    """BLAS pinned to one thread on h + 1 usable cores: h helpers."""
    pin(monkeypatch, request.param + 1, OPENBLAS_NUM_THREADS="1")
    return request.param


def chunk_threads():
    """The helper threads alive now."""
    return [thread for thread in threading.enumerate() if thread.name == "arrowlab-chunks"]


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "cores, settings, expected",
    [
        (2, {}, 0),
        (2, {"OPENBLAS_NUM_THREADS": "abc"}, 0),
        (2, {"OPENBLAS_NUM_THREADS": "0"}, 0),
        (2, {"OPENBLAS_NUM_THREADS": "-1"}, 0),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 0),
        (2, {"OMP_NUM_THREADS": "3"}, 0),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (4, {"MKL_NUM_THREADS": "1"}, 3),
        (4, {"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 3),
        # the largest setting is the BLAS thread count
        (4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
        (5, {"OPENBLAS_NUM_THREADS": "2"}, 1),
    ],
    ids=["unset", "abc", "zero", "negative", "b-equals-c", "b-above-c", "one-of-two", "mkl", "invalid-ignored", "largest", "floor"],
)
def test_one_helper_per_core_that_blas_leaves_idle(monkeypatch, cores, settings, expected):
    pin(monkeypatch, cores, **settings)
    assert experiments._helper_count(100) == expected


def test_helpers_are_capped_below_the_chunk_count(monkeypatch):
    pin(monkeypatch, 8, OPENBLAS_NUM_THREADS="1")
    assert [experiments._helper_count(chunks) for chunks in (1, 2, 3, 8, 9)] == [0, 1, 2, 7, 7]


def test_cores_fall_back_to_the_cpu_count(monkeypatch):
    pin(monkeypatch, 1, OPENBLAS_NUM_THREADS="1")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert experiments._helper_count(100) == 2


# ---------------------------------------------------------------------------
# chunks shared with helpers pass numpy's GIL threshold
# ---------------------------------------------------------------------------

def chunk_lengths(trials, dim):
    """The chunk lengths of one ``_by_chunks`` call over D x D trials, in
    trial order."""
    starts = {}

    def run_chunk(chunk):
        starts[chunk.start] = len(chunk)
        return {"trial": np.array(chunk)}

    assert experiments._by_chunks(trials, dim, run_chunk)["trial"].tolist() == list(range(trials))
    return [starts[start] for start in sorted(starts)]


@pytest.mark.parametrize(
    "dims, trials, expected",
    [
        # two trials per chunk would leave one chunk: one trial each, as alone
        ((16, 16), 2, [1, 1]),
        ((16, 16), 3, [2, 1]),
        ((16, 16), 10, [2] * 5),
        ((15, 16), 10, [3, 3, 3, 1]),
    ],
    ids=["16x16-2", "16x16-3", "16x16-10", "15x16-10"],
)
def test_chunks_shared_with_helpers_hold_more_than_the_threshold(helpers, dims, trials, expected):
    assert chunk_lengths(trials, dims[0] * dims[1]) == expected


def test_chunks_on_one_thread_keep_one_256_dim_trial_each(monkeypatch):
    pin(monkeypatch, 2)
    assert chunk_lengths(3, 256) == [1, 1, 1]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim_s=st.integers(2, 16), dim_r=st.integers(2, 16), trials=st.integers(1, 40))
def test_chunk_lengths_pass_the_threshold_or_keep_todays_sizes(helpers, dim_s, dim_r, trials):
    dim = dim_s * dim_r
    lengths = chunk_lengths(trials, dim)
    # the fewest trials whose stacked eigvalsh has more outputs than the threshold
    least = -(-(experiments.NUMPY_GIL_THRESHOLD + 1) // dim)
    if trials > least:
        assert all(length * dim > experiments.NUMPY_GIL_THRESHOLD for length in lengths[:-1])
    else:
        assert lengths == [len(chunk) for chunk in core.trial_chunks(trials, dim**2)]
    # STACK_ENTRIES, or the threshold where that takes more: at 12x12 a chunk
    # of STACK_ENTRIES holds 3 trials, 3 x 144 outputs, and one of 4 passes
    assert max(lengths) <= max(core.STACK_ENTRIES // dim**2, least)


# ---------------------------------------------------------------------------
# the helpers run chunks, and the rows do not change
# ---------------------------------------------------------------------------

def test_helpers_take_chunks_while_the_caller_runs_one(helpers):
    # each chunk waits until h + 1 chunks run at once, on h + 1 threads
    barrier = threading.Barrier(helpers + 1, timeout=TIMEOUT)

    def run_chunk(chunk):
        barrier.wait()
        return {"trial": np.array(chunk), "thread": np.array([threading.get_ident()])}

    # one trial per chunk
    columns = experiments._by_chunks(helpers + 1, ONE_PER_CHUNK, run_chunk)
    assert columns["trial"].tolist() == list(range(helpers + 1))
    assert len(set(columns["thread"].tolist())) == helpers + 1
    assert chunk_threads() == []


def test_every_chunk_runs_under_the_callers_errstate(helpers):
    barrier = threading.Barrier(helpers + 1, timeout=TIMEOUT)

    def run_chunk(chunk):
        barrier.wait()
        return {"divide": np.array([np.geterr()["divide"]])}

    with np.errstate(divide="raise"):
        columns = experiments._by_chunks(helpers + 1, ONE_PER_CHUNK, run_chunk)
    assert columns["divide"].tolist() == ["raise"] * (helpers + 1)


def test_balance_and_schrodinger_at_16x16_match_per_trial_loops(helpers):
    # two 256 x 256 trials per chunk, and one in the last
    rows = oracles.rows("balance", experiments.run_balance(5, 16, 16, 7)[0])
    assert exact(rows) == exact(oracles.balance_rows(5, 16, 16, RandomSource(7)))
    columns, _ = experiments.EXPERIMENTS["schrodinger"].run({"trials": 5, "dims": (16, 16), "seed": 7})
    assert exact(oracles.rows("schrodinger", columns)) == exact(oracles.schrodinger_rows(5, 16, 16, RandomSource(7)))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_balance_at_16x16_with_one_helper_allocates_two_trials_per_thread(monkeypatch):
    pin(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    stacked = traced_peak(lambda: experiments.run_balance(10, 16, 16, 0))
    per_trial = traced_peak(lambda: oracles.balance_rows(3, 16, 16, RandomSource(0)))
    assert stacked <= 1.25 * 2 * 2 * per_trial


@pytest.mark.parametrize("seed", range(3))
def test_crooks_jarzynski_and_heatflow_match_per_trial_loops(helpers, monkeypatch, seed):
    # four 2x2 trials per chunk: ten trials in three chunks
    monkeypatch.setattr(core, "STACK_ENTRIES", 4 * 16)
    assert [len(chunk) for chunk in core.trial_chunks(10, 16)] == [4, 4, 2]
    layout = BipartitionLayout(2, 2)
    rows = oracles.rows("crooks", experiments.run_crooks(10, 1.0, 2, 2, seed)[0])
    assert exact(rows) == exact(oracles.crooks_rows(10, 1.0, layout, RandomSource(seed)))
    rows = oracles.rows("jarzynski", experiments.run_jarzynski(10, 1.0, 2, 2, seed)[0])
    assert exact(rows) == exact(oracles.jarzynski_rows(10, 1.0, layout, RandomSource(seed)))
    rows = oracles.rows("heatflow", experiments.run_heatflow(10, seed)[0])
    assert exact(rows) == exact(oracles.heatflow_rows(10, RandomSource(seed)))


def test_many_small_chunks_on_more_threads_than_cores(monkeypatch):
    # seven helpers and the caller on this machine's cores, switching
    # threads as often as the interpreter allows: every chunk runs once
    # and its result lands at its own index
    pin(monkeypatch, 8, OPENBLAS_NUM_THREADS="1")
    runs = []

    def run_chunk(chunk):
        runs.append(chunk.start)
        return {"trial": np.array(chunk), "twice": 2 * np.array(chunk)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            runs.clear()
            # two 256 x 256 trials per chunk, shared with the helpers
            columns = experiments._by_chunks(300, 256, run_chunk)
            assert sorted(runs) == list(range(0, 300, 2))
            assert columns["trial"].tolist() == list(range(300))
            assert columns["twice"].tolist() == list(range(0, 600, 2))
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_first_failing_trial_names_the_error_when_a_later_chunk_fails_first(helpers, monkeypatch):
    # chunks [0, 1], [2, 3] and [4]: the chunk of trial 3 fails first in
    # time, while the chunk of trial 1 waits for it; trial 1's chunk is the
    # first failing chunk in trial order, and reruns its trials one at a time
    monkeypatch.setattr(core, "STACK_ENTRIES", 2 * 16)
    later_failed = threading.Event()
    ran = []

    def run_chunk(chunk):
        ran.append(list(chunk))
        if 3 in chunk:
            later_failed.set()
            raise ValueError("trial 3")
        if 1 in chunk and len(chunk) > 1:
            assert later_failed.wait(TIMEOUT)
            raise ValueError("a chunk holding trial 1")
        if 1 in chunk:
            raise ValueError("trial 1")
        return {"trial": np.array(chunk)}

    with pytest.raises(ValueError, match="^trial 1$"):
        experiments._by_chunks(5, 4, run_chunk)
    assert ran[-2:] == [[0], [1]]
    assert chunk_threads() == []


def test_out_of_memory_on_a_helper_exits_1_and_the_next_run_succeeds(helpers, monkeypatch, capsys):
    argv = ["balance", "--trials", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    # one 2x2 trial per chunk; the caller's chunks wait until a helper has
    # raised
    monkeypatch.setattr(core, "STACK_ENTRIES", 16)
    product_balances = experiments._product_balances
    helper_failed = threading.Event()

    def failing(layout, sources):
        if threading.current_thread() is threading.main_thread():
            assert helper_failed.wait(TIMEOUT)
            return product_balances(layout, sources)
        helper_failed.set()
        raise MemoryError

    monkeypatch.setattr(experiments, "_product_balances", failing)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "arrowlab: error: out of memory\n")
    assert chunk_threads() == []
    monkeypatch.setattr(experiments, "_product_balances", product_balances)
    assert main(argv) == 0
    out = capsys.readouterr().out
    # the rows and invariant lines of the run in one chunk
    assert timeless(out) == timeless(expected)


# ---------------------------------------------------------------------------
# one chunk stays on the calling thread
# ---------------------------------------------------------------------------

def test_a_run_of_one_chunk_starts_no_thread(helpers, capsys):
    before = threading.active_count()
    assert main(["balance"]) == 0
    assert threading.active_count() == before
    # two 256 x 256 trials are two chunks: one helper starts, and is joined
    assert main(["balance", "--dims", "16x16", "--trials", "2"]) == 0
    assert threading.active_count() == before


@pytest.mark.parametrize("trials, started", [(3, 0), (5, 1)], ids=["none-starts", "one-of-two-starts"])
def test_helpers_that_cannot_start_leave_the_rows_as_they_are(monkeypatch, capsys, trials, started):
    argv = ["balance", "--dims", "16x16", "--trials", str(trials)]
    pin(monkeypatch, 2)
    assert main(argv) == 0
    alone = timeless(capsys.readouterr().out)
    # three spare cores: the trials' two or three chunks want one or two
    # helpers, and only the first ``started`` of them start
    pin(monkeypatch, 4, OPENBLAS_NUM_THREADS="1")
    start = threading.Thread.start
    starts = []

    def start_or_fail(thread):
        if thread.name == "arrowlab-chunks":
            starts.append(thread)
            if len(starts) > started:
                raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_or_fail)
    assert main(argv) == 0
    assert len(starts) == started + 1
    assert timeless(capsys.readouterr().out) == alone
    assert chunk_threads() == []
