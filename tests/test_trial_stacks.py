"""Trial-stacked experiments against their per-trial references.

The five experiments whose trials run as stacks (balance, schrodinger,
crooks, jarzynski, heatflow) must give the rows of the per-trial loops in
``oracles.py`` bit for bit, whatever the chunking, and a stacked validation
must raise what the first failing trial raises on its own.  So must the
paths restacked from single-state helpers: collide's trajectory in both
modes and its reversal distances, damping's heats, the sweep's sums and the
near-product and decorrelate reports, each compared as int64 bit patterns
with the single-state forms kept in ``oracles.py``.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from arrowlab import arrow, collisions, core, experiments, fluctuation
from arrowlab.core import BipartitionLayout, DensityOperator, RandomSource

SEEDS = range(5)
DIMS = [(2, 2), (2, 3), (3, 3), (4, 4)]
DIM_IDS = [f"{a}x{b}" for a, b in DIMS]


def exact(rows):
    """Rows as reprs: equal only if every cell has the same type and bits."""
    return [tuple(map(repr, row)) for row in rows]


def balance(trials, dim_s, dim_r, seed):
    """The rows of the balance record."""
    return oracles.rows("balance", experiments.run_balance(trials, dim_s, dim_r, seed)[0])


def schrodinger(trials, dim_s, dim_r, seed):
    """The rows of the schrodinger record, which runs balance's trials."""
    columns, _ = experiments.EXPERIMENTS["schrodinger"].run({"trials": trials, "dims": (dim_s, dim_r), "seed": seed})
    return oracles.rows("schrodinger", columns)


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The chunk lengths of each trial_chunks call the experiments make."""
    sizes = []

    def recording(trials, entries_per_trial, least=1):
        chunks = core.trial_chunks(trials, entries_per_trial, least)
        sizes.append([len(chunk) for chunk in chunks])
        return chunks

    monkeypatch.setattr(experiments, "trial_chunks", recording)
    return sizes


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_balance_and_schrodinger_match_per_trial_loops(dims, seed):
    rows = balance(12, *dims, seed)
    assert exact(rows) == exact(oracles.balance_rows(12, *dims, RandomSource(seed)))
    rows = schrodinger(12, *dims, seed)
    assert exact(rows) == exact(oracles.schrodinger_rows(12, *dims, RandomSource(seed)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_crooks_and_jarzynski_match_per_trial_loops(monkeypatch, chunk_sizes, dims, seed):
    # a trial takes d^2 entries, so chunks hold 16 trials and 18 trials
    # cross a chunk boundary at every dimension
    layout = BipartitionLayout(*dims)
    monkeypatch.setattr(core, "STACK_ENTRIES", 16 * layout.dim**2)
    rows = oracles.rows("crooks", experiments.run_crooks(18, 1.0, *dims, seed)[0])
    assert exact(rows) == exact(oracles.crooks_rows(18, 1.0, layout, RandomSource(seed)))
    rows = oracles.rows("jarzynski", experiments.run_jarzynski(18, 1.0, *dims, seed)[0])
    assert exact(rows) == exact(oracles.jarzynski_rows(18, 1.0, layout, RandomSource(seed)))
    assert chunk_sizes == [[16, 2], [16, 2]]


@pytest.mark.parametrize("seed", SEEDS)
def test_heatflow_matches_per_trial_loop(seed):
    rows = oracles.rows("heatflow", experiments.run_heatflow(30, seed)[0])
    assert exact(rows) == exact(oracles.heatflow_rows(30, RandomSource(seed)))


def test_balance_at_16x16_keeps_each_trial_on_its_own_stream():
    # one 256 x 256 trial per chunk: trial k still draws from root.child(k)
    assert [len(chunk) for chunk in core.trial_chunks(3, 256**2)] == [1, 1, 1]
    rows = balance(3, 16, 16, 7)
    assert exact(rows) == exact(oracles.balance_rows(3, 16, 16, RandomSource(7)))


def close(rows, expected, tol):
    """Rows equal cell by cell: text exactly, numbers within ``tol``."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        for cell, cell_want in zip(row, want):
            if isinstance(cell, str):
                assert cell == cell_want
            else:
                assert abs(cell - cell_want) <= tol, (row, want)


# the eigvalsh of the product and of its marginals, the path that the factor
# spectra replace: rows agree with it to roundoff
PRODUCT_PATH_TOL = 1e-12


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", [*DIMS, (16, 16)], ids=[*DIM_IDS, "16x16"])
def test_balance_rows_agree_with_the_decomposed_product(dims, seed):
    trials = 2 if dims == (16, 16) else 12
    root = RandomSource(seed)
    rows = balance(trials, *dims, seed)
    close(rows, oracles.balance_rows(trials, *dims, root, from_factors=False), PRODUCT_PATH_TOL)
    rows = schrodinger(trials, *dims, seed)
    close(rows, oracles.schrodinger_rows(trials, *dims, root, from_factors=False), PRODUCT_PATH_TOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_heatflow_rows_agree_with_the_decomposed_product(seed):
    rows = oracles.rows("heatflow", experiments.run_heatflow(30, seed)[0])
    close(rows, oracles.heatflow_rows(30, RandomSource(seed), from_factors=False), PRODUCT_PATH_TOL)


def test_balance_at_16x16_decomposes_one_joint_state_per_trial(monkeypatch, no_helpers):
    eig_dims, states = [], []

    def counting(fn, record):
        def wrapper(m, *args, **kwargs):
            record.append(m)
            return fn(m, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh, eig_dims))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, eig_dims))
    monkeypatch.setattr(core.DensityOperator, "__post_init__", counting(core.DensityOperator.__post_init__, states))
    experiments.run_balance(3, 16, 16, 0)
    # one trial per chunk, five calls per trial: rho_S, rho_R, the two final
    # marginals and the final state; the product is neither validated nor
    # decomposed
    assert [m.shape[-1] for m in eig_dims] == [16, 16, 16, 16, 256] * 3
    assert states == []


@pytest.mark.parametrize(
    "run, entries",
    [
        (lambda: balance(10, 2, 2, 3), 4**2),
        (lambda: schrodinger(10, 2, 2, 3), 4**2),
        (lambda: oracles.rows("crooks", experiments.run_crooks(10, 1.0, 2, 2, 3)[0]), 4**2),
        (lambda: oracles.rows("jarzynski", experiments.run_jarzynski(10, 1.0, 2, 2, 3)[0]), 4**2),
        (lambda: oracles.rows("heatflow", experiments.run_heatflow(10, 3)[0]), 4**2),
    ],
    ids=["balance", "schrodinger", "crooks", "jarzynski", "heatflow"],
)
def test_rows_do_not_depend_on_the_chunk_size(monkeypatch, chunk_sizes, run, entries):
    whole = run()
    monkeypatch.setattr(core, "STACK_ENTRIES", 3 * entries)
    assert exact(run()) == exact(whole)
    # the experiment itself sizes a trial at ``entries``
    assert chunk_sizes == [[10], [3, 3, 3, 1]]


def test_balance_at_16x16_allocates_no_more_than_one_trial_at_a_time(no_helpers):
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


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_balance_at_16x16_allocates_less_than_with_the_product_built(no_helpers):
    # the product path holds the 256 x 256 product next to the evolved state
    root = RandomSource(0)
    built = traced_peak(lambda: oracles.balance_rows(3, 16, 16, root, from_factors=False))
    assert traced_peak(lambda: experiments.run_balance(3, 16, 16, 0)) < built


@pytest.mark.parametrize("dims", [(2, 3), (16, 16)], ids=["2x3", "16x16"])
def test_balance_and_schrodinger_build_no_product(monkeypatch, dims):
    kron = np.kron

    def refused(a, b):
        raise AssertionError("a product input was built")

    monkeypatch.setattr(np, "kron", refused)
    trials = 1 if dims == (16, 16) else 4
    assert len(balance(trials, *dims, 0)) == trials
    assert len(schrodinger(trials, *dims, 0)) == trials

    # heatflow takes its initial energies from the Gibbs factors; its only
    # Kronecker products embed the local Hamiltonians, h (x) I and I (x) h
    def embedding_only(a, b):
        if not any(np.array_equal(factor, np.eye(2)) for factor in (a, b)):
            raise AssertionError("a product input was built")
        return kron(a, b)

    monkeypatch.setattr(np, "kron", embedding_only)
    assert len(oracles.rows("heatflow", experiments.run_heatflow(2, 0)[0])) == 2


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

    @pytest.mark.parametrize("factor", ["S", "R"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([1.5, -0.5]).astype(complex), "negative eigenvalue -5.000e-01"),
            (np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex), "not Hermitian"),
        ],
        ids=["non-PSD", "non-Hermitian"],
    )
    def test_product_input_names_its_first_failing_trial(self, factor, bad, message):
        # trial 1 has a bad factor, trial 2 a bad factor and a non-unitary U,
        # trial 3 a non-unitary U alone: within a trial the factors are
        # checked before U, and a stack raises its first failing trial's error
        good = np.eye(2, dtype=complex) / 2
        factors, goods = np.stack([good, bad, bad, good]), np.stack([good] * 4)
        rho_s, rho_r = (factors, goods) if factor == "S" else (goods, factors)
        u = np.stack([np.eye(4), np.eye(4), 2.0 * np.eye(4), 2.0 * np.eye(4)]).astype(complex)
        for trials, expected in [([0, 1, 2, 3], message), ([2, 3], message), ([3], "not unitary"), ([3, 1], "not unitary")]:
            with pytest.raises(ValueError, match=expected):
                arrow.product_balances(rho_s[trials], rho_r[trials], arrow.TWO_QUBITS, u[trials])

    def test_failing_chunk_reruns_its_trials_one_at_a_time(self):
        # stacked, trial 3's error is found first; on its own, trial 1 fails first
        def run_chunk(chunk):
            if 3 in chunk:
                raise ValueError("trial 3")
            if 1 in chunk:
                raise ValueError("trial 1")
            return {"trial": np.array(chunk)}

        with pytest.raises(ValueError, match="trial 1"):
            experiments._by_chunks(5, 4, run_chunk)
        assert experiments._by_chunks(1, 4, run_chunk)["trial"].tolist() == [0]


# ---------------------------------------------------------------------------
# paths restacked from single-state helpers
# ---------------------------------------------------------------------------

def bits(values) -> np.ndarray:
    """Float values, or the real and imaginary parts of complex ones, as
    int64 bit patterns: equal only if every bit is."""
    a = np.asarray(values)
    return (a.view(float) if a.dtype == complex else a.astype(float)).view(np.int64)


def assert_same_bits(got, expected):
    assert np.array_equal(bits(got), bits(expected))


XI = core.gibbs_state(core.Hamiltonian(np.diag([0.0, 1.0]).astype(complex)), experiments.LN3)


def initial_state(init: str, seed: int) -> DensityOperator:
    if init == "excited":
        return core.pure_state([0.0, 1.0])
    return core.random_density_operator(2, 2, RandomSource(seed).child(0))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("theta", [math.pi / 4, 0.3, 1e-3])
@pytest.mark.parametrize("init", ["excited", "random"])
@pytest.mark.parametrize("mode", ["reduced", "joint"])
def test_trajectory_matches_single_state_steps(mode, init, theta, seed):
    count = 11 if mode == "reduced" else 6
    rho0, gate = initial_state(init, seed), collisions.partial_swap_unitary(theta)
    spec = collisions.ReservoirSpec(ancilla_state=XI, count=count)
    if mode == "reduced":
        record = collisions.run_collisions(rho0, spec, gate)
    else:
        record, _ = collisions.run_collisions_joint(rho0, spec, gate)
    states, entropies, distances = oracles.collision_trajectory(rho0.matrix, XI.matrix, gate.matrix, count, joint=mode == "joint")
    assert record.states.shape == (count + 1, 2, 2)
    assert_same_bits(record.states, states)
    assert_same_bits(record.entropies, entropies)
    assert_same_bits(record.distances_to_ancilla, distances)


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("init", ["excited", "random"])
def test_collide_distances_match_single_state_distances(count, init):
    _, extra = experiments.run_collide(count, 0.3, experiments.LN3, 1, mode="joint", init=init)
    rho0, gate = initial_state(init, 1), collisions.partial_swap_unitary(0.3)
    spec = collisions.ReservoirSpec(ancilla_state=XI, count=count)
    record, joint_final = collisions.run_collisions_joint(rho0, spec, gate)
    recursion = collisions.run_collisions(rho0, spec, gate)
    deviation = max(map(oracles.trace_distance, record.states, recursion.states))
    assert_same_bits(extra["trajectory_deviation"], deviation)
    recovered = collisions.reverse_collisions(joint_final, gate)
    assert_same_bits(extra["recovered_trace_distance"], oracles.trace_distance(recovered, rho0.matrix))
    if count >= 2:
        shuffled = collisions.reverse_collisions(joint_final, gate, order=extra["shuffled_order"])
        assert_same_bits(extra["shuffled_trace_distance"], oracles.trace_distance(shuffled, rho0.matrix))


def test_trajectory_raises_what_its_first_failing_step_raises(monkeypatch):
    rho0, gate = initial_state("random", 0), collisions.partial_swap_unitary(0.3)
    spec = collisions.ReservoirSpec(ancilla_state=XI, count=4)
    negative = np.diag([1.5, -0.5]).astype(complex)
    skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    traces = collisions.partial_traces
    for steps, message in [((skew, negative), "not Hermitian"), ((negative, skew), "negative eigenvalue")]:
        calls = []

        def bad_at_steps_2_and_3(m, dim_s, dim_r, keep, steps=steps):
            calls.append(None)
            return steps[len(calls) - 2][None] if len(calls) in (2, 3) else traces(m, dim_s, dim_r, keep)

        monkeypatch.setattr(collisions, "partial_traces", bad_at_steps_2_and_3)
        with pytest.raises(ValueError, match=message):
            collisions.run_collisions(rho0, spec, gate)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("beta", [5e-324, 1.0, experiments.LN3, 800.0])
def test_damping_heats_match_single_state_heats(beta, seed):
    rows = oracles.rows("damping", experiments.run_damping(12, beta, seed)[0])
    expected = oracles.damping_rows(12, beta, RandomSource(seed))
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    assert_same_bits([row[2] for row in rows], [row[2] for row in expected])


def test_damping_validates_its_stack_once(monkeypatch):
    calls = {"validate": 0, "state": 0}
    validate, post_init = fluctuation.validate_states, DensityOperator.__post_init__

    def counting_validate(m):
        calls["validate"] += 1
        return validate(m)

    def counting_state(self):
        calls["state"] += 1
        post_init(self)

    monkeypatch.setattr(fluctuation, "validate_states", counting_validate)
    monkeypatch.setattr(DensityOperator, "__post_init__", counting_state)
    rows = oracles.rows("damping", experiments.run_damping(10, 1.0, 0)[0])
    assert len(rows) == 13
    assert calls == {"validate": 1, "state": 0}


@pytest.mark.parametrize(
    "grid",
    [
        ((0.0, 0.25, 0.5, 1.0, 2.0), (0.0, 0.25, 0.5), (0.5, 1.0, 2.0, 4.0), 1.0, 1.5),
        ((0.0, 1e3), (0.0, 1.0), (0.5, 1.0, 2.0, 4.0), 1.0, 1.5),
        ((-3.0, 0.0, 0.5), (1.0, 0.0), (0.0, 1e3, -2.0), -0.1, 1.5),
    ],
    ids=["defaults", "edges", "negative"],
)
def test_sweep_sums_match_single_cells(grid):
    rows = oracles.rows("sweep", experiments.run_sweep(*grid)[0])
    assert_same_bits([row[-1] for row in rows], oracles.sweep_sums(*grid).ravel())


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5, 1.0])
def test_near_product_report_matches_single_state_balance(epsilon):
    (row,) = oracles.rows("near-product", experiments.run_near_product(epsilon)[0])
    assert_same_bits(row, oracles.near_product_row(epsilon))


def test_decorrelate_report_matches_single_state_balance():
    (row,) = oracles.rows("decorrelate", experiments.run_decorrelate()[0])
    assert_same_bits(row, oracles.decorrelate_row())
