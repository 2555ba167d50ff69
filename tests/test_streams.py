"""The stacked stream derivation against numpy's own SeedSequence -> PCG64.

``core.pcg64_states`` re-implements numpy's seeding arithmetic, so these
tests pin it to numpy: a numpy release that changed the arithmetic would
fail here before it moved a row.
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab import experiments
from arrowlab.core import RandomSource, draw_streams, gaussian_matrices, pcg64_states

EDGE_SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)
MULTI_WORD = (2**32, 2**32 + 7, 2**64 - 1, 2**64, 3 * 2**96 + 1)


def numpy_generator(seed: int, key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))


def numpy_states(sources: RandomSource) -> list[tuple[int, int]]:
    states = [numpy_generator(sources.seed, key).bit_generator.state["state"] for key in sources.keys.tolist()]
    return [(state["state"], state["inc"]) for state in states]


def assert_matches_numpy(sources: RandomSource):
    assert pcg64_states(sources) == numpy_states(sources)


def random_keys(rng: random.Random, count: int, max_len: int = 3):
    entries = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
    return [
        tuple(rng.choice((rng.randrange(2**16), rng.randrange(2**32), rng.randrange(2**70), rng.choice(entries)))
              for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


def stacks_by_length(seed: int, keys) -> list[RandomSource]:
    """One stack per key length, each in the keys' order."""
    return [RandomSource(seed, [k for k in keys if len(k) == m]) for m in sorted({len(k) for k in keys})]


class TestDerivationMatchesNumpy:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_random_keys_of_length_0_to_3(self, seed):
        keys = random_keys(random.Random(seed % 1000), 60)
        assert {len(k) for k in keys} == {0, 1, 2, 3}
        for sources in stacks_by_length(seed, keys):
            assert_matches_numpy(sources)

    @pytest.mark.parametrize("index", MULTI_WORD)
    def test_child_indices_of_more_than_one_word(self, index):
        root = RandomSource(5)
        for sources in (
            root.child(index),
            root.child(3).child(index),
            root.child(index).child(0),
            root.children([0, index, 2**32 - 1, index + 1]),
            root.children(range(3)).child(index).children([0, index]),
        ):
            assert_matches_numpy(sources)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds_with_and_without_a_key(self, seed):
        root = RandomSource(seed)
        for sources in (root, root.child(0), root.child(1).child(2), root.child(2**32 - 1)):
            assert_matches_numpy(sources)
        assert_matches_numpy(root.children([0, 1, 2**32 - 1]).child(2))

    @pytest.mark.parametrize("seed", (3, 2**40))
    def test_one_stack_mixing_word_counts_keeps_its_order(self, seed):
        # rows of one, two and four words per entry, shuffled in one stack
        rng = random.Random(seed)
        keys = [(rng.choice((rng.randrange(2**32), rng.randrange(2**64), rng.randrange(2**128))), rng.randrange(2**40)) for _ in range(50)]
        rng.shuffle(keys)
        assert_matches_numpy(RandomSource(seed, keys))

    def test_empty_stack(self):
        for empty in (RandomSource(0, []), RandomSource(0).children([]), RandomSource(0).children(range(0)).child(5)):
            assert len(empty) == 0
            assert pcg64_states(empty) == []
            assert draw_streams(empty, lambda g: g.random()) == []
            assert gaussian_matrices(empty, 2, 3).shape == (0, 2, 3)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        keys=st.integers(0, 3).flatmap(
            lambda m: st.lists(st.lists(st.integers(0, 2**80), min_size=m, max_size=m).map(tuple), max_size=6)
        ),
    )
    def test_any_seed_and_keys(self, seed, keys):
        assert_matches_numpy(RandomSource(seed, keys))


class TestStacks:
    def test_children_append_one_column_per_row_in_order(self):
        stack = RandomSource(7).children([4, 2]).children(range(3))
        assert stack.keys.tolist() == [[4, 0], [4, 1], [4, 2], [2, 0], [2, 1], [2, 2]]
        assert stack.child(9).keys.tolist() == [key + [9] for key in stack.keys.tolist()]
        assert RandomSource(7).child(4).child(1).keys.tolist() == [[4, 1]]

    def test_keys_are_read_only_copies(self):
        keys = np.array([[1, 2]], dtype=np.uint32)
        stack = RandomSource(0, keys)
        keys[0, 0] = 9
        assert stack.keys.tolist() == [[1, 2]]
        with pytest.raises(ValueError):
            stack.keys[0, 0] = 9

    def test_a_stack_has_no_single_generator(self):
        assert len(RandomSource(0)) == 1
        with pytest.raises(ValueError, match="a stack of 2 sources has no single generator"):
            RandomSource(0).children(range(2)).generator()

    def test_keys_of_a_stack_have_one_length(self):
        with pytest.raises(ValueError, match="same length"):
            RandomSource(0, [(1,), (1, 2)])


class TestDraws:
    def test_gaussian_matrices_match_fresh_generators_bit_for_bit(self):
        for sources in stacks_by_length(11, random_keys(random.Random(2), 40)):
            expected = []
            for key in sources.keys.tolist():
                g = numpy_generator(11, key)
                x = g.standard_normal((3, 2))
                expected.append(x + 1j * g.standard_normal((3, 2)))
            assert np.array_equal(gaussian_matrices(sources, 3, 2), np.array(expected).reshape(-1, 3, 2))

    def test_each_stream_starts_fresh_after_mixed_draws(self):
        # integers(2) leaves half a 64-bit output buffered in the bit generator
        def draw(g):
            return g.uniform(0.2, 1.0), int(g.integers(2)), int(g.integers(2)), g.uniform(), g.standard_normal()

        sources = RandomSource(0).children(range(30))
        assert draw_streams(sources, draw) == [draw(RandomSource(0).child(k).generator()) for k in range(30)]

    STACKED_RUNS = {
        "balance": lambda trials: experiments.run_balance(trials, 2, 2, 0),
        "schrodinger": lambda trials: experiments.run_schrodinger(trials, 2, 3, 0),
        "crooks": lambda trials: experiments.run_crooks(trials, 1.0, 2, 2, 0),
        "jarzynski": lambda trials: experiments.run_jarzynski(trials, 1.0, 2, 2, 0),
        "heatflow": lambda trials: experiments.run_heatflow(trials, 0),
        "damping": lambda trials: experiments.run_damping(trials, 1.0, 0),
    }

    @pytest.mark.parametrize("run", STACKED_RUNS.values(), ids=STACKED_RUNS.keys())
    def test_a_stack_builds_no_seed_sequence(self, monkeypatch, run):
        built = []

        def counting(cls):
            class Counting(cls):
                def __init__(self, *args, **kwargs):
                    built.append(cls.__name__)
                    super().__init__(*args, **kwargs)

            return Counting

        monkeypatch.setattr(np.random, "SeedSequence", counting(np.random.SeedSequence))
        monkeypatch.setattr(np.random, "PCG64", counting(np.random.PCG64))
        RandomSource(0).generator()
        assert built == ["SeedSequence", "PCG64"]
        built.clear()
        run(100)
        assert built == []

    @pytest.mark.parametrize("run", STACKED_RUNS.values(), ids=STACKED_RUNS.keys())
    def test_a_stack_builds_a_constant_number_of_sources(self, monkeypatch, run):
        # the root, its children, and at most one child per stream drawn
        built = []
        init = RandomSource.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RandomSource, "__init__", counting)
        counts = []
        for trials in (10, 100):
            built.clear()
            run(trials)
            counts.append(len(built))
        assert counts[0] == counts[1] <= 5

    def test_concurrent_stacks_get_the_serial_result(self):
        # more threads than cores, switching as often as the interpreter allows
        sources = [RandomSource(seed).children(range(150)) for seed in range(4)]
        serial = [gaussian_matrices(s, 2, 2) for s in sources]
        results = [[] for _ in sources]

        def fill(i):
            for _ in range(20):
                results[i].append(gaussian_matrices(sources[i], 2, 2))

        threads = [threading.Thread(target=fill, args=(i,)) for i in range(len(sources))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for expected, got in zip(serial, results):
            assert len(got) == 20
            assert all(np.array_equal(r, expected) for r in got)


class TestKeyValidation:
    def test_negative_key_entries_are_rejected_as_numpy_rejects_them(self):
        with pytest.raises(ValueError, match="expected non-negative integer") as numpy_error:
            np.random.SeedSequence(0, spawn_key=(-1,))
        with pytest.raises(ValueError, match=str(numpy_error.value)):
            RandomSource(0).child(-1)
        with pytest.raises(ValueError, match=str(numpy_error.value)):
            RandomSource(0, [(3, -2)])
        with pytest.raises(ValueError, match=str(numpy_error.value)):
            RandomSource(0).children([1, -1])

    @pytest.mark.parametrize("bad", [1.5, -0.5, np.float64(2.0), "1", None], ids=repr)
    def test_non_integer_key_entries_are_rejected_as_numpy_rejects_them(self, bad):
        with pytest.raises(TypeError, match="seed must be integer") as numpy_error:
            np.random.SeedSequence(0, spawn_key=(1.5,))
        message = f"^{numpy_error.value}$"
        with pytest.raises(TypeError, match=message):
            RandomSource(0).child(bad)
        with pytest.raises(TypeError, match=message):
            RandomSource(0).children([0, bad])
        with pytest.raises(TypeError, match=message):
            RandomSource(0, [(3, bad)])

    @pytest.mark.parametrize("bad", [1.5, np.float64(3.0), "3"], ids=repr)
    def test_non_integer_seeds_are_rejected(self, bad):
        with pytest.raises(TypeError):
            np.random.SeedSequence(bad)
        with pytest.raises(TypeError, match="^seed must be integer$"):
            RandomSource(bad)

    def test_integer_types_give_the_int_streams(self):
        # numpy integers and bools are integers to SeedSequence too
        assert pcg64_states(RandomSource(np.uint64(5)).child(np.int64(3)).child(True)) == pcg64_states(
            RandomSource(5).child(3).child(1)
        )
        stack = RandomSource(5, np.array([[3], [2**33]], dtype=np.uint64))
        assert stack.keys.tolist() == [[3], [2**33]]
        assert_matches_numpy(stack)
