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

from arrowlab.core import RandomSource, draw_streams, gaussian_matrices, pcg64_states
from arrowlab.experiments import run_balance

EDGE_SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)


def numpy_state(source: RandomSource) -> tuple[int, int]:
    state = np.random.PCG64(np.random.SeedSequence(source.seed, spawn_key=source.key)).state["state"]
    return state["state"], state["inc"]


def assert_matches_numpy(sources):
    assert pcg64_states(sources) == [numpy_state(s) for s in sources]


def random_keys(rng: random.Random, count: int, max_len: int = 3):
    entries = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
    return [
        tuple(rng.choice((rng.randrange(2**16), rng.randrange(2**32), rng.randrange(2**70), rng.choice(entries)))
              for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


class TestDerivationMatchesNumpy:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_random_keys_of_length_0_to_3(self, seed):
        keys = random_keys(random.Random(seed % 1000), 60)
        assert {len(k) for k in keys} == {0, 1, 2, 3}
        assert_matches_numpy([RandomSource(seed, k) for k in keys])

    @pytest.mark.parametrize("index", [2**32, 2**32 + 7, 2**64 - 1, 2**64, 3 * 2**96 + 1])
    def test_child_indices_of_more_than_one_word(self, index):
        root = RandomSource(5)
        assert_matches_numpy([root.child(index), root.child(3).child(index), root.child(index).child(0)])

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds_with_and_without_a_key(self, seed):
        root = RandomSource(seed)
        assert_matches_numpy([root, root.child(0), root.child(1).child(2), root.child(2**32 - 1)])

    def test_one_stack_mixing_key_lengths_and_seeds_keeps_its_order(self):
        sources = [RandomSource(seed, key) for seed in (3, 2**40) for key in random_keys(random.Random(seed), 25)]
        random.Random(0).shuffle(sources)
        assert_matches_numpy(sources)

    def test_empty_stack(self):
        assert pcg64_states([]) == []
        assert draw_streams([], lambda g: g.random()) == []
        assert gaussian_matrices([], 2, 3).shape == (0, 2, 3)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        keys=st.lists(st.lists(st.integers(0, 2**80), max_size=3).map(tuple), max_size=6),
    )
    def test_any_seed_and_keys(self, seed, keys):
        assert_matches_numpy([RandomSource(seed, k) for k in keys])


class TestDraws:
    def test_gaussian_matrices_match_fresh_generators_bit_for_bit(self):
        sources = [RandomSource(11, key) for key in random_keys(random.Random(2), 40)]
        expected = []
        for source in sources:
            g = source.generator()
            x = g.standard_normal((3, 2))
            expected.append(x + 1j * g.standard_normal((3, 2)))
        assert np.array_equal(gaussian_matrices(sources, 3, 2), np.array(expected))

    def test_each_stream_starts_fresh_after_mixed_draws(self):
        # integers(2) leaves half a 64-bit output buffered in the bit generator
        def draw(g):
            return g.uniform(0.2, 1.0), int(g.integers(2)), int(g.integers(2)), g.uniform(), g.standard_normal()

        sources = [RandomSource(0).child(k) for k in range(30)]
        assert draw_streams(sources, draw) == [draw(s.generator()) for s in sources]

    def test_a_stack_builds_no_seed_sequence(self, monkeypatch):
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
        run_balance(100, 2, 2, 0)
        assert built == []

    def test_concurrent_stacks_get_the_serial_result(self):
        # more threads than cores, switching as often as the interpreter allows
        sources = [[RandomSource(seed).child(k) for k in range(150)] for seed in range(4)]
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
            RandomSource(0, (3, -2))
