"""The stacked stream derivation against numpy's own SeedSequence -> PCG64.

``core.pcg64_words`` re-implements numpy's seeding arithmetic, so these
tests pin it to numpy: a numpy release that changed the arithmetic would
fail here before it moved a row.  The samplers write those words straight
into PCG64's state memory, in the layout a probe reads once per process;
the tests pin that write, and the dict-setter path taken where the probe
knows no layout, to fresh numpy generators bit for bit.
"""

import ctypes
import os
import random
import subprocess
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab import core, experiments
from arrowlab.core import RandomSource, draw_streams, gaussian_matrices, pcg64_words

EDGE_SEEDS = (0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)
MULTI_WORD = (2**32, 2**32 + 7, 2**64 - 1, 2**64, 3 * 2**96 + 1)


def numpy_generator(seed: int, key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))


def numpy_words(sources: RandomSource) -> list[list[int]]:
    """numpy's (state, inc) of each row, split into 64-bit limbs."""
    states = [numpy_generator(sources.seed, key).bit_generator.state["state"] for key in sources.keys.tolist()]
    return [[state["state"] % 2**64, state["state"] >> 64, state["inc"] % 2**64, state["inc"] >> 64] for state in states]


def assert_matches_numpy(sources: RandomSource):
    words = pcg64_words(sources)
    assert words.dtype == np.uint64 and words.shape == (len(sources), 4)
    assert words.tolist() == numpy_words(sources)


def in_new_thread(fn):
    """fn() on a thread of its own, which builds its own generator."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def mixed_draw(g):
    # integers(2) leaves half a 64-bit output buffered in the bit generator
    return g.uniform(0.2, 1.0), int(g.integers(2)), int(g.integers(2)), g.uniform(), g.standard_normal()


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
            assert pcg64_words(empty).shape == (0, 4)
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

    def test_a_draw_that_samples_another_stack_raises(self):
        # the nested stack would restart the calling thread's generator
        # under the outer draw, in the middle of its row's stream
        def draw(g):
            g.standard_normal()
            gaussian_matrices(RandomSource(9).children(range(2)), 2, 2)
            return g.standard_normal()

        with pytest.raises(RuntimeError, match=r"RandomSource\.generator\(\)") as error:
            draw_streams(RandomSource(0).children(range(3)), draw)
        assert "\n" not in str(error.value)

        # the failed stack let go of the generator, and a lone source's own
        # generator may be drawn inside a draw
        def draw_beside(g):
            first = g.standard_normal()
            RandomSource(9).generator().standard_normal((2, 2))
            return first, g.standard_normal()

        expected = [tuple(RandomSource(0).child(k).generator().standard_normal(2)) for k in range(3)]
        assert draw_streams(RandomSource(0).children(range(3)), draw_beside) == expected

    STACKED_RUNS = {
        "balance": lambda trials: experiments.run_balance(trials, 2, 2, 0),
        "schrodinger": lambda trials: experiments.EXPERIMENTS["schrodinger"].run({"trials": trials, "dims": (2, 3), "seed": 0}),
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

        # the calling thread's generator is built on its first stack
        gaussian_matrices(RandomSource(0).children(range(2)), 1, 1)
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
        typed = RandomSource(np.uint64(5)).child(np.int64(3)).child(True)
        assert pcg64_words(typed).tolist() == pcg64_words(RandomSource(5).child(3).child(1)).tolist()
        assert_matches_numpy(typed)
        stack = RandomSource(5, np.array([[3], [2**33]], dtype=np.uint64))
        assert stack.keys.tolist() == [[3], [2**33]]
        assert_matches_numpy(stack)


class FakePCG64:
    """A bit generator's public face over memory laid out by the test: the
    state setter writes the 128-bit state and increment as 64-bit limbs,
    high limb first or not, and the fields named in ``keeps`` of
    has_uint32 and uinteger at ``flags`` bytes past a pointer to them."""

    def __init__(self, high_first=False, flags=8, keeps=("has_uint32", "uinteger")):
        self.high_first, self.flags, self.keeps = high_first, flags, keeps
        self.limbs = (ctypes.c_uint64 * 4)()
        self.head = (ctypes.c_uint8 * 16)()
        ctypes.c_void_p.from_buffer(self.head).value = ctypes.addressof(self.limbs)
        self.ctypes = types.SimpleNamespace(state_address=ctypes.addressof(self.head))

    def _set_state(self, value):
        state, inc = value["state"]["state"], value["state"]["inc"]
        limbs = [state % 2**64, state >> 64, inc % 2**64, inc >> 64]
        self.limbs[:] = [limbs[i] for i in ((1, 0, 3, 2) if self.high_first else (0, 1, 2, 3))]
        if "has_uint32" in self.keeps:
            ctypes.c_int.from_buffer(self.head, self.flags).value = value["has_uint32"]
        if "uinteger" in self.keeps:
            ctypes.c_uint32.from_buffer(self.head, self.flags + 4).value = value["uinteger"]

    state = property(fset=_set_state)


class TestThreadGenerators:
    def test_importing_arrowlab_builds_no_generator(self):
        # nor imports numpy.random, which numpy loads lazily
        src = os.path.dirname(os.path.dirname(core.__file__))
        probe = ("import sys, arrowlab.cli, arrowlab.core as core; "
                 "print('numpy.random' in sys.modules, core._limb_order.cache_info().currsize, hasattr(core._threads, 'stream'))")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout.split() == ["False", "0", "False"]

    def test_the_probe_accepts_this_numpy(self):
        # a probe that fell back here would hide the direct write's gain
        assert core._limb_order() in core._LIMB_ORDERS
        assert core._probe_limb_order(np.random.PCG64(0)) == core._limb_order()
        assert in_new_thread(lambda: core._threads.__dict__.get("stream")) is None
        assert in_new_thread(lambda: draw_streams(RandomSource(0), lambda g: core._threads.stream.order)) == [core._limb_order()]

    @pytest.mark.parametrize(
        "fake, order",
        [
            (FakePCG64(), (0, 1, 2, 3)),
            (FakePCG64(high_first=True), (1, 0, 3, 2)),
            # a 4-byte pointer: has_uint32 and uinteger sit 4 bytes earlier
            (FakePCG64(flags=4), None),
            (FakePCG64(keeps=("uinteger",)), None),
            (FakePCG64(keeps=("has_uint32",)), None),
        ],
        ids=["low-first", "high-first", "flags-at-4", "no-has-uint32", "no-uinteger"],
    )
    def test_the_probe_reads_only_the_two_known_layouts(self, fake, order):
        assert core._probe_limb_order(fake) == order

    def test_the_probe_refuses_words_in_another_order(self, monkeypatch):
        fake = FakePCG64()
        monkeypatch.setattr(core, "_LIMB_ORDERS", ((2, 3, 0, 1),))
        assert core._probe_limb_order(fake) is None

    def test_without_a_known_layout_the_dict_setter_draws_the_same_bits(self, monkeypatch):
        monkeypatch.setattr(core, "_probe_limb_order", lambda bit_generator: None)
        core._limb_order.cache_clear()
        try:
            def draws():
                assert core._limb_order() is None
                sources = RandomSource(3).children(range(20))
                return gaussian_matrices(sources, 3, 2), draw_streams(sources, mixed_draw), core._threads.stream.order

            z, mixed, order = in_new_thread(draws)
        finally:
            core._limb_order.cache_clear()
        assert order is None
        for k in range(20):
            g = RandomSource(3).child(k).generator()
            x = g.standard_normal((3, 2))
            assert np.array_equal(z[k], x + 1j * g.standard_normal((3, 2)))
            assert mixed[k] == mixed_draw(RandomSource(3).child(k).generator())

    def test_each_thread_draws_from_a_generator_of_its_own(self):
        def own():
            return draw_streams(RandomSource(0), lambda g: g)[0]

        mine = own()
        theirs = [in_new_thread(own) for _ in range(2)]
        # the generators are held, so distinct ids are distinct generators
        assert len({id(g) for g in (mine, *theirs)}) == 3
        assert own() is mine

    def test_two_threads_draw_their_stacks_at_the_same_time(self):
        # each row waits for the other thread's: the stacks interleave row by row
        barrier = threading.Barrier(2, timeout=60)

        def draw(g):
            first = g.standard_normal()
            barrier.wait()
            return first, int(g.integers(2)), g.standard_normal()

        def stack(seed):
            return draw_streams(RandomSource(seed).children(range(6)), draw)

        results = {}
        threads = [threading.Thread(target=lambda s=seed: results.setdefault(s, stack(s))) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for seed in (1, 2):
            expected = []
            for k in range(6):
                g = RandomSource(seed).child(k).generator()
                expected.append((g.standard_normal(), int(g.integers(2)), g.standard_normal()))
            assert results[seed] == expected
