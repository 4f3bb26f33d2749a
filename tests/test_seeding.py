"""The block-drawn ``Draws`` stream against numpy's ``Generator``."""

import random

import numpy as np
import pytest

from secvne.seeding import DRAW_BLOCK, Draws, draws_from

from oracles import rng_from

BOUNDS = [1, 2, 3, 7, 100, 12345678, 2**32 - 6]
MASK32 = (1 << 32) - 1

# The first 32-bit word of stream (80,) is rejected by Lemire's draw for
# this bound: its low product half is below (2**32 - n) % n.
REJECTING_SEED, REJECTING_BOUND = 80, 12345678


def test_random_interleavings_equal_numpy():
    """random(), integers(n) and integers(0, 2, size=k), the last as k
    scalar integers(2) draws, in random order over many seeds."""
    for seed in range(120):
        rng, draws = rng_from(seed, 2, seed), draws_from(seed, 2, seed)
        rnd = random.Random(seed)
        for _ in range(300):
            op = rnd.randrange(3)
            if op == 0:
                assert draws.random() == rng.random()
            elif op == 1:
                n = rnd.choice(BOUNDS)
                assert draws.integers(n) == rng.integers(n)
            else:
                k = rnd.randint(1, 8)
                assert ([draws.integers(2) for _ in range(k)]
                        == rng.integers(0, 2, size=k).tolist())


def test_long_runs_cross_block_boundaries():
    rng, draws = rng_from(5), draws_from(5)
    assert [draws.random() for _ in range(3 * DRAW_BLOCK + 1)] == \
        rng.random(3 * DRAW_BLOCK + 1).tolist()
    # An odd count of 32-bit words leaves a carried half across the next block.
    assert [draws.integers(7) for _ in range(2 * DRAW_BLOCK + 1)] == \
        [int(rng.integers(7)) for _ in range(2 * DRAW_BLOCK + 1)]
    assert draws.random() == rng.random()
    assert draws.integers(100) == rng.integers(100)


def test_types_are_python_scalars():
    draws = draws_from(0)
    assert type(draws.random()) is float
    assert type(draws.integers(10)) is int


def test_rejection_loop_is_exercised():
    n = REJECTING_BOUND
    first = int(rng_from(REJECTING_SEED).bit_generator.random_raw(1)[0]) & MASK32
    assert (first * n) & MASK32 < (2**32 - n) % n
    rng, draws = rng_from(REJECTING_SEED), draws_from(REJECTING_SEED)
    assert draws.integers(n) == rng.integers(n)
    # Both consumed the same words: the streams still agree afterwards.
    assert [draws.integers(n) for _ in range(5)] == [int(rng.integers(n)) for _ in range(5)]
    assert draws.random() == rng.random()


def test_integers_of_one_consumes_nothing():
    rng, draws = rng_from(9), draws_from(9)
    assert draws.integers(3) == rng.integers(3)  # leaves a carried half word
    assert draws.integers(1) == 0 == rng.integers(1)
    assert draws.integers(3) == rng.integers(3)
    assert draws.random() == rng.random()


@pytest.mark.parametrize("n", [2**32, 2**32 + 1, 2**40, 2**63 - 1, 2**63])
def test_wide_bounds_equal_numpy(n):
    """2**32 is one plain 32-bit word; wider bounds draw whole 64-bit words
    and leave the carried half word alone."""
    for seed in range(40):
        rng, draws = rng_from(seed, 4), draws_from(seed, 4)
        assert [draws.integers(7), draws.integers(n), draws.integers(7), draws.integers(n)] \
            == [int(rng.integers(7)), int(rng.integers(n)), int(rng.integers(7)),
                int(rng.integers(n))]
        assert draws.random() == rng.random()


def test_wide_rejection_loop_is_exercised():
    # (2**64 - n) % n is near n here, so about a third of all 64-bit words
    # are rejected.
    n = 2**64 // 3 + 1
    rng, draws = rng_from(0), draws_from(0)
    words = rng_from(0).bit_generator.random_raw(64).tolist()
    assert any((w * n) % 2**64 < (2**64 - n) % n for w in words)
    assert [draws.integers(n) for _ in range(32)] == [int(rng.integers(n)) for _ in range(32)]
    assert draws.integers(3) == rng.integers(3)


@pytest.mark.parametrize("n", [0, -1, 2**63 + 1, 2**64])
def test_bound_out_of_range_raises(n):
    draws = draws_from(0)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        draws.integers(n)


def test_exponential_and_choice_interleave_equal_numpy():
    """exponential, choice, random and integers in random order over many
    seeds, with scales from tiny to large and populations on both sides of
    numpy's tail-shuffle threshold."""
    for seed in range(150):
        rng, draws = rng_from(seed, 1), draws_from(seed, 1)
        rnd = random.Random(seed)
        for _ in range(120):
            op = rnd.randrange(4)
            if op == 0:
                assert draws.random() == rng.random()
            elif op == 1:
                n = rnd.choice(BOUNDS)
                assert draws.integers(n) == rng.integers(n)
            elif op == 2:
                scale = rnd.choice([1e-3, 1.0, 20.0, 1000.0])
                assert draws.exponential(scale) == rng.exponential(scale)
            else:
                pop = rnd.choice([1, 2, 4, 7, 60, 10000])
                k = rnd.randint(0, pop if pop < 100 else 300)
                assert draws.choice(pop, k) == rng.choice(pop, size=k, replace=False).tolist()


def test_exponential_rewinds_mid_block():
    rng, draws = rng_from(21), draws_from(21)
    assert draws.random() == rng.random()  # fetches a block, reads one output
    assert draws.exponential(5.0) == rng.exponential(5.0)
    assert [draws.random() for _ in range(DRAW_BLOCK + 3)] == \
        rng.random(DRAW_BLOCK + 3).tolist()
    assert draws.exponential(0.5) == rng.exponential(0.5)


def test_exponential_keeps_the_carried_half_word():
    rng, draws = rng_from(22), draws_from(22)
    assert draws.integers(100) == rng.integers(100)  # the high half is carried
    assert draws.exponential(3.0) == rng.exponential(3.0)
    # The carried half answers the next 32-bit draw, as in numpy.
    assert draws.integers(100) == rng.integers(100)
    assert draws.integers(100) == rng.integers(100)
    assert draws.exponential(3.0) == rng.exponential(3.0)
    assert draws.random() == rng.random()


def test_exponential_on_a_fresh_or_drained_stream():
    rng, draws = rng_from(23), draws_from(23)
    assert [draws.exponential(2.0) for _ in range(5)] == \
        [rng.exponential(2.0) for _ in range(5)]
    assert [draws.random() for _ in range(DRAW_BLOCK)] == rng.random(DRAW_BLOCK).tolist()
    assert draws.exponential(2.0) == rng.exponential(2.0)  # the block is read out
    assert type(draws.exponential(1.0)) is float


@pytest.mark.parametrize("pop, k", [
    (1, 0), (1, 1), (4, 4), (7, 3), (10000, 200), (10000, 10000),
    (10001, 200), (12000, 1)])
def test_choice_equals_numpy(pop, k):
    """Floyd's algorithm: at pop 10000 or below, and above it for
    k <= pop // 50."""
    for seed in range(3):
        rng, draws = rng_from(seed, 3), draws_from(seed, 3)
        picks = draws.choice(pop, k)
        assert picks == rng.choice(pop, size=k, replace=False).tolist()
        assert len(set(picks)) == k
        assert draws.integers(1000) == rng.integers(1000)


@pytest.mark.parametrize("pop, k", [(10001, 201), (20000, 401), (20000, 20000)])
def test_choice_refuses_the_whole_population_shuffle(pop, k):
    """Above pop 10000 with k > pop // 50 numpy shuffles the whole
    population; the stream raises rather than return other values."""
    draws = draws_from(0, 3)
    with pytest.raises(ValueError, match="choice"):
        draws.choice(pop, k)
    # Nothing was drawn.
    assert draws.integers(1000) == rng_from(0, 3).integers(1000)


def test_choice_of_more_than_the_population_raises():
    with pytest.raises(ValueError, match="choice"):
        draws_from(0).choice(3, 4)


def test_stream_over_a_given_bit_generator():
    bits = np.random.PCG64(np.random.SeedSequence([3, 1]))
    assert Draws(bits).random() == rng_from(3, 1).random()
