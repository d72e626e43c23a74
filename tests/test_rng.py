"""The batch Philox helpers against one numpy generator per substream."""

import numpy as np
import pytest

from gmdlab.rng import coin_rows, philox_words, substream, uniform_rows

MASK64 = (1 << 64) - 1
# lengths on both sides of the half-word (coins) and block (4 words) bounds
LENGTHS = (0, 1, 3, 4, 5, 7, 8, 9, 20, 41)
SEEDS = (0, -1, 1 << 63, MASK64)
INDICES = (0, 1, 2, 7, 1 << 32, 1 << 63, MASK64 - 1, MASK64)


def _indices(ks):
    return np.array([k & MASK64 for k in ks], dtype=np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_coin_rows_match_substreams(seed, n):
    rows = coin_rows(seed, _indices(INDICES), n)
    assert rows.shape == (len(INDICES), n)
    for row, k in zip(rows, INDICES):
        want = substream(seed, k).integers(0, 2, size=n)
        assert row.dtype == want.dtype and row.tolist() == want.tolist()
        # one scalar draw at a time gives the same coins
        rng = substream(seed, k)
        assert row.tolist() == [int(rng.integers(0, 2)) for _ in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_uniform_rows_match_substreams(seed, n):
    rows = uniform_rows(seed, _indices(INDICES), n)
    assert rows.shape == (len(INDICES), n)
    for row, k in zip(rows, INDICES):
        want = substream(seed, k).random(n)
        assert row.dtype == want.dtype and row.tolist() == want.tolist()


def test_words_are_the_bit_generator_output():
    for seed, k in ((0, 0), (-1, MASK64), (12345, 678)):
        want = substream(seed, k).bit_generator.random_raw(13)
        assert philox_words(seed, _indices([k]), 13)[0].tolist() == want.tolist()


def test_many_trials_in_one_batch():
    ks = list(range(300))
    coins = coin_rows(2026, _indices(ks), 13)
    draws = uniform_rows(2026, _indices(ks), 6)
    for k in ks:
        assert coins[k].tolist() == substream(2026, k).integers(0, 2, size=13).tolist()
        assert draws[k].tolist() == substream(2026, k).random(6).tolist()


@pytest.mark.parametrize("n", (0, 5))
def test_batch_of_no_trials(n):
    empty = _indices([])
    assert coin_rows(3, empty, n).shape == (0, n)
    assert uniform_rows(3, empty, n).shape == (0, n)
    assert philox_words(3, empty, n).shape == (0, n)
