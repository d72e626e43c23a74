"""Counter-based random streams.

All randomness in the toolkit flows through Philox (a counter-based 64-bit
generator) keyed by (master seed, substream index).  Identical seeds give
bit-identical streams on every platform, and per-trial substreams make batch
results independent of how trials are scheduled.

Batches of trials draw their streams without one generator each:
`philox_words` evaluates Philox4x64-10 (Salmon et al. 2011) for a whole
vector of substream indices in one numpy pass, and `coin_rows` and
`uniform_rows` turn its words into exactly what `substream(seed, k)` returns
from `integers(0, 2, size=n)` and `random(n)`.  This is a bit-identity
contract, not an approximation: `tests/test_rng.py` checks it word for word.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
# Philox4x64 multipliers and key increments, as (2, 1, 1) arrays that pair
# with the stacked (2, trials, blocks) arrays of `philox_words`
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for substream `index` of master stream `seed`."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * m, from 32-bit halves."""
    s32 = np.uint64(32)
    a_lo, a_hi = a & _MASK32, a >> s32
    m_lo, m_hi = m & _MASK32, m >> s32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = ((a_lo * m_lo) >> s32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * m_hi + (lh >> s32) + (hl >> s32) + (mid >> s32), a * m


def philox_words(seed: int, indices: np.ndarray, count: int) -> np.ndarray:
    """The first `count` 64-bit words of substream(seed, k) for each k in
    `indices` (uint64, already reduced mod 2^64), as a (len(indices), count)
    uint64 array.

    numpy's Philox starts at counter 0 and increments it before each block,
    so block b of a stream is Philox4x64-10 of the counter (b + 1, 0, 0, 0)
    under the key (seed mod 2^64, k); its four words come out in order.  A
    round multiplies words 0 and 2 of the counter and xors the high halves
    into words 1 and 3, so the state is kept as the stacked pairs
    x = (c0, c2) and y = (c1, c3) and each step is one numpy call for both.
    """
    blocks = -(-count // 4)
    trials = len(indices)
    key = np.empty((2, trials, 1), dtype=np.uint64)
    key[0] = seed & _MASK64
    key[1, :, 0] = indices
    x = np.zeros((2, trials, blocks), dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    y = np.zeros_like(x)
    for r in range(10):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(x, _PHILOX_M)
        x, y = hi[::-1] ^ y ^ key, lo[::-1]
    words = np.stack([x[0], y[0], x[1], y[1]], axis=2)
    return words.reshape(trials, 4 * blocks)[:, :count]


def coin_rows(seed: int, indices: np.ndarray, n: int) -> np.ndarray:
    """Row i is substream(seed, indices[i]).integers(0, 2, size=n).

    numpy draws each coin from one 32-bit half of a word, the low half
    first, by Lemire's multiply-shift, which for the range {0, 1} is the
    half's top bit (bit 31)."""
    words = philox_words(seed, indices, -(-n // 2))
    halves = np.stack([words >> np.uint64(31), words >> np.uint64(63)], axis=2)
    bits = (halves & np.uint64(1)).astype(np.int64)
    return bits.reshape(len(words), 2 * words.shape[1])[:, :n]


def uniform_rows(seed: int, indices: np.ndarray, n: int) -> np.ndarray:
    """Row i is substream(seed, indices[i]).random(n): the top 53 bits of each
    word, scaled by 2^-53."""
    return (philox_words(seed, indices, n) >> np.uint64(11)) * (1.0 / 9007199254740992.0)
