"""Randomized approximation algorithms.

* quarter algorithms: price/label each vertex 0 with probability 1/2, then
  give every remaining vertex its greedy best response against the zero set.
  Expected value is at least Opt/4 for both problems.
* LP rounding: given per-vertex marginal distributions (typically from the
  2-round Sherali-Adams optimum), label v zero with probability
  (1 + x_v(0))/2 and i != 0 with probability x_v(i)/2.  The per-edge success
  probability ((1+x_u(0))/2)(x_v(t)/2) is at least c/4 + c^2/4 whenever the
  pairwise mass c on the satisfying assignment is at most both marginals,
  which lifts the guarantee to 1/4 + 1/(16T) on normalized instances.

Every trial runs on the integer pair game of `exact`, scaled to integers
once per batch, and a batch runs as one numpy kernel (`_Kernel`) per chunk
of `TRIAL_CHUNK` trials:

1. the chunk's coin or uniform rows (`rng.coin_rows`, `rng.uniform_rows`)
   give each trial's zero set, or its labels for the LP rounding;
2. each vertex's best-response scores against its zero neighbours are
   gathered per pair entry and summed per domain index, so the work is
   linear in the pairs;
3. each vertex takes the first index of largest score, the tie rule of
   `_PairGame.best_response`;
4. each trial's exact integer value is summed from the pair tables, and one
   `Fraction(total, denom)` is built per trial.

The arrays are int64 when `_PairGame.int64` holds and Python ints (object
dtype) otherwise, through the same code.  Randomness is counter-based (see
rng.py): trial k of master seed s uses substream(s, k), so batch results do
not depend on scheduling, and the single-trial functions are a batch of one
at index k.  Every trial's labels and value are bit for bit those of one
generator per trial and a per-vertex best-response loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import (
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    Pricing,
)
from .exact import _gmd_game, _gp_game, _PairGame
from .rng import coin_rows, uniform_rows

# Trials per kernel call: a chunk's arrays hold a few entries per trial and
# pair entry, so this bounds the kernel's memory whatever the trial count.
TRIAL_CHUNK = 1024


class _Kernel:
    """Batched best responses to zero sets, and exact values, of one pair game.

    `zero` is the domain index that stands for label or price 0 at every
    vertex; a best response ranges over a vertex's first `width` indices
    (None: all of them).  Rows of the arrays are trials, columns vertices.
    """

    def __init__(self, game: _PairGame, zero: int, width: int | None = None):
        self.n = len(game.sizes)
        self.denom = game.denom
        self.zero = zero
        dtype = np.int64 if game.int64 else object
        # values: every pair table flattened into one array
        flat: list[int] = []
        us, vs, offsets, strides = [], [], [], []
        for u, v, t in game.pairs:
            us.append(u)
            vs.append(v)
            offsets.append(len(flat))
            strides.append(len(t[0]))
            for row in t:
                flat.extend(row)
        self.flat = np.array(flat, dtype=dtype)
        self.us, self.vs = np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)
        self.offsets = np.array(offsets, dtype=np.intp)
        self.strides = np.array(strides, dtype=np.intp)
        # scores: one slot per vertex with a payoff and index below its
        # width, holding one entry (neighbour, payoff against that
        # neighbour's zero) per neighbour; vertices grouped by width
        src: list[int] = []
        val: list[int] = []
        starts: list[int] = []
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for v, nb in enumerate(game.nbrs):
            if not nb:
                continue
            w = game.sizes[v] if width is None else width
            verts, firsts = groups.setdefault(w, ([], []))
            verts.append(v)
            firsts.append(len(starts))
            for j in range(w):
                starts.append(len(src))
                for u, cols in nb.items():
                    src.append(u)
                    val.append(cols[zero][j])
        self.src = np.array(src, dtype=np.intp)
        self.val = np.array(val, dtype=dtype)
        self.starts = np.array(starts, dtype=np.intp)
        self.groups = [
            (np.array(verts, dtype=np.intp), np.array(firsts, dtype=np.intp)[:, None] + np.arange(w))
            for w, (verts, firsts) in groups.items()
        ]

    def respond(self, zero: np.ndarray) -> np.ndarray:
        """Domain indices: `self.zero` where the boolean rows `zero` are
        set, every other vertex's best response to them elsewhere (index 0
        for a vertex with no payoff)."""
        x = np.zeros(zero.shape, dtype=np.intp)
        if len(self.starts):
            scores = np.add.reduceat(zero[:, self.src] * self.val, self.starts, axis=1)
            for verts, slots in self.groups:
                x[:, verts] = scores[:, slots].argmax(axis=2)
        return np.where(zero, self.zero, x)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Integer value over `denom` of each row of domain indices."""
        return self.flat[self.offsets + x[:, self.us] * self.strides + x[:, self.vs]].sum(axis=1)

    def quarter(self, seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Domain indices and integer values of the quarter algorithm's
        trials `indices` (uint64) of master seed `seed`: a vertex is in the
        zero set when its coin is 0."""
        x = self.respond(coin_rows(seed, indices, self.n) == 0)
        return x, self.values(x)


# A batch function maps (seed, trial indices as uint64) to the trials' domain
# indices and integer values; batch functions are built once per instance.
_Batch = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _gp_completion_game(inst: GpInstance) -> tuple[_PairGame, list[list[Fraction]]]:
    """Pair game whose domain at v is 0 then v's incident budgets, ascending.

    The profit of v as a function of its price, against a fixed zero set, is
    piecewise linear with breakpoints at the budgets of its edges into the
    zero set, so the incident budgets hold every best response.
    """
    budgets: list[set] = [set() for _ in range(inst.n)]
    for e in inst.edges:
        budgets[e.u].add(e.budget)
        budgets[e.v].add(e.budget)
    domains = [[Fraction(0)] + sorted(b) for b in budgets]
    return _gp_game(inst, domains), domains


def _gp_kernel(inst: GpInstance) -> tuple[_Kernel, list[list[Fraction]]]:
    game, domains = _gp_completion_game(inst)
    return _Kernel(game, zero=0), domains


def _gmd_kernel(inst: GmdInstance) -> _Kernel:
    # domain index i < T is label i + 1, index T is label 0 (see _gmd_game)
    return _Kernel(_gmd_game(inst), zero=inst.T, width=inst.T)


def _one(batch: _Batch, seed: int, trial: int) -> tuple[list[int], int]:
    """Domain indices and integer value of trial `trial` alone."""
    x, totals = batch(seed, np.array([trial & ((1 << 64) - 1)], dtype=np.uint64))
    return x[0].tolist(), totals.tolist()[0]


def gp_price_completion(inst: GpInstance, zero: Sequence[bool]) -> Pricing:
    """Best response to a fixed zero set: each non-zero vertex takes the
    profit-maximizing price against its zero neighbors.

    Ties break to the smallest price; no zero neighbor means 0.
    """
    kernel, domains = _gp_kernel(inst)
    x = kernel.respond(np.array([list(zero)], dtype=bool))[0].tolist()
    return Pricing(tuple(domains[v][i] for v, i in enumerate(x)))


def approx_gp_quarter(inst: GpInstance, seed: int, trial: int = 0) -> tuple[Pricing, Fraction]:
    """One run of the combinatorial quarter algorithm for pricing."""
    kernel, domains = _gp_kernel(inst)
    x, total = _one(kernel.quarter, seed, trial)
    return Pricing(tuple(domains[v][i] for v, i in enumerate(x))), Fraction(total, kernel.denom)


def approx_gmd_quarter(inst: GmdInstance, seed: int, trial: int = 0) -> tuple[Labeling, Fraction]:
    """One run of the combinatorial quarter algorithm for max-dicut."""
    kernel = _gmd_kernel(inst)
    x, total = _one(kernel.quarter, seed, trial)
    labels = tuple(0 if i == inst.T else i + 1 for i in x)
    return Labeling(labels), Fraction(total, kernel.denom)


def _all_zero_sets_total(kernel: _Kernel, n: int) -> int:
    """Sum of the completion values of all 2^n zero sets, where bit v of
    mask m puts v in the zero set of m."""
    total = 0
    bits = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, TRIAL_CHUNK):
        masks = np.arange(start, min(start + TRIAL_CHUNK, 1 << n), dtype=np.int64)
        zero = (masks[:, None] >> bits) & 1 == 1
        total += sum(kernel.values(kernel.respond(zero)).tolist())
    return total


def quarter_expectation_gmd(inst: GmdInstance) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    kernel = _gmd_kernel(inst)
    return Fraction(_all_zero_sets_total(kernel, inst.n), kernel.denom << inst.n)


def quarter_expectation_gp(inst: GpInstance) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    kernel, _ = _gp_kernel(inst)
    return Fraction(_all_zero_sets_total(kernel, inst.n), kernel.denom << inst.n)


def _check_marginals(inst: GmdInstance, marginals: Sequence[Sequence[Fraction]]):
    if len(marginals) != inst.n:
        raise InstanceError("need one marginal distribution per vertex")
    for v, dist in enumerate(marginals):
        if len(dist) != inst.T + 1:
            raise InstanceError(f"marginal at vertex {v} has wrong domain size")
        if any(p < 0 for p in dist) or sum(dist) != 1:
            raise InstanceError(f"marginal at vertex {v} is not a distribution")


def lp_round_expectation(inst: GmdInstance, marginals: Sequence[Sequence[Fraction]]) -> Fraction:
    """Closed-form expected value of the LP rounding, exact."""
    _check_marginals(inst, marginals)
    total = Fraction(0)
    for a in inst.arcs:
        total += (
            a.weight
            * (1 + marginals[a.tail][0])
            * marginals[a.head][a.label]
            / 4
        )
    return total


def _lp_round(inst: GmdInstance, marginals: Sequence[Sequence[Fraction]]) -> tuple[_Kernel, _Batch]:
    _check_marginals(inst, marginals)
    kernel = _gmd_kernel(inst)
    T = inst.T
    # per vertex: the zero threshold (1+x0)/2, then the running sums of the
    # x_i/2 slices of the remaining mass, as the floats the draws compare to
    cuts, slices = [], []
    for dist in marginals:
        acc, row = 0.0, []
        for i in range(1, T + 1):
            acc += float(dist[i] / 2)
            row.append(acc)
        cuts.append(float((1 + dist[0]) / 2))
        slices.append(row)
    cut = np.array(cuts, dtype=np.float64)
    acc = np.array(slices, dtype=np.float64).reshape(inst.n, T)

    def batch(seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = uniform_rows(seed, indices, inst.n)
        # a draw at or above the cut takes the first label i whose running
        # sum exceeds draw - cut, or T; the sums never decrease
        passed = ((u - cut)[:, :, None] >= acc).sum(axis=2)
        x = np.where(u < cut, T, np.minimum(passed, T - 1))
        return x, kernel.values(x)

    return kernel, batch


def lp_round_gmd(
    inst: GmdInstance,
    marginals: Sequence[Sequence[Fraction]],
    seed: int,
    trial: int = 0,
) -> tuple[Labeling, Fraction, Fraction]:
    """Sample the LP rounding once; also return its exact expectation."""
    expectation = lp_round_expectation(inst, marginals)
    kernel, batch = _lp_round(inst, marginals)
    x, total = _one(batch, seed, trial)
    labels = tuple(0 if i == inst.T else i + 1 for i in x)
    return Labeling(labels), Fraction(total, kernel.denom), expectation


def _gp_batch(inst: GpInstance) -> tuple[_Kernel, _Batch]:
    kernel, _ = _gp_kernel(inst)
    return kernel, kernel.quarter


def _gmd_batch(inst: GmdInstance) -> tuple[_Kernel, _Batch]:
    kernel = _gmd_kernel(inst)
    return kernel, kernel.quarter


# The batch form of each trial function, built once per `run_trials` call.
_BATCHES: dict[Callable, Callable[..., tuple[_Kernel, _Batch]]] = {
    approx_gp_quarter: _gp_batch,
    approx_gmd_quarter: _gmd_batch,
    lp_round_gmd: _lp_round,
}


@dataclass(frozen=True)
class RandomizedRun:
    """Seeded batch of trials with exact per-trial values."""

    seed: int
    trials: int
    values: tuple[Fraction, ...]

    @cached_property
    def _floats(self) -> list[float]:
        return [float(v) for v in self.values]

    @cached_property
    def mean(self) -> float:
        return sum(self._floats) / self.trials

    @property
    def stddev(self) -> float:
        if self.trials < 2:
            return 0.0
        m = self.mean
        var = sum((f - m) ** 2 for f in self._floats) / (self.trials - 1)
        return math.sqrt(var)

    @property
    def stderr(self) -> float:
        return self.stddev / math.sqrt(self.trials)

    @property
    def exact_mean(self) -> Fraction:
        # one Fraction over the values' least common denominator, not a
        # running Fraction sum that reduces after every addition
        d = math.lcm(*(v.denominator for v in self.values))
        return Fraction(sum(v.numerator * (d // v.denominator) for v in self.values),
                        d * self.trials)


def run_trials(
    algorithm: Callable[..., tuple],
    inst,
    trials: int,
    seed: int,
    **kwargs,
) -> RandomizedRun:
    """The values of `algorithm(inst, seed, trial=k, **kwargs)` for
    k = 0..trials-1, for `algorithm` one of `approx_gp_quarter`,
    `approx_gmd_quarter` and `lp_round_gmd`, computed in chunks of
    `TRIAL_CHUNK` trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if algorithm not in _BATCHES:
        raise ValueError(f"run_trials has no batch form of {algorithm!r}")
    kernel, batch = _BATCHES[algorithm](inst, **kwargs)
    values: list[Fraction] = []
    for start in range(0, trials, TRIAL_CHUNK):
        indices = np.arange(start, min(start + TRIAL_CHUNK, trials), dtype=np.uint64)
        values += [Fraction(t, kernel.denom) for t in batch(seed, indices)[1].tolist()]
    return RandomizedRun(seed=seed, trials=trials, values=tuple(values))
