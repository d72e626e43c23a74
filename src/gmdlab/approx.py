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

Every trial runs on the integer payoffs of an `exact._Responder`, scaled
to integers once per batch, and a batch runs in numpy per chunk of as many
trials as `Caps.trial_entries` entries hold (see `_chunk_trials`):

1. the chunk's coin or uniform rows (`rng.coin_rows`, `rng.uniform_rows`)
   give each trial's zero set, or its labels for the LP rounding;
2. `_Responder.respond`, the one best-response routine, gives every other
   vertex its best response to the zero set from the responder's one store
   of (zero neighbour, vertex, slot, payoff) terms: the first slot of
   largest score, the tie rule of every best response, answered in labels
   for max-dicut (`exact._GmdResponder`) and in domain indices for pricing,
   so no code here maps labels to slots;
3. `_Responder.values` sums each trial's exact value as an integer total
   over the responder's one `denom`: for max-dicut from the arcs that pay,
   for pricing from the pair tables; a batch keeps these totals as they
   are, and its floats, exact mean and CSV texts are computed from them.

The arrays are int64 when the responder's `in_int64` holds and Python ints
(object dtype) otherwise, through the same code.  Randomness is
counter-based (see rng.py): trial k of master seed s uses substream(s, k),
so batch results do not depend on scheduling, and the single-trial
functions are a batch of one at index k.  Every trial's labels and value
are bit for bit those of one generator per trial and a per-vertex
best-response loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .caps import Caps
from .core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    Pricing,
)
from .exact import _GmdResponder, _gp_game, _Responder
from .rng import coin_rows, uniform_rows

# A batch function maps (seed, trial indices as uint64) to the trials' domain
# indices (labels for max-dicut) and integer values; batch functions are
# built once per instance, with the denominator of their values and the
# entries each trial adds to its width (see `_chunk_trials`).
_Batch = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]
_GameBatch = tuple[int, _Batch, int]


def _gp_responder(inst: GpInstance) -> tuple[_Responder, list[list[Fraction]]]:
    """Responder on the pair game whose domain at v is 0 then v's incident
    budgets, ascending, and those domains.

    The profit of v as a function of its price, against a fixed zero set, is
    piecewise linear with breakpoints at the budgets of its edges into the
    zero set, so the incident budgets hold every best response.
    """
    budgets: list[set] = [set() for _ in range(inst.n)]
    for e in inst.edges:
        budgets[e.u].add(e.budget)
        budgets[e.v].add(e.budget)
    domains = [[Fraction(0)] + sorted(b) for b in budgets]
    return _Responder(_gp_game(inst, domains)), domains


def _quarter(resp: _Responder) -> _GameBatch:
    """The quarter algorithm's batch: a vertex is in the zero set when its
    coin is 0.  A trial's best responses add the responder's score row to
    its width."""
    def batch(seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = resp.respond(coin_rows(seed, indices, len(resp.domains)) == 0)
        return x, resp.values(x)
    return resp.denom, batch, resp.row_entries


def _one(game_batch: _GameBatch, seed: int, trial: int) -> tuple[list[int], Fraction]:
    """Domain indices (labels for max-dicut) and exact value of trial
    `trial` alone of a batch."""
    denom, batch, _ = game_batch
    x, totals = batch(seed, np.array([trial & ((1 << 64) - 1)], dtype=np.uint64))
    return x[0].tolist(), Fraction(totals.tolist()[0], denom)


def gp_price_completion(inst: GpInstance, zero: Sequence[bool]) -> Pricing:
    """Best response to a fixed zero set: each non-zero vertex takes the
    profit-maximizing price against its zero neighbors.

    Ties break to the smallest price; no zero neighbor means 0.
    """
    resp, domains = _gp_responder(inst)
    x = resp.respond(np.array([zero], dtype=bool))[0].tolist()
    return Pricing(tuple(domains[v][i] for v, i in enumerate(x)))


def approx_gp_quarter(inst: GpInstance, seed: int, trial: int = 0) -> tuple[Pricing, Fraction]:
    """One run of the combinatorial quarter algorithm for pricing."""
    resp, domains = _gp_responder(inst)
    x, value = _one(_quarter(resp), seed, trial)
    return Pricing(tuple(domains[v][i] for v, i in enumerate(x))), value


def approx_gmd_quarter(inst: GmdInstance, seed: int, trial: int = 0) -> tuple[Labeling, Fraction]:
    """One run of the combinatorial quarter algorithm for max-dicut."""
    x, value = _one(_quarter(_GmdResponder(inst)), seed, trial)
    return Labeling(tuple(x)), value


def _chunk_trials(inst, caps: Caps, extra: int = 0) -> int:
    """Trials per chunk on `inst`, at least one, in `caps.trial_entries`
    entries: a trial spans n entries (its coins, labels and responses), one
    per arc or edge (its payoffs) and `extra`, which the batch adds once it
    is built.  CapExceeded when n plus the arcs or edges pass the budget,
    which is known before the batch is built."""
    gmd = isinstance(inst, GmdInstance)
    pairs = len(inst.arcs if gmd else inst.edges)
    width = inst.n + pairs
    if width > caps.trial_entries:
        raise CapExceeded(f"a trial on {inst.n} vertices and {pairs} {'arcs' if gmd else 'edges'} "
                          f"has {width} entries, cap {caps.trial_entries}")
    return max(1, caps.trial_entries // max(width + extra, 1))


def _all_zero_sets_expectation(inst, resp: _Responder, caps: Caps) -> Fraction:
    """Mean completion value over all 2^n zero sets, where bit v of mask m
    puts v in the zero set of m, as many masks at a time as `run_trials`
    takes trials."""
    chunk = _chunk_trials(inst, caps, resp.row_entries)
    n = len(resp.domains)
    total = 0
    bits = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        zero = (masks[:, None] >> bits) & 1 == 1
        total += sum(resp.values(resp.respond(zero)).tolist())
    return Fraction(total, resp.denom << n)


def quarter_expectation_gmd(inst: GmdInstance, caps: Caps = Caps()) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    _chunk_trials(inst, caps)  # refuses before the responder is built
    return _all_zero_sets_expectation(inst, _GmdResponder(inst), caps)


def quarter_expectation_gp(inst: GpInstance, caps: Caps = Caps()) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    _chunk_trials(inst, caps)  # refuses before the responder is built
    return _all_zero_sets_expectation(inst, _gp_responder(inst)[0], caps)


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


def _lp_round(inst: GmdInstance, marginals: Sequence[Sequence[Fraction]]) -> _GameBatch:
    """The LP rounding's batch: each trial compares each vertex's draw with
    its T running sums, n T entries added to its width."""
    _check_marginals(inst, marginals)
    resp = _GmdResponder(inst)
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
        # a draw below the cut takes label 0, one at or above it the first
        # label i whose running sum exceeds draw - cut, or T; the sums never
        # decrease
        passed = ((u - cut)[:, :, None] >= acc).sum(axis=2)
        x = np.where(u < cut, 0, np.minimum(passed + 1, T))
        return x, resp.values(x)

    return resp.denom, batch, inst.n * T


def lp_round_gmd(
    inst: GmdInstance,
    marginals: Sequence[Sequence[Fraction]],
    seed: int,
    trial: int = 0,
) -> tuple[Labeling, Fraction, Fraction]:
    """Sample the LP rounding once; also return its exact expectation."""
    expectation = lp_round_expectation(inst, marginals)
    x, value = _one(_lp_round(inst, marginals), seed, trial)
    return Labeling(tuple(x)), value, expectation


# The batch form of each trial function, built once per `run_trials` call.
_BATCHES: dict[Callable, Callable[..., _GameBatch]] = {
    approx_gp_quarter: lambda inst: _quarter(_gp_responder(inst)[0]),
    approx_gmd_quarter: lambda inst: _quarter(_GmdResponder(inst)),
    lp_round_gmd: _lp_round,
}


def _quotient(num: int, denom: int) -> float:
    """num / denom as a float, inf when it is past the float64 range (trial
    totals are nonnegative).  Int true division is correctly rounded, so
    this is float(Fraction(num, denom)) whenever that is finite."""
    try:
        return num / denom
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RandomizedRun:
    """Seeded batch of trials: trial k's exact value is totals[k] / denom."""

    seed: int
    trials: int
    totals: tuple[int, ...]
    denom: int

    @cached_property
    def _floats(self) -> list[float]:
        return [_quotient(t, self.denom) for t in self.totals]

    @cached_property
    def mean(self) -> float:
        return sum(self._floats) / self.trials

    @property
    def stddev(self) -> float:
        if self.trials < 2:
            return 0.0
        m = self.mean
        try:
            var = sum((f - m) ** 2 for f in self._floats) / (self.trials - 1)
        except OverflowError:  # a finite square past the float64 range
            var = math.inf
        return math.sqrt(var)

    @property
    def stderr(self) -> float:
        return self.stddev / math.sqrt(self.trials)

    @property
    def exact_mean(self) -> Fraction:
        return Fraction(sum(self.totals), self.denom * self.trials)


def run_trials(
    algorithm: Callable[..., tuple],
    inst,
    trials: int,
    seed: int,
    caps: Caps = Caps(),
    **kwargs,
) -> RandomizedRun:
    """The values of `algorithm(inst, seed, trial=k, **kwargs)` for
    k = 0..trials-1, for `algorithm` one of `approx_gp_quarter`,
    `approx_gmd_quarter` and `lp_round_gmd`, computed in chunks of
    `_chunk_trials` trials.  CapExceeded, before the batch is built, when
    one trial's vertices and arcs or edges pass `caps.trial_entries`."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if algorithm not in _BATCHES:
        raise ValueError(f"run_trials has no batch form of {algorithm!r}")
    _chunk_trials(inst, caps)  # refuses before the batch is built
    denom, batch, extra = _BATCHES[algorithm](inst, **kwargs)
    chunk = min(trials, _chunk_trials(inst, caps, extra))
    totals: list[int] = []
    for start in range(0, trials, chunk):
        indices = np.arange(start, min(start + chunk, trials), dtype=np.uint64)
        totals += batch(seed, indices)[1].tolist()
    return RandomizedRun(seed=seed, trials=trials, totals=tuple(totals), denom=denom)
