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
once per batch, and a batch runs in numpy per chunk of `TRIAL_CHUNK`
trials:

1. the chunk's coin or uniform rows (`rng.coin_rows`, `rng.uniform_rows`)
   give each trial's zero set, or its labels for the LP rounding;
2. `exact._Responder.respond` gives every other vertex its best response
   to the zero set, from the game's nonzero (neighbour, payoff) terms: the
   first index of largest score, the tie rule of every best response;
3. `_PairGame.values` sums each trial's exact value from the pair tables
   as an integer total over the game's one `denom`; a batch keeps these
   totals as they are, and its floats, exact mean and CSV texts are
   computed from them.

The arrays are int64 when `_PairGame.int64()` holds and Python ints (object
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
from .exact import _gmd_game, _gmd_responder, _gp_game, _PairGame, _Responder
from .rng import coin_rows, uniform_rows

# Trials per batch call: a chunk's arrays hold a few entries per trial and
# term or pair entry, so this bounds a batch's memory whatever the trial
# count.
TRIAL_CHUNK = 1024


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


def _gp_responder(inst: GpInstance) -> tuple[_Responder, list[list[Fraction]]]:
    game, domains = _gp_completion_game(inst)
    return _Responder(game, zero=0), domains


def _quarter(resp: _Responder) -> tuple[_PairGame, _Batch]:
    """The quarter algorithm's game and batch: a vertex is in the zero set
    when its coin is 0."""
    def batch(seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = resp.respond(coin_rows(seed, indices, len(resp.terms)) == 0)
        return x, resp.game.values(x)
    return resp.game, batch


def _one(game_batch: tuple[_PairGame, _Batch], seed: int, trial: int) -> tuple[list[int], Fraction]:
    """Domain indices and exact value of trial `trial` alone of a game's
    batch."""
    game, batch = game_batch
    x, totals = batch(seed, np.array([trial & ((1 << 64) - 1)], dtype=np.uint64))
    return x[0].tolist(), Fraction(totals.tolist()[0], game.denom)


def gp_price_completion(inst: GpInstance, zero: Sequence[bool]) -> Pricing:
    """Best response to a fixed zero set: each non-zero vertex takes the
    profit-maximizing price against its zero neighbors.

    Ties break to the smallest price; no zero neighbor means 0.
    """
    resp, domains = _gp_responder(inst)
    x, _ = resp.respond_one(zero)
    return Pricing(tuple(domains[v][i] for v, i in enumerate(x)))


def approx_gp_quarter(inst: GpInstance, seed: int, trial: int = 0) -> tuple[Pricing, Fraction]:
    """One run of the combinatorial quarter algorithm for pricing."""
    resp, domains = _gp_responder(inst)
    x, value = _one(_quarter(resp), seed, trial)
    return Pricing(tuple(domains[v][i] for v, i in enumerate(x))), value


def approx_gmd_quarter(inst: GmdInstance, seed: int, trial: int = 0) -> tuple[Labeling, Fraction]:
    """One run of the combinatorial quarter algorithm for max-dicut."""
    x, value = _one(_quarter(_gmd_responder(_gmd_game(inst))), seed, trial)
    return Labeling(tuple(0 if i == inst.T else i + 1 for i in x)), value


def _all_zero_sets_expectation(resp: _Responder) -> Fraction:
    """Mean completion value over all 2^n zero sets, where bit v of mask m
    puts v in the zero set of m."""
    n = len(resp.terms)
    total = 0
    bits = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, TRIAL_CHUNK):
        masks = np.arange(start, min(start + TRIAL_CHUNK, 1 << n), dtype=np.int64)
        zero = (masks[:, None] >> bits) & 1 == 1
        total += sum(resp.game.values(resp.respond(zero)).tolist())
    return Fraction(total, resp.game.denom << n)


def quarter_expectation_gmd(inst: GmdInstance) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    return _all_zero_sets_expectation(_gmd_responder(_gmd_game(inst)))


def quarter_expectation_gp(inst: GpInstance) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    return _all_zero_sets_expectation(_gp_responder(inst)[0])


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


def _lp_round(inst: GmdInstance, marginals: Sequence[Sequence[Fraction]]) -> tuple[_PairGame, _Batch]:
    _check_marginals(inst, marginals)
    game = _gmd_game(inst)
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
        return x, game.values(x)

    return game, batch


def lp_round_gmd(
    inst: GmdInstance,
    marginals: Sequence[Sequence[Fraction]],
    seed: int,
    trial: int = 0,
) -> tuple[Labeling, Fraction, Fraction]:
    """Sample the LP rounding once; also return its exact expectation."""
    expectation = lp_round_expectation(inst, marginals)
    x, value = _one(_lp_round(inst, marginals), seed, trial)
    return Labeling(tuple(0 if i == inst.T else i + 1 for i in x)), value, expectation


# The batch form of each trial function, built once per `run_trials` call.
_BATCHES: dict[Callable, Callable[..., tuple[_PairGame, _Batch]]] = {
    approx_gp_quarter: lambda inst: _quarter(_gp_responder(inst)[0]),
    approx_gmd_quarter: lambda inst: _quarter(_gmd_responder(_gmd_game(inst))),
    lp_round_gmd: _lp_round,
}


@dataclass(frozen=True)
class RandomizedRun:
    """Seeded batch of trials: trial k's exact value is totals[k] / denom."""

    seed: int
    trials: int
    totals: tuple[int, ...]
    denom: int

    @cached_property
    def _floats(self) -> list[float]:
        # int true division is correctly rounded: float(Fraction(t, denom))
        return [t / self.denom for t in self.totals]

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
        return Fraction(sum(self.totals), self.denom * self.trials)


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
    game, batch = _BATCHES[algorithm](inst, **kwargs)
    totals: list[int] = []
    for start in range(0, trials, TRIAL_CHUNK):
        indices = np.arange(start, min(start + TRIAL_CHUNK, trials), dtype=np.uint64)
        totals += batch(seed, indices)[1].tolist()
    return RandomizedRun(seed=seed, trials=trials, totals=tuple(totals), denom=game.denom)
