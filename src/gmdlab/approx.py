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

Every trial runs on the integer pair game of `exact`: the instance is scaled
once, best responses and values are exact integer sums, and each trial
builds one `Fraction(total, denom)`.  Randomness is counter-based (see
rng.py): trial k of master seed s uses substream(s, k), so batch results do
not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    Pricing,
)
from .exact import _gmd_game, _gmd_labels, _gp_game, _PairGame
from .rng import substream


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


def _gp_completion(game: _PairGame, zero: Sequence[bool]) -> list[int]:
    """Price indices: 0 on the zero set, a best response to it elsewhere."""
    x = [0 if z else None for z in zero]
    return [0 if z else game.best_response(v, x)[0] for v, z in enumerate(zero)]


def gp_price_completion(inst: GpInstance, zero: Sequence[bool]) -> Pricing:
    """Best response to a fixed zero set: each non-zero vertex takes the
    profit-maximizing price against its zero neighbors.

    Ties break to the smallest price; no zero neighbor means 0.
    """
    game, domains = _gp_completion_game(inst)
    x = _gp_completion(game, list(zero))
    return Pricing(tuple(domains[v][i] for v, i in enumerate(x)))


def _gp_quarter(inst: GpInstance) -> Callable[[int, int], tuple[Pricing, Fraction]]:
    game, domains = _gp_completion_game(inst)

    def trial(seed: int, k: int) -> tuple[Pricing, Fraction]:
        zero = (substream(seed, k).integers(0, 2, size=inst.n) == 0).tolist()
        x = _gp_completion(game, zero)
        pricing = Pricing(tuple(domains[v][i] for v, i in enumerate(x)))
        return pricing, Fraction(game.value(x), game.denom)

    return trial


def _gmd_quarter(inst: GmdInstance) -> Callable[[int, int], tuple[Labeling, Fraction]]:
    game = _gmd_game(inst)

    def trial(seed: int, k: int) -> tuple[Labeling, Fraction]:
        zero = (substream(seed, k).integers(0, 2, size=inst.n) == 0).tolist()
        labels, total = _gmd_labels(game, zero)
        return Labeling(tuple(labels)), Fraction(total, game.denom)

    return trial


def approx_gp_quarter(inst: GpInstance, seed: int, trial: int = 0) -> tuple[Pricing, Fraction]:
    """One run of the combinatorial quarter algorithm for pricing."""
    return _gp_quarter(inst)(seed, trial)


def approx_gmd_quarter(inst: GmdInstance, seed: int, trial: int = 0) -> tuple[Labeling, Fraction]:
    """One run of the combinatorial quarter algorithm for max-dicut."""
    return _gmd_quarter(inst)(seed, trial)


def quarter_expectation_gmd(inst: GmdInstance) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    game = _gmd_game(inst)
    total = 0
    for mask in range(1 << inst.n):
        total += _gmd_labels(game, [bool(mask >> v & 1) for v in range(inst.n)])[1]
    return Fraction(total, game.denom << inst.n)


def quarter_expectation_gp(inst: GpInstance) -> Fraction:
    """Exact expectation of the quarter algorithm over all coin patterns."""
    game, _ = _gp_completion_game(inst)
    total = 0
    for mask in range(1 << inst.n):
        total += game.value(_gp_completion(game, [bool(mask >> v & 1) for v in range(inst.n)]))
    return Fraction(total, game.denom << inst.n)


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


def _lp_round(
    inst: GmdInstance, marginals: Sequence[Sequence[Fraction]]
) -> Callable[[int, int], tuple[Labeling, Fraction, Fraction]]:
    expectation = lp_round_expectation(inst, marginals)
    game = _gmd_game(inst)
    T = inst.T
    # per vertex: the zero threshold (1+x0)/2, then the running sums of the
    # x_i/2 slices of the remaining mass, as the floats the draws compare to
    thresholds = []
    for dist in marginals:
        acc, slices = 0.0, []
        for i in range(1, T + 1):
            acc += float(dist[i] / 2)
            slices.append(acc)
        thresholds.append((float((1 + dist[0]) / 2), slices))

    def trial(seed: int, k: int) -> tuple[Labeling, Fraction, Fraction]:
        u = substream(seed, k).random(inst.n).tolist()
        values = []
        for draw, (cut, slices) in zip(u, thresholds):
            if draw < cut:
                values.append(0)
                continue
            rest = draw - cut
            values.append(next((i for i, acc in enumerate(slices, 1) if rest < acc), T))
        x = [T if label == 0 else label - 1 for label in values]
        return Labeling(tuple(values)), Fraction(game.value(x), game.denom), expectation

    return trial


def lp_round_gmd(
    inst: GmdInstance,
    marginals: Sequence[Sequence[Fraction]],
    seed: int,
    trial: int = 0,
) -> tuple[Labeling, Fraction, Fraction]:
    """Sample the LP rounding once; also return its exact expectation."""
    return _lp_round(inst, marginals)(seed, trial)


# Batch form of each trial function: `run_trials` scales the instance to
# integers once per batch, not once per trial.
_PREPARE: dict[Callable, Callable] = {
    approx_gp_quarter: _gp_quarter,
    approx_gmd_quarter: _gmd_quarter,
    lp_round_gmd: _lp_round,
}


@dataclass(frozen=True)
class RandomizedRun:
    """Seeded batch of trials with exact per-trial values."""

    seed: int
    trials: int
    values: tuple[Fraction, ...]

    @property
    def mean(self) -> float:
        return sum(float(v) for v in self.values) / self.trials

    @property
    def stddev(self) -> float:
        if self.trials < 2:
            return 0.0
        m = self.mean
        var = sum((float(v) - m) ** 2 for v in self.values) / (self.trials - 1)
        return math.sqrt(var)

    @property
    def stderr(self) -> float:
        return self.stddev / math.sqrt(self.trials)

    @property
    def exact_mean(self) -> Fraction:
        return sum(self.values, Fraction(0)) / self.trials


def run_trials(
    algorithm: Callable[..., tuple],
    inst,
    trials: int,
    seed: int,
    **kwargs,
) -> RandomizedRun:
    """Run `algorithm(inst, seed, trial=k, **kwargs)` for k = 0..trials-1."""
    prepare = _PREPARE.get(algorithm)
    if prepare is None:
        values = [algorithm(inst, seed=seed, trial=k, **kwargs)[1] for k in range(trials)]
    else:
        one = prepare(inst, **kwargs)
        values = [one(seed, k)[1] for k in range(trials)]
    return RandomizedRun(seed=seed, trials=trials, values=tuple(values))
