"""Reduction from max-dicut on DAGs to graph pricing, and its decoding.

Given an acyclic labeled instance with normalized weights and an integer
base M >= 2, number the vertices so every arc goes from a larger number to a
smaller one, and give arc (u, v) the budget M^(T s(v) + label - 1) and weight
w(u, v) / budget.  A labeling maps to the canonical pricing
p(v) = M^(T s(v) + l(v) - 1) (0 for label 0), which earns at least the
labeling's value.  Conversely any pricing decodes back to a labeling that
captures all but 1/M of the pricing's "principal part" (head contributions),
while tail contributions are bounded by twice the sum of per-vertex maximum
out-weights.  Together: the pricing optimum is sandwiched between the dicut
optimum and the dicut optimum + 1/M + 2/ndeg.

Budgets grow like M^(T n); exponents are kept symbolically and evaluated
through exact big-integer rationals only where values are needed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    Pricing,
)


class CycleError(InstanceError):
    """Input digraph has a directed cycle; carries a witness."""

    def __init__(self, cycle: list[int]):
        super().__init__(f"digraph contains a cycle: {cycle}")
        self.cycle = cycle


def topo_number(inst: GmdInstance) -> tuple[int, ...]:
    """Injective s: V -> 1..n with s(tail) > s(head) on every arc.

    Deterministic: numbers are assigned in increasing order to the vertex of
    smallest id whose out-neighbors are all numbered already.
    """
    out_remaining = [0] * inst.n
    in_neighbors: list[list[int]] = [[] for _ in range(inst.n)]
    for a in inst.arcs:
        out_remaining[a.tail] += 1
        in_neighbors[a.head].append(a.tail)
    ready = [v for v in range(inst.n) if out_remaining[v] == 0]
    heapq.heapify(ready)
    s = [0] * inst.n
    next_number = 1
    while ready:
        v = heapq.heappop(ready)
        s[v] = next_number
        next_number += 1
        for u in in_neighbors[v]:  # one entry per arc u -> v
            out_remaining[u] -= 1
            if out_remaining[u] == 0:
                heapq.heappush(ready, u)
    if next_number <= inst.n:
        raise CycleError(_find_cycle(inst, [v for v in range(inst.n) if s[v] == 0]))
    return tuple(s)


def _find_cycle(inst: GmdInstance, remaining: list[int]) -> list[int]:
    rem = set(remaining)
    succ = {v: [] for v in rem}
    for a in inst.arcs:
        if a.tail in rem and a.head in rem:
            succ[a.tail].append(a.head)
    # every remaining vertex has an out-arc among remaining; walk until repeat
    v = min(rem)
    path, pos = [], {}
    while v not in pos:
        pos[v] = len(path)
        path.append(v)
        v = min(succ[v])
    return path[pos[v]:]


@dataclass(frozen=True)
class ReductionArtifact:
    gp: GpInstance
    M: int
    s: tuple[int, ...]
    source: GmdInstance

    def budget_exponent(self, v: int, label: int) -> int:
        """The exponent of the budget M^k of every arc into v with `label`."""
        return self.source.T * self.s[v] + label - 1


def reduce_gmd_to_gp(inst: GmdInstance, M: int) -> ReductionArtifact:
    if M < 2:
        raise InstanceError(f"budget base M must be >= 2, got {M}")
    if not inst.weights_normalized:
        raise InstanceError("reduction requires normalized weights")
    s = topo_number(inst)
    T = inst.T
    edges = []
    for a in inst.arcs:
        budget = Fraction(M) ** (T * s[a.head] + a.label - 1)
        edges.append((a.tail, a.head, budget, a.weight / budget))
    gp = GpInstance.of(inst.n, edges)
    return ReductionArtifact(gp=gp, M=M, s=s, source=inst)


def canonical_pricing(art: ReductionArtifact, lab: Labeling) -> Pricing:
    """Power-of-M encoding of a labeling; earns at least the labeling's value."""
    if len(lab) != art.source.n:
        raise InstanceError("labeling does not cover the source instance")
    M = Fraction(art.M)
    prices = []
    for v in range(art.source.n):
        if lab[v] == 0:
            prices.append(Fraction(0))
        else:
            prices.append(M ** art.budget_exponent(v, lab[v]))
    return Pricing(tuple(prices))


def decode_pricing(art: ReductionArtifact, pricing: Pricing) -> Labeling:
    """Bracket each head price into its budget scale, else label 0.

    Label t is assigned at v when some in-arc with label t satisfies
    M^(e-1) < p(v) <= M^e for its budget exponent e.  Brackets of different
    labels at the same head are disjoint, so at most one label can claim a
    vertex; overlapping claims would mean corrupt reduction data and raise.
    """
    src = art.source
    M = Fraction(art.M)
    claimed: dict[int, int] = {}
    for a in src.arcs:
        e = art.budget_exponent(a.head, a.label)
        p = pricing[a.head]
        if M ** (e - 1) < p <= M ** e:
            before = claimed.get(a.head)
            if before is not None and before != a.label:
                raise InstanceError(
                    f"ambiguous decode at vertex {a.head}: labels {before} and {a.label}"
                )
            claimed[a.head] = a.label
    return Labeling(tuple(claimed.get(v, 0) for v in range(src.n)))


def principal_part(art: ReductionArtifact, pricing: Pricing) -> Fraction:
    """Head-side revenue: sum of w_gp(u,v) p(v) over affordable arcs (u, v)."""
    return sum((w * pricing[a.head] for a, w in _affordable(art, pricing)), Fraction(0))


def nonprincipal_part(art: ReductionArtifact, pricing: Pricing) -> Fraction:
    """Tail-side revenue; at most 2 * sum of per-vertex max out-weights."""
    return sum((w * pricing[a.tail] for a, w in _affordable(art, pricing)), Fraction(0))


def _affordable(art: ReductionArtifact, pricing: Pricing):
    """(arc, w_gp) of each source arc whose edge's two prices fit its budget."""
    for a in art.source.arcs:
        budget = Fraction(art.M) ** art.budget_exponent(a.head, a.label)
        if pricing[a.tail] + pricing[a.head] <= budget:
            yield a, a.weight / budget


def canonical_grid(art: ReductionArtifact) -> list[list[Fraction]]:
    """Per-vertex candidates {0} + {M^(T s(v) + i - 1) : i in 1..T}.

    Canonical pricings live on this grid, so its grid optimum is sandwiched
    between the dicut optimum and the decoding upper bound.
    """
    M = Fraction(art.M)
    return [
        [Fraction(0)] + [M ** art.budget_exponent(v, i) for i in range(1, art.source.T + 1)]
        for v in range(art.source.n)
    ]


def serialize_reduced(art: ReductionArtifact, expand: bool = False) -> str:
    """Pricing-instance file with M^k budget tokens (or expanded integers)."""
    lines = ["gp", f"M {art.M}", f"v {art.source.n}"]
    for a in art.source.arcs:
        k = art.budget_exponent(a.head, a.label)
        budget = str(Fraction(art.M) ** k) if expand else f"M^{k}"
        w = a.weight / Fraction(art.M) ** k
        u, v = min(a.tail, a.head), max(a.tail, a.head)
        lines.append(f"e {u} {v} {budget} {w}")
    return "\n".join(lines) + "\n"
