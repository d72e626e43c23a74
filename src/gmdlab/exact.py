"""Exact optimum oracles used as ground truth by every other module.

Both problems maximise a sum of pairwise payoffs over finite per-vertex
domains: labels 0..T for max-dicut, a candidate price grid for pricing.
One engine, `_PairGame`, solves that problem for every oracle and best
response in the package.  Its builders (`_gmd_game`, `_gp_game`) read
each weight, price and budget `Fraction` once, for its numerator and
denominator, and fill the payoff tables with integers over one common
denominator; `_PairGame` divides them by their gcd with it.  No table entry
is a `Fraction`, and no comparison ever touches a `Fraction` or a float.
`opt_gp_grid` runs the cover enumeration; `opt_gmd` picks one of three
enumerators by estimated cost:

* cover enumeration: a vertex cover C of the payoff graph with the least
  product of domain sizes, its assignments in product order; every vertex
  outside C has all its neighbours in C, so it takes its best response on
  its own, the smallest domain index winning ties, and ties between cover
  assignments go to the smaller witness key;
* the zero-set walk: once the zero set is fixed every other vertex
  best-responds on its own, so 2^n masks, vectorised in numpy int64, cover
  all (T+1)^n labelings;
* bucket elimination along a min-fill order, with integer max-sum tables
  (numpy int64 when no partial sum can overflow, Python ints otherwise) of
  at most `ELIM_MAX_BYTES` in all.  One pass finds the smallest
  optimal zero mask: it runs on the payoffs times 2^n with 2^v charged for
  label 0 at each vertex v, and a zero mask is below 2^n, so the penalty
  only breaks ties between optima.

The cover enumeration serves small covers, the walk small n, elimination
sparse games whose min-fill tables stay small.  The cost estimates are
calibrated by measurement (see `_gmd_plan` and `_PairGame.elimination_plan`).

The key gives each oracle its witness contract, whichever enumerator runs.
`opt_gp_grid` returns the first optimal grid point in `itertools.product`
order.  `opt_gmd` returns the greedy completion of the smallest optimal
zero mask: its domain lists the labels 1..T before 0, so a best response
prefers a nonzero label, and the key is the zero mask.  `explored` is the
size of the search space certified: 2^n masks, or the number of grid
points.

On the half-integral grid {0, 1/2, ..., B} with integer budgets the grid
value is the true optimum (a half-integral optimal pricing always exists);
on other grids it is a certified lower bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Sequence, Union

from .caps import Caps
from .core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    Pricing,
    max_incident_budget,
    val_gmd,
    val_gp,
)


# Most bytes the bucket tables of one elimination pass may hold; it keeps
# every bucket's table for the read-back.  Four 2^20-entry int64 arrays: no
# more than one zero-set walk chunk allocates.  An int64 entry counts 8
# bytes, a Python-int entry 64 (its pointer and a multi-digit int object).
ELIM_MAX_BYTES = 32 << 20


@dataclass(frozen=True)
class OptResult:
    value: Fraction
    witness: Union[Labeling, Pricing]
    explored: int


class _PairGame:
    """Maximise the sum over vertex pairs {u, v} of P_uv[x_u][x_v], where
    x_v ranges over domain indices 0..sizes[v]-1.

    `tables` maps a pair (u, v) to its payoff rows (indexed by x_u, then
    x_v) as integers over the common denominator `scale`.  They are divided
    once by g, the gcd of `scale` and every payoff, so each payoff is an exact
    int over `denom` = scale // g, the least common denominator of the
    payoffs in lowest terms.
    """

    def __init__(self, sizes: Sequence[int], tables: dict, scale: int):
        self.sizes = tuple(sizes)
        g = scale
        for rows in tables.values():
            for row in rows:
                g = gcd(g, *row)
        self.denom = scale // g
        self.pairs = []
        # nbrs[v][u][x_u] is the payoff vector over x_v given u's choice
        self.nbrs: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in self.sizes]
        for (u, v), ints in tables.items():
            if g > 1:
                ints = [[p // g for p in row] for row in ints]
            self.pairs.append((u, v, ints))
            self.nbrs[v][u] = [tuple(row) for row in ints]
            self.nbrs[u][v] = list(zip(*ints))

    def value(self, x: Sequence[int]) -> int:
        return sum(t[x[u]][x[v]] for u, v, t in self.pairs)

    def best_response(self, v: int, x: Sequence, width: int | None = None) -> tuple[int, int]:
        """(index, payoff) of v's best choice among its first `width` indices
        against the neighbours u with x[u] set (not None); the smallest index
        wins ties."""
        vec = None
        for u, cols in self.nbrs[v].items():
            if x[u] is not None:
                col = cols[x[u]]
                vec = col if vec is None else [a + b for a, b in zip(vec, col)]
        if vec is None:
            return 0, 0
        if width is not None:
            vec = vec[:width]
        best = max(vec)
        return vec.index(best), best

    def cover(self, bound: int | None = None) -> tuple[int, ...] | None:
        """A vertex cover of the payoff graph with the least product of
        domain sizes, by branch and bound: either the vertex of largest
        degree is in the cover, or all its neighbours are.  Vertices with one
        choice join the cover for free.

        With a `bound` the search prunes every branch whose product reaches
        it and returns None when no cover's product is below it; a cover it
        does return is the one the unbounded search returns."""
        sizes = self.sizes
        free = {v for v, s in enumerate(sizes) if s == 1 and self.nbrs[v]}
        graph = {}
        for v, nb in enumerate(self.nbrs):
            rest = set(nb) - free
            if v not in free and rest:
                graph[v] = rest
        best = [1 + prod(sizes[v] for v in graph), set(graph)]
        if bound is not None and bound < best[0]:
            best = [bound, None]

        def branch(graph: dict, chosen: set, cost: int) -> None:
            if cost >= best[0]:
                return
            if not graph:
                best[:] = [cost, chosen]
                return
            v = max(graph, key=lambda u: (len(graph[u]), -u))
            branch(_drop(graph, {v}), chosen | {v}, cost * sizes[v])
            nv = graph[v]
            branch(_drop(graph, nv), chosen | nv, cost * prod(sizes[u] for u in nv))

        branch(graph, set(), 1)
        return None if best[1] is None else tuple(sorted(best[1] | free))

    def maximise(self, cover: Sequence[int], key: Callable) -> tuple[int, list[int]]:
        """Optimum and its witness: the assignment with the smallest
        `key(x)` among the optimal ones that give every vertex outside
        `cover` its smallest best-response index."""
        sizes, nbrs = self.sizes, self.nbrs
        n = len(sizes)
        cover = sorted(cover, key=lambda c: sizes[c] > 1)
        depth = {c: d for d, c in enumerate(cover)}
        outer = [v for v in range(n) if v not in depth and nbrs[v]]
        # per cover depth d: payoffs with earlier cover vertices, outer
        # vertices whose score vectors gain a column, and outer vertices whose
        # last cover neighbour is cover[d], so their best payoff is known
        inner = [[(u, cols) for u, cols in nbrs[c].items() if depth.get(u, d) < d]
                 for d, c in enumerate(cover)]
        touch: list[list] = [[] for _ in cover]
        close: list[list[int]] = [[] for _ in cover]
        for v in outer:
            for c in nbrs[v]:
                touch[depth[c]].append((v, nbrs[v][c]))
            close[max(depth[c] for c in nbrs[v])].append(v)
        x = [0] * n
        score: list = [None] * n
        best: list = [-1, None, None]

        def leaf(val: int) -> None:
            if val < best[0]:
                return
            for v in outer:
                vec = score[v]
                x[v] = vec.index(max(vec))
            k = key(x)
            if val > best[0] or k < best[1]:
                best[:] = [val, k, list(x)]

        def assign(d: int, xc: int, val: int) -> int:
            """Set cover[d] to xc; `val` plus the payoffs that settles."""
            x[cover[d]] = xc
            for u, cols in inner[d]:
                val += cols[x[u]][xc]
            for v, cols in touch[d]:
                score[v] = cols[xc] if score[v] is None else [a + b for a, b in zip(score[v], cols[xc])]
            for v in close[d]:
                val += max(score[v])
            return val

        def descend(d: int, val: int) -> None:
            if d == len(cover):
                leaf(val)
                return
            saved = [score[v] for v, _ in touch[d]]
            for xc in range(sizes[cover[d]]):
                for (v, _), old in zip(touch[d], saved):
                    score[v] = old
                descend(d + 1, assign(d, xc, val))
            for (v, _), old in zip(touch[d], saved):
                score[v] = old

        # single-choice vertices come first and are set without recursing, so
        # the recursion is only as deep as the cover has real choices
        d, val = 0, 0
        while d < len(cover) and sizes[cover[d]] == 1:
            val = assign(d, 0, val)
            d += 1
        descend(d, val)
        return best[0], best[2]

    def elimination_order(self) -> tuple[list[int], list[int]]:
        """Min-fill order of the vertices with a payoff, and the number of
        entries of each one's bucket table.

        Eliminating v joins its remaining neighbours into a clique; the next
        vertex is the one whose clique adds the fewest new edges, then the one
        of least degree, then the smallest.
        """
        sizes = self.sizes
        adj = {v: set(nb) for v, nb in enumerate(self.nbrs) if nb}

        def fill(v: int) -> int:
            nb = list(adj[v])
            return sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in adj[a])

        # a vertex's fill changes only when its neighbours or the edges among
        # them do, so after v goes only v's neighbours and theirs are rescored
        fills = {v: fill(v) for v in adj}
        order, entries = [], []
        while adj:
            v = min(adj, key=lambda u: (fills[u], len(adj[u]), u))
            nb = adj.pop(v)
            del fills[v]
            size = sizes[v]
            for u in nb:
                adj[u] |= nb
                adj[u] -= {u, v}
                size *= sizes[u]
            for u in set(nb).union(*(adj[u] for u in nb)):
                fills[u] = fill(u)
            order.append(v)
            entries.append(size)
        return order, entries

    def elimination_plan(self, budget: int | None) -> tuple[int, list[int]] | None:
        """Estimated cost of building the min-fill order and running
        `_gmd_elim_mask` along it, and the order; None when the estimate is
        not below `budget` (None: no bound) or the pass's bucket tables would
        take more than `ELIM_MAX_BYTES`.

        The order is built only when the estimate with the order counted
        twice and a lower bound on the entries (the first bucket's table
        spans its vertex and all of that vertex's neighbours) is below
        `budget`, so elimination can save more than a wasted order costs.

        The estimate is in the units of the walk estimate of `_gmd_plan`.
        Fitted over 154 random max-dicut games (n 10-20, T 1-3, 10-100 arcs,
        tables up to 0.3M entries; 2-core Xeon, Python 3.11, numpy 2.4): the
        order takes 7.7 us per payoff pair and 4.2 us per vertex, the pass
        9.8 us per pair, 8.8 us per vertex and 0.010 us per table entry (0.08
        us with Python-int tables).  At n = 12 the walk takes about 4 ns per
        unit, so that is 1900 and 1000 units for the order, and 2400, 2200
        and 3 (20 with Python ints) for the pass.
        """
        k = sum(1 for nb in self.nbrs if nb)
        order_cost = 1900 * len(self.pairs) + 1000 * k
        cost = order_cost + 2400 * len(self.pairs) + 2200 * k
        first = min(self.sizes[v] * prod(self.sizes[u] for u in nb)
                    for v, nb in enumerate(self.nbrs) if nb)
        if budget is not None and cost + order_cost + 3 * first >= budget:
            return None
        order, entries = self.elimination_order()
        wide = self.int64(len(self.sizes))
        if sum(entries) * (8 if wide else 64) > ELIM_MAX_BYTES:
            return None
        cost += (3 if wide else 20) * sum(entries)
        return (cost, order) if budget is None or cost < budget else None

    def int64(self, shift: int = 0) -> bool:
        """Whether numpy int64 holds every partial sum of the payoffs times
        2^shift, less charges that add up to less than 2^shift: payoffs are
        nonnegative, so no such sum exceeds (the sum of each pair's largest
        payoff + 1) * 2^shift in absolute value.  For max-dicut that sum of
        pair maxima is at most the walk's sum of scaled weights."""
        top = sum(max(max(row) for row in t) for _, _, t in self.pairs)
        return (top + 1) << shift < 2**62

    def arrays(self, shift: int = 0) -> list:
        """The payoff tables times 2^shift as numpy arrays, one (u, v, array)
        per pair: int64 when `int64(shift)` holds, Python ints otherwise."""
        import numpy as np

        dtype = np.int64 if self.int64(shift) else object
        return [(u, v, np.array(t, dtype=dtype) * (1 << shift)) for u, v, t in self.pairs]

    def _eliminate(self, order: Sequence[int], tables: list) -> tuple[int, list[int]]:
        """Optimum and one optimal assignment of the game with the payoff
        tables `tables` (as from `arrays`), by bucket elimination along
        `order`, which lists every vertex with a payoff.

        A bucket holds the tables whose first vertex in `order` is its own,
        adds them up and passes their maximum over its axis on to the bucket
        of the next vertex.  The assignment is read back in reverse order,
        each vertex taking the first maximising index against the vertices
        eliminated after it; a vertex with no payoff takes index 0.
        """
        pos = {v: p for p, v in enumerate(order)}
        buckets: list[list] = [[] for _ in order]
        for u, v, arr in tables:
            pu, pv = pos[u], pos[v]
            if pu < pv:
                buckets[pu].append(((pu, pv), arr))
            else:
                buckets[pv].append(((pv, pu), arr.T))
        const = 0
        kept: list = []
        for factors in buckets:
            scope = sorted({q for s, _ in factors for q in s})
            total = None
            for s, arr in factors:
                if len(s) < len(scope):
                    arr = arr.reshape([arr.shape[s.index(q)] if q in s else 1 for q in scope])
                total = arr if total is None else total + arr
            kept.append((scope, total))
            msg = total.max(axis=0)
            if len(scope) == 1:
                const += msg
            else:
                buckets[scope[1]].append((tuple(scope[1:]), msg))
        x = [0] * len(order)
        for p in reversed(range(len(order))):
            scope, total = kept[p]
            x[p] = int(total[(slice(None),) + tuple(x[q] for q in scope[1:])].argmax())
        out = [0] * len(self.sizes)
        for v, p in pos.items():
            out[v] = x[p]
        return int(const), out


def _drop(graph: dict, removed: set) -> dict:
    """`graph` without the vertices in `removed` and the ones left isolated."""
    out = {}
    for v, nb in graph.items():
        if v not in removed:
            rest = nb - removed
            if rest:
                out[v] = rest
    return out


def _gmd_game(inst: GmdInstance) -> _PairGame:
    """Max-dicut as a pair game.  Domain index i < T is label i + 1 and index
    T is label 0, so the smallest index prefers a nonzero label on ties.
    Weights are scaled once to integers over the lcm of their denominators."""
    T = inst.T
    scale = lcm(*(a.weight.denominator for a in inst.arcs))
    tables: dict = {}
    for a in inst.arcs:
        u, v = sorted((a.tail, a.head))
        rows = tables.get((u, v))
        if rows is None:
            rows = tables[u, v] = [[0] * (T + 1) for _ in range(T + 1)]
        w = a.weight.numerator * (scale // a.weight.denominator)
        if a.tail == u:
            rows[T][a.label - 1] += w
        else:
            rows[a.label - 1][T] += w
    return _PairGame([T + 1] * inst.n, tables, scale)


def _gmd_labels(game: _PairGame, zero: Sequence[bool]) -> tuple[list[int], int]:
    """Labels and integer value of the greedy completion of the zero set
    (`zero[v]` true when v is in it): each other vertex best-responds to it."""
    T = game.sizes[0] - 1
    x = [T if z else None for z in zero]
    labels, total = [], 0
    for v, xv in enumerate(x):
        if xv is None:
            i, gain = game.best_response(v, x, width=T)
            labels.append(i + 1)
            total += gain
        else:
            labels.append(0)
    return labels, total


def greedy_completion(inst: GmdInstance, zero_set: frozenset[int] | set[int]) -> Labeling:
    """Optimal labeling among those assigning 0 exactly on `zero_set`.

    Vertices outside the zero set get the label in 1..T with maximum weight
    of incoming arcs from the zero set, ties broken by smallest label; with
    no zero in-neighbor that is label 1.
    """
    zero_set = frozenset(zero_set)
    for v in zero_set:
        if not (0 <= v < inst.n):
            raise InstanceError(f"zero-set vertex {v} out of range")
    zero = [v in zero_set for v in range(inst.n)]
    return Labeling(tuple(_gmd_labels(_gmd_game(inst), zero)[0]))


def opt_gmd(inst: GmdInstance, caps: Caps = Caps()) -> OptResult:
    """Exact max-dicut optimum over all (T+1)^n labelings.

    Runs one of three enumerators, chosen by `_gmd_plan` on estimated cost:
    the cover enumeration, the zero-set walk or bucket elimination.  Each
    returns the smallest optimal zero mask, whose greedy completion is the
    witness.
    """
    n = inst.n
    if n > caps.opt_gmd_n:
        raise CapExceeded(f"opt_gmd: n={n} exceeds cap {caps.opt_gmd_n}")
    if not inst.arcs:
        return OptResult(
            value=Fraction(0), witness=greedy_completion(inst, set()), explored=1
        )
    game = _gmd_game(inst)
    T = inst.T
    scaled = [a.weight.numerator * (game.denom // a.weight.denominator) for a in inst.arcs]
    path, plan = _gmd_plan(inst, game, scaled)
    if path == "walk":
        best_mask = _zero_set_walk(inst, scaled)
    elif path == "elim":
        best_mask = _gmd_elim_mask(game, plan)
    else:
        best_mask = _zero_mask(game.maximise(plan, key=lambda x: _zero_mask(x, T))[1], T)
    labels, total = _gmd_labels(game, [bool(best_mask >> v & 1) for v in range(n)])
    witness = Labeling(tuple(labels))
    best_val = Fraction(total, game.denom)
    assert val_gmd(inst, witness) == best_val
    return OptResult(value=best_val, witness=witness, explored=1 << n)


def _gmd_plan(inst: GmdInstance, game: _PairGame,
              scaled: list[int]) -> tuple[str, Sequence[int] | None]:
    """The enumerator `opt_gmd` runs and what it runs along: ("cover", the
    cover), ("walk", None) or ("elim", the elimination order).  The least
    estimated cost wins, ties to the cover, then to the walk.  The walk runs
    only when its int64 sums cannot overflow, elimination only when its
    tables stay small; the cover search is bounded by the better of the two,
    so it stops as soon as no cover can win."""
    # Costs in numpy int64 operations on one mask and one arc: a cover leaf in
    # Python costs about 360 of them, a numpy call (three per arc and chunk)
    # about 200.
    n, m = inst.n, len(inst.arcs)
    walk = None
    if sum(scaled) < 2**62:
        walk = (1 << n) * m + 600 * m * max(1, (1 << n) >> 20)
    elim = game.elimination_plan(walk)
    budget = walk if elim is None else elim[0]
    cover = game.cover(None if budget is None else budget // 360 + 1)
    if cover is not None:
        return "cover", cover
    return ("walk", None) if elim is None else ("elim", elim[1])


def _zero_mask(x: Sequence[int], T: int) -> int:
    """Zero mask of an assignment of the max-dicut game: bit v for label 0."""
    return sum(1 << v for v, i in enumerate(x) if i == T)


def _gmd_elim_mask(game: _PairGame, order: Sequence[int]) -> int:
    """Smallest optimal zero mask by one pass of `_eliminate` along `order`.

    The pass runs on the payoffs times 2^n, with 2^v charged for label 0 at
    each vertex v on one of its tables, so an assignment scores 2^n times
    its value less its zero mask.  Values are integers and a zero mask is
    below 2^n, so the penalised optimum is an optimum of the game, and the
    one of smallest zero mask among them."""
    n = len(game.sizes)
    T = game.sizes[0] - 1
    tables = game.arrays(n)
    charged: set[int] = set()
    for u, v, arr in tables:
        if u not in charged:
            arr[T] -= 1 << u
            charged.add(u)
        if v not in charged:
            arr[:, T] -= 1 << v
            charged.add(v)
    return _zero_mask(game._eliminate(order, tables)[1], T)


def _zero_set_walk(inst: GmdInstance, scaled: list[int]) -> int:
    """Smallest zero mask of largest value, every mask in int64 numpy."""
    import numpy as np

    n = inst.n
    by_head: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for a, w in zip(inst.arcs, scaled):
        by_head.setdefault(a.head, {}).setdefault(a.label, []).append((a.tail, w))

    best_val = 0
    best_mask = 0
    chunk_bits = min(n, 20)
    for start in range(0, 1 << n, 1 << chunk_bits):
        masks = np.arange(start, start + (1 << chunk_bits), dtype=np.int64)
        total = np.zeros(masks.shape, dtype=np.int64)
        for head, by_label in by_head.items():
            head_out = ((masks >> head) & 1) ^ 1
            best_gain = None
            for tails in by_label.values():
                gain = np.zeros(masks.shape, dtype=np.int64)
                for tail, w in tails:
                    gain += ((masks >> tail) & 1) * w
                best_gain = gain if best_gain is None else np.maximum(best_gain, gain)
            total += head_out * best_gain
        i = int(np.argmax(total))
        if int(total[i]) > best_val:
            best_val = int(total[i])
            best_mask = start + i
    return best_mask


def opt_gmd_bruteforce(inst: GmdInstance, caps: Caps = Caps()) -> OptResult:
    """Independent oracle: full enumeration of all (T+1)^n labelings."""
    states = (inst.T + 1) ** inst.n
    if states > caps.brute_states:
        raise CapExceeded(f"brute force: {states} labelings exceed cap {caps.brute_states}")
    best_val = Fraction(0)
    best: tuple[int, ...] = tuple([0] * inst.n)
    arcs = inst.arcs
    for assignment in itertools.product(range(inst.T + 1), repeat=inst.n):
        val = Fraction(0)
        for a in arcs:
            if assignment[a.tail] == 0 and assignment[a.head] == a.label:
                val += a.weight
        if val > best_val:
            best_val, best = val, assignment
    return OptResult(value=best_val, witness=Labeling(best), explored=states)


def half_integral_grid(inst: GpInstance) -> list[list[Fraction]]:
    """Per-vertex candidates {0, 1/2, ..., B_v} where B_v caps incident budgets.

    Exact for integer budgets; for fractional budgets the grid is still legal
    input but the result is only a lower bound on the optimum.
    """
    return [[Fraction(k, 2) for k in range(int(2 * b) + 1)] for b in max_incident_budget(inst)]


def _gp_game(inst: GpInstance, candidates: Sequence[Sequence[Fraction]]) -> _PairGame:
    """Pricing as a pair game over candidate indices; parallel edges add up.

    Prices and budgets are scaled once to integers over Dp, the lcm of their
    denominators, and weights over Dw, so an entry W_e * (P_u + P_v), kept
    when P_u + P_v <= B_e, is an integer over Dp * Dw."""
    dp = lcm(*(p.denominator for c in candidates for p in c),
             *(e.budget.denominator for e in inst.edges))
    dw = lcm(*(e.weight.denominator for e in inst.edges))
    prices = [[p.numerator * (dp // p.denominator) for p in c] for c in candidates]
    tables: dict = {}
    for e in inst.edges:
        u, v = sorted((e.u, e.v))
        cu, cv = prices[u], prices[v]
        rows = tables.get((u, v))
        if rows is None:
            rows = tables[u, v] = [[0] * len(cv) for _ in cu]
        w = e.weight.numerator * (dw // e.weight.denominator)
        b = e.budget.numerator * (dp // e.budget.denominator)
        for row, pu in zip(rows, cu):
            for j, pv in enumerate(cv):
                s = pu + pv
                if s <= b:
                    row[j] += w * s
    return _PairGame([len(c) for c in candidates], tables, dp * dw)


def opt_gp_grid(
    inst: GpInstance,
    candidates: Sequence[Sequence[Fraction]],
    caps: Caps = Caps(),
) -> OptResult:
    """Exact maximum of the pricing value over the candidate grid; the
    witness is the first optimal grid point in product order."""
    if len(candidates) != inst.n:
        raise InstanceError("need one candidate list per vertex")
    points = 1
    for cand in candidates:
        if not cand:
            raise InstanceError("empty candidate list")
        for p in cand:
            if p < 0:
                raise InstanceError(f"negative candidate price {p}")
        points *= len(cand)
    if points > caps.gp_grid_points:
        raise CapExceeded(f"grid has {points} points, cap {caps.gp_grid_points}")

    game = _gp_game(inst, candidates)
    total, point = game.maximise(game.cover(), key=tuple)
    best_val = Fraction(total, game.denom)
    witness = Pricing(tuple(candidates[v][i] for v, i in enumerate(point)))
    assert val_gp(inst, witness) == best_val
    return OptResult(value=best_val, witness=witness, explored=points)
