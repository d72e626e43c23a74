"""Exact optimum oracles used as ground truth by every other module.

Both problems maximise a sum of pairwise payoffs over finite per-vertex
domains: labels 0..T for max-dicut, a candidate price grid for pricing.
One engine, `_PairGame`, solves that problem for every oracle and best
response in the package.  Every payoff is scaled once to an integer over a
common denominator, so no comparison ever touches a `Fraction` or a float.
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
  at most `ELIM_MAX_ENTRIES` entries in all.  The witness is built by
  clamping vertices n-1 down to 0 to a nonzero label while an optimum
  survives there, one more pass for each vertex that the last pass's
  optimal assignment gives label 0.

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
from functools import cached_property
from math import prod
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


# Most bucket-table entries one elimination pass may hold: it keeps every
# bucket's table for the read-back, so this bounds its memory by a few arrays
# of the size of a zero-set walk chunk.
ELIM_MAX_ENTRIES = 1 << 20


@dataclass(frozen=True)
class OptResult:
    value: Fraction
    witness: Union[Labeling, Pricing]
    explored: int


class _PairGame:
    """Maximise the sum over vertex pairs {u, v} of P_uv[x_u][x_v], where
    x_v ranges over domain indices 0..sizes[v]-1.

    `tables` maps a pair (u, v) to its payoff rows (indexed by x_u, then
    x_v) as Fractions; they are scaled once to exact ints over `denom`.
    """

    def __init__(self, sizes: Sequence[int], tables: dict):
        from math import lcm

        self.sizes = tuple(sizes)
        self.denom = lcm(*(p.denominator for t in tables.values() for row in t for p in row))
        d = self.denom
        self.pairs = []
        # nbrs[v][u][x_u] is the payoff vector over x_v given u's choice
        self.nbrs: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in self.sizes]
        for (u, v), rows in tables.items():
            ints = [[p.numerator * (d // p.denominator) for p in row] for row in rows]
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
        """Estimated cost of `_gmd_elim_mask` along the min-fill order, and
        the order; None when the estimate is not below `budget` (None: no
        bound) or the bucket tables of a pass would have more than
        `ELIM_MAX_ENTRIES` entries in all.  The order is built only when the
        cost without its table entries is below `budget`.

        The estimate is in the units of the cover and walk estimates of
        `_gmd_plan`: one pass per vertex of the order and one more, each adding
        every table into its bucket and taking a maximum.  Fitted on single
        passes over 26 random max-dicut games (n 8-24, T 1-4, 10-100 arcs,
        tables up to 2.9M entries; 2-core Xeon, Python 3.11, numpy 2.4): a
        pass takes 3.7 us per numpy call, of which it makes about two per
        payoff pair and three per bucket, plus 0.007 us per entry of the
        bucket tables (0.16 us with Python-int tables).  At the walk's 10 ns
        per unit that is 360 units per call, as much as a cover leaf, and 1
        unit per entry (20 with Python ints).
        """
        k = sum(1 for nb in self.nbrs if nb)
        calls = (k + 1) * 360 * (2 * len(self.pairs) + 3 * k)
        if budget is not None and calls >= budget:
            return None
        order, entries = self.elimination_order()
        if sum(entries) > ELIM_MAX_ENTRIES:
            return None
        cost = calls + (k + 1) * (1 if self.int64 else 20) * sum(entries)
        return (cost, order) if budget is None or cost < budget else None

    @cached_property
    def int64(self) -> bool:
        """Whether every partial sum of payoffs fits numpy int64: payoffs are
        nonnegative, so no sum exceeds that of each pair's largest one (for
        max-dicut at most the walk's sum of scaled weights)."""
        return sum(max(max(row) for row in t) for _, _, t in self.pairs) < 2**62

    @cached_property
    def _arrays(self) -> list:
        """The payoff tables as numpy arrays: int64, or Python ints when
        `int64` fails."""
        import numpy as np

        dtype = np.int64 if self.int64 else object
        return [(u, v, np.array(t, dtype=dtype)) for u, v, t in self.pairs]

    def _eliminate(self, order: Sequence[int], allowed: Sequence) -> tuple[int, list[int]]:
        """Optimum and one optimal assignment of the game restricted to the
        domain indices `allowed[v]` (None: all of them), by bucket
        elimination along `order`.

        A vertex with one choice left is folded into its neighbours' tables.
        Every other one has an integer table axis; a bucket holds the tables
        whose first vertex in `order` is its own, adds them up and passes
        their maximum over its axis on to the bucket of the next vertex.  The
        assignment is read back in reverse order, each vertex taking the
        first maximising index against the vertices eliminated after it.
        """
        pos: dict[int, int] = {}
        for v in order:
            if allowed[v] is None or len(allowed[v]) > 1:
                pos[v] = len(pos)
        buckets: list[list] = [[] for _ in pos]
        const = 0
        for u, v, arr in self._arrays:
            if allowed[u] is not None:
                arr = arr[allowed[u]]
            if allowed[v] is not None:
                arr = arr[:, allowed[v]]
            pu, pv = pos.get(u), pos.get(v)
            if pu is None and pv is None:
                const += arr[0, 0]
            elif pu is None:
                buckets[pv].append(((pv,), arr[0]))
            elif pv is None:
                buckets[pu].append(((pu,), arr[:, 0]))
            elif pu < pv:
                buckets[pu].append(((pu, pv), arr))
            else:
                buckets[pv].append(((pv, pu), arr.T))
        kept: list = [None] * len(pos)
        for p, factors in enumerate(buckets):
            if not factors:
                continue
            scope = sorted({q for s, _ in factors for q in s})
            total = None
            for s, arr in factors:
                if len(s) < len(scope):
                    arr = arr.reshape([arr.shape[s.index(q)] if q in s else 1 for q in scope])
                total = arr if total is None else total + arr
            kept[p] = (scope, total)
            msg = total.max(axis=0)
            if len(scope) == 1:
                const += msg
            else:
                buckets[scope[1]].append((tuple(scope[1:]), msg))
        x = [0] * len(pos)
        for p in reversed(range(len(pos))):
            if kept[p] is not None:
                scope, total = kept[p]
                x[p] = int(total[(slice(None),) + tuple(x[q] for q in scope[1:])].argmax())
        out = [0 if a is None else a[0] for a in allowed]
        for v, p in pos.items():
            out[v] = x[p] if allowed[v] is None else allowed[v][x[p]]
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
    T is label 0, so the smallest index prefers a nonzero label on ties."""
    T = inst.T
    tables: dict = {}
    for a in inst.arcs:
        u, v = sorted((a.tail, a.head))
        rows = tables.setdefault((u, v), [[Fraction(0)] * (T + 1) for _ in range(T + 1)])
        if a.tail == u:
            rows[T][a.label - 1] += a.weight
        else:
            rows[a.label - 1][T] += a.weight
    return _PairGame([T + 1] * inst.n, tables)


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
    """Smallest optimal zero mask by passes of `_eliminate` along `order`:
    from vertex n-1 down to 0, each vertex with arcs is clamped to the
    labels 1..T if an optimum survives there, and to 0 otherwise.

    Every pass returns an optimal assignment y that respects the clamps so
    far.  A vertex that y gives a nonzero label is clamped without a pass;
    otherwise one pass tests the nonzero labels, and when the optimum
    survives its assignment becomes the new y."""
    T = game.sizes[0] - 1
    nonzero = list(range(T))
    allowed: list = [None] * len(game.sizes)
    best, y = game._eliminate(order, allowed)
    for v in sorted(order, reverse=True):
        allowed[v] = nonzero
        if y[v] == T:
            val, z = game._eliminate(order, allowed)
            if val == best:
                y = z
            else:
                allowed[v] = [T]
    return _zero_mask(y, T)


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
    """Pricing as a pair game over candidate indices; parallel edges add up."""
    tables: dict = {}
    for e in inst.edges:
        u, v = sorted((e.u, e.v))
        cu, cv = candidates[u], candidates[v]
        rows = tables.setdefault((u, v), [[Fraction(0)] * len(cv) for _ in cu])
        for i, pu in enumerate(cu):
            row = rows[i]
            for j, pv in enumerate(cv):
                s = pu + pv
                if s <= e.budget:
                    row[j] += e.weight * s
    return _PairGame([len(c) for c in candidates], tables)


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
