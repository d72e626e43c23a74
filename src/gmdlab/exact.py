"""Exact optimum oracles used as ground truth by every other module.

Both problems maximise a sum of pairwise payoffs over finite per-vertex
domains: labels 0..T for max-dicut, a candidate price grid for pricing.
One engine, `_PairGame`, solves that problem for every oracle and best
response in the package.  Its builders (`_gmd_game`, `_gp_game`) read
each weight, price and budget `Fraction` once, for its numerator and
denominator, and fill the payoff tables with integers over one common
denominator; `_PairGame` divides them by their gcd with it.  No table entry
is a `Fraction`, and no comparison ever touches a `Fraction` or a float.

Once a zero set is fixed, every other vertex best-responds to it on its
own: the quarter algorithms take one such completion, and the max-dicut
optimum is the best one over all zero sets.  `_Responder` holds that best
response in one layout: for each vertex v and index j below its width,
the nonzero (neighbour u, payoff of j against u's zero index) terms.  v
takes the first index of largest score, the sum of the terms whose u is
in the zero set, and index 0 when it has no term.  `respond_one` reads
the terms for one zero set in plain Python, `respond` for numpy rows of
zero sets, and the zero-set walk takes the largest score for every mask.

Two enumerators serve the oracles:

* the zero-set walk: 2^n masks, vectorised in numpy int64, cover all
  (T+1)^n labelings.  It serves dense max-dicut games;
* bucket elimination along a min-fill order, with integer max-sum tables
  (numpy int64 when no partial sum can overflow, Python ints otherwise) of
  at most `ELIM_MAX_BYTES` in all.  It serves sparse max-dicut games and
  every pricing grid.

`opt_gmd` runs whichever has the lesser estimated cost (see `_gmd_plan` and
`_PairGame.elimination_plan`, calibrated by measurement); `opt_gp_grid`
always eliminates.  Each oracle refuses with CapExceeded, before any
enumeration, when no enumerator fits.

Each oracle has its witness contract.  `opt_gmd` returns the greedy
completion of the smallest optimal zero mask: its domain lists the labels
1..T before 0, so a best response prefers a nonzero label.  `opt_gp_grid`
returns the first optimal grid point in `itertools.product` order.  The
walk finds the smallest optimal mask by its scan order; one elimination
pass (`_PairGame.first_optimum`) finds either witness by a penalty: the
payoffs are scaled by S and each (vertex, index) is charged so that an
assignment's charges add up to less than S and rank its witness key, so
the penalty only breaks ties between optima:

* max-dicut: S = 2^n, and label 0 at vertex v is charged 2^v, so the
  charge is the zero mask;
* pricing: S is the number of grid points, and index i at vertex v is
  charged i times the product of the later vertices' domain sizes, so
  the charge is the point's rank in product order.

`explored` is the size of the search space certified: 2^n masks, or the
number of grid points.

On the half-integral grid {0, 1/2, ..., B} with integer budgets the grid
value is the true optimum (a half-integral optimal pricing always exists);
on other grids it is a certified lower bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Sequence, Union

from .caps import Caps
from .core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    Pricing,
    check_price_grid,
    max_incident_budget,
    val_gmd,
    val_gp,
)


# Most bytes the bucket tables of one elimination pass may hold; it keeps
# every bucket's table for the read-back.  Four 2^20-entry int64 arrays.  An
# int64 entry counts 8 bytes, a Python-int entry 64 (its pointer and a
# multi-digit int object).
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

    def elimination_order(self) -> tuple[list[int], list[int]]:
        """Min-fill order of the vertices with a payoff, and the number of
        entries of each one's bucket table.

        Eliminating v joins its remaining neighbours into a clique; the next
        vertex is the one whose clique adds the fewest new edges, then the one
        of least degree, then the smallest.  Neighbourhoods are int bitmasks.
        """
        import heapq

        sizes = self.sizes
        adj = {v: sum(1 << u for u in nb) for v, nb in enumerate(self.nbrs) if nb}

        def key(v: int) -> tuple[int, int, int]:
            # each missing edge a-b among v's neighbours is seen from a and b
            nb = adj[v]
            missing, rest = 0, nb
            while rest:
                low = rest & -rest
                missing += (nb & ~adj[low.bit_length() - 1]).bit_count()
                rest ^= low
            degree = nb.bit_count()
            return (missing - degree) // 2, degree, v

        # eliminating v changes the keys of its neighbours, and the key of a
        # vertex further out only when two of its neighbours gained an edge
        # between them; `keys` holds each remaining vertex's key, and a heap
        # entry that is not its vertex's key is stale
        keys = {v: key(v) for v in adj}
        heap = list(keys.values())
        heapq.heapify(heap)
        order, entries = [], []
        while heap:
            item = heapq.heappop(heap)
            v = item[2]
            if keys.get(v) != item:
                continue
            del keys[v]
            nb = adj.pop(v)
            size = sizes[v]
            near = gained = 0
            for u in _bits(nb):
                joined = (adj[u] | nb) & ~(1 << u | 1 << v)
                if joined & ~adj[u]:
                    gained |= 1 << u
                adj[u] = joined
                near |= joined
                size *= sizes[u]
            stale = nb
            for w in _bits(near & ~nb if gained else 0):
                if (adj[w] & gained).bit_count() > 1:
                    stale |= 1 << w
            for u in _bits(stale):
                k = key(u)
                if k != keys[u]:
                    keys[u] = k
                    heapq.heappush(heap, k)
            order.append(v)
            entries.append(size)
        return order, entries

    def elimination_plan(self, budget: int | None, scale: int) -> tuple[int, list[int]] | None:
        """Estimated cost of building the min-fill order and running
        `first_optimum` along it on the payoffs times `scale`, and the order;
        None when the estimate is not below `budget` (None: no bound) or the
        pass's bucket tables would take more than `ELIM_MAX_BYTES`.

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
        if budget is not None:
            first = min((self.sizes[v] * prod(self.sizes[u] for u in nb)
                         for v, nb in enumerate(self.nbrs) if nb), default=0)
            if cost + order_cost + 3 * first >= budget:
                return None
        order, entries = self.elimination_order()
        wide = self.int64(scale)
        if sum(entries) * (8 if wide else 64) > ELIM_MAX_BYTES:
            return None
        cost += (3 if wide else 20) * sum(entries)
        return (cost, order) if budget is None or cost < budget else None

    def int64(self, scale: int = 1) -> bool:
        """Whether numpy int64 holds every partial sum of the payoffs times
        `scale`, less charges that add up to less than `scale`: payoffs are
        nonnegative, so no such sum exceeds (the sum of each pair's largest
        payoff + 1) * scale in absolute value.  With `scale` 1 it bounds
        every sum of the payoffs of one assignment: `values`, and the
        partial sums of `respond` and `_zero_set_walk`."""
        return (self._top + 1) * scale < 2**62

    @cached_property
    def _top(self) -> int:
        """The sum of each pair's largest payoff."""
        return sum(max(map(max, t)) for _, _, t in self.pairs)

    @cached_property
    def _flat(self):
        """Every payoff table, row after row, in one numpy array (int64 when
        `int64()` holds, Python ints otherwise), and the arrays of each
        pair's first vertex, second vertex, offset in it and row length."""
        import numpy as np

        flat = np.array([p for _, _, t in self.pairs for row in t for p in row],
                        dtype=np.int64 if self.int64() else object)
        offsets = itertools.accumulate((len(t) * len(t[0]) for _, _, t in self.pairs), initial=0)
        cells = [(u, v, at, len(t[0])) for (u, v, t), at in zip(self.pairs, offsets)]
        return flat, *np.array(cells, dtype=np.intp).reshape(-1, 4).T

    def values(self, x):
        """Integer value over `denom` of each row of the numpy array `x` of
        domain indices."""
        flat, us, vs, offsets, strides = self._flat
        return flat[offsets + x[:, us] * strides + x[:, vs]].sum(axis=1)

    def arrays(self, scale: int = 1, charges: Sequence[Sequence[int]] | None = None) -> list:
        """The payoff tables times `scale` as numpy arrays, one (u, v, array)
        per pair, all views into one array: int64 when `int64(scale)` holds,
        Python ints otherwise.  With `charges` (one list per vertex), the
        first table of each vertex v has `charges[v][i]` taken off its
        entries at index i of v."""
        import numpy as np

        dtype = np.int64 if self.int64(scale) else object
        flat, _, _, offsets, _ = self._flat
        flat = flat.astype(dtype, copy=False) * scale
        if charges is not None:
            cut = np.array([c for cs in charges for c in cs], dtype=dtype)
            ends = list(itertools.accumulate(self.sizes))
        out: list = []
        charged: set[int] = set()
        for (u, v, t), at in zip(self.pairs, offsets.tolist()):
            arr = flat[at:at + len(t) * len(t[0])].reshape(len(t), -1)
            if charges is not None:
                if u not in charged:
                    arr -= cut[ends[u] - len(t):ends[u], None]
                    charged.add(u)
                if v not in charged:
                    arr -= cut[ends[v] - len(t[0]):ends[v]]
                    charged.add(v)
            out.append((u, v, arr))
        return out

    def first_optimum(self, order: Sequence[int], scale: int,
                      charges: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
        """Optimum and the optimal assignment of least charge, by one pass of
        `_eliminate` along `order` on `arrays(scale, charges)`.

        The caller picks `charges[v][i]`, the charge for index i at vertex
        v, so that an assignment's charges add up to less than `scale` and
        differ between any two assignments it tells apart.  An assignment
        then scores `scale` times its value less its charge; values are
        integers, so the penalised optimum is an optimum of the game, and
        the one of least charge among them.  A vertex with no payoff takes
        index 0, so its index 0 must cost least."""
        total, x = self._eliminate(order, self.arrays(scale, charges))
        return -(-total // scale), x

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


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Responder:
    """Greedy best responses to zero sets in one pair game (see the module
    docstring).  A zero set puts its vertices at the index `zero`; every
    other vertex v takes the first of its first `width` indices (None: all
    of them) of largest score.  `terms[v][j]` lists the terms of index j;
    a vertex with no term has an empty list and takes index 0.
    """

    def __init__(self, game: _PairGame, zero: int, width: int | None = None):
        self.game = game
        self.zero = zero
        self.terms: list[list[tuple[tuple[int, int], ...]]] = []
        for v, nb in enumerate(game.nbrs):
            w = game.sizes[v] if width is None else width
            by_index = [tuple((u, cols[zero][j]) for u, cols in nb.items() if cols[zero][j])
                        for j in range(w)]
            self.terms.append(by_index if any(by_index) else [])

    def respond_one(self, zero: Sequence[bool]) -> tuple[list[int], int]:
        """Domain indices of the zero set `zero` (`zero[v]` true when v is in
        it) and of the other vertices' best responses, and the sum of the
        responders' largest scores."""
        x, gain = [], 0
        for v, by_index in enumerate(self.terms):
            if zero[v]:
                x.append(self.zero)
                continue
            scores = [sum(p for u, p in terms if zero[u]) for terms in by_index] or [0]
            best = max(scores)
            x.append(scores.index(best))
            gain += best
        return x, gain

    @cached_property
    def _gather(self):
        """The terms in numpy arrays, index after index, an index with no
        term taking the term (0, 0): their neighbours and payoffs, and each
        index's first term; per width, its vertices and their indices."""
        import numpy as np

        slots = [terms or ((0, 0),) for by_index in self.terms for terms in by_index]
        groups: dict[int, list[tuple[int, int]]] = {}
        first = 0
        for v, by_index in enumerate(self.terms):
            if by_index:
                groups.setdefault(len(by_index), []).append((v, first))
                first += len(by_index)
        return (
            np.array([u for terms in slots for u, _ in terms], dtype=np.intp),
            np.array([p for terms in slots for _, p in terms],
                     dtype=np.int64 if self.game.int64() else object),
            np.cumsum([0] + [len(terms) for terms in slots])[:-1],
            [(np.array([v for v, _ in g]), np.array([f for _, f in g])[:, None] + np.arange(w))
             for w, g in groups.items()],
        )

    def respond(self, zero):
        """`respond_one` on each boolean row of the numpy array `zero`: the
        rows' domain indices."""
        import numpy as np

        src, val, starts, groups = self._gather
        x = np.zeros(zero.shape, dtype=np.intp)
        if len(starts):
            scores = np.add.reduceat(zero[:, src] * val, starts, axis=1)
            for verts, slots in groups:
                x[:, verts] = scores[:, slots].argmax(axis=2)
        return np.where(zero, self.zero, x)


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


def _gmd_responder(game: _PairGame) -> _Responder:
    """Best responses of the max-dicut game: index T (label 0) is the zero
    index, and a vertex outside the zero set ranges over the labels 1..T."""
    T = game.sizes[0] - 1
    return _Responder(game, zero=T, width=T)


def _gmd_labels(resp: _Responder, zero: Sequence[bool]) -> tuple[list[int], int]:
    """Labels and integer value of the greedy completion of the zero set
    (`zero[v]` true when v is in it).  Only arcs from a label-0 tail pay,
    so the value is the sum of the responders' largest scores."""
    x, gain = resp.respond_one(zero)
    return [0 if z else i + 1 for i, z in zip(x, zero)], gain


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
    return Labeling(tuple(_gmd_labels(_gmd_responder(_gmd_game(inst)), zero)[0]))


def opt_gmd(inst: GmdInstance, caps: Caps = Caps()) -> OptResult:
    """Exact max-dicut optimum over all (T+1)^n labelings.

    Runs the zero-set walk or bucket elimination, whichever `_gmd_plan`
    picks; both return the smallest optimal zero mask, whose greedy
    completion is the witness.  CapExceeded when neither fits, before any
    enumeration.
    """
    n = inst.n
    if n > caps.opt_gmd_n:
        raise CapExceeded(f"opt_gmd: n={n} exceeds cap {caps.opt_gmd_n}")
    if not inst.arcs:
        return OptResult(
            value=Fraction(0), witness=greedy_completion(inst, set()), explored=1
        )
    game = _gmd_game(inst)
    resp = _gmd_responder(game)
    path, order = _gmd_plan(resp)
    if path == "walk":
        best_mask = _zero_set_walk(resp)
    else:
        best_mask = _gmd_elim_mask(game, order)
    labels, total = _gmd_labels(resp, [bool(best_mask >> v & 1) for v in range(n)])
    witness = Labeling(tuple(labels))
    best_val = Fraction(total, game.denom)
    assert val_gmd(inst, witness) == best_val
    return OptResult(value=best_val, witness=witness, explored=1 << n)


def _gmd_plan(resp: _Responder) -> tuple[str, Sequence[int] | None]:
    """The enumerator `opt_gmd` runs on the max-dicut game of `resp` and
    what it runs along: ("walk", None) or ("elim", the elimination order).
    The walk runs only when `int64()` holds, elimination only when its
    tables fit in `ELIM_MAX_BYTES`; when both do, the lesser estimated cost
    wins, ties to the walk.  CapExceeded when neither does."""
    # Costs in numpy int64 operations on one mask and one walk term, and 600
    # per term and 2^20 masks for the overhead of the numpy calls.
    game = resp.game
    n = len(game.sizes)
    m = sum(len(terms) for by_index in resp.terms for terms in by_index)
    walk = None
    if game.int64():
        walk = (1 << n) * m + 600 * m * max(1, (1 << n) >> 20)
    elim = game.elimination_plan(walk, 1 << n)
    if elim is not None:
        return "elim", elim[1]
    if walk is None:
        raise CapExceeded(f"opt_gmd: the zero-set walk overflows int64 and the "
                          f"elimination tables exceed {ELIM_MAX_BYTES} bytes")
    return "walk", None


def _gmd_elim_mask(game: _PairGame, order: Sequence[int]) -> int:
    """Smallest optimal zero mask by one `first_optimum` pass along `order`:
    the payoffs are scaled by 2^n and label 0 at vertex v is charged 2^v,
    so an assignment's charge is its zero mask."""
    n = len(game.sizes)
    T = game.sizes[0] - 1
    charges = [[0] * T + [1 << v] for v in range(n)]
    return sum(1 << v for v, i in enumerate(game.first_optimum(order, 1 << n, charges)[1]) if i == T)


def _zero_set_walk(resp: _Responder) -> int:
    """Smallest zero mask of largest value in the max-dicut game of `resp`,
    every mask in int64 numpy: a mask's value is the sum, over the vertices
    outside it, of their largest score, the maximum over indices of the
    terms' payoffs from the mask.  Each partial sum adds payoffs of one
    assignment, so `int64()` of the game must hold.  Masks go in chunks of
    2^14, whose arrays stay in cache."""
    import numpy as np

    n = len(resp.terms)
    best_val = 0
    best_mask = 0
    chunk_bits = min(n, 14)
    for start in range(0, 1 << n, 1 << chunk_bits):
        masks = np.arange(start, start + (1 << chunk_bits), dtype=np.int64)
        bits = (masks >> np.arange(n)[:, None]) & 1
        total = np.zeros(masks.shape, dtype=np.int64)
        for v, by_index in enumerate(resp.terms):
            best = None
            for terms in by_index:
                if not terms:
                    continue
                (u, p), *rest = terms
                gain = bits[u] * p
                for u, p in rest:
                    gain += bits[u] * p
                best = gain if best is None else np.maximum(best, gain, out=best)
            if best is not None:
                total += (1 - bits[v]) * best
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
    """Exact maximum of the pricing value over the candidate grid by one
    `first_optimum` pass; the witness is the first optimal grid point in
    product order.  CapExceeded, before the pass, when the grid has more
    than `caps.gp_grid_points` points or its elimination tables would take
    more than `ELIM_MAX_BYTES`."""
    check_price_grid(inst, candidates)
    points = prod(map(len, candidates))
    if points > caps.gp_grid_points:
        raise CapExceeded(f"grid has {points} points, cap {caps.gp_grid_points}")

    game = _gp_game(inst, candidates)
    plan = game.elimination_plan(None, points)
    if plan is None:
        raise CapExceeded(f"opt_gp_grid: elimination tables exceed {ELIM_MAX_BYTES} bytes")
    # index i at v is charged i times the product of the later domain sizes,
    # so a point's charge is its rank in product order
    charges, stride = [], points
    for size in game.sizes:
        stride //= size
        charges.append([i * stride for i in range(size)])
    total, point = game.first_optimum(plan[1], points, charges)
    best_val = Fraction(total, game.denom)
    witness = Pricing(tuple(candidates[v][i] for v, i in enumerate(point)))
    assert val_gp(inst, witness) == best_val
    return OptResult(value=best_val, witness=witness, explored=points)
