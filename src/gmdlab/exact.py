"""Exact optimum oracles used as ground truth by every other module.

Both problems maximise a sum of pairwise payoffs over finite per-vertex
domains: labels 0..T for max-dicut, a candidate price grid for pricing.
One engine, `_PairGame`, solves that problem for every oracle in the
package.  Its builders (`_gmd_game`, `_gp_game`) read each weight, price
and budget `Fraction` once and fill the payoff tables with integers over
one common denominator; `_PairGame` divides them by their gcd with it and
keeps them once, in one numpy store that every reader shares.  No table
entry is a `Fraction`, and no comparison ever touches a `Fraction` or a
float.

Once a zero set is fixed, every other vertex best-responds to it on its
own (`_Responder`, for max-dicut `_GmdResponder`, which reads the arcs and
builds no game): the quarter algorithms take one such completion, and the
max-dicut optimum is the best one over all zero sets.

Two enumerators serve the oracles: the zero-set walk, 2^n masks in numpy
int64 covering all (T+1)^n labelings, for dense max-dicut games; and
bucket elimination along a min-fill order, with integer max-sum tables
(int64 when no partial sum can overflow, Python ints otherwise), for
sparse max-dicut games and every pricing grid.  One plan, `_plan`, picks
one or refuses with CapExceeded from the domain sizes, the vertex pairs
and a bound on the partial sums, before any table, term or enumeration;
`grid_plan` runs it on grid sizes, before a grid is built.

Each oracle has its witness contract.  `opt_gmd` returns the greedy
completion of the smallest optimal zero mask: its domain lists the labels
1..T before 0, so a best response prefers a nonzero label.  `opt_gp_grid`
returns the first optimal grid point in `itertools.product` order.  The
walk finds the smallest optimal mask by its scan order; one elimination
pass (`_PairGame.first_optimum`) finds either witness by a penalty: the
payoffs are scaled by S and each (vertex, index) is charged so that an
assignment's charges add up to less than S and rank its witness key, so
the penalty only breaks ties between optima:

* max-dicut: S = 2^n, and label 0 at a vertex v with a payoff is charged
  2^v, so the charge is the zero mask;
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

import heapq
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import Sequence, Union

import numpy as np

from .caps import Caps
from .core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    Pricing,
    check_price_grid,
    over_lcm,
    val_gmd,
    val_gp,
)


# Most bytes the domains and tables of one exact pass may take, four
# 2^20-entry int64 arrays: a domain value counts `VALUE_BYTES` (a pointer and
# a small object), an entry of the bucket tables elimination keeps for the
# read-back 8 bytes in int64, else its pointer and the largest sum's size.
ELIM_MAX_BYTES = 32 << 20
VALUE_BYTES = 64
# Most zero masks the walk enumerates: those of 24 vertices.
WALK_MAX_MASKS = 1 << 24


@dataclass(frozen=True)
class OptResult:
    value: Fraction
    witness: Union[Labeling, Pricing]
    explored: int


class _PairGame:
    """Maximise the sum over vertex pairs {u, v} of P_uv[x_u][x_v], where
    x_v ranges over domain indices 0..sizes[v]-1.

    `tables` maps a pair (u, v) to its sizes[u] x sizes[v] payoff table
    (rows indexed by x_u) as integers over the common denominator `scale`.
    They are divided once by g, the gcd of `scale` and every payoff, so each
    payoff is an exact int over `denom` = scale // g, the least common
    denominator of the payoffs in lowest terms.

    The one store of the payoffs: `payoffs`, every table row after row in
    one numpy array (int64 when `int64()` holds, Python ints otherwise), and
    `cells`, per pair in `tables` order, (u, v, its offset, its row length).
    """

    def __init__(self, sizes: Sequence[int], tables: dict, scale: int):
        self.sizes = tuple(sizes)
        flat = [p for rows in tables.values() for row in rows for p in row]
        g = gcd(scale, *flat)
        self.denom = scale // g
        store = np.array([p // g for p in flat] if g > 1 else flat, dtype=object)
        offsets = itertools.accumulate((len(rows) * len(rows[0]) for rows in tables.values()), initial=0)
        cells = [(u, v, at, len(rows[0])) for ((u, v), rows), at in zip(tables.items(), offsets)]
        self.cells = np.array(cells, dtype=np.intp).reshape(-1, 4)
        self._top = sum(np.maximum.reduceat(store, self.cells[:, 2]).tolist()) if flat else 0
        self.payoffs = store.astype(np.int64) if self.int64() else store

    def int64(self, scale: int = 1) -> bool:
        """Whether numpy int64 holds every partial sum of the payoffs times
        `scale`, less charges that add up to less than `scale`: payoffs are
        nonnegative, so no such sum exceeds (the pair maxima's sum + 1) *
        scale.  With `scale` 1 it bounds `values` and every sum of `respond`."""
        return _int64_holds(self._top, scale)

    def values(self, x):
        """Integer value over `denom` of each row of the numpy array `x` of
        domain indices."""
        us, vs, offsets, strides = self.cells.T
        return self.payoffs[offsets + x[:, us] * strides + x[:, vs]].sum(axis=1)

    def first_optimum(self, order: Sequence[int], scale: int = 1,
                      charges: dict[int, Sequence[int]] | None = None) -> tuple[int, list[int]]:
        """Optimum and the optimal assignment of least charge, by bucket
        elimination along `order`, which lists every vertex with a payoff,
        on the payoff tables times `scale` (int64 when `int64(scale)` holds,
        Python ints otherwise), the first table of each vertex v with
        `charges[v][i]` taken off its entries at index i of v.

        The caller picks `charges[v][i]`, the charge for index i at vertex
        v (none at a vertex not in `charges`), so that an assignment's
        charges add up to less than `scale` and differ between any two
        assignments it tells apart.  An assignment then scores `scale` times
        its value less its charge; values are integers, so the penalised
        optimum is an optimum of the game, and the one of least charge among
        them.  A vertex with no payoff takes index 0, so its index 0 must
        cost least.

        A bucket holds the tables whose first vertex in `order` is its own,
        adds them up and passes their maximum over its axis on to the bucket
        of the next vertex.  The assignment is read back in reverse order,
        each vertex taking the first maximising index against the vertices
        eliminated after it.
        """
        dtype = np.int64 if self.int64(scale) else object
        flat = self.payoffs.astype(dtype, copy=False) * scale
        uncharged = dict(charges or {})
        pos = {v: p for p, v in enumerate(order)}
        buckets: list[list] = [[] for _ in order]
        for u, v, at, stride in self.cells.tolist():
            arr = flat[at:at + self.sizes[u] * stride].reshape(-1, stride)
            if u in uncharged:
                arr -= np.array(uncharged.pop(u), dtype=dtype)[:, None]
            if v in uncharged:
                arr -= np.array(uncharged.pop(v), dtype=dtype)
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
        return -(-int(const) // scale), out


def _int64_holds(top: int, scale: int = 1) -> bool:
    """Whether numpy int64 holds (`top` + 1) * `scale`, with headroom."""
    return (top + 1) * scale < 2**62


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency(pairs) -> dict[int, set[int]]:
    """Vertex -> the set of its neighbours, for each vertex of a pair."""
    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _min_fill(sizes: Sequence[int], adj: dict[int, set[int]]) -> tuple[list[int], list[int]]:
    """Min-fill order of the vertices of `adj` (as from `_adjacency`, which
    it empties), and the number of entries of each one's bucket table.

    Eliminating v joins its remaining neighbours into a clique; the next
    vertex is the one whose clique adds the fewest new edges, then the one
    of least degree, then the smallest.  Neighbourhoods are sets, so they
    take memory by their size, not by the largest vertex.
    """

    def key(v: int) -> tuple[int, int, int]:
        # each missing edge a-b among v's neighbours is seen from a and b,
        # and each neighbour u once more, since u is not its own neighbour
        nb = adj[v]
        missing = sum(len(nb - adj[u]) for u in nb)
        return (missing - len(nb)) // 2, len(nb), v

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
        gained = set()
        for u in nb:
            joined = (adj[u] | nb) - {u, v}
            if joined - adj[u]:
                gained.add(u)
            adj[u] = joined
            size *= sizes[u]
        stale = set(nb)
        stale.update(w for u in gained for w in adj[u] - nb if len(adj[w] & gained) > 1)
        for u in stale:
            k = key(u)
            if k != keys[u]:
                keys[u] = k
                heapq.heappush(heap, k)
        order.append(v)
        entries.append(size)
    return order, entries


def _domain_bytes(who: str, values: int) -> int:
    """The bytes of `values` domain values; CapExceeded past the cap."""
    nbytes = VALUE_BYTES * values
    if nbytes > ELIM_MAX_BYTES:
        raise CapExceeded(f"{who}: {values} domain values take {nbytes} bytes, cap {ELIM_MAX_BYTES}")
    return nbytes


def _plan(who: str, sizes: Sequence[int], pairs, top: int, scale: int,
          walk: int | None = None, no_walk: str = "",
          fill: tuple[list[int], list[int]] | None = None) -> list[int] | None:
    """The min-fill order of the elimination pass an exact oracle runs, or
    None when the zero-set walk, of estimated cost `walk` (None: it does not
    fit, for the reason `no_walk`), runs instead; CapExceeded, naming `who`,
    when neither fits.  It reads the domain sizes, the distinct vertex
    pairs of the game's tables (or their `_min_fill`, `fill`, when there is
    no walk), and `top`, at least the pair maxima's sum, so that
    (top + 1) * scale bounds every partial sum of `first_optimum` at
    `scale`.  Elimination fits when the domains and the bucket tables take
    at most `ELIM_MAX_BYTES`; when the walk fits too, the lesser estimated
    cost wins, ties to the walk.  The order is built only when the estimate
    with the order counted twice and the first bucket's entries (its vertex
    and all its neighbours) is below `walk`.

    Estimates are in the walk's units (`_gmd_plan`), fitted over 154 random
    max-dicut games (n 10-20, T 1-3, 10-100 arcs, tables up to 0.3M entries;
    2-core Xeon, Python 3.11, numpy 2.4; the walk about 4 ns per unit at
    n = 12): the order takes 1900 units per payoff pair and 1000 per vertex
    (7.7 and 4.2 us), the pass 2400 per pair, 2200 per vertex and 3 per
    table entry (9.8 us, 8.8 us, 0.010 us; 20 units with Python ints).
    """
    nbytes = _domain_bytes(who, sum(sizes))
    if fill is None:
        adj = _adjacency(pairs)
        order_cost = 1900 * len(pairs) + 1000 * len(adj)
        cost = order_cost + 2400 * len(pairs) + 2200 * len(adj)
        if walk is not None:
            first = min((sizes[v] * prod(sizes[u] for u in nb) for v, nb in adj.items()), default=0)
            if cost + order_cost + 3 * first >= walk:
                return None
        fill = _min_fill(sizes, adj)
    order, entries = fill
    wide = _int64_holds(top, scale)
    nbytes += sum(entries) * (8 if wide else 8 + sys.getsizeof((top + 1) * scale))
    if nbytes <= ELIM_MAX_BYTES and (walk is None or cost + (3 if wide else 20) * sum(entries) < walk):
        return order
    if walk is None:
        raise CapExceeded(f"{who}: {no_walk}the domains and elimination tables take "
                          f"{nbytes} bytes, cap {ELIM_MAX_BYTES}")
    return None


class _Responder:
    """Greedy best responses to zero sets in one pair game (see the module
    docstring).  A zero set puts its vertices at the index `zero`; every
    other vertex v takes the first of its indices of largest score.
    `terms[v][j]` lists the terms of index j; a vertex with no term has an
    empty list and takes index 0.  `denom` and `in_int64` are the game's
    `denom` and `int64()`, and `values` its `values`.
    """

    def __init__(self, game: _PairGame, zero: int):
        self.game = game
        # heads[v]: (u, v's payoffs against u's zero index), pair after pair,
        # when one is nonzero: row `zero` of the table, or column if v is first
        flat = game.payoffs.tolist()
        heads: list[list] = [[] for _ in game.sizes]
        for u, v, at, stride in game.cells.tolist():
            row = flat[at + zero * stride:at + (zero + 1) * stride]
            if any(row):
                heads[v].append((u, row))
            col = flat[at + zero:at + game.sizes[u] * stride:stride]
            if any(col):
                heads[u].append((v, col))
        self.zero = zero
        self.denom = game.denom
        self.in_int64 = game.int64()
        self.values = game.values
        self.terms = [[tuple((u, h[j]) for u, h in nb if h[j]) for j in range(size)] if nb else []
                      for nb, size in zip(heads, game.sizes)]

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
                     dtype=np.int64 if self.in_int64 else object),
            np.cumsum([0] + [len(terms) for terms in slots])[:-1],
            [(np.array([v for v, _ in g]), np.array([f for _, f in g])[:, None] + np.arange(w))
             for w, g in groups.items()],
        )

    @property
    def row_entries(self) -> int:
        """Entries of one zero-set row of `respond`'s score product: one per
        term, and one per index without a term."""
        return len(self._gather[0])

    def respond(self, zero):
        """`respond_one` on each boolean row of the numpy array `zero`: the
        rows' domain indices."""
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
    The payoffs are the arcs' weights as `_gmd_pairs` scales them."""
    T = inst.T
    pairs, denom, _ = _gmd_pairs(inst)
    tables: dict = {}
    for (u, v), arcs in pairs.items():
        rows = tables[u, v] = [[0] * (T + 1) for _ in range(T + 1)]
        for a, w in arcs:
            if a.tail == u:
                rows[T][a.label - 1] += w
            else:
                rows[a.label - 1][T] += w
    return _PairGame([T + 1] * inst.n, tables, denom)


def _gmd_pairs(inst: GmdInstance) -> tuple[dict, int, int]:
    """The (arc, payoff) of each vertex pair in `_gmd_game`'s table order,
    a payoff (one table entry) an arc's weight as an integer over `denom`,
    and `denom` and `_top` (the pair maxima's sum) of that game."""
    weights, scale = over_lcm([a.weight for a in inst.arcs])
    g = gcd(scale, *weights)
    pairs: dict = {}
    for a, w in zip(inst.arcs, weights):
        u, v = a.tail, a.head
        pairs.setdefault((u, v) if u < v else (v, u), []).append((a, w // g))
    top = sum(max(p for _, p in arcs) for arcs in pairs.values())
    return pairs, scale // g, top


class _GmdResponder(_Responder):
    """Best responses in the max-dicut game of `inst`: index T (label 0) is
    the zero index, and a vertex outside the zero set ranges over the labels
    1..T.  T is the instance's, so a game on no vertex has one too.  No
    pair game is built: the terms and `values` read the paying arcs' flat
    arrays `tails`, `heads`, `indices` (label - 1) and `pays` (over `denom`,
    in the dtype `in_int64` picks), pair after pair in `_gmd_game`'s order."""

    def __init__(self, inst: GmdInstance):
        T = inst.T
        pairs, self.denom, top = _gmd_pairs(inst)
        arcs = [(a.tail, a.head, a.label - 1, p) for arcs in pairs.values() for a, p in arcs if p]
        self.zero = T
        self.in_int64 = _int64_holds(top)
        self.tails, self.heads, self.indices = np.array([a[:3] for a in arcs], dtype=np.intp).reshape(-1, 3).T
        self.pays = np.array([p for *_, p in arcs], dtype=np.int64 if self.in_int64 else object)
        by_head: dict[int, dict[int, list]] = {}
        for u, v, j, p in arcs:
            by_head.setdefault(v, {}).setdefault(j, []).append((u, p))
        # the vertices with no term share one empty list, which nothing
        # mutates, and the indices with none the empty tuple
        self.terms = [[]] * inst.n
        for v, d in by_head.items():
            self.terms[v] = [tuple(d.get(j, ())) for j in range(T)]

    def values(self, x):
        """`_PairGame.values`: what the arcs with their tail at the zero
        index and their head at their index pay."""
        paid = (x[:, self.tails] == self.zero) & (x[:, self.heads] == self.indices)
        return (paid * self.pays).sum(axis=1)


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
    return Labeling(tuple(_gmd_labels(_GmdResponder(inst), zero)[0]))


def opt_gmd(inst: GmdInstance) -> OptResult:
    """Exact max-dicut optimum over all (T+1)^n labelings.

    Runs the zero-set walk or bucket elimination, whichever `_gmd_plan`
    picks; both return the smallest optimal zero mask, whose greedy
    completion is the witness.  CapExceeded when neither fits, before any
    table, term or enumeration.
    """
    path, order = _gmd_plan(inst)
    n = inst.n
    if not inst.arcs:
        return OptResult(value=Fraction(0), witness=greedy_completion(inst, set()), explored=1)
    resp = _GmdResponder(inst)
    if path == "walk":
        best_mask = _zero_set_walk(resp)
    else:
        best_mask = _gmd_elim_mask(_gmd_game(inst), order)
    zero = set(_bits(best_mask))
    labels, total = _gmd_labels(resp, [v in zero for v in range(n)])
    witness = Labeling(tuple(labels))
    best_val = Fraction(total, resp.denom)
    assert val_gmd(inst, witness) == best_val
    return OptResult(value=best_val, witness=witness, explored=1 << n)


def _gmd_plan(inst: GmdInstance) -> tuple[str, list[int] | None]:
    """("walk", None) or ("elim", the elimination order) for `opt_gmd` on
    `inst`, by `_plan` on the arcs' vertex pairs, its n (T+1) labels checked
    first.  The walk fits when int64 holds its partial sums."""
    n, T = inst.n, inst.T
    _domain_bytes("opt_gmd", n * (T + 1))
    pairs, _, top = _gmd_pairs(inst)
    walk, no_walk = None, ""
    if 1 << n > WALK_MAX_MASKS:
        no_walk = f"the zero-set walk's 2^{n} masks exceed {WALK_MAX_MASKS} and "
    elif not _int64_holds(top):
        no_walk = "the zero-set walk overflows int64 and "
    else:
        # Costs in numpy int64 operations on one mask and one walk term (an
        # arc of nonzero weight), and 600 per term and 2^20 masks of overhead
        m = sum(1 for a in inst.arcs if a.weight)
        walk = (1 << n) * m + 600 * m * max(1, (1 << n) >> 20)
    order = _plan("opt_gmd", [T + 1] * n, pairs, top, 1 << n, walk, no_walk)
    return ("walk", None) if order is None else ("elim", order)


def _gmd_elim_mask(game: _PairGame, order: Sequence[int]) -> int:
    """Smallest optimal zero mask by one `first_optimum` pass along `order`:
    the payoffs are scaled by 2^n and label 0 at vertex v is charged 2^v,
    so an assignment's charge is its zero mask.  A vertex outside `order`
    has no payoff, takes index 0 and is left uncharged."""
    n = len(game.sizes)
    T = game.sizes[0] - 1
    charges = {v: [0] * T + [1 << v] for v in order}
    return sum(1 << v for v, i in enumerate(game.first_optimum(order, 1 << n, charges)[1]) if i == T)


def _zero_set_walk(resp: _Responder) -> int:
    """Smallest zero mask of largest value in the max-dicut game of `resp`,
    every mask in int64 numpy: a mask's value is the sum, over the vertices
    outside it, of their largest score, the maximum over indices of the
    terms' payoffs from the mask.  Each partial sum adds payoffs of one
    assignment, so `in_int64` must hold.  Masks go in chunks of
    2^14, whose arrays stay in cache."""
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


def _gp_denoms(inst: GpInstance, candidates: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    """Dp, the lcm of the price and budget denominators, and Dw, the weights'."""
    return (lcm(*(p.denominator for c in candidates for p in c), *(e.budget.denominator for e in inst.edges)),
            lcm(*(e.weight.denominator for e in inst.edges)))


def _gp_game(inst: GpInstance, candidates: Sequence[Sequence[Fraction]],
             denoms: tuple[int, int] | None = None) -> _PairGame:
    """Pricing as a pair game over candidate indices; parallel edges add up.
    Prices and budgets are scaled to integers over Dp and weights over Dw
    (`denoms`, or `_gp_denoms`), so an entry W_e * (P_u + P_v), kept when
    P_u + P_v <= B_e, is an integer over Dp * Dw."""
    dp, dw = denoms or _gp_denoms(inst, candidates)
    prices = [[p.numerator * (dp // p.denominator) for p in c] for c in candidates]
    budgets = [e.budget.numerator * (dp // e.budget.denominator) for e in inst.edges]
    weights = [e.weight.numerator * (dw // e.weight.denominator) for e in inst.edges]
    tables: dict = {}
    for e, w, b in zip(inst.edges, weights, budgets):
        u, v = sorted((e.u, e.v))
        cu, cv = prices[u], prices[v]
        rows = tables.get((u, v))
        if rows is None:
            rows = tables[u, v] = [[0] * len(cv) for _ in cu]
        for row, pu in zip(rows, cu):
            for j, pv in enumerate(cv):
                s = pu + pv
                if s <= b:
                    row[j] += w * s
    return _PairGame([len(c) for c in candidates], tables, dp * dw)


def grid_plan(inst: GpInstance, sizes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The min-fill order of `opt_gp_grid` on grids of these sizes and its
    buckets' entries; CapExceeded when it would refuse every such grid, by
    `_plan` with int64 tables, the fewest bytes any grid takes."""
    fill = _min_fill(sizes, _adjacency((e.u, e.v) for e in inst.edges))
    _plan("opt_gp_grid", sizes, (), 0, 1, fill=fill)
    return fill


def opt_gp_grid(inst: GpInstance, candidates: Sequence[Sequence[Fraction]],
                fill: tuple[list[int], list[int]] | None = None) -> OptResult:
    """Exact maximum of the pricing value over the candidate grid by one
    `first_optimum` pass; the witness is the first optimal grid point in
    product order.  CapExceeded, before the game is built, when `_plan`
    (reusing `fill`, `grid_plan` of the candidates' sizes, when given) finds
    that the domains and elimination tables would pass `ELIM_MAX_BYTES`."""
    check_price_grid(inst, candidates)
    sizes = list(map(len, candidates))
    points = prod(sizes)
    # an entry W_e (P_u + P_v) is at most W_e B_e, so the pair maxima sum to
    # at most the sum of those, an integer over the game's Dp * Dw
    dp, dw = _gp_denoms(inst, candidates)
    top = sum(w.numerator * (dw // w.denominator) * b.numerator * (dp // b.denominator)
              for _, _, b, w in inst.edges)
    order = _plan("opt_gp_grid", sizes, (), top, points, fill=fill or grid_plan(inst, sizes))
    game = _gp_game(inst, candidates, (dp, dw))
    # index i at v is charged i times the product of the later domain sizes,
    # so a point's charge is its rank in product order
    charges, stride = {}, points
    for v, size in enumerate(sizes):
        stride //= size
        charges[v] = [i * stride for i in range(size)]
    total, point = game.first_optimum(order, points, charges)
    best_val = Fraction(total, game.denom)
    witness = Pricing(tuple(candidates[v][i] for v, i in enumerate(point)))
    assert val_gp(inst, witness) == best_val
    return OptResult(value=best_val, witness=witness, explored=points)
