"""Exact optimum oracles used as ground truth by every other module.

Both problems maximise a sum of pairwise payoffs over finite per-vertex
domains: labels for max-dicut, a candidate price grid for pricing.  One
engine, `_PairGame`, solves that problem for every oracle in the package.
Its tables are integers over one common denominator, divided by their gcd
with it and kept once, in one numpy store that every reader shares; no
table entry or comparison is a `Fraction` or a float.

Once a zero set is fixed, every other vertex best-responds to it on its
own: the quarter algorithms take one such completion, and the max-dicut
optimum is the best one over all zero sets.  `_Responder` keeps the terms
of those responses once, in one flat store grouped by (vertex, slot), and
`_Responder.respond` is the one best-response routine: a single
completion is one row of it, and the zero-set walk, the `approx` batches
and the `gap` local search read the same store.  Max-dicut has
one layout, `_GmdResponder`, the only code that maps labels to domain
indices: an arc pays only from a label-0 tail to a head at its label, so
a vertex ranges over the labels its paying in-arcs name, the least label
none of them names, and 0, at most in-degree + 2 values whatever T is.
A label left out earns nothing, like that least unnamed one, and is
larger, so values and smallest-label ties are those of the labels 0..T.

Two enumerators serve the oracles: the zero-set walk, 2^n masks in numpy
int64, for dense max-dicut games; and bucket elimination along a min-fill
order, with integer max-sum tables (int64 when no partial sum can
overflow, Python ints otherwise), for sparse max-dicut games on the
compressed domains and every pricing grid.  One plan, `_plan`, picks one
or refuses with CapExceeded from the domain sizes, the vertex pairs and a
bound on the partial sums, before any table, term or enumeration;
`grid_plan` runs it on grid sizes, before a grid is built.

Each oracle has its witness contract.  `opt_gmd` returns the greedy
completion of the smallest optimal zero mask, each responder on its
smallest label of largest score.  `opt_gp_grid` returns the first optimal
grid point in `itertools.product` order.  The walk finds the smallest
optimal mask by its scan order; one elimination pass
(`_PairGame.first_optimum`) finds either witness by a penalty: the
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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence, Union

import numpy as np

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
    """Greedy best responses to zero sets (see the module docstring), all
    read from one store of terms.  A zero set puts its vertices at 0; every
    other vertex v takes the first slot of largest score in its domain,
    `domains[v]`, and answers the value the domain holds there.  A term
    (u, v, j, p) adds p to the score of slot j at v when u is in the zero
    set.  The store keeps the nonzero terms once, sorted by (v, j), in the
    flat arrays `tails` (u), `heads` (v), `slots` (j) and `pays` (p, an
    integer over `denom`, int64 when `in_int64` holds and Python ints
    otherwise), with `starts`, the first term of each slot that has one.
    `answers` holds every domain, vertex after vertex, from `first[v]`.  A
    vertex with no term answers its domain's first value.  `values` gives
    the integer value over `denom` of each row of answers.

    Built from a pair game (pricing), v ranges over its domain indices, and
    index 0 is the zero: its terms are its payoffs against a zero u, row 0
    of their table, or column 0 when v is the table's first vertex.
    """

    def __init__(self, game: _PairGame):
        flat = game.payoffs.tolist()
        terms = []
        for u, v, at, stride in game.cells.tolist():
            terms += ((u, v, j, p) for j, p in enumerate(flat[at:at + stride]) if p)
            terms += ((v, u, i, p) for i, p in enumerate(flat[at:at + game.sizes[u] * stride:stride]) if p)
        self._store(terms, [range(size) for size in game.sizes], game.denom, game.int64())
        self.values = game.values

    def _store(self, terms: list[tuple[int, int, int, int]], domains: Sequence[Sequence[int]],
               denom: int, in_int64: bool):
        """Keep `terms`, (u, v, j, p) each, in the store, on `domains`."""
        terms.sort(key=lambda t: t[1:3])
        tails, heads, slots, pays = zip(*terms) if terms else ((),) * 4
        self.tails, self.heads, self.slots = (np.array(a, dtype=np.intp) for a in (tails, heads, slots))
        self.pays = np.array(pays, dtype=np.int64 if in_int64 else object)
        self.domains, self.denom, self.in_int64 = domains, denom, in_int64
        self.answers = np.array([a for d in domains for a in d], dtype=np.intp)
        self.first = np.cumsum([0] + [len(d) for d in domains])[:-1]
        # each term's slot in `answers`, and each slot with a term's first
        at = self.first[self.heads] + self.slots
        first_term = np.ones(len(at), dtype=bool)
        first_term[1:] = at[1:] != at[:-1]
        self.starts = np.flatnonzero(first_term)
        self._scored = at[self.starts]
        # per domain width, the vertices with a term and their slots in `answers`
        widths: dict[int, list[int]] = {}
        for v in dict.fromkeys(heads):
            widths.setdefault(len(domains[v]), []).append(v)
        self._widths = [(np.array(vs), self.first[vs][:, None] + np.arange(w)) for w, vs in widths.items()]

    @property
    def row_entries(self) -> int:
        """Entries of one zero-set row of `respond`'s scores: one per term
        and one per slot."""
        return len(self.tails) + len(self.answers)

    def respond(self, zero):
        """The answers to each boolean row of the numpy array `zero`, whose
        entry v is true when v is in the row's zero set: 0 in the zero set,
        else v's best response."""
        at = np.repeat(self.first[None, :], len(zero), axis=0)
        if len(self.starts):
            scores = np.zeros((len(zero), len(self.answers)), dtype=self.pays.dtype)
            scores[:, self._scored] = np.add.reduceat(zero[:, self.tails] * self.pays, self.starts, axis=1)
            for verts, slots in self._widths:
                at[:, verts] += scores[:, slots].argmax(axis=2)
        return np.where(zero, 0, self.answers[at])


def _gmd_arcs(inst: GmdInstance) -> tuple[dict, list[tuple[int, ...]], int, int]:
    """The paying arcs of `inst`, per vertex pair {u, v} (u < v): each arc's
    (tail, head, label, pay), its pay the weight as an integer over `denom`;
    `domains`, each vertex's nonzero labels (see `_GmdResponder`); `denom`;
    and `top`, the largest pay of each pair summed."""
    weights, scale = over_lcm([a.weight for a in inst.arcs])
    g = gcd(scale, *weights)
    pairs: dict = {}
    named: dict[int, set[int]] = {}
    for a, w in zip(inst.arcs, weights):
        if w:
            u, v = a.tail, a.head
            pairs.setdefault((u, v) if u < v else (v, u), []).append((u, v, a.label, w // g))
            named.setdefault(v, set()).add(a.label)
    domains = [(1,)] * inst.n
    for v, labels in named.items():
        free = next(t for t in itertools.count(1) if t not in labels)  # the least unnamed
        domains[v] = tuple(sorted(labels | {free} if free <= inst.T else labels))
    top = sum(max(arc[3] for arc in arcs) for arcs in pairs.values())
    return pairs, domains, scale // g, top


class _GmdResponder(_Responder):
    """Best responses in the max-dicut game of `inst`, read and answered in
    labels, a zero set at label 0.  Vertex v ranges over `domains[v]`, the
    labels its paying in-arcs name and the least label none of them names
    (if T leaves one), ascending; label 0 is not in it.  Each paying arc is
    one term of the store, from its tail to its head at its label's slot,
    and `labels` holds each term's label.  Only `pair_game` builds a game."""

    def __init__(self, inst: GmdInstance):
        pairs, domains, denom, top = _gmd_arcs(inst)
        self._store([(u, v, bisect_left(domains[v], label), p) for arcs in pairs.values() for u, v, label, p in arcs],
                    domains, denom, _int64_holds(top))
        self.labels = self.answers[self.first[self.heads] + self.slots]

    def values(self, x):
        """`_PairGame.values` on the rows of labels `x`: what the arcs with
        their tail at label 0 and their head at their label pay."""
        paid = (x[:, self.tails] == 0) & (x[:, self.heads] == self.labels)
        return (paid * self.pays).sum(axis=1)

    def pair_game(self) -> _PairGame:
        """The game on the compressed domains, label 0 at index
        len(domains[v]): an arc pays at its tail's index of label 0 and its
        slot at its head."""
        sizes = [len(d) + 1 for d in self.domains]
        tables: dict = {}
        for u, v, j, p in zip(self.tails.tolist(), self.heads.tolist(), self.slots.tolist(),
                              self.pays.tolist()):
            a, b = (u, v) if u < v else (v, u)
            rows = tables.get((a, b)) or tables.setdefault((a, b), [[0] * sizes[b] for _ in range(sizes[a])])
            if u == a:
                rows[-1][j] += p
            else:
                rows[j][-1] += p
        return _PairGame(sizes, tables, self.denom)

    def eliminate(self, order: Sequence[int]) -> int:
        """Smallest optimal zero mask by one `first_optimum` pass of
        `pair_game` along `order`: the payoffs are scaled by 2^n and label 0
        at vertex v is charged 2^v, so an assignment's charge is its zero
        mask.  A vertex outside `order` has no payoff, takes index 0, a
        nonzero label, and is not charged."""
        game = self.pair_game()
        charges = {v: [0] * (game.sizes[v] - 1) + [1 << v] for v in order}
        x = game.first_optimum(order, 1 << len(game.sizes), charges)[1]
        return sum(1 << v for v, (i, size) in enumerate(zip(x, game.sizes)) if i == size - 1)


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
    zero = np.array([[v in zero_set for v in range(inst.n)]], dtype=bool)
    return Labeling(tuple(_GmdResponder(inst).respond(zero)[0].tolist()))


def opt_gmd(inst: GmdInstance) -> OptResult:
    """Exact max-dicut optimum over all (T+1)^n labelings.

    Runs the zero-set walk or bucket elimination, whichever `_gmd_plan`
    picks; both return the smallest optimal zero mask, whose greedy
    completion is the witness.  CapExceeded when neither fits, before any
    table, term or enumeration.
    """
    path, order = _gmd_plan(inst)
    resp = _GmdResponder(inst)
    mask = _zero_set_walk(resp) if path == "walk" else resp.eliminate(order)
    x = resp.respond(np.array([[mask >> v & 1 for v in range(inst.n)]], dtype=bool))
    witness = Labeling(tuple(x[0].tolist()))
    best_val = Fraction(resp.values(x).tolist()[0], resp.denom)
    assert val_gmd(inst, witness) == best_val
    return OptResult(value=best_val, witness=witness, explored=1 << inst.n)


def _gmd_plan(inst: GmdInstance) -> tuple[str, list[int] | None]:
    """("walk", None) or ("elim", the elimination order) for `opt_gmd` on
    `inst`, by `_plan` on the paying arcs' vertex pairs and the compressed
    domains' sizes, two values per vertex checked first.  The walk fits
    when int64 holds its partial sums."""
    n = inst.n
    _domain_bytes("opt_gmd", 2 * n)
    pairs, domains, _, top = _gmd_arcs(inst)
    walk, no_walk = None, ""
    if 1 << n > WALK_MAX_MASKS:
        no_walk = f"the zero-set walk's 2^{n} masks exceed {WALK_MAX_MASKS} and "
    elif not _int64_holds(top):
        no_walk = "the zero-set walk overflows int64 and "
    else:
        # Costs in numpy int64 operations on one mask and one walk term (a
        # paying arc, at least one per mask), and 600 per term and 2^20 masks
        # of overhead
        m = sum(map(len, pairs.values()))
        walk = (1 << n) * max(m, 1) + 600 * m * max(1, (1 << n) >> 20)
    order = _plan("opt_gmd", [len(d) + 1 for d in domains], pairs, top, 1 << n, walk, no_walk)
    return ("walk", None) if order is None else ("elim", order)


def _zero_set_walk(resp: _Responder) -> int:
    """Smallest zero mask of largest value in the max-dicut game of `resp`,
    every mask in int64 numpy: a mask's value is the sum, over the vertices
    outside it, of their largest score, the maximum over slots of the
    payoffs of the slot's terms from the mask.  Each partial sum adds
    payoffs of one assignment, so `in_int64` must hold.  Masks go in chunks
    of 2^14, whose arrays stay in cache."""
    n = len(resp.domains)
    tails, pays = resp.tails.tolist(), resp.pays.tolist()
    starts = resp.starts.tolist()
    # per vertex with a term, the store's range of each of its slots' terms
    ranges = [(v, [(a, b) for _, a, b in slots]) for v, slots in itertools.groupby(
        zip(resp.heads[resp.starts].tolist(), starts, starts[1:] + [len(tails)]), key=lambda s: s[0])]
    best_val = 0
    best_mask = 0
    chunk_bits = min(n, 14)
    for start in range(0, 1 << n, 1 << chunk_bits):
        masks = np.arange(start, start + (1 << chunk_bits), dtype=np.int64)
        bits = (masks >> np.arange(n)[:, None]) & 1
        total = np.zeros(masks.shape, dtype=np.int64)
        for v, slots in ranges:
            best = None
            for a, b in slots:
                gain = bits[tails[a]] * pays[a]
                for k in range(a + 1, b):
                    gain += bits[tails[k]] * pays[k]
                best = gain if best is None else np.maximum(best, gain, out=best)
            total += (1 - bits[v]) * best
        i = int(np.argmax(total))
        if int(total[i]) > best_val:
            best_val = int(total[i])
            best_mask = start + i
    return best_mask


def _gp_denoms(inst: GpInstance, candidates: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    """Dp, the lcm of the price and budget denominators, and Dw, the weights':
    the largest denominator when each distinct one divides the next larger,
    as a geometric grid's powers do, so no lcm of many-digit powers runs."""
    def common(denoms: list[int]) -> int:
        chain = sorted(set(denoms)) or [1]
        return chain[-1] if all(b % a == 0 for a, b in zip(chain, chain[1:])) else lcm(*chain)

    return (common([p.denominator for c in candidates for p in c] + [e.budget.denominator for e in inst.edges]),
            common([e.weight.denominator for e in inst.edges]))


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
