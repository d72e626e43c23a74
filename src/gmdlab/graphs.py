"""Small undirected-graph routines shared by the pipeline and embedding code.

Graphs are plain edge sets of sorted vertex pairs over vertices 0..n-1.
Everything here is deterministic: BFS visits neighbors in increasing id
order and cycle extraction canonicalizes before comparing.

Girth cleanup contract: `break_short_cycles` drops exactly the edges, in
exactly the order, that repeatedly dropping the largest edge of
`shortest_cycle` would, so every pipeline instance is the same byte for
byte.  Lemma: `_edge_cycle(a, b)` returns the lexicographically smallest
shortest a..b path of G - ab.  Deleting an edge off that path leaves it
present and still shortest, and can only remove rival paths, so an edge's
cycle is recomputed only when a drop removed one of the cycle's own edges.

Peeling lemma: a vertex with one neighbour lies on no cycle, and neither
does its edge, so deleting it changes no cycle and no `_edge_cycle` result
of the other edges.  Deleting such vertices until none is left (the k-core
peeling of Batagelj & Zaversnik 2003, k = 2) leaves the 2-core, and `girth`
and `break_short_cycles` search for cycles there only; the cleanup peels
again after each drop.
"""

from __future__ import annotations

import collections
import heapq

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(s) for s in adj]


def _peel(adj, queue) -> list[Edge]:
    """Delete from `adj`, in place, each vertex of `queue` left with one
    neighbour, and each vertex that a deletion leaves with one; returns the
    deleted edges.  With every vertex queued this leaves the 2-core (see
    the module docstring)."""
    peeled = []
    while queue:
        x = queue.pop()
        if len(adj[x]) == 1:
            y = adj[x].pop()
            adj[y].remove(x)
            peeled.append(edge(x, y))
            queue.append(y)
    return peeled


def _core_edges(adj) -> list[Edge]:
    """The edges of `adj` (once peeled, of its 2-core), sorted."""
    return [(a, b) for a, nb in enumerate(adj) for b in nb if a < b]


def canonical_cycle(path) -> tuple[int, ...]:
    """Rotation/reflection minimal form of a simple cycle given as a vertex list.

    The minimal form starts at the smallest vertex and continues toward the
    smaller of its two cycle neighbours.
    """
    seq = list(path)
    i = seq.index(min(seq))
    if seq[(i + 1) % len(seq)] <= seq[i - 1]:
        return tuple(seq[i:] + seq[:i])
    return tuple(seq[i::-1] + seq[:i:-1])


def _edge_cycle(adj, a: int, b: int, limit: int):
    """Shortest cycle of at most `limit` vertices through edge (a, b), as an a..b path.

    BFS runs from a without the edge (a, b), visits neighbours in `adj`
    order, gives each vertex the first parent that reaches it and stops
    once b is reached (depth at most limit - 1).  With sorted `adj` the
    path is the lexicographically smallest shortest a..b path of G - ab: by
    induction each level is discovered in the lexicographic order of its
    vertices' smallest shortest paths, so the first parent extends the
    smallest path.  None means no such cycle.
    """
    parent = {a: a}
    frontier = [a]
    for _ in range(limit - 1):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y in parent:
                    continue
                if y == b:
                    if x == a:
                        continue
                    path = [b, x]
                    while x != a:
                        x = parent[x]
                        path.append(x)
                    return path[::-1]
                parent[y] = x
                nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return None


def shortest_cycle(n: int, edges) -> tuple[int, ...] | None:
    """Lexicographically smallest among the shortest cycles found per edge.

    Every cycle contains an edge, and the shortest cycle through edge (a, b)
    is (a, b) plus a shortest a..b path avoiding it, so the minimum over
    edges has girth length.  Among cycles of that length the canonical
    lexicographic minimum of the per-edge candidates is picked; BFS tie
    breaking makes the outcome a deterministic function of the graph.
    """
    edges = sorted({edge(u, v) for u, v in edges})
    adj = adjacency(n, edges)
    best = None
    for a, b in edges:
        found = _edge_cycle(adj, a, b, best[0] if best else n)
        if found is None:
            continue
        cyc = canonical_cycle(found)
        key = (len(cyc), cyc)
        if best is None or key < best:
            best = key
    return best[1] if best else None


def girth(n: int, edges) -> int | None:
    """Length of a shortest cycle, or None for a forest."""
    adj = adjacency(n, edges)
    _peel(adj, list(range(n)))
    best = n + 1
    for a, b in _core_edges(adj):
        found = _edge_cycle(adj, a, b, best - 1)
        if found is not None:
            best = len(found)
    return best if best <= n else None


def break_short_cycles(n: int, edges, l: int) -> list[Edge]:
    """Drop edges until no cycle of length <= l is left; returns them in drop order.

    Each drop is the largest edge of `shortest_cycle` of the remaining
    graph, so the drop list is that of the plain loop

        while (cyc := shortest_cycle(n, g)) and len(cyc) <= l:
            g.discard(max(cycle edges of cyc))

    Each edge keeps its key (cycle length, canonical cycle) from
    `_edge_cycle` in a heap, and is registered under the edges of its own
    a..b path.  By the lemma of `_edge_cycle` only a drop of one of those
    edges can change the key, so a drop makes just the edges registered
    under it stale; their key becomes (old length, ()), a lower bound,
    since deleting edges can only lengthen a cycle.  A stale edge is
    recomputed when its bound reaches the top of the heap.  The top is then
    an exact key no larger than any other edge's, which is the plain loop's
    choice.

    Only the edges of the 2-core get a key, and a drop peels its ends
    (see the module docstring).  A peeled edge is on no cycle after the
    drop, so every cycle that ran through it ran through the dropped edge:
    its key goes with the drop's, and the keys whose paths used it are
    stale already.
    """
    adj = adjacency(n, edges)
    _peel(adj, list(range(n)))
    # live edges with a cycle of length <= l: the exact key, or a bound while stale
    key: dict[Edge, tuple] = {}
    version: dict[Edge, int] = {}  # which computation of an edge's key is current
    # path edge -> (edge, version) of the keys whose a..b path uses it;
    # entries of superseded versions are skipped when read
    dependants: dict[Edge, list] = collections.defaultdict(list)
    stale: set[Edge] = set()
    heap: list = []

    def compute(e: Edge) -> None:
        found = _edge_cycle(adj, e[0], e[1], l)
        if found is None:
            return
        cyc = canonical_cycle(found)
        key[e] = (len(cyc), cyc)
        version[e] = version.get(e, 0) + 1
        tag = (e, version[e])
        for i in range(1, len(found)):
            dependants[edge(found[i - 1], found[i])].append(tag)
        heapq.heappush(heap, (key[e], e))

    for e in _core_edges(adj):
        compute(e)
    dropped = []
    while heap:
        k, e = heapq.heappop(heap)
        if key.get(e) != k:
            continue  # superseded entry, or the edge is gone
        if e in stale:
            stale.discard(e)
            del key[e]
            compute(e)
            continue
        cyc = k[1]
        u, v = drop = max(edge(cyc[i - 1], cyc[i]) for i in range(len(cyc)))
        dropped.append(drop)
        adj[u].remove(v)
        adj[v].remove(u)
        for gone in [drop, *_peel(adj, [u, v])]:
            key.pop(gone, None)
            stale.discard(gone)
        for f, ver in dependants.pop(drop, ()):
            if f in key and version[f] == ver and f not in stale:
                stale.add(f)
                key[f] = (key[f][0], ())
                heapq.heappush(heap, (key[f], f))
    return dropped


def max_degree(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def biconnected_blocks(n: int, edges) -> list[list[Edge]]:
    """Blocks (2-edge-partition into maximal 2-connected pieces and bridges).

    Iterative lowpoint algorithm; each returned block is a sorted edge list.
    """
    adj = adjacency(n, {edge(u, v) for u, v in edges})
    disc = [-1] * n
    low = [0] * n
    blocks: list[list[Edge]] = []
    stack: list[Edge] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        work = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while work:
            v, parent, it = work[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    stack.append(edge(v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    work.append((w, v, iter(adj[w])))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    stack.append(edge(v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while stack and stack[-1] != edge(u, v):
                        block.append(stack.pop())
                    if stack:
                        block.append(stack.pop())
                    if block:
                        blocks.append(sorted(block))
    return blocks

