"""Small undirected-graph routines shared by the pipeline and embedding code.

Graphs are plain edge sets of sorted vertex pairs over vertices 0..n-1.
Everything here is deterministic: BFS visits neighbors in increasing id
order and cycle extraction canonicalizes before comparing.

Girth cleanup contract: `break_short_cycles` drops exactly the edges, in
exactly the order, that repeatedly dropping the largest edge of
`shortest_cycle` would, so every pipeline instance is the same byte for
byte.  `_edge_cycle(a, b)` returns the lexicographically smallest shortest
a..b path of G - ab, which makes `shortest_cycle` a function of the graph.

Sweep lemma: (1) deleting edges creates no cycle.  (2) In a graph of girth
k, `shortest_cycle` is the canonical-least k-cycle (c0, c1, ..., c_{k-1}):
the path `_edge_cycle(c0, c_{k-1})` is no larger than (c0, c1, ..., c_{k-1})
and closes a k-cycle, whose smallest vertex is c0 by minimality, so its
canonical form is no larger either.  (3) In a graph of girth at least k
the ball of radius < k/2 around a vertex is a tree, so one BFS from v over
the vertices above v finds each k-cycle whose smallest vertex is v exactly
once, where its two tree paths meet at depth k // 2 (the argument of Itai
& Rodeh 1978).  By (1) and (2) the plain loop's choices are the k-cycles
for k = 3..l, taken in (k, canonical form) order, each one skipped when an
earlier drop broke it; by (3) the cleanup lists them that way, one length
at a time.

Peeling lemma: a vertex with one neighbour lies on no cycle, and neither
does its edge, so deleting it changes no cycle and no `_edge_cycle` result
of the other edges.  Deleting such vertices until none is left (the k-core
peeling of Batagelj & Zaversnik 2003, k = 2) leaves the 2-core, and `girth`
and `break_short_cycles` search for cycles there only; the cleanup peels
again after each drop.
"""

from __future__ import annotations

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


def _cycles_from(adj, v: int, k: int) -> list[tuple[int, ...]]:
    """The k-cycles of `adj` whose smallest vertex is v, canonical and
    sorted; `adj` must have girth at least k.

    BFS from v over the vertices above v runs to depth r = k // 2.  The
    ball of radius < k/2 is a tree (sweep lemma (3) in the module
    docstring), so BFS takes every neighbour but a vertex's parent as new,
    each vertex there has one path from v, and a k-cycle shows as
    - odd k: an edge joining two depth-r vertices;
    - even k: a depth-r vertex and two of its depth-(r - 1) neighbours,
    where the two tree paths meet only at v.
    """
    r = k // 2
    parent = {v: v}
    frontier = [v]
    for _ in range(r - 1 + k % 2):
        nxt = []
        for x in frontier:
            px = parent[x]
            for y in adj[x]:
                if y > v and y != px:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt

    def arm(x) -> list[int]:
        """The tree path from v's child to x."""
        path = [x]
        while (x := parent[x]) != v:
            path.append(x)
        return path[::-1]

    # (end, middle, end): two tree paths' ends that close a k-cycle, and
    # for even k the vertex joining them
    if k % 2:
        ends = [(x, (), y) for x in frontier for y in adj[x]
                if y > x and y != parent[x] and y in parent]
    else:
        met: dict[int, list[int]] = {}
        for x in frontier:
            px = parent[x]
            for y in adj[x]:
                if y > v and y != px:
                    met.setdefault(y, []).append(x)
        ends = [(x1, (y,), x2) for y, xs in met.items()
                for i, x1 in enumerate(xs) for x2 in xs[i + 1:]]
    cycles = []
    for x1, mid, x2 in ends:
        a, b = arm(x1), arm(x2)
        if b[0] < a[0]:
            a, b = b, a
        cycles.append((v, *a, *mid, *b[::-1]))
    cycles.sort()
    return cycles


def break_short_cycles(n: int, edges, l: int) -> list[Edge]:
    """Drop edges until no cycle of length <= l is left; returns them in drop order.

    Each drop is the largest edge of `shortest_cycle` of the remaining
    graph, so the drop list is that of the plain loop

        while (cyc := shortest_cycle(n, g)) and len(cyc) <= l:
            g.discard(max(cycle edges of cyc))

    One sweep per length k = 3..l: each vertex v in ascending order lists
    its k-cycles by `_cycles_from`, and each listed cycle still whole gives
    up its largest edge.  By the sweep lemma of the module docstring these
    are the loop's drops in the loop's order: the girth is at least k when
    length k is swept, deletions create no cycle, and the loop picks the
    canonical-least k-cycle.

    Only the 2-core is searched, and a drop peels its ends (see the module
    docstring).  A peeled edge is on no cycle, so a listed cycle through it
    was broken by a drop already.
    """
    adj = adjacency(n, edges)
    _peel(adj, list(range(n)))
    dropped = []
    for k in range(3, l + 1):
        for v, nb in enumerate(adj):
            if len(nb) < 2 or nb[-2] < v:
                continue  # no two neighbours above v
            for cyc in _cycles_from(adj, v, k):
                ring = [edge(cyc[i - 1], cyc[i]) for i in range(k)]
                if all(b in adj[a] for a, b in ring):
                    u, w = drop = max(ring)
                    dropped.append(drop)
                    adj[u].remove(w)
                    adj[w].remove(u)
                    _peel(adj, [u, w])
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

