"""Property tests of the cycle helpers against their plain reference forms.

The references are the forms the helpers replaced: a full BFS per edge with
an O(k^2) canonical form, and a cleanup loop that recomputes the global
shortest cycle after every drop.  The fast forms must agree with them
exactly, since the pipeline's instance bytes follow from the drop order.
`_edge_cycle` and the cleanup's cycle enumerator are checked against
depth-first enumeration of paths and cycles.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmdlab import gapgen, graphs
from gmdlab.gapgen import PipelineConfig, generate_base_dag, sparsify_pipeline
from gmdlab.graphs import break_short_cycles, canonical_cycle, edge, girth, shortest_cycle


def reference_canonical_cycle(path):
    """Minimum over every rotation of the cycle and of its reverse."""
    k = len(path)
    return min(
        tuple(seq[(shift + i) % k] for i in range(k))
        for seq in (list(path), list(path)[::-1])
        for shift in range(k)
    )


def reference_shortest_cycle(n, edges):
    """Full BFS per edge (first-discovery parents, sorted neighbours)."""
    edges = sorted({edge(u, v) for u, v in edges})
    adj = graphs.adjacency(n, edges)
    best = None
    for a, b in edges:
        parent = [-1] * n
        parent[a] = a
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if edge(x, y) != (a, b) and parent[y] == -1:
                    parent[y] = x
                    queue.append(y)
        if parent[b] == -1:
            continue
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        cyc = reference_canonical_cycle(path)
        if best is None or (len(cyc), cyc) < best:
            best = (len(cyc), cyc)
    return best[1] if best else None


def reference_break(n, edges, l):
    """Drop the largest edge of the global shortest cycle until girth > l."""
    g = {edge(u, v) for u, v in edges}
    dropped = []
    while (cyc := shortest_cycle(n, g)) is not None and len(cyc) <= l:
        drop = max(edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
        g.discard(drop)
        dropped.append(drop)
    return dropped


@st.composite
def small_graphs(draw, max_n=14):
    n = draw(st.integers(4, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    return n, edges


def all_simple_paths(adj, a, b, skip):
    """Every simple a..b path avoiding edge `skip`, by depth-first enumeration."""
    paths, stack = [], [[a]]
    while stack:
        path = stack.pop()
        for y in adj[path[-1]]:
            if y in path or edge(path[-1], y) == skip:
                continue
            if y == b:
                paths.append(path + [y])
            else:
                stack.append(path + [y])
    return paths


@st.composite
def sparse_graphs(draw):
    """n 15-40, degree at most 8: deep enough BFS levels for l 9-14."""
    n = draw(st.integers(15, 40))
    vertex = st.integers(0, n - 1)
    deg = [0] * n
    edges = set()
    for u, v in draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=2 * n)):
        e = edge(u, v)
        if u != v and e not in edges and deg[u] < 8 and deg[v] < 8:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    return n, sorted(edges)


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=8), st.integers(2, 9), st.data())
def test_edge_cycle_is_lex_smallest_shortest_path(graph, limit, data):
    n, edges = graph
    assume(edges)
    adj = graphs.adjacency(n, edges)
    a, b = data.draw(st.sampled_from(edges))
    if data.draw(st.booleans()):
        a, b = b, a
    paths = all_simple_paths(adj, a, b, edge(a, b))
    found = graphs._edge_cycle(adj, a, b, limit)
    shortest = min(map(len, paths), default=limit + 1)
    if shortest > limit:
        assert found is None
    else:
        assert found == min(p for p in paths if len(p) == shortest)


@settings(max_examples=360, deadline=None)
@given(st.one_of(
    st.tuples(small_graphs(), st.integers(3, 12)),
    # BFS depth 8 and more, which the small graphs rarely reach
    st.tuples(sparse_graphs(), st.integers(9, 14)),
))
def test_break_short_cycles_matches_reference_loop(case):
    (n, edges), l = case
    dropped = break_short_cycles(n, edges, l)
    assert dropped == reference_break(n, edges, l)
    g = girth(n, set(edges) - set(dropped))
    assert g is None or g > l


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_shortest_cycle_and_girth_match_reference(graph):
    n, edges = graph
    cyc = shortest_cycle(n, edges)
    assert cyc == reference_shortest_cycle(n, edges)
    assert girth(n, edges) == (len(cyc) if cyc else None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=14, unique=True))
def test_canonical_cycle_matches_reference(path):
    assert canonical_cycle(path) == reference_canonical_cycle(path)


@pytest.mark.parametrize("n", [30, 60])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**6), l=st.integers(9, 12))
def test_pipeline_drops_match_reference_loop(n, seed, l):
    calls = []

    def spy(n_, edges, l_):
        dropped = break_short_cycles(n_, edges, l_)
        calls.append((n_, list(edges), l_, dropped))
        return dropped

    cfg = PipelineConfig(n=n, T=2, Delta=4, p_keep=Fraction(4, n - 1), l=l,
                         mu=Fraction(1, 2), k_max=3, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapgen.graphs, "break_short_cycles", spy)
        sparsify_pipeline(generate_base_dag("complete-dag", n), cfg)
    [(n_, edges, l_, dropped)] = calls
    assert dropped == reference_break(n_, edges, l_)


@st.composite
def graphs_with_pendant_trees(draw, max_n=10, max_tree=10):
    """A small graph with trees hung from it, its vertex ids shuffled so
    that tree vertices sit among the others."""
    n_core, edges = draw(small_graphs(max_n=max_n))
    n = n_core + draw(st.integers(0, max_tree))
    # vertex v >= n_core hangs from one earlier vertex
    edges = list(edges) + [(draw(st.integers(0, v - 1)), v) for v in range(n_core, n)]
    ids = draw(st.permutations(range(n)))
    return n, [edge(ids[u], ids[v]) for u, v in edges]


def reference_two_core(n, edges):
    """The 2-core by definition: the union of every vertex set whose induced
    subgraph has minimum degree at least 2, and the edges inside it."""
    core = 0
    for mask in range(1, 1 << n):
        deg = [0] * n
        for u, v in edges:
            if mask >> u & mask >> v & 1:
                deg[u] += 1
                deg[v] += 1
        if all(deg[v] >= 2 for v in range(n) if mask >> v & 1):
            core |= mask
    return sorted({e for e in edges if core >> e[0] & core >> e[1] & 1})


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(max_n=11), graphs_with_pendant_trees(max_n=6, max_tree=5)))
def test_peel_leaves_the_two_core(graph):
    n, edges = graph
    adj = graphs.adjacency(n, edges)
    peeled = graphs._peel(adj, list(range(n)))
    core = reference_two_core(n, sorted(set(edges)))
    assert graphs._core_edges(adj) == core
    assert sorted(peeled) == sorted(set(edges) - set(core))


@settings(max_examples=200, deadline=None)
@given(graphs_with_pendant_trees(), st.integers(3, 12))
def test_cycle_helpers_match_reference_with_pendant_trees(graph, l):
    n, edges = graph
    cyc = reference_shortest_cycle(n, edges)
    assert girth(n, edges) == (len(cyc) if cyc else None)
    assert break_short_cycles(n, edges, l) == reference_break(n, edges, l)


def reference_cycles_from(adj, v, k):
    """Every simple k-cycle whose smallest vertex is v, canonical and
    sorted, by depth-first enumeration."""
    found, stack = set(), [[v]]
    while stack:
        path = stack.pop()
        for y in adj[path[-1]]:
            if len(path) == k:
                if y == v:
                    found.add(reference_canonical_cycle(path))
            elif y > v and y not in path:
                stack.append(path + [y])
    return sorted(found)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), sparse_graphs(), graphs_with_pendant_trees()), st.integers(3, 12))
def test_cycles_from_lists_the_k_cycles_of_their_smallest_vertex(graph, k):
    n, edges = graph
    # the enumerator's precondition: girth at least k
    edges = set(edges) - set(reference_break(n, edges, k - 1))
    adj = graphs.adjacency(n, edges)
    for v in range(n):
        assert graphs._cycles_from(adj, v, k) == reference_cycles_from(adj, v, k)
