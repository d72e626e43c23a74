"""Property tests of the cycle helpers against their plain reference forms.

The references are the forms the helpers replaced: a full BFS per edge with
an O(k^2) canonical form, and a cleanup loop that recomputes the global
shortest cycle after every drop.  The fast forms must agree with them
exactly, since the pipeline's instance bytes follow from the drop order.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
def small_graphs(draw):
    n = draw(st.integers(4, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(3, 12))
def test_break_short_cycles_matches_reference_loop(graph, l):
    n, edges = graph
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
