"""Consistent pseudo-distributions from geometry: pairwise tables, embeddings,
and Gaussian max rounding.

Pipeline: a labeled instance with girth above 2L has a unique shortest path
between any two vertices within distance L, along which arc labels compose to
an offset mod (T+1).  Label pairs realizing that offset "match".  The pairwise
table rho gives matching pairs mass (1-mu)^d/(T+1) + (1-(1-mu)^d)/(T+1)^2 at
distance d <= L, non-matching pairs (1-(1-mu)^d)/(T+1)^2, and 1/(T+1)^2 beyond
L; the same numbers arise exactly from cutting each edge of a tree
independently with probability mu and propagating a uniform root label per
piece.  Embedding vectors with inner products mu/2 + rho (norm-squared
mu + 1/(T+1)) and assigning every vertex the label whose vector maximizes the
inner product with one shared Gaussian direction yields local distributions
that are consistent by construction: the same sampled assignment populates
every set, so marginalization identities hold exactly on the empirical table.

This module is the only floating-point one; tables and frequencies stay exact.
An empirical table is an SaSolution with denominator `trials` and one int64
block of sample counts per set size, (sets, q, ..., q) with axes indexed by
label, and no per-entry rational is built.  Per batch, the 1- and 2-vertex
tables come from one float32 0/1 label indicator X (row sums; X @ X.T), the
larger ones from one bincount per chunk of sets.  The total table size is
capped (Caps.sa_table_entries) before any work.  The Gram matrix takes one
float per distinct rho value, converted once from its exact Fraction.

One sampler, _rounded_labels, serves both the tables and the rounding
estimates.  It draws the trials in order from substream(seed, 0), in batches
of ROUND_BATCH_ENTRIES // max(rows, dim) trials for a rows x dim factor
matrix, so memory does not grow with the trial count, and the labels do not
depend on the batch size.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .caps import Caps
from .core import CapExceeded, GmdInstance, InstanceError
from .rng import substream
from .salp import SaSolution, TableBlock, set_order, sets_up_to, shape_blocks, table_entries


class AmbiguousPathError(InstanceError):
    """Two shortest paths (or parallel arcs) make the label offset ill-defined."""


class EmbeddingError(InstanceError):
    """Gram matrix is not positive semidefinite within tolerance."""


class TableMismatchError(InstanceError):
    """The sampled set tables disagree with the arc counts of the same samples."""


def _delta_adjacency(inst: GmdInstance) -> list[list[tuple[int, int]]]:
    """Undirected adjacency; traversing arc tail->head adds +label (mod T+1),
    the reverse direction -label.  Parallel arcs appear as parallel entries so
    that path counting flags them as ambiguity."""
    q = inst.T + 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.n)]
    for a in inst.arcs:
        adj[a.tail].append((a.head, a.label % q))
        adj[a.head].append((a.tail, (-a.label) % q))
    for entries in adj:
        entries.sort()
    return adj


def _bounded_shortest_paths(adj, src: int, depth: int):
    """BFS to `depth`: per reached vertex (distance, path count, label offset)."""
    dist = {src: 0}
    count = {src: 1}
    offset = {src: 0}
    frontier = [src]
    q = len(adj)
    for d in range(depth):
        nxt: list[int] = []
        for x in sorted(frontier):
            for y, delta in adj[x]:
                if y in dist and dist[y] <= d:
                    continue
                if y not in dist:
                    dist[y] = d + 1
                    count[y] = 0
                    offset[y] = offset[x] + delta
                    nxt.append(y)
                count[y] += count[x]
        frontier = nxt
        if not frontier:
            break
    return dist, count, offset


@dataclass
class PairwiseTable:
    """Exact pairwise table rho over (vertex, label) pairs."""

    inst: GmdInstance
    mu: Fraction
    L: int
    pair_info: dict = field(repr=False)  # ordered (u,v) -> (dist, offset), d <= L

    @property
    def q(self) -> int:
        return self.inst.T + 1

    def entry(self, u: int, i: int, v: int, ip: int) -> Fraction:
        q = self.q
        info = (0, 0) if u == v else self.pair_info.get((u, v))
        if info is None:
            return Fraction(1, q * q)
        d, off = info
        return self.level(d, (ip - i) % q == off)

    def level(self, d: int, matching: bool) -> Fraction:
        """rho of a label pair at distance d <= L, matching or not."""
        q = self.q
        keep = (1 - self.mu) ** d
        if matching:
            return keep / q + (1 - keep) / (q * q)
        return (1 - keep) / (q * q)


def pairwise_rho(inst: GmdInstance, mu: Fraction, L: int) -> PairwiseTable:
    if not (0 <= mu <= 1):
        raise InstanceError(f"noise mu must be in [0, 1], got {mu}")
    if L < 0:
        raise InstanceError("L must be nonnegative")
    mu = Fraction(mu)
    adj = _delta_adjacency(inst)
    q = inst.T + 1
    info: dict = {}
    for u in range(inst.n):
        dist, count, offset = _bounded_shortest_paths(adj, u, L)
        for v, d in dist.items():
            if v == u:
                continue
            if count[v] != 1:
                raise AmbiguousPathError(
                    f"shortest path {u}..{v} (distance {d}) is not unique"
                )
            info[(u, v)] = (d, offset[v] % q)
    return PairwiseTable(inst=inst, mu=mu, L=L, pair_info=info)


# ---------------------------------------------------------------------------
# Exact local distributions on forests
# ---------------------------------------------------------------------------


def _forest_structure(inst: GmdInstance):
    pairs = set()
    for a in inst.arcs:
        key = (min(a.tail, a.head), max(a.tail, a.head))
        if key in pairs:
            raise InstanceError("parallel arcs form an undirected 2-cycle")
        pairs.add(key)
    adj = _delta_adjacency(inst)
    seen: set[int] = set()
    components = []
    for root in range(inst.n):
        if root in seen:
            continue
        comp = []
        parent = {root: None}
        queue = deque([root])
        seen.add(root)
        order = []
        while queue:
            x = queue.popleft()
            order.append(x)
            for y, delta in adj[x]:
                if y == parent[x]:
                    continue
                if y in seen:
                    raise InstanceError("input contains a cycle; need a forest")
                seen.add(y)
                parent[y] = x
                queue.append(y)
        components.append((root, order, parent))
    return adj, components


def local_distribution_tree(
    forest: GmdInstance,
    mu: Fraction,
    S: Sequence[int],
) -> dict[tuple, Fraction]:
    """Joint label distribution on S under independent edge cutting.

    Each edge of the forest is cut with probability mu; each resulting piece
    draws one uniform label and propagates it so that every kept arc is
    weakly satisfied.  Marginalizes exactly, by dynamic programming over
    each tree.
    """
    mu = Fraction(mu)
    q = forest.T + 1
    S = tuple(S)
    adj, components = _forest_structure(forest)
    out = {}
    for alpha in itertools.product(range(q), repeat=len(S)):
        clamp = dict(zip(S, alpha))
        p = Fraction(1)
        for root, order, parent in components:
            if not any(v in clamp for v in order):
                continue
            p *= _clamped_tree_probability(adj, order, parent, clamp, mu, q)
        out[alpha] = p
    return out


def _clamped_tree_probability(adj, order, parent, clamp, mu: Fraction, q: int) -> Fraction:
    keep = 1 - mu
    cut = mu / q
    messages: dict[int, list[Fraction]] = {}
    for v in reversed(order):
        base = [
            Fraction(1) if (v not in clamp or clamp[v] == x) else Fraction(0)
            for x in range(q)
        ]
        for y, delta in adj[v]:
            if parent.get(y) != v:
                continue
            m = messages.pop(y)
            total = sum(m, Fraction(0))
            # child value = parent value + delta when the edge survives
            base = [
                base[x] * (keep * m[(x + delta) % q] + cut * total)
                for x in range(q)
            ]
        messages[v] = base
    root_msg = messages[order[0]]
    return sum(root_msg, Fraction(0)) / q


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


@dataclass
class VectorSystem:
    """Factored embedding of the pairwise table over (vertex, label) pairs."""

    vertices: tuple[int, ...]
    T: int
    gram: np.ndarray
    factors: np.ndarray          # rows indexed like gram
    psd_clamp_report: tuple[float, ...]
    inst: Optional[GmdInstance] = None

    @property
    def q(self) -> int:
        return self.T + 1

    @property
    def dim(self) -> int:
        return self.factors.shape[1]


# eigenvalues in [-PSD_TOL, 0) are rounding noise of a PSD Gram matrix
PSD_TOL = 1e-9


def embed_vectors(table: PairwiseTable, S: Optional[Sequence[int]] = None) -> VectorSystem:
    """Eigen-factor the Gram matrix mu/2 + rho (+ mu/2 on the diagonal).

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero and reported; anything
    lower signals a parameter regime where no such embedding exists and
    raises.  The factor must reproduce the Gram entrywise within 2 * PSD_TOL.
    """
    inst = table.inst
    S = tuple(sorted(S if S is not None else range(inst.n)))
    _check_vertices(S, inst.n)
    gram = _gram_matrix(table, S)
    eigvals, eigvecs = np.linalg.eigh(gram)
    low = eigvals.min(initial=0.0)  # no vertex: an empty, PSD Gram matrix
    if low < -PSD_TOL:
        raise EmbeddingError(f"Gram minimum eigenvalue {low:.3e} below -{PSD_TOL:.1e}")
    clamped = tuple(float(v) for v in eigvals[eigvals < 0])
    eigvals = np.clip(eigvals, 0.0, None)
    factors = eigvecs * np.sqrt(eigvals)
    err = np.abs(factors @ factors.T - gram).max(initial=0.0)
    if err > 2 * PSD_TOL:
        raise EmbeddingError(f"factorization error {err:.3e} too large")
    return VectorSystem(
        vertices=S,
        T=inst.T,
        gram=gram,
        factors=factors,
        psd_clamp_report=clamped,
        inst=inst,
    )


def _check_vertices(S: tuple[int, ...], n: int) -> None:
    """InstanceError naming the first vertex of sorted S that is repeated or not in 0..n-1."""
    for u, v in zip((None,) + S, S):
        if u == v or not 0 <= v < n:
            raise InstanceError(f"vertex {v} is {'repeated' if u == v else f'not in 0..{n - 1}'}")


def _gram_matrix(table: PairwiseTable, S: tuple[int, ...]) -> np.ndarray:
    """mu/2 + rho over (vertex, label) pairs of S, plus mu/2 on the diagonal.

    rho takes one value per (distance <= L, matching) class and one beyond
    L; each becomes a float once, by the same operations a per-entry build
    would apply, so the matrix is bit-identical to it.
    """
    q = table.q
    mu = float(table.mu)
    m = len(S)
    # levels[d, 0] non-matching, levels[d, 1] matching; row L + 1 is beyond L
    levels = np.empty((table.L + 2, 2))
    for d in range(table.L + 1):
        for matching in (0, 1):
            levels[d, matching] = mu / 2 + float(table.level(d, bool(matching)))
    levels[table.L + 1, :] = mu / 2 + float(Fraction(1, q * q))
    dist = np.full((m, m), table.L + 1)
    off = np.zeros((m, m), dtype=np.int64)
    np.fill_diagonal(dist, 0)
    pos = {v: a for a, v in enumerate(S)}
    for (u, v), (d, o) in table.pair_info.items():
        if u in pos and v in pos:
            dist[pos[u], pos[v]] = d
            off[pos[u], pos[v]] = o
    labels = np.arange(q)
    step = (labels[None, :] - labels[:, None]) % q          # [i, ip] -> ip - i
    matching = step[None, :, None, :] == off[:, None, :, None]
    gram = levels[dist[:, None, :, None], matching.astype(np.int64)]
    gram = gram.reshape(m * q, m * q)
    diag = np.arange(m * q)
    gram[diag, diag] += mu / 2
    return gram


@dataclass
class EdgeVectorSystem:
    """Explicit orthogonal-coordinate embedding for one arc with a label.

    Built from blocks a(i) (shared by matching pairs, length
    sqrt((1-mu)/(T+1))), b(i,j) (pair bookkeeping, length sqrt(mu)/(T+1)),
    per-side c(i)/c'(i) and a common d (each length sqrt(mu/2)).  Inner
    products: ||u(i)||^2 = mu + 1/(T+1); u(i).u(j) = mu/2 for i != j;
    u(i).v(i') = mu/2 + mu/(T+1)^2, plus (1-mu)/(T+1) when i' - i equals the
    arc label mod T+1.
    """

    T: int
    mu: float
    label: int
    vectors_u: np.ndarray = field(init=False)
    vectors_v: np.ndarray = field(init=False)

    def __post_init__(self):
        q = self.T + 1
        if not (1 <= self.label <= self.T):
            raise InstanceError(f"label {self.label} outside 1..{self.T}")
        if not (0 <= self.mu <= 1):
            raise InstanceError("mu must be in [0, 1]")
        dim = q * q + 3 * q + 1
        len_a = math.sqrt((1 - self.mu) / q)
        len_b = math.sqrt(self.mu) / q
        len_c = math.sqrt(self.mu / 2)
        u = np.zeros((q, dim))
        v = np.zeros((q, dim))
        b0 = q
        c0 = q + q * q
        cp0 = c0 + q
        d0 = cp0 + q
        for i in range(q):
            u[i, i] = len_a
            for j in range(q):
                u[i, b0 + i * q + j] = len_b
            u[i, c0 + i] = len_c
            u[i, d0] = len_c
        for ip in range(q):
            v[ip, (ip - self.label) % q] = len_a
            for j in range(q):
                v[ip, b0 + j * q + ip] = len_b
            v[ip, cp0 + ip] = len_c
            v[ip, d0] = len_c
        self.vectors_u = u
        self.vectors_v = v

    @property
    def q(self) -> int:
        return self.T + 1

    @property
    def dim(self) -> int:
        return self.vectors_u.shape[1]


def noise_for_target_gap(T: int, eps: float) -> float:
    """Largest mu the rounding analysis tolerates for a 1-12*eps guarantee."""
    return eps * eps / (256 * (T + 1) * math.log((T + 1) / eps) ** 2)


@dataclass
class RoundingEstimate:
    trials: int
    seed: int
    vertices: tuple[int, ...]
    marginals: np.ndarray                 # (len(vertices), q) frequencies
    per_edge: dict                        # (u, v, label) -> (p_hat, stderr)

    def edge_estimate(self, u: int, v: int, label: int) -> tuple[float, float]:
        return self.per_edge[(u, v, label)]


def _argmax_labels(scores: np.ndarray, q: int) -> np.ndarray:
    """Per-trial argmax label per vertex, by q - 1 strict compares with the
    best score so far; ties (measure zero) -> smallest, as argmax gives."""
    scores = scores.reshape(len(scores), -1, q)
    best = scores[:, :, 0]
    labels = np.zeros(best.shape, dtype=np.min_scalar_type(q - 1))
    for label in range(1, q):
        np.maximum(labels, (scores[:, :, label] > best) * labels.dtype.type(label), out=labels)
        best = np.maximum(best, scores[:, :, label])
    return labels


# entries of one batch's Gaussian draws and of its scores: 8 MB of float64
# each.  A batch is ROUND_BATCH_ENTRIES // max(rows, dim) trials, 8,738 for
# the 120 x 120 factors of a 40-vertex instance with T = 2.
ROUND_BATCH_ENTRIES = 1 << 20
# at most ROUND_BATCH_ENTRIES trials a batch: float32 holds its counts exactly
assert ROUND_BATCH_ENTRIES <= 1 << 24


def _rounded_labels(factors: np.ndarray, q: int, trials: int, seed: int):
    """Shared-Gaussian argmax rounding of `trials` samples, batch by batch.

    Each trial draws one standard Gaussian of the factors' dimension from
    substream(seed, 0), in order, and labels every vertex (q consecutive
    factor rows) by its row of largest score.  Yields (vertices, batch)
    int32 label rows, vertex-major so that each vertex's labels are
    contiguous.  A trial's labels depend on its own draws alone, so any
    batch size gives the same labels.
    """
    rows, dim = factors.shape
    batch = max(1, ROUND_BATCH_ENTRIES // max(rows, dim, 1))
    rng = substream(seed, 0)
    for done in range(0, trials, batch):
        step = min(batch, trials - done)
        # one expression, so that no draw or score outlives it: only the
        # int32 rows stay alive while the caller counts them
        yield np.ascontiguousarray(
            _argmax_labels(rng.standard_normal((step, dim)) @ factors.T, q).T, dtype=np.int32
        )


def _count_arcs(
    by_vertex: np.ndarray, arcs: Sequence[tuple[int, int, int]], out: np.ndarray
) -> None:
    """Add to out[j] the samples that satisfy arc j = (tail row, head row,
    label): tail label 0 and head label equal to the arc's label."""
    for j, (tail, head, label) in enumerate(arcs):
        out[j] += np.count_nonzero((by_vertex[tail] == 0) & (by_vertex[head] == label))


def round_and_estimate(
    vs,
    trials: int,
    seed: int,
    vertices: Optional[Sequence[int]] = None,
) -> RoundingEstimate:
    """Shared-Gaussian argmax rounding with per-edge satisfaction estimates.

    For a VectorSystem the edges are the instance arcs inside the requested
    vertex set; for an EdgeVectorSystem the single built arc (its endpoints
    are named 0 and 1).  Marginals for a vertex are bit-identical across
    calls with the same system and seed regardless of the vertex subset,
    because the Gaussian stream has the system's full dimension.
    """
    if trials < 1:
        raise InstanceError(f"trials must be >= 1, got {trials}")
    if isinstance(vs, EdgeVectorSystem):
        matrix = np.vstack([vs.vectors_u, vs.vectors_v])
        verts = (0, 1)
        arcs = [(0, 1, vs.label)]
    else:
        if vs.factors.size == 0:
            raise InstanceError("empty vector system")
        matrix = vs.factors
        verts = vs.vertices
        arcs = [(a.tail, a.head, a.label) for a in vs.inst.arcs]
    q = vs.q
    request = tuple(verts if vertices is None else sorted(vertices))
    pos = {v: i for i, v in enumerate(verts)}
    missing = [v for v in request if v not in pos]
    if missing:
        raise InstanceError(f"vertex {missing[0]} is not in the vector system")
    _check_vertices(request, max(verts) + 1)  # all in the system: only a repeat is left
    edges = [arc for arc in arcs if arc[0] in request and arc[1] in request]
    edge_rows = [(pos[u], pos[v], t) for u, v, t in edges]
    marg = np.zeros((len(request), q), dtype=np.int64)
    hits = np.zeros(len(edges), dtype=np.int64)
    for by_vertex in _rounded_labels(matrix, q, trials, seed):
        for r, v in enumerate(request):
            marg[r] += np.bincount(by_vertex[pos[v]], minlength=q)
        _count_arcs(by_vertex, edge_rows, hits)
    per_edge = {}
    for arc, h in zip(edges, hits.tolist()):
        p = h / trials
        per_edge[arc] = (p, math.sqrt(max(p * (1 - p), 1e-300) / trials))
    return RoundingEstimate(
        trials=trials,
        seed=seed,
        vertices=request,
        marginals=marg / trials,
        per_edge=per_edge,
    )


def _check_arc_counts(inst: GmdInstance, tables: dict, sat_counts: Sequence[int]) -> None:
    """Each arc's satisfied-sample count must equal the count its pair table
    holds for (tail label 0, head label = arc label), where that table exists."""
    for a, sat in zip(inst.arcs, sat_counts):
        S = (a.tail, a.head) if a.tail < a.head else (a.head, a.tail)
        table = tables.get(S)
        if table is None:
            continue
        alpha = (0, a.label) if S == (a.tail, a.head) else (a.label, 0)
        if int(table[alpha]) != sat:
            raise TableMismatchError(
                f"arc {a.tail}->{a.head}: {sat} satisfied samples, "
                f"its pair table counts {int(table[alpha])}"
            )


@dataclass
class SaBuildResult:
    solution: SaSolution
    objective: Fraction
    trials: int
    seed: int
    psd_clamp_report: tuple[float, ...]


def build_sa_solution(
    inst: GmdInstance,
    mu: Fraction,
    L: int,
    k: int,
    trials: int,
    seed: int,
    sets: Optional[Sequence[tuple[int, ...]]] = None,
    caps: Caps = Caps(),
) -> SaBuildResult:
    """Empirical pseudo-distribution over all vertex sets of size <= k.

    One shared Gaussian stream rounds every vertex per trial, and each set's
    table is the empirical frequency of its joint outcome, so the
    marginalization identities hold exactly (the same assignments populate
    every set).  The objective is the weighted frequency of satisfied arcs.
    The tables' total size, the sum of (T+1)^|S| over the sets, is checked
    against `caps.sa_table_entries` before any other work.
    """
    if k < 1:
        raise InstanceError("k must be >= 1")
    if trials < 1:
        raise InstanceError(f"trials must be >= 1, got {trials}")
    q = inst.T + 1
    cap = min(caps.sa_table_entries, 2**31 - 1)  # the counting's codes are int32
    if sets is None:
        entries = table_entries([q] * inst.n, k, cap)
    else:
        sets = sorted({tuple(sorted(S)) for S in sets}, key=set_order)
        if any(not S or len(S) > k or S[0] < 0 or S[-1] >= inst.n or len(set(S)) < len(S)
               for S in sets):
            raise InstanceError(
                f"a requested set is empty, exceeds size k={k}, repeats a vertex or names no vertex"
            )
        entries = sum(q ** len(S) for S in sets)
    if entries > cap:
        raise CapExceeded(f"at least {entries} table entries exceed cap {cap}")
    table = pairwise_rho(inst, mu, L)
    vs = embed_vectors(table)
    if sets is None:
        sets = sets_up_to(inst.n, k)
    blocks = [vertices for _, _, vertices in shape_blocks(sets, [q] * inst.n)]

    counts = [np.zeros((len(verts), q ** verts.shape[1]), dtype=np.int64) for verts in blocks]
    # the vertices of the 1- and 2-vertex sets, a pair's first (blocks come by ascending size)
    small = np.zeros(inst.n, dtype=np.int64)
    for verts in blocks:
        if verts.shape[1] <= 2:
            small[verts] = verts.shape[1]
    paired = np.flatnonzero(small == 2)
    vertices = np.concatenate([paired, np.flatnonzero(small == 1)])
    arcs = [(a.tail, a.head, a.label) for a in inst.arcs]
    hits = np.zeros(len(arcs), dtype=np.int64)
    for by_vertex in _rounded_labels(vs.factors, q, trials, seed):
        _count_sets(by_vertex, blocks, counts, vertices, len(paired), q)
        _count_arcs(by_vertex, arcs, hits)
    sat_counts = hits.tolist()

    solution = SaSolution(
        blocks=[
            TableBlock(verts, out.reshape((len(verts),) + (q,) * verts.shape[1]))
            for verts, out in zip(blocks, counts)
        ],
        denom=trials,
        rounds=k,
        domains=tuple(tuple(range(q)) for _ in range(inst.n)),
    )
    # objective from the same shared samples; identical to the pair-table
    # number whenever that table exists (k >= 2 over the arc's endpoints)
    _check_arc_counts(inst, solution.tables, sat_counts)
    objective = Fraction(0)
    for a, sat in zip(inst.arcs, sat_counts):
        objective += a.weight * Fraction(sat, trials)
    return SaBuildResult(
        solution=solution,
        objective=objective,
        trials=trials,
        seed=seed,
        psd_clamp_report=vs.psd_clamp_report,
    )


def _count_sets(by_vertex: np.ndarray, blocks, counts, vertices: np.ndarray, paired: int, q: int) -> None:
    """Add each block's tables to its counts.  Row (i, a) of a 0/1 float32 indicator
    X marks the samples where vertices[i] takes label a: X's row sums are the 1-vertex
    tables, X @ X.T over the first `paired` vertices holds the pair tables (exact, as
    counts stay below 2^24), and larger sets go to _count_block."""
    row = np.empty(len(by_vertex), dtype=np.int64)
    row[vertices] = np.arange(len(vertices))
    x = by_vertex[vertices][:, None, :] == np.arange(q, dtype=by_vertex.dtype)[:, None]
    x = x.astype(np.float32).reshape(len(vertices) * q, by_vertex.shape[1])
    for verts, out in zip(blocks, counts):
        if verts.shape[1] == 1:
            out += x.sum(axis=1).reshape(-1, q)[row[verts[:, 0]]].astype(np.int64)
        elif verts.shape[1] == 2:
            product = (x[:paired * q] @ x[:paired * q].T).reshape(paired, q, paired, q)
            table = product[row[verts[:, 0]], :, row[verts[:, 1]], :]
            out += table.reshape(len(verts), -1).astype(np.int64)
        else:
            _count_block(by_vertex, verts, q, out)


# entries of one temporary of the counting: 256 KB of int32 codes, 512 KB of
# int64 counts.  Measured on the n=40 pair tables, before X @ X.T took them
# (1,000 trials, 2-core Xeon): 2.0 ms at 2^16 entries, 4.3 ms at 2^17 in int64.
COUNT_CHUNK_ENTRIES = 1 << 16


def _count_block(by_vertex: np.ndarray, vertices: np.ndarray, q: int, out: np.ndarray) -> None:
    """Add each set's joint label counts to its row of `out`, (sets, q^size).

    A chunk of sets is counted by one bincount: a sample's code is its
    labels on the set read as base-q digits, offset by q^size times the
    set's position in the chunk.  The chunk holds as many sets as keep
    chunk * max(samples, q^size) within COUNT_CHUNK_ENTRIES, and one set
    when the samples or the table alone are larger.  Codes stay below
    max(COUNT_CHUNK_ENTRIES, q^size), which build_sa_solution's cap keeps
    within int32.
    """
    width = out.shape[1]
    chunk = max(1, COUNT_CHUNK_ENTRIES // max(by_vertex.shape[1], width))
    for lo in range(0, len(vertices), chunk):
        part = vertices[lo:lo + chunk]
        code = by_vertex[part[:, 0]]
        for column in part.T[1:]:
            code *= q
            code += by_vertex[column]
        code += (np.arange(len(part), dtype=code.dtype) * width)[:, None]
        out[lo:lo + len(part)] += np.bincount(
            code.reshape(-1), minlength=len(part) * width
        ).reshape(len(part), width)
