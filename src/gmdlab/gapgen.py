"""Generate-and-check pipeline for sparse DAG instances with verified structure.

The pipeline samples a sub-DAG of a base DAG, labels arcs uniformly, then
postprocesses: drop all edges at vertices whose degree exceeds twice the
target, and break every short undirected cycle until the girth exceeds the
locality parameter l.  Nothing probabilistic is trusted: every postcondition
(acyclicity, degree cap, girth, noise inequality, measured optimum) is
checked explicitly per seed and reported, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Optional

import numpy as np

from . import graphs
from .core import GmdInstance, InstanceError, parse_instance
from .exact import _GmdResponder, opt_gmd
from .reduction import CycleError, topo_number
from .rng import coin_rows, substream

# `check_structural` reports the exact optimum up to this many vertices and
# the local search's value above; moving it changes `gap` CSVs past 24
EXACT_OPT_MAX_N = 24


@dataclass(frozen=True)
class DagSkeleton:
    """Unlabeled digraph on 0..n-1; the raw material before sparsification."""

    n: int
    arcs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PipelineConfig:
    n: int
    T: int
    Delta: int
    p_keep: Fraction
    l: int
    mu: Fraction
    k_max: int
    seed: int
    epsilon: Fraction = Fraction(1, 10)

    def __post_init__(self):
        if not (0 < self.p_keep <= 1):
            raise InstanceError(f"p_keep must be in (0, 1], got {self.p_keep}")
        if self.l < 9:
            raise InstanceError(f"l must be >= 9 so L = floor(l/9) >= 1, got {self.l}")
        if self.Delta < 1:
            raise InstanceError("Delta must be >= 1")
        if not (0 < self.mu <= 1):
            raise InstanceError(f"noise mu must be in (0, 1], got {self.mu}")
        if self.T < 1 or self.k_max < 1 or self.n < 1:
            raise InstanceError("n, T, k_max must be positive")


@dataclass(frozen=True)
class StructuralReport:
    is_acyclic: bool
    max_degree: int
    girth: Optional[int]          # None = forest
    edge_count: int
    noise_ok: bool
    measured_opt: Optional[Fraction]
    measured_opt_exact: bool
    dicut_bound_ok: Optional[bool]
    edges_ok: bool


def generate_base_dag(kind: str, n: int, params: Optional[dict] = None, seed: int = 0) -> DagSkeleton:
    """Base providers: 'complete-dag', 'window-random', 'custom-file'.

    Arcs always run from larger to smaller vertex id (acyclic by
    construction) except for custom files, which are checked.  No provider
    promises a low max-dicut fraction; that is measured downstream.
    """
    params = params or {}
    if kind == "complete-dag":
        arcs = tuple((u, v) for u in range(n) for v in range(u))
        return DagSkeleton(n=n, arcs=arcs)
    if kind == "window-random":
        window = int(params.get("window", 3))
        p = float(params.get("p", 0.5))
        if window < 1:
            raise InstanceError(f"window must be >= 1, got {window}")
        if not 0 <= p <= 1:
            raise InstanceError(f"window edge probability must be in [0, 1], got {p}")
        pairs = [(u, v) for u in range(n) for v in range(max(0, u - window), u)]
        keep = (substream(seed, 0).random(len(pairs)) < p).tolist()
        return DagSkeleton(n=n, arcs=tuple(uv for uv, k in zip(pairs, keep) if k))
    if kind == "custom-file":
        path = params.get("path")
        if path is None:
            raise InstanceError("custom-file base needs params={'path': ...}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InstanceError(f"cannot read {path}: {exc}") from exc
        inst = parse_instance(text)
        if not isinstance(inst, GmdInstance):
            raise InstanceError("custom base file must be a gmd instance")
        topo_number(inst)  # raises CycleError on cyclic input
        arcs = tuple(sorted({(a.tail, a.head) for a in inst.arcs}))
        return DagSkeleton(n=inst.n, arcs=arcs)
    raise InstanceError(f"unknown base kind {kind!r}")


def _draw_threshold(p: Fraction) -> float:
    """The double t with u < t exactly when u < p, for every u that
    `Generator.random()` returns.

    Those are the multiples j * 2^-53 with 0 <= j < 2^53, and j < p * 2^53
    holds for an integer j exactly when j < ceil(p * 2^53); for 0 < p <= 1
    that ceiling is at most 2^53, so t = ceil(p * 2^53) * 2^-53 is a double.
    """
    return math.ldexp(math.ceil(p * 2**53), -53)


def sparsify_pipeline(base: DagSkeleton, cfg: PipelineConfig) -> tuple[GmdInstance, StructuralReport]:
    """Sample, label, and clean the base DAG; returns instance plus report."""
    # one draw per base arc, then the labels: `random(k)` gives the doubles
    # of k scalar calls and leaves the generator in the same state
    rng = substream(cfg.seed, 0)
    keep = (rng.random(len(base.arcs)) < _draw_threshold(cfg.p_keep)).tolist()
    kept = [a for a, k in zip(base.arcs, keep) if k]
    labels = rng.integers(1, cfg.T + 1, size=len(kept))
    arcs = {(u, v): int(t) for (u, v), t in zip(kept, labels)}

    # degree control: delete every edge incident to an over-degree vertex
    deg = [0] * base.n
    for u, v in arcs:
        deg[u] += 1
        deg[v] += 1
    bad = {v for v in range(base.n) if deg[v] > 2 * cfg.Delta}
    if bad:
        arcs = {uv: t for uv, t in arcs.items() if uv[0] not in bad and uv[1] not in bad}

    # girth control: break short undirected cycles one edge at a time
    dropped = set(graphs.break_short_cycles(base.n, arcs, cfg.l))
    arcs = {uv: t for uv, t in arcs.items() if graphs.edge(*uv) not in dropped}

    m = len(arcs)
    if m == 0:
        inst = GmdInstance(T=cfg.T, n=base.n, arcs=())
    else:
        w = Fraction(1, m)
        inst = GmdInstance.of(cfg.T, base.n, [(u, v, t, w) for (u, v), t in arcs.items()])
    return inst, check_structural(inst, cfg)


def _local_search_estimate(inst: GmdInstance, restarts: int, seed: int) -> Fraction:
    """Best zero-set hill-climbing value over seeded restarts (heuristic).

    Values are exact integers on the store of `exact._GmdResponder`, one
    term per paying arc.  Every restart's start scores (what each label of
    a vertex's domain earns from the zero set, at its slot in a row as wide
    as the widest domain), largest scores and value come from one numpy
    scatter over (restart, head, slot).  Flipping v changes only the best
    responses of v and of the heads of its out-arcs, so a flip's gain comes
    from their scores and largest scores, kept up to date.  That gain reads the zero flags and
    largest scores of v and of those heads, so a flip at u can change the
    gains of u, of its in- and out-neighbours, and of the in-neighbours of
    its out-neighbours.  A sweep visits the vertices with a term and
    re-scores those a flip marked since they last found no gain; the others'
    gains are unchanged and not positive, so the flips, their order and the
    value are those of re-scoring every vertex.
    """
    resp = _GmdResponder(inst)
    n = inst.n
    width = max(map(len, resp.domains), default=1)
    # out[v]: (w, what each label slot of w earns while v is zero)
    earns: list[dict[int, list[int]]] = [{} for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    arcs = zip(resp.tails.tolist(), resp.heads.tolist(), resp.slots.tolist(), resp.pays.tolist())
    for v, w, j, p in arcs:
        g = earns[v].get(w)
        if g is None:
            g = earns[v][w] = [0] * width
            ins[w].append(v)
        g[j] = p
    out = [list(e.items()) for e in earns]
    # reach[v]: the most a flip of v into the zero set can add to its heads
    reach = [sum(max(g) for _, g in o) for o in out]
    active = [v for v in range(n) if out[v] or ins[v]]
    # restart r starts from the coins of substream r + 1, zero where 0
    zeros = coin_rows(seed, np.arange(1, restarts + 1, dtype=np.uint64), n) == 0
    # the scatter adds each paying arc's payoff at its (head, slot) when its
    # tail is zero
    scores = np.zeros((restarts, n, width), dtype=resp.pays.dtype)
    np.add.at(scores.reshape(restarts, n * width), (slice(None), resp.heads * width + resp.slots),
              zeros[:, resp.tails] * resp.pays)
    tops = scores.max(axis=2)
    vals = np.where(zeros, 0, tops).sum(axis=1).tolist()
    best = 0
    for zero, score, top, val in zip(zeros.tolist(), scores.tolist(), tops.tolist(), vals):
        dirty = [True] * n
        improved = True
        while improved:
            improved = False
            for v in active:
                if not dirty[v]:
                    continue
                # v finds no gain, or flips and would lose delta flipping back
                dirty[v] = False
                # no payoff is negative, so a flip gains at most `most`
                if zero[v]:
                    delta, step, most = top[v], sub, top[v]
                else:
                    delta, step, most = -top[v], add, reach[v] - top[v]
                if most <= 0:
                    continue
                moved = []
                for w, g in out[v]:
                    new = list(map(step, score[w], g))
                    m = max(new)
                    if not zero[w]:
                        delta += m - top[w]
                    moved.append((w, new, m))
                if delta > 0:
                    zero[v] = not zero[v]
                    val += delta
                    improved = True
                    # mark the gains that the flip can change
                    for x in ins[v]:
                        dirty[x] = True
                    for w, new, m in moved:
                        score[w], top[w], dirty[w] = new, m, True
                        for x in ins[w]:
                            dirty[x] = True
                    dirty[v] = False
        best = max(best, val)
    return Fraction(best, resp.denom)


def _noise_inequality(mu: Fraction, l: int, k_max: int) -> bool:
    """(1-mu)^(l/10) <= mu/(5 k_max), decided exactly: both sides are
    nonnegative, so it holds exactly when (1-mu)^l <= (mu/(5 k_max))^10."""
    mu = Fraction(mu)
    return (1 - mu) ** l <= (mu / (5 * k_max)) ** 10


def check_structural(inst: GmdInstance, cfg: PipelineConfig) -> StructuralReport:
    try:
        topo_number(inst)
        acyclic = True
    except CycleError:
        acyclic = False
    und = {graphs.edge(a.tail, a.head) for a in inst.arcs}
    g = graphs.girth(inst.n, und)
    noise_ok = _noise_inequality(cfg.mu, cfg.l, cfg.k_max)

    measured_opt = None
    exact_flag = False
    bound_ok = None
    if inst.arcs:
        if inst.n <= EXACT_OPT_MAX_N:
            measured_opt = opt_gmd(inst).value
            exact_flag = True
        else:
            measured_opt = _local_search_estimate(inst, restarts=12, seed=cfg.seed)
        bound_ok = measured_opt <= (1 + cfg.epsilon) / (4 * cfg.T)
    return StructuralReport(
        is_acyclic=acyclic,
        max_degree=graphs.max_degree(inst.n, und),
        girth=g,
        edge_count=len(inst.arcs),
        noise_ok=noise_ok,
        measured_opt=measured_opt,
        measured_opt_exact=exact_flag,
        dicut_bound_ok=bound_ok,
        edges_ok=bool(inst.arcs),
    )


@dataclass(frozen=True)
class PathDecomposability:
    status: str                     # "verified" | "refuted" | "inconclusive"
    witness: Optional[tuple]        # refuting 2-connected edge set

    def __bool__(self) -> bool:
        return self.status == "verified"


def _degree_two_chains(block_edges) -> tuple[list[list[int]], bool]:
    """Maximal runs of consecutive degree-2 vertices; flags the all-cycle case.

    When not every block vertex has degree 2, the induced subgraph on the
    degree-2 vertices is a disjoint union of paths (an induced cycle would be
    the whole connected block), so walking from each path endpoint in sorted
    order enumerates the chains deterministically.
    """
    deg: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for u, v in block_edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    two = {v for v, d in deg.items() if d == 2}
    if two == set(deg):
        return [], True  # the block is a single cycle
    chains = []
    seen: set[int] = set()
    for start in sorted(two):
        if start in seen:
            continue
        if sum(1 for w in adj[start] if w in two) >= 2:
            continue  # interior vertex; its chain is reached from an endpoint
        chain = [start]
        seen.add(start)
        prev = None
        while True:
            nxt = [w for w in adj[chain[-1]] if w in two and w != prev]
            if not nxt:
                break
            prev = chain[-1]
            chain.append(nxt[0])
            seen.add(nxt[0])
        chains.append(chain)
    return chains, False


def check_path_decomposable(
    n: int, edges, l: int, max_rounds: int = 10_000
) -> PathDecomposability:
    """Necessary-condition checker for l-path decomposability.

    Each 2-connected block must offer a path whose >= l internal vertices all
    have degree 2 in the block: either the block is a cycle on >= l+2
    vertices, or it has a degree-2 chain of length >= l.  Found chains are
    suppressed (their vertices removed) and the remainder re-blocked, so
    `verified` means the recursion exhausted every residual block;
    `refuted` carries a concrete failing block; the round cap yields
    `inconclusive`.
    """
    work = [
        tuple(block)
        for block in graphs.biconnected_blocks(n, edges)
        if len(block) >= 3  # blocks with a cycle; bridges are vacuous
    ]
    rounds = 0
    while work:
        rounds += 1
        if rounds > max_rounds:
            return PathDecomposability(status="inconclusive", witness=None)
        block = work.pop()
        chains, is_cycle = _degree_two_chains(block)
        if is_cycle:
            if len(block) >= l + 2:
                continue
            return PathDecomposability(status="refuted", witness=block)
        good = [c for c in chains if len(c) >= l]
        if not good:
            return PathDecomposability(status="refuted", witness=block)
        chain = min(good)
        removed = set(chain)
        rest = [e for e in block if e[0] not in removed and e[1] not in removed]
        for sub in graphs.biconnected_blocks(n, rest):
            if len(sub) >= 3:
                work.append(tuple(sub))
    return PathDecomposability(status="verified", witness=None)
