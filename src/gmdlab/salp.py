"""Sherali-Adams relaxations: builder, exact solver, consistency checking.

The r-round relaxation has one variable x_S(alpha) per vertex set S with
1 <= |S| <= r and per assignment alpha of domain values to S, constrained by
nonnegativity, per-set normalization, and marginalization between nested
sets.  Max-dicut uses the label domain {0..T}; pricing uses a finite price
grid per vertex (half-integral for integer budgets, geometric otherwise).
The variables are numbered in one place, _sa_rows: set by set, each set's
assignments consecutively in row-major domain order from the set's first
variable (SaLp.starts).  Every equality row has coefficients +1 and -1 and a
right-hand side of 1 or 0, so build_sa_lp writes the rows as int64 CSR
arrays, by index arithmetic on those consecutive numbers, with no Python
step per entry; the objective's indices and solve_lp_exact's read-back are
index arithmetic from the same starts.  build_sa_lp checks the lp_variables
cap from the domain sizes before it numbers any variable.

Everything here is exact rational arithmetic.  simplex.py solves the LPs: a
float Bland-rule simplex finds the optimal vertex, which is returned only
after an exact primal-dual certificate, checked on the integer rows, holds;
otherwise the same Bland pivots run again on Fractions with no tolerance,
so reported LP values are never blurred by tolerances.  The vertex comes
back as integer numerators over one denominator.  SaSolution.lp_path
records which of the two passes produced a table.

A solution table (SaSolution) holds integer numerators over one shared
denominator, x_S(alpha) = tables[S][positions of alpha] / denom, stacked in
one block per distinct table shape (TableBlock): a (sets, *shape) array of
numerators and a (sets, size) array of the sets' vertices, rows in sets()
order.  `tables[S]`, `values`, `get` and `marginal` read views into the
blocks.  Tables sampled by sasol.py are int64 counts over the number of
trials, one block per set size; LP tables hold Python-int numerators over
the lcm of their denominators (object dtype, so they never overflow), each
block gathered from the simplex's numerator vector.
The consistency audit is integer work a block at a time: a sign test, row
sums, and per kept-axes pattern one axis sum against the sub-block's rows,
found by a rank lookup; the CSV text reads each block's numerators in one
call.

Grid sizes are known before any grid is built: geometric_grid_size gives a
geometric grid's length from logarithms.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .caps import Caps
from .core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    InstanceError,
    ValueTexts,
    check_price_grid,
)
from .simplex import Csr, simplex_max

SetKey = tuple[int, ...]
Assignment = tuple


@dataclass(frozen=True, eq=False)
class SaLp:
    rounds: int
    sets: tuple[SetKey, ...]
    domains: tuple[tuple, ...]     # per-vertex domain values
    starts: tuple[int, ...]        # each set's first variable; its assignments
                                   # follow in row-major domain order
    objective: tuple[Fraction, ...]
    rows: Csr                      # equality rows in _sa_rows order: int64 CSR,
                                   # coefficients +1 and -1
    rhs: np.ndarray                # their int64 right-hand sides, 1 or 0

    @property
    def num_variables(self) -> int:
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True, eq=False)
class TableBlock:
    """The tables of every set of one shape, stacked.

    `counts[i]` holds the integer numerators of the set `vertices[i]`, with
    one axis per vertex in the order of its domain.  Rows follow sets()
    order.
    """

    vertices: np.ndarray  # (sets, size) int64
    counts: np.ndarray    # (sets, *shape): int64 counts or Python ints (object)

    @property
    def shape(self) -> tuple:
        return self.counts.shape[1:]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(eq=False)
class SaSolution:
    """Table of x_S(alpha) values, complete over each set's assignment space.

    The tables live in `blocks`, one per distinct table shape, as integer
    numerators over `denom`.  `tables` is a read-only S -> table mapping
    whose tables are views into the blocks, and `values` a read-only view
    keyed by (S, alpha), iterated in sorted key order.
    """

    blocks: tuple
    denom: int
    rounds: int
    domains: tuple[tuple, ...]
    lp_path: Optional[str] = None  # "certified" | "exact" for LP tables

    def __post_init__(self):
        if self.denom <= 0:
            raise InstanceError(f"table denominator must be positive, got {self.denom}")
        self.blocks = tuple(self.blocks)
        self._index = [{a: i for i, a in enumerate(dom)} for dom in self.domains]
        orders = [sorted(range(len(dom)), key=dom.__getitem__) for dom in self.domains]
        self._orders = [None if order == list(range(len(order))) else order for order in orders]
        self._ascending = [tuple(dom[i] for i in order) for dom, order in zip(self.domains, orders)]
        n = len(self.domains)
        self._where: dict = {}  # set -> (block, row)
        self._codes = []        # per block: the rank keys of its rows
        self._by_shape: dict = {}
        for b, block in enumerate(self.blocks):
            codes = _set_codes(block.vertices, n)
            if block.shape in self._by_shape or not (codes[1:] > codes[:-1]).all():
                raise InstanceError(
                    f"the block of shape {block.shape} repeats a shape or is not in sets() order"
                )
            self._by_shape[block.shape] = b
            self._codes.append(codes)
            # a set's table shape names its block, so no set is in two blocks
            self._where.update(
                zip(map(tuple, block.vertices.tolist()), zip(itertools.repeat(b), range(len(block))))
            )

    @classmethod
    def from_tables(
        cls, tables, denom: int, rounds: int, domains, lp_path: Optional[str] = None
    ) -> "SaSolution":
        """Stack a set -> table mapping into one block per table shape."""
        domains = tuple(tuple(dom) for dom in domains)
        groups: dict = {}
        for S in sorted(tables, key=_set_order):
            arr = np.asarray(tables[S])
            try:
                shape = tuple(len(domains[v]) for v in S)
            except (IndexError, TypeError):
                raise InstanceError(f"set {S} names no vertex") from None
            if arr.shape != shape:
                raise InstanceError(f"table of set {S} has shape {arr.shape}, want {shape}")
            groups.setdefault(shape, []).append((S, arr))
        blocks = [
            TableBlock(
                np.array([S for S, _ in group], dtype=np.int64).reshape(len(group), len(shape)),
                np.stack([arr for _, arr in group]),
            )
            for shape, group in groups.items()
        ]
        return cls(blocks, denom, rounds, domains, lp_path)

    @classmethod
    def from_values(
        cls, values, rounds: int, domains, lp_path: Optional[str] = None
    ) -> "SaSolution":
        """Build from an (S, alpha) -> rational mapping that is complete over
        the assignment space of every set it names."""
        domains = tuple(tuple(dom) for dom in domains)
        index = [{a: i for i, a in enumerate(dom)} for dom in domains]
        entries: dict = {}
        for (S, alpha), x in values.items():
            S, alpha = tuple(S), tuple(alpha)
            try:
                pos = tuple(index[v][a] for v, a in zip(S, alpha, strict=True))
            except (IndexError, KeyError, ValueError):
                raise InstanceError(f"entry {(S, alpha)} lies outside the domains") from None
            entries.setdefault(S, {})[pos] = Fraction(x)
        denom = math.lcm(*(x.denominator for per in entries.values() for x in per.values()))
        tables = {}
        for S, per in entries.items():
            shape = tuple(len(domains[v]) for v in S)
            if len(per) != math.prod(shape):
                raise InstanceError(
                    f"table of set {S} has {len(per)} of {math.prod(shape)} entries"
                )
            arr = np.empty(shape, dtype=object)
            for pos, x in per.items():
                arr[pos] = x.numerator * (denom // x.denominator)
            tables[S] = arr
        return cls.from_tables(tables, denom, rounds, domains, lp_path)

    @property
    def tables(self) -> "_TableMap":
        """Read-only S -> table mapping; each table is a view into its block."""
        return _TableMap(self)

    @property
    def values(self) -> "_TableView":
        return _TableView(self)

    def sets(self):
        return sorted(self._where, key=_set_order)

    def get(self, S: SetKey, alpha: Assignment) -> Fraction:
        S, alpha = tuple(S), tuple(alpha)
        b, i = self._where[S]
        if len(alpha) != len(S):
            raise KeyError((S, alpha))
        pos = tuple(self._index[v][a] for v, a in zip(S, alpha))
        return Fraction(int(self.blocks[b].counts[(i,) + pos]), self.denom)

    def marginal(self, v: int) -> list[Fraction]:
        return [self.get((v,), (a,)) for a in self.domains[v]]

    def text_rows(self) -> Iterator[tuple[str, str, str]]:
        """(set, assignment, value) CSV cells in sorted (S, alpha) order, the
        value as str(Fraction).

        Each block's numerators are read out in one call, value texts are
        formatted once per distinct numerator and assignment texts once per
        tuple of axes; the rows are chained set by set, in sorted set order,
        with no Python-level step per row.
        """
        texts = ValueTexts(self.denom)
        assignments: dict = {}  # axes -> assignment texts in row-major order
        numerators: dict = {}   # set -> numerators in row-major domain order
        for block in self.blocks:
            numerators.update(zip(map(tuple, block.vertices.tolist()),
                                  block.counts.reshape(len(block), -1).tolist()))
        ordered = all(order is None for order in self._orders)
        return itertools.chain.from_iterable(
            zip(itertools.repeat(" ".join(map(str, S))), self._assignments(S, assignments),
                map(texts.__getitem__, numerators[S] if ordered else self._ascending_order(S)))
            for S in sorted(numerators)
        )

    def _assignments(self, S: SetKey, cache: dict) -> list[str]:
        """Assignment texts of S's table in ascending domain order, built
        once per tuple of axes."""
        axes = tuple(map(self._ascending.__getitem__, S))
        alphas = cache.get(axes)
        if alphas is None:
            alphas = cache[axes] = [" ".join(map(str, alpha)) for alpha in itertools.product(*axes)]
        return alphas

    def _ascending_order(self, S: SetKey) -> list:
        """S's numerators in row-major ascending domain order."""
        orders = [range(len(self.domains[v])) if self._orders[v] is None else self._orders[v]
                  for v in S]
        return self.tables[S][np.ix_(*orders)].reshape(-1).tolist()


def _set_order(S: SetKey) -> tuple:
    return len(S), S


def _set_codes(vertices: np.ndarray, n: int) -> np.ndarray:
    """Rank keys of equal-size sets: the vertices read as base-n digits, so
    key order is lexicographic set order.  Python ints once n^size
    overflows int64."""
    size = vertices.shape[1]
    if n**size < 2**63:
        return vertices @ n ** np.arange(size - 1, -1, -1, dtype=np.int64)
    return vertices.astype(object) @ np.array([n**i for i in range(size - 1, -1, -1)], dtype=object)


class _TableMap(Mapping):
    """Read-only S -> table view of an SaSolution, in sets() order."""

    __slots__ = ("_sol",)

    def __init__(self, sol: SaSolution):
        self._sol = sol

    def __getitem__(self, S) -> np.ndarray:
        b, i = self._sol._where[S]
        return self._sol.blocks[b].counts[i]

    def __len__(self) -> int:
        return len(self._sol._where)

    def __iter__(self):
        return iter(self._sol.sets())


class _TableView(Mapping):
    """Read-only (S, alpha) -> Fraction view of an SaSolution."""

    __slots__ = ("_sol",)

    def __init__(self, sol: SaSolution):
        self._sol = sol

    def __getitem__(self, key) -> Fraction:
        try:
            S, alpha = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return self._sol.get(S, alpha)

    def __len__(self) -> int:
        return sum(block.counts.size for block in self._sol.blocks)

    def __iter__(self):
        ascending = self._sol._ascending
        for S in sorted(self._sol._where):
            for alpha in itertools.product(*(ascending[v] for v in S)):
                yield S, alpha


def geometric_grid(max_budget: Fraction, eps: Fraction) -> list[Fraction]:
    """{0} plus powers of (1+eps) up to the budget, exact rationals."""
    if eps <= 0:
        raise InstanceError("eps must be positive")
    grid = [Fraction(0)]
    p = Fraction(1)
    while p <= max_budget:
        grid.append(p)
        p *= 1 + eps
    return grid


def geometric_grid_size(max_budget: Fraction, eps: Fraction, limit: int) -> int:
    """min(len(geometric_grid(max_budget, eps)), limit + 1), without building
    the grid.

    The grid holds 0 and (1+eps)^k for k = 0..K, K = floor(log B / log(1+eps))
    when B = max_budget >= 1.  A float estimate of K settles the length unless
    it lies within rounding of an integer; only then, and only when K is at
    most about `limit`, exact powers of 1+eps confirm it.
    """
    if eps <= 0:
        raise InstanceError("eps must be positive")
    if max_budget < 1:
        return min(1, limit + 1)
    top = 0
    if max_budget > 1:
        log_top = _log_log1p(max_budget - 1) - _log_log1p(eps)
        if log_top > math.log(limit + 1) + 1e-6:
            return limit + 1
        est = math.exp(log_top)
        top = math.floor(est)
        if min(est - top, top + 1 - est) <= 1e-9 * (est + 1):
            step, top = 1 + eps, round(est)
            while top > 0 and step**top > max_budget:
                top -= 1
            while step ** (top + 1) <= max_budget:
                top += 1
    return min(top + 2, limit + 1)


def _log_log1p(f: Fraction) -> float:
    """log(log(1 + f)) for a rational f > 0, free of float overflow and
    underflow: log(1 + f) = f (1 - f/2 + ...) for tiny f."""
    p, q = f.numerator, f.denominator
    if f < _TINY:
        return math.log(p) - math.log(q)
    if f > _HUGE:
        return math.log(math.log(p + q) - math.log(q))
    return math.log(math.log1p(p / q))


_TINY, _HUGE = Fraction(1, 2**60), Fraction(2**60)


def build_sa_lp(
    inst,
    rounds: int,
    price_grid: Optional[Sequence[Sequence[Fraction]]] = None,
    caps: Caps = Caps(),
) -> SaLp:
    if rounds < 2:
        raise InstanceError(f"need at least 2 rounds, got {rounds}")
    if rounds > caps.sa_rounds:
        raise CapExceeded(f"rounds {rounds} exceed cap {caps.sa_rounds}")
    if inst.n > caps.sa_n:
        raise CapExceeded(f"n={inst.n} exceeds SA cap {caps.sa_n}")

    if isinstance(inst, GmdInstance):
        domains = tuple(tuple(range(inst.T + 1)) for _ in range(inst.n))
    elif isinstance(inst, GpInstance):
        if price_grid is None:
            raise InstanceError("pricing relaxation needs a finite price grid")
        check_price_grid(inst, price_grid)
        domains = tuple(tuple(g) for g in price_grid)
    else:
        raise InstanceError(f"not an instance: {inst!r}")
    for v, dom in enumerate(domains):
        if len(dom) > caps.sa_domain:
            raise CapExceeded(f"domain size {len(dom)} exceeds cap {caps.sa_domain}")
        if len(set(dom)) < len(dom):  # the variables number each value once
            raise InstanceError(f"price grid of vertex {v} repeats a price")

    # sum over the sets S of prod_{v in S} |D_v|: the elementary symmetric
    # polynomials of the domain sizes, before any set is listed
    per_size = [1] + [0] * rounds
    for dom in domains:
        for k in range(rounds, 0, -1):
            per_size[k] += per_size[k - 1] * len(dom)
    num_vars = sum(per_size[1:])
    if num_vars > caps.lp_variables:
        raise CapExceeded(f"{num_vars} LP variables exceed cap {caps.lp_variables}")

    sets: list[SetKey] = []
    for size in range(1, min(rounds, inst.n) + 1):
        sets.extend(itertools.combinations(range(inst.n), size))
    starts, rows, rhs = _sa_rows(sets, domains)

    # the pair (a, b), a < b, has the variables first[a, b] + i |D_b| + j for
    # the i-th value at a and the j-th at b
    first = dict(zip(sets, starts))
    objective = [Fraction(0)] * num_vars
    if isinstance(inst, GmdInstance):
        for a in inst.arcs:
            label = a.label if a.tail < a.head else a.label * (inst.T + 1)
            objective[first[tuple(sorted((a.tail, a.head)))] + label] += a.weight
    else:
        for e in inst.edges:
            lo, hi = sorted((e.u, e.v))
            start, width = first[lo, hi], len(domains[hi])
            for i, pu in enumerate(domains[e.u]):
                for j, pv in enumerate(domains[e.v]):
                    if pu + pv <= e.budget:
                        k = i * width + j if e.u < e.v else j * width + i
                        objective[start + k] += e.weight * (pu + pv)

    return SaLp(
        rounds=rounds,
        sets=tuple(sets),
        domains=domains,
        starts=starts,
        objective=tuple(objective),
        rows=rows,
        rhs=rhs,
    )


def _sa_rows(sets: Sequence[SetKey], domains) -> tuple[tuple[int, ...], Csr, np.ndarray]:
    """The variable numbering, as each set's first variable, the equality
    rows of the relaxation as int64 CSR arrays, and their right-hand sides.

    Variables are numbered set by set in `sets` order, each set's
    assignments consecutively in row-major domain order.  First come one
    normalization row per set (its variables, all +1, = 1), then, per set
    S' of two or more vertices in `sets` order and per vertex v of S', one
    marginalization row per assignment beta of S = S' - v in row-major
    order: -1 on x_S(beta), then +1 on x_S'(beta with a at v's place) for
    each a in v's domain, = 0.
    """
    shapes = [tuple(len(domains[v]) for v in S) for S in sets]
    sizes = [math.prod(shape) for shape in shapes]
    starts = np.cumsum([0] + sizes).tolist()
    first = dict(zip(sets, starts))
    # the normalization rows cover every variable once, in order; then
    # blocks of equally long marginalization rows, (rows, length) each
    indices, counts, lengths = [np.arange(starts[-1])], [1] * len(sets), sizes.copy()
    for S_p, shape, start, size in zip(sets, shapes, starts, sizes):
        if len(S_p) < 2:
            continue
        ids = np.arange(start, start + size).reshape(shape)
        for pos, d in enumerate(shape):
            count = size // d
            block = np.empty((count, d + 1), dtype=np.int64)
            S = S_p[:pos] + S_p[pos + 1:]
            block[:, 0] = np.arange(first[S], first[S] + count)
            # v's axis last: row-major order over beta, then v's domain
            axes = (*range(pos), *range(pos + 1, len(shape)), pos)
            block[:, 1:] = ids.transpose(axes).reshape(count, d)
            indices.append(block.reshape(-1))
            counts.append(count)
            lengths.append(d + 1)
    indptr = np.concatenate(([0], np.repeat(np.array(lengths, dtype=np.int64), counts).cumsum()))
    data = np.ones(indptr[-1], dtype=np.int64)
    data[indptr[len(sets):-1]] = -1
    rhs = np.zeros(len(indptr) - 1, dtype=np.int64)
    rhs[:len(sets)] = 1
    return tuple(starts[:-1]), Csr(indptr, np.concatenate(indices), data), rhs


def solve_lp_exact(lp: SaLp) -> tuple[Fraction, SaSolution]:
    """The LP's exact optimum and its vertex as a solution table.

    A set's assignments are numbered consecutively from `lp.starts`, and
    the vertex's numerators share one denominator, the lcm of its
    denominators.  So each shape's block gathers, for each of its sets,
    the run of numerators that starts at the set's first variable.
    """
    result = simplex_max(lp.objective, lp.rows, lp.rhs)
    groups: dict = {}  # shape -> (sets, first variable of each)
    for S, start in zip(lp.sets, lp.starts):
        sets, starts = groups.setdefault(tuple(len(lp.domains[v]) for v in S), ([], []))
        sets.append(S)
        starts.append(start)
    blocks = []
    for shape, (sets, starts) in groups.items():
        nums = result.numerators[np.add.outer(starts, np.arange(math.prod(shape)))]
        verts = np.array(sets, dtype=np.int64).reshape(len(sets), len(shape))
        blocks.append(TableBlock(verts, nums.reshape((len(sets),) + shape)))
    sol = SaSolution(blocks, result.denom, lp.rounds, lp.domains, lp_path=result.path)
    return result.value, sol


@dataclass(frozen=True)
class Violation:
    kind: str            # "negativity" | "normalization" | "marginalization"
    S: SetKey
    Sp: Optional[SetKey]
    assignment: Assignment
    lhs: Fraction
    rhs: Fraction


@dataclass
class ConsistencyReport:
    violations: list[Violation] = field(default_factory=list)
    identities_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sa_consistency(sol: SaSolution) -> ConsistencyReport:
    """Verify nonnegativity, normalization, and every marginalization identity.

    Identities are counted one per table entry, one per set and one per
    entry of each nested smaller set that has a table; violations come set
    by set in sets() order, entries in row-major (domain) order, with exact
    lhs and rhs.

    The all-clear tests run a block at a time: a sign test and row sums,
    then per kept-axes pattern one axis sum compared with the sub-block's
    rows, which a rank lookup of the subsets finds.  Only the sets of a
    failing test are walked one by one, to list their violations.
    """
    report = ConsistencyReport()
    denom = sol.denom
    failing: set = set()       # sets whose own table fails
    failing_pairs: set = set() # sets with a failing marginalization
    for block in sol.blocks:
        flat = block.counts.reshape(len(block), -1)
        report.identities_checked += flat.size + len(flat)
        bad = (flat < 0).any(axis=1) | (flat.sum(axis=1) != denom)
        if bad.any():
            failing.update(map(tuple, block.vertices[bad].tolist()))
        shape = block.shape
        for kept, free in _nested_axes(len(shape)):
            sub = sol._by_shape.get(tuple(shape[i] for i in kept))
            if sub is None:
                continue
            sub_codes = sol._codes[sub]
            codes = _set_codes(block.vertices[:, kept], len(sol.domains))
            ranks = sub_codes.searchsorted(codes)
            found = sub_codes.take(ranks, mode="clip") == codes
            present = np.count_nonzero(found)
            if not present:
                continue
            counts, rows = (block.counts, ranks) if present == len(found) else (
                block.counts[found], ranks[found])
            rhs = sol.blocks[sub].counts[rows]
            report.identities_checked += rhs.size
            same = np.add.reduce(counts, axis=tuple(i + 1 for i in free)) == rhs
            if same.all():
                continue
            wrong = ~same.reshape(len(rhs), -1).all(axis=1)
            failing_pairs.update(map(tuple, block.vertices[found][wrong].tolist()))
    if failing or failing_pairs:
        _list_violations(sol, sorted(failing, key=_set_order),
                         sorted(failing_pairs, key=_set_order), report)
    return report


def _list_violations(sol: SaSolution, failing, failing_pairs, report) -> None:
    """Append the violations of the given sets' own tables, then those of
    their marginalization identities, each list in sets() order."""
    tables, denom = sol.tables, sol.denom

    def alpha_at(S, pos):
        return tuple(sol.domains[v][int(i)] for v, i in zip(S, pos))

    for S in failing:
        arr = tables[S]
        for pos in np.argwhere(arr < 0):
            x = Fraction(int(arr[tuple(pos)]), denom)
            report.violations.append(
                Violation("negativity", S, None, alpha_at(S, pos), x, Fraction(0))
            )
        total = int(arr.sum())
        if total != denom:
            report.violations.append(
                Violation("normalization", S, None, (), Fraction(total, denom), Fraction(1))
            )
    for Sp in failing_pairs:
        arr = tables[Sp]
        for positions, free in _nested_axes(len(Sp)):
            S = tuple(Sp[i] for i in positions)
            rhs = tables.get(S)
            if rhs is None:
                continue
            lhs = np.add.reduce(arr, axis=free)
            for pos in np.argwhere(lhs != rhs):
                pos = tuple(pos)
                report.violations.append(
                    Violation(
                        "marginalization", S, Sp, alpha_at(S, pos),
                        Fraction(int(lhs[pos]), denom), Fraction(int(rhs[pos]), denom),
                    )
                )


@functools.lru_cache(maxsize=None)
def _nested_axes(size: int) -> tuple:
    """(kept axes, summed axes) of a size-`size` table for every proper
    nonempty subset of its vertices, by subset size, then in combinations order."""
    return tuple(
        (kept, tuple(i for i in range(size) if i not in kept))
        for k in range(1, size)
        for kept in itertools.combinations(range(size), k)
    )


def marginals_for_rounding(sol: SaSolution, inst: GmdInstance) -> list[list[Fraction]]:
    """Per-vertex label distributions in the shape lp_round_gmd expects."""
    return [sol.marginal(v) for v in range(inst.n)]
