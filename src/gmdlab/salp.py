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
index arithmetic from the same starts.  build_sa_lp checks the lp_entries
cap on the simplex tableau from the domain sizes (tableau_entries) before
any set or row exists.  The set layout, shared with sasol.py, is defined once:
sets_up_to lists the sets, set_order orders them, table_entries counts their
entries and shape_blocks groups them.

Everything here is exact rational arithmetic.  simplex.py solves the LPs: a
float Bland-rule simplex finds the optimal vertex within a pivot budget,
past which HiGHS solves the LP, and the vertex is returned only after an
exact primal-dual certificate, checked on the integer rows, holds;
otherwise the same Bland pivots run again, exactly and with no tolerance,
on Python-int numerators, each row over a denominator of its own, so
reported LP values are never blurred by tolerances.  The vertex comes
back as integer numerators over one denominator.  SaSolution.lp_path
records which of the three produced a table.

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
found by a rank lookup.  csv_chunks builds the CSV text a block at a time,
with no Python step per line, and yields a bounded number of lines at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
    over_lcm,
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
    keyed by (S, alpha), iterated in sorted key order; `csv_chunks` writes
    the same entries, in the same order, as CSV text.
    """

    blocks: tuple
    denom: int
    rounds: int
    domains: tuple[tuple, ...]
    lp_path: Optional[str] = None  # "certified" | "highs" | "exact" for LP tables

    def __post_init__(self):
        if self.denom <= 0:
            raise InstanceError(f"table denominator must be positive, got {self.denom}")
        self.blocks = tuple(self.blocks)
        self._index = [{a: i for i, a in enumerate(dom)} for dom in self.domains]
        self._ascending = [tuple(sorted(dom)) for dom in self.domains]
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
        sets = sorted(tables, key=set_order)
        blocks = []
        for shape, positions, vertices in shape_blocks(sets, [len(dom) for dom in domains]):
            arrs = [np.asarray(tables[sets[i]]) for i in positions]
            for i, arr in zip(positions, arrs):
                if arr.shape != shape:
                    raise InstanceError(f"table of set {sets[i]} has shape {arr.shape}, want {shape}")
            blocks.append(TableBlock(vertices, np.stack(arrs)))
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
        nums, denom = over_lcm([x for per in entries.values() for x in per.values()])
        nums = iter(nums)
        tables = {}
        for S, per in entries.items():
            shape = tuple(len(domains[v]) for v in S)
            if len(per) != math.prod(shape):
                raise InstanceError(
                    f"table of set {S} has {len(per)} of {math.prod(shape)} entries"
                )
            arr = np.empty(shape, dtype=object)
            for pos, num in zip(per, nums):
                arr[pos] = num
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
        return sorted(self._where, key=set_order)

    def get(self, S: SetKey, alpha: Assignment) -> Fraction:
        S, alpha = tuple(S), tuple(alpha)
        b, i = self._where[S]
        if len(alpha) != len(S):
            raise KeyError((S, alpha))
        pos = tuple(self._index[v][a] for v, a in zip(S, alpha))
        return Fraction(int(self.blocks[b].counts[(i,) + pos]), self.denom)

    def marginal(self, v: int) -> list[Fraction]:
        return [self.get((v,), (a,)) for a in self.domains[v]]

    def csv_chunks(self) -> Iterator[str]:
        """`set,assignment,value` CSV lines in sorted (S, alpha) order, in strings of the
        lines of as many sets as keep within CSV_CHUNK_LINES (one at least).  A line joins
        three object-array pieces built a block at a time, sorting no array: set text,
        `,alpha,` text (once per tuple of domains), and the value's str(Fraction) and newline."""
        if not self.blocks:
            return
        text = np.frompyfunc(ValueTexts(self.denom).__getitem__, 1, 1)
        names = np.array(list(map(str, range(len(self.domains)))), dtype=object)
        kinds = {dom: i for i, dom in enumerate(dict.fromkeys(self.domains))}
        kind = np.array([kinds[dom] for dom in self.domains])
        pieces = []  # per block: each set's tuple of domains; per tuple, alphas and positions
        for block in self.blocks:
            codes = _set_codes(kind[block.vertices], len(kinds)).tolist()
            first = dict(zip(codes, range(len(codes))))  # tuple of domains -> a row with it
            combo = np.array(list(map({code: i for i, code in enumerate(first)}.__getitem__, codes)))
            alphas, perms = [], []
            for doms in ([self.domains[v] for v in S] for S in block.vertices[list(first.values())].tolist()):
                alphas.append([f",{' '.join(map(str, a))}," for a in itertools.product(*map(sorted, doms))])
                orders = [sorted(range(len(dom)), key=dom.__getitem__) for dom in doms]
                perms.append(np.ravel_multi_index(np.ix_(*orders), block.shape).reshape(-1))
            pieces.append((combo, np.array(alphas, dtype=object), np.array(perms)))
        # a set's place: the sets before it in each block; keys read vertices + 1, then 0s, as digits
        starts = list(itertools.accumulate(map(len, self.blocks), initial=0))
        padded = np.zeros((starts[-1], max(block.vertices.shape[1] for block in self.blocks)), dtype=np.int64)
        for block, lo in zip(self.blocks, starts):
            padded[lo:lo + len(block), :block.vertices.shape[1]] = block.vertices + 1
        keys = [_set_codes(padded[lo:hi], len(self.domains) + 1) for lo, hi in zip(starts, starts[1:])]
        places = [sum(np.searchsorted(other, mine) for other in keys) for mine in keys]
        widest = max(block.counts[0].size for block in self.blocks)  # shorter tables leave ""
        step = max(1, CSV_CHUNK_LINES // widest)
        for lo in range(0, starts[-1], step):
            lines = np.full((min(step, starts[-1] - lo), widest, 3), "", dtype=object)
            for block, place, (combo, alphas, perms) in zip(self.blocks, places, pieces):
                rows = np.arange(*np.searchsorted(place, [lo, lo + step]))
                sets = names[block.vertices[rows, 0]]
                for column in block.vertices[rows, 1:].T:
                    sets = sets + " " + names[column]
                nums = block.counts.reshape(len(block), -1)[rows[:, None], perms[combo[rows]]]
                # counts in a compact range: each distinct numerator is formatted once
                if nums.dtype != object and 0 <= nums.min(initial=0) and nums.max(initial=0) < 4 * nums.size:
                    seen = np.bincount(nums.reshape(-1)) > 0
                    values = (text(np.flatnonzero(seen)) + "\n")[np.cumsum(seen)[nums] - 1]
                else:
                    values = text(nums) + "\n"
                at = place[rows] - lo
                lines[at, :alphas.shape[1], 0] = sets[:, None]
                lines[at, :alphas.shape[1], 1] = alphas[combo[rows]]
                lines[at, :alphas.shape[1], 2] = values
            yield "".join(lines.reshape(-1).tolist())


# lines of one string of SaSolution.csv_chunks: cheap per line, never the whole text
CSV_CHUNK_LINES = 1 << 14


def set_order(S: SetKey) -> tuple:
    """The sets() order key: by size, then lexicographic."""
    return len(S), S


def sets_up_to(n: int, k: int) -> list[SetKey]:
    """Every set of 1..k of the vertices 0..n-1, in sets() order."""
    return [S for size in range(1, min(k, n) + 1) for S in itertools.combinations(range(n), size)]


def table_entries(sizes: Sequence[int], k: int, cap: float = math.inf) -> int:
    """Entries of the tables of sets_up_to(len(sizes), k), S's table holding
    prod(sizes[v] for v in S), with no set listed: those of size s hold e_s,
    the s-th elementary symmetric polynomial of the sizes.  The e_s are added
    for s = 1, 2, ... until the sum passes `cap`: exact up to it, a lower
    bound above."""
    total = 0
    for e in _symmetric_sums(sizes, k):
        total += e
        if total > cap:
            break
    return total


def tableau_entries(sizes: Sequence[int], rounds: int, cap: float = math.inf) -> int:
    """(constraints + 1) x (variables + 1), the simplex tableau of build_sa_lp
    on domains of these sizes, with no set listed: the sets of size s hold e_s
    variables and C(n, s) normalization rows, and for s >= 2 there is a row per
    set of size s - 1, vertex outside it and assignment, (n - s + 1) e_(s-1).
    Counted as table_entries counts, until the product passes `cap`."""
    n = len(sizes)
    variables = constraints = below = 0  # below: e_(s-1), no rows for singletons
    for s, e in enumerate(_symmetric_sums(sizes, rounds), 1):
        variables += e
        constraints += math.comb(n, s) + (n - s + 1) * below
        below = e
        if (constraints + 1) * (variables + 1) > cap:
            break
    return (constraints + 1) * (variables + 1)


def _symmetric_sums(sizes: Sequence[int], k: int) -> Iterator[int]:
    """e_1, ..., e_min(k, n) of the sizes, in Python ints, one at a time."""
    row = [1] * len(sizes)  # row[i]: e_(s-1) of the first i sizes
    for _ in range(min(k, len(sizes))):
        row = list(itertools.accumulate(map(operator.mul, sizes, row), initial=0))
        yield row.pop()


def shape_blocks(sets: Sequence[SetKey], sizes: Sequence[int]) -> list:
    """One block per table shape (sizes[v] is v's domain size), in order of
    first appearance: the shape, its sets' positions in `sets`, and their
    vertices as a (sets, size) int64 array.  A set naming a vertex outside
    0..len(sizes)-1 is an `InstanceError`; a negative vertex, which the
    size lookup would read from the end, is caught by one test per block."""
    groups: dict = {}
    size_of = list(sizes).__getitem__
    for i, S in enumerate(sets):
        try:
            groups.setdefault(tuple(map(size_of, S)), []).append(i)
        except (IndexError, TypeError):
            raise InstanceError(f"set {S} names no vertex") from None
    blocks = []
    for shape, pos in groups.items():
        vertices = np.array([sets[i] for i in pos], dtype=np.int64).reshape(len(pos), len(shape))
        if vertices.min(initial=0) < 0:
            first = int((vertices < 0).any(axis=1).argmax())
            raise InstanceError(f"set {sets[pos[first]]} names no vertex")
        blocks.append((shape, pos, vertices))
    return blocks


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


def build_sa_lp(
    inst,
    rounds: int,
    price_grid: Optional[Sequence[Sequence[Fraction]]] = None,
    caps: Caps = Caps(),
) -> SaLp:
    """The Sherali-Adams LP of a max-dicut instance, on the labels 0..T, or
    of a pricing instance, on `price_grid`; rounds past n give the n-round LP."""
    if rounds < 2:
        raise InstanceError(f"need at least 2 rounds, got {rounds}")
    pricing = isinstance(inst, GpInstance)
    if pricing:
        if price_grid is None:
            raise InstanceError("pricing relaxation needs a finite price grid")
        check_price_grid(inst, price_grid)
    elif not isinstance(inst, GmdInstance):
        raise InstanceError(f"not an instance: {inst!r}")
    # the singletons alone give n variables and n rows
    entries = (inst.n + 1) ** 2
    if entries <= caps.lp_entries:
        sizes = list(map(len, price_grid)) if pricing else [inst.T + 1] * inst.n
        entries = tableau_entries(sizes, rounds, caps.lp_entries)
    if entries > caps.lp_entries:
        raise CapExceeded(f"at least {entries} LP tableau entries exceed cap {caps.lp_entries}")

    domains = tuple(map(tuple, price_grid)) if pricing else (tuple(range(inst.T + 1)),) * inst.n
    for v, dom in enumerate(domains):
        if len(set(dom)) < len(dom):  # the variables number each value once
            raise InstanceError(f"price grid of vertex {v} repeats a price")

    sets = sets_up_to(inst.n, rounds)
    starts, rows, rhs = _sa_rows(sets, domains)

    # the pair (a, b), a < b, has the variables first[a, b] + i |D_b| + j for
    # the i-th value at a and the j-th at b
    first = dict(zip(sets, starts))
    objective = [Fraction(0)] * table_entries(list(map(len, domains)), rounds)
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
    blocks = []
    for shape, positions, vertices in shape_blocks(lp.sets, [len(dom) for dom in lp.domains]):
        starts = [lp.starts[i] for i in positions]
        nums = result.numerators[np.add.outer(starts, np.arange(math.prod(shape)))]
        blocks.append(TableBlock(vertices, nums.reshape((len(starts),) + shape)))
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
        _list_violations(sol, sorted(failing, key=set_order),
                         sorted(failing_pairs, key=set_order), report)
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
