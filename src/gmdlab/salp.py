"""Sherali-Adams relaxations: builder, exact solver, consistency checking.

The r-round relaxation has one variable x_S(alpha) per vertex set S with
1 <= |S| <= r and per assignment alpha of domain values to S, constrained by
nonnegativity, per-set normalization, and marginalization between nested
sets.  Max-dicut uses the label domain {0..T}; pricing uses a finite price
grid per vertex (half-integral for integer budgets, geometric otherwise).

Everything here is exact rational arithmetic.  simplex.py solves the LPs: a
float Bland-rule simplex finds the optimal vertex, which is returned only
after an exact primal-dual certificate, checked on integer arrays, holds;
otherwise the Fraction simplex solves the LP from scratch, so reported LP
values are never blurred by tolerances.  SaSolution.lp_path records which
of the two produced a table.

A solution table (SaSolution) holds one ndarray per set, shaped by the
domain sizes of its vertices, of integer numerators over one shared
denominator: x_S(alpha) = tables[S][positions of alpha] / denom.  Tables
sampled by sasol.py are int64 counts over the number of trials; LP tables
hold Python-int numerators over the lcm of their denominators (object
dtype, so they never overflow), each a reshaped slice of the simplex's
numerator vector.  The consistency audit is integer work on these arrays:
a sign test, one sum per set, and axis sums per nested pair.

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
from .core import CapExceeded, GmdInstance, GpInstance, InstanceError, max_incident_budget
from .simplex import simplex_max

SetKey = tuple[int, ...]
Assignment = tuple


@dataclass(frozen=True)
class SaLp:
    kind: str                      # "gmd" | "gp"
    rounds: int
    sets: tuple[SetKey, ...]
    domains: tuple[tuple, ...]     # per-vertex domain values
    var_index: dict
    objective: tuple[Fraction, ...]
    constraints: tuple             # ((var, coef) pairs, rhs) equalities
    grid_note: str = ""

    @property
    def num_variables(self) -> int:
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


@dataclass(eq=False)
class SaSolution:
    """Table of x_S(alpha) values, complete over each set's assignment space.

    `tables[S]` holds the integer numerators of x_S over `denom`, with one
    axis per vertex of S in the order of its domain.  `values` is a
    read-only view keyed by (S, alpha), iterated in sorted key order.
    """

    tables: dict
    denom: int
    rounds: int
    domains: tuple[tuple, ...]
    lp_path: Optional[str] = None  # "certified" | "exact" for LP tables

    def __post_init__(self):
        if self.denom <= 0:
            raise InstanceError(f"table denominator must be positive, got {self.denom}")
        self._index = [{a: i for i, a in enumerate(dom)} for dom in self.domains]
        for S, arr in self.tables.items():
            shape = tuple(len(self.domains[v]) for v in S)
            if arr.shape != shape:
                raise InstanceError(f"table of set {S} has shape {arr.shape}, want {shape}")

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
        return cls(tables, denom, rounds, domains, lp_path)

    @property
    def values(self) -> "_TableView":
        return _TableView(self)

    def sets(self):
        return sorted(self.tables, key=lambda s: (len(s), s))

    def get(self, S: SetKey, alpha: Assignment) -> Fraction:
        S, alpha = tuple(S), tuple(alpha)
        arr = self.tables[S]
        if len(alpha) != len(S):
            raise KeyError((S, alpha))
        pos = tuple(self._index[v][a] for v, a in zip(S, alpha))
        return Fraction(int(arr[pos]), self.denom)

    def marginal(self, v: int) -> list[Fraction]:
        return [self.get((v,), (a,)) for a in self.domains[v]]

    def text_rows(self) -> Iterator[tuple[str, str, str]]:
        """(set, assignment, value) CSV cells in sorted (S, alpha) order, the
        value as str(Fraction), formatted once per distinct numerator."""
        texts: dict = {}
        assignments: dict = {}  # axes -> assignment texts in row-major order
        for S, axes, nums in self._sorted_tables():
            set_text = " ".join(map(str, S))
            alphas = assignments.get(axes)
            if alphas is None:
                alphas = assignments[axes] = [
                    " ".join(map(str, alpha)) for alpha in itertools.product(*axes)
                ]
            for alpha, num in zip(alphas, nums):
                text = texts.get(num)
                if text is None:
                    text = texts[num] = str(Fraction(num, self.denom))
                yield set_text, alpha, text

    def _sorted_tables(self):
        """Per set in sorted order: the set, each axis's domain values in
        ascending order, and the numerators in the matching row-major order,
        which is the sorted order of the (S, alpha) keys."""
        orders = [sorted(range(len(dom)), key=dom.__getitem__) for dom in self.domains]
        in_order = [order == list(range(len(order))) for order in orders]
        ascending = [tuple(dom[i] for i in order) for dom, order in zip(self.domains, orders)]
        for S in sorted(self.tables):
            arr = self.tables[S]
            if not all(in_order[v] for v in S):
                arr = arr[np.ix_(*(orders[v] for v in S))]
            yield S, tuple(ascending[v] for v in S), arr.reshape(-1).tolist()


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
        return sum(arr.size for arr in self._sol.tables.values())

    def __iter__(self):
        for S, axes, _ in self._sol._sorted_tables():
            for alpha in itertools.product(*axes):
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


def default_price_grid(
    inst: GpInstance, eps: Optional[Fraction] = None
) -> tuple[list[list[Fraction]], str]:
    """Half-integral grid for integer budgets, geometric otherwise."""
    from .exact import half_integral_grid

    if all(e.budget.denominator == 1 for e in inst.edges):
        return half_integral_grid(inst), "half"
    eps = eps if eps is not None else Fraction(1, 10)
    return [geometric_grid(b, eps) for b in max_incident_budget(inst)], f"geom:{eps}"


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

    grid_note = ""
    if isinstance(inst, GmdInstance):
        kind = "gmd"
        domains = tuple(tuple(range(inst.T + 1)) for _ in range(inst.n))
    elif isinstance(inst, GpInstance):
        kind = "gp"
        if price_grid is None:
            raise InstanceError("pricing relaxation needs a finite price grid")
        if len(price_grid) != inst.n:
            raise InstanceError("need one price grid per vertex")
        domains = tuple(tuple(g) for g in price_grid)
        grid_note = "custom"
    else:
        raise InstanceError(f"not an instance: {inst!r}")
    for dom in domains:
        if len(dom) > caps.sa_domain:
            raise CapExceeded(f"domain size {len(dom)} exceeds cap {caps.sa_domain}")
        if len(dom) == 0:
            raise InstanceError("empty domain")

    rounds_eff = min(rounds, inst.n)
    sets: list[SetKey] = []
    for size in range(1, rounds_eff + 1):
        sets.extend(itertools.combinations(range(inst.n), size))

    var_index: dict = {}
    for S in sets:
        for alpha in itertools.product(*(domains[v] for v in S)):
            var_index[(S, alpha)] = len(var_index)
    if len(var_index) > caps.lp_variables:
        raise CapExceeded(
            f"{len(var_index)} LP variables exceed cap {caps.lp_variables}"
        )

    constraints = []
    for S in sets:
        row = [
            (var_index[(S, alpha)], Fraction(1))
            for alpha in itertools.product(*(domains[v] for v in S))
        ]
        constraints.append((tuple(row), Fraction(1)))
    for Sp in sets:
        if len(Sp) < 2:
            continue
        for drop_pos, v in enumerate(Sp):
            S = Sp[:drop_pos] + Sp[drop_pos + 1:]
            for beta in itertools.product(*(domains[u] for u in S)):
                row = [(var_index[(S, beta)], Fraction(-1))]
                for a in domains[v]:
                    alpha = beta[:drop_pos] + (a,) + beta[drop_pos:]
                    row.append((var_index[(Sp, alpha)], Fraction(1)))
                constraints.append((tuple(row), Fraction(0)))

    objective = [Fraction(0)] * len(var_index)
    if kind == "gmd":
        for a in inst.arcs:
            S = tuple(sorted((a.tail, a.head)))
            alpha = (0, a.label) if S == (a.tail, a.head) else (a.label, 0)
            objective[var_index[(S, alpha)]] += a.weight
    else:
        for e in inst.edges:
            S = tuple(sorted((e.u, e.v)))
            for pu in domains[e.u]:
                for pv in domains[e.v]:
                    if pu + pv <= e.budget:
                        alpha = (pu, pv) if S == (e.u, e.v) else (pv, pu)
                        objective[var_index[(S, alpha)]] += e.weight * (pu + pv)

    return SaLp(
        kind=kind,
        rounds=rounds,
        sets=tuple(sets),
        domains=domains,
        var_index=var_index,
        objective=tuple(objective),
        constraints=tuple(constraints),
        grid_note=grid_note,
    )


def solve_lp_exact(lp: SaLp) -> tuple[Fraction, SaSolution]:
    """The LP's exact optimum and its vertex as a solution table.

    Each set's table is a reshaped slice of the vertex's numerator vector:
    build_sa_lp numbers a set's assignments consecutively in row-major
    domain order, and the numerators share one denominator, the lcm of the
    vertex's denominators.
    """
    rows = [row for row, _ in lp.constraints]
    rhs = [r for _, r in lp.constraints]
    result = simplex_max(lp.objective, rows, rhs)
    tables = {}
    for S in lp.sets:
        shape = tuple(len(lp.domains[v]) for v in S)
        start = lp.var_index[(S, tuple(lp.domains[v][0] for v in S))]
        tables[S] = result.numerators[start:start + math.prod(shape)].reshape(shape)
    sol = SaSolution(tables, result.denom, lp.rounds, lp.domains, lp_path=result.path)
    return result[0], sol


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
    entry of each nested smaller set; violations come set by set in sets()
    order, entries in row-major (domain) order, with exact lhs and rhs.
    """
    report = ConsistencyReport()
    tables, denom = sol.tables, sol.denom
    sets = sol.sets()

    def alpha_at(S, pos):
        return tuple(sol.domains[v][int(i)] for v, i in zip(S, pos))

    # tables are small, so the common all-clear tests run on Python lists,
    # which costs less than numpy ufunc calls at these sizes
    for S in sets:
        arr = tables[S]
        report.identities_checked += arr.size + 1
        flat = arr.reshape(-1).tolist()
        if min(flat) < 0:
            for pos in np.argwhere(arr < 0):
                x = Fraction(int(arr[tuple(pos)]), denom)
                report.violations.append(
                    Violation("negativity", S, None, alpha_at(S, pos), x, Fraction(0))
                )
        total = sum(flat)
        if total != denom:
            report.violations.append(
                Violation("normalization", S, None, (), Fraction(total, denom), Fraction(1))
            )
    for Sp in sets:
        arr = tables[Sp]
        for positions, free in _nested_axes(len(Sp)):
            S = tuple(Sp[i] for i in positions)
            rhs = tables.get(S)
            if rhs is None:
                continue
            report.identities_checked += rhs.size
            lhs = np.add.reduce(arr, axis=free)
            if lhs.tolist() == rhs.tolist():
                continue
            for pos in np.argwhere(lhs != rhs):
                pos = tuple(pos)
                report.violations.append(
                    Violation(
                        "marginalization", S, Sp, alpha_at(S, pos),
                        Fraction(int(lhs[pos]), denom), Fraction(int(rhs[pos]), denom),
                    )
                )
    return report


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
