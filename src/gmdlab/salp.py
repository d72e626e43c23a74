"""Sherali-Adams relaxations: builder, exact solver, consistency checking.

The r-round relaxation has one variable x_S(alpha) per vertex set S with
1 <= |S| <= r and per assignment alpha of domain values to S, constrained by
nonnegativity, per-set normalization, and marginalization between nested
sets.  Max-dicut uses the label domain {0..T}; pricing uses a finite price
grid per vertex (half-integral for integer budgets, geometric otherwise).

Everything here is exact rational arithmetic.  simplex.py solves the LPs: a
float Bland-rule simplex finds the optimal vertex, which is returned only
after an exact primal-dual certificate holds, and otherwise the Fraction
simplex solves the LP from scratch, so reported LP values are never blurred
by tolerances.  SaSolution.lp_path records which of the two produced a table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

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


@dataclass
class SaSolution:
    """Table of x_S(alpha) values, complete over each set's assignment space."""

    values: dict
    rounds: int
    domains: tuple[tuple, ...]
    lp_path: Optional[str] = None  # "certified" | "exact" for LP tables

    def sets(self):
        return sorted({S for (S, _) in self.values}, key=lambda s: (len(s), s))

    def get(self, S: SetKey, alpha: Assignment) -> Fraction:
        return self.values[(tuple(S), tuple(alpha))]

    def marginal(self, v: int) -> list[Fraction]:
        return [self.get((v,), (a,)) for a in self.domains[v]]


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
    rows = [row for row, _ in lp.constraints]
    rhs = [r for _, r in lp.constraints]
    result = simplex_max(lp.objective, rows, rhs)
    value, x = result
    table = {key: x[idx] for key, idx in lp.var_index.items()}
    return value, SaSolution(
        values=table, rounds=lp.rounds, domains=lp.domains, lp_path=result.path
    )


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
    """Verify nonnegativity, normalization, and every marginalization identity."""
    report = ConsistencyReport()
    sets = sol.sets()
    for S in sets:
        total = Fraction(0)
        for alpha in itertools.product(*(sol.domains[v] for v in S)):
            x = sol.get(S, alpha)
            report.identities_checked += 1
            if x < 0:
                report.violations.append(
                    Violation("negativity", S, None, alpha, x, Fraction(0))
                )
            total += x
        report.identities_checked += 1
        if total != 1:
            report.violations.append(
                Violation("normalization", S, None, (), total, Fraction(1))
            )
    set_lookup = set(sets)
    for Sp in sets:
        if len(Sp) < 2:
            continue
        for size in range(1, len(Sp)):
            for S in itertools.combinations(Sp, size):
                if S not in set_lookup:
                    continue
                positions = [Sp.index(v) for v in S]
                free = [i for i in range(len(Sp)) if i not in positions]
                for beta in itertools.product(*(sol.domains[v] for v in S)):
                    lhs = Fraction(0)
                    for rest in itertools.product(
                        *(sol.domains[Sp[i]] for i in free)
                    ):
                        alpha = [None] * len(Sp)
                        for pos, b in zip(positions, beta):
                            alpha[pos] = b
                        for pos, a in zip(free, rest):
                            alpha[pos] = a
                        lhs += sol.get(Sp, tuple(alpha))
                    rhs = sol.get(S, beta)
                    report.identities_checked += 1
                    if lhs != rhs:
                        report.violations.append(
                            Violation("marginalization", S, Sp, beta, lhs, rhs)
                        )
    return report


def marginals_for_rounding(sol: SaSolution, inst: GmdInstance) -> list[list[Fraction]]:
    """Per-vertex label distributions in the shape lp_round_gmd expects."""
    return [sol.marginal(v) for v in range(inst.n)]
