"""Two-phase primal simplex with exact answers: float-guided, exactly certified.

Solves  max c.x  s.t.  A x = b, x >= 0  with every entry a Fraction.  Both
paths use Bland's rule (smallest eligible index enters, smallest basic index
breaks ratio ties) and leave redundant rows out of every later pivot, so
they walk the same bases.

The fast path pivots a float64 tableau, treating magnitudes below TOL as
zero, to find the optimal basis.  It rationalises the basic x and the
equality duals y (``Fraction.limit_denominator``, denominators up to 10^6)
and returns x only if x >= 0, A x = b, A^T y >= c and c.x = b.y all hold
exactly in Fraction arithmetic; weak duality then proves x optimal.  If any
check fails, or the float pass ends infeasible or unbounded, the Fraction
tableau solves the LP from scratch without any tolerance.  It is the only
path that raises LpInfeasible/LpUnbounded, and it solves the LPs whose
optimal vertex or duals do not rationalise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)

# absolute tolerance of the float pass: pivot eligibility, ratio ties, and
# the zero test for tableau entries and rationalised x and y
TOL = 1e-9


class LpInfeasible(RuntimeError):
    pass


class LpUnbounded(RuntimeError):
    pass


class LpResult(tuple):
    """``(value, x)`` of an optimal vertex; ``path`` names the solver that
    produced it: "certified" (float basis, exact certificate) or "exact"."""

    def __new__(cls, value: Fraction, x: list[Fraction], path: str):
        self = super().__new__(cls, (value, x))
        self.path = path
        return self


def simplex_max(
    c: Sequence[Fraction],
    rows: Sequence[Sequence[tuple[int, Fraction]]],
    rhs: Sequence[Fraction],
) -> LpResult:
    """Maximize c.x subject to the sparse equality rows; returns (value, x).

    Each row is a list of (variable index, coefficient) pairs.  Rows with a
    negative right-hand side are negated on entry.  The result's ``path``
    says whether the certificate or the exact tableau produced it.
    """
    x = _float_certified(c, rows, rhs)
    if x is not None:
        return LpResult(sum((ci * xi for ci, xi in zip(c, x)), ZERO), x, "certified")
    return LpResult(*simplex_max_exact(c, rows, rhs), "exact")


# ---------------------------------------------------------------------------
# float pass and exact certificate
# ---------------------------------------------------------------------------


def _float_pivot(t, obj, basis, etas, r, s):
    piv = t[r, s]
    prow = t[r] / piv
    prow[np.abs(prow) < TOL] = 0.0
    prow[s] = 1.0
    t[r] = prow
    live = np.flatnonzero(prow)
    col = t[:, s].copy()
    col[r] = 0.0
    hit = np.flatnonzero(col)
    if hit.size:
        block = np.ix_(hit, live)
        upd = t[block] - np.outer(col[hit], prow[live])
        upd[np.abs(upd) < TOL] = 0.0
        t[block] = upd
    if obj[s] != 0.0:
        upd = obj[live] - obj[s] * prow[live]
        upd[np.abs(upd) < TOL] = 0.0
        obj[live] = upd
    basis[r] = s
    etas.append((r, piv, hit, col[hit]))


def _float_iterate(t, obj, basis, etas, n) -> bool:
    """Bland pivots until optimal (True) or an unbounded ray (False)."""
    while True:
        eligible = obj[:n] > TOL
        s = int(np.argmax(eligible))
        if not eligible[s]:
            return True
        col = t[:, s]
        cand = np.flatnonzero(col > TOL)
        if cand.size == 0:
            return False
        ratios = t[cand, -1] / col[cand]
        ties = cand[ratios <= ratios.min() + TOL]
        _float_pivot(t, obj, basis, etas, int(ties[np.argmin(basis[ties])]), s)


def _float_certified(c, rows, rhs) -> Optional[list[Fraction]]:
    """The float pass's optimal x if it passes the exact certificate, else None."""
    n, m = len(c), len(rows)
    sign = np.array([1.0 if b >= 0 else -1.0 for b in rhs])
    t = np.zeros((m, n + 1))
    for i, row in enumerate(rows):
        for j, coef in row:
            t[i, j] += float(coef)
        t[i, n] = float(rhs[i])
    t *= sign[:, None]
    basis = np.arange(n, n + m)
    etas = []  # (row, pivot, hit rows, their pivot-column entries) per pivot

    # phase one on structural columns; artificial columns are never read,
    # so they are not stored
    obj = t.sum(axis=0)
    obj[np.abs(obj) < TOL] = 0.0
    if not _float_iterate(t, obj, basis, etas, n) or obj[n] > TOL:
        return None
    # drive leftover artificials out; a redundant row stays as a zero row
    # that no later pivot touches
    for i in range(m):
        if basis[i] >= n:
            nz = np.flatnonzero(t[i, :n])
            if nz.size:
                _float_pivot(t, obj, basis, etas, i, int(nz[0]))

    # phase two; cf[n] = 0 is also the cost of an artificial left basic
    cf = np.array([float(v) for v in c] + [0.0])
    obj = cf - cf[np.minimum(basis, n)] @ t
    obj[np.abs(obj) < TOL] = 0.0
    if not _float_iterate(t, obj, basis, etas, n):
        return None

    # duals y^T = c_B^T B^-1, with B^-1 the product of the pivots' eta
    # matrices applied last to first
    cost = cf[np.minimum(basis, n)]
    for r, piv, hit, vals in reversed(etas):
        cost[r] = (cost[r] - cost[hit] @ vals) / piv
    y = [_rational(v) for v in cost * sign]
    x = [ZERO] * n
    for j, v in zip(basis, t[:, n]):
        if j < n:
            x[j] = _rational(v)
    return x if _certificate_holds(c, rows, rhs, x, y) else None


def _rational(v: float) -> Fraction:
    return ZERO if abs(v) < TOL else Fraction(v).limit_denominator()


def _certificate_holds(c, rows, rhs, x, y) -> bool:
    """x >= 0, A x = b, A^T y >= c and c.x = b.y, all exact."""
    if any(v < 0 for v in x):
        return False
    for row, b in zip(rows, rhs):
        if sum((coef * x[j] for j, coef in row if x[j]), ZERO) != b:
            return False
    slack = [-v for v in c]  # A^T y - c, accumulated row by row
    for row, yi in zip(rows, y):
        if yi:
            for j, coef in row:
                slack[j] += coef * yi
    if any(v < 0 for v in slack):
        return False
    primal = sum((ci * xi for ci, xi in zip(c, x) if xi), ZERO)
    return primal == sum((b * yi for b, yi in zip(rhs, y) if yi), ZERO)


# ---------------------------------------------------------------------------
# exact Fraction tableau: the fallback and the test reference
# ---------------------------------------------------------------------------


def _pivot(tableau, obj, basis, r, s):
    row_r = tableau[r]
    piv = row_r[s]
    if piv != 1:
        inv = 1 / piv
        row_r = [x * inv for x in row_r]
        tableau[r] = row_r
    nz = [(j, v) for j, v in enumerate(row_r) if v != 0]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[s]
        if f != 0:
            for j, v in nz:
                row[j] -= f * v
    f = obj[s]
    if f != 0:
        for j, v in nz:
            obj[j] -= f * v
    basis[r] = s


def _iterate(tableau, obj, basis, allowed_cols):
    m = len(tableau)
    while True:
        enter = None
        for j in allowed_cols:
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best_ratio = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    leave is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    leave, best_ratio = i, ratio
        if leave is None:
            raise LpUnbounded("objective unbounded above")
        _pivot(tableau, obj, basis, leave, enter)


def simplex_max_exact(
    c: Sequence[Fraction],
    rows: Sequence[Sequence[tuple[int, Fraction]]],
    rhs: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """``simplex_max`` on a dense Fraction tableau, with no float pass."""
    n = len(c)
    m = len(rows)
    tableau = []
    for i in range(m):
        row = [ZERO] * (n + m + 1)
        sign = ONE if rhs[i] >= 0 else -ONE
        for j, coef in rows[i]:
            row[j] += sign * coef
        row[n + i] = ONE
        row[-1] = sign * rhs[i]
        tableau.append(row)
    basis = [n + i for i in range(m)]

    # phase one: maximize -(sum of artificials); start reduced
    obj = [ZERO] * (n + m + 1)
    for j in range(n, n + m):
        obj[j] = -ONE
    for row in tableau:
        for j, v in enumerate(row):
            if v != 0:
                obj[j] += v
    _iterate(tableau, obj, basis, range(n))
    if obj[-1] != 0:
        raise LpInfeasible("equality system has no nonnegative solution")

    # drive leftover artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            s = next((j for j in range(n) if tableau[i][j] != 0), None)
            if s is None:
                continue  # redundant constraint
            _pivot(tableau, obj, basis, i, s)
        keep.append(i)
    # artificial columns are dead from here on; strip them
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase two on structural columns only
    obj = list(c) + [ZERO]
    for i, row in enumerate(tableau):
        f = obj[basis[i]]
        if f != 0:
            for j, v in enumerate(row):
                if v != 0:
                    obj[j] -= f * v
    _iterate(tableau, obj, basis, range(n))

    x = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), ZERO)
    return value, x
