"""Two-phase primal simplex with exact answers: float-guided, exactly certified.

Solves  max c.x  s.t.  A x = b, x >= 0.  c is a sequence of Fractions; A
comes as CSR arrays (``Csr``) and b as an array, both int64, as build_sa_lp
writes every Sherali-Adams LP, or both object dtype holding Fractions.  One
Bland-rule routine (smallest eligible index enters, smallest basic index
breaks ratio ties; redundant rows stay as zero rows that no later pivot
touches) runs twice at most: first on float64, then, if needed, on
Fractions, where it walks the bases exact arithmetic gives.

The float pass reads the CSR arrays once into coordinate arrays.  One
scatter fills a float64 tableau whose last row is the objective, and Bland
pivots on it, treating magnitudes below TOL as zero, find the optimal basis.
Each distinct value of the basic x and of the equality duals y is
rationalised once (``Fraction.limit_denominator``, denominators up to
10^6), so each vector becomes integer numerators over one common
denominator.  x is returned only if x >= 0, A x = b, A^T y >= c and
c.x = b.y all hold exactly; weak duality then proves x optimal.  The checks
run on integer arrays: integer rows as they come, Fraction rows each scaled
with their right-hand side by the lcm of their denominators, and c by the
lcm of its own; in int64 when a bound computed beforehand rules out
overflow, in Python ints (object dtype) otherwise, through the same code.
If any check fails, or the float pass ends infeasible or unbounded, the
same pivot code runs from scratch on an object-dtype tableau of the
unscaled rows, every entry a Fraction, with no tolerance.  It is the only
pass that raises LpInfeasible/LpUnbounded, and it solves the LPs whose
optimal vertex or duals do not rationalise.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

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


class Csr(NamedTuple):
    """Sparse rows in CSR form: row i holds ``data[k]`` at column
    ``indices[k]`` for k in ``range(indptr[i], indptr[i + 1])``.  ``data``
    is int64, or object dtype holding Fractions."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class LpResult(tuple):
    """``(value, x)`` of an optimal vertex; ``path`` names the solver that
    produced it: "certified" (float basis, exact certificate) or "exact".
    ``numerators`` (Python ints, object dtype) over ``denom``, the lcm of
    x's denominators, is x again."""

    def __new__(cls, value: Fraction, x: list[Fraction], path: str, scaled=None):
        self = super().__new__(cls, (value, x))
        self.path = path
        nums, self.denom = scaled if scaled is not None else _over_lcm(x)
        self.numerators = np.array(nums, dtype=object)
        return self


def _over_lcm(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def simplex_max(c: Sequence[Fraction], a: Csr, rhs: np.ndarray) -> LpResult:
    """Maximize c.x subject to the equality rows A x = rhs; returns (value, x).

    rhs is int64 or object dtype, like ``a.data``.  Rows with a negative
    right-hand side are negated on entry.  The result's ``path`` says
    whether the certificate or the exact pass produced it.
    """
    rhs = np.asarray(rhs)
    result = _float_certified(_ScaledLp(c, a, rhs))
    if result is not None:
        return result
    return _exact(c, a, rhs)


# ---------------------------------------------------------------------------
# Bland's two phases, on float64 or on Fractions
# ---------------------------------------------------------------------------


def _bland_pivot(t, basis, etas, r, s, tol):
    """Pivot on (r, s); the objective, row m of t, is updated with the rest.
    With tol > 0 (float64) entries below tol become 0 and the pivot 1."""
    piv = t[r, s]
    prow = t[r] / piv if piv != 1 else t[r].copy()
    if tol:
        prow[np.abs(prow) < tol] = 0.0
        prow[s] = 1.0
    t[r] = prow
    live = prow.nonzero()[0]
    col = t[:, s].copy()
    col[r] = 0
    hit = col.nonzero()[0]
    if hit.size:
        block = (hit[:, None], live)
        upd = t[block] - col[hit, None] * prow[live]
        if tol:
            upd[np.abs(upd) < tol] = 0.0
        t[block] = upd
        if hit[-1] == len(basis):
            hit = hit[:-1]
    basis[r] = s
    etas.append((r, piv, hit, col[hit]))


def _bland_iterate(t, basis, etas, n, tol) -> bool:
    """Bland pivots until optimal (True) or an unbounded ray (False)."""
    m = len(basis)
    obj = t[m]
    while True:
        # the first column with a positive reduced cost enters; Fractions
        # are compared only up to it
        if tol:
            eligible = (obj[:n] > tol).nonzero()[0]
            s = int(eligible[0]) if eligible.size else None
        else:
            s = next((j for j, v in enumerate(obj[:n].tolist()) if v > 0), None)
        if s is None:
            return True
        col = t[:m, s]
        cand = (col > tol).nonzero()[0]
        if cand.size == 0:
            return False
        ratios = t[cand, n] / col[cand]
        ties = cand[ratios <= ratios.min() + tol]
        _bland_pivot(t, basis, etas, int(ties[np.argmin(basis[ties])]), s, tol)


def _two_phase(t, cost, tol):
    """Both phases on the tableau t: rows 0..m-1 hold [A | b] with b >= 0,
    row m is overwritten with each phase's objective.  cost is c with a 0
    appended.  Returns the optimal basis and the pivots' etas, or raises
    LpInfeasible/LpUnbounded.  t is float64 with tol > 0, or object dtype
    holding Fractions with tol = 0: the same pivots then run exactly."""
    m, n = t.shape[0] - 1, t.shape[1] - 1
    obj = t[m]
    basis = np.arange(n, n + m)
    etas = []  # (row, pivot, hit rows, their pivot-column entries) per pivot

    # phase one on structural columns, maximising minus the sum of the
    # artificials; artificial columns are never read, so they are not stored.
    # Fraction objective rows are built from each row's nonzeros: a dense
    # sum or product would do Fraction work on every zero.
    if tol:
        obj[:] = t[:m].sum(axis=0)
        obj[np.abs(obj) < tol] = 0.0
    else:
        obj[:] = 0
        for i in range(m):
            live = t[i].nonzero()[0]
            obj[live] += t[i, live]
    if not _bland_iterate(t, basis, etas, n, tol) or obj[n] > tol:
        raise LpInfeasible("equality system has no nonnegative solution")
    # drive leftover artificials out; a redundant row stays as a zero row
    # that no later pivot touches
    for i in range(m):
        if basis[i] >= n:
            nz = t[i, :n].nonzero()[0]
            if nz.size:
                _bland_pivot(t, basis, etas, i, int(nz[0]), tol)

    # phase two; cost[n] = 0 is also the cost of an artificial left basic
    cb = cost[np.minimum(basis, n)]
    if tol:
        obj[:] = cost - cb @ t[:m]
        obj[np.abs(obj) < tol] = 0.0
    else:
        obj[:] = cost
        for i in cb.nonzero()[0]:
            live = t[i].nonzero()[0]
            obj[live] -= cb[i] * t[i, live]
    if not _bland_iterate(t, basis, etas, n, tol):
        raise LpUnbounded("objective unbounded above")
    return basis, etas


def _exact(c, a: Csr, rhs: np.ndarray) -> LpResult:
    """The two phases on a Fraction tableau of the unscaled rows: scaling a
    row would change phase one's objective, hence Bland's bases."""
    n, m = len(c), len(rhs)
    # every entry of A and b is a Fraction, so that no pivot divides two
    # ints; zeros stay Python ints, cheaper to test than Fraction(0)
    b = np.array([Fraction(v) for v in rhs.tolist()], dtype=object)
    sign = np.where(b < 0, -ONE, ONE)
    row = np.repeat(np.arange(m), np.diff(a.indptr))
    values = np.array([Fraction(v) for v in a.data.tolist()], dtype=object)
    t = np.zeros((m + 1, n + 1), dtype=object)
    np.add.at(t.reshape(-1), row * (n + 1) + a.indices, values * sign[row])
    t[:m, n] = b * sign
    basis, _ = _two_phase(t, np.array([*c, ZERO], dtype=object), 0)
    x = [ZERO] * n
    for i, j in enumerate(basis.tolist()):
        if j < n:
            x[j] = t[i, n]
    value = sum(map(operator.mul, c, x), ZERO)
    return LpResult(value, x, "exact")


# ---------------------------------------------------------------------------
# float pass and exact certificate
# ---------------------------------------------------------------------------


class _ScaledLp:
    """The LP read once.  Entry k of A is ``values[k]`` (as a float) at
    (``row[k]``, ``col[k]``).  Integer rows are ``coef`` and ``rhs`` as
    given, with ``scale`` None; Fraction rows of A and b, row i times
    ``scale[i]``, the lcm of its denominators, give the Python-int arrays
    ``coef`` and ``rhs``.  ``row_lcm`` is the lcm of the scales.  c times
    ``cscale`` gives ``cost``.  ``bound_a``, ``bound_b`` and ``bound_c``
    are their largest magnitudes."""

    def __init__(self, c, a: Csr, rhs: np.ndarray):
        self.n, self.m = len(c), len(rhs)
        self.row = np.repeat(np.arange(self.m), np.diff(a.indptr))
        self.col = np.asarray(a.indices, dtype=np.intp)
        self.values = a.data.astype(float)  # float(a), rounded once
        self.rhs_float = rhs.astype(float)
        self.sign = np.where(rhs < 0, -1.0, 1.0)
        self.cost, self.cscale = _over_lcm(c)
        # int / int rounds the quotient once, as float(Fraction) does
        self.cost_float = [v / self.cscale for v in self.cost]

        self.coef, self.rhs, self.scale = a.data, rhs, None
        if a.data.dtype == object or rhs.dtype == object:
            self.coef, self.rhs, self.scale = _scale_rows(
                a.indptr.tolist(), a.data.tolist(), rhs.tolist(), self.row.tolist())
        self.row_lcm = math.lcm(*self.scale) if self.scale else 1
        self.bound_a = _magnitude(self.coef)
        self.bound_b = _magnitude(self.rhs)
        self.bound_c = max(map(abs, self.cost), default=0)


def _scale_rows(ptr, entries, rhs, row):
    """Rational rows as Python ints: each row and its right-hand side times
    the lcm of their denominators.  Returns the entries, the right-hand
    sides (both object arrays) and the row scales."""
    num = [v.numerator for v in entries]
    den = [v.denominator for v in entries]
    scale = [math.lcm(b.denominator, *den[s:e]) for b, s, e in zip(rhs, ptr, ptr[1:])]
    coef = [p * (scale[i] // q) for p, q, i in zip(num, den, row)]
    bound = [b.numerator * (s // b.denominator) for b, s in zip(rhs, scale)]
    return np.array(coef, dtype=object), np.array(bound, dtype=object), scale


def _magnitude(v: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int."""
    return max(int(v.max()), -int(v.min())) if v.size else 0


def _float_certified(lp: _ScaledLp) -> Optional[LpResult]:
    """The float pass's optimal vertex if it passes the exact certificate, else None."""
    n, m = lp.n, lp.m
    # one scatter, adding repeated entries in row order
    t = np.zeros((m + 1, n + 1))
    np.add.at(t.reshape(-1), lp.row * (n + 1) + lp.col, lp.values)
    t[:m, n] = lp.rhs_float
    t[:m] *= lp.sign[:, None]
    cf = np.array(lp.cost_float + [0.0])
    try:
        basis, etas = _two_phase(t, cf, TOL)
    except (LpInfeasible, LpUnbounded):
        return None

    # duals y^T = c_B^T B^-1, with B^-1 the product of the pivots' eta
    # matrices applied last to first
    cost = cf[np.minimum(basis, n)]
    for r, piv, hit, vals in reversed(etas):
        cost[r] = (cost[r] - cost[hit] @ vals) / piv
    xf = np.zeros(n)
    basic = basis < n
    xf[basis[basic]] = t[:m][basic, n]
    x, xn, dx = _rationalise(xf)
    _, yn, dy = _rationalise(cost * lp.sign)
    if not _certificate_holds(lp, (xn, dx), (yn, dy)):
        return None
    value = Fraction(sum(map(operator.mul, lp.cost, xn)), lp.cscale * dx)
    return LpResult(value, x, "certified", (xn, dx))


def _rationalise(v: np.ndarray) -> tuple[list[Fraction], list[int], int]:
    """v as rationals, as their numerators and as the lcm of their
    denominators.  Each distinct entry goes through ``limit_denominator``
    once; entries below TOL are 0."""
    v[np.abs(v) < TOL] = 0.0
    v = v.tolist()
    values = {u: Fraction(u).limit_denominator() if u else ZERO for u in set(v)}
    nums, denom = _over_lcm(values.values())
    nums = dict(zip(values, nums))
    return [values[u] for u in v], [nums[u] for u in v], denom


def _certificate_holds(lp: _ScaledLp, x, y) -> bool:
    """x >= 0, A x = b, A^T y >= c and c.x = b.y, all exact.

    x and y are (integer numerators, common denominator) pairs.  With A'
    and b' the scaled rows (row i times s_i, L = lcm of the s_i), c' = c
    times s_c, x = X/dx and y = Y/dy, the checks are A' X = b' dx,
    s_c A'^T Y' >= L dy c' and L dy (c'.X) = s_c dx (b'.Y'), where
    Y'_i = Y_i L / s_i.  They run in int64 when no product or partial sum
    can reach 2^62, in Python ints otherwise.
    """
    (xn, dx), (yn, dy) = x, y
    if min(xn, default=0) < 0:
        return False
    big = lp.row_lcm
    if big != 1:
        yn = [v * (big // s) for v, s in zip(yn, lp.scale)]
    x_max = max(xn, default=0)
    y_max = max(map(abs, yn), default=0)
    scalars = (dx, big * dy, lp.cscale, x_max, y_max, lp.bound_a, lp.bound_b, lp.bound_c)
    bound = max(
        *scalars,
        len(lp.coef) * lp.bound_a * max(x_max, y_max * lp.cscale),
        lp.bound_b * max(dx, lp.m * y_max),
        lp.bound_c * max(big * dy, lp.n * x_max),
    )
    dtype = np.int64 if bound < 2**62 else object
    a = lp.coef.astype(dtype)
    b = lp.rhs.astype(dtype)
    c = np.array(lp.cost, dtype=dtype)
    X = np.array(xn, dtype=dtype)
    Y = np.array(yn, dtype=dtype)

    ax = np.zeros(lp.m, dtype=dtype)
    np.add.at(ax, lp.row, a * X[lp.col])
    if not np.array_equal(ax, b * dx):
        return False
    aty = np.zeros(lp.n, dtype=dtype)
    np.add.at(aty, lp.col, a * Y[lp.row])
    if (aty * lp.cscale < c * (big * dy)).any():
        return False
    return int(c @ X) * big * dy == int(b @ Y) * lp.cscale * dx
