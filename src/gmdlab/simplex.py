"""Two-phase primal simplex with exact answers: float-guided, exactly certified.

Solves  max c.x  s.t.  A x = b, x >= 0.  c is a sequence of Fractions; A
comes as CSR arrays (``Csr``) and b as an array of integers, int64 as
build_sa_lp writes every Sherali-Adams LP, or Python ints in object dtype;
any other entries raise TypeError.  One Bland-rule routine (smallest
eligible index enters, smallest basic index breaks ratio ties; redundant
rows stay as zero rows that no later pivot touches) runs twice at most:
first on float64, then, if needed, on exact rationals, where it walks the
bases exact arithmetic gives.  The vertex comes back once, as integer numerators
over one denominator (``LpResult``).  A pivot changes one block, the rows
with a nonzero in the entering column by the columns where the pivot row
is nonzero (about 12 by 13 entries in the Sherali-Adams LPs), and divides
the pivot row only when the pivot is not 1.  Its time is numpy's fixed
cost per call, so each step makes as few calls as it can.

The float pass reads the CSR arrays once into coordinate arrays (an LP with
a value past the float64 range has no float pass).  One scatter fills a
float64 tableau whose last row is the objective, and Bland pivots on it,
treating magnitudes below TOL as zero, find the optimal basis.  Bland's
rule can stall on degenerate LPs, so the pass makes at most PIVOT_BUDGET
(m + n) pivots, over phase one, the drive-outs and phase two, for m rows and
n structural columns.  Past that budget, and only then, HiGHS solves the
float LP (``scipy.optimize.linprog(method="highs")``, imported on that
path alone), and its x and its equality duals take the same certificate;
an LP that finishes within the budget never calls HiGHS, so its vertex is
Bland's.  Each distinct value of x and of the duals y is rationalised
once, to the closest fraction with a denominator up to 10^6 (the continued
fraction of ``Fraction.limit_denominator``, run on the float's integer
ratio in Python ints), and each vector becomes integer numerators over the
lcm of its denominators.  x is returned only if x >= 0, A x = b,
A^T y >= c and c.x = b.y all hold exactly; weak duality then proves x
optimal, and its path is "certified" from Bland's basis or "highs".  The
checks run on the integer rows as they come, with c scaled by the lcm of
its denominators; in int64 when a bound computed beforehand rules out
overflow, in Python ints (object dtype) otherwise, through the same code.
If any check fails, the float pass ends infeasible or unbounded, or HiGHS
ends otherwise than optimal, the same pivot code runs from scratch on
an object-dtype tableau of the same integer rows, with no tolerance, no
budget and the costs scaled to integers.  There each row is held as
Python-int numerators over a denominator of its own, 1 at the start, so
numpy's object loops do integer arithmetic from start to end; x is read as
a basic row's last entry over its denominator, and the pass keeps no etas.
It is the only pass that raises LpInfeasible/LpUnbounded, and it solves the
LPs whose optimal vertex or duals do not rationalise.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import over_lcm

ZERO = Fraction(0)
ONE = Fraction(1)

# absolute tolerance of the float pass: pivot eligibility, ratio ties, and
# the zero test for tableau entries and rationalised x and y
TOL = 1e-9

# the float pass makes at most PIVOT_BUDGET (m + n) pivots, over phase one,
# the drive-outs and phase two, on m rows and n structural columns; an LP
# that needs more goes to HiGHS
PIVOT_BUDGET = 2

# the largest denominator of a rationalised x or y entry
MAX_DENOMINATOR = 10**6


class LpInfeasible(RuntimeError):
    pass


class LpUnbounded(RuntimeError):
    pass


class _OverBudget(Exception):
    """The float pass reached its pivot budget."""


class Csr(NamedTuple):
    """Sparse rows in CSR form: row i holds ``data[k]`` at column
    ``indices[k]`` for k in ``range(indptr[i], indptr[i + 1])``.  ``data``
    is int64, or Python ints in object dtype."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class LpResult(NamedTuple):
    """An optimal vertex x = ``numerators`` / ``denom``, the numerators
    Python ints in object dtype over the lcm of x's denominators, and its
    ``value``; ``path`` names the solver that produced it: "certified"
    (Bland's float basis, exact certificate), "highs" (HiGHS past the float
    pass's pivot budget, exact certificate) or "exact"."""

    value: Fraction
    numerators: np.ndarray
    denom: int
    path: str


def _require_integers(name: str, v: np.ndarray) -> None:
    """TypeError unless v is int64 or holds Python ints in object dtype."""
    if v.dtype == np.int64 or (v.dtype == object and all(type(u) is int for u in v.tolist())):
        return
    raise TypeError(f"{name} must be int64 or Python ints in object dtype, got {v.dtype}")


def simplex_max(c: Sequence[Fraction], a: Csr, rhs: np.ndarray) -> LpResult:
    """Maximize c.x subject to the equality rows A x = rhs.

    The entries of A and rhs are integers: int64, or Python ints in object
    dtype; TypeError otherwise.  Rows with a negative right-hand side are
    negated on entry.  The result's ``path`` says whether Bland's float
    pass, HiGHS or the exact pass produced it.
    """
    rhs = np.asarray(rhs)
    _require_integers("row data", a.data)
    _require_integers("right-hand side", rhs)
    try:
        result = _float_certified(_ScaledLp(c, a, rhs))
    except OverflowError:  # a value past the float64 range
        result = None
    if result is not None:
        return result
    return _exact(c, a, rhs)


# ---------------------------------------------------------------------------
# Bland's two phases, on float64 or on integer numerators
# ---------------------------------------------------------------------------


def _bland_pivot(t, basis, etas, r, s, tol, den=None):
    """Pivot on (r, s); the objective, row m of t, is updated with the rest.
    Row r is divided unless piv is 1 (piv / piv is exactly 1), then the hit
    rows (nonzero in column s, r aside) by the live columns (nonzero in row
    r) are updated through one flat index array.  With tol > 0 (float64)
    quotients and updates below tol become 0, so no entry of t lies in
    0 < |x| < tol and a pivot of 1 has none to clear; its eta goes to
    `etas`.  With tol = 0 row i holds Python-int numerators over den[i]:
    row r is divided by its pivot's numerator into a new denominator, and
    only when that is not 1 do the hit rows take it on, whole rows
    multiplied and then reduced.  A float pivot past the budget, PIVOT_BUDGET
    times the rows and columns of A, raises _OverBudget and changes nothing."""
    if den is None and len(etas) >= PIVOT_BUDGET * (t.shape[0] + t.shape[1] - 2):
        raise _OverBudget
    row = t[r]
    piv = row[s]
    live = row.nonzero()[0]
    prow = row[live]
    if den is not None:
        g = math.gcd(*prow.tolist()) * (1 if piv > 0 else -1)
        prow = prow // g
        row[live] = prow
        den[r] = piv // g
    elif piv != 1:
        prow = prow / piv
        prow[np.abs(prow) < tol] = 0.0
        row[live] = prow
    col = t[:, s]
    one = col[r]
    col[r] = 0  # so that row r is no hit row
    hit = col.nonzero()[0]
    col[r] = one
    w = col[hit]
    if hit.size:
        at = (hit * t.shape[1])[:, None] + live
        if den is not None and den[r] != 1:
            t[hit] *= den[r]
        upd = t.take(at) - w[:, None] * prow
        if den is None:
            upd[np.abs(upd) < tol] = 0.0
        t.put(at, upd)
        if den is not None and den[r] != 1:
            den[hit] *= den[r]
            for h in hit.tolist():
                nz = t[h].nonzero()[0]
                g = math.gcd(den[h], *t[h, nz].tolist())
                t[h, nz] //= g
                den[h] //= g
    basis[r] = s
    if den is None:
        if hit.size and hit[-1] == len(basis):
            hit, w = hit[:-1], w[:-1]
        etas.append((r, piv, hit, w))


def _bland_iterate(t, basis, etas, n, tol, den=None) -> bool:
    """Bland pivots until optimal (True) or an unbounded ray (False)."""
    m = len(basis)
    obj, b = t[m], t[:m, n]
    while True:
        # the first column with a positive reduced cost enters; exact values
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
        # the least ratio leaves, ties to the least basic index; a row's
        # denominator cancels from its ratio
        if cand.size > 1:
            ratios = (b[cand] if tol else b[cand] * ONE) / col[cand]
            cand = cand[ratios <= ratios.min() + tol]
        r = cand[0] if cand.size == 1 else cand[basis[cand].argmin()]
        _bland_pivot(t, basis, etas, int(r), s, tol, den)


def _phases(t, cost, tol, den=None):
    """Both phases on the tableau t: rows 0..m-1 hold [A | b] with b >= 0,
    row m is overwritten with each phase's objective.  cost is c with a 0
    appended.  Returns the optimal basis and the pivots' etas, or raises
    LpInfeasible/LpUnbounded.  t is float64 with tol > 0, or, with tol = 0,
    Python-int numerators in object dtype, row i over den[i], and the same
    pivots then run exactly and keep no etas."""
    m, n = t.shape[0] - 1, t.shape[1] - 1
    obj = t[m]
    basis = np.arange(n, n + m)
    etas = []  # (row, pivot, hit rows, their pivot-column entries) per float pivot

    # phase one on structural columns, maximising minus the sum of the
    # artificials; artificial columns are never read, so they are not stored.
    # Exact objective rows are built from each row's nonzeros: a dense
    # sum or product would do object work on every zero.  Every row starts
    # over a denominator of 1.
    if tol:
        obj[:] = t[:m].sum(axis=0)
        obj[np.abs(obj) < tol] = 0.0
    else:
        obj[:] = 0
        for i in range(m):
            live = t[i].nonzero()[0]
            obj[live] += t[i, live]
    if not _bland_iterate(t, basis, etas, n, tol, den) or obj[n] > tol:
        raise LpInfeasible("equality system has no nonnegative solution")
    # drive leftover artificials out; a redundant row stays as a zero row
    # that no later pivot touches
    for i in range(m):
        if basis[i] >= n:
            nz = t[i, :n].nonzero()[0]
            if nz.size:
                _bland_pivot(t, basis, etas, i, int(nz[0]), tol, den)

    # phase two; cost[n] = 0 is also the cost of an artificial left basic
    cb = cost[np.minimum(basis, n)]
    if tol:
        obj[:] = cost - cb @ t[:m]
        obj[np.abs(obj) < tol] = 0.0
    else:
        basic = cb.nonzero()[0]
        den[m] = math.lcm(*den[basic].tolist())
        obj[:] = cost * den[m]
        for i in basic:
            live = t[i].nonzero()[0]
            obj[live] -= cb[i] * (den[m] // den[i]) * t[i, live]
    if not _bland_iterate(t, basis, etas, n, tol, den):
        raise LpUnbounded("objective unbounded above")
    return basis, etas


def _exact(c, a: Csr, rhs: np.ndarray) -> LpResult:
    """The two phases on an integer tableau of the rows as given, every row
    over a denominator of 1: scaling a row would change phase one's
    objective, hence Bland's bases."""
    n, m = len(c), len(rhs)
    # the rows, negated where b < 0, summed in Python ints
    sign = np.where(rhs < 0, -1, 1)
    row = np.repeat(np.arange(m), np.diff(a.indptr))
    t = np.zeros((m + 1, n + 1), dtype=object)
    np.add.at(t.reshape(-1), row * (n + 1) + a.indices, a.data.astype(object) * sign[row])
    t[:m, n] = rhs.astype(object) * sign
    den = np.ones(m + 1, dtype=object)
    # c scaled to integers: the same reduced-cost signs, hence the same pivots
    basis, _ = _phases(t, np.array([*over_lcm(c)[0], 0], dtype=object), 0, den)
    x = [ZERO] * n
    for i, j in enumerate(basis.tolist()):
        if j < n:
            x[j] = Fraction(t[i, n], den[i])
    nums, denom = over_lcm(x)
    value = sum(map(operator.mul, c, x), ZERO)
    return LpResult(value, np.array(nums, dtype=object), denom, "exact")


# ---------------------------------------------------------------------------
# float pass and exact certificate
# ---------------------------------------------------------------------------


class _ScaledLp:
    """The LP read once.  Entry k of A is ``coef[k]`` (``values[k]`` as a
    float) at (``row[k]``, ``col[k]``); ``rhs`` is b.  c times ``cscale``,
    the lcm of its denominators, gives the integers ``cost``.
    ``bound_a``, ``bound_b`` and ``bound_c`` are the largest magnitudes of
    A, b and ``cost``."""

    def __init__(self, c, a: Csr, rhs: np.ndarray):
        self.n, self.m = len(c), len(rhs)
        self.row = np.repeat(np.arange(self.m), np.diff(a.indptr))
        self.col = np.asarray(a.indices, dtype=np.intp)
        self.coef, self.rhs = a.data, rhs
        self.values = a.data.astype(float)  # float(a), rounded once
        self.rhs_float = rhs.astype(float)
        self.sign = np.where(rhs < 0, -1.0, 1.0)
        self.cost, self.cscale = over_lcm(c)
        # int / int rounds the quotient once, as float(Fraction) does
        self.cost_float = [v / self.cscale for v in self.cost]
        self.bound_a = _magnitude(self.coef)
        self.bound_b = _magnitude(self.rhs)
        self.bound_c = max(map(abs, self.cost), default=0)


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
        basis, etas = _phases(t, cf, TOL)
    except (LpInfeasible, LpUnbounded):
        return None
    except _OverBudget:
        return _highs_certified(lp)

    # duals y^T = c_B^T B^-1, with B^-1 the product of the pivots' eta
    # matrices applied last to first
    cost = cf[np.minimum(basis, n)]
    for r, piv, hit, vals in reversed(etas):
        cost[r] = (cost[r] - cost[hit] @ vals) / piv
    xf = np.zeros(n)
    basic = basis < n
    xf[basis[basic]] = t[:m][basic, n]
    return _certified(lp, xf, cost * lp.sign, "certified")


def _highs_certified(lp: _ScaledLp) -> Optional[LpResult]:
    """HiGHS's optimal vertex if it passes the exact certificate, else None.
    Its duals for max c.x are minus the equality marginals of min -c.x."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    a = csr_array((lp.values, (lp.row, lp.col)), shape=(lp.m, lp.n))
    res = linprog(-np.array(lp.cost_float), A_eq=a, b_eq=lp.rhs_float, bounds=(0, None), method="highs")
    if res.status != 0:
        return None
    return _certified(lp, res.x, -res.eqlin.marginals, "highs")


def _certified(lp: _ScaledLp, xf: np.ndarray, yf: np.ndarray, path: str) -> Optional[LpResult]:
    """The float primal xf and duals yf of the rows as given, rationalised,
    as an LpResult on `path` if they pass the exact certificate, else None."""
    xn, dx = _rationalise(xf)
    yn, dy = _rationalise(yf)
    if not _certificate_holds(lp, (xn, dx), (yn, dy)):
        return None
    value = Fraction(sum(map(operator.mul, lp.cost, xn)), lp.cscale * dx)
    return LpResult(value, np.array(xn, dtype=object), dx, path)


def _rationalise(v: np.ndarray) -> tuple[list[int], int]:
    """v as rationals: their numerators over the lcm of their denominators.
    Each distinct entry is rounded once to the closest rational of
    denominator at most MAX_DENOMINATOR (``_closest``); entries below TOL
    are 0."""
    v[np.abs(v) < TOL] = 0.0
    v = v.tolist()
    ratios = {u: _closest(*u.as_integer_ratio()) for u in set(v)}
    denom = math.lcm(*(q for _, q in ratios.values()))
    nums = {u: p * (denom // q) for u, (p, q) in ratios.items()}
    return [nums[u] for u in v], denom


def _closest(n: int, d: int) -> tuple[int, int]:
    """The closest p/q to n/d (coprime, d > 0) with 0 < q <= MAX_DENOMINATOR,
    ties to the smaller q, in lowest terms: the continued-fraction walk of
    ``Fraction(n, d).limit_denominator(MAX_DENOMINATOR)`` on Python ints.
    The last convergent p1/q1 and the semiconvergent past it bracket n/d,
    1 / (q1 (q0 + k q1)) apart, and p1/q1 lies d' / (q1 d) from it, d' the
    walk's last remainder."""
    if d <= MAX_DENOMINATOR:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > MAX_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (MAX_DENOMINATOR - q0) // q1
    if 2 * den * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _certificate_holds(lp: _ScaledLp, x, y) -> bool:
    """x >= 0, A x = b, A^T y >= c and c.x = b.y, all exact.

    x and y are (integer numerators, common denominator) pairs.  With
    c' = c times s_c, x = X/dx and y = Y/dy, the checks are A X = b dx,
    s_c A^T Y >= dy c' and dy (c'.X) = s_c dx (b.Y).  They run in int64
    when no product or partial sum can reach 2^62, in Python ints
    otherwise.
    """
    (xn, dx), (yn, dy) = x, y
    if min(xn, default=0) < 0:
        return False
    x_max = max(xn, default=0)
    y_max = max(map(abs, yn), default=0)
    scalars = (dx, dy, lp.cscale, x_max, y_max, lp.bound_a, lp.bound_b, lp.bound_c)
    bound = max(
        *scalars,
        len(lp.coef) * lp.bound_a * max(x_max, y_max * lp.cscale),
        lp.bound_b * max(dx, lp.m * y_max),
        lp.bound_c * max(dy, lp.n * x_max),
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
    if (aty * lp.cscale < c * dy).any():
        return False
    return int(c @ X) * dy == int(b @ Y) * lp.cscale * dx
