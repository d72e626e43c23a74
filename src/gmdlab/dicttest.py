"""Correlated-space dictatorship test for the labeled dicut predicate.

The single-coordinate distribution puts mass delta on 0 and (1-delta)/T on
each nonzero label.  For a target label t, a pair (x, y) is drawn by sampling
y from that marginal, forcing x = 0 when y = t, and otherwise drawing x
independently from the renormalized marginal with (1-delta)/T removed from 0.
Both coordinates of the pair are then marginally identical, coordinate
projections pass the test with probability exactly (1-delta)/T, and the
correlation of the two sides is at most sqrt(2/(T delta)).

A test instance composes one such R-coordinate test per arc of a small inner
DAG, giving a labeled-dicut instance on inner-vertex x hypercube pairs whose
edges follow the inner topological order (hence acyclic).  Rational delta
keeps every probability an exact Fraction; the default delta = T^(-1/4) is
exact exactly when T is a fourth power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .caps import Caps
from .core import CapExceeded, GmdInstance, InstanceError, over_lcm
from .gapgen import DagSkeleton
from .reduction import topo_number
from .rng import substream

Prob = Union[Fraction, float]

STREAM_ENTRIES = 1 << 22  # most entries `_stream_sum` builds in one numpy array


@dataclass(frozen=True)
class CorrelatedSpace:
    T: int
    delta: Prob
    P: tuple[Prob, ...]            # marginal on labels 0..T
    Pprime: tuple[Prob, ...]       # resampling distribution for the tail side

    @property
    def q(self) -> int:
        return self.T + 1

    def joint(self, t: int) -> dict:
        """Pair distribution for target label t: (x, y) -> probability.

        Built on demand; for large T materializing all T tables up front
        would dominate every caller that needs only one.
        """
        if not (1 <= t <= self.T):
            raise InstanceError(f"target label {t} outside 1..{self.T}")
        return _joint_table(self.T, self.delta, t)

    @property
    def exact(self) -> bool:
        return isinstance(self.delta, Fraction)


@lru_cache(maxsize=512)
def _joint_table(T: int, delta: Prob, t: int) -> dict:
    space = build_correlated_space(T, delta)
    table: dict = {}
    for y in range(T + 1):
        if y == t:
            table[(0, t)] = table.get((0, t), 0) + space.P[t]
        else:
            for x in range(T + 1):
                p = space.P[y] * space.Pprime[x]
                if p != 0:
                    table[(x, y)] = table.get((x, y), 0) + p
    return table


def default_delta(T: int) -> Prob:
    """T^(-1/4); exact when T is a perfect fourth power."""
    root = round(T ** 0.25)
    if root**4 == T:
        return Fraction(1, root)
    return T ** (-0.25)


def build_correlated_space(T: int, delta: Optional[Prob] = None) -> CorrelatedSpace:
    if T < 1:
        raise InstanceError("T must be >= 1")
    delta = default_delta(T) if delta is None else delta
    if isinstance(delta, Fraction):
        one = Fraction(1)
    else:
        delta = float(delta)
        one = 1.0
    if not (0 < delta <= 1):
        raise InstanceError(f"delta must be in (0, 1], got {delta}")
    if delta * (T + 1) < 1:
        raise InstanceError(
            f"delta={delta} too small for T={T}: renormalized mass at 0 is negative"
        )
    off = (one - delta) / T
    P = (delta,) + (off,) * T
    scale = one / (one - off)
    Pprime = (scale * (delta - off),) + (scale * off,) * T
    return CorrelatedSpace(T=T, delta=delta, P=P, Pprime=Pprime)


def correlation_bound(space: CorrelatedSpace) -> float:
    return math.sqrt(2 / (space.T * float(space.delta)))


def exact_correlation(space: CorrelatedSpace, tol: float = 1e-10) -> tuple[float, float]:
    """Correlation of the two sides, computed two ways and cross-checked.

    Closed form: the extremal zero-mean unit-variance function of the tail
    side is free only in its value at 0 (all other atoms are exchangeable),
    which gives rho = (1-delta) / sqrt(delta (T - 1 + delta)).  The second
    method is the second singular value of the normalized joint operator.
    Both must agree within `tol`; the result must respect sqrt(2/(T delta)).
    """
    T = space.T
    d = float(space.delta)
    if d == 1.0:
        closed = 0.0
    else:
        closed = (1 - d) / math.sqrt(d * (T - 1 + d))
    svd = _correlation_svd(space)
    if abs(closed - svd) > tol:
        raise InstanceError(
            f"correlation methods disagree: closed={closed!r} svd={svd!r}"
        )
    bound = correlation_bound(space)
    if closed > bound + tol:
        raise InstanceError(f"correlation {closed} exceeds bound {bound}")
    return closed, bound


def _correlation_svd(space: CorrelatedSpace) -> float:
    # identical for every target label by symmetry; use t = 1
    P = [float(p) for p in space.P]
    support = [x for x in range(space.q) if P[x] > 0]
    M = np.zeros((len(support), len(support)))
    joint = space.joint(1)
    for a, x in enumerate(support):
        for b, y in enumerate(support):
            M[a, b] = float(joint.get((x, y), 0)) / math.sqrt(P[x] * P[y])
    sv = np.linalg.svd(M, compute_uv=False)
    return float(sv[1]) if len(sv) > 1 else 0.0


# ---------------------------------------------------------------------------
# Hypercube encoding and the composed test instance
# ---------------------------------------------------------------------------


def decode_point(code: int, q: int, R: int) -> tuple[int, ...]:
    """The R coordinates of a base-q hypercube code; coordinate i has stride q^i."""
    out = []
    for _ in range(R):
        out.append(code % q)
        code //= q
    return tuple(out)


@dataclass(frozen=True)
class TestInstance:
    instance: GmdInstance
    inner: DagSkeleton
    R: int
    space: CorrelatedSpace


def _inner_arcs(inner) -> tuple[DagSkeleton, tuple[tuple[int, int], ...]]:
    if isinstance(inner, DagSkeleton):
        return inner, inner.arcs
    if isinstance(inner, GmdInstance):
        skeleton = DagSkeleton(
            n=inner.n, arcs=tuple(sorted({(a.tail, a.head) for a in inner.arcs}))
        )
        return skeleton, skeleton.arcs
    raise InstanceError("inner DAG must be a DagSkeleton or GmdInstance")


def _check_rounds(R: int) -> None:
    if R < 1:
        raise InstanceError(f"R must be >= 1, got {R}")


def build_test_instance(
    space: CorrelatedSpace, inner, R: int, caps: Caps = Caps()
) -> TestInstance:
    """Materialize the composed test as a labeled-dicut instance.

    One edge per inner arc, target label, and support pair of the
    R-fold joint; the weight is the sampling probability.  Irrational
    delta still yields exact Fractions of the float probabilities, so
    total weight is 1 up to float representation of the tables.
    """
    _check_rounds(R)
    skeleton, arcs = _inner_arcs(inner)
    if not arcs:
        raise InstanceError("inner DAG has no arcs")
    q = space.q
    nominal = len(arcs) * space.T * q ** (2 * R)
    if nominal > caps.test_edges:
        raise CapExceeded(
            f"{nominal} potential edges exceed cap {caps.test_edges}; "
            "use acceptance_probability for streaming evaluation"
        )
    block = q**R
    edge_scale = Fraction(1, len(arcs) * space.T)
    out = []
    for u, v in arcs:
        for t in range(1, space.T + 1):
            pairs = list(space.joint(t).items())
            for combo in itertools.product(pairs, repeat=R):
                w = Fraction(1)
                xcode = 0
                ycode = 0
                for i, ((x, y), p) in enumerate(combo):
                    w *= Fraction(p)
                    xcode += x * q**i
                    ycode += y * q**i
                out.append(
                    (u * block + xcode, v * block + ycode, t, w * edge_scale)
                )
    inst = GmdInstance.of(space.T, skeleton.n * block, out)
    ti = TestInstance(instance=inst, inner=skeleton, R=R, space=space)
    topo_number(inst)  # composed edges follow the inner order: must be acyclic
    return ti


FunctionTable = Sequence[int]


def evaluate_acceptance(ti: TestInstance, functions: Sequence[FunctionTable]) -> Fraction:
    """Exact acceptance probability of per-inner-vertex functions.

    `functions[v]` maps hypercube codes (see decode_point) to labels 0..T.
    """
    q = ti.space.q
    block = q**ti.R
    for v, table in enumerate(functions):
        if len(table) != block:
            raise InstanceError(f"function for inner vertex {v} is partial")
    total = Fraction(0)
    for a in ti.instance.arcs:
        u, xcode = divmod(a.tail, block)
        v, ycode = divmod(a.head, block)
        if functions[u][xcode] == 0 and functions[v][ycode] == a.label:
            total += a.weight
    return total


def acceptance_probability(
    space: CorrelatedSpace, inner, R: int, functions: Sequence[FunctionTable]
) -> Prob:
    """Streaming acceptance sum; no instance materialization.  Exact Fraction
    for rational delta (integer arithmetic over a common denominator), float
    otherwise."""
    _check_rounds(R)
    _, arcs = _inner_arcs(inner)
    if not arcs:
        raise InstanceError("inner DAG has no arcs")
    q = space.q
    block = q**R
    for v, table in enumerate(functions):
        if len(table) != block:
            raise InstanceError(f"function for inner vertex {v} is partial")
    if space.exact:
        joints = [list(space.joint(t).items()) for t in range(1, space.T + 1)]
        nums, denom = over_lcm([p for joint in joints for _, p in joint])
        nums = iter(nums)
        pairs = [[(x, y, next(nums)) for (x, y), _ in joint] for joint in joints]
        acc = 0
        for u, v in arcs:
            fu, fv = functions[u], functions[v]
            for t, scaled in enumerate(pairs, 1):
                acc += _stream_sum(scaled, R, q, fu, fv, t, denom)
        return Fraction(acc, denom**R * len(arcs) * space.T)
    acc_f = 0.0
    for u, v in arcs:
        fu, fv = functions[u], functions[v]
        for t in range(1, space.T + 1):
            pairs = [(x, y, float(p)) for (x, y), p in space.joint(t).items()]
            acc_f += _stream_sum(pairs, R, q, fu, fv, t, None)
    return acc_f / (len(arcs) * space.T)


def _stream_sum(pairs, R, q, fu, fv, t, denom):
    """Total weight (the product of the ps) of the R-fold products of
    `pairs` (x, y, p) whose x code has fu == 0 and y code fv == t.  The
    product of the first k coordinates, k the most (at least 1) that fit in
    `STREAM_ENTRIES`, is built in numpy, then summed once per product of the
    other coordinates in `itertools.product` order.  The ps are integers
    over `denom`, whose R-th power bounds every partial sum, or floats."""
    dtype = np.float64 if denom is None else np.int64 if denom**R < 2**62 else object
    xs = np.array([x for x, _, _ in pairs], dtype=np.int64)
    ys = np.array([y for _, y, _ in pairs], dtype=np.int64)
    ps = np.array([p for _, _, p in pairs], dtype=dtype)
    k = 1
    while k < R and len(pairs) ** (k + 1) <= STREAM_ENTRIES:
        k += 1
    xcode, ycode, prob = xs, ys, ps
    for depth in range(1, k):
        stride = q**depth
        xcode = (xcode[:, None] + xs[None, :] * stride).ravel()
        ycode = (ycode[:, None] + ys[None, :] * stride).ravel()
        prob = (prob[:, None] * ps[None, :]).ravel()
    # a code is the code of its first k coordinates plus q^k times the code
    # of the rest: row r of these tables is the rest's code r
    zero_x = (np.asarray(fu) == 0).reshape(-1, q**k)
    at_t = (np.asarray(fv) == t).reshape(-1, q**k)
    total = 0
    for rest in itertools.product(pairs, repeat=R - k):
        rx, ry, w = 0, 0, 1
        for depth, (x, y, p) in enumerate(rest):
            rx += x * q**depth
            ry += y * q**depth
            w *= p
        total += w * prob[zero_x[rx, xcode] & at_t[ry, ycode]].sum()
    return float(total) if denom is None else int(total)


def dictator(space: CorrelatedSpace, R: int, i: int) -> list[int]:
    """Coordinate projection x -> x_i as a truth table."""
    q = space.q
    return [decode_point(code, q, R)[i] for code in range(q**R)]


def constant(space: CorrelatedSpace, R: int, value: int) -> list[int]:
    return [value] * space.q**R


def influence(space: CorrelatedSpace, table: Sequence, i: int, caps: Caps = Caps()):
    """Expected conditional variance of coordinate i under the marginal product.

    The table may be label-valued or {0,1} indicator-valued; variance is of
    the table values as numbers.  Exact for rational delta.
    """
    q = space.q
    states = len(table)
    R = round(math.log(states, q))
    if q**R != states:
        raise InstanceError("table length is not a power of the domain size")
    if states > caps.influence_states:
        raise CapExceeded(f"{states} states exceed cap {caps.influence_states}")
    P = space.P
    stride = q**i
    total = 0 if space.exact else 0.0
    outer = [j for j in range(R) if j != i]
    for ctx in itertools.product(range(q), repeat=len(outer)):
        base = 0
        p_ctx = Fraction(1) if space.exact else 1.0
        for j, xj in zip(outer, ctx):
            base += xj * q**j
            p_ctx *= P[xj]
        mean = 0 if space.exact else 0.0
        mean_sq = mean
        for xi in range(q):
            f = table[base + xi * stride]
            mean += P[xi] * f
            mean_sq += P[xi] * f * f
        total += p_ctx * (mean_sq - mean * mean)
    return total


def dictator_completeness(space: CorrelatedSpace) -> Prob:
    """Acceptance probability of any single shared dictator: (1-delta)/T."""
    return (1 - space.delta) / space.T


def soundness_line(T: int) -> float:
    """The low-influence acceptance ceiling 1/(4T) + 4/T^(5/4)."""
    return 1 / (4 * T) + 4 / T ** (5 / 4)


def dictator_beats_soundness_line(T: int) -> bool:
    """Exact integer test of (1 - T^(-1/4))/T > 1/(4T) + 4/T^(5/4).

    Dividing by 1/T and writing d = T^(-1/4), the inequality is
    1 - d > 1/4 + 4d, i.e. d < 3/20, i.e. T > (20/3)^4 = 160000/81.
    """
    return 81 * T > 160_000


def adversarial_functions(space: CorrelatedSpace, R: int, seed: int = 0, count: int = 4):
    """Named non-dictator strategies for empirical soundness exploration."""
    q = space.q
    rng = substream(seed, 0)
    yield "constant-0", constant(space, R, 0)
    yield "constant-1", constant(space, R, 1)
    for i in range(min(R, 2)):
        table = [(x + 1) % q for x in dictator(space, R, i)]
        yield f"shifted-dictator-{i}", table
    for k in range(count):
        yield f"random-{k}", [int(rng.integers(0, q)) for _ in range(q**R)]


@dataclass(frozen=True)
class AcceptanceReport:
    name: str
    acceptance: float
    soundness_ceiling: float
    completeness: float


def soundness_report(
    space: CorrelatedSpace, inner, R: int, seed: int = 0
) -> list[AcceptanceReport]:
    _check_rounds(R)
    skeleton, _ = _inner_arcs(inner)
    n_inner = skeleton.n
    ceiling = soundness_line(space.T)
    completeness = float(dictator_completeness(space))
    out = []
    for name, table in adversarial_functions(space, R, seed=seed):
        acc = acceptance_probability(space, inner, R, [table] * n_inner)
        out.append(
            AcceptanceReport(
                name=name,
                acceptance=float(acc),
                soundness_ceiling=ceiling,
                completeness=completeness,
            )
        )
    return out
