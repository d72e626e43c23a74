"""Instance data model, value functions, price grids, and bit-exact file I/O.

Two problems share this module:

* generalized max-dicut over a labeled weighted digraph: an arc (u, v) with
  label t is satisfied by a vertex labeling l when l(u) = 0 and l(v) = t;
* graph pricing over an undirected multigraph with per-edge budgets: an edge
  (u, v) pays w(e) * (p(u) + p(v)) when p(u) + p(v) <= b(e).

All weights, budgets, and prices are exact rationals (`fractions.Fraction`).
The reduction between the two problems produces budgets that are huge powers
of an integer, so nothing in this module may ever round.  A price grid's
size is known before it is built: geometric_grid_size uses logarithms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Union


class InstanceError(ValueError):
    """Invalid instance data (bad label, self-loop, nonpositive budget, ...)."""


class ParseError(InstanceError):
    """Malformed instance file; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class CapExceeded(RuntimeError):
    """A configured size cap would be exceeded; raise rather than grind."""


def as_fraction(x) -> Fraction:
    """Exact conversion; accepts int, Fraction, and strings that
    `parse_rational` takes."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InstanceError(f"not an exact rational: {x!r}")


def over_lcm(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


class ValueTexts(dict):
    """numerator -> str(Fraction(numerator, denom)), formatted on first use."""

    def __init__(self, denom: int):
        super().__init__()
        self.denom = denom

    def __missing__(self, num: int) -> str:
        text = self[num] = str(Fraction(num, self.denom))
        return text


class Arc(NamedTuple):
    tail: int
    head: int
    label: int
    weight: Fraction


class GpEdge(NamedTuple):
    u: int
    v: int
    budget: Fraction
    weight: Fraction


@dataclass(frozen=True)
class GmdInstance:
    """Labeled weighted digraph; arcs canonically sorted by (tail, head, label).

    Parallel arcs with the same (tail, head, label) are merged at build time
    by summing weights; parallel arcs with different labels are permitted.
    """

    T: int
    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if self.T < 1:
            raise InstanceError(f"domain parameter T must be >= 1, got {self.T}")
        if self.n < 0:
            raise InstanceError("negative vertex count")
        seen = set()
        for a in self.arcs:
            if not (0 <= a.tail < self.n and 0 <= a.head < self.n):
                raise InstanceError(f"arc endpoint out of range: {a}")
            if a.tail == a.head:
                raise InstanceError(f"self-loop at vertex {a.tail}")
            if not (1 <= a.label <= self.T):
                raise InstanceError(f"label {a.label} outside 1..{self.T}")
            if a.weight < 0:
                raise InstanceError(f"negative weight on {a}")
            key = (a.tail, a.head, a.label)
            if key in seen:
                raise InstanceError(f"unmerged parallel arc {key}")
            seen.add(key)
        if list(self.arcs) != sorted(self.arcs, key=lambda a: (a.tail, a.head, a.label)):
            raise InstanceError("arcs not in canonical order; use GmdInstance.of")

    @classmethod
    def of(cls, T: int, n: int, arcs: Iterable[tuple]) -> "GmdInstance":
        merged: dict[tuple[int, int, int], Fraction] = {}
        for tail, head, label, weight in arcs:
            key = (int(tail), int(head), int(label))
            merged[key] = merged.get(key, Fraction(0)) + as_fraction(weight)
        canon = tuple(
            Arc(t, h, l, w) for (t, h, l), w in sorted(merged.items())
        )
        return cls(T=T, n=n, arcs=canon)

    @property
    def total_weight(self) -> Fraction:
        return sum((a.weight for a in self.arcs), Fraction(0))

    @property
    def weights_normalized(self) -> bool:
        return self.total_weight == 1

    def normalized(self) -> "GmdInstance":
        """Rescale weights to sum exactly to 1."""
        total = self.total_weight
        if total == 0:
            raise InstanceError("cannot normalize: total weight is zero")
        return GmdInstance(
            T=self.T,
            n=self.n,
            arcs=tuple(a._replace(weight=a.weight / total) for a in self.arcs),
        )


@dataclass(frozen=True)
class GpInstance:
    """Undirected multigraph with budgets and weights; parallel edges allowed."""

    n: int
    edges: tuple[GpEdge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise InstanceError("negative vertex count")
        for e in self.edges:
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise InstanceError(f"edge endpoint out of range: {e}")
            if e.u == e.v:
                raise InstanceError(f"self-loop at vertex {e.u}")
            if e.budget <= 0:
                raise InstanceError(f"nonpositive budget on {e}")
            if e.weight < 0:
                raise InstanceError(f"negative weight on {e}")

    @classmethod
    def of(cls, n: int, edges: Iterable[tuple]) -> "GpInstance":
        def orient(u, v, b, w):
            u, v = int(u), int(v)
            if u > v:
                u, v = v, u
            return GpEdge(u, v, as_fraction(b), as_fraction(w))

        canon = tuple(sorted(orient(*e) for e in edges))
        return cls(n=n, edges=canon)

    @property
    def total_weight(self) -> Fraction:
        return sum((e.weight for e in self.edges), Fraction(0))


Instance = Union[GmdInstance, GpInstance]


@dataclass(frozen=True)
class Labeling:
    """Per-vertex label in 0..T; 0 is the distinguished tail value."""

    values: tuple[int, ...]

    def __getitem__(self, v: int) -> int:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Pricing:
    """Per-vertex exact nonnegative rational price."""

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, prices: Iterable) -> "Pricing":
        return cls(tuple(as_fraction(p) for p in prices))

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)


def val_gmd(inst: GmdInstance, lab: Labeling) -> Fraction:
    """Weight of arcs (u, v) with lab(u) = 0 and lab(v) = arc label."""
    if len(lab) != inst.n:
        raise InstanceError(f"labeling covers {len(lab)} of {inst.n} vertices")
    for v, x in enumerate(lab.values):
        if not (0 <= x <= inst.T):
            raise InstanceError(f"label {x} at vertex {v} outside 0..{inst.T}")
    vals = lab.values
    return sum(
        (a.weight for a in inst.arcs if vals[a.tail] == 0 and vals[a.head] == a.label),
        Fraction(0),
    )


def val_gp(inst: GpInstance, pricing: Pricing) -> Fraction:
    """Revenue sum w(e)(p(u)+p(v)) over edges with p(u)+p(v) <= b(e), exactly."""
    if len(pricing) != inst.n:
        raise InstanceError(f"pricing covers {len(pricing)} of {inst.n} vertices")
    for v, p in enumerate(pricing.values):
        if p < 0:
            raise InstanceError(f"negative price at vertex {v}")
    total = Fraction(0)
    prices = pricing.values
    for e in inst.edges:
        s = prices[e.u] + prices[e.v]
        if s <= e.budget:
            total += e.weight * s
    return total


def max_incident_budget(inst: GpInstance) -> list[Fraction]:
    """Per-vertex largest budget of an incident edge; 0 at isolated vertices."""
    bound = [Fraction(0)] * inst.n
    for e in inst.edges:
        bound[e.u] = max(bound[e.u], e.budget)
        bound[e.v] = max(bound[e.v], e.budget)
    return bound


def check_price_grid(inst: GpInstance, grid) -> None:
    """InstanceError unless the grid has one nonempty list of nonnegative
    prices per vertex."""
    if len(grid) != inst.n:
        raise InstanceError("need one candidate list per vertex")
    for prices in grid:
        if len(prices) == 0:
            raise InstanceError("empty candidate list")
        for p in prices:
            if p < 0:
                raise InstanceError(f"negative candidate price {p}")


def grid_spec_eps(spec: str) -> Fraction | None:
    """The eps of a price grid spec `geom:<eps>`, None for `half`;
    InstanceError for any other spec."""
    if spec == "half":
        return None
    if not spec.startswith("geom:"):
        raise InstanceError(f"unknown grid spec {spec!r} (want half or geom:<eps>)")
    try:
        eps = parse_rational(spec[len("geom:"):])
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"bad grid spec {spec!r}: {exc}") from None
    if eps <= 0:
        raise InstanceError(f"bad grid spec {spec!r}: eps must be positive")
    return eps


def price_grid_sizes(inst: GpInstance, spec: str, limit: int, cap: str | None = None) -> list[int]:
    """The sizes of the per-vertex price grids named by `spec` (see
    `grid_spec_eps`), without building them; CapExceeded, naming `limit`
    as `cap` when given, once n (every grid holds 0), then their sum,
    passes `limit`."""
    eps = grid_spec_eps(spec)
    if inst.n > limit:
        raise CapExceeded(f"grid {spec} has at least {inst.n} prices, cap {cap or limit}")
    budgets = max_incident_budget(inst)
    if eps is None:
        sizes = [min(_half_grid_size(b), limit + 1) for b in budgets]
    else:
        sizes = [geometric_grid_size(b, eps, limit) for b in budgets]
    total = sum(sizes)
    if total > limit:
        count = f"more than {limit}" if limit + 1 in sizes else str(total)
        raise CapExceeded(f"grid {spec} has {count} prices, cap {cap or limit}")
    return sizes


def price_grid(inst: GpInstance, spec: str) -> list[list[Fraction]]:
    """The price grids of a `spec` that `price_grid_sizes` has checked."""
    eps = grid_spec_eps(spec)
    if eps is None:
        return half_integral_grid(inst)
    return [geometric_grid(b, eps) for b in max_incident_budget(inst)]


def half_integral_grid(inst: GpInstance) -> list[list[Fraction]]:
    """Per-vertex candidates {0, 1/2, ..., B_v} where B_v caps incident budgets.

    Exact for integer budgets; for fractional budgets the grid is still legal
    input but the result is only a lower bound on the optimum.
    """
    return [[Fraction(k, 2) for k in range(_half_grid_size(b))] for b in max_incident_budget(inst)]


def _half_grid_size(budget: Fraction) -> int:
    return int(2 * budget) + 1  # the prices 0, 1/2, ..., budget


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


def ndeg(inst: GmdInstance) -> Fraction:
    """Normalized outdegree: reciprocal of sum over tails of max out-weight.

    Requires normalized weights; vertices without out-arcs contribute 0.
    """
    if not inst.arcs:
        raise InstanceError("ndeg undefined on empty arc set")
    if not inst.weights_normalized:
        raise InstanceError("ndeg requires weights normalized to sum 1")
    best: dict[int, Fraction] = {}
    for a in inst.arcs:
        if a.weight > best.get(a.tail, Fraction(0)):
            best[a.tail] = a.weight
    return 1 / sum(best.values(), Fraction(0))


# ---------------------------------------------------------------------------
# File format (UTF-8, line oriented, '#' comments):
#
#   gmd <T>                  gp
#   v <n>                    [M <int>]           # enables M^k budget tokens
#   e t h label w            v <n>
#   [normalize]              e u v budget w
#
# weights/budgets/prices appear as integers or p/q fractions.
# ---------------------------------------------------------------------------


# decimal exponents and M^k budgets past 10^_MAX_EXPONENT are refused
# before Fraction computes them: 10^(10^7) takes seconds
_MAX_EXPONENT = 100_000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Fraction(text), or ValueError/ZeroDivisionError; ValueError also when
    its decimal exponent is past _MAX_EXPONENT."""
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
        raise ValueError("exponent too large")
    return Fraction(text)


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_instance(text: str) -> Instance:
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "empty instance file")
    lineno, header = lines[0]
    fields = header.split()
    if fields[0] == "gmd":
        return _parse_gmd(fields, lines, lineno)
    if fields[0] == "gp":
        return _parse_gp(fields, lines, lineno)
    raise ParseError(lineno, f"unknown header {fields[0]!r} (want 'gmd <T>' or 'gp')")


def _parse_fraction(tok: str, lineno: int) -> Fraction:
    try:
        return parse_rational(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad rational {tok!r}") from None


def _parse_int(tok: list[str], lineno: int, what: str) -> int:
    """The one integer field of a `v`/`M` line."""
    if len(tok) != 2:
        raise ParseError(lineno, f"{tok[0]} line needs a {what}")
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(lineno, f"bad {what} {tok[1]!r}") from None


def _parse_vertex_count(tok: list[str], lineno: int, earlier) -> int:
    """The count of a `v` line; `earlier` is an earlier `v` line's, or None."""
    if earlier is not None:
        raise ParseError(lineno, "second vertex count")
    n = _parse_int(tok, lineno, "vertex count")
    if n < 0:
        raise ParseError(lineno, f"negative vertex count {n}")
    return n


def _parse_gmd(fields, lines, header_lineno) -> GmdInstance:
    if len(fields) != 2:
        raise ParseError(header_lineno, "gmd header needs exactly one field: T")
    try:
        T = int(fields[1])
    except ValueError:
        raise ParseError(header_lineno, f"bad T {fields[1]!r}") from None
    if T < 1:
        raise ParseError(header_lineno, f"T must be >= 1, got {T}")
    n = None
    arcs = []
    normalize_lineno = None
    for lineno, line in lines[1:]:
        tok = line.split()
        if tok[0] == "v":
            n = _parse_vertex_count(tok, lineno, n)
        elif tok[0] == "e":
            if n is None:
                raise ParseError(lineno, "edge before vertex count")
            if len(tok) != 5:
                raise ParseError(lineno, "gmd edge needs: e tail head label weight")
            try:
                tail, head, label = int(tok[1]), int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError(lineno, f"bad integer in {line!r}") from None
            w = _parse_fraction(tok[4], lineno)
            if not (0 <= tail < n and 0 <= head < n):
                raise ParseError(lineno, f"vertex out of range in {line!r}")
            if tail == head:
                raise ParseError(lineno, f"self-loop in {line!r}")
            if not (1 <= label <= T):
                raise ParseError(lineno, f"label {label} > T={T}" if label > T else f"label {label} < 1")
            if w < 0:
                raise ParseError(lineno, f"negative weight in {line!r}")
            arcs.append((tail, head, label, w))
        elif tok[0] == "normalize":
            normalize_lineno = lineno
        else:
            raise ParseError(lineno, f"unknown directive {tok[0]!r}")
    if n is None:
        raise ParseError(header_lineno, "missing vertex count")
    inst = GmdInstance.of(T, n, arcs)
    if normalize_lineno is None:
        return inst
    if inst.total_weight == 0:
        raise ParseError(normalize_lineno, "cannot normalize: total weight is zero")
    return inst.normalized()


def _parse_gp(fields, lines, header_lineno) -> GpInstance:
    if len(fields) != 1:
        raise ParseError(header_lineno, "gp header has no fields")
    n = None
    M = None
    edges = []
    for lineno, line in lines[1:]:
        tok = line.split()
        if tok[0] == "v":
            n = _parse_vertex_count(tok, lineno, n)
        elif tok[0] == "M":
            M = _parse_int(tok, lineno, "budget base")
            if M < 2:
                raise ParseError(lineno, f"budget base M must be >= 2, got {M}")
        elif tok[0] == "e":
            if n is None:
                raise ParseError(lineno, "edge before vertex count")
            if len(tok) != 5:
                raise ParseError(lineno, "gp edge needs: e u v budget weight")
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError(lineno, f"bad integer in {line!r}") from None
            budget = _parse_budget_token(tok[3], M, lineno)
            w = _parse_fraction(tok[4], lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"vertex out of range in {line!r}")
            if u == v:
                raise ParseError(lineno, f"self-loop in {line!r}")
            if budget <= 0:
                raise ParseError(lineno, f"nonpositive budget in {line!r}")
            if w < 0:
                raise ParseError(lineno, f"negative weight in {line!r}")
            edges.append((u, v, budget, w))
        else:
            raise ParseError(lineno, f"unknown directive {tok[0]!r}")
    if n is None:
        raise ParseError(header_lineno, "missing vertex count")
    return GpInstance.of(n, edges)


def _parse_budget_token(tok: str, M, lineno: int) -> Fraction:
    if tok.startswith("M^"):
        if M is None:
            raise ParseError(lineno, "M^k budget token without an M header line")
        try:
            k = int(tok[2:])
        except ValueError:
            raise ParseError(lineno, f"bad exponent in {tok!r}") from None
        if k < 0:
            raise ParseError(lineno, f"negative exponent in {tok!r}")
        if k * math.log10(M) > _MAX_EXPONENT:
            raise ParseError(lineno, f"budget {tok!r} is past 10^{_MAX_EXPONENT}")
        return Fraction(M) ** k
    return _parse_fraction(tok, lineno)


def serialize_instance(inst: Instance) -> str:
    if isinstance(inst, GmdInstance):
        out = [f"gmd {inst.T}", f"v {inst.n}"]
        out += [f"e {a.tail} {a.head} {a.label} {a.weight}" for a in inst.arcs]
    elif isinstance(inst, GpInstance):
        out = ["gp", f"v {inst.n}"]
        out += [f"e {e.u} {e.v} {e.budget} {e.weight}" for e in inst.edges]
    else:
        raise InstanceError(f"not an instance: {inst!r}")
    return "\n".join(out) + "\n"

