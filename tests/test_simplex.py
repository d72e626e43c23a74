import contextlib
import math
import operator
import os
from fractions import Fraction
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmdlab.simplex as simplex_mod
from gmdlab.core import (
    GmdInstance,
    GpInstance,
    geometric_grid,
    half_integral_grid,
    max_incident_budget,
    over_lcm,
    parse_instance,
)
from gmdlab.salp import build_sa_lp
from gmdlab.simplex import Csr, LpInfeasible, LpUnbounded, simplex_max
from test_salp import sa_lps

F = Fraction
ZERO = F(0)
ONE = F(1)


def row_scales(rows, rhs):
    """Per row, the lcm of the denominators of its entries and right-hand
    side."""
    return [math.lcm(F(b).denominator, *(F(a).denominator for _, a in row))
            for row, b in zip(rows, rhs)]


def integer_rows(rows, rhs):
    """Rational pair rows as integer pair rows: each row and its right-hand
    side times its scale."""
    scales = row_scales(rows, rhs)
    return ([[(j, int(a * k)) for j, a in row] for row, k in zip(rows, scales)],
            [int(b * k) for b, k in zip(rhs, scales)])


def int_array(values):
    """Integers as int64 when every one fits, else as Python ints in object
    dtype."""
    values = list(values)
    fits = all(-2**63 <= v < 2**63 for v in values)
    return np.array(values, dtype=np.int64 if fits else object)


def csr(rows):
    """Integer (variable, coefficient) pair rows as CSR arrays."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([j for row in rows for j, _ in row], dtype=np.intp)
    return Csr(indptr, indices, int_array(a for row in rows for _, a in row))


def solve(c, rows, rhs):
    """simplex_max on rational pair rows, each scaled to integers."""
    rows, rhs = integer_rows(rows, rhs)
    return simplex_max(c, csr(rows), int_array(rhs))


def reference(c, rows, rhs):
    """simplex_max_exact on the integer rows that `solve` passes."""
    return simplex_max_exact(c, *integer_rows(rows, rhs))


def vertex(result):
    """(value, x) of an LpResult, x as Fractions."""
    return result.value, [F(v, result.denom) for v in result.numerators.tolist()]


def test_tiny_lp_by_hand():
    # max x0 + 2 x1  s.t. x0 + x1 + s = 1  ->  optimum at x1 = 1
    value, x = vertex(solve(
        [F(1), F(2), F(0)],
        [[(0, F(1)), (1, F(1)), (2, F(1))]],
        [F(1)],
    ))
    assert value == 2
    assert x == [0, 1, 0]


def test_degenerate_and_redundant_rows():
    rows = [
        [(0, F(1)), (1, F(1))],
        [(0, F(2)), (1, F(2))],  # scalar multiple of the first
    ]
    value, x = vertex(solve([F(3), F(1)], rows, [F(1), F(2)]))
    assert value == 3
    assert x[0] == 1 and x[1] == 0


def test_infeasible_detected():
    rows = [[(0, F(1))], [(0, F(1))]]
    with pytest.raises(LpInfeasible):
        solve([F(1)], rows, [F(1), F(2)])


def test_negative_rhs_normalized():
    # -x0 = -3/4 is x0 = 3/4
    value, x = vertex(solve([F(5)], [[(0, F(-1))]], [F(-3, 4)]))
    assert x == [F(3, 4)]
    assert value == F(15, 4)


def test_fractional_vertex_solution_exact():
    # max x0 + x1 with x0 + 2 x1 = 1 and 2 x0 + x1 = 1: vertex (1/3, 1/3)
    rows = [
        [(0, F(1)), (1, F(2))],
        [(0, F(2)), (1, F(1))],
    ]
    value, x = vertex(solve([F(1), F(1)], rows, [F(1), F(1)]))
    assert x == [F(1, 3), F(1, 3)]
    assert value == F(2, 3)


# ---------------------------------------------------------------------------
# float-guided path: certified answers equal the exact tableau's
# ---------------------------------------------------------------------------

def lp_parts(lp):
    """An SA LP as (c, pair rows, rhs) with Fraction entries."""
    ptr = lp.rows.indptr.tolist()
    indices, data = lp.rows.indices.tolist(), lp.rows.data.tolist()
    rows = [list(zip(indices[s:e], map(F, data[s:e]))) for s, e in zip(ptr, ptr[1:])]
    return list(lp.objective), rows, [F(b) for b in lp.rhs.tolist()]


@st.composite
def sa_lps_with_redundant_rows(draw):
    """A 2-round SA LP plus scaled, negated and summed copies of its rows."""
    n = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    if draw(st.booleans()):
        T = draw(st.integers(1, 2))
        arcs = draw(st.lists(
            st.tuples(pairs, st.integers(1, T), st.integers(1, 6)), min_size=1, max_size=6))
        inst = GmdInstance.of(T, n, [(u, v, t, F(w, 6)) for (u, v), t, w in arcs])
        lp = build_sa_lp(inst, rounds=2)
    else:
        edges = draw(st.lists(
            st.tuples(pairs, st.integers(1, 2), st.integers(1, 4)), min_size=1, max_size=4))
        inst = GpInstance.of(n, [(u, v, b, w) for (u, v), b, w in edges])
        lp = build_sa_lp(inst, rounds=2, price_grid=half_integral_grid(inst))
    c, rows, rhs = lp_parts(lp)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.sampled_from([F(2), F(-1), F(1, 3)]))
        if draw(st.booleans()):
            rows.append([(j, k * a) for j, a in rows[i]])
            rhs.append(k * rhs[i])
        else:
            i2 = draw(st.integers(0, len(rows) - 1))
            rows.append(rows[i] + rows[i2])
            rhs.append(rhs[i] + rhs[i2])
    return c, rows, rhs


@given(sa_lps_with_redundant_rows())
@settings(max_examples=30, deadline=None)
def test_float_path_matches_exact_tableau(parts):
    c, rows, rhs = parts
    assert vertex(solve(c, rows, rhs)) == reference(c, rows, rhs)


@given(sa_lps_with_redundant_rows())
@settings(max_examples=30, deadline=None)
def test_exact_pass_matches_exact_tableau(parts):
    # a rejected certificate sends every LP through the Fraction pass
    c, rows, rhs = parts
    with mock.patch.object(simplex_mod, "_certificate_holds", lambda *args: False):
        result = solve(c, rows, rhs)
    assert result.path == "exact"
    assert vertex(result) == reference(c, rows, rhs)


def test_sa_lps_are_certified():
    # the fast path must carry the relaxations, not fall back on them
    tri = GmdInstance.of(1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))])
    two = GmdInstance.of(2, 4, [(0, 1, 2, 1), (1, 2, 1, 2), (2, 3, 2, 1), (3, 0, 1, 3), (0, 2, 2, 1)])
    # the benchmark's shapes: n=5, T=3 at 2 rounds (180 variables), n=4, T=2
    # at 3 rounds (174 variables) and a pricing LP on the half grid
    five = GmdInstance.of(3, 5, [
        (4, 1, 3, 5), (1, 2, 1, 5), (0, 4, 2, 4), (3, 4, 3, 3),
        (0, 2, 1, 4), (1, 0, 3, 1), (0, 1, 1, 1), (0, 2, 3, 4),
    ]).normalized()
    four = GmdInstance.of(2, 4, [
        (2, 1, 1, 6), (0, 2, 1, 1), (2, 0, 1, 4), (3, 1, 2, 3), (2, 3, 1, 7), (1, 2, 2, 6),
    ]).normalized()
    pricing = GpInstance.of(4, [(3, 0, 2, 4), (0, 3, 1, 3), (0, 3, 2, 3), (2, 1, 2, 4), (0, 2, 1, 1)])
    lps = [build_sa_lp(inst, rounds=rounds)
           for inst, rounds in ((tri, 2), (tri, 3), (two, 2), (two, 3), (five, 2), (four, 3))]
    lps.append(build_sa_lp(pricing, rounds=2, price_grid=half_integral_grid(pricing)))
    assert [lp.num_variables for lp in lps[4:]] == [180, 174, 170]
    for lp in lps:
        result = simplex_max(lp.objective, lp.rows, lp.rhs)
        assert result.path == "certified"
        assert vertex(result) == simplex_max_exact(*lp_parts(lp))
        # the same rows as Python ints in object dtype give the same vertex
        rows = lp.rows._replace(data=lp.rows.data.astype(object))
        assert vertex(simplex_max(lp.objective, rows, lp.rhs.astype(object))) == vertex(result)


K = 2**62 + 1  # a multiplier whose products overflow int64


def scaled_relaxation():
    """Every row and the objective of a relaxation times K: the same vertex
    and duals, with scaled coefficients past 2^62."""
    inst = GmdInstance.of(1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))])
    c, rows, rhs = lp_parts(build_sa_lp(inst, rounds=2))
    return [a * K for a in c], [[(j, a * K) for j, a in row] for row in rows], [b * K for b in rhs]


@pytest.mark.parametrize(
    "c, rows, rhs",
    [
        # max K x0 + x1 with K x0 + K x2 = K and x1 + x3 = 1: coefficients past
        # 2^62 (as floats they round to 2^62), duals 1 and 1
        ([F(K), F(1), F(0), F(0)], [[(0, F(K)), (2, F(K))], [(1, F(1)), (3, F(1))]],
         [F(K), F(1)]),
        # right-hand side 2^64: x0 = 2^64 on the optimal vertex
        ([F(1), F(0)], [[(0, F(1)), (1, F(1))]], [F(2**64)]),
        # costs 2^70 and 2^63: the dual is 2^70
        ([F(2**70), F(2**63), F(0)], [[(0, F(1)), (1, F(1)), (2, F(1))]], [F(3)]),
        # right-hand side -2^64, Python ints in object dtype: the row is
        # negated on entry, and so is its dual
        ([F(1), F(0)], [[(0, F(-1)), (1, F(-1))]], [F(-2**64)]),
        # costs 3 * 2^61 at x = (1/2, 1/2): every entry fits int64, but c.X
        # over the denominator 2 is 3 * 2^62
        ([F(3 * 2**61)] * 2, [[(0, F(2))], [(1, F(2))]], [F(1), F(1)]),
        scaled_relaxation(),
    ],
)
def test_certificate_in_python_ints_past_int64(c, rows, rhs):
    # the scaled products pass 2^62, so the certificate runs in object dtype
    result = solve(c, rows, rhs)
    assert result.path == "certified"
    assert vertex(result) == reference(c, rows, rhs)


@pytest.mark.parametrize(
    "c, rows, rhs",
    [
        # max x0 + x1 with 10^400 x0 + x1 = 10^400: x1 = 10^400
        ([F(1), F(1)], [[(0, F(10**400)), (1, F(1))]], [F(10**400)]),
        # a cost of 10^400
        ([F(10**400), F(1)], [[(0, F(1)), (1, F(1))]], [F(1)]),
        # a right-hand side of -10^400
        ([F(1), F(0)], [[(0, F(-1)), (1, F(-1))]], [F(-10**400)]),
    ],
)
def test_values_past_float64_take_the_exact_pass(c, rows, rhs):
    result = solve(c, rows, rhs)
    assert result.path == "exact"
    assert vertex(result) == reference(c, rows, rhs)


def fraction_certificate(c, rows, rhs, x, y):
    """The certificate in plain Fraction arithmetic, the reference."""
    if any(v < 0 for v in x):
        return False
    if any(sum((a * x[j] for j, a in row), F(0)) != b for row, b in zip(rows, rhs)):
        return False
    slack = [-v for v in c]
    for row, yi in zip(rows, y):
        for j, a in row:
            slack[j] += a * yi
    if any(v < 0 for v in slack):
        return False
    return sum((a * b for a, b in zip(c, x)), F(0)) == sum((a * b for a, b in zip(rhs, y)), F(0))


def certificate_holds(c, rows, rhs, x, y):
    """simplex._certificate_holds on Fraction vectors x and y and rational
    rows.  Each row is scaled to integers by s_i, as `solve` does, and y_i
    divided by s_i, which keeps A^T y and b.y.  The same integer rows as
    Python ints in object dtype must give the same answer."""
    int_rows, int_rhs = integer_rows(rows, rhs)
    y = [yi / k for yi, k in zip(y, row_scales(rows, rhs))]
    x, y = over_lcm(x), over_lcm(y)
    a, b = csr(int_rows), int_array(int_rhs)
    held = simplex_mod._certificate_holds(simplex_mod._ScaledLp(c, a, b), x, y)
    objects = a._replace(data=a.data.astype(object))
    lp = simplex_mod._ScaledLp(c, objects, b.astype(object))
    assert simplex_mod._certificate_holds(lp, x, y) == held
    return held


rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 2**62 + 1]))


@st.composite
def lps_with_vectors(draw):
    """A small LP with candidate vectors x and y: x often satisfies the rows,
    y often the dual rows, sometimes tightly."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    scale = draw(st.sampled_from([1, 1, 2**40, 2**64 + 1]))
    rows = [
        draw(st.lists(st.tuples(st.integers(0, n - 1), rationals.map(lambda a: a * scale)),
                      max_size=4))
        for _ in range(m)
    ]
    x = draw(st.lists(rationals.map(abs), min_size=n, max_size=n))
    y = draw(st.lists(rationals, min_size=m, max_size=m))
    if draw(st.booleans()):  # right-hand sides that x satisfies
        rhs = [sum((a * x[j] for j, a in row), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(rationals, min_size=m, max_size=m))
    if draw(st.booleans()):  # costs that make y dual feasible, sometimes tight
        c = [F(0)] * n
        for row, yi in zip(rows, y):
            for j, a in row:
                c[j] += a * yi
        c = [v - draw(st.sampled_from([0, 0, 1])) for v in c]
    else:
        c = draw(st.lists(rationals, min_size=n, max_size=n))
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] *= -1
    return c, rows, rhs, x, y


@given(lps_with_vectors())
@settings(max_examples=300, deadline=None)
def test_integer_certificate_matches_fraction_reference(case):
    c, rows, rhs, x, y = case
    assert certificate_holds(c, rows, rhs, x, y) == fraction_certificate(c, rows, rhs, x, y)


def geom_tenth_lp():
    """414-variable pricing LP on the geom:1/10 grid; its duals do not
    rationalise within denominator 10^6, so the exact tableau solves it."""
    inst = GpInstance.of(
        4, [(2, 3, 2, 1), (0, 3, 1, 1), (0, 2, F(13, 8), 1), (0, 1, F(3, 2), 1), (1, 3, F(17, 10), 2)]
    )
    grid = [geometric_grid(b, F(1, 10)) for b in max_incident_budget(inst)]
    return build_sa_lp(inst, rounds=2, price_grid=grid)


def test_geom_tenth_lp_takes_exact_fallback():
    lp = geom_tenth_lp()
    assert lp.num_variables == 414
    result = simplex_max(lp.objective, lp.rows, lp.rhs)
    assert result.path == "exact"
    assert result.value == F(775973, 100000)


def test_rejected_certificate_falls_back(monkeypatch):
    lp = build_sa_lp(GmdInstance.of(1, 2, [(0, 1, 1, 1)]), rounds=2)
    certified = simplex_max(lp.objective, lp.rows, lp.rhs)
    monkeypatch.setattr(simplex_mod, "_certificate_holds", lambda *args: False)
    fallback = simplex_max(lp.objective, lp.rows, lp.rhs)
    assert (certified.path, fallback.path) == ("certified", "exact")
    assert vertex(certified) == vertex(fallback)


def test_exact_fallback_on_integer_rows(monkeypatch):
    # max x0 + x1 with x0 + 2 x1 = 1 and 2 x0 + x1 = 1, int64 rows: the
    # exact tableau must hold Fractions, or its pivots divide ints to floats
    monkeypatch.setattr(simplex_mod, "_float_certified", lambda lp: None)
    rows = Csr(np.array([0, 2, 4]), np.array([0, 1, 0, 1]), np.array([1, 2, 2, 1], dtype=np.int64))
    result = simplex_max([F(1), F(1)], rows, np.array([1, 1], dtype=np.int64))
    assert result.path == "exact"
    assert (result.numerators.tolist(), result.denom) == ([1, 1], 3)
    assert all(type(v) is int for v in [*result.numerators, result.denom])
    assert result.value == F(2, 3) and type(result.value) is Fraction


def golden_lp(fixture, rounds):
    """The Sherali-Adams LP of a golden instance file."""
    with open(os.path.join(os.path.dirname(__file__), "golden", fixture), encoding="utf-8") as fh:
        return build_sa_lp(parse_instance(fh.read()), rounds=rounds)


def test_past_the_pivot_budget_highs_answers_certified(monkeypatch):
    # a budget of 0 sends the 2-round c4 LP to HiGHS at its first pivot;
    # HiGHS may take another optimal vertex, with the same value
    lp = golden_lp("c4.gmd", 2)
    bland = simplex_max(lp.objective, lp.rows, lp.rhs)
    monkeypatch.setattr(simplex_mod, "PIVOT_BUDGET", 0)
    highs = simplex_max(lp.objective, lp.rows, lp.rhs)
    assert (bland.path, highs.path) == ("certified", "highs")
    assert highs.value == bland.value
    c, rows, rhs = lp_parts(lp)
    value, x = vertex(highs)
    assert min(x) >= 0
    assert [sum((a * x[j] for j, a in row), ZERO) for row in rows] == rhs
    assert sum(map(operator.mul, c, x), ZERO) == value
    # past the budget, a failed certificate or a HiGHS exit other than
    # optimal (here: infeasible) sends the LP to the exact pass
    monkeypatch.setattr(simplex_mod, "_certificate_holds", lambda *args: False)
    exact = simplex_max(lp.objective, lp.rows, lp.rhs)
    assert exact.path == "exact" and vertex(exact) == vertex(bland)
    with pytest.raises(LpInfeasible):
        solve([F(1), F(1)], [[(0, F(1)), (1, F(1))]], [F(-1)])


def test_within_the_budget_highs_is_never_called(monkeypatch):
    # Bland's vertex is the contract of every LP that finishes within the
    # budget, even when its certificate fails
    def no_highs(lp):
        raise AssertionError("HiGHS called within the pivot budget")

    monkeypatch.setattr(simplex_mod, "_highs_certified", no_highs)
    lp = golden_lp("c4.gmd", 2)
    assert simplex_max(lp.objective, lp.rows, lp.rhs).path == "certified"
    monkeypatch.setattr(simplex_mod, "_certificate_holds", lambda *args: False)
    assert simplex_max(lp.objective, lp.rows, lp.rhs).path == "exact"


def test_pivot_budget_counts_both_phases_and_drive_outs(monkeypatch):
    # n5t3 at 2 rounds takes 104 float pivots in all: a budget of exactly
    # 104 finishes on Bland's vertex, one fewer goes to HiGHS
    lp = golden_lp("n5t3.gmd", 2)
    size = lp.num_variables + len(lp.rhs)
    calls = []
    monkeypatch.setattr(simplex_mod, "_highs_certified", lambda lp: calls.append(lp))
    monkeypatch.setattr(simplex_mod, "PIVOT_BUDGET", F(104, size))
    assert simplex_max(lp.objective, lp.rows, lp.rhs).path == "certified" and calls == []
    monkeypatch.setattr(simplex_mod, "PIVOT_BUDGET", F(103, size))
    assert simplex_max(lp.objective, lp.rows, lp.rhs).path == "exact" and len(calls) == 1


def test_rationalise_is_limit_denominator():
    # the integer continued fraction against Fraction.limit_denominator, on
    # floats near small fractions, random doubles and exact binary fractions
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.integers(-50, 50, 3000) / rng.integers(1, 10**7, 3000),
        rng.uniform(-1e3, 1e3, 3000),
        rng.integers(1, 999, 3000) / rng.integers(1, 10**6, 3000) + rng.choice([0, 1e-12, -1e-12], 3000),
        rng.integers(0, 2**30, 3000) / 2.0 ** rng.integers(0, 80, 3000),
        [0.0, -0.0, 1e-10, -1e-10, 1.0, 0.5, 1 / 3, 2**-20, 2**60 / 3, 10**6 + 0.5],
    ])
    nums, denom = simplex_mod._rationalise(values.copy())
    want = [F(v).limit_denominator(10**6) if abs(v) >= simplex_mod.TOL else ZERO
            for v in values.tolist()]
    assert [F(p, denom) for p in nums] == want
    assert denom == math.lcm(*(f.denominator for f in want))


def test_closest_breaks_ties_as_limit_denominator(monkeypatch):
    # small bounds make exact ties between the two candidates common: 1/2
    # with denominators up to 1 rounds to 0, the candidate of smaller
    # denominator
    for bound in range(1, 13):
        monkeypatch.setattr(simplex_mod, "MAX_DENOMINATOR", bound)
        for d in range(1, 41):
            for n in range(-80, 81):
                if math.gcd(n, d) == 1:
                    want = F(n, d).limit_denominator(bound)
                    assert simplex_mod._closest(n, d) == (want.numerator, want.denominator)


def test_certificate_rejects_wrong_primal_or_dual():
    # max x0 + x1 with x0 + x1 + s = 1: optimum 1, dual y = 1
    c, rows, rhs = [F(1), F(1), F(0)], [[(0, F(1)), (1, F(1)), (2, F(1))]], [F(1)]
    holds = certificate_holds
    assert holds(c, rows, rhs, [F(1), F(0), F(0)], [F(1)])
    assert not holds(c, rows, rhs, [F(0), F(0), F(1)], [F(1)])  # feasible, not optimal
    assert not holds(c, rows, rhs, [F(1, 2), F(1, 3), F(0)], [F(1)])  # A x != b
    assert not holds(c, rows, rhs, [F(2), F(0), F(-1)], [F(1)])  # x < 0
    # max x0 + 2 x1 on the same row: x = e0 and y = 1 close the gap, but
    # A^T y < c in column 1, so x is not optimal
    assert not holds([F(1), F(2), F(0)], rows, rhs, [F(1), F(0), F(0)], [F(1)])
    # max x0 with x0 + x1 = 1: y = 1 is dual feasible and x = (1, 1) gives
    # c.x = b.y = 1, but A x = 2
    one = [[(0, F(1)), (1, F(1))]]
    assert holds([F(1), F(0)], one, [F(1)], [F(1), F(0)], [F(1)])
    assert not holds([F(1), F(0)], one, [F(1)], [F(1), F(1)], [F(1)])


@pytest.mark.parametrize("data, rhs", [
    (np.array([F(1), F(1)], dtype=object), np.array([1], dtype=np.int64)),
    (np.array([1.0, 1.0]), np.array([1], dtype=np.int64)),
    (np.array([1, 1], dtype=np.int64), np.array([F(1)], dtype=object)),
    (np.array([1, 1], dtype=np.int64), np.array([1.0])),
    (np.array([1, 2**64], dtype=object), np.array([1.0], dtype=object)),
])
def test_non_integer_rows_refused(data, rhs):
    # x0 + x1 = 1 with a Fraction or float in the rows or right-hand side
    with pytest.raises(TypeError, match="int64 or Python ints"):
        simplex_max([F(1), F(0)], Csr(np.array([0, 2]), np.array([0, 1]), data), rhs)


def test_unbounded_and_infeasible_raise_exact_exceptions():
    with pytest.raises(LpUnbounded):
        solve([F(1), F(0)], [[(0, F(1)), (1, F(-1))]], [F(1)])
    with pytest.raises(LpUnbounded):
        solve([F(1)], [], [])
    with pytest.raises(LpInfeasible):
        solve([F(1), F(1)], [[(0, F(1)), (1, F(1))]], [F(-1)])


def test_lp_without_variables():
    assert vertex(solve([], [], [])) == (0, [])
    assert vertex(solve([], [[]], [F(0)])) == (0, [])
    with pytest.raises(LpInfeasible):
        solve([], [[]], [F(1)])


def test_repeated_solves_return_identical_x():
    two = GmdInstance.of(2, 4, [(0, 1, 2, 1), (1, 2, 1, 2), (2, 3, 2, 1), (3, 0, 1, 3)])
    lp = build_sa_lp(two, rounds=3)
    first, second = (simplex_max(lp.objective, lp.rows, lp.rhs) for _ in range(2))
    assert first.path == second.path == "certified"
    assert vertex(first) == vertex(second)


# ---------------------------------------------------------------------------
# the reference: a dense Fraction list tableau, written apart from simplex.py
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


# ---------------------------------------------------------------------------
# Bland's path: simplex._phases against a reference whose every pivot
# copies, divides and thresholds the whole pivot row and column, exact on a
# Fraction tableau
# ---------------------------------------------------------------------------


def reference_bland_pivot(t, basis, etas, r, s, tol):
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


def reference_bland_iterate(t, basis, etas, n, tol) -> bool:
    m = len(basis)
    obj = t[m]
    while True:
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
        reference_bland_pivot(t, basis, etas, int(ties[np.argmin(basis[ties])]), s, tol)


def reference_two_phase(t, cost, tol):
    m, n = t.shape[0] - 1, t.shape[1] - 1
    obj = t[m]
    basis = np.arange(n, n + m)
    etas = []
    if tol:
        obj[:] = t[:m].sum(axis=0)
        obj[np.abs(obj) < tol] = 0.0
    else:
        obj[:] = 0
        for i in range(m):
            live = t[i].nonzero()[0]
            obj[live] += t[i, live]
    if not reference_bland_iterate(t, basis, etas, n, tol) or obj[n] > tol:
        raise LpInfeasible("equality system has no nonnegative solution")
    for i in range(m):
        if basis[i] >= n:
            nz = t[i, :n].nonzero()[0]
            if nz.size:
                reference_bland_pivot(t, basis, etas, i, int(nz[0]), tol)
    cb = cost[np.minimum(basis, n)]
    if tol:
        obj[:] = cost - cb @ t[:m]
        obj[np.abs(obj) < tol] = 0.0
    else:
        obj[:] = cost
        for i in cb.nonzero()[0]:
            live = t[i].nonzero()[0]
            obj[live] -= cb[i] * t[i, live]
    if not reference_bland_iterate(t, basis, etas, n, tol):
        raise LpUnbounded("objective unbounded above")
    return basis, etas


def _outcome(phases, *args):
    """(basis, etas) of phases, or the class of the exception it raised."""
    try:
        return phases(*args)
    except (LpInfeasible, LpUnbounded) as exc:
        return type(exc)


def _as_bytes(v) -> bytes:
    """A float64 tableau, eta or pivot as bytes, a zero's sign aside."""
    return (np.asarray(v, dtype=np.float64) + 0.0).tobytes()


def assert_same_pivots(got, want, t, ref_t):
    """Equal outcomes, bases and tableaux, and float etas equal bit for bit;
    the exact pass keeps no etas, and its tableau `t` is given as Fractions.

    A zero may differ in sign: a row negated on entry holds -0.0 where it
    has no entry, which the reference's pivot on that row rewrites as 0.0
    and simplex's leaves as it is."""
    if isinstance(want, type):
        assert got is want
    else:
        (basis, etas), (ref_basis, ref_etas) = got, want
        assert basis.tolist() == ref_basis.tolist()
        if t.dtype == object:
            assert etas == []
        else:
            assert len(etas) == len(ref_etas)
        for (r, piv, hit, w), (ref_r, ref_piv, ref_hit, ref_w) in zip(etas, ref_etas):
            assert (r, hit.tolist()) == (ref_r, ref_hit.tolist())
            assert _as_bytes(piv) == _as_bytes(ref_piv)
            assert _as_bytes(w) == _as_bytes(ref_w)
    if t.dtype == object:
        assert np.array_equal(t, ref_t)
    else:
        assert _as_bytes(t) == _as_bytes(ref_t)


def _fractions(t, den):
    """The object tableau `t` of integer numerators, row i over den[i], as
    Fractions."""
    return np.array([[F(v, d) for v in row] for row, d in zip(t.tolist(), den.tolist())], dtype=object)


@contextlib.contextmanager
def phases_checked():
    """Every simplex._phases call in the block also runs the reference on a
    copy of its tableau, as Fractions in the exact pass, and must agree with
    it; yields the list of the tableau dtypes checked."""
    dtypes = []
    phases = simplex_mod._phases

    def checked(t, cost, tol, den=None):
        ref_t = t.copy() if den is None else _fractions(t, den)
        want = _outcome(reference_two_phase, ref_t, cost.copy(), tol)
        got = _outcome(phases, t, cost, tol, den)
        assert_same_pivots(got, want, t if den is None else _fractions(t, den), ref_t)
        dtypes.append(t.dtype)
        if isinstance(got, type):
            raise got("as the reference")
        return got

    with mock.patch.object(simplex_mod, "_phases", checked):
        yield dtypes


def check_both_passes(c, a, rhs, exact=True):
    """The float pass, and with `exact` the object-dtype pass, of one LP,
    each checked against the reference pivots."""
    rhs = np.asarray(rhs)
    with phases_checked() as dtypes:
        simplex_mod._float_certified(simplex_mod._ScaledLp(c, a, rhs))
        if exact:
            with contextlib.suppress(LpInfeasible, LpUnbounded):
                simplex_mod._exact(c, a, rhs)
    assert dtypes == [np.float64, object][:1 + exact]


@given(sa_lps())
@settings(max_examples=40, deadline=None)
def test_pivots_match_reference_on_sa_lps(case):
    _, lp = case
    # the object-dtype pass on the smaller relaxations only, for time
    check_both_passes(lp.objective, lp.rows, lp.rhs, exact=lp.num_variables <= 200)


@st.composite
def small_lps(draw):
    """Small LPs with entries in -3..3 or 2^40 and right-hand sides of every
    sign: feasible, infeasible or unbounded, with negated rows and zero rows.
    A pivot of 2^40 puts quotients below TOL in its row."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entries = st.integers(-3, 3) | st.just(2**40)
    rows = [draw(st.lists(st.tuples(st.integers(0, n - 1), entries), max_size=n))
            for _ in range(m)]
    rhs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    c = draw(st.lists(st.integers(-3, 3).map(F), min_size=n, max_size=n))
    return c, csr(rows), np.array(rhs, dtype=np.int64)


@given(small_lps())
@settings(max_examples=200, deadline=None)
def test_pivots_match_reference_on_small_lps(parts):
    check_both_passes(*parts)


@pytest.mark.parametrize("fixture, rounds, pivots", [("n5t3.gmd", 2, 104), ("n4t2.gmd", 3, 139)])
def test_golden_lp_pivot_counts(fixture, rounds, pivots):
    # Bland's float path on the golden LPs of the benchmark's two largest
    # shapes: a change of pivot order changes these counts; each stays
    # within half the pivot budget, (rows + columns)
    lp = golden_lp(fixture, rounds)
    assert pivots <= lp.num_variables + len(lp.rhs)
    counts = []
    phases = simplex_mod._phases

    def counted(t, cost, tol, den=None):
        basis, etas = phases(t, cost, tol, den)
        counts.append(len(etas))
        return basis, etas

    with mock.patch.object(simplex_mod, "_phases", counted):
        assert simplex_max(lp.objective, lp.rows, lp.rhs).path == "certified"
    assert counts == [pivots]
    check_both_passes(lp.objective, lp.rows, lp.rhs)
