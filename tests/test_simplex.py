from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmdlab.simplex as simplex_mod
from gmdlab.caps import Caps
from gmdlab.core import GmdInstance, GpInstance, max_incident_budget
from gmdlab.salp import build_sa_lp, default_price_grid, geometric_grid
from gmdlab.simplex import LpInfeasible, LpUnbounded, simplex_max, simplex_max_exact

F = Fraction


def test_tiny_lp_by_hand():
    # max x0 + 2 x1  s.t. x0 + x1 + s = 1  ->  optimum at x1 = 1
    value, x = simplex_max(
        [F(1), F(2), F(0)],
        [[(0, F(1)), (1, F(1)), (2, F(1))]],
        [F(1)],
    )
    assert value == 2
    assert x == [0, 1, 0]


def test_degenerate_and_redundant_rows():
    rows = [
        [(0, F(1)), (1, F(1))],
        [(0, F(2)), (1, F(2))],  # scalar multiple of the first
    ]
    value, x = simplex_max([F(3), F(1)], rows, [F(1), F(2)])
    assert value == 3
    assert x[0] == 1 and x[1] == 0


def test_infeasible_detected():
    rows = [[(0, F(1))], [(0, F(1))]]
    with pytest.raises(LpInfeasible):
        simplex_max([F(1)], rows, [F(1), F(2)])


def test_negative_rhs_normalized():
    # -x0 = -3/4 is x0 = 3/4
    value, x = simplex_max([F(5)], [[(0, F(-1))]], [F(-3, 4)])
    assert x == [F(3, 4)]
    assert value == F(15, 4)


def test_fractional_vertex_solution_exact():
    # max x0 + x1 with x0 + 2 x1 = 1 and 2 x0 + x1 = 1: vertex (1/3, 1/3)
    rows = [
        [(0, F(1)), (1, F(2))],
        [(0, F(2)), (1, F(1))],
    ]
    value, x = simplex_max([F(1), F(1)], rows, [F(1), F(1)])
    assert x == [F(1, 3), F(1, 3)]
    assert value == F(2, 3)


# ---------------------------------------------------------------------------
# float-guided path: certified answers equal the exact tableau's
# ---------------------------------------------------------------------------

def lp_parts(lp):
    return list(lp.objective), [list(row) for row, _ in lp.constraints], [b for _, b in lp.constraints]


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
        lp = build_sa_lp(inst, rounds=2, price_grid=default_price_grid(inst)[0])
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
    result = simplex_max(c, rows, rhs)
    assert tuple(result) == simplex_max_exact(c, rows, rhs)


def test_sa_lps_are_certified():
    # the fast path must carry the relaxations, not fall back on them
    tri = GmdInstance.of(1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))])
    two = GmdInstance.of(2, 4, [(0, 1, 2, 1), (1, 2, 1, 2), (2, 3, 2, 1), (3, 0, 1, 3), (0, 2, 2, 1)])
    for inst, rounds in ((tri, 2), (tri, 3), (two, 2), (two, 3)):
        c, rows, rhs = lp_parts(build_sa_lp(inst, rounds=rounds))
        result = simplex_max(c, rows, rhs)
        assert result.path == "certified"
        assert tuple(result) == simplex_max_exact(c, rows, rhs)


def geom_tenth_lp():
    """414-variable pricing LP on the geom:1/10 grid; its duals do not
    rationalise within denominator 10^6, so the exact tableau solves it."""
    inst = GpInstance.of(
        4, [(2, 3, 2, 1), (0, 3, 1, 1), (0, 2, F(13, 8), 1), (0, 1, F(3, 2), 1), (1, 3, F(17, 10), 2)]
    )
    grid = [geometric_grid(b, F(1, 10)) for b in max_incident_budget(inst)]
    return build_sa_lp(inst, rounds=2, price_grid=grid, caps=Caps(sa_domain=9))


def test_geom_tenth_lp_takes_exact_fallback():
    lp = geom_tenth_lp()
    assert lp.num_variables == 414
    result = simplex_max(*lp_parts(lp))
    assert result.path == "exact"
    assert result[0] == F(775973, 100000)


def test_rejected_certificate_falls_back(monkeypatch):
    c, rows, rhs = lp_parts(build_sa_lp(GmdInstance.of(1, 2, [(0, 1, 1, 1)]), rounds=2))
    certified = simplex_max(c, rows, rhs)
    monkeypatch.setattr(simplex_mod, "_certificate_holds", lambda *args: False)
    fallback = simplex_max(c, rows, rhs)
    assert (certified.path, fallback.path) == ("certified", "exact")
    assert tuple(certified) == tuple(fallback)


def test_certificate_rejects_wrong_primal_or_dual():
    # max x0 + x1 with x0 + x1 + s = 1: optimum 1, dual y = 1
    c, rows, rhs = [F(1), F(1), F(0)], [[(0, F(1)), (1, F(1)), (2, F(1))]], [F(1)]
    holds = simplex_mod._certificate_holds
    assert holds(c, rows, rhs, [F(1), F(0), F(0)], [F(1)])
    assert not holds(c, rows, rhs, [F(0), F(0), F(1)], [F(1)])  # feasible, not optimal
    assert not holds(c, rows, rhs, [F(1, 2), F(1, 3), F(0)], [F(1)])  # A x != b
    assert not holds(c, rows, rhs, [F(2), F(0), F(-1)], [F(1)])  # x < 0
    # max x0 + 2 x1 on the same row: x = e0 and y = 1 close the gap, but
    # A^T y < c in column 1, so x is not optimal
    assert not holds([F(1), F(2), F(0)], rows, rhs, [F(1), F(0), F(0)], [F(1)])


def test_unbounded_and_infeasible_raise_exact_exceptions():
    with pytest.raises(LpUnbounded):
        simplex_max([F(1), F(0)], [[(0, F(1)), (1, F(-1))]], [F(1)])
    with pytest.raises(LpUnbounded):
        simplex_max([F(1)], [], [])
    with pytest.raises(LpInfeasible):
        simplex_max([F(1), F(1)], [[(0, F(1)), (1, F(1))]], [F(-1)])


def test_repeated_solves_return_identical_x():
    two = GmdInstance.of(2, 4, [(0, 1, 2, 1), (1, 2, 1, 2), (2, 3, 2, 1), (3, 0, 1, 3)])
    parts = lp_parts(build_sa_lp(two, rounds=3))
    first, second = simplex_max(*parts), simplex_max(*parts)
    assert first.path == second.path == "certified"
    assert first[1] == second[1] and first[0] == second[0]
