import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmdlab.caps import Caps
from gmdlab.core import (
    CapExceeded,
    GmdInstance,
    GpEdge,
    GpInstance,
    InstanceError,
    max_incident_budget,
)
from gmdlab.exact import half_integral_grid, opt_gmd, opt_gp_grid
from gmdlab.salp import (
    ConsistencyReport,
    SaSolution,
    Violation,
    _set_codes,
    build_sa_lp,
    check_sa_consistency,
    geometric_grid,
    geometric_grid_size,
    solve_lp_exact,
)
from gmdlab.simplex import simplex_max

F = Fraction


def triangle():
    return GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )


def single_edge():
    return GmdInstance.of(1, 2, [(0, 1, 1, 1)])


def test_variable_count_single_edge():
    lp = build_sa_lp(single_edge(), rounds=2)
    assert lp.num_variables == 2 * 2 + 1 * 4 == 8


def test_gmd_objective_one_term_per_arc():
    lp = build_sa_lp(triangle(), rounds=2)
    assert sum(1 for c in lp.objective if c != 0) == 3


def test_gp_objective_enumerates_affordable_pairs():
    inst = GpInstance.of(2, [(0, 1, 1, 1)])
    grid = [[F(0), F(1, 2), F(1)]] * 2
    lp = build_sa_lp(inst, rounds=2, price_grid=grid)
    _, var_index, _ = reference_rows(2, 2, lp.domains)
    terms = {
        key[1]: coef
        for key, idx in var_index.items()
        if len(key[0]) == 2 and (coef := lp.objective[idx]) != 0
    }
    assert set(terms) == {
        (F(0), F(1, 2)),
        (F(1, 2), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1, 2), F(1, 2)),
    }
    assert terms[(F(1, 2), F(1, 2))] == 1


def test_gp_requires_grid():
    with pytest.raises(InstanceError):
        build_sa_lp(GpInstance.of(2, [(0, 1, 1, 1)]), rounds=2)


def test_gp_grid_repeating_a_price_rejected():
    # a repeated price broke the consecutive variable numbering that
    # solve_lp_exact reads back, ending in an IndexError
    with pytest.raises(InstanceError, match="vertex 0 repeats a price"):
        build_sa_lp(GpInstance.of(2, [(0, 1, 2, 1)]), rounds=2,
                    price_grid=[[F(0), F(1), F(1), F(2)], [F(0), F(1), F(2)]])


@pytest.mark.parametrize("grid, message", [
    ([[F(-1), F(0), F(1)], [F(0), F(2)]], "negative candidate price -1"),
    ([[F(0), F(1)], []], "empty candidate list"),
    ([[F(0), F(1)]], "need one candidate list per vertex"),
])
def test_lp_and_grid_oracle_refuse_the_same_grids(grid, message):
    # the LP took the grid with a negative price and gave value 1
    inst = GpInstance.of(2, [(0, 1, 1, 1)])
    with pytest.raises(InstanceError, match=message):
        build_sa_lp(inst, rounds=2, price_grid=grid)
    with pytest.raises(InstanceError, match=message):
        opt_gp_grid(inst, grid)


def test_rounds_below_two_rejected():
    with pytest.raises(InstanceError):
        build_sa_lp(single_edge(), rounds=1)


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        build_sa_lp(single_edge(), rounds=2, caps=Caps(lp_variables=4))


def test_lp_variable_cap_checked_before_any_work():
    # a 40-vertex T=2 path at 3 rounds: 40 * 3 + 780 * 9 + 9880 * 27 =
    # 273,900 variables against the 3,000 cap, refused before any is numbered
    path = GmdInstance.of(2, 40, [(v, v + 1, 1, 1) for v in range(39)])
    start = time.perf_counter()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(CapExceeded, match="^273900 LP variables exceed cap 3000$"):
            build_sa_lp(path, rounds=3, caps=Caps(sa_n=40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20


def reference_rows(n, rounds, domains):
    """The sets, the variable numbering and the equality rows of the
    relaxation, each row a list of (variable, coefficient) pairs with its
    right-hand side, built entry by entry: the reference for build_sa_lp's
    CSR arrays."""
    sets = [S for size in range(1, min(rounds, n) + 1) for S in itertools.combinations(range(n), size)]
    var_index = {}
    for S in sets:
        for alpha in itertools.product(*(domains[v] for v in S)):
            var_index[(S, alpha)] = len(var_index)
    rows = []
    for S in sets:
        rows.append(([(var_index[(S, alpha)], 1)
                      for alpha in itertools.product(*(domains[v] for v in S))], 1))
    for Sp in sets:
        if len(Sp) < 2:
            continue
        for drop_pos, v in enumerate(Sp):
            S = Sp[:drop_pos] + Sp[drop_pos + 1:]
            for beta in itertools.product(*(domains[u] for u in S)):
                row = [(var_index[(S, beta)], -1)]
                for a in domains[v]:
                    alpha = beta[:drop_pos] + (a,) + beta[drop_pos:]
                    row.append((var_index[(Sp, alpha)], 1))
                rows.append((row, 0))
    return sets, var_index, rows


def reference_objective(inst, domains, var_index):
    """The relaxation's objective, each term found by its (set, assignment)
    key in a reference numbering."""
    objective = [F(0)] * len(var_index)
    if isinstance(inst, GmdInstance):
        for a in inst.arcs:
            S = tuple(sorted((a.tail, a.head)))
            alpha = (0, a.label) if S == (a.tail, a.head) else (a.label, 0)
            objective[var_index[(S, alpha)]] += a.weight
        return objective
    for e in inst.edges:
        S = tuple(sorted((e.u, e.v)))
        for pu in domains[e.u]:
            for pv in domains[e.v]:
                if pu + pv <= e.budget:
                    alpha = (pu, pv) if S == (e.u, e.v) else (pv, pu)
                    objective[var_index[(S, alpha)]] += e.weight * (pu + pv)
    return objective


@st.composite
def sa_lps(draw):
    """(instance, relaxation) pairs: gmd relaxations with T from 1 to 3,
    antiparallel arcs included, and pricing relaxations, some edges given
    with their larger endpoint first, at 2 or 3 rounds, also past n.  The
    pricing grids are half grids, whose lengths differ with the vertices'
    budgets (1 for an isolated vertex, 3 or 5 otherwise), or geometric
    grids with a step of 1/2, 1/3 or 1/5 per vertex: half grids are prefixes of
    one another, so only the geometric ones tell an edge's two endpoints
    apart in the objective."""
    n = draw(st.integers(2, 5))
    rounds = draw(st.integers(2, 3))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    if draw(st.booleans()):
        T = draw(st.integers(1, 3))
        arcs = draw(st.lists(st.tuples(pairs, st.integers(1, T), st.integers(1, 4)),
                             min_size=1, max_size=6))
        # each arc's reverse, with its own label and weight
        arcs += [((v, u), draw(st.integers(1, T)), draw(st.integers(1, 4)))
                 for (u, v), _, _ in arcs[:draw(st.integers(0, 2))]]
        inst = GmdInstance.of(T, n, [(u, v, t, w) for (u, v), t, w in arcs])
        return inst, build_sa_lp(inst, rounds)
    edges = draw(st.lists(st.tuples(pairs, st.integers(1, 2), st.integers(1, 3)),
                          min_size=1, max_size=4))
    inst = GpInstance.of(n, [(u, v, b, w) for (u, v), b, w in edges])
    # GpInstance.of puts the smaller endpoint first; the raw constructor
    # keeps an edge's endpoints as given
    flips = draw(st.lists(st.booleans(), min_size=len(inst.edges), max_size=len(inst.edges)))
    inst = GpInstance(n, tuple(GpEdge(e.v, e.u, e.budget, e.weight) if flip else e
                               for e, flip in zip(inst.edges, flips)))
    grid = half_integral_grid(inst) if draw(st.booleans()) else [
        geometric_grid(b, draw(st.sampled_from([F(1, 2), F(1, 3), F(1, 5)])))
        for b in max_incident_budget(inst)]
    return inst, build_sa_lp(inst, rounds, price_grid=grid, caps=Caps(lp_variables=10_000))


def assert_rows_match_reference(inst, lp):
    sets, var_index, rows = reference_rows(len(lp.domains), lp.rounds, lp.domains)
    assert list(lp.sets) == sets
    assert lp.starts == tuple(var_index[(S, tuple(lp.domains[v][0] for v in S))] for S in sets)
    assert list(lp.objective) == reference_objective(inst, lp.domains, var_index)
    indptr, indices, data = lp.rows
    assert indices.dtype == data.dtype == lp.rhs.dtype == np.int64
    assert lp.num_constraints == len(rows) and len(indptr) == len(rows) + 1
    for i, (row, rhs) in enumerate(rows):
        lo, hi = indptr[i], indptr[i + 1]
        assert list(zip(indices[lo:hi].tolist(), data[lo:hi].tolist())) == row
        assert lp.rhs[i] == rhs


def descending_edge_case():
    """A pricing edge given as (1, 0), its endpoints on unlike grids."""
    inst = GpInstance(2, (GpEdge(1, 0, F(2), F(1)),))
    grid = [geometric_grid(F(2), F(1, 3)), geometric_grid(F(2), F(1, 2))]
    return inst, build_sa_lp(inst, 2, price_grid=grid)


def antiparallel_case():
    inst = GmdInstance.of(2, 3, [(0, 1, 1, 2), (1, 0, 2, 3), (2, 1, 1, 1)])
    return inst, build_sa_lp(inst, 3)


@given(sa_lps())
@example(descending_edge_case())
@example(antiparallel_case())
@settings(max_examples=60, deadline=None)
def test_csr_rows_match_reference_builder(case):
    assert_rows_match_reference(*case)


@pytest.mark.parametrize("n", [0, 1])
def test_lp_without_pairs(n):
    # no set of two vertices, so no marginalization row
    inst = GmdInstance.of(2, n, [])
    lp = build_sa_lp(inst, rounds=2)
    assert_rows_match_reference(inst, lp)
    assert (lp.num_variables, lp.num_constraints) == (3 * n, n)
    assert solve_lp_exact(lp)[0] == 0


def test_single_edge_lp_value_integral():
    value, sol = solve_lp_exact(build_sa_lp(single_edge(), rounds=2))
    assert value == 1
    assert check_sa_consistency(sol).ok


def test_triangle_two_rounds_value_half():
    # pairwise distributions can put mass 1/2 on each of (0,1),(1,0) per arc,
    # and the telescoping min(x,y) <= (x+y)/2 bound caps the value at 1/2
    value, sol = solve_lp_exact(build_sa_lp(triangle(), rounds=2))
    assert value == F(1, 2)
    assert check_sa_consistency(sol).ok


def test_lp_upper_bounds_integral_optimum():
    for inst in (single_edge(), triangle()):
        value, _ = solve_lp_exact(build_sa_lp(inst, rounds=2))
        assert value >= opt_gmd(inst).value


def test_lp_value_monotone_in_rounds():
    inst = triangle()
    v2, _ = solve_lp_exact(build_sa_lp(inst, rounds=2))
    v3, _ = solve_lp_exact(build_sa_lp(inst, rounds=3))
    assert v2 >= v3


def test_full_rounds_reach_integral_optimum():
    cases = [
        triangle(),
        GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))]),
        GmdInstance.of(
            1,
            4,
            [
                (0, 1, 1, F(1, 4)),
                (1, 2, 1, F(1, 4)),
                (2, 3, 1, F(1, 4)),
                (3, 0, 1, F(1, 4)),
            ],
        ),
        GmdInstance.of(
            2,
            4,
            [
                (0, 1, 1, F(1, 5)),
                (1, 2, 2, F(1, 5)),
                (2, 3, 1, F(1, 5)),
                (3, 0, 2, F(1, 5)),
                (0, 2, 1, F(1, 5)),
            ],
        ),
    ]
    for inst in cases:
        lp = build_sa_lp(inst, rounds=inst.n, caps=Caps(sa_rounds=4, lp_variables=10_000))
        value, sol = solve_lp_exact(lp)
        assert value == opt_gmd(inst).value
        assert check_sa_consistency(sol).ok


def test_solution_satisfies_constraints_exactly():
    lp = build_sa_lp(triangle(), rounds=2)
    _, sol = solve_lp_exact(lp)
    _, var_index, _ = reference_rows(3, 2, lp.domains)
    x = [sol.values[key] for key in var_index]
    indptr, indices, data = lp.rows
    for i, rhs in enumerate(lp.rhs.tolist()):
        row = range(indptr[i], indptr[i + 1])
        assert sum(data[k] * x[indices[k]] for k in row) == rhs


def test_consistency_detects_normalization_violation():
    sol = SaSolution.from_values(
        {
            ((0,), (0,)): F(4, 10),
            ((0,), (1,)): F(5, 10),
        },
        rounds=1,
        domains=((0, 1),),
    )
    report = check_sa_consistency(sol)
    assert not report.ok
    assert report.violations[0].kind == "normalization"
    assert report.violations[0].lhs == F(9, 10)


def test_consistency_detects_marginal_mismatch():
    values = {
        ((0,), (0,)): F(1, 2),
        ((0,), (1,)): F(1, 2),
        ((1,), (0,)): F(1, 2),
        ((1,), (1,)): F(1, 2),
        ((0, 1), (0, 0)): F(1, 2),
        ((0, 1), (0, 1)): F(1, 2),
        ((0, 1), (1, 0)): F(0),
        ((0, 1), (1, 1)): F(0),
    }
    report = check_sa_consistency(
        SaSolution.from_values(values, rounds=2, domains=((0, 1), (0, 1)))
    )
    kinds = {v.kind for v in report.violations}
    assert kinds == {"marginalization"}


def test_product_distribution_is_consistent():
    domains = ((0, 1), (0, 1), (0, 1))
    marg = [F(1, 3), F(2, 3)]
    values = {}
    for size in (1, 2, 3):
        for S in itertools.combinations(range(3), size):
            for alpha in itertools.product((0, 1), repeat=size):
                p = F(1)
                for a in alpha:
                    p *= marg[a]
                values[(S, alpha)] = p
    report = check_sa_consistency(SaSolution.from_values(values, rounds=3, domains=domains))
    assert report.ok


def test_lp_values_match_float_solver_cross_check():
    # independent oracle: scipy's HiGHS on the same constraint system
    import numpy as np
    from scipy.optimize import linprog

    from gmdlab.rng import substream

    rng = substream(2718, 0)
    for _ in range(6):
        T = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5))
        arcs = []
        for _ in range(int(rng.integers(1, 6))):
            u, v = rng.choice(n, size=2, replace=False)
            arcs.append((int(u), int(v), int(rng.integers(1, T + 1)), F(int(rng.integers(1, 5)), 4)))
        inst = GmdInstance.of(T, n, arcs)
        lp = build_sa_lp(inst, rounds=2)
        value, _ = solve_lp_exact(lp)
        indptr, indices, data = lp.rows
        A = np.zeros((lp.num_constraints, lp.num_variables))
        for i in range(lp.num_constraints):
            for k in range(indptr[i], indptr[i + 1]):
                A[i, indices[k]] += data[k]
        b = lp.rhs.astype(float)
        res = linprog(
            -np.array([float(c) for c in lp.objective]),
            A_eq=A,
            b_eq=b,
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0
        assert abs(float(value) + res.fun) <= 1e-7


def test_geometric_grid_exact():
    grid = geometric_grid(F(2), F(1, 2))
    assert grid == [F(0), F(1), F(3, 2)]


def fraction_check(values, domains):
    """The consistency audit as it was over an (S, alpha) -> Fraction dict,
    kept as the reference for the integer audit."""
    report = ConsistencyReport()
    sets = sorted({S for (S, _) in values}, key=lambda s: (len(s), s))
    for S in sets:
        total = F(0)
        for alpha in itertools.product(*(domains[v] for v in S)):
            x = values[(S, alpha)]
            report.identities_checked += 1
            if x < 0:
                report.violations.append(Violation("negativity", S, None, alpha, x, F(0)))
            total += x
        report.identities_checked += 1
        if total != 1:
            report.violations.append(Violation("normalization", S, None, (), total, F(1)))
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
                for beta in itertools.product(*(domains[v] for v in S)):
                    lhs = F(0)
                    for rest in itertools.product(*(domains[Sp[i]] for i in free)):
                        alpha = [None] * len(Sp)
                        for pos, b in zip(positions, beta):
                            alpha[pos] = b
                        for pos, a in zip(free, rest):
                            alpha[pos] = a
                        lhs += values[(Sp, tuple(alpha))]
                    rhs = values[(S, beta)]
                    report.identities_checked += 1
                    if lhs != rhs:
                        report.violations.append(
                            Violation("marginalization", S, Sp, beta, lhs, rhs)
                        )
    return report


@st.composite
def sa_tables(draw):
    """Marginals of one random joint distribution on up to four vertices over
    sets of size <= k (some sets left out), with injected perturbations.

    Sampled style: one label domain 0..q-1 and integer counts over the
    number of samples.  LP style: per-vertex rational domains in any order
    and rational entries with mixed denominators.  Returns the (S, alpha) ->
    Fraction values, the domains and, for sampled style, the count arrays
    and the number of samples (None, None otherwise).
    """
    sampled = draw(st.booleans())
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(3, n)))
    if sampled:
        q = draw(st.integers(1, 3))
        domains = tuple(tuple(range(q)) for _ in range(n))
    else:
        fractions = st.fractions(min_value=0, max_value=3, max_denominator=4)
        domains = tuple(
            tuple(draw(st.lists(fractions, min_size=1, max_size=3, unique=True)))
            for _ in range(n)
        )
    cells = list(itertools.product(*(range(len(d)) for d in domains)))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(cells), max_size=len(cells)))
    weights[draw(st.integers(0, len(cells) - 1))] += 1
    if sampled:
        scale = [1] * len(cells)
    else:
        scale = draw(st.lists(st.integers(1, 6), min_size=len(cells), max_size=len(cells)))
    mass = [F(w, s) for w, s in zip(weights, scale)]
    total = sum(mass)
    sets = [
        S for size in range(1, k + 1) for S in itertools.combinations(range(n), size)
        if draw(st.integers(0, 4)) > 0
    ]
    if not sets:
        sets = [(0,)]
    # numerators over `total` (an integer when sampled)
    tables = {}
    for S in sets:
        arr = np.zeros(tuple(len(domains[v]) for v in S), dtype=object)
        for cell, m in zip(cells, mass):
            arr[tuple(cell[v] for v in S)] += m
        tables[S] = arr
    target = draw(st.sampled_from(sets))  # several faults in one set, too
    for _ in range(draw(st.integers(0, 4))):
        S = target if draw(st.booleans()) else draw(st.sampled_from(sets))
        arr = tables[S]
        a = draw(st.integers(0, arr.size - 1))
        b = draw(st.integers(0, arr.size - 1))
        delta = draw(st.integers(-3, 3)) if sampled else draw(st.fractions(-3, 3, max_denominator=5))
        flat = arr.reshape(-1)
        mode = draw(st.sampled_from(["add", "move", "negative"]))
        if mode == "negative":
            flat[a] = -1 - abs(delta)
        else:
            flat[a] += delta
        if mode == "move":  # the set stays normalized
            flat[b] -= delta
    values = {}
    for S, arr in tables.items():
        for pos in itertools.product(*(range(len(domains[v])) for v in S)):
            alpha = tuple(domains[v][i] for v, i in zip(S, pos))
            values[(S, alpha)] = F(arr[pos]) / total
    if sampled:
        counts = {S: arr.astype(np.int64) for S, arr in tables.items()}
        return values, domains, counts, int(total)
    return values, domains, None, None


def _solution(values, domains, counts, trials):
    if counts is None:
        return SaSolution.from_values(values, rounds=3, domains=domains)
    return SaSolution.from_tables(counts, denom=trials, rounds=3, domains=domains)


@settings(max_examples=150, deadline=None)
@given(sa_tables())
def test_integer_audit_matches_fraction_reference(case):
    values, domains, counts, trials = case
    sol = _solution(values, domains, counts, trials)
    got = check_sa_consistency(sol)
    want = fraction_check(values, domains)
    assert got.identities_checked == want.identities_checked
    assert got.violations == want.violations


@settings(max_examples=60, deadline=None)
@given(sa_tables())
def test_table_view_matches_values(case):
    values, domains, counts, trials = case
    sol = _solution(values, domains, counts, trials)
    assert len(sol.values) == len(values)
    assert list(sol.values.items()) == sorted(values.items())
    assert all(sol.get(S, alpha) == x for (S, alpha), x in values.items())
    assert list(sol.text_rows()) == [
        (" ".join(map(str, S)), " ".join(map(str, alpha)), str(x))
        for (S, alpha), x in sorted(values.items())
    ]


@pytest.mark.parametrize("n", [7, 2**21 + 5])
def test_set_codes_rank_sets_lexicographically(n):
    # past 2^63 (n^3 here for the larger n) the keys are Python ints
    sets = sorted({tuple(sorted(random.Random(n + i).sample(range(n), 3))) for i in range(40)})
    codes = _set_codes(np.array(sets, dtype=np.int64), n)
    assert codes.tolist() == [(a * n + b) * n + c for a, b, c in sets]
    assert (codes[1:] > codes[:-1]).all()


def test_from_values_rejects_incomplete_and_foreign_entries():
    full = {((0,), (0,)): F(1, 2), ((0,), (1,)): F(1, 2)}
    assert SaSolution.from_values(full, rounds=1, domains=((0, 1),)).denom == 2
    with pytest.raises(InstanceError, match="1 of 2 entries"):
        SaSolution.from_values({((0,), (0,)): F(1)}, rounds=1, domains=((0, 1),))
    with pytest.raises(InstanceError, match="outside the domains"):
        SaSolution.from_values({**full, ((0,), (2,)): F(0)}, rounds=1, domains=((0, 1),))
    with pytest.raises(InstanceError, match="outside the domains"):
        SaSolution.from_values({**full, ((1,), (0,)): F(0)}, rounds=1, domains=((0, 1),))
    with pytest.raises(InstanceError, match="outside the domains"):
        SaSolution.from_values({**full, ((0,), (0, 1)): F(0)}, rounds=1, domains=((0, 1),))


def test_lp_table_is_integer_numerators_over_lcm():
    _, sol = solve_lp_exact(build_sa_lp(triangle(), rounds=2))
    assert sol.denom == 2
    assert all(arr.dtype == object for arr in sol.tables.values())
    assert all(type(x) is int for arr in sol.tables.values() for x in arr.reshape(-1))
    assert sol.tables[(0, 1)].shape == (2, 2)
    with pytest.raises(TypeError):
        sol.values[((0,), (0,))] = F(0)
    with pytest.raises(KeyError):
        sol.get((0,), (2,))


def lp_table_cases():
    gp = GpInstance.of(3, [(0, 1, 2, 1), (1, 2, 1, 2), (0, 2, F(3, 2), 1)])
    two = GmdInstance.of(2, 4, [(0, 1, 2, 1), (1, 2, 1, 2), (2, 3, 2, 1), (3, 0, 1, 3)])
    # grids of 3, 4, 3 and 4 prices: sets of one shape are not numbered
    # back to back, so their block is gathered
    mixed = GpInstance.of(4, [(0, 1, 2, 1), (1, 2, F(9, 4), 2), (2, 3, 2, 1), (0, 3, F(5, 2), 1)])
    return [
        build_sa_lp(triangle(), rounds=3),
        build_sa_lp(two, rounds=3),
        build_sa_lp(gp, rounds=2, price_grid=[geometric_grid(b, F(1, 2)) for b in (2, 2, F(3, 2))]),
        build_sa_lp(mixed, rounds=2,
                    price_grid=[geometric_grid(b, F(1, 2)) for b in (2, F(9, 4), 2, F(9, 4))]),
    ]


@pytest.mark.parametrize("lp", lp_table_cases())
def test_lp_tables_are_slices_of_the_vertex(lp):
    # the tables read back from the numerator vector equal the ones built
    # from the (S, alpha) -> x mapping
    value, sol = solve_lp_exact(lp)
    result = simplex_max(lp.objective, lp.rows, lp.rhs)
    _, var_index, _ = reference_rows(len(lp.domains), lp.rounds, lp.domains)
    ref = SaSolution.from_values(
        {key: F(result.numerators[idx], result.denom) for key, idx in var_index.items()},
        lp.rounds, lp.domains,
    )
    assert value == result.value and sol.lp_path == result.path
    assert sol.denom == ref.denom
    assert sol.tables.keys() == ref.tables.keys()
    for S, arr in ref.tables.items():
        assert sol.tables[S].tolist() == arr.tolist()
    assert list(sol.text_rows()) == list(ref.text_rows())
    # one block per table shape, its rows in sets() order
    shapes = {tuple(len(lp.domains[v]) for v in S) for S in lp.sets}
    assert sorted(block.shape for block in sol.blocks) == sorted(shapes)
    assert len(sol.values) == lp.num_variables
    got, want = check_sa_consistency(sol), check_sa_consistency(ref)
    assert got.ok and got.identities_checked == want.identities_checked


@given(
    budget=st.fractions(min_value=0, max_value=40, max_denominator=12),
    eps=st.fractions(min_value=F(1, 200), max_value=4, max_denominator=200).filter(lambda e: e > 0),
    power=st.integers(0, 9),
    limit=st.integers(0, 60),
)
@settings(max_examples=300, deadline=None)
def test_geometric_grid_size_matches_built_grid(budget, eps, power, limit):
    # budgets that are exact powers of 1 + eps sit on the float estimate's
    # rounding boundary
    for b in (budget, (1 + eps) ** power):
        assert geometric_grid_size(b, eps, limit) == min(len(geometric_grid(b, eps)), limit + 1)


def test_geometric_grid_size_without_building():
    # a million-price grid and extreme eps are sized from logarithms
    assert geometric_grid_size(F(2), F(1, 10**6), 5) == 6
    assert geometric_grid_size(F(2), F(1, 10**6), 10**7) == 693149
    assert geometric_grid_size(F(10**400), F(1, 10**400), 5) == 6
    assert geometric_grid_size(F(2), F(10**5000), 5) == 2
    assert geometric_grid_size(1 + F(1, 10**400), F(1, 10**401), 50) == 11
    assert geometric_grid_size(F(1, 2), F(1, 3), 0) == 1
    with pytest.raises(InstanceError):
        geometric_grid_size(F(2), F(0), 5)
