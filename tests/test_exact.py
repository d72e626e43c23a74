import itertools
import os
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdlab.cli import run_command
from gmdlab.core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    Labeling,
    Pricing,
    geometric_grid,
    half_integral_grid,
    max_incident_budget,
    parse_instance,
    val_gmd,
    val_gp,
)
from gmdlab import exact
from gmdlab.approx import (
    _gp_responder,
    approx_gmd_quarter,
    lp_round_gmd,
    quarter_expectation_gmd,
    run_trials,
)
from gmdlab.exact import (
    ELIM_MAX_BYTES,
    WALK_MAX_MASKS,
    _Responder,
    _adjacency,
    _gmd_elim_mask,
    _gmd_game,
    _gp_game,
    _gmd_labels,
    _gmd_plan,
    _GmdResponder,
    _min_fill,
    _plan,
    _zero_set_walk,
    greedy_completion,
    opt_gmd,
    opt_gmd_bruteforce,
    opt_gp_grid,
)
from gmdlab.rng import substream

F = Fraction


def triangle():
    return GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )


def test_greedy_completion_forced_choice():
    inst = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    lab = greedy_completion(inst, {0})
    assert lab.values == (0, 1)
    assert val_gmd(inst, lab) == 1


def test_greedy_completion_picks_heavier_label():
    inst = GmdInstance.of(2, 2, [(0, 1, 1, F(2, 3)), (0, 1, 2, F(1, 3))])
    assert greedy_completion(inst, {0}).values[1] == 1
    flipped = GmdInstance.of(2, 2, [(0, 1, 1, F(1, 3)), (0, 1, 2, F(2, 3))])
    assert greedy_completion(flipped, {0}).values[1] == 2


def test_greedy_completion_all_zero():
    inst = triangle()
    lab = greedy_completion(inst, {0, 1, 2})
    assert lab.values == (0, 0, 0)
    assert val_gmd(inst, lab) == 0


def test_greedy_completion_ties_take_smallest_label():
    # labels 2 and 3 tie at vertex 1; vertices 2 and 3 gain nothing
    inst = GmdInstance.of(3, 4, [(0, 1, 2, 1), (0, 1, 3, 1), (0, 2, 1, 0)])
    assert greedy_completion(inst, {0}).values == (0, 2, 1, 1)


def test_greedy_completion_beats_any_labeling_with_same_zero_class():
    import itertools

    inst = GmdInstance.of(
        2,
        4,
        [
            (0, 1, 1, F(1, 5)),
            (0, 2, 2, F(1, 5)),
            (3, 1, 2, F(1, 5)),
            (1, 2, 1, F(1, 5)),
            (2, 3, 1, F(1, 5)),
        ],
    )
    for zero_mask in range(1 << inst.n):
        zero = {v for v in range(inst.n) if zero_mask >> v & 1}
        best = val_gmd(inst, greedy_completion(inst, zero))
        for rest in itertools.product(range(1, inst.T + 1), repeat=inst.n - len(zero)):
            it = iter(rest)
            values = tuple(0 if v in zero else next(it) for v in range(inst.n))
            assert val_gmd(inst, Labeling(values)) <= best


def test_opt_gmd_fixtures():
    single = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    assert opt_gmd(single).value == 1
    assert opt_gmd(triangle()).value == F(1, 3)
    path = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))])
    assert opt_gmd(path).value == F(1, 2)


def test_opt_gmd_matches_bruteforce_on_random_instances():
    rng = substream(20260808, 0)
    for k in range(25):
        T = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        arcs = []
        for _ in range(m):
            u, v = rng.choice(n, size=2, replace=False)
            arcs.append((int(u), int(v), int(rng.integers(1, T + 1)), F(int(rng.integers(1, 6)), 7)))
        inst = GmdInstance.of(T, n, arcs)
        a = opt_gmd(inst)
        b = opt_gmd_bruteforce(inst)
        assert a.value == b.value
        assert val_gmd(inst, a.witness) == a.value


def test_opt_gmd_respects_cap():
    # 2^21 labels of 64 bytes pass the byte cap, refused before any term or
    # table; 30 vertices and one arc are planned by their arc, not their count
    with pytest.raises(CapExceeded, match="opt_gmd: 2097152 domain values take"):
        opt_gmd(GmdInstance.of(1, 1 << 20, [(0, 1, 1, 1)]))
    res = opt_gmd(GmdInstance.of(1, 30, [(0, 1, 1, 1)]))
    assert (res.value, res.witness.values, res.explored) == (1, (0,) + (1,) * 29, 1 << 30)


def test_opt_gmd_past_62_vertices_never_plans_the_walk():
    # the walk holds 2^24 masks; on 200 the penalised elimination tables
    # are Python ints past the byte cap, so no enumerator fits and the
    # refusal comes at once
    inst = _golden("gap-n200-s0.gmd")
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="zero-set walk's 2\\^200 masks exceed 16777216"):
        opt_gmd(inst)
    assert time.perf_counter() - start < 1.0


def test_opt_gmd_majority_label_dicut_bound():
    # optimum is at least (heaviest label class) / 4 >= 1/(4T) when normalized
    rng = substream(20260808, 1)
    for _ in range(10):
        T = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        arcs = []
        for _ in range(8):
            u, v = rng.choice(n, size=2, replace=False)
            arcs.append((int(u), int(v), int(rng.integers(1, T + 1)), 1))
        inst = GmdInstance.of(T, n, arcs).normalized()
        heaviest = max(
            sum((a.weight for a in inst.arcs if a.label == t), F(0))
            for t in range(1, T + 1)
        )
        opt = opt_gmd(inst).value
        assert opt >= heaviest / 4
        assert heaviest / 4 >= F(1, 4 * T)


def test_opt_gp_grid_single_edge():
    inst = GpInstance.of(2, [(0, 1, 1, 1)])
    res = opt_gp_grid(inst, half_integral_grid(inst))
    assert res.value == 1
    assert res.explored == 9


def test_opt_gp_grid_path_shares_middle_vertex():
    inst = GpInstance.of(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
    res = opt_gp_grid(inst, half_integral_grid(inst))
    assert res.value == 2
    assert val_gp(inst, res.witness) == 2


def test_opt_gp_grid_monotone_in_candidate_sets():
    inst = GpInstance.of(2, [(0, 1, 2, 1), (0, 1, 3, F(1, 2))])
    coarse = [[F(0), F(1)], [F(0), F(1)]]
    fine = [[F(0), F(1), F(3, 2), F(2)], [F(0), F(1), F(2)]]
    assert opt_gp_grid(inst, fine).value >= opt_gp_grid(inst, coarse).value


def test_opt_gp_grid_cap_and_empty_candidates():
    inst = GpInstance.of(2, [(0, 1, 1, 1)])
    # buckets of 2100 x 2100 and 2100 int64 entries, and 4200 domain values
    with pytest.raises(CapExceeded, match="opt_gp_grid: the domains and elimination tables take 35565600"):
        opt_gp_grid(inst, [[F(0)] * 2100, [F(0)] * 2100])
    with pytest.raises(Exception):
        opt_gp_grid(inst, [[], [F(0)]])


def test_half_integrality_against_finer_grids():
    # for integer budgets, refining the half-integral grid gains nothing
    rng = substream(20260808, 2)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        edges = []
        for _ in range(m):
            u, v = rng.choice(n, size=2, replace=False)
            edges.append((int(u), int(v), int(rng.integers(1, 4)), F(int(rng.integers(1, 4)), 3)))
        inst = GpInstance.of(n, edges)
        half = opt_gp_grid(inst, half_integral_grid(inst))
        quarter = opt_gp_grid(
            inst,
            [[F(k, 4) for k in range(4 * 3 + 1)] for _ in range(n)],
        )
        assert half.value == quarter.value


def test_opt_gmd_matches_bruteforce_at_n13():
    # T=1 keeps the independent brute force at 2^13 labelings
    rng = substream(20260808, 3)
    for _ in range(3):
        n = 13
        arcs = []
        for _ in range(18):
            u, v = rng.choice(n, size=2, replace=False)
            arcs.append((int(u), int(v), 1, F(int(rng.integers(1, 5)), 9)))
        inst = GmdInstance.of(1, n, arcs)
        fast = opt_gmd(inst)
        assert fast.value == opt_gmd_bruteforce(inst).value
        assert fast.explored == 1 << n
        assert val_gmd(inst, fast.witness) == fast.value


def test_opt_gp_grid_on_reduced_single_edge():
    from gmdlab.reduction import canonical_grid, reduce_gmd_to_gp

    art = reduce_gmd_to_gp(GmdInstance.of(1, 2, [(0, 1, 1, 1)]), M=10)
    res = opt_gp_grid(art.gp, canonical_grid(art))
    assert res.value == 1  # the canonical optimum of the source instance


def test_witness_reevaluation_is_exact():
    inst = GpInstance.of(3, [(0, 1, F(3), 1), (1, 2, F(2), F(1, 2))])
    res = opt_gp_grid(inst, half_integral_grid(inst))
    assert val_gp(inst, res.witness) == res.value
    assert isinstance(res.witness, Pricing)


# ---------------------------------------------------------------------------
# the pair-game engine against plain enumerations kept here as references
# ---------------------------------------------------------------------------


def _plain_gmd(inst):
    """Optimum and greedy completion of the smallest optimal zero mask, by
    enumerating every labeling: with the zero set fixed, each other vertex
    takes its smallest best label, so the completion is the first optimal
    labeling in product order among those with that zero set."""
    import itertools

    best, optimal = F(-1), []
    for values in itertools.product(range(inst.T + 1), repeat=inst.n):
        val = val_gmd(inst, Labeling(values))
        mask = sum(1 << v for v, x in enumerate(values) if x == 0)
        if val > best:
            best, optimal = val, [(mask, values)]
        elif val == best:
            optimal.append((mask, values))
    return best, Labeling(min(optimal)[1])


def _plain_grid(inst, candidates):
    """Optimum and first optimal point of the grid in product order."""
    import itertools

    best, point = F(-1), None
    for prices in itertools.product(*candidates):
        val = val_gp(inst, Pricing(prices))
        if val > best:
            best, point = val, prices
    return best, Pricing(point)


def _random_gmd_instance(rng, T, n, m):
    arcs = []
    for _ in range(m):
        u, v = rng.choice(n, size=2, replace=False)
        arcs.append((int(u), int(v), int(rng.integers(1, T + 1)), F(int(rng.integers(0, 5)), 6)))
    return GmdInstance.of(T, n, arcs)


def test_engine_gmd_value_and_witness_against_enumeration():
    rng = substream(20261018, 0)
    cases = [GmdInstance.of(2, 4, []), GmdInstance.of(1, 3, [(0, 1, 1, 0)])]
    for T, n, m in [(1, 6, 7), (2, 5, 6), (3, 4, 5), (1, 7, 3), (2, 6, 14), (3, 6, 15)]:
        cases += [_random_gmd_instance(rng, T, n, m) for _ in range(4)]
    for inst in cases:
        value, witness = _plain_gmd(inst)
        res = opt_gmd(inst)
        assert res.value == value == opt_gmd_bruteforce(inst).value
        assert res.witness == witness
        assert res.explored == (1 << inst.n if inst.arcs else 1)


def test_engine_elimination_and_zero_set_walk_agree():
    rng = substream(20261018, 1)
    for T, n, m in [(1, 9, 12), (2, 8, 20), (3, 7, 18), (2, 10, 6)]:
        for _ in range(3):
            inst = _random_gmd_instance(rng, T, n, m)
            game = _gmd_game(inst)
            order, _ = _min_fill_of(game)
            total, _ = game.first_optimum(order)
            assert _gmd_elim_mask(game, order) == _zero_set_walk(_GmdResponder(inst))
            assert F(total, game.denom) == opt_gmd(inst).value


def test_engine_grid_value_and_witness_against_enumeration():
    rng = substream(20261018, 2)
    cases = [
        (GpInstance.of(3, []), [[F(0), F(1)], [F(0)], [F(0), F(1, 2), F(1)]]),
        # parallel edges between the same pair, and an isolated vertex
        (GpInstance.of(3, [(0, 1, 2, 1), (0, 1, 1, 3), (1, 0, 3, F(1, 2))]), None),
        # a long path of single-candidate vertices between two free ones
        (GpInstance.of(1500, [(v, v + 1, 1, 1) for v in range(1499)]),
         [[F(0), F(1, 2)]] + [[F(1, 2)]] * 1498 + [[F(0), F(1, 2), F(1)]]),
    ]
    for n, m, budgets in [(3, 3, [1, 2]), (4, 5, [1, 2, 3]), (5, 6, [1, 2]), (4, 4, [F(3, 2), F(5, 2), F(7, 3)])]:
        for _ in range(3):
            edges = []
            for _ in range(m):
                u, v = rng.choice(n, size=2, replace=False)
                edges.append((int(u), int(v), budgets[int(rng.integers(0, len(budgets)))],
                              F(int(rng.integers(1, 4)), int(rng.integers(1, 4)))))
            cases.append((GpInstance.of(n, edges), None))
    for inst, grid in cases:
        # fractional budgets get geom: grids, integer budgets half grids
        if grid is None and all(e.budget.denominator == 1 for e in inst.edges):
            grid = half_integral_grid(inst)
        elif grid is None:
            grid = [geometric_grid(b, F(1, 2)) for b in max_incident_budget(inst)]
        value, witness = _plain_grid(inst, grid)
        res = opt_gp_grid(inst, grid)
        assert res.value == value
        assert res.witness == witness
        points = 1
        for g in grid:
            points *= len(g)
        assert res.explored == points


# ---------------------------------------------------------------------------
# bucket elimination against the zero-set walk and plain enumeration, each
# called directly (the cost estimate picks one path per instance)
# ---------------------------------------------------------------------------

# plain enumeration is run only up to this many labelings
PLAIN_LABELINGS = 3000


@st.composite
def gmd_instances(draw):
    """n 2-14, T 1-3; arcs among the first k vertices, so parallel and
    antiparallel arcs are common and the other vertices are isolated."""
    T = draw(st.integers(1, 3))
    n = draw(st.integers(2, 14))
    k = draw(st.integers(2, n))
    weight = st.sampled_from([F(0), F(1), F(2), F(3), F(1, 2), F(2, 3)])
    arc = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(1, T), weight)
    arcs = draw(st.lists(arc, max_size=24))
    return GmdInstance.of(T, n, [a for a in arcs if a[0] != a[1]])


@settings(max_examples=150, deadline=None)
@given(gmd_instances())
def test_elimination_and_walk_agree_on_gmd(inst):
    game = _gmd_game(inst)
    order, _ = _min_fill_of(game)
    value, _ = game.first_optimum(order)
    mask = _gmd_elim_mask(game, order)
    resp = _GmdResponder(inst)
    labels, total = _gmd_labels(resp, [bool(mask >> v & 1) for v in range(inst.n)])
    assert total == value
    assert _zero_set_walk(resp) == mask
    if (inst.T + 1) ** inst.n <= PLAIN_LABELINGS:
        assert _plain_gmd(inst) == (F(value, game.denom), Labeling(tuple(labels)))
    res = opt_gmd(inst)
    assert res.value == F(value, game.denom)
    assert res.witness == Labeling(tuple(labels))


def _min_fill_by_rescoring(inst):
    """Min-fill order of the graph of the arcs of `inst`, rescoring every
    remaining vertex at each step."""
    adj: dict = {}
    for a in inst.arcs:
        adj.setdefault(a.tail, set()).add(a.head)
        adj.setdefault(a.head, set()).add(a.tail)
    order = []
    while adj:
        def key(u):
            nb = sorted(adj[u])
            return (sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in adj[a]),
                    len(nb), u)
        v = min(adj, key=key)
        nb = adj.pop(v)
        for u in nb:
            adj[u] = (adj[u] | nb) - {u, v}
        order.append(v)
    return order


@settings(max_examples=100, deadline=None)
@given(gmd_instances())
def test_min_fill_order_matches_full_rescoring(inst):
    assert _min_fill_of(_gmd_game(inst))[0] == _min_fill_by_rescoring(inst)


@st.composite
def gp_grids(draw):
    """Pricing instances with integer and fractional budgets, on the half
    grid or the geom:1/2 grid of their incident budgets."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, n))
    budget = st.sampled_from([F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 2), F(7, 3)])
    weight = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(1, 3)])
    edge = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), budget, weight)
    edges = [e for e in draw(st.lists(edge, max_size=10)) if e[0] != e[1]]
    inst = GpInstance.of(n, edges)
    if draw(st.booleans()):
        return inst, half_integral_grid(inst)
    return inst, [geometric_grid(b, F(1, 2)) for b in max_incident_budget(inst)]


@settings(max_examples=150, deadline=None)
@given(gp_grids())
def test_elimination_matches_enumeration_on_grids(case):
    inst, grid = case
    res = opt_gp_grid(inst, grid)
    assert val_gp(inst, res.witness) == res.value
    if res.explored <= 3000:
        assert _plain_grid(inst, grid) == (res.value, res.witness)


def test_grid_ties_go_to_the_first_point_in_product_order():
    # two unit edges 0-1 and 0-2 with budget 1: (0, 1, 1) and (1, 0, 0) both
    # earn 2.  Min-fill eliminates 1 first, and the read-back of an
    # unpenalised pass takes the later point (1, 0, 0)
    inst = GpInstance.of(3, [(0, 2, 1, 1), (0, 1, 1, 1)])
    grid = half_integral_grid(inst)
    game = _gp_game(inst, grid)
    order, _ = _min_fill_of(game)
    assert order != sorted(order)
    assert game.first_optimum(order)[1] == [2, 0, 0]
    res = opt_gp_grid(inst, grid)
    assert (res.value, res.witness) == _plain_grid(inst, grid) == (2, Pricing((F(0), F(1), F(1))))


def test_edgeless_grid_plans_an_empty_order():
    game = _gp_game(GpInstance.of(3, []), [[F(0), F(1)], [F(0)], [F(0), F(1, 2)]])
    assert _plan("t", game.sizes, [], 0, 4) == []
    assert _plan("t", game.sizes, [], 0, 4, walk=10**6) == []
    assert game.first_optimum([], 4, {0: [0, 2], 1: [0], 2: [0, 1]}) == (0, [0, 0, 0])


def test_opt_gp_grid_refuses_tables_over_the_byte_cap(monkeypatch, capsys):
    # the geom instance's min-fill tables hold 1,098 int64 entries, 8,784
    # bytes, beside its 32 domain values of 64 bytes
    geom = _golden("geom.gp")
    grid = [geometric_grid(b, F(1, 10)) for b in max_incident_budget(geom)]
    cap = 64 * sum(map(len, grid)) + 8 * sum(_min_fill_of(_gp_game(geom, grid))[1]) - 1
    monkeypatch.setattr(exact, "ELIM_MAX_BYTES", cap)

    def no_work(*args):
        raise AssertionError("an elimination pass ran")

    monkeypatch.setattr(exact._PairGame, "first_optimum", no_work)
    with pytest.raises(CapExceeded):
        opt_gp_grid(geom, grid)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "geom.gp")
    assert run_command(["solve", "--in", path, "--grid", "geom:1/10"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_elimination_on_python_int_tables():
    # weights near 2^62 overflow int64 partial sums: the tables hold ints
    big = 2**61
    inst = GmdInstance.of(2, 5, [(0, 1, 1, big), (1, 2, 2, big), (2, 0, 1, big + 1),
                                 (3, 4, 2, 3), (4, 3, 1, 3), (1, 3, 1, big)])
    game = _gmd_game(inst)
    assert not game.int64()
    # the walk's int64 sums would overflow, so the plan takes elimination
    assert _gmd_path(inst) == "elim"
    order, _ = _min_fill_of(game)
    mask = _gmd_elim_mask(game, order)
    value, witness = _plain_gmd(inst)
    assert mask == sum(1 << v for v, x in enumerate(witness.values) if x == 0)
    assert F(_gmd_labels(_GmdResponder(inst), [bool(mask >> v & 1) for v in range(5)])[1], game.denom) == value
    res = opt_gmd(inst)
    assert (res.value, res.witness) == (value, witness)
    assert value == opt_gmd_bruteforce(inst).value


def test_elimination_when_only_the_penalised_tables_pass_int64():
    # the payoffs fit int64, the payoffs times 2^n do not, so the one pass
    # runs on Python ints; the 4-cycle 0->1->2->3->0 has tied optima
    big = 2**57
    inst = GmdInstance.of(2, 6, [(0, 1, 1, big), (1, 2, 1, big), (2, 3, 1, big), (3, 0, 1, big),
                                 (4, 5, 2, 5), (5, 4, 1, 5), (1, 4, 2, 3)])
    game = _gmd_game(inst)
    assert game.int64() and not game.int64(1 << inst.n)
    order, _ = _min_fill_of(game)
    mask = _gmd_elim_mask(game, order)
    resp = _GmdResponder(inst)
    assert mask == _zero_set_walk(resp)
    labels, total = _gmd_labels(resp, [bool(mask >> v & 1) for v in range(inst.n)])
    res = opt_gmd(inst)
    plain = _plain_gmd(inst)
    assert (F(total, game.denom), Labeling(tuple(labels))) == (res.value, res.witness) == plain


def test_walk_runs_when_the_pair_maxima_fit_int64():
    # the arcs sum to 2^62 + 1, but no assignment earns both arcs between 0
    # and 1: the pair maxima sum to 2^61 + 1, so int64 holds every partial
    # sum of the walk, whose plan and mask need no arc sum
    inst = GmdInstance.of(1, 3, [(0, 1, 1, 2**61), (1, 0, 1, 2**61), (1, 2, 1, 1)])
    game = _gmd_game(inst)
    assert sum(a.weight for a in inst.arcs) == 2**62 + 1 and game.int64()
    assert _gmd_path(inst) == "walk"
    value, witness = _plain_gmd(inst)
    assert _zero_set_walk(_GmdResponder(inst)) == sum(1 << v for v, x in enumerate(witness.values) if x == 0)
    res = opt_gmd(inst)
    assert (res.value, res.witness) == (value, witness) == (2**61 + 1, Labeling((1, 0, 1)))


def _pairs_of(game):
    """The vertex pairs of the tables of `game`."""
    return [tuple(uv) for uv in game.cells[:, :2].tolist()]


def _min_fill_of(game):
    """The min-fill order of `game`'s pairs and its bucket entries."""
    return _min_fill(game.sizes, _adjacency(_pairs_of(game)))


def _gmd_path(inst):
    return _gmd_plan(inst)[0]


def test_cost_estimate_picks_each_path(tmp_path):
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    with open(os.path.join(golden, "g20.gmd")) as fh:
        g20 = parse_instance(fh.read())
    with open(os.path.join(golden, "c4.gmd")) as fh:
        c4 = parse_instance(fh.read())
    # n=12 with every arc at vertex 0: 4096 zero masks cost less than
    # eliminating 12 vertices; label 0 at the centre and 1 elsewhere, or the
    # other way round with label 2 at the centre, cuts the 11 arcs one way
    star = GmdInstance.of(2, 12, [(0, v, 1, 1) for v in range(1, 12)]
                          + [(v, 0, 2, 1) for v in range(1, 12)])
    # the n=4 cycle c4 has only 16 zero masks
    assert [_gmd_path(i) for i in (g20, c4, star)] == ["elim", "walk", "walk"]
    assert [opt_gmd(i).value for i in (g20, c4, star)] == [74, F(5, 12), 11]
    # the benchmark's `gap --n 16 --seed 0` instance: one elimination pass
    # costs less than 2^16 zero masks
    gap16 = str(tmp_path / "gap16.gmd")
    assert run_command(["gap", "--n", "16", "--seed", "0", "--out", gap16]) == 0
    with open(gap16) as fh:
        inst = parse_instance(fh.read())
    assert _gmd_path(inst) == "elim"
    game = _gmd_game(inst)
    resp = _GmdResponder(inst)
    zero = _zero_set_walk(resp)
    assert opt_gmd(inst).value == F(_gmd_labels(resp, [bool(zero >> v & 1) for v in range(16)])[1],
                                    game.denom)


def _tournament(n, weight=lambda u, v: 1):
    """The transitive tournament at T=1: arcs u -> v for u < v."""
    return GmdInstance.of(1, n, [(u, v, 1, weight(u, v)) for u in range(n) for v in range(u + 1, n)])


def test_dense_game_falls_back_from_elimination():
    # a 24-vertex tournament: eliminating any vertex first joins the other
    # 23 into one table of 2^24 entries
    tournament = _tournament(24)
    game = _gmd_game(tournament)
    assert game.int64(1 << 24)
    assert _min_fill_of(game)[1][0] * 8 == 8 << 24 > ELIM_MAX_BYTES
    with pytest.raises(CapExceeded, match="elimination tables take"):
        _plan("t", game.sizes, _pairs_of(game), game._top, 1 << 24)
    assert _gmd_path(tournament) == "walk"
    # its 2^24 zero masks take seconds, so the value is checked at n = 12,
    # which takes the walk on cost: the zero set {0..5} cuts 6 * 6 arcs, and
    # no zero set of k vertices cuts more than k * (12 - k)
    small = _tournament(12)
    assert _gmd_path(small) == "walk"
    res = opt_gmd(small)
    assert res.value == 36 and res.witness.values == (0,) * 6 + (1,) * 6


def test_opt_gmd_refuses_when_no_path_fits(monkeypatch):
    # weights of 2^57 and more overflow the walk's int64 sums, and the
    # tables of the 24-vertex tournament are over the byte cap
    tournament = _tournament(24, lambda u, v: 2**57 + u + v)
    game = _gmd_game(tournament)
    assert not game.int64()
    with pytest.raises(CapExceeded):
        _plan("t", game.sizes, _pairs_of(game), game._top, 1 << 24)

    def no_work(*args):
        raise AssertionError("an enumeration ran")

    monkeypatch.setattr(exact, "_zero_set_walk", no_work)
    monkeypatch.setattr(exact._PairGame, "first_optimum", no_work)
    with pytest.raises(CapExceeded):
        opt_gmd(tournament)


def _sparse24():
    """n = 24, T = 3: 66 random arcs with weights 1-7."""
    rng = random.Random(1 * 1_000_003 + 24 * 1009 + 3 * 101 + 66)
    arcs: dict = {}
    while len(arcs) < 66:
        u, v = rng.randrange(24), rng.randrange(24)
        if u != v:
            arcs.setdefault((u, v, rng.randint(1, 3)), rng.randint(1, 7))
    return GmdInstance.of(3, 24, [(u, v, t, w) for (u, v, t), w in arcs.items()])


def test_sparse_game_past_a_million_entries_plans_elimination():
    # its int64 min-fill tables hold 2,092,116 entries (16.7 MB); the walk
    # over 2^24 masks takes seconds and returns the same mask, 2369109
    inst = _sparse24()
    game = _gmd_game(inst)
    entries = sum(_min_fill_of(game)[1])
    assert game.int64(1 << 24) and entries == 2_092_116 and entries * 8 <= ELIM_MAX_BYTES
    assert _gmd_path(inst) == "elim"
    res = opt_gmd(inst)
    assert sum(1 << v for v, x in enumerate(res.witness.values) if x == 0) == 2369109
    assert res.value == 86


def test_benchmark_dag8_instances_take_the_walk(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    monkeypatch.chdir(tmp_path)
    workloads.setup_oracle()
    paths = sorted(tmp_path.glob("dag8-*.gmd"))
    assert len(paths) == 6
    for path in paths:
        assert _gmd_path(parse_instance(path.read_text())) == "walk", path.name


def _refuse_games(monkeypatch):
    def refuse(*args):
        raise AssertionError("a pair game was built")

    monkeypatch.setattr(exact, "_gmd_game", refuse)
    monkeypatch.setattr(exact, "_gp_game", refuse)


def test_the_walk_builds_no_pair_game(tmp_path, monkeypatch, capsys):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    monkeypatch.chdir(tmp_path)
    workloads.setup_oracle()
    insts = [parse_instance(path.read_text()) for path in sorted(tmp_path.glob("dag8-*.gmd"))]
    want = [opt_gmd(inst) for inst in insts]
    _refuse_games(monkeypatch)
    assert [opt_gmd(inst) for inst in insts] == want
    # T = 4,000 on one arc: a dense pair table would hold 16M entries
    path = tmp_path / "t4000.gmd"
    path.write_text("gmd 4000\nv 2\ne 0 1 4000 1\n")
    assert run_command(["solve", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "opt = 1\n"


def test_the_plan_reads_pairs_not_vertex_counts():
    # 25 vertices pass the walk's 2^24 masks, so one arc plans elimination;
    # on 12 vertices the same arc's 4,096 masks cost less than elimination
    assert 1 << 24 == WALK_MAX_MASKS
    big = GmdInstance.of(1, 25, [(3, 7, 1, 1)])
    assert _gmd_plan(big) == ("elim", [3, 7])
    assert _gmd_path(GmdInstance.of(1, 12, [(3, 7, 1, 1)])) == "walk"
    res = opt_gmd(big)
    assert res.value == 1 and res.witness.values[3] == 0 and res.explored == 1 << 25
    # zero-weight arcs and parallel edges are pairs of the game as well
    assert _gmd_plan(GmdInstance.of(1, 25, [(3, 7, 1, 0), (7, 3, 1, 1), (1, 2, 1, 0)]))[1] == [1, 2, 3, 7]


def test_grid_oracle_refuses_before_the_game(monkeypatch, capsys):
    # geom:1/1000 on p3 gives 1,797 prices: 196,591,175 points, whose first
    # bucket holds 196.6M entries
    _refuse_games(monkeypatch)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "p3.gp")
    assert run_command(["solve", "--in", path, "--grid", "geom:1/1000"]) == 2
    err = capsys.readouterr().err
    assert "opt_gp_grid: the domains and elimination tables take" in err
    grid = [geometric_grid(b, F(1, 1000)) for b in max_incident_budget(_golden("p3.gp"))]
    assert sum(map(len, grid)) == 1797
    with pytest.raises(CapExceeded):
        opt_gp_grid(_golden("p3.gp"), grid)


# ---------------------------------------------------------------------------
# the integer builders against `Fraction` tables scaled through one lcm
# ---------------------------------------------------------------------------


def _fraction_game(sizes, tables):
    """(sizes, denom, pairs, nbrs) of the pair game with the `Fraction`
    payoff tables `tables`, each payoff scaled to an int over the lcm of the
    payoffs' denominators."""
    denom = lcm(*(p.denominator for t in tables.values() for row in t for p in row))
    pairs, nbrs = [], [{} for _ in sizes]
    for (u, v), rows in tables.items():
        ints = [[p.numerator * (denom // p.denominator) for p in row] for row in rows]
        pairs.append((u, v, ints))
        nbrs[v][u] = [tuple(row) for row in ints]
        nbrs[u][v] = list(zip(*ints))
    return tuple(sizes), denom, pairs, nbrs


def _fraction_gmd_game(inst):
    T = inst.T
    tables: dict = {}
    for a in inst.arcs:
        u, v = sorted((a.tail, a.head))
        rows = tables.setdefault((u, v), [[F(0)] * (T + 1) for _ in range(T + 1)])
        if a.tail == u:
            rows[T][a.label - 1] += a.weight
        else:
            rows[a.label - 1][T] += a.weight
    return _fraction_game([T + 1] * inst.n, tables)


def _fraction_gp_game(inst, candidates):
    tables: dict = {}
    for e in inst.edges:
        u, v = sorted((e.u, e.v))
        cu, cv = candidates[u], candidates[v]
        rows = tables.setdefault((u, v), [[F(0)] * len(cv) for _ in cu])
        for i, pu in enumerate(cu):
            for j, pv in enumerate(cv):
                if pu + pv <= e.budget:
                    rows[i][j] += e.weight * (pu + pv)
    return _fraction_game([len(c) for c in candidates], tables)


def _built(game):
    """(sizes, denom, pairs) of `game` as `_fraction_game` gives them, each
    table read from the one payoff store, which holds the tables one after
    another in int64 when `int64()` holds, Python ints otherwise."""
    pairs, end = [], 0
    for u, v, at, stride in game.cells.tolist():
        assert at == end
        end = at + game.sizes[u] * stride
        pairs.append((u, v, game.payoffs[at:end].reshape(-1, stride).tolist()))
    assert end == len(game.payoffs)
    assert game.payoffs.dtype == (np.int64 if game.int64() else object)
    return game.sizes, game.denom, pairs


# primes whose product passes 2^63 many times over
BIG_PRIMES = (2147483647, 4294967291, 2305843009213693951)


def _builder_gmd_instances():
    rng = random.Random(20261019)
    weights = [
        lambda: F(rng.randint(0, 4), 6),                        # zeros and sixths
        lambda: F(rng.randint(1, 40), rng.randint(1, 3)),      # unnormalised
        lambda: F(rng.randint(0, 9), rng.choice(BIG_PRIMES)),  # lcm past 2^63
        lambda: F(rng.randint(1, 5) * 6, 4),                   # a common factor
    ]
    cases = [GmdInstance.of(2, 3, []), GmdInstance.of(1, 2, [(0, 1, 1, 0), (1, 0, 1, 0)])]
    for weight in weights:
        for _ in range(6):
            T, n = rng.randint(1, 3), rng.randint(2, 7)
            arcs = []
            for _ in range(rng.randint(1, 12)):
                u, v = rng.sample(range(n), 2)
                arcs.append((u, v, rng.randint(1, T), weight()))
                if rng.random() < 0.4:  # its antiparallel twin
                    arcs.append((v, u, rng.randint(1, T), weight()))
            cases.append(GmdInstance.of(T, n, arcs))
    return cases


def test_gmd_game_equals_fraction_tables():
    cases = _builder_gmd_instances()
    assert any(_gmd_game(inst).denom >= 2**63 for inst in cases)
    for inst in cases:
        assert _built(_gmd_game(inst)) == _fraction_gmd_game(inst)[:3]


def _builder_gp_instances():
    rng = random.Random(20261020)
    budgets = [F(1), F(2), F(3), F(1, 7), F(3, 2), F(13, 8), F(17, 10), F(7, 3)]
    weights = [F(0), F(1), F(3), F(1, 2), F(2, 3), F(5, 4)]
    cases = [GpInstance.of(3, [])]
    for _ in range(18):
        n = rng.randint(2, 5)
        edges = []
        for _ in range(rng.randint(1, 7)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v, rng.choice(budgets), rng.choice(weights)))
            if rng.random() < 0.3:  # a parallel edge
                edges.append((v, u, rng.choice(budgets), rng.choice(weights)))
        cases.append(GpInstance.of(n, edges))
    return cases


def test_gp_game_equals_fraction_tables():
    for inst in _builder_gp_instances():
        half = half_integral_grid(inst)
        geom = [geometric_grid(b, F(1, 10)) for b in max_incident_budget(inst)]
        for grid in (half, geom):
            assert _built(_gp_game(inst, grid)) == _fraction_gp_game(inst, grid)[:3]
        resp, domains = _gp_responder(inst)
        assert _built(resp.game) == _fraction_gp_game(inst, domains)[:3]


def _nbrs_terms(nbrs, sizes, zero):
    """`_Responder.terms` from per-vertex neighbour dicts: nbrs[v][u][x_u]
    is the payoff vector over x_v given u's index x_u."""
    terms = []
    for v, nb in enumerate(nbrs):
        by_index = [tuple((u, cols[zero][j]) for u, cols in nb.items() if cols[zero][j])
                    for j in range(sizes[v])]
        terms.append(by_index if any(by_index) else [])
    return terms


def _assert_terms_match(game, reference, zero):
    sizes, denom, _, nbrs = reference
    assert (game.sizes, game.denom) == (sizes, denom)
    terms = _Responder(game, zero).terms
    assert terms == _nbrs_terms(nbrs, sizes, zero)
    assert all(type(p) is int for by_index in terms for t in by_index for _, p in t)


# weights times 2^70 put every game with a nonzero payoff on Python ints
HUGE = 1 << 70


@settings(max_examples=100, deadline=None)
@given(gmd_instances(), st.booleans())
def test_responder_terms_match_neighbour_dicts_on_gmd(inst, huge):
    if huge:
        inst = GmdInstance.of(inst.T, inst.n, [(a.tail, a.head, a.label, a.weight * HUGE)
                                               for a in inst.arcs])
    game = _gmd_game(inst)
    assert game.int64() == (not huge or not game.payoffs.any())
    # every index against label 0's index T, and against index 0
    for zero in (inst.T, 0):
        _assert_terms_match(game, _fraction_gmd_game(inst), zero)


def test_gmd_responder_peak_holds_no_list_per_label():
    # a 2,000-vertex path with labels cycling through T = 50: one list per
    # head and label made the constructor peak at 7.9 MiB; per-head dicts of
    # the named labels peak at 2.2 MiB, the 1.2 MiB kept included
    T, n = 50, 2000
    inst = GmdInstance.of(T, n, [(v, v + 1, v % T + 1, 1) for v in range(n - 1)])
    tracemalloc.start()
    try:
        resp = _GmdResponder(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20
    assert resp.terms[1] == [((0, 1),)] + [()] * (T - 1)
    assert resp.terms[0] == []


@settings(max_examples=100, deadline=None)
@given(gmd_instances(), st.booleans())
def test_gmd_responder_builds_the_game_terms_from_the_arcs(inst, huge):
    if huge:
        inst = GmdInstance.of(inst.T, inst.n, [(a.tail, a.head, a.label, a.weight * HUGE)
                                               for a in inst.arcs])
    resp = _GmdResponder(inst)
    sizes, denom, _, nbrs = _fraction_gmd_game(inst)
    assert resp.denom == denom
    # the full responder's last index, T (label 0), never has a term
    assert resp.terms == [by_index[:inst.T] for by_index in _nbrs_terms(nbrs, sizes, inst.T)]
    game = _gmd_game(inst)
    assert resp.in_int64 == game.int64()
    assert resp.pays.dtype == game.payoffs.dtype
    # the arcs' values are the pair tables', on every labeling of the
    # smallest games and on random ones
    T, n = inst.T, inst.n
    if (T + 1) ** n <= 4096:
        x = np.array(list(itertools.product(range(T + 1), repeat=n)), dtype=np.intp)
    else:
        x = np.random.default_rng(n).integers(0, T + 1, size=(500, n))
    assert resp.values(x).dtype == game.values(x).dtype
    assert resp.values(x).tolist() == game.values(x).tolist()


def test_greedy_completion_builds_no_pair_game(monkeypatch):
    inst = _golden("g20.gmd")
    want = greedy_completion(inst, {0, 3, 5})

    def refuse(*args):
        raise AssertionError("a pair game was built")

    monkeypatch.setattr(exact._PairGame, "__init__", refuse)
    assert greedy_completion(inst, {0, 3, 5}) == want
    with pytest.raises(AssertionError):
        opt_gmd(inst)


def test_max_dicut_trials_build_no_pair_game(monkeypatch):
    # gmd4, gmdlp and the quarter expectation read the arcs: only the
    # elimination pass of `opt_gmd` builds the dense pair game
    g20, gap12 = _golden("g20.gmd"), _golden("gap12.gmd")
    marginals = [[F(1, g20.T + 1)] * (g20.T + 1)] * g20.n

    def runs():
        return (run_trials(approx_gmd_quarter, g20, 600, seed=5),
                run_trials(lp_round_gmd, g20, 600, seed=5, marginals=marginals),
                quarter_expectation_gmd(gap12))

    want = runs()

    def refuse(*args):
        raise AssertionError("a pair game was built")

    monkeypatch.setattr(exact, "_gmd_game", refuse)
    assert runs() == want
    with pytest.raises(AssertionError, match="a pair game was built"):
        opt_gmd(g20)


@settings(max_examples=100, deadline=None)
@given(gp_grids(), st.booleans())
def test_responder_terms_match_neighbour_dicts_on_gp(case, huge):
    inst, grid = case
    if huge:
        inst = GpInstance.of(inst.n, [(e.u, e.v, e.budget, e.weight * HUGE) for e in inst.edges])
    game = _gp_game(inst, grid)
    assert game.int64() == (not huge or not game.payoffs.any())
    _assert_terms_match(game, _fraction_gp_game(inst, grid), 0)


def test_builders_do_no_fraction_arithmetic(monkeypatch):
    gmd = _builder_gmd_instances()
    gp = [(inst, [geometric_grid(b, F(1, 10)) for b in max_incident_budget(inst)])
          for inst in _builder_gp_instances()]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic while building a pair game")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                 "__le__", "__lt__", "__ge__", "__gt__"):
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        F(1, 2) + F(1, 3)
    for inst in gmd:
        _gmd_game(inst)
    for inst, grid in gp:
        _gp_game(inst, grid)


def _golden(name):
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name)) as fh:
        return parse_instance(fh.read())


@pytest.mark.parametrize("name, value, witness", [
    ("g20.gmd", F(74), (0, 2, 0, 1, 0, 0, 2, 1, 1, 0, 0, 0, 2, 2, 2, 1, 1, 0, 0, 2)),
    ("c4.gmd", F(5, 12), (0, 1, 1, 1)),
    ("gap12.gmd", F(6, 11), (2, 2, 2, 0, 1, 1, 0, 0, 0, 1, 0, 0)),
])
def test_opt_gmd_witnesses_pinned(name, value, witness):
    inst = _golden(name)
    res = opt_gmd(inst)
    assert (res.value, res.witness.values, res.explored) == (value, witness, 1 << inst.n)


def test_opt_gp_grid_witnesses_pinned():
    p3 = _golden("p3.gp")
    res = opt_gp_grid(p3, half_integral_grid(p3))
    assert (res.value, res.witness.values, res.explored) == (F(5), (F(1), F(1, 2), F(1, 2)), 100)
    geom = _golden("geom.gp")
    grid = [geometric_grid(b, F(1, 10)) for b in max_incident_budget(geom)]
    res = opt_gp_grid(geom, grid)
    assert res.value == F(775973, 100000)
    assert res.witness.values == (F(14641, 10000), F(0), F(0), F(161051, 100000))
    assert res.explored == 3969
