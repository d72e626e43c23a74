import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdlab.caps import Caps
from gmdlab.cli import run_command
from gmdlab.core import (
    CapExceeded,
    GmdInstance,
    GpInstance,
    Labeling,
    Pricing,
    max_incident_budget,
    parse_instance,
    val_gmd,
    val_gp,
)
from gmdlab.exact import (
    ELIM_MAX_ENTRIES,
    _gmd_elim_mask,
    _gmd_game,
    _gmd_labels,
    _gmd_plan,
    _zero_mask,
    _zero_set_walk,
    greedy_completion,
    half_integral_grid,
    opt_gmd,
    opt_gmd_bruteforce,
    opt_gp_grid,
)
from gmdlab.rng import substream
from gmdlab.salp import geometric_grid

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
    inst = GmdInstance.of(1, 30, [(0, 1, 1, 1)])
    with pytest.raises(CapExceeded):
        opt_gmd(inst, caps=Caps(opt_gmd_n=24))


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
    with pytest.raises(CapExceeded):
        opt_gp_grid(inst, [[F(0)] * 2000, [F(0)] * 2000], caps=Caps(gp_grid_points=100))
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


def test_engine_cover_and_zero_set_walk_agree():
    rng = substream(20261018, 1)
    for T, n, m in [(1, 9, 12), (2, 8, 20), (3, 7, 18), (2, 10, 6)]:
        for _ in range(3):
            inst = _random_gmd_instance(rng, T, n, m)
            game = _gmd_game(inst)
            scaled = [a.weight.numerator * (game.denom // a.weight.denominator) for a in inst.arcs]

            def zero_mask(x):
                return sum(1 << v for v, i in enumerate(x) if i == T)

            total, x = game.maximise(game.cover(), key=zero_mask)
            assert zero_mask(x) == _zero_set_walk(inst, scaled)
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
# bucket elimination against the cover enumeration and the zero-set walk,
# each called directly (the cost estimate picks one path per instance)
# ---------------------------------------------------------------------------

# the cover enumeration is run only up to this many cover assignments
COVER_LEAVES = 5000


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
def test_elimination_cover_and_walk_agree_on_gmd(inst):
    T = inst.T
    game = _gmd_game(inst)
    order, _ = game.elimination_order()
    value, _ = game._eliminate(order, game.arrays())
    mask = _gmd_elim_mask(game, order)
    labels, total = _gmd_labels(game, [bool(mask >> v & 1) for v in range(inst.n)])
    assert total == value
    scaled = [a.weight.numerator * (game.denom // a.weight.denominator) for a in inst.arcs]
    assert _zero_set_walk(inst, scaled) == mask
    cover = game.cover()
    # a bound above the cover's product keeps it, one at the product finds none
    leaves = (T + 1) ** len(cover)
    assert game.cover(leaves + 1) == cover and game.cover(leaves) is None
    if leaves <= COVER_LEAVES:
        cover_value, x = game.maximise(cover, key=lambda x: _zero_mask(x, T))
        assert (cover_value, _zero_mask(x, T)) == (value, mask)
    res = opt_gmd(inst)
    assert res.value == F(value, game.denom)
    assert res.witness == Labeling(tuple(labels))


def _min_fill_by_rescoring(game):
    """Min-fill order that rescores every remaining vertex at each step."""
    adj = {v: set(nb) for v, nb in enumerate(game.nbrs) if nb}
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
    game = _gmd_game(inst)
    assert game.elimination_order()[0] == _min_fill_by_rescoring(game)


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
def test_cover_matches_enumeration_on_grids(case):
    inst, grid = case
    res = opt_gp_grid(inst, grid)
    assert val_gp(inst, res.witness) == res.value
    if res.explored <= 3000:
        assert _plain_grid(inst, grid) == (res.value, res.witness)


def test_elimination_on_python_int_tables():
    # weights near 2^62 overflow int64 partial sums: the tables hold ints
    big = 2**61
    inst = GmdInstance.of(2, 5, [(0, 1, 1, big), (1, 2, 2, big), (2, 0, 1, big + 1),
                                 (3, 4, 2, 3), (4, 3, 1, 3), (1, 3, 1, big)])
    game = _gmd_game(inst)
    assert not game.int64()
    order, _ = game.elimination_order()
    mask = _gmd_elim_mask(game, order)
    cover_value, x = game.maximise(game.cover(), key=lambda x: _zero_mask(x, 2))
    assert mask == _zero_mask(x, 2)
    assert _gmd_labels(game, [bool(mask >> v & 1) for v in range(5)])[1] == cover_value
    res = opt_gmd(inst)
    assert (res.value, res.witness) == _plain_gmd(inst)


def test_elimination_when_only_the_penalised_tables_pass_int64():
    # the payoffs fit int64, the payoffs times 2^n do not, so the one pass
    # runs on Python ints; the 4-cycle 0->1->2->3->0 has tied optima
    big = 2**57
    inst = GmdInstance.of(2, 6, [(0, 1, 1, big), (1, 2, 1, big), (2, 3, 1, big), (3, 0, 1, big),
                                 (4, 5, 2, 5), (5, 4, 1, 5), (1, 4, 2, 3)])
    game = _gmd_game(inst)
    assert game.int64() and not game.int64(inst.n)
    order, _ = game.elimination_order()
    mask = _gmd_elim_mask(game, order)
    scaled = [a.weight.numerator * (game.denom // a.weight.denominator) for a in inst.arcs]
    assert mask == _zero_set_walk(inst, scaled)
    assert mask == _zero_mask(game.maximise(game.cover(), key=lambda x: _zero_mask(x, 2))[1], 2)
    labels, total = _gmd_labels(game, [bool(mask >> v & 1) for v in range(inst.n)])
    res = opt_gmd(inst)
    plain = _plain_gmd(inst)
    assert (F(total, game.denom), Labeling(tuple(labels))) == (res.value, res.witness) == plain


def _gmd_path(inst):
    game = _gmd_game(inst)
    scaled = [a.weight.numerator * (game.denom // a.weight.denominator) for a in inst.arcs]
    return _gmd_plan(inst, game, scaled)[0]


def test_cost_estimate_picks_each_path(tmp_path):
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    with open(os.path.join(golden, "g20.gmd")) as fh:
        g20 = parse_instance(fh.read())
    with open(os.path.join(golden, "c4.gmd")) as fh:
        c4 = parse_instance(fh.read())
    # n=12 with every arc at vertex 0: the cover {0} has three assignments
    star = GmdInstance.of(2, 12, [(0, v, 1, 1) for v in range(1, 12)]
                          + [(v, 0, 2, 1) for v in range(1, 12)])
    # the n=4 cycle c4 has only 16 zero masks
    assert [_gmd_path(i) for i in (g20, c4, star)] == ["elim", "walk", "cover"]
    # the benchmark's `gap --n 16 --seed 0` instance: its least cover has
    # 729 assignments, and one elimination pass costs less
    gap16 = str(tmp_path / "gap16.gmd")
    assert run_command(["gap", "--n", "16", "--seed", "0", "--out", gap16]) == 0
    with open(gap16) as fh:
        assert _gmd_path(parse_instance(fh.read())) == "elim"


def test_dense_game_falls_back_from_elimination():
    # a 24-vertex tournament at T=1: eliminating any vertex first joins the
    # other 23 into one table of 2^24 entries
    tournament = GmdInstance.of(1, 24, [(u, v, 1, 1) for u in range(24) for v in range(u + 1, 24)])
    game = _gmd_game(tournament)
    assert game.elimination_order()[1][0] == 1 << 24 > ELIM_MAX_ENTRIES
    assert game.elimination_plan(None) is None
    assert _gmd_path(tournament) == "cover"
