import itertools
import os
from fractions import Fraction

import pytest

from gmdlab.core import (
    GmdInstance,
    InstanceError,
    Labeling,
    Pricing,
    ndeg,
    parse_instance,
    val_gmd,
    val_gp,
)
from gmdlab.exact import opt_gmd, opt_gp_grid
from gmdlab.reduction import (
    CycleError,
    canonical_grid,
    canonical_pricing,
    decode_pricing,
    nonprincipal_part,
    principal_part,
    reduce_gmd_to_gp,
    serialize_reduced,
    topo_number,
)
from gmdlab.rng import substream

F = Fraction


def single_edge():
    return GmdInstance.of(1, 2, [(0, 1, 1, 1)])


def test_topo_number_single_edge_and_chain():
    assert topo_number(single_edge()) == (2, 1)
    chain = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))])
    assert topo_number(chain) == (3, 2, 1)


def test_topo_number_cycle_witness():
    cyc = GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )
    with pytest.raises(CycleError) as exc:
        topo_number(cyc)
    witness = exc.value.cycle
    assert sorted(witness) == [0, 1, 2]


def test_reduce_single_edge_formulas():
    art = reduce_gmd_to_gp(single_edge(), M=10)
    e = art.gp.edges[0]
    assert e.budget == 10
    assert e.weight == F(1, 10)


def test_reduce_budgets_distinct_powers():
    chain = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))])
    art = reduce_gmd_to_gp(chain, M=10)
    budgets = [e.budget for e in art.gp.edges]
    assert len(set(budgets)) == len(budgets)
    for b in budgets:
        assert b.denominator == 1
        digits = str(b.numerator)
        assert digits[0] == "1" and set(digits[1:]) <= {"0"}


def test_reduce_validations():
    with pytest.raises(InstanceError):
        reduce_gmd_to_gp(single_edge(), M=1)
    unnormalized = GmdInstance.of(1, 2, [(0, 1, 1, F(1, 2))])
    with pytest.raises(InstanceError):
        reduce_gmd_to_gp(unnormalized, M=10)
    cyc = GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )
    with pytest.raises(CycleError):
        reduce_gmd_to_gp(cyc, M=10)


def test_canonical_pricing_single_edge():
    art = reduce_gmd_to_gp(single_edge(), M=10)
    p = canonical_pricing(art, Labeling((0, 1)))
    assert p.values == (F(0), F(10))
    assert val_gp(art.gp, p) == 1 == val_gmd(single_edge(), Labeling((0, 1)))
    zero = canonical_pricing(art, Labeling((0, 0)))
    assert val_gp(art.gp, zero) == 0


def test_canonical_pricing_dominates_value_all_labelings():
    inst = GmdInstance.of(
        2,
        4,
        [
            (1, 0, 1, F(1, 4)),
            (2, 0, 2, F(1, 4)),
            (2, 1, 1, F(1, 4)),
            (3, 1, 2, F(1, 4)),
        ],
    )
    art = reduce_gmd_to_gp(inst, M=10)
    for values in itertools.product(range(inst.T + 1), repeat=inst.n):
        lab = Labeling(values)
        assert val_gp(art.gp, canonical_pricing(art, lab)) >= val_gmd(inst, lab)


def test_decode_recovers_canonical_labeling():
    art = reduce_gmd_to_gp(single_edge(), M=10)
    assert decode_pricing(art, Pricing.of([0, 10])).values == (0, 1)
    assert decode_pricing(art, Pricing.of([0, 0])).values == (0, 0)
    # price above every bracket decodes to 0
    assert decode_pricing(art, Pricing.of([0, 10_000])).values == (0, 0)


def test_decode_matches_value_of_canonical_pricing():
    inst = GmdInstance.of(
        2,
        4,
        [
            (1, 0, 1, F(1, 4)),
            (2, 0, 2, F(1, 4)),
            (2, 1, 1, F(1, 4)),
            (3, 1, 2, F(1, 4)),
        ],
    )
    art = reduce_gmd_to_gp(inst, M=10)
    for values in itertools.product(range(inst.T + 1), repeat=inst.n):
        lab = Labeling(values)
        decoded = decode_pricing(art, canonical_pricing(art, lab))
        # decoded labels may disagree with lab on useless vertices but the
        # head-side guarantee keeps the value within 1/M of the principal part
        p = canonical_pricing(art, lab)
        assert val_gmd(inst, decoded) >= principal_part(art, p) - F(1, art.M)
        assert val_gmd(inst, decoded) >= val_gmd(inst, lab) - F(1, art.M)


def _random_layered_dag(rng, tails, heads, T):
    arcs = []
    for u in range(tails):
        for v in range(heads):
            for t in range(1, T + 1):
                if rng.random() < 0.9:
                    arcs.append((u, tails + v, t, 1))
    n = tails + heads
    return GmdInstance.of(T, n, arcs).normalized()


def test_reduction_sandwich_on_random_dags():
    rng = substream(515, 0)
    done = 0
    while done < 6:
        inst = _random_layered_dag(rng, 2, int(rng.integers(5, 7)), 2)
        nd = ndeg(inst)
        if nd < 10:
            continue
        done += 1
        art = reduce_gmd_to_gp(inst, M=10)
        opt = opt_gmd(inst).value
        grid_opt = opt_gp_grid(art.gp, canonical_grid(art)).value
        assert opt <= grid_opt
        assert grid_opt <= opt + F(1, 10) + 2 / nd


# The golden `gap` instances, n 12-100, reduced at M = 10: their canonical
# grids have 10^5 to 10^47 points, and the payoffs times the point count
# pass int64 from n = 40 on, so those grid passes run on Python-int tables.
# Past 24 vertices `opt_gmd` eliminates on Python ints at payoff scale 2^n.
# `gap-n200-s0` is left out: those tables exceed `ELIM_MAX_BYTES` there, and
# its 2^200 zero masks are past the walk's, so `opt_gmd` refuses it.
GAP_GOLDENS = ["gap12", "gap-l11", "gap-n25-s1", "gap-n40-s0", "gap-n40-s5", "gap-window",
               "gap-n100-s1"]


@pytest.mark.parametrize("name", GAP_GOLDENS)
def test_reduction_sandwich_on_golden_gap_instances(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", f"{name}.gmd")
    with open(path) as fh:
        inst = parse_instance(fh.read())
    art = reduce_gmd_to_gp(inst, M=10)
    opt = opt_gmd(inst).value
    grid_opt = opt_gp_grid(art.gp, canonical_grid(art)).value
    assert opt <= grid_opt <= opt + F(1, 10) + 2 / ndeg(inst)


def test_nonprincipal_bound_on_grid_pricings():
    inst = _random_layered_dag(substream(515, 1), 2, 5, 2)
    art = reduce_gmd_to_gp(inst, M=10)
    grid = canonical_grid(art)
    rng = substream(515, 2)
    for _ in range(60):
        pricing = Pricing(tuple(g[int(rng.integers(0, len(g)))] for g in grid))
        total = val_gp(art.gp, pricing)
        pp = principal_part(art, pricing)
        np_part = nonprincipal_part(art, pricing)
        assert pp + np_part == total
        assert np_part <= 2 / ndeg(inst)


def test_serialize_reduced_round_trip():
    chain = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))])
    art = reduce_gmd_to_gp(chain, M=10)
    text = serialize_reduced(art)
    assert "M 10" in text and "M^" in text
    parsed = parse_instance(text)
    assert parsed == art.gp
    expanded = parse_instance(serialize_reduced(art, expand=True))
    assert expanded == art.gp
