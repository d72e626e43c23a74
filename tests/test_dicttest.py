import math
import random
from fractions import Fraction

import pytest

from gmdlab.caps import Caps
from gmdlab import dicttest
from gmdlab.core import CapExceeded, InstanceError
from gmdlab.dicttest import (
    acceptance_probability,
    build_correlated_space,
    build_test_instance,
    constant,
    dictator,
    dictator_beats_soundness_line,
    dictator_completeness,
    evaluate_acceptance,
    exact_correlation,
    influence,
    soundness_line,
    soundness_report,
)
from gmdlab.gapgen import DagSkeleton

F = Fraction

EDGE = DagSkeleton(n=2, arcs=((0, 1),))


def test_space_T16_default_delta_is_half():
    space = build_correlated_space(16)
    assert space.delta == F(1, 2)
    assert space.P[0] == F(1, 2)
    assert space.P[1] == F(1, 32)


def test_space_marginals_match_on_both_sides():
    space = build_correlated_space(4, delta=F(2, 3))
    for t in range(1, 5):
        joint = space.joint(t)
        assert sum(joint.values()) == 1
        for z in range(space.q):
            assert sum(p for (x, y), p in joint.items() if x == z) == space.P[z]
            assert sum(p for (x, y), p in joint.items() if y == z) == space.P[z]


def test_space_head_label_forces_zero_tail():
    space = build_correlated_space(3, delta=F(1, 2))
    for t in range(1, 4):
        for (x, y), p in space.joint(t).items():
            if y == t:
                assert x == 0 and p > 0


def test_space_rejects_too_small_delta():
    with pytest.raises(InstanceError):
        build_correlated_space(3, delta=F(1, 5))  # 1/5 * 4 < 1


def test_exact_correlation_degenerate():
    space = build_correlated_space(1, delta=F(1))
    rho, bound = exact_correlation(space)
    assert rho == 0.0


def test_exact_correlation_dual_methods_and_bound():
    for T in (2, 4, 16, 256):
        space = build_correlated_space(T)
        rho, bound = exact_correlation(space, tol=1e-10)
        assert rho <= bound
        assert bound == pytest.approx(math.sqrt(2 / (T * float(space.delta))))


def test_exact_correlation_irrational_delta():
    space = build_correlated_space(4)  # delta = 4^(-1/4), irrational
    rho, _ = exact_correlation(space, tol=1e-10)
    d = 4 ** (-0.25)
    assert rho == pytest.approx((1 - d) / math.sqrt(d * (4 - 1 + d)), abs=1e-12)


def test_build_test_instance_single_edge_T1():
    space = build_correlated_space(1, delta=F(3, 4))
    ti = build_test_instance(space, EDGE, R=1)
    assert ti.instance.n == 2 * 2
    assert ti.instance.total_weight == 1


def test_build_test_instance_matches_hand_enumeration():
    space = build_correlated_space(2, delta=F(1, 2))
    ti = build_test_instance(space, EDGE, R=1)
    block = 3
    seen = {}
    for a in ti.instance.arcs:
        x = a.tail % block
        y = a.head % block
        seen[(x, y, a.label)] = a.weight * 2  # undo the 1/(|A| T) scale
    for t in (1, 2):
        for (x, y), p in space.joint(t).items():
            assert seen[(x, y, t)] == p


def test_test_instance_cap():
    space = build_correlated_space(16)
    with pytest.raises(CapExceeded):
        build_test_instance(space, EDGE, R=2, caps=Caps(test_edges=1000))


def test_dictator_acceptance_T16_exact():
    space = build_correlated_space(16, delta=F(1, 2))
    fn = dictator(space, R=2, i=0)
    acc = acceptance_probability(space, EDGE, R=2, functions=[fn, fn])
    assert acc == F(1, 32) == dictator_completeness(space)


def test_materialized_and_streaming_agree():
    space = build_correlated_space(2, delta=F(1, 2))
    ti = build_test_instance(space, EDGE, R=1)
    for i in range(1):
        fn = dictator(space, R=1, i=i)
        assert evaluate_acceptance(ti, [fn, fn]) == acceptance_probability(
            space, EDGE, R=1, functions=[fn, fn]
        )
    f0 = constant(space, R=1, value=0)
    f2 = constant(space, R=1, value=2)
    assert evaluate_acceptance(ti, [f0, f2]) == acceptance_probability(
        space, EDGE, R=1, functions=[f0, f2]
    )


PATH3 = DagSkeleton(n=3, arcs=((0, 1), (0, 2), (1, 2)))


def _random_tables(space, R, count, seed):
    rng = random.Random(seed)
    return [[rng.randrange(space.q) for _ in range(space.q**R)] for _ in range(count)]


@pytest.mark.parametrize("limit", [1, 49, 1 << 22])
def test_chunked_sum_matches_materialized_instance(monkeypatch, limit):
    # T = 2, delta = 1/2: 7 support pairs per target label, so the limits
    # build 1, 2 and all 3 of the R = 3 coordinates in numpy
    monkeypatch.setattr(dicttest, "STREAM_ENTRIES", limit)
    space = build_correlated_space(2, delta=F(1, 2))
    ti = build_test_instance(space, PATH3, R=3)
    for seed in range(3):
        tables = _random_tables(space, 3, 3, seed)
        want = evaluate_acceptance(ti, tables)
        assert acceptance_probability(space, PATH3, 3, tables) == want
    fn = dictator(space, R=3, i=2)
    assert acceptance_probability(space, PATH3, 3, [fn] * 3) == dictator_completeness(space)


@pytest.mark.parametrize("limit", [1, 1 << 22])
def test_object_dtype_sum_matches_materialized_instance(monkeypatch, limit):
    # the joint's common denominator squared is past 2^62, so the sum runs
    # on Python ints
    monkeypatch.setattr(dicttest, "STREAM_ENTRIES", limit)
    space = build_correlated_space(2, delta=F(10**12 + 1, 2 * 10**12))
    denom = math.lcm(*(p.denominator for t in (1, 2) for p in space.joint(t).values()))
    assert denom**2 >= 2**62
    ti = build_test_instance(space, PATH3, R=2)
    for seed in range(3):
        tables = _random_tables(space, 2, 3, seed)
        assert acceptance_probability(space, PATH3, 2, tables) == evaluate_acceptance(ti, tables)


def test_float_chunked_sum_agrees_with_one_chunk(monkeypatch):
    space = build_correlated_space(3, delta=0.4)
    tables = _random_tables(space, 3, 3, 0)
    whole = acceptance_probability(space, PATH3, 3, tables)
    monkeypatch.setattr(dicttest, "STREAM_ENTRIES", 1)
    assert math.isclose(acceptance_probability(space, PATH3, 3, tables), whole, rel_tol=1e-14)


def test_dictators_on_every_coordinate():
    space = build_correlated_space(2, delta=F(1, 2))
    for i in range(2):
        fn = dictator(space, R=2, i=i)
        acc = acceptance_probability(space, EDGE, R=2, functions=[fn, fn])
        assert acc == dictator_completeness(space)


def test_constant_functions():
    space = build_correlated_space(2, delta=F(1, 2))
    ti = build_test_instance(space, EDGE, R=1)
    zero = constant(space, R=1, value=0)
    assert evaluate_acceptance(ti, [zero, zero]) == 0
    # tail constant 0, head constant t0: accepted exactly when the sampled
    # target label equals t0, regardless of the drawn pair
    head = constant(space, R=1, value=2)
    assert evaluate_acceptance(ti, [zero, head]) == F(1, 2)


def test_acceptance_in_unit_interval_and_weights_sum():
    space = build_correlated_space(3, delta=F(1, 2))
    ti = build_test_instance(space, EDGE, R=1)
    assert ti.instance.total_weight == 1
    for name_fn in (constant(space, 1, 1), dictator(space, 1, 0)):
        acc = evaluate_acceptance(ti, [name_fn, name_fn])
        assert 0 <= acc <= 1


def test_influence_dictator_indicator():
    space = build_correlated_space(2, delta=F(1, 2))
    R = 2
    t = 1
    table = [1 if x == t else 0 for x in dictator(space, R, 0)]
    inf0 = influence(space, table, 0)
    inf1 = influence(space, table, 1)
    p = space.P[t]
    assert inf0 == p * (1 - p)
    assert inf1 == 0


def test_influence_constant_zero():
    space = build_correlated_space(2, delta=F(1, 2))
    table = constant(space, R=2, value=1)
    assert influence(space, [1 if x == 1 else 0 for x in table], 0) == 0


def test_influence_equality_function_hand_computed():
    # f(x) = [x_0 == x_1] with T=1, delta=1/2: balanced coin per coordinate
    space = build_correlated_space(1, delta=F(1, 2))
    table = [1 if (code % 2) == (code // 2) else 0 for code in range(4)]
    # conditional on x_1, f is an indicator of x_0 = x_1: variance 1/4
    assert influence(space, table, 0) == F(1, 4)
    assert influence(space, table, 1) == F(1, 4)


def test_influence_sum_bounded_single_nonzero_for_dictators():
    space = build_correlated_space(2, delta=F(1, 2))
    R = 3
    table = [1 if x == 2 else 0 for x in dictator(space, R, 1)]
    infs = [influence(space, table, i) for i in range(R)]
    assert sum(1 for v in infs if v != 0) == 1


def test_completeness_exceeds_soundness_line_threshold():
    # exact integer characterization: holds iff 81 T > 160000
    threshold = 160_000 // 81 + 1
    assert dictator_beats_soundness_line(threshold)
    assert not dictator_beats_soundness_line(threshold - 1)
    for T in (2, 16, 256):
        assert not dictator_beats_soundness_line(T)
    for T in (2048, 4096):
        got = dictator_beats_soundness_line(T)
        expect = (1 - T ** (-0.25)) / T > soundness_line(T)
        assert got == expect


def test_soundness_report_runs_and_orders():
    space = build_correlated_space(2, delta=F(1, 2))
    rows = soundness_report(space, EDGE, R=2, seed=1)
    names = {r.name for r in rows}
    assert "constant-0" in names and "shifted-dictator-0" in names
    for r in rows:
        assert 0 <= r.acceptance <= 1


def test_rounds_below_one_rejected():
    space = build_correlated_space(2, delta=F(1, 2))
    for R in (0, -1):
        for call in (
            lambda: build_test_instance(space, EDGE, R=R),
            lambda: acceptance_probability(space, EDGE, R, [[0], [0]]),
            lambda: soundness_report(space, EDGE, R=R),
        ):
            with pytest.raises(InstanceError, match=f"R must be >= 1, got {R}"):
                call()


def test_acyclicity_of_composed_instance():
    from gmdlab.reduction import topo_number

    space = build_correlated_space(1, delta=F(1, 2))
    chain = DagSkeleton(n=3, arcs=((2, 1), (1, 0)))
    ti = build_test_instance(space, chain, R=1)
    topo_number(ti.instance)  # must not raise
