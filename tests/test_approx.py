import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdlab.approx import (
    approx_gmd_quarter,
    approx_gp_quarter,
    lp_round_expectation,
    lp_round_gmd,
    quarter_expectation_gmd,
    quarter_expectation_gp,
    run_trials,
)
from gmdlab.caps import Caps
from gmdlab.core import CapExceeded, GmdInstance, GpInstance, InstanceError, half_integral_grid
from gmdlab.exact import opt_gmd, opt_gp_grid
from gmdlab.salp import build_sa_lp, marginals_for_rounding, solve_lp_exact

F = Fraction

TRIALS = 10_000


def triangle():
    return GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )


@pytest.mark.parametrize("algorithm, inst", [
    (approx_gmd_quarter, GmdInstance.of(1, 99_999_999_999, [(0, 1, 1, 1)])),
    (approx_gp_quarter, GpInstance.of(99_999_999_999, [(0, 1, 1, 1)])),
])
def test_trial_entry_cap_checked_before_any_work(algorithm, inst):
    # one trial on 10^11 vertices spans 10^11 + 1 entries against the
    # 2^18 cap, refused before the game is built
    kind = "arcs" if isinstance(inst, GmdInstance) else "edges"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(CapExceeded, match=f"^a trial on 99999999999 vertices and 1 {kind} "
                                              "has 100000000000 entries, cap 262144$"):
            run_trials(algorithm, inst, 1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20


def test_trial_entry_cap_counts_one_chunk():
    # a trial on 2 vertices and 1 arc spans 3 entries: a budget of 3 runs
    # the trials one to a chunk, and a budget of 2 holds no trial
    edge = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    one_each = run_trials(approx_gmd_quarter, edge, 300, seed=0, caps=Caps(trial_entries=3))
    assert one_each == run_trials(approx_gmd_quarter, edge, 300, seed=0)
    with pytest.raises(CapExceeded, match="^a trial on 2 vertices and 1 arcs has 3 entries, cap 2$"):
        run_trials(approx_gmd_quarter, edge, 1, seed=0, caps=Caps(trial_entries=2))
    with pytest.raises(CapExceeded, match="^a trial on 2 vertices and 1 arcs has 3 entries, cap 2$"):
        quarter_expectation_gmd(edge, caps=Caps(trial_entries=2))
    # the quarter expectations take their zero sets in chunks the same way
    tri = triangle()
    assert quarter_expectation_gmd(tri, caps=Caps(trial_entries=6)) == quarter_expectation_gmd(tri)
    path = GpInstance.of(3, [(0, 1, 1, 1), (1, 2, 2, F(1, 2))])
    assert quarter_expectation_gp(path, caps=Caps(trial_entries=5)) == quarter_expectation_gp(path)


@pytest.mark.parametrize("algorithm", [approx_gmd_quarter, approx_gp_quarter, lp_round_gmd])
def test_large_instance_batch_memory_is_bounded(algorithm):
    # 1024 trials on a 2000-vertex path: at most 2^18 entries a chunk keep
    # the batch under 16 MB, where one 1024-trial chunk took 78-128 MB
    n = 2000
    pairs = [(v, v + 1, 1, 1) for v in range(n - 1)]
    if algorithm is approx_gp_quarter:
        inst, kwargs = GpInstance.of(n, pairs), {}
    else:
        inst = GmdInstance.of(1, n, pairs)
        kwargs = {"marginals": [[F(1, 2), F(1, 2)]] * n} if algorithm is lp_round_gmd else {}
    tracemalloc.start()
    try:
        run = run_trials(algorithm, inst, 1024, seed=0, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.trials == 1024
    assert peak < 16 << 20


def _traced_peak(work):
    """The result of `work()` and the traced peak it takes, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        return work(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quarter_memory_is_linear_in_T():
    # one arc at T = 2000: the values read the arc, not a 2001 x 2001 pair
    # table, which took 125 MB; the arc pays when its tail's coin is 0 and
    # its head's is 1, whose best response is the arc's label
    from gmdlab.rng import coin_rows

    inst = GmdInstance.of(2000, 2, [(0, 1, 1000, 1)])
    run, peak = _traced_peak(lambda: run_trials(approx_gmd_quarter, inst, 10, seed=3))
    assert peak < 2 << 20
    coins = coin_rows(3, np.arange(10, dtype=np.uint64), 2).tolist()
    assert run.totals == tuple(int(c == [0, 1]) for c in coins) and run.denom == 1
    value, peak = _traced_peak(lambda: quarter_expectation_gmd(inst))
    assert peak < 2 << 20
    assert value == F(1, 4)


def test_lp_round_chunks_count_the_label_comparisons():
    # each trial compares n = 2 draws with T = 500 running sums; counted,
    # they bound the chunks, where uncounted they took 89 MB
    T = 500
    inst = GmdInstance.of(T, 2, [(0, 1, 1, 1)])
    marginals = [[F(1, T + 1)] * (T + 1)] * 2
    run, peak = _traced_peak(lambda: run_trials(lp_round_gmd, inst, 100_000, seed=1,
                                                marginals=marginals))
    assert run.trials == 100_000
    assert peak < 8 << 20


@pytest.mark.parametrize("algorithm", [approx_gp_quarter, approx_gmd_quarter])
def test_chunk_counts_the_responders_score_row(algorithm):
    # the best responses read 20,000 score entries a trial, the centre's
    # 200 prices on a pricing star and 10 labels at each of 2,000 leaves on
    # a max-dicut star, against n + edges or arcs of 401 and 4,001 entries;
    # chunks sized by those alone peaked at 118 and 35 MB
    if algorithm is approx_gp_quarter:
        inst = GpInstance.of(201, [(0, i, i, 1) for i in range(1, 201)])
    else:
        inst = GmdInstance.of(10, 2001, [(0, i, i % 10 + 1, 1) for i in range(1, 2001)])
    tracemalloc.start()
    try:
        run = run_trials(algorithm, inst, 700, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.trials == 700
    assert peak < 16 << 20


def test_gp_quarter_single_edge_expectation():
    # four equally likely coin patterns; the two one-zero patterns price at 1
    inst = GpInstance.of(2, [(0, 1, 1, 1)])
    run = run_trials(approx_gp_quarter, inst, TRIALS, seed=11)
    assert abs(run.mean - 0.5) <= 3 * run.stderr + 1e-12
    assert run.mean >= float(opt_gp_grid(inst, half_integral_grid(inst)).value) / 4 - 3 * run.stderr


def test_gp_quarter_isolated_vertices():
    inst = GpInstance.of(3, [(0, 1, 1, 1)])
    pricing, value = approx_gp_quarter(inst, seed=5)
    assert pricing[2] == 0
    assert value >= 0


def test_gp_quarter_reproducible():
    inst = GpInstance.of(4, [(0, 1, 2, 1), (1, 2, 1, F(1, 2)), (2, 3, 3, 2)])
    a = approx_gp_quarter(inst, seed=99, trial=7)
    b = approx_gp_quarter(inst, seed=99, trial=7)
    assert a == b
    c = approx_gp_quarter(inst, seed=99, trial=8)
    run = run_trials(approx_gp_quarter, inst, 9, seed=99)
    assert (a[1], c[1]) == (F(run.totals[7], run.denom), F(run.totals[8], run.denom))


def test_gmd_quarter_single_edge_expectation():
    inst = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    run = run_trials(approx_gmd_quarter, inst, TRIALS, seed=3)
    assert abs(run.mean - 0.25) <= 3 * run.stderr + 1e-12


def test_gmd_quarter_triangle_expectation():
    # each arc succeeds exactly when its coin pattern is (zero, nonzero): prob 1/4
    run = run_trials(approx_gmd_quarter, triangle(), TRIALS, seed=4)
    assert abs(run.mean - 0.25) <= 3 * run.stderr + 1e-12
    assert run.mean >= float(opt_gmd(triangle()).value) / 4 - 3 * run.stderr


def test_quarter_guarantee_on_random_fixtures():
    from gmdlab.rng import substream

    rng = substream(77, 0)
    for k in range(4):
        T = int(rng.integers(1, 3))
        n = int(rng.integers(3, 7))
        arcs = []
        for _ in range(int(rng.integers(2, 9))):
            u, v = rng.choice(n, size=2, replace=False)
            arcs.append((int(u), int(v), int(rng.integers(1, T + 1)), 1))
        inst = GmdInstance.of(T, n, arcs).normalized()
        run = run_trials(approx_gmd_quarter, inst, 2000, seed=1000 + k)
        opt = float(opt_gmd(inst).value)
        assert run.mean >= opt / 4 - 3 * run.stderr


def test_quarter_gmd_exact_expectation_guarantee():
    # enumerate all coin patterns: the quarter guarantee holds exactly
    from gmdlab.rng import substream

    rng = substream(88, 0)
    for _ in range(8):
        T = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        arcs = []
        for _ in range(int(rng.integers(1, 9))):
            u, v = rng.choice(n, size=2, replace=False)
            arcs.append((int(u), int(v), int(rng.integers(1, T + 1)), F(int(rng.integers(1, 6)), 5)))
        inst = GmdInstance.of(T, n, arcs)
        assert quarter_expectation_gmd(inst) >= opt_gmd(inst).value / 4


def test_quarter_gmd_exact_expectation_single_edge():
    assert quarter_expectation_gmd(GmdInstance.of(1, 2, [(0, 1, 1, 1)])) == F(1, 4)


def test_quarter_gp_exact_expectation_guarantee():
    from gmdlab.rng import substream

    rng = substream(88, 1)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        edges = []
        for _ in range(int(rng.integers(1, 6))):
            u, v = rng.choice(n, size=2, replace=False)
            edges.append((int(u), int(v), int(rng.integers(1, 4)), F(int(rng.integers(1, 4)), 3)))
        inst = GpInstance.of(n, edges)
        opt = opt_gp_grid(inst, half_integral_grid(inst)).value
        assert quarter_expectation_gp(inst) >= opt / 4


def test_quarter_gp_exact_expectation_single_edge():
    assert quarter_expectation_gp(GpInstance.of(2, [(0, 1, 1, 1)])) == F(1, 2)


def test_lp_round_integral_marginals():
    inst = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    marg = [[F(1), F(0)], [F(0), F(1)]]
    _, _, expectation = lp_round_gmd(inst, marg, seed=0)
    assert expectation == F(1, 2)


def test_lp_round_equality_case_of_quadratic_bound():
    inst = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    marg = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    expectation = lp_round_expectation(inst, marg)
    c = F(1, 2)
    assert expectation == F(3, 16) == c / 4 + c * c / 4


def test_lp_round_uniform_marginals():
    inst = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    marg = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    assert lp_round_expectation(inst, marg) == F(3, 16)


def test_lp_round_rejects_non_distribution():
    inst = GmdInstance.of(1, 2, [(0, 1, 1, 1)])
    with pytest.raises(InstanceError):
        lp_round_gmd(inst, [[F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)]], seed=0)


def test_lp_round_empirical_mean_matches_expectation():
    inst = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))])
    marg = [
        [F(1, 2), F(1, 4), F(1, 4)],
        [F(1, 3), F(1, 3), F(1, 3)],
        [F(0), F(1, 2), F(1, 2)],
    ]
    run = run_trials(lp_round_gmd, inst, TRIALS, seed=21, marginals=marg)
    expectation = float(lp_round_expectation(inst, marg))
    assert abs(run.mean - expectation) <= 3 * run.stderr + 1e-12


def _labels_at_scale(T, seed):
    """16 vertices and 40 arcs of weight 1-3, labels drawn from 1, 2, T / 2
    and T, so heads see repeated labels at every T."""
    from gmdlab.rng import substream

    rng = substream(20261022, seed)
    labels = [1, 2, T // 2, T]
    arcs = []
    for _ in range(40):
        u, v = rng.choice(16, size=2, replace=False)
        arcs.append((int(u), int(v), labels[int(rng.integers(0, 4))], int(rng.integers(1, 4))))
    return GmdInstance.of(T, 16, arcs)


@pytest.mark.parametrize("T", [20, 1000, 10**5])
def test_quarter_at_large_T_against_the_optimum(T):
    # the quarter algorithm's exact expectation is at least opt / 4, and
    # 2,000 trials' exact mean lies within 5 standard errors of it
    inst = _labels_at_scale(T, 0)
    opt = opt_gmd(inst).value
    expectation = quarter_expectation_gmd(inst)
    assert expectation >= opt / 4
    run = run_trials(approx_gmd_quarter, inst, 2000, seed=T)
    assert abs(float(run.exact_mean - expectation)) <= 5 * run.stderr


@pytest.mark.parametrize("T", [20, 1000])
def test_lp_round_at_large_T_against_its_expectation(T):
    # marginals putting half of each vertex's mass on its optimal label and
    # spreading the rest over 0..T: 2,000 trials' exact mean lies within 5
    # standard errors of `lp_round_expectation`
    inst = _labels_at_scale(T, 1)
    witness = opt_gmd(inst).witness.values
    marginals = []
    for label in witness:
        dist = [F(1, 2 * (T + 1))] * (T + 1)
        dist[label] += F(1, 2)
        marginals.append(dist)
    expectation = lp_round_expectation(inst, marginals)
    run = run_trials(lp_round_gmd, inst, 2000, seed=T, marginals=marginals)
    assert abs(float(run.exact_mean - expectation)) <= 5 * run.stderr


def _sa_rounding_cases(T):
    """Normalized 3- and 4-vertex paths with labels 1, T / 2 and T, and a
    4-vertex DAG with random labels and weights, at T."""
    from gmdlab.rng import substream

    rng = substream(20261023, T)
    dag = [(u, v, int(rng.integers(1, T + 1)), int(rng.integers(1, 6)))
           for u in range(4) for v in range(u + 1, 4) if rng.random() < 0.7]
    return [GmdInstance.of(T, 3, [(0, 1, 1, 1), (1, 2, T, 1)]).normalized(),
            GmdInstance.of(T, 4, [(0, 1, 1, 1), (1, 2, T // 2, 1), (2, 3, T, 1)]).normalized(),
            GmdInstance.of(T, 4, dag).normalized()]


@pytest.mark.parametrize("T", [20, 50])
def test_lp_round_at_large_T_against_the_sa_guarantee(T):
    # the rounding of the 2-round Sherali-Adams optimum earns, exactly, at
    # least lp/4 + lp^2/4 >= (1/4 + 1/(16T)) opt, and 2,000 trials' exact
    # mean lies within 5 standard errors of its expectation; a 4-vertex LP
    # at T = 50 has 15,810 variables, past the default `lp_entries`
    for k, inst in enumerate(_sa_rounding_cases(T)):
        lp, sol = solve_lp_exact(build_sa_lp(inst, rounds=2, caps=Caps(lp_entries=1 << 24)))
        marginals = marginals_for_rounding(sol, inst)
        expectation = lp_round_expectation(inst, marginals)
        assert expectation >= lp / 4 + lp * lp / 4 >= (F(1, 4) + F(1, 16 * T)) * opt_gmd(inst).value
        run = run_trials(lp_round_gmd, inst, 2000, seed=T + k, marginals=marginals)
        assert abs(float(run.exact_mean - expectation)) <= 5 * run.stderr


def test_exact_means_pinned_at_fixed_seeds():
    # values recorded with the per-trial Fraction evaluation the integer
    # trials replaced; any drift in streams, completions or values shows here
    gmd = GmdInstance.of(2, 6, [
        (0, 2, 1, F(1, 8)), (1, 2, 2, F(1, 8)), (2, 3, 1, F(1, 8)), (3, 4, 2, F(1, 8)),
        (4, 5, 1, F(1, 8)), (5, 0, 2, F(1, 8)), (1, 4, 1, F(1, 8)), (3, 0, 2, F(1, 8)),
    ])
    gp = GpInstance.of(4, [(0, 1, 2, 1), (1, 2, 1, F(1, 2)), (2, 3, 3, F(3, 2)), (0, 3, 2, 1)])
    path = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))])
    marg = [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 3), F(1, 3), F(1, 3)], [F(1, 5), F(2, 5), F(2, 5)]]
    assert run_trials(approx_gmd_quarter, gmd, 400, seed=2026).exact_mean == F(137, 640)
    assert run_trials(approx_gp_quarter, gp, 400, seed=2027).exact_mean == F(991, 200)
    assert run_trials(lp_round_gmd, path, 400, seed=2028, marginals=marg).exact_mean == F(83, 800)


def _plain_price_completion(inst, zero):
    """The completion as first written: each non-zero vertex tries the budgets
    of its edges into the zero set in ascending order and keeps a strictly
    better profit, starting from price 0."""
    prices = []
    for v in range(inst.n):
        into_zero = [e for e in inst.edges if (e.u == v and zero[e.v]) or (e.v == v and zero[e.u])]
        best_q, best_profit = F(0), F(0)
        if not zero[v]:
            for q in sorted({e.budget for e in into_zero}):
                profit = sum((e.weight * q for e in into_zero if q <= e.budget), F(0))
                if profit > best_profit:
                    best_q, best_profit = q, profit
        prices.append(best_q)
    return tuple(prices)


def test_gp_price_completion_against_plain_loop():
    from gmdlab.approx import gp_price_completion
    from gmdlab.rng import substream

    rng = substream(20261018, 3)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        edges = []
        for _ in range(int(rng.integers(1, 9))):
            u, v = rng.choice(n, size=2, replace=False)
            # small ranges make equal profits, and so ties, common
            edges.append((int(u), int(v), F(int(rng.integers(1, 5)), int(rng.integers(1, 3))),
                          F(int(rng.integers(0, 3)), 2)))
        inst = GpInstance.of(n, edges)
        zero = [bool(z) for z in rng.integers(0, 2, size=n)]
        assert gp_price_completion(inst, zero).values == _plain_price_completion(inst, zero)


# ---------------------------------------------------------------------------
# the batch kernel against the per-trial loop it replaced
# ---------------------------------------------------------------------------


def _reference_trial(kind, inst, seed, k, marginals=None):
    """Trial k as the runtime computed it before the batch kernel: one
    generator per trial, then a best response per vertex (or the LP
    rounding's float thresholds), both read from the instance, and the
    labeling's or pricing's exact value.  Returns the labeling or pricing
    and its value."""
    from gmdlab.approx import _gp_responder
    from gmdlab.core import Labeling, Pricing, val_gmd, val_gp
    from gmdlab.rng import substream

    rng = substream(seed, k)
    if kind == "gmdlp":
        T = inst.T
        values = []
        for draw, dist in zip(rng.random(inst.n).tolist(), marginals):
            acc, slices = 0.0, []
            for i in range(1, T + 1):
                acc += float(dist[i] / 2)
                slices.append(acc)
            cut = float((1 + dist[0]) / 2)
            if draw < cut:
                values.append(0)
                continue
            rest = draw - cut
            values.append(next((i for i, acc in enumerate(slices, 1) if rest < acc), T))
        lab = Labeling(tuple(values))
        return lab, val_gmd(inst, lab)
    zero = (rng.integers(0, 2, size=inst.n) == 0).tolist()
    if kind == "gp4":
        # price 0 on the zero set; elsewhere the first price of the domain
        # (0 then the incident budgets, ascending) of largest profit from
        # the edges into the zero set
        domains = _gp_responder(inst)[1]
        prices = []
        for v, z in enumerate(zero):
            if z:
                prices.append(F(0))
                continue
            scores = []
            for p in domains[v]:
                score = F(0)
                for e in inst.edges:
                    if v in (e.u, e.v) and zero[e.u + e.v - v] and p <= e.budget:
                        score += e.weight * p
                scores.append(score)
            prices.append(domains[v][scores.index(max(scores))])
        pricing = Pricing(tuple(prices))
        return pricing, val_gp(inst, pricing)
    # label 0 on the zero set; elsewhere the first label of largest weight
    # of in-arcs from the zero set
    labels = []
    for v, z in enumerate(zero):
        if z:
            labels.append(0)
            continue
        scores = [sum((a.weight for a in inst.arcs if a.head == v and a.label == t and zero[a.tail]),
                      F(0)) for t in range(1, inst.T + 1)]
        labels.append(1 + scores.index(max(scores)))
    lab = Labeling(tuple(labels))
    return lab, val_gmd(inst, lab)


ALGORITHMS = {"gp4": approx_gp_quarter, "gmd4": approx_gmd_quarter, "gmdlp": lp_round_gmd}


def _single(kind, inst, seed, k, marginals):
    if kind == "gmdlp":
        return lp_round_gmd(inst, marginals, seed, trial=k)[:2]
    return ALGORITHMS[kind](inst, seed, trial=k)


def _assert_batch_matches_reference(kind, inst, seed, trials, marginals=None, caps=Caps()):
    kwargs = {"marginals": marginals} if kind == "gmdlp" else {}
    run = run_trials(ALGORITHMS[kind], inst, trials, seed, caps=caps, **kwargs)
    want = [_reference_trial(kind, inst, seed, k, marginals) for k in range(trials)]
    assert [F(t, run.denom) for t in run.totals] == [value for _, value in want]
    for k in {0, trials // 2, trials - 1}:
        assert _single(kind, inst, seed, k, marginals) == want[k]
    far = (1 << 64) + trials - 1  # trial indices are taken modulo 2^64
    assert _single(kind, inst, seed, far, marginals) == want[trials - 1]
    top = _reference_trial(kind, inst, seed, (1 << 64) - 1, marginals)
    assert _single(kind, inst, seed, -1, marginals) == top


# two weights F(2^61) on different pairs fail `int64()`: the object-dtype path
HUGE = F(1 << 61)
WEIGHTS = [F(0), F(1), F(2), F(1, 2), F(2, 3), HUGE]


@st.composite
def batch_cases(draw):
    """An instance for each kind: n 1-9, edges among the first k vertices,
    so parallel and antiparallel arcs are common and the others isolated;
    a seed anywhere in the 64-bit key range, signed or not."""
    kind = draw(st.sampled_from(sorted(ALGORITHMS)))
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    T = draw(st.integers(1, 3))
    weight = st.sampled_from(WEIGHTS)
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    ends = [e for e in draw(st.lists(pair, max_size=14)) if e[0] != e[1]]
    marginals = None
    if kind == "gp4":
        budget = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(7, 3)])
        inst = GpInstance.of(n, [(u, v, draw(budget), draw(weight)) for u, v in ends])
    else:
        label = st.integers(1, T)
        inst = GmdInstance.of(T, n, [(u, v, draw(label), draw(weight)) for u, v in ends])
        if kind == "gmdlp":
            marginals = []
            for _ in range(n):
                raw = draw(st.lists(st.integers(0, 4), min_size=T + 1, max_size=T + 1))
                raw[0] += 0 if sum(raw) else 1
                marginals.append([F(r, sum(raw)) for r in raw])
    seed = draw(st.integers(-(1 << 64), (1 << 64) - 1))
    return kind, inst, seed, draw(st.integers(1, 40)), marginals


@settings(max_examples=200, deadline=None)
@given(batch_cases())
def test_batch_kernel_matches_per_trial_loop(case):
    _assert_batch_matches_reference(*case)


@pytest.mark.parametrize("kind", sorted(ALGORITHMS))
def test_batch_kernel_object_path_and_chunks(kind):
    # weights past int64 run on Python ints; a budget of 100 entries runs
    # the 1027 trials in chunks of 10 or 11
    from gmdlab.approx import _gp_responder
    from gmdlab.exact import _GmdResponder

    marginals = None
    if kind == "gp4":
        inst = GpInstance.of(5, [(0, 1, 2, HUGE), (1, 2, 1, F(1, 3)), (1, 0, 3, HUGE),
                                 (2, 3, F(3, 2), 1)])
        assert not _gp_responder(inst)[0].in_int64
    else:
        inst = GmdInstance.of(2, 5, [(0, 1, 1, HUGE), (1, 0, 2, HUGE), (1, 2, 2, F(1, 3)),
                                     (0, 1, 2, 1), (3, 2, 1, 5)])
        assert not _GmdResponder(inst).in_int64
        marginals = [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 3), F(1, 3), F(1, 3)], [F(0), F(1), F(0)],
                     [F(1), F(0), F(0)], [F(1, 5), F(2, 5), F(2, 5)]]
    _assert_batch_matches_reference(kind, inst, -7, 1027, marginals, Caps(trial_entries=100))


@pytest.mark.parametrize("kind", sorted(ALGORITHMS))
@pytest.mark.parametrize("weight", [F(2, 3), HUGE], ids=["int64", "object"])
def test_run_trials_totals_do_not_depend_on_the_budget(kind, weight):
    # a trial spans 4 vertices + 3 pairs = 7 entries: budgets from one
    # trial a chunk to all 50 in one
    from gmdlab.approx import _gp_responder
    from gmdlab.exact import _GmdResponder

    if kind == "gp4":
        inst = GpInstance.of(4, [(0, 1, 2, weight), (1, 2, 1, weight), (2, 3, F(3, 2), 1)])
        resp = _gp_responder(inst)[0]
    else:
        inst = GmdInstance.of(2, 4, [(0, 1, 1, weight), (1, 2, 2, weight), (2, 3, 2, F(1, 3))])
        resp = _GmdResponder(inst)
    assert resp.in_int64 == (weight != HUGE)
    marginals = [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 3), F(1, 3), F(1, 3)], [F(0), F(1), F(0)],
                 [F(1), F(0), F(0)]]
    kwargs = {"marginals": marginals} if kind == "gmdlp" else {}
    runs = [run_trials(ALGORITHMS[kind], inst, 50, 3, caps=Caps(trial_entries=budget), **kwargs)
            for budget in (7, 8, 14, 49, 350)]
    assert all(run == runs[0] for run in runs)

