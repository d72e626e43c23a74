import itertools
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gmdlab.sasol as sasol
from gmdlab.caps import Caps
from gmdlab.core import CapExceeded, GmdInstance, InstanceError, parse_instance
from gmdlab.rng import substream
from gmdlab.salp import check_sa_consistency
from gmdlab.sasol import (
    AmbiguousPathError,
    EdgeVectorSystem,
    EmbeddingError,
    TableMismatchError,
    _argmax_labels,
    _check_arc_counts,
    _gram_matrix,
    build_sa_solution,
    embed_vectors,
    local_distribution_tree,
    noise_for_target_gap,
    pairwise_rho,
    round_and_estimate,
)

F = Fraction


def edge_instance(T=2, label=1):
    return GmdInstance.of(T, 2, [(0, 1, label, 1)])


def path2(T=2, t1=1, t2=2):
    return GmdInstance.of(T, 3, [(0, 1, t1, F(1, 2)), (1, 2, t2, F(1, 2))])


def match_pairs(inst, u, v, max_dist=None):
    """The T+1 label pairs extendable to weakly satisfy the unique shortest
    u..v path (head label minus tail label equals the arc label mod T+1),
    by the search pairwise_rho runs from each vertex."""
    q = inst.T + 1
    depth = max_dist if max_dist is not None else inst.n
    dist, count, offset = sasol._bounded_shortest_paths(sasol._delta_adjacency(inst), u, depth)
    if v not in dist:
        raise AmbiguousPathError(f"vertices {u},{v} are farther than {depth} apart or disconnected")
    if count[v] != 1:
        raise AmbiguousPathError(f"shortest path {u}..{v} is not unique")
    return frozenset((i, (i + offset[v]) % q) for i in range(q))


def test_match_pairs_adjacent():
    inst = edge_instance(T=2, label=2)
    assert match_pairs(inst, 0, 1) == frozenset({(0, 2), (1, 0), (2, 1)})


def test_match_pairs_identity_at_distance_zero():
    inst = edge_instance(T=1)
    assert match_pairs(inst, 0, 0) == frozenset({(0, 0), (1, 1)})


def test_match_pairs_compose_offsets():
    inst = path2(T=2, t1=1, t2=2)
    # both arcs forward: offset (1 + 2) mod 3 = 0
    assert match_pairs(inst, 0, 2) == frozenset({(0, 0), (1, 1), (2, 2)})
    # reversed middle arc subtracts its label
    rev = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (2, 1, 2, F(1, 2))])
    assert match_pairs(rev, 0, 2) == frozenset({(i, (i - 1) % 3) for i in range(3)})


def test_match_pairs_ambiguity_detected():
    square = GmdInstance.of(
        1,
        4,
        [(0, 1, 1, F(1, 4)), (1, 3, 1, F(1, 4)), (0, 2, 1, F(1, 4)), (2, 3, 1, F(1, 4))],
    )
    with pytest.raises(AmbiguousPathError):
        match_pairs(square, 0, 3)
    parallel = GmdInstance.of(2, 2, [(0, 1, 1, F(1, 2)), (0, 1, 2, F(1, 2))])
    with pytest.raises(AmbiguousPathError):
        match_pairs(parallel, 0, 1)


def test_pairwise_rho_adjacent_values():
    mu = F(1, 4)
    table = pairwise_rho(edge_instance(T=2), mu, L=1)
    match = table.entry(0, 0, 1, 1)
    other = table.entry(0, 0, 1, 2)
    assert match == (1 - mu) / 3 + mu / 9
    assert other == mu / 9


def test_pairwise_rho_beyond_L_and_diagonal():
    inst = path2()
    table = pairwise_rho(inst, F(1, 4), L=1)
    # distance 2 exceeds L: independent table value
    assert table.entry(0, 1, 2, 2) == F(1, 9)
    assert table.entry(0, 1, 0, 1) == F(1, 3)
    assert table.entry(0, 1, 0, 2) == 0


def test_pairwise_rho_full_noise():
    table = pairwise_rho(edge_instance(T=1), F(1), L=3)
    for i, ip in itertools.product(range(2), repeat=2):
        assert table.entry(0, i, 1, ip) == F(1, 4)


def test_pairwise_rho_rows_sum_within_L():
    inst = path2()
    table = pairwise_rho(inst, F(2, 7), L=2)
    for u, v in [(0, 1), (0, 2), (1, 2)]:
        for i in range(3):
            assert sum(table.entry(u, i, v, ip) for ip in range(3)) == F(1, 3)
            assert all(
                0 <= table.entry(u, i, v, ip) <= F(1, 3) for ip in range(3)
            )


def test_local_distribution_single_edge_exact():
    mu = F(1, 5)
    inst = edge_instance(T=2, label=1)
    dist = local_distribution_tree(inst, mu, S=(0, 1))
    for i, ip in itertools.product(range(3), repeat=2):
        expected = (1 - mu) / 3 + mu / 9 if (ip - i) % 3 == 1 else mu / 9
        assert dist[(i, ip)] == expected


def test_local_distribution_full_noise_is_product():
    inst = path2(T=1, t1=1, t2=1)
    dist = local_distribution_tree(inst, F(1), S=(0, 1, 2))
    assert all(p == F(1, 8) for p in dist.values())


def test_local_distribution_matches_rho_within_L():
    inst = path2(T=2)
    mu = F(1, 3)
    table = pairwise_rho(inst, mu, L=2)
    dist = local_distribution_tree(inst, mu, S=(0, 2))
    for i, ip in itertools.product(range(3), repeat=2):
        assert dist[(i, ip)] == table.entry(0, i, 2, ip)


def test_local_distribution_rho_gap_bound_beyond_L():
    # with L=1 the table treats the endpoints of a 2-path as independent;
    # the true tree distribution differs by at most (1-mu)^L / (T+1)
    inst = path2(T=2)
    mu = F(1, 3)
    L = 1
    table = pairwise_rho(inst, mu, L=L)
    dist = local_distribution_tree(inst, mu, S=(0, 2))
    bound = (1 - mu) ** L / 3
    for i, ip in itertools.product(range(3), repeat=2):
        assert abs(dist[(i, ip)] - table.entry(0, i, 2, ip)) <= bound


def test_local_distribution_rejects_cycles():
    tri = GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )
    with pytest.raises(Exception):
        local_distribution_tree(tri, F(1, 2), S=(0, 1))


def test_embed_adjacent_pair_gram_values():
    table = pairwise_rho(edge_instance(T=1), F(1, 10), L=1)
    vs = embed_vectors(table)
    assert vs.gram.shape == (4, 4)
    assert vs.gram[0, 0] == pytest.approx(0.6)
    # (0, label 0) matches (1, label 1) for arc label 1
    assert vs.gram[0, 3] == pytest.approx(0.525)
    assert np.abs(vs.factors @ vs.factors.T - vs.gram).max() <= 1e-9


def test_embed_single_vertex():
    inst = GmdInstance.of(2, 2, [(0, 1, 1, 1)])
    table = pairwise_rho(inst, F(1, 4), L=1)
    vs = embed_vectors(table, S=(0,))
    assert vs.gram.shape == (3, 3)
    assert vs.gram[0, 0] == pytest.approx(0.25 + 1 / 3)
    assert vs.gram[0, 1] == pytest.approx(0.125)


def test_embed_refuses_repeated_and_foreign_vertices():
    # a repeated vertex gave a 9 x 9 Gram for S = [0, 0, 1], and a vertex
    # outside the instance one of its own
    table = pairwise_rho(block_instance("gap12"), F(1, 2), L=1)
    with pytest.raises(InstanceError, match="vertex 0 is repeated"):
        embed_vectors(table, S=[0, 0, 1])
    for S, v in (([0, 99], 99), ([-1, 3], -1), ([12], 12)):
        with pytest.raises(InstanceError, match=f"vertex {v} is not in 0..11"):
            embed_vectors(table, S=S)


def test_embed_zero_noise_matching_vectors_coincide():
    table = pairwise_rho(edge_instance(T=1, label=1), F(0), L=1)
    vs = embed_vectors(table)
    u0 = vs.factors[0]
    v1 = vs.factors[3]
    assert np.linalg.norm(u0 - v1) <= 1e-6


def test_embed_refuses_non_psd_regime():
    # tiny noise with a short horizon contradicts long-range independence
    inst = GmdInstance.of(
        1,
        4,
        [(1, 0, 1, F(1, 3)), (2, 1, 1, F(1, 3)), (3, 2, 1, F(1, 3))],
    )
    table = pairwise_rho(inst, F(1, 10**6), L=1)
    with pytest.raises(EmbeddingError):
        embed_vectors(table)


def test_edge_vector_system_inner_products():
    T, mu, t = 2, 0.3, 2
    evs = EdgeVectorSystem(T=T, mu=mu, label=t)
    q = T + 1
    U, V = evs.vectors_u, evs.vectors_v
    for i in range(q):
        assert U[i] @ U[i] == pytest.approx(mu + 1 / q, abs=1e-12)
        assert V[i] @ V[i] == pytest.approx(mu + 1 / q, abs=1e-12)
        for j in range(q):
            if i != j:
                assert U[i] @ U[j] == pytest.approx(mu / 2, abs=1e-12)
                assert V[i] @ V[j] == pytest.approx(mu / 2, abs=1e-12)
            expected = mu / 2 + mu / q**2 + ((1 - mu) / q if (j - i) % q == t else 0)
            assert U[i] @ V[j] == pytest.approx(expected, abs=1e-12)


def test_rounding_zero_noise_collapse():
    evs = EdgeVectorSystem(T=2, mu=0.0, label=1)
    est = round_and_estimate(evs, trials=20_000, seed=3)
    p, se = est.edge_estimate(0, 1, 1)
    # matching vectors coincide, so satisfaction equals the tail marginal
    assert p == pytest.approx(est.marginals[0][0])
    assert abs(p - 1 / 3) <= 3 * se


def test_rounding_matches_orthant_oracle_T1():
    # for T=1 satisfaction is an orthant probability of two difference
    # Gaussians with correlation (1-mu)/(1+mu)
    mu = 0.1
    evs = EdgeVectorSystem(T=1, mu=mu, label=1)
    trials = 200_000
    est = round_and_estimate(evs, trials=trials, seed=5)
    p, se = est.edge_estimate(0, 1, 1)
    rho = (1 - mu) / (1 + mu)
    oracle = 0.25 + math.asin(rho) / (2 * math.pi)
    assert abs(p - oracle) <= 3 * se + 1e-9


def test_rounding_marginals_uniform():
    evs = EdgeVectorSystem(T=2, mu=0.25, label=1)
    trials = 90_000
    est = round_and_estimate(evs, trials=trials, seed=8)
    se = math.sqrt((1 / 3) * (2 / 3) / trials)
    for row in est.marginals:
        for p in row:
            assert abs(p - 1 / 3) <= 4 * se


def test_rounding_shared_stream_consistency():
    inst = path2(T=1, t1=1, t2=1)
    table = pairwise_rho(inst, F(1, 2), L=2)
    vs = embed_vectors(table)
    a = round_and_estimate(vs, trials=5_000, seed=9, vertices=(0, 1))
    b = round_and_estimate(vs, trials=5_000, seed=9, vertices=(1, 2))
    i = a.vertices.index(1)
    j = b.vertices.index(1)
    assert np.array_equal(a.marginals[i], b.marginals[j])


def test_rounding_rejects_vertex_outside_system():
    vs = embed_vectors(pairwise_rho(path2(), F(1, 2), L=1), S=(0, 1))
    with pytest.raises(InstanceError, match="vertex 2 is not in the vector system"):
        round_and_estimate(vs, trials=10, seed=0, vertices=(2,))


def test_rounding_refuses_a_repeated_vertex():
    # vertices=[1, 1] gave two marginal rows for vertex 1
    vs = embed_vectors(pairwise_rho(path2(), F(1, 2), L=1))
    with pytest.raises(InstanceError, match="vertex 1 is repeated"):
        round_and_estimate(vs, trials=10, seed=0, vertices=[1, 1])
    with pytest.raises(InstanceError, match="vertex 0 is repeated"):
        round_and_estimate(EdgeVectorSystem(T=2, mu=0.25, label=1), 10, 0, vertices=(0, 1, 0))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_compare_labels_match_argmax_with_ties(q):
    # scores from a few values, so that ties are common; argmax keeps the
    # first largest, and so must the compares
    rng = np.random.default_rng(q)
    for values in (1, 2, 3, 50):
        scores = rng.integers(0, values, (200, 7 * q)).astype(np.float64)
        want = scores.reshape(200, 7, q).argmax(axis=2)
        got = _argmax_labels(scores, q)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (2, 9), (3, 13), (4, 7), (4, 30), (3, 30)])
def test_product_tables_match_count_block(q, n, monkeypatch):
    # the 1- and 2-vertex tables read from the indicator product equal the
    # bincount tables of the same label rows, over several rounding batches,
    # for all sets and for a list whose singles name vertices in no pair
    rng = np.random.default_rng(q * 100 + n)
    arcs = [(v, int(rng.integers(0, v)), int(rng.integers(1, q)), 1) for v in range(1, n)]
    inst = GmdInstance.of(q - 1, n, arcs)  # a tree: unique paths at any L
    vs = embed_vectors(pairwise_rho(inst, F(1, 2), L=2))
    monkeypatch.setattr(sasol, "ROUND_BATCH_ENTRIES", 64 * n * q)  # 64 trials a batch
    listed = [(0,), (n - 1,), (0, n - 1)] + [(v,) for v in range(1, n - 1, 3)]
    for sets in (None, listed):
        sol = build_sa_solution(inst, F(1, 2), 2, 2, 300, 7, sets=sets).solution
        want = {S: np.zeros(q ** len(S), dtype=np.int64) for S in sol.tables}
        for by_vertex in sasol._rounded_labels(vs.factors, q, 300, 7):
            for S, out in want.items():
                sasol._count_block(by_vertex, np.array([S]), q, out[None])
        for S, out in want.items():
            assert int(out.sum()) == 300 and np.array_equal(sol.tables[S].reshape(-1), out), S


@pytest.mark.parametrize("system", ["gap12", "edge"])
def test_rounding_estimate_independent_of_batch_size(system, monkeypatch):
    # a trial's labels come from its own draws and its own score row, so one
    # batch, two batches or one trial per batch give the same estimates
    if system == "edge":
        vs = EdgeVectorSystem(T=2, mu=0.25, label=2)  # 6 rows, 19 columns
    else:
        vs = embed_vectors(pairwise_rho(block_instance("gap12"), F(1, 2), L=1))  # 36 x 36
    estimates = []
    # batches of 1,500 (all), 1,000, 97 and 1 trials
    for entries in (sasol.ROUND_BATCH_ENTRIES, 1_000 * vs.dim, 97 * vs.dim, 1):
        monkeypatch.setattr(sasol, "ROUND_BATCH_ENTRIES", entries)
        estimates.append(round_and_estimate(vs, trials=1_500, seed=11))
    first = estimates[0]
    assert first.per_edge
    for est in estimates[1:]:
        assert np.array_equal(est.marginals, first.marginals)
        assert est.per_edge == first.per_edge


def test_build_memory_bounded_past_one_batch():
    # the Gaussian draws and the scores of one batch hold at most
    # ROUND_BATCH_ENTRIES float64 each (16 MB together); tables, arc counts
    # and label rows add a few MB, whatever the trial count
    with open(os.path.join(os.path.dirname(GOLDEN_GAP12), "gap-n40-s0.gmd")) as fh:
        inst = parse_instance(fh.read())  # 120 x 120 factors: 8,738 trials a batch
    build_sa_solution(inst, F(1, 2), 1, 1, 10, 0)  # first-call set-up outside the trace
    for trials in (10_000, 40_000):
        tracemalloc.start()
        try:
            build_sa_solution(inst, F(1, 2), 1, 1, trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, (trials, peak)


def test_build_sa_solution_single_edge():
    eps = 0.05
    mu_f = noise_for_target_gap(2, eps)
    mu = F(mu_f).limit_denominator(10**15)
    inst = edge_instance(T=2, label=2)
    trials = 50_000
    result = build_sa_solution(inst, mu=mu, L=1, k=2, trials=trials, seed=17)
    report = check_sa_consistency(result.solution)
    assert report.ok
    target = (1 - 12 * eps) / 3
    se = math.sqrt(float(result.objective) * (1 - float(result.objective)) / trials)
    assert float(result.objective) >= target - 3 * se
    for v in range(2):
        for p in result.solution.marginal(v):
            assert abs(float(p) - 1 / 3) <= 4 * math.sqrt((1 / 3) * (2 / 3) / trials)


def test_build_sa_solution_k1_marginals_only():
    inst = edge_instance(T=1, label=1)
    result = build_sa_solution(inst, mu=F(1, 4), L=1, k=1, trials=30_000, seed=4)
    assert check_sa_consistency(result.solution).ok
    for v in range(2):
        for p in result.solution.marginal(v):
            assert abs(float(p) - 1 / 2) <= 4 * math.sqrt(0.25 / result.trials)
    assert 0 <= result.objective <= 1


def test_build_sa_solution_on_pipeline_instance():
    from gmdlab.gapgen import PipelineConfig, generate_base_dag, sparsify_pipeline

    base = generate_base_dag("complete-dag", 14)
    cfg = PipelineConfig(
        n=14, T=2, Delta=3, p_keep=F(3, 13), l=9, mu=F(1, 2), k_max=2, seed=5
    )
    inst, report = sparsify_pipeline(base, cfg)
    assert report.edge_count > 0
    result = build_sa_solution(inst, mu=F(1, 2), L=2, k=2, trials=4_000, seed=2)
    assert check_sa_consistency(result.solution).ok
    assert 0 <= result.objective <= 1
    # gap-witness shape: when a seed delivers the low-optimum precondition,
    # the pseudo-solution must certify the ratio; at this scale the
    # precondition rarely holds, so the comparison is reported either way
    eps = float(cfg.epsilon)
    T = cfg.T
    if report.measured_opt is not None and result.objective > 0:
        ratio = float(report.measured_opt) / float(result.objective)
        print(
            f"pipeline gap report: opt~{float(report.measured_opt):.4f} "
            f"pseudo-objective~{float(result.objective):.4f} ratio~{ratio:.3f}"
        )
        if report.measured_opt <= (1 + cfg.epsilon) / (4 * T):
            assert ratio <= (T + 1) / (4 * T) * (1 + 14 * eps)


def per_entry_gram(table, S):
    """The Gram matrix built one table.entry at a time, as embed_vectors did."""
    q = table.q
    mu = float(table.mu)
    gram = np.empty((len(S) * q, len(S) * q))
    for a, u in enumerate(S):
        for i in range(q):
            for b, v in enumerate(S):
                for ip in range(q):
                    g = mu / 2 + float(table.entry(u, i, v, ip))
                    if u == v and i == ip:
                        g += mu / 2
                    gram[a * q + i, b * q + ip] = g
    return gram


GOLDEN_GAP12 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "gap12.gmd")


@pytest.mark.parametrize("mu", [F(0), F(1, 10), F(1, 3), F(1, 2), F(1)])
@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_gram_matrix_bit_identical_to_per_entry_build(mu, L):
    from gmdlab.core import parse_instance

    with open(GOLDEN_GAP12) as fh:
        gap12 = parse_instance(fh.read())
    rev = GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (2, 1, 2, F(1, 2))])
    for inst in (gap12, path2(), rev, edge_instance(T=1), GmdInstance.of(3, 3, [])):
        table = pairwise_rho(inst, mu, L)
        for S in (tuple(range(inst.n)), (0,), (0, inst.n - 1)):
            assert np.array_equal(_gram_matrix(table, S), per_entry_gram(table, S))


def test_embed_vectors_gram_bit_identical_to_per_entry_build():
    from gmdlab.core import parse_instance

    with open(GOLDEN_GAP12) as fh:
        gap12 = parse_instance(fh.read())
    table = pairwise_rho(gap12, F(1, 2), 1)
    full = tuple(range(gap12.n))
    assert np.array_equal(embed_vectors(table).gram, per_entry_gram(table, full))
    assert np.array_equal(embed_vectors(table, S=(5, 1, 3)).gram, per_entry_gram(table, (1, 3, 5)))


def test_build_sa_solution_tables_are_counts_over_trials():
    result = build_sa_solution(path2(), mu=F(1, 2), L=2, k=3, trials=500, seed=1)
    sol = result.solution
    assert sol.denom == 500
    assert sol.tables[(0, 1, 2)].dtype == np.int64
    assert sol.tables[(0, 1, 2)].shape == (3, 3, 3)
    assert all(int(arr.sum()) == 500 for arr in sol.tables.values())
    assert len(sol.values) == 3 * 3 + 3 * 9 + 27


def test_arc_counts_must_match_pair_tables():
    inst = edge_instance(T=2, label=2)
    table = np.zeros((3, 3), dtype=np.int64)
    table[0, 2] = 7
    _check_arc_counts(inst, {(0, 1): table}, [7])
    _check_arc_counts(inst, {}, [5])  # no pair table, nothing to compare
    with pytest.raises(TableMismatchError, match="7"):
        _check_arc_counts(inst, {(0, 1): table}, [6])
    # an arc written head-first reads the transposed entry
    back = GmdInstance.of(2, 2, [(1, 0, 1, 1)])
    table = np.zeros((3, 3), dtype=np.int64)
    table[1, 0] = 4
    _check_arc_counts(back, {(0, 1): table}, [4])
    with pytest.raises(TableMismatchError):
        _check_arc_counts(back, {(0, 1): table.T.copy()}, [4])


def per_set_build(inst, mu, L, k, trials, seed, sets=None, batch=100_000):
    """The per-set bincount loop that the block build replaced: each set's
    counts, each arc's satisfied-sample count, and the objective."""
    vs = embed_vectors(pairwise_rho(inst, mu, L))
    q = inst.T + 1
    if sets is None:
        sets = [S for size in range(1, k + 1) for S in itertools.combinations(range(inst.n), size)]
    else:
        sets = [tuple(sorted(S)) for S in sets]
    counts = {S: np.zeros(q ** len(S), dtype=np.int64) for S in sets}
    sat_counts = [0] * len(inst.arcs)
    rng = substream(seed, 0)
    done = 0
    while done < trials:
        step = min(batch, trials - done)
        g = rng.standard_normal((step, vs.dim))
        labels = (g @ vs.factors.T).reshape(step, inst.n, q).argmax(axis=2)
        by_vertex = np.ascontiguousarray(labels.T)
        for S in sets:
            code = by_vertex[S[0]]
            for v in S[1:]:
                code = code * q + by_vertex[v]
            counts[S] += np.bincount(code, minlength=q ** len(S))
        for j, a in enumerate(inst.arcs):
            sat_counts[j] += int(
                np.count_nonzero((labels[:, a.tail] == 0) & (labels[:, a.head] == a.label))
            )
        done += step
    tables = {S: c.reshape((q,) * len(S)) for S, c in counts.items()}
    objective = sum((a.weight * F(sat, trials) for a, sat in zip(inst.arcs, sat_counts)), F(0))
    return tables, sat_counts, objective


def identity_count(tables):
    """Identities the audit checks: one per entry and per set, plus one per
    entry of each nested smaller set that has a table."""
    total = 0
    for S, arr in tables.items():
        total += arr.size + 1
        for size in range(1, len(S)):
            total += sum(tables[sub].size for sub in itertools.combinations(S, size) if sub in tables)
    return total


def tree_t3():
    return GmdInstance.of(
        3, 6, [(0, 1, 2, 1), (1, 2, 3, F(1, 2)), (3, 1, 1, 2), (2, 4, 1, 1), (5, 4, 3, F(1, 3))]
    )


BLOCK_CASES = [
    # (instance, L, k, trials, seed, sets, trials a rounding batch)
    ("gap12", 1, 1, 300, 0, None, 100_000),
    ("gap12", 1, 2, 500, 1, None, 100_000),
    ("gap12", 2, 3, 400, 2, None, 128),
    ("path-t1", 2, 3, 333, 3, None, 100),
    ("path-t3", 2, 2, 250, 4, None, 100_000),
    ("tree-t3", 3, 3, 701, 5, None, 256),
    ("tree-t3", 3, 3, 300, 6, [(0, 4, 5), (3, 1), (2,), (1, 2, 3), (5, 0), (4,)], 97),
    ("gap12", 1, 3, 200, 7, [(11, 3, 7), (3, 7), (0,), (2, 9, 10), (9, 10), (3, 11)], 100_000),
    # no pair: the singles alone make the indicator, beside a larger set
    ("tree-t3", 3, 3, 300, 8, [(0,), (0, 1, 2), (4,)], 97),
]


def block_instance(name):
    if name == "gap12":
        with open(GOLDEN_GAP12) as fh:
            return parse_instance(fh.read())
    return {"path-t1": path2(T=1, t1=1, t2=1), "path-t3": path2(T=3, t1=2, t2=3),
            "tree-t3": tree_t3()}[name]


@pytest.mark.parametrize("chunk", [None, 1, 50])
@pytest.mark.parametrize("case", BLOCK_CASES, ids=[f"{c[0]}-k{c[2]}-{i}" for i, c in enumerate(BLOCK_CASES)])
def test_block_build_matches_per_set_loop(case, chunk, monkeypatch):
    name, L, k, trials, seed, sets, batch = case
    if chunk is not None:
        monkeypatch.setattr(sasol, "COUNT_CHUNK_ENTRIES", chunk)
    inst = block_instance(name)
    # the factors are square, n(T+1) rows and columns
    monkeypatch.setattr(sasol, "ROUND_BATCH_ENTRIES", batch * inst.n * (inst.T + 1))
    tables, sat_counts, objective = per_set_build(inst, F(1, 2), L, k, trials, seed, sets, batch)
    result = build_sa_solution(inst, F(1, 2), L, k, trials, seed, sets=sets)
    sol = result.solution
    assert result.objective == objective
    assert sorted(sol.tables) == sorted(tables) and sol.sets() == sorted(tables, key=lambda S: (len(S), S))
    for S, arr in tables.items():
        assert sol.tables[S].dtype == np.int64
        assert np.array_equal(sol.tables[S], arr), S
    _check_arc_counts(inst, sol.tables, sat_counts)
    assert len(sol.values) == sum(arr.size for arr in tables.values())
    report = check_sa_consistency(sol)
    assert report.ok and report.identities_checked == identity_count(tables)


def test_repeated_set_is_counted_once():
    # the per-set loop counted a set named twice twice, breaking normalization
    inst = path2()
    once = build_sa_solution(inst, F(1, 2), 1, 2, 50, 0, sets=[(0, 1)]).solution
    twice = build_sa_solution(inst, F(1, 2), 1, 2, 50, 0, sets=[(1, 0), (0, 1)]).solution
    assert np.array_equal(once.tables[(0, 1)], twice.tables[(0, 1)])
    assert len(twice.values) == 9 and check_sa_consistency(twice).ok


def test_build_sa_solution_rejects_bad_trial_counts():
    for trials in (0, -3):
        with pytest.raises(InstanceError, match=f"trials must be >= 1, got {trials}"):
            build_sa_solution(path2(), F(1, 2), 1, 2, trials, 0)
        with pytest.raises(InstanceError, match=f"trials must be >= 1, got {trials}"):
            round_and_estimate(EdgeVectorSystem(T=2, mu=0.25, label=1), trials, 0)


def test_build_sa_solution_rejects_bad_sets():
    inst = path2()
    for sets in ([()], [(0, 3)], [(1, 1)], [(-1, 2)], [(0, 1, 2)]):
        with pytest.raises(InstanceError, match="requested set"):
            build_sa_solution(inst, F(1, 2), 1, 2, 10, 0, sets=sets)  # k = 2


def test_table_cap_counts_requested_entries():
    inst = path2()  # q = 3: 3 * 3 + 3 * 9 + 27 = 63 entries at k = 3
    build_sa_solution(inst, F(1, 2), 2, 3, 10, 0, caps=Caps(sa_table_entries=63))
    with pytest.raises(CapExceeded, match="at least 63 table entries exceed cap 62"):
        build_sa_solution(inst, F(1, 2), 2, 3, 10, 0, caps=Caps(sa_table_entries=62))
    with pytest.raises(CapExceeded, match="at least 36 table entries"):
        build_sa_solution(inst, F(1, 2), 2, 3, 10, 0, sets=[(0, 1, 2), (1, 0), (0, 1)],
                          caps=Caps(sa_table_entries=35))


def test_table_cap_stops_below_int32_codes():
    # 3^20 entries in one table would overflow the counting's int32 codes,
    # so a raised cap still refuses it before any work
    inst = GmdInstance.of(2, 20, [(0, 1, 1, F(1))])
    with pytest.raises(CapExceeded, match=f"exceed cap {2**31 - 1}"):
        build_sa_solution(inst, F(1, 2), 1, 20, 10, 0, sets=[tuple(range(20))],
                          caps=Caps(sa_table_entries=2**40))
