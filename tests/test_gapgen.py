import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmdlab.core import GmdInstance, InstanceError, parse_instance
from gmdlab.exact import opt_gmd
from gmdlab.gapgen import (
    DagSkeleton,
    PipelineConfig,
    check_path_decomposable,
    check_structural,
    generate_base_dag,
    sparsify_pipeline,
)
from gmdlab.graphs import biconnected_blocks, girth, shortest_cycle

F = Fraction


def cfg(**kw):
    base = dict(
        n=20, T=2, Delta=4, p_keep=F(1, 2), l=9, mu=F(1, 2), k_max=3, seed=0
    )
    base.update(kw)
    return PipelineConfig(**base)


def test_complete_dag_counts():
    base = generate_base_dag("complete-dag", 3)
    assert base.n == 3
    assert sorted(base.arcs) == [(1, 0), (2, 0), (2, 1)]


def test_window_random_is_subgraph_of_line():
    base = generate_base_dag("window-random", 10, params={"window": 1, "p": 0.7}, seed=4)
    assert all(u - v == 1 for u, v in base.arcs)


def test_custom_file_rejects_cycles(tmp_path):
    bad = tmp_path / "cyc.gmd"
    bad.write_text("gmd 1\nv 3\ne 0 1 1 1/3\ne 1 2 1 1/3\ne 2 0 1 1/3\n")
    with pytest.raises(InstanceError):
        generate_base_dag("custom-file", 0, params={"path": str(bad)})


# (3, 1) carries labels 1 and 2: one skeleton arc
LABELLED_DAG = "gmd 2\nv 5\ne 3 1 1 1\ne 4 0 2 1\ne 3 1 2 1\ne 2 0 1 1\ne 4 3 1 1\ne 1 0 2 1\n"


def test_custom_file_keeps_one_arc_per_pair_in_sorted_order(tmp_path):
    dag = tmp_path / "dag.gmd"
    dag.write_text(LABELLED_DAG)
    base = generate_base_dag("custom-file", 0, params={"path": str(dag)})
    assert base == DagSkeleton(n=5, arcs=((1, 0), (2, 0), (3, 1), (4, 0), (4, 3)))


def test_unknown_base_kind():
    with pytest.raises(InstanceError):
        generate_base_dag("erdos", 5)


def test_config_invariants():
    with pytest.raises(InstanceError):
        cfg(p_keep=F(0))
    with pytest.raises(InstanceError):
        cfg(l=5)
    with pytest.raises(InstanceError):
        cfg(Delta=0)


def test_noop_pipeline_keeps_base_shape():
    # a path has infinite girth and tiny degrees: nothing should be removed
    base = DagSkeleton(n=12, arcs=tuple((u + 1, u) for u in range(11)))
    inst, report = sparsify_pipeline(base, cfg(n=12, p_keep=F(1), Delta=2, seed=7))
    assert report.edge_count == 11
    assert {(a.tail, a.head) for a in inst.arcs} == set(base.arcs)
    assert report.girth is None
    assert inst.weights_normalized


def test_pipeline_postconditions_hold_for_every_seed():
    base = generate_base_dag("complete-dag", 20)
    for seed in range(6):
        inst, report = sparsify_pipeline(base, cfg(seed=seed, p_keep=F(4, 19)))
        assert report.is_acyclic
        assert report.max_degree <= 2 * 4
        assert report.girth is None or report.girth > 9
        if report.edge_count:
            assert inst.weights_normalized
            assert report.measured_opt is not None
            assert report.measured_opt == opt_gmd(inst).value
            assert report.measured_opt_exact


def test_pipeline_empty_graph_reported_not_fatal():
    base = generate_base_dag("complete-dag", 6)
    inst, report = sparsify_pipeline(base, cfg(n=6, p_keep=F(1, 1000), seed=1))
    if report.edge_count == 0:
        assert not report.edges_ok
        assert report.measured_opt is None
    assert report.is_acyclic


def test_noise_inequality_examples():
    report_cfg = cfg(l=200, mu=F(1, 2), k_max=10)
    inst = GmdInstance(T=2, n=20, arcs=())
    report = check_structural(inst, report_cfg)
    assert report.noise_ok  # (1/2)^20 ~ 9.5e-7 <= 0.01
    tight = check_structural(inst, cfg(l=9, mu=F(1, 100), k_max=3))
    assert not tight.noise_ok


def test_measured_opt_heuristic_above_cap():
    # 30 vertices exceeds the exact cap of 24: estimate flagged inexact
    base = generate_base_dag("window-random", 30, params={"window": 4, "p": 0.8}, seed=3)
    inst, report = sparsify_pipeline(base, cfg(n=30, p_keep=F(1), Delta=6, seed=3))
    assert report.edge_count > 0
    assert report.measured_opt is not None
    assert not report.measured_opt_exact
    assert 0 < report.measured_opt <= 1


def test_heuristic_opt_is_lower_bound_at_small_scale():
    base = generate_base_dag("complete-dag", 10)
    inst, _ = sparsify_pipeline(base, cfg(n=10, p_keep=F(3, 4), Delta=5, seed=2))
    from gmdlab.gapgen import _local_search_estimate

    est = _local_search_estimate(inst, restarts=8, seed=11)
    assert est <= opt_gmd(inst).value


def _plain_local_search(inst, restarts, seed):
    """The hill climb as first written: every candidate zero mask is valued
    from scratch in Fractions."""
    from gmdlab.rng import substream

    def mask_value(mask):
        gain = {}
        for a in inst.arcs:
            if mask >> a.tail & 1 and not mask >> a.head & 1:
                gain[(a.head, a.label)] = gain.get((a.head, a.label), F(0)) + a.weight
        per_head = {}
        for (head, _), g in gain.items():
            per_head[head] = max(per_head.get(head, F(0)), g)
        return sum(per_head.values(), F(0))

    best = F(0)
    for r in range(restarts):
        rng = substream(seed, r + 1)
        mask = sum(1 << v for v in range(inst.n) if rng.integers(0, 2) == 0)
        val = mask_value(mask)
        improved = True
        while improved:
            improved = False
            for v in range(inst.n):
                cand_val = mask_value(mask ^ (1 << v))
                if cand_val > val:
                    mask, val, improved = mask ^ (1 << v), cand_val, True
        best = max(best, val)
    return best


def test_local_search_matches_plain_hill_climb():
    from gmdlab.gapgen import _local_search_estimate

    for n, T, seed in [(30, 2, 3), (26, 1, 4), (28, 3, 5)]:
        base = generate_base_dag("window-random", n, params={"window": 4, "p": 0.8}, seed=seed)
        inst, _ = sparsify_pipeline(base, cfg(n=n, T=T, p_keep=F(1), Delta=6, seed=seed))
        assert _local_search_estimate(inst, 4, seed) == _plain_local_search(inst, 4, seed)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["complete-dag", "window-random"]),
    n=st.integers(2, 12),
    T=st.integers(1, 3),
    restarts=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_local_search_matches_plain_hill_climb_on_random_bases(kind, n, T, restarts, seed, data):
    # every base arc, labelled and weighted at random, so that flips at
    # neighbouring vertices interleave
    from gmdlab.gapgen import _local_search_estimate

    base = generate_base_dag(kind, n, params={"window": 3, "p": 0.7}, seed=seed)
    arcs = [(u, v, data.draw(st.integers(1, T)), data.draw(st.integers(1, 5))) for u, v in base.arcs]
    inst = GmdInstance.of(T, n, arcs)
    assert _local_search_estimate(inst, restarts, seed) == _plain_local_search(inst, restarts, seed)


# the hill climb's values at 12 restarts and seeds 0-5 on each golden `gap`
# instance, as recorded before the climb read its start scores from one scatter
LOCAL_SEARCH_GOLDEN = {
    "gap-l11.gmd": ["21/38"] * 6,
    "gap-n100-s1.gmd": ["58/101", "61/101", "59/101", "61/101", "60/101", "59/101"],
    "gap-n1000-t3.gmd": ["641/1304", "645/1304", "161/326", "80/163", "639/1304", "639/1304"],
    "gap-n200-s0.gmd": ["46/75", "28/45", "139/225", "139/225", "46/75", "139/225"],
    "gap-n25-s1.gmd": ["3/5"] * 6,
    "gap-n40-s0.gmd": ["7/13"] * 6,
    "gap-n40-s5.gmd": ["9/19", "1/2", "9/19", "10/19", "1/2", "1/2"],
    "gap-window.gmd": ["1/2", "1/2", "15/29", "15/29", "15/29", "14/29"],
}


def _golden(name):
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name)) as fh:
        return parse_instance(fh.read())


@pytest.mark.parametrize("name", sorted(LOCAL_SEARCH_GOLDEN))
def test_local_search_values_pinned_on_gap_goldens(name, monkeypatch):
    from gmdlab import exact
    from gmdlab.gapgen import _local_search_estimate

    inst = _golden(name)

    def refuse(*args):
        raise AssertionError("a pair game was built")

    monkeypatch.setattr(exact._PairGame, "__init__", refuse)
    got = [str(_local_search_estimate(inst, 12, seed)) for seed in range(6)]
    assert got == LOCAL_SEARCH_GOLDEN[name]


def test_local_search_on_python_ints_matches_plain_hill_climb():
    # weights of 2^61 on many pairs push the payoff sums past 2^62, so the
    # start scores are scattered in Python ints
    from gmdlab.exact import _GmdResponder
    from gmdlab.gapgen import _local_search_estimate

    for n, T, seed in [(14, 2, 1), (20, 3, 2)]:
        base = generate_base_dag("window-random", n, params={"window": 3, "p": 0.8}, seed=seed)
        arcs = [(u, v, 1 + (u * v) % T, (1 + (u + v) % 3) << 61) for u, v in base.arcs]
        inst = GmdInstance.of(T, n, arcs)
        assert not _GmdResponder(inst).in_int64
        for restarts in (1, 12):
            assert _local_search_estimate(inst, restarts, seed) == _plain_local_search(inst, restarts, seed)


def test_max_dicut_cross_check_label_restriction():
    # for T=1 the measured optimum equals the max-dicut fraction, checked
    # against an independent direct cut enumerator
    base = generate_base_dag("complete-dag", 10)
    inst, report = sparsify_pipeline(base, cfg(n=10, T=1, p_keep=F(1, 2), Delta=4, seed=5))
    assert report.edge_count > 0
    best_cut = F(0)
    for mask in range(1 << inst.n):
        cut = sum(
            (a.weight for a in inst.arcs
             if (mask >> a.tail) & 1 and not (mask >> a.head) & 1),
            F(0),
        )
        best_cut = max(best_cut, cut)
    assert report.measured_opt == best_cut == opt_gmd(inst).value


def test_girth_helpers():
    tri = {(0, 1), (1, 2), (0, 2)}
    assert girth(3, tri) == 3
    assert shortest_cycle(3, tri) == (0, 1, 2)
    path = {(0, 1), (1, 2)}
    assert girth(3, path) is None


def test_path_decomposable_tree_verified():
    tree = {(0, 1), (1, 2), (1, 3)}
    assert check_path_decomposable(4, tree, l=2).status == "verified"


def test_path_decomposable_long_cycle_verified():
    l = 3
    cyc = {(i, (i + 1) % (3 * l)) for i in range(3 * l)}
    assert check_path_decomposable(3 * l, cyc, l=l).status == "verified"


def test_path_decomposable_k4_refuted():
    k4 = {(u, v) for u in range(4) for v in range(u)}
    res = check_path_decomposable(4, k4, l=2)
    assert res.status == "refuted"
    assert res.witness is not None and len(res.witness) == 6


def test_path_decomposable_theta_graph():
    # two degree-3 hubs joined by three long paths: every block chain long
    edges = set()
    nxt = 2
    for _ in range(3):
        prev = 0
        for _ in range(4):
            edges.add(tuple(sorted((prev, nxt))))
            prev = nxt
            nxt += 1
        edges.add(tuple(sorted((prev, 1))))
    assert check_path_decomposable(nxt, edges, l=3).status == "verified"
    assert check_path_decomposable(nxt, edges, l=5).status == "refuted"


def test_biconnected_blocks_split_at_cut_vertex():
    # two triangles sharing vertex 2
    edges = {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)}
    blocks = biconnected_blocks(5, edges)
    assert sorted(len(b) for b in blocks) == [3, 3]


def test_biconnected_blocks_against_common_cycle_bruteforce():
    # two edges share a block iff some simple cycle contains both
    import itertools

    from gmdlab.rng import substream

    def on_common_cycle(n, edges, e1, e2):
        verts = sorted({v for e in edges for v in e})
        edge_set = set(edges)
        for size in range(3, len(verts) + 1):
            for combo in itertools.permutations(verts, size):
                if combo[0] != min(combo):
                    continue  # fix rotation
                cyc = [
                    tuple(sorted((combo[i], combo[(i + 1) % size])))
                    for i in range(size)
                ]
                if all(c in edge_set for c in cyc) and e1 in cyc and e2 in cyc:
                    return True
        return False

    rng = substream(314, 0)
    for _ in range(6):
        n = 6
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(
            all_pairs[i] for i in rng.choice(len(all_pairs), size=8, replace=False)
        )
        blocks = biconnected_blocks(n, edges)
        block_of = {}
        for b, block in enumerate(blocks):
            for e in block:
                block_of[e] = b
        for e1, e2 in itertools.combinations(edges, 2):
            same_block = block_of[e1] == block_of[e2]
            # bridges are singleton blocks: same_block only via shared cycles
            expected = on_common_cycle(n, edges, e1, e2)
            if same_block and len(blocks[block_of[e1]]) >= 3:
                assert expected, (edges, e1, e2)
            if expected:
                assert same_block, (edges, e1, e2)


def test_noise_inequality_is_exact():
    # (1-mu)^(l/10) <= mu/(5k) holds exactly when (1-mu)^l <= (mu/(5k))^10;
    # the grid includes the equality points mu = 5k/(5k+1) at l = 10, where
    # the float form answered False for k = 2 (mu = 10/11)
    inst = GmdInstance(T=2, n=20, arcs=())
    for k in (1, 2, 3, 10):
        mus = [F(1, 100), F(1, 10), F(1, 3), F(1, 2), F(9, 10), F(1), F(5 * k, 5 * k + 1)]
        for mu in mus:
            for l in (9, 10, 11, 20, 40, 200):
                report = check_structural(inst, cfg(l=l, mu=mu, k_max=k))
                assert report.noise_ok == ((1 - mu) ** l <= (mu / (5 * k)) ** 10)
    assert check_structural(inst, cfg(l=10, mu=F(10, 11), k_max=2)).noise_ok


def test_draw_threshold_on_boundary_doubles():
    # random() returns j * 2^-53; around p * 2^53 the float threshold must
    # give the exact comparison with p
    import math

    from gmdlab.gapgen import _draw_threshold

    for p in (F(1), F(1, 3), F(4, 39)):
        t = _draw_threshold(p)
        centre = math.floor(p * 2**53)
        for j in range(centre - 4, min(centre + 5, 2**53)):
            u = math.ldexp(j, -53)
            assert (u < t) == (F(u) < p) == (u < p)
