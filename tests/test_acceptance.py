"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np

from gmdlab.approx import (
    approx_gmd_quarter,
    approx_gp_quarter,
    lp_round_expectation,
    run_trials,
)
from gmdlab.cli import run_command
from gmdlab.core import (
    GmdInstance,
    GpInstance,
    Labeling,
    half_integral_grid,
    ndeg,
    val_gmd,
    val_gp,
)
from gmdlab.dicttest import (
    acceptance_probability,
    build_correlated_space,
    dictator,
    dictator_completeness,
    exact_correlation,
)
from gmdlab.exact import (
    opt_gmd,
    opt_gmd_bruteforce,
    opt_gp_grid,
)
from gmdlab.gapgen import DagSkeleton, PipelineConfig, generate_base_dag, sparsify_pipeline
from gmdlab.gaussmath import (
    first_product_bound_T,
    gamma_rho,
    gamma_rho_orthant,
    gap_bound_threshold,
    max_bound_threshold,
    max_gap_stats,
    normal_sf,
    tail_bounds,
    verify_gamma_properties,
)
from gmdlab.reduction import canonical_grid, canonical_pricing, decode_pricing, reduce_gmd_to_gp
from gmdlab.rng import substream
from gmdlab.salp import build_sa_lp, check_sa_consistency, marginals_for_rounding, solve_lp_exact
from gmdlab.sasol import EdgeVectorSystem, build_sa_solution, noise_for_target_gap, round_and_estimate

F = Fraction


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            start = time.time()
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"acceptance {num:02d} {name}: FAIL ({time.time()-start:.1f}s)")
                raise
            print(f"acceptance {num:02d} {name}: PASS ({time.time()-start:.1f}s)")
        return wrapper
    return deco


def triangle():
    return GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )


def gmd_fixtures():
    return [
        GmdInstance.of(1, 2, [(0, 1, 1, 1)]),
        triangle(),
        GmdInstance.of(2, 3, [(0, 1, 1, F(1, 2)), (1, 2, 2, F(1, 2))]),
        GmdInstance.of(
            3,
            5,
            [
                (0, 1, 1, F(1, 6)),
                (1, 2, 2, F(1, 6)),
                (2, 3, 3, F(1, 6)),
                (3, 4, 1, F(1, 6)),
                (0, 4, 2, F(1, 6)),
                (4, 1, 3, F(1, 6)),
            ],
        ),
        GmdInstance.of(
            2,
            6,
            [
                (0, 2, 1, F(1, 8)),
                (1, 2, 2, F(1, 8)),
                (2, 3, 1, F(1, 8)),
                (3, 4, 2, F(1, 8)),
                (4, 5, 1, F(1, 8)),
                (5, 0, 2, F(1, 8)),
                (1, 4, 1, F(1, 8)),
                (3, 0, 2, F(1, 8)),
            ],
        ),
    ]


def gp_fixtures():
    return [
        GpInstance.of(2, [(0, 1, 1, 1)]),
        GpInstance.of(3, [(0, 1, 1, 1), (1, 2, 1, 1)]),
        GpInstance.of(
            4, [(0, 1, 2, 1), (1, 2, 1, F(1, 2)), (2, 3, 3, F(3, 2)), (0, 3, 2, 1)]
        ),
    ]


def _random_gmd(rng, max_states=20_000):
    while True:
        T = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        if (T + 1) ** n <= max_states:
            break
    m = int(rng.integers(1, 11))
    arcs = []
    for _ in range(m):
        u, v = rng.choice(n, size=2, replace=False)
        arcs.append(
            (int(u), int(v), int(rng.integers(1, T + 1)), F(int(rng.integers(1, 8)), 7))
        )
    return GmdInstance.of(T, n, arcs)


@criterion(1, "oracle-equivalence")
def test_criterion_01_oracle_equivalence():
    start = time.time()
    rng = substream(1001, 0)
    for _ in range(200):
        inst = _random_gmd(rng)
        fast = opt_gmd(inst)
        brute = opt_gmd_bruteforce(inst)
        assert fast.value == brute.value
        assert val_gmd(inst, fast.witness) == fast.value
    assert time.time() - start < 60


def _random_layered_dag(rng):
    tails = int(rng.integers(2, 4))
    heads = int(rng.integers(5, 7))
    T = 2
    arcs = []
    for u in range(tails):
        for v in range(heads):
            for t in range(1, T + 1):
                if rng.random() < 0.92:
                    arcs.append((u, tails + v, t, 1))
    return GmdInstance.of(T, tails + heads, arcs).normalized()


@criterion(2, "reduction-sandwich")
def test_criterion_02_reduction_sandwich():
    start = time.time()
    rng = substream(1002, 0)
    done = 0
    while done < 50:
        inst = _random_layered_dag(rng)
        nd = ndeg(inst)
        if nd < 10:
            continue
        done += 1
        art = reduce_gmd_to_gp(inst, M=10)
        opt = opt_gmd(inst).value
        grid_opt = opt_gp_grid(art.gp, canonical_grid(art)).value
        assert opt <= grid_opt
        assert grid_opt <= opt + F(1, 10) + 2 / nd
    assert time.time() - start < 120


@criterion(3, "canonical-decode-round-trip")
def test_criterion_03_canonical_decode():
    import itertools

    cases = [
        GmdInstance.of(1, 2, [(0, 1, 1, 1)]),
        GmdInstance.of(2, 3, [(1, 0, 1, F(1, 2)), (2, 1, 2, F(1, 2))]),
        GmdInstance.of(
            2,
            4,
            [
                (1, 0, 1, F(1, 4)),
                (2, 0, 2, F(1, 4)),
                (2, 1, 1, F(1, 4)),
                (3, 1, 2, F(1, 4)),
            ],
        ),
        GmdInstance.of(
            3,
            5,
            [
                (1, 0, 1, F(1, 5)),
                (2, 1, 2, F(1, 5)),
                (3, 2, 3, F(1, 5)),
                (4, 3, 1, F(1, 5)),
                (4, 0, 2, F(1, 5)),
            ],
        ),
    ]
    for inst in cases:
        art = reduce_gmd_to_gp(inst, M=10)
        for values in itertools.product(range(inst.T + 1), repeat=inst.n):
            lab = Labeling(values)
            p = canonical_pricing(art, lab)
            v_lab = val_gmd(inst, lab)
            assert val_gp(art.gp, p) >= v_lab
            decoded = decode_pricing(art, p)
            assert val_gmd(inst, decoded) >= v_lab
        best = opt_gmd(inst)
        p_star = canonical_pricing(art, best.witness)
        assert val_gmd(inst, decode_pricing(art, p_star)) == best.value


@criterion(4, "quarter-algorithms")
def test_criterion_04_quarter_algorithms():
    trials = 10_000
    for k, inst in enumerate(gmd_fixtures()):
        run = run_trials(approx_gmd_quarter, inst, trials, seed=4000 + k)
        opt = float(opt_gmd(inst).value)
        assert run.mean >= opt / 4 - 3 * run.stderr
    single = run_trials(
        approx_gmd_quarter, GmdInstance.of(1, 2, [(0, 1, 1, 1)]), trials, seed=4100
    )
    assert abs(single.mean - 0.25) <= 3 * single.stderr
    for k, inst in enumerate(gp_fixtures()):
        run = run_trials(approx_gp_quarter, inst, trials, seed=4200 + k)
        opt = float(opt_gp_grid(inst, half_integral_grid(inst)).value)
        assert run.mean >= opt / 4 - 3 * run.stderr


@criterion(5, "lp-rounding-guarantee")
def test_criterion_05_lp_rounding():
    for inst in gmd_fixtures():
        if inst.n > 6 or not inst.weights_normalized:
            continue
        lp_value, sol = solve_lp_exact(build_sa_lp(inst, rounds=2))
        marg = marginals_for_rounding(sol, inst)
        expectation = lp_round_expectation(inst, marg)
        opt = opt_gmd(inst).value
        assert expectation >= lp_value / 4 + lp_value * lp_value / 4
        assert lp_value / 4 + lp_value * lp_value / 4 >= opt * (
            F(1, 4) + F(1, 16 * inst.T)
        )
        # per-arc quadratic bound at the pairwise LP mass
        for a in inst.arcs:
            S = tuple(sorted((a.tail, a.head)))
            alpha = (0, a.label) if S == (a.tail, a.head) else (a.label, 0)
            c = sol.get(S, alpha)
            per_edge = (1 + marg[a.tail][0]) * marg[a.head][a.label] / 4
            assert per_edge >= c / 4 + c * c / 4


@criterion(6, "sa-separations")
def test_criterion_06_sa_separations():
    v2, sol = solve_lp_exact(build_sa_lp(triangle(), rounds=2))
    assert v2 == F(1, 2)
    assert check_sa_consistency(sol).ok
    assert opt_gmd(triangle()).value == F(1, 3)
    for inst in gmd_fixtures():
        if inst.n > 6:
            continue
        r2, _ = solve_lp_exact(build_sa_lp(inst, rounds=2))
        r3, _ = solve_lp_exact(build_sa_lp(inst, rounds=3))
        assert r2 >= r3 >= opt_gmd(inst).value


@criterion(7, "dictatorship-test")
def test_criterion_07_dictatorship_test():
    space = build_correlated_space(16, delta=F(1, 2))
    inner = DagSkeleton(n=2, arcs=((0, 1),))
    fn = dictator(space, R=2, i=1)
    acc = acceptance_probability(space, inner, R=2, functions=[fn, fn])
    assert acc == F(1, 32) == dictator_completeness(space)
    for T in (2, 4, 16, 256):
        rho, bound = exact_correlation(build_correlated_space(T), tol=1e-10)
        assert rho <= bound


@criterion(8, "gap-pipeline")
def test_criterion_08_gap_pipeline():
    base = generate_base_dag("complete-dag", 40)
    eps = F(1, 10)
    for seed in range(20):
        cfg = PipelineConfig(
            n=40, T=2, Delta=4, p_keep=F(4, 39), l=9, mu=F(1, 2), k_max=3,
            seed=seed, epsilon=eps,
        )
        inst, report = sparsify_pipeline(base, cfg)
        assert report.is_acyclic
        assert report.max_degree <= 8
        assert report.girth is None or report.girth > 9
        assert report.measured_opt is not None
        assert report.dicut_bound_ok is not None
        verdict = "pass" if report.dicut_bound_ok else "fail"
        print(
            f"  seed {seed:2d}: edges={report.edge_count:3d} "
            f"opt~{float(report.measured_opt):.4f} "
            f"(exact={report.measured_opt_exact}) vs (1+eps)/(4T)="
            f"{float((1 + eps) / 8):.4f}: {verdict}"
        )


@criterion(9, "sa-gap-solution")
def test_criterion_09_sa_gap_solution():
    start = time.time()
    eps = 0.05
    T = 2
    mu = noise_for_target_gap(T, eps)
    evs = EdgeVectorSystem(T=T, mu=mu, label=1)
    trials = 1_000_000
    est = round_and_estimate(evs, trials=trials, seed=9001)
    p, se = est.edge_estimate(0, 1, 1)
    assert p >= (1 - 12 * eps) / (T + 1) - 3 * se
    inst = GmdInstance.of(T, 2, [(0, 1, 1, 1)])
    result = build_sa_solution(
        inst,
        mu=F(mu).limit_denominator(10**15),
        L=1,
        k=2,
        trials=200_000,
        seed=9002,
    )
    assert check_sa_consistency(result.solution).ok
    obj = float(result.objective)
    se_obj = math.sqrt(obj * (1 - obj) / result.trials)
    assert obj >= (1 - 12 * eps) / (T + 1) - 3 * se_obj
    assert time.time() - start < 300


@criterion(10, "gaussian-suite")
def test_criterion_10_gaussian_suite():
    for t in np.linspace(0.1, 10, 50):
        lo, hi = tail_bounds(float(t))
        assert lo < normal_sf(float(t)) < hi
    for a, b in [(0.2, 0.7), (0.5, 0.5), (0.9, 0.1)]:
        assert abs(gamma_rho(0.0, a, b) - a * b) <= 1e-8
    for rho in (-0.8, -0.2, 0.3, 0.9):
        assert abs(gamma_rho(rho, 0.5, 0.5) - gamma_rho_orthant(rho)) <= 1e-6
    rows = verify_gamma_properties(T_grid=(16, 64, 256))
    assert all(r.ok for r in rows if r.kind == "concavity")
    t256 = [r for r in rows if r.kind == "product-bound" and r.T == 256]
    assert t256 and all(r.ok for r in t256)
    assert first_product_bound_T(rows) is not None
    trials = 1_000_000
    for n, eps in [(2, 0.2), (16, 0.1)]:
        stats = max_gap_stats(n, trials=trials, seed=10_000 + n)
        p1, se1 = stats.prob_max_le(max_bound_threshold(n, eps))
        assert p1 >= 1 - eps - 3 * se1
        p2, se2 = stats.prob_gap_ge(gap_bound_threshold(n, eps))
        assert p2 >= 1 - 2 * eps - 3 * se2


@criterion(11, "determinism")
def test_criterion_11_determinism(tmp_path):
    inst = tmp_path / "e.gmd"
    inst.write_text("gmd 2\nv 3\ne 0 1 1 1/2\ne 1 2 2 1/2\n")
    pairs = []
    for name in ("first", "second"):
        csv = tmp_path / f"approx-{name}.csv"
        assert (
            run_command(
                [
                    "approx", "--in", str(inst), "--algo", "gmd4",
                    "--trials", "500", "--seed", "77", "--csv", str(csv),
                ]
            )
            == 0
        )
        pairs.append(csv.read_bytes())
    assert pairs[0] == pairs[1]
    gap_pair = []
    for name in ("first", "second"):
        csv = tmp_path / f"gap-{name}.csv"
        assert (
            run_command(
                [
                    "gap", "--n", "16", "--T", "2", "--delta", "3",
                    "--l", "9", "--seed", "3", "--csv", str(csv),
                ]
            )
            == 0
        )
        gap_pair.append(csv.read_bytes())
    assert gap_pair[0] == gap_pair[1]
