import math

import numpy as np
import pytest

from gmdlab.gaussmath import (
    first_product_bound_T,
    gamma_rho,
    gamma_rho_orthant,
    gap_bound_threshold,
    inverse_cdf,
    max_bound_threshold,
    max_gap_stats,
    normal_cdf,
    normal_sf,
    tail_bounds,
    upper_quantile,
    verify_gamma_properties,
)


def test_cdf_symmetry_point():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_sf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_tail_sandwich_at_one():
    lo, hi = tail_bounds(1.0)
    assert lo == pytest.approx(0.12099, abs=5e-6)
    assert hi == pytest.approx(0.24197, abs=5e-6)
    assert lo < normal_sf(1.0) < hi
    assert normal_sf(1.0) == pytest.approx(0.158655, abs=1e-6)


def test_tail_sandwich_strict_on_grid():
    for t in np.linspace(0.1, 10, 60):
        lo, hi = tail_bounds(float(t))
        assert lo < normal_sf(float(t)) < hi


def test_inverse_round_trip():
    assert inverse_cdf(normal_cdf(1.3)) == pytest.approx(1.3, abs=1e-9)
    for p in (1e-10, 0.25, 0.5, 0.75, 1 - 1e-10):
        assert normal_cdf(inverse_cdf(p)) == pytest.approx(p, abs=1e-12)
    with pytest.raises(ValueError):
        inverse_cdf(0.0)


def test_gamma_independence():
    for a, b in [(0.3, 0.7), (0.05, 0.05), (0.9, 0.2)]:
        assert gamma_rho(0.0, a, b) == pytest.approx(a * b, abs=1e-8)


def test_gamma_boundary_cases():
    assert gamma_rho(0.5, 1.0, 0.37) == 0.37
    assert gamma_rho(0.5, 0.0, 0.37) == 0.0
    assert gamma_rho(1.0, 0.3, 0.6) == 0.3
    assert gamma_rho(-1.0, 0.7, 0.6) == pytest.approx(0.3, abs=1e-12)
    assert gamma_rho(-1.0, 0.3, 0.6) == 0.0


def test_gamma_orthant_identity():
    for rho in (-0.9, -0.4, 0.0, 0.2, 0.5, 0.8, 0.99):
        assert gamma_rho(rho, 0.5, 0.5) == pytest.approx(
            gamma_rho_orthant(rho), abs=1e-6
        )


def test_gamma_monte_carlo_cross_check():
    from gmdlab.rng import substream

    rng = substream(42, 0)
    trials = 400_000
    for rho, a, b in [(0.35, 0.3, 0.2), (0.8, 0.6, 0.45)]:
        y = rng.standard_normal(trials)
        z = rng.standard_normal(trials)
        x = rho * y + math.sqrt(1 - rho * rho) * z
        xa, yb = upper_quantile(a), upper_quantile(b)
        p = float(np.mean((x >= xa) & (y >= yb)))
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(gamma_rho(rho, a, b) - p) <= 4 * se


def test_gamma_symmetry_and_frechet():
    for rho in (0.2, 0.7):
        for a in (0.15, 0.5, 0.8):
            for b in (0.1, 0.45, 0.9):
                g = gamma_rho(rho, a, b)
                assert abs(g - gamma_rho(rho, b, a)) <= 1e-8
                assert max(0.0, a + b - 1) - 1e-8 <= g <= min(a, b) + 1e-8


def test_gamma_monotone_in_rho():
    for a, b in [(0.3, 0.4), (0.6, 0.1)]:
        vals = [gamma_rho(r, a, b) for r in (-0.8, -0.3, 0.0, 0.3, 0.8)]
        assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))


def test_verify_gamma_properties_report():
    rows = verify_gamma_properties(T_grid=(64, 256), rho_grid=(0.0, 0.4, 0.8))
    concave = [r for r in rows if r.kind == "concavity"]
    assert concave and all(r.ok for r in concave)
    zero_rows = [r for r in concave if r.rho == 0.0]
    assert all(abs(r.value) <= 1e-6 for r in zero_rows)
    assert first_product_bound_T(rows) in (64, 256)
    t256 = [r for r in rows if r.kind == "product-bound" and r.T == 256]
    assert t256 and all(r.ok for r in t256)


def test_max_gap_two_gaussians_closed_form():
    stats = max_gap_stats(2, trials=400_000, seed=6)
    # max - secondmax = |g1 - g2| with mean 2/sqrt(pi)
    se = 1.0 / math.sqrt(stats.trials)
    assert abs(stats.mean_gap - 2 / math.sqrt(math.pi)) <= 4 * se
    # E[max of two] = 1/sqrt(pi)
    assert abs(stats.mean_max - 1 / math.sqrt(math.pi)) <= 4 * se


def test_max_bound_lemma_grid():
    for n, eps in [(2, 0.2), (16, 0.1), (64, 0.05)]:
        stats = max_gap_stats(n, trials=200_000, seed=100 + n)
        x = max_bound_threshold(n, eps)
        p, se = stats.prob_max_le(x)
        assert p >= 1 - eps - 3 * se


def test_gap_bound_lemma_grid():
    for n, eps in [(2, 0.2), (16, 0.1)]:
        stats = max_gap_stats(n, trials=200_000, seed=200 + n)
        x = gap_bound_threshold(n, eps)
        p, se = stats.prob_gap_ge(x)
        assert p >= 1 - 2 * eps - 3 * se


def test_gap_threshold_example_value():
    assert gap_bound_threshold(2, 0.2) == pytest.approx(0.0659, abs=2e-4)


def test_max_gap_requires_two():
    with pytest.raises(ValueError):
        max_gap_stats(1, trials=10, seed=0)


def test_max_gap_requires_a_trial():
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        max_gap_stats(2, trials=0, seed=0)
