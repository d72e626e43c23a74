"""Gaussian kernel: cdf/quantile wrappers, the correlated upper-orthant
probability, and Monte Carlo checks of the max/second-max tail facts.

gamma_rho(rho, a, b) is the probability that two standard Gaussians with
correlation rho both exceed their upper-a and upper-b quantiles.  It is
computed by conditioning on the second coordinate (X = rho Y + sqrt(1-rho^2) Z)
and integrating the conditional tail against the Gaussian density, which
keeps absolute error near quadrature precision for every rho in (-1, 1);
the degenerate rho = +-1 and boundary a, b cases are analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from .rng import substream

SQRT_2PI = math.sqrt(2 * math.pi)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / SQRT_2PI


def normal_cdf(x: float) -> float:
    return float(ndtr(x))


def normal_sf(x: float) -> float:
    """Upper tail; computed as cdf(-x) to stay accurate far out."""
    return float(ndtr(-x))


def inverse_cdf(p: float) -> float:
    if not (0 < p < 1):
        raise ValueError(f"quantile defined on (0,1), got {p}")
    return float(ndtri(p))


def upper_quantile(a: float) -> float:
    """x with P[X >= x] = a."""
    return -inverse_cdf(a)


def tail_bounds(t: float) -> tuple[float, float]:
    """Strict lower/upper envelopes of the upper tail for t > 0."""
    if t <= 0:
        raise ValueError("tail bounds hold for t > 0")
    e = math.exp(-0.5 * t * t)
    return t / (SQRT_2PI * (t * t + 1)) * e, e / (SQRT_2PI * t)


def gamma_rho(rho: float, a: float, b: float) -> float:
    """P[X >= x_a and Y >= y_b] for correlated standard Gaussians."""
    if not (-1 <= rho <= 1):
        raise ValueError(f"correlation must be in [-1, 1], got {rho}")
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise ValueError("a, b must be probabilities")
    if a == 0 or b == 0:
        return 0.0
    if a == 1:
        return b
    if b == 1:
        return a
    x = upper_quantile(a)
    y = upper_quantile(b)
    if rho == 1:
        return min(a, b)
    if rho == -1:
        return max(0.0, a + b - 1)
    s = math.sqrt(1 - rho * rho)

    def integrand(u: float) -> float:
        return normal_sf((x - rho * u) / s) * normal_pdf(u)

    val, _ = quad(integrand, y, np.inf, epsabs=1e-11, epsrel=1e-11, limit=200)
    return float(val)


def gamma_rho_orthant(rho: float) -> float:
    """Closed form at a = b = 1/2: quarter plus arcsine."""
    return 0.25 + math.asin(rho) / (2 * math.pi)


@dataclass(frozen=True)
class GammaCheckRow:
    kind: str      # "concavity" | "product-bound"
    T: int | None
    rho: float
    a: float
    b: float
    value: float
    bound: float
    ok: bool


def verify_gamma_properties(
    T_grid: Sequence[int] = (16, 64, 256),
    rho_grid: Sequence[float] = (0.1, 0.3, 0.6, 0.9),
    a_grid: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    b_steps: int = 8,
    tol: float = 1e-6,
) -> list[GammaCheckRow]:
    """Grid report: concavity in b, and the near-independence product bound.

    Concavity rows record the worst second difference of b -> gamma(a, b).
    Product-bound rows check gamma <= a*b + 2/T^(5/4) + tol over the regime
    b <= 1/T and rho below the correlation ceiling sqrt(2)/T^(3/8); the
    caller decides which T are "large enough" by reading the ok flags.
    """
    rows = []
    for rho in rho_grid:
        for a in a_grid:
            bs = [i / b_steps for i in range(b_steps + 1)]
            vals = [gamma_rho(rho, a, b) for b in bs]
            worst = max(
                vals[i - 1] + vals[i + 1] - 2 * vals[i]
                for i in range(1, len(vals) - 1)
            )
            rows.append(
                GammaCheckRow(
                    kind="concavity",
                    T=None,
                    rho=rho,
                    a=a,
                    b=float("nan"),
                    value=worst,
                    bound=tol,
                    ok=worst <= tol,
                )
            )
    for T in T_grid:
        delta = T ** (-0.25)
        ceiling = math.sqrt(2 / (T * delta))
        slack = 2 / T ** (5 / 4)
        for frac in (0.25, 0.6, 0.95):
            rho = frac * ceiling
            for a in a_grid:
                for b in (0.25 / T, 0.6 / T, 1.0 / T):
                    val = gamma_rho(rho, a, b)
                    bound = a * b + slack + tol
                    rows.append(
                        GammaCheckRow(
                            kind="product-bound",
                            T=T,
                            rho=rho,
                            a=a,
                            b=b,
                            value=val,
                            bound=bound,
                            ok=val <= bound,
                        )
                    )
    return rows


def first_product_bound_T(rows: Sequence[GammaCheckRow]) -> int | None:
    """Smallest grid T whose product-bound rows all pass."""
    by_T: dict[int, bool] = {}
    for r in rows:
        if r.kind == "product-bound":
            by_T[r.T] = by_T.get(r.T, True) and r.ok
    passing = sorted(T for T, ok in by_T.items() if ok)
    return passing[0] if passing else None


@dataclass(frozen=True)
class MaxGapStats:
    n: int
    trials: int
    seed: int
    mean_max: float
    mean_gap: float
    _max_samples: np.ndarray
    _gap_samples: np.ndarray

    def prob_max_le(self, x: float) -> tuple[float, float]:
        p = float(np.mean(self._max_samples <= x))
        return p, math.sqrt(max(p * (1 - p), 1e-300) / self.trials)

    def prob_gap_ge(self, x: float) -> tuple[float, float]:
        p = float(np.mean(self._gap_samples >= x))
        return p, math.sqrt(max(p * (1 - p), 1e-300) / self.trials)


def max_gap_stats(n: int, trials: int, seed: int) -> MaxGapStats:
    if n < 2:
        raise ValueError("need at least two Gaussians")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = substream(seed, 0)
    chunk = max(1, min(trials, 2_000_000 // n))
    maxes = np.empty(trials)
    gaps = np.empty(trials)
    done = 0
    while done < trials:
        step = min(chunk, trials - done)
        g = rng.standard_normal((step, n))
        part = np.partition(g, n - 2, axis=1)
        maxes[done:done + step] = part[:, -1]
        gaps[done:done + step] = part[:, -1] - part[:, -2]
        done += step
    return MaxGapStats(
        n=n,
        trials=trials,
        seed=seed,
        mean_max=float(maxes.mean()),
        mean_gap=float(gaps.mean()),
        _max_samples=maxes,
        _gap_samples=gaps,
    )


def max_bound_threshold(n: int, eps: float) -> float:
    """x above which the maximum of n Gaussians stays below with prob >= 1-eps."""
    return math.sqrt(2 * math.log(n / eps))


def gap_bound_threshold(n: int, eps: float) -> float:
    """x below which max minus second-max exceeds x with prob >= 1-2*eps."""
    return eps / (2 * math.sqrt(math.log(n / eps)))
