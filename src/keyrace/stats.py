"""Goodness-of-fit machinery for validating the samplers.

Self-contained on purpose: the p-value kernels (regularized incomplete
gamma for chi-square, the asymptotic Kolmogorov series for KS) are
implemented here and cross-checked in the test suite against an
independently computed reference vector, so the statistical harness never
certifies the samplers with code from the same library it is certifying.

All experiment runners are deterministic functions of their seed: the
uniforms behind every replicate are derived per (replicate, group, label),
so reports are identical across runs and execution schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .families import ModelSpec, _win_probabilities
from .sampler import replicate_winners

__all__ = [
    "GofReport",
    "regularized_gamma_q",
    "chi_square_gof",
    "chi_square_two_sample",
    "ks_one_sample",
    "ks_two_sample",
    "run_choice_experiment",
]

_PROB_SUM_TOL = 2.0**-30
_MIN_EXPECTED = 5.0
_MIN_KS_SAMPLES = 100
_KS_TERM_TOL = 1e-10


@dataclass(frozen=True)
class GofReport:
    """Outcome of one goodness-of-fit test."""

    test: str
    statistic: float
    p_value: float
    df: int | None = None
    n_effective: float | None = None

    def reject_at(self, significance: float) -> bool:
        return self.p_value < significance

    def as_dict(self) -> dict:
        """Machine-readable form (JSON-friendly)."""
        out = {"test": self.test, "statistic": self.statistic, "p_value": self.p_value}
        if self.df is not None:
            out["df"] = self.df
        if self.n_effective is not None:
            out["n_effective"] = self.n_effective
        return out


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for a > 0, x >= 0.

    Series expansion of the lower function for x < a + 1, Lentz continued
    fraction for the upper function otherwise; both iterated well past
    1e-8 relative accuracy.
    """
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a(a+1)...(a+n))
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(10_000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p = total * math.exp(-x + a * math.log(x) - lg)
        return max(0.0, min(1.0, 1.0 - p))
    # Q(a,x) = x^a e^-x / Gamma(a) * 1/(x+1-a- 1*(1-a)/(x+3-a- ...))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q = h * math.exp(-x + a * math.log(x) - lg)
    return max(0.0, min(1.0, q))


def _counts_array(observed: Sequence[int]) -> np.ndarray:
    counts = np.asarray(observed)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("need at least two outcome counts")
    if np.any(counts < 0) or not np.all(counts == np.floor(counts)):
        raise ValueError("observed counts must be nonnegative integers")
    return counts.astype(np.float64)


def chi_square_gof(observed: Sequence[int], expected_probs: Sequence[float]) -> GofReport:
    """Pearson chi-square of observed counts against expected probabilities."""
    counts = _counts_array(observed)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if probs.shape != counts.shape:
        raise ValueError("observed and expected lengths differ")
    if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
        raise ValueError(f"expected probabilities sum to {probs.sum()!r}, not 1")
    n = counts.sum()
    expected = n * probs
    if np.any(expected < _MIN_EXPECTED):
        raise ValueError(
            f"smallest expected count {expected.min():.3g} < {_MIN_EXPECTED:g}; "
            "use more samples or merge outcomes"
        )
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    df = counts.size - 1
    p = regularized_gamma_q(df / 2.0, statistic / 2.0)
    return GofReport("chi-square-gof", statistic, p, df=df)


def chi_square_two_sample(counts_a: Sequence[int], counts_b: Sequence[int]) -> GofReport:
    """Chi-square homogeneity test between two count vectors."""
    a = _counts_array(counts_a)
    b = _counts_array(counts_b)
    if a.shape != b.shape:
        raise ValueError("count vectors must have equal length")
    table = np.stack([a, b])
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / table.sum()
    if np.any(expected < _MIN_EXPECTED):
        raise ValueError("smallest expected cell below 5; use more samples")
    statistic = float(np.sum((table - expected) ** 2 / expected))
    df = a.size - 1
    p = regularized_gamma_q(df / 2.0, statistic / 2.0)
    return GofReport("chi-square-2sample", statistic, p, df=df)


def _kolmogorov_sf(lam: float) -> float:
    """P(sup-norm statistic > lam) under the asymptotic Kolmogorov law:
    2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2), truncated at 1e-10 terms."""
    if lam <= 1e-3:
        return 1.0
    two_lam2 = 2.0 * lam * lam
    total = 0.0
    sign = 1.0
    for k in range(1, 100_000):
        term = math.exp(-two_lam2 * k * k)
        total += sign * term
        if term < _KS_TERM_TOL:
            break
        sign = -sign
    return max(0.0, min(1.0, 2.0 * total))


def ks_one_sample(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> GofReport:
    """One-sample Kolmogorov-Smirnov test against a continuous CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < _MIN_KS_SAMPLES:
        raise ValueError(f"need at least {_MIN_KS_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    d = float(max(d_plus, d_minus))
    p = _kolmogorov_sf(math.sqrt(n) * d)
    return GofReport("ks-1sample", d, p, n_effective=float(n))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> GofReport:
    """Two-sample Kolmogorov-Smirnov test with effective size nm/(n+m)."""
    x = np.sort(np.asarray(a, dtype=np.float64))
    y = np.sort(np.asarray(b, dtype=np.float64))
    n, m = x.size, y.size
    if n < _MIN_KS_SAMPLES or m < _MIN_KS_SAMPLES:
        raise ValueError(f"need at least {_MIN_KS_SAMPLES} samples in each sample")
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / n
    cdf_y = np.searchsorted(y, both, side="right") / m
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    n_eff = n * m / (n + m)
    p = _kolmogorov_sf(math.sqrt(n_eff) * d)
    return GofReport("ks-2sample", d, p, n_effective=float(n_eff))


def run_choice_experiment(
    spec: ModelSpec,
    strengths: Sequence[float],
    replicates: int,
    seed: int,
    labels: Sequence[str] | None = None,
) -> GofReport:
    """Race one group `replicates` times and chi-square the winner tallies
    against the weight-proportional probabilities implied by the strengths."""
    strengths = np.asarray(strengths, dtype=np.float64)
    if labels is None:
        labels = [f"c{i:02d}" for i in range(strengths.size)]
    probs = _win_probabilities(spec, strengths)
    winners = replicate_winners(spec, list(labels), strengths, seed, replicates)
    counts = np.bincount(winners, minlength=strengths.size)
    return chi_square_gof(counts, probs)
