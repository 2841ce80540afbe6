"""p-value kernels against independent references, plus the experiment runner.

All "frozen" constants below were computed separately with 40+ digit
mpmath arithmetic; they are the independent side of every dual check, so
none of the kernels here is ever validated against itself.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrace.families import Family, ModelSpec
from keyrace.sampler import replicate_uniforms
from keyrace.stats import (
    GofReport,
    chi_square_gof,
    chi_square_two_sample,
    ks_one_sample,
    ks_two_sample,
    regularized_gamma_q,
    run_choice_experiment,
)
from keyrace.validation import GAMMAQ_REFERENCE, _cells

# Kolmogorov survival function 2*sum (-1)^(k-1) exp(-2 k^2 x^2), frozen
KOLMOGOROV_REFERENCE = [
    (0.3, 0.99999069419866543),
    (0.5, 0.96394524366487509),
    (0.8, 0.54414241157419808),
    (1.0, 0.26999967167735452),
    (1.5, 0.022217962616525129),
    (2.0, 0.00067092525577969535),
]


class TestGammaKernel:
    def test_reference_vector(self):
        for a, x, expected in GAMMAQ_REFERENCE:
            got = regularized_gamma_q(a, x)
            assert got == pytest.approx(expected, rel=1e-6), (a, x)

    def test_boundaries(self):
        assert regularized_gamma_q(2.5, 0.0) == 1.0
        with pytest.raises(ValueError):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -0.5)


class TestChiSquare:
    def test_perfect_fit(self):
        report = chi_square_gof([25, 25, 50], [0.25, 0.25, 0.5])
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert report.df == 2

    def test_df2_closed_form(self):
        # chi-square with two degrees of freedom is exponential:
        # P(X > 2) = exp(-1)
        report = chi_square_gof([60, 40], [0.5, 0.5])
        assert report.statistic == pytest.approx(4.0)
        got = regularized_gamma_q(1.0, 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_frozen_df3(self):
        # Q(1.5, 2.0) frozen from the high-precision oracle
        assert regularized_gamma_q(1.5, 2.0) == pytest.approx(0.26146412994911062, rel=1e-9)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="sum"):
            chi_square_gof([50, 50], [0.6, 0.6])

    def test_rejects_small_expected_counts(self):
        with pytest.raises(ValueError, match="expected count"):
            chi_square_gof([99, 1], [0.999, 0.001])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            chi_square_gof([50, -1], [0.5, 0.5])

    def test_reject_at(self):
        report = GofReport("chi-square-gof", 30.0, 1e-5, df=2)
        assert report.reject_at(1e-3)
        assert not report.reject_at(1e-6)


class TestChiSquareTwoSample:
    def test_same_distribution_accepts(self):
        rng = np.random.default_rng(0)
        a = rng.multinomial(50_000, [0.2, 0.3, 0.5])
        b = rng.multinomial(50_000, [0.2, 0.3, 0.5])
        assert not chi_square_two_sample(a, b).reject_at(1e-3)

    def test_different_distribution_rejects(self):
        rng = np.random.default_rng(1)
        a = rng.multinomial(50_000, [0.2, 0.3, 0.5])
        b = rng.multinomial(50_000, [0.3, 0.3, 0.4])
        assert chi_square_two_sample(a, b).reject_at(1e-3)


class TestKolmogorovSmirnov:
    def test_series_reference(self):
        from keyrace.stats import _kolmogorov_sf

        for lam, expected in KOLMOGOROV_REFERENCE:
            assert _kolmogorov_sf(lam) == pytest.approx(expected, rel=1e-8)

    def test_quantile_grid_perfect_fit(self):
        n = 1000
        grid = (np.arange(1, n + 1) - 0.5) / n
        samples = grid**2  # quantiles of F(t) = sqrt(t)
        report = ks_one_sample(samples, lambda t: np.sqrt(np.clip(t, 0, 1)))
        assert report.statistic <= 1.0 / n + 1e-12
        assert report.p_value > 0.999

    def test_canonical_keys_against_power_law(self):
        u = replicate_uniforms(13, "ks", "a", 10_000)
        keys = u ** (1.0 / 3.0)
        assert not ks_one_sample(keys, lambda t: np.clip(t, 0, 1) ** 3).reject_at(1e-3)
        assert ks_one_sample(keys, lambda t: np.clip(t, 0, 1) ** 2).reject_at(1e-3)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least"):
            ks_one_sample(np.linspace(0.1, 0.9, 50), lambda t: t)
        with pytest.raises(ValueError, match="at least"):
            ks_two_sample(np.linspace(0.1, 0.9, 50), np.linspace(0.1, 0.9, 200))

    def test_identical_samples_zero_statistic(self):
        a = replicate_uniforms(14, "ks", "b", 500)
        report = ks_two_sample(a, a.copy())
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_two_sample_power(self):
        u1 = replicate_uniforms(15, "ks", "c", 20_000)
        u2 = replicate_uniforms(15, "ks", "d", 20_000)
        assert not ks_two_sample(u1, u2).reject_at(1e-3)
        assert ks_two_sample(u1, u2**4).reject_at(1e-3)


class TestChoiceExperiment:
    def test_equal_strengths(self):
        report = run_choice_experiment(
            ModelSpec(Family.GUMBEL1), [1.5, 1.5], replicates=20_000, seed=3
        )
        assert not report.reject_at(1e-3)

    def test_deterministic_reports(self):
        a = run_choice_experiment(ModelSpec(Family.CANONICAL), [1, 2, 3], 5_000, seed=4)
        b = run_choice_experiment(ModelSpec(Family.CANONICAL), [1, 2, 3], 5_000, seed=4)
        assert a == b

    def test_weights_past_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid value on the way
            report = run_choice_experiment(ModelSpec(Family.CANONICAL), [1e308, 1e308],
                                           replicates=5_000, seed=6)
        assert report.df == 1 and not report.reject_at(1e-3)

    def test_no_strengths_raise_as_the_race_does(self):
        with pytest.raises(ValueError, match="need at least one label"):
            run_choice_experiment(ModelSpec(Family.CANONICAL), [], 100, seed=5)

    def test_insufficient_replicates_raise(self):
        with pytest.raises(ValueError, match="expected count"):
            run_choice_experiment(ModelSpec(Family.CANONICAL), [1.0, 1000.0], 100, seed=5)

    def test_power_sanity_over_seeds(self):
        # correct nulls rarely reject; at most 1 rejection over 20 seeds
        rejections = 0
        for s in range(20):
            report = run_choice_experiment(
                ModelSpec(Family.EXPMIN), [1.0, 2.0], replicates=10_000, seed=100 + s
            )
            rejections += int(report.reject_at(1e-3))
        assert rejections <= 1

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(Family.GUMBEL1, scale_c=2.5, offset_d=-1.0),
            ModelSpec(Family.FRECHET2, scale_c=0.5, offset_d=2.0),
            ModelSpec(Family.NEGEXP, scale_c=2.0, offset_d=-0.5),
        ],
        ids=["gumbel1-c2.5", "frechet2-c0.5", "negexp-c2"],
    )
    def test_nonunit_scale_still_weight_proportional(self, spec):
        # the winner law must not depend on c or d, only on the weights
        from keyrace.families import alpha_to_strength

        weights = np.array([1.0, 2.0, 3.0])
        strengths = alpha_to_strength(spec, weights)
        report = run_choice_experiment(spec, strengths, replicates=60_000, seed=8)
        assert not report.reject_at(1e-3), report


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=12),
       st.sampled_from([10_000, 60_000]))
def test_cells_pool_the_least_likely_outcomes(weights, n):
    """Cochran's rule: the least likely outcomes share cell 0, the fewest that leave every
    cell expecting 5 or more, and every other outcome is a cell of its own."""
    probs = np.asarray(weights) / sum(weights)
    cells, cell_probs = _cells(probs, n)
    np.testing.assert_allclose(np.bincount(cells, weights=probs), cell_probs, rtol=1e-12)
    if (n * probs).min() >= 5:
        assert cells.tolist() == list(range(probs.size)) and cell_probs is probs
        return
    pooled = cells == 0
    assert np.bincount(cells).tolist() == [pooled.sum()] + [1] * (cell_probs.size - 1)
    assert probs[pooled].max() <= probs[~pooled].min(initial=1.0)
    assert cell_probs.size == 1 or (n * cell_probs).min() >= 5
    # one outcome fewer in the pool would leave a cell expecting less than 5
    smaller = np.sort(probs[pooled])[:-1]
    assert n * smaller.sum() < 5 or n * probs[pooled].max() < 5
