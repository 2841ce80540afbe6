"""Alias and inverse-CDF samplers: construction invariants and agreement."""

import numpy as np
import pytest

from keyrace import stats
from keyrace.baselines import (
    alias_reconstruction,
    build_weight_table,
    sample_alias,
    sample_alias_indices,
    sample_inverse,
    sample_inverse_indices,
)

RECON_TOL = 2.0**-40


class TestBuild:
    def test_equal_weights(self):
        table = build_weight_table(["a", "b"], [1.0, 1.0])
        np.testing.assert_array_equal(table.alias_cutoff, [1.0, 1.0])
        np.testing.assert_allclose(alias_reconstruction(table), [0.5, 0.5], atol=RECON_TOL)

    def test_one_two_three(self):
        table = build_weight_table(["a", "b", "c"], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            alias_reconstruction(table), [1 / 6, 1 / 3, 1 / 2], atol=RECON_TOL
        )
        np.testing.assert_allclose(table.cumulative, [1 / 6, 1 / 2, 1.0], rtol=1e-15)
        assert table.cumulative[-1] == 1.0

    def test_single_label_degenerate(self):
        table = build_weight_table(["only"], [7.0])
        assert table.alias_cutoff[0] == 1.0
        assert table.alias_index[0] == 0
        for u in (0.01, 0.5, 0.99):
            assert sample_alias(table, u, u) == "only"
            assert sample_inverse(table, u) == "only"

    def test_cumulative_strictly_increasing(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 10.0, size=500)
        table = build_weight_table([f"l{i}" for i in range(500)], w)
        assert np.all(np.diff(table.cumulative) > 0)
        assert table.cumulative[-1] == 1.0

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 50, 333, 1000])
    def test_reconstruction_identity_random_weights(self, size):
        rng = np.random.default_rng(size)
        w = rng.uniform(0.05, 20.0, size=size)
        table = build_weight_table([f"l{i:04d}" for i in range(size)], w)
        np.testing.assert_allclose(
            alias_reconstruction(table), w / w.sum(), atol=RECON_TOL
        )

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            build_weight_table(["a", "b"], [1.0, 0.0])
        with pytest.raises(ValueError):
            build_weight_table(["a", "b"], [1.0, -2.0])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_weight_table(["a", "a"], [1.0, 2.0])


class TestAliasSampling:
    def test_two_outcome_frequencies(self):
        table = build_weight_table(["a", "b"], [1.0, 3.0])
        n = 100_000
        rng = np.random.default_rng(1)
        idx = sample_alias_indices(table, rng.random(n), rng.random(n))
        freq_b = np.mean(idx == 1)
        sigma = (0.75 * 0.25 / n) ** 0.5
        assert abs(freq_b - 0.75) < 3 * sigma

    def test_three_outcome_chi_square(self):
        table = build_weight_table(["a", "b", "c"], [1.0, 2.0, 3.0])
        rng = np.random.default_rng(2)
        n = 60_000
        idx = sample_alias_indices(table, rng.random(n), rng.random(n))
        report = stats.chi_square_gof(np.bincount(idx, minlength=3), [1 / 6, 1 / 3, 1 / 2])
        assert not report.reject_at(1e-3)

    def test_scalar_matches_vectorized(self):
        table = build_weight_table(["a", "b", "c", "d"], [0.4, 1.1, 2.2, 0.8])
        rng = np.random.default_rng(3)
        u1, u2 = rng.random(500), rng.random(500)
        idx = sample_alias_indices(table, u1, u2)
        for i in range(500):
            assert sample_alias(table, u1[i], u2[i]) == table.labels[idx[i]]


class TestInverseSampling:
    def test_below_first_cumulative(self):
        table = build_weight_table(["a", "b", "c"], [1.0, 2.0, 3.0])
        assert sample_inverse(table, 0.01) == "a"

    def test_one_two_three_at_point_four(self):
        # cumulative (1/6, 1/2, 1): u = 0.4 lands in the second cell
        table = build_weight_table(["a", "b", "c"], [1.0, 2.0, 3.0])
        assert sample_inverse(table, 0.4) == "b"

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        table = build_weight_table([f"l{i}" for i in range(40)], rng.uniform(0.1, 5, 40))
        u = rng.random(300)
        idx = sample_inverse_indices(table, u)
        for i in range(300):
            assert table.labels[idx[i]] == sample_inverse(table, u[i])

    def test_boundary_u_values(self):
        table = build_weight_table(["a", "b"], [1.0, 1.0])
        assert sample_inverse(table, 0.0) == "a"
        assert sample_inverse(table, 0.5) == "b"  # cumulative[0] == 0.5 is not > u
        assert sample_inverse(table, 0.999999) == "b"


def test_alias_agrees_with_key_race():
    """Alias draws and key-race winners follow the same law for (1,2,3)."""
    from keyrace.families import Family, ModelSpec
    from keyrace.sampler import replicate_winners

    probs = np.asarray([1 / 6, 1 / 3, 1 / 2])
    table = build_weight_table(["a", "b", "c"], [1.0, 2.0, 3.0])
    rng = np.random.default_rng(6)
    n = 60_000
    alias_counts = np.bincount(
        sample_alias_indices(table, rng.random(n), rng.random(n)), minlength=3
    )
    race_counts = np.bincount(
        replicate_winners(ModelSpec(Family.CANONICAL), ["a", "b", "c"], [1.0, 2.0, 3.0], 91, n),
        minlength=3,
    )
    assert not stats.chi_square_gof(alias_counts, probs).reject_at(1e-3)
    assert not stats.chi_square_gof(race_counts, probs).reject_at(1e-3)
    assert not stats.chi_square_two_sample(alias_counts, race_counts).reject_at(1e-3)
