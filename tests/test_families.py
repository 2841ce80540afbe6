"""Key families: exact values, domain rules, and distributional laws.

Reference values marked "frozen" were computed independently with
40-digit mpmath arithmetic and pasted in as literals.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrace import stats
from keyrace.families import (
    DegenerateWeightError,
    Family,
    FamilyDomainError,
    ModelSpec,
    Orientation,
    _order_keys,
    alpha_to_strength,
    key_canonical,
    key_expmin,
    key_frechet2,
    key_gumbel1,
    key_negexp,
    log_key_canonical,
    strength_to_alpha,
)
from keyrace.sampler import replicate_uniforms

INV_E = math.exp(-1.0)


class TestCanonical:
    def test_identity_at_unit_weight(self):
        assert key_canonical(1.0, 0.3) == 0.3

    def test_square_root(self):
        assert key_canonical(2.0, 0.25) == 0.5

    def test_frozen_value(self):
        # exp(ln(0.5)/10), frozen from the high-precision oracle
        assert key_canonical(10.0, 0.5) == pytest.approx(0.9330329915368074, rel=1e-14)

    def test_range_and_monotonicity(self):
        u = np.linspace(0.001, 0.999, 500)
        k = key_canonical(3.7, u)
        assert np.all((k > 0) & (k < 1))
        assert np.all(np.diff(k) > 0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_bad_alpha(self, alpha):
        with pytest.raises(FamilyDomainError):
            key_canonical(alpha, 0.5)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_bad_uniform(self, u):
        with pytest.raises(FamilyDomainError):
            key_canonical(1.0, u)


class TestGumbel1:
    def test_zero_point(self):
        # -log(-log(1/e)) = 0
        assert key_gumbel1(0.0, 1.0, INV_E) == pytest.approx(0.0, abs=1e-12)

    def test_additive_shift(self):
        assert key_gumbel1(3.5, 1.0, INV_E) == pytest.approx(3.5, abs=1e-12)

    def test_frozen_value(self):
        # -2*log(log 2), frozen from the high-precision oracle
        assert key_gumbel1(0.0, 2.0, 0.5) == pytest.approx(0.7330258411633287, rel=1e-14)

    def test_bad_uniform(self):
        with pytest.raises(FamilyDomainError):
            key_gumbel1(0.0, 1.0, 1.0)

    def test_bad_scale(self):
        with pytest.raises(FamilyDomainError):
            key_gumbel1(0.0, 0.0, 0.5)


class TestFrechet2:
    def test_unit_case(self):
        assert key_frechet2(1.0, 1.0, INV_E) == pytest.approx(1.0, rel=1e-12)

    def test_scaling(self):
        assert key_frechet2(5.0, 1.0, INV_E) == pytest.approx(5.0, rel=1e-12)

    def test_frozen_value(self):
        # 2*(-log 0.9)^(-1/2), frozen from the high-precision oracle
        assert key_frechet2(2.0, 0.5, 0.9) == pytest.approx(6.161565249522203, rel=1e-14)

    def test_positive(self):
        u = np.linspace(0.01, 0.99, 101)
        assert np.all(key_frechet2(-3.0, 2.0, u) > 0)  # |s| is used

    def test_zero_strength_rejected(self):
        with pytest.raises(DegenerateWeightError):
            key_frechet2(0.0, 1.0, 0.5)


class TestNegExp:
    def test_unit_case(self):
        assert key_negexp(-1.0, 1.0, INV_E) == pytest.approx(-1.0, rel=1e-12)

    def test_scaling(self):
        assert key_negexp(-3.0, 1.0, INV_E) == pytest.approx(-3.0, rel=1e-12)

    def test_frozen_value(self):
        # -0.5*(ln 10)^2, frozen from the high-precision oracle
        assert key_negexp(0.5, 2.0, 0.1) == pytest.approx(-2.650949055239199, rel=1e-14)

    def test_negative(self):
        u = np.linspace(0.01, 0.99, 101)
        assert np.all(key_negexp(2.0, 0.5, u) < 0)

    def test_zero_strength_rejected(self):
        with pytest.raises(DegenerateWeightError):
            key_negexp(0.0, 1.0, 0.5)


class TestExpMin:
    def test_unit_rate(self):
        assert key_expmin(1.0, INV_E) == pytest.approx(1.0, rel=1e-12)

    def test_rate_scaling(self):
        assert key_expmin(4.0, INV_E) == pytest.approx(0.25, rel=1e-12)

    def test_frozen_value(self):
        # -ln(0.7)/2, frozen from the high-precision oracle
        assert key_expmin(2.0, 0.7) == pytest.approx(0.17833747196936619, rel=1e-14)

    def test_bad_alpha(self):
        with pytest.raises(FamilyDomainError):
            key_expmin(-2.0, 0.5)


@pytest.mark.parametrize("key, args, message", [
    (key_canonical, (0.0, 0.5), "canonical: strength is the weight itself and must be positive"),
    (log_key_canonical, (-1.0, 0.5), "canonical: strength is the weight itself"),
    (key_gumbel1, (math.nan, 1.0, 0.5), "gumbel1: strength must be finite, got nan"),
    (key_frechet2, (math.inf, 1.0, 0.5), "frechet2: strength must be finite, got inf"),
    (key_negexp, (-0.0, 1.0, 0.5), "negexp: strength 0 would give the outcome zero mass"),
    (key_expmin, (np.array([1.0, -2.0]), 0.5), "expmin: strength is the weight itself"),
    (key_gumbel1, (0.0, -1.0, 0.5), "scale_c must be positive for gumbel1, got -1.0"),
])
def test_key_functions_carry_the_spec_messages(key, args, message):
    with pytest.raises(FamilyDomainError, match=re.escape(message)):
        key(*args)


@pytest.mark.parametrize("key", [key_gumbel1, key_frechet2, key_negexp])
@pytest.mark.parametrize("strength", [2.0, np.array([2.0, 3.0])], ids=["scalar", "array"])
def test_array_scale_rejected(key, strength):
    # c is a ModelSpec's scale_c: one number for every row, never one per row
    with pytest.raises(TypeError):
        key(strength, np.array([1.0, 2.0]), 0.5)


class TestStrengthToAlpha:
    def test_gumbel1_unit(self):
        assert strength_to_alpha(ModelSpec(Family.GUMBEL1), 0.0) == pytest.approx(1.0)

    def test_canonical_identity(self):
        assert strength_to_alpha(ModelSpec(Family.CANONICAL), 2.5) == 2.5

    def test_gumbel1_frozen(self):
        spec = ModelSpec(Family.GUMBEL1, scale_c=2.0, offset_d=1.0)
        assert strength_to_alpha(spec, 3.0) == pytest.approx(2.718281828459045, rel=1e-14)

    def test_canonical_rejects_nonpositive(self):
        with pytest.raises(FamilyDomainError, match="canonical"):
            strength_to_alpha(ModelSpec(Family.CANONICAL), -1.0)

    def test_frechet2_rejects_wrong_sign(self):
        with pytest.raises(FamilyDomainError, match="frechet2"):
            strength_to_alpha(ModelSpec(Family.FRECHET2), -2.0)

    def test_negexp_rejects_wrong_sign(self):
        with pytest.raises(FamilyDomainError, match="negexp"):
            strength_to_alpha(ModelSpec(Family.NEGEXP), 2.0)

    @pytest.mark.parametrize("family", list(Family))
    def test_round_trip(self, family):
        spec = ModelSpec(family, scale_c=1.7)
        alphas = np.exp(np.linspace(np.log(0.05), np.log(50.0), 23))
        back = strength_to_alpha(spec, alpha_to_strength(spec, alphas))
        np.testing.assert_allclose(back, alphas, rtol=1e-12)


class TestModelSpec:
    def test_orientation(self):
        assert ModelSpec(Family.EXPMIN).orientation is Orientation.MIN
        for family in (Family.CANONICAL, Family.GUMBEL1, Family.FRECHET2, Family.NEGEXP):
            assert ModelSpec(family).orientation is Orientation.MAX

    def test_family_default_offsets(self):
        assert ModelSpec(Family.GUMBEL1).offset_d == 0.0
        assert ModelSpec(Family.FRECHET2).offset_d == 1.0
        assert ModelSpec(Family.NEGEXP).offset_d == -1.0

    def test_scale_must_be_positive(self):
        with pytest.raises(FamilyDomainError):
            ModelSpec(Family.GUMBEL1, scale_c=0.0)

    def test_multiplicative_offsets_validated(self):
        with pytest.raises(FamilyDomainError):
            ModelSpec(Family.FRECHET2, offset_d=-1.0)
        with pytest.raises(FamilyDomainError):
            ModelSpec(Family.NEGEXP, offset_d=2.0)

    def test_from_string(self):
        assert ModelSpec("gumbel1").family is Family.GUMBEL1

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("constant", ["scale_c", "offset_d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_constants_rejected(self, family, constant, value):
        with pytest.raises(FamilyDomainError, match=f"{constant} must be finite"):
            ModelSpec(family, **{constant: value})


@settings(max_examples=200, deadline=None)
@given(
    u1=st.floats(1e-9, 1 - 1e-9),
    u2=st.floats(1e-9, 1 - 1e-9),
    alpha=st.floats(0.05, 20.0),
)
def test_keys_strictly_monotone_in_uniform(u1, u2, alpha):
    """Larger uniform, larger key, for every family (reversed for expmin).

    Weights are kept within [0.05, 20] and the uniforms at least 1e-6
    apart: beyond that, u**(1/a) genuinely underflows or its increments
    fall below one ulp in float64 (the log-domain form covers that
    regime, see test_log_key_survives_extreme_weights).
    """
    if abs(u1 - u2) <= 1e-6:
        return
    lo, hi = min(u1, u2), max(u1, u2)
    assert key_canonical(alpha, lo) < key_canonical(alpha, hi)
    assert log_key_canonical(alpha, lo) < log_key_canonical(alpha, hi)
    assert key_gumbel1(alpha, 1.3, lo) < key_gumbel1(alpha, 1.3, hi)
    assert key_frechet2(alpha, 0.7, lo) < key_frechet2(alpha, 0.7, hi)
    assert key_negexp(-alpha, 2.1, lo) < key_negexp(-alpha, 2.1, hi)
    assert key_expmin(alpha, lo) > key_expmin(alpha, hi)


@st.composite
def _order_key_calls(draw):
    """A spec, strengths in its domain (one for all rows, or one per row) and uniforms.

    0.5, 1 and 2 as ``scale_c`` are the exponents ±0.5, ±1 and 2 that
    numpy's ``**`` computes by its fast paths.
    """
    spec = ModelSpec(draw(st.sampled_from(list(Family))),
                     scale_c=draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(1e-3, 1e3)))
    u = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                               min_size=1, max_size=20)))
    size = draw(st.sampled_from([None, u.size]))  # None: one strength, as a numpy scalar
    magnitude = st.floats(5e-324, 1e300) | st.just(5e-324)
    if spec.family is Family.GUMBEL1:
        strength = st.floats(-1e300, 1e300)
    else:
        strength = magnitude.map(lambda m: spec.strength_sign * m)
    s = np.array(draw(st.lists(strength, min_size=size or 1, max_size=size or 1)))
    return spec, s if size else s[0], u


def _order_keys_outcome(spec, s, u, out=None):
    """The order keys' bits, or the message of the overflow they raise."""
    with np.errstate(over="raise"):
        try:
            keys = _order_keys(spec, s, u, out)
        except FloatingPointError as exc:
            return str(exc)
    assert out is None or keys is out
    return keys.view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(_order_key_calls(), st.booleans())
@example((ModelSpec(Family.CANONICAL), np.float64(5e-324), np.array([0.5])), False)
@example((ModelSpec(Family.FRECHET2, scale_c=2.0), np.array([3.0, 5e-324]),
          np.array([1e-300, 0.999])), True)
def test_order_keys_into_out_have_the_same_bits(call, into_u):
    """Keys written into ``out`` (a fresh array or ``u`` itself) equal the allocating kernel's."""
    spec, s, u = call
    expected = _order_keys_outcome(spec, s, u)
    buf = u.copy()  # ``u`` itself, in a copy the kernel may overwrite
    assert _order_keys_outcome(spec, s, buf, buf if into_u else np.empty_like(u)) == expected


def test_log_key_matches_plain_argmax():
    rng = np.random.default_rng(5)
    alphas = np.exp(rng.uniform(np.log(0.1), np.log(10), size=(3000, 6)))
    u = rng.uniform(1e-12, 1 - 1e-12, size=(3000, 6))
    plain = np.argmax(key_canonical(alphas, u), axis=1)
    logged = np.argmax(log_key_canonical(alphas, u), axis=1)
    np.testing.assert_array_equal(plain, logged)


def test_log_key_survives_extreme_weights():
    """Tiny weights underflow u**(1/a) to zero; the log form keeps ranking."""
    alphas = np.full(4, 1e-3)
    u = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.all(key_canonical(alphas, u) == 0.0)  # all collapsed
    lk = log_key_canonical(alphas, u)
    assert np.all(np.diff(lk) > 0)  # still strictly ordered


def test_distributional_law_canonical():
    """Canonical keys with weight a follow t**a (one-sample KS)."""
    u = replicate_uniforms(99, "law", "x", 10_000)
    keys = key_canonical(3.0, u)
    good = stats.ks_one_sample(keys, lambda t: np.clip(t, 0, 1) ** 3)
    assert not good.reject_at(1e-3)
    wrong = stats.ks_one_sample(keys, lambda t: np.clip(t, 0, 1) ** 2)
    assert wrong.reject_at(1e-3)


def test_max_stability_two_sample():
    """max(X_1, X_2) is distributed as X_3; X_1 alone is not X_4."""
    n = 20_000
    u1 = replicate_uniforms(12, "ms", "a", n)
    u2 = replicate_uniforms(12, "ms", "b", n)
    u3 = replicate_uniforms(12, "ms", "c", n)
    merged = np.maximum(key_canonical(1.0, u1), key_canonical(2.0, u2))
    assert not stats.ks_two_sample(merged, key_canonical(3.0, u3)).reject_at(1e-3)
    assert stats.ks_two_sample(key_canonical(1.0, u1), key_canonical(4.0, u3)).reject_at(1e-3)


def test_no_exact_ties():
    """Continuous laws: across 1e6 key pairs from distinct uniforms, exact
    float64 collisions must stay below 10."""
    n = 1_000_000
    u1 = replicate_uniforms(31, "ties", "left", n)
    u2 = replicate_uniforms(31, "ties", "right", n)
    assert np.sum(u1 == u2) < 10
    k1 = key_gumbel1(0.0, 1.0, u1)
    k2 = key_gumbel1(0.5, 1.0, u2)
    assert np.sum(k1 == k2) < 10
    c1 = key_canonical(2.0, u1)
    c2 = key_canonical(3.0, u2)
    assert np.sum(c1 == c2) < 10
