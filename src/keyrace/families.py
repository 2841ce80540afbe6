"""Competition-key families for weighted argmax/argmin sampling.

A *max-compatible* family is a parametric set of continuous distributions
``{F_a, a > 0}`` with the property that, for independent draws
``X_i ~ F_{a_i}``, index ``i`` attains the maximum with probability
``a_i / sum(a)``.  Sampling a label proportionally to a weight ``a`` then
reduces to two steps that parallelize trivially:

1. per row, turn ``(strength, uniform)`` into a *competition key*
   (a purely local operation), and
2. per group, keep the extremal key (a single associative reduction).

This module implements the key generators for the supported families and
the conversions between recorded strengths and the underlying weights.

Supported families
------------------
``canonical``
    ``F_a(t) = t**a`` on (0, 1); keys are ``u**(1/a)`` and the strength
    column holds the weight itself.
``gumbel1``
    Additive noise, ``key = s - c*log(-log(u))`` with
    ``s = c*log(a) + d``.  The only max-compatible family whose noise
    enters additively; with ``c = 1`` the winner law is the softmax of
    the strengths.
``frechet2``
    Multiplicative Frechet noise, ``key = |s| * (-log(u))**(-c)`` with
    ``s = d*a**c``, ``d > 0``.  Keys are positive.
``negexp``
    Multiplicative exponential noise on the negative half-line,
    ``key = -|s| * (-log(u))**c`` with ``s = d*a**(-c)``, ``d < 0``.
    Keys are negative; still a max race.
``expmin``
    The exponential race: ``key = -log(u)/a`` is Exp(a) distributed and
    the *smallest* key wins (the mirrored, min-compatible convention).

All key functions accept scalars or numpy arrays and evaluate in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Family",
    "Orientation",
    "ModelSpec",
    "FamilyDomainError",
    "DegenerateWeightError",
    "key_canonical",
    "log_key_canonical",
    "key_gumbel1",
    "key_frechet2",
    "key_negexp",
    "key_expmin",
    "strength_to_alpha",
    "alpha_to_strength",
    "generate_key",
    "generate_order_key",
    "first_invalid_strength",
]


class FamilyDomainError(ValueError):
    """An argument left the domain of the requested key family."""


class DegenerateWeightError(FamilyDomainError):
    """A multiplicative-family strength of zero (zero-mass outcome).

    Rows with zero weight must be omitted instead: every family member
    requires a strictly positive weight.
    """


class Family(str, Enum):
    CANONICAL = "canonical"
    GUMBEL1 = "gumbel1"
    FRECHET2 = "frechet2"
    NEGEXP = "negexp"
    EXPMIN = "expmin"


class Orientation(str, Enum):
    MAX = "max"
    MIN = "min"


# Default sign of the offset for the multiplicative conventions: frechet2
# records positive strengths (d > 0), negexp negative ones (d < 0).
_DEFAULT_OFFSET = {
    Family.CANONICAL: 0.0,
    Family.GUMBEL1: 0.0,
    Family.FRECHET2: 1.0,
    Family.NEGEXP: -1.0,
    Family.EXPMIN: 0.0,
}


@dataclass(frozen=True)
class ModelSpec:
    """A key family plus its scale/offset parameters.

    ``scale_c`` and ``offset_d`` are the constants of the recorded-strength
    convention (``s = c*log(a) + d``, ``s = d*a**c`` or ``s = d*a**(-c)``).
    They are ignored by ``canonical`` and ``expmin``, where the strength is
    the weight itself, but must be finite for every family.
    ``offset_d=None`` selects the family default (0 for the additive
    convention, +1 / -1 for frechet2 / negexp).
    """

    family: Family
    scale_c: float = 1.0
    offset_d: float | None = None

    def __post_init__(self) -> None:
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        if self.offset_d is None:
            object.__setattr__(self, "offset_d", _DEFAULT_OFFSET[family])
        for name in ("scale_c", "offset_d"):
            if not math.isfinite(getattr(self, name)):
                raise FamilyDomainError(f"{name} must be finite, got {getattr(self, name)}")
        if family is not Family.EXPMIN and not self.scale_c > 0:
            raise FamilyDomainError(
                f"scale_c must be positive for {family.value}, got {self.scale_c}"
            )
        if family is Family.FRECHET2 and not self.offset_d > 0:
            raise FamilyDomainError(
                f"frechet2 records positive strengths: offset_d must be > 0, "
                f"got {self.offset_d}"
            )
        if family is Family.NEGEXP and not self.offset_d < 0:
            raise FamilyDomainError(
                f"negexp records negative strengths: offset_d must be < 0, "
                f"got {self.offset_d}"
            )

    @property
    def orientation(self) -> Orientation:
        return Orientation.MIN if self.family is Family.EXPMIN else Orientation.MAX


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_uniform(u) -> np.ndarray:
    arr = _as_float_array(u)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise FamilyDomainError("uniform draw must lie in the open interval (0, 1)")
    return arr


def _check_positive(value, name: str) -> np.ndarray:
    arr = _as_float_array(value)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise FamilyDomainError(f"{name} must be positive and finite")
    return arr


def _check_nonzero_strength(strength) -> np.ndarray:
    arr = _as_float_array(strength)
    if np.any(arr == 0.0):
        raise DegenerateWeightError(
            "strength 0 would give the outcome zero mass; omit the row instead"
        )
    if not np.all(np.isfinite(arr)):
        raise FamilyDomainError("strength must be finite")
    return arr


def _maybe_scalar(arr: np.ndarray, scalar_in: bool):
    return float(arr) if scalar_in else arr


def key_canonical(alpha, u):
    """Key ``u**(1/alpha)`` of the canonical family ``F_a(t) = t**a``.

    Strictly increasing in ``u``; lies in (0, 1).
    """
    scalar = np.isscalar(alpha) and np.isscalar(u)
    a = _check_positive(alpha, "alpha")
    uu = _check_uniform(u)
    return _maybe_scalar(uu ** (1.0 / a), scalar)


def log_key_canonical(alpha, u):
    """Log-domain representation ``log(u)/alpha`` of the canonical key.

    Strictly increasing in the key itself, so racing on this value selects
    the same winner while staying far from the underflow range that
    ``u**(1/alpha)`` hits for small ``alpha``.
    """
    scalar = np.isscalar(alpha) and np.isscalar(u)
    a = _check_positive(alpha, "alpha")
    uu = _check_uniform(u)
    return _maybe_scalar(np.log(uu) / a, scalar)


def key_gumbel1(strength, c, u):
    """Additive key ``strength - c*log(-log(u))`` (shifted Gumbel noise)."""
    scalar = np.isscalar(strength) and np.isscalar(u)
    cc = _check_positive(c, "c")
    s = _as_float_array(strength)
    if not np.all(np.isfinite(s)):
        raise FamilyDomainError("strength must be finite")
    uu = _check_uniform(u)
    return _maybe_scalar(s - cc * np.log(-np.log(uu)), scalar)


def key_frechet2(strength, c, u):
    """Multiplicative key ``|strength| * (-log(u))**(-c)``; always positive."""
    scalar = np.isscalar(strength) and np.isscalar(u)
    cc = _check_positive(c, "c")
    s = _check_nonzero_strength(strength)
    uu = _check_uniform(u)
    return _maybe_scalar(np.abs(s) * (-np.log(uu)) ** (-cc), scalar)


def key_negexp(strength, c, u):
    """Multiplicative key ``-|strength| * (-log(u))**c``; always negative."""
    scalar = np.isscalar(strength) and np.isscalar(u)
    cc = _check_positive(c, "c")
    s = _check_nonzero_strength(strength)
    uu = _check_uniform(u)
    return _maybe_scalar(-np.abs(s) * (-np.log(uu)) ** cc, scalar)


def key_expmin(alpha, u):
    """Exponential-race key ``-log(u)/alpha``; the group argmin wins."""
    scalar = np.isscalar(alpha) and np.isscalar(u)
    a = _check_positive(alpha, "alpha")
    uu = _check_uniform(u)
    return _maybe_scalar(-np.log(uu) / a, scalar)


def strength_to_alpha(spec: ModelSpec, strength):
    """Invert the recorded-strength convention and recover the weight.

    canonical/expmin: identity (the strength is the weight, must be > 0);
    gumbel1: ``exp((s - d)/c)``; frechet2: ``(s/d)**(1/c)``;
    negexp: ``(s/d)**(-1/c)``.
    """
    scalar = np.isscalar(strength)
    s = _as_float_array(strength)
    if not np.all(np.isfinite(s)):
        raise FamilyDomainError(f"{spec.family.value}: strength must be finite")
    if spec.family in (Family.CANONICAL, Family.EXPMIN):
        if np.any(s <= 0.0):
            bad = s[np.asarray(s <= 0.0).nonzero()].flat[0] if s.ndim else float(s)
            raise FamilyDomainError(
                f"{spec.family.value}: strength is the weight itself and must "
                f"be positive, got {bad}"
            )
        return _maybe_scalar(s.astype(np.float64), scalar)
    if spec.family is Family.GUMBEL1:
        return _maybe_scalar(np.exp((s - spec.offset_d) / spec.scale_c), scalar)
    # multiplicative conventions: the strength must carry the sign of d
    if np.any(s == 0.0):
        raise DegenerateWeightError(
            f"{spec.family.value}: strength 0 would give the outcome zero "
            f"mass; omit the row instead"
        )
    ratio = s / spec.offset_d
    if np.any(ratio <= 0.0):
        bad = s[np.asarray(ratio <= 0.0).nonzero()].flat[0] if s.ndim else float(s)
        raise FamilyDomainError(
            f"{spec.family.value}: strength must have the sign of "
            f"offset_d={spec.offset_d}, got {bad}"
        )
    exponent = 1.0 / spec.scale_c if spec.family is Family.FRECHET2 else -1.0 / spec.scale_c
    return _maybe_scalar(ratio**exponent, scalar)


def alpha_to_strength(spec: ModelSpec, alpha):
    """Forward direction of the recorded-strength convention."""
    scalar = np.isscalar(alpha)
    a = _check_positive(alpha, "alpha")
    if spec.family in (Family.CANONICAL, Family.EXPMIN):
        return _maybe_scalar(a.astype(np.float64), scalar)
    if spec.family is Family.GUMBEL1:
        return _maybe_scalar(spec.scale_c * np.log(a) + spec.offset_d, scalar)
    exponent = spec.scale_c if spec.family is Family.FRECHET2 else -spec.scale_c
    return _maybe_scalar(spec.offset_d * a**exponent, scalar)


def generate_key(spec: ModelSpec, strength, u):
    """Competition key of ``spec.family`` for ``(strength, u)``."""
    if spec.family is Family.CANONICAL:
        return key_canonical(strength, u)
    if spec.family is Family.GUMBEL1:
        return key_gumbel1(strength, spec.scale_c, u)
    if spec.family is Family.FRECHET2:
        return key_frechet2(strength, spec.scale_c, u)
    if spec.family is Family.NEGEXP:
        return key_negexp(strength, spec.scale_c, u)
    return key_expmin(strength, u)


def generate_order_key(spec: ModelSpec, strength, u):
    """Monotone-equivalent value actually used to rank keys.

    Identical to :func:`generate_key` except for the canonical family,
    which is ranked in log domain to dodge ``u**(1/a)`` underflow.  A
    strictly increasing transform never changes a group's winner.
    """
    if spec.family is Family.CANONICAL:
        return log_key_canonical(strength, u)
    return generate_key(spec, strength, u)


def first_invalid_strength(spec: ModelSpec, strengths: np.ndarray) -> int | None:
    """Index of the first strength outside the family's domain, else None."""
    s = _as_float_array(strengths)
    bad = ~np.isfinite(s)
    if spec.family in (Family.CANONICAL, Family.EXPMIN):
        bad |= s <= 0.0
    elif spec.family in (Family.FRECHET2, Family.NEGEXP):
        bad |= s == 0.0
    idx = np.nonzero(bad)
    if idx[0].size:
        return int(idx[0][0])
    return None


def describe_invalid_strength(spec: ModelSpec, value: float) -> str:
    if not math.isfinite(value):
        return f"{spec.family.value}: strength must be finite, got {value}"
    if spec.family in (Family.CANONICAL, Family.EXPMIN):
        return (
            f"{spec.family.value}: strength is the weight itself and must be "
            f"positive, got {value}"
        )
    return (
        f"{spec.family.value}: strength 0 would give the outcome zero mass; "
        f"omit the row instead"
    )
