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
Everything that depends on the family is one row of the table ``_LAWS``.

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
    Multiplicative Frechet noise, ``key = s * (-log(u))**(-c)`` with
    ``s = d*a**c``, ``d > 0``.  Keys are positive.
``negexp``
    Multiplicative exponential noise on the negative half-line,
    ``key = s * (-log(u))**c`` with ``s = d*a**(-c)``, ``d < 0``.
    Keys are negative; still a max race.
``expmin``
    The exponential race: ``key = -log(u)/a`` is Exp(a) distributed and
    the *smallest* key wins (the mirrored, min-compatible convention).

Every entry point that takes a ``ModelSpec`` accepts the same strengths
(:func:`first_invalid_strength`): finite, > 0 for ``canonical`` and
``expmin``, and of the sign of ``d`` for the multiplicative families, so
``frechet2`` strengths must be > 0 and ``negexp`` strengths < 0 (0 is a
zero-mass weight).  Each ``key_*`` function is :func:`generate_key` (or
:func:`generate_order_key`) of a one-off ``ModelSpec``, with ``scale_c=c``
where it takes a ``c``, so its errors name the family and ``c`` must be a
scalar; ``key_frechet2`` and ``key_negexp`` pass ``+|s|`` and ``-|s|``, so
they race ``abs(s)``.

All key functions accept scalars or numpy arrays and evaluate in float64.
A scalar strength and uniform are keyed as 1-element arrays, so they get
the bits the columnar core gives the same row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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
        law = _LAWS[family]
        object.__setattr__(self, "family", family)
        if self.offset_d is None:
            object.__setattr__(self, "offset_d", law.offset_d)
        for name in ("scale_c", "offset_d"):
            if not math.isfinite(getattr(self, name)):
                raise FamilyDomainError(f"{name} must be finite, got {getattr(self, name)}")
        if law.scale_positive and not self.scale_c > 0:
            raise FamilyDomainError(
                f"scale_c must be positive for {family.value}, got {self.scale_c}"
            )
        if law.offset_rule is not None and not law.offset_rule[0](self.offset_d):
            raise FamilyDomainError(f"{law.offset_rule[1]}, got {self.offset_d}")

    @property
    def orientation(self) -> Orientation:
        return _LAWS[self.family].orientation

    @property
    def strength_sign(self) -> float:
        """+1.0 or -1.0 if every strength must have that sign, 0.0 if any finite one will do."""
        return _LAWS[self.family].strength_sign


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_uniform(u) -> np.ndarray:
    arr = _as_float_array(u)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both
        raise FamilyDomainError("uniform draw must lie in the open interval (0, 1)")
    return arr


def _check_positive(value, name: str) -> np.ndarray:
    arr = _as_float_array(value)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise FamilyDomainError(f"{name} must be positive and finite")
    return arr


def _maybe_scalar(arr: np.ndarray, scalar_in: bool):
    return float(arr) if scalar_in else arr


def key_canonical(alpha, u):
    """Key ``u**(1/alpha)`` of the canonical family ``F_a(t) = t**a``.

    Strictly increasing in ``u``; lies in (0, 1).
    """
    return generate_key(ModelSpec(Family.CANONICAL), alpha, u)


def log_key_canonical(alpha, u):
    """Log-domain representation ``log(u)/alpha`` of the canonical key.

    Strictly increasing in the key itself, so racing on this value selects
    the same winner while staying far from the underflow range that
    ``u**(1/alpha)`` hits for small ``alpha``.
    """
    return generate_order_key(ModelSpec(Family.CANONICAL), alpha, u)


def key_gumbel1(strength, c, u):
    """Additive key ``strength - c*log(-log(u))`` (shifted Gumbel noise)."""
    return generate_key(ModelSpec(Family.GUMBEL1, scale_c=c), strength, u)


def key_frechet2(strength, c, u):
    """Multiplicative key ``|strength| * (-log(u))**(-c)``; always positive."""
    return generate_key(ModelSpec(Family.FRECHET2, scale_c=c), np.abs(strength), u)


def key_negexp(strength, c, u):
    """Multiplicative key ``-|strength| * (-log(u))**c``; always negative."""
    return generate_key(ModelSpec(Family.NEGEXP, scale_c=c), -np.abs(strength), u)


def key_expmin(alpha, u):
    """Exponential-race key ``-log(u)/alpha``; the group argmin wins."""
    return generate_key(ModelSpec(Family.EXPMIN), alpha, u)


# The ways a strength can leave a family's domain: (vectorised test it
# passes, error class, message formatted with the strength as ``value`` and
# the offset as ``d``).
_FINITE = (np.isfinite, FamilyDomainError, "strength must be finite, got {value}")
_WEIGHT = (lambda s: s > 0.0, FamilyDomainError,
           "strength is the weight itself and must be positive, got {value}")
_MASS = (lambda s: s != 0.0, DegenerateWeightError,
         "strength 0 would give the outcome zero mass; omit the row instead")
_SIGN_OF_D = "strength must have the sign of offset_d={d}, got {value}"


@dataclass(frozen=True)
class _Law:
    """Everything that depends on one key family.

    ``key`` and ``order_key`` are kernels ``(strength, c, u) -> key`` with
    no argument checks, for strengths in the domain and uniforms in (0, 1).
    They use their operands as given; a single row is keyed through
    :func:`_row_keys`.  ``order_key`` also takes ``out=None``: a float64
    array of the keys' shape, ``u`` itself allowed, that every step writes
    into, so that keying makes no array.  Without it each step makes a
    new array, and the keys have the same bits either way.
    """

    strength_sign: float  # the sign every strength must have; 0.0: any finite strength
    rules: tuple  # the strength domain: the rules above, checked in this order
    to_alpha: Callable  # (spec, strength) -> weight
    from_alpha: Callable  # (spec, weight) -> strength
    key: Callable
    order_key: Callable | None = None  # the ranking kernel; None: ``key`` itself
    orientation: Orientation = Orientation.MAX
    offset_d: float = 0.0  # the default offset
    scale_positive: bool = True  # ModelSpec: scale_c must be > 0
    offset_rule: tuple[Callable, str] | None = None  # ModelSpec: offset_d test and message

    def __post_init__(self) -> None:
        if self.order_key is None:
            object.__setattr__(self, "order_key", self.key)


def _weight(spec, x):
    return x.astype(np.float64)


def _pow(x, e):
    """``x ** e``, in place when ``x`` is an array.

    ``**=`` takes numpy's scalar-exponent fast paths (sqrt, reciprocal,
    square and the like) exactly as ``**`` does.
    """
    x **= e
    return x


# The order-key kernels.  Each step writes into ``out``; with ``out=None``
# each makes a new array (or a scalar, for a 0-d ``u``) as plain operators
# would, so the first in-place step only ever writes to an array made here.
def _canonical_order(s, c, u, out=None):  # log(u) / s
    return np.divide(np.log(u, out=out), s, out=out)


def _gumbel1(s, c, u, out=None):  # s - c*log(-log(u))
    x = np.log(np.negative(np.log(u, out=out), out=out), out=out)
    return np.subtract(s, np.multiply(c, x, out=out), out=out)


def _frechet2(s, c, u, out=None):  # s * (-log(u))**(-c)
    return np.multiply(s, _pow(np.negative(np.log(u, out=out), out=out), -c), out=out)


def _negexp(s, c, u, out=None):  # s * (-log(u))**c
    return np.multiply(s, _pow(np.negative(np.log(u, out=out), out=out), c), out=out)


def _expmin(s, c, u, out=None):  # -log(u) / s
    return np.divide(np.negative(np.log(u, out=out), out=out), s, out=out)


_LAWS = {
    Family.CANONICAL: _Law(
        strength_sign=1.0, rules=(_FINITE, _WEIGHT), to_alpha=_weight, from_alpha=_weight,
        key=lambda s, c, u: u ** (1.0 / s), order_key=_canonical_order,
    ),
    Family.GUMBEL1: _Law(
        strength_sign=0.0, rules=(_FINITE,),
        to_alpha=lambda spec, s: np.exp((s - spec.offset_d) / spec.scale_c),
        from_alpha=lambda spec, a: spec.scale_c * np.log(a) + spec.offset_d,
        key=_gumbel1,
    ),
    Family.FRECHET2: _Law(
        strength_sign=1.0,
        rules=(_FINITE, _MASS, (lambda s: s > 0.0, FamilyDomainError, _SIGN_OF_D)),
        to_alpha=lambda spec, s: (s / spec.offset_d) ** (1.0 / spec.scale_c),
        from_alpha=lambda spec, a: spec.offset_d * a ** spec.scale_c,
        key=_frechet2,
        offset_d=1.0,
        offset_rule=(lambda d: d > 0, "frechet2 records positive strengths: offset_d must be > 0"),
    ),
    Family.NEGEXP: _Law(
        strength_sign=-1.0,
        rules=(_FINITE, _MASS, (lambda s: s < 0.0, FamilyDomainError, _SIGN_OF_D)),
        to_alpha=lambda spec, s: (s / spec.offset_d) ** (-1.0 / spec.scale_c),
        from_alpha=lambda spec, a: spec.offset_d * a ** (-spec.scale_c),
        key=_negexp,
        offset_d=-1.0,
        offset_rule=(lambda d: d < 0, "negexp records negative strengths: offset_d must be < 0"),
    ),
    Family.EXPMIN: _Law(
        strength_sign=1.0, rules=(_FINITE, _WEIGHT), to_alpha=_weight, from_alpha=_weight,
        key=_expmin, orientation=Orientation.MIN, scale_positive=False,
    ),
}


def first_invalid_strength(spec: ModelSpec, strengths: np.ndarray) -> int | None:
    """Index of the first strength outside the family's domain, else None."""
    s = _as_float_array(strengths)
    ok = np.logical_and.reduce([passes(s) for passes, _, _ in _LAWS[spec.family].rules])
    if ok.all():  # the usual case, answered by one reduction and no search
        return None
    return int(np.flatnonzero(~ok)[0])


def _check_strengths(spec: ModelSpec, strengths,
                     where: Callable[[int], tuple[str, str]] | None = None) -> np.ndarray:
    """``strengths`` as float64, once every one lies in the family's domain.

    Otherwise raises the error of the first rule that the first bad
    strength breaks.  ``where(i)``, if given, names the
    ``(group_id, label)`` of index ``i`` in the message.
    """
    s = _as_float_array(strengths)
    bad = first_invalid_strength(spec, s)
    if bad is None:
        return s
    value = float(s.flat[bad])
    error, message = next((e, m) for passes, e, m in _LAWS[spec.family].rules
                          if not passes(value))
    message = f"{spec.family.value}: {message.format(value=value, d=spec.offset_d)}"
    if where is not None:
        message += " (group_id={!r}, label={!r})".format(*where(bad))
    raise error(message)


def _order_keys(spec: ModelSpec, strengths, u, out=None):
    """Order keys of checked strengths and uniforms in (0, 1), with no checks.

    With ``out`` (``u`` itself allowed) every step writes into it, as
    :class:`_Law` describes.
    """
    return _LAWS[spec.family].order_key(strengths, np.asarray(spec.scale_c, np.float64), u, out)


def _keys(spec: ModelSpec, strengths, u, order_keys=None):
    """``(keys, order_keys)`` as :func:`_order_keys`; ``order_keys`` already known are reused."""
    law = _LAWS[spec.family]
    if order_keys is None:
        order_keys = _order_keys(spec, strengths, u)
    if law.key is law.order_key:
        return order_keys, order_keys
    return law.key(strengths, np.asarray(spec.scale_c, np.float64), u), order_keys


def strength_to_alpha(spec: ModelSpec, strength):
    """Invert the recorded-strength convention and recover the weight.

    canonical/expmin: identity (the strength is the weight, must be > 0);
    gumbel1: ``exp((s - d)/c)``; frechet2: ``(s/d)**(1/c)``;
    negexp: ``(s/d)**(-1/c)``.  A strength outside the family's domain
    raises :class:`FamilyDomainError`.
    """
    scalar = np.isscalar(strength)
    s = _check_strengths(spec, strength)
    return _maybe_scalar(_LAWS[spec.family].to_alpha(spec, s), scalar)


def alpha_to_strength(spec: ModelSpec, alpha):
    """Forward direction of the recorded-strength convention."""
    scalar = np.isscalar(alpha)
    a = _check_positive(alpha, "alpha")
    return _maybe_scalar(_LAWS[spec.family].from_alpha(spec, a), scalar)


def _row_keys(spec: ModelSpec, strength: np.ndarray, u) -> tuple[float, float]:
    """``(key, order_key)`` of one row whose strength and uniform are checked.

    numpy's power on 0-d operands can differ in the last bit from the 1-d
    result, so the row is keyed as 1-element arrays, never as 0-d ones,
    and gets the bits the columnar core gives the same row.
    """
    key, order_key = _keys(spec, strength.reshape(1), np.full(1, u, dtype=np.float64))
    return float(key[0]), float(order_key[0])


def _spec_key(spec: ModelSpec, strength, u, order: bool):
    s, uu = _check_strengths(spec, strength), _check_uniform(u)
    if s.ndim == 0 and uu.ndim == 0:  # a scalar or 0-d array each: one row
        key, order_key = _row_keys(spec, s, uu)
        return order_key if order else key
    law = _LAWS[spec.family]
    return (law.order_key if order else law.key)(s, np.asarray(spec.scale_c, np.float64), uu)


def generate_key(spec: ModelSpec, strength, u):
    """Competition key of ``spec.family`` for ``(strength, u)``.

    A strength outside the family's domain raises as in
    :func:`strength_to_alpha`; a wrong-sign ``frechet2``/``negexp``
    strength is rejected, not raced as ``abs(s)``.
    """
    return _spec_key(spec, strength, u, order=False)


def generate_order_key(spec: ModelSpec, strength, u):
    """Monotone-equivalent value actually used to rank keys.

    Identical to :func:`generate_key` except for the canonical family,
    which is ranked in log domain to dodge ``u**(1/a)`` underflow.  A
    strictly increasing transform never changes a group's winner.
    """
    return _spec_key(spec, strength, u, order=True)
