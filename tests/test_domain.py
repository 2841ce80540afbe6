"""One strength domain per family, the same at every entry point, and the
operand shapes each key path evaluates its kernel on."""

import math

import numpy as np
import pytest

from keyrace import cli
from keyrace.dynamic import DynamicTable
from keyrace.families import (
    DegenerateWeightError,
    Family,
    FamilyDomainError,
    ModelSpec,
    first_invalid_strength,
    generate_key,
    generate_order_key,
    key_canonical,
    key_expmin,
    key_frechet2,
    key_gumbel1,
    key_negexp,
    log_key_canonical,
    strength_to_alpha,
)
from keyrace.sampler import (
    Row,
    SeedContext,
    assign_keys,
    derive_uniform,
    replicate_winners,
    sample_arrays,
)

_STRENGTHS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]


def _in_domain(spec, s):
    return math.isfinite(s) and (spec.strength_sign == 0.0 or s * spec.strength_sign > 0)


def _valid(spec):
    return spec.strength_sign or 1.0


def _outcome(call):
    """None if ``call`` returns, else the class of the FamilyDomainError it raises."""
    try:
        call()
    except FamilyDomainError as err:
        return type(err)
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # subnormal weights overflow 1/a
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("s", _STRENGTHS, ids=repr)
def test_library_entry_points_agree_on_the_strength_domain(family, s):
    spec, ctx = ModelSpec(family), SeedContext(3)
    strengths = np.array([s, _valid(spec)])

    def upsert():
        table = DynamicTable(spec, ctx)
        table.upsert("g", "b", _valid(spec))
        table.upsert("g", "a", s)

    outcomes = {
        "strength_to_alpha": _outcome(lambda: strength_to_alpha(spec, strengths)),
        "sample_arrays": _outcome(lambda: sample_arrays(["g", "g"], ["a", "b"], strengths,
                                                        spec, ctx)),
        "assign_keys": _outcome(lambda: assign_keys(
            [Row("g", "a", s), Row("g", "b", _valid(spec))], spec, ctx)),
        "replicate_winners": _outcome(lambda: replicate_winners(spec, ["a", "b"], strengths,
                                                                3, 8)),
        "generate_key": _outcome(lambda: generate_key(spec, strengths, np.full(2, 0.5))),
        "generate_order_key": _outcome(lambda: generate_order_key(spec, s, 0.5)),
        "upsert": _outcome(upsert),
    }
    if _in_domain(spec, s):
        assert first_invalid_strength(spec, strengths) is None
        assert set(outcomes.values()) == {None}, outcomes
    else:
        assert first_invalid_strength(spec, strengths) == 0
        expected = (DegenerateWeightError
                    if s == 0.0 and family in (Family.FRECHET2, Family.NEGEXP)
                    else FamilyDomainError)
        assert set(outcomes.values()) == {expected}, outcomes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("s", _STRENGTHS, ids=repr)
def test_cli_entry_points_agree_on_the_strength_domain(tmp_path, capsys, family, s):
    spec = ModelSpec(family)
    table = tmp_path / "t.csv"
    table.write_text(f"ID,QUAL,Strength\ng1,a,{s!r}\ng1,b,{_valid(spec)!r}\n")
    stream = tmp_path / "s.txt"
    stream.write_text(f"UPSERT g1,b,{_valid(spec)!r}\nUPSERT g1,a,{s!r}\n")
    model = ["--model", family.value]

    def run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().err

    # -1.0 under frechet2 (and 1.0 under negexp) was raced as |s| by sample and update
    sample = run("sample", *model, str(table))
    update = run("update", *model, str(stream))
    if _in_domain(spec, s):
        assert sample == (0, "") and update == (0, "")
        if abs(s) >= 1.0:  # a subnormal weight is too rare for the chi-square test
            assert run("validate", *model, "--quick", "--input", str(table))[0] == 0
        return
    with pytest.raises(FamilyDomainError) as err:
        strength_to_alpha(spec, s)
    message = str(err.value)
    validate = run("validate", *model, "--quick", "--input", str(table))
    assert sample[0] == validate[0] == 3
    assert update[0] == 4 and update[1].startswith("warning: line 2: ")
    for _, stderr in (sample, validate, update):
        assert message in stderr
    assert validate[1] == sample[1]  # both name the row: (group_id='g1', label='a')


_SHAPE_VALUES = [0.5, 1.0, 2.0, 3.7]


def _shape_specs():
    # the power exponent is 1/a for canonical and c for frechet2/negexp
    for family in Family:
        for value in _SHAPE_VALUES:
            spec = ModelSpec(family, scale_c=value)
            yield pytest.param(spec, value * (spec.strength_sign or 1.0),
                               id=f"{family.value}-{value}")


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _key_functions(spec):
    """The spec-less ``key_*`` functions of ``spec``'s family as ``(key, order_key)`` of (s, u)."""
    c = spec.scale_c
    return {
        Family.CANONICAL: (key_canonical, log_key_canonical),
        Family.GUMBEL1: (lambda s, u: key_gumbel1(s, c, u),) * 2,
        Family.FRECHET2: (lambda s, u: key_frechet2(s, c, u),) * 2,
        Family.NEGEXP: (lambda s, u: key_negexp(s, c, u),) * 2,
        Family.EXPMIN: (key_expmin,) * 2,
    }[spec.family]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("spec, strength", _shape_specs())
def test_key_paths_keep_their_operand_shapes(spec, strength):
    """DynamicTable, generate_key, the key_* functions and sample_arrays give
    a row the same bits, whether its operands are floats, 0-d or 1-d arrays.

    numpy's power on 0-d operands differs in the last bit from the 1-d
    result for about 5% of uniforms when the exponent is 0.5 or 2.0, so
    equal bits here pin every path to 1-d operands.
    """
    ctx = SeedContext(11)
    groups = [f"g{i:03d}" for i in range(200) for _ in range(2)]
    labels = ["a", "b"] * 200
    strengths = [strength] * len(groups)
    uniforms = [derive_uniform(ctx, g, l) for g, l in zip(groups, labels)]

    table = DynamicTable(spec, ctx)
    for g, l in zip(groups, labels):
        table.upsert(g, l, strength)
    stored = {(kr.row.group_id, kr.row.label): kr for kr in table.snapshot_keyed_rows()}
    rows = [stored[g, l] for g, l in zip(groups, labels)]
    assert [kr.uniform for kr in rows] == uniforms
    scalar = [(generate_key(spec, strength, u), generate_order_key(spec, strength, u))
              for u in uniforms]
    np.testing.assert_array_equal(_bits([kr.key for kr in rows]), _bits([k for k, _ in scalar]))
    np.testing.assert_array_equal(_bits([kr.order_key for kr in rows]),
                                  _bits([o for _, o in scalar]))
    # a 0-d array strength or uniform is one row too, keyed as a Python float is
    for s0, to_u in ((np.asarray(strength), float), (strength, np.asarray),
                     (np.asarray(strength), np.asarray)):
        np.testing.assert_array_equal(
            _bits([generate_key(spec, s0, to_u(u)) for u in uniforms]),
            _bits([k for k, _ in scalar]))
        np.testing.assert_array_equal(
            _bits([generate_order_key(spec, s0, to_u(u)) for u in uniforms]),
            _bits([o for _, o in scalar]))

    winners = sample_arrays(groups, labels, np.asarray(strengths), spec, ctx)
    keys = generate_key(spec, np.asarray(strengths), np.asarray(uniforms))
    order_keys = generate_order_key(spec, np.asarray(strengths), np.asarray(uniforms))
    np.testing.assert_array_equal(_bits(keys), _bits([k for k, _ in scalar]))
    np.testing.assert_array_equal(_bits(order_keys), _bits([o for _, o in scalar]))
    key_fn, order_key_fn = _key_functions(spec)
    # key_frechet2 and key_negexp race |s|, so either sign gives the spec's keys
    signs = (1.0, -1.0) if spec.family in (Family.FRECHET2, Family.NEGEXP) else (1.0,)
    for s in (sign * strength for sign in signs):
        np.testing.assert_array_equal(_bits([key_fn(s, u) for u in uniforms]), _bits(keys))
        np.testing.assert_array_equal(_bits([order_key_fn(s, u) for u in uniforms]),
                                      _bits(order_keys))
        np.testing.assert_array_equal(
            _bits([key_fn(np.asarray(s), np.asarray(u)) for u in uniforms]), _bits(keys))
        np.testing.assert_array_equal(
            _bits([order_key_fn(np.asarray(s), np.asarray(u)) for u in uniforms]),
            _bits(order_keys))
        np.testing.assert_array_equal(_bits(key_fn(np.full(len(uniforms), s), uniforms)),
                                      _bits(keys))
        np.testing.assert_array_equal(
            _bits(order_key_fn(np.full(len(uniforms), s), np.asarray(uniforms))),
            _bits(order_keys))
    at = {(g, l): i for i, (g, l) in enumerate(zip(groups, labels))}
    won = [at[w.group_id, w.label] for w in winners.values()]
    np.testing.assert_array_equal(_bits([w.key for w in winners.values()]), _bits(keys[won]))
    np.testing.assert_array_equal(_bits([w.order_key for w in winners.values()]),
                                  _bits(order_keys[won]))
