"""Derived randomness, key assignment, and the associative winner reduction."""

import contextlib
import errno
import itertools
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrace import cli, sampler, stats
from keyrace.dynamic import DynamicTable
from keyrace.families import (
    DegenerateWeightError,
    Family,
    FamilyDomainError,
    ModelSpec,
    Orientation,
    alpha_to_strength,
    generate_key,
    generate_order_key,
)
from keyrace.sampler import (
    CodedTable,
    GroupWinner,
    KeyedRow,
    Row,
    SeedContext,
    _absorb,
    _mix64,
    _mix64_array,
    _string_digest,
    _string_digests,
    _to_unit,
    assign_keys,
    code_ids,
    derive_uniform,
    first_duplicate,
    merge_winner_maps,
    reduce_winners,
    replicate_uniforms,
    replicate_winners,
    sample,
    sample_arrays,
    sample_codes,
    sample_replicates,
)
from keyrace.validation import WORKED_EXAMPLE_ROWS, WORKED_EXAMPLE_WINNERS
from children import assert_no_children as _assert_no_children
from row_fold import fold_rows


class TestDerivedUniforms:
    def test_deterministic(self):
        ctx = SeedContext(seed=1, replicate=0)
        assert derive_uniform(ctx, "g", "a") == derive_uniform(ctx, "g", "a")

    def test_replicate_independence(self):
        a = derive_uniform(SeedContext(1, 0), "g", "a")
        b = derive_uniform(SeedContext(1, 1), "g", "a")
        assert a != b

    def test_version_changes_draw(self):
        ctx = SeedContext(7, 0)
        assert derive_uniform(ctx, "g", "a", version=0) != derive_uniform(
            ctx, "g", "a", version=1
        )

    def test_seed_changes_draw(self):
        assert derive_uniform(SeedContext(0), "g", "a") != derive_uniform(
            SeedContext(1), "g", "a"
        )

    def test_negative_seed_ok(self):
        u = derive_uniform(SeedContext(-12345), "g", "a")
        assert 0.0 < u < 1.0

    def test_open_interval(self):
        u = replicate_uniforms(3, "grp", "lbl", 200_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_scalar_vector_agreement(self):
        vec = replicate_uniforms(9, "g", "a", 64, version=2)
        scalars = [derive_uniform(SeedContext(9, r), "g", "a", version=2) for r in range(64)]
        np.testing.assert_array_equal(vec, scalars)

    def test_to_unit_stays_inside_the_key_kernels_domain(self):
        # the internal key paths skip the uniform checks because of this bound
        lo, hi = 2.0**-54, 1.0 - 2.0**-54
        ends = [0, 2**64 - 1]
        scalars = [_to_unit(h) for h in ends]
        arrays = _to_unit(np.asarray(ends, dtype=np.uint64)).tolist()
        for got in (scalars, arrays):
            assert got == [lo, hi]
            assert all(lo <= u <= hi for u in got)

    def test_mix64_scalar_vs_array(self):
        xs = [0, 1, 2**63, 0xFFFFFFFFFFFFFFFF, 0x123456789ABCDEF0]
        arr = _mix64_array(np.asarray(xs, dtype=np.uint64))
        assert [int(v) for v in arr] == [_mix64(x) for x in xs]

    def test_uniformity_over_labels(self):
        # 1e5 distinct labels under one seed must look uniform(0,1)
        n = 100_000
        u = np.fromiter(
            (derive_uniform(SeedContext(11), "grp", f"label-{i}") for i in range(n)),
            dtype=np.float64,
            count=n,
        )
        report = stats.ks_one_sample(u, lambda t: np.clip(t, 0.0, 1.0))
        assert not report.reject_at(1e-3)


def _worked_keyed_rows():
    return [
        KeyedRow(Row(g, q, s), uniform=0.5, key=k)
        for g, q, s, k in WORKED_EXAMPLE_ROWS
    ]


class TestAssignKeys:
    def test_empty(self):
        assert assign_keys([], ModelSpec(Family.CANONICAL), SeedContext(0)) == []

    def test_single_row_canonical_identity(self):
        ctx = SeedContext(5)
        [kr] = assign_keys([Row("g", "a", 1.0)], ModelSpec(Family.CANONICAL), ctx)
        assert kr.key == kr.uniform == derive_uniform(ctx, "g", "a")

    def test_order_preserving(self):
        rows = [Row("g", f"l{i}", 1.0 + i) for i in range(20)]
        keyed = assign_keys(rows, ModelSpec(Family.GUMBEL1), SeedContext(1))
        assert [kr.row for kr in keyed] == rows

    def test_annotated_domain_error(self):
        rows = [Row("g7", "bad", 0.0)]
        with pytest.raises(DegenerateWeightError, match=r"group_id='g7'.*label='bad'"):
            assign_keys(rows, ModelSpec(Family.FRECHET2), SeedContext(0))

    def test_canonical_order_key_is_log_domain(self):
        [kr] = assign_keys([Row("g", "a", 4.0)], ModelSpec(Family.CANONICAL), SeedContext(2))
        assert kr.order_key == pytest.approx(np.log(kr.uniform) / 4.0, rel=1e-15)
        assert kr.key == pytest.approx(kr.uniform ** 0.25, rel=1e-15)


class TestReduceWinners:
    def test_worked_example_injected_keys(self):
        winners = reduce_winners(_worked_keyed_rows(), Orientation.MAX)
        assert {g: w.label for g, w in winners.items()} == WORKED_EXAMPLE_WINNERS
        assert winners["#1"].key == 5.612483956
        assert winners["#1"].row_count == 4
        assert winners["#3"].row_count == 2

    def test_single_row(self):
        [w] = reduce_winners(
            [KeyedRow(Row("g", "only", 1.0), 0.5, 0.5)], Orientation.MAX
        ).values()
        assert w == GroupWinner("g", "only", 0.5, 1, 0.5)

    def test_tie_breaks_to_smaller_label(self):
        keyed = [
            KeyedRow(Row("g", "zeta", 1.0), 0.5, 7.0),
            KeyedRow(Row("g", "alpha", 1.0), 0.5, 7.0),
        ]
        assert reduce_winners(keyed, Orientation.MAX)["g"].label == "alpha"
        assert reduce_winners(keyed, Orientation.MIN)["g"].label == "alpha"

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_empty_input(self, orientation):
        assert reduce_winners([], orientation) == {}
        assert merge_winner_maps([], orientation) == {}
        assert merge_winner_maps([{}, {}], orientation) == {}

    def test_min_orientation(self):
        keyed = [
            KeyedRow(Row("g", "a", 1.0), 0.5, 3.0),
            KeyedRow(Row("g", "b", 1.0), 0.5, 1.0),
        ]
        assert reduce_winners(keyed, Orientation.MIN)["g"].label == "b"

    def test_fold_vs_tree_merge(self):
        rows = _random_rows(np.random.default_rng(0), 1000, 37, 30)
        keyed = assign_keys(rows, ModelSpec(Family.GUMBEL1), SeedContext(3))
        sequential = reduce_winners(keyed, Orientation.MAX)
        chunks = np.array_split(np.arange(len(keyed)), 8)
        partials = [
            reduce_winners([keyed[i] for i in chunk], Orientation.MAX) for chunk in chunks
        ]
        while len(partials) > 1:  # balanced pairwise tree
            partials = [
                merge_winner_maps(partials[i : i + 2], Orientation.MAX)
                for i in range(0, len(partials), 2)
            ]
        assert partials[0] == sequential

    def test_input_order_irrelevant(self):
        rows = _random_rows(np.random.default_rng(1), 300, 10, 30)
        keyed = assign_keys(rows, ModelSpec(Family.GUMBEL1), SeedContext(4))
        expected = reduce_winners(keyed, Orientation.MAX)
        rng = np.random.default_rng(2)
        for _ in range(5):
            perm = rng.permutation(len(keyed))
            assert reduce_winners([keyed[i] for i in perm], Orientation.MAX) == expected

    @pytest.mark.parametrize("merge", ["reduce_winners", "merge_winner_maps"])
    @pytest.mark.parametrize("orientation", [*Orientation, "max", "min"],
                             ids=["max", "min", "str-max", "str-min"])
    def test_merge_is_a_total_order(self, merge, orientation):
        # NaN compares false both ways, so it would win or lose by input
        # order; it is refused, while +-inf rank as ordinary extremes
        def keyed(label, order_key):
            return KeyedRow(Row("g", label, 1.0), 0.5, order_key)

        def merged(rows):
            if merge == "reduce_winners":
                return reduce_winners(rows, orientation)
            maps = [reduce_winners([kr], orientation) for kr in rows]
            return merge_winner_maps(maps, orientation)

        ranked = [keyed("c", float("inf")), keyed("a", 1.0), keyed("b", float("-inf"))]
        best = "c" if Orientation(orientation) is Orientation.MAX else "b"
        for perm in itertools.permutations(ranked + [keyed("d", float("nan"))]):
            with pytest.raises(FamilyDomainError, match=r"NaN \(group_id='g', label='d'\)"):
                merged(list(perm))
        # a row counted twice is no partition: every merge refuses it, as a table does
        for perm in itertools.permutations(ranked + [keyed("a", 2.0)]):
            with pytest.raises(ValueError, match=r"duplicate row \(group_id='g', label='a'\)"):
                merged(list(perm))
        for perm in itertools.permutations(ranked):
            assert merged(list(perm))["g"].label == best


    @pytest.mark.parametrize("orientation", ["bogus", None])
    def test_merge_refuses_an_unknown_orientation(self, orientation):
        # "max" == Orientation.MAX, as Orientation is a str enum; any other value
        # used to race as MIN without a word
        rows = [KeyedRow(Row("g", "a", 1.0), 0.5, 1.0), KeyedRow(Row("g", "b", 1.0), 0.5, 2.0)]
        with pytest.raises(ValueError, match="is not a valid Orientation"):
            reduce_winners(rows, orientation)
        with pytest.raises(ValueError, match="is not a valid Orientation"):
            merge_winner_maps([reduce_winners(rows, Orientation.MAX)], orientation)

    @pytest.mark.parametrize("merge", ["reduce_winners", "merge_winner_maps"])
    @pytest.mark.parametrize("bad", ["group_id", "label"])
    def test_merges_refuse_a_non_str_id_as_sample_does(self, merge, bad):
        # and an id UTF-8 cannot encode (a lone surrogate), though a merge digests none
        for value, error, message in [
            (1, TypeError, "group ids and labels must be str, got int 1"),
            ("g\ud800", ValueError, re.escape("must encode as UTF-8, got 'g\\ud800'")),
        ]:
            row = Row(value, "a", 1.0) if bad == "group_id" else Row("g", value, 1.0)
            with pytest.raises(error, match=message):
                sample([row], ModelSpec(Family.GUMBEL1), SeedContext(0))
            with pytest.raises(error, match=message):
                if merge == "reduce_winners":
                    reduce_winners([KeyedRow(row, 0.5, 1.0)], Orientation.MAX)
                else:
                    merge_winner_maps([{row.group_id: GroupWinner(row.group_id, row.label, 1.0,
                                                                  1)}], Orientation.MAX)

    @pytest.mark.parametrize("merge", ["reduce_winners", "merge_winner_maps"])
    def test_merges_name_a_repeat_before_a_nan(self, merge):
        # as a table does: sample_arrays raises the repeat of injected keys [nan, 1.0]
        ranked = [KeyedRow(Row("g", label, 1.0), 0.5, key)
                  for label, key in [("a", float("nan")), ("a", 1.0), ("b", 2.0)]]
        for perm in itertools.permutations(ranked):
            with pytest.raises(ValueError, match=r"duplicate row \(group_id='g', label='a'\)") \
                    as refused:
                if merge == "reduce_winners":
                    reduce_winners(perm, Orientation.MAX)
                else:
                    merge_winner_maps([{kr.row.group_id: GroupWinner(kr.row.group_id,
                                                                    kr.row.label, kr.key, 1)}
                                       for kr in perm], Orientation.MAX)
            assert not isinstance(refused.value, FamilyDomainError)


def _random_rows(rng, n, n_groups, n_labels):
    assert n <= n_groups * n_labels, "not enough distinct (group,label) pairs"
    pairs = [(g, l) for g in range(n_groups) for l in range(n_labels)]
    chosen = rng.choice(len(pairs), size=n, replace=False)
    return [
        Row(f"g{pairs[i][0]:03d}", f"q{pairs[i][1]:02d}", float(rng.normal()))
        for i in chosen
    ]


def _merged_slices(n_slices, groups, labels, strengths, spec, ctx, injected_keys=None):
    """sample_arrays of each of n contiguous slices of a table, merged."""
    cuts = np.linspace(0, len(groups), n_slices + 1, dtype=int).tolist()
    maps = [
        sample_arrays(groups[a:b], labels[a:b], strengths[a:b], spec, ctx,
                      injected_keys=None if injected_keys is None else injected_keys[a:b])
        for a, b in zip(cuts, cuts[1:])
    ]
    return merge_winner_maps(maps, spec.orientation)


class TestSample:
    def test_equal_weights_frequency(self):
        # two weight-1 rows: winner frequency 0.5 within 3 sigma over 1e5
        n = 100_000
        winners = replicate_winners(
            ModelSpec(Family.CANONICAL), ["a", "b"], [1.0, 1.0], 21, n
        )
        freq = np.mean(winners == 0)
        sigma = (0.25 / n) ** 0.5
        assert abs(freq - 0.5) < 3 * sigma

    def test_weight_proportions_chi_square(self):
        report = stats.run_choice_experiment(
            ModelSpec(Family.CANONICAL), [1.0, 2.0, 3.0], 60_000, seed=22
        )
        assert not report.reject_at(1e-3)

    def test_softmax_frequencies(self):
        # frozen softmax(0,1,2) from the high-precision oracle
        softmax = (0.09003057317038046, 0.24472847105479767, 0.6652409557748219)
        winners = replicate_winners(
            ModelSpec(Family.GUMBEL1), ["a", "b", "c"], [0.0, 1.0, 2.0], 23, 60_000
        )
        report = stats.chi_square_gof(np.bincount(winners, minlength=3), softmax)
        assert not report.reject_at(1e-3)

    def test_replicate_winners_matches_sample(self):
        spec = ModelSpec(Family.GUMBEL1)
        labels = ["a", "b", "c", "d"]
        strengths = [0.0, 1.0, -0.5, 2.0]
        rows = [Row("g", l, s) for l, s in zip(labels, strengths)]
        fast = replicate_winners(spec, labels, strengths, 77, 50)
        for r in range(50):
            winner = sample(rows, spec, SeedContext(77, r))["g"]
            assert labels[fast[r]] == winner.label

    def test_monotone_transform_keeps_winners(self):
        rows = _random_rows(np.random.default_rng(3), 500, 25, 25)
        keyed = assign_keys(rows, ModelSpec(Family.GUMBEL1), SeedContext(6))
        base = {g: w.label for g, w in reduce_winners(keyed, Orientation.MAX).items()}
        for h in (lambda x: 2.0 * x + 1.0, np.arctan, lambda x: x**3):
            transformed = [
                KeyedRow(kr.row, kr.uniform, float(h(kr.key))) for kr in keyed
            ]
            got = {g: w.label for g, w in reduce_winners(transformed, Orientation.MAX).items()}
            assert got == base

    def test_sample_arrays_matches_sample(self):
        rows = _random_rows(np.random.default_rng(4), 800, 40, 25)
        spec = ModelSpec(Family.CANONICAL)
        # canonical needs positive strengths
        rows = [Row(r.group_id, r.label, abs(r.strength) + 0.1) for r in rows]
        ctx = SeedContext(8)
        expected = sample(rows, spec, ctx)
        got = sample_arrays(
            [r.group_id for r in rows],
            [r.label for r in rows],
            np.asarray([r.strength for r in rows]),
            spec,
            ctx,
        )
        assert got == expected

    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    def test_sample_arrays_shard_invariance(self, shards):
        rows = _random_rows(np.random.default_rng(5), 700, 30, 25)
        spec = ModelSpec(Family.GUMBEL1)
        ctx = SeedContext(9)
        args = (
            [r.group_id for r in rows],
            [r.label for r in rows],
            np.asarray([r.strength for r in rows]),
            spec,
            ctx,
        )
        assert _merged_slices(shards, *args) == sample_arrays(*args)

    def test_injected_keys_race(self):
        groups = [g for g, _, _, _ in WORKED_EXAMPLE_ROWS]
        labels = [q for _, q, _, _ in WORKED_EXAMPLE_ROWS]
        strengths = np.asarray([s for _, _, s, _ in WORKED_EXAMPLE_ROWS])
        keys = np.asarray([k for _, _, _, k in WORKED_EXAMPLE_ROWS])
        winners = sample_arrays(
            groups, labels, strengths, ModelSpec(Family.GUMBEL1), SeedContext(0),
            injected_keys=keys,
        )
        assert {g: w.label for g, w in winners.items()} == WORKED_EXAMPLE_WINNERS


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60), st.integers(0, 2**32))
def test_partition_invariance_property(boundaries_raw, seed):
    """Any partition of the keyed rows merges to the global winner map."""
    rng = np.random.default_rng(seed)
    rows = _random_rows(rng, 120, 8, 25)
    keyed = assign_keys(rows, ModelSpec(Family.GUMBEL1), SeedContext(seed & 0xFFFF))
    cuts = sorted({b % (len(keyed) + 1) for b in boundaries_raw})
    pieces = []
    prev = 0
    for cut in cuts + [len(keyed)]:
        pieces.append(keyed[prev:cut])
        prev = cut
    partials = [reduce_winners(piece, Orientation.MAX) for piece in pieces]
    merged = merge_winner_maps(partials, Orientation.MAX)
    assert merged == reduce_winners(keyed, Orientation.MAX)


_DUP_GROUPS, _DUP_LABELS = ["g", "h", "g", "h", "g"], ["a", "b", "c", "a", "a"]
_DUP_MESSAGE = r"duplicate row \(group_id='g', label='a'\)"


class TestInputContracts:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_injected_key_rejected(self, bad, shards):
        # a NaN key would win or lose depending on where the table is sliced,
        # so the call that holds it rejects it, however the table is sliced
        with pytest.raises(FamilyDomainError, match=r"group_id='a', label='x'"):
            _merged_slices(
                shards, ["a"] * 4, ["w", "x", "y", "z"], np.ones(4), ModelSpec(Family.GUMBEL1),
                SeedContext(0), injected_keys=[1.0, bad, 0.5, 2.0],
            )

    def test_coded_table_rejects_a_non_finite_key_when_built(self):
        with pytest.raises(FamilyDomainError, match=r"\(group_id='g', label='a'\)"):
            CodedTable.from_ids(["g"], ["a"], [1.0], keys=[float("nan")])

    # a lone surrogate is a str that UTF-8 cannot encode, so no digest can be taken
    @pytest.mark.parametrize("bad_id", [7, b"g", "g\ud800"])
    @pytest.mark.parametrize("entry", ["sample", "sample_arrays", "derive_uniform", "upsert",
                                       "injected_keys", "replicate_winners",
                                       "replicate_uniforms"])
    def test_non_str_ids_rejected(self, entry, bad_id):
        spec, ctx = ModelSpec(Family.GUMBEL1), SeedContext(0)
        calls = {
            "sample": lambda: sample([Row(bad_id, "a", 1.0)], spec, ctx),
            "sample_arrays": lambda: sample_arrays(["g"], [bad_id], [1.0], spec, ctx),
            # injected keys take no digests, so the table itself checks its ids
            "injected_keys": lambda: sample_arrays([bad_id, "g"], ["a", "b"], [1.0, 2.0], spec,
                                                   ctx, injected_keys=[1.0, 2.0]),
            "derive_uniform": lambda: derive_uniform(ctx, "g", bad_id),
            "upsert": lambda: DynamicTable(spec, ctx).upsert(bad_id, "a", 1.0),
            "replicate_winners": lambda: replicate_winners(spec, ["a", bad_id], [1.0, 2.0], 0, 4),
            "replicate_uniforms": lambda: replicate_uniforms(0, "g", bad_id, 4),
        }
        if isinstance(bad_id, str):
            error, message = ValueError, re.escape(f"must encode as UTF-8, got {bad_id!r}")
        else:
            error, message = TypeError, f"must be str, got {type(bad_id).__name__}"
        with pytest.raises(error, match=message):
            calls[entry]()

    @pytest.mark.parametrize("group_names, label_names", [
        (["g", "h\ud800"], ["a", "b"]), (["g", "h"], ["b", "a\udfff"]),
    ], ids=["group", "label"])
    def test_name_utf8_cannot_encode_rejected(self, group_names, label_names):
        bad = next(s for s in group_names + label_names if not s.isascii())
        with pytest.raises(ValueError, match=re.escape(f"must encode as UTF-8, got {bad!r}")):
            CodedTable([0, 1], group_names, [0, 1], label_names, [1.0, 2.0])

    @pytest.mark.parametrize("replicates", [1, 2])
    @pytest.mark.parametrize("keys", [None, np.arange(5.0)])
    def test_duplicate_row_rejected(self, keys, replicates):
        # rows 0 and 4 repeat ('g', 'a')
        args = (_DUP_GROUPS, _DUP_LABELS, np.ones(5), ModelSpec(Family.CANONICAL), SeedContext(0))
        with pytest.raises(ValueError, match=_DUP_MESSAGE):
            sample_arrays(*args, injected_keys=keys)
        # raised by the call itself, before any replicate is drawn
        with pytest.raises(ValueError, match=_DUP_MESSAGE):
            sample_replicates(*args, replicates, injected_keys=keys)

    def test_coded_table_rejects_duplicates(self):
        groups, labels = {}, {}
        codes = (code_ids(_DUP_GROUPS, groups), list(groups),
                 code_ids(_DUP_LABELS, labels), list(labels))
        with pytest.raises(ValueError, match=_DUP_MESSAGE):
            CodedTable(*codes, np.ones(5))

    @pytest.mark.parametrize("n_strengths", [1, 3])
    def test_columns_of_unequal_length_rejected(self, n_strengths):
        # an extra strength used to be dropped without a word
        with pytest.raises(ValueError, match="one length"):
            sample_arrays(["g", "g"], ["a", "b"], np.ones(n_strengths),
                          ModelSpec(Family.GUMBEL1), SeedContext(0))

    def test_two_dimensional_columns_rejected(self):
        # used to fail inside numpy: operands could not be broadcast together
        with pytest.raises(ValueError, match="1-D"):
            sample_arrays(["g", "g", "h"], ["a", "b", "a"], [[0.1], [0.2], [0.3]],
                          ModelSpec(Family.GUMBEL1), SeedContext(0))

    @pytest.mark.parametrize("labels, strengths, message", [
        # a repeated label used to give the first one every win
        (["a", "a"], [1.0, 2.0], r"duplicate row \(group_id='g', label='a'\)"),
        # an extra strength used to be ignored, a missing one to raise IndexError
        (["a", "b"], [1.0, 2.0, 3.0], "one length"),
        (["a", "b", "c"], [1.0, 2.0], "one length"),
        # a 2-D strength column used to pass the length check, then to fail
        # inside numpy, or, of shape (n, 1), to race without a word
        (["a", "b"], [[1.0, 2.0], [3.0, 4.0]], "1-D"),
        (["a", "b"], [[1.0], [2.0]], "1-D"),
    ], ids=["repeated-label", "extra-strength", "missing-strength", "square-strengths",
            "column-strengths"])
    def test_replicate_winners_follows_the_table_contract(self, labels, strengths, message):
        with pytest.raises(ValueError, match=message):
            replicate_winners(ModelSpec(Family.CANONICAL), labels, strengths, 0, 10)

    def test_duplicate_row_rejected_before_a_bad_strength(self, tmp_path, capsys):
        # the repeated pair comes after the wrong-sign strength in file order
        groups, labels, strengths = ["g", "g", "g"], ["a", "b", "a"], [1.0, -1.0, 2.0]
        spec, ctx = ModelSpec(Family.CANONICAL), SeedContext(0)
        rows = [Row(*r) for r in zip(groups, labels, strengths)]
        message = r"duplicate row \(group_id='g', label='a'\)"
        for call in (lambda: sample_arrays(groups, labels, strengths, spec, ctx),
                     lambda: sample(rows, spec, ctx), lambda: assign_keys(rows, spec, ctx)):
            with pytest.raises(ValueError, match=message) as err:
                call()
            assert not isinstance(err.value, FamilyDomainError)
        path = tmp_path / "t.csv"
        path.write_text("ID,QUAL,Strength\ng,a,1.0\ng,b,-1.0\ng,a,2.0\n")
        assert cli.main(["sample", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 4: duplicate row (g,a)\n"

    def test_duplicates_are_looked_for_once_per_call(self, tmp_path, capsys):
        groups, labels = ["g", "g", "h"], ["a", "b", "a"]
        path = tmp_path / "t.csv"
        path.write_text("ID,QUAL,Strength\n" + "".join(f"{g},{l},1.0\n"
                                                       for g, l in zip(groups, labels)))
        calls = []

        def counted(*args):
            calls.append(args)
            return first_duplicate(*args)

        with mock.patch.object(sampler, "first_duplicate", counted):
            assert cli.main(["sample", "--replicates", "3", str(path)]) == 0
            assert len(calls) == 1
            spec, ctx = ModelSpec(Family.GUMBEL1), SeedContext(0)
            maps = list(sample_replicates(groups, labels, np.ones(3), spec, ctx, 3))
            assert len(maps) == 3 and len(calls) == 2
        assert len(capsys.readouterr().out.splitlines()) == 3 * 2

    @pytest.mark.parametrize("n", [-1, -3])
    @pytest.mark.parametrize("entry", ["sample_replicates", "sample_codes", "replicate_winners",
                                       "replicate_uniforms"])
    def test_negative_replicate_count_rejected(self, entry, n):
        spec, ctx = ModelSpec(Family.GUMBEL1), SeedContext(0)
        calls = {
            "sample_replicates": lambda: sample_replicates(["g", "g"], ["a", "b"], np.ones(2),
                                                           spec, ctx, n),
            "sample_codes": lambda: sample_codes(CodedTable.from_ids(["g"], ["a"], [1.0]),
                                                 spec, ctx, n),
            "replicate_winners": lambda: replicate_winners(spec, ["a", "b"], [1.0, 2.0], 0, n),
            "replicate_uniforms": lambda: replicate_uniforms(0, "g", "a", n),
        }
        # raised by the call itself, before any replicate is drawn
        with pytest.raises(ValueError, match=f"n_replicates must be >= 0, got {n}"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["replicate_uniforms", "replicate_winners"])
    def test_a_float_replicate_count_rejected(self, entry):
        # replicate_uniforms used to take 2.5 as 3 replicates
        spec = ModelSpec(Family.GUMBEL1)
        calls = {
            "replicate_uniforms": lambda: replicate_uniforms(0, "g", "a", 2.5),
            "replicate_winners": lambda: replicate_winners(spec, ["a", "b"], [1.0, 2.0], 0, 2.5),
        }
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["derive_uniform", "sample_arrays", "replicate_winners",
                                       "upsert"])
    def test_a_float_seed_rejected(self, entry):
        # a float seed used to be truncated: 2.7 drew exactly seed 2's uniforms
        spec = ModelSpec(Family.GUMBEL1)
        calls = {
            "derive_uniform": lambda: derive_uniform(SeedContext(1.5), "g", "a"),
            "sample_arrays": lambda: sample_arrays(["g"], ["a"], [1.0], spec, SeedContext(2.7)),
            "replicate_winners": lambda: replicate_winners(spec, ["a", "b"], [1.0, 2.0], 1.9, 3),
            "upsert": lambda: DynamicTable(spec, SeedContext(2.7)).upsert("g", "a", 1.0),
        }
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["SeedContext.replicate", "replicate_winners",
                                       "replicate_uniforms", "sample_replicates",
                                       "DynamicTable"])
    def test_a_float_seed_rejected_where_no_uniform_is_drawn(self, entry):
        # each of these used to accept the float, as it drew no uniform to refuse it
        spec = ModelSpec(Family.GUMBEL1)
        calls = {
            "SeedContext.replicate": lambda: SeedContext(0, 1.5),
            "replicate_winners": lambda: replicate_winners(spec, ["a", "b"], [1.0, 2.0], 1.5, 0),
            "replicate_uniforms": lambda: replicate_uniforms(1.5, "g", "a", 0),
            "sample_replicates": lambda: list(sample_replicates(["g"], ["a"], [1.0], spec,
                                                                SeedContext(1.5), 0)),
            "DynamicTable": lambda: DynamicTable(spec, SeedContext(1.5)),
        }
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            calls[entry]()

    def test_a_failed_upsert_stores_no_row(self):
        # a context built around SeedContext's check: its seed fails where the uniform is drawn
        table = DynamicTable(ModelSpec(Family.GUMBEL1), SimpleNamespace(seed=2.7, replicate=0))
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            table.upsert("g", "a", 1.0)
        assert len(table) == 0 and table.winners() == {}

    def test_a_numpy_integer_seed_keeps_its_bits(self):
        for seed, same in [(np.int64(7), 7), (np.uint64(2**64 - 1), -1), (np.int32(-5), -5)]:
            assert (derive_uniform(SeedContext(seed, np.uint8(3)), "g", "a")
                    == derive_uniform(SeedContext(same, 3), "g", "a"))
            np.testing.assert_array_equal(replicate_uniforms(seed, "g", "a", np.int16(4)),
                                          replicate_uniforms(same, "g", "a", 4))

    def test_zero_replicates_yield_nothing(self):
        spec, ctx = ModelSpec(Family.GUMBEL1), SeedContext(0)
        table = CodedTable.from_ids(["g", "g"], ["a", "b"], [1.0, 2.0])
        assert list(sample_codes(table, spec, ctx, 0)) == []
        assert list(sample_replicates(["g"], ["a"], [1.0], spec, ctx, 0)) == []
        assert replicate_winners(spec, ["a", "b"], [1.0, 2.0], 0, 0).shape == (0,)

    def test_group_without_rows_has_no_winner(self):
        # a table built directly may name a group that no row belongs to
        table = CodedTable(np.array([0, 0, 2]), ["g", "ghost", "h"], np.array([0, 1, 0]),
                           ["a", "b"], np.array([1.0, 2.0, 3.0]))
        spec, ctx = ModelSpec(Family.GUMBEL1), SeedContext(5)
        (winners,) = sample_codes(table, spec, ctx)
        assert sorted(winners) == ["g", "h"]
        assert winners == sample_arrays(table.group_ids, table.labels, table.strengths, spec, ctx)
        assert (winners["g"].row_count, winners["h"].row_count) == (2, 1)

    @pytest.mark.parametrize("group_codes, label_codes", [
        ([0, 2], [0, 1]), ([0, -1], [0, 1]), ([0, 1], [0, 2]), ([0, 1], [-1, 0]),
    ])
    def test_code_that_indexes_no_name_rejected(self, group_codes, label_codes):
        # the race sorts group codes narrowed to the width of the name count
        with pytest.raises(ValueError, match="codes must index its names"):
            CodedTable(np.array(group_codes), ["g", "h"], np.array(label_codes), ["a", "b"],
                       np.ones(2))

    @pytest.mark.parametrize("group_names, label_codes, label_names, repeat", [
        (["g", "g"], [0, 0], ["a"], "g"),  # rows 0 and 1 are both ('g', 'a')
        (["g", "h"], [0, 1], ["a", "a"], "a"),  # rows 0 and 1 hash to one uniform each
    ], ids=["group", "label"])
    def test_repeated_name_rejected(self, group_names, label_codes, label_names, repeat):
        # a repeated name gives one (group_id, label) two codes, so no pair repeats
        with pytest.raises(ValueError, match=f"names must be distinct, '{repeat}' repeats"):
            CodedTable([0, 1], group_names, label_codes, label_names, [1.0, 5.0])

    @pytest.mark.parametrize("group_codes, label_codes", [
        ([0.5], [0]), ([0], [0.0]), (np.array([1.0]), np.array([0])),
    ])
    def test_non_integer_codes_rejected(self, group_codes, label_codes):
        # 0.5 used to be truncated to the code 0
        with pytest.raises(ValueError, match="codes must be integers, got float64"):
            CodedTable(group_codes, ["g", "h"], label_codes, ["a"], [1.0])
        # an empty column holds no code, whatever its dtype
        assert CodedTable([], [], [], [], []).group_codes.dtype == np.intp

    def test_merge_refuses_a_key_that_is_not_its_winners_group_id(self):
        winner = GroupWinner("g", "a", 1.0, 1)
        with pytest.raises(ValueError, match="key 'x' is not its winner's group_id 'g'"):
            merge_winner_maps([{"g": GroupWinner("g", "b", 2.0, 1)}, {"x": winner}], "max")

    @pytest.mark.parametrize("entry", [sample, assign_keys])
    def test_duplicate_row_rejected_by_row_entry_points(self, entry):
        rows = [Row(g, l, 1.0) for g, l in zip(_DUP_GROUPS, _DUP_LABELS)]
        with pytest.raises(ValueError, match=_DUP_MESSAGE):
            entry(rows, ModelSpec(Family.GUMBEL1), SeedContext(0))


# ids that stress the digest: empty, multi-byte, longer than one 8-byte
# word, and trailing NULs that a fixed-width byte view would strip
_EDGE_IDS = ["", "a", "b", "é", "日本語", "exactly8", "longer than eight bytes", "x\0", "\0"]
_IDS = st.one_of(st.sampled_from(_EDGE_IDS), st.text(max_size=12))


@st.composite
def _tables(draw):
    pairs = draw(st.lists(st.tuples(_IDS, _IDS), min_size=1, max_size=40, unique=True))
    n = len(pairs)
    strengths = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    spec = ModelSpec(draw(st.sampled_from(list(Family))))
    sign = spec.strength_sign or 1.0  # negexp strengths are negative
    return [g for g, _ in pairs], [l for _, l in pairs], sign * np.asarray(strengths), spec


@settings(max_examples=50, deadline=None)
@given(_tables(), st.integers(0, 2**64 - 1))
def test_columnar_core_matches_scalar_reference(table, seed):
    """sample_arrays equals a row-by-row fold of derive_uniform and _beats."""
    groups, labels, strengths, spec = table
    ctx = SeedContext(seed, seed % 5)
    keyed = []
    for g, l, s in zip(groups, labels, strengths):
        u = derive_uniform(ctx, g, l)
        key, order_key = float(generate_key(spec, s, u)), float(generate_order_key(spec, s, u))
        keyed.append(KeyedRow(Row(g, l, s), u, key, order_key))
    got = sample_arrays(groups, labels, strengths, spec, ctx)
    assert got == fold_rows(keyed, spec.orientation)


@settings(max_examples=50, deadline=None)
@given(_tables(), st.data(), st.integers(1, 6))
def test_columnar_label_tie_breaks_match_fold(table, data, shards):
    """Keys from {0, 1, 2} force exact ties, settled by the label rank."""
    groups, labels, strengths, spec = table
    n = len(groups)
    keys = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n))
    keyed = [KeyedRow(Row(g, l, s), 0.5, k) for g, l, s, k in zip(groups, labels, strengths, keys)]
    got = _merged_slices(shards, groups, labels, strengths, spec, SeedContext(0),
                         injected_keys=keys)
    assert got == fold_rows(keyed, spec.orientation)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_IDS, min_size=1, max_size=8, unique=True),
    _IDS,
    st.sampled_from(list(Family)),
    st.integers(0, 2**32),
)
def test_replicate_winners_matches_columnar_core(labels, group_id, family, seed):
    spec = ModelSpec(family)
    strengths = (spec.strength_sign or 1.0) * np.linspace(0.5, 3.0, len(labels))
    fast = replicate_winners(spec, labels, strengths, seed, 6, group_id=group_id)
    for r in range(6):
        winner = sample_arrays(
            [group_id] * len(labels), labels, strengths, spec, SeedContext(seed, r)
        )[group_id]
        assert labels[fast[r]] == winner.label


def _key_matrix_winners(spec, labels, strengths, seed, n_replicates, group_id):
    """The race as one (labels x replicates) order-key matrix and its argmax/argmin."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = np.array([
        generate_order_key(spec, strengths[i],
                           replicate_uniforms(seed, group_id, labels[i], n_replicates))
        for i in order
    ]).reshape(len(order), n_replicates)
    pick = np.argmax if spec.orientation is Orientation.MAX else np.argmin
    return np.asarray(order, dtype=np.intp)[pick(keys, axis=0)]


@st.composite
def _one_group_races(draw):
    """Unsorted labels with strengths in each family's recorded sign convention.

    frechet2 and negexp at scale 1000 saturate most keys to +inf or -0.0,
    and weight 5e-324 gives canonical -inf and expmin +inf order keys, so
    many replicates end in exact ties that only the label order settles.
    """
    spec = ModelSpec(draw(st.sampled_from(list(Family))),
                     scale_c=draw(st.sampled_from([1.0, 1000.0])))
    labels = draw(st.lists(_IDS, min_size=1, max_size=40, unique=True))
    weight = st.floats(0.5, 2.0)
    if spec.family in (Family.CANONICAL, Family.EXPMIN):
        weight = weight | st.just(5e-324)
    alphas = draw(st.lists(weight, min_size=len(labels), max_size=len(labels)))
    return spec, labels, alpha_to_strength(spec, np.asarray(alphas))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(_one_group_races(), _IDS, st.integers(0, 2**64 - 1), st.integers(1, 7),
       st.integers(0, 3), st.integers(0, 6), st.integers(1, 3))
@example((ModelSpec(Family.CANONICAL), ["b", "", "a"], np.full(3, 5e-324)), "g", 1, 4, 2, 0, 2)
@example((ModelSpec(Family.EXPMIN), ["z", "y"], np.full(2, 5e-324)), "g", 2, 3, 0, 2, 1)
@example((ModelSpec(Family.FRECHET2, scale_c=1000.0), ["q", "p", "r"], np.ones(3)), "", 3, 7, 3, 5, 3)
@example((ModelSpec(Family.NEGEXP, scale_c=1000.0), ["q", "p"], -np.ones(2)), "g", 4, 5, 2, 1, 2)
def test_blocked_race_matches_key_matrix(race, group_id, seed, block, n_blocks, extra, workers):
    """replicate_winners equals the matrix race for R below, at and across block
    edges, at any worker count, every worker but the caller forked."""
    spec, labels, strengths = race
    n_replicates = n_blocks * block + extra % block
    with mock.patch.object(sampler, "_RACE_BLOCK", block), \
            mock.patch.object(sampler, "_FORK_DRAWS", 1), \
            mock.patch.object(sampler, "_usable_cpus", lambda: workers):
        got = replicate_winners(spec, labels, strengths, seed, n_replicates, group_id=group_id)
    expected = _key_matrix_winners(spec, labels, strengths, seed, n_replicates, group_id)
    np.testing.assert_array_equal(got, expected)


def test_race_of_more_labels_than_a_byte_holds_matches_key_matrix():
    """Past 256 labels a leader's position in label order takes two bytes."""
    spec = ModelSpec(Family.GUMBEL1)
    labels, strengths = [f"l{i}" for i in range(300)][::-1], np.linspace(-1.0, 1.0, 300)
    with mock.patch.object(sampler, "_RACE_BLOCK", 64):
        got = replicate_winners(spec, labels, strengths, 4, 1000)
    np.testing.assert_array_equal(got, _key_matrix_winners(spec, labels, strengths, 4, 1000, "g"))
    rank = {label: r for r, label in enumerate(sorted(labels))}
    assert max(rank[labels[w]] for w in got.tolist()) >= 256


def _tiny_race_outcome(workers, spec, strengths):
    """Winners or (error type, message) of a 5-block race at a patched worker count,
    every worker but the caller forked."""
    with mock.patch.object(sampler, "_RACE_BLOCK", 4), \
            mock.patch.object(sampler, "_FORK_DRAWS", 1), \
            mock.patch.object(sampler, "_usable_cpus", lambda: workers):
        try:
            return replicate_winners(spec, ["b", "a", "c"], strengths, 5, 20).tolist()
        except Exception as exc:
            return type(exc), str(exc)
        finally:
            _assert_no_children()


def test_worker_processes_keep_the_callers_floating_point_state():
    """A forked child keeps the caller's np.errstate, and the error of a block is the
    caller's at any worker count."""
    spec, tiny = ModelSpec(Family.CANONICAL), np.full(3, 5e-324)  # log(u) / 5e-324 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise"):
            raised = [_tiny_race_outcome(w, spec, tiny) for w in (1, 2)]
        with np.errstate(over="ignore"):
            quiet = [_tiny_race_outcome(w, spec, tiny) for w in (1, 2)]
    assert raised[0] == raised[1]
    assert raised[0][0] is FloatingPointError and "overflow" in raised[0][1]
    assert quiet[0] == quiet[1] == [1] * 20  # every key is -inf: the smallest label, "a"


def test_a_forked_race_warns_as_one_worker_does(forks):
    """A warning fails its worker, so the caller races every block and the warnings
    reach the caller's filters."""
    spec, tiny = ModelSpec(Family.CANONICAL), np.full(3, 5e-324)  # log(u) / 5e-324 overflows

    def recorded(workers):
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn"):
            warnings.simplefilter("always")
            outcome = _tiny_race_outcome(workers, spec, tiny)
        return outcome, [(w.category, str(w.message)) for w in caught]

    one, three = recorded(1), recorded(3)
    assert one == three and len(one[1]) == 15  # an overflow per label and block
    assert forks[0] == 2


def test_a_failed_child_makes_the_caller_race_every_block(forks):
    spec, strengths = ModelSpec(Family.CANONICAL), np.array([1.0, 2.0, 3.0])
    real, caller = sampler._order_keys, os.getpid()

    def fails_in_a_child(*args):
        if os.getpid() != caller:
            raise KeyError("child block")
        return real(*args)

    expected = _tiny_race_outcome(1, spec, strengths)
    with mock.patch.object(sampler, "_order_keys", fails_in_a_child):
        assert _tiny_race_outcome(3, spec, strengths) == expected
    assert forks[0] == 2


def test_more_workers_than_cpus_race_every_block():
    spec = ModelSpec(Family.GUMBEL1)
    labels, strengths = [f"l{i}" for i in range(5)], np.linspace(-1.0, 1.0, 5)
    workers = sampler._usable_cpus() + 2
    with mock.patch.object(sampler, "_RACE_BLOCK", 3), \
            mock.patch.object(sampler, "_FORK_DRAWS", 1), \
            mock.patch.object(sampler, "_usable_cpus", lambda: workers):
        got = replicate_winners(spec, labels, strengths, 9, 301)
    np.testing.assert_array_equal(got, _key_matrix_winners(spec, labels, strengths, 9, 301, "g"))


# 5 labels x 301 replicates, in 101 blocks of 3 when _RACE_BLOCK is patched
_SMALL_RACE = (ModelSpec(Family.GUMBEL1), [f"l{i}" for i in range(5)],
               np.linspace(-1.0, 1.0, 5), 9, 301)


def _small_race_in_blocks():
    """replicate_winners of _SMALL_RACE with a worker per block and per draw allowed."""
    with mock.patch.object(sampler, "_RACE_BLOCK", 3), \
            mock.patch.object(sampler, "_FORK_DRAWS", 1):
        return replicate_winners(*_SMALL_RACE)


def test_forked_workers_are_reaped_when_the_race_returns(forks):
    got = _small_race_in_blocks()
    assert forks[0] == 2
    _assert_no_children()
    assert got.dtype == np.intp and got.flags.writeable
    np.testing.assert_array_equal(got, _key_matrix_winners(*_SMALL_RACE, "g"))


def test_forked_workers_race_each_block_once(forks):
    """With every child's share raced, the caller races only its own blocks."""
    real, caller, calls = sampler._order_keys, os.getpid(), [0]

    def counted(*args):
        calls[0] += os.getpid() == caller
        return real(*args)

    with mock.patch.object(sampler, "_order_keys", counted):
        got = _small_race_in_blocks()
    assert forks[0] == 2
    assert calls[0] == 5 * len(range(0, 101, 3))  # 5 labels x blocks 0, 3, 6, ... of 101
    np.testing.assert_array_equal(got, _key_matrix_winners(*_SMALL_RACE, "g"))


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_forked_workers_are_reaped_when_the_callers_block_raises(forks, error):
    real, caller = sampler._order_keys, os.getpid()

    def fails_in_the_caller(*args):
        if os.getpid() == caller:
            raise error("caller block")
        return real(*args)

    with mock.patch.object(sampler, "_order_keys", fails_in_the_caller), \
            pytest.raises(error, match="caller block"):
        _small_race_in_blocks()
    assert forks[0] == 2
    _assert_no_children()


def test_a_failed_fork_makes_the_caller_race_every_block(failing_fork):
    np.testing.assert_array_equal(_small_race_in_blocks(), _key_matrix_winners(*_SMALL_RACE, "g"))
    _assert_no_children()


def test_without_fork_the_race_runs_in_one_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 3)
    got = _small_race_in_blocks()
    assert got.flags.owndata  # an array of its own, not a mapping shared with children
    np.testing.assert_array_equal(got, _key_matrix_winners(*_SMALL_RACE, "g"))


def test_children_are_joined_in_fork_order():
    """The earliest fork is joined first, though the later ones finish before it."""
    with sampler._Children() as children:
        for k in range(3):
            children.fork(lambda k=k: time.sleep(0.2 * (2 - k)) or k * k)
        assert [children.join() for _ in range(3)] == [0, 1, 4]
    _assert_no_children()


def test_a_child_result_larger_than_its_pipe_arrives_whole():
    """A result of four 64 KiB pipe buffers: the child blocks until the pipe is read, so
    it is read before the child is reaped."""
    result = bytes(range(256)) * 1024

    def stalled(*_):
        raise TimeoutError("the child was reaped before its pipe was read")

    handler = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(20)
    try:
        with sampler._Children() as children:
            children.fork(lambda: result)
            assert children.join() == result
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    _assert_no_children()


@pytest.mark.parametrize("error", [KeyError, SystemExit])
def test_a_child_that_raises_gives_none(error):
    def fails():
        raise error("child")

    with sampler._Children() as children:
        children.fork(fails)
        children.fork(lambda: "next")
        assert children.join() is None
        assert children.join() == "next"
    _assert_no_children()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_child_that_cannot_be_forked_gives_none(monkeypatch, call):
    """A pipe or fork that raises OSError leaves no descriptor open and no child."""
    opened, pipe = [], os.pipe

    def recorded_pipe():
        fds = pipe()
        opened.extend(fds)
        return fds

    def fails():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, call, fails)
    with sampler._Children() as children:
        children.fork(lambda: "forked")
        assert children.join() is None
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
    _assert_no_children()


@pytest.mark.parametrize("raises", [False, True])
def test_leaving_the_children_kills_and_reaps_every_live_one(raises):
    started = time.monotonic()
    with pytest.raises(KeyError) if raises else contextlib.nullcontext():
        with sampler._Children() as children:
            for _ in range(2):
                children.fork(lambda: time.sleep(60))
            if raises:
                raise KeyError("caller")
    assert time.monotonic() - started < 30
    _assert_no_children()


@pytest.mark.parametrize("n_labels, n_replicates, n_forks", [
    (3, 60_000, 0),  # a validate call
    (16, 2 * sampler._FORK_DRAWS // 16 - 1, 0),  # one draw short of two workers' worth
    (16, 2 * sampler._FORK_DRAWS // 16, 1),
    (16, 3 * sampler._FORK_DRAWS // 16, 2),
])
def test_workers_are_forked_only_for_enough_draws(forks, n_labels, n_replicates, n_forks):
    labels, strengths = [f"l{i:02d}" for i in range(n_labels)], np.linspace(0.5, 2.0, n_labels)
    got = replicate_winners(ModelSpec(Family.CANONICAL), labels, strengths, 3, n_replicates)
    assert forks[0] == n_forks
    _assert_no_children()
    with mock.patch.object(sampler, "_usable_cpus", lambda: 1):
        expected = replicate_winners(ModelSpec(Family.CANONICAL), labels, strengths, 3,
                                     n_replicates)
    np.testing.assert_array_equal(got, expected)


def _race_replicates_per_worker(n_blocks):
    """A replicate count that gives every worker ``n_blocks`` blocks."""
    return n_blocks * sampler._usable_cpus() * sampler._RACE_BLOCK


def test_replicate_winners_memory_is_bounded_by_the_block():
    spec = ModelSpec(Family.CANONICAL)
    labels, strengths = [f"l{i:02d}" for i in range(16)], np.linspace(0.5, 2.0, 16)

    def peak(n_replicates):
        tracemalloc.start()
        try:
            replicate_winners(spec, labels, strengths, 1, n_replicates)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one process for both calls, so tracemalloc sees the winners and scratch of each
    with mock.patch.object(sampler, "_usable_cpus", lambda: 1):
        assert peak(_race_replicates_per_worker(4)) <= 2 * peak(_race_replicates_per_worker(1))


@pytest.mark.parametrize("family", list(Family))
def test_replicate_winners_label_loop_allocates_no_block_array(family):
    """Beside the winners, one worker's traced peak is its scratch and less than a block array."""
    spec = ModelSpec(family)
    labels = [f"l{i:02d}" for i in range(16)]
    strengths = alpha_to_strength(spec, np.linspace(0.5, 2.0, 16))
    block, n_replicates = sampler._RACE_BLOCK, 3 * sampler._RACE_BLOCK + 5
    with mock.patch.object(sampler, "_usable_cpus", lambda: 1):
        tracemalloc.start()
        try:
            replicate_winners(spec, labels, strengths, 1, n_replicates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    winners = n_replicates * np.dtype(np.intp).itemsize
    scratch = (5 * 8 + 1) * block  # three uint64 and two float64 arrays, one bool
    slack = 4 * block  # half of one float64 block array
    assert peak <= winners + scratch + slack


_FAULTS_OF_ONE_CALL = """
import resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from keyrace import Family, ModelSpec, replicate_winners
labels, strengths = [f"l{i:02d}" for i in range(16)], np.linspace(0.5, 2.0, 16)
def faults():  # the caller's and its reaped worker processes'
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
before = faults()
replicate_winners(ModelSpec(Family.CANONICAL), labels, strengths, 1, int(sys.argv[2]))
print(faults() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_replicate_winners_faults_grow_only_by_the_result():
    """A block causes no page faults, so more blocks add only the winners' own pages."""
    import resource

    def faults(n_replicates):  # in a fresh process, as the first call of a run
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS_OF_ONE_CALL,
             str(Path(sampler.__file__).parents[1]), str(n_replicates)],
            capture_output=True, text=True, timeout=300, check=True,
        )
        return int(proc.stdout)

    few, many = _race_replicates_per_worker(2), _race_replicates_per_worker(8)
    result_pages = (many - few) * np.dtype(np.intp).itemsize // resource.getpagesize()
    assert faults(many) - faults(few) <= result_pages + 256


def test_in_place_mix_leaves_callers_arrays_alone():
    reps = np.arange(40, dtype=np.uint64)
    digests = _string_digests(["g", "h", "é", ""])
    groups, labels = digests[[0, 1, 1, 3]], digests[[2, 2, 0, 1]]  # expanded digest columns
    inputs = [reps, digests, groups, labels]
    kept = [a.copy() for a in inputs]

    def outputs():
        return [
            *_absorb(reps, 1, 2, 3, [4]),  # an array as the first part
            *_absorb(5, reps, 0, int(digests[0]), [int(digests[1]), int(digests[2])]),
            *_absorb(6, 0, 0, groups, [labels]),
            _string_digests(["g", "h", "é", ""]),
            replicate_uniforms(7, "g", "é", 40),
        ]

    first, second = outputs(), outputs()
    for before, after in zip(kept, inputs):
        np.testing.assert_array_equal(before, after)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


# strings of 0-200 UTF-8 bytes span many word counts in one call
_LONG_IDS = st.one_of(
    st.text(max_size=200).map(lambda t: t.encode("utf-8")[:200].decode("utf-8", "ignore")),
    st.integers(0, 25).map(lambda n: "\0" * n),
    st.tuples(st.text(max_size=30), st.integers(1, 9)).map(lambda p: p[0] + "\0" * p[1]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(_IDS, _LONG_IDS), max_size=40))
@example(["", "\0", "\0" * 8, "\0" * 9, "x" * 9, "é" * 100, "a\0\0", "日本語" * 22])
# names of one length: every word below the last is mixed into all of them at once
@example([f"candidate-{i:07d}-{i * 0x9E3779B97F4A7C15 % 2**64:016x}-variant" for i in range(5)])
@example(["0123456789abcdef", "fedcba9876543210", "\0" * 16])
# ASCII and multi-byte names together: byte lengths are taken name by name
@example(["plain", "ü label", "日本", "ascii-only-and-long", "é", "", "z" * 17])
# names that end exactly on an 8-byte boundary
@example(["12345678", "abcdefgh" * 2, "é" * 4, "日本ab", "x" * 24, "日本語" * 8])
def test_vectorized_digest_matches_scalar(strings):
    assert _string_digests(strings).tolist() == [_string_digest(s) for s in strings]


@settings(max_examples=40, deadline=None)
@given(_tables(), st.integers(0, 2**64 - 1), st.integers(0, 5), st.integers(1, 4),
       st.integers(1, 6), st.booleans())
def test_sample_replicates_matches_sample_arrays(table, seed, first, n, shards, inject):
    groups, labels, strengths, spec = table
    keys = np.linspace(-1.0, 1.0, len(groups)) if inject else None
    got = list(sample_replicates(
        groups, labels, strengths, spec, SeedContext(seed, first), n, injected_keys=keys,
    ))
    expected = [
        _merged_slices(shards, groups, labels, strengths, spec, SeedContext(seed, first + r),
                       injected_keys=keys)
        for r in range(n)
    ]
    assert got == expected


def _exact(winners):
    """Winners with their keys as reprs, so -0.0 and 0.0 differ."""
    return {g: (w.label, repr(w.key), repr(w.order_key), w.row_count)
            for g, w in winners.items()}


@settings(max_examples=60, deadline=None)
@given(_tables(), st.data(), st.integers(1, 6), st.integers(1, 3))
def test_segmented_reduce_matches_fold_on_signed_zero_ties(table, data, shards, n):
    """Keys from {-1, -0.0, 0.0, 1} force ties in which -0.0 equals 0.0.

    Every replicate's winners equal fold_rows, the _beats fold, down to
    the sign of a zero key and the row counts.
    """
    groups, labels, strengths, spec = table
    keys = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                              min_size=len(groups), max_size=len(groups)))
    keyed = [KeyedRow(Row(g, l, s), 0.5, k) for g, l, s, k in zip(groups, labels, strengths, keys)]
    expected = _exact(fold_rows(keyed, spec.orientation))
    got = list(sample_replicates(groups, labels, strengths, spec, SeedContext(0), n,
                                 injected_keys=keys))
    assert [_exact(winners) for winners in got] == [expected] * n
    merged = _merged_slices(shards, groups, labels, strengths, spec, SeedContext(0),
                            injected_keys=keys)
    assert _exact(merged) == expected


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "a", "é"]), _IDS), max_size=30, unique=True),
       st.data(), st.sampled_from(list(Orientation)))
def test_object_merges_match_row_fold(pairs, data, orientation):
    """reduce_winners, and merge_winner_maps of a random partition's maps,
    equal fold_rows exactly on keys from {-inf, -1, -0.0, 0.0, 1, inf}.

    Three group ids share the rows, so the partial maps' winners carry
    row counts above 1.
    """
    n = len(pairs)
    keys = data.draw(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]),
                              min_size=n, max_size=n))
    keyed = [KeyedRow(Row(g, l, 1.0), 0.5, k) for (g, l), k in zip(pairs, keys)]
    expected = _exact(fold_rows(keyed, orientation))
    assert _exact(reduce_winners(keyed, orientation)) == expected
    parts = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    maps = [fold_rows([kr for kr, p in zip(keyed, parts) if p == part], orientation)
            for part in range(4)]
    assert _exact(merge_winner_maps(maps, orientation)) == expected


def _code_ids_three_pass(strings, index):
    """The three-pass coding that :func:`code_ids` replaced, kept as its reference."""
    fresh = [s for s in dict.fromkeys(strings) if s not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, strings), dtype=np.intp, count=len(strings))


@pytest.mark.parametrize("known, pieces", [
    (["a", "b", "c"], [["c", "a", "c", "b"]]),  # no new name
    ([], [["x", "y", "z"]]),  # every name new: the provisional codes are already dense
    (["k"], [["x", "y", "z"]]),  # every name new, after known ones
    ([], [["x", "x", "y", "x", "z", "y"]]),  # new names repeated within one call
    (["k"], [["x", "k", "y", "x"], ["k", "z", "y", "w", "z"], ["w", "x"]]),  # across calls
    ([], [[], ["a"], []]),  # empty calls
], ids=["none-new", "all-new", "all-new-after-known", "new-repeated", "new-after-known",
        "empty"])
def test_code_ids_paths_match_three_pass(known, pieces):
    index = {s: i for i, s in enumerate(known)}
    reference = dict(index)
    for piece in pieces:
        got = code_ids(piece, index)
        assert got.dtype == np.intp
        assert got.tolist() == _code_ids_three_pass(piece, reference).tolist()
        assert list(index.items()) == list(reference.items())


_FEW_IDS = st.text(alphabet="ab\0é", max_size=2)  # few distinct ids, so they repeat


@settings(max_examples=100, deadline=None)
@given(st.lists(_FEW_IDS, max_size=40), st.lists(_FEW_IDS, max_size=6, unique=True),
       st.lists(st.integers(0, 40), max_size=4))
def test_one_pass_code_ids_matches_three_pass(column, known, cuts):
    """A column coded in 1-5 pieces, into an index that may hold entries already."""
    cuts = sorted(min(c, len(column)) for c in cuts)
    pieces = [column[a:b] for a, b in zip([0, *cuts], [*cuts, len(column)])]
    index = {s: i for i, s in enumerate(known)}
    reference = dict(index)
    got = [code_ids(piece, index).tolist() for piece in pieces]
    assert got == [_code_ids_three_pass(piece, reference).tolist() for piece in pieces]
    assert list(index.items()) == list(reference.items())


@pytest.mark.parametrize("n_groups", [255, 256, 257, 65535, 65536, 65537])
def test_group_sort_across_code_widths_matches_fold(n_groups):
    """Group counts around the 8- and 16-bit code widths race as the fold does.

    Each group has a row in each half of the table.  Sorted on codes too
    narrow for the last group, its rows would share a segment boundary
    with group 0's; the injected keys, falling in row order, make group
    0's first row its winner, which then would be lost.
    """
    group_ids = [f"g{g}" for g in range(n_groups)] * 2
    labels = ["q0"] * n_groups + ["q1"] * n_groups
    rng = np.random.default_rng(n_groups)
    strengths = rng.uniform(0.5, 2.0, len(group_ids))
    keys = -np.arange(len(group_ids), dtype=np.float64)
    spec, ctx = ModelSpec(Family.GUMBEL1), SeedContext(n_groups)
    rows = [Row(g, l, s) for g, l, s in zip(group_ids, labels, strengths.tolist())]
    expected = fold_rows(assign_keys(rows, spec, ctx), spec.orientation)
    assert len(expected) == n_groups
    assert sample_arrays(group_ids, labels, strengths, spec, ctx) == expected
    keyed = [KeyedRow(row, 0.5, k) for row, k in zip(rows, keys.tolist())]
    expected = fold_rows(keyed, spec.orientation)
    assert {w.label for w in expected.values()} == {"q0"}
    assert sample_arrays(group_ids, labels, strengths, spec, ctx, injected_keys=keys) == expected
