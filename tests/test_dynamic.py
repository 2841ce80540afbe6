"""Streaming winner maintenance: update cases, costs, and the scratch oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrace import dynamic, stats
from keyrace.dynamic import DynamicTable, RowNotFoundError, UpdateCase
from keyrace.families import DegenerateWeightError, Family, ModelSpec
from keyrace.sampler import (
    KeyedRow,
    Row,
    SeedContext,
    _beats,
    _string_digest,
    derive_uniform,
    reduce_winners,
    sample_arrays,
)
from keyrace.validation import (
    WORKED_EXAMPLE_WINNERS,
    check_dynamic_vs_scratch,
    worked_example_keyed_rows,
)


def _table(family=Family.GUMBEL1, seed=0):
    return DynamicTable(ModelSpec(family), SeedContext(seed=seed))


class TestUpsertCases:
    def test_first_row_becomes_winner(self):
        table = _table()
        report = table.upsert("g", "a", 1.0)
        assert report.case is UpdateCase.NEW_WINNER
        assert not report.rescanned and report.comparisons == 0
        assert table.winner("g").label == "a"
        assert table.winner("g").row_count == 1

    def test_loser_upsert_does_nothing(self):
        # a strength 60 below the winner cannot produce a competitive key:
        # the additive noise spans roughly +/-37 at the uniform extremes
        table = _table()
        table.upsert("g", "top", 10.0)
        report = table.upsert("g", "bottom", -50.0)
        assert report.case is UpdateCase.LOSES_TO_WINNER
        assert not report.rescanned
        assert report.comparisons == 1
        assert table.winner("g").label == "top"
        assert table.winner("g").row_count == 2

    def test_beating_upsert_replaces_winner(self):
        table = _table()
        table.upsert("g", "low", -50.0)
        report = table.upsert("g", "high", 10.0)
        assert report.case is UpdateCase.NEW_WINNER
        assert table.winner("g").label == "high"

    def test_winner_rekey_improved_or_rescan(self):
        # re-upserting the winner redraws its key; both outcomes are legal
        # but each must leave the stored winner equal to the scratch oracle
        for seed in range(12):
            table = _table(seed=seed)
            table.upsert("g", "a", 0.0)
            table.upsert("g", "b", 0.0)
            winner_label = table.winner("g").label
            report = table.upsert("g", winner_label, 0.0)
            assert report.case in (UpdateCase.WINNER_IMPROVED, UpdateCase.WINNER_RESCAN)
            assert report.rescanned == (report.case is UpdateCase.WINNER_RESCAN)
            scratch = reduce_winners(table.snapshot_keyed_rows(), table.spec.orientation)
            assert table.winners() == scratch

    def test_worked_example_loser_update(self):
        # with the fixture winners loaded, a deeply losing upsert into the
        # winning group must fire the no-work case and keep the winner
        table = _table()
        table.ingest_keyed(worked_example_keyed_rows())
        assert {g: w.label for g, w in table.winners().items()} == WORKED_EXAMPLE_WINNERS
        report = table.upsert("#1", "BLUE", -80.0)
        assert report.case is UpdateCase.LOSES_TO_WINNER
        assert report.comparisons == 1
        assert table.winner("#1").label == "RED"
        assert table.winner("#1").key == 5.612483956
        assert table.winner("#1").row_count == 5

    def test_domain_error(self):
        table = _table(Family.FRECHET2)
        with pytest.raises(DegenerateWeightError):
            table.upsert("g", "a", 0.0)
        assert table.winner("g") is None


class TestDeleteCases:
    def test_delete_nonwinner_no_rescan(self):
        table = _table()
        table.upsert("g", "top", 10.0)
        table.upsert("g", "bottom", -50.0)
        report = table.delete("g", "bottom")
        assert report.case is UpdateCase.DELETE_NONWINNER
        assert not report.rescanned and report.comparisons == 1
        assert table.winner("g").label == "top"
        assert table.winner("g").row_count == 1

    def test_delete_only_row_removes_group(self):
        table = _table()
        table.upsert("g", "a", 1.0)
        report = table.delete("g", "a")
        assert report.case is UpdateCase.GROUP_REMOVED
        assert report.winner is None
        assert table.winner("g") is None
        assert "g" not in table.winners()

    def test_delete_winner_rescans_to_scratch(self):
        table = _table(seed=5)
        for i in range(10):
            table.upsert("g", f"q{i}", float(i) / 3.0)
        winner_label = table.winner("g").label
        report = table.delete("g", winner_label)
        assert report.case is UpdateCase.DELETE_RESCAN
        assert report.rescanned
        scratch = reduce_winners(table.snapshot_keyed_rows(), table.spec.orientation)
        assert table.winners() == scratch
        assert table.winner("g").row_count == 9

    def test_delete_missing_row(self):
        table = _table()
        table.upsert("g", "a", 1.0)
        with pytest.raises(RowNotFoundError):
            table.delete("g", "zzz")
        with pytest.raises(RowNotFoundError):
            table.delete("nogroup", "a")


class TestWinnerLookup:
    def test_unknown_group_absent(self):
        assert _table().winner("nope") is None

    def test_single_upsert(self):
        table = _table()
        table.upsert("g", "a", 2.0)
        w = table.winner("g")
        assert (w.group_id, w.label) == ("g", "a")

    def test_worked_example_ingest(self):
        table = _table()
        table.ingest_keyed(worked_example_keyed_rows())
        got = {g: (w.label, w.key) for g, w in table.winners().items()}
        assert got == {
            "#1": ("RED", 5.612483956),
            "#2": ("WHITE", 4.143186699),
            "#3": ("WHITE", 0.524126732),
            "#4": ("YELLOW", 3.083588566),
        }

    def test_ingest_keeps_first_seen_group_order(self):
        # groups were settled in set order, so winners() came out in an
        # order that changed with PYTHONHASHSEED
        keyed = [KeyedRow(Row(f"g{i:02d}", "a", 1.0), 0.5, float(i)) for i in range(12, 0, -1)]
        table = _table()
        table.ingest_keyed(keyed)
        assert list(table.winners()) == list(table.groups()) == [kr.row.group_id for kr in keyed]

    def test_ingest_replaces_a_stored_row(self):
        # a batch may not repeat a row, but may replace one a batch before it stored
        table = _table()
        table.ingest_keyed([KeyedRow(Row("g", "a", 1.0), 0.5, 2.0),
                            KeyedRow(Row("g", "b", 1.0), 0.5, 1.0)])
        table.ingest_keyed([KeyedRow(Row("g", "a", 1.0), 0.5, 0.0)])
        assert len(table) == 2
        assert (table.winner("g").label, table.winner("g").key) == ("b", 1.0)


class TestCostAccounting:
    def test_case_ii_costs_one_comparison(self):
        table = _table()
        table.upsert("g", "top", 20.0)
        for i in range(50):
            report = table.upsert("g", f"weak{i:02d}", -60.0)
            assert report.comparisons == 1
            assert not report.rescanned

    def test_rescan_cost_bounded_by_group_size(self):
        table = _table(seed=3)
        for i in range(20):
            table.upsert("g", f"q{i:02d}", 0.0)
        winner_label = table.winner("g").label
        report = table.delete("g", winner_label)
        # 1 identity check + an 18-merge fold over the 19 survivors
        assert report.comparisons == 1 + (19 - 1)

    def test_rescan_never_touches_other_groups(self):
        table = _table(seed=4)
        for g in ("a", "b", "c"):
            for i in range(5):
                table.upsert(g, f"q{i}", 0.0)
        before = {g: table.winner(g) for g in ("b", "c")}
        table.delete("a", table.winner("a").label)
        assert {g: table.winner(g) for g in ("b", "c")} == before


class TestScratchOracle:
    def test_randomized_stream_equals_scratch(self):
        results = check_dynamic_vs_scratch(
            base_seed=17, steps=2000, families=(Family.GUMBEL1, Family.CANONICAL)
        )
        assert all(r.passed for r in results), [r.detail for r in results]

    def test_upsert_after_delete_redraws(self):
        table = _table()
        table.upsert("g", "a", 1.0)
        key_v0 = table.winner("g").key
        table.delete("g", "a")
        table.upsert("g", "a", 1.0)
        assert table.winner("g").key != key_v0  # version kept climbing

    def test_each_id_digested_once(self, monkeypatch):
        digested = []
        monkeypatch.setattr(dynamic, "_string_digest",
                            lambda s: digested.append(s) or _string_digest(s))
        table = _table(seed=5)
        for label in ("a", "b", "a", "a"):
            table.upsert("g", label, 1.0)
        table.delete("g", "b")
        table.upsert("g", "b", 1.0)
        assert sorted(digested) == ["a", "b", "g"]
        uniforms = {kr.row.label: kr.uniform for kr in table.snapshot_keyed_rows()}
        assert uniforms == {"a": derive_uniform(table.ctx, "g", "a", version=2),
                            "b": derive_uniform(table.ctx, "g", "b", version=1)}


@st.composite
def _replay_tables(draw):
    """A table of every family and shape, strengths exactly 0.5/2.0/3.7 among them."""
    spec = ModelSpec(draw(st.sampled_from(list(Family))),
                     scale_c=draw(st.sampled_from([0.5, 1.0, 2.0, 3.7])))
    pairs = draw(st.lists(st.tuples(st.sampled_from(["g0", "g1", "g2", "g3"]),
                                    st.text(max_size=4)),
                          min_size=1, max_size=40, unique=True))
    magnitudes = st.one_of(st.sampled_from([0.5, 2.0, 3.7]), st.floats(0.1, 5.0))
    signs = st.sampled_from([spec.strength_sign] if spec.strength_sign else [1.0, -1.0])
    strengths = [draw(signs) * draw(magnitudes) for _ in pairs]
    return spec, [g for g, _ in pairs], [l for _, l in pairs], strengths


@settings(max_examples=80, deadline=None)
@given(_replay_tables(), st.integers(0, 2**64 - 1), st.integers(0, 3))
def test_upsert_replay_equals_sample_arrays(table, seed, replicate):
    """Each row upserted once into a fresh table gives sample_arrays' winners, key bits too."""
    spec, groups, labels, strengths = table
    ctx = SeedContext(seed, replicate)
    replay = DynamicTable(spec, ctx)
    for row in zip(groups, labels, strengths):
        replay.upsert(*row)

    def fields(winners):
        return {g: (w.label, w.row_count, repr(w.key), repr(w.order_key))
                for g, w in winners.items()}

    assert fields(replay.winners()) == fields(
        sample_arrays(groups, labels, np.asarray(strengths), spec, ctx))


@st.composite
def _streams(draw):
    """Upserts, re-upserts and deletes over a few rows, for every family.

    scale_c = 1000 makes some frechet2 and negexp keys overflow to +-inf.
    """
    spec = ModelSpec(draw(st.sampled_from(list(Family))),
                     scale_c=draw(st.sampled_from([0.5, 1.0, 2.0, 1000.0])))
    signs = st.sampled_from([spec.strength_sign] if spec.strength_sign else [1.0, -1.0])
    rows = st.tuples(st.sampled_from(["g0", "g1"]), st.sampled_from(["a", "b", "c", "d"]))
    op = st.one_of(
        st.tuples(st.just("upsert"), rows, st.builds(lambda sign, m: sign * m, signs,
                                                     st.floats(0.1, 5.0))),
        st.tuples(st.just("delete"), rows, st.none()),
    )
    return spec, draw(st.lists(op, min_size=1, max_size=60))


def _expected_report(table, operation, group_id, label, before):
    """The report an operation must give: from the winner before it, ``_beats``
    on the row's new order key and the scratch reduction after it."""
    rows = {kr.row.label: kr for kr in table.snapshot_keyed_rows() if kr.row.group_id == group_id}
    after = reduce_winners(table.snapshot_keyed_rows(), table.spec.orientation).get(group_id)
    if operation == "delete":
        if not rows:
            return UpdateCase.GROUP_REMOVED, False, 1, None
        if label != before.label:
            return UpdateCase.DELETE_NONWINNER, False, 1, after
        return UpdateCase.DELETE_RESCAN, True, 1 + len(rows) - 1, after
    if before is None:
        return UpdateCase.NEW_WINNER, False, 0, after
    if _beats(rows[label].order_key, label, before.order_key, before.label,
              table.spec.orientation):
        case = UpdateCase.WINNER_IMPROVED if label == before.label else UpdateCase.NEW_WINNER
        return case, False, 1, after
    if label != before.label:
        return UpdateCase.LOSES_TO_WINNER, False, 1, after
    return UpdateCase.WINNER_RESCAN, True, 1 + len(rows) - 1, after


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_streams(), st.integers(0, 2**64 - 1))
def test_every_report_matches_the_oracle(stream, seed):
    """Each report's case, re-scan, cost and winner follow from the winner
    before the operation and the rows after it."""
    spec, ops = stream
    table = DynamicTable(spec, SeedContext(seed))
    for operation, (group_id, label), strength in ops:
        live = {(kr.row.group_id, kr.row.label) for kr in table.snapshot_keyed_rows()}
        if operation == "delete" and (group_id, label) not in live:
            with pytest.raises(RowNotFoundError):
                table.delete(group_id, label)
            continue
        before = table.winner(group_id)
        if operation == "upsert":
            report = table.upsert(group_id, label, strength)
        else:
            report = table.delete(group_id, label)
        assert (report.operation, report.group_id, report.label) == (operation, group_id, label)
        expected = _expected_report(table, operation, group_id, label, before)
        assert (report.case, report.rescanned, report.comparisons, report.winner) == expected
        assert table.winners() == reduce_winners(table.snapshot_keyed_rows(), spec.orientation)


class TestDistributionalFreshness:
    def test_repeated_upsert_redraws_key(self):
        table = _table()
        table.upsert("g", "a", 1.0)
        first = table.winner("g").key
        report = table.upsert("g", "a", 1.0)
        assert table.winner("g").key != first
        assert report.case in (UpdateCase.WINNER_IMPROVED, UpdateCase.WINNER_RESCAN)

    def test_frequencies_after_re_upserts(self):
        # rows a (weight 1) and b (weight 2); b is re-upserted once per
        # replicate, so its final key comes from the version-1 draw. The
        # winner frequencies must still be (1/3, 2/3).
        spec = ModelSpec(Family.CANONICAL)
        n = 20_000
        wins_a = 0
        for r in range(n):
            table = DynamicTable(spec, SeedContext(seed=41, replicate=r))
            table.upsert("g", "a", 1.0)
            table.upsert("g", "b", 2.0)
            table.upsert("g", "b", 2.0)
            if table.winner("g").label == "a":
                wins_a += 1
        report = stats.chi_square_gof([wins_a, n - wins_a], [1 / 3, 2 / 3])
        assert not report.reject_at(1e-3), f"a won {wins_a}/{n}"
