"""Incremental winner maintenance under streaming upserts and deletes.

The static sampler recomputes every group from scratch.  When the row set
drifts over time, almost all of that work is avoidable: alongside the
rows we keep each group's current winner, and an update touches more than
one stored value only when it *has* to.

For an upsert of ``(group, label, strength)`` whose freshly drawn key is
``k`` and whose group currently has winner ``w``:

* ``k`` beats ``w``                       -> replace the winner, O(1);
* ``label != w.label`` and ``k`` loses    -> nothing else to do, O(1);
* ``label == w.label`` and ``k`` beats    -> refresh the winner's key in
  place, O(1);
* ``label == w.label`` and ``k`` loses    -> the stored maximum is stale;
  re-scan that one group.

Deletes re-scan only when they remove the winner itself.  Every public
operation returns a :class:`ChangeReport` saying which case fired, whether
a re-scan happened and how many comparator evaluations were spent, so the
incremental-cost behaviour is testable.

Each upsert bumps the row's version counter and derives a *fresh* uniform
from ``(seed, replicate, version, group, label)``: repeating an update is
a new random draw, never a replay of the old one.

Concurrency contract: one writer per group.  Distinct groups may be
updated concurrently; interleaved reads require external synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .families import ModelSpec, _check_strengths, _keys
from .sampler import (
    GroupWinner,
    KeyedRow,
    Row,
    SeedContext,
    _beats,
    _string_digest,
    _uniform,
)

__all__ = ["DynamicTable", "ChangeReport", "UpdateCase", "RowNotFoundError"]


class RowNotFoundError(KeyError):
    """Delete of a (group_id, label) that is not in the table."""


class UpdateCase(str, Enum):
    NEW_WINNER = "new-winner"            # upsert beats the stored winner
    LOSES_TO_WINNER = "loses-to-winner"  # different label, key loses: no work
    WINNER_IMPROVED = "winner-improved"  # winner row re-keyed, still wins
    WINNER_RESCAN = "winner-rescan"      # winner row re-keyed, lost: re-scan
    DELETE_NONWINNER = "delete-nonwinner"
    DELETE_RESCAN = "delete-rescan"      # winner deleted: re-scan survivors
    GROUP_REMOVED = "group-removed"      # last row deleted


@dataclass(frozen=True)
class ChangeReport:
    """What one upsert/delete did and what it cost.

    ``comparisons`` counts comparator evaluations: the check against the
    stored winner plus, on a re-scan, the fold over the group's rows.
    """

    operation: str
    group_id: str
    label: str
    case: UpdateCase
    rescanned: bool
    comparisons: int
    winner: GroupWinner | None


@dataclass
class _RowState:
    strength: float
    uniform: float
    key: float
    order_key: float
    version: int


class DynamicTable:
    """Rows plus always-consistent per-group winners.

    After every public operation, ``winners()[g]`` equals the from-scratch
    reduction of group ``g``'s stored rows under the sampler's comparator;
    there is no deferred state.
    """

    def __init__(self, spec: ModelSpec, ctx: SeedContext) -> None:
        self.spec = spec
        self.ctx = ctx
        self._rows: dict[str, dict[str, _RowState]] = {}
        self._winners: dict[str, GroupWinner] = {}
        # survives deletion so a re-inserted row never replays an old draw
        self._versions: dict[tuple[str, str], int] = {}
        # the digest of every group id and label seen, so no upsert digests a string again
        self._digests: dict[str, int] = {}

    def __len__(self) -> int:
        return sum(len(g) for g in self._rows.values())

    def groups(self) -> Iterator[str]:
        return iter(self._rows)

    def winners(self) -> dict[str, GroupWinner]:
        return dict(self._winners)

    def winner(self, group_id: str) -> GroupWinner | None:
        return self._winners.get(group_id)

    def snapshot_keyed_rows(self) -> list[KeyedRow]:
        """Current rows with their stored keys, for scratch re-reduction."""
        out = []
        for gid, rows in self._rows.items():
            for label, st in rows.items():
                out.append(
                    KeyedRow(Row(gid, label, st.strength), st.uniform, st.key, st.order_key)
                )
        return out

    def _rescan(self, group_id: str) -> tuple[GroupWinner, int]:
        rows = self._rows[group_id]
        items = iter(rows.items())
        label, st = next(items)
        best_label, best = label, st
        comparisons = 0
        for label, st in items:
            comparisons += 1
            if _beats(st.order_key, label, best.order_key, best_label, self.spec.orientation):
                best_label, best = label, st
        winner = GroupWinner(group_id, best_label, best.key, len(rows), best.order_key)
        self._winners[group_id] = winner
        return winner, comparisons

    def _digest(self, s: str) -> int:
        digest = self._digests.get(s)
        if digest is None:
            digest = self._digests[s] = _string_digest(s)
        return digest

    def upsert(self, group_id: str, label: str, strength: float) -> ChangeReport:
        """Insert or update one row, redrawing its key, and settle the winner."""
        strength = float(strength)
        s = _check_strengths(self.spec, strength, lambda _: (group_id, label))
        digests = self._digest(group_id), self._digest(label)
        version = self._versions.get((group_id, label), -1) + 1
        self._versions[(group_id, label)] = version
        u = _uniform(self.ctx.seed, self.ctx.replicate, version, *digests)
        # keyed on 0-d arrays, as generate_key keys a Python float
        key, order_key = map(float, _keys(self.spec, s, np.asarray(u, dtype=np.float64)))
        group = self._rows.setdefault(group_id, {})
        is_new_row = label not in group
        group[label] = _RowState(strength, u, key, order_key, version)
        size = len(group)

        incumbent = self._winners.get(group_id)
        if incumbent is None:
            winner = GroupWinner(group_id, label, key, size, order_key)
            self._winners[group_id] = winner
            return ChangeReport(
                "upsert", group_id, label, UpdateCase.NEW_WINNER, False, 0, winner
            )

        comparisons = 1
        if _beats(order_key, label, incumbent.order_key, incumbent.label, self.spec.orientation):
            case = (
                UpdateCase.WINNER_IMPROVED
                if label == incumbent.label
                else UpdateCase.NEW_WINNER
            )
            winner = GroupWinner(group_id, label, key, size, order_key)
            self._winners[group_id] = winner
            return ChangeReport("upsert", group_id, label, case, False, comparisons, winner)

        if label != incumbent.label:
            # losing key, winner untouched; only the row count may change
            winner = (
                GroupWinner(group_id, incumbent.label, incumbent.key, size, incumbent.order_key)
                if is_new_row
                else incumbent
            )
            self._winners[group_id] = winner
            return ChangeReport(
                "upsert", group_id, label, UpdateCase.LOSES_TO_WINNER, False, comparisons, winner
            )

        # the winner row itself was re-keyed downwards: its stored maximum
        # is stale and only a scan of this group can settle the new winner
        winner, scan_cmp = self._rescan(group_id)
        return ChangeReport(
            "upsert",
            group_id,
            label,
            UpdateCase.WINNER_RESCAN,
            True,
            comparisons + scan_cmp,
            winner,
        )

    def delete(self, group_id: str, label: str) -> ChangeReport:
        """Remove one row; re-scan only if it held the group's winner."""
        group = self._rows.get(group_id)
        if group is None or label not in group:
            raise RowNotFoundError(f"no row (group_id={group_id!r}, label={label!r})")
        del group[label]
        incumbent = self._winners[group_id]
        comparisons = 1  # the identity check against the stored winner

        if not group:
            del self._rows[group_id]
            del self._winners[group_id]
            return ChangeReport(
                "delete", group_id, label, UpdateCase.GROUP_REMOVED, False, comparisons, None
            )

        if label != incumbent.label:
            winner = GroupWinner(
                group_id, incumbent.label, incumbent.key, len(group), incumbent.order_key
            )
            self._winners[group_id] = winner
            return ChangeReport(
                "delete", group_id, label, UpdateCase.DELETE_NONWINNER, False, comparisons, winner
            )

        winner, scan_cmp = self._rescan(group_id)
        return ChangeReport(
            "delete",
            group_id,
            label,
            UpdateCase.DELETE_RESCAN,
            True,
            comparisons + scan_cmp,
            winner,
        )

    def ingest_keyed(self, keyed: Iterable[KeyedRow]) -> None:
        """Load rows whose keys were produced elsewhere (no redraw).

        Versions are recorded as 0; later upserts of the same rows redraw
        from version 1 as usual.
        """
        keyed = list(keyed)
        for kr in keyed:
            gid, label = kr.row.group_id, kr.row.label
            group = self._rows.setdefault(gid, {})
            group[label] = _RowState(kr.row.strength, kr.uniform, kr.key, kr.order_key, 0)
            self._versions.setdefault((gid, label), 0)
        for gid in {kr.row.group_id for kr in keyed}:
            self._rescan(gid)
