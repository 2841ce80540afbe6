"""Incremental winner maintenance under streaming upserts and deletes.

The static sampler recomputes every group from scratch.  When the row set
drifts over time, almost all of that work is avoidable: each row is
stored as the :class:`~keyrace.sampler.KeyedRow` it was keyed into, so
beside the rows we keep only each group's winning label, and an update
touches more than one stored value only when it *has* to.

For an upsert of ``(group, label, strength)`` whose freshly drawn key is
``k`` and whose group currently has winner ``w``:

* ``k`` beats ``w``                       -> replace the winner, O(1);
* ``label != w.label`` and ``k`` loses    -> nothing else to do, O(1);
* ``label == w.label`` and ``k`` beats    -> refresh the winner's key in
  place, O(1);
* ``label == w.label`` and ``k`` loses    -> the stored maximum is stale;
  re-scan that one group.

Deletes re-scan only when they remove the winner itself.  Settling and
re-scanning both compare with the sampler's one-row comparator
:func:`~keyrace.sampler._beats`: a re-scan is one pass over the group's
rows, and nothing here runs the columnar reduction that
:func:`~keyrace.sampler.reduce_winners` and the from-scratch check use.
Every public operation returns a :class:`ChangeReport` saying which case
fired, whether a re-scan happened and how many comparator evaluations
were spent, so the incremental-cost behaviour is testable.

Each upsert bumps the row's version counter and derives a *fresh* uniform
from ``(seed, replicate, version, group, label)``: repeating an update is
a new random draw, never a replay of the old one.

Concurrency contract: one writer per group.  Distinct groups may be
updated concurrently; interleaved reads require external synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .families import ModelSpec, _check_strengths, _row_keys
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

    def __str__(self) -> str:
        # the message as given, not KeyError's repr of it
        return Exception.__str__(self)


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
    stored winner plus, on a re-scan, one per row of the group after its first.
    """

    operation: str
    group_id: str
    label: str
    case: UpdateCase
    rescanned: bool
    comparisons: int
    winner: GroupWinner | None


class DynamicTable:
    """Rows plus always-consistent per-group winners.

    After every public operation, ``winners()[g]`` equals the from-scratch
    reduction of group ``g``'s stored rows under the sampler's comparator;
    there is no deferred state.  A winner is built from its stored row and
    its group's row count when it is read, so neither can go stale.
    """

    def __init__(self, spec: ModelSpec, ctx: SeedContext) -> None:
        self.spec = spec
        self.ctx = ctx
        self._rows: dict[str, dict[str, KeyedRow]] = {}
        # each group's winning label; its key and the group's size are read from the rows
        self._best: dict[str, str] = {}
        # survives deletion so a re-inserted row never replays an old draw
        self._versions: dict[tuple[str, str], int] = {}
        # the digest of every group id and label seen, so no upsert digests a string again
        self._digests: dict[str, int] = {}

    def __len__(self) -> int:
        return sum(len(g) for g in self._rows.values())

    def groups(self) -> Iterator[str]:
        return iter(self._rows)

    def winners(self) -> dict[str, GroupWinner]:
        return {gid: self.winner(gid) for gid in self._best}

    def winner(self, group_id: str) -> GroupWinner | None:
        label = self._best.get(group_id)
        if label is None:
            return None
        rows = self._rows[group_id]
        return GroupWinner(group_id, label, rows[label].key, len(rows), rows[label].order_key)

    def snapshot_keyed_rows(self) -> list[KeyedRow]:
        """Current rows with their stored keys, for scratch re-reduction."""
        return [kr for rows in self._rows.values() for kr in rows.values()]

    def _rescan(self, group_id: str) -> int:
        """Settle a group's winning label in one :func:`_beats` pass over its rows;
        returns the comparisons."""
        rows = self._rows[group_id]
        labels = iter(rows)
        best = next(labels)
        for label in labels:
            if _beats(rows[label].order_key, label, rows[best].order_key, best,
                      self.spec.orientation):
                best = label
        self._best[group_id] = best
        return len(rows) - 1

    def _report(self, operation: str, group_id: str, label: str, case: UpdateCase,
                comparisons: int) -> ChangeReport:
        """The report of an operation whose case is decided: re-scan if it needs one."""
        rescanned = case in (UpdateCase.WINNER_RESCAN, UpdateCase.DELETE_RESCAN)
        if rescanned:
            comparisons += self._rescan(group_id)
        return ChangeReport(operation, group_id, label, case, rescanned, comparisons,
                            self.winner(group_id))

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
        u = _uniform(self.ctx.seed, self.ctx.replicate, version, *digests)
        self._versions[(group_id, label)] = version
        kr = KeyedRow(Row(group_id, label, strength), u, *_row_keys(self.spec, s, u))
        group = self._rows.setdefault(group_id, {})
        best = self._best.get(group_id)
        # read before the new row is stored: the incumbent may be this very row
        incumbent = None if best is None else group[best]
        group[label] = kr
        if incumbent is None or _beats(kr.order_key, label, incumbent.order_key, best,
                                       self.spec.orientation):
            self._best[group_id] = label
            case = UpdateCase.WINNER_IMPROVED if label == best else UpdateCase.NEW_WINNER
        elif label != best:
            # losing key, winner untouched
            case = UpdateCase.LOSES_TO_WINNER
        else:
            # the winner row itself was re-keyed downwards: its stored maximum
            # is stale and only a scan of this group can settle the new winner
            case = UpdateCase.WINNER_RESCAN
        # a new group's first row is compared with nothing
        return self._report("upsert", group_id, label, case, int(incumbent is not None))

    def delete(self, group_id: str, label: str) -> ChangeReport:
        """Remove one row; re-scan only if it held the group's winner."""
        group = self._rows.get(group_id)
        if group is None or label not in group:
            raise RowNotFoundError(f"no row (group_id={group_id!r}, label={label!r})")
        del group[label]
        if not group:
            del self._rows[group_id]
            del self._best[group_id]
            case = UpdateCase.GROUP_REMOVED
        elif label != self._best[group_id]:
            case = UpdateCase.DELETE_NONWINNER
        else:
            case = UpdateCase.DELETE_RESCAN
        return self._report("delete", group_id, label, case, 1)  # 1: the check against the winner
