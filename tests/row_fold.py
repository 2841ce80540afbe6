"""The winner reduction written out one row at a time, as the tests' oracle.

It compares rows with ``sampler._beats`` only, so it shares no code with
the columnar ``_winners`` that every table and merge reduces through.
"""

from keyrace.sampler import GroupWinner, _beats


def fold_rows(keyed, orientation):
    """Per-group winners of keyed rows, each row settled against its group's incumbent."""
    winners: dict[str, GroupWinner] = {}
    for kr in keyed:
        gid, label = kr.row.group_id, kr.row.label
        inc = winners.get(gid)
        if inc is None:
            winners[gid] = GroupWinner(gid, label, kr.key, 1, kr.order_key)
        elif _beats(kr.order_key, label, inc.order_key, inc.label, orientation):
            winners[gid] = GroupWinner(gid, label, kr.key, inc.row_count + 1, kr.order_key)
        else:
            winners[gid] = GroupWinner(gid, inc.label, inc.key, inc.row_count + 1, inc.order_key)
    return winners
