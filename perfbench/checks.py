"""Output checks against a scalar reference built from keyrace's primitives.

The reference for one group is the definition of the race: each row's
uniform is ``derive_uniform(SeedContext(seed, r), group, label, version)``,
its order key is ``generate_order_key`` of that uniform, and the row with
the extremal order key wins, the smallest label winning exact ties.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import numpy as np

from keyrace import ModelSpec, SeedContext, derive_uniform, strength_to_alpha
from keyrace.families import Orientation, generate_order_key
from keyrace.stats import chi_square_gof

# The chi-square test over a million draws has great power; a correct
# sampler still fails a 1e-3 test once in a thousand seeds, so the
# benchmark rejects only at 1e-6.
GOF_SIGNIFICANCE = 1e-6
SPOT_GROUPS = 200


def reference_winner(spec: ModelSpec, seed: int, replicate: int, group_id: str, rows) -> str:
    """Winning label of one group; ``rows`` holds (label, strength, version)."""
    ctx = SeedContext(seed=seed, replicate=replicate)
    labels = [label for label, _, _ in rows]
    strengths = np.array([strength for _, strength, _ in rows], dtype=np.float64)
    uniforms = np.array([derive_uniform(ctx, group_id, l, version) for l, _, version in rows])
    keys = np.asarray(generate_order_key(spec, strengths, uniforms))
    best = keys.max() if spec.orientation is Orientation.MAX else keys.min()
    return min(labels[i] for i in np.flatnonzero(keys == best))


def parse_sample_output(text: str, replicates: int) -> tuple[list[dict[str, str]], list[str]]:
    """Split ``keyrace sample`` output into one {group: label} map per replicate.

    Checks the line shape, one line per group, and ascending group order
    within each replicate.
    """
    problems: list[str] = []
    maps: list[dict[str, str]] = [{} for _ in range(replicates)]
    last: list[str | None] = [None] * replicates
    for n, line in enumerate(text.splitlines(), start=1):
        fields = line.split(",")
        if replicates > 1:
            if not fields[0].isdigit() or int(fields[0]) >= replicates:
                problems.append(f"line {n}: bad replicate prefix in {line!r}")
                continue
            r, fields = int(fields[0]), fields[1:]
        else:
            r = 0
        if len(fields) != 2:
            problems.append(f"line {n}: expected ID,QUAL, got {line!r}")
            continue
        gid, label = fields
        if last[r] is not None and gid <= last[r]:
            problems.append(f"line {n}: group {gid!r} out of order or repeated")
        last[r] = gid
        maps[r][gid] = label
    return maps, problems


def check_sample_output(text: str, table, seed: int, spot_seed: int) -> list[str]:
    """Full check of one ``keyrace sample`` output for a generated table."""
    maps, problems = parse_sample_output(text, table.replicates)
    rows_by_group: dict[str, list] = {}
    for g, l, s in zip(table.group_ids, table.labels, table.strengths):
        rows_by_group.setdefault(g, []).append((l, s, 0))
    expected = sorted(rows_by_group)
    for r, winners in enumerate(maps):
        if sorted(winners) != expected:
            problems.append(
                f"replicate {r}: {len(winners)} groups in output, {len(expected)} in input")
    largest = max(expected, key=lambda g: (len(rows_by_group[g]), g))
    rng = np.random.default_rng(spot_seed)
    picks = rng.choice(len(expected), size=min(SPOT_GROUPS, len(expected)), replace=False)
    spot = sorted({expected[i] for i in picks} | {largest})
    spec = ModelSpec(table.model)
    for r, winners in enumerate(maps):
        for gid in spot:
            want = reference_winner(spec, seed, r, gid, rows_by_group[gid])
            if winners.get(gid) != want:
                problems.append(f"replicate {r}: group {gid!r} won by {winners.get(gid)!r}, "
                                f"reference {want!r}")
    return problems


def format_report(report) -> str:
    """The line ``keyrace update`` prints for one ChangeReport."""
    if report.winner is None:
        return f"{report.group_id},-,- {report.case.value} no-rescan cmp={report.comparisons}"
    w = report.winner
    rescan = "rescan" if report.rescanned else "no-rescan"
    return f"{w.group_id},{w.label},{w.key!r} {report.case.value} {rescan} cmp={report.comparisons}"


def final_rows(commands) -> dict[str, dict[str, tuple[float, int]]]:
    """Live rows after the stream: group -> label -> (strength, version).

    A row's version is its upsert count minus one; versions survive deletes.
    """
    versions: dict[tuple[str, str], int] = {}
    live: dict[str, dict[str, tuple[float, int]]] = {}
    for cmd in commands:
        gid, label = cmd[1], cmd[2]
        if cmd[0] == "UPSERT":
            version = versions.get((gid, label), -1) + 1
            versions[(gid, label)] = version
            live.setdefault(gid, {})[label] = (cmd[3], version)
        else:
            del live[gid][label]
            if not live[gid]:
                del live[gid]
    return live


def check_update_output(text: str, stream, seed: int) -> list[str]:
    """One line per command; each live group's last line names the reference winner."""
    lines = text.splitlines()
    if len(lines) != len(stream.commands):
        return [f"{len(lines)} output lines for {len(stream.commands)} commands"]
    problems: list[str] = []
    last: dict[str, str] = {}
    for n, (cmd, line) in enumerate(zip(stream.commands, lines), start=1):
        gid, _, rest = line.partition(",")
        if gid != cmd[1]:
            problems.append(f"line {n}: reports group {gid!r} for a command on {cmd[1]!r}")
        last[cmd[1]] = rest.partition(",")[0]
    spec = ModelSpec(stream.model)
    live = final_rows(stream.commands)
    for gid, label in last.items():
        if gid not in live:
            if label != "-":
                problems.append(f"group {gid!r} is empty but reports winner {label!r}")
            continue
        rows = [(l, s, v) for l, (s, v) in live[gid].items()]
        want = reference_winner(spec, seed, 0, gid, rows)
        if label != want:
            problems.append(f"group {gid!r} last reported {label!r}, reference {want!r}")
    return problems


def check_replicate_winners(
    winners: np.ndarray, race, seed: int, spot_seed: int, n_spot: int = 1000
) -> list[str]:
    """Spot-check replicates against the reference and chi-square the tallies."""
    problems: list[str] = []
    if winners.shape != (race.draws,):
        return [f"winner array has shape {winners.shape}, expected ({race.draws},)"]
    spec = ModelSpec(race.model)
    rows = [(l, w, 0) for l, w in zip(race.labels, race.weights)]
    index = {l: i for i, l in enumerate(race.labels)}
    rng = np.random.default_rng(spot_seed)
    for r in rng.choice(race.draws, size=min(n_spot, race.draws), replace=False):
        want = index[reference_winner(spec, seed, int(r), "g", rows)]
        if winners[r] != want:
            problems.append(f"replicate {r}: winner {winners[r]}, reference {want}")
    alphas = np.asarray(strength_to_alpha(spec, race.weights), dtype=np.float64)
    counts = np.bincount(winners, minlength=len(race.labels))
    report = chi_square_gof(counts, alphas / alphas.sum())
    if report.reject_at(GOF_SIGNIFICANCE):
        problems.append(f"winner tallies fail chi-square: p={report.p_value:.3g}")
    return problems
