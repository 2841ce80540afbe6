"""Seeded input generators for the benchmark workloads and the update stream.

Every generator is a pure function of the seed: the same seed gives
byte-identical files.  The program under test only ever sees the files
(or, for ``replicate-race``, the label/weight arrays) written here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sizes are chosen so one CLI run takes one to four seconds on a 2-core
# Xeon, letting a run repeat it several times and report the median.
GROUPED_GROUPS = 12_000
GROUPED_LABELS = 20
UNIQUE_ROWS = 100_000
UNIQUE_GROUPS = 15_000
UNIQUE_REPLICATES = 3
UPDATE_COMMANDS = 30_000
UPDATE_GROUPS = 2_000
UPDATE_VOCAB = 200
UPDATE_DELETE_SHARE = 0.25
REPLICATE_LABELS = 16
REPLICATE_DRAWS = 1_000_000
ZIPF_EXPONENT = 1.1

# generator stream of each input; the update stream feeds a traced run only
_STREAMS = {"grouped-csv": 0, "unique-csv": 1, "update-stream": 2, "replicate-race": 3}
HEADER = "ID,QUAL,Strength\n"


@dataclass
class TableInput:
    """A sample workload: the CSV on disk plus the same rows in memory."""

    path: Path
    model: str
    replicates: int
    threads: int
    group_ids: list[str]
    labels: list[str]
    strengths: np.ndarray
    provenance: dict = field(default_factory=dict)


@dataclass
class StreamInput:
    """An update workload: the command file plus the parsed commands."""

    path: Path
    model: str
    commands: list[tuple]  # ("UPSERT", gid, label, strength) or ("DELETE", gid, label)
    provenance: dict = field(default_factory=dict)


@dataclass
class ReplicateInput:
    model: str
    labels: list[str]
    weights: np.ndarray
    draws: int
    provenance: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def _zipf_indices(rng: np.random.Generator, n_items: int, size: int) -> np.ndarray:
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    p = ranks**-ZIPF_EXPONENT
    return rng.choice(n_items, size=size, p=p / p.sum())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _string_stats(strings: list[str]) -> dict:
    distinct = len(set(strings))
    return {
        "input.distinct_strings": distinct,
        "input.repeat_string_share": 1.0 - distinct / len(strings) if strings else 0.0,
    }


def table_provenance(seed: int, path: Path, group_ids, labels) -> dict:
    sizes = np.unique(np.asarray(group_ids, dtype=object), return_counts=True)[1]
    return {
        "seed": seed,
        "sha256": _sha256(path),
        "input.rows": len(group_ids),
        "input.groups": int(sizes.size),
        "input.max_group_rows": int(sizes.max()) if sizes.size else 0,
        **_string_stats(list(group_ids) + list(labels)),
    }


def _write_table(path: Path, group_ids, labels, strengths) -> None:
    lines = [f"{g},{l},{float(s)!r}\n" for g, l, s in zip(group_ids, labels, strengths)]
    path.write_text(HEADER + "".join(lines), encoding="utf-8")


def grouped_csv(seed: int, path: Path, n_groups: int = GROUPED_GROUPS) -> TableInput:
    """Every group holds all labels of a small shared vocabulary.

    Rows are shuffled so most groups span both halves of a 2-way shard.
    """
    rng = _rng(seed, "grouped-csv")
    vocab = [f"label-{i:02d}" for i in range(GROUPED_LABELS)]
    n = n_groups * GROUPED_LABELS
    order = rng.permutation(n)
    group_ids = [f"user-{i // GROUPED_LABELS:06d}" for i in order]
    labels = [vocab[i % GROUPED_LABELS] for i in order]
    strengths = rng.normal(0.0, 1.0, size=n)
    _write_table(path, group_ids, labels, strengths)
    table = TableInput(path, "gumbel1", 1, 2, group_ids, labels, strengths)
    table.provenance = table_provenance(seed, path, group_ids, labels)
    return table


def unique_csv(seed: int, path: Path, n_rows: int = UNIQUE_ROWS) -> TableInput:
    """Distinct 40-odd-character labels, Zipf-skewed group sizes."""
    rng = _rng(seed, "unique-csv")
    n_groups = max(1, n_rows * UNIQUE_GROUPS // UNIQUE_ROWS)
    group_ids = [f"doc-{i:06d}" for i in _zipf_indices(rng, n_groups, n_rows)]
    salts = rng.integers(0, 2**63, size=n_rows)
    labels = [f"candidate-{i:07d}-{int(s):016x}-variant" for i, s in enumerate(salts)]
    strengths = np.exp(rng.normal(0.0, 1.0, size=n_rows))
    _write_table(path, group_ids, labels, strengths)
    table = TableInput(path, "canonical", UNIQUE_REPLICATES, 1, group_ids, labels, strengths)
    table.provenance = table_provenance(seed, path, group_ids, labels)
    return table


def update_stream(seed: int, path: Path, n_commands: int = UPDATE_COMMANDS) -> StreamInput:
    """UPSERTs with Zipf group popularity; DELETEs of a uniformly chosen live row.

    A DELETE only ever names a live row, so no command fails.
    """
    rng = _rng(seed, "update-stream")
    groups = _zipf_indices(rng, UPDATE_GROUPS, n_commands)
    label_idx = rng.integers(0, UPDATE_VOCAB, size=n_commands)
    strengths = rng.normal(0.0, 1.0, size=n_commands)
    coins = rng.random(n_commands)
    picks = rng.random(n_commands)
    live: list[tuple[str, str]] = []
    where: dict[tuple[str, str], int] = {}
    group_rows: dict[str, int] = {}
    max_rows = 0
    commands: list[tuple] = []
    for i in range(n_commands):
        if live and coins[i] < UPDATE_DELETE_SHARE:
            row = live[int(picks[i] * len(live))]
            last = live.pop()
            if last != row:
                live[where[row]] = last
                where[last] = where[row]
            del where[row]
            group_rows[row[0]] -= 1
            commands.append(("DELETE", *row))
            continue
        row = (f"grp-{groups[i]:04d}", f"tag-{label_idx[i]:03d}")
        if row not in where:
            where[row] = len(live)
            live.append(row)
            group_rows[row[0]] = group_rows.get(row[0], 0) + 1
            max_rows = max(max_rows, group_rows[row[0]])
        commands.append(("UPSERT", *row, float(strengths[i])))
    text = "".join(
        f"UPSERT {c[1]},{c[2]},{c[3]!r}\n" if c[0] == "UPSERT" else f"DELETE {c[1]},{c[2]}\n"
        for c in commands
    )
    path.write_text(text, encoding="utf-8")
    strings = [s for c in commands for s in c[1:3]]
    upserts = sum(c[0] == "UPSERT" for c in commands)
    stream = StreamInput(path, "gumbel1", commands)
    stream.provenance = {
        "seed": seed,
        "sha256": _sha256(path),
        "input.rows": n_commands,
        "input.groups": len({c[1] for c in commands}),
        "input.max_group_rows": max_rows,
        **_string_stats(strings),
        "input.upserts": upserts,
        "input.deletes": n_commands - upserts,
    }
    return stream


def replicate_race(seed: int, draws: int = REPLICATE_DRAWS) -> ReplicateInput:
    """One group of K labels with log-normal weights, raced ``draws`` times."""
    rng = _rng(seed, "replicate-race")
    labels = [f"outcome-{i:02d}" for i in range(REPLICATE_LABELS)]
    weights = np.exp(rng.normal(0.0, 0.5, size=REPLICATE_LABELS))
    blob = json.dumps({"labels": labels, "weights": [float(w).hex() for w in weights]})
    race = ReplicateInput("canonical", labels, weights, draws)
    race.provenance = {
        "seed": seed,
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "input.rows": REPLICATE_LABELS,
        "input.groups": 1,
        "input.max_group_rows": REPLICATE_LABELS,
        **_string_stats(["g"] + labels),
        "input.draws": draws,
    }
    return race
