"""A fixed reference kernel that gauges how fast the host is right now.

A shared host's speed drifts by a quarter or more over minutes, far more
than a change to keyrace should be judged by.  ``run.py`` runs this
kernel in a fresh child between the bulk jobs and scales their times to
the kernel's nominal speed.  The kernel uses only the Python standard
library and numpy, never keyrace, so a change to keyrace cannot move it.
It comes in two kinds, the two shapes of work the bulk jobs do; a workload
uses the kind that matches its job:

    table    CSV parse, per-string digest loop, object-array factorize,
             group reduce and sorted output
    array    uint64 mixing, log-domain keys and argmax over an 8 x 1M
             array

    python3 perfbench/reference.py KIND OUT

runs one kind and writes ``{"seconds": ...}``, its own time without the
interpreter start, to OUT.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

# Sizes give each kind a working set far beyond the caches, as the bulk
# jobs have: the slow spells of a shared host hit memory-bound work hardest.
TABLE_ROWS = 120_000
TABLE_GROUPS = 18_000
ARRAY_ROWS = 8
ARRAY_COLUMNS = 1_000_000
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(x: int) -> int:
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _digest(s: str) -> int:
    data = s.encode("utf-8")
    h = _mix(len(data))
    for i in range(0, len(data), 8):
        h = _mix(h ^ int.from_bytes(data[i : i + 8], "little"))
    return h


def table_kernel() -> float:
    rng = np.random.default_rng(20161122)
    groups = rng.integers(0, TABLE_GROUPS, size=TABLE_ROWS)
    salts = rng.integers(0, 2**63, size=TABLE_ROWS)
    values = rng.normal(size=TABLE_ROWS)
    text = "ID,QUAL,Strength\n" + "".join(
        f"g{int(g):05d},label-{i:06d}-{int(s):016x},{float(v)!r}\n"
        for i, (g, s, v) in enumerate(zip(groups, salts, values))
    )
    start = time.perf_counter()
    reader = csv.reader(io.StringIO(text))
    next(reader)
    gids, labels, strengths = [], [], []
    for gid, label, value in reader:
        gids.append(gid)
        labels.append(label)
        strengths.append(float(value))
    digests = np.fromiter((_digest(s) for s in labels), dtype=np.uint64, count=len(labels))
    keys = np.asarray(strengths) - np.log(-np.log(((digests >> np.uint64(11)) + 0.5) * 2.0**-53))
    names, inverse = np.unique(np.asarray(gids, dtype=object), return_inverse=True)
    order = np.lexsort((-keys, inverse))
    first = np.ones(len(order), dtype=bool)
    first[1:] = inverse[order][1:] != inverse[order][:-1]
    lines = sorted(f"{names[inverse[i]]},{labels[i]}" for i in order[first])
    sink = io.StringIO()
    sink.write("\n".join(lines))
    return time.perf_counter() - start


def array_kernel() -> float:
    start = time.perf_counter()
    cols = np.arange(ARRAY_COLUMNS, dtype=np.uint64)
    weights = np.log(np.arange(1, ARRAY_ROWS + 1, dtype=np.float64))
    keys = np.empty((ARRAY_ROWS, ARRAY_COLUMNS))
    for row in range(ARRAY_ROWS):
        h = cols
        for salt in (row + 1, 0, 0x51ED27, row + 7):
            h = h ^ np.uint64(_mix(salt))
            for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                h = (h ^ (h >> np.uint64(shift))) * np.uint64(mult)
            h ^= h >> np.uint64(31)
        u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        keys[row] = weights[row] - np.log(-np.log(u))
    np.bincount(np.argmax(keys, axis=0), minlength=ARRAY_ROWS)
    return time.perf_counter() - start


KERNELS = {"table": table_kernel, "array": array_kernel}


def main(argv: list[str]) -> int:
    kind, out = argv
    seconds = KERNELS[kind]()
    Path(out).write_text(json.dumps({"seconds": seconds}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
