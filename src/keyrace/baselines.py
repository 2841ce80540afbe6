"""Classical table-based discrete samplers, used as independent oracles.

Both methods here need the *normalized* probabilities up front, which is
exactly the preprocessing the key-race path avoids; they are kept as the
reference implementations the race is validated against, and as the
comparison targets for benchmarks.

* Alias method (Walker's table with the Kronmal-Peterson / Vose build):
  O(n) construction, two comparisons per draw.
* Inverse CDF over the cumulative table: bisection, O(log n) per draw.

Guide tables and exact rational look-up tables are deliberately not
implemented.  Neither is any form of in-place weight update: changing one
weight invalidates the whole table, which is the structural weakness the
dynamic key-race table exists to remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "WeightTable",
    "build_weight_table",
    "sample_alias",
    "sample_alias_indices",
    "sample_inverse",
    "sample_inverse_indices",
    "alias_reconstruction",
]

_RECON_TOL = 2.0**-40


@dataclass(frozen=True)
class WeightTable:
    """Normalized weights plus the alias/cutoff arrays built from them.

    Invariants (checked at build time): ``cumulative`` is strictly
    increasing with final element exactly 1, and redistributing the alias
    cells reproduces every normalized weight to within 2^-40.
    """

    labels: tuple[str, ...]
    weights: np.ndarray
    cumulative: np.ndarray
    alias_index: np.ndarray
    alias_cutoff: np.ndarray

    @property
    def size(self) -> int:
        return len(self.labels)


def build_weight_table(labels: Sequence[str], weights: Sequence[float]) -> WeightTable:
    """Normalize weights and build cumulative + alias tables in O(n)."""
    labels = tuple(str(l) for l in labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0 or w.size != len(labels):
        raise ValueError("need one positive weight per label")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive and finite")

    cumulative = np.cumsum(w)
    cumulative /= cumulative[-1]  # final element exactly 1.0
    if np.any(np.diff(cumulative) <= 0.0) or cumulative[0] <= 0.0:
        raise ValueError("weight too small relative to the total to resolve in float64")

    n = w.size
    scaled = (w / np.sum(w)) * n
    alias_index = np.arange(n, dtype=np.intp)
    alias_cutoff = np.ones(n, dtype=np.float64)
    # classification is strict: scaled < 1 is small, equality joins small too
    small = [i for i in range(n) if scaled[i] <= 1.0]
    large = [i for i in range(n) if scaled[i] > 1.0]
    while small and large:
        i = small.pop()
        j = large.pop()
        alias_cutoff[i] = scaled[i]
        alias_index[i] = j
        scaled[j] -= 1.0 - scaled[i]
        if scaled[j] <= 1.0:
            small.append(j)
        else:
            large.append(j)
    # numerical leftovers keep their full cell
    for q in (small, large):
        for i in q:
            alias_cutoff[i] = 1.0
            alias_index[i] = i

    table = WeightTable(labels, w, cumulative, alias_index, alias_cutoff)
    recon = alias_reconstruction(table)
    if np.max(np.abs(recon - w / np.sum(w))) > _RECON_TOL:
        raise ValueError("alias construction failed to reproduce the weights")
    return table


def alias_reconstruction(table: WeightTable) -> np.ndarray:
    """Probabilities implied by the alias table: own cutoff mass plus
    the spill-over (1 - cutoff) of every cell aliased to the outcome,
    all divided by n.  Equals the normalized weights up to rounding."""
    n = table.size
    recon = table.alias_cutoff.copy()
    np.add.at(recon, table.alias_index, 1.0 - table.alias_cutoff)
    return recon / n


def sample_alias(table: WeightTable, u1: float, u2: float) -> str:
    """Draw one label from two uniforms: pick a cell, then toss the cutoff."""
    cell = min(int(u1 * table.size), table.size - 1)
    if u2 < table.alias_cutoff[cell]:
        return table.labels[cell]
    return table.labels[table.alias_index[cell]]


def sample_alias_indices(table: WeightTable, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Vectorized alias draws; returns outcome indices."""
    cells = np.minimum((np.asarray(u1) * table.size).astype(np.intp), table.size - 1)
    keep = np.asarray(u2) < table.alias_cutoff[cells]
    return np.where(keep, cells, table.alias_index[cells])


def sample_inverse(table: WeightTable, u: float) -> str:
    """Label of the smallest index i with cumulative[i] > u, found by bisection."""
    cum = table.cumulative
    lo, hi = 0, table.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] > u:
            hi = mid
        else:
            lo = mid + 1
    return table.labels[lo]


def sample_inverse_indices(table: WeightTable, u: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF draws (bisection via searchsorted)."""
    idx = np.searchsorted(table.cumulative, np.asarray(u), side="right")
    return np.minimum(idx, table.size - 1).astype(np.intp)
