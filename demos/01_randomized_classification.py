"""Randomized classification over a grouped table.

A classifier scored four users (#1..#4) against a handful of color
qualities; ``strength`` is the unnormalized log-score of each
(user, quality) pair.  Picking the best quality per user is a plain
grouped argmax over strength.  Picking a *random* quality per user,
proportionally to exp(strength), is the same grouped argmax once each
row gets a competition key: strength plus Gumbel noise.

No normalization constants, no per-user tables: each row is keyed
locally, and one associative reduction finds every winner.
"""

import numpy as np

from keyrace import Family, ModelSpec, Row, SeedContext, replicate_winners, sample

TABLE = [
    ("#1", "YELLOW", -1.0),
    ("#4", "PURPLE", -4.0),
    ("#1", "WHITE", 2.0),
    ("#1", "RED", 2.0),
    ("#3", "CYAN", -1.0),
    ("#4", "WHITE", -3.0),
    ("#3", "WHITE", 0.0),
    ("#2", "RED", 1.0),
    ("#4", "YELLOW", 1.0),
    ("#1", "ORANGE", 5.0),
    ("#4", "CYAN", 0.0),
    ("#2", "WHITE", 4.0),
    ("#2", "CYAN", 5.0),
    ("#2", "ORANGE", 0.0),
]

rows = [Row(g, q, s) for g, q, s in TABLE]
spec = ModelSpec(Family.GUMBEL1)  # additive keys: strength - log(-log u)

print("one randomized draw per user (seed 0):")
for gid, w in sorted(sample(rows, spec, SeedContext(seed=0)).items()):
    print(f"  {gid} -> {w.label:7s} key={w.key:+.4f} ({w.row_count} candidates)")

# Re-running with another replicate redraws every key; the winners move,
# but always in proportion to exp(strength).
print("\nten replicates for user #1 (weights are exp(strength)):")
draws = [
    sample(rows, spec, SeedContext(seed=0, replicate=r))["#1"].label for r in range(10)
]
print(" ", " ".join(draws))

# Long-run frequencies vs the softmax of user #1's strengths.  replicate_winners
# races user #1's row of every SeedContext(1, r), r < n, in one call: the winner
# of replicate r is the one sample would draw from that context.
n = 20_000
strengths = {q: s for g, q, s in TABLE if g == "#1"}
winners = replicate_winners(spec, list(strengths), list(strengths.values()), 1, n, "#1")
counts = dict(zip(strengths, np.bincount(winners, minlength=len(strengths)).tolist()))

z = sum(np.exp(s) for s in strengths.values())
print(f"\nuser #1 frequencies over {n} replicates vs exp(strength)/Z:")
for q in sorted(strengths, key=strengths.get, reverse=True):
    print(f"  {q:7s} observed {counts[q] / n:.4f}   expected {np.exp(strengths[q]) / z:.4f}")
