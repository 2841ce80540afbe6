"""Child-process entry points for the parts of a run that need a fresh process.

keyrace keeps string digests in a process-wide cache, so a measurement
of the digest layer must be the first such call in its process, as it is
for a ``keyrace`` CLI run.  Each mode writes one JSON file and exits.

    probe.py cli OUT -- sample ARGS...          traced in-process CLI run
    probe.py lib-sample OUT CSV MODEL REPLICATES SEED
    probe.py replicate OUT WINNERS_NPY SEED
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

import keyrace
from keyrace import ModelSpec, SeedContext, baselines, cli, sampler
from keyrace.families import first_invalid_strength, generate_key, generate_order_key

from tracing import Tracer
import workloads


def _write(out: str, payload: dict) -> None:
    Path(out).write_text(json.dumps(payload), encoding="utf-8")


def traced_cli(out: str, argv: list[str]) -> int:
    """``cli.main(argv)`` with spans around the calls it makes into each layer."""
    tracer = Tracer()
    tracer.wrap(cli, "read_table", "cli.read_table")
    tracer.wrap(cli, "sample_arrays", "sampler.sample_arrays")
    tracer.wrap(cli, "merge_winner_maps", "sampler.merge_winner_maps")
    with tracer.span("cli.main"):
        code = cli.main(argv)
    _write(out, {"spans": tracer.spans, "problems": []})
    return code


def _open_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.integers(0, 2**53, size=n).astype(np.float64) + 0.5) * 2.0**-53


def library_sample(out: str, csv_path: str, model: str, replicates: int, seed: int) -> int:
    """Layer-by-layer timings of the sample path on one table, digests cold first."""
    table = cli.read_table(csv_path)
    g, l, s = table.group_ids, table.labels, table.strengths
    spec = ModelSpec(model)
    tracer = Tracer()
    problems: list[str] = []
    with tracer.span("sampler.sample_arrays.cold"):
        reference = sampler.sample_arrays(g, l, s, spec, SeedContext(seed, 0))
    for r in range(1, max(replicates, 2)):
        with tracer.span("sampler.sample_arrays.warm"):
            sampler.sample_arrays(g, l, s, spec, SeedContext(seed, r))
    with tracer.span("families.first_invalid_strength"):
        first_invalid_strength(spec, s)
    u = _open_uniforms(np.random.default_rng(seed), len(s))
    with tracer.span("families.generate_key"):
        generate_key(spec, s, u)
    with tracer.span("families.generate_order_key"):
        order_keys = generate_order_key(spec, s, u)
    with tracer.span("sampler.sample_arrays.injected"):
        sampler.sample_arrays(g, l, s, spec, SeedContext(seed, 0), injected_keys=order_keys)
    half = len(s) // 2
    maps = [
        sampler.sample_arrays(g[:half], l[:half], s[:half], spec, SeedContext(seed, 0)),
        sampler.sample_arrays(g[half:], l[half:], s[half:], spec, SeedContext(seed, 0)),
    ]
    with tracer.span("sampler.merge_winner_maps"):
        merged = sampler.merge_winner_maps(maps, spec.orientation)
    if merged != reference:
        problems.append("merge of two half-table maps differs from the one-shard result")
    groups: dict[str, tuple[list[str], list[float]]] = {}
    alphas = keyrace.strength_to_alpha(spec, s)
    for gid, label, a in zip(g, l, alphas):
        entry = groups.setdefault(gid, ([], []))
        entry[0].append(label)
        entry[1].append(a)
    with tracer.span("baselines.build_weight_table.all_groups"):
        for labels, weights in groups.values():
            baselines.build_weight_table(labels, weights)
    _write(out, {"spans": tracer.spans, "problems": problems})
    return 0


def replicate_call(out: str, winners_npy: str, seed: int) -> int:
    """One full ``replicate_winners`` call, as ``validate`` makes it."""
    race = workloads.replicate_race(seed)
    start = time.perf_counter()
    spec = ModelSpec(race.model)
    winners = keyrace.replicate_winners(spec, race.labels, race.weights, seed, race.draws)
    seconds = time.perf_counter() - start
    np.save(winners_npy, winners)
    _write(out, {"seconds": seconds, "sha256": hashlib.sha256(winners.tobytes()).hexdigest()})
    return 0


def main(argv: list[str]) -> int:
    mode, out, rest = argv[0], argv[1], argv[2:]
    if mode == "cli":
        return traced_cli(out, rest[1:] if rest[:1] == ["--"] else rest)
    if mode == "lib-sample":
        csv_path, model, replicates, seed = rest
        return library_sample(out, csv_path, model, int(replicates), int(seed))
    if mode == "replicate":
        winners_npy, seed = rest
        return replicate_call(out, winners_npy, int(seed))
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
