"""Command-line front end.

Subcommands
-----------
sample    read a CSV table (header ``ID,QUAL,Strength``) and write one
          winner line per group, sorted by ID
update    apply a line-oriented stream of ``UPSERT id,qual,strength`` /
          ``DELETE id,qual`` commands, reporting each group's winner and
          the update case after every command
validate  run the correctness battery (or per-group checks on an input
          file) and print ``CRITERION <name> PASS|FAIL p=<value>`` lines
bench     time the key race against the alias and inverse-CDF baselines
          and split dynamic-update costs by case

``--threads N`` (``sample``, ``bench``) cuts the rows into N shards that
are reduced one after another and merged; the output is identical for
every N.  ``--replicates n`` (``sample``) prepares the table once and
races it n times.  ``--quick`` belongs to ``validate``.

Exit codes: 0 ok, 1 validation failure, 2 parse error, 3 domain error,
4 warnings on the update stream.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, stats, validation
from .dynamic import DynamicTable, RowNotFoundError
from .families import Family, FamilyDomainError, ModelSpec
from .sampler import (
    GroupWinner,
    SeedContext,
    merge_winner_maps,  # noqa: F401  (not called here; the traced benchmark run wraps it)
    replicate_winners,
    sample_arrays,
    sample_replicates,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_STREAM = 4

_HEADER = ("ID", "QUAL", "Strength")
_KEY_COLUMN = "KEY"


class CliParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class ParsedTable:
    group_ids: list[str]
    labels: list[str]
    strengths: np.ndarray
    keys: np.ndarray | None  # injected keys, when the file carries them


def _model_from_args(args) -> ModelSpec:
    offset = args.offset  # None selects the family default
    return ModelSpec(Family(args.model), scale_c=args.scale, offset_d=offset)


def read_table(path: str, inject_keys: bool = False) -> ParsedTable:
    """Parse an input CSV, enforcing the header and row uniqueness."""
    group_ids: list[str] = []
    labels: list[str] = []
    strengths: list[float] = []
    keys: list[float] = []
    seen: set[tuple[str, str]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliParseError("empty file: expected header ID,QUAL,Strength", 1)
        expected = len(_HEADER) + (1 if inject_keys else 0)
        if tuple(header[: len(_HEADER)]) != _HEADER:
            raise CliParseError(
                f"header must start with {','.join(_HEADER)}, got {','.join(header)}", 1
            )
        if inject_keys and (len(header) < 4 or header[3] != _KEY_COLUMN):
            raise CliParseError(
                f"--inject-keys needs a 4th column named {_KEY_COLUMN}", 1
            )
        for line_no, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) < expected:
                raise CliParseError(
                    f"expected {expected} fields, got {len(record)}", line_no
                )
            gid, label = record[0], record[1]
            if (gid, label) in seen:
                raise CliParseError(f"duplicate row ({gid},{label})", line_no)
            seen.add((gid, label))
            try:
                strength = float(record[2])
            except ValueError:
                raise CliParseError(f"bad Strength value {record[2]!r}", line_no)
            if inject_keys:
                try:
                    key = float(record[3])
                except ValueError:
                    raise CliParseError(f"bad {_KEY_COLUMN} value {record[3]!r}", line_no)
                if not np.isfinite(key):
                    raise CliParseError(f"non-finite {_KEY_COLUMN} value", line_no)
                keys.append(key)
            group_ids.append(gid)
            labels.append(label)
            strengths.append(strength)
    return ParsedTable(
        group_ids,
        labels,
        np.asarray(strengths, dtype=np.float64),
        np.asarray(keys, dtype=np.float64) if inject_keys else None,
    )


def _format_winner(w: GroupWinner, with_key: bool) -> str:
    if with_key:
        return f"{w.group_id},{w.label},{w.key!r}"
    return f"{w.group_id},{w.label}"


def emit_table(table: ParsedTable, path: str) -> None:
    """Write a parsed table back out in the input format (round-trip aid)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_HEADER) + ([_KEY_COLUMN] if table.keys is not None else []))
        for i in range(len(table.group_ids)):
            record = [table.group_ids[i], table.labels[i], repr(float(table.strengths[i]))]
            if table.keys is not None:
                record.append(repr(float(table.keys[i])))
            writer.writerow(record)


def cmd_sample(args) -> int:
    try:
        spec = _model_from_args(args)
    except FamilyDomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        table = read_table(args.input, inject_keys=args.inject_keys)
    except (OSError, CliParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE

    try:
        races = sample_replicates(table.group_ids, table.labels, table.strengths, spec,
                                  SeedContext(seed=args.seed), args.replicates,
                                  n_shards=args.threads, injected_keys=table.keys)
    except FamilyDomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        multi = args.replicates > 1
        for replicate, winners in enumerate(races):
            for gid in sorted(winners):
                line = _format_winner(winners[gid], args.with_key)
                print((f"{replicate}," if multi else "") + line, file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_update(args) -> int:
    try:
        spec = _model_from_args(args)
    except FamilyDomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    table = DynamicTable(spec, SeedContext(seed=args.seed))
    warned = False
    stream = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            verb, _, rest = line.partition(" ")
            fields = [f.strip() for f in rest.split(",")]
            try:
                if verb.upper() == "UPSERT" and len(fields) == 3:
                    report = table.upsert(fields[0], fields[1], float(fields[2]))
                elif verb.upper() == "DELETE" and len(fields) == 2:
                    report = table.delete(fields[0], fields[1])
                else:
                    raise CliParseError(f"malformed command {line!r}", line_no)
            except (CliParseError, ValueError, RowNotFoundError, FamilyDomainError) as err:
                print(f"warning: line {line_no}: {err}", file=sys.stderr)
                warned = True
                continue
            if report.winner is None:
                print(f"{report.group_id},-,- {report.case.value} no-rescan cmp={report.comparisons}")
            else:
                w = report.winner
                rescan = "rescan" if report.rescanned else "no-rescan"
                print(
                    f"{w.group_id},{w.label},{w.key!r} {report.case.value} "
                    f"{rescan} cmp={report.comparisons}"
                )
    finally:
        if stream is not sys.stdin:
            stream.close()
    return EXIT_STREAM if warned else EXIT_OK


def _validate_input_file(args, spec: ModelSpec) -> int:
    """Chi-square each group of an input table against its strengths."""
    try:
        table = read_table(args.input)
    except (OSError, CliParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    groups: dict[str, list[int]] = {}
    for i, gid in enumerate(table.group_ids):
        groups.setdefault(gid, []).append(i)
    replicates = 10_000 if args.quick else 60_000
    failures = 0
    for gid in sorted(groups):
        idx = groups[gid]
        labels = [table.labels[i] for i in idx]
        strengths = table.strengths[idx]
        try:
            report = stats.run_choice_experiment(
                spec, strengths, replicates, seed=args.seed, labels=labels
            )
        except FamilyDomainError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_DOMAIN
        ok = not report.reject_at(validation.SIGNIFICANCE)
        failures += 0 if ok else 1
        print(
            f"CRITERION group-{gid} {'PASS' if ok else 'FAIL'} p={report.p_value:.6g}"
        )
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def cmd_validate(args) -> int:
    try:
        spec = _model_from_args(args)
    except FamilyDomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.quick:
        print("WARNING: reduced-power run (--quick); sample sizes are cut down")
    if args.input:
        return _validate_input_file(args, spec)
    results = validation.run_battery(base_seed=args.seed, quick=args.quick)
    failures = 0
    for res in results:
        p = f"{res.p_value:.6g}" if res.p_value is not None else "NA"
        status = "PASS" if res.passed else "FAIL"
        print(f"CRITERION {res.name} {status} p={p}")
        if not res.passed:
            failures += 1
            print(f"  detail: {res.detail}")
    total = len(results)
    print(f"{total - failures}/{total} criteria passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def _bench_strengths(rng: np.random.Generator, spec: ModelSpec, size: int) -> np.ndarray:
    if spec.family is Family.GUMBEL1:
        return rng.normal(0.0, 1.0, size=size)
    magnitudes = np.exp(rng.normal(0.0, 1.0, size=size))
    return -magnitudes if spec.family is Family.NEGEXP else magnitudes


def _bench_table(rng: np.random.Generator, spec: ModelSpec, n_rows: int, n_groups: int):
    groups = [f"g{int(i):05d}" for i in rng.integers(n_groups, size=n_rows)]
    labels = [f"q{int(i):04d}" for i in range(n_rows)]  # unique per group by construction
    strengths = _bench_strengths(rng, spec, n_rows)
    return groups, labels, strengths


def cmd_bench(args) -> int:
    spec = _model_from_args(args)
    rng = np.random.default_rng(args.seed)
    n_rows = args.rows
    n_groups = max(1, n_rows // 20)
    groups, labels, strengths = _bench_table(rng, spec, n_rows, n_groups)
    ctx = SeedContext(seed=args.seed)

    t0 = time.perf_counter()
    winners = sample_arrays(groups, labels, strengths, spec, ctx, n_shards=args.threads)
    race_elapsed = time.perf_counter() - t0
    print(f"key-race      {n_rows} rows -> {len(winners)} groups   "
          f"{race_elapsed:8.4f} s   {n_rows / race_elapsed:12.0f} rows/s")

    n_outcomes = min(1000, max(1, n_rows))
    weights = rng.uniform(0.5, 5.0, size=n_outcomes)
    outcome_labels = [f"o{i:04d}" for i in range(n_outcomes)]
    draws = args.draws
    t0 = time.perf_counter()
    table = baselines.build_weight_table(outcome_labels, weights)
    build_elapsed = time.perf_counter() - t0
    u1, u2 = rng.random(draws), rng.random(draws)
    t0 = time.perf_counter()
    alias_idx = baselines.sample_alias_indices(table, u1, u2)
    alias_elapsed = time.perf_counter() - t0
    print(f"alias         build {build_elapsed:.4f} s + {draws} draws "
          f"{alias_elapsed:8.4f} s   {draws / alias_elapsed:12.0f} draws/s")
    u = rng.random(draws)
    t0 = time.perf_counter()
    inv_idx = baselines.sample_inverse_indices(table, u)
    inv_elapsed = time.perf_counter() - t0
    print(f"inverse-cdf   {draws} draws (bisection)        "
          f"{inv_elapsed:8.4f} s   {draws / inv_elapsed:12.0f} draws/s")

    # modal agreement between the three samplers on the same weight vector
    spec_can = ModelSpec(Family.CANONICAL)
    race_idx = replicate_winners(
        spec_can, outcome_labels, weights, args.seed + 1, min(draws, 20_000)
    )
    modal = {
        "race": int(np.bincount(race_idx, minlength=n_outcomes).argmax()),
        "alias": int(np.bincount(alias_idx, minlength=n_outcomes).argmax()),
        "inverse": int(np.bincount(inv_idx, minlength=n_outcomes).argmax()),
    }
    agree = len(set(modal.values())) == 1
    print(f"modal-agreement {'yes' if agree else 'no (sampling noise on flat weights)'}"
          f" {modal}")

    # dynamic-update cost split by case
    table2 = DynamicTable(spec, SeedContext(seed=args.seed))
    case_counts: dict[str, int] = {}
    case_cost: dict[str, int] = {}
    live: list[tuple[str, str]] = []
    for _ in range(args.updates):
        if live and rng.random() < 0.25:
            gid, label = live[int(rng.integers(len(live)))]
            try:
                report = table2.delete(gid, label)
                live.remove((gid, label))
            except RowNotFoundError:
                continue
        else:
            gid = f"g{int(rng.integers(200)):04d}"
            label = f"q{int(rng.integers(30)):03d}"
            report = table2.upsert(gid, label, float(_bench_strengths(rng, spec, 1)[0]))
            if (gid, label) not in live:
                live.append((gid, label))
        case_counts[report.case.value] = case_counts.get(report.case.value, 0) + 1
        case_cost[report.case.value] = case_cost.get(report.case.value, 0) + report.comparisons
    print(f"dynamic-updates {args.updates} ops")
    for case in sorted(case_counts):
        count = case_counts[case]
        print(f"  {case:18s} count={count:7d} mean-comparisons={case_cost[case] / count:7.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyrace",
        description="Weighted discrete sampling by per-row keys and group-wise max/min races",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="canonical", choices=[f.value for f in Family])
        p.add_argument("--scale", type=float, default=1.0, help="scale constant c")
        p.add_argument(
            "--offset",
            type=float,
            default=None,
            help="offset constant d (default: family-specific, 0 or +/-1)",
        )
        p.add_argument("--seed", type=int, default=0)

    def add_threads(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=int, default=1,
                       help="shards of a sequential reduction; output is identical for any value")

    p_sample = sub.add_parser("sample", help="winner per group of a CSV table")
    add_common(p_sample)
    add_threads(p_sample)
    p_sample.add_argument("--replicates", type=int, default=1,
                          help="race the table n times; ids are digested once for all of them")
    p_sample.add_argument("input", help="CSV with header ID,QUAL,Strength")
    p_sample.add_argument("-o", "--output", default=None)
    p_sample.add_argument(
        "--inject-keys",
        action="store_true",
        help="read keys from a 4th column KEY instead of generating them",
    )
    p_sample.add_argument("--with-key", action="store_true", help="append the winning key")
    p_sample.set_defaults(func=cmd_sample)

    p_update = sub.add_parser("update", help="stream UPSERT/DELETE commands")
    add_common(p_update)
    p_update.add_argument(
        "input", nargs="?", default=None, help="command file (default: stdin)"
    )
    p_update.set_defaults(func=cmd_update)

    p_validate = sub.add_parser("validate", help="run the correctness battery")
    add_common(p_validate)
    p_validate.add_argument("--quick", action="store_true", help="reduced-power fast mode")
    p_validate.add_argument(
        "--input", default=None, help="optional CSV; chi-square each group's winners"
    )
    p_validate.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="throughput of race vs baselines")
    add_common(p_bench)
    add_threads(p_bench)
    p_bench.add_argument("--rows", type=int, default=100_000)
    p_bench.add_argument("--draws", type=int, default=100_000)
    p_bench.add_argument("--updates", type=int, default=10_000)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
