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

``sample`` reads its CSV in blocks of whole lines, each turned straight
into integer group and label codes (:func:`read_table`), and hands the
codes to the sampler, which sorts the rows into groups once per call.
``--threads N`` (``sample``, ``bench``) cuts the rows into N shards whose
winners are found one after another and merged; the output is identical
for every N.  ``--replicates n`` (``sample``) prepares the table once and
races it n times.  ``--quick`` belongs to ``validate``.

Exit codes: 0 ok, 1 validation failure, 2 parse error, 3 domain error,
4 warnings on the update stream.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import io
import itertools
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn

import numpy as np

from . import baselines, stats, validation
from .dynamic import DynamicTable, RowNotFoundError
from .families import Family, FamilyDomainError, ModelSpec
from .sampler import (
    GroupWinner,
    SeedContext,
    code_ids,
    first_duplicate,
    merge_winner_maps,  # noqa: F401  (not called here; the traced benchmark run wraps it)
    replicate_winners,
    sample_arrays,
    sample_codes,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_STREAM = 4

_HEADER = ("ID", "QUAL", "Strength")
_KEY_COLUMN = "KEY"


_BLOCK_BYTES = 1 << 20  # read size; a block then runs on to the end of its last line
_CSV_BATCH = 1 << 14  # records per batch once csv.reader has taken over


class CliParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)


class _InvalidUtf8(Exception):
    def __init__(self, byte: int):
        super().__init__(f"invalid UTF-8 byte 0x{byte:02x}")


@dataclass
class ParsedTable:
    """An input table held as exact codes.

    Row i is ``(group_names[group_codes[i]], label_names[label_codes[i]],
    strengths[i])``; names are in first-seen order.
    """

    group_codes: np.ndarray
    group_names: list[str]
    label_codes: np.ndarray
    label_names: list[str]
    strengths: np.ndarray
    keys: np.ndarray | None  # injected keys, when the file carries them

    @property
    def group_ids(self) -> list[str]:
        """Every row's group id."""
        return list(map(self.group_names.__getitem__, self.group_codes.tolist()))

    @property
    def labels(self) -> list[str]:
        """Every row's label."""
        return list(map(self.label_names.__getitem__, self.label_codes.tolist()))


def _model_from_args(args) -> ModelSpec:
    offset = args.offset  # None selects the family default
    return ModelSpec(Family(args.model), scale_c=args.scale, offset_d=offset)


def _blocks(fh) -> Iterator[bytes]:
    """A binary file in blocks of whole lines."""
    while block := fh.read(_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += fh.readline()
        yield block


def _decode(block: bytes) -> tuple[str, _InvalidUtf8 | None]:
    """A block's text, cut before the line of its first invalid UTF-8 byte if it has one."""
    try:
        return block.decode("utf-8"), None
    except UnicodeDecodeError as err:
        cut = max(block.rfind(b"\n", 0, err.start), block.rfind(b"\r", 0, err.start)) + 1
        return block[:cut].decode("utf-8"), _InvalidUtf8(block[err.start])


def _csv_lines(blocks: Iterable[bytes]) -> Iterator[str]:
    """The lines of the blocks, each with its ``\\n``, ``\\r`` or ``\\r\\n``."""
    for block in blocks:
        text, invalid = _decode(block)
        yield from io.StringIO(text, newline="")
        if invalid is not None:
            raise invalid


def _plain(block: bytes) -> bool:
    """Whether csv.reader reads each line of the block as its comma-split fields.

    That needs no ``"`` and no ``\\r``.  NUL is left to csv.reader too,
    which rejects it before Python 3.11, so a file with NUL is accepted or
    rejected as csv.reader does on the running interpreter.
    """
    return not (b'"' in block or b"\r" in block or b"\0" in block)


def _floats(fields: list[str]) -> tuple[list[float], int | None]:
    """``float`` of the fields up to the first that is not a number, and its index."""
    values: list[float] = []
    try:
        values.extend(map(float, fields))
    except ValueError:
        return values, len(values)
    return values, None


class _TableReader:
    """Checks and codes the records of an input table as they are read.

    Each error is raised at its record, after every error of an earlier
    record.  A record is checked for its field count, then for repeating
    an earlier (ID, QUAL), then its Strength, then its KEY.  Repeats are
    looked for only when the file ends or another error stops it, from
    the (group code, label code) pairs read by then.
    """

    def __init__(self, inject_keys: bool) -> None:
        self.inject_keys = inject_keys
        self.expected = len(_HEADER) + (1 if inject_keys else 0)
        self.header_seen = False
        self.line = 1  # line number of the next record
        self.groups: dict[str, int] = {}
        self.labels: dict[str, int] = {}
        self.group_codes: list[np.ndarray] = []
        self.label_codes: list[np.ndarray] = []
        self.strengths: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        self.batch_rows = [0]  # first row of each batch, then the row count
        self.batch_lines: list[int | list[int]] = []  # its first row's line, or every row's

    def read(self, fh) -> ParsedTable:
        blocks = _blocks(fh)
        first = next(blocks, b"")
        end = first.find(b"\n") + 1 or len(first)
        if _plain(first[:end]):
            self.read_csv([first[:end]])  # the header: one line, so one record
            first = first[end:]
        blocks = itertools.chain([first] if first else [], blocks)
        for block in blocks:  # the header is read unless it is in this block, which is not plain
            if not (_plain(block) and self.read_split(block)):
                self.read_csv(itertools.chain([block], blocks))
                break
        if not self.header_seen:
            raise CliParseError("empty file: expected header ID,QUAL,Strength", 1)
        group_codes, label_codes = self.check_duplicates()
        return ParsedTable(group_codes, list(self.groups), label_codes, list(self.labels),
                           np.concatenate(self.strengths),
                           np.concatenate(self.keys) if self.inject_keys else None)

    def read_csv(self, blocks: Iterable[bytes]) -> None:
        """Read the rest of the file with :mod:`csv`."""
        records = csv.reader(_csv_lines(blocks))
        while True:
            batch: list[list[str]] = []
            error = None
            try:
                batch.extend(itertools.islice(records, _CSV_BATCH))
            except (csv.Error, _InvalidUtf8) as err:  # raised at the record after the batch
                error = CliParseError(str(err), self.line + len(batch))
            self.take_records(batch, error)
            if len(batch) < _CSV_BATCH:
                return

    def read_split(self, block: bytes) -> bool:
        """Take a plain block whose lines all have the same fields, by splitting it.

        Any other block is left untaken, and False returned, for csv to read.
        """
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            return False
        buf = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(buf == 10)
        if not block.endswith(b"\n"):
            ends = np.append(ends, buf.size)  # the last line of the file has no newline
        commas = np.diff(np.searchsorted(np.flatnonzero(buf == 44), ends), prepend=0)
        width = int(commas[0]) + 1
        if not (
            width >= self.expected
            and (commas == width - 1).all()
            # a line's length in bytes bounds its fields' lengths in characters
            and np.diff(ends, prepend=-1).max() <= csv.field_size_limit()
        ):
            return False
        # split on both separators at once and take the columns by stride
        fields = text.replace("\n", ",").split(",")
        first, n_lines = self.line, ends.size
        self.line += n_lines
        self.take_columns([fields[j : n_lines * width : width] for j in range(self.expected)],
                          first)
        return True

    def take_records(self, records: list[list[str]], error: CliParseError | None) -> None:
        """Take consecutive records; ``error`` stops the file right after them."""
        if not self.header_seen and records:
            self.take_header(records[0])
            records = records[1:]
        kept: list[list[str]] = []
        lines: list[int] = []
        for line, record in enumerate(records, self.line):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) < self.expected:
                error = CliParseError(f"expected {self.expected} fields, got {len(record)}", line)
                break
            kept.append(record)
            lines.append(line)
        self.line += len(records)
        self.take_columns([list(map(itemgetter(j), kept)) for j in range(self.expected)],
                          lines, error)

    def take_header(self, record: list[str]) -> None:
        if tuple(record[: len(_HEADER)]) != _HEADER:
            raise CliParseError(
                f"header must start with {','.join(_HEADER)}, got {','.join(record)}", 1
            )
        if self.inject_keys and (len(record) < 4 or record[3] != _KEY_COLUMN):
            raise CliParseError(f"--inject-keys needs a 4th column named {_KEY_COLUMN}", 1)
        self.header_seen = True
        self.line = 2

    def take_columns(self, columns: list[list[str]], lines: int | list[int],
                     error: CliParseError | None = None) -> None:
        """Take the columns of rows with enough fields.

        ``lines`` is the first row's line when the rows are on consecutive
        lines, else every row's line.
        """
        def line(i: int) -> int:
            return lines + i if isinstance(lines, int) else lines[i]

        n = len(columns[0])
        strengths, bad_strength = _floats(columns[2])
        if bad_strength is not None:
            n = bad_strength + 1  # a bad row can still be a repeat, which comes first
            error = CliParseError(f"bad Strength value {columns[2][bad_strength]!r}",
                                  line(bad_strength))
        if self.inject_keys:
            keys, bad = _floats(columns[3][:n])
            message = f"bad {_KEY_COLUMN} value {columns[3][bad]!r}" if bad is not None else ""
            nonfinite = np.flatnonzero(~np.isfinite(keys))
            if nonfinite.size:  # all before the first unparsed key
                bad, message = int(nonfinite[0]), f"non-finite {_KEY_COLUMN} value"
            if bad is not None and (bad_strength is None or bad < bad_strength):
                n, error = bad + 1, CliParseError(message, line(bad))
            self.keys.append(np.asarray(keys[:n], dtype=np.float64))
        self.group_codes.append(code_ids(columns[0][:n], self.groups))
        self.label_codes.append(code_ids(columns[1][:n], self.labels))
        self.strengths.append(np.asarray(strengths[:n], dtype=np.float64))
        self.batch_lines.append(lines)
        self.batch_rows.append(self.batch_rows[-1] + n)
        if error is not None:
            self.fail(error)

    def fail(self, error: CliParseError) -> NoReturn:
        """Raise the first repeated row read so far, else ``error``."""
        self.check_duplicates()
        raise error

    def check_duplicates(self) -> tuple[np.ndarray, np.ndarray]:
        """Raise at the first row that repeats an (ID, QUAL); else all rows' codes."""
        group_codes = np.concatenate(self.group_codes)  # every record batch adds one
        label_codes = np.concatenate(self.label_codes)
        dup = first_duplicate(group_codes, label_codes, len(self.labels))
        if dup is not None:
            batch = bisect.bisect_right(self.batch_rows, dup) - 1
            lines, i = self.batch_lines[batch], dup - self.batch_rows[batch]
            gid = list(self.groups)[group_codes[dup]]
            label = list(self.labels)[label_codes[dup]]
            raise CliParseError(f"duplicate row ({gid},{label})",
                                lines + i if isinstance(lines, int) else lines[i])
        return group_codes, label_codes


def read_table(path: str, inject_keys: bool = False) -> ParsedTable:
    """Parse an input CSV, enforcing the header and row uniqueness.

    The file is read in blocks of whole lines and each block is coded as
    it is read, so no row's strings are kept.  The header line is read by
    :mod:`csv`.  A block with no ``"``, ``\\r`` or NUL whose lines all
    have the same number of fields, enough of them and none too long, is
    split on commas and newlines; from
    the first other block, :mod:`csv` reads the rest of the file, so quoted
    fields may hold commas, quotes and newlines.  Either way the records
    are those csv.reader reads, and a rejected file gets the same message:
    exit 2 names the line of the first error in file order, invalid UTF-8
    and fields over ``csv.field_size_limit()`` included.
    """
    with open(path, "rb") as fh:
        return _TableReader(inject_keys).read(fh)


def _format_winner(w: GroupWinner, with_key: bool) -> str:
    if with_key:
        return f"{w.group_id},{w.label},{w.key!r}"
    return f"{w.group_id},{w.label}"


def emit_table(table: ParsedTable, path: str) -> None:
    """Write a parsed table back out in the input format (round-trip aid)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_HEADER) + ([_KEY_COLUMN] if table.keys is not None else []))
        for i, (gid, label) in enumerate(zip(table.group_ids, table.labels)):
            record = [gid, label, repr(float(table.strengths[i]))]
            if table.keys is not None:
                record.append(repr(float(table.keys[i])))
            writer.writerow(record)


def cmd_sample(args) -> int:
    spec = _model_from_args(args)
    try:
        table = read_table(args.input, inject_keys=args.inject_keys)
    except (OSError, CliParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE

    # read_table has rejected repeated rows, naming their lines; a bad
    # strength raises here, before any output
    races = sample_codes(table.group_codes, table.group_names, table.label_codes,
                         table.label_names, table.strengths, spec, SeedContext(seed=args.seed),
                         args.replicates, args.threads, table.keys, check_duplicates=False)

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
    spec = _model_from_args(args)
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
    all_labels = table.labels
    replicates = 10_000 if args.quick else 60_000
    failures = 0
    for gid in sorted(groups):
        idx = groups[gid]
        labels = [all_labels[i] for i in idx]
        strengths = table.strengths[idx]
        report = stats.run_choice_experiment(
            spec, strengths, replicates, seed=args.seed, labels=labels
        )
        ok = not report.reject_at(validation.SIGNIFICANCE)
        failures += 0 if ok else 1
        print(
            f"CRITERION group-{gid} {'PASS' if ok else 'FAIL'} p={report.p_value:.6g}"
        )
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def cmd_validate(args) -> int:
    spec = _model_from_args(args)
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
    if not spec.strength_sign:
        return rng.normal(0.0, 1.0, size=size)
    return spec.strength_sign * np.exp(rng.normal(0.0, 1.0, size=size))


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
    try:
        return args.func(args)
    except FamilyDomainError as err:  # a bad --scale, --offset or strength
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
