"""Command-line front end.

Subcommands
-----------
sample    read a CSV table (header ``ID,QUAL,Strength``) and write one
          winner line per group, sorted by ID
update    apply a line-oriented stream of ``UPSERT id,qual,strength`` /
          ``DELETE id,qual`` commands, reporting each group's winner and
          the update case after every command; each line is decoded on
          its own, and one that is not UTF-8 is skipped with a warning.
          A command's fields are one CSV record, read as ``sample`` reads
          a row: quoted fields may hold commas and quotes, spaces are
          kept, fields beyond the ones the verb reads are ignored, and a
          Strength that is not a number warns ``bad Strength value``
validate  run the correctness battery, or with ``--input`` one chi-square
          criterion per group of a table read and checked as ``sample``
          reads and checks it, and print the results alike: a
          ``CRITERION <name> PASS|FAIL p=<value>`` line each, a
          ``detail:`` line under each FAIL, then ``N/M criteria passed``.
          A group's least likely labels are pooled until every cell
          expects at least 5 wins; a group left with one cell passes with
          ``p=NA``.  Each group is tested at 1e-3 over the number of
          groups, so the whole table is tested at the battery's level.
          Every result is computed before the first is printed, so a bad
          strength (named as ``sample`` names it) exits 3 with no
          ``CRITERION`` line
bench     run the battery's random upsert/delete stream on a dynamic
          table and count its updates and comparisons by case

``sample`` imports only what it runs: this module, the sampler, the
family table and numpy; each other command imports its own modules when
it runs.  It reads its CSV in blocks of whole lines, each turned straight
into integer group and label codes, one dictionary pass per column
(:func:`~keyrace.sampler.code_ids`), and a Strength array parsed with no
list of floats; :func:`read_table` returns the rows as one
:class:`~keyrace.sampler.CodedTable`, the type the sampler races.
Building it rejects a repeated (ID, QUAL), which the reader then names
with its line, as it names a non-finite KEY before the table is built.
Line numbers count CSV records, so a quoted line break advances none.
The sampler sorts the rows into groups once per call, by
a radix sort of group codes narrowed to 8 or 16 bits where they fit, and
yields each replicate's winners as columns of label codes and keys, one
entry per group.  ``sample`` ranks the group ids once and writes each
replicate with one join over precomputed ``[r,]ID,`` prefixes and the
winning labels, formatting keys only under ``--with-key``.  An id or
label holding a comma, quote, CR or LF is written quoted, as csv.writer
writes it, by ``sample`` and ``update`` alike; ``sample`` looks for such a
name in one scan of the group ids joined, once, and of each replicate's
winning labels joined, and quotes name by name only where a scan finds one.
``--replicates n`` (``sample``; n >= 0) prepares the table once and
races it n times.  ``sample --threads N`` reads a file of two or more
blocks in up to N pieces at once, at most one per usable CPU: the first
itself and each other in a :class:`~keyrace.sampler._Children` child,
or itself if that child fails or cannot be forked.  It merges their codes
in file order, so the table, the output and every error message are the
same for any N; the race itself is one pass.
``--quick`` belongs to ``validate``.  Every count option takes an int >= 0.

Exit codes: 0 ok, 1 validation failure, 2 a file that cannot be read or
written (``update``'s input file and ``sample -o`` included) or a bad
row, 3 domain error, 4 warnings on the update stream.  :func:`main`
builds every command's ``ModelSpec`` and alone turns an error into its
exit code and ``error:`` line.  A reader that closes stdout early, as
``| head`` does, ends the command quietly with exit 0.  The
``keyrace`` command and ``python -m keyrace`` run :func:`run`, which
freezes the garbage collector's objects once :func:`main` returns, so
interpreter exit does not walk the ~21k objects it tracks by then,
numpy's among them; :func:`main` itself, run in process by tests and
callers, never does.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import gc
import io
import itertools
import os
import sys
from operator import add, itemgetter
from typing import Iterable, Iterator, NoReturn

import numpy as np

from . import sampler
from .families import Family, FamilyDomainError, ModelSpec
from .sampler import (
    CodedTable,
    SeedContext,
    code_ids,
    merge_winner_maps,  # noqa: F401  (not called here; the traced benchmark run wraps it)
    sample_arrays,  # noqa: F401  (not called here; the traced benchmark run wraps it)
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


def _count(text: str) -> int:
    """A count option: an int, 0 or more; argparse exits 2 on anything else."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _blocks(fh, end: int | None = None) -> Iterator[bytes]:
    """A binary file in blocks of whole lines, up to offset ``end`` (a line start) if given."""
    while block := fh.read(_BLOCK_BYTES if end is None else min(_BLOCK_BYTES, end - fh.tell())):
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


def _stream_lines(stream) -> Iterator[bytes]:
    """The lines of a binary stream, each cut at ``\\n``, ``\\r\\n`` or ``\\r``."""
    for chunk in stream:  # each chunk ends at a \n, so a \r\n is never cut in two
        yield from chunk.splitlines()


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in ',"\r\n')


def _csv_field(name: str) -> str:
    """``name`` as csv.writer writes a field: quoted, quotes doubled, if it holds , " CR or LF."""
    return '"' + name.replace('"', '""') + '"' if _needs_quotes(name) else name


def _csv_fields(names: list[str]) -> list[str]:
    """:func:`_csv_field` of each name; ``names`` itself when one scan finds none to quote."""
    return list(map(_csv_field, names)) if _needs_quotes("".join(names)) else names


def _floats(fields: list[str]) -> tuple[np.ndarray, int | None]:
    """``float`` of the fields up to the first that is not a number, and its index.

    That field's value is a NaN placeholder, so a column cut after it has
    one value per field.  A column that parses goes straight into its
    array; only one that does not is parsed again, to find that field.
    """
    try:
        return np.fromiter(map(float, fields), np.float64, count=len(fields)), None
    except ValueError:  # parse again, as far as the field that raised
        values: list[float] = []
        try:
            values.extend(map(float, fields))
        except ValueError:  # extend keeps the values before that field
            values.append(np.nan)
        return np.array(values), len(values) - 1


class _CsvReader:
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
        self.rows = 0  # rows taken
        self.blank_rows: list[int] = []  # the rows taken before each blank record
        self.groups: dict[str, int] = {}
        self.labels: dict[str, int] = {}
        self.group_codes: list[np.ndarray] = []
        self.label_codes: list[np.ndarray] = []
        self.strengths: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []

    def line(self, row: int) -> int:
        """Row ``row``'s line (if ``row`` is the row count, the next record's), counted in
        records: the header is record 1, and blank records are the only others."""
        return row + 2 + bisect.bisect_right(self.blank_rows, row)

    def read(self, fh, workers: int = 1) -> CodedTable:
        """Read the file, each range after the first in a forked child (see :func:`read_table`)."""
        starts = _piece_starts(fh, workers)
        with sampler._Children() as pieces:
            for start, end in zip(starts, starts[1:] + [None]):
                pieces.fork(functools.partial(_read_piece, fh.name, start, end, self.inject_keys))
            rest = fh.readline()  # the header
            if b'"' not in rest:  # no quoted field runs on past the line: it is whole records
                self.read_csv([rest])
                rest = self.split_blocks(_blocks(fh, starts[0] if starts else None))
            if rest is None:  # the first range split: take the pieces, in file order
                for start in starts:
                    piece = pieces.join()
                    if piece is None:  # read that piece, and the rest of the file, here
                        pieces.stop()
                        fh.seek(start)
                        rest = self.split_blocks(_blocks(fh))
                        break
                    self.take_piece(piece)
        if rest is not None:  # the pieces are stopped: csv reads on from there
            self.read_csv(itertools.chain([rest], _blocks(fh)))
        if not self.header_seen:
            raise CliParseError("empty file: expected header ID,QUAL,Strength", 1)
        return self.table(np.concatenate(self.strengths),
                          np.concatenate(self.keys) if self.inject_keys else None)

    def split_blocks(self, blocks: Iterable[bytes]) -> bytes | None:
        """Split each block; the first that does not split is returned untaken, else None."""
        for block in blocks:
            if not self.read_split(block):
                return block
        return None

    def read_csv(self, blocks: Iterable[bytes]) -> None:
        """Read the rest of the file with :mod:`csv`."""
        records = csv.reader(_csv_lines(blocks))
        while True:
            batch: list[list[str]] = []
            message = None
            try:
                batch.extend(itertools.islice(records, _CSV_BATCH))
            except (csv.Error, _InvalidUtf8) as err:  # raised at the record after the batch
                message = str(err)
            self.take_records(batch, message)
            if len(batch) < _CSV_BATCH:
                return

    def read_split(self, block: bytes) -> bool:
        """Take a block by splitting it, if csv.reader reads each of its lines as its
        comma-split fields and the lines all have the same fields.

        The first needs no ``"`` and no ``\\r``.  NUL is left to csv.reader
        too, which rejects it before Python 3.11, so a file with NUL is
        accepted or rejected as csv.reader does on the running interpreter.
        Any other block is left untaken, and False returned, for csv to read.
        """
        if b'"' in block or b"\r" in block or b"\0" in block:
            return False
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
        self.take_columns([fields[j : ends.size * width : width] for j in range(self.expected)])
        return True

    def take_records(self, records: list[list[str]], message: str | None) -> None:
        """Take consecutive records; an error ``message`` stops the file right after them."""
        if not self.header_seen and records:
            self.take_header(records[0])
            records = records[1:]
        kept: list[list[str]] = []
        for record in records:
            if not record or (len(record) == 1 and not record[0].strip()):
                self.blank_rows.append(self.rows + len(kept))
                continue
            if len(record) < self.expected:
                message = f"expected {self.expected} fields, got {len(record)}"
                break
            kept.append(record)
        line = self.line(self.rows + len(kept)) if self.header_seen else 1  # the next record's
        self.take_columns([list(map(itemgetter(j), kept)) for j in range(self.expected)],
                          None if message is None else CliParseError(message, line))

    def take_header(self, record: list[str]) -> None:
        if tuple(record[: len(_HEADER)]) != _HEADER:
            raise CliParseError(
                f"header must start with {','.join(_HEADER)}, got {','.join(record)}", 1
            )
        if self.inject_keys and (len(record) < 4 or record[3] != _KEY_COLUMN):
            raise CliParseError(f"--inject-keys needs a 4th column named {_KEY_COLUMN}", 1)
        self.header_seen = True

    def take_columns(self, columns: list[list[str]], error: CliParseError | None = None) -> None:
        """Take the columns of the next rows, each with enough fields."""
        n = len(columns[0])
        strengths, bad_strength = _floats(columns[2])
        if bad_strength is not None:
            n = bad_strength + 1  # a bad row can still be a repeat, which comes first
            error = CliParseError(f"bad Strength value {columns[2][bad_strength]!r}",
                                  self.line(self.rows + bad_strength))
        if self.inject_keys:
            keys, bad = _floats(columns[3][:n])
            message = f"bad {_KEY_COLUMN} value {columns[3][bad]!r}" if bad is not None else ""
            nonfinite = np.flatnonzero(~np.isfinite(keys[:bad]))  # not the placeholder
            if nonfinite.size:  # all before the first unparsed key
                bad, message = int(nonfinite[0]), f"non-finite {_KEY_COLUMN} value"
            if bad is not None and (bad_strength is None or bad < bad_strength):
                n, error = bad + 1, CliParseError(message, self.line(self.rows + bad))
            self.keys.append(keys[:n])
        self.group_codes.append(code_ids(columns[0][:n], self.groups))
        self.label_codes.append(code_ids(columns[1][:n], self.labels))
        self.strengths.append(strengths[:n])
        self.rows += n
        if error is not None:
            self.fail(error)

    def take_piece(self, piece: _CsvReader) -> None:
        """Take the rows another reader split from the bytes that follow, its names
        coded into this reader's, so codes stay first-seen over the file."""
        groups = code_ids(list(piece.groups), self.groups)  # the piece's codes to this reader's
        labels = code_ids(list(piece.labels), self.labels)
        self.group_codes += [groups[codes] for codes in piece.group_codes]
        self.label_codes += [labels[codes] for codes in piece.label_codes]
        self.strengths += piece.strengths
        self.keys += piece.keys
        self.rows += piece.rows

    def fail(self, error: CliParseError) -> NoReturn:
        """Raise the first repeated row read so far, else ``error``."""
        self.table(np.zeros(self.rows))  # only the codes are checked
        raise error

    def table(self, strengths: np.ndarray, keys: np.ndarray | None = None) -> CodedTable:
        """Every row read so far, with these strengths and keys.

        A row that repeats an (ID, QUAL) raises at its line.
        """
        group_codes = np.concatenate(self.group_codes)  # every record batch adds one
        label_codes = np.concatenate(self.label_codes)
        try:
            # the names are the index dicts' keys, decoded from UTF-8: distinct text
            return CodedTable(group_codes, list(self.groups), label_codes, list(self.labels),
                              strengths, keys, _distinct_names=True, _text_names=True)
        except ValueError:  # a repeated (ID, QUAL)? find it again, to name its line
            dup = sampler.first_duplicate(group_codes, label_codes, len(self.labels))
            if dup is None:
                raise
            gid, label = list(self.groups)[group_codes[dup]], list(self.labels)[label_codes[dup]]
            raise CliParseError(f"duplicate row ({gid},{label})", self.line(dup)) from None


def _piece_starts(fh, workers: int) -> list[int]:
    """Line starts that cut the file into up to ``workers`` ranges of about equal size, at
    most one per usable CPU and one per block (see :func:`~keyrace.sampler._workers`)."""
    size = os.fstat(fh.fileno()).st_size
    n = sampler._workers(workers, size // _BLOCK_BYTES)
    starts: list[int] = []
    for i in range(1, n):
        fh.seek(size * i // n - 1)
        fh.readline()
        if fh.tell() < size and (not starts or fh.tell() > starts[-1]):
            starts.append(fh.tell())
    fh.seek(0)
    return starts


def _read_piece(path: str, start: int, end: int | None, inject_keys: bool) -> _CsvReader | None:
    """A reader of bytes [start, end) of the file, each block split as
    :meth:`_CsvReader.read_split` splits it; None if a block does not split."""
    reader = _CsvReader(inject_keys)
    with open(path, "rb") as fh:  # its own offset, not the parent's
        fh.seek(start)
        return reader if reader.split_blocks(_blocks(fh, end)) is None else None


def read_table(path: str, inject_keys: bool = False, workers: int = 1) -> CodedTable:
    """Parse an input CSV into a :class:`CodedTable`, enforcing the header and row uniqueness.

    The file is read in blocks of whole lines and each block is coded as
    it is read, so no row's strings are kept.  The header line is read by
    :mod:`csv`, with the rest of the file if it holds a ``"``, as a quoted
    field may run on past it.  A block with no ``"``, ``\\r`` or NUL whose
    lines all have the same number of fields, enough of them and none too
    long, is split on commas and newlines; from the first other block,
    :mod:`csv` reads the rest of the file, so quoted fields may hold
    commas, quotes and newlines.  Either way the records
    are those csv.reader reads, and a rejected file gets the same message:
    exit 2 names the line of the first error in file order, invalid UTF-8
    and fields over ``csv.field_size_limit()`` included.

    With ``workers`` above 1, a file of two blocks or more is cut at line
    starts into up to that many pieces, at most one per usable CPU.  The
    first is read here while each other is split in a forked child
    (see :class:`~keyrace.sampler._Children`), and their codes are merged
    in file order.  A piece that does not split, raises, or cannot be
    forked is read here, with the rest of the file, by the one sequential
    path, so the table, and every message, is the one a single process
    reads.
    """
    with open(path, "rb") as fh:
        return _CsvReader(inject_keys).read(fh, workers)


def cmd_sample(args, spec: ModelSpec) -> int:
    table = read_table(args.input, inject_keys=args.inject_keys, workers=args.threads)
    # read_table has rejected repeated rows, naming their lines; a bad
    # strength raises here, before any output
    races = sampler._race_columns(table, spec, SeedContext(seed=args.seed), args.replicates)
    # read_table codes the groups from their rows, so every group has a
    # segment and segment g is group g; rank the ids once for every replicate
    names = table.group_names
    ranked = sorted(range(len(names)), key=names.__getitem__)
    group_fields = _csv_fields(names)
    gid_prefixes = [group_fields[g] + "," for g in ranked]
    by_id = np.array(ranked, dtype=np.intp)

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for replicate, winners in enumerate(races):
            prefixes = ([f"{replicate},{p}" for p in gid_prefixes] if args.replicates > 1
                        else gid_prefixes)
            labels = _csv_fields(list(map(table.label_names.__getitem__,
                                          winners.label_codes[by_id].tolist())))
            lines = (map("{}{},{!r}".format, prefixes, labels, winners.keys[by_id].tolist())
                     if args.with_key else map(add, prefixes, labels))
            if ranked:
                out.write("\n".join(lines) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_update(args, spec: ModelSpec) -> int:
    from .dynamic import DynamicTable, RowNotFoundError

    table = DynamicTable(spec, SeedContext(seed=args.seed))
    warned = False
    stream = open(args.input, "rb") if args.input else sys.stdin.buffer
    try:
        for line_no, raw in enumerate(_stream_lines(stream), start=1):
            try:
                text, invalid = _decode(raw)
                if invalid is not None:
                    raise invalid
                verb, _, record = text.lstrip().partition(" ")
                if not verb:  # a blank line
                    continue
                # the record is read as sample reads a CSV row: extra fields are ignored
                fields = next(csv.reader([record]), [])
                if verb.upper() == "UPSERT" and len(fields) >= 3:
                    try:
                        strength = float(fields[2])
                    except ValueError:
                        raise CliParseError(f"bad Strength value {fields[2]!r}") from None
                    report = table.upsert(fields[0], fields[1], strength)
                elif verb.upper() == "DELETE" and len(fields) >= 2:
                    report = table.delete(fields[0], fields[1])
                else:
                    raise CliParseError(f"malformed command {text.strip()!r}")
            except (CliParseError, csv.Error, _InvalidUtf8, RowNotFoundError,
                    FamilyDomainError) as err:
                print(f"warning: line {line_no}: {err}", file=sys.stderr)
                warned = True
                continue
            w = report.winner  # None once a group's last row is deleted, which re-scans nothing
            label, key = ("-", "-") if w is None else (_csv_field(w.label), repr(w.key))
            rescan = "rescan" if report.rescanned else "no-rescan"
            print(f"{_csv_field(report.group_id)},{label},{key} {report.case.value} {rescan} "
                  f"cmp={report.comparisons}")
    finally:
        if stream is not sys.stdin.buffer:
            stream.close()
    return EXIT_STREAM if warned else EXIT_OK


def cmd_validate(args, spec: ModelSpec) -> int:
    from . import validation

    if args.input:
        table = read_table(args.input)
        results = validation.check_input_groups(table, spec, args.seed, args.quick)
    else:
        results = validation.run_battery(base_seed=args.seed, quick=args.quick)
    if args.quick:  # only once every result is in, so a failed run prints nothing
        print("WARNING: reduced-power run (--quick); sample sizes are cut down")
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


def cmd_bench(args, spec: ModelSpec) -> int:
    from .dynamic import DynamicTable
    from .validation import _update_stream

    table = DynamicTable(spec, SeedContext(seed=args.seed))
    case_counts: dict[str, int] = {}
    case_cost: dict[str, int] = {}
    for report in _update_stream(table, np.random.default_rng(args.seed), args.updates):
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

    p_sample = sub.add_parser("sample", help="winner per group of a CSV table")
    add_common(p_sample)
    p_sample.add_argument("--threads", type=_count, default=1,
                          help="read the CSV in up to N pieces at once, in forked processes; "
                               "the output is the same for any N")
    p_sample.add_argument("--replicates", type=_count, default=1,
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

    p_bench = sub.add_parser("bench", help="dynamic-update costs split by case")
    add_common(p_bench)
    p_bench.add_argument("--updates", type=_count, default=10_000)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = ModelSpec(Family(args.model), scale_c=args.scale, offset_d=args.offset)
        return args.func(args, spec)
    except FamilyDomainError as err:  # a bad --scale, --offset or strength
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:  # the reader closed stdout, as `| head` does: not an error
        # stdout's buffer is flushed again at exit, so send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    # a file not read or written, or a bad row; below BrokenPipeError, itself an OSError
    except (OSError, CliParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE


def run() -> NoReturn:
    """The ``keyrace`` command: :func:`main` on ``sys.argv``, then exit with its code.

    The objects made by then are frozen first, so the collection at
    interpreter exit skips them; exit is otherwise as ``sys.exit`` makes
    it: atexit handlers run and stdio is flushed.  An exception out of
    :func:`main`, argparse's ``SystemExit`` included, exits unfrozen.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
