"""read_table against the row-by-row csv.reader loop it replaced."""

import csv
import functools
import itertools
import os
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrace import cli, sampler
from keyrace.cli import CliParseError, read_table
from keyrace.sampler import CodedTable, _string_digests

from children import assert_no_children as _assert_no_children


class _BadByte(Exception):
    def __init__(self, byte):
        super().__init__(byte)
        self.byte = byte


_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")


def _physical_lines(data: bytes):
    """Lines as a file opened with newline="" gives them, each decoded on its own."""
    for match in _LINE.finditer(data):
        try:
            yield match.group().decode("utf-8")
        except UnicodeDecodeError as err:
            raise _BadByte(match.group()[err.start]) from None


def oracle_read_table(path, inject_keys=False):
    """The csv.reader loop read_table used to be, one record at a time.

    Kept as the reference.  It differs from that loop only in turning
    invalid UTF-8 and over-long fields into line-numbered parse errors.
    """
    with open(path, "rb") as fh:
        reader = csv.reader(_physical_lines(fh.read()))
    line_no = 1

    def next_record():
        try:
            return next(reader)
        except csv.Error as err:
            raise CliParseError(str(err), line_no) from None
        except _BadByte as err:
            raise CliParseError(f"invalid UTF-8 byte 0x{err.byte:02x}", line_no) from None

    group_ids, labels, strengths, keys = [], [], [], []
    seen = set()
    try:
        header = next_record()
    except StopIteration:
        raise CliParseError("empty file: expected header ID,QUAL,Strength", 1)
    expected = 3 + (1 if inject_keys else 0)
    if tuple(header[:3]) != ("ID", "QUAL", "Strength"):
        raise CliParseError(f"header must start with ID,QUAL,Strength, got {','.join(header)}", 1)
    if inject_keys and (len(header) < 4 or header[3] != "KEY"):
        raise CliParseError("--inject-keys needs a 4th column named KEY", 1)
    while True:
        line_no += 1
        try:
            record = next_record()
        except StopIteration:
            break
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if len(record) < expected:
            raise CliParseError(f"expected {expected} fields, got {len(record)}", line_no)
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
                raise CliParseError(f"bad KEY value {record[3]!r}", line_no)
            if not np.isfinite(key):
                raise CliParseError("non-finite KEY value", line_no)
            keys.append(key)
        group_ids.append(gid)
        labels.append(label)
        strengths.append(strength)
    return group_ids, labels, strengths, keys if inject_keys else None


def _outcome(read, path, inject_keys):
    try:
        table = read(path, inject_keys)
    except CliParseError as err:
        return "rejected", str(err)
    if isinstance(table, CodedTable):
        table = (table.group_ids, table.labels, table.strengths.tolist(),
                 None if table.keys is None else table.keys.tolist())
    group_ids, labels, strengths, keys = table

    def bits(values):  # tells -0.0 from 0.0 and matches nan to nan
        return None if values is None else np.asarray(values, dtype=np.float64).tobytes()

    return "accepted", group_ids, labels, bits(strengths), bits(keys)


@contextmanager
def _field_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


_GROUPS = ["g1", "g2", "é", "\x00g", "日本", " g "]
_LABELS = [f"l{i}" for i in range(12)] + ["", "€", "a\x00", "x y", "ten-chars!"]
_FINITE = ["1.0", "2", "-0.0", "0.5", " 3 ", "1_0"]
_NUMBERS = _FINITE + ["1e999", "nan", "-inf"]
_NOT_NUMBERS = ["x", "", "1,5", "--1"]
_QUOTED = ['"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\r\nlf"', '"lone\rcr"', '"1.5"', '""']


@st.composite
def _files(draw):
    """CSV bytes that are mostly well-formed, with every kind of fault possible."""
    inject = draw(st.booleans())
    quoting = draw(st.booleans())  # else only \n endings and no quotes: the split path
    header = draw(st.sampled_from(
        ["ID,QUAL,Strength" + (",KEY" if inject else "")] * 20
        + ["ID,QUAL,Strength,KEY,extra", "ID,QUAL", "id,QUAL,Strength", ""]))
    groups, labels = st.sampled_from(_GROUPS), st.sampled_from(_LABELS)
    if quoting:
        groups, labels = (st.one_of(ids, st.sampled_from(_QUOTED)) for ids in (groups, labels))
    good = st.tuples(groups, labels, st.sampled_from(_NUMBERS), st.sampled_from(_FINITE))
    row = good.map(lambda r: ",".join(r[: 3 + inject]))
    record = st.one_of(
        *[row] * 8,
        row.map(lambda r: r + ",extra"),
        st.tuples(st.sampled_from(_GROUPS), st.sampled_from(_LABELS),
                  st.sampled_from(_NOT_NUMBERS + _NUMBERS),
                  st.sampled_from(_NOT_NUMBERS + _NUMBERS)).map(",".join),
        st.sampled_from(["", " ", "\t", "g1", "g1,l1", "x" * 20]),
    )
    if draw(st.booleans()):
        lines = [header] + draw(st.lists(record, max_size=40))
    else:  # good rows, some with extra columns, each (ID, QUAL) once: mostly accepted
        rows = draw(st.lists(st.tuples(good, st.booleans()), max_size=40,
                             unique_by=lambda r: r[0][:2]))
        lines = [header] + [",".join(r[: 3 + inject]) + ",extra" * extra for r, extra in rows]
    ends = ["\n", "\r\n", "\r"] if quoting else ["\n"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if not draw(st.booleans()):
        text = text[:-1] if text.endswith("\n") else text  # no final newline
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0 and data:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + draw(st.sampled_from([b"\xff\xfe", b"\xc3", b"\xe2\x82"])) + data[at:]
    return data, inject


@settings(max_examples=400, deadline=None)
@given(_files(), st.data())
@example((b"ID,QUAL,Strength\ng1,a,1\ng1,a,2\ng1,b,x\n", False), None)  # repeat, then bad float
@example((b"ID,QUAL,Strength\ng1,a,1\ng1,b,x\ng1,a,2\n", False), None)  # bad float, then repeat
@example((b"ID,QUAL,Strength\ng1,a,1\ng1,a,x\n", False), None)  # both on one row
@example((b"ID,QUAL,Strength\rg1,a,1\r\xff,b,2\n", False), None)  # bad byte after a lone CR
@example((b"ID,QUAL,Strength\ng1,a,1\ng1,b,2,extra\ng2,c,3\n", False), None)  # uneven block
@example((b"ID,QUAL,Strength\n\ng1,a,1\n\ng1,a,2\n", False), None)  # blanks, repeat: line 5
@example((b"ID,QUAL,Strength\ng1,a,1\n" + b"\n" * 20_000 + b"g1,b,2\n\n\ng1,c,x\n", False),
         None)  # blanks in two csv batches, then a bad Strength in the second: line 20006
@example((b'ID,QUAL,Strength\ng1,"two\nlines",1.0\ng1,b,x\n', False), None)  # quoted LF: line 3
def test_read_table_matches_csv_reader_loop(tmp_path_factory, file, data):
    raw, inject = file
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_bytes(raw)
    if data is None:
        block, batch, limit, workers = 1 << 20, 1 << 14, csv.field_size_limit(), 1
    else:
        # a block of at least `block` bytes runs on to a line end; also aim at line ends +-1
        line_ends = [i + 1 for i, b in enumerate(raw) if b == 10] or [1]
        block = data.draw(st.one_of(
            st.integers(1, len(raw) + 1),
            st.tuples(st.sampled_from(line_ends), st.sampled_from([-1, 0, 1])).map(sum),
        ))
        batch = data.draw(st.integers(1, 5))
        limit = data.draw(st.sampled_from([8, 9, 131072]))  # the header needs 8
        workers = data.draw(st.sampled_from([1, 2, 3]))
    _assert_reads_as_oracle(str(path), inject, block, batch, limit, workers)


def _assert_reads_as_oracle(path, inject, block, batch, limit, workers):
    # as many usable CPUs as workers, so a read forks what it draws on any host
    with _field_limit(limit), mock.patch.object(cli, "_BLOCK_BYTES", max(1, block)), \
            mock.patch.object(cli, "_CSV_BATCH", batch), \
            mock.patch.object(sampler, "_usable_cpus", lambda: workers):
        outcome = _outcome(functools.partial(read_table, workers=workers), path, inject)
        assert outcome == _outcome(oracle_read_table, path, inject)
    _assert_no_children()


_FAULTS = ["g1,l0,x", "g1,l0,1,inf", '"g1",l0,1', "g1,l0,1,2,extra", "g1", "", "g1,\rl0,1",
           "g1,\x00,1", "g1,l0,1" + "0" * 20]


@st.composite
def _split_files(draw):
    """Unquoted rows that split, each (ID, QUAL) once, with up to three faults anywhere,
    and the block size, workers, field limit and csv batch to read them with."""
    inject = draw(st.booleans())
    groups, labels = ([s for s in ids if "\x00" not in s] for ids in (_GROUPS, _LABELS))
    rows = draw(st.lists(st.tuples(st.sampled_from(groups), st.sampled_from(labels),
                                   st.sampled_from(_FINITE), st.sampled_from(_FINITE)),
                         min_size=1, max_size=40, unique_by=lambda r: r[:2]))
    lines = [",".join(r[: 3 + inject]) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        fault = draw(st.one_of(st.sampled_from(_FAULTS), st.sampled_from(lines)))  # or a repeat
        lines.insert(at, fault)
    text = "".join(line + "\n" for line in ["ID,QUAL,Strength" + ",KEY" * inject] + lines)
    data = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + b"\xff" + data[at:]
    return (data, inject, draw(st.integers(1, max(1, len(data) // 2))),
            draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([12, 131072, 131072])),
            draw(st.integers(1, 5)))


_ROWS = b"ID,QUAL,Strength\ng1,a,1\ng1,b,2\ng2,a,1\n"  # the first cut is after g1,a,1


@settings(max_examples=400, deadline=None)
@given(_split_files())
@example((_ROWS + b'"g3",a,1\n', False, 8, 2, 131072, 5))  # a quote after the cut
@example((_ROWS + b"g3,a\r,1\n", False, 8, 2, 131072, 5))  # a CR after the cut
@example((_ROWS + b"g3,\xff,1\n", False, 8, 2, 131072, 5))  # invalid UTF-8 after the cut
# a repeat and a bad Strength, both in the middle piece of three
@example((_ROWS + b"g1,b,3\ng3,b,x\ng4,a,1\ng5,a,1\ng6,a,1\n", False, 8, 3, 131072, 5))
def test_pieces_read_as_the_csv_reader_loop(tmp_path_factory, file):
    """Files read in 2 or 3 forked pieces, faults in any of them, give the oracle's outcome."""
    raw, inject, block, workers, limit, batch = file
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_bytes(raw)
    _assert_reads_as_oracle(str(path), inject, block, batch, limit, workers)


# 1, 2 and 3 UTF-8 bytes a character, so names end anywhere in an 8-byte word
_FILLERS = ["a", "é", "日", "x y", "1234567"]


@st.composite
def _mode_files(draw):
    """Rows whose group and label columns each hold only new names up to a row and then
    repeat some, with extra columns or a KEY, maybe one quoted, CR or uneven row; the
    block size and workers to read them with; and whether every block splits."""
    inject, extra, n = draw(st.booleans()), draw(st.integers(0, 2)), draw(st.integers(1, 60))

    def column(tag):
        repeats_from, names = draw(st.integers(0, n)), []
        for i in range(n):
            if i >= repeats_from and names and draw(st.booleans()):
                names.append(draw(st.sampled_from(names)))
            else:  # the text after the last "#" makes the name new
                names.append(draw(st.sampled_from(_FILLERS)) * draw(st.integers(0, 9))
                             + f"#{tag}{i}")
        return names

    rows = list(dict.fromkeys(zip(column("g"), column("l"))))  # each (ID, QUAL) once
    if draw(st.integers(0, 9)) == 0:  # or a repeated row
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    tail = ",1" + ",0.5" * inject + ",x" * extra
    lines = [f"{g},{q}{tail}\n" for g, q in rows]
    fault = draw(st.sampled_from([None, None, "quote", "cr", "uneven"]))
    at = draw(st.integers(0, len(lines) - 1))
    g, q = rows[at]
    lines[at] = {None: lines[at], "quote": f'"{g}",{q}{tail}\n', "cr": f"{g},{q}{tail}\r\n",
                 "uneven": f"{g},{q}{tail},more\n"}[fault]
    data = ("ID,QUAL,Strength" + ",KEY" * inject + ",x" * extra + "\n"
            + "".join(lines)).encode("utf-8")
    block = draw(st.integers(1, len(data)))
    return data, inject, block, draw(st.sampled_from([1, 2, 3])), fault is None


_REPEATS = b"ID,QUAL,Strength\ng1,a,1\ng2,b,1\ng1,c,1\ng3,a,2\n"


@settings(max_examples=300, deadline=None)
@given(_mode_files())
@example((_REPEATS, False, 8, 1, True))  # each line a block: repeats across blocks
@example((_REPEATS, False, 64, 1, True))  # one block: repeats inside it
@example((b"ID,QUAL,Strength\ng1,a,1\ng2,b,1\ng3,c,1\ng1,d,1\n", False, 8, 3,
          True))  # a repeat across pieces
@example((b'ID,QUAL,Strength\ng1,a,1\n"g2",b,1\ng3,c,1\n', False, 1, 1,
          False))  # a block csv reads, after one split
# names of 8, 5, 13 and 7 UTF-8 bytes
@example(("ID,QUAL,Strength\n1234567#,é#é,1\n日日#日日,x y#x y,1\n".encode("utf-8"),
          False, 1, 1, True))
def test_distinct_columns_are_coded_and_digested_as_the_oracle(tmp_path_factory, file):
    """The table's codes and names are the oracle's rows coded first-seen, and a column
    that carries digests carries each name's own: at any block size and worker count,
    a repeat inside a block, at its edge or across pieces, and a block csv reads."""
    raw, inject, block, workers, splits = file
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_bytes(raw)
    with mock.patch.object(cli, "_BLOCK_BYTES", block), \
            mock.patch.object(sampler, "_usable_cpus", lambda: workers):
        outcome = _outcome(functools.partial(read_table, workers=workers), str(path), inject)
        assert outcome == _outcome(oracle_read_table, str(path), inject)
        if outcome[0] == "accepted":
            table = read_table(str(path), inject, workers=workers)
    _assert_no_children()
    if outcome[0] == "rejected":
        return
    ids, labels, *_ = oracle_read_table(str(path), inject)
    for codes, names, digests, column in zip((table.group_codes, table.label_codes),
                                             (table.group_names, table.label_names),
                                             table._digests, (ids, labels)):
        want_codes, want_names = sampler._factorize(column)
        assert codes.tolist() == want_codes.tolist() and names == want_names
        if splits and len(set(column)) == len(column):  # a distinct column of split blocks
            assert digests is not None
        if digests is not None:
            assert digests.tolist() == _string_digests(names).tolist()


_CSV_READER = csv.reader


def _reader_rejecting_nul(lines, *args, **kwargs):
    """csv.reader as it is before Python 3.11, which rejects a line with NUL."""
    def checked():
        for line in lines:
            if "\x00" in line:
                raise csv.Error("line contains NUL")
            yield line
    return _CSV_READER(checked(), *args, **kwargs)


@pytest.mark.parametrize("raw, line", [
    (b"ID,QUAL,Strength\ng1,a,1\ng1,a\x00,2\ng2,b,3\n", 3),  # a plain, even block
    (b"ID,QUAL,Strength,\x00\ng1,a,1\n", 1),  # the header
    (b"ID,QUAL,Strength\n\ng1,a,1\n\x00g,b,2", 4),  # an uneven block
    (b'ID,QUAL,Strength\n"g1",a,1\ng1,\x00,2\n', 3),  # after a quote
])
def test_nul_is_read_as_csv_reader_reads_it(tmp_path, raw, line):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    assert _outcome(read_table, str(path), False)[0] == "accepted"  # as on Python >= 3.11
    with mock.patch.object(csv, "reader", _reader_rejecting_nul):
        outcome = _outcome(read_table, str(path), False)
        assert outcome == ("rejected", f"line {line}: line contains NUL")
        assert outcome == _outcome(oracle_read_table, str(path), False)


@pytest.mark.parametrize("raw, inject, message", [
    (b"ID,QUAL,Strength\ng1,a,1\ng1,b,x\n", False, "line 3: bad Strength value 'x'"),
    (b'ID,QUAL,Strength\ng1,a,1\n"g1",b,x\n', False, "line 3: bad Strength value 'x'"),
    (b"ID,QUAL,Strength,KEY\ng1,a,1,0.5\ng1,b,2,x\n", True, "line 3: bad KEY value 'x'"),
    (b"ID,QUAL,Strength,KEY\ng1,a,1,0.5\ng1,b,2,inf\n", True, "line 3: non-finite KEY value"),
    (b"ID,QUAL,Strength,KEY\ng1,a,1,0.5\ng1,b,x,y\n", True, "line 3: bad Strength value 'x'"),
    (b"ID,QUAL,Strength,KEY\ng1,a,1,y\ng1,b,x,0.5\n", True, "line 2: bad KEY value 'y'"),
], ids=["strength", "strength-csv", "key", "non-finite-key", "strength-then-key",
        "key-then-strength"])
def test_a_bad_field_leaves_every_batch_one_length(tmp_path, raw, inject, message):
    """Every batch the reader took has as many strengths (and keys) as codes."""
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    reader = cli._CsvReader(inject)
    with open(path, "rb") as fh, pytest.raises(CliParseError) as err:
        reader.read(fh)
    assert str(err.value) == message
    columns = [reader.group_codes, reader.label_codes, reader.strengths]
    if inject:
        columns.append(reader.keys)
    lengths = [[len(batch) for batch in column] for column in columns]
    assert lengths == [lengths[0]] * len(columns), lengths


@pytest.mark.parametrize("fields, values, bad", [
    (["1", "-0.0", " 2 ", "1e999"], [1.0, -0.0, 2.0, np.inf], None),
    ([], [], None),
    (["x", "1", "2"], [np.nan], 0),
    (["1", "", "2"], [1.0, np.nan], 1),
    (["1", "2", "1,5"], [1.0, 2.0, np.nan], 2),
])
def test_floats_stop_at_the_first_field_that_is_not_a_number(fields, values, bad):
    got, got_bad = cli._floats(fields)
    assert got.dtype == np.float64 and got_bad == bad
    np.testing.assert_array_equal(got, values)  # the NaN placeholder equals nan here


_FLOAT_ROWS = 9


@pytest.mark.parametrize("column, at", itertools.product(["Strength", "KEY"], [0, 4, 8]))
@pytest.mark.parametrize("path_taken", ["split", "csv"])
def test_a_bad_number_is_named_wherever_it_falls_in_its_column(tmp_path, column, at,
                                                              path_taken):
    """A bad Strength or KEY as the first, a middle or the last field of the column a
    block (split) or a batch (csv) holds gives the line it gave as a list of floats."""
    header = "ID,QUAL,Strength,KEY" if path_taken == "split" else '"ID",QUAL,Strength,KEY'
    rows = [f"g{i % 2},q{i},{i + 1},{i / 2}" for i in range(_FLOAT_ROWS)]
    g, q, strength, key = rows[at].split(",")
    rows[at] = ",".join([g, q, "x1" if column == "Strength" else strength,
                         "y2" if column == "KEY" else key])
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    read_split = cli._CsvReader.read_split

    def split(reader, block):
        assert path_taken == "split" and read_split(reader, block)  # the block split
        return True

    # one block or one batch holds every row, so the column is the whole file's
    with mock.patch.object(cli, "_BLOCK_BYTES", 1 << 16), \
            mock.patch.object(cli, "_CSV_BATCH", _FLOAT_ROWS + 1), \
            mock.patch.object(cli._CsvReader, "read_split", split):
        with pytest.raises(CliParseError) as err:
            read_table(str(path), inject_keys=True)
    value = "'x1'" if column == "Strength" else "'y2'"
    assert str(err.value) == f"line {at + 2}: bad {column} value {value}"


_ROWS_8 = b"g1,a,1\ng1,b,2\ng1,c,2\ng1,d,1\ng2,a,1\ng2,b,1\ng2,c,3\ng2,d,1\n"
_PIECE_FILES = {  # read with blocks of 8 bytes in 3 pieces of about 25 bytes
    "clean": b"ID,QUAL,Strength\n" + _ROWS_8,
    "bad-strength-before-cut": b"ID,QUAL,Strength\n" + _ROWS_8.replace(b"g1,a,1", b"g1,a,x"),
    "bad-strength-after-cut": b"ID,QUAL,Strength\n" + _ROWS_8.replace(b"g2,d,1", b"g2,d,x"),
    "repeat-across-cut": b"ID,QUAL,Strength\n" + _ROWS_8.replace(b"g2,d,1", b"g1,a,3"),
    "quote-after-cut": b"ID,QUAL,Strength\n" + _ROWS_8.replace(b"g2,d,1", b'"g2",d,1'),
    "quote-before-cut": b"ID,QUAL,Strength\n" + _ROWS_8.replace(b"g1,a,1", b'"g1",a,1'),
}


@pytest.mark.parametrize("case", list(_PIECE_FILES))
def test_forked_readers_are_reaped_however_the_read_ends(tmp_path, forks, case):
    path = tmp_path / "t.csv"
    path.write_bytes(_PIECE_FILES[case])
    with mock.patch.object(cli, "_BLOCK_BYTES", 8):
        outcome = _outcome(functools.partial(read_table, workers=3), str(path), False)
    assert forks[0] == 2
    _assert_no_children()
    assert outcome == _outcome(oracle_read_table, str(path), False)


@pytest.mark.parametrize("error", [KeyboardInterrupt, BrokenPipeError])
def test_forked_readers_are_reaped_when_the_parent_is_interrupted(tmp_path, forks, error):
    path = tmp_path / "t.csv"
    path.write_bytes(_PIECE_FILES["clean"])
    parent, read_split = os.getpid(), cli._CsvReader.read_split

    def interrupted(self, block):
        if os.getpid() == parent:
            raise error
        return read_split(self, block)

    with mock.patch.object(cli, "_BLOCK_BYTES", 8), \
            mock.patch.object(cli._CsvReader, "read_split", interrupted), pytest.raises(error):
        read_table(str(path), workers=3)
    assert forks[0] == 2
    _assert_no_children()


@pytest.mark.parametrize("case", list(_PIECE_FILES))
def test_a_failed_fork_reads_that_piece_here(tmp_path, failing_fork, capsys, case):
    """A fork that raises gives the oracle's table, and `sample` the one-process output."""
    path = tmp_path / "t.csv"
    path.write_bytes(_PIECE_FILES[case])
    with mock.patch.object(cli, "_BLOCK_BYTES", 8):
        outcome = _outcome(functools.partial(read_table, workers=3), str(path), False)
        runs = []
        for threads in ("3", "1"):
            code = cli.main(["sample", "--threads", threads, str(path)])
            runs.append((code, *capsys.readouterr()))
    _assert_no_children()
    assert outcome == _outcome(oracle_read_table, str(path), False)
    assert runs[0] == runs[1]
    assert runs[0][0] == (0 if outcome[0] == "accepted" else 2)


def test_without_fork_the_file_is_read_in_one_process(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(_PIECE_FILES["clean"])
    monkeypatch.delattr(os, "fork")
    with mock.patch.object(cli, "_BLOCK_BYTES", 8):
        assert (_outcome(functools.partial(read_table, workers=4), str(path), False)
                == _outcome(read_table, str(path), False))


def _no_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("raw", [b"ID,QUAL,Strength\n", _PIECE_FILES["clean"]],
                         ids=["header-only", "one-block"])
def test_a_file_of_one_block_is_read_in_one_process(tmp_path, monkeypatch, raw):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    monkeypatch.setattr(os, "fork", _no_fork)
    with mock.patch.object(cli, "_BLOCK_BYTES", len(raw)):
        assert (_outcome(functools.partial(read_table, workers=4), str(path), False)
                == _outcome(read_table, str(path), False))


def test_one_usable_cpu_reads_in_one_process(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(_PIECE_FILES["clean"])
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    with mock.patch.object(cli, "_BLOCK_BYTES", 8):
        assert (_outcome(functools.partial(read_table, workers=4), str(path), False)
                == _outcome(read_table, str(path), False))


def test_threads_0_reads_in_one_process(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(_PIECE_FILES["clean"])
    monkeypatch.setattr(os, "fork", _no_fork)
    with mock.patch.object(cli, "_BLOCK_BYTES", 8):
        assert cli.main(["sample", "--threads", "0", str(path)]) == 0
    assert capsys.readouterr().out.count("\n") == 2
