"""read_table against the row-by-row csv.reader loop it replaced."""

import csv
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyrace import cli
from keyrace.cli import CliParseError, read_table
from keyrace.sampler import CodedTable


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
        block, batch, limit = 1 << 20, 1 << 14, csv.field_size_limit()
    else:
        # a block of at least `block` bytes runs on to a line end; also aim at line ends +-1
        line_ends = [i + 1 for i, b in enumerate(raw) if b == 10] or [1]
        block = data.draw(st.one_of(
            st.integers(1, len(raw) + 1),
            st.tuples(st.sampled_from(line_ends), st.sampled_from([-1, 0, 1])).map(sum),
        ))
        batch = data.draw(st.integers(1, 5))
        limit = data.draw(st.sampled_from([8, 9, 131072]))  # the header needs 8
    with _field_limit(limit), mock.patch.object(cli, "_BLOCK_BYTES", max(1, block)), \
            mock.patch.object(cli, "_CSV_BATCH", batch):
        assert _outcome(read_table, str(path), inject) == _outcome(oracle_read_table, str(path),
                                                                    inject)


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
