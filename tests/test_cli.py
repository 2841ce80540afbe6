"""Command-line contract: formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import itertools
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyrace import cli, validation
from keyrace.families import Family, ModelSpec
from keyrace.sampler import (
    CodedTable,
    KeyedRow,
    Row,
    SeedContext,
    assign_keys,
)
from row_fold import fold_rows
from worked_example import write_worked_example_csv

EXPECTED_WORKED_OUTPUT = "#1,RED\n#2,WHITE\n#3,WHITE\n#4,YELLOW\n"


def run_cli(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "keyrace", *argv],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=300,
    )


def write_random_table(path, n_rows, n_groups, seed, with_header=True):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if with_header:
            writer.writerow(["ID", "QUAL", "Strength"])
        per_group = n_rows // n_groups
        for g in range(n_groups):
            for q in range(per_group):
                writer.writerow([f"g{g:05d}", f"q{q:03d}", repr(float(rng.normal()))])
    return path


class TestSample:
    def test_worked_example_injected_keys(self, worked_example_csv):
        result = run_cli("sample", str(worked_example_csv), "--inject-keys")
        assert result.returncode == 0, result.stderr
        assert result.stdout == EXPECTED_WORKED_OUTPUT

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("ID,QUAL,Strength\n")
        result = run_cli("sample", str(path))
        assert result.returncode == 0
        assert result.stdout == ""

    def test_thread_counts_byte_identical(self, tmp_path):
        path = write_random_table(tmp_path / "t.csv", 5000, 100, seed=0)
        outputs = {
            t: run_cli("sample", str(path), "--model", "gumbel1", "--seed", "5",
                       "--threads", str(t)).stdout
            for t in (1, 4, 8)
        }
        assert outputs[1] == outputs[4] == outputs[8]
        assert outputs[1].count("\n") == 100

    def test_with_key_column(self, worked_example_csv):
        result = run_cli("sample", str(worked_example_csv), "--inject-keys", "--with-key")
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "#1,RED,5.612483956"

    def test_replicates_prefix(self, tmp_path):
        path = write_random_table(tmp_path / "r.csv", 20, 4, seed=1)
        result = run_cli("sample", str(path), "--model", "gumbel1", "--replicates", "3")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("0,") and lines[-1].startswith("2,")

    def test_replicates_match_library(self, tmp_path):
        from keyrace import Family, ModelSpec, SeedContext, sample_arrays
        from keyrace.cli import read_table

        path = write_random_table(tmp_path / "r.csv", 600, 30, seed=2)
        result = run_cli("sample", str(path), "--model", "gumbel1", "--seed", "4",
                         "--replicates", "3", "--threads", "3", "--with-key")
        assert result.returncode == 0, result.stderr
        table = read_table(str(path))
        expected = []
        for r in range(3):
            winners = sample_arrays(table.group_ids, table.labels, table.strengths,
                                    ModelSpec(Family.GUMBEL1), SeedContext(4, r))
            expected += [f"{r},{g},{winners[g].label},{winners[g].key!r}" for g in sorted(winners)]
        assert result.stdout.splitlines() == expected

    @pytest.mark.parametrize("count", ["-1", "-2"])
    def test_negative_replicates_rejected(self, count, worked_example_csv):
        result = run_cli("sample", str(worked_example_csv), "--replicates", count)
        assert result.returncode == 2
        assert f"argument --replicates: must be >= 0, got {count}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("argv", [["sample", "--threads", "-3", "t.csv"]])
    def test_negative_counts_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert f"argument {argv[1]}: must be >= 0, got {argv[2]}" in capsys.readouterr().err

    def test_zero_replicates_write_nothing(self, worked_example_csv):
        result = run_cli("sample", str(worked_example_csv), "--inject-keys", "--replicates", "0")
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("argv", [["update", "--threads", "2"], ["sample", "--quick"],
                                      ["validate", "--replicates", "2"]])
    def test_flags_of_other_subcommands_rejected(self, argv, worked_example_csv):
        result = run_cli(*argv, *([str(worked_example_csv)] if argv[0] == "sample" else []),
                         stdin="")
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ID,QUAL,Strength\ng1,a,1.0\ng1,b,not-a-number\n")
        result = run_cli("sample", str(path))
        assert result.returncode == 2
        assert "line 3" in result.stderr

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("foo,bar,baz\n")
        assert run_cli("sample", str(path)).returncode == 2

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("ID,QUAL,Strength\ng1,a,1.0\ng1,a,2.0\n")
        result = run_cli("sample", str(path))
        assert result.returncode == 2
        assert "duplicate" in result.stderr

    def test_domain_error_exit_code(self, tmp_path):
        path = tmp_path / "dom.csv"
        path.write_text("ID,QUAL,Strength\ng1,a,1.0\ng1,b,0.0\n")
        result = run_cli("sample", str(path), "--model", "frechet2")
        assert result.returncode == 3
        assert "zero mass" in result.stderr

    def test_missing_file(self, tmp_path):
        assert run_cli("sample", str(tmp_path / "nope.csv")).returncode == 2

    def test_output_file(self, worked_example_csv, tmp_path):
        out = tmp_path / "winners.csv"
        result = run_cli("sample", str(worked_example_csv), "--inject-keys", "-o", str(out))
        assert result.returncode == 0
        assert out.read_text() == EXPECTED_WORKED_OUTPUT


_UNREADABLE = {
    # bytes after the header, and the message they must give at line 3
    "invalid-utf8": (b"g1,a,1.0\n\xff\xfe,b,2.0\n", "line 3: invalid UTF-8 byte 0xff"),
    "field-too-long": (b"g1,a,1.0\ng1," + b"x" * 200_000 + b",2.0\n",
                       "line 3: field larger than field limit"),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
@pytest.mark.parametrize("subcommand", ["sample", "validate"])
def test_unreadable_input_is_a_parse_error(tmp_path, case, subcommand):
    body, message = _UNREADABLE[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(b"ID,QUAL,Strength\n" + body)
    argv = ["sample", str(path)] if subcommand == "sample" else [
        "validate", "--quick", "--input", str(path)]
    result = run_cli(*argv)
    assert result.returncode == 2, result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr


# ids with commas, quotes, spaces, CR, LF and multi-byte characters; csv.writer
# quotes those holding , " CR or LF, in the input and in the output alike
_CSV_IDS = st.text(alphabet=st.sampled_from(list('ab ,"\r\né日')), max_size=5)


def _csv_line(fields):
    """``fields`` as csv.writer writes them, ended by LF instead of CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[: -len("\r\n")] + "\n"


@st.composite
def _cli_tables(draw):
    pairs = draw(st.lists(st.tuples(_CSV_IDS, _CSV_IDS), min_size=1, max_size=30,
                          unique=True))
    spec = ModelSpec(draw(st.sampled_from(list(Family))))
    sign = spec.strength_sign or 1.0
    strengths = draw(st.lists(st.floats(0.1, 5.0), min_size=len(pairs), max_size=len(pairs)))
    keys = draw(st.none() | st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                                     min_size=len(pairs), max_size=len(pairs)))
    rows = [Row(g, l, sign * s) for (g, l), s in zip(pairs, strengths)]
    return spec, rows, keys


@settings(max_examples=60, deadline=None)
@given(_cli_tables(), st.integers(0, 2**32), st.integers(1, 4), st.booleans())
def test_sample_output_matches_the_fold_reference(table, seed, n_replicates, with_key):
    """``sample`` bytes equal each replicate's row-by-row ``fold_rows``, sorted and
    written as csv.writer writes them, and csv.reader reads back the winners."""
    spec, rows, keys = table
    expected, winner_records = [], []
    for r in range(n_replicates):
        if keys is None:
            keyed = assign_keys(rows, spec, SeedContext(seed, r))
        else:  # injected keys stand in for every replicate's
            keyed = [KeyedRow(row, 0.5, k) for row, k in zip(rows, keys)]
        winners = fold_rows(keyed, spec.orientation)
        for gid in sorted(winners):
            w = winners[gid]
            record = ([str(r)] if n_replicates > 1 else []) + [gid, w.label]
            winner_records.append(record)
            expected.append(_csv_line(record + ([repr(w.key)] if with_key else [])))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "t.csv", Path(tmp) / "out.txt"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ID", "QUAL", "Strength"] + (["KEY"] if keys is not None else []))
            for i, row in enumerate(rows):
                writer.writerow([row.group_id, row.label, repr(row.strength)]
                                + ([repr(keys[i])] if keys is not None else []))
        argv = ["sample", str(path), "-o", str(out), "--model", spec.family.value,
                "--seed", str(seed), "--replicates", str(n_replicates)]
        argv += ["--with-key"] if with_key else []
        argv += ["--inject-keys"] if keys is not None else []
        assert cli.main(argv) == 0
        assert out.read_bytes() == "".join(expected).encode("utf-8")
        with open(out, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
    assert [record[: len(record) - with_key] for record in records] == winner_records


def _main(argv):
    """``cli.main(argv)`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ids as in _CSV_IDS, but with no CR or LF, which would split an update command
_LINE_IDS = st.text(alphabet=st.sampled_from(list('ab ,"é日')), max_size=5)
_STRENGTH_TEXTS = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1_0", " 2.5", "0", "-1.5", "1.5", "x", ""]),
)


@st.composite
def _command_tables(draw):
    """Rows with distinct (ID, QUAL) pairs, each as its CSV record's fields, extras included."""
    pairs = draw(st.lists(st.tuples(_LINE_IDS, _LINE_IDS), min_size=1, max_size=8,
                          unique=True))
    return [[g, l, draw(_STRENGTH_TEXTS)] + draw(st.lists(_LINE_IDS, max_size=2))
            for g, l in pairs]


@settings(max_examples=60, deadline=None)
@given(_command_tables(), st.sampled_from([f.value for f in Family]), st.integers(0, 2**32))
def test_update_reads_each_row_as_sample_does(rows, model, seed):
    """One table as a CSV and as one UPSERT per row: each row is accepted by
    ``sample`` (as a one-row file) and by ``update`` alike, or rejected by both
    with one message; the accepted rows' ``sample --with-key`` lines are the
    heads of each group's last ``update`` line."""
    common = ["--model", model, "--seed", str(seed)]
    header = "ID,QUAL,Strength\n"
    records = [_csv_line(row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path, commands = Path(tmp) / "t.csv", Path(tmp) / "commands.txt"
        commands.write_text("".join("UPSERT " + r for r in records), encoding="utf-8")
        code, out, err = _main(["update", str(commands), *common])
        assert code == (4 if err else 0)
        warnings = {}
        for line in err.splitlines():
            line_no, message = re.fullmatch(r"warning: line (\d+): (.*)", line).groups()
            warnings[int(line_no)] = message
        accepted = []
        for line_no, record in enumerate(records, start=1):
            path.write_text(header + record, encoding="utf-8")
            code, _, sample_err = _main(["sample", str(path), *common])
            assert (code == 0) == (line_no not in warnings), (record, sample_err, warnings)
            if code:  # the same message, less sample's "error: " and "line 2: "
                message = re.sub(r"^error: (line 2: )?", "", sample_err.rstrip("\n"))
                assert warnings[line_no] == message
            else:
                accepted.append(record)
        path.write_text(header + "".join(accepted), encoding="utf-8")
        code, sample_out, _ = _main(["sample", str(path), "--with-key", *common])
    assert code == 0
    # the winner's "gid,label,key" head, before " <case> <rescan> cmp=<n>"; a row's
    # first upsert has version 0, the version sample uses
    last = {}
    for line in out.splitlines():
        head = line.rsplit(" ", 3)[0]
        last[next(csv.reader([head]))[0]] = head
    assert sample_out.splitlines() == [last[gid] for gid in sorted(last)]


@pytest.mark.parametrize("flag", ["--scale", "--offset"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_model_constant_is_a_domain_error(worked_example_csv, flag, value):
    result = run_cli("sample", str(worked_example_csv), "--model", "gumbel1", f"{flag}={value}")
    assert result.returncode == 3
    assert "must be finite" in result.stderr


class TestUpdate:
    def test_upsert_then_delete(self):
        result = run_cli("update", "--model", "gumbel1",
                         stdin="UPSERT g1,a,2.0\nDELETE g1,a\n")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("g1,a,") and "new-winner" in lines[0]
        assert lines[1].startswith("g1,-,-") and "group-removed" in lines[1]

    def test_delete_nonwinner_reports_no_rescan(self):
        stdin = "UPSERT g1,top,10.0\nUPSERT g1,weak,-50.0\nDELETE g1,weak\n"
        result = run_cli("update", "--model", "gumbel1", stdin=stdin)
        assert result.returncode == 0
        last = result.stdout.splitlines()[-1]
        assert "delete-nonwinner" in last and "no-rescan" in last
        assert last.startswith("g1,top,")

    def test_malformed_line_warns_and_exits_4(self):
        result = run_cli("update", stdin="FROB g1,a\nUPSERT g1,a,1.0\n")
        assert result.returncode == 4
        assert "warning" in result.stderr
        assert len(result.stdout.splitlines()) == 1  # the valid command still ran

    def test_malformed_line_names_its_line_once(self):
        result = run_cli("update", stdin="UPSERT g1,a,1.0\nbogus line\n")
        assert result.returncode == 4
        assert result.stderr == "warning: line 2: malformed command 'bogus line'\n"

    @pytest.mark.parametrize("from_file", [False, True])
    def test_invalid_utf8_line_is_skipped_with_a_warning(self, tmp_path, from_file):
        stream = b"UPSERT g1,a,1.0\nUPSERT \xff\xfe,b,2.0\nUPSERT g1,\xc3\xa9,3.0\r\n"
        path = tmp_path / "commands.txt"
        path.write_bytes(stream)
        result = subprocess.run(
            [sys.executable, "-m", "keyrace", "update", *([str(path)] if from_file else [])],
            input=None if from_file else stream, capture_output=True, timeout=300,
        )
        assert result.returncode == 4
        assert result.stderr == b"warning: line 2: invalid UTF-8 byte 0xff\n"
        lines = result.stdout.decode("utf-8").splitlines()
        assert len(lines) == 2 and lines[1].startswith("g1,")  # the lines around it still ran

    def test_delete_missing_row_warns(self):
        result = run_cli("update", stdin="DELETE g1,ghost\n")
        assert result.returncode == 4
        # the message itself, not KeyError's quoted repr of it
        assert result.stderr == "warning: line 1: no row (group_id='g1', label='ghost')\n"

    @pytest.mark.parametrize("command, row", [
        ('UPSERT g1,"x,y",1.0', 'g1,"x,y",1.0'),  # a quoted comma
        ("UPSERT g1, a,1.0", "g1, a,1.0"),  # a leading space is kept
        ('UPSERT g2,"q""t",2.0', 'g2,"q""t",2.0'),  # a doubled quote
        ("UPSERT g1,a,1.0,extra", "g1,a,1.0,extra"),  # an extra field is ignored
    ])
    def test_fields_read_as_sample_reads_them(self, tmp_path, command, row):
        result = run_cli("update", "--model", "gumbel1", "--seed", "2", stdin=command + "\n")
        assert result.returncode == 0, result.stderr
        path = tmp_path / "one.csv"
        path.write_text(f"ID,QUAL,Strength\n{row}\n", encoding="utf-8")
        sample = run_cli("sample", str(path), "--model", "gumbel1", "--seed", "2", "--with-key")
        assert sample.returncode == 0, sample.stderr
        # the winner's "gid,label,key" head, before " <case> <rescan> cmp=<n>"
        assert result.stdout.rsplit(" ", 3)[0] == sample.stdout.rstrip("\n")

    def test_replay_matches_sample(self, tmp_path):
        # a script that upserts each row exactly once and deletes a few:
        # survivors keep version 0, so a fresh `sample` run must agree
        rng = np.random.default_rng(7)
        rows = [(f"g{i % 17:03d}", f"q{i:04d}", float(rng.normal())) for i in range(1000)]
        deleted = set(rng.choice(len(rows), size=200, replace=False).tolist())
        script = [f"UPSERT {g},{q},{s!r}" for g, q, s in rows]
        script += [f"DELETE {rows[i][0]},{rows[i][1]}" for i in sorted(deleted)]
        result = run_cli("update", "--model", "gumbel1", "--seed", "3",
                         stdin="\n".join(script) + "\n")
        assert result.returncode == 0, result.stderr
        final_winners = {}
        for line in result.stdout.splitlines():
            head = line.split(" ")[0]
            gid, label, key = head.split(",")
            if label == "-":
                final_winners.pop(gid, None)
            else:
                final_winners[gid] = f"{gid},{label}"

        survivors = [rows[i] for i in range(len(rows)) if i not in deleted]
        path = tmp_path / "final.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ID", "QUAL", "Strength"])
            writer.writerows([(g, q, repr(s)) for g, q, s in survivors])
        sample_out = run_cli("sample", str(path), "--model", "gumbel1", "--seed", "3")
        assert sample_out.returncode == 0
        assert sorted(final_winners.values()) == sample_out.stdout.splitlines()


@pytest.mark.parametrize("command", ["sample", "update"])
def test_reader_closing_stdout_early_ends_quietly(tmp_path, command):
    # each writes well over a pipe's 64 KiB: sample in one write per replicate
    argv = ["update"]
    if command == "sample":
        table = write_random_table(tmp_path / "t.csv", 30_000, 30_000, seed=3)
        argv = ["sample", "--model", "gumbel1", "--replicates", "3", str(table)]
    commands = tmp_path / "commands.txt"
    commands.write_text("".join(f"UPSERT g{i},q,1.0\n" for i in range(20_000)))
    with open(commands, "rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "keyrace", *argv],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()  # then close, as `| head -1` does
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 0
    assert err == b""


class TestValidate:
    def test_quick_battery_passes(self):
        result = run_cli("validate", "--quick", "--seed", "1")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "reduced-power" in result.stdout
        assert "CRITERION worked-example PASS" in result.stdout
        assert "FAIL" not in result.stdout

    def test_zero_strength_fixture_domain_error(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("ID,QUAL,Strength\ng1,a,1.0\ng1,b,0.0\n")
        result = run_cli("validate", "--model", "frechet2", "--quick",
                         "--input", str(path))
        assert result.returncode == 3
        assert "zero mass" in result.stderr

    def test_input_file_groups_pass(self, tmp_path):
        path = tmp_path / "groups.csv"
        path.write_text(
            "ID,QUAL,Strength\n"
            "g1,a,1.0\ng1,b,2.0\ng1,c,3.0\n"
            "g2,x,5.0\ng2,y,5.0\n"
        )
        result = run_cli("validate", "--model", "canonical", "--quick",
                         "--input", str(path))
        assert result.returncode == 0, result.stdout
        assert "CRITERION group-g1 PASS" in result.stdout
        assert "CRITERION group-g2 PASS" in result.stdout
        assert result.stdout.endswith("\n2/2 criteria passed\n")

    def test_input_file_groups_race_under_their_own_ids(self, tmp_path, capsys):
        path = tmp_path / "twins.csv"
        path.write_text("ID,QUAL,Strength\ng1,a,1.0\ng1,b,2.0\ng2,a,1.0\ng2,b,2.0\n")
        assert cli.main(["validate", "--quick", "--input", str(path)]) == 0
        p_values = re.findall(r"CRITERION group-g[12] PASS p=(\S+)", capsys.readouterr().out)
        assert len(p_values) == 2 and p_values[0] != p_values[1]

    @pytest.mark.parametrize("rows, one_cell", [
        ("g1,a,1.0\ng2,a,1.0\ng2,b,2.0\n", "g1"),
        # weight 1e-9 gives label a an expected count far below 5, pooled with b's
        ("g1,a,1e-9\ng1,b,1.0\n", "g1"),
        ("g2,a,1e-9\ng2,b,1.0\ng1,a,1.0\ng1,b,2.0\n", "g2"),
    ], ids=["one-row-group", "tiny-weight", "later-group-tiny-weight"])
    def test_input_group_of_one_cell_passes_with_no_p_value(self, tmp_path, capsys, rows,
                                                            one_cell):
        path = tmp_path / "t.csv"
        path.write_text("ID,QUAL,Strength\n" + rows)
        assert cli.main(["validate", "--quick", "--input", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"CRITERION group-{one_cell} PASS p=NA" in out
        n = len({row.split(",")[0] for row in rows.splitlines()})
        assert out[-1] == f"{n}/{n} criteria passed"

    def test_input_labels_pooled_into_cells_of_five_expected_wins(self):
        # a and b expect ~1e-5 wins each, so they are pooled with c: two cells, one df
        table = CodedTable.from_ids(["g"] * 4, ["a", "b", "c", "d"], [1e-9, 1e-9, 1.0, 1.0])
        (result,) = validation.check_input_groups(table, ModelSpec(Family.CANONICAL), 0, True)
        assert result.name == "group-g" and result.p_value is not None
        assert " on 1 df " in result.detail

    def test_input_groups_are_tested_at_the_battery_level(self, tmp_path, capsys):
        # g0482's p lies between 1e-3 / 2 groups and 1e-3, so only a test of the whole
        # table at 1e-3 passes it; g1239 fails at either level
        path = tmp_path / "two.csv"
        path.write_text("ID,QUAL,Strength\n"
                        + "".join(f"{g},{q},{s}\n" for g in ("g0482", "g1239")
                                  for q, s in (("a", 1), ("b", 2), ("c", 3))))
        assert cli.main(["validate", "--quick", "--input", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "CRITERION group-g0482 PASS p=0.000929699",
            "CRITERION group-g1239 FAIL p=1.8034e-05",
            "  detail: chi-square 21.846 on 2 df over 10000 races, "
            "per-group level 0.001/2 = 0.0005",
            "1/2 criteria passed",
        ]

    @pytest.mark.parametrize("later_group, message", [
        ("g2,a,-1.0", "error: canonical: strength is the weight itself and must be positive, "
                      "got -1.0 (group_id='g2', label='a')\n"),
    ], ids=["bad-strength"])
    def test_a_later_group_error_comes_before_any_criterion(self, tmp_path, later_group,
                                                            message):
        # g2 is listed first but checked second, by id; g1 would pass
        path = tmp_path / "later.csv"
        path.write_text(f"ID,QUAL,Strength\n{later_group}\ng2,b,1.0\ng1,a,1.0\ng1,b,2.0\n")
        result = run_cli("validate", "--quick", "--input", str(path))
        assert (result.returncode, result.stderr) == (3, message)
        assert "CRITERION" not in result.stdout

    def test_a_quick_run_that_fails_prints_nothing(self, tmp_path, capsys):
        # the --quick warning comes once every result is in, just before the first criterion
        path = tmp_path / "bad.csv"
        path.write_text("ID,QUAL,Strength\ng1,a,1.0\ng1,b,-1.0\n")
        assert cli.main(["validate", "--quick", "--input", str(path)]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().out == ""


def test_worked_example_fixture_roundtrip(tmp_path):
    # the fixture writer and the CLI reader agree on the format
    from keyrace.cli import read_table

    path = write_worked_example_csv(tmp_path / "w.csv")
    table = read_table(str(path), inject_keys=True)
    assert len(table.group_ids) == 14
    assert table.keys is not None


def _readme_command_lines():
    """The ``keyrace ...`` lines of README's "Command line" block, comments and redirects cut."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [re.sub(r"\s#.*|\s<\s*\S+", "", line).strip() for line in block.splitlines()]
    return [line for line in lines if line.startswith("keyrace ")]


def test_readme_command_lines_parse():
    from keyrace.cli import build_parser

    lines = _readme_command_lines()
    assert len(lines) >= 5
    for line in lines:
        # each [...] is tried both with and without its contents
        parts = re.split(r"\[([^\[\]]*)\]", line)
        optional = parts[1::2]
        for keep in itertools.product([False, True], repeat=len(optional)):
            text = parts[0] + "".join(
                (opt if k else "") + rest for opt, k, rest in zip(optional, keep, parts[2::2])
            )
            argv = shlex.split(text)[1:]
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README line does not parse: {text!r}")


def test_documented_subcommands_are_the_parsers():
    """The ``cli`` docstring's Subcommands list and README's command block name exactly
    the subcommands that :func:`build_parser` has."""
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    listed = cli.__doc__.split("Subcommands\n-----------\n", 1)[1].split("\n\n", 1)[0]
    in_docstring = {line.split()[0] for line in listed.splitlines() if not line.startswith(" ")}
    in_readme = {line.split()[1] for line in _readme_command_lines()}
    assert sorted(in_docstring) == sorted(in_readme) == sorted(subparsers.choices)


def test_readme_python_block_runs(capsys):
    """README's library example runs against the API as it is."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out in ("red\n", "blue\n")


def _piece_table_lines():
    """Unique rows filling a little over three read blocks, so `--threads 2` reads the file
    in two pieces and `--threads 3` in three."""
    rng = np.random.default_rng(15)
    lines, size = ["ID,QUAL,Strength"], 0
    while size < 3 * cli._BLOCK_BYTES + 4096:  # room for a shorter row in place of one
        i = len(lines) - 1
        lines.append(f"g{i // 20:05d},q{i % 20:02d},{rng.random()!r}")
        size += len(lines[-1]) + 1
    return lines


def _with_row(lines, at, row):
    return lines[:at] + [row] + lines[at + 1:]


_PIECE_CASES = {  # a row replaced before the first cut, or after the last one
    "bad-strength-before-cut": (lambda lines: _with_row(lines, 10, "g00000,q09,x"), 2),
    "bad-strength-after-cut": (lambda lines: _with_row(lines, -10, "gz,q00,x"), 2),
    "repeat-across-cut": (lambda lines: _with_row(lines, -10, lines[5]), 2),
    "quoted-field-after-cut": (lambda lines: _with_row(lines, -10, '"gz,1",q00,1.0'), 0),
}


@pytest.mark.parametrize("case", list(_PIECE_CASES))
def test_sample_in_pieces_matches_one_process(tmp_path, case):
    """Every piece count gives the bytes, stderr and exit code of `--threads 1`, and no
    forked reader outlives the command: communicate() returns within its timeout."""
    edit, exit_code = _PIECE_CASES[case]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(edit(_piece_table_lines())) + "\n", encoding="utf-8")
    runs = []
    for threads in (1, 2, 3):
        proc = subprocess.run([sys.executable, "-m", "keyrace", "sample", "--threads",
                               str(threads), str(path)], capture_output=True, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0][0] == exit_code, runs[0][2]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_sample_in_pieces_to_a_closed_pipe(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n".join(_piece_table_lines()) + "\n", encoding="utf-8")
    runs = []
    for threads in (1, 2):
        command = (f"set -o pipefail; {shlex.quote(sys.executable)} -m keyrace sample "
                   f"--replicates 3 --threads {threads} {shlex.quote(str(path))} | head -1")
        proc = subprocess.run(["bash", "-c", command], capture_output=True, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0][0] == 0 and runs[0][1].count(b"\n") == 1 and runs[0][2] == b""
    assert runs[1] == runs[0]


@pytest.mark.parametrize("n_groups, small", [(20, True), (4000, False)],
                         ids=["under-the-stdout-buffer", "over-the-pipe-buffer"])
def test_python_m_writes_to_a_pipe_what_main_writes_to_a_file(tmp_path, n_groups, small):
    """The process's exit flushes all of stdout, read here to EOF: less than stdout's
    8 KiB buffer, which only the flush at exit writes, and more than a 64 KiB pipe."""
    path = write_random_table(tmp_path / "t.csv", 10 * n_groups, n_groups, seed=3)
    argv = ["sample", "--model", "gumbel1", "--with-key", "--replicates", "2", str(path)]
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "-o", str(out)]) == cli.EXIT_OK
    expected = out.read_bytes()
    assert (len(expected) < 8 << 10) if small else (len(expected) > 64 << 10)
    proc = subprocess.run([sys.executable, "-m", "keyrace", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


@pytest.mark.parametrize("body, argv, code", [
    ("g1,a,1.0\ng1,b,x\n", [], cli.EXIT_PARSE),
    ("g1,a,1.0\ng1,b,0.0\n", ["--model", "frechet2"], cli.EXIT_DOMAIN),
], ids=["bad-strength", "domain-error"])
def test_python_m_exits_with_mains_code_and_message(tmp_path, capsys, body, argv, code):
    path = tmp_path / "t.csv"
    path.write_text("ID,QUAL,Strength\n" + body, encoding="utf-8")
    assert cli.main(["sample", *argv, str(path)]) == code
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1, message
    proc = subprocess.run([sys.executable, "-m", "keyrace", "sample", *argv, str(path)],
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == (code, b"", message)


def test_run_freezes_only_after_main_returns(worked_example_csv, monkeypatch, capsys):
    """run exits with main's code after one freeze; argparse's exit skips the freeze."""
    with mock.patch.object(cli.gc, "freeze") as freeze:
        monkeypatch.setattr(sys, "argv", ["keyrace", "sample", "--bogus"])
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == 2 and freeze.call_count == 0
        monkeypatch.setattr(sys, "argv", ["keyrace", "sample", "--inject-keys",
                                          str(worked_example_csv)])
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == cli.EXIT_OK and freeze.call_count == 1
    assert capsys.readouterr().out == EXPECTED_WORKED_OUTPUT


def _open_error(path, mode: str) -> str:
    """The ``error:`` line of the OSError that opening ``path`` raises."""
    with pytest.raises(OSError) as raised:
        open(path, mode)
    return f"error: {raised.value}\n"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_update_input_not_opened_is_a_parse_error(tmp_path, capsys, where):
    path = tmp_path / "nope.txt" if where == "missing" else tmp_path
    assert cli.main(["update", str(path)]) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", _open_error(path, "rb"))


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_sample_output_not_opened_is_a_parse_error(worked_example_csv, tmp_path, capsys,
                                                   where):
    out = tmp_path / "nope" / "out.txt" if where == "missing-directory" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["sample", "--inject-keys", str(worked_example_csv), "-o", str(out)]) == (
        cli.EXIT_PARSE)
    assert capsys.readouterr() == ("", _open_error(out, "w"))
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize("where", ["missing-directory", "under-a-file", "a-directory"])
def test_sample_output_directory_is_checked_before_the_table_is_read(worked_example_csv,
                                                                    tmp_path, capsys,
                                                                    monkeypatch, where):
    """An ``-o`` whose directory does not exist, or that is a directory, exits 2 with the
    error opening it gives, naming the whole path, before the table is read, and creates
    or truncates no file."""
    if where == "missing-directory":
        out = tmp_path / "nope" / "out.txt"
    elif where == "under-a-file":  # a path component is a file
        (tmp_path / "file").write_text("kept")
        out = tmp_path / "file" / "nope" / "out.txt"
    else:
        out = tmp_path

    def unread(*args, **kwargs):
        raise AssertionError("the table was read")

    monkeypatch.setattr(cli, "read_table", unread)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["sample", str(worked_example_csv), "-o", str(out)]) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", _open_error(out, "w"))
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [["sample"], ["validate", "--quick", "--input"]],
                         ids=["sample", "validate"])
def test_missing_table_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "nope.csv"
    assert cli.main([*argv, str(path)]) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", _open_error(path, "rb"))


@pytest.mark.parametrize("argv", [["sample", "TABLE"], ["update", "TABLE"], ["validate"],
                                  ["validate", "--input", "TABLE"]])
def test_bad_scale_is_a_domain_error_in_every_command(worked_example_csv, capsys, argv):
    argv = [str(worked_example_csv) if arg == "TABLE" else arg for arg in argv]
    assert cli.main([*argv, "--model", "gumbel1", "--scale", "-1"]) == cli.EXIT_DOMAIN
    assert capsys.readouterr() == ("", "error: scale_c must be positive for gumbel1, got -1.0\n")


@pytest.mark.parametrize("model, rows, criterion", [
    ("gumbel1", "g,a,800\ng,b,1\n", "CRITERION group-g PASS p=NA"),
    ("canonical", "g,a,1e308\ng,b,1e308\n", "CRITERION group-g PASS p=0.88866"),
], ids=["gumbel1-800", "canonical-1e308"])
def test_validate_input_takes_weights_past_the_float_range(tmp_path, capsys, model, rows,
                                                           criterion):
    """A table whose weights overflow float64 is one that ``sample`` races: ``validate``
    tests it too, with no overflow or invalid value on the way."""
    path = tmp_path / "t.csv"
    path.write_text("ID,QUAL,Strength\n" + rows, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sample", "--model", model, str(path)]) == cli.EXIT_OK
        assert cli.main(["validate", "--quick", "--model", model, "--input", str(path)]) == (
            cli.EXIT_OK)
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-2:] == [criterion, "1/1 criteria passed"]
