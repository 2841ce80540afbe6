"""Tests of the benchmark's own generators and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from keyrace import cli

SMALL = {
    "grouped-csv": lambda seed, path: workloads.grouped_csv(seed, path, n_groups=40),
    "unique-csv": lambda seed, path: workloads.unique_csv(seed, path, n_rows=600),
    "update-stream": lambda seed, path: workloads.update_stream(seed, path, n_commands=800),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_are_byte_identical_for_a_seed(tmp_path, name):
    a = SMALL[name](7, tmp_path / "a")
    b = SMALL[name](7, tmp_path / "b")
    c = SMALL[name](8, tmp_path / "c")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert a.provenance == b.provenance
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


def test_replicate_input_is_fixed_by_the_seed():
    a, b = workloads.replicate_race(3, draws=10), workloads.replicate_race(3, draws=10)
    assert a.provenance["sha256"] == b.provenance["sha256"]
    assert np.array_equal(a.weights, b.weights)
    assert workloads.replicate_race(4, draws=10).provenance["sha256"] != a.provenance["sha256"]


def test_update_stream_deletes_only_live_rows(tmp_path):
    stream = SMALL["update-stream"](5, tmp_path / "s")
    live = set()
    for cmd in stream.commands:
        if cmd[0] == "UPSERT":
            live.add(cmd[1:3])
        else:
            assert cmd[1:3] in live
            live.remove(cmd[1:3])
    assert stream.provenance["input.deletes"] > 0


def _cli_output(table, tmp_path, *extra):
    out = tmp_path / f"out{'-'.join(extra)}.txt"
    argv = ["sample", "--model", table.model, "--seed", "11",
            "--replicates", str(table.replicates), *extra, str(table.path), "-o", str(out)]
    assert cli.main(argv) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["grouped-csv", "unique-csv"])
def test_checker_passes_cli_output_and_flags_a_reordered_line(tmp_path, name):
    table = SMALL[name](9, tmp_path / "in.csv")
    text = _cli_output(table, tmp_path)
    assert checks.check_sample_output(text, table, 11, spot_seed=1) == []

    lines = text.splitlines(keepends=True)
    swapped = "".join([lines[1], lines[0]] + lines[2:])
    problems = checks.check_sample_output(swapped, table, 11, spot_seed=1)
    assert any("out of order" in p for p in problems)


def test_checker_flags_a_wrong_winner_in_a_spot_checked_group(tmp_path):
    table = SMALL["grouped-csv"](9, tmp_path / "in.csv")
    text = _cli_output(table, tmp_path)
    lines = text.splitlines(keepends=True)
    largest = max(set(table.group_ids), key=lambda g: (table.group_ids.count(g), g))
    i = next(n for n, line in enumerate(lines) if line.startswith(largest + ","))
    label = lines[i].rstrip("\n").split(",")[1]
    other = next(l for g, l in zip(table.group_ids, table.labels) if g == largest and l != label)
    lines[i] = f"{largest},{other}\n"
    problems = checks.check_sample_output("".join(lines), table, 11, spot_seed=1)
    assert any(largest in p and "reference" in p for p in problems)


def test_threads_one_and_two_give_identical_bytes(tmp_path):
    table = SMALL["grouped-csv"](13, tmp_path / "in.csv")
    one = _cli_output(table, tmp_path, "--threads", "1")
    assert one == _cli_output(table, tmp_path, "--threads", "2")


def test_update_checker_accepts_cli_output_and_rejects_a_wrong_last_winner(tmp_path, capsys):
    stream = SMALL["update-stream"](21, tmp_path / "cmds.txt")
    capsys.readouterr()
    assert cli.main(["update", "--model", stream.model, "--seed", "3", str(stream.path)]) == 0
    text = capsys.readouterr().out
    assert checks.check_update_output(text, stream, 3) == []

    lines = text.splitlines(keepends=True)
    live = checks.final_rows(stream.commands)
    n = max(i for i, cmd in enumerate(stream.commands) if cmd[1] in live and len(live[cmd[1]]) > 1)
    gid, label = lines[n].split(",")[:2]
    other = next(l for l in live[gid] if l != label)
    lines[n] = lines[n].replace(f"{gid},{label},", f"{gid},{other},", 1)
    assert any(gid in p for p in checks.check_update_output("".join(lines), stream, 3))
    assert checks.check_update_output(text + "extra\n", stream, 3)


def test_replicate_checker_flags_a_planted_wrong_winner():
    from keyrace import ModelSpec, replicate_winners

    race = workloads.replicate_race(2, draws=20_000)
    winners = replicate_winners(ModelSpec(race.model), race.labels, race.weights, 2, race.draws)
    assert checks.check_replicate_winners(winners, race, 2, spot_seed=0, n_spot=50) == []
    planted = winners.copy()
    planted[:] = (winners + 1) % len(race.labels)
    assert checks.check_replicate_winners(planted, race, 2, spot_seed=0, n_spot=50)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "a", "start": 3.0, "end": 6.0, "parent": 0},  # overlaps: two threads
    ]
    assert tracing.self_times(spans) == {"root": 5.0, "a": 6.0}
    assert tracing.busy_times(spans)["a"] == 5.0


def test_benchmark_json_keeps_the_contract_the_runner_relies_on():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert {w["name"] for w in spec["workloads"]} == {"grouped-csv", "unique-csv", "replicate-race"}


@pytest.mark.parametrize("kernel", ["table", "array"])
def test_reference_kernel_reports_its_time(tmp_path, kernel):
    import reference

    out = tmp_path / "reference.json"
    assert reference.main([kernel, str(out)]) == 0
    assert json.loads(out.read_text())["seconds"] > 0
