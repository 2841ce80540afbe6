"""keyrace benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grouped-csv --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; keyrace is imported from ``src``.
Every workload is a closed loop with a single client.  With ``--trace 0``
the last line carries the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  Earlier lines are a readable
summary; the full record (environment, input provenance, spans) goes to
``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# A shared host's speed drifts by a quarter or more over minutes and flips
# between faster and slower spells lasting seconds.  So each cycle of a run
# times fresh set-up processes and one bulk job between two runs of a fixed
# reference kernel (reference.py), and scales every time in the cycle to
# the kernel's nominal speed by the mean of those two kernel runs.  Each
# metric is the median of the scaled samples over the whole run.
MIN_CYCLES = 4
SETUP_PER_CYCLE = 2
TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 150.0
# seconds each reference kernel takes at the nominal speed, about its
# median on a 2-vCPU Xeon host; only a scale, so figures read as seconds
REFERENCE_NOMINAL_S = {"table": 1.0, "array": 0.5}
TIMING_NOTE = (
    "end-to-end times are medians over one run of wall-clock samples, each scaled "
    "to the nominal host speed by the reference kernel runs before and after its "
    "cycle; raw wall-clock samples are kept beside them; no hardware counters or "
    "page-cache drops are used"
)


@dataclasses.dataclass
class Outcome:
    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    info: dict = dataclasses.field(default_factory=dict)
    spans: list[dict] = dataclasses.field(default_factory=list)

    def count(self, ops: int, problems: list[str]) -> None:
        """Record ``ops`` attempted operations, all failed if there are problems."""
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems[:10])


@dataclasses.dataclass
class Child:
    wall: float
    code: int
    rss_mb: float
    stderr: str

    def problems(self, what: str) -> list[str]:
        if self.code == 0:
            return []
        return [f"{what} exited {self.code}: {self.stderr.strip()[-300:]}"]


def run_child(cmd: list[str], workdir: Path, stdout: Path | None = None) -> Child:
    """Run one child to completion; wall time and peak RSS come from ``wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    err_path = workdir / "child.stderr"
    with open(stdout or os.devnull, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:  # interrupted before the child ended
                proc.kill()
                proc.wait()
    stderr = err_path.read_text(errors="replace")[-2000:]
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """Samples of one untraced run, gathered by :meth:`interleave`.

    ``kernel`` names the reference kernel whose work matches the bulk job's:
    ``table`` for the CSV jobs, ``array`` for the numpy-only one.
    """

    def __init__(self, workdir: Path, setup_cmd: list[str], kernel: str) -> None:
        self.workdir = workdir
        self.setup_cmd = setup_cmd
        self.kernel = kernel
        self.reference: list[float] = []  # kernel seconds, at each cycle boundary
        self.setup: list[float] = []  # raw wall seconds
        self.bulk: list[float] = []
        self.setup_nominal: list[float] = []  # scaled to the nominal speed
        self.bulk_nominal: list[float] = []
        self.rss: list[float] = []
        # the first set-up process may compile bytecode; it is not timed
        first = run_child(setup_cmd, workdir)
        if first.code != 0:
            raise RuntimeError(f"set-up command failed: {first.stderr.strip()[-300:]}")

    def _run_reference(self) -> float:
        out = self.workdir / "reference.json"
        child = run_child(_python(str(HERE / "reference.py"), self.kernel, str(out)),
                          self.workdir)
        if child.code != 0:
            raise RuntimeError(f"reference kernel failed: {child.stderr.strip()[-300:]}")
        self.reference.append(json.loads(out.read_text(encoding="utf-8"))["seconds"])
        return self.reference[-1]

    def interleave(self, seconds: float, job) -> None:
        """Cycle set-up processes, ``job()`` (which runs one bulk job and
        returns its Child) and a reference run until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        before = self._run_reference()
        cycles = 0
        while cycles < MIN_CYCLES or time.perf_counter() < deadline:
            setups = [run_child(self.setup_cmd, self.workdir).wall
                      for _ in range(SETUP_PER_CYCLE)]
            child = job()
            after = self._run_reference()
            scale = REFERENCE_NOMINAL_S[self.kernel] / ((before + after) / 2)
            self.setup.extend(setups)
            self.setup_nominal.extend(wall * scale for wall in setups)
            self.bulk.append(child.wall)
            self.bulk_nominal.append(child.wall * scale)
            self.rss.append(child.rss_mb)
            before = after
            cycles += 1

    def metrics(self, items_per_job: int) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_nominal),
            "items_per_s": items_per_job / statistics.median(self.bulk_nominal),
            "peak_rss_mb": statistics.median(self.rss),
        }

    def info(self, items_per_job: int) -> dict:
        wall = {"wall_setup_s": statistics.median(self.setup),
                "wall_items_per_s": items_per_job / statistics.median(self.bulk)}
        return {"samples": {"bulk_jobs": len(self.bulk), "setup_processes": len(self.setup),
                            "reference_runs": len(self.reference)},
                "wall": wall, "bulk_s": self.bulk, "setup_s": self.setup,
                "reference_s": self.reference, "bulk_nominal_s": self.bulk_nominal,
                "setup_nominal_s": self.setup_nominal, "rss_mb": self.rss}


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


# --------------------------------------------------------------- CSV workloads


def run_table(table, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    import checks
    import tracing

    out = Outcome(info={"provenance": table.provenance})
    rows = len(table.group_ids)
    ops = rows * table.replicates
    cmd = _python("-m", "keyrace", "sample", "--model", table.model, "--seed", str(seed),
                  "--replicates", str(table.replicates), "--threads", str(table.threads))
    reference: list[tuple[str, list[str]]] = []  # the first output and its problems

    def cli_run(argv: list[str], what: str) -> Child:
        """One CLI run on the table; the first output is checked in full,
        every later one must reproduce it byte for byte and shares its verdict."""
        result = workdir / "out.txt"
        child = run_child(argv + [str(table.path), "-o", str(result)], workdir)
        text = result.read_text(encoding="utf-8") if child.code == 0 else ""
        result.unlink(missing_ok=True)
        problems = child.problems(what)
        if not problems and not reference:
            verdict = checks.check_sample_output(text, table, seed, spot_seed=seed + 1)
            reference.append((text, verdict))
        if not problems:
            first_text, first_problems = reference[0]
            problems = (first_problems if text == first_text
                        else [f"{what} output differs from the first run"])
        out.count(ops, problems)
        return child

    if trace:
        probe = _python(str(HERE / "probe.py"))
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(cli_run(cmd, "keyrace sample").wall)
            traced.append(cli_run(probe + ["cli", str(workdir / "cli.json"), "--"] + cmd[3:],
                                  "traced CLI probe").wall)
        lib = run_child(probe + ["lib-sample", str(workdir / "lib.json"), str(table.path),
                                 table.model, str(table.replicates), str(seed)], workdir)
        out.count(ops, lib.problems("library probe"))
        if out.failed:
            return out
        cli_spans = tracing.load(workdir / "cli.json")["spans"]
        lib_trace = tracing.load(workdir / "lib.json")
        out.problems.extend(lib_trace["problems"])
        out.spans = cli_spans + lib_trace["spans"]
        cli_busy = tracing.busy_times(cli_spans)
        lib_busy = tracing.busy_times(lib_trace["spans"])
        warm = [s["end"] - s["start"] for s in lib_trace["spans"]
                if s["name"] == "sampler.sample_arrays.warm"]
        key_s = lib_busy["families.generate_key"] + lib_busy["families.generate_order_key"]
        cold = lib_busy["sampler.sample_arrays.cold"]
        reduce_s = lib_busy["sampler.sample_arrays.injected"]
        domain_s = lib_busy["families.first_invalid_strength"]
        out.metrics.update({
            "cli.read_table_s": cli_busy["cli.read_table"],
            "cli.other_s": tracing.self_times(cli_spans)["cli.main"],
            "families.domain_check_s": domain_s,
            "families.key_s": key_s,
            "families.key_ns_per_elem": key_s / rows * 1e9,
            "sampler.sample_arrays_s": cold,
            "sampler.factorize_reduce_s": reduce_s,
            "sampler.digest_uniform_s": cold - reduce_s - key_s - domain_s,
            "sampler.replicate_pass_s": statistics.median(warm),
            "sampler.merge_s": lib_busy["sampler.merge_winner_maps"],
            "baselines.alias_build_all_groups_s":
                lib_busy["baselines.build_weight_table.all_groups"],
            "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        })
        return out

    empty = workdir / "empty.csv"
    empty.write_text("ID,QUAL,Strength\n", encoding="utf-8")
    run = Run(workdir, cmd + [str(empty)], "table")
    run.interleave(seconds, lambda: cli_run(cmd, "keyrace sample"))
    out.metrics.update(run.metrics(ops))
    out.info.update(run.info(ops))
    return out


# --------------------------------------------------------------- update stream


def replay(stream, seed: int, tracer=None):
    """Apply the stream to a fresh DynamicTable; returns (wall seconds, reports).

    Every command is timed either way, so a traced replay differs from an
    untraced one only by the span it records per command.
    """
    from keyrace import DynamicTable, ModelSpec, SeedContext

    table = DynamicTable(ModelSpec(stream.model), SeedContext(seed=seed))
    upsert, delete = table.upsert, table.delete
    clock = time.perf_counter
    reports = []
    begin = clock()
    for cmd in stream.commands:
        start = clock()
        report = upsert(cmd[1], cmd[2], cmd[3]) if cmd[0] == "UPSERT" else delete(cmd[1], cmd[2])
        end = clock()
        if tracer is not None:
            tracer.record("dynamic." + report.case.value, start, end,
                          comparisons=report.comparisons, rescanned=report.rescanned)
        reports.append(report)
    return clock() - begin, reports


def trace_updates(stream, seed: int, workdir: Path, out: Outcome) -> None:
    """Per-layer figures of the dynamic path, added to ``out``.

    Each of the paired ``keyrace update`` runs is checked against the
    reference and against an in-process replay, which is then timed
    untraced and traced.
    """
    from keyrace import ModelSpec, SeedContext, UpdateCase, derive_uniform
    from keyrace.families import generate_key

    import checks
    import tracing

    n = len(stream.commands)
    _, reports = replay(stream, seed)
    mix: dict[str, int] = {}
    for r in reports:
        mix[r.case.value] = mix.get(r.case.value, 0) + 1
    out.info.update({"update_provenance": stream.provenance, "case_mix": mix})

    cmd = _python("-m", "keyrace", "update", "--model", stream.model, "--seed", str(seed))
    replay_text = "".join(checks.format_report(r) + "\n" for r in reports)
    result = workdir / "updates.out"
    empty = workdir / "empty.txt"
    empty.write_text("", encoding="utf-8")
    # the first set-up process may compile bytecode; it is not counted
    setup_walls = [run_child(cmd + [str(empty)], workdir).wall for _ in range(4)][1:]

    tracer = tracing.Tracer()
    cli_walls, plain, traced = [], [], []
    for _ in range(TRACE_PAIRS):
        cli = run_child(cmd + [str(stream.path)], workdir, stdout=result)
        cli_walls.append(cli.wall)
        text = result.read_text(encoding="utf-8")
        problems = cli.problems("keyrace update")
        if not problems and text != replay_text:
            problems = ["CLI output differs from the in-process replay"]
        out.count(n, problems or checks.check_update_output(text, stream, seed))
        plain.append(replay(stream, seed)[0])
        tracer.spans.clear()
        wall, traced_reports = replay(stream, seed, tracer)
        traced.append(wall)
        out.count(n, [] if traced_reports == reports else ["traced replay differs"])
    spec, ctx = ModelSpec(stream.model), SeedContext(seed)
    upserts = [c for c in stream.commands if c[0] == "UPSERT"][:5000]
    with tracer.span("sampler.derive_uniform"):
        uniforms = [derive_uniform(ctx, c[1], c[2]) for c in upserts]
    with tracer.span("families.generate_key"):
        for c, u in zip(upserts, uniforms):
            generate_key(spec, c[3], u)
    busy = tracing.busy_times(tracer.spans)
    out.spans.extend(tracer.spans)
    for case in UpdateCase:
        spans = [s for s in tracer.spans if s["name"] == "dynamic." + case.value]
        times = [s["end"] - s["start"] for s in spans]
        prefix = f"dynamic.{case.value}."
        out.metrics[prefix + "count"] = len(spans)
        if spans:
            out.metrics[prefix + "p50_us"] = percentile(times, 0.5) * 1e6
            out.metrics[prefix + "p99_us"] = percentile(times, 0.99) * 1e6
            out.metrics[prefix + "comparisons_per_op"] = (
                sum(s["comparisons"] for s in spans) / len(spans))
    every = [s["end"] - s["start"] for s in tracer.spans if s["name"].startswith("dynamic.")]
    out.metrics.update({
        "dynamic.ops": len(every),
        "dynamic.p50_us": percentile(every, 0.5) * 1e6,
        "dynamic.p99_us": percentile(every, 0.99) * 1e6,
        "dynamic.rescan_share": sum(r.rescanned for r in reports) / n,
        "cli.update_io_s": (statistics.median(cli_walls) - statistics.median(setup_walls)
                            - statistics.median(plain)),
        "families.scalar_key_us": busy["families.generate_key"] / len(upserts) * 1e6,
        "sampler.derive_uniform_us": busy["sampler.derive_uniform"] / len(upserts) * 1e6,
    })
    out.metrics["trace.overhead_s"] = (out.metrics.get("trace.overhead_s", 0.0)
                                       + statistics.median(traced) - statistics.median(plain))


# --------------------------------------------------------------- replicate race


def run_replicate(race, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    import numpy as np

    from keyrace import ModelSpec, baselines, replicate_uniforms, replicate_winners, sampler
    from keyrace.families import first_invalid_strength

    import checks
    import tracing

    out = Outcome(info={"provenance": race.provenance})
    spec = ModelSpec(race.model)

    if trace:
        tracer = tracing.Tracer()
        replicate_winners(spec, race.labels, race.weights, seed, 1000)  # warm-up
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            start = time.perf_counter()
            winners = replicate_winners(spec, race.labels, race.weights, seed, race.draws)
            plain.append(time.perf_counter() - start)
            out.count(race.draws,
                      checks.check_replicate_winners(winners, race, seed, spot_seed=seed + 1))
            tracer.spans.clear()
            original = tracer.wrap(sampler, "generate_order_key", "families.generate_order_key")
            try:
                with tracer.span("sampler.replicate_winners"):
                    again = replicate_winners(spec, race.labels, race.weights, seed, race.draws)
            finally:
                sampler.generate_order_key = original
            traced.append(tracer.spans[-1]["end"] - tracer.spans[-1]["start"])
            out.count(race.draws,
                      [] if np.array_equal(again, winners) else ["traced winners differ"])
        for label in race.labels:
            with tracer.span("sampler.replicate_uniforms"):
                replicate_uniforms(seed, "g", label, race.draws)
        with tracer.span("families.first_invalid_strength"):
            first_invalid_strength(spec, race.weights)
        builds = []
        for _ in range(50):
            start = time.perf_counter()
            table = baselines.build_weight_table(race.labels, race.weights)
            builds.append(time.perf_counter() - start)
        rng = np.random.default_rng(seed)
        u1, u2 = rng.random(race.draws), rng.random(race.draws)
        with tracer.span("baselines.sample_alias_indices"):
            baselines.sample_alias_indices(table, u1, u2)
        busy = tracing.busy_times(tracer.spans)
        out.spans = tracer.spans
        elems = race.draws * len(race.labels)
        key_s = busy.get("families.generate_order_key", 0.0)
        uniforms_s = busy["sampler.replicate_uniforms"]
        out.metrics.update({
            "families.domain_check_s": busy["families.first_invalid_strength"],
            "families.key_s": key_s,
            "families.key_ns_per_elem": key_s / elems * 1e9,
            "sampler.replicate_uniforms_ns_per_elem": uniforms_s / elems * 1e9,
            "sampler.replicate_other_s": statistics.median(plain) - uniforms_s - key_s,
            "baselines.alias_build_s": statistics.median(builds),
            "baselines.alias_draws_per_s": race.draws / busy["baselines.sample_alias_indices"],
            "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        })
        return out

    run = Run(workdir, _python("-c", "import keyrace"), "array")
    first: list[tuple[str, list[str]]] = []  # the first call's winners digest and problems

    def bulk_job() -> Child:
        """The full call in a fresh child, so the peak RSS is the call's own;
        the time is the call's, without the interpreter start."""
        result, npy = workdir / "bulk.json", workdir / "winners.npy"
        argv = _python(str(HERE / "probe.py"), "replicate", str(result), str(npy), str(seed))
        child = run_child(argv, workdir)
        problems = child.problems("replicate probe")
        if not problems:
            bulk = json.loads(result.read_text(encoding="utf-8"))
            child = dataclasses.replace(child, wall=bulk["seconds"])
            if not first:
                first.append((bulk["sha256"], checks.check_replicate_winners(
                    np.load(npy), race, seed, spot_seed=seed + 1)))
            digest, first_problems = first[0]
            problems = (first_problems if bulk["sha256"] == digest
                        else ["a repeated call returned other winners"])
        out.count(race.draws, problems)
        return child

    run.interleave(seconds, bulk_job)
    out.metrics.update(run.metrics(race.draws))
    out.info.update(run.info(race.draws))
    return out


# --------------------------------------------------------------- entry point


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "keyrace").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "note": TIMING_NOTE,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    import workloads

    if name == "replicate-race":
        return run_replicate(workloads.replicate_race(seed), seed, seconds, trace, workdir)
    make = {"grouped-csv": workloads.grouped_csv, "unique-csv": workloads.unique_csv}[name]
    out = run_table(make(seed, workdir / "input.csv"), seed, seconds, trace, workdir)
    if trace and name == "grouped-csv":
        # The update stream has no workload of its own: its CLI throughput
        # swung by more than the largest allowed bound between runs on a
        # shared 2-vCPU host.  Its layers ride on this traced run instead.
        trace_updates(workloads.update_stream(seed, workdir / "updates.txt"), seed, workdir, out)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "keyrace" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no keyrace source tree under {SRC} (run from a source checkout)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path[:0] = [str(SRC), str(HERE)]

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        # a layer the workload never reaches did no work and reports 0
        value = outcome.metrics.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            outcome.problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    correct = not outcome.problems and outcome.failed == 0
    error_rate = outcome.failed / max(outcome.attempted, 1)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **outcome.info, "error_rate": error_rate,
              "problems": outcome.problems, "metrics": metrics, "spans": outcome.spans}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# environment " + json.dumps(env))
    for key in ("provenance", "update_provenance", "case_mix", "samples", "wall"):
        if key in outcome.info:
            print(f"# {key} " + json.dumps(outcome.info[key]))
    for problem in outcome.problems[:20]:
        print(f"# problem: {problem}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:16.6f} {m['unit']}")
    print(f"{'error_rate':42s} {error_rate:16.6f} "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    print(json.dumps({"correct": correct, "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
