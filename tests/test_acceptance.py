"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one ``CRITERION <id> PASS|FAIL`` line so a plain
``pytest tests/test_acceptance.py -v -s`` doubles as the sign-off report.
The statistical criteria all run at significance 1e-3 with fixed seeds.
"""

import csv
import subprocess
import sys
import time

import numpy as np
import pytest

from keyrace import validation
from keyrace.families import Orientation
from keyrace.sampler import reduce_winners
from worked_example import write_worked_example_csv

BASE_SEED = 0


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CRITERION {criterion} {status}{suffix}")


def _assert_all(criterion: str, results) -> None:
    failed = [r for r in results if not r.passed]
    for r in results:
        detail = f"p={r.p_value:.4g}; {r.detail}" if r.p_value is not None else r.detail
        _report(f"{criterion}/{r.name}", r.passed, detail)
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]


def test_criterion_01_worked_example(tmp_path):
    """The 14-row fixture with injected keys yields exactly the four
    winners, byte for byte, in under a second."""
    t0 = time.perf_counter()
    winners = reduce_winners(validation.worked_example_keyed_rows(), Orientation.MAX)
    elapsed = time.perf_counter() - t0
    got = {g: w.label for g, w in winners.items()}

    fixture = write_worked_example_csv(tmp_path / "worked.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "keyrace", "sample", str(fixture), "--inject-keys"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    exact = proc.stdout == "#1,RED\n#2,WHITE\n#3,WHITE\n#4,YELLOW\n"
    ok = (
        got == validation.WORKED_EXAMPLE_WINNERS
        and elapsed < 1.0
        and proc.returncode == 0
        and exact
    )
    _report("01-worked-example", ok, f"reduce {elapsed * 1e3:.2f} ms, exact stdout {exact}")
    assert ok, (got, elapsed, proc.stdout)


def test_criterion_02_choice_probability_law():
    """Winner frequencies are weight-proportional for all five families and
    three weight vectors; at most 1 chi-square rejection per 20 seeds."""
    results = validation.check_choice_probabilities(
        BASE_SEED, n_seeds=20, replicates=60_000
    )
    assert len(results) == 15
    _assert_all("02-choice-law", results)


def test_criterion_03_softmax_identity():
    """Additive unit-scale strengths (0,1,2) win with softmax frequencies."""
    result = validation.check_softmax_identity(BASE_SEED, n_seeds=20, replicates=60_000)
    _assert_all("03-softmax", [result])


def test_criterion_04_max_stability():
    """Two-sample KS: max of weight-1 and weight-2 keys matches weight-3
    keys at N=2e4; the weight-1 vs weight-4 control rejects."""
    results = validation.check_max_stability(BASE_SEED, n=20_000)
    _assert_all("04-max-stability", results)


def test_criterion_05_representation_law():
    """One-sample KS of canonical keys against t**a for a in {0.5, 1, 3}."""
    results = validation.check_representation_law(BASE_SEED, n=10_000)
    assert len(results) == 3
    _assert_all("05-representation", results)


def test_criterion_06_canonical_equivalence():
    """Shared uniforms: winner indices identical across families in 100%
    of 1e4 random instances with up to 10 rows."""
    result = validation.check_canonical_equivalence(BASE_SEED, n_instances=10_000)
    _assert_all("06-equivalence", [result])


def test_criterion_07_dynamic_vs_scratch():
    """1e4-step upsert/delete streams over 50 groups: winners equal the
    from-scratch reduction at every checkpoint, for all five families."""
    results = validation.check_dynamic_vs_scratch(BASE_SEED, steps=10_000)
    assert len(results) == 5
    _assert_all("07-dynamic", results)


def test_criterion_08_baseline_agreement():
    """Alias table and key race both fit (1/6, 1/3, 1/2) and each other."""
    results = validation.check_alias_vs_race(BASE_SEED, n=60_000)
    _assert_all("08-baselines", results)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_09_parallel_determinism(tmp_path, seed):
    """cmd_sample output is byte-identical for thread counts 1, 4, 8 on a
    1e5-row random table."""
    rng = np.random.default_rng(1000 + seed)
    path = tmp_path / f"table{seed}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ID", "QUAL", "Strength"])
        for g in range(5000):
            for q in range(20):
                writer.writerow([f"g{g:05d}", f"q{q:03d}", repr(float(rng.normal()))])
    outputs = {}
    for threads in (1, 4, 8):
        proc = subprocess.run(
            [
                sys.executable, "-m", "keyrace", "sample", str(path),
                "--model", "gumbel1", "--seed", str(seed), "--threads", str(threads),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = proc.stdout
    ok = outputs[1] == outputs[4] == outputs[8] and outputs[1].count("\n") == 5000
    _report(f"09-determinism-seed{seed}", ok, "threads 1/4/8 byte-identical")
    assert ok


def test_criterion_10_statistical_kernels():
    """Q(1,1) equals 1/e within 1e-8; the 64-point incomplete-gamma
    reference vector matches within 1e-6 relative."""
    results = validation.check_stat_kernels()
    _assert_all("10-kernels", results)
