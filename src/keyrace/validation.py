"""Named correctness criteria for the whole library.

Each criterion is a deterministic function of a base seed that returns a
:class:`CriterionResult`; ``run_battery`` executes the standard set, and
``check_input_groups`` makes one criterion per group of a user's table,
its strengths checked first as the sampler checks them.  The CLI
``validate`` subcommand prints either list through one loop, one
``CRITERION <name> PASS|FAIL`` line per result, and the acceptance test
suite asserts on the same functions, so there is exactly one
implementation of every check.

Statistical criteria run at significance 1e-3 with sample sizes chosen so
that a correct implementation fails with negligible probability; where a
criterion repeats over 20 seeds, a single rejection is tolerated (the
expected false-positive count under the null is 0.02).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import baselines, stats
from .dynamic import ChangeReport, DynamicTable
from .families import (
    Family,
    ModelSpec,
    Orientation,
    _check_strengths,
    alpha_to_strength,
    key_canonical,
    key_expmin,
    key_frechet2,
    key_gumbel1,
    key_negexp,
    log_key_canonical,
    strength_to_alpha,
)
from .sampler import (
    CodedTable,
    KeyedRow,
    Row,
    SeedContext,
    merge_winner_maps,
    reduce_winners,
    replicate_uniforms,
    replicate_winners,
    sample_arrays,
)

__all__ = ["CriterionResult", "run_battery", "check_input_groups", "WORKED_EXAMPLE_ROWS",
           "WORKED_EXAMPLE_WINNERS"]

SIGNIFICANCE = 1e-3
REPLICATES, QUICK_REPLICATES = 60_000, 10_000  # per choice experiment
STREAM_GROUPS = 50  # groups of the dynamic tables' random update stream
CHECK_EVERY = 100  # steps between dynamic-vs-scratch comparisons
SHARD_ROWS = 20_000  # rows drawn (repeats then dropped) for shard-invariance

# Four-group quality table with precomputed competition keys; the winners
# are fully determined by the keys, which makes it the canned fixture for
# exact reduction checks.  (group, label, strength, key)
WORKED_EXAMPLE_ROWS: tuple[tuple[str, str, float, float], ...] = (
    ("#1", "YELLOW", -1.0, 0.664834081),
    ("#4", "PURPLE", -4.0, -4.426142579),
    ("#1", "WHITE", 2.0, 2.926653411),
    ("#1", "RED", 2.0, 5.612483956),
    ("#3", "CYAN", -1.0, -2.501775035),
    ("#4", "WHITE", -3.0, -3.131509289),
    ("#3", "WHITE", 0.0, 0.524126732),
    ("#2", "RED", 1.0, 1.30338907),
    ("#4", "YELLOW", 1.0, 3.083588566),
    ("#1", "ORANGE", 5.0, 5.603956288),
    ("#4", "CYAN", 0.0, 1.66402363),
    ("#2", "WHITE", 4.0, 4.143186699),
    ("#2", "CYAN", 5.0, 3.77108384),
    ("#2", "ORANGE", 0.0, 1.682024182),
)

WORKED_EXAMPLE_WINNERS = {"#1": "RED", "#2": "WHITE", "#3": "WHITE", "#4": "YELLOW"}

WEIGHT_VECTORS = ((1.0, 1.0), (1.0, 2.0, 3.0), (0.1, 1.0, 10.0))

ALL_FAMILIES = tuple(Family)

# Reference values of the upper regularized incomplete gamma Q(a, x),
# precomputed independently with 50-digit arithmetic (mpmath.gammainc)
# and frozen; spans both the series (x < a+1) and continued-fraction
# branches across 30 orders of magnitude.
GAMMAQ_REFERENCE: tuple[tuple[float, float, float], ...] = (
    (0.5, 0.1, 0.65472084601857702),
    (0.5, 0.5, 0.31731050786291410),
    (0.5, 1.0, 0.15729920705028513),
    (0.5, 2.0, 0.045500263896358414),
    (0.5, 5.0, 0.0015654022580025497),
    (0.5, 10.0, 7.7442164310440836e-6),
    (0.5, 25.0, 1.5374597944280349e-12),
    (0.5, 75.0, 1.7336432457178264e-34),
    (1.0, 0.1, 0.90483741803595957),
    (1.0, 0.5, 0.60653065971263342),
    (1.0, 1.0, 0.36787944117144232),
    (1.0, 2.0, 0.13533528323661269),
    (1.0, 5.0, 0.0067379469990854671),
    (1.0, 10.0, 4.5399929762484852e-5),
    (1.0, 25.0, 1.3887943864964021e-11),
    (1.0, 75.0, 2.6786369618080779e-33),
    (1.5, 0.1, 0.97758929776164940),
    (1.5, 0.5, 0.80125195690120080),
    (1.5, 1.0, 0.57240670447087983),
    (1.5, 2.0, 0.26146412994911062),
    (1.5, 5.0, 0.018566135463043233),
    (1.5, 10.0, 0.00016974243555282643),
    (1.5, 25.0, 7.9891792449514711e-11),
    (1.5, 75.0, 2.6349139284880436e-32),
    (2.5, 0.1, 0.99911386121118756),
    (2.5, 0.5, 0.96256577324729637),
    (2.5, 1.0, 0.84914503608460964),
    (2.5, 2.0, 0.54941595135278023),
    (2.5, 5.0, 0.075235246146512179),
    (2.5, 10.0, 0.0012497305630313754),
    (2.5, 25.0, 1.3857973367009593e-9),
    (2.5, 75.0, 1.3351378873003131e-30),
    (5.0, 0.1, 0.99999992332198314),
    (5.0, 0.5, 0.99982788437004416),
    (5.0, 1.0, 0.99634015317265629),
    (5.0, 2.0, 0.94734698265628884),
    (5.0, 5.0, 0.44049328506521241),
    (5.0, 10.0, 0.029252688076961073),
    (5.0, 25.0, 2.6690834249044956e-7),
    (5.0, 75.0, 3.7274850550625096e-27),
    (10.0, 0.1, 0.99999999999999997),
    (10.0, 0.5, 0.99999999982903300),
    (10.0, 1.0, 0.99999988857452166),
    (10.0, 2.0, 0.99995350192498274),
    (10.0, 5.0, 0.96817194269379519),
    (10.0, 10.0, 0.45792971447185221),
    (10.0, 25.0, 0.00022147663824878358),
    (10.0, 75.0, 6.2856816739333810e-22),
    (25.0, 0.1, 1.0000000000000000),
    (25.0, 0.5, 1.0000000000000000),
    (25.0, 1.0, 1.0000000000000000),
    (25.0, 2.0, 1.0000000000000000),
    (25.0, 5.0, 0.99999999984004136),
    (25.0, 10.0, 0.99995305061857320),
    (25.0, 25.0, 0.47339846855634936),
    (25.0, 75.0, 6.3152232569339868e-12),
    (50.0, 0.1, 1.0000000000000000),
    (50.0, 0.5, 1.0000000000000000),
    (50.0, 1.0, 1.0000000000000000),
    (50.0, 2.0, 1.0000000000000000),
    (50.0, 5.0, 1.0000000000000000),
    (50.0, 10.0, 1.0000000000000000),
    (50.0, 25.0, 0.99999304669475238),
    (50.0, 75.0, 0.00090393204235400909),
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    p_value: float | None = None


def model_for(family: Family) -> ModelSpec:
    return ModelSpec(family, scale_c=1.0)


def worked_example_keyed_rows() -> list[KeyedRow]:
    return [
        KeyedRow(Row(g, q, s), uniform=0.5, key=k) for g, q, s, k in WORKED_EXAMPLE_ROWS
    ]


def check_worked_example() -> CriterionResult:
    """Injected-key reduction reproduces the fixture's four winners exactly."""
    winners = reduce_winners(worked_example_keyed_rows(), Orientation.MAX)
    got = {g: w.label for g, w in winners.items()}
    ok = got == WORKED_EXAMPLE_WINNERS
    return CriterionResult("worked-example", ok, f"winners {sorted(got.items())}")


def check_choice_probabilities(
    base_seed: int, n_seeds: int = 20, replicates: int = 60_000
) -> list[CriterionResult]:
    """Winner frequencies match weight proportions for every family and
    weight vector; at most one chi-square rejection per configuration."""
    results = []
    for fam_index, family in enumerate(ALL_FAMILIES):
        spec = model_for(family)
        for weights in WEIGHT_VECTORS:
            strengths = alpha_to_strength(spec, np.asarray(weights))
            rejections = 0
            min_p = 1.0
            for s in range(n_seeds):
                # distinct seeds per family: identical seeds would re-race
                # the same uniforms through monotone-equivalent keys
                report = stats.run_choice_experiment(
                    spec, strengths, replicates, seed=base_seed + 7919 * s + 104729 * fam_index + 1
                )
                min_p = min(min_p, report.p_value)
                if report.reject_at(SIGNIFICANCE):
                    rejections += 1
            name = f"choice-{family.value}-" + "x".join(f"{w:g}" for w in weights)
            results.append(
                CriterionResult(
                    name,
                    rejections <= 1,
                    f"{rejections}/{n_seeds} rejections at {SIGNIFICANCE:g}",
                    p_value=min_p,
                )
            )
    return results


def check_softmax_identity(
    base_seed: int, n_seeds: int = 20, replicates: int = 60_000
) -> CriterionResult:
    """Additive family with unit scale turns strengths (0,1,2) into the
    softmax winner law (0.0900, 0.2447, 0.6652)."""
    softmax = (0.09003057317038046, 0.24472847105479767, 0.6652409557748219)
    spec = ModelSpec(Family.GUMBEL1, scale_c=1.0)
    rejections = 0
    min_p = 1.0
    for s in range(n_seeds):
        winners = replicate_winners(
            spec, ["a", "b", "c"], [0.0, 1.0, 2.0], base_seed + 104729 * s + 3, replicates
        )
        counts = np.bincount(winners, minlength=3)
        report = stats.chi_square_gof(counts, softmax)
        min_p = min(min_p, report.p_value)
        if report.reject_at(SIGNIFICANCE):
            rejections += 1
    return CriterionResult(
        "softmax-identity",
        rejections <= 1,
        f"{rejections}/{n_seeds} rejections vs softmax(0,1,2)",
        p_value=min_p,
    )


def check_max_stability(base_seed: int, n: int = 20_000) -> list[CriterionResult]:
    """max of independent weight-1 and weight-2 keys is distributed as a
    weight-3 key (two-sample KS); weight 1 vs weight 4 must reject."""
    u1 = replicate_uniforms(base_seed, "stab", "a", n)
    u2 = replicate_uniforms(base_seed, "stab", "b", n)
    u3 = replicate_uniforms(base_seed, "stab", "c", n)
    u4 = replicate_uniforms(base_seed, "stab", "d", n)
    merged = np.maximum(key_canonical(1.0, u1), key_canonical(2.0, u2))
    direct = key_canonical(3.0, u3)
    pos = stats.ks_two_sample(merged, direct)
    neg = stats.ks_two_sample(key_canonical(1.0, u1), key_canonical(4.0, u4))
    return [
        CriterionResult(
            "max-stability",
            not pos.reject_at(SIGNIFICANCE),
            f"D={pos.statistic:.5f} for 1+2 vs 3",
            p_value=pos.p_value,
        ),
        CriterionResult(
            "max-stability-power",
            neg.reject_at(SIGNIFICANCE),
            f"D={neg.statistic:.5f} for 1 vs 4 (must reject)",
            p_value=neg.p_value,
        ),
    ]


def check_representation_law(base_seed: int, n: int = 10_000) -> list[CriterionResult]:
    """Canonical keys with weight a follow the CDF t**a on (0, 1)."""
    results = []
    for alpha in (0.5, 1.0, 3.0):
        u = replicate_uniforms(base_seed, "rep", f"a{alpha:g}", n)
        keys = key_canonical(alpha, u)
        report = stats.ks_one_sample(keys, lambda t, a=alpha: np.clip(t, 0.0, 1.0) ** a)
        results.append(
            CriterionResult(
                f"representation-alpha-{alpha:g}",
                not report.reject_at(SIGNIFICANCE),
                f"D={report.statistic:.5f} vs t^{alpha:g}",
                p_value=report.p_value,
            )
        )
    return results


def check_canonical_equivalence(base_seed: int, n_instances: int = 10_000) -> CriterionResult:
    """With shared uniforms, every family picks the same winner index.

    The canonical, additive, both multiplicative, and exponential-race
    keys are monotone transforms of one another, so their argmax (argmin
    for the race) must agree exactly, instance by instance.
    """
    rng = np.random.default_rng(base_seed)
    mismatches = 0
    total = 0
    for n_rows in range(2, 11):
        m = n_instances // 9 + 1
        alphas = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(m, n_rows)))
        u = rng.uniform(2.0**-30, 1.0 - 2.0**-30, size=(m, n_rows))
        base = np.argmax(key_canonical(alphas, u), axis=1)
        contenders = [
            np.argmax(log_key_canonical(alphas, u), axis=1),
            np.argmax(key_gumbel1(np.log(alphas), 1.0, u), axis=1),
            np.argmax(key_frechet2(alphas, 1.0, u), axis=1),
            np.argmax(key_negexp(-1.0 / alphas, 1.0, u), axis=1),
            np.argmin(key_expmin(alphas, u), axis=1),
        ]
        for other in contenders:
            mismatches += int(np.sum(other != base))
        total += m
    return CriterionResult(
        "canonical-equivalence",
        mismatches == 0,
        f"{mismatches} winner mismatches over {total} instances x 5 transforms",
    )


def _random_stream_strength(rng: np.random.Generator, spec: ModelSpec) -> float:
    if not spec.strength_sign:
        return float(rng.normal(0.0, 2.0))
    return spec.strength_sign * float(np.exp(rng.normal(0.0, 1.0)))


def _update_stream(table: DynamicTable, rng: np.random.Generator,
                   steps: int) -> Iterator[ChangeReport]:
    """Apply ``steps`` random operations to ``table``, yielding each one's report.

    While a row is live, 30% of the steps delete one; the rest upsert a row
    of ``STREAM_GROUPS`` groups x 40 labels with a strength in the family's
    domain.
    """
    live: list[tuple[str, str]] = []  # the live rows, kept sorted
    for _ in range(steps):
        if live and rng.random() < 0.3:
            report = table.delete(*live.pop(rng.integers(len(live))))
        else:
            row = f"g{rng.integers(STREAM_GROUPS):03d}", f"q{rng.integers(40):02d}"
            report = table.upsert(*row, _random_stream_strength(rng, table.spec))
            at = bisect.bisect_left(live, row)
            if live[at:at + 1] != [row]:
                live.insert(at, row)
        yield report


def check_dynamic_vs_scratch(
    base_seed: int,
    steps: int = 10_000,
    families: tuple[Family, ...] = ALL_FAMILIES,
) -> list[CriterionResult]:
    """After any upsert/delete stream, stored winners equal the from-scratch
    reduction of the surviving rows, exactly, at every ``CHECK_EVERY``-th
    step and the last."""
    results = []
    for fam_index, family in enumerate(families):
        spec = model_for(family)
        table = DynamicTable(spec, SeedContext(seed=base_seed))
        rng = np.random.default_rng(base_seed + 1009 * fam_index)
        mismatches = 0
        for step, _ in enumerate(_update_stream(table, rng, steps)):
            if step % CHECK_EVERY == CHECK_EVERY - 1 or step == steps - 1:
                scratch = reduce_winners(table.snapshot_keyed_rows(), spec.orientation)
                if scratch != table.winners():
                    mismatches += 1
        results.append(
            CriterionResult(
                f"dynamic-vs-scratch-{family.value}",
                mismatches == 0,
                f"{mismatches} mismatched checkpoints over {steps} steps",
            )
        )
    return results


def check_alias_vs_race(base_seed: int, n: int = 60_000) -> list[CriterionResult]:
    """Alias table and key race produce the same law for weights (1,2,3)."""
    weights = (1.0, 2.0, 3.0)
    probs = np.asarray(weights) / sum(weights)
    table = baselines.build_weight_table(["a", "b", "c"], weights)
    rng = np.random.default_rng(base_seed + 11)
    alias_counts = np.bincount(
        baselines.sample_alias_indices(table, rng.random(n), rng.random(n)), minlength=3
    )
    spec = model_for(Family.CANONICAL)
    race_counts = np.bincount(
        replicate_winners(spec, ["a", "b", "c"], list(weights), base_seed + 13, n),
        minlength=3,
    )
    alias_rep = stats.chi_square_gof(alias_counts, probs)
    race_rep = stats.chi_square_gof(race_counts, probs)
    both_rep = stats.chi_square_two_sample(alias_counts, race_counts)
    return [
        CriterionResult(
            "alias-gof",
            not alias_rep.reject_at(SIGNIFICANCE),
            f"alias counts {alias_counts.tolist()}",
            p_value=alias_rep.p_value,
        ),
        CriterionResult(
            "race-gof",
            not race_rep.reject_at(SIGNIFICANCE),
            f"race counts {race_counts.tolist()}",
            p_value=race_rep.p_value,
        ),
        CriterionResult(
            "alias-vs-race",
            not both_rep.reject_at(SIGNIFICANCE),
            "two-sample chi-square between the samplers",
            p_value=both_rep.p_value,
        ),
    ]


def check_shard_invariance(base_seed: int) -> CriterionResult:
    """The winner maps of 2, 4 and 8 contiguous slices merge to the whole table's map."""
    rng = np.random.default_rng(base_seed + 17)
    groups = [f"g{rng.integers(500):03d}" for _ in range(SHARD_ROWS)]
    labels = [f"q{rng.integers(50):02d}" for _ in range(SHARD_ROWS)]
    # duplicate (group,label) pairs would break the uniqueness contract
    seen = set()
    uniq_groups, uniq_labels, strengths = [], [], []
    for g, l in zip(groups, labels):
        if (g, l) not in seen:
            seen.add((g, l))
            uniq_groups.append(g)
            uniq_labels.append(l)
            strengths.append(float(rng.normal()))
    spec = ModelSpec(Family.GUMBEL1)
    ctx = SeedContext(seed=base_seed)
    strengths_arr = np.asarray(strengths)
    reference = sample_arrays(uniq_groups, uniq_labels, strengths_arr, spec, ctx)

    def merged_slices(k: int) -> dict:
        cuts = np.linspace(0, len(uniq_groups), k + 1, dtype=int).tolist()
        maps = [sample_arrays(uniq_groups[a:b], uniq_labels[a:b], strengths_arr[a:b], spec, ctx)
                for a, b in zip(cuts, cuts[1:])]
        return merge_winner_maps(maps, spec.orientation)

    ok = all(merged_slices(k) == reference for k in (2, 4, 8))
    return CriterionResult(
        "shard-invariance", ok, f"{len(uniq_groups)} rows, merged slices 2/4/8"
    )


def check_stat_kernels() -> list[CriterionResult]:
    """p-value kernels against closed forms and the frozen reference vector."""
    p_closed = stats.regularized_gamma_q(1.0, 1.0)  # chi-square stat 2, df 2
    ok_closed = abs(p_closed - np.exp(-1.0)) < 1e-8
    worst = 0.0
    for a, x, expected in GAMMAQ_REFERENCE:
        got = stats.regularized_gamma_q(a, x)
        worst = max(worst, abs(got - expected) / expected)
    return [
        CriterionResult(
            "chisq-closed-form", ok_closed, f"Q(1,1)={p_closed!r} vs 1/e", p_value=p_closed
        ),
        CriterionResult(
            "gamma-reference-vector",
            worst < 1e-6,
            f"worst relative error {worst:.3e} over {len(GAMMAQ_REFERENCE)} points",
        ),
    ]


def run_battery(base_seed: int = 0, quick: bool = False) -> list[CriterionResult]:
    """Execute the standard criterion set; `quick` trades power for speed."""
    n_seeds = 5 if quick else 20
    replicates = QUICK_REPLICATES if quick else REPLICATES
    ks_n = 5_000 if quick else 20_000
    rep_n = 2_000 if quick else 10_000
    instances = 2_000 if quick else 10_000
    steps = 1_000 if quick else 10_000

    results: list[CriterionResult] = [check_worked_example()]
    results += check_choice_probabilities(base_seed, n_seeds, replicates)
    results.append(check_softmax_identity(base_seed, n_seeds, replicates))
    results += check_max_stability(base_seed, ks_n)
    results += check_representation_law(base_seed, max(rep_n, 1000))
    results.append(check_canonical_equivalence(base_seed, instances))
    results += check_dynamic_vs_scratch(base_seed, steps)
    results += check_alias_vs_race(base_seed, replicates)
    results.append(check_shard_invariance(base_seed))
    results += check_stat_kernels()
    return results


def check_input_groups(table: CodedTable, spec: ModelSpec, seed: int,
                       quick: bool) -> list[CriterionResult]:
    """One criterion per group of ``table``, in group id order: the group,
    raced under its own id, wins by its strengths' weights (chi-square).

    The strengths are checked as the sampler checks a table, so a bad one
    raises its :class:`FamilyDomainError` before any group is raced.  A
    group the chi-square cannot test (one row, or an expected count below
    5) raises ``ValueError`` naming the group.
    """
    _check_strengths(spec, table.strengths, table.row)
    replicates = QUICK_REPLICATES if quick else REPLICATES
    names = table.group_names
    order = np.argsort(table.group_codes, kind="stable")  # each group's rows in table order
    starts = np.searchsorted(table.group_codes[order], np.arange(len(names) + 1))
    results = []
    for g in sorted(np.unique(table.group_codes).tolist(), key=names.__getitem__):
        gid, rows = names[g], order[starts[g]:starts[g + 1]]
        labels = list(map(table.label_names.__getitem__, table.label_codes[rows].tolist()))
        strengths = table.strengths[rows]
        alphas = strength_to_alpha(spec, strengths)
        winners = replicate_winners(spec, labels, strengths, seed, replicates, group_id=gid)
        try:
            report = stats.chi_square_gof(np.bincount(winners, minlength=rows.size),
                                          alphas / alphas.sum())
        except ValueError as err:
            raise ValueError(f"group {gid!r}: {err}") from None
        results.append(CriterionResult(
            f"group-{gid}",
            not report.reject_at(SIGNIFICANCE),
            f"chi-square {report.statistic:.5g} on {report.df} df over {replicates} races",
            p_value=report.p_value,
        ))
    return results
