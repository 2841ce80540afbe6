"""keyrace: weighted discrete sampling by local keys and associative races.

Turn each row ``(group, label, strength)`` into a competition key using a
max- or min-compatible distribution family; the per-group extremal key
then selects a label with probability proportional to its weight.  No
normalization, no per-distribution tables, and the reduction is a single
associative operation, so the whole pipeline shards freely and supports
O(1)-ish streaming updates.
"""

from .families import (
    DegenerateWeightError,
    Family,
    FamilyDomainError,
    ModelSpec,
    Orientation,
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
    GroupWinner,
    KeyedRow,
    Row,
    SeedContext,
    assign_keys,
    derive_uniform,
    merge_winner_maps,
    reduce_winners,
    replicate_uniforms,
    replicate_winners,
    sample,
    sample_arrays,
    sample_codes,
    sample_replicates,
)

__version__ = "0.1.0"

# names whose modules the sampling path never uses: each is imported on
# its first access (PEP 562), so ``keyrace sample`` does not load them
_LAZY = {
    **dict.fromkeys(["DynamicTable", "ChangeReport", "UpdateCase", "RowNotFoundError"],
                    "dynamic"),
    **dict.fromkeys(["WeightTable", "build_weight_table", "sample_alias", "sample_inverse"],
                    "baselines"),
    **dict.fromkeys(["GofReport", "chi_square_gof", "chi_square_two_sample", "ks_one_sample",
                     "ks_two_sample", "regularized_gamma_q", "run_choice_experiment"],
                    "stats"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # here, so the package namespace does not hold it

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "Family",
    "Orientation",
    "ModelSpec",
    "FamilyDomainError",
    "DegenerateWeightError",
    "key_canonical",
    "log_key_canonical",
    "key_gumbel1",
    "key_frechet2",
    "key_negexp",
    "key_expmin",
    "strength_to_alpha",
    "alpha_to_strength",
    "SeedContext",
    "CodedTable",
    "Row",
    "KeyedRow",
    "GroupWinner",
    "derive_uniform",
    "replicate_uniforms",
    "assign_keys",
    "reduce_winners",
    "merge_winner_maps",
    "sample",
    "sample_arrays",
    "sample_replicates",
    "sample_codes",
    "replicate_winners",
    "DynamicTable",
    "ChangeReport",
    "UpdateCase",
    "RowNotFoundError",
    "WeightTable",
    "build_weight_table",
    "sample_alias",
    "sample_inverse",
    "GofReport",
    "chi_square_gof",
    "chi_square_two_sample",
    "ks_one_sample",
    "ks_two_sample",
    "regularized_gamma_q",
    "run_choice_experiment",
]
