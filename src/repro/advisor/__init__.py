"""Physical design advisor: DTA baseline and compression-aware DTAc."""

from repro.advisor import algorithms
from repro.advisor.advisor import (
    AdvisorOptions,
    AdvisorResult,
    PreparedStage,
    TuningAdvisor,
    VariantSpec,
    get_variant,
    register_variant,
    stage_key,
    variant_names,
    variants,
)
from repro.advisor.algorithms import SelectionAlgorithm
from repro.advisor.algorithms.base import (
    BatchCost,
    EnumerationOptions,
    EnumerationResult,
)
from repro.advisor.candidates import (
    CandidateOptions,
    candidate_indexes,
    expand_compression_variants,
    mv_candidates,
)
from repro.advisor.merging import generate_merged_candidates, merge_pair
from repro.advisor.retune import (
    RetuneResult,
    TuningSession,
    configuration_diff,
    retune_sequence,
)
from repro.advisor.sweep import SweepResult, SweepRun
from repro.advisor.selection import (
    CandidateConfiguration,
    cluster_skyline,
    evaluate_candidates,
    evaluate_candidates_batch,
    select_skyline,
    select_top_k,
)

__all__ = [
    "AdvisorOptions",
    "AdvisorResult",
    "TuningAdvisor",
    "PreparedStage",
    "stage_key",
    "VariantSpec",
    "algorithms",
    "SelectionAlgorithm",
    "get_variant",
    "register_variant",
    "variant_names",
    "variants",
    "TuningSession",
    "RetuneResult",
    "retune_sequence",
    "configuration_diff",
    "SweepResult",
    "SweepRun",
    "CandidateOptions",
    "candidate_indexes",
    "expand_compression_variants",
    "mv_candidates",
    "CandidateConfiguration",
    "evaluate_candidates",
    "evaluate_candidates_batch",
    "select_top_k",
    "select_skyline",
    "cluster_skyline",
    "merge_pair",
    "generate_merged_candidates",
    "EnumerationOptions",
    "EnumerationResult",
    "BatchCost",
]
