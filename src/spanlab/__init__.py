"""spanlab: subset-sum spanning laboratory for finite abelian groups.

Core objects: finite abelian groups as mixed-radix index spaces with
bitmask subsets (`groups`), subset-sum machinery Sigma / Sigma-zero-free /
h-fold (`sums`), executable growth-bound checks with fuzz campaigns
(`bounds`, `fuzz`), critical numbers by closed formula and certified
exhaustive search (`critical`), enumeration and classification of extremal
non-spanning sets with conjecture certificates (`extremal`), checkpointable
search engines (`search`), and a persistent campaign store (`store`).
"""

from .bounds import (APWitness, BoundReport, check_cauchy_davenport,
                     check_diderrich, check_folk_lemma, check_growth_bound,
                     check_hamidoune_dichotomy, check_prime_growth_bound,
                     check_sequence_growth, check_three_facts, check_vosper,
                     detect_ap, epsilon, two_sqrt_floor)
from .critical import (CriticalRow, CriticalSearchOutcome, CriticalTable,
                       critical_number_case, critical_number_formula,
                       critical_number_search, elementary_divisors,
                       pq_window, verify_critical_formula)
from .extremal import (HAS_COMPLETE_SUBSET, SHAPE_B, SHAPE_EX1, SHAPE_EX2,
                       SHAPE_I, SHAPE_II, UNCLASSIFIED, ConjectureReport,
                       CosetProfile, ExtremalEnumeration, ExtremalRecord,
                       ObservationReport, TheoremReport, check_observation_31,
                       classify, coset_profile, extremality_failure,
                       make_example_1, make_example_2, theorem_main_hypothesis)
from .fuzz import CAMPAIGNS, FuzzReport, run_all_campaigns, run_campaign
from .groups import (ElementSet, GroupSpec, abelian_groups_of_order,
                     all_subgroups, cosets, generated_subgroup, is_prime,
                     make_group, parse_group_spec, subgroups_of_order)
from .search import (AvoidingEnumerator, CheckpointMismatch, MaxSearchResult,
                     SearchBudget, SearchStats, SizedEnumerator, max_avoiding,
                     target_representatives, target_symmetries)
from .store import CampaignStore
from .sums import (SequenceOverGroup, complete_subgroup_witnesses,
                   contains_complete_subset, is_complete, restricted_sums,
                   spans, subset_sums, subset_sums_bits, subset_sums_with_zero,
                   sumset)

__version__ = "0.1.0"

__all__ = [
    "APWitness", "AvoidingEnumerator", "BoundReport", "CAMPAIGNS",
    "CampaignStore", "CheckpointMismatch", "ConjectureReport",
    "CosetProfile", "CriticalRow", "CriticalSearchOutcome", "CriticalTable",
    "ElementSet", "ExtremalEnumeration",
    "ExtremalRecord", "FuzzReport", "GroupSpec", "HAS_COMPLETE_SUBSET",
    "MaxSearchResult", "ObservationReport", "SHAPE_B", "SHAPE_EX1", "SHAPE_EX2",
    "SHAPE_I", "SHAPE_II", "SearchBudget", "SearchStats", "SequenceOverGroup",
    "SizedEnumerator", "TheoremReport", "UNCLASSIFIED",
    "abelian_groups_of_order", "all_subgroups",
    "check_cauchy_davenport", "check_diderrich", "check_folk_lemma",
    "check_growth_bound", "check_hamidoune_dichotomy", "check_observation_31",
    "check_prime_growth_bound", "check_sequence_growth", "check_three_facts",
    "check_vosper", "classify", "complete_subgroup_witnesses",
    "contains_complete_subset", "coset_profile", "cosets",
    "critical_number_case", "critical_number_formula",
    "critical_number_search", "detect_ap",
    "elementary_divisors", "epsilon",
    "extremality_failure", "generated_subgroup", "is_complete",
    "is_prime", "make_example_1", "make_example_2", "make_group",
    "max_avoiding", "parse_group_spec", "pq_window", "restricted_sums",
    "run_all_campaigns", "run_campaign", "spans", "subgroups_of_order",
    "subset_sums",
    "subset_sums_bits", "subset_sums_with_zero", "sumset",
    "target_representatives", "target_symmetries", "theorem_main_hypothesis",
    "two_sqrt_floor", "verify_critical_formula", "__version__",
]
