"""Exact arithmetic for minimum shadows in the squashed order and the
cross-intersecting antichain maximum, with brute-force verification at desk
scale.  All computations are over exact integers; no floating point enters
any result."""

from .binomials import binom, d_value, hockey_stick, verify_d_identities
from .squashed import (Subset, SetFamily, compare_squashed, first_segment,
                       format_subset, last_segment, level_masks, parse_subset,
                       rank, segment_after, unrank)
from .shadows import (CascadeRep, cascade_rep, kk_shadow_min, new_shade,
                      new_shadow, shade, shadow, verify_clements_minimality,
                      verify_kkt, verify_lieby_duality)
from .kappa import (KappaTable, check_conjecture51, kappa, kappa_star,
                    negativity_threshold, verify_conjecture51, verify_lemma38,
                    verify_prop22, verify_prop24, verify_thm23)
from .antichains import (DisjointPairReport, ExtremalConstruction,
                         brute_force_max, construct_extremal, disjoint_pairs,
                         enumerate_antichains, injective_replace_up,
                         is_antichain, sperner_down, sperner_max_check,
                         sperner_up, replace_up_map, theorem25_bound,
                         verify_extremal_constructions, verify_thm25_brute,
                         verify_thm26_structure)
from .report import VerificationReport
from .cli import SweepConfig, main, run, run_all

__version__ = "0.1.0"

__all__ = [
    "CascadeRep", "DisjointPairReport", "ExtremalConstruction", "KappaTable",
    "SetFamily", "Subset", "SweepConfig", "VerificationReport",
    "binom", "brute_force_max", "cascade_rep", "check_conjecture51",
    "compare_squashed", "construct_extremal", "d_value", "disjoint_pairs",
    "enumerate_antichains", "first_segment", "format_subset", "hockey_stick",
    "injective_replace_up", "is_antichain", "kappa", "kappa_star",
    "kk_shadow_min", "last_segment", "level_masks", "main",
    "negativity_threshold", "new_shade", "new_shadow", "parse_subset", "rank",
    "replace_up_map", "run", "run_all", "segment_after", "shade", "shadow",
    "sperner_down", "sperner_max_check", "sperner_up", "theorem25_bound",
    "unrank", "verify_clements_minimality", "verify_conjecture51",
    "verify_d_identities", "verify_extremal_constructions", "verify_kkt",
    "verify_lemma38", "verify_lieby_duality", "verify_prop22", "verify_prop24",
    "verify_thm23", "verify_thm25_brute", "verify_thm26_structure",
]
