"""Pareto-efficient weight vectors for reciprocal pairwise-comparison matrices.

The central fact: a positive vector w is efficient for a reciprocal matrix
A exactly when the digraph with edge i->j iff w_i/w_j >= a_ij is strongly
connected.  On top of that test the package provides canonicalization of
block-perturbed consistent matrices, closed-form efficient classes for
2-block, 3-block and constant-block perturbations, Perron eigenvector
efficiency analysis, and brute-force oracles for cross-validation.
"""

from .blockpert import (
    ConstantBlockMatrix,
    GeneratedVector,
    ThreeBlockMatrix,
    TwoBlockMatrix,
    constant_block_class_check,
    constant_block_sample,
    lcompl_membership,
    lcompl_sample,
    tail_permute,
    three_block_generate,
    three_block_membership,
    three_by_three_is_efficient,
    two_block_is_efficient,
    two_block_sample,
    union_route_member,
)
from .efficiency import (
    TOL_DOMINANCE,
    TOL_EDGE,
    ComparisonDigraph,
    EfficiencyVerdict,
    ExtensionInterval,
    build_digraph,
    construct_dominating_vector,
    dominance_compare,
    equal_tail_reduce,
    extension_interval,
    form_verdict,
    is_efficient,
    is_strongly_connected,
    strongly_connected_components,
    subvector_efficiency_profile,
)
from .matrix import (
    TOL_CONS,
    TOL_RECIP,
    BlockPerturbedForm,
    DetectedBlock,
    MonomialSimilarity,
    ReciprocalMatrix,
    apply_similarity,
    block_matrix,
    canonical_form,
    detect_minimal_block,
    geometric_mean_vector,
    is_block_perturbation,
    transform_vector,
    validate_reciprocal,
)
from .oracle import (
    GridSpec,
    OracleReport,
    exhaustive_small_equivalence,
    grid_dominator_search,
)
from .perron import (
    TOL_PERRON,
    PerronResult,
    ThreeBlockPerronConditions,
    constant_block_perron_check,
    perron,
    perron_efficiency_via_submatrix,
    perron_tail_structure,
    three_block_sufficient,
)

__version__ = "0.1.0"
