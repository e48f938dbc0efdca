"""Probability trees: interchange identities, divergences, and matching.

The package models rooted trees whose leaves carry a probability
distribution, derives node probabilities and branching distributions, and
evaluates the leaf-average/node-sum interchange identity together with its
consequences: expected path length, entropy, informational divergence, and
their per-branch (rate) forms.  A second layer adds per-branch
variational distances and the Pinsker bound on trees, and
product-distribution approximation with a greedy matcher for convergence
experiments.

Everything runs in either exact rational arithmetic (identities hold with
==) or 64-bit floats (identities hold to documented tolerances).
"""

from .errors import (
    AlphabetMismatch,
    CycleDetected,
    DegenerateTree,
    DuplicateSiblingLabel,
    FunctionalIncomplete,
    LeafMassMismatch,
    MassNotNormalized,
    MultipleParents,
    MultipleRoots,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    ParseError,
    ShapeMismatch,
    TreeProbError,
    UnknownLabel,
)
from .numeric import ExactLog2, parse_rational
from .tree import (
    Tree,
    build_tree,
    node_probabilities,
    path_lengths,
    structurally_equal,
)
from .identities import (
    LansitReport,
    branching_node_distribution,
    entropy_rate,
    expected_path_length,
    lansit_check,
    leaf_entropy,
    surprisal_functional,
    tree_divergence,
)
from .approximation import (
    FiniteDistribution,
    PinskerTreeReport,
    ProductSpec,
    entropy_rate_gap,
    product_branch_divergence,
    tree_pinsker_report,
)
from .generators import (
    GeneratorParams,
    SWEEP_CSV_COLUMNS,
    SweepRow,
    convergence_sweep,
    dyadic_quantization,
    generate_random_tree,
    grow_matcher_tree,
    write_sweep_csv,
)
from .treefile import parse_tree, serialize_tree
from .cli import Report, main, run_cli

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatch",
    "CycleDetected",
    "DegenerateTree",
    "DuplicateSiblingLabel",
    "ExactLog2",
    "FiniteDistribution",
    "FunctionalIncomplete",
    "GeneratorParams",
    "LansitReport",
    "LeafMassMismatch",
    "MassNotNormalized",
    "MultipleParents",
    "MultipleRoots",
    "NegativeMass",
    "NonFiniteMass",
    "ParamsInvalid",
    "ParseError",
    "PinskerTreeReport",
    "ProductSpec",
    "Report",
    "SWEEP_CSV_COLUMNS",
    "ShapeMismatch",
    "SweepRow",
    "Tree",
    "TreeProbError",
    "UnknownLabel",
    "branching_node_distribution",
    "build_tree",
    "convergence_sweep",
    "dyadic_quantization",
    "entropy_rate",
    "entropy_rate_gap",
    "expected_path_length",
    "generate_random_tree",
    "grow_matcher_tree",
    "lansit_check",
    "leaf_entropy",
    "main",
    "node_probabilities",
    "parse_rational",
    "parse_tree",
    "path_lengths",
    "product_branch_divergence",
    "run_cli",
    "serialize_tree",
    "structurally_equal",
    "surprisal_functional",
    "tree_divergence",
    "tree_pinsker_report",
    "write_sweep_csv",
]
