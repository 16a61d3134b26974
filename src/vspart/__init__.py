"""Subspace partitions of finite vector spaces: construction, counting
identities, supertail structure, and brute-force ground truth."""

from .analysis import (
    TailClass,
    analyze_supertail,
    check_dimension_gap,
    check_nested_bound,
    check_supertail_bound,
    union_structure,
)
from .constructions import (
    beutelspacher,
    minimal_partition,
    non_minimal_supertail_example,
    refine,
    spread,
)
from .enumeration import (
    all_hyperplanes,
    all_subspaces,
    gaussian_binomial,
    hyperplane_functional,
    hyperplanes_containing,
    recognize_subspace,
)
from .errors import (
    BadCut,
    BadRange,
    BudgetExceeded,
    DimensionMismatch,
    EmptySupertail,
    FileFormatError,
    HypothesisNotMet,
    IdentityViolation,
    NotAHyperplane,
    NotAPartitionOfMember,
    NotDisjoint,
    NotDivisible,
    NotPrimePower,
    StructureViolation,
    UnsupportedField,
    VspartError,
)
from .fields import FiniteField, extension_field, make_field
from .fileio import (
    format_partition,
    parse_partition,
    partition_from_json,
    partition_to_json,
    read_partition,
    write_partition,
)
from .hstats import (
    alpha_histogram,
    beta_stats,
    histogram,
    profile,
    supertail_quotient,
    tail_implication_checks,
    verify_incidence_identities,
    verify_moment_identities,
    verify_size_identity,
)
from .partitions import (
    PartitionType,
    SubspacePartition,
    check_dimension,
    check_packing,
    drake_freeman_bound,
    max_partial_spread_size,
    min_partition_size,
    supertail,
    validate,
)
from .search import (
    check_no_minimum_supertail,
    conjecture_search,
    enumerate_partitions,
    search_min_partition_size,
)
from .spaces import (
    PointIndex,
    Subspace,
    full_space,
    intersect,
    num_points,
    nullspace,
    point_index,
    span,
    subspace_sum,
    zero_subspace,
)

__version__ = "0.1.0"
