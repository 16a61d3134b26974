"""Every integer argument of the public API is checked by one rule: an
int (a bool is not one) within its range, else a VspartError.

Each case feeds one argument True, 2.0, "2" and a value just below its
range; none may slip through as a number or end in a raw TypeError.
"""
import pytest

import vspart as v
from vspart.errors import VspartError

F = v.make_field(2)
P = v.minimal_partition(5, 3, F)  # type [2^4, 3^1]
Q = v.spread(2, 1, F)
H = v.all_hyperplanes(5, F)[0]
T = v.PartitionType.of({2: 5})

# (id, call of the argument, a value below its range or None for none)
CASES = [
    ("num_points-dim", lambda x: v.num_points(x, 2), -1),
    ("num_points-q", lambda x: v.num_points(3, x), 1),
    ("gaussian_binomial-n", lambda x: v.gaussian_binomial(x, 1, 2), -1),
    ("gaussian_binomial-d", lambda x: v.gaussian_binomial(4, x, 2), -1),
    ("gaussian_binomial-q", lambda x: v.gaussian_binomial(4, 2, x), 1),
    ("all_subspaces-n", lambda x: v.all_subspaces(x, 1, F), -1),
    ("all_subspaces-d", lambda x: v.all_subspaces(4, x, F), -1),
    ("all_subspaces-budget",
     lambda x: v.all_subspaces(4, 1, F, budget=x), -1),
    ("all_hyperplanes-n", lambda x: v.all_hyperplanes(x, F), -1),
    ("point_index-n", lambda x: v.point_index(x, F), -1),
    ("unrank-rank", lambda x: v.point_index(3, F).unrank(x), -1),
    ("span-n", lambda x: v.span([], x, F), -1),
    ("nullspace-n", lambda x: v.nullspace([], x, F), -1),
    ("full_space-n", lambda x: v.full_space(x, F), -1),
    ("zero_subspace-n", lambda x: v.zero_subspace(x, F), -1),
    ("recognize_subspace-n",
     lambda x: v.recognize_subspace([(1, 0, 0)], x, F), -1),
    ("make_field-q", lambda x: v.make_field(x), 1),
    ("extension_field-degree", lambda x: v.extension_field(F, x), 0),
    ("pow-exponent", lambda x: F.pow(1, x), -1),
    ("min_partition_size-n", lambda x: v.min_partition_size(x, 1, 2), 1),
    ("min_partition_size-t", lambda x: v.min_partition_size(5, x, 2), 0),
    ("min_partition_size-q", lambda x: v.min_partition_size(5, 2, x), 1),
    ("drake_freeman_bound-n", lambda x: v.drake_freeman_bound(x, 2, 2), 1),
    ("drake_freeman_bound-d", lambda x: v.drake_freeman_bound(5, x, 2), 0),
    ("drake_freeman_bound-q", lambda x: v.drake_freeman_bound(5, 2, x), 1),
    ("max_partial_spread_size-n",
     lambda x: v.max_partial_spread_size(x, 2, 2), 1),
    ("max_partial_spread_size-d",
     lambda x: v.max_partial_spread_size(5, x, 2), 0),
    ("max_partial_spread_size-q",
     lambda x: v.max_partial_spread_size(5, 2, x), 1),
    ("type-dimension", lambda x: v.PartitionType.of({x: 1}), 0),
    ("type-count", lambda x: v.PartitionType.of({1: x}), -1),
    ("check_packing-n", lambda x: v.check_packing(T, x, 2), -1),
    ("check_packing-q", lambda x: v.check_packing(T, 4, x), 1),
    ("check_dimension-n", lambda x: v.check_dimension(T, x), -1),
    ("spread-n", lambda x: v.spread(x, 1, F), 0),
    ("spread-t", lambda x: v.spread(4, x, F), 0),
    ("beutelspacher-n", lambda x: v.beutelspacher(x, 1, F), 0),
    ("beutelspacher-d", lambda x: v.beutelspacher(4, x, F), 0),
    ("minimal_partition-n", lambda x: v.minimal_partition(x, 1, F), 0),
    ("minimal_partition-t", lambda x: v.minimal_partition(4, x, F), 0),
    ("refine-index", lambda x: v.refine(P, x, Q), -1),
    ("non_minimal_supertail_example-q",
     lambda x: v.non_minimal_supertail_example(x), 1),
    ("supertail-cut", lambda x: v.supertail(P, x), 0),
    ("supertail-loose-cut", lambda x: v.supertail(P, x, strict=False), 0),
    ("analyze_supertail-cut", lambda x: v.analyze_supertail(P, x), 0),
    ("beta_stats-cut", lambda x: v.beta_stats(P, x), 0),
    ("check_supertail_bound-cut",
     lambda x: v.check_supertail_bound(P, x), 0),
    ("check_dimension_gap-cut", lambda x: v.check_dimension_gap(P, x), 0),
    ("tail_implication_checks-cut",
     lambda x: v.tail_implication_checks(P, x), 0),
    ("supertail_quotient-cut", lambda x: v.supertail_quotient(P, x, H), 0),
    ("alpha_histogram-family_dim", lambda x: v.alpha_histogram(P, x), 0),
    ("verify_moment_identities-family_dim",
     lambda x: v.verify_moment_identities(P, x), 0),
    ("enumerate_partitions-n",
     lambda x: list(v.enumerate_partitions(x, 2, 1)), 0),
    ("enumerate_partitions-q",
     lambda x: list(v.enumerate_partitions(3, x, 1)), 1),
    ("enumerate_partitions-max_dim",
     lambda x: list(v.enumerate_partitions(3, 2, x)), 0),
    ("enumerate_partitions-size_limit",
     lambda x: list(v.enumerate_partitions(3, 2, 1, size_limit=x)), None),
    ("enumerate_partitions-count_limit",
     lambda x: list(v.enumerate_partitions(3, 2, 1, count_limit=x)), 0),
    ("enumerate_partitions-budget",
     lambda x: list(v.enumerate_partitions(3, 2, 1, budget=x)), -1),
    ("search_min_partition_size-n",
     lambda x: v.search_min_partition_size(x, 1, 2), 1),
    ("search_min_partition_size-t",
     lambda x: v.search_min_partition_size(3, x, 2), 0),
    ("search_min_partition_size-q",
     lambda x: v.search_min_partition_size(3, 1, x), 1),
    ("search_min_partition_size-budget",
     lambda x: v.search_min_partition_size(3, 1, 2, budget=x), -1),
    ("check_no_minimum_supertail-n",
     lambda x: v.check_no_minimum_supertail(x, 2, 2), 1),
    ("check_no_minimum_supertail-cut",
     lambda x: v.check_no_minimum_supertail(3, x, 2), 0),
    ("check_no_minimum_supertail-q",
     lambda x: v.check_no_minimum_supertail(3, 2, x), 1),
    ("check_no_minimum_supertail-budget",
     lambda x: v.check_no_minimum_supertail(3, 2, 2, budget=x), -1),
    ("conjecture_search-n", lambda x: v.conjecture_search(x, 2), 0),
    ("conjecture_search-q", lambda x: v.conjecture_search(3, x), 1),
    ("conjecture_search-max_dim",
     lambda x: v.conjecture_search(3, 2, max_dim=x), 0),
    ("conjecture_search-cut", lambda x: v.conjecture_search(3, 2, [x]), 1),
    ("conjecture_search-budget",
     lambda x: v.conjecture_search(3, 2, budget=x), -1),
]


@pytest.mark.parametrize(
    "call, value",
    [(call, value) for _, call, low in CASES
     for value in (True, 2.0, "2") + ((low,) if low is not None else ())],
    ids=[f"{name}-{value!r}" for name, _, low in CASES
         for value in (True, 2.0, "2") + ((low,) if low is not None else ())],
)
def test_integer_arguments_are_refused_by_one_rule(call, value):
    with pytest.raises(VspartError):
        call(value)

