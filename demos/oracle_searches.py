"""Brute-force ground truth: enumeration, minimum search, and sweeps.

Everything here is independent of the constructions: an exact-cover
search over the points of V(n, q) that emits each partition exactly once.
It recounts known censuses, reproduces the size formula, certifies an
impossibility, and sweeps every small partition for supertail structure.
"""
from collections import Counter

from vspart import (
    check_no_minimum_supertail,
    conjecture_search,
    enumerate_partitions,
    make_field,
    min_partition_size,
    search_min_partition_size,
    span,
    validate,
)

# census of V(4,2): 1227 partitions with dimensions up to 3
tally = Counter()
for P in enumerate_partitions(4, 2, 3):
    tally[str(P.type())] += 1
for t, c in sorted(tally.items()):
    print(f"{c:6d}  {t}")
total = sum(tally.values())
print(f"{total} partitions of V(4,2)")
assert total == 1227
assert tally["[2^5]"] == 56

# fixing one member cuts the spread count by the orbit ratio 56 * 5 / 35
U = span([(0, 0, 1, 0), (0, 0, 0, 1)], 4, make_field(2))
seeded = list(enumerate_partitions(4, 2, 2, type_filter={2: 4}, seed=[U]))
print(f"spreads through one fixed plane: {len(seeded)}")
assert len(seeded) == 8

# the search oracle agrees with the closed form
for n, t, q in [(4, 2, 2), (5, 3, 2), (3, 2, 3), (6, 4, 2)]:
    res = search_min_partition_size(n, t, q)
    formula = min_partition_size(n, t, q)
    print(f"sigma({n},{t};q={q}): search {res.size}, formula {formula}, "
          f"{res.nodes} nodes")
    assert res.size == formula
    assert validate(res.partition).ok

# impossibility: in V(5,2) the one member of dimension m >= 3 leaves
# 2^m * theta(5-m) points to tail members of at most theta(5-m) points
# each, so the tail has at least 2^m >= 8 members, more than
# sigma(3, t) <= theta(3) = 7; the sweep from one pinned 3-subspace
# (every other is its image under GL(5,2)) checks this by brute force
# and finds no partition at all
report = check_no_minimum_supertail(5, 3, 2)
print(f"V(5,2) cut 3: sweep partitions {report.sweep_partitions}, "
      f"confirmed {report.confirmed}")
assert report.confirmed
assert report.sweep_partitions == 0

# the conjecture sweep: every supertail of every partition of V(4,2),
# classified; the narrow-gap open regime needs n >= 5 so it stays empty
findings = conjecture_search(4, 2)
print(f"examined {findings.cases_examined} supertail cases:")
for cls, count in findings.class_counts:
    print(f"{count:6d}  {cls}")
print(f"narrow minimum cases {findings.minimum_narrow_cases}, "
      f"open cases {len(findings.open_cases)}, "
      f"violations {len(findings.violations)}")
assert findings.ok
assert findings.minimum_narrow_cases == 0

print("oracles agree with the theory")
