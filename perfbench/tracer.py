"""Span tracer installed from outside the vspart package.

Each traced public function is replaced, in every ``vspart`` module
namespace that binds it, by a wrapper that opens a span on entry and
closes it on exit.  Spans nest strictly (one thread), so each one is
folded into per-name totals as it closes: its self time is its duration
minus the durations of the spans it directly contains.  A generator is
timed only while it is resumed, one span per resumption, so time its
consumer spends between yields is charged to the consumer.

Holding the spans themselves would cost about a hundred bytes each, and
the sweep workload opens over a million of them, so only the folded
totals and the parent -> child call counts are kept.

A target that the code at hand does not define is reported as absent;
installing never fails for a missing name.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

ROOT = "harness"

# (module, attribute) pairs; "Class.method" names a method.
TARGETS = (
    ("fields", "make_field"),
    ("fields", "extension_field"),
    ("spaces", "Subspace.points"),
    ("spaces", "PointIndex.mask_of"),
    ("spaces", "point_index"),
    ("spaces", "span"),
    ("spaces", "nullspace"),
    ("spaces", "intersect"),
    ("spaces", "subspace_sum"),
    ("spaces", "full_space"),
    ("enumeration", "all_subspaces"),
    ("enumeration", "all_hyperplanes"),
    ("enumeration", "recognize_subspace"),
    ("enumeration", "hyperplanes_containing"),
    ("enumeration", "hyperplane_functional"),
    ("partitions", "SubspacePartition.__init__"),
    ("partitions", "validate"),
    ("partitions", "supertail"),
    ("partitions", "min_partition_size"),
    ("partitions", "check_packing"),
    ("partitions", "check_dimension"),
    ("constructions", "spread"),
    ("constructions", "beutelspacher"),
    ("constructions", "refine"),
    ("constructions", "minimal_partition"),
    ("hstats", "hyperplane_masks"),
    ("hstats", "profile"),
    ("hstats", "histogram"),
    ("hstats", "verify_incidence_identities"),
    ("hstats", "verify_size_identity"),
    ("hstats", "verify_moment_identities"),
    ("hstats", "alpha_histogram"),
    ("hstats", "beta_stats"),
    ("hstats", "supertail_quotient"),
    ("hstats", "tail_implication_checks"),
    ("analysis", "analyze_supertail"),
    ("analysis", "union_structure"),
    ("analysis", "check_supertail_bound"),
    ("analysis", "check_dimension_gap"),
    ("analysis", "check_nested_bound"),
    ("search", "enumerate_partitions"),
    ("search", "search_min_partition_size"),
    ("search", "check_no_minimum_supertail"),
    ("search", "conjecture_search"),
    ("fileio", "read_partition"),
    ("fileio", "parse_partition"),
    ("fileio", "partition_from_json"),
    ("fileio", "write_partition"),
    ("fileio", "format_partition"),
    ("fileio", "partition_to_json"),
    ("cli", "main"),
)

# Layers whose self time counts as search preparation while a search span
# is open on the stack.
PREPARE_LAYERS = ("spaces", "enumeration")
IDENTITY_REPORTS = (
    "hstats.verify_incidence_identities",
    "hstats.verify_size_identity",
    "hstats.verify_moment_identities",
    "hstats.tail_implication_checks",
)


def _package_modules(package):
    return [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == package or key.startswith(package + "."))
    ]


def count_wrappers(package="vspart"):
    """Tracing wrappers bound anywhere in the loaded package: module
    globals and class attributes."""
    found = 0
    for m in _package_modules(package):
        for value in vars(m).values():
            found += getattr(value, "__vspart_traced__", False) is True
            if isinstance(value, type):
                found += sum(
                    getattr(v, "__vspart_traced__", False) is True
                    for v in vars(value).values()
                )
    return found


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []              # [name, start, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()      # counters read at layer boundaries
        self.edges = Counter()       # (parent, child) -> spans
        self.prepare_s = 0.0
        self.search_open = 0
        self.installed = []          # span names
        self.absent = []             # targets the code does not define
        self._saved = []             # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        if name.startswith("search."):
            self.search_open += 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        name, start, covered = self.stack.pop()
        dur = end - start
        own = dur - covered
        self.self_s[name] += own
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.edges[(parent[0] if parent else None, name)] += 1
        if name.startswith("search."):
            self.search_open -= 1
        elif self.search_open and layer_of(name) in PREPARE_LAYERS:
            self.prepare_s += own
        return dur

    def root(self, body):
        """Run body() inside the harness span; return its duration."""
        self.enter(ROOT)
        try:
            body()
        finally:
            dur = self.exit()
        return dur

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer._observe(name, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        tracer = self
        takes_stats = "stats" in inspect.signature(fn).parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            stats = None
            if takes_stats:
                # The stream reports its extension attempts through this
                # dict when it closes; pass one if the caller did not.
                stats = kwargs.get("stats")
                if stats is None:
                    stats = kwargs["stats"] = {}
                before = stats.get("nodes", 0)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.counts[name + ".yields"] += 1
                    yield item
            finally:
                inner.close()
                if stats is not None:
                    tracer.counts[name + ".nodes"] += stats.get("nodes", 0) - before

        return traced

    def _observe(self, name, result):
        if name == "search.search_min_partition_size":
            self.counts[name + ".nodes"] += getattr(result, "nodes", 0)
        elif name in IDENTITY_REPORTS:
            self.counts["hstats.identity_checks"] += len(getattr(result, "checks", ()))

    def install(self, package="vspart", targets=TARGETS):
        """Wrap every target the loaded package defines."""
        modules = _package_modules(package)
        for modname, attr in targets:
            owner, _, leaf = attr.rpartition(".")
            name = f"{modname}.{'partition_init' if leaf == '__init__' else leaf}"
            holder = sys.modules.get(f"{package}.{modname}")
            if holder is not None and owner:
                holder = getattr(holder, owner, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_function(name, original)
            wrapper.__vspart_traced__ = True
            if owner:
                self._replace(holder, leaf, wrapper)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, wrapper)
            self.installed.append(name)

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self):
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "prepare_s": self.prepare_s,
            "edges": [[p, c, k] for (p, c), k in sorted(
                self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
            "installed": self.installed,
            "absent": self.absent,
        }
