"""Command line entry points.

Subcommands: construct (build and save a partition), verify (validate a
partition file and its counting identities), analyze (supertail structure
report), sigma (minimum partition size, formula and optional brute-force
cross-check), and search (partition enumeration and conjecture sweeps).

Exit codes: 0 success, 2 I/O or file format problems, 3 validation
failures and out-of-range arguments, 4 assertion failures (a proven
conclusion did not hold, or the oracle disagreed with the formula),
5 exhausted search budget.

Every subcommand's arguments are one table, _COMMANDS, read two ways.
build_parser builds the argparse parser from it.  _plain_parse reads a
well-formed command line straight from it, with no parser built and
argparse not imported: exact option spellings, values that int() and
the choices accept, and every required argument present.  Any other
command line, help included, goes to argparse, so every usage, help
and error text and every exit status is argparse's own.
"""
from __future__ import annotations

import os
import sys
from collections import Counter
from types import SimpleNamespace

from .analysis import analyze_supertail, check_dimension_gap, check_nested_bound
from .constructions import beutelspacher, minimal_partition, spread
from .errors import (
    BudgetExceeded,
    FileFormatError,
    HypothesisNotMet,
    StructureViolation,
    VspartError,
)
from .fields import make_field
from .fileio import read_partition, write_partition
from .hstats import (
    verify_incidence_identities,
    verify_moment_identities,
    verify_size_identity,
)
from .partitions import (
    check_dimension,
    check_packing,
    min_partition_size,
    validate,
)
from .search import (
    conjecture_search,
    enumerate_partitions,
    load_checkpoint,
    save_checkpoint,
    search_min_partition_size,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_ASSERTION = 4
EXIT_BUDGET = 5


def _cmd_construct(args):
    field = make_field(args.q)
    if args.kind == "spread":
        if args.t is None:
            raise VspartError("construct spread needs --t")
        P = spread(args.n, args.t, field)
    elif args.kind == "beutelspacher":
        if args.d is None:
            raise VspartError("construct beutelspacher needs --d")
        P = beutelspacher(args.n, args.d, field)
    else:
        if args.t is None:
            raise VspartError("construct minimal needs --t")
        P = minimal_partition(args.n, args.t, field)
    report = validate(P)
    write_partition(P, args.out, form=args.format)
    print(f"wrote {args.out}: V({args.n},{args.q}) type {P.type()} "
          f"size {P.size} valid {report.ok}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_verify(args):
    P = read_partition(args.file)
    q = P.field.q
    print(f"V({P.n},{q}) type {P.type()} size {P.size}")
    failures = 0

    report = validate(P)
    mark = "ok " if report.ok else "FAIL"
    print(f"{mark} point cover: uncovered {len(report.uncovered)}, "
          f"doubly covered {len(report.doubly_covered)}")
    failures += not report.ok

    packing = check_packing(P.type(), P.n, q)
    print(("ok " if packing else "FAIL") + " packing condition")
    failures += not packing

    dimension = check_dimension(P.type(), P.n)
    print(("ok " if dimension else "FAIL") + " dimension condition")
    failures += not dimension

    size_report = verify_size_identity(P)
    for line in size_report.lines():
        print(line)
    failures += not size_report.ok

    if args.all_identities:
        inc = verify_incidence_identities(P)
        for line in inc.lines():
            print(line)
        failures += not inc.ok
        for d in P.dims():
            mom = verify_moment_identities(P, d)
            for line in mom.lines():
                print(line)
            failures += not mom.ok
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def _cmd_analyze(args):
    P = read_partition(args.file)
    print(f"V({P.n},{P.field.q}) type {P.type()} size {P.size}, "
          f"cut {args.cut}")
    report = analyze_supertail(P, args.cut, mode=args.mode)
    print(f"supertail size {report.size}, bound {report.bound}, "
          f"minimum {report.is_minimum}, narrow gap {report.narrow_gap}")
    print(f"tail dims {report.tail_dims} counts {report.tail_counts}")
    for name, holds in report.conditions:
        print(f"condition {name}: {holds}")
    print(f"union dimension {report.union_dim}, "
          f"classification {report.classification.value}")
    if report.beta0 is not None:
        print(f"beta_0 {report.beta0}, c_0 {report.c0}")
    for text in report.violations:
        print(f"VIOLATION {text}")
    try:
        gap = check_dimension_gap(P, args.cut)
        print(f"ok dimension gap: {gap.cut} <= {gap.tail_top} + "
              f"{gap.smallest_dim}")
    except HypothesisNotMet:
        pass
    try:
        nested = check_nested_bound(P, args.cut)
        for name, bound, ok in nested.branches:
            print(f"{'ok ' if ok else 'FAIL'} nested bound ({name}): "
                  f"size {nested.nested_size} >= {bound}")
    except HypothesisNotMet:
        pass
    top = P.dims()[-1]
    mom = verify_moment_identities(P, top)
    for line in mom.lines():
        print(line)
    if not mom.ok:
        return EXIT_VALIDATION
    return EXIT_OK if report.ok else EXIT_ASSERTION


def _cmd_sigma(args):
    make_field(args.q)
    formula = min_partition_size(args.n, args.t, args.q)
    print(f"sigma({args.n},{args.t};q={args.q}) = {formula}")
    if not args.oracle:
        return EXIT_OK
    result = search_min_partition_size(
        args.n, args.t, args.q, budget=args.budget
    )
    agree = result.size == formula
    print(f"oracle minimum = {result.size} ({result.nodes} nodes), "
          f"agreement: {'yes' if agree else 'NO'}")
    if result.witness is None:
        print("witness: none, the search started at one member per point")
    else:
        print(f"witness: construction of {result.witness} members, beaten "
              f"by the search: {'yes' if result.beat_witness else 'no'}")
    return EXIT_OK if agree else EXIT_ASSERTION


def _cmd_search_partitions(args):
    resume = None
    if args.checkpoint and os.path.exists(args.checkpoint):
        resume = load_checkpoint(args.checkpoint)
        print(f"resuming from {args.checkpoint}")
    max_dim = args.max_dim if args.max_dim is not None else args.n - 1
    tally = Counter()
    total = 0
    try:
        for P in enumerate_partitions(
            args.n,
            args.q,
            max_dim,
            size_limit=args.size_limit,
            count_limit=args.count_limit,
            budget=args.budget,
            resume=resume,
        ):
            tally[str(P.type())] += 1
            total += 1
    except BudgetExceeded as exc:
        for t, c in sorted(tally.items()):
            print(f"{c:8d}  {t}")
        print(f"budget exhausted after {total} partitions this session")
        if args.checkpoint:
            save_checkpoint(args.checkpoint, exc.checkpoint)
            print(f"checkpoint written to {args.checkpoint}")
        return EXIT_BUDGET
    for t, c in sorted(tally.items()):
        print(f"{c:8d}  {t}")
    print(f"{total} partitions of V({args.n},{args.q}) with dimensions "
          f"up to {max_dim} this session")
    if args.checkpoint and os.path.exists(args.checkpoint):
        os.remove(args.checkpoint)
        print(f"search finished; removed {args.checkpoint}")
    return EXIT_OK


def _cmd_search_conjecture(args):
    findings = conjecture_search(
        args.n,
        args.q,
        tuple(args.cuts) if args.cuts else None,
        max_dim=args.max_dim,
        budget=args.budget,
    )
    print(f"examined {findings.partitions_examined} partitions, "
          f"{findings.cases_examined} supertail cases")
    print(f"narrow-gap cases {findings.narrow_cases}, of minimum size "
          f"{findings.minimum_narrow_cases}")
    print(f"side conditions held (two dims / near-double / uniform top): "
          f"{findings.condition_counts}")
    for cls, count in findings.class_counts:
        print(f"{count:8d}  {cls}")
    if findings.open_cases:
        print(f"open-regime cases: {len(findings.open_cases)}")
        for case in findings.open_cases:
            print(f"  {case.type_str} cut {case.cut}: {case.classification}")
    else:
        print("open regime (narrow gap, no side condition): no cases "
              "reached at this size")
    for text in findings.violations:
        print(f"VIOLATION {text}")
    for case in findings.counterexamples:
        print(f"COUNTEREXAMPLE {case.type_str} cut {case.cut}")
    return EXIT_OK if findings.ok else EXIT_ASSERTION


# Every subcommand in the order that usage and help list them: its help
# and either its handler and arguments, each a name and the keywords of
# add_argument, or its own subcommands.  build_parser and _plain_parse
# both read this table.
_COMMANDS = {
    "construct": ("build a partition and write it", _cmd_construct, (
        ("kind", {"choices": ["spread", "beutelspacher", "minimal"]}),
        ("--n", {"type": int, "required": True}),
        ("--q", {"type": int, "required": True}),
        ("--t", {"type": int, "help": "largest dimension (spread, minimal)"}),
        ("--d", {"type": int, "help": "small dimension (beutelspacher)"}),
        ("--out", {"required": True}),
        ("--format", {"choices": ["text", "json"], "default": "text"}),
    )),
    "verify": ("validate a partition file", _cmd_verify, (
        ("file", {}),
        ("--all-identities", {"action": "store_true"}),
    )),
    "analyze": ("supertail structure report", _cmd_analyze, (
        ("file", {}),
        ("--cut", {"type": int, "required": True}),
        ("--mode", {"choices": ["assert", "explore"], "default": "assert"}),
    )),
    "sigma": ("minimum partition size", _cmd_sigma, (
        ("--n", {"type": int, "required": True}),
        ("--t", {"type": int, "required": True}),
        ("--q", {"type": int, "required": True}),
        ("--oracle", {"action": "store_true",
                      "help": "cross-check with brute-force search"}),
        ("--budget", {"type": int}),
    )),
    "search": ("exhaustive searches", {
        "partitions": ("enumerate all partitions", _cmd_search_partitions, (
            ("--n", {"type": int, "required": True}),
            ("--q", {"type": int, "required": True}),
            ("--max-dim", {"type": int}),
            ("--size-limit", {"type": int}),
            ("--count-limit", {"type": int}),
            ("--budget", {"type": int}),
            ("--checkpoint", {"help": "resume file for long runs"}),
        )),
        "conjecture": ("sweep supertail cases", _cmd_search_conjecture, (
            ("--n", {"type": int, "required": True}),
            ("--q", {"type": int, "required": True}),
            ("--max-dim", {"type": int}),
            ("--cuts", {"type": int, "nargs": "*"}),
            ("--budget", {"type": int}),
        )),
    }),
}


def _add_commands(sub, commands):
    """Add to the subparsers sub the parser of each command of the table
    commands; the subcommands of a command name their choice as
    f"{name}_kind"."""
    for name, (text, *body) in commands.items():
        parser = sub.add_parser(name, help=text)
        if len(body) == 1:
            _add_commands(parser.add_subparsers(dest=f"{name}_kind",
                                                required=True), body[0])
            continue
        func, arguments = body
        for flag, options in arguments:
            parser.add_argument(flag, **options)
        parser.set_defaults(func=func)


def build_parser():
    """The argparse parser of every subcommand, built only for a command
    line that _plain_parse cannot read: it prints every usage, help and
    error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="vspart",
        description="Construct, verify, analyze, and search subspace "
        "partitions of finite vector spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_commands(sub, _COMMANDS)
    return parser


def _plain_parse(argv):
    """The namespace that build_parser().parse_args(argv) returns, read
    straight from _COMMANDS, or None when argv is not a plain,
    well-formed command line (see the module docstring); argparse then
    reads it."""
    values = {}
    commands, dest, rest = _COMMANDS, "command", list(argv)
    while True:
        if not rest or rest[0] not in commands:
            return None
        name = values[dest] = rest.pop(0)
        _, *body = commands[name]
        if len(body) == 2:
            break
        commands, dest = body[0], f"{name}_kind"
    func, arguments = body
    options = {flag: spec for flag, spec in arguments if flag[0] == "-"}
    for flag, spec in options.items():
        values[_dest(flag)] = spec.get("default",
                                       False if "action" in spec else None)
    words = []
    seen = set()
    while rest:
        token = rest.pop(0)
        if token[:1] != "-":
            words.append(token)
            continue
        spec = options.get(token)
        if spec is None:
            return None
        seen.add(token)
        if "action" in spec:  # store_true
            values[_dest(token)] = True
            continue
        if "nargs" in spec:  # "*": every value up to the next option
            count = next((i for i, w in enumerate(rest) if w[:1] == "-"),
                         len(rest))
        elif rest and rest[0][:1] != "-":
            count = 1
        else:
            return None
        given = [_plain_value(spec, w) for w in rest[:count]]
        del rest[:count]
        if None in given:
            return None
        values[_dest(token)] = given if "nargs" in spec else given[0]
    positionals = [(flag, spec) for flag, spec in arguments
                   if flag[0] != "-"]
    if len(words) != len(positionals) or any(
            spec.get("required") and flag not in seen
            for flag, spec in options.items()):
        return None
    for (flag, spec), word in zip(positionals, words):
        values[flag] = _plain_value(spec, word)
        if values[flag] is None:
            return None
    return SimpleNamespace(func=func, **values)


def _dest(flag):
    """The attribute argparse names an option --flag-name by."""
    return flag[2:].replace("-", "_")


def _plain_value(spec, word):
    """word converted by the type of the argument spec and in its
    choices, or None where argparse would refuse it."""
    if spec.get("type") is int:
        try:
            word = int(word)
        except ValueError:
            return None
    return word if word in spec.get("choices", (word,)) else None


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StructureViolation as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VspartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
