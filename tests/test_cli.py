"""The command line surface, driven through main(argv)."""
import ast
import importlib.util
import json
import shlex
import time
from pathlib import Path

import pytest

import vspart.cli as cli
import vspart.hstats as hstats
import vspart.search as search
from vspart.cli import main
from vspart.constructions import beutelspacher, minimal_partition, refine, spread
from vspart.errors import BadRange, BudgetExceeded
from vspart.fields import make_field
from vspart.fileio import (
    format_partition,
    partition_to_json,
    read_partition,
    write_partition,
)
from vspart.partitions import SubspacePartition
from vspart.search import SearchResult, search_min_partition_size
from vspart.spaces import full_space


def test_construct_and_verify_spread(tmp_path, capsys):
    out = tmp_path / "spread.vspart"
    assert main([
        "construct", "spread", "--n", "4", "--q", "2", "--t", "2",
        "--out", str(out),
    ]) == 0
    text = capsys.readouterr().out
    assert "type [2^5]" in text
    assert "valid True" in text
    P = read_partition(out)
    assert P.type().entries == ((2, 5),)
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ok  point cover" in text
    assert "ok  packing condition" in text
    assert "FAIL" not in text


def test_construct_beutelspacher_json(tmp_path, capsys):
    out = tmp_path / "near.json"
    assert main([
        "construct", "beutelspacher", "--n", "7", "--q", "2", "--d", "3",
        "--out", str(out), "--format", "json",
    ]) == 0
    assert read_partition(out).type().entries == ((3, 16), (4, 1))
    assert main(["verify", str(out), "--all-identities"]) == 0
    text = capsys.readouterr().out
    assert "cross incidences" in text
    assert "FAIL" not in text


def test_construct_minimal(tmp_path, capsys):
    out = tmp_path / "min73.vspart"
    assert main([
        "construct", "minimal", "--n", "7", "--q", "2", "--t", "3",
        "--out", str(out),
    ]) == 0
    assert read_partition(out).size == 21
    capsys.readouterr()


def test_construct_argument_errors(tmp_path, capsys):
    out = tmp_path / "never.vspart"
    # missing the required dimension flag
    assert main([
        "construct", "spread", "--n", "4", "--q", "2", "--out", str(out),
    ]) == 3
    # t does not divide n
    assert main([
        "construct", "spread", "--n", "5", "--q", "2", "--t", "2",
        "--out", str(out),
    ]) == 3
    # not a prime power
    assert main([
        "construct", "spread", "--n", "4", "--q", "6", "--t", "2",
        "--out", str(out),
    ]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error:" in err


def test_verify_missing_and_malformed_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.vspart")]) == 2
    bad = tmp_path / "bad.vspart"
    bad.write_text("vspart-partition 7\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_verify_malformed_members_entry(tmp_path, capsys):
    doc = {"format": "vspart-partition", "version": 1, "n": 2, "q": 2,
           "p": 2, "e": 1, "modulus": None, "members": [5]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_oversized_inputs_exit_at_once(tmp_path, capsys):
    """A huge field order or extension degree and an ambient space above
    the file point limit are refused before any work that grows with them:
    exit 3 for flags, exit 2 for files.  sigma also refuses the orders the
    package cannot build, and each flag case is refused within a second."""
    started = time.monotonic()
    assert main([
        "construct", "spread", "--n", "2", "--t", "1", "--q", "1000000007",
        "--out", str(tmp_path / "never.vspart"),
    ]) == 3
    for argv in (
        ["sigma", "--n", "5", "--t", "2", "--q", "6"],
        ["sigma", "--n", "5", "--t", "2", "--q", "1000000007"],
        ["sigma", "--n", "20000", "--t", "3", "--q", "2"],
        ["sigma", "--n", "1000000000", "--t", "2", "--q", "3"],
        ["search", "partitions", "--n", "100000000", "--q", "3"],
        ["search", "conjecture", "--n", "100000000", "--q", "3"],
        ["search", "partitions", "--n", "3", "--q", "1"],
        ["search", "conjecture", "--n", "3", "--q", "1"],
    ):
        one = time.monotonic()
        assert main(argv) == 3, argv
        assert time.monotonic() - one < 1, argv
    assert "sigma(" not in capsys.readouterr().out
    good = format_partition(spread(4, 2, make_field(2)))
    files = {
        "big_q.vspart": good.replace("q 2", "q 1000000007").replace(
            "p 2", "p 1000000007"
        ),
        "big_e.vspart": good.replace("e 1", "e 1000000000"),
        "big_n.vspart": good.replace("n 4", "n 1000000000"),
    }
    F2 = make_field(2)
    doc = partition_to_json(SubspacePartition(30, F2, [full_space(30, F2)]))
    files["n30.json"] = json.dumps(doc)
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert main(["analyze", str(path), "--cut", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert time.monotonic() - started < 5


def test_verify_path_builds_no_hyperplane_masks(tmp_path, capsys):
    """verify and analyze count incidences from the members' duals, so
    they never build the point masks of the hyperplanes."""
    path = tmp_path / "min73.vspart"
    write_partition(minimal_partition(7, 3, make_field(2)), path)
    hstats._HYPERPLANE_MASKS.clear()
    assert main(["verify", "--all-identities", str(path)]) == 0
    assert main([
        "analyze", str(path), "--cut", "3", "--mode", "explore",
    ]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert hstats._HYPERPLANE_MASKS == {}


def test_verify_flags_invalid_partition(tmp_path, capsys):
    """A structurally well-formed file whose members do not cover the
    space fails verification with exit 3."""
    F = make_field(2)
    P = spread(4, 2, F)
    partial = type(P)(P.n, P.field, P.members[:3])
    path = tmp_path / "gappy.vspart"
    write_partition(partial, path)
    assert main(["verify", str(path)]) == 3
    text = capsys.readouterr().out
    assert "FAIL point cover" in text
    assert "FAIL packing condition" in text


def test_analyze_reports(tmp_path, capsys):
    F = make_field(2)
    P = refine(spread(6, 3, F), 0, beutelspacher(3, 1, F))
    path = tmp_path / "tailed.vspart"
    write_partition(P, path)
    assert main(["analyze", str(path), "--cut", "3"]) == 0
    text = capsys.readouterr().out
    assert "supertail size 5, bound 5, minimum True" in text
    assert "classification two-dim" in text
    assert "beta_0 4, c_0 1" in text
    assert "ok dimension gap" in text
    assert "VIOLATION" not in text


def test_analyze_explore_mode(tmp_path, capsys):
    F = make_field(2)
    P = beutelspacher(4, 1, F)
    path = tmp_path / "fat.vspart"
    write_partition(P, path)
    assert main(["analyze", str(path), "--cut", "3", "--mode", "explore"]) == 0
    text = capsys.readouterr().out
    assert "classification not-minimum" in text


def test_analyze_bad_cut(tmp_path, capsys):
    F = make_field(2)
    write_partition(spread(4, 2, F), tmp_path / "s.vspart")
    assert main(["analyze", str(tmp_path / "s.vspart"), "--cut", "2"]) == 3
    capsys.readouterr()


def test_sigma_formula_only(capsys):
    assert main(["sigma", "--n", "7", "--t", "3", "--q", "2"]) == 0
    assert "= 21" in capsys.readouterr().out


def test_sigma_oracle_agreement(capsys):
    assert main([
        "sigma", "--n", "3", "--t", "2", "--q", "2", "--oracle",
    ]) == 0
    text = capsys.readouterr().out
    assert "agreement: yes" in text
    assert ("witness: construction of 5 members, beaten by the search: no"
            in text)


def test_sigma_oracle_without_witness(monkeypatch, capsys):
    """With no usable construction the oracle says so and still agrees."""
    monkeypatch.setattr(search, "minimal_partition", _no_construction)
    assert main([
        "sigma", "--n", "4", "--t", "2", "--q", "2", "--oracle",
    ]) == 0
    text = capsys.readouterr().out
    assert "oracle minimum = 5 " in text and "agreement: yes" in text
    assert "witness: none, the search started at one member per point" in text


def _no_construction(n, t, field):
    raise BadRange("no construction")


def test_sigma_oracle_past_127_points(capsys):
    """The budget alone bounds the oracle: V(8,2) has 255 points, and its
    pins settle (8,4,2) in 4 nodes."""
    assert main(["sigma", "--n", "8", "--t", "4", "--q", "2",
                 "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle minimum = 17 (4 nodes), agreement: yes" in out


def test_sigma_oracle_budget(capsys):
    """16 units pay for the 15 points of V(4,2) but not for a node; a
    budget below the points of the space is refused as a range."""
    assert main([
        "sigma", "--n", "4", "--t", "2", "--q", "2", "--oracle",
        "--budget", "16",
    ]) == 5
    assert "budget exhausted" in capsys.readouterr().err
    assert main([
        "sigma", "--n", "4", "--t", "2", "--q", "2", "--oracle",
        "--budget", "1",
    ]) == 3
    assert "V(4,2) has more than 1 points" in capsys.readouterr().err


def test_sigma_oracle_negative_budget(capsys):
    """A negative budget is refused before the search starts."""
    assert main([
        "sigma", "--n", "5", "--t", "2", "--q", "2", "--oracle",
        "--budget", "-5",
    ]) == 3
    assert "budget must be at least 0" in capsys.readouterr().err


def test_sigma_oracle_disagreement(monkeypatch, capsys):
    """A wrong oracle answer must surface as an assertion failure."""
    real = search_min_partition_size

    def lying(n, t, q, **kwargs):
        res = real(n, t, q, **kwargs)
        return SearchResult(res.size + 1, res.partition, res.nodes)

    monkeypatch.setattr(cli, "search_min_partition_size", lying)
    assert main([
        "sigma", "--n", "3", "--t", "2", "--q", "2", "--oracle",
    ]) == 4
    assert "agreement: NO" in capsys.readouterr().out


def test_search_partitions(capsys):
    assert main(["search", "partitions", "--n", "3", "--q", "2"]) == 0
    text = capsys.readouterr().out
    assert "8 partitions of V(3,2)" in text
    assert "[1^7]" in text


def test_search_partitions_count_limit_below_one(capsys):
    assert main([
        "search", "partitions", "--n", "3", "--q", "2", "--count-limit", "0",
    ]) == 3
    assert "partitions of V(3,2)" not in capsys.readouterr().out


def test_search_partitions_checkpoint_cycle(tmp_path, capsys):
    """Budgeted sessions write a checkpoint, resume from it, and clean it
    up on completion, reproducing the one-shot tally."""
    ck = tmp_path / "v42.ckpt"
    argv = [
        "search", "partitions", "--n", "4", "--q", "2", "--max-dim", "2",
        "--budget", "20000", "--checkpoint", str(ck),
    ]
    sessions = 0
    while True:
        code = main(argv)
        sessions += 1
        assert sessions < 50
        if code == 0:
            break
        assert code == 5
        assert ck.exists()
    assert not ck.exists()
    text = capsys.readouterr().out
    assert "resuming from" in text
    assert "search finished" in text
    # the final session reports only its own share
    assert "1212 partitions" not in text


@pytest.mark.parametrize("path, value", [
    (("state", "stack", 0, 0), "7"),
    (("state", "stack", -1, 0), 10**6),
    (("state",), [[[0, 1]], 0]),
    (("state", "emitted"), "many"),
    (("state", "stack", 0), [0]),
], ids=["text-point", "far-point", "list-state", "text-emitted",
        "one-element-entry"])
def test_search_partitions_rejects_spoiled_checkpoint(
    tmp_path, capsys, path, value
):
    """A checkpoint whose state does not describe a frontier of the
    search exits 2 before resuming."""
    ck = tmp_path / "v42.ckpt"
    argv = [
        "search", "partitions", "--n", "4", "--q", "2", "--max-dim", "2",
        "--budget", "20000", "--checkpoint", str(ck),
    ]
    assert main(argv) == 5
    doc = json.loads(ck.read_text(encoding="utf-8"))
    *keys, last = path
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[last] = value
    ck.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    assert "error: checkpoint" in capsys.readouterr().err


def test_search_partitions_rejects_checkpoint_that_is_not_utf8(
    tmp_path, capsys
):
    ck = tmp_path / "bad.ckpt"
    ck.write_bytes(b"\xff\xfe{}")
    assert main(["search", "partitions", "--n", "3", "--q", "2",
                 "--checkpoint", str(ck)]) == 2
    assert "error: checkpoint is not UTF-8 JSON" in capsys.readouterr().err


def test_search_conjecture(capsys):
    assert main(["search", "conjecture", "--n", "3", "--q", "2"]) == 0
    text = capsys.readouterr().out
    assert "examined 8 partitions, 7 supertail cases" in text
    assert "no cases reached at this size" in text
    assert "COUNTEREXAMPLE" not in text


def test_search_conjecture_budget(capsys):
    assert main([
        "search", "conjecture", "--n", "4", "--q", "2", "--budget", "50",
    ]) == 5
    assert "budget exhausted" in capsys.readouterr().err


def test_cli_entry_point_runs():
    with pytest.raises(SystemExit):
        main(["--help"])
    with pytest.raises(SystemExit):
        main([])


def test_constructed_files_verify_with_all_identities(tmp_path, capsys):
    """(4,3,8) is a near-spread of points, built with no table of
    GF(8^3), which is above the extension cap."""
    for n, q, t, built in (
        (5, 2, 3, "type [2^8, 3^1] size 9 valid True"),
        (4, 8, 3, "type [1^512, 3^1] size 513 valid True"),
    ):
        out = tmp_path / f"min{n}{t}{q}.vspart"
        assert main([
            "construct", "minimal", "--n", str(n), "--q", str(q),
            "--t", str(t), "--out", str(out),
        ]) == 0
        assert built in capsys.readouterr().out
        assert main(["verify", str(out), "--all-identities"]) == 0
        assert "FAIL" not in capsys.readouterr().out


def test_budget_exceeded_error_path(monkeypatch, capsys):
    """BudgetExceeded from inside a command maps to exit 5."""

    def explode(*args, **kwargs):
        raise BudgetExceeded("out of nodes")

    monkeypatch.setattr(cli, "conjecture_search", explode)
    assert main(["search", "conjecture", "--n", "3", "--q", "2"]) == 5
    assert "out of nodes" in capsys.readouterr().err


SUBCOMMANDS = [
    "construct", "verify", "analyze", "sigma", "search",
    "search partitions", "search conjecture",
]


@pytest.mark.parametrize("argv", [
    [*name.split(), "--bogus"] for name in SUBCOMMANDS
] + [
    ["construct", "spread", "--n", "4", "--q", "2", "--out", "x", "--bogus"],
    ["verify", "f", "--bogus"],
    ["analyze", "f", "--cut", "2", "--bogus"],
    ["sigma", "--n", "5", "--t", "2", "--q", "2", "--bogus"],
    ["sigma", "--n", "five", "--t", "2", "--q", "2"],
    ["search", "partitions", "--n", "3", "--q", "2", "--bogus"],
    ["search", "conjecture", "--n", "3", "--q", "2", "--bogus"],
    ["search"], ["search", "nope"], ["verify", "-h"], ["search", "--help"],
    ["nope"], [], ["--bogus", "verify"], ["-h"],
])
def test_parse_errors_read_like_the_full_parser(argv, monkeypatch, capsys):
    """A command line that asks for help or holds an error goes to the
    argparse parser of every subcommand, which prints its text and exits
    with its own status: 0 after help, 2 after an error."""
    built = []
    full = cli.build_parser

    def counted():
        built.append(full())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    got = capsys.readouterr()
    assert len(built) == 1
    assert info.value.code == (0 if {"-h", "--help"} & set(argv) else 2)
    assert got.out or got.err


@pytest.mark.parametrize("cuts", [["0"], ["5"], ["1"], ["2", "3"]])
def test_search_conjecture_refuses_cuts_that_are_never_cases(cuts, capsys):
    """V(3,2) has cases only at cut 2; any other cut exits 3 at once."""
    started = time.monotonic()
    assert main(["search", "conjecture", "--n", "3", "--q", "2",
                 "--cuts", *cuts]) == 3
    assert time.monotonic() - started < 1
    assert "examined" not in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["partitions", "conjecture"])
def test_search_blames_n_below_one(kind, capsys):
    """--n 0 exits 3 naming n, not the max_dim of n - 1 derived from it."""
    assert main(["search", kind, "--n", "0", "--q", "2"]) == 3
    assert capsys.readouterr().err == "error: n must be at least 1, got 0\n"


def _read_by_argparse(argv):
    """What the full parser makes of argv: its namespace as a dict, or
    the exit status it stops with."""
    try:
        return vars(cli.build_parser().parse_args(list(argv)))
    except SystemExit as exc:
        return exc.code


def _command_lines_of_this_file():
    """The argv of every main([...]) call in this file whose list is
    written out; each element that is not a literal (a path, str(n)) is
    "2", and a starred one adds nothing."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    return [
        [e.value if isinstance(e, ast.Constant) else "2"
         for e in node.args[0].elts if not isinstance(e, ast.Starred)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "main" and node.args
        and isinstance(node.args[0], ast.List)
    ]


def _command_lines_of_the_readme():
    """The vspart command lines of the README's code blocks, continued
    lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = readme.split("```")[1::2]
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("vspart ")]


def _benchmark_module():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_command_lines():
    workloads = _benchmark_module()
    return [job["argv"] for name in ("verify", "oracle")
            for job in workloads.jobs(name, "work")]


SIGMA = ["sigma", "--n", "5", "--t", "2", "--q", "2"]
CONSTRUCT = ["construct", "spread", "--n", "4", "--q", "2", "--t", "2",
             "--out", "x"]
CONJECTURE = ["search", "conjecture", "--n", "4", "--q", "2"]

# Reordered and repeated options and positionals, each well formed.
REORDERED = [
    ["sigma", "--oracle", "--q", "2", "--t", "2", "--n", "5"],
    SIGMA + ["--n", "6", "--oracle", "--oracle", "--budget", "7"],
    ["construct", "--out", "x", "--t", "2", "minimal", "--q", "3",
     "--n", "4", "--format", "json", "--format", "text"],
    ["analyze", "--mode", "explore", "--cut", "3", "f", "--cut", "2"],
    ["verify", "--all-identities", "f"],
    ["search", "partitions", "--checkpoint", "c", "--q", "2", "--n", "3",
     "--max-dim", "2", "--size-limit", "5", "--count-limit", "1"],
    CONJECTURE + ["--cuts", "2", "3", "--budget", "9"],
    ["search", "conjecture", "--cuts", "3", "--n", "4", "--cuts", "2",
     "--q", "2"],
    CONJECTURE + ["--cuts"],
    CONJECTURE + ["--cuts", "--max-dim", "3"],
    ["verify", ""],
    ["sigma", "--n", " 5", "--t", "+2", "--q", "0_2"],
]

# Lines the plain parse leaves to argparse: abbreviated, "=" and
# negative-valued options, help, unknown or missing names, values that
# int() or the choices refuse, extra positionals and "--".
LEFT_TO_ARGPARSE = [
    ["sigma", "--n", "5", "--t", "2", "--qq", "2"],
    ["sigma", "--n", "5", "--t", "2", "--q=2"],
    ["sigma", "--n=5", "--t", "2", "--q", "2"],
    SIGMA + ["--orac"],
    SIGMA + ["--budget", "-5"],
    SIGMA + ["--budget", "-1e3"],
    ["sigma", "--n", "-5", "--t", "2", "--q", "2"],
    CONJECTURE + ["--cuts", "2", "-3"],
    CONJECTURE + ["--cuts", "-1"],
    CONJECTURE + ["--cuts", "two"],
    CONJECTURE + ["--cut", "2"],
    SIGMA + ["-h"], SIGMA + ["--help"], ["-h", "sigma"], ["--help"],
    SIGMA + ["--bogus"], SIGMA + ["extra"], SIGMA + ["--"],
    SIGMA[:-2], SIGMA + ["--budget"], SIGMA[:-1] + ["two"],
    ["sig", "--n", "5"], ["Sigma"] + SIGMA[1:], [],
    ["search"], ["search", "part", "--n", "3", "--q", "2"],
    ["search", "--n", "3", "partitions", "--q", "2"],
    CONSTRUCT[:1] + ["Spread"] + CONSTRUCT[2:],
    CONSTRUCT + ["--format", "xml"],
    CONSTRUCT + ["--out", "-"],
    CONSTRUCT + ["--out"],
    CONSTRUCT[:1] + CONSTRUCT[2:],
    ["verify"], ["verify", "a", "b"], ["verify", "-"],
    ["verify", "--all", "f"], ["verify", "--all-identities=1", "f"],
    ["analyze", "f", "--cut", "2", "--mode", "Explore"],
    ["analyze", "f", "--cut", "2.0"],
    ["analyze", "f", "--mode", "explore"],
]


@pytest.mark.parametrize(
    "argv",
    _command_lines_of_this_file() + _command_lines_of_the_readme()
    + _benchmark_command_lines() + REORDERED + LEFT_TO_ARGPARSE,
    ids=" ".join,
)
def test_plain_parse_agrees_with_argparse(argv, capsys):
    """The plain parse reads every command line that argparse accepts and
    that holds no negative number, into argparse's own namespace, and
    leaves every other line to argparse."""
    plain = cli._plain_parse(list(argv))
    full = _read_by_argparse(argv)
    capsys.readouterr()
    negative = any(token[:1] == "-" and token[1:2].isdigit()
                   for token in argv)
    left = (argv in LEFT_TO_ARGPARSE or not isinstance(full, dict)
            or negative)
    assert (plain is None) == left
    if plain is not None:
        assert vars(plain) == full


def test_the_agreement_lines_cover_every_source():
    """Every written-out command line of this file, the README examples
    and the benchmark's lines are among those checked, and most are read
    plainly."""
    assert len(_command_lines_of_this_file()) >= 35
    assert len(_command_lines_of_the_readme()) >= 12
    assert ["sigma", "--n", "5", "--t", "2", "--q", "2",
            "--oracle"] in _benchmark_command_lines()
    lines = (_command_lines_of_this_file() + _command_lines_of_the_readme()
             + _benchmark_command_lines() + REORDERED)
    assert sum(cli._plain_parse(argv) is not None for argv in lines) >= 60


def test_benchmark_command_lines_build_no_parser(tmp_path, monkeypatch):
    """The benchmark's verify, analyze and oracle command lines, run as
    its jobs run them, are read with no argparse parser built."""
    workloads = _benchmark_module()

    def refuse():
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    workloads.setup("verify", 1, str(tmp_path), toy=True)
    jobs = (workloads.jobs("verify", str(tmp_path), toy=True)
            + workloads.jobs("oracle", str(tmp_path)))
    assert {job["argv"][0] for job in jobs} == {"verify", "analyze", "sigma"}
    for job in jobs:
        assert workloads.run_job(job) == (True, {"exit_code": 0})
