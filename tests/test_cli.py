"""The command line surface, driven through main(argv)."""
import json
import time

import pytest

import vspart.cli as cli
import vspart.hstats as hstats
from vspart.cli import main
from vspart.constructions import beutelspacher, minimal_partition, refine, spread
from vspart.errors import BudgetExceeded
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


def test_sigma_oracle_budget(capsys):
    assert main([
        "sigma", "--n", "4", "--t", "2", "--q", "2", "--oracle",
        "--budget", "5",
    ]) == 5
    assert "budget exhausted" in capsys.readouterr().err


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
        "--budget", "400", "--checkpoint", str(ck),
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
        "--budget", "400", "--checkpoint", str(ck),
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
    out = tmp_path / "min53.vspart"
    assert main([
        "construct", "minimal", "--n", "5", "--q", "2", "--t", "3",
        "--out", str(out),
    ]) == 0
    assert main(["verify", str(out), "--all-identities"]) == 0
    capsys.readouterr()


def test_budget_exceeded_error_path(monkeypatch, capsys):
    """BudgetExceeded from inside a command maps to exit 5."""

    def explode(*args, **kwargs):
        raise BudgetExceeded("out of nodes")

    monkeypatch.setattr(cli, "conjecture_search", explode)
    assert main(["search", "conjecture", "--n", "3", "--q", "2"]) == 5
    assert "out of nodes" in capsys.readouterr().err
