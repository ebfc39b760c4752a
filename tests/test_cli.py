"""Command layer: argument handling, file formats, exit codes, and the
byte-for-byte determinism of everything the CLI writes."""

import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbound import (
    AlternatingPath,
    SegmentFamily,
    among_path,
    canonical_code,
    compatible_path,
    extremal_branch_star,
    format_tree,
    max_caterpillar,
    parse_tree,
    render_segments,
    render_tree,
    segments_to_tree,
    tree_from_pruefer,
    tree_to_segments,
    validate_path,
)
import catbound.cli as cli
import catbound.duality as duality
from catbound.cli import main
from helpers import family_error_by_sorting, path_tree, spider_tree, star_tree, trees


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# eval and table
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, want",
    [
        (("eval", "p", "--m", "50"), "18"),
        (("eval", "q", "--m", "20"), "10"),
        (("eval", "f", "--k", "10"), "49"),
        (("eval", "g", "--k", "26"), "420"),
        (("eval", "e-contract", "--k", "10"), "18"),
        (("eval", "e-induced", "--k", "15"), "55"),
    ],
)
def test_eval_values(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == want


def test_eval_wants_exactly_its_own_argument(capsys):
    code, _, err = run(capsys, "eval", "p", "--k", "5")
    assert code == 1 and "--m" in err
    code, _, err = run(capsys, "eval", "f", "--m", "5")
    assert code == 1 and "--k" in err
    code, _, err = run(capsys, "eval", "q", "--m", "3", "--k", "3")
    assert code == 1 and "only" in err


def test_eval_propagates_domain_errors(capsys):
    code, _, err = run(capsys, "eval", "p", "--m", "0")
    assert code == 1 and "error" in err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "q", "--from", "1", "--to", "6", "--csv")
    assert code == 0
    assert out == "m,q\n1,1\n2,2\n3,3\n4,4\n5,5\n6,5\n"


def test_table_text_and_csv():
    rows = [(1, 1), (2, 2), (10, 7)]
    assert cli._format_table("m", "q", rows, csv=True) == "m,q\n1,1\n2,2\n10,7\n"
    assert cli._format_table("m", "q", rows, csv=False) == " m  q\n 1  1\n 2  2\n10  7\n"


def test_table_is_deterministic(capsys):
    first = run(capsys, "table", "f", "--from", "1", "--to", "20")
    second = run(capsys, "table", "f", "--from", "1", "--to", "20")
    assert first == second and first[0] == 0


def test_table_range_check(capsys):
    code, _, err = run(capsys, "table", "p", "--from", "9", "--to", "3")
    assert code == 1 and "--from" in err


def test_table_refuses_spans_past_the_row_limit(capsys, monkeypatch):
    def never(value):
        raise AssertionError("a row was evaluated")

    monkeypatch.setitem(cli._EVAL, "p", ("--m", never))
    code, out, err = run(capsys, "table", "p", "--from", "1", "--to", "100000000")
    assert code == 1 and out == ""
    assert err == "catbound: error: table p would have more than 1000000 rows\n"
    monkeypatch.setattr(cli, "MAX_TABLE_ROWS", 3)
    code, _, _ = run(capsys, "table", "q", "--from", "1", "--to", "3")
    assert code == 0
    code, _, err = run(capsys, "table", "q", "--from", "1", "--to", "4")
    assert code == 1 and "more than 3 rows" in err


@pytest.mark.parametrize("quantity, cap", sorted(cli._MAX_PRINTABLE_K.items()))
def test_eval_prints_up_to_the_digit_limit_and_refuses_past_it(capsys, quantity, cap):
    fn = cli._EVAL[quantity][1]
    # the cap is exact: its value prints and the next one would not
    assert fn(cap) < 10**cli.MAX_RESULT_DIGITS <= fn(cap + 1)
    code, out, _ = run(capsys, "eval", quantity, "--k", str(cap))
    assert code == 0 and out == f"{fn(cap)}\n"
    code, out, err = run(capsys, "eval", quantity, "--k", str(cap + 1))
    assert code == 1 and out == ""
    assert err == f"catbound: error: eval {quantity} would print more than 4300 digits\n"
    code, out, err = run(capsys, "table", quantity, "--from", str(cap), "--to", str(cap + 1))
    assert code == 1 and out == ""
    assert err == f"catbound: error: table {quantity} would print more than 4300 digits\n"


def test_e_contract_prints_up_to_the_digit_limit_and_refuses_past_it(capsys):
    fn = cli._EVAL["e-contract"][1]
    limit = 10**cli.MAX_RESULT_DIGITS
    cap = math.isqrt(8 * limit)  # fn(k) > k^2 / 8, so fn(cap + 1) >= limit
    while fn(cap) >= limit:
        cap -= 1
    assert len(str(fn(cap))) == cli.MAX_RESULT_DIGITS
    code, out, _ = run(capsys, "eval", "e-contract", "--k", str(cap))
    assert code == 0 and out == f"{fn(cap)}\n"
    for k in (cap + 1, 10**2200):
        for argv in (("eval", "e-contract", "--k", str(k)), ("table", "e-contract", "--from", str(k), "--to", str(k))):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == f"catbound: error: {argv[0]} e-contract would print more than 4300 digits\n"


@pytest.mark.parametrize("quantity", sorted(cli._MAX_PRINTABLE_K))
def test_huge_k_is_refused_before_evaluating(capsys, monkeypatch, quantity):
    def never(value):
        raise AssertionError("the closed form was evaluated")

    monkeypatch.setitem(cli._EVAL, quantity, ("--k", never))
    code, out, err = run(capsys, "eval", quantity, "--k", "10000000000")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "would print more than 4300 digits" in err
    code, out, err = run(capsys, "table", quantity, "--from", "1", "--to", "100000")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "would print more than 4300 digits" in err


# ----------------------------------------------------------------------
# build and analyze
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, edges",
    [
        (("build", "rk", "--k", "7"), 10),
        (("build", "rdl", "--d", "4", "--l", "3"), 6),
        (("build", "bk", "--k", "6"), 11),
        (("build", "tk", "--k", "6"), 8),
    ],
)
def test_build_shapes(capsys, tmp_path, argv, edges):
    out_file = tmp_path / "t.txt"
    code, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert parse_tree(out_file.read_text()).m == edges


def test_build_to_stdout(capsys):
    code, out, _ = run(capsys, "build", "rk", "--k", "1")
    assert code == 0 and out == "0 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "rk", "--k", "100000"),
        ("build", "bk", "--k", "40"),
        ("build", "tk", "--k", str(10**12)),
        ("build", "rdl", "--d", "2000", "--l", "2000"),
    ],
)
def test_build_refuses_trees_past_the_edge_limit(capsys, monkeypatch, argv):
    def never(*args):
        raise AssertionError("a tree was constructed")

    for name in ("extremal_spider", "beautiful_tree", "extremal_branch_star", "build_spider"):
        monkeypatch.setattr(f"catbound.cli.{name}", never)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"catbound: error: build {argv[1]} would have more than 1000000 edges\n"


def test_build_requires_its_parameters(capsys):
    code, _, err = run(capsys, "build", "rk")
    assert code == 1 and "--k" in err
    code, _, err = run(capsys, "build", "rdl", "--d", "4")
    assert code == 1 and "--l" in err


def test_analyze_reports_the_measurements(capsys, tmp_path):
    tree_file = tmp_path / "spider.txt"
    tree_file.write_text("0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n")
    code, out, _ = run(capsys, "analyze", "--tree", str(tree_file), "--witness")
    assert code == 0
    lines = dict(
        (line[:28].strip(), line[28:].strip()) for line in out.splitlines()
    )
    assert lines["vertices"] == "7"
    assert lines["edges"] == "6"
    assert lines["leaves"] == "3"
    assert lines["diameter"] == "4"
    assert lines["caterpillar"] == "no"
    assert lines["spider"] == "yes"
    assert lines["score by contraction"] == "5"
    assert lines["largest induced caterpillar"] == "5"
    assert "witness spine" in lines


def test_analyze_bad_file(capsys, tmp_path):
    missing = tmp_path / "nope.txt"
    code, _, err = run(capsys, "analyze", "--tree", str(missing))
    assert code == 1 and "cannot read" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")
    code, _, err = run(capsys, "analyze", "--tree", str(bad))
    assert code == 1 and "self-loop" in err
    empty = tmp_path / "one-vertex.txt"  # no edge lines: a lone vertex
    empty.write_text("# a single vertex\n")
    assert run(capsys, "analyze", "--tree", str(empty)) == (
        1, "", "catbound: error: no edges found\n"
    )


def test_analyze_names_a_file_that_is_not_utf8(capsys, tmp_path):
    binary = tmp_path / "tree.bin"
    binary.write_bytes(b"0 1\n\xff\n")
    assert run(capsys, "analyze", "--tree", str(binary)) == (
        1, "", f"catbound: error: cannot read {binary}: not UTF-8 text\n"
    )


@pytest.mark.parametrize("command", ["build", "dual", "path", "render"])
def test_unwritable_out_exits_one_naming_the_file(capsys, tmp_path, command):
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("0 1\n1 2\n")
    seg_file = tmp_path / "fam.json"
    seg_file.write_text('{"n": 2, "segments": [[0, 1], [2, 3]]}')
    argv = {
        "build": ["build", "rk", "--k", "3"],
        "dual": ["dual", "to-segments", "--tree", str(tree_file)],
        "path": ["path", "among", "--segments", str(seg_file)],
        "render": ["render", "--segments", str(seg_file)],
    }[command]
    for out in (tmp_path, tmp_path / "missing" / "x.txt"):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"catbound: error: cannot write {out}: ")
        assert err.count("\n") == 1


# ----------------------------------------------------------------------
# dual and path, chained through files
# ----------------------------------------------------------------------


def test_dual_round_trip(capsys, tmp_path):
    tree_file = tmp_path / "in.txt"
    seg_file = tmp_path / "fam.json"
    back_file = tmp_path / "out.txt"
    tree_file.write_text("0 1\n1 2\n1 3\n3 4\n")
    assert run(capsys, "dual", "to-segments", "--tree", str(tree_file), "--root", "2", "--out", str(seg_file))[0] == 0
    data = json.loads(seg_file.read_text())
    assert data["n"] == 4 and len(data["segments"]) == 4
    assert run(capsys, "dual", "to-tree", "--segments", str(seg_file), "--out", str(back_file))[0] == 0
    before = parse_tree(tree_file.read_text())
    after = parse_tree(back_file.read_text())
    assert canonical_code(before) == canonical_code(after)


def test_dual_to_segments_builds_no_family_structure(capsys, tmp_path, monkeypatch):
    # the family is only written out, so its cells are never worked out
    def never(*args):
        raise AssertionError("family structure was built")

    monkeypatch.setattr(duality, "_structure", never)
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("0 1\n1 2\n0 3\n")
    code, out, _ = run(capsys, "dual", "to-segments", "--tree", str(tree_file))
    assert code == 0
    assert json.loads(out) == {"n": 3, "segments": [[0, 3], [1, 2], [4, 5]]}


def test_dual_to_tree_and_compatible_path_build_no_segment_map(
    capsys, tmp_path, monkeypatch
):
    # both read the family's cell tree; the map from tree edges to segments
    # that segments_to_tree adds is never read
    def never(*args):
        raise AssertionError("segment map was built")

    for module in (cli, duality):
        if hasattr(module, "segments_to_tree"):
            monkeypatch.setattr(module, "segments_to_tree", never)
    seg_file = tmp_path / "fam.json"
    seg_file.write_text('{"n": 3, "segments": [[0, 3], [1, 2], [4, 5]]}')
    code, out, _ = run(capsys, "dual", "to-tree", "--segments", str(seg_file))
    assert code == 0 and out == "0 1\n0 3\n1 2\n"
    code, out, _ = run(capsys, "path", "compatible", "--segments", str(seg_file))
    assert code == 0
    assert json.loads(out) == {"mode": "compatible", "segments": 3, "endpoints": [4, 5, 0, 3, 2, 1]}


def test_dual_argument_checks(capsys):
    code, _, err = run(capsys, "dual", "to-segments")
    assert code == 1 and "--tree" in err
    code, _, err = run(capsys, "dual", "to-tree")
    assert code == 1 and "--segments" in err


def test_path_commands_emit_valid_chains(capsys, tmp_path):
    seg_file = tmp_path / "fam.json"
    family = tree_to_segments(parse_tree("0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n"), 0)
    seg_file.write_text(json.dumps({"n": family.n, "segments": [list(p) for p in family.pairs]}))

    code, out, _ = run(capsys, "path", "among", "--segments", str(seg_file))
    assert code == 0
    chain = json.loads(out)
    assert chain["mode"] == "among"
    assert chain["segments"] == 5
    assert len(chain["endpoints"]) == 10

    code, out, _ = run(capsys, "path", "compatible", "--segments", str(seg_file))
    assert code == 0
    chain = json.loads(out)
    assert chain["segments"] == 5  # this family's best induced caterpillar


def test_path_rejects_malformed_family_files(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 2}")
    code, _, err = run(capsys, "path", "among", "--segments", str(bad))
    assert code == 1 and "segments" in err
    bad.write_text("not json")
    code, _, err = run(capsys, "path", "among", "--segments", str(bad))
    assert code == 1 and "JSON" in err
    for text, message in (
        ('{"n": null, "segments": [[0, 1]]}', "n must be an integer, got None"),
        ('{"n": 1.9, "segments": [[0, 1]]}', "n must be an integer, got 1.9"),
        ('{"n": true, "segments": [[0, 1]]}', "n must be an integer, got True"),
        ('{"n": 1, "segments": [[0, 1e400]]}', "segments must perfectly match labels 0..2n-1"),
        ('{"n": 1, "segments": [[0.7, 1.2]]}', "segments must perfectly match labels 0..2n-1"),
        ('{"n": 1, "segments": [[false, 1]]}', "segments must perfectly match labels 0..2n-1"),
        ('{"n": 1, "segments": [[true, 1]]}', "degenerate segment (1, True)"),
        ('{"n": 1, "segments": [[0, 1, 2]]}', "segments must perfectly match labels 0..2n-1"),
        ('{"n": 1, "segments": [0, 1]}', "segments must perfectly match labels 0..2n-1"),
        ('{"n": 1, "segments": "01"}', "segments must perfectly match labels 0..2n-1"),
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "path", "among", "--segments", str(bad))
        assert code == 1 and err == f"catbound: error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("nope", "not valid JSON (Expecting value)"),
        ('{"n": 0, "segments": []}', "need at least one segment"),
        ('{"n": 2, "segments": [[0, 2], [1, 3]]}', "segments (0, 2) and (1, 3) cross"),
        pytest.param(
            "[" * 100_000 + "]" * 100_000,
            "JSON nested too deeply to read",
            id="nested-100000",
        ),
    ],
)
def test_family_errors_name_the_file(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "path", "among", "--segments", str(bad))
    assert code == 1 and out == ""
    assert err == f"catbound: error: {bad}: {message}\n"


def test_broken_invariant_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    def broken(family):
        raise AssertionError("constructed path failed validation: stub")

    monkeypatch.setattr("catbound.cli.among_path", broken)
    seg_file = tmp_path / "fam.json"
    seg_file.write_text('{"n": 1, "segments": [[0, 1]]}')
    code, out, err = run(capsys, "path", "among", "--segments", str(seg_file))
    assert code == 2 and out == ""
    assert err == "catbound: broken invariant: constructed path failed validation: stub\n"


# ----------------------------------------------------------------------
# render
# ----------------------------------------------------------------------


def test_render_segments_is_deterministic_and_well_formed(tmp_path, capsys):
    seg_file = tmp_path / "fam.json"
    seg_file.write_text('{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}')
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for out in (first, second):
        assert run(capsys, "render", "--segments", str(seg_file), "--out", str(out))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    root = ET.fromstring(first.read_text())
    assert root.tag.endswith("svg")


def test_render_overlays_a_path(tmp_path, capsys):
    seg_file = tmp_path / "fam.json"
    path_file = tmp_path / "chain.json"
    svg_file = tmp_path / "pic.svg"
    seg_file.write_text('{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}')
    path_file.write_text('{"mode": "compatible", "endpoints": [0, 5, 1, 4]}')
    code, _, _ = run(capsys, "render", "--segments", str(seg_file), "--path", str(path_file), "--out", str(svg_file))
    assert code == 0
    assert "polyline" in svg_file.read_text()


def test_render_refuses_invalid_paths_with_exit_2(tmp_path, capsys):
    seg_file = tmp_path / "fam.json"
    path_file = tmp_path / "chain.json"
    seg_file.write_text('{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}')
    path_file.write_text('{"mode": "compatible", "endpoints": [2, 3, 0, 5]}')
    code, _, err = run(capsys, "render", "--segments", str(seg_file), "--path", str(path_file), "--out", str(tmp_path / "x.svg"))
    assert code == 2 and "unused segment" in err


_NOT_A_PATH = '{"mode": ..., "endpoints": [...]}'


@pytest.mark.parametrize(
    "endpoints, message",
    [
        ("5", f"expected {_NOT_A_PATH}"),
        ("[0, 1e400]", "endpoint must be an integer, got inf"),
        ("[0.5, 1]", "endpoint must be an integer, got 0.5"),
        ("[true, 1]", "endpoint must be an integer, got True"),
    ],
    ids=["5", "[0, 1e400]", "[0.5, 1]", "[true, 1]"],
)
def test_render_rejects_malformed_path_files(tmp_path, capsys, endpoints, message):
    seg_file = tmp_path / "fam.json"
    path_file = tmp_path / "chain.json"
    seg_file.write_text('{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}')
    path_file.write_text('{"mode": "compatible", "endpoints": %s}' % endpoints)
    code, _, err = run(capsys, "render", "--segments", str(seg_file), "--path", str(path_file), "--out", str(tmp_path / "x.svg"))
    assert code == 1
    assert err == f"catbound: error: {path_file}: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("nope", "not valid JSON (Expecting value)"),
        ('{"mode": 5, "endpoints": [0, 5]}', "unknown mode 5"),
        ('{"mode": "fancy", "endpoints": [0, 5]}', "unknown mode 'fancy'"),
        ('{"mode": "compatible", "endpoints": []}', "endpoint count must be twice the segment count"),
        ('{"mode": "compatible", "endpoints": [0, 5, 1]}', "endpoint count must be twice the segment count"),
        ('{"segments": 7, "endpoints": [0, 5]}', "endpoint count must be twice the segment count"),
        ('{"segments": "x", "endpoints": [0, 5]}', "segments must be an integer, got 'x'"),
        ('{"segments": true, "endpoints": [0, 5]}', "segments must be an integer, got True"),
        ('{"segments": 1}', f"expected {_NOT_A_PATH}"),
        pytest.param(
            '{"endpoints": %s}' % ("[" * 100_000 + "]" * 100_000),
            "JSON nested too deeply to read",
            id="nested-100000",
        ),
    ],
)
def test_path_file_errors_name_the_file(tmp_path, capsys, text, message):
    seg_file = tmp_path / "fam.json"
    path_file = tmp_path / "chain.json"
    seg_file.write_text('{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}')
    path_file.write_text(text)
    code, out, err = run(capsys, "render", "--segments", str(seg_file), "--path", str(path_file), "--out", str(tmp_path / "x.svg"))
    assert code == 1 and out == ""
    assert err == f"catbound: error: {path_file}: {message}\n"


def test_render_tree_output(tmp_path, capsys):
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("0 1\n1 2\n2 3\n")
    svg_file = tmp_path / "t.svg"
    assert run(capsys, "render", "--tree", str(tree_file), "--out", str(svg_file))[0] == 0
    root = ET.fromstring(svg_file.read_text())
    assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 4


def test_render_wants_exactly_one_input(capsys, tmp_path):
    code, _, err = run(capsys, "render", "--out", str(tmp_path / "x.svg"))
    assert code == 1 and "exactly one" in err


@pytest.mark.parametrize(
    "given, extra, message",
    [
        ("--segments", ["--root", "2"], "--root goes with --tree"),
        ("--tree", ["--path", "chain.json"], "--path goes with --segments"),
    ],
)
def test_render_refuses_an_option_of_the_other_input(capsys, tmp_path, given, extra, message):
    (tmp_path / "fam.json").write_text('{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}')
    (tmp_path / "t.txt").write_text("0 1\n1 2\n")
    source = tmp_path / ("fam.json" if given == "--segments" else "t.txt")
    svg = tmp_path / "x.svg"
    argv = ["render", given, str(source), *extra, "--out", str(svg)]
    assert run(capsys, *argv) == (1, "", f"catbound: error: {message}\n")
    assert not svg.exists()


def test_render_functions_are_pure():
    family = SegmentFamily(2, ((0, 3), (1, 2)))
    assert render_segments(family) == render_segments(family)
    assert render_tree(path_tree(5)) == render_tree(path_tree(5))
    assert render_tree(star_tree(5)) == render_tree(star_tree(5))


@pytest.mark.parametrize(
    "endpoints, message",
    [
        ((-1, 0, 1, 2), "label -1 out of range 0..3"),  # would wrap to label 3
        ((0, 3, 1, 4), "label 4 out of range 0..3"),  # past the last dot
    ],
)
def test_render_segments_refuses_a_path_label_outside_the_family(endpoints, message):
    family = SegmentFamily(2, ((0, 3), (1, 2)))
    path = AlternatingPath(endpoints, 2)
    assert message in validate_path(family, path, "simple").issues
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render_segments(family, path)


# sha256 of render_tree output; a root of None is the default (a centroid)
RENDER_TREE_DIGESTS = {
    ("path-7", None): "ebb2b471df222950fa85f3b85984039b9d1b6f2fdc51e4344e7a3a8dabdc5b2c",
    ("path-7", 6): "7df32357e2ed7a133e1050fa8cdf6f6637d7dd89c0d20b4a1d46d8b3e50f8969",
    ("star-6", None): "c9a0329f9d205bbae8cd7a84a03ed820fe24eedecb7e01b36216db45b3baa52f",
    ("star-6", 5): "031e4642c1b5f807fb5a69fe863d3478422dd4571a38d7b650bcb1f2a4c668e1",
    ("spider-3-2-1", None): "34f2eb7795f7503ab6727f7cfef6d33e2866d79f449e732d57f6948c40abd531",
    ("spider-3-2-1", 6): "34cfdd1e9f89517205d4bf2468e519123b83498836075d669712c887334189ac",
    ("branch-star-6", None): "cb9e9ac25769e190207eb1e29f220f90628ebe34548587eb391e42e346e414f4",
    ("branch-star-6", 1): "33c6d80848a05d725b2b1dd7ac0b26c5c29325a7f5b981562919812a650b6ce7",
    ("branch-star-6", 8): "64c5360d8c6a0f1396543333c9a131f4276386be6d0814da652512124a85a092",
}
RENDER_TREES = {
    "path-7": lambda: path_tree(7),
    "star-6": lambda: star_tree(6),
    "spider-3-2-1": lambda: spider_tree(3, 2, 1),
    "branch-star-6": lambda: extremal_branch_star(6),
}


@pytest.mark.parametrize("name, root", sorted(RENDER_TREE_DIGESTS, key=str))
def test_render_tree_bytes_are_pinned(name, root):
    svg = render_tree(RENDER_TREES[name](), root)
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == RENDER_TREE_DIGESTS[name, root]


# sha256 of render_segments output: no path, the compatible chain on the
# cell tree's largest induced caterpillar, and the among path; on the Pruefer
# family those two chains take 34 and 38 of the 50 segments
RENDER_SEGMENTS_DIGESTS = {
    ("one", "none"): "73c9f064801717f159cce55f5364f5851a4347eaa227d8be596ab65da8d12e36",
    ("one", "compatible"): "63d0dfe0a59294543b6a5b63de80ee610ca5adf7dbae42549571021ccf84852d",
    ("one", "among"): "63d0dfe0a59294543b6a5b63de80ee610ca5adf7dbae42549571021ccf84852d",
    ("star-4", "none"): "500c072d09c73a7094f1ef2a362fdd8a9380bc3d458b379c7ad67e2ad51c6b9a",
    ("star-4", "compatible"): "ce1413f29deb6a2575674a0f930ea1a0c79f63005a0489a37c40b7a4609ab90b",
    ("star-4", "among"): "ce1413f29deb6a2575674a0f930ea1a0c79f63005a0489a37c40b7a4609ab90b",
    ("path-5", "none"): "cba23810e5ad01ec55ebb1a7bc8ddc09ab1e5e4a2afdbd7d0259de1f0e1a292d",
    ("path-5", "compatible"): "5bd99e7f2d47350bdb6cc554dc3247732cfab29bbe591750b2443c676c36e5d0",
    ("path-5", "among"): "5bd99e7f2d47350bdb6cc554dc3247732cfab29bbe591750b2443c676c36e5d0",
    ("nested-4", "none"): "aa2ccb610352160538ff063502fd57c4cfd326b29f4d1748dd86203dbf3636a6",
    ("nested-4", "compatible"): "a2a48c24900e720eddeb7220caeeca3d6e534f18e10c061c4dd551e414910a05",
    ("nested-4", "among"): "a2a48c24900e720eddeb7220caeeca3d6e534f18e10c061c4dd551e414910a05",
    ("pruefer-50", "none"): "75bbffa001a6166384a9fe8277ef3f488d77a74ccb61f4dcddc2a17ed79af9d0",
    ("pruefer-50", "compatible"): "bfe1e7ad0c23a312a28b4b4ad0cedf71562625ccddc9993820e18af986c4359e",
    ("pruefer-50", "among"): "3584661f6aeeeab248a3f901548e965d1d6d615fa09a71d52a6185a8498a3a9e",
}


def _pruefer_family(edges: int, seed: int) -> SegmentFamily:
    rng = random.Random(seed)
    n = edges + 1
    code = tuple(rng.randrange(n) for _ in range(n - 2))
    return tree_to_segments(tree_from_pruefer(code, n), 0)


RENDER_FAMILIES = {
    "one": lambda: SegmentFamily(1, ((0, 1),)),
    "star-4": lambda: tree_to_segments(star_tree(5), 0),
    "path-5": lambda: tree_to_segments(path_tree(6), 0),
    "nested-4": lambda: SegmentFamily(4, ((0, 7), (1, 2), (3, 6), (4, 5))),
    "pruefer-50": lambda: _pruefer_family(50, 7),
}


@pytest.mark.parametrize("name, kind", sorted(RENDER_SEGMENTS_DIGESTS))
def test_render_segments_bytes_are_pinned(name, kind):
    family = RENDER_FAMILIES[name]()
    chain = None
    if kind == "compatible":
        chain = compatible_path(family, max_caterpillar(segments_to_tree(family)[0]))
    elif kind == "among":
        chain = among_path(family)[0]
    svg = render_segments(family, chain)
    assert hashlib.sha256(svg.encode()).hexdigest() == RENDER_SEGMENTS_DIGESTS[name, kind]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_passes_and_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-edges", "4", "--max-k", "8", "--sweep", "500")
    assert code == 0
    assert out.rstrip().endswith("checks passed")


def test_verify_corruption_exits_two(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-edges", "2", "--max-k", "10",
        "--sweep", "500", "--corrupt-f", "9",
    )
    assert code == 2
    assert "FAIL" in out
    # the largest checked score can be corrupted too
    code, out, _ = run(
        capsys, "verify", "--max-edges", "2", "--max-k", "9",
        "--sweep", "500", "--corrupt-f", "9",
    )
    assert code == 2
    assert "FAIL branch-size" in out


@pytest.mark.parametrize("k", ["10", "0", "-3", str(10**8)])
def test_verify_refuses_corrupt_f_outside_the_checked_scores(capsys, monkeypatch, k):
    # refused before the branch size of K is computed, or anything checked
    def never(*args, **kwargs):
        raise AssertionError("evaluated before the refusal")

    monkeypatch.setattr(cli, "max_branch_size", never)
    monkeypatch.setattr(cli, "verify_all", never)
    assert run(
        capsys, "verify", "--max-edges", "3", "--max-k", "9", "--corrupt-f", k
    ) == (1, "", "catbound: error: --corrupt-f must lie in 1..9, the --max-k range\n")


@pytest.mark.parametrize("flag", ["--max-edges", "--max-k"])
def test_verify_refuses_a_non_positive_bound_naming_the_flag(capsys, monkeypatch, flag):
    def never(*args, **kwargs):
        raise AssertionError("verified before the refusal")

    monkeypatch.setattr(cli, "verify_all", never)
    assert run(capsys, "verify", flag, "0") == (
        1,
        "",
        f"catbound: error: {flag} must be positive\n",
    )


@pytest.mark.parametrize(
    "flags, refusal",
    [
        (["--max-edges", "0", "--max-k", "0"], "--max-edges must be positive"),
        (["--max-k", "0", "--max-edges", "20"], "--max-edges must be at most 19"),
        (["--max-k", "201", "--sweep", "0"], "--max-k must be at most 200"),
        (["--max-k", "-1", "--sweep", "0"], "--max-k must be positive"),
        (["--sweep", "-5", "--corrupt-f", "99"], "--sweep must be positive"),
        (
            ["--corrupt-f", "99", "--sweep", str(10**30 + 1)],
            f"--sweep must be at most {10**30}",
        ),
    ],
)
def test_verify_names_the_first_bad_flag_in_a_fixed_order(
    capsys, monkeypatch, flags, refusal
):
    def never(*args, **kwargs):
        raise AssertionError("verified before the refusal")

    monkeypatch.setattr(cli, "verify_all", never)
    assert run(capsys, "verify", *flags) == (1, "", f"catbound: error: {refusal}\n")


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "--max-edges", "3", "--max-k", "6", "--sweep", "500", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failed"] == 0


def test_verify_text_matches_the_golden_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-edges", "7", "--max-k", "12", "--sweep", "2000"
    )
    assert code == 0
    assert out == (Path(__file__).parent / "verify_golden.txt").read_text()


def test_verify_takes_no_worker_count(capsys):
    # the census picks its own process pool
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--workers", "2"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert err == "catbound: error: unrecognized arguments: --workers 2\n"


# ----------------------------------------------------------------------
# fuzzed input files: every outcome is an exit code, never a traceback
# ----------------------------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "segments", "mode", "endpoints"]), inner, max_size=4),
    max_leaves=10,
)
_labels = st.integers(-1, 9)
_family_docs = st.one_of(
    _json,
    st.fixed_dictionaries(
        {
            "n": st.integers(0, 5),
            "segments": st.lists(st.lists(_labels, min_size=2, max_size=2), max_size=5),
        }
    ),
    trees(max_vertices=7).map(
        lambda t: {"n": t.m, "segments": [list(p) for p in tree_to_segments(t).pairs]}
    ),
)
_path_docs = st.one_of(
    _json,
    st.fixed_dictionaries(
        {
            "mode": st.sampled_from(["simple", "among", "compatible", 5, None]),
            "endpoints": st.lists(_labels, max_size=8),
        }
    ),
)
_edge_lists = st.one_of(
    st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=8).map(
        lambda edges: "".join(f"{a} {b}\n" for a, b in edges)
    ),
    trees(min_vertices=1, max_vertices=8).map(format_tree),
    st.text(max_size=20),
)


@settings(max_examples=40, deadline=None)
@given(
    family=st.one_of(_family_docs.map(json.dumps), st.text(max_size=20)),
    chain=st.one_of(_path_docs.map(json.dumps), st.text(max_size=20)),
    tree=_edge_lists,
    root=st.integers(-1, 8),
)
def test_fuzzed_files_exit_cleanly(family, chain, tree, root):
    with tempfile.TemporaryDirectory() as work:
        fam, path, tree_file, svg = (
            str(Path(work) / name) for name in ("fam.json", "chain.json", "t.txt", "x.svg")
        )
        for name, text in ((fam, family), (path, chain), (tree_file, tree)):
            Path(name).write_text(text, encoding="utf-8")
        for argv in (
            ["path", "among", "--segments", fam],
            ["path", "compatible", "--segments", fam],
            ["render", "--segments", fam, "--path", path, "--out", svg],
            ["render", "--tree", tree_file, "--root", str(root), "--out", svg],
            ["dual", "to-segments", "--tree", tree_file, "--root", str(root)],
            ["dual", "to-tree", "--segments", fam],
            ["analyze", "--tree", tree_file, "--witness"],
        ):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv


def _family_by_definition(doc) -> tuple:
    """(0, (n, pairs)) for the family a document defines, else (1, fault):
    the document must be a JSON object whose ``n`` and every label are
    integers, not booleans, whose segments are n >= 1 [a, b] lists, and
    whose pairs ``family_error_by_sorting`` finds no fault in.  The fault
    is that function's message, or None where the document fails before
    its pairs are judged."""

    def is_int(x) -> bool:
        return type(x) is int

    if not (isinstance(doc, dict) and "n" in doc and "segments" in doc):
        return 1, None
    n, segments = doc["n"], doc["segments"]
    if not (is_int(n) and type(segments) is list and n == len(segments) >= 1):
        return 1, None
    if not all(type(p) is list and len(p) == 2 and all(map(is_int, p)) for p in segments):
        return 1, None
    fault = family_error_by_sorting(segments)
    if fault is not None:
        return 1, fault
    return 0, (n, tuple(sorted((min(a, b), max(a, b)) for a, b in segments)))


_odd_label = _labels | st.booleans() | st.floats(0, 3) | st.none()
_near_pairs = st.one_of(
    st.lists(st.lists(_odd_label, min_size=2, max_size=2), min_size=1, max_size=3),
    st.lists(st.lists(_labels, max_size=3) | _labels, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(
    doc=st.one_of(
        _family_docs,
        st.fixed_dictionaries({"n": st.integers(0, 4) | st.booleans(), "segments": _near_pairs}),
    )
)
@example(doc={"n": 1, "segments": [[0, True]]})
@example(doc={"n": 2, "segments": [[False, 3], [1, 2]]})
@example(doc={"n": 2, "segments": [[0, 3], [True, 2]]})
@example(doc={"n": 1, "segments": [[0, 1.0]]})
@example(doc={"n": True, "segments": [[0, 1]]})
@example(doc={"n": 1, "segments": [[0, 1, 2]]})
@example(doc={"n": 2, "segments": [[0, 1], 2]})
@example(doc={"n": 2, "segments": [[0, 2], [1, 3]]})
def test_family_loader_accepts_exactly_the_defined_families(doc):
    with tempfile.TemporaryDirectory() as work:
        fam = str(Path(work) / "fam.json")
        Path(fam).write_text(json.dumps(doc), encoding="utf-8")
        code, want = _family_by_definition(doc)
        try:
            family = cli._load_family(fam)
        except ValueError as exc:
            assert code == 1, exc
            assert str(exc) == f"{fam}: {want}" if want else str(exc).startswith(f"{fam}: ")
        else:
            assert (code, want) == (0, (family.n, family.pairs))


# ----------------------------------------------------------------------
# process-level behavior
# ----------------------------------------------------------------------


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "catbound", "eval", "p", "--m", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_one_parser_serves_every_call(monkeypatch, capsys):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            if kwargs.get("prog") == "catbound":  # not a subcommand's parser
                built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._build_parser.cache_clear()
    try:
        for quantity in ("p", "q", "f"):
            assert main(["eval", quantity, "--m" if quantity != "f" else "--k", "8"]) == 0
    finally:
        cli._build_parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def test_calls_in_one_process_match_fresh_processes(tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 4, "segments": [[0, 7], [1, 2], [3, 6], [4, 5]]}))
    runs = (
        ["verify", "--max-edges", "2", "--json"],
        ["verify", "--max-edges", "2"],
        ["path", "sideways", "--segments", str(fam)],  # a usage error
        ["path", "among", "--segments", str(fam)],
        ["path", "compatible", "--segments", str(fam)],
    )
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        fresh = subprocess.run(
            [sys.executable, "-m", "catbound", *argv], capture_output=True, text=True
        )
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv


# Runs each argv in turn in a fresh process and prints, as JSON, their exit
# codes and stdouts and which process-pool modules the process then holds.
_FRESH_RUNS = """
import io, json, sys
from contextlib import redirect_stdout
import catbound, catbound.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = catbound.cli.main(argv)
    runs.append([code, out.getvalue()])
pool = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
print(json.dumps({"runs": runs, "pool": pool}))
"""

_SMALL_VERIFY = ["verify", "--max-edges", "3", "--max-k", "3", "--sweep", "10"]


def _fresh_runs(*argvs: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUNS, json.dumps(argvs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_serial_process_never_imports_the_process_pool():
    serial = _fresh_runs(["eval", "p", "--m", "10"], _SMALL_VERIFY)
    assert serial["pool"] == []
    assert [code for code, _ in serial["runs"]] == [0, 0]
    assert serial["runs"][0][1] == "7\n"
