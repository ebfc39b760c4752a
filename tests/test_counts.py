"""One rule for every count and vertex id the package takes:
``trees._check_count``."""

import ast
from pathlib import Path

import pytest

import catbound.oracle as oracle
from catbound import (
    AlternatingPath,
    BeautifulProfile,
    SegmentFamily,
    Tree,
    beautiful_profile,
    beautiful_tree,
    branch_arity,
    branch_star_bound,
    build_spider,
    contract_to_caterpillar,
    contraction_guarantee,
    extremal_branch_star,
    extremal_size_contraction,
    extremal_size_induced,
    extremal_spider,
    free_trees,
    guarantee_change_points,
    induced_guarantee,
    induced_guarantee_reference,
    induced_guarantee_residue,
    max_branch_size,
    max_edges_diameter_leaves,
    render_tree,
    tree_from_pruefer,
    tree_to_segments,
    validate_path,
    verify_all,
    very_hungry_max,
)
from catbound.cli import main
from catbound.trees import _EdgeError
from helpers import outcome

PATH = Tree(3, ((0, 1), (1, 2)))
SMALL_VERIFY = {"max_edges": 1, "max_score": 1, "sweep_limit": 1}

# each public function that takes a count, a root or a vertex count: a call
# with the bad value in that place, and the name its refusal gives it
COUNTS = {
    "Tree": (lambda x: Tree(x, ()), "vertex_count"),
    "very_hungry_max": (lambda x: very_hungry_max(PATH, x), "root"),
    "SegmentFamily": (lambda x: SegmentFamily(x, ()), "n"),
    "AlternatingPath": (lambda x: AlternatingPath((), x), "k"),
    "tree_to_segments": (lambda x: tree_to_segments(PATH, x), "root"),
    "render_tree": (lambda x: render_tree(PATH, x), "root"),
    "contract_to_caterpillar": (lambda x: contract_to_caterpillar(PATH, x), "k"),
    "max_edges_diameter_leaves-d": (lambda x: max_edges_diameter_leaves(x, 3), "d"),
    "max_edges_diameter_leaves-l": (lambda x: max_edges_diameter_leaves(4, x), "l"),
    "build_spider-d": (lambda x: build_spider(x, 3), "d"),
    "build_spider-l": (lambda x: build_spider(4, x), "l"),
    "extremal_size_contraction": (extremal_size_contraction, "k"),
    "extremal_spider": (extremal_spider, "k"),
    "contraction_guarantee": (contraction_guarantee, "m"),
    "max_branch_size": (max_branch_size, "k"),
    "branch_arity": (branch_arity, "k"),
    "beautiful_profile": (beautiful_profile, "k"),
    "beautiful_tree": (beautiful_tree, "k"),
    "branch_star_bound": (branch_star_bound, "k"),
    "extremal_branch_star": (extremal_branch_star, "k"),
    "extremal_size_induced": (extremal_size_induced, "k"),
    "induced_guarantee_reference": (induced_guarantee_reference, "m"),
    "induced_guarantee": (induced_guarantee, "m"),
    "induced_guarantee_residue-r": (lambda x: induced_guarantee_residue(x, 200), "r"),
    "induced_guarantee_residue-m": (lambda x: induced_guarantee_residue(0, x), "m"),
    "free_trees": (lambda x: next(free_trees(x)), "edge count"),
    "guarantee_change_points": (guarantee_change_points, "limit"),
    "tree_from_pruefer-count": (lambda x: tree_from_pruefer((), x), "vertex_count"),
    "tree_from_pruefer-entry": (lambda x: tree_from_pruefer((x, 0), 4), "code label"),
    **{
        f"verify_all-{name}": (
            lambda x, name=name: verify_all(**{**SMALL_VERIFY, name: x}), name
        )
        for name in ("max_edges", "max_score", "sweep_limit", "misstated_branch")
    },
}


@pytest.mark.parametrize("bad", [7.5, 7.0, True, "7", [7]])
@pytest.mark.parametrize("call, name", COUNTS.values(), ids=list(COUNTS))
def test_every_count_must_be_an_integer(call, name, bad):
    with pytest.raises(ValueError) as caught:
        call(bad)
    assert str(caught.value) == f"{name} must be an integer, got {bad!r}"


class Label(int):
    """An integer type other than ``int``, which takes the item-by-item
    check."""


def one_segment_path(endpoints):
    return AlternatingPath(endpoints, 1)


# each public constructor that takes a sequence of integers, with bad input
# and its refusal: the first item at fault is named
SEQUENCES = [
    (BeautifulProfile, (1, 2.0, 0), "profile count must be an integer, got 2.0"),
    (BeautifulProfile, (1, True, 0), "profile count must be an integer, got True"),
    (BeautifulProfile, True, "profile counts must be a sequence of integers, got True"),
    (one_segment_path, (0, 1.0), "endpoint must be an integer, got 1.0"),
    (one_segment_path, (0, True, 2.5, 3), "endpoint must be an integer, got True"),
    (one_segment_path, ("0", 1), "endpoint must be an integer, got '0'"),
    (one_segment_path, 1.5, "endpoints must be a sequence of integers, got 1.5"),
    (one_segment_path, {0, 1}, "endpoints must be a sequence of integers, got {0, 1}"),
]


@pytest.mark.parametrize("build, bad, message", SEQUENCES)
def test_sequences_of_counts_must_hold_integers(build, bad, message):
    with pytest.raises(ValueError) as caught:
        build(bad)
    assert str(caught.value) == message


def test_sequences_of_integers_are_kept_as_tuples():
    assert BeautifulProfile([1, 2, 0]).counts == (1, 2, 0)
    assert AlternatingPath([0, 1], 1).endpoints == (0, 1)
    path = AlternatingPath((Label(0), 1), 1)
    assert path.endpoints == (0, 1)
    assert validate_path(SegmentFamily(1, ((0, 1),)), path, "simple").ok


# every refusal of an integer out of range that goes through _check_count,
# with its text
OUT_OF_RANGE = [
    (lambda: extremal_size_contraction(-1), "k must be non-negative"),
    (lambda: extremal_spider(0), "k must be positive"),
    (lambda: contraction_guarantee(0), "m must be positive"),
    (lambda: max_branch_size(0), "k must be positive"),
    (lambda: branch_arity(1), "k must be at least 2"),
    (lambda: beautiful_profile(0), "k must be positive"),
    (lambda: beautiful_tree(-4), "k must be positive"),
    (lambda: branch_star_bound(1), "k must be at least 2"),
    (lambda: extremal_branch_star(0), "k must be positive"),
    (lambda: extremal_size_induced(-1), "k must be non-negative"),
    (lambda: induced_guarantee_reference(0), "m must be positive"),
    (lambda: induced_guarantee(-5), "m must be positive"),
    (lambda: oracle._free_tree_count(-1), "m must be non-negative"),
    (lambda: next(free_trees(-1)), "edge count must be non-negative"),
    (lambda: guarantee_change_points(0), "limit must be positive"),
    (lambda: verify_all(max_edges=0), "max_edges must be positive"),
    (lambda: verify_all(max_edges=20), "max_edges must be at most 19"),
    (lambda: verify_all(max_score=0), "max_score must be positive"),
    (lambda: verify_all(max_score=201), "max_score must be at most 200"),
    (lambda: verify_all(sweep_limit=0), "sweep_limit must be positive"),
    (lambda: verify_all(misstated_branch=0), "misstated_branch must be positive"),
    # the first parameter at fault is named
    (lambda: verify_all(max_edges=20, sweep_limit=0), "max_edges must be at most 19"),
    (lambda: verify_all(max_score=0, misstated_branch=0), "max_score must be positive"),
]


@pytest.mark.parametrize("call, message", OUT_OF_RANGE)
def test_counts_out_of_range_are_refused_with_one_text(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


# each call on the smallest tree or count it meets, with its outcome: a
# kernel that needs an edge refuses the single vertex with one text
SMALLEST = {
    "contraction plan": (lambda: contract_to_caterpillar(Tree(1, ()), 1),
        (ValueError, "needs at least one edge", None)),
    "segment family": (lambda: tree_to_segments(Tree(1, ())),
        (ValueError, "needs at least one edge", None)),
    "very hungry maximum": (lambda: very_hungry_max(Tree(1, ()), 0),
        (ValueError, "needs at least one edge", None)),
    "Pruefer code": (lambda: tree_from_pruefer((), 1),
        (ValueError, "Prüfer codes describe trees on at least 2 vertices", None)),
    "branch star": (lambda: extremal_branch_star(1), ("ok", Tree(2, ((0, 1),)))),
}


@pytest.mark.parametrize("call, want", SMALLEST.values(), ids=list(SMALLEST))
def test_the_smallest_inputs_have_one_outcome(call, want):
    assert outcome(call) == want


# vertex ids judged by the count rule, with the outcome of each: the first
# edge at fault is named, a bool id before a later fault included
VERTEX_IDS = {
    "float edges": (lambda: Tree(3, 1.5),
        ValueError, "edges must be a sequence of vertex id pairs, got 1.5", None),
    "bool edge": (lambda: Tree(2, ((False, True),)),
        _EdgeError, "edge (False, True) is not a pair of integer vertex ids", 0),
    "bool id after an edge": (lambda: Tree(3, ((0, 1), (True, 2))),
        _EdgeError, "edge (True, 2) is not a pair of integer vertex ids", 1),
    "bool id before a fault": (lambda: Tree(3, ((False, 1), (1, 5))),
        _EdgeError, "edge (False, 1) is not a pair of integer vertex ids", 0),
    "bool id in the faulty edge": (lambda: Tree(3, ((0, 1), (1, True))),
        _EdgeError, "edge (1, True) is not a pair of integer vertex ids", 1),
    "int code": (lambda: tree_from_pruefer(-1, 3),
        ValueError, "code labels must be a sequence of integers, got -1", None),
    "bool code label": (lambda: tree_from_pruefer((0, True), 4),
        ValueError, "code label must be an integer, got True", None),
    "code label past n": (lambda: tree_from_pruefer((0, 4), 4),
        ValueError, "code label out of range", None),
    "negative code label": (lambda: tree_from_pruefer((-1, 0), 4),
        ValueError, "code label out of range", None),
}


@pytest.mark.parametrize(
    "call, kind, message, index", VERTEX_IDS.values(), ids=list(VERTEX_IDS)
)
def test_vertex_ids_follow_the_count_rule(call, kind, message, index):
    assert outcome(call) == (kind, message, index)


def test_integer_subclass_ids_build_the_same_tree():
    edges = ((Label(0), Label(1)), (Label(1), 2))
    assert Tree(3, edges) == PATH
    assert tree_from_pruefer((Label(1),), 3) == PATH


# each bad root of the three-vertex PATH, and the one refusal of it
BAD_ROOTS = [
    (-1, "root must be non-negative"),
    (3, "root must be at most 2"),
    (1.0, "root must be an integer, got 1.0"),
    (True, "root must be an integer, got True"),
]


@pytest.mark.parametrize("root, message", BAD_ROOTS)
def test_every_root_taker_refuses_a_bad_root_with_one_text(
    root, message, tmp_path, capsys
):
    for call in (very_hungry_max, tree_to_segments, render_tree):
        assert outcome(lambda: call(PATH, root)) == (ValueError, message, None)
    tree = tmp_path / "path.txt"
    tree.write_text("0 1\n1 2\n")
    for argv in (
        ["dual", "to-segments", "--tree", str(tree)],
        ["render", "--tree", str(tree), "--out", str(tmp_path / "x.svg")],
    ):
        try:
            code = main([*argv, "--root", str(root)])
        except SystemExit as exc:  # argparse refuses 1.0 and True as ints
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        if isinstance(root, int) and not isinstance(root, bool):
            assert err == f"catbound: error: {message}\n"


# the texts _check_count writes for a bound
RANGE_PHRASES = (
    "must be positive", "must be non-negative", "must be at least", "must be at most"
)


def range_texts(node, file, func=None):
    """(file, innermost enclosing function, text) of each string in a
    ``raise`` under ``node`` that states a range."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.Raise) and node.exc is not None:
        for part in ast.walk(node.exc):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                if any(phrase in part.value for phrase in RANGE_PHRASES):
                    yield file, func, part.value
    for child in ast.iter_child_nodes(node):
        yield from range_texts(child, file, func)


def raised_range_texts():
    source = Path(__file__).parents[1] / "src" / "catbound"
    return [
        found
        for path in sorted(source.glob("*.py"))
        for found in range_texts(ast.parse(path.read_text()), path.name)
    ]


def test_only_check_count_states_a_count_range():
    stray = [f for f in raised_range_texts() if f[:2] != ("trees.py", "_check_count")]
    assert stray == []


def test_the_range_scan_sees_check_count_itself():
    # a scan that found nothing at all would pass the test above vacuously
    found = {f[:2] for f in raised_range_texts()}
    assert ("trees.py", "_check_count") in found
