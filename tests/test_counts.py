"""One rule for every count and vertex id the package takes:
``trees._check_count``."""

import ast
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catbound
import catbound.oracle as oracle
from catbound import (
    AlternatingPath,
    BeautifulProfile,
    CaterpillarWitness,
    ContractionPlan,
    ContractionStep,
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
    among_path,
    free_trees,
    guarantee_change_points,
    induced_guarantee,
    induced_guarantee_reference,
    induced_guarantee_residue,
    max_branch_size,
    max_caterpillar,
    max_edges_diameter_leaves,
    render_segments,
    render_tree,
    segments_to_tree,
    tree_from_profile,
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


# ----------------------------------------------------------------------
# every public callable under hostile values
# ----------------------------------------------------------------------

# values that are not plain ints: bools, floats, strings, containers and
# an int subclass
OTHERS = [None, True, False, 1.0, 2.5, -0.0, math.inf, math.nan, 1j, "3", "", b"1",
          (), [2], {3}, frozenset({1}), Label(2)]


def values(low: int = -40, high: int = 40):
    """A hostile value: an integer in [low, high], so that no exponential
    construction runs long, or a value of another type."""
    others = st.sampled_from(OTHERS) | st.floats() | st.text(max_size=3)
    return st.integers(low, high) | others


def sequences(items):
    """A tuple or a list of ``items``, or a single hostile value."""
    return st.one_of(
        st.lists(items, max_size=6).map(tuple), st.lists(items, max_size=6), values()
    )


@st.composite
def trees(draw):
    """A tree on 1 to 22 vertices: the subtree search refuses more than 20."""
    n = draw(st.integers(1, 22))
    if n == 1:
        return Tree(1, ())
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_pruefer(code, n)


FAMILIES = trees().filter(lambda t: t.m >= 1).flatmap(
    lambda t: st.integers(0, t.m).map(lambda root: tree_to_segments(t, root))
)


@st.composite
def witnessed_families(draw):
    """A family with the witness of its cell tree, or with a field of that
    witness replaced by a hostile one."""
    family = draw(FAMILIES)
    w = max_caterpillar(segments_to_tree(family)[0])
    fields = [w.vertex_set, w.spine, w.size]
    hostile = [
        st.frozensets(st.integers(-2, 2 * family.n)) | sequences(values()),
        sequences(values(-2, family.n + 1)),
        values(),
    ]
    for i in draw(st.sets(st.integers(0, 2))):
        fields[i] = draw(hostile[i])
    return family, CaterpillarWitness(*fields)


@st.composite
def paths(draw):
    """A family with the among path's endpoints, or with endpoints drawn
    around its labels, as the arguments of an ``AlternatingPath``."""
    family = draw(FAMILIES)
    labels = st.integers(-2, 2 * family.n + 1)
    k = draw(st.integers(1, family.n + 1))
    endpoints = draw(
        st.just(among_path(family)[0].endpoints)
        | st.lists(labels, min_size=2 * k, max_size=2 * k)
    )
    return family, endpoints


MODES = st.sampled_from(["simple", "compatible", "among"]) | values()
PAIRS = sequences(st.tuples(values(-2, 24), values(-2, 24)) | values(-2, 24))
# steps with hostile edges: a step is an object, so it is always a ContractionStep
STEPS = st.lists(st.builds(ContractionStep, sequences(values(-2, 24))), max_size=6)

# each public callable, and each method that judges values, with the
# strategy of its arguments; a call that takes an argument it builds names
# its own callee, and free_trees takes a few trees of its iterator
CALLS = {
    "AlternatingPath": (None, st.tuples(sequences(values()), values())),
    "BeautifulProfile": (None, st.tuples(sequences(values(-1, 4)))),
    "CaterpillarWitness": (None, st.tuples(values(), values(), values())),
    "CheckRecord": (None, st.tuples(*[values()] * 6)),
    "ContractionPlan": (None, st.tuples(values(), STEPS, trees())),
    "ContractionPlan.apply": (
        lambda steps, kept, source: ContractionPlan(1, steps, kept).apply(source),
        st.tuples(STEPS, trees(), trees()),
    ),
    "ContractionStep": (None, st.tuples(values())),
    "PathReport": (None, st.tuples(values(), values(), values())),
    "SegmentFamily": (None, st.tuples(values(-2, 12), PAIRS)),
    "Tree": (None, st.tuples(values(-2, 24), PAIRS)),
    "TreeParseError": (None, st.tuples(values())),
    "VerificationReport": (None, st.tuples(sequences(values()))),
    "among_path": (None, st.tuples(FAMILIES)),
    "beautiful_profile": (None, st.tuples(values())),
    "beautiful_tree": (None, st.tuples(values(-40, 20))),
    "branch_arity": (None, st.tuples(values())),
    "branch_star_bound": (None, st.tuples(values())),
    "brute_max_caterpillar": (None, st.tuples(trees())),
    "build_spider": (None, st.tuples(values(), values())),
    "canonical_code": (None, st.tuples(trees())),
    "centroids": (None, st.tuples(trees())),
    "compatible_path": (None, witnessed_families()),
    "contract_to_caterpillar": (None, st.tuples(trees(), values())),
    "contraction_guarantee": (None, st.tuples(values())),
    "diameter": (None, st.tuples(trees())),
    "diameter_path": (None, st.tuples(trees())),
    "extremal_branch_star": (None, st.tuples(values())),
    "extremal_size_contraction": (None, st.tuples(values())),
    "extremal_size_induced": (None, st.tuples(values())),
    "extremal_spider": (None, st.tuples(values())),
    "format_tree": (None, st.tuples(trees())),
    "free_trees": (
        lambda m: list(itertools.islice(free_trees(m), 3)), st.tuples(values())
    ),
    "guarantee_change_points": (None, st.tuples(values())),
    "induced_guarantee": (None, st.tuples(values())),
    "induced_guarantee_reference": (None, st.tuples(values())),
    "induced_guarantee_residue": (None, st.tuples(values(), values())),
    "is_caterpillar": (None, st.tuples(trees())),
    "is_spider": (None, st.tuples(trees())),
    "max_branch_size": (None, st.tuples(values())),
    "max_caterpillar": (None, st.tuples(trees())),
    "max_caterpillar_by_contraction": (None, st.tuples(trees())),
    "max_edges_diameter_leaves": (None, st.tuples(values(), values())),
    "parse_tree": (None, st.tuples(st.text(max_size=40))),
    "realize_coordinates": (None, st.tuples(FAMILIES)),
    "render_segments": (
        lambda family, endpoints, k: render_segments(
            family, None if k is None else AlternatingPath(endpoints, k)
        ),
        paths().flatmap(
            lambda fe: st.tuples(st.just(fe[0]), st.just(fe[1]),
                                 st.none() | st.just(len(fe[1]) // 2) | values())
        ),
    ),
    "render_tree": (None, st.tuples(trees(), st.none() | values())),
    "segments_to_tree": (None, st.tuples(FAMILIES)),
    "tree_from_profile": (
        lambda counts: tree_from_profile(BeautifulProfile(counts)),
        st.tuples(sequences(values(-1, 4))),
    ),
    "tree_from_pruefer": (None, st.tuples(sequences(values(-2, 24)), values(-2, 24))),
    "tree_to_segments": (None, st.tuples(trees(), values())),
    "validate_path": (
        lambda family, endpoints, k, mode: validate_path(
            family, AlternatingPath(endpoints, k), mode
        ),
        paths().flatmap(
            lambda fe: st.tuples(st.just(fe[0]), st.just(fe[1]),
                                 st.just(len(fe[1]) // 2) | values(), MODES)
        ),
    ),
    # below _POOL_FROM, so that no process starts
    "verify_all": (
        None,
        st.tuples(
            values(-40, oracle._POOL_FROM - 1), values(), values(), st.none() | values()
        ),
    ),
    "very_hungry_max": (None, st.tuples(trees(), values())),
}


def test_the_hostile_calls_cover_every_public_callable():
    public = {name for name in catbound.__all__ if callable(getattr(catbound, name))}
    assert {name.split(".")[0] for name in CALLS} == public


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_public_call_returns_or_raises_one_value_error(name, data):
    callee, arguments = CALLS[name]
    args = data.draw(arguments, label="arguments")
    try:
        (callee or getattr(catbound, name))(*args)
    except ValueError as exc:
        # one line, with no other exception behind it
        assert "\n" not in str(exc)
        assert exc.__cause__ is None
        assert exc.__context__ is None or exc.__suppress_context__
