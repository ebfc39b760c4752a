"""Segment families, the cell tree, and alternating paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbound import (
    AlternatingPath,
    SegmentFamily,
    among_path,
    beautiful_tree,
    canonical_code,
    compatible_path,
    free_trees,
    max_caterpillar,
    max_caterpillar_by_contraction,
    realize_coordinates,
    segments_to_tree,
    tree_to_segments,
    validate_path,
)
from helpers import path_tree, relabeled, spider_tree, star_tree, trees


# ----------------------------------------------------------------------
# family validation
# ----------------------------------------------------------------------


def test_pairs_are_normalized_and_sorted():
    s = SegmentFamily(2, ((3, 2), (1, 0)))
    assert s.pairs == ((0, 1), (2, 3))


@pytest.mark.parametrize(
    "n, pairs, hint",
    [
        (0, (), "at least one"),
        (2, ((0, 1),), "expected 2"),
        (1, ((0, 0),), "degenerate"),
        (2, ((0, 1), (1, 3)), "perfectly match"),
        (2, ((0, 2), (1, 3)), "cross"),
        (3, ((0, 4), (1, 3), (2, 5)), "cross"),
        (1, ((0.0, 1.0),), "perfectly match"),
        (1, ((0.5, 1),), "perfectly match"),
        (1, (("a", "b"),), "perfectly match"),
        (1, ((0, "a"),), "perfectly match"),
        (1, ((0, None),), "perfectly match"),
        (2, ((0, 1), (2, "x")), "perfectly match"),
        (2, (("a", "b"), (0, 1)), "perfectly match"),
        (1, ((0, 1, 2),), "perfectly match"),
        (1, ((0,),), "perfectly match"),
        (1, ((5,),), "perfectly match"),
        ("1", ((0, 1),), "^n must be an integer, got '1'$"),
        (1.0, ((0, 1),), "^n must be an integer, got 1.0$"),
        (True, ((0, 1),), "^n must be an integer, got True$"),
        (1, ((False, True),), "^segments must perfectly match labels 0..2n-1$"),
        (2, ((0, 3), (True, 2)), "^segments must perfectly match labels 0..2n-1$"),
        (2, ((3, False), (1, 2)), "^segments must perfectly match labels 0..2n-1$"),
    ],
)
def test_family_validation(n, pairs, hint):
    with pytest.raises(ValueError, match=hint):
        SegmentFamily(n, pairs)


# ----------------------------------------------------------------------
# duality both ways
# ----------------------------------------------------------------------


def test_side_by_side_segments_give_a_star():
    t, chords = segments_to_tree(SegmentFamily(3, ((0, 1), (2, 3), (4, 5))))
    assert t.edges == ((0, 1), (0, 2), (0, 3))
    assert chords == {(0, 1): (0, 1), (0, 2): (2, 3), (0, 3): (4, 5)}


def test_nested_segments_give_a_path():
    t, chords = segments_to_tree(SegmentFamily(3, ((0, 5), (1, 4), (2, 3))))
    assert t.edges == ((0, 1), (1, 2), (2, 3))
    assert chords[(0, 1)] == (0, 5)
    assert chords[(2, 3)] == (2, 3)


def test_star_and_path_embed_back():
    assert tree_to_segments(star_tree(4), 0).pairs == ((0, 1), (2, 3), (4, 5))
    assert tree_to_segments(path_tree(4), 0).pairs == ((0, 5), (1, 4), (2, 3))


def test_embedding_needs_a_valid_root():
    with pytest.raises(ValueError, match="root"):
        tree_to_segments(path_tree(3), 5)


@settings(max_examples=200)
@given(trees(max_vertices=16), st.data())
def test_round_trip_preserves_the_tree(t, data):
    root = data.draw(st.integers(0, t.vertex_count - 1))
    back, chords = segments_to_tree(tree_to_segments(t, root))
    assert canonical_code(back) == canonical_code(t)
    assert sorted(chords) == sorted(back.edges)


# ----------------------------------------------------------------------
# path validation
# ----------------------------------------------------------------------

NESTED = SegmentFamily(3, ((0, 5), (1, 4), (2, 3)))
SIDE_BY_SIDE = SegmentFamily(3, ((0, 1), (2, 3), (4, 5)))


def test_two_segment_chain_is_fine_in_both_modes():
    chain = AlternatingPath((0, 5, 1, 4), 2)
    assert validate_path(NESTED, chain, "simple").ok
    assert validate_path(NESTED, chain, "compatible").ok
    assert validate_path(NESTED, chain, "among").ok  # alias of simple


def test_connector_may_cross_unused_segments_only_when_simple():
    chain = AlternatingPath((2, 3, 0, 5), 2)
    assert validate_path(NESTED, chain, "simple").ok
    report = validate_path(NESTED, chain, "compatible")
    assert not report.ok
    assert "unused segment (1, 4)" in report.issues[0]


def test_self_crossing_chains_fail_even_in_simple_mode():
    chain = AlternatingPath((0, 1, 4, 5, 2, 3), 3)
    report = validate_path(SIDE_BY_SIDE, chain, "simple")
    assert not report.ok
    assert "cross" in report.issues[0]


def test_non_segments_and_repeats_are_reported():
    report = validate_path(NESTED, AlternatingPath((0, 4, 1, 5), 2), "simple")
    assert any("not a segment" in issue for issue in report.issues)
    report = validate_path(NESTED, AlternatingPath((0, 5, 5, 0), 2), "simple")
    assert any("repeated" in issue for issue in report.issues)
    report = validate_path(NESTED, AlternatingPath((0, 9), 1), "simple")
    assert any("out of range" in issue for issue in report.issues)


def test_unknown_mode_is_an_error():
    with pytest.raises(ValueError, match="mode"):
        validate_path(NESTED, AlternatingPath((0, 5), 1), "fancy")


def test_paths_need_an_even_positive_length():
    with pytest.raises(ValueError):
        AlternatingPath((0, 1, 2), 1)
    with pytest.raises(ValueError):
        AlternatingPath((), 0)


@pytest.mark.parametrize("k", ["1", 1.0, True])
def test_non_integer_segment_counts_of_paths_are_refused(k):
    with pytest.raises(ValueError) as caught:
        AlternatingPath((0, 1), k)
    assert str(caught.value) == f"k must be an integer, got {k!r}"


# ----------------------------------------------------------------------
# constructed paths
# ----------------------------------------------------------------------


def test_compatible_path_through_a_star_family():
    t, _ = segments_to_tree(SIDE_BY_SIDE)
    chain = compatible_path(SIDE_BY_SIDE, max_caterpillar(t))
    assert chain.endpoints == (0, 1, 2, 3, 4, 5)


def test_compatible_path_through_a_nested_family():
    t, _ = segments_to_tree(NESTED)
    chain = compatible_path(NESTED, max_caterpillar(t))
    assert chain.k == 3
    assert validate_path(NESTED, chain, "compatible").ok


def test_compatible_path_rejects_foreign_witnesses():
    t, _ = segments_to_tree(NESTED)
    witness = max_caterpillar(star_tree(9))
    with pytest.raises(ValueError):
        compatible_path(NESTED, witness)


@settings(max_examples=200, deadline=None)
@given(trees(max_vertices=16), st.data())
def test_compatible_paths_validate(t, data):
    family = tree_to_segments(t, data.draw(st.integers(0, t.vertex_count - 1)))
    cell_tree, _ = segments_to_tree(family)
    witness = max_caterpillar(cell_tree)
    chain = compatible_path(family, witness)
    assert chain.k == witness.size
    assert validate_path(family, chain, "compatible").ok


@settings(max_examples=200, deadline=None)
@given(trees(max_vertices=16), st.data())
def test_among_paths_validate_and_hit_the_score(t, data):
    family = tree_to_segments(t, data.draw(st.integers(0, t.vertex_count - 1)))
    cell_tree, _ = segments_to_tree(family)
    chain, plan = among_path(family)
    assert chain.k == max_caterpillar_by_contraction(cell_tree)
    assert validate_path(family, chain, "simple").ok
    assert len(plan.contract_sequence) == family.n - chain.k


def test_family_structure_is_built_once_per_family(monkeypatch):
    from catbound import duality

    structure = duality._structure
    built = []

    def counting(chords, tree=None):
        built.append(chords)
        return structure(chords, tree)

    monkeypatch.setattr(duality, "_structure", counting)
    family = tree_to_segments(beautiful_tree(4), 0)
    cell_tree, _ = segments_to_tree(family)
    compatible_path(family, max_caterpillar(cell_tree))
    among_path(family)
    assert len(built) <= 2  # the family and the chords its plan keeps


def test_a_preorder_tree_comes_back_as_itself():
    # free_trees yields preorder trees, so each is its own family's cell tree,
    # which the census check relies on up to the default --max-edges
    for m in range(1, 11):
        for t in free_trees(m):
            family = tree_to_segments(t, 0)
            assert segments_to_tree(family)[0] is t
            plain = SegmentFamily(family.n, family.pairs)  # no hint
            assert family == plain and hash(family) == hash(plain)
            assert repr(family) == repr(plain)
            assert segments_to_tree(plain)[0] == t


@pytest.mark.parametrize(
    "t, root",
    [
        (relabeled(spider_tree(1, 2, 3), [6, 5, 4, 3, 2, 1, 0]), 0),  # ids not in preorder
        (spider_tree(1, 2, 3), 2),  # another root
        (star_tree(5), 3),
    ],
)
def test_other_trees_get_a_cell_tree_of_their_own(t, root):
    family = tree_to_segments(t, root)
    back, _ = segments_to_tree(family)
    assert back is not t
    assert canonical_code(back) == canonical_code(t)


def test_among_on_a_single_segment():
    family = SegmentFamily(1, ((0, 1),))
    chain, plan = among_path(family)
    assert chain.endpoints == (0, 1)
    assert plan.contract_sequence == ()


# ----------------------------------------------------------------------
# a 13-segment showcase family
# ----------------------------------------------------------------------


def _branch_star(appetites):
    """Distinct-size branches sharing one root."""
    edges = []
    offset = 1
    for k in appetites:
        branch = beautiful_tree(k)
        for a, b in branch.edges:
            edges.append(
                (0 if a == 0 else offset + a - 1, 0 if b == 0 else offset + b - 1)
            )
        offset += branch.vertex_count - 1
    return edges


def test_mixed_branch_star_showcase():
    from catbound import Tree

    edges = _branch_star([4, 4, 2, 1])
    t = Tree(14, tuple(edges))
    assert t.m == 13
    assert max_caterpillar(t).size == 10
    family = tree_to_segments(t, 0)
    assert family.n == 13
    chain = compatible_path(family, max_caterpillar(t))
    assert chain.k == 10
    assert validate_path(family, chain, "compatible").ok


# ----------------------------------------------------------------------
# coordinates
# ----------------------------------------------------------------------


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _segments_cross(p1, p2, q1, q2):
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)


def test_coordinates_are_strictly_convex():
    pts = realize_coordinates(SegmentFamily(4, ((0, 7), (1, 2), (3, 6), (4, 5))))
    assert pts == tuple((i, i * i) for i in range(8))
    for i in range(len(pts) - 2):
        assert _orient(pts[i], pts[i + 1], pts[i + 2]) > 0


@settings(max_examples=100)
@given(trees(max_vertices=12), st.data())
def test_no_two_family_segments_cross_in_coordinates(t, data):
    family = tree_to_segments(t, data.draw(st.integers(0, t.vertex_count - 1)))
    pts = realize_coordinates(family)
    pairs = family.pairs
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a, b = pairs[i]
            c, d = pairs[j]
            assert not _segments_cross(pts[a], pts[b], pts[c], pts[d])
