"""Centroids and canonical codes against the code they replaced.

``centroids`` walks down one rooting's subtree sizes and ``_ahu_code``
builds a rooted code in one pass over a reversed breadth-first order.  Each
must reproduce its reference in ``helpers`` byte for byte:
``centroids_by_components``, which takes every vertex's largest component,
and ``ahu_code_by_child_lists``.  Codes are compared on every census class
through 12 edges at every root and on a relabelled twin of each, on paths,
stars and double stars of both parities (one centroid or two), on
hypothesis trees and on Pruefer trees of up to 2,000 vertices.
``render_segments`` has no reference here: it branches only on whether a
path is given, and ``test_cli``'s ``RENDER_SEGMENTS_DIGESTS`` and the
render entries of ``pinned_outputs.json`` pin its bytes.
"""

import random

import pytest
from hypothesis import given, settings

from catbound import (
    Tree,
    canonical_code,
    centroids,
    free_trees,
    tree_from_pruefer,
)
from catbound.trees import _ahu_code
from helpers import (
    ahu_code_by_child_lists,
    centroids_by_components,
    path_tree,
    relabeled,
    star_tree,
    trees as tree_strategy,
)


def double_star(left: int, right: int) -> Tree:
    """Centres 0 and 1 joined by an edge, with ``left`` and ``right``
    leaves."""
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(left)]
    edges += [(1, 2 + left + i) for i in range(right)]
    return Tree(2 + left + right, tuple(edges))


def pruefer(n: int, seed: int) -> Tree:
    rng = random.Random(seed)
    return tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2)), n)


def twin(t: Tree, seed: int) -> Tree:
    perm = list(range(t.vertex_count))
    random.Random(seed).shuffle(perm)
    return relabeled(t, perm)


def assert_codes_like_the_references(t: Tree, roots=None) -> None:
    cents = centroids(t)
    assert cents == centroids_by_components(t)
    for root in range(t.vertex_count) if roots is None else roots:
        assert _ahu_code(t, root) == ahu_code_by_child_lists(t, root)
    want = min(ahu_code_by_child_lists(t, c) for c in cents)
    assert canonical_code(t) == want.decode("ascii")


SHAPES = {
    **{f"path-{n}": lambda n=n: path_tree(n) for n in (1, 2, 3, 4, 5, 60, 61)},
    **{f"star-{n}": lambda n=n: star_tree(n) for n in (2, 3, 8, 9)},
    # balanced double stars have two centroids, unbalanced ones one
    **{
        f"double-star-{a}-{b}": lambda a=a, b=b: double_star(a, b)
        for a, b in ((0, 0), (1, 1), (3, 3), (3, 4), (5, 2), (0, 6))
    },
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_named_shapes_code_like_the_references(name):
    t = SHAPES[name]()
    assert_codes_like_the_references(t)
    assert_codes_like_the_references(twin(t, 1))


def test_a_second_centroid_is_the_child_across_half_the_vertices():
    # rooted at 0, the walk stops at 1 and 2 holds half the vertices below
    # it; the other way round, the walk stops at 2 and 1 is its child
    assert centroids(path_tree(4)) == (1, 2)
    assert centroids(Tree(4, ((0, 2), (2, 1), (1, 3)))) == (1, 2)
    # the walk stops at 0, whose child 1 holds half the vertices
    assert centroids(double_star(3, 3)) == (0, 1)
    # one centroid: the walk passes 5 to stop at 1, whose parent side holds 2
    assert centroids(Tree(6, ((0, 5), (5, 1), (1, 2), (1, 3), (1, 4)))) == (1,)


def test_every_census_class_codes_like_the_references_at_every_root():
    for m in range(13):
        for t in free_trees(m):
            assert_codes_like_the_references(t)
            assert_codes_like_the_references(twin(t, m), roots=())


@settings(max_examples=60, deadline=None)
@given(tree_strategy(min_vertices=1, max_vertices=80))
def test_random_trees_code_like_the_references(t):
    assert_codes_like_the_references(t)


@pytest.mark.parametrize("n", [200, 1001, 2000])
def test_large_trees_code_like_the_references(n):
    for seed in range(3):
        assert_codes_like_the_references(pruefer(n, seed), roots=range(0, n, n // 7))
