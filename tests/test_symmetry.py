"""Measurements that must not depend on vertex labels.

A tree under a random vertex permutation is the same tree, so its diameter,
its largest induced caterpillar's size, its contraction score, its leaf
count and whether it is a spider must not change, nor the canonical code of
the cell tree of its segment family at any root.  These checks need no
reference, so they reach sizes past the references' reach; they see only
errors that depend on where the labels sit.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbound import (
    Tree,
    canonical_code,
    diameter,
    extremal_branch_star,
    extremal_spider,
    is_spider,
    max_caterpillar,
    max_caterpillar_by_contraction,
    segments_to_tree,
    tree_from_pruefer,
    tree_to_segments,
)
from helpers import caterpillar_tree, relabeled, spider_tree, workloads
from helpers import trees as tree_strategy


def measurements(t: Tree) -> tuple:
    return (
        diameter(t),
        max_caterpillar(t).size,
        max_caterpillar_by_contraction(t),
        t.degrees.count(1),
        is_spider(t),
    )


def cell_codes(t: Tree) -> set:
    return {
        canonical_code(segments_to_tree(tree_to_segments(t, root))[0])
        for root in range(t.vertex_count)
    }


def assert_label_free(t: Tree, perm: list, every_root: bool = True) -> None:
    twin = relabeled(t, perm)
    assert measurements(twin) == measurements(t)
    if every_root:
        # the cell tree is the tree itself, whichever cell is the outer one
        assert cell_codes(twin) == cell_codes(t) == {canonical_code(t)}


def shuffled(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def test_seeded_random_trees():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(2, 301)
        t = tree_from_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
        for _ in range(2):
            assert_label_free(t, shuffled(n, rng), every_root=n <= 40)


SHAPES = {
    "extremal spider": lambda: extremal_spider(13),
    "spider, one long leg": lambda: spider_tree(5, 1, 1, 1),
    "branch star": lambda: extremal_branch_star(7),
    "caterpillar": lambda: caterpillar_tree(2, 0, 3, 1, 0, 2),
    "adversarial": lambda: workloads().adversarial_tree(60)[0],
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_named_shapes(name):
    t = SHAPES[name]()
    rng = random.Random(name)
    for _ in range(3):
        assert_label_free(t, shuffled(t.vertex_count, rng))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_trees_under_random_permutations(data):
    t = data.draw(tree_strategy(min_vertices=2, max_vertices=30))
    perm = data.draw(st.permutations(range(t.vertex_count)))
    assert_label_free(t, perm)
