"""Induced caterpillars: the search, branches, stars, and guarantee q."""

import ast
import itertools
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbound import (
    BeautifulProfile,
    Tree,
    beautiful_profile,
    beautiful_tree,
    branch_arity,
    branch_star_bound,
    canonical_code,
    contraction_guarantee,
    extremal_branch_star,
    extremal_size_induced,
    induced_guarantee,
    induced_guarantee_reference,
    induced_guarantee_residue,
    is_caterpillar,
    max_branch_size,
    max_caterpillar,
    tree_from_profile,
    very_hungry_max,
)
from catbound.induced import _ceil_6log3, _star_shape
from helpers import (
    ceil_6log3_by_steps,
    extremal_size_induced_by_residues,
    induced_subtree,
    path_tree,
    spider_tree,
    star_tree,
    trees,
)

SRC = Path(__file__).resolve().parent.parent / "src"
BRANCH_SIZES = [1, 2, 3, 5, 7, 11, 16, 23, 34, 49, 70]
STAR_BOUNDS = [2, 3, 4, 6, 8, 10, 12, 15, 20, 25, 30, 35, 44]
INDUCED_SIZES_15_TO_21 = [55, 66, 80, 96, 115, 138, 170]
# (r, x) of the extremal star for k = 2..14; at k = 4, 8, 9 and 13 another
# shape has as many edges
STAR_SHAPES = [
    (2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3),
    (3, 4), (4, 4), (5, 4), (6, 4), (5, 5), (4, 6),
]
# (upper end, value) of each constant run of the guarantee for 5 <= m <= 170
GUARANTEE_RUNS = [
    (6, 5), (8, 6), (10, 7), (12, 8), (15, 9), (20, 10), (25, 11),
    (30, 12), (35, 13), (44, 14), (55, 15), (66, 16), (80, 17),
    (96, 18), (115, 19), (138, 20), (170, 21),
]


# ----------------------------------------------------------------------
# the search and its witness
# ----------------------------------------------------------------------


def test_search_on_simple_shapes():
    assert max_caterpillar(path_tree(8)).size == 7
    assert max_caterpillar(star_tree(8)).size == 7
    # three legs of length two: keep two legs whole plus one edge of the third
    assert max_caterpillar(spider_tree(2, 2, 2)).size == 5


def test_witness_of_a_star_has_central_spine():
    w = max_caterpillar(star_tree(6))
    assert w.spine == (0,)
    assert w.vertex_set == frozenset(range(6))
    assert w.size == 5


def test_search_needs_an_edge():
    with pytest.raises(ValueError):
        max_caterpillar(Tree(1, ()))


# a spine search gone wrong: (0, 2) is no path of the 3-vertex path, and
# its caterpillar would claim 1 of the 2 edges it induces
WRONG_SPINE = """
import catbound.induced as induced
from catbound import Tree
induced._heaviest_path = lambda t, weight: (0, 2)
print(induced.max_caterpillar(Tree(3, ((0, 1), (1, 2)))))
"""


def test_the_witness_check_survives_python_O():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_SPINE], capture_output=True, text=True, env=env
    )
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "AssertionError: witness edge count disagrees with optimum"
    )


def test_no_invariant_is_an_assert_statement():
    # python -O strips assert statements; an invariant raises AssertionError,
    # which the command line turns into exit 2
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "catbound").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@settings(max_examples=150)
@given(trees(max_vertices=18))
def test_witness_is_an_induced_caterpillar_of_the_claimed_size(t):
    w = max_caterpillar(t)
    sub = induced_subtree(t, w.vertex_set)
    assert sub.m == w.size
    ok, _ = is_caterpillar(sub)
    assert ok
    assert induced_guarantee(t.m) <= w.size <= t.m


# ----------------------------------------------------------------------
# rooted feeding
# ----------------------------------------------------------------------


def test_very_hungry_on_paths_and_stars():
    assert very_hungry_max(star_tree(7), 0) == 6
    assert very_hungry_max(star_tree(7), 3) == 6
    assert very_hungry_max(path_tree(5), 0) == 4
    assert very_hungry_max(path_tree(5), 2) == 3


# ----------------------------------------------------------------------
# branches
# ----------------------------------------------------------------------


def test_branch_sizes_small_table():
    assert [max_branch_size(k) for k in range(1, 12)] == BRANCH_SIZES


def test_branch_growth_ratios_hold_exactly():
    for k in range(2, 61):
        assert 5 * max_branch_size(k) >= 7 * max_branch_size(k - 1)
    for k in range(7, 61):
        assert 2 * max_branch_size(k) < 3 * max_branch_size(k - 1)


def test_branch_arity_values():
    assert [branch_arity(k) for k in range(2, 9)] == [1, 1, 2, 2, 2, 3, 2]
    assert all(branch_arity(k) == 3 for k in range(9, 40))


def test_profile_shapes():
    assert beautiful_profile(1).counts == (1, 0)
    assert beautiful_profile(4).counts == (1, 2, 1, 0)
    assert beautiful_profile(8).counts == (1, 2, 2, 2, 1, 0)
    assert beautiful_profile(12).counts == (1, 3, 3, 2, 2, 1, 0)


@pytest.mark.parametrize(
    "counts, hint",
    [
        ((1,), "start with 1 and end with 0"),
        ((2, 0), "start with 1 and end with 0"),
        ((1, 4, 0), "lie in 1..3"),
        ((1, 2, 3, 0), "non-increasing"),
    ],
)
def test_profile_validation(counts, hint):
    with pytest.raises(ValueError, match=hint):
        BeautifulProfile(counts)


@pytest.mark.parametrize("k", range(1, 15))
def test_grown_branches_match_their_claims(k):
    branch, profile = beautiful_tree(k), beautiful_profile(k)
    assert tree_from_profile(profile) == branch
    assert sum(profile.counts) == k
    widths = itertools.accumulate(profile.counts[:-1], operator.mul)
    assert sum(widths) == max_branch_size(k)
    assert branch.m == max_branch_size(k)
    assert very_hungry_max(branch, 0) == k
    assert max_caterpillar(branch).size <= 2 * k - 1


def test_branch_recursion_agrees_with_the_profile_route():
    # size-4 appetite: an edge into the shared root of two size-2 branches
    by_hand = Tree(6, ((0, 1), (1, 2), (1, 3), (2, 4), (3, 5)))
    grown = beautiful_tree(4)
    assert canonical_code(by_hand) == canonical_code(grown)


# ----------------------------------------------------------------------
# branch stars
# ----------------------------------------------------------------------


def test_star_bounds_small_table():
    assert [branch_star_bound(k) for k in range(2, 15)] == STAR_BOUNDS


@pytest.mark.parametrize("k", range(2, 21))
def test_extremal_stars_meet_their_bound(k):
    star = extremal_branch_star(k)
    assert star.m == branch_star_bound(k)
    assert star.m == extremal_size_induced(k)
    assert max_caterpillar(star).size == k


def star_shapes(k: int) -> dict[tuple[int, int], int]:
    """Edge count of every star of r >= 2 equal beautiful branches of
    parameter x >= 1 whose spines through two branches have k edges:
    2x + r - 2 = k."""
    return {
        (k + 2 - 2 * x, x): (k + 2 - 2 * x) * max_branch_size(x)
        for x in range(1, k // 2 + 1)
    }


@pytest.mark.parametrize("k", range(2, 61))
def test_star_bound_is_the_largest_star_of_equal_branches(k):
    shapes = star_shapes(k)
    best = max(shapes.values())
    assert branch_star_bound(k) == best
    assert shapes[_star_shape(k)] == best
    ties = [shape for shape, edges in shapes.items() if edges == best]
    assert len(ties) == (2 if k in (4, 8, 9, 13) else 1)


def test_small_star_shapes_are_pinned():
    assert [_star_shape(k) for k in range(2, 15)] == STAR_SHAPES
    for k, (r, x) in enumerate(STAR_SHAPES, 2):
        star = extremal_branch_star(k)
        assert star.degrees[0] == r
        assert star.m == r * max_branch_size(x)


def test_removing_one_branch_leaves_the_smaller_star():
    star = extremal_branch_star(10)  # four branches of appetite 4
    assert star.m == 20
    branch = beautiful_tree(4)
    first = set(range(1, branch.vertex_count))
    rest = induced_subtree(star, frozenset(range(star.vertex_count)) - first)
    assert rest.m == 15
    assert canonical_code(rest) == canonical_code(extremal_branch_star(9))


# ----------------------------------------------------------------------
# threshold sizes and guarantee q
# ----------------------------------------------------------------------


def test_induced_threshold_values():
    assert extremal_size_induced(0) == 0
    assert extremal_size_induced(1) == 1
    assert [extremal_size_induced(k) for k in range(15, 22)] == INDUCED_SIZES_15_TO_21


def test_thresholds_match_the_residue_closed_forms():
    for k in range(15, 3001):
        assert extremal_size_induced(k) == extremal_size_induced_by_residues(k), k


def test_guarantee_keeps_its_constant_runs_through_170():
    assert [induced_guarantee(m) for m in range(1, 5)] == [1, 2, 3, 4]
    lower = 5
    for upper, value in GUARANTEE_RUNS:
        assert [induced_guarantee(m) for m in range(lower, upper + 1)] == [
            value
        ] * (upper + 1 - lower)
        lower = upper + 1


def test_guarantee_small_values():
    assert [induced_guarantee(m) for m in range(1, 13)] == [
        1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8,
    ]


def test_guarantee_agrees_with_reference_on_a_dense_range():
    for m in range(1, 2001):
        assert induced_guarantee(m) == induced_guarantee_reference(m), m


@pytest.mark.parametrize("k", range(1, 61))
def test_guarantee_steps_exactly_at_thresholds(k):
    size = extremal_size_induced(k)
    assert induced_guarantee(size) == k
    assert induced_guarantee(size + 1) == k + 1


@given(st.integers(min_value=1, max_value=10**8))
def test_guarantee_is_monotone_and_below_the_contraction_one(m):
    assert induced_guarantee(m) <= induced_guarantee(m + 1)
    assert induced_guarantee(m) <= contraction_guarantee(m)


def test_residue_forms_cover_the_maximum():
    for m in (171, 500, 12345, 10**6):
        best = max(induced_guarantee_residue(r, m) for r in range(6))
        assert best == induced_guarantee(m)
        for r in range(6):
            assert induced_guarantee_residue(r, m) % 6 == r


@settings(max_examples=200)
@given(st.integers(1, 10**40), st.integers(0, 10**40))
def test_ceil_6log3_matches_counting_up(den, extra):
    assert _ceil_6log3(den + extra, den) == ceil_6log3_by_steps(den + extra, den)


@pytest.mark.parametrize("digits", [1, 20, 300, 1000])
def test_ceil_6log3_matches_counting_up_on_long_values(digits):
    rng = random.Random(digits)
    for _ in range(4):
        den = rng.randrange(1, 10 ** rng.randint(1, digits) + 1)
        for num in (den, den + 1, den + rng.randrange(10**digits)):
            assert _ceil_6log3(num, den) == ceil_6log3_by_steps(num, den)
    for a in range(0, 3 * digits, max(1, digits // 7)):  # exact powers of 3
        for num in (3**a * 7, 3**a * 7 + 1, 3**a * 7 - 1):
            assert _ceil_6log3(num, 7) == ceil_6log3_by_steps(num, 7)
    # num^6 a power of 2 over den^6 just below one: the bit-length bound's
    # tightest case
    den = 2**digits - 1
    for num in (2**t for t in range(digits, digits + 40)):
        assert _ceil_6log3(num, den) == ceil_6log3_by_steps(num, den)


def test_residue_domain_errors():
    with pytest.raises(ValueError, match="residue"):
        induced_guarantee_residue(6, 200)
    with pytest.raises(ValueError, match="171"):
        induced_guarantee_residue(0, 170)
