"""Contraction scores, the square-root guarantee, and extremal spiders."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbound import (
    ContractionPlan,
    ContractionStep,
    Tree,
    build_spider,
    contract_to_caterpillar,
    contraction_guarantee,
    diameter,
    extremal_size_contraction,
    extremal_spider,
    is_caterpillar,
    is_spider,
    max_caterpillar_by_contraction,
    max_edges_diameter_leaves,
)
import catbound.contraction as contraction
from catbound.contraction import _contract_all
from helpers import outcome, path_tree, spider_tree, star_tree, trees


# ----------------------------------------------------------------------
# the score itself
# ----------------------------------------------------------------------


def test_score_of_simple_shapes():
    # leaves + diameter - 2
    assert max_caterpillar_by_contraction(path_tree(7)) == 6
    assert max_caterpillar_by_contraction(star_tree(7)) == 6
    assert max_caterpillar_by_contraction(spider_tree(2, 2, 2)) == 5
    assert max_caterpillar_by_contraction(Tree(2, ((0, 1),))) == 1


def test_score_needs_an_edge():
    with pytest.raises(ValueError):
        max_caterpillar_by_contraction(Tree(1, ()))


def test_caterpillars_score_their_own_size():
    for t in (path_tree(9), star_tree(9)):
        assert max_caterpillar_by_contraction(t) == t.m


# ----------------------------------------------------------------------
# guarantee p and threshold sizes
# ----------------------------------------------------------------------


def test_guarantee_small_values():
    assert [contraction_guarantee(m) for m in range(1, 13)] == [
        1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8,
    ]


def test_guarantee_rejects_zero():
    with pytest.raises(ValueError):
        contraction_guarantee(0)


def test_threshold_sizes_small_values():
    assert [extremal_size_contraction(k) for k in range(0, 13)] == [
        0, 1, 2, 3, 4, 6, 8, 10, 12, 15, 18, 21, 24,
    ]


@pytest.mark.parametrize("k", range(1, 200))
def test_thresholds_are_exact(k):
    size = extremal_size_contraction(k)
    assert contraction_guarantee(size) == k
    assert contraction_guarantee(size + 1) == k + 1


@given(st.integers(min_value=1, max_value=10**9))
def test_guarantee_is_monotone(m):
    assert contraction_guarantee(m) <= contraction_guarantee(m + 1)


# ----------------------------------------------------------------------
# spiders
# ----------------------------------------------------------------------


def test_build_spider_even_diameter():
    t = build_spider(4, 3)
    assert t.m == 6
    assert diameter(t) == 4
    assert t.degrees.count(1) == 3
    assert is_spider(t)


def test_build_spider_odd_diameter():
    t = build_spider(5, 4)
    assert t.m == 9
    assert diameter(t) == 5
    assert t.degrees.count(1) == 4


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("l", range(2, 8))
def test_spiders_meet_the_size_formula(d, l):
    if d % 2 and d < 3:
        return
    t = build_spider(d, l)
    assert t.m == max_edges_diameter_leaves(d, l)
    assert diameter(t) == d
    assert t.degrees.count(1) == l


@pytest.mark.parametrize("d, l", [(1, 3), (0, 2), (2, 1)])
def test_spider_domain_errors(d, l):
    with pytest.raises(ValueError):
        build_spider(d, l)


@pytest.mark.parametrize("k", range(1, 41))
def test_extremal_spiders_sit_on_the_threshold(k):
    t = extremal_spider(k)
    assert is_spider(t)
    assert t.m == extremal_size_contraction(k)
    assert max_caterpillar_by_contraction(t) == k


def test_first_extremal_spider_is_an_edge():
    assert extremal_spider(1) == Tree(2, ((0, 1),))


# ----------------------------------------------------------------------
# contraction plans
# ----------------------------------------------------------------------


def test_plan_on_a_spider():
    t = spider_tree(2, 2, 2)
    plan = contract_to_caterpillar(t, 5)
    assert plan.target_size == 5
    assert len(plan.contract_sequence) == 1
    result = plan.apply(t)
    ok, _ = is_caterpillar(result)
    assert ok and result.m == 5


@pytest.mark.parametrize(
    "t", [Tree(2, ((0, 1),)), path_tree(7), star_tree(6), spider_tree(1, 1, 3)]
)
def test_a_caterpillar_plans_to_itself(t):
    plan = contract_to_caterpillar(t, t.m)
    assert plan.kept_caterpillar is t
    assert plan.contract_sequence == ()
    assert plan.apply(t) == t


def test_plan_rejects_out_of_range_targets():
    t = spider_tree(2, 2, 2)
    with pytest.raises(ValueError, match="outside"):
        contract_to_caterpillar(t, 6)
    with pytest.raises(ValueError, match="outside"):
        contract_to_caterpillar(t, 0)


def test_plan_refuses_to_replay_on_the_wrong_tree():
    plan = contract_to_caterpillar(spider_tree(2, 2, 2), 4)
    with pytest.raises(ValueError):
        plan.apply(path_tree(7))


SPIDER = spider_tree(2, 2, 2)
SPIDER_PLAN = contract_to_caterpillar(SPIDER, 4)
SPIDER_STEPS, SPIDER_KEPT = SPIDER_PLAN.contract_sequence, SPIDER_PLAN.kept_caterpillar

# plans replayed on SPIDER, and the outcome of each: a step names its edge
# by the two ends in either order
REPLAYS = {
    "ends swapped": (
        ContractionPlan(
            4, tuple(ContractionStep(s.edge[::-1]) for s in SPIDER_STEPS), SPIDER_KEPT
        ),
        ("ok", SPIDER_KEPT),
    ),
    "another kept caterpillar": (
        ContractionPlan(4, SPIDER_STEPS, path_tree(5)),
        (ValueError, "replay did not reproduce kept_caterpillar", None),
    ),
    "first step repeated": (
        ContractionPlan(4, SPIDER_STEPS + SPIDER_STEPS[:1], SPIDER_KEPT),
        (ValueError, "edge (0, 5) already collapsed", None),
    ),
    "a step past the last vertex": (
        ContractionPlan(4, (ContractionStep((0, 7)),), SPIDER_KEPT),
        (ValueError, "(0, 7) is not an edge of the source tree", None),
    ),
}


@pytest.mark.parametrize("plan, want", REPLAYS.values(), ids=list(REPLAYS))
def test_replays_of_the_spider_plan(plan, want):
    assert outcome(lambda: plan.apply(SPIDER)) == want


@pytest.mark.parametrize(
    "edge", [(1, 0, 1), (0,), (0, 1, 2), (False, 1), 0, (0, "a"), (1.0, 2)]
)
def test_a_step_that_is_not_a_pair_is_no_edge(edge):
    t = path_tree(4)
    message = re.escape(f"{edge} is not an edge of the source tree")
    plan = ContractionPlan(3, (ContractionStep(edge),), path_tree(3))
    with pytest.raises(ValueError, match=message):
        plan.apply(t)
    # the plans of _plan itself hold int ids, so its replay judges only
    # the pair
    if type(edge) is tuple and {int}.issuperset(map(type, edge)):
        with pytest.raises(ValueError, match=message):
            _contract_all(t, [edge])


@settings(max_examples=60)
@given(trees(min_vertices=2, max_vertices=14), st.data())
def test_plans_reach_every_feasible_size(t, data):
    cap = max_caterpillar_by_contraction(t)
    k = data.draw(st.integers(min_value=1, max_value=cap))
    plan = contract_to_caterpillar(t, k)
    result = plan.apply(t)
    ok, _ = is_caterpillar(result)
    assert ok
    assert result.m == k
    assert result.m == t.m - len(plan.contract_sequence)


@settings(max_examples=60)
@given(trees(min_vertices=2, max_vertices=16))
def test_score_is_always_reachable(t):
    cap = max_caterpillar_by_contraction(t)
    assert 1 <= cap <= t.m
    assert cap >= contraction_guarantee(t.m)
    result = contract_to_caterpillar(t, cap).apply(t)
    assert is_caterpillar(result)[0]


def test_only_plans_below_the_score_sort_the_kept_edges(monkeypatch):
    sorts = []

    def counting(items):
        sorts.append(1)
        return sorted(items)

    monkeypatch.setattr(contraction, "sorted", counting, raising=False)
    t = spider_tree(3, 2, 2, 1)
    cap = max_caterpillar_by_contraction(t)
    full = contract_to_caterpillar(t, cap)
    assert sorts == [] and full.contract_sequence
    smaller = contract_to_caterpillar(t, cap - 2)
    assert len(sorts) == 1
    # the surplus follows the same contractions, smallest kept edges first
    assert smaller.contract_sequence[: len(full.contract_sequence)] == full.contract_sequence
    surplus = [step.edge for step in smaller.contract_sequence[len(full.contract_sequence) :]]
    assert surplus == [(0, 1), (0, 4)]
