"""The linear per-tree kernels against the quadratic code they replaced.

``diameter_path``, the ``max_caterpillar`` witness and contraction plans
must reproduce the slow oracles in ``helpers`` output for output, tie-break
for tie-break, at sizes well past exhaustive reach.  Operation counts, not
timings, guard against a quadratic relapse.
"""

import pytest
from hypothesis import HealthCheck, given, settings

import catbound.contraction as contraction
import catbound.trees as trees
from catbound import (
    Tree,
    contract_to_caterpillar,
    diameter_path,
    extremal_branch_star,
    extremal_spider,
    max_caterpillar,
    max_caterpillar_by_contraction,
    tree_from_pruefer,
)
from helpers import (
    adversarial_tree,
    contraction_plans_by_replay,
    diameter_path_by_all_pairs,
    max_caterpillar_by_scan,
    relabeled_twin,
    trees as tree_strategy,
)


def assert_kernels_match_oracles(t: Tree) -> None:
    assert diameter_path(t) == diameter_path_by_all_pairs(t)
    fast, slow = max_caterpillar(t), max_caterpillar_by_scan(t)
    assert fast.vertex_set == slow.vertex_set
    assert fast.spine == slow.spine
    assert fast.size == slow.size
    cap = max_caterpillar_by_contraction(t)
    ks = {1, cap, (cap + 1) // 2}
    for k, (sequence, kept) in contraction_plans_by_replay(t, ks).items():
        plan = contract_to_caterpillar(t, k)
        assert tuple(step.edge for step in plan.contract_sequence) == sequence
        assert plan.kept_caterpillar == kept
        assert plan.apply(t) == kept


SHAPES = {
    **{f"adversarial-{n}": lambda n=n: adversarial_tree(n)[0] for n in (300, 600)},
    **{f"relabeled-{n}": lambda n=n: relabeled_twin(n, seed=n) for n in (300, 600)},
    "spider-40": lambda: extremal_spider(40),
    "spider-43": lambda: extremal_spider(43),
    "branch-star-13": lambda: extremal_branch_star(13),
    "branch-star-22": lambda: extremal_branch_star(22),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_kernels_match_oracles_on_named_shapes(name):
    assert_kernels_match_oracles(SHAPES[name]())


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree_strategy(min_vertices=1, max_vertices=1000))
def test_kernels_match_oracles_on_random_trees(t):
    if t.m == 0:
        assert diameter_path(t) == diameter_path_by_all_pairs(t) == (0,)
        return
    assert_kernels_match_oracles(t)


def test_adversarial_shape_hides_the_witness_from_low_labels():
    t, ends = adversarial_tree(600)
    witness = max_caterpillar(t)
    assert {witness.spine[0], witness.spine[-1]} <= set(ends)
    bare = t.vertex_count - 4 * (2 * t.vertex_count // 9)
    assert min(witness.spine) >= bare


# ----------------------------------------------------------------------
# operation counts
# ----------------------------------------------------------------------


def count_calls(monkeypatch, owner, name, calls: list) -> None:
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_diameter_path_makes_a_constant_number_of_passes(monkeypatch):
    n = 2000
    t = tree_from_pruefer(tuple((7 * i * i + 3) % n for i in range(n - 2)), n)
    passes: list = []
    count_calls(monkeypatch, trees, "_bfs_dists", passes)
    diameter_path(t)
    assert len(passes) <= 4


def test_contraction_plans_build_no_intermediate_trees(monkeypatch):
    built: list = []
    steps: list = []
    count_calls(monkeypatch, Tree, "__post_init__", built)
    # count calls through any name the library reaches contract_edge by
    for module in (trees, contraction):
        if hasattr(module, "contract_edge"):
            count_calls(monkeypatch, module, "contract_edge", steps)
    spider = extremal_spider(90)
    plan = contract_to_caterpillar(spider, 90)
    assert plan.apply(spider) == plan.kept_caterpillar
    assert len(steps) == 0
    assert len(built) <= 3
