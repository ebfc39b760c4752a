"""The fast kernels against the quadratic code they replaced.

``diameter_path``, the ``max_caterpillar`` witness, ``very_hungry_max``,
contraction plans and ``validate_path`` must reproduce the slow oracles in
``helpers`` output for output, tie-break for tie-break, at sizes well past
exhaustive reach: ``heaviest_path_by_all_pairs``,
``max_caterpillar_by_all_pairs``, ``very_hungry_max_by_paths``,
``contraction_plans_by_replay`` and ``validate_path_by_all_pairs``.  The
among chain over the plan's kept chords must match
``compatible_chain_by_min_max``, through ``test_path_kernels``'
``assert_chains_like_the_edge_scan``; the census fold must match
``fold_by_lists`` and family errors ``family_error_by_sorting``.  The
two-sweep ``diameter`` and the contraction score must read the lengths of
the tie-broken path and plan.
Operation counts guard against a quadratic relapse and against facts computed
twice per tree; a time bound far above the expected cost guards the failure
path of ``validate_path``, whose cost depends on what it reports.
"""

import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import catbound.contraction as contraction
import catbound.duality as duality
import catbound.induced as induced
import catbound.oracle as oracle
import catbound.trees as trees
from catbound import (
    AlternatingPath,
    SegmentFamily,
    Tree,
    among_path,
    canonical_code,
    compatible_path,
    contract_to_caterpillar,
    diameter_path,
    extremal_branch_star,
    diameter,
    extremal_spider,
    format_tree,
    free_trees,
    is_caterpillar,
    max_caterpillar,
    max_caterpillar_by_contraction,
    segments_to_tree,
    tree_from_pruefer,
    tree_to_segments,
    validate_path,
    verify_all,
    very_hungry_max,
)
from catbound.cli import main
from catbound.oracle import _check_tree
from helpers import (
    broken_paths,
    caterpillar_tree,
    contraction_plans_by_replay,
    family_error_by_sorting,
    fold_by_lists,
    heaviest_path_by_all_pairs,
    max_caterpillar_by_all_pairs,
    path_tree,
    relabeled,
    relabeled_twin,
    spider_tree,
    star_tree,
    trees as tree_strategy,
    validate_path_by_all_pairs,
    very_hungry_max_by_paths,
    workloads,
)
from test_path_kernels import assert_chains_like_the_edge_scan


def assert_kernels_match_oracles(t: Tree) -> None:
    assert diameter_path(t) == heaviest_path_by_all_pairs(t, [1] * t.vertex_count)
    fast, slow = max_caterpillar(t), max_caterpillar_by_all_pairs(t)
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
    **{f"adversarial-{n}": lambda n=n: workloads().adversarial_tree(n)[0] for n in (300, 600)},
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
        assert diameter_path(t) == heaviest_path_by_all_pairs(t, [1]) == (0,)
        return
    assert_kernels_match_oracles(t)


# ----------------------------------------------------------------------
# the diameter as a length: two sweeps against the tie-broken path
# ----------------------------------------------------------------------


def assert_lengths_match_paths(t: Tree) -> None:
    assert diameter(t) == len(diameter_path(t)) - 1
    assert max_caterpillar_by_contraction(t) == contraction._plan(t)[0].target_size


def test_lengths_match_paths_on_every_small_class():
    for m in range(1, 13):
        for t in free_trees(m):
            assert_lengths_match_paths(t)


def test_lengths_match_paths_on_random_trees_and_their_relabellings():
    rng = random.Random(29)
    for _ in range(2000):
        # sizes spread evenly on a log scale from 2 to 500 vertices
        n = min(500, round(2 ** rng.uniform(1, 9)))
        t = tree_from_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert_lengths_match_paths(t)
        assert_lengths_match_paths(relabeled(t, perm))


LENGTH_SHAPES = {
    "single edge": lambda: path_tree(2),
    "path": lambda: path_tree(9),
    "star of 2 leaves": lambda: star_tree(3),
    "star": lambda: star_tree(9),
    "spider": lambda: spider_tree(1, 2, 3),
    "spider, two long legs": lambda: spider_tree(4, 4, 1, 1),
    "caterpillar, bare first spine vertex": lambda: caterpillar_tree(0, 3),
    "caterpillar": lambda: caterpillar_tree(2, 0, 3, 1),
}


@pytest.mark.parametrize("name", list(LENGTH_SHAPES))
def test_lengths_match_paths_on_named_shapes(name):
    assert_lengths_match_paths(LENGTH_SHAPES[name]())


def test_lengths_of_the_single_vertex():
    assert diameter(Tree(1, ())) == 0
    with pytest.raises(ValueError, match="needs at least one edge"):
        max_caterpillar_by_contraction(Tree(1, ()))


@settings(max_examples=50, deadline=None)
@given(tree_strategy(min_vertices=2, max_vertices=16))
def test_very_hungry_max_matches_path_listing_at_every_root(t):
    for root in range(t.vertex_count):
        fast = very_hungry_max(t, root)
        assert fast == very_hungry_max_by_paths(t, root)


def test_adversarial_shape_hides_the_witness_from_low_labels():
    t, ends = workloads().adversarial_tree(600)
    witness = max_caterpillar(t)
    assert {witness.spine[0], witness.spine[-1]} <= set(ends)
    bare = t.vertex_count - 4 * (2 * t.vertex_count // 9)
    assert min(witness.spine) >= bare


# ----------------------------------------------------------------------
# path validation: one parenthesis scan against all pairs
# ----------------------------------------------------------------------


def assert_reports_match_oracle(
    family: SegmentFamily, endpoints, compatible: bool = True
) -> None:
    path = AlternatingPath(tuple(endpoints), len(endpoints) // 2)
    simple = validate_path_by_all_pairs(family, path, "simple")
    assert validate_path(family, path, "simple") == simple
    assert validate_path(family, path, "among") == simple
    if compatible:
        assert validate_path(family, path, "compatible") == validate_path_by_all_pairs(
            family, path, "compatible"
        )


def library_chains(family: SegmentFamily) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cell_tree, _ = segments_to_tree(family)
    compatible = compatible_path(family, max_caterpillar(cell_tree)).endpoints
    return compatible, among_path(family)[0].endpoints


@settings(max_examples=15, deadline=None)
@given(tree_strategy(min_vertices=2, max_vertices=40), st.data())
def test_validation_matches_oracle_on_broken_chains(t, data):
    family = tree_to_segments(t, data.draw(st.integers(0, t.vertex_count - 1)))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for chain in library_chains(family):
        assert_reports_match_oracle(family, chain)
        for variant in broken_paths(chain, 2 * family.n, rng).values():
            assert_reports_match_oracle(family, variant)


@pytest.mark.parametrize("name", ["pruefer-1000", "path-200"])
def test_validation_matches_oracle_at_scale(name):
    if name == "path-200":
        t = path_tree(201)
    else:
        rng = random.Random(1000)
        t = tree_from_pruefer(tuple(rng.randrange(1000) for _ in range(998)), 1000)
    family = tree_to_segments(t, 0)
    compatible, among = library_chains(family)
    assert_reports_match_oracle(family, compatible)
    # the among chain crosses unused segments, so its 'compatible' report is
    # the costliest oracle call; the small families above compare it
    assert_reports_match_oracle(family, among, compatible=False)
    faults = broken_paths(compatible, 2 * family.n, random.Random(1))
    assert_reports_match_oracle(family, faults["swapped connector ends"])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda n: st.permutations(list(range(2 * n)))),
    st.sampled_from([None, "degenerate", "out-of-range", "repeated"]),
    st.data(),
)
def test_family_crossing_errors_match_the_label_scan(labels, fault, data):
    labels = list(labels)
    size = len(labels)
    i = data.draw(st.integers(0, size - 1))
    if fault == "degenerate":
        labels[i] = labels[i ^ 1]
    elif fault == "out-of-range":
        labels[i] = data.draw(st.sampled_from([-1, size, size + 5]))
    elif fault == "repeated":
        labels[i] = labels[data.draw(st.integers(0, size - 1).filter(lambda j: j != i))]
    pairs = tuple(zip(labels[::2], labels[1::2]))
    want = family_error_by_sorting(pairs)
    try:
        SegmentFamily(len(pairs), pairs)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert want is None


# ----------------------------------------------------------------------
# among paths: the chain over the kept subfamily against the edge scan's
# ----------------------------------------------------------------------


def assert_among_matches_subfamily(family: SegmentFamily) -> None:
    assert_chains_like_the_edge_scan(family)
    plan = among_path(family)[1]
    t = family._tree
    public = contract_to_caterpillar(t, max_caterpillar_by_contraction(t))
    edges = tuple(step.edge for step in plan.contract_sequence)
    assert edges == tuple(step.edge for step in public.contract_sequence)
    # the chords the plan keeps cut out exactly the plan's caterpillar
    dropped = {max(edge) - 1 for edge in edges}
    kept = [c for i, c in enumerate(family.pairs) if i not in dropped]
    assert duality._structure(tuple(kept)) == plan.kept_caterpillar


@settings(max_examples=60, deadline=None)
@given(tree_strategy(min_vertices=2, max_vertices=60), st.integers(0, 10**6))
def test_among_matches_the_subfamily_route_on_random_families(t, root):
    assert_among_matches_subfamily(tree_to_segments(t, root % t.vertex_count))


def test_among_matches_the_subfamily_route_on_every_small_family():
    for m in range(1, 10):
        for t in free_trees(m):
            for root in range(min(3, t.vertex_count)):
                assert_among_matches_subfamily(tree_to_segments(t, root))


@pytest.mark.parametrize("n", [10, 100, 1000, "path-200"])
def test_among_matches_the_subfamily_route_at_scale(n):
    if n == "path-200":
        t = path_tree(201)
    else:
        rng = random.Random(n)
        t = tree_from_pruefer(tuple(rng.randrange(n + 1) for _ in range(n - 1)), n + 1)
    assert_among_matches_subfamily(tree_to_segments(t, 0))


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
    count_calls(monkeypatch, trees, "_rooted", passes)
    diameter_path(t)
    assert len(passes) <= 2


def test_analyze_runs_the_heaviest_path_once_for_its_witness(monkeypatch, tmp_path):
    tree_file = tmp_path / "tk36.txt"
    tree_file.write_text(format_tree(extremal_branch_star(36)))
    passes: list = []
    for module in (trees, induced):
        count_calls(monkeypatch, module, "_heaviest_path", passes)
    assert main(["analyze", "--tree", str(tree_file), "--witness"]) == 0
    assert len(passes) == 1


def test_contraction_plans_build_no_intermediate_trees(monkeypatch):
    built: list = []
    count_calls(monkeypatch, Tree, "__post_init__", built)
    spider = extremal_spider(90)
    plan = contract_to_caterpillar(spider, 90)
    assert plan.apply(spider) == plan.kept_caterpillar
    assert len(built) <= 3


@pytest.mark.parametrize("case", ["valid", "repeated-label"])
def test_validation_time_is_output_sensitive(case):
    family = tree_to_segments(path_tree(2001), 0)
    cell_tree, _ = segments_to_tree(family)
    chain = compatible_path(family, max_caterpillar(cell_tree)).endpoints
    assert len(chain) == 2 * family.n == 4000
    if case == "repeated-label":
        chain = chain[:-1] + chain[:1]
    path = AlternatingPath(chain, family.n)
    start = time.perf_counter()
    reports = [validate_path(family, path, mode) for mode in ("simple", "compatible")]
    elapsed = time.perf_counter() - start
    assert [r.ok for r in reports] == [case == "valid"] * 2
    # a pairwise listing takes seconds here; the sweep takes milliseconds
    assert elapsed < 1.0


def test_among_path_runs_diameter_path_once(monkeypatch):
    family = tree_to_segments(relabeled_twin(300, seed=3), 0)
    passes: list = []
    for module in (trees, contraction):
        count_calls(monkeypatch, module, "diameter_path", passes)
    among_path(family)
    assert len(passes) == 1


@pytest.mark.parametrize("shape", ["path-300", "star-300", "caterpillar"])
def test_among_path_runs_no_diameter_path_on_a_caterpillar(monkeypatch, shape):
    t = {
        "path-300": lambda: path_tree(300),
        "star-300": lambda: star_tree(300),
        "caterpillar": lambda: caterpillar_tree(3, 0, 2, 5, 1),
    }[shape]()
    family = tree_to_segments(t, 0)
    calls: list = []
    for module in (trees, contraction):
        count_calls(monkeypatch, module, "diameter_path", calls)
    among_path(family)
    assert len(calls) == 0  # a non-caterpillar runs it once (the test above)


def test_plans_match_the_replay_on_every_small_class():
    classes = plans = 0
    for m in range(1, 11):
        for t in free_trees(m):
            classes += 1
            cap = max_caterpillar_by_contraction(t)
            # only a caterpillar scores its edge count
            assert (trees._spine(t) is not None) == (cap == t.m)
            replayed = contraction_plans_by_replay(t, range(1, cap + 1))
            for k in (None, *range(1, cap + 1)):
                plan, witness = contraction._plan(t, k)
                sequence, kept = replayed[cap if k is None else k]
                assert plan.target_size == (cap if k is None else k)
                assert tuple(step.edge for step in plan.contract_sequence) == sequence
                assert plan.kept_caterpillar == kept
                assert witness == max_caterpillar(kept)
                plans += 1
    assert (classes, plans) == (435, 4219)  # every k, and the default, per class


def test_a_caterpillar_plan_keeps_the_target_it_is_given():
    class Edges(int):
        pass

    t = caterpillar_tree(2, 1, 3)
    k = Edges(t.m)
    assert contract_to_caterpillar(t, k).target_size is k


def test_a_witness_short_of_a_spine_end_fails_a_caterpillar_plan(monkeypatch):
    t = caterpillar_tree(2, 1, 3)
    original = induced._heaviest_path

    def short(tree, weight):
        path = list(original(tree, weight))
        while tree.degrees[path[0]] == 1:
            path.pop(0)
        return tuple(path[1:])  # the witness loses the spine end's leaves

    monkeypatch.setattr(induced, "_heaviest_path", short)
    with pytest.raises(AssertionError, match="failed to reach a caterpillar"):
        contract_to_caterpillar(t, t.m)
    with pytest.raises(AssertionError, match="failed to reach a caterpillar"):
        among_path(tree_to_segments(t, 0))


def test_among_path_builds_no_second_family(monkeypatch):
    family = tree_to_segments(relabeled_twin(300, seed=3), 0)
    built: list = []
    count_calls(monkeypatch, SegmentFamily, "__post_init__", built)
    among_path(family)
    assert len(built) == 0


def test_census_computes_canonical_codes_only_for_row_witnesses(monkeypatch):
    codes: list = []
    for module in (trees, oracle):
        count_calls(monkeypatch, module, "canonical_code", codes)
    report = verify_all(max_edges=9, max_score=6, sweep_limit=500)
    assert report.ok
    # 200 classes; only the trees at each bound's minimum need a code
    assert len(codes) <= 60


@pytest.mark.parametrize(
    "shape", ["twin-300", "spider", "path-300", "branch-star-4"]
)
def test_among_path_builds_one_tree_and_checks_it_once(monkeypatch, shape):
    if shape == "twin-300":
        family = tree_to_segments(relabeled_twin(300, seed=3), 0)
    elif shape == "spider":
        family = tree_to_segments(spider_tree(1, 2, 3, 4), 2)
    elif shape == "path-300":
        family = tree_to_segments(path_tree(300), 0)
    else:
        family = tree_to_segments(extremal_branch_star(4), 0)
    cell_tree = family._tree  # not the path's cost
    caterpillar = shape in ("path-300", "branch-star-4")
    built: list = []
    structures: list = []
    checks: list = []
    count_calls(monkeypatch, Tree, "__post_init__", built)
    count_calls(monkeypatch, duality, "_structure", structures)
    for module in (trees, contraction, duality):
        if hasattr(module, "is_caterpillar"):
            count_calls(monkeypatch, module, "is_caterpillar", checks)
    plan = among_path(family)[1]
    if caterpillar:  # nothing to contract: the cell tree is kept as it is
        assert len(built) == len(structures) == 0
        assert plan.contract_sequence == ()
        assert plan.kept_caterpillar is cell_tree
    else:  # the contracted tree, also the kept structure's
        assert len(built) == len(structures) == 1
    assert len(checks) == 0  # its induced caterpillar witness is the check


def test_among_path_on_every_small_caterpillar_class():
    seen = 0
    for m in range(1, 13):
        for t in free_trees(m):
            if not is_caterpillar(t)[0]:
                continue
            seen += 1
            cap = max_caterpillar_by_contraction(t)
            assert cap == t.m  # the rule the plan's shortcut relies on
            # the shortcut lists what the general route would
            assert contraction._steps(t, cap, cap, diameter_path(t)) == []
            plan, witness = contraction._plan(t)
            assert plan.contract_sequence == () and plan.kept_caterpillar is t
            assert witness == max_caterpillar(t)
            assert_among_matches_subfamily(tree_to_segments(t, 0))
    assert seen == 1087  # the caterpillar classes of the m <= 12 census


def test_census_runs_max_caterpillar_once_per_class(monkeypatch):
    classes = [t for m in range(1, 10) for t in free_trees(m)]
    plans = [contract_to_caterpillar(t, max_caterpillar_by_contraction(t)) for t in classes]
    with_steps = sum(bool(plan.contract_sequence) for plan in plans)
    assert (len(classes), with_steps) == (200, 49)  # 151 caterpillar classes
    calls: list = []
    for module in (induced, contraction, duality, oracle):
        if hasattr(module, "max_caterpillar"):
            count_calls(monkeypatch, module, "max_caterpillar", calls)
    for t in classes:
        _, _, agrees, failure = _check_tree(t)
        assert agrees and failure is None
    # a caterpillar's plan and any other class's compatible path; a
    # contracted tree's witness is its spine walk
    assert len(calls) == len(classes)


# ----------------------------------------------------------------------
# facts shared between among_path and contract_to_caterpillar, and the
# census round-trip rule
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(tree_strategy(min_vertices=2, max_vertices=200), st.integers(0, 10**6))
@example(extremal_spider(40), 0)
def test_among_plans_are_the_public_plans(t, root):
    family = tree_to_segments(t, root % t.vertex_count)
    cell_tree, _ = segments_to_tree(family)
    plan = among_path(family)[1]
    public = contract_to_caterpillar(cell_tree, max_caterpillar_by_contraction(cell_tree))
    assert plan.contract_sequence == public.contract_sequence
    assert plan.kept_caterpillar == public.kept_caterpillar


def test_a_relabelled_round_trip_fails_the_duality_check():
    # the census hands in preorder trees, whose round trip returns the tree
    # itself; a tree labelled otherwise comes back as another labelled tree
    legs = spider_tree(1, 2, 3, 4)
    t = relabeled(legs, list(reversed(range(legs.vertex_count))))
    back, _ = segments_to_tree(tree_to_segments(t, 0))
    assert back != t
    score, _, _, failure = _check_tree(t)
    assert failure == "round trip"
    assert score == max_caterpillar_by_contraction(t)


def test_non_isomorphic_round_trips_fail_the_duality_row(monkeypatch):
    def wrong(t, root):
        return tree_to_segments(path_tree(t.vertex_count + 1), root)

    monkeypatch.setattr(oracle, "tree_to_segments", wrong)
    report = verify_all(max_edges=3, max_score=6, sweep_limit=500)
    failed = report.failures()
    assert [r.label for r in failed] == ["m=1", "m=2", "m=3"]
    assert all(r.section == "duality" for r in failed)
    assert all(r.actual.endswith(" (round trip)") for r in failed)


# ----------------------------------------------------------------------
# the census fold: (tree, result) pairs streamed into the tallies of 1 to 4
# shares, merged into rows, against the list fold, which needs every tree's
# canonical code
# ----------------------------------------------------------------------


def folds_agree(m: int, pairs: list, rng: random.Random) -> None:
    listed = fold_by_lists(m, [(str(canonical_code(t)), *r) for t, r in pairs])
    assert oracle._rows(m, [oracle._fold(iter(pairs))]) == listed
    for workers in (1, 2, 3, 4):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        shares = [shuffled[part::workers] for part in range(workers)]
        tallies = [oracle._fold(iter(share)) for share in shares]
        rng.shuffle(tallies)
        assert oracle._rows(m, tallies) == listed


def test_streamed_fold_matches_the_list_fold_on_real_results():
    rng = random.Random(0)
    for m in range(1, 10):
        folds_agree(m, [(t, _check_tree(t)) for t in free_trees(m)], rng)


@pytest.mark.parametrize("seed", range(12))
def test_streamed_fold_matches_the_list_fold_on_synthetic_results(seed):
    rng = random.Random(seed)
    m = rng.randrange(2, 10)
    level = list(free_trees(m))
    if seed % 3 == 0:  # a short level fails the census row too
        level = rng.sample(level, rng.randrange(1, len(level) + 1))
    base = rng.randrange(1, m + 1)
    pairs = []
    for t in level:
        score = base + rng.randrange(2)  # two values, so ties at the minimum
        brute = base + rng.randrange(3)
        agrees = rng.random() < 0.8
        failure = rng.choice([None, None, "round trip", "among: ValueError: x"])
        pairs.append((t, (score, brute, agrees, failure)))
    folds_agree(m, pairs, rng)
