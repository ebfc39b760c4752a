"""Enumeration, brute-force oracles, and the verification harness."""

import concurrent.futures
from pathlib import Path

import pytest

import catbound.induced as induced
import catbound.oracle as oracle

from catbound import (
    FREE_TREE_COUNTS,
    Tree,
    among_path,
    brute_max_caterpillar,
    canonical_code,
    compatible_path,
    extremal_size_induced,
    free_trees,
    guarantee_change_points,
    induced_guarantee,
    induced_guarantee_reference,
    max_branch_size,
    max_caterpillar,
    max_caterpillar_by_contraction,
    segments_to_tree,
    tree_from_pruefer,
    tree_to_segments,
    validate_path,
    verify_all,
)
from catbound.cli import main
from helpers import (
    brute_max_caterpillar_by_subsets,
    free_trees_by_leaf_growth,
    path_tree,
    spider_tree,
    star_tree,
)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_census_of_small_trees():
    for m in range(15):
        assert sum(1 for _ in free_trees(m)) == FREE_TREE_COUNTS[m]


def test_free_tree_counts_are_computed():
    # A000055, shifted to count edges
    known = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629)
    assert FREE_TREE_COUNTS == known
    assert [oracle._free_tree_count(m) for m in (17, 18, 19)] == [123867, 317955, 823065]


def test_census_row_past_the_literal_table():
    # an edge count the literal table does not reach still gets its count row
    row = oracle._rows(17, [oracle._fold(())])[0]
    assert (row.section, row.label, row.expected, row.actual) == (
        "tree-census",
        "m=17",
        "123867",
        "0",
    )
    assert not row.passed


def test_enumeration_yields_distinct_classes():
    for m in range(1, 10):
        codes = [canonical_code(t) for t in free_trees(m)]
        assert len(codes) == len(set(codes))
        assert all(t.m == m for t in free_trees(m))


def test_both_routes_agree(edge_counts=range(13)):
    # CI carries this through m = 13 and 14, past Tier-1's time budget
    grown = free_trees_by_leaf_growth(max(edge_counts))
    for m in edge_counts:
        via_levels = {canonical_code(t) for t in free_trees(m)}
        assert via_levels == {canonical_code(t) for t in grown[m]}, f"m={m}"


def test_levels_route_matches_networkx():
    networkx = pytest.importorskip("networkx")
    for m in range(2, 10):
        mine = sorted(canonical_code(t) for t in free_trees(m))
        theirs = sorted(
            canonical_code(Tree(m + 1, tuple(g.edges())))
            for g in networkx.nonisomorphic_trees(m + 1)
        )
        assert mine == theirs


def test_pruefer_decoding():
    assert tree_from_pruefer((), 2).edges == ((0, 1),)
    # the all-zeros code is the star at 0
    assert tree_from_pruefer((0, 0, 0), 5) == star_tree(5)
    with pytest.raises(ValueError, match="length"):
        tree_from_pruefer((0,), 4)
    with pytest.raises(ValueError, match="range"):
        tree_from_pruefer((9,), 3)


# ----------------------------------------------------------------------
# brute force
# ----------------------------------------------------------------------


def test_subset_search_on_simple_shapes():
    assert brute_max_caterpillar(path_tree(9)) == 8
    assert brute_max_caterpillar(star_tree(9)) == 8
    assert brute_max_caterpillar(spider_tree(2, 2, 2)) == 5
    assert brute_max_caterpillar(spider_tree(3, 3, 3)) == 7


def test_subset_search_limits():
    with pytest.raises(ValueError, match="20"):
        brute_max_caterpillar(path_tree(21))
    with pytest.raises(ValueError, match="edge"):
        brute_max_caterpillar(Tree(1, ()))


def test_fast_search_agrees_with_subset_search_everywhere_small():
    for m in range(1, 10):
        for t in free_trees(m):
            assert max_caterpillar(t).size == brute_max_caterpillar(t)


def test_subtree_search_equals_subset_search_on_every_small_class():
    for m in range(1, 14):
        for t in free_trees(m):
            assert brute_max_caterpillar(t) == brute_max_caterpillar_by_subsets(t)


def binary_tree(n: int) -> Tree:
    return Tree(n, tuple(((i - 1) // 2, i) for i in range(1, n)))


@pytest.mark.parametrize(
    "t, size",
    [
        (binary_tree(20), 12),
        (spider_tree(*[2] * 9, 1), 12),  # nine legs of 2 and one of 1
        (spider_tree(3, 3, 3, 3, 3, 3, 1), 11),
        (spider_tree(6, 6, 7), 14),
        (path_tree(20), 19),
    ],
    ids=["binary", "spider-2x9-1", "spider-3x6-1", "spider-6-6-7", "path"],
)
def test_subtree_search_equals_subset_search_at_the_limit(t, size):
    assert t.vertex_count == 20
    assert brute_max_caterpillar(t) == brute_max_caterpillar_by_subsets(t) == size


def test_branch_recurrence():
    sizes = oracle._branch_sizes(60)
    assert sizes[:8] == [0, 1, 2, 3, 5, 7, 11, 16]
    for k in range(1, 61):
        assert sizes[k] == max_branch_size(k)


def test_searched_thresholds_are_the_extremal_sizes_through_the_sweep_cap():
    # verify_all sizes the table from the sweep's bit length alone
    cap = oracle.MAX_SWEEP
    sizes = oracle._branch_sizes(2 * cap.bit_length())
    searched = oracle._searched_thresholds(sizes, 26, cap)
    assert searched == [extremal_size_induced(k) for k in range(len(searched))]
    assert searched[-2] < cap <= searched[-1]


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 6, 170, 171, 10**5, oracle.MAX_SWEEP])
def test_the_sweep_inverts_a_table_that_reaches_its_limit(limit):
    assert verify_all(max_edges=1, max_score=1, sweep_limit=limit).ok


# ----------------------------------------------------------------------
# sweep change points
# ----------------------------------------------------------------------


def test_change_points_bracket_the_range():
    points = guarantee_change_points(10**5)
    assert points[0] == 1 and points[-1] == 10**5
    assert all(1 <= p <= 10**5 for p in points)
    assert points == sorted(set(points))


def test_guarantee_matches_reference_at_change_points():
    for m in guarantee_change_points(10**5):
        assert induced_guarantee(m) == induced_guarantee_reference(m)


def test_every_change_of_either_guarantee_is_a_candidate():
    limit = 30_000
    points = set(guarantee_change_points(limit))
    steps = [induced_guarantee, induced_guarantee_reference]
    # and where each residue form's N rises, six times per step of its form
    steps += [
        lambda m, c=c, s=s, gamma=gamma: induced._ceil_6log3(c * m + s, gamma)
        for c, s, gamma, _add in induced._RESIDUE_PARAMS.values()
    ]
    for step in steps:
        values = [step(m) for m in range(1, limit + 1)]
        changes = {m for m in range(2, limit + 1) if values[m - 1] != values[m - 2]}
        assert changes and sorted(changes - points) == []


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------


def test_small_verification_passes():
    report = verify_all(max_edges=6, max_score=10, sweep_limit=2000)
    assert report.ok
    assert report.failures() == ()
    sections = {r.section for r in report.records}
    assert {
        "tree-census",
        "contraction-bound",
        "induced-bound",
        "caterpillar-search",
        "duality",
        "branch-size",
        "branch-ratio",
        "extremal-spider",
        "extremal-branch-star",
        "beautiful-tree",
        "guarantee-sweep",
    } <= sections


def test_verification_report_serializes():
    report = verify_all(max_edges=3, max_score=6, sweep_limit=500)
    data = report.to_dict()
    assert data["ok"] and data["failed"] == 0
    assert data["total"] == len(report.records)
    text = report.to_text()
    assert text.endswith("checks passed\n")
    assert text == verify_all(max_edges=3, max_score=6, sweep_limit=500).to_text()


def failed_rows(report) -> dict[str, str]:
    return {f"{r.section} {r.label}": r.actual for r in report.failures()}


def test_corrupted_branch_size_is_caught():
    report = verify_all(max_edges=2, max_score=12, sweep_limit=500, misstated_branch=9)
    assert failed_rows(report) == {
        "branch-size k=9": "35",
        "beautiful-tree k<=12": "k=9: 34 edges, hungry 9, caterpillar 14",
    }


def test_a_wrong_spider_size_fails_the_spider_row(monkeypatch):
    size = oracle.extremal_size_contraction
    monkeypatch.setattr(oracle, "extremal_size_contraction", lambda k: size(k) + (k == 5))
    report = verify_all(max_edges=2, max_score=8, sweep_limit=500)
    assert failed_rows(report) == {"extremal-spider k<=8": "k=5: 6 edges, score 5"}


def test_a_wrong_branch_size_fails_the_ratio_and_beautiful_rows(monkeypatch):
    size = oracle.max_branch_size
    monkeypatch.setattr(oracle, "max_branch_size", lambda k: size(k) + 20 * (k == 8))
    report = verify_all(max_edges=2, max_score=12, sweep_limit=500)
    assert failed_rows(report) == {
        "branch-size k=8": "43",
        "branch-ratio k<=12": "2*size(8) >= 3*size(7)",
        "beautiful-tree k<=12": "k=8: 23 edges, hungry 8, caterpillar 13",
    }


def test_branch_growth_below_seven_fifths_fails_the_ratio_row(monkeypatch, capsys):
    # size(10) = 49 read as 47: 5 * 47 = 235 falls below 7 * size(9) = 238
    size = oracle.max_branch_size
    monkeypatch.setattr(oracle, "max_branch_size", lambda k: size(k) - 2 * (k == 10))
    report = verify_all(max_edges=2, max_score=12, sweep_limit=500)
    assert failed_rows(report) == {
        "branch-size k=10": "47",
        "branch-ratio k<=12": "5*size(10) < 7*size(9)",
        "beautiful-tree k<=12": "k=10: 49 edges, hungry 10, caterpillar 16",
    }
    assert main(["verify", "--max-edges", "2", "--max-k", "12", "--sweep", "500"]) == 2
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[:-1]}
    assert rows["branch-ratio"].startswith("FAIL")
    assert rows["branch-ratio"].endswith("actual 5*size(10) < 7*size(9)")


@pytest.mark.parametrize("k", [0, 13])
def test_overrides_outside_the_checked_scores_are_refused(k):
    refusal = r"^misstated_branch must be (positive|at most 12)$"
    with pytest.raises(ValueError, match=refusal):
        verify_all(max_edges=2, max_score=12, sweep_limit=500, misstated_branch=k)


@pytest.mark.parametrize("k", [8.5, True, "9", (0, 1), ""])
def test_overrides_that_are_not_integers_are_refused(k):
    with pytest.raises(ValueError) as caught:
        verify_all(max_edges=1, max_score=9, sweep_limit=10, misstated_branch=k)
    assert str(caught.value) == f"misstated_branch must be an integer, got {k!r}"


def test_workers_do_not_change_the_report(monkeypatch):
    golden = (Path(__file__).parent / "verify_golden.txt").read_text()
    solo = verify_all(max_edges=7, max_score=12, sweep_limit=2000)
    assert solo.to_text() == golden
    # a real pool, sized by the CPUs this process may run on
    monkeypatch.setattr(oracle, "_POOL_FROM", 7)
    opened = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recorded(max_workers):
        opened.append(max_workers)
        return real_pool(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    team = verify_all(max_edges=7, max_score=12, sweep_limit=2000)
    if not opened:
        pytest.skip("one CPU: the census ran in this process")
    assert team.records == solo.records


class InlinePool:
    """A stand-in for ProcessPoolExecutor that records its size and the
    arguments of each task, and runs the tasks in this process."""

    sizes: list = []
    tasks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        self.tasks += tasks
        return [fn(*task) for task in tasks]


def report_cpus(monkeypatch, affinity, cpus):
    """Make this process see ``affinity`` CPUs it may run on (None: a
    platform with no affinity call) and ``cpus`` CPUs in the machine."""
    if affinity is None:
        monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            oracle.os, "sched_getaffinity", lambda pid: set(range(affinity)),
            raising=False,
        )
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)


def inline_pools(monkeypatch, pool_from) -> None:
    """Lower the pool threshold to ``pool_from`` and let each pool that
    ``verify_all`` opens be an ``InlinePool``."""
    monkeypatch.setattr(oracle, "_POOL_FROM", pool_from)
    # verify_all imports the pool when it opens one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(InlinePool, "tasks", [])


def assert_pools(monkeypatch, pools):
    """``verify_all`` through 3 edges, with the pool threshold lowered to 3,
    opens ``pools`` (the sizes of the pools it opens) and reports what an
    in-process run does."""
    serial = verify_all(max_edges=3, max_score=6, sweep_limit=500)
    inline_pools(monkeypatch, 3)
    report = verify_all(max_edges=3, max_score=6, sweep_limit=500)
    assert InlinePool.sizes == pools
    assert report.records == serial.records


def test_a_census_below_the_threshold_opens_no_pool(monkeypatch):
    # the census workload's m <= 12 runs in this process, whatever the CPUs
    report_cpus(monkeypatch, 64, 64)
    inline_pools(monkeypatch, oracle._POOL_FROM)
    assert verify_all(max_edges=12, max_score=1, sweep_limit=1).ok
    assert InlinePool.sizes == []


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (None, [])])
def test_workers_are_clamped_to_the_cpu_count(monkeypatch, cpus, pools):
    # None: a platform that reports neither an affinity set nor a CPU count
    report_cpus(monkeypatch, cpus, cpus)
    assert_pools(monkeypatch, pools)


@pytest.mark.parametrize(
    "affinity, cpus, pools",
    # ``taskset -c 0`` on a 2-CPU machine; a platform with no affinity call
    [(1, 2, []), (None, 2, [2])],
)
def test_workers_are_clamped_to_the_cpus_this_process_may_use(
    monkeypatch, affinity, cpus, pools
):
    report_cpus(monkeypatch, affinity, cpus)
    assert_pools(monkeypatch, pools)


def test_the_rows_do_not_depend_on_how_the_classes_are_shared(monkeypatch):
    # each worker gets an edge count, its share and the number of shares,
    # and builds its own trees; one share is the census in this process
    serial = verify_all(max_edges=9, max_score=1, sweep_limit=1)
    for workers in (1, 2, 3, 4):
        report_cpus(monkeypatch, workers, workers)
        inline_pools(monkeypatch, 1)
        shared = verify_all(max_edges=9, max_score=1, sweep_limit=1)
        assert shared.records == serial.records
        assert InlinePool.sizes == ([workers] if workers > 1 else [])
        shares = range(workers) if workers > 1 else ()
        tasks = [(m, part, workers) for m in range(1, 10) for part in shares]
        assert InlinePool.tasks == tasks
        assert all(type(arg) is int for task in InlinePool.tasks for arg in task)


def test_failed_duality_rows_name_the_step_and_the_exception(monkeypatch):
    def broken(family):
        raise RuntimeError("boom")

    monkeypatch.setattr(oracle, "among_path", broken)
    report = verify_all(max_edges=3, max_score=6, sweep_limit=500)
    failed = report.failures()
    assert [r.label for r in failed] == ["m=1", "m=2", "m=3"]
    assert all(r.section == "duality" for r in failed)
    assert failed[0].actual == "failed at (()) (among: RuntimeError: boom)"
    assert all("(among: RuntimeError: boom)" in r.actual for r in failed)


def leaf_moved(t: Tree) -> Tree:
    """``t`` with its last vertex, a leaf in preorder, hung elsewhere."""
    last = t.vertex_count - 1
    (parent,) = t.adjacency[last]
    other = 1 if parent == 0 else 0
    kept = tuple(e for e in t.edges if last not in e)
    return Tree(t.vertex_count, kept + ((other, last),))


def test_a_wrong_cell_tree_hint_fails_the_round_trip(monkeypatch, capsys):
    # the family keeps the census tree as its cell tree only after checking
    # the cells' edges, so a hint of another labelled tree must fail there
    def hinting(t, root=0):
        family = tree_to_segments(t, root)
        if t.vertex_count > 2:
            family.__dict__["_cell_tree"] = leaf_moved(t)
        return family

    monkeypatch.setattr(oracle, "tree_to_segments", hinting)
    report = verify_all(max_edges=4, max_score=6, sweep_limit=500)
    failed = report.failures()
    assert [r.label for r in failed] == ["m=2", "m=3", "m=4"]
    assert all(r.section == "duality" for r in failed)
    why = "(round trip: AssertionError: chords do not cut out the tree given as their cells)"
    assert all(r.actual.endswith(why) for r in failed)
    assert main(["verify", "--max-edges", "4", "--max-k", "6", "--sweep", "500"]) == 2
    assert "FAIL duality" in capsys.readouterr().out


def small_caterpillar_classes():
    for m in range(1, 13):
        for t in free_trees(m):
            if max_caterpillar_by_contraction(t) == m:
                yield t


def test_caterpillar_among_paths_are_their_compatible_paths():
    count = 0
    for t in small_caterpillar_classes():
        family = tree_to_segments(t, 0)
        path, plan = among_path(family)
        assert plan.contract_sequence == () and path.k == t.m
        assert validate_path(family, path, "compatible").ok
        cell_tree, _ = segments_to_tree(family)
        assert path == compatible_path(family, max_caterpillar(cell_tree))
        count += 1
    assert count == 1087


def test_the_census_builds_one_tree_per_class_and_one_chain_per_caterpillar(
    monkeypatch,
):
    classes = sum(FREE_TREE_COUNTS[1:10])
    contracted = sum(
        max_caterpillar_by_contraction(t) < m for m in range(1, 10) for t in free_trees(m)
    )
    built, chains = [], []
    post_init = Tree.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    real_compatible = oracle.compatible_path

    def compatible(family, witness):
        chains.append(family.n)
        return real_compatible(family, witness)

    monkeypatch.setattr(Tree, "__post_init__", counting)
    monkeypatch.setattr(oracle, "compatible_path", compatible)
    for m in range(1, 10):
        for t in free_trees(m):
            assert oracle._check_tree(t)[3] is None
    assert len(built) == classes + contracted
    assert len(chains) == contracted


def forbid_enumeration(monkeypatch, cpus) -> None:
    """Make this process see ``cpus`` CPUs, run each pool inline, and make
    enumerating the classes of any edge count raise ``LookupError``, in this
    process and in each share of a pool alike."""

    def never(m):
        raise LookupError("trees were enumerated")

    report_cpus(monkeypatch, cpus, cpus)
    inline_pools(monkeypatch, oracle._POOL_FROM)
    monkeypatch.setattr(oracle, "_layouts", never)


def test_census_past_the_subset_search_limit_is_refused_before_enumerating(
    monkeypatch, capsys
):
    for cpus in (1, 2):  # in this process, and in the shares of a pool
        forbid_enumeration(monkeypatch, cpus)
        with pytest.raises(ValueError, match="at most 19"):
            verify_all(max_edges=20)
        with pytest.raises(LookupError):  # 19 edges pass the check
            verify_all(max_edges=19)
        assert InlinePool.sizes == ([2] if cpus == 2 else [])
    assert main(["verify", "--max-edges", "25"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == "catbound: error: --max-edges must be at most 19\n"


def test_scores_past_the_cap_are_refused_before_any_spider_is_built(
    monkeypatch, capsys
):
    def never(*args):
        raise LookupError("an extremal tree was built")

    for name in ("extremal_spider", "extremal_branch_star", "beautiful_tree"):
        monkeypatch.setattr(oracle, name, never)
    cap = oracle.MAX_SCORE
    with pytest.raises(ValueError, match=f"at most {cap}"):
        verify_all(max_edges=1, max_score=cap + 1)
    with pytest.raises(LookupError):  # the cap itself passes the check
        verify_all(max_edges=1, max_score=cap, sweep_limit=10)
    assert main(["verify", "--max-edges", "2", "--max-k", str(10**9)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"catbound: error: --max-k must be at most {cap}\n"


def test_sweep_below_one_is_refused_before_enumerating(monkeypatch, capsys):
    for cpus in (1, 2):  # in this process, and in the shares of a pool
        forbid_enumeration(monkeypatch, cpus)
        with pytest.raises(ValueError, match="must be positive"):
            verify_all(max_edges=14, sweep_limit=0)
        with pytest.raises(LookupError):  # a sweep of 1 passes the check
            verify_all(max_edges=14, sweep_limit=1)
        assert InlinePool.sizes == ([2] if cpus == 2 else [])
    assert main(["verify", "--max-edges", "14", "--sweep", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "catbound: error: --sweep must be positive\n"


def test_sweep_past_the_cap_is_refused_before_enumerating(monkeypatch, capsys):
    cap = oracle.MAX_SWEEP
    for cpus in (1, 2):  # in this process, and in the shares of a pool
        forbid_enumeration(monkeypatch, cpus)
        with pytest.raises(ValueError, match=f"^sweep_limit must be at most {cap}$"):
            verify_all(max_edges=14, sweep_limit=cap + 1)
        with pytest.raises(LookupError):  # the cap itself passes the check
            verify_all(max_edges=14, sweep_limit=cap)
        assert InlinePool.sizes == ([2] if cpus == 2 else [])
    assert main(["verify", "--max-edges", "14", "--sweep", str(cap + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"catbound: error: --sweep must be at most {cap}\n"


def test_a_wrong_star_shape_fails_both_star_rows(monkeypatch, capsys, request):
    # five single edges at k = 5 have 5 edges and caterpillar 5, as the table
    # then says, but three branches of parameter 2 have 6: only the search
    # over every shape, and the guarantee it inverts at m = 6, can tell
    shape = induced._star_shape
    monkeypatch.setattr(induced, "_star_shape", lambda k: (5, 1) if k == 5 else shape(k))
    induced._extremal_size_induced.cache_clear()
    request.addfinalizer(induced._extremal_size_induced.cache_clear)
    assert main(["verify", "--max-edges", "3", "--max-k", "8", "--sweep", "500"]) == 2
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[:-1]}
    assert rows["extremal-branch-star"].startswith("FAIL")
    assert "actual k=5: 5 edges, caterpillar 5" in rows["extremal-branch-star"]
    assert rows["guarantee-sweep"].startswith("FAIL")
    assert "actual m=6: 6 vs 5" in rows["guarantee-sweep"]


def test_an_error_in_both_closed_form_bindings_fails_the_sweep(monkeypatch, capsys):
    # f(40) = 6 * size(18) = 5,586 read as 5,585 by the threshold table and
    # by the residue forms alike: q(5,586) becomes 41, and only the searched
    # thresholds still give 40
    size = induced._extremal_size_induced

    def wrong(k):
        return size(k) - (k == 40)

    monkeypatch.setattr(induced, "_extremal_size_induced", wrong)
    monkeypatch.setattr(oracle, "extremal_size_induced", wrong)
    guarantee = oracle.induced_guarantee
    monkeypatch.setattr(oracle, "induced_guarantee", lambda m: guarantee(m) + (m == 5586))
    assert induced_guarantee_reference(5586) == oracle.induced_guarantee(5586) == 41
    assert main(["verify", "--max-edges", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    (failed,) = [line for line in lines if line.startswith("FAIL")]
    assert failed.split()[1] == "guarantee-sweep"
    assert "actual m=5586: 41 vs 40" in failed


def test_branch_size_table_is_built_once_per_run(monkeypatch):
    tables = []
    build = oracle._branch_sizes

    def counting(k):
        tables.append(k)
        return build(k)

    monkeypatch.setattr(oracle, "_branch_sizes", counting)
    assert verify_all(max_edges=2, max_score=40, sweep_limit=10).ok
    assert tables == [40]


def test_sanity_of_bounds_arguments():
    with pytest.raises(ValueError):
        verify_all(max_edges=0)
    with pytest.raises(ValueError):
        verify_all(misstated_branch=0)
    with pytest.raises(ValueError):
        guarantee_change_points(0)
