"""The shared per-tree kernels against their references in ``helpers``.

``Tree`` validation, ``_heaviest_path``, ``tree_to_segments``,
``_structure``, ``_compatible_chain``, ``validate_path`` and
``_contract_all`` must each reproduce its reference exactly: the same
outputs and tie-breaks on every small tree class under relabelling, on
random and 1000-edge trees, and the same exception, message and edge index
or the same path issues, in the same order, on malformed input; ``Tree``
also on the built trees' edges parent first and reversed, each with one
fault put in.  The references are ``tree_by_set_check``,
``heaviest_path_by_all_pairs``, ``tree_to_segments_by_phase_stack``,
``structure_by_index_stack``, ``compatible_chain_by_min_max``,
``validate_path_by_sweep`` and ``contract_all_by_replay``, which contracts
one edge at a time; ``test_contraction`` pins ``_contract_all``'s refusals.
``_heaviest_path`` is held to the all-pairs search under unit, {0, 1, 2}
and deg - 1 weights, and, since its passes skip the leaves of weight 0,
under weights that are 0 on leaves only, on inner vertices only, everywhere
or nowhere, or positive on every leaf; ``max_caterpillar`` is held to the
all-pairs witness.  ``validate_path`` is held to its own reporter with the
accepting scan switched off, and on arbitrary endpoint lists also to the
all-pairs definition, ``validate_path_by_all_pairs``; ``_compatible_chain``
to the reference's per-cell chaining on a witness along every path of a
small cell tree, walked both ways.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catbound import (
    AlternatingPath,
    CaterpillarWitness,
    Tree,
    among_path,
    beautiful_tree,
    build_spider,
    compatible_path,
    contract_to_caterpillar,
    extremal_branch_star,
    extremal_spider,
    format_tree,
    free_trees,
    max_caterpillar,
    max_caterpillar_by_contraction,
    parse_tree,
    segments_to_tree,
    tree_from_pruefer,
    tree_to_segments,
    validate_path,
)
from catbound.contraction import _contract_all
from catbound.duality import _compatible_chain, _structure
from catbound.trees import _heaviest_path
from helpers import (
    broken_paths,
    caterpillar_tree,
    compatible_chain_by_min_max,
    contract_all_by_replay,
    heaviest_path_by_all_pairs,
    max_caterpillar_by_all_pairs,
    outcome,
    path_tree,
    relabeled,
    relabeled_twin,
    spider_tree,
    star_tree,
    structure_by_index_stack,
    tree_by_set_check,
    tree_to_segments_by_phase_stack,
    validate_path_by_all_pairs,
    validate_path_by_sweep,
    workloads,
)
from helpers import trees as tree_strategy


def tree_outcome(n, edges):
    def build():
        t = Tree(n, edges)
        return t.edges, t.adjacency, t.degrees

    return outcome(build)


def assert_tree_matches(n, edges):
    assert tree_outcome(n, edges) == outcome(lambda: tree_by_set_check(n, edges))


def assert_structure_matches(chords, tree=None):
    assert _structure(chords, tree) == structure_by_index_stack(chords, tree)[1]


def spine_witnesses(t: Tree, rng: random.Random):
    """A caterpillar witness along every path of ``t``, walked both ways,
    with each neighbour of the path a leaf of it at random.  Chained, each
    spine cell is entered at either end of its entry chord, or not at all,
    is left by an exit chord or not, and wants a random set of its other
    chords."""
    adjacency = t.adjacency
    for start in range(t.vertex_count):
        parent = {start: start}
        queue = [start]
        for u in queue:
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        for end in range(t.vertex_count):
            spine = [end]
            while spine[-1] != start:
                spine.append(parent[spine[-1]])
            spine.reverse()
            vertices = set(spine)
            for u in spine:
                vertices.update(v for v in adjacency[u] if rng.random() < 0.6)
            if len(vertices) > 1:
                size = len(vertices) - 1
                yield CaterpillarWitness(frozenset(vertices), tuple(spine), size)


def assert_spines_chain_alike(family, rng: random.Random) -> None:
    """``_compatible_chain`` against ``compatible_chain_by_min_max``, which
    chains each cell with ``_chain_one_cell_by_modulo``, on every spine of the
    family's cell tree; each chain must also be compatible."""
    chords, cell_tree = family.pairs, family._tree
    for witness in spine_witnesses(cell_tree, rng):
        chain = _compatible_chain(chords, cell_tree, witness)
        assert chain == compatible_chain_by_min_max(chords, witness)
        assert validate_path(family, chain, "compatible").ok


def assert_reports_match(family, endpoints, all_pairs: bool = False) -> None:
    path = AlternatingPath(tuple(endpoints), len(endpoints) // 2)
    for mode in ("simple", "compatible"):
        report = validate_path(family, path, mode)
        assert report == validate_path_by_sweep(family, path, mode)
        if all_pairs:  # an independent reporter, too slow for large families
            assert report == validate_path_by_all_pairs(family, path, mode)


def assert_matches_previous(t: Tree, rng: random.Random, exhaustive: bool = True) -> None:
    n = t.vertex_count
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
    rng.shuffle(shuffled)
    assert_tree_matches(n, tuple(shuffled))

    weights = [[1] * n, [rng.randrange(3) for _ in range(n)]]  # ties, zeros
    if t.m:
        weights.append([d - 1 for d in t.degrees])  # the caterpillar's
    for weight in weights:
        assert _heaviest_path(t, weight) == heaviest_path_by_all_pairs(t, weight)
    if t.m < 1:
        return

    roots = range(n) if exhaustive else [0, rng.randrange(n)]
    for root in roots:
        family = tree_to_segments(t, root)
        assert family == tree_to_segments_by_phase_stack(t, root)
    # the rest runs on the last root's family
    assert_structure_matches(family.pairs)
    chords, cell_tree = family.pairs, family._tree
    witness = max_caterpillar(cell_tree)
    chain = _compatible_chain(chords, cell_tree, witness)
    assert chain == compatible_chain_by_min_max(chords, witness)
    if exhaustive:
        assert_spines_chain_alike(family, rng)

    chains = [compatible_path(family, witness).endpoints, among_path(family)[0].endpoints]
    for chain in chains:
        assert_reports_match(family, chain)
        for bad in broken_paths(chain, 2 * family.n, rng).values():
            assert_reports_match(family, bad)

    cap = max_caterpillar_by_contraction(t)
    for k in {1, cap}:
        steps = [s.edge for s in contract_to_caterpillar(t, k).contract_sequence]
        assert _contract_all(t, steps) == contract_all_by_replay(t, steps)[0]


def test_every_small_class_under_relabelling():
    rng = random.Random(11)
    assert_matches_previous(Tree(1, ()), rng)
    for m in range(1, 11):
        for t in free_trees(m):
            perm = list(range(t.vertex_count))
            rng.shuffle(perm)
            for u in (t, relabeled(t, perm)):
                assert_matches_previous(u, rng, exhaustive=m <= 6)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree_strategy(min_vertices=1, max_vertices=60), st.integers(0, 2**16))
def test_random_trees(t, seed):
    assert_matches_previous(t, random.Random(seed), exhaustive=t.vertex_count <= 12)


@pytest.mark.parametrize("shape", ["pruefer-1", "pruefer-2", "path"])
def test_thousand_edge_trees(shape):
    n = 1001
    if shape == "path":
        t = path_tree(n)
    else:
        rng = random.Random(shape)
        t = tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2)), n)
    assert_matches_previous(t, random.Random(shape), exhaustive=False)
    # the family's own structure again, handed its cell tree
    family = tree_to_segments(t, 0)
    assert_structure_matches(family.pairs, family._tree)


# ----------------------------------------------------------------------
# zero leaves: the heaviest path's passes run over the rest of the tree
# ----------------------------------------------------------------------


def zero_weightings(t: Tree, rng: random.Random) -> dict:
    """Weightings of small values, so ties abound, by where the zeros lie."""
    n = t.vertex_count
    leaf = [d <= 1 for d in t.degrees]
    inner = [d - 1 for d in t.degrees]
    return {
        "zero on leaves only": [0 if leaf[v] else rng.randrange(1, 3) for v in range(n)],
        "zero on inner vertices only": [
            rng.randrange(1, 3) if leaf[v] else rng.randrange(2) for v in range(n)
        ],
        "all zero": [0] * n,
        "none zero": [rng.randrange(1, 3) for _ in range(n)],
        "positive leaves": [rng.randrange(1, 3) if leaf[v] else inner[v] for v in range(n)],
    }


def assert_heaviest_paths_match(t: Tree, rng: random.Random) -> None:
    for name, weight in zero_weightings(t, rng).items():
        assert _heaviest_path(t, weight) == heaviest_path_by_all_pairs(t, weight), name
    if t.m:
        assert max_caterpillar(t) == max_caterpillar_by_all_pairs(t)


def test_zero_weights_on_every_small_class_under_relabelling():
    rng = random.Random(25)
    assert_heaviest_paths_match(Tree(1, ()), rng)
    for m in range(1, 11):
        for t in free_trees(m):
            perm = list(range(t.vertex_count))
            rng.shuffle(perm)
            assert_heaviest_paths_match(t, rng)
            assert_heaviest_paths_match(relabeled(t, perm), rng)


ZERO_WEIGHT_SHAPES = {
    "single edge": lambda: Tree(2, ((0, 1),)),
    "star, centre 0": lambda: star_tree(7),
    "star, centre 6": lambda: relabeled(star_tree(7), [6, 0, 1, 2, 3, 4, 5]),
    "path": lambda: path_tree(9),
    "caterpillar": lambda: caterpillar_tree(2, 0, 3, 1, 0, 2),
    "caterpillar, labels reversed": lambda: relabeled(
        caterpillar_tree(3, 1, 3), list(range(9, -1, -1))
    ),
    "spider": lambda: spider_tree(3, 1, 2, 3),
    "extremal spider": lambda: extremal_spider(13),
    "branch star 6": lambda: extremal_branch_star(6),
    "branch star 13": lambda: extremal_branch_star(13),
    "adversarial": lambda: workloads().adversarial_tree(300)[0],
    "relabelled twin": lambda: relabeled_twin(300, seed=25),
}


@pytest.mark.parametrize("name", list(ZERO_WEIGHT_SHAPES))
def test_zero_weights_on_named_shapes(name):
    assert_heaviest_paths_match(ZERO_WEIGHT_SHAPES[name](), random.Random(name))


@settings(max_examples=60, deadline=None)
@given(tree_strategy(min_vertices=1, max_vertices=40), st.integers(0, 2**16))
def test_zero_weights_on_random_trees(t, seed):
    assert_heaviest_paths_match(t, random.Random(seed))


# ----------------------------------------------------------------------
# malformed input: the same exception, message and index
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, ()),
        (3, ((0, 1),)),
        (3, ((0, 1), (1, 0))),  # duplicate, reversed
        (4, ((0, 1), (1, 2), (0, 1))),  # duplicate
        (4, ((0, 1), (1, 2), (2, 0))),  # cycle
        (5, ((0, 1), (1, 2), (2, 0), (0, 1))),  # cycle, then a duplicate
        (5, ((0, 1), (1, 2), (2, 1), (2, 0))),  # duplicate, then a cycle
        (3, ((0, 3), (1, 2))),  # out of range
        (3, ((0, 1), (-1, 2))),  # negative
        (3, ((1, 1), (0, 2))),  # self-loop
        (3, ((0, 1), (5, 5))),  # out of range and a loop
        (4, ((0, 1), (2, 3), (3, 2))),
    ],
)
def test_malformed_edge_lists(n, edges):
    assert_tree_matches(n, edges)


def with_one_fault(edges: tuple, at: int, kind: str) -> tuple:
    """``edges`` with the edge at ``at`` replaced by a faulty one: a copy of
    another edge, a chord of a path of two other edges, a self-loop, or an
    id past the last vertex."""
    n = len(edges) + 1
    u, v = edges[at]
    if kind == "duplicate":
        bad = edges[at - 1][::-1]
    elif kind == "chord":
        nbrs: dict = {}
        for i, (a, b) in enumerate(edges):
            if i != at:
                nbrs.setdefault(a, []).append(b)
                nbrs.setdefault(b, []).append(a)
        a, c = next(ws[:2] for ws in nbrs.values() if len(ws) > 1)
        bad = (a, c)
    elif kind == "loop":
        bad = (v, v)
    else:
        bad = (u, n)
    return edges[:at] + (bad,) + edges[at + 1 :]


BUILT_TREES = {
    "extremal spider": lambda: extremal_spider(40),
    "spider by diameter and leaves": lambda: build_spider(7, 5),
    "branch star": lambda: extremal_branch_star(13),
    "beautiful branch": lambda: beautiful_tree(9),
    "cell tree": lambda: segments_to_tree(tree_to_segments(relabeled_twin(300, seed=4), 0))[0],
    "contracted tree": lambda: contract_to_caterpillar(extremal_spider(40), 30).kept_caterpillar,
    "parsed file": lambda: parse_tree(format_tree(extremal_branch_star(8))),
}


@pytest.mark.parametrize("name", list(BUILT_TREES))
def test_built_trees_parent_first_and_reversed(name):
    # these trees number each vertex after its parent, so their edges list
    # it after its parent too, and the union-find hangs it right under its
    # component's root; reversed, the components grow from the leaves
    edges = BUILT_TREES[name]().edges
    n = len(edges) + 1
    rng = random.Random(name)
    for order in (edges, edges[::-1]):
        assert_tree_matches(n, order)
        for kind in ("duplicate", "chord", "loop", "range"):
            assert_tree_matches(n, with_one_fault(order, rng.randrange(1, n - 1), kind))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(-1, n), st.integers(-1, n)),
                min_size=n - 1,
                max_size=n - 1,
            ),
        )
    )
)
def test_random_edge_lists(case):
    n, edges = case
    assert_tree_matches(n, tuple(edges))


@settings(max_examples=60, deadline=None)
@given(tree_strategy(min_vertices=2, max_vertices=14), st.data())
def test_arbitrary_paths_report_the_same_issues(t, data):
    family = tree_to_segments(t, 0)
    limit = 2 * family.n
    k = data.draw(st.integers(1, family.n + 1))
    labels = st.integers(-2, limit + 2)
    endpoints = data.draw(st.lists(labels, min_size=2 * k, max_size=2 * k))
    assert_reports_match(family, endpoints, all_pairs=True)
