"""Builders and hypothesis strategies shared across test modules."""

import itertools

import hypothesis.strategies as st

from catbound import Tree, canonical_code, tree_from_pruefer


def path_tree(n: int) -> Tree:
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star_tree(n: int) -> Tree:
    return Tree(n, tuple((0, i) for i in range(1, n)))


def spider_tree(*legs: int) -> Tree:
    """Center 0 with the given leg lengths."""
    edges = []
    nxt = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(nxt, tuple(edges))


def free_trees_via_pruefer(edge_count: int):
    """Every isomorphism class of trees with ``edge_count`` edges, found by
    decoding every Prüfer code and deduplicating by canonical code: an
    exponentially slow enumeration that shares no machinery with
    ``free_trees``."""
    if edge_count == 0:
        yield Tree(1, ())
        return
    n = edge_count + 1
    seen = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        t = tree_from_pruefer(seq, n)
        code = canonical_code(t)
        if code not in seen:
            seen.add(code)
            yield t


def relabeled(t: Tree, perm: list[int]) -> Tree:
    return Tree(t.vertex_count, tuple((perm[a], perm[b]) for a, b in t.edges))


def induced_subtree(t: Tree, keep: frozenset[int]) -> Tree:
    """The induced subgraph on ``keep``, labels compressed.  Only valid
    when the result is connected; Tree's own validation enforces that."""
    order = sorted(keep)
    rank = {v: i for i, v in enumerate(order)}
    edges = tuple(
        (rank[a], rank[b]) for a, b in t.edges if a in keep and b in keep
    )
    return Tree(len(order), edges)


@st.composite
def trees(draw, min_vertices: int = 2, max_vertices: int = 16) -> Tree:
    n = draw(st.integers(min_vertices, max_vertices))
    if n == 1:
        return Tree(1, ())
    if n == 2:
        return Tree(2, ((0, 1),))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_pruefer(tuple(code), n)


@st.composite
def permutations_of(draw, n: int):
    return draw(st.permutations(list(range(n))))
