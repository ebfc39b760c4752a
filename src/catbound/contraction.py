"""Caterpillar bounds under edge contraction.

The largest caterpillar a tree contracts to has ``leaves + diameter - 2``
edges; spiders with balanced legs are the extremal trees, and
``contraction_guarantee(m)`` is the size every m-edge tree reaches.

The score needs only the diameter's length (``trees.diameter``).  Every
plan, ``contract_to_caterpillar``'s and ``duality.among_path``'s, comes
from ``_plan``, the one reader of the tie-broken diameter path: ``_steps``
lists the contracted edges, ``_contract_all`` replays them once, and one
check accepts the result: a largest induced caterpillar of it has every
edge.  The contracted tree's witness comes from its spine walk
(``trees._spine``): every vertex, the spine, and every edge, and a walk
that finds no spine fails the check.  A caterpillar kept whole contracts
nothing, so its plan skips the diameter path; its witness stays
``induced.max_caterpillar``'s, so that the census compares that dynamic
programme with its exhaustive search on every caterpillar class.  Plans
are O(n) to build and to apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Iterable

from .induced import CaterpillarWitness, max_caterpillar
from .trees import (
    Tree,
    _check_count,
    _check_integer_ids,
    _EdgeError,
    _spine,
    diameter,
    diameter_path,
)


# ======================================================================
# the tree functional: leaves + diameter - 2
# ======================================================================


def max_caterpillar_by_contraction(t: Tree) -> int:
    """Largest caterpillar size reachable from ``t`` by edge contractions:
    its leaf count plus its diameter, less 2."""
    if t.m < 1:
        raise ValueError("needs at least one edge")
    return t.degrees.count(1) + diameter(t) - 2


# ======================================================================
# contraction plans
# ======================================================================


@dataclass(frozen=True)
class ContractionStep:
    """One contraction: the edge in the source tree's labeling."""

    edge: tuple[int, int]


def _contract_all(t: Tree, edges: Iterable[tuple[int, int]]) -> Tree:
    """Contract ``edges`` of ``t`` in order, in one union-find pass.

    Each merged class takes the rank of its smallest original id among all
    classes, which is what a replay of single contractions gives: each one
    keeps the smaller of two current ids and shifts the higher ones down, so
    current ids always rank the classes by smallest member (the tests'
    reference is ``contract_edge`` in ``tests/helpers.py``).
    Raises ValueError on a step that is not a pair of ends of an edge of
    ``t``, or on an edge whose ends are already merged.
    """
    parent = list(range(t.vertex_count))  # union-find, halved on each walk
    edge_set = t.edge_set
    for edge in edges:
        try:
            u, v = edge
        except ValueError:  # not a pair, so not an edge
            u = v = -1
        if u > v:
            u, v = v, u
        if (u, v) not in edge_set:
            raise ValueError(f"{edge} is not an edge of the source tree")
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            raise ValueError(f"edge {edge} already collapsed")
        if u < v:
            parent[v] = u
        else:
            parent[u] = v
    # roots are class minima and every link leads to a smaller id of the
    # same class, so visiting ids in order numbers the classes and finds
    # each link's class label already set
    label = [-1] * t.vertex_count
    count = 0
    for v, r in enumerate(parent):
        if r == v:
            label[v] = count
            count += 1
        else:
            label[v] = label[r]
    return Tree(
        count,
        tuple(
            (label[u], label[v]) for u, v in t.edges if label[u] != label[v]
        ),
    )


@dataclass(frozen=True)
class ContractionPlan:
    """An ordered, replayable recipe turning a source tree into a caterpillar
    with ``target_size`` edges."""

    target_size: int
    contract_sequence: tuple[ContractionStep, ...]
    kept_caterpillar: Tree

    def apply(self, source: Tree) -> Tree:
        """Replay the plan against ``source`` and return the final tree.
        Raises ValueError on a step that is not a pair of vertex ids, each
        judged by ``_check_count``, on a step ``_contract_all`` refuses, or
        when the result differs from ``kept_caterpillar``."""
        edges = [step.edge for step in self.contract_sequence]
        try:  # plain int ids pass on one look at their types
            plain = {int}.issuperset(map(type, chain.from_iterable(edges)))
        except TypeError:  # a step that is not iterable
            plain = False
        if not plain:
            try:
                _check_integer_ids(edges)
            except _EdgeError as exc:
                raise ValueError(
                    f"{edges[exc.index]} is not an edge of the source tree"
                ) from None
        current = _contract_all(source, edges)
        if current != self.kept_caterpillar:
            raise ValueError("replay did not reproduce kept_caterpillar")
        return current


def contract_to_caterpillar(t: Tree, k: int) -> ContractionPlan:
    """A plan contracting ``t`` to a caterpillar with exactly ``k`` edges,
    for any 1 <= k <= max_caterpillar_by_contraction(t).

    Keeps every leaf edge and the edges of the deterministic diameter path;
    the rest is contracted in DFS order from the diameter path's first
    vertex.  Any surplus (when k is below the maximum) is then contracted
    away in sorted-edge order; caterpillars are closed under contraction, so
    the order does not affect validity, only reproducibility.
    """
    _check_count(k, "k")
    return _plan(t, k)[0]


def _plan(
    t: Tree, k: int | None = None
) -> tuple[ContractionPlan, CaterpillarWitness]:
    """``contract_to_caterpillar(t, k)`` (k defaults to the score) and a
    largest induced caterpillar of the tree it reaches, which has every
    edge of that tree: a tree is a caterpillar exactly when it has such a
    witness, so this is the plan's one check.

    Only a caterpillar scores its edge count, and kept whole it contracts
    nothing, so when ``k`` is ``t.m`` or not given, a tree with a spine
    (``trees._spine``) skips the diameter path, and its witness is
    ``max_caterpillar``'s.  Any other tree or target takes the diameter
    path, and the tree it contracts to is checked by its spine walk, whose
    witness holds every vertex."""
    if t.m < 1:
        raise ValueError("needs at least one edge")
    spine = _spine(t) if k is None or k == t.m else None
    if spine is not None:
        if k is None:
            k = t.m
        current, steps = t, []
        witness = max_caterpillar(t)
    else:
        dpath = diameter_path(t)
        score = t.degrees.count(1) + len(dpath) - 3  # leaves + diameter - 2
        if k is None:
            k = score
        steps = _steps(t, k, score, dpath)
        current = _contract_all(t, steps)
        spine = _spine(current)
        witness = CaterpillarWitness(
            frozenset(range(current.vertex_count)), spine, current.m
        )
    if spine is None or not witness.size == k == current.m:
        raise AssertionError("contraction plan failed to reach a caterpillar")
    plan = ContractionPlan(k, tuple(map(ContractionStep, steps)), current)
    return plan, witness


def _steps(t: Tree, k: int, cap: int, dpath: tuple[int, ...]) -> list[tuple[int, int]]:
    """The edges ``contract_to_caterpillar(t, k)`` contracts, in order, from
    ``t``'s score ``cap`` and diameter path.

    An edge is kept when it ends at a leaf or joins two vertices of the
    path, which in a tree are neighbours on it; the other edges are
    contracted in DFS order.  The kept edges number ``cap``, and a
    surplus is the first ``cap - k`` of them in ``t.edges``, sorted order."""
    if not 1 <= k <= cap:
        raise ValueError(f"target size {k} outside 1..{cap}")
    degrees = t.degrees
    on_path = [False] * t.vertex_count
    for v in dpath:
        on_path[v] = True

    # DFS from the diameter path's first vertex, ascending neighbors
    contracted: list[tuple[int, int]] = []
    seen = [False] * t.vertex_count
    seen[dpath[0]] = True
    stack = [dpath[0]]
    adjacency = t.adjacency
    while stack:
        u = stack.pop()
        for w in reversed(adjacency[u]):
            if not seen[w]:
                seen[w] = True
                if degrees[w] > 1 and degrees[u] > 1:
                    if not (on_path[u] and on_path[w]):
                        contracted.append((u, w) if u < w else (w, u))
                stack.append(w)
    if k < cap:
        kept = [
            (u, v)
            for u, v in t.edges
            if degrees[u] == 1 or degrees[v] == 1 or on_path[u] and on_path[v]
        ]
        contracted += kept[: cap - k]
    return contracted


# ======================================================================
# extremal sizes and constructions
# ======================================================================


def _check_spider(d: int, l: int) -> None:
    """Refuse a diameter ``d`` or leaf count ``l`` that no spider has."""
    _check_count(d, "d")
    _check_count(l, "l")
    if d < 2 or l < 2:
        raise ValueError("need diameter >= 2 and >= 2 leaves")


def max_edges_diameter_leaves(d: int, l: int) -> int:
    """Largest edge count of a tree with diameter ``d`` and ``l`` leaves:
    d*l/2 for even d, (d-1)*l/2 + 1 for odd d."""
    _check_spider(d, l)
    if d % 2 == 0:
        return d * l // 2
    return (d - 1) * l // 2 + 1


def build_spider(d: int, l: int) -> Tree:
    """The extremal spider with diameter ``d`` and ``l`` leaves: center 0,
    legs laid out longest first, vertices numbered leg by leg.

    Even d: l legs of length d/2.  Odd d: one leg of length (d+1)/2 and
    l-1 legs of length (d-1)/2.
    """
    _check_spider(d, l)
    if d % 2 == 0:
        lengths = [d // 2] * l
    else:
        lengths = [(d + 1) // 2] + [(d - 1) // 2] * (l - 1)
    edges: list[tuple[int, int]] = []
    nxt = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(nxt, tuple(edges))


def extremal_size_contraction(k: int) -> int:
    """Largest edge count m such that some m-edge tree admits no contraction
    to a caterpillar with more than k edges.

    k % 4 == 0: k(k+4)/8; k % 4 == 2: (k+2)^2/8; odd k: (k+1)(k+3)/8.
    """
    _check_count(k, "k", 0)
    if k % 2 == 1:
        return (k + 1) * (k + 3) // 8
    if k % 4 == 0:
        return k * (k + 4) // 8
    return (k + 2) ** 2 // 8


def extremal_spider(k: int) -> Tree:
    """The spider of extremal_size_contraction(k) edges whose contraction
    maximum is exactly k.  k = 1 is the single edge; otherwise an even
    diameter d and leaf count l with d + l - 2 = k are balanced so that
    d*l/2 is maximal."""
    _check_count(k, "k", 1)
    if k == 1:
        return Tree(2, ((0, 1),))
    if k % 4 == 0:
        d, l = k // 2, (k + 4) // 2
    elif k % 4 == 2:
        d, l = (k + 2) // 2, (k + 2) // 2
    elif k % 4 == 1:
        d, l = (k + 3) // 2, (k + 1) // 2
    else:  # k % 4 == 3
        d, l = (k + 1) // 2, (k + 3) // 2
    return build_spider(d, l)


def contraction_guarantee(m: int) -> int:
    """The caterpillar size every tree with m edges can be contracted to:
    ceil(sqrt(8m) - 2), evaluated exactly with integer square roots."""
    _check_count(m, "m", 1)
    r = isqrt(8 * m)
    return r - 2 if r * r == 8 * m else r - 1
