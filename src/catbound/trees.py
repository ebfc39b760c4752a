"""Immutable trees on dense integer vertex ids, their text format, and the
kernels that root them.

A vertex id obeys the rule every count obeys (``_check_count``): an ``int``
or an int subclass, never a ``bool`` or a float.  ``diameter_path`` and the
induced caterpillar (``induced.max_caterpillar``) are one problem, a
heaviest path under non-negative vertex weights (``_heaviest_path``).

The text interchange format is one edge per line: two base-10 vertex ids,
ASCII digits after at most one ``-``, separated by spaces and tabs.  Only
``\n`` ends a line, and one ``\r`` before it is dropped, so CRLF text
reads the same.  Lines of spaces and tabs only, and lines whose first other
character is ``#``, are ignored; a comment runs to the end of its line,
whatever it holds.  ``parse_tree`` only reads this format: ``Tree`` judges
the edges it reads, and its message names the line of the edge at fault.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Callable


class TreeParseError(ValueError):
    """Raised by parse_tree for malformed input; message carries a line number
    when one applies."""


class _EdgeError(ValueError):
    """A Tree validation failure caused by one edge; ``index`` is that edge's
    position in the edges as given."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def _check_integer_ids(edges: Iterable[Any]) -> None:
    """Raise ``_EdgeError`` at the first edge that is not a pair of vertex
    ids, each judged by ``_check_count``, and ``ValueError`` when ``edges``
    is not iterable.  ``Tree`` validation and ``ContractionPlan.apply``
    call it only once a fault has shown, so valid input pays no per-edge
    type or length test."""
    if not isinstance(edges, Iterable):
        raise ValueError(
            f"edges must be a sequence of vertex id pairs, got {edges!r}"
        ) from None  # one error, not a chain on the TypeError a caller is handling
    for index, edge in enumerate(edges):
        try:
            u, v = edge
            _check_count(u, "id"), _check_count(v, "id")
        except (TypeError, ValueError):
            raise _EdgeError(
                index, f"edge {edge!r} is not a pair of integer vertex ids"
            ) from None


def _check_count(
    value: Any, name: str, low: int | None = None, high: int | None = None
) -> None:
    """Raise ``ValueError`` naming the count ``name`` unless ``value`` is an
    ``int`` or an int subclass, other than a ``bool``, and lies in
    ``low``..``high``, each bound None for none.  Every count the package
    takes is checked here, so each refusal of one reads the same."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = {0: "non-negative", 1: "positive"}.get(low, f"at least {low}")
        raise ValueError(f"{name} must be {bound}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}")


def _check_counts(values: Any, name: str) -> tuple[int, ...]:
    """``values`` as a tuple, once ``_check_count`` finds each item an
    integer called ``name``; anything but a sequence raises ``ValueError``
    naming it ``name`` + "s".  A tuple or a list of plain ints passes on one
    look at its types."""
    if type(values) not in (tuple, list) and not isinstance(values, Sequence):
        raise ValueError(f"{name}s must be a sequence of integers, got {values!r}")
    if not {int}.issuperset(map(type, values)):
        for x in values:
            _check_count(x, name)
    return tuple(values)


class _lazy:
    """An attribute computed on first access.

    The value goes into the instance ``__dict__``, which shadows this
    non-data descriptor from then on.  That is what the standard library's
    ``cached_property`` does, less the lock it takes on every first access
    before Python 3.12.  Only for immutable values: two threads racing on a
    first access each compute the value and store equal ones.
    """

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# ======================================================================
# core types
# ======================================================================


@dataclass(frozen=True)
class Tree:
    """An unrooted tree on vertices 0..vertex_count-1.

    Edges are normalized to (min, max) pairs in sorted order, so two equal
    trees compare and hash equal.  Construction validates shape: exactly
    vertex_count - 1 edges, ids in range, no self-loops or duplicates, and
    no cycles (which at n-1 edges forces connectivity), in one union-find
    pass that links the larger end's root under the smaller end's, so a
    tree numbered parent first hangs each vertex under its root at once.
    Edges are checked in the order given; the first offending one is reported.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        _check_count(n, "vertex_count")
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        try:
            try:
                norm = [(u, v) if u <= v else (v, u) for u, v in self.edges]
            except ValueError:  # an edge that is not a pair
                _check_integer_ids(self.edges)
                raise
            if len(norm) != n - 1:
                raise ValueError(
                    f"{n} vertices need {n - 1} edges, got {len(norm)}"
                )
            parent = list(range(n))  # union-find forest, halved on each walk
            for index, (u, v) in enumerate(norm):
                if u < 0 or v >= n:  # u <= v
                    raise _EdgeError(
                        index, f"edge ({u}, {v}) out of range 0..{n - 1}"
                    )
                if u == v:
                    raise _EdgeError(index, f"self-loop at vertex {u}")
                ru = u
                while parent[ru] != ru:
                    parent[ru] = ru = parent[parent[ru]]
                rv = v
                while parent[rv] != rv:
                    parent[rv] = rv = parent[parent[rv]]
                if ru == rv:
                    # an earlier copy of this edge joined its ends, so a
                    # duplicate always lands here
                    if (u, v) in norm[:index]:
                        raise _EdgeError(index, f"duplicate edge ({u}, {v})")
                    raise _EdgeError(index, f"edge ({u}, {v}) closes a cycle")
                parent[rv] = ru
        except _EdgeError as exc:  # a bool id at or before it is the first fault
            _check_integer_ids(islice(self.edges, exc.index + 1))
            raise
        except TypeError:
            _check_integer_ids(self.edges)
            raise
        norm.sort()
        # ids are in range, so only ids 0 and 1 can be bools, and the edges
        # that touch them come first
        for u, v in norm:
            if u > 1:
                break
            if type(u) is bool or type(v) is bool:
                _check_integer_ids(self.edges)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    @_lazy
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # edges are sorted, so vertex x first meets its smaller neighbours
        # w in edges (w, x), ascending, then its larger ones in edges
        # (x, w), ascending: every list comes out in ascending order
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @_lazy
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    @_lazy
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


# ======================================================================
# text format
# ======================================================================


def _fault_line(text: str, edge: int = -1) -> int:
    """Raise TreeParseError at the first line of ``text`` that is not two
    vertex ids, a blank or a comment, or else return the line of edge
    ``edge`` (from 0); AssertionError when there is neither."""
    rows = text.split("\n")
    if "\r" in text:
        rows = [row[:-1] if row.endswith("\r") else row for row in rows]
    for lineno, raw in enumerate(rows, 1):
        parts = [part for part in raw.replace("\t", " ").split(" ") if part]
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            got = raw.strip(" \t")
            raise TreeParseError(f"line {lineno}: expected two vertex ids, got {got!r}")
        u, v = parts
        try:
            # int() alone would also read "+1", "1_0" and non-ASCII digits
            if not (
                u.isascii()
                and v.isascii()
                and u.removeprefix("-").isdigit()
                and v.removeprefix("-").isdigit()
            ):
                raise ValueError
            # int() refuses an id of more digits than its conversion limit
            int(u), int(v)
        except ValueError:
            raise TreeParseError(
                f"line {lineno}: vertex ids must be base-10 integers"
            ) from None
        if edge == 0:
            return lineno
        edge -= 1
    raise AssertionError("parse_tree refused a text with no faulty line")


def parse_tree(text: str) -> Tree:
    """Parse the edge-list text format into a Tree on len(edges) + 1 vertices.

    Raises TreeParseError for a line that is not two vertex ids, and for
    text with no edge.  Every other error is ``Tree``'s, raised as a
    TreeParseError that names the line of the edge at fault.

    One ``split()`` reads every valid text once it passes one of two
    checks: text in ``format_tree``'s shape (ASCII digits, one space and
    two ids on every line, a line end last), or text where one search finds
    no line but edges, blanks and comments, whose comment lines are then
    blanked.  A 2,670-edge file in that shape took 3.5 ms through the
    first check and 4.4 ms through the second alone (2-core host), so both
    stay.  No match spans lines, so the matcher's state does not grow with
    the text.  Only a faulty text is walked line by line, by
    ``_fault_line``, to name its fault.
    """
    if (
        not re.fullmatch(r"[0-9 \n]*\n", text)
        or re.search(" [0-9]* ", text)
        or len(ids := text.split()) != 2 * text.count("\n")
    ):
        if re.search(
            r"^(?![ \t]*(?:-?[0-9]+[ \t]+-?[0-9]+[ \t]*|#.*)?\r?$)", text, re.M
        ):
            _fault_line(text)
        body = re.sub(r"^[ \t]*#.*$", "", text, flags=re.M) if "#" in text else text
        ids = body.split()
        if not ids:
            raise TreeParseError("no edges found")
    try:
        numbers = map(int, ids)
        pairs = tuple(zip(numbers, numbers))
    except ValueError:  # an id past the digit limit
        _fault_line(text)
    try:
        return Tree(len(pairs) + 1, pairs)
    except _EdgeError as exc:
        raise TreeParseError(f"line {_fault_line(text, exc.index)}: {exc}") from None


def format_tree(t: Tree) -> str:
    """Inverse of parse_tree: one 'u v' line per edge, sorted."""
    return "%s %s\n" * t.m % tuple(chain.from_iterable(t.edges))


# ======================================================================
# basic measurements
# ======================================================================


def _rooted(
    t: Tree, root: int, parent: list[int] | None = None
) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``root``, neighbours taken in ascending
    order, and each vertex's parent (-1 at the root), written over
    ``parent``, whose entries of -2 mark the vertices to visit (default:
    all).  Every parent comes before its children, so a reversed order
    visits children first.

    Contraction plans and the tree-to-segments labelling keep their own
    depth-first walks: their visiting order shows in their output."""
    if parent is None:
        parent = [-2] * t.vertex_count
    parent[root] = -1
    order = [root]
    adjacency = t.adjacency
    for u in order:
        for w in adjacency[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
    return order, parent


def _heaviest_path(t: Tree, weight: list[int]) -> tuple[int, ...]:
    """The path of largest total weight, for non-negative vertex weights;
    among those, the one whose endpoint pair is lexicographically smallest.

    The passes run over the core: every vertex but the leaves of weight 0,
    which are marked visited before the first rooting (a tree of two
    vertices keeps both).  The core is a subtree, rooted at its first
    vertex.  A zero leaf z adds nothing to a path through its neighbour c,
    so a path from z to another vertex weighs what the path from c does,
    and z ends an optimal path exactly when c does.

    One rooting serves two passes.  Up the tree, down[v] is the best value
    of a path going down from v.  Back down, up[v] is the best value of a
    path from v's parent that avoids v's subtree (rerooting): the parent's
    weight plus the best of its own up value and its other children's down
    values.  Weights are non-negative, so a path ending at v is best
    extended as far as it goes: v's weight plus the best of its children's
    down values and its up value.

    The smallest vertex ``a`` at which an optimal path ends is the smallest
    endpoint of any optimal path, since every partner of ``a`` is itself
    such an end.  The pass back down finds the smallest core end; the first
    zero leaf below it whose neighbour is an end, if any, is ``a``
    instead.  ``a`` alone is the path when its weight is optimal.  Else a
    second rooting, at ``a`` or its neighbour, sums each path from ``a`` as
    it goes and takes ``b``, the smallest of the core vertices whose path
    from ``a`` is optimal and of their zero leaves other than ``a``.  So
    (a, b) is the pair a scan of all pairs in lexicographic order would
    stop at.
    """
    n = t.vertex_count
    adjacency = t.adjacency
    marked = n > 2 and not all(weight)  # some weight is 0
    if marked:  # -3 marks a zero leaf, -2 a vertex not yet visited
        unseen = [-3 if x == 0 and d == 1 else -2 for x, d in zip(weight, t.degrees)]
    else:
        unseen = [-2] * n
    order, parent = _rooted(t, unseen.index(-2), unseen.copy())

    top1 = [0] * n  # best down value among v's children
    top2 = [0] * n  # second best, from a different child
    arg1 = [-1] * n  # the child holding top1
    best = 0
    for u in reversed(order):
        d = weight[u] + top1[u]  # down[u]
        if d + top2[u] > best:
            best = d + top2[u]
        p = parent[u]
        if p >= 0:
            if d > top1[p]:
                top2[p] = top1[p]
                top1[p] = d
                arg1[p] = u
            elif d > top2[p]:
                top2[p] = d
    up = [0] * n
    a = n
    for u in order:
        end = top1[u]
        p = parent[u]
        if p >= 0:
            sibling = top2[p] if arg1[p] == u else top1[p]
            above = up[p]
            x = weight[p] + (above if above > sibling else sibling)
            up[u] = x
            if x > end:
                end = x
        if u < a and weight[u] + end == best:
            a = u
    for z in range(a if marked else 0):  # a smaller zero leaf beside an end
        if parent[z] == -3:
            c = adjacency[z][0]
            if weight[c] + max(top1[c], up[c]) == best:
                a = z
                break
    if weight[a] == best:
        return (a,)

    # root at a's core vertex, keeping the weight of each path from a
    start = a if parent[a] != -3 else adjacency[a][0]
    parent = unseen
    parent[start] = -1
    acc = [0] * n
    acc[start] = weight[start]  # a zero leaf a adds nothing
    b = start if acc[start] == best else n
    ends = [b] if marked and b < n else []  # core ends whose zero leaves may be b
    order = [start]
    for u in order:
        x = acc[u]
        for w in adjacency[u]:
            if parent[w] == -2:
                parent[w] = u
                y = acc[w] = x + weight[w]
                if y == best:
                    if w < b:
                        b = w
                    if marked:
                        ends.append(w)
                order.append(w)
    for y in ends:  # ascending neighbours: the first zero leaf is the least
        for z in adjacency[y]:
            if z >= b:
                break
            if parent[z] == -3 and z != a:
                b = z
                break
    path = [b]
    if parent[b] == -3:  # a zero leaf hangs off its core neighbour
        b = adjacency[b][0]
        path.append(b)
    while b != start:
        b = parent[b]
        path.append(b)
    if start != a:
        path.append(a)
    path.reverse()
    return tuple(path)


def diameter_path(t: Tree) -> tuple[int, ...]:
    """A longest path, endpoint pair lexicographically smallest among all
    longest paths: the heaviest path when every vertex weighs 1."""
    return _heaviest_path(t, [1] * t.vertex_count)


def diameter(t: Tree) -> int:
    """Edge count of a longest path.  A breadth-first order from any vertex
    ends at an end of one, so a second order, from there, ends at its other."""
    order, _ = _rooted(t, 0)
    order, parent = _rooted(t, order[-1])
    v, length = order[-1], 0
    while parent[v] >= 0:
        v, length = parent[v], length + 1
    return length


# ======================================================================
# shape predicates
# ======================================================================


def _spine(t: Tree) -> tuple[int, ...] | None:
    """A caterpillar's spine, its non-leaf vertices in path order, or None
    when ``t`` is no caterpillar.

    The non-leaf vertices of a tree span a subtree, and ``t`` is a
    caterpillar when they form a path, that is when no vertex has three
    non-leaf neighbours.  The walk leaves vertex 0, or its neighbour when
    0 is a leaf, by at most two of its non-leaf neighbours and goes on
    through non-leaf vertices as far as each way leads; it covers every
    non-leaf vertex exactly when they form a path.

    The spine starts at the end whose group, the end and its leaf
    neighbours, holds the smaller vertex: a group holds the vertices where
    a caterpillar's heaviest paths end on that side, so the spine reads as
    ``induced.max_caterpillar``'s does.  A tree of two vertices gives (0,).
    """
    if t.vertex_count < 3:
        return (0,)
    degrees = t.degrees
    adjacency = t.adjacency
    start = 0 if degrees[0] > 1 else adjacency[0][0]
    spine = [start]
    for way in [w for w in adjacency[start] if degrees[w] > 1][:2]:
        spine.reverse()  # the first way's end comes first
        prev, v = start, way
        while v >= 0:
            spine.append(v)
            for w in adjacency[v]:
                if w != prev and degrees[w] > 1:
                    prev, v = v, w
                    break
            else:
                v = -1
    if len(spine) != t.vertex_count - degrees.count(1):
        return None
    a, b = spine[0], spine[-1]
    if a != b:
        # an end has one non-leaf neighbour, so its smallest leaf
        # neighbour is one of its two smallest neighbours
        ws = adjacency[a]
        low_a = min(a, ws[0] if degrees[ws[0]] == 1 else ws[1])
        ws = adjacency[b]
        if min(b, ws[0] if degrees[ws[0]] == 1 else ws[1]) < low_a:
            spine.reverse()
    return tuple(spine)


def is_caterpillar(t: Tree) -> tuple[bool, tuple[int, ...] | None]:
    """Whether removing all leaves yields a (possibly empty) path; returns the
    spine (the non-leaf vertices in path order, from the smaller end) as
    witness."""
    if t.vertex_count == 1:
        return True, (0,)
    if t.vertex_count == 2:
        return True, ()
    spine = _spine(t)
    if spine is None:
        return False, None
    return True, spine if spine[0] <= spine[-1] else spine[::-1]


def is_spider(t: Tree) -> bool:
    """At most one vertex of degree greater than two."""
    return sum(1 for d in t.degrees if d > 2) <= 1


# ======================================================================
# canonical codes
# ======================================================================


def centroids(t: Tree) -> tuple[int, ...]:
    """The one or two vertices minimizing the largest component left by their
    removal.

    Rooted at 0, a vertex with a child subtree of more than n/2 vertices is
    no centroid, and neither is anything outside that subtree, so a walk
    down into such subtrees stops at the first centroid.  Its parent side
    holds fewer than n/2 vertices, since the walk entered a subtree of more,
    so a second centroid is a child whose subtree holds exactly n/2."""
    n = t.vertex_count
    order, parent = _rooted(t, 0)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    adjacency = t.adjacency
    v, other = 0, -1
    descended = True
    while descended:
        descended = False
        for w in adjacency[v]:
            if parent[w] == v:
                twice = 2 * size[w]
                if twice > n:
                    v = w
                    descended = True
                    break
                if twice == n:
                    other = w
    return (v,) if other < 0 else (min(v, other), max(v, other))


def _ahu_code(t: Tree, root: int) -> bytes:
    """The rooted code, built in one pass that visits children first: each
    vertex sorts the codes its children passed up and passes its own to its
    parent, the root to a spare slot n."""
    n = t.vertex_count
    order, parent = _rooted(t, root)
    parent[root] = n
    passed: list[list[bytes]] = [[] for _ in range(n + 1)]
    for v in reversed(order):
        codes = passed[v]
        codes.sort()
        passed[parent[v]].append(b"(" + b"".join(codes) + b")")
    return passed[n][0]


def canonical_code(t: Tree) -> str:
    """Centroid-rooted canonical code, a nested-parenthesis string; equal
    exactly for isomorphic trees.  A bicentroidal tree takes the smaller of
    its two rooted codes.  Every subtree's code is kept as bytes, so the
    cost is O(n * height)."""
    return min(_ahu_code(t, c) for c in centroids(t)).decode("ascii")
