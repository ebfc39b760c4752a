"""Duality between segment families and trees.

``n`` pairwise disjoint segments whose 2n endpoints lie in convex position
cut the convex region into n + 1 cells; the cell-adjacency graph is a tree
with one edge per segment.  Everything here is combinatorial: endpoints are
the labels 0..2n-1 in convex position, a segment is an endpoint pair, and
two segments cross exactly when their endpoint pairs interleave in cyclic
order (and share no endpoint).  Geometry enters only through
``realize_coordinates``, which places label i at (i, i*i) on a strictly
convex parabola.

The dictionary:

* tree vertex  <->  cell (outer cell is vertex 0, the cell behind each
  segment is ranked by the segment's opening label),
* tree edge    <->  segment,
* induced caterpillar in the tree  <->  alternating path compatible with
  the family (crossing no unused segment),
* caterpillar reached by contraction  <->  alternating path among the
  family (self-avoiding, unused segments may be crossed).

Each path the library builds is validated exactly once, by ``_checked``,
as it leaves its public constructor.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass

from .contraction import ContractionPlan, _plan
from .induced import CaterpillarWitness
from .trees import Tree, _check_count, _check_counts, _lazy


# ======================================================================
# families and paths
# ======================================================================


@dataclass(frozen=True)
class SegmentFamily:
    """n pairwise non-crossing segments on endpoint labels 0..2n-1.

    Pairs are normalized to (low, high) sorted by low.  Construction rejects
    anything that is not a perfect matching of the labels, which are ints (a
    bool or a float is no label), and any pair of interleaving (crossing)
    segments.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_count(self.n, "n")
        if self.n < 1:
            raise ValueError("need at least one segment")
        unmatched = "segments must perfectly match labels 0..2n-1"
        try:
            norm = tuple(sorted([(a, b) if a < b else (b, a) for a, b in self.pairs]))
        except (TypeError, ValueError):  # labels 0 and "a", or a pair (0, 1, 2)
            raise ValueError(unmatched) from None
        object.__setattr__(self, "pairs", norm)
        if len(norm) != self.n:
            raise ValueError(f"expected {self.n} segments, got {len(norm)}")
        for a, b in norm:
            if a == b:
                raise ValueError(f"degenerate segment ({a}, {b})")
        size = 2 * self.n
        partner = [-1] * size
        try:
            for a, b in norm:  # a < b
                if a < 0 or b >= size or partner[a] >= 0 or partner[b] >= 0:
                    raise ValueError(unmatched)
                partner[a], partner[b] = b, a
        except TypeError:  # a label that is not an integer
            raise ValueError(unmatched) from None
        # labels now match 0..2n-1, so only labels 0 and 1 can be bools,
        # and both lie in the first two pairs
        if bool in {type(x) for pair in norm[:2] for x in pair}:
            raise ValueError(unmatched)
        stack: list[int] = []  # opening labels of the open segments
        for x, y in enumerate(partner):
            if y > x:
                stack.append(x)
            elif stack[-1] == y:
                stack.pop()
            else:
                top = stack[-1]
                raise ValueError(
                    f"segments ({y}, {x}) and ({top}, {partner[top]}) cross"
                )
        # kept like ``_cell_tree``: not a field, so ==, hash and repr ignore it
        self.__dict__["_partner"] = partner

    @_lazy
    def _tree(self) -> Tree:
        return _structure(self.pairs, self.__dict__.get("_cell_tree"))


@dataclass(frozen=True)
class AlternatingPath:
    """A polygonal chain e0, e1, ..., e_{2k-1} over endpoint labels whose
    edges alternate family segments (even positions) and connectors.  The
    endpoints, a sequence of integers, are kept as a tuple."""

    endpoints: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        _check_count(self.k, "k")
        object.__setattr__(self, "endpoints", _check_counts(self.endpoints, "endpoint"))
        if self.k < 1 or len(self.endpoints) != 2 * self.k:
            raise ValueError("endpoint count must be twice the segment count")

    def edges(self) -> list[tuple[int, int]]:
        e = self.endpoints
        return list(zip(e, e[1:]))


@dataclass(frozen=True)
class PathReport:
    """Outcome of validate_path: failures are entries, not exceptions."""

    ok: bool
    mode: str
    issues: tuple[str, ...]


def _crossing_pairs(chords: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every pair of positions i < j whose chords cross, in sorted order.

    Two chords cross when their endpoints interleave and they share none; a
    degenerate chord crosses nothing.  A sweep over the sorted endpoints
    keeps the open chords in opening order, and a closing chord crosses
    exactly the chords opened after it that are still open, so finding and
    removing it costs one step per pair reported.  At a shared label
    closings come first, outer chords open first and later-opened chords
    close first, so chords that share an endpoint never meet in that list.
    O(k log k + K) for k chords and K pairs."""
    events = []
    for i, (a, b) in enumerate(chords):
        if a > b:
            a, b = b, a
        if a < b:
            events.append((a, 1, -b, i))
            events.append((b, 0, -a, -i))
    events.sort()
    opened: list[int] = []
    pairs = []
    for _, opening, _, i in events:
        if opening:
            opened.append(i)
        elif opened[-1] == -i:
            opened.pop()
        else:
            i = -i
            at = len(opened) - 1
            while opened[at] != i:
                at -= 1
            pairs += [(i, j) if i < j else (j, i) for j in opened[at + 1 :]]
            del opened[at]
    pairs.sort()
    return pairs


# ======================================================================
# family structure: the cell tree
# ======================================================================


def _structure(chords: tuple[tuple[int, int], ...], tree: Tree | None = None) -> Tree:
    """The cell tree of non-crossing (low, high) chords sorted by low: cell 0
    is the outer cell and cell i + 1 lies behind chords[i], so tree edge
    (u, v), u < v, is chord v - 1 and its parent cell u is v's smallest
    neighbour.  A cell's boundary order is chord index order: its child
    chords ascending, then its own chord.  Labels are only compared, so a
    subfamily keeps its family's labels.  A ``tree`` said to be the cell
    tree, such as a contracted tree or the preorder tree a family came from,
    becomes the cell tree once the smallest neighbours of its vertices
    1, 2, ... are the parent cells of cells 1, 2, ...: that holds exactly
    when its edges are the cells', and a tree of another vertex count has
    another number of them.  The check raises ``AssertionError`` unless it
    does."""
    parents = []  # the parent cell of the cell behind each chord
    # (closing label, cell behind it) of the chords enclosing the current
    # label, innermost last
    stack: list[tuple[int, int]] = []
    for i, (a, b) in enumerate(chords, 1):
        while stack and stack[-1][0] < a:
            stack.pop()
        parents.append(stack[-1][1] if stack else 0)
        stack.append((b, i))
    if tree is None:
        return Tree(len(chords) + 1, tuple(zip(parents, range(1, len(chords) + 1))))
    if [ws[0] for ws in tree.adjacency[1:]] != parents:
        raise AssertionError("chords do not cut out the tree given as their cells")
    return tree


def segments_to_tree(
    s: SegmentFamily,
) -> tuple[Tree, dict[tuple[int, int], tuple[int, int]]]:
    """The cell-adjacency tree, plus the segment behind each tree edge."""
    t = s._tree
    adjacency = t.adjacency
    return t, {(adjacency[v][0], v): pair for v, pair in enumerate(s.pairs, 1)}


def tree_to_segments(t: Tree, root: int = 0) -> SegmentFamily:
    """A family whose cell tree is ``t``: depth-first interval embedding
    rooted at ``root``, children in ascending order; each edge opens a label
    on entry to the child subtree and closes one on exit.

    Cells are numbered by opening label, so when ``root`` is 0 and the walk
    enters the vertices in id order (``t`` is labelled in this preorder),
    cell i is vertex i.  The family then keeps ``t`` for ``_structure`` to
    check and keep, so the round trip returns ``t`` itself."""
    if t.m < 1:
        raise ValueError("needs at least one edge")
    _check_count(root, "root", 0, t.vertex_count - 1)
    adjacency = t.adjacency
    seen = [False] * t.vertex_count
    seen[root] = True
    pairs: list[tuple[int, int]] = []
    counter = 0
    preorder = root == 0  # so far, the k-th vertex entered is vertex k
    entered = 0
    # a vertex to enter, or ~label: leave the vertex whose edge opened label
    stack = list(reversed(adjacency[root]))
    for w in stack:
        seen[w] = True
    while stack:
        v = stack.pop()
        if v < 0:
            pairs.append((~v, counter))
        else:
            entered += 1
            if v != entered:
                preorder = False
            stack.append(~counter)
            for w in reversed(adjacency[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        counter += 1
    family = SegmentFamily(t.m, tuple(pairs))  # the family sorts its pairs
    if preorder:  # a hint, not a field: equality, hash and repr ignore it
        family.__dict__["_cell_tree"] = t
    return family


def realize_coordinates(s: SegmentFamily) -> tuple[tuple[int, int], ...]:
    """Label i sits at (i, i*i): integer points, strictly convex in label
    order, so segment crossings match pair interleavings exactly."""
    return tuple((i, i * i) for i in range(2 * s.n))


# ======================================================================
# path validation
# ======================================================================


def validate_path(s: SegmentFamily, p: AlternatingPath, mode: str) -> PathReport:
    """Check ``p`` against ``s``.  Mode 'simple' (alias 'among') checks the
    alternation structure and self-crossings; 'compatible' additionally
    forbids crossing any family segment absent from the chain.  A valid path
    is accepted by one O(n) scan, ``_accepts``; only a broken one is
    reported, with one crossing sweep, O(k log k + K) for K crossing pairs."""
    if mode == "among":
        mode = "simple"
    if mode not in ("simple", "compatible"):
        raise ValueError(f"unknown mode {mode!r}")
    if _accepts(s, p.endpoints, mode == "compatible"):
        return PathReport(True, mode, ())
    e = p.endpoints
    issues = _range_issues(e, 2 * s.n)
    if len(set(e)) != len(e):
        dups = sorted(x for x, count in Counter(e).items() if count > 1)
        issues.append(f"repeated labels {dups}")
    partner = s._partner
    for i in range(0, len(e) - 1, 2):
        a, b = e[i], e[i + 1]
        if not 0 <= a < len(partner) or partner[a] != b:
            issues.append(f"position {i}: ({a}, {b}) is not a segment")
    edges = p.edges()
    unused = []
    if mode == "compatible":
        used = {(a, b) if a <= b else (b, a) for a, b in edges}
        unused = [seg for seg in s.pairs if seg not in used]
    k = len(edges)
    # family segments never cross each other, so j >= k means i < k
    crossings = _crossing_pairs(edges + unused)
    for i, j in crossings:
        if j < k:
            issues.append(f"chain edges {edges[i]} and {edges[j]} cross")
    for j, i in sorted((j, i) for i, j in crossings if j >= k):
        issues.append(f"chain edge {edges[i]} crosses unused segment {unused[j - k]}")
    return PathReport(not issues, mode, tuple(issues))


def _range_issues(e: tuple[int, ...], limit: int) -> list[str]:
    """An issue for each endpoint label of ``e`` outside 0..limit - 1."""
    if min(e) >= 0 and max(e) < limit:
        return []
    return [f"label {x} out of range 0..{limit - 1}" for x in e if not 0 <= x < limit]


def _accepts(s: SegmentFamily, e: tuple[int, ...], compatible: bool) -> bool:
    """True when ``validate_path`` would find no issue with endpoints ``e``,
    in O(n).  False hands the path to the reporter, which decides.

    With labels in range and distinct and each segment position a family
    pair, no connector is a segment, and two chords share a label only as
    neighbours in the chain, which cannot cross.  The chords to keep apart
    are the chain's segments, its connectors and, in 'compatible' mode, the
    unused segments, those on labels the chain skips: the segments are then
    every family pair, as they are when the chain visits every label.  Each
    label ends at most one segment, ``other[x]``, and one connector,
    ``link[x]`` (x itself for none).  A stack scan over the labels pushes
    each chord's closing label as it opens; at each label it pops the chords
    closing there first, then pushes those opening there, the outer one
    first.  A pop that finds another label means that a chord opened inside
    this one is still open: the two cross."""
    partner: list[int] = s._partner
    size = len(partner)
    if min(e) < 0 or max(e) >= size or len(set(e)) != len(e):
        return False
    if tuple(map(partner.__getitem__, e[::2])) != e[1::2]:
        return False
    if compatible or len(e) == size:
        other = partner
    else:
        other = list(range(size))
        for a, b in zip(e[::2], e[1::2]):
            other[a], other[b] = b, a
    link = list(range(size))
    for a, b in zip(e[1:-1:2], e[2::2]):
        link[a], link[b] = b, a
    stack: list[int] = []  # the closing labels of the open chords
    push, pop = stack.append, stack.pop
    for x, y, z in zip(range(size), other, link):
        if y < x and pop() != x or z < x and pop() != x:
            return False
        if y > x:
            if z > y:
                push(z)
            push(y)
            if x < z < y:
                push(z)
        elif z > x:
            push(z)
    return True


# ======================================================================
# compatible paths from caterpillar witnesses
# ======================================================================


def _checked(s: SegmentFamily, path: AlternatingPath, mode: str) -> AlternatingPath:
    """``path`` once ``validate_path`` accepts it; a failure raises
    ``AssertionError``, because it means the construction is wrong, not the
    input."""
    report = validate_path(s, path, mode)
    if not report.ok:
        raise AssertionError(
            "constructed path failed validation: " + "; ".join(report.issues)
        )
    return path


def compatible_path(s: SegmentFamily, w: CaterpillarWitness) -> AlternatingPath:
    """An alternating path through exactly the segments of the witness
    caterpillar (a witness over the cell tree of ``s``), crossing no other
    segment of the family."""
    return _checked(s, _compatible_chain(s.pairs, s._tree, w), "compatible")


def _compatible_chain(
    chords: tuple[tuple[int, int], ...], t: Tree, w: CaterpillarWitness
) -> AlternatingPath:
    """``compatible_path`` without the final validation, over ``chords``
    and their cell tree ``t``, in the chords' labels."""
    count = t.vertex_count
    vs = w.vertex_set
    try:  # cells are vertex ids, judged as every count is
        cells = _check_counts(sorted(vs), "cell")
        spine = list(_check_counts(w.spine, "cell"))
        fits = isinstance(vs, (set, frozenset)) and vs.issuperset(spine)
    except (TypeError, ValueError):  # TypeError: cells that do not sort
        fits = False
    if not fits or cells and (cells[0] < 0 or cells[-1] >= count):
        raise ValueError("witness does not fit this family's cell tree")

    # cell v > 0 lies behind chord v - 1, across from its parent cell
    adjacency = t.adjacency
    witness_chords = [v - 1 for v in cells if v and adjacency[v][0] in vs]
    if len(witness_chords) != w.size or w.size < 1:
        raise ValueError("witness size disagrees with its induced edges")

    if not spine:
        if w.size != 1:
            raise ValueError("empty spine only fits a single-segment witness")
        spine = [adjacency[witness_chords[0] + 1][0]]
    on_spine = [False] * count
    for v in spine:
        on_spine[v] = True

    # split the witness chords into links between spine cells and the
    # chords each spine cell carries on its own, in index order, so a cell's
    # exit chord goes in by one binary search
    links = 0
    at_cell: dict[int, list[int]] = {c: [] for c in spine}
    for i in witness_chords:
        a, b = adjacency[i + 1][0], i + 1
        if on_spine[a]:
            if on_spine[b]:
                links += 1
            else:
                at_cell[a].append(i)
        elif on_spine[b]:
            at_cell[b].append(i)
        else:
            raise ValueError(f"witness segment {chords[i]} misses the spine")
    # consecutive spine cells are a cell and its parent, left through the
    # child's chord
    exits: list[int | None] = []
    for u, v in zip(spine, spine[1:]):
        child, parent = (v, u) if u < v else (u, v)
        if adjacency[child][0] != parent:
            raise ValueError("spine cells are not joined by witness segments")
        exits.append(child - 1)
    # a spine that came back to a cell would repeat a link of the tree, so
    # past this check each cell, and its list below, comes up once
    if links != len(exits):
        raise ValueError("witness segments join non-consecutive spine cells")

    # Each spine cell chains the chords it carries and its exit chord in
    # boundary order, which is index order: walked with the cell on the left,
    # its boundary meets its child chords by index, then its own chord
    # ``cell - 1``.  The walk starts past the entry chord, or in the first
    # cell past the exit chord, or with no exit past the own chord.  Going
    # forward a child chord is met low label first, the own chord high label
    # first; a chain that reaches the entry chord's other end walks backward,
    # meeting each chord the other way round.  Bordering chords hold
    # non-interleaving boundary intervals with label-free gaps, so no two
    # connectors cross.  An exit chord that is not last is kept for the end:
    # the chain jumps from the chord before it to the far end and sweeps
    # back, a connector that nests the skipped intervals.
    endpoints: list[int] = []
    entry: int | None = None
    exits.append(None)
    for cell, exit_chord in zip(spine, exits):
        order = at_cell[cell]
        if exit_chord is not None:
            insort(order, exit_chord)
        own = cell - 1
        back = False  # walking against boundary order
        if entry is None:
            cut = bisect_right(order, own if exit_chord is None else exit_chord)
        else:
            cut = bisect_right(order, entry)
            p, q = chords[entry][::-1] if entry == own else chords[entry]
            back = endpoints[-1] == p
            if not back and endpoints[-1] != q:
                raise AssertionError("entry point not on entry chord")
        if 0 < cut < len(order):
            order = order[cut:] + order[:cut]
        if back:
            order.reverse()
        jump = len(order)
        if exit_chord is not None and order[-1] != exit_chord:  # not in a first cell
            jump = order.index(exit_chord)
            order[jump:] = reversed(order[jump:])
        for i, c in enumerate(order):
            if i == jump:
                back = not back
            endpoints += chords[c] if (c == own) == back else chords[c][::-1]
        entry = exit_chord

    return AlternatingPath(tuple(endpoints), w.size)


# ======================================================================
# among paths via contraction
# ======================================================================


def among_path(s: SegmentFamily) -> tuple[AlternatingPath, ContractionPlan]:
    """A self-avoiding alternating path through
    ``max_caterpillar_by_contraction`` many segments of ``s``, paired with
    the contraction plan that witnesses the count.  Contracting a tree edge
    is deleting a segment: the path chains the plan's caterpillar witness
    through the kept chords, in their own labels, and may cross only the
    deleted segments."""
    kept, tree = s.pairs, s._tree
    plan, witness = _plan(tree)
    if plan.contract_sequence:
        dropped = {step.edge[1] - 1 for step in plan.contract_sequence}
        kept = tuple(c for i, c in enumerate(kept) if i not in dropped)
        tree = _structure(kept, plan.kept_caterpillar)
    return _checked(s, _compatible_chain(kept, tree, witness), "simple"), plan
