"""Brute-force oracles and the exhaustive verification harness.

Everything the package computes by formula or by greedy construction is
re-derivable here the slow way: free trees come from the
Wright–Richmond–Odlyzko–McKay successor on canonical level sequences,
maximum induced caterpillars from exhaustive search over subtrees, and branch
sizes from the defining recurrence.  ``verify_all`` runs the whole battery and
returns a line-per-check report instead of raising, so a regression shows up
as a FAIL row with a canonical-code witness attached.  Each row is a minimum,
ties broken by canonical code, so the report is the same whether the census
runs in this process or in shares, one per worker of a process pool.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .contraction import (
    contraction_guarantee,
    extremal_size_contraction,
    extremal_spider,
    max_caterpillar_by_contraction,
)
from .duality import among_path, compatible_path, segments_to_tree, tree_to_segments
from .induced import (
    _INVERTED_THROUGH,
    _RESIDUE_PARAMS,
    _ceil_6log3,
    beautiful_tree,
    branch_star_bound,
    extremal_branch_star,
    extremal_size_induced,
    induced_guarantee,
    max_branch_size,
    max_caterpillar,
    very_hungry_max,
)
from .trees import Tree, _check_count, _check_counts, canonical_code

#: smallest ``max_edges`` whose census ``verify_all`` runs in a process
#: pool: from m = 13 on, one edge count takes over a second in one process,
#: while all of m <= 12 takes about 0.6 s
_POOL_FROM = 13

#: most vertices the exhaustive caterpillar search takes: it tries every
#: subtree, and a tree on 20 vertices can have hundreds of thousands
_SEARCH_LIMIT = 20

#: largest ``max_score`` that ``verify_all`` takes: it builds and scores the
#: extremal spider of every score up to it, about k^2/8 edges each, so its
#: cost grows with the cube of ``max_score``
MAX_SCORE = 200

#: largest ``sweep_limit`` that ``verify_all`` takes: the sweep's cost grows
#: faster than the square of the limit's digit count, and on a 2-core host
#: 10^30 takes about 0.3 s, 10^100 about 5 s
MAX_SWEEP = 10**30


# ======================================================================
# free-tree enumeration
# ======================================================================


def _free_tree_count(m: int) -> int:
    """Isomorphism classes of trees with ``m`` edges, exactly: Otter's
    formula t(x) = r(x) - (r(x)^2 - r(x^2)) / 2 over the rooted-tree counts
    r (A000081), which follow r(k+1) = sum_j s(j) r(k-j+1) / k with
    s(j) = sum over divisors d of j of d r(d)."""
    _check_count(m, "m", 0)
    n = m + 1  # vertices
    r = [0, 1]
    s = [0]
    for k in range(1, n):
        s.append(sum(d * r[d] for d in range(1, k + 1) if k % d == 0))
        r.append(sum(s[j] * r[k - j + 1] for j in range(1, k + 1)) // k)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


#: isomorphism classes of trees with 0, 1, ..., 16 edges
FREE_TREE_COUNTS = tuple(_free_tree_count(m) for m in range(17))


def _levels_to_tree(layout: list[int]) -> Tree:
    """Vertices in preorder; layout[i] is the depth of vertex i."""
    edges = []
    stack = [0]
    for i in range(1, len(layout)):
        del stack[layout[i] :]
        edges.append((stack[-1], i))
        stack.append(i)
    return Tree(len(layout), tuple(edges))


def _next_rooted_layout(layout: list[int], p: int | None = None) -> list[int] | None:
    """Successor of a canonical rooted level sequence (descending order)."""
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_layout(layout: list[int]) -> tuple[list[int], list[int]]:
    """First root subtree (re-rooted) and the remainder (still rooted)."""
    try:  # the second vertex at depth 1 starts the second root subtree
        cut = layout.index(1, layout.index(1) + 1)
    except ValueError:  # there is one root subtree
        cut = len(layout)
    left = [layout[i] - 1 for i in range(1, cut)]
    rest = [0] + layout[cut:]
    return left, rest


def _jump_to_free(layout: list[int]) -> list[int] | None:
    """Return layout unchanged if it canonically encodes a free tree;
    otherwise skip ahead past the whole invalid stretch."""
    left, rest = _split_layout(layout)
    # valid when the first subtree is no higher than the rest, when equally
    # high no larger, and when equally large no greater as a sequence
    if (max(left), len(left), left) <= (max(rest), len(rest), rest):
        return layout
    p = len(left)
    succ = _next_rooted_layout(layout, p)
    if succ is None:
        return None
    if layout[p] > 2:
        new_left, _ = _split_layout(succ)
        suffix = range(1, max(new_left) + 2)
        succ[-len(suffix) :] = suffix
    return succ


def tree_from_pruefer(seq: tuple[int, ...], vertex_count: int) -> Tree:
    """The labeled tree with the given Prüfer code."""
    n = vertex_count
    _check_count(n, "vertex_count")
    if n < 2:
        raise ValueError("Prüfer codes describe trees on at least 2 vertices")
    seq = _check_counts(seq, "code label")
    if len(seq) != n - 2:
        raise ValueError(f"code for {n} vertices must have length {n - 2}")
    if seq and not 0 <= min(seq) <= max(seq) < n:
        raise ValueError("code label out of range")
    import heapq

    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((v, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(n, tuple(edges))


def _layouts(m: int) -> Iterator[list[int]]:
    """The canonical level sequences of the free trees with ``m`` edges, in
    order, each a list of its own."""
    _check_count(m, "edge count", 0)
    if m == 0:
        yield [0]
        return
    n = m + 1
    layout: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        cand = _jump_to_free(layout)
        if cand == layout:
            yield layout
            layout = _next_rooted_layout(layout)
        else:  # past an invalid stretch, or None past the last sequence
            layout = cand


def free_trees(edge_count: int) -> Iterator[Tree]:
    """All isomorphism classes of trees with the given number of edges, one
    per canonical level sequence."""
    yield from map(_levels_to_tree, _layouts(edge_count))


# ======================================================================
# brute-force oracles
# ======================================================================


def brute_max_caterpillar(t: Tree) -> int:
    """Most edges over all induced caterpillar subtrees, by subtree search.

    Subtrees are vertex bitmasks, tried largest first: the first level is
    the whole tree, and each next level holds every mask one leaf smaller
    than a mask of the level before.  That reaches every subtree, since a
    proper subtree S has an outside neighbour v, and S + v is a subtree one
    larger with v as a leaf.  A subtree is a caterpillar when each of its
    heavy vertices (induced degree at least 2) has at most 2 heavy
    neighbours; any single edge is one, so the search stops by size 2.
    Each mask carries its heavy set: removing a leaf lowers the induced
    degree of its one neighbour alone, which leaves the heavy set when that
    degree falls to 1.
    """
    n = t.vertex_count
    if t.m < 1:
        raise ValueError("needs at least one edge")
    if n > _SEARCH_LIMIT:
        raise ValueError(f"exhaustive search is limited to {_SEARCH_LIMIT} vertices")
    nbr = [0] * n
    for a, b in t.edges:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    level = {(1 << n) - 1: sum(1 << v for v in range(n) if nbr[v].bit_count() >= 2)}
    while True:
        smaller: dict[int, int] = {}
        for inside, heavy in level.items():
            rest = heavy
            while rest:
                bit = rest & -rest
                rest ^= bit
                if (nbr[bit.bit_length() - 1] & heavy).bit_count() > 2:
                    break
            else:
                return inside.bit_count() - 1
            rest = inside ^ heavy  # the leaves, as the subtree has 3 or more
            while rest:
                bit = rest & -rest
                rest ^= bit
                child = inside ^ bit
                if child not in smaller:
                    up = nbr[bit.bit_length() - 1] & inside  # the leaf's neighbour
                    falls = (nbr[up.bit_length() - 1] & child).bit_count() == 1
                    smaller[child] = heavy ^ up if falls else heavy
        level = smaller


def _branch_sizes(k: int) -> list[int]:
    """The largest branch a score-j budget supports, for every score j in
    1..k at index j, from the defining recurrence in O(k^2) steps: spend
    one edge to the root, then split the remaining score over equal
    children.  Index 0 is the empty branch."""
    best = [0, 1]
    for j in range(2, k + 1):
        best.append(max(c * best[j - c] + 1 for c in range(1, j)))
    return best


def _searched_thresholds(sizes: list[int], top: int, limit: int) -> list[int]:
    """``extremal_size_induced(k)`` by search, for k = 0, 1, ... through
    ``top`` and on to the first threshold that reaches ``limit``: k itself
    through k = 1, then the most edges of r >= 2 equal branches of
    parameter x >= 1 glued at a root, over every such shape whose induced
    caterpillar maximum is k.  A spine through two branches takes
    2x + r - 2 edges, and ``sizes[x]`` (``_branch_sizes``) is the largest
    branch."""
    thresholds = [0, 1]
    while len(thresholds) <= top or thresholds[-1] < limit:
        k = len(thresholds)
        thresholds.append(max((k + 2 - 2 * x) * sizes[x] for x in range(1, k // 2 + 1)))
    return thresholds


# ======================================================================
# guarantee sweep change points
# ======================================================================


def guarantee_change_points(limit: int) -> list[int]:
    """Every edge budget in [1, limit] where ``induced_guarantee`` can
    change value, padded with both neighbours of each candidate so each
    constant interval gets its endpoints checked.  A reference that never
    falls as m grows and agrees with it here agrees on all of [1, limit]:
    inside an interval, it lies between its values at the two ends.
    """
    _check_count(limit, "limit", 1)
    last = _INVERTED_THROUGH
    pts = {1, 2, 3, 4, 5, last, last + 1, last + 2, limit}
    k = 1
    while True:
        e = extremal_size_induced(k)
        pts.update((e, e + 1))
        if e >= limit:
            break
        k += 1
    for c, s, gamma, _add in _RESIDUE_PARAMS.values():
        # the form's N(m) = _ceil_6log3(c*m + s, gamma) never falls as m
        # grows; find each m <= limit where it rises by doubling from the
        # last rise, then bisection, holding N(lo) == n_lo < N(hi)
        lo, n_lo = 1, _ceil_6log3(c + s, gamma)
        while lo < limit:
            hi = min(2 * lo, limit)
            if _ceil_6log3(c * hi + s, gamma) == n_lo:
                lo = hi
                continue
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _ceil_6log3(c * mid + s, gamma) == n_lo:
                    lo = mid
                else:
                    hi = mid
            pts.update((hi - 1, hi, hi + 1))
            lo, n_lo = hi, _ceil_6log3(c * hi + s, gamma)
    return sorted(x for x in pts if 1 <= x <= limit)


# ======================================================================
# verification report
# ======================================================================


@dataclass(frozen=True)
class CheckRecord:
    """One verified fact: what was expected, what came out."""

    section: str
    label: str
    passed: bool
    expected: str
    actual: str
    note: str = ""

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        text = (
            f"{status} {self.section:<20} {self.label:<18} "
            f"expected {self.expected}  actual {self.actual}"
        )
        if self.note:
            text += f"  [{self.note}]"
        return text


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def to_text(self) -> str:
        lines = [r.line() for r in self.records]
        bad = len(self.failures())
        if bad:
            lines.append(f"{bad} of {len(self.records)} checks FAILED")
        else:
            lines.append(f"all {len(self.records)} checks passed")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "total": len(self.records),
            "failed": len(self.failures()),
            "checks": [asdict(r) for r in self.records],
        }


def _check_tree(t: Tree) -> tuple[int, int, bool, str | None]:
    """Everything the census asks of one tree class: its contraction score,
    its exhaustive-search maximum, whether the DP witness reaches that
    maximum, and why the duality failed (None when it holds) as ``<step>``
    or ``<step>: <Type>: <message>``.  The score is the target of the among
    path's plan and the DP size comes from the among path when it can, so
    each is computed on its own only when the duality fails before it
    exists.

    ``t`` must be labelled in preorder from 0, as ``free_trees`` labels it,
    so that the round trip through its family at root 0 returns ``t``
    itself; any other tree fails as ``round trip``.  A caterpillar class
    builds one witness and one chain: a plan that contracts nothing has
    checked that ``max_caterpillar(t)`` has every edge, and the among path
    chains it through every segment, so its size is the DP size, its
    'simple' validation is the 'compatible' one, and ``compatible_path`` is
    not called.  Any other class computes ``max_caterpillar(t)`` once."""
    brute = brute_max_caterpillar(t)
    score = size = None
    failure = step = "round trip"
    try:
        family = tree_to_segments(t, 0)
        if segments_to_tree(family)[0] == t:
            step = "among"
            path, plan = among_path(family)
            score = plan.target_size
            if not plan.contract_sequence:
                size = path.k
            else:
                step = "compatible"
                witness = max_caterpillar(t)
                size = witness.size
                compatible_path(family, witness)
            failure = None
    except Exception as exc:
        failure = f"{step}: {type(exc).__name__}: {exc}"
    if score is None:
        score = max_caterpillar_by_contraction(t)
    if size is None:
        size = max_caterpillar(t).size
    return score, brute, size == brute, failure


def _verdict(
    section: str, label: str, expected: str, bad: str | None, note: str = ""
) -> CheckRecord:
    """A check that passes unless it found a failure, ``bad``."""
    return CheckRecord(
        section, label, bad is None, expected, "ok" if bad is None else bad, note
    )


def _fold(checked: Iterable[tuple[Tree, tuple]]) -> tuple:
    """Trees paired with their ``_check_tree`` results, read as a stream
    into a tally: how many there were, for each bound the least value and
    the trees that reach it, the trees whose search clashes, and each tree
    whose duality fails with why.  Only trees a row may name are held."""
    count = 0
    # per bound, the least value so far and the trees that reach it
    lows: list[list] = [[None, []], [None, []]]
    clashes: list[Tree] = []
    failures: list[tuple[Tree, str]] = []
    for t, (score, brute, agrees, failure) in checked:
        count += 1
        for low, value in zip(lows, (score, brute)):
            if low[0] is None or value < low[0]:
                low[:] = value, [t]
            elif value == low[0]:
                low[1].append(t)
        if not agrees:
            clashes.append(t)
        if failure:
            failures.append((t, failure))
    return count, *lows, clashes, failures


def _rows(m: int, tallies: Iterable[tuple]) -> list[CheckRecord]:
    """The rows for edge count m from the ``_fold`` tallies of its shares.

    Canonical codes are computed for the trees the tallies hold alone, and
    each row names the smallest, so the rows depend neither on how the
    classes were shared nor on the order of the results."""
    counts, scores, brutes, clashes, failures = zip(*tallies)
    label = f"m={m}"
    want, count = _free_tree_count(m), sum(counts)
    rows = [CheckRecord("tree-census", label, count == want, str(want), str(count))]
    for section, guarantee, reached in (
        ("contraction-bound", contraction_guarantee, scores),
        ("induced-bound", induced_guarantee, brutes),
    ):
        low = min((value for value, _ in reached if value is not None), default=None)
        worst = [t for value, trees in reached if value == low for t in trees]
        # no trees at all fails the census row above and these rows too
        note = f"worst tree {min(map(canonical_code, worst))}" if worst else "no trees"
        want = guarantee(m)
        rows.append(CheckRecord(section, label, low == want, str(want), str(low), note))
    clash = min((canonical_code(t) for share in clashes for t in share), default=None)
    agree = "agree" if clash is None else f"clash at {clash}"
    expect = "dp equals subset search"
    rows.append(CheckRecord("caterpillar-search", label, clash is None, expect, agree))
    failed = min(
        ((canonical_code(t), why) for share in failures for t, why in share),
        default=None,
    )
    bad = None if failed is None else "failed at {} ({})".format(*failed)
    rows.append(_verdict("duality", label, "round trips and valid paths", bad))
    return rows


def _tally(m: int, part: int = 0, workers: int = 1) -> tuple:
    """The ``_fold`` of every ``workers``-th class of ``free_trees(m)`` from
    index ``part``, each checked by ``_check_tree``: a worker's share, built
    from three integers, so that no tree is sent to it.  One share takes
    ``free_trees(m)`` itself, the census that runs in this process."""
    trees = free_trees(m) if workers == 1 else map(
        _levels_to_tree, itertools.islice(_layouts(m), part, None, workers)
    )
    return _fold((t, _check_tree(t)) for t in trees)


# Each section below yields a failure string for every score or budget it
# finds wrong, in the order it checks them; ``verify_all`` reports the first.


def _ratio_failures(top: int) -> Iterator[str]:
    for k in range(2, top + 1):
        if 5 * max_branch_size(k) < 7 * max_branch_size(k - 1):
            yield f"5*size({k}) < 7*size({k - 1})"
        if k >= 7 and 2 * max_branch_size(k) >= 3 * max_branch_size(k - 1):
            yield f"2*size({k}) >= 3*size({k - 1})"


def _spider_failures(top: int) -> Iterator[str]:
    for k in range(1, top + 1):
        spider = extremal_spider(k)
        score = max_caterpillar_by_contraction(spider)
        if spider.m != extremal_size_contraction(k) or score != k:
            yield f"k={k}: {spider.m} edges, score {score}"


def _star_failures(top: int, searched: list[int]) -> Iterator[str]:
    for k in range(2, top + 1):
        star = extremal_branch_star(k)
        found = max_caterpillar(star).size
        if star.m != branch_star_bound(k) or star.m != searched[k] or found != k:
            yield f"k={k}: {star.m} edges, caterpillar {found}"


def _beautiful_failures(top: int, misstated: int | None) -> Iterator[str]:
    for k in range(1, top + 1):
        branch = beautiful_tree(k)
        fed = very_hungry_max(branch, 0)
        cat = max_caterpillar(branch).size
        want_edges = max_branch_size(k) + (k == misstated)
        if branch.m != want_edges or fed != k or cat > 2 * k - 1:
            yield f"k={k}: {branch.m} edges, hungry {fed}, caterpillar {cat}"


def _sweep_failures(points: list[int], searched: list[int]) -> Iterator[str]:
    for m in points:
        want = bisect_left(searched, m)  # the least k whose threshold reaches m
        if induced_guarantee(m) != want:
            yield f"m={m}: {induced_guarantee(m)} vs {want}"


def verify_all(
    max_edges: int = 10,
    max_score: int = 21,
    sweep_limit: int = 200_000,
    misstated_branch: int | None = None,
) -> VerificationReport:
    """Re-derive the package's guarantees and constructions from scratch
    and compare.  ``misstated_branch``, a score in 1..``max_score``, makes
    the report take that score's branch size as ``max_branch_size`` + 1,
    which is how the tests prove a wrong table cannot slip through.

    Every free tree class with 1 to ``max_edges`` edges goes through one
    ``_check_tree``; ``max_edges`` is at most 19, so that the exhaustive
    search sees at most 20 vertices.  From ``max_edges`` = ``_POOL_FROM``
    on, when this process may run on 2 or more CPUs, one process pool of
    that many workers is opened for the whole call, and each edge count is
    split into that many shares, one ``_tally`` per worker, whose tallies
    ``_rows`` merges here.  A smaller census runs in this process, so that
    its cost is this process's own.
    """
    _check_count(max_edges, "max_edges", 1, _SEARCH_LIMIT - 1)
    _check_count(max_score, "max_score", 1, MAX_SCORE)
    _check_count(sweep_limit, "sweep_limit", 1, MAX_SWEEP)
    if misstated_branch is not None:
        _check_count(misstated_branch, "misstated_branch", 1, max_score)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = cpus if max_edges >= _POOL_FROM else 1
    records: list[CheckRecord] = []

    pool = None
    if workers > 1:
        # imported here, so that no other run loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool or nullcontext():
        for m in range(1, max_edges + 1):
            shares = [m] * workers, range(workers), [workers] * workers
            tallies = pool.map(_tally, *shares) if pool else map(_tally, *shares)
            records += _rows(m, tallies)

    # one table serves every induced row: the recurrence's branch sizes, and
    # the thresholds searched over them for the star rows and the sweep.  A
    # branch of parameter x >= 2 has at least 2^(x/2) edges, so branch sizes
    # through twice the sweep's bit length carry the thresholds past it
    star_top, beautiful_top = min(max_score, 26), min(max_score, 18)
    sizes = _branch_sizes(max(max_score, 2 * sweep_limit.bit_length()))
    searched = _searched_thresholds(sizes, star_top, sweep_limit)
    for k in range(1, max_score + 1):
        want = sizes[k]
        got = max_branch_size(k) + (k == misstated_branch)
        records.append(
            CheckRecord(
                "branch-size", f"k={k}", got == want, str(want), str(got)
            )
        )

    points = guarantee_change_points(sweep_limit)
    for section, label, expected, failures, note in (
        ("branch-ratio", f"k<={max_score}", "growth stays within [7/5, 3/2)",
         _ratio_failures(max_score), ""),
        ("extremal-spider", f"k<={max_score}", "sizes and scores match",
         _spider_failures(max_score), ""),
        ("extremal-branch-star", f"k<={star_top}", "sizes and caterpillars match",
         _star_failures(star_top, searched), ""),
        ("beautiful-tree", f"k<={beautiful_top}", "sizes, appetites, caterpillar cap",
         _beautiful_failures(beautiful_top, misstated_branch), ""),
        ("guarantee-sweep", f"m<={sweep_limit}", "closed form equals reference",
         _sweep_failures(points, searched), f"{len(points)} change points"),
    ):
        records.append(_verdict(section, label, expected, next(failures, None), note))
    return VerificationReport(tuple(records))
