"""Caterpillar bounds under vertex removal (induced subtrees).

A branch of parameter k is a rooted tree whose root meets a single edge and
whose largest very hungry caterpillar (all edges incident to a root-to-leaf
path) has exactly k edges.  Stars of ``r`` equal branches glued at a shared
root are the extremal trees of the induced bound; each star's shape is
defined once, by ``_star_shape``, and the tree, its edge count and the
thresholds all read it.  All arithmetic is exact: the base-3 logarithms of
the guarantee compare sixth powers with powers of three, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .trees import Tree, _check_count, _check_counts, _heaviest_path, _rooted


# ======================================================================
# induced caterpillar maximum, with witness
# ======================================================================


@dataclass(frozen=True)
class CaterpillarWitness:
    """An induced caterpillar inside a host tree: its vertex set, its spine
    (host-tree labels, path order), and its edge count."""

    vertex_set: frozenset[int]
    spine: tuple[int, ...]
    size: int


def max_caterpillar(t: Tree) -> CaterpillarWitness:
    """Largest caterpillar among induced subgraphs of ``t``.

    Ties between maximum witnesses break toward the lexicographically
    smallest spine endpoint pair.

    O(n): the spine path is the heaviest path when vertex v weighs
    deg(v) - 1 (``trees._heaviest_path``), and the caterpillar is that
    path with every edge incident to it.
    """
    if t.m < 1:
        raise ValueError("needs at least one edge")
    degrees = t.degrees
    weight = [d - 1 for d in degrees]
    path = _heaviest_path(t, weight)

    adjacency = t.adjacency
    best = 1
    vertex_set = set(path)
    for v in path:
        best += weight[v]
        vertex_set.update(adjacency[v])
    # only the path's ends can be leaves; the spine drops them
    lo, hi = 0, len(path)
    while hi - lo > 1 and degrees[path[lo]] == 1:
        lo += 1
    while hi - lo > 1 and degrees[path[hi - 1]] == 1:
        hi -= 1
    induced = len([1 for u, v in t.edges if u in vertex_set and v in vertex_set])
    if induced != best:
        raise AssertionError("witness edge count disagrees with optimum")
    return CaterpillarWitness(frozenset(vertex_set), path[lo:hi], best)


def very_hungry_max(t: Tree, root: int) -> int:
    """Largest number of edges incident to a single path from ``root`` to a
    leaf of ``t``."""
    _check_count(root, "root", 0, t.vertex_count - 1)
    if t.m < 1:
        raise ValueError("needs at least one edge")
    order, parent = _rooted(t, root)
    # acc[v]: the sum of deg - 1 along the root..v path.  It never falls on
    # the way down, so its maximum is reached at a leaf other than the root.
    acc = [0] * t.vertex_count
    acc[root] = t.degrees[root] - 1
    for u in order[1:]:
        acc[u] = acc[parent[u]] + t.degrees[u] - 1
    return max(acc) + 1


# ======================================================================
# branches (rooted extremal pieces)
# ======================================================================

_BRANCH_SMALL = (0, 1, 2, 3, 5, 7)  # index k for k <= 5
_ARITY_SMALL = {2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 3, 8: 2}


def max_branch_size(k: int) -> int:
    """Largest edge count of a branch whose very hungry maximum is k:
    1, 2, 3, 5, 7 up to k = 5, then one closed form per residue mod 3."""
    _check_count(k, "k", 1)
    if k <= 5:
        return _BRANCH_SMALL[k]
    r = k % 3
    if r == 0:
        return (23 * 3 ** ((k - 6) // 3) - 1) // 2
    if r == 1:
        return (33 * 3 ** ((k - 7) // 3) - 1) // 2
    return (47 * 3 ** ((k - 8) // 3) - 1) // 2


def branch_arity(k: int) -> int:
    """Smallest child count c realizing max_branch_size(k) as
    c * max_branch_size(k - c) + 1; equals 3 for every k >= 9."""
    _check_count(k, "k", 2)
    return _ARITY_SMALL.get(k, 3)


@dataclass(frozen=True)
class BeautifulProfile:
    """Level profile <c_0, ..., c_h> of a beautiful tree: every depth-d
    vertex has exactly counts[d] children, with counts[0] == 1,
    counts[h] == 0, and 3 >= c_1 >= ... >= c_{h-1} >= 1."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        c = _check_counts(self.counts, "profile count")
        object.__setattr__(self, "counts", c)
        if len(c) < 2 or c[0] != 1 or c[-1] != 0:
            raise ValueError("profile must start with 1 and end with 0")
        body = c[1:-1]
        if any(not 1 <= x <= 3 for x in body):
            raise ValueError("interior counts must lie in 1..3")
        if any(a < b for a, b in zip(body, body[1:])):
            raise ValueError("interior counts must be non-increasing")


def beautiful_profile(k: int) -> BeautifulProfile:
    """Profile of the size-maximal branch with very hungry maximum k."""
    _check_count(k, "k", 1)
    counts = [1]
    rest = k
    while rest >= 2:
        c = branch_arity(rest)
        counts.append(c)
        rest -= c
    counts.append(0)
    return BeautifulProfile(tuple(counts))


def tree_from_profile(profile: BeautifulProfile) -> Tree:
    """Materialize a profile as a tree rooted at 0, vertices numbered level
    by level."""
    edges: list[tuple[int, int]] = []
    level = [0]
    nxt = 1
    for c in profile.counts[:-1]:
        new_level = []
        for v in level:
            for _ in range(c):
                edges.append((v, nxt))
                new_level.append(nxt)
                nxt += 1
        level = new_level
    return Tree(nxt, tuple(edges))


def beautiful_tree(k: int) -> Tree:
    """The extremal branch for very hungry maximum k, rooted at 0: the tree
    of ``beautiful_profile(k)``.  Its edge count is max_branch_size(k) and
    its largest induced caterpillar has at most 2k - 1 edges."""
    return tree_from_profile(beautiful_profile(k))


# ======================================================================
# stars of branches (unrooted extremal trees)
# ======================================================================


_STAR_SHAPE_SMALL = (
    (2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3),
    (3, 4), (4, 4), (5, 4), (6, 4), (5, 5), (4, 6),
)  # (r, x) for k = 2..14


def _star_shape(k: int) -> tuple[int, int]:
    """(r, x) of the extremal star for induced maximum k >= 2: r beautiful
    branches of parameter x.  Tabulated through k = 14, then (5, (k-3)/2)
    for odd k and (6, (k-4)/2) for even k."""
    if k <= 14:
        return _STAR_SHAPE_SMALL[k - 2]
    if k % 2 == 1:
        return 5, (k - 3) // 2
    return 6, (k - 4) // 2


def branch_star_bound(k: int) -> int:
    """Largest edge count of a star of equal branches whose induced
    caterpillar maximum is k: r * max_branch_size(x) for the star's shape."""
    _check_count(k, "k", 2)
    r, x = _star_shape(k)
    return r * max_branch_size(x)


def extremal_branch_star(k: int) -> Tree:
    """The extremal tree for the induced bound: r copies of the beautiful
    branch of parameter x sharing one root (k = 1 is the single edge).
    Shared root is vertex 0; copies are numbered consecutively."""
    _check_count(k, "k", 1)
    if k == 1:
        return Tree(2, ((0, 1),))
    r, x = _star_shape(k)
    branch = beautiful_tree(x)
    edges: list[tuple[int, int]] = []
    # each copy shifts every branch vertex but the shared root 0, which
    # only an edge's smaller end can be
    step = branch.vertex_count - 1
    for shift in range(0, r * step, step):
        edges += [(u and u + shift, v + shift) for u, v in branch.edges]
    return Tree(r * step + 1, tuple(edges))


# ======================================================================
# extremal sizes and the guarantee
# ======================================================================


def extremal_size_induced(k: int) -> int:
    """Largest edge count m such that some m-edge tree has no induced
    caterpillar bigger than k: k itself through k = 1, the extremal star's
    ``branch_star_bound(k)`` beyond."""
    _check_count(k, "k", 0)
    return _extremal_size_induced(k)


@lru_cache(maxsize=None)
def _extremal_size_induced(k: int) -> int:
    if k <= 1:
        return k
    return branch_star_bound(k)


def induced_guarantee_reference(m: int) -> int:
    """Reference definition of the guarantee: the largest k with
    extremal_size_induced(k - 1) < m."""
    _check_count(m, "m", 1)
    k = 1
    while _extremal_size_induced(k) < m:
        k += 1
    return k


#: the largest m at which ``induced_guarantee`` inverts the thresholds; the
#: residue closed forms take over from the next m on
_INVERTED_THROUGH = 170

# residue r -> (c, s, gamma, add): the guarantee restricted to k = r (mod 6)
# is 6 * floor(N / 6) + r with N = ceil(6 * log3((c*m + s) / gamma)) + add
_RESIDUE_PARAMS = {
    0: (2, 5, 55, 11),
    1: (1, 3, 33, 11),
    2: (2, 5, 235, 17),
    3: (1, 3, 141, 17),
    4: (2, 5, 115, 11),
    5: (1, 3, 69, 11),
}

def _ceil_6log3(num: int, den: int) -> int:
    """ceil(6 * log3(num/den)) for num >= den >= 1, exactly: the least j
    with den^6 * 3^j >= num^6.  With 2^(a-1) <= num^6 and den^6 < 2^b, any
    j <= (a - 1 - b) / log2(3) still falls short, and 1.584963 > log2(3),
    so the search starts at most a few steps below the answer."""
    target = num**6
    power = den**6
    j = max(0, (target.bit_length() - 1 - power.bit_length()) * 10**6 // 1_584_963)
    power *= 3**j
    while power < target:
        power *= 3
        j += 1
    return j


def induced_guarantee_residue(r: int, m: int) -> int:
    """Largest k congruent to r mod 6 with extremal_size_induced(k-1) < m,
    by the exact closed form (valid for m >= 171)."""
    _check_count(r, "r")
    if not 0 <= r <= 5:
        raise ValueError("residue out of range 0..5")
    _check_count(m, "m")
    if m <= _INVERTED_THROUGH:
        raise ValueError(f"closed forms apply for m >= {_INVERTED_THROUGH + 1}")
    c, s, gamma, add = _RESIDUE_PARAMS[r]
    n_val = _ceil_6log3(c * m + s, gamma) + add
    return 6 * (n_val // 6) + r


def induced_guarantee(m: int) -> int:
    """The caterpillar size certain to appear as an induced subgraph of any
    tree with m edges: the thresholds inverted directly through m = 170, the
    best residue closed form beyond.  Agrees with induced_guarantee_reference
    everywhere."""
    _check_count(m, "m", 1)
    if m <= _INVERTED_THROUGH:
        return induced_guarantee_reference(m)
    return max(induced_guarantee_residue(r, m) for r in range(6))

