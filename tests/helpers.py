"""Builders and hypothesis strategies shared across test modules, and the
references the library's kernels are checked against.  The adversarial
trees and their relabelled twins are the benchmark's own, built by
``bench/workloads.py``."""

import functools
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import hypothesis.strategies as st

import catbound.duality as duality
from catbound import (
    FREE_TREE_COUNTS,
    AlternatingPath,
    CaterpillarWitness,
    CheckRecord,
    PathReport,
    SegmentFamily,
    Tree,
    canonical_code,
    contraction_guarantee,
    induced_guarantee,
    is_caterpillar,
    tree_from_pruefer,
    validate_path,
)
from catbound.oracle import _verdict
from catbound.trees import TreeParseError, _EdgeError, _rooted


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


def caterpillar_tree(*legs: int) -> Tree:
    """Spine 0..len(legs)-1, spine vertex i carrying legs[i] leaves."""
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    leaf = len(legs)
    for i, count in enumerate(legs):
        edges += [(i, v) for v in range(leaf, leaf + count)]
        leaf += count
    return Tree(leaf, tuple(edges))


def free_trees_by_leaf_growth(max_edges: int) -> list[list[Tree]]:
    """One representative of every isomorphism class of trees with m edges,
    for m = 0..max_edges, listed by m.  Each class at m + 1 edges is found
    by attaching a leaf to every vertex of every class at m edges (removing
    a leaf from any tree gives a smaller one) and deduplicating by canonical
    code: an enumeration that shares no machinery with ``free_trees``."""
    levels = [[Tree(1, ())]]
    for _ in range(max_edges):
        grown: dict = {}
        for t in levels[-1]:
            n = t.vertex_count
            for v in range(n):
                bigger = Tree(n + 1, t.edges + ((v, n),))
                grown.setdefault(canonical_code(bigger), bigger)
        levels.append(list(grown.values()))
    return levels


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


@functools.cache
def workloads():
    """``bench/workloads.py``, loaded from its file: the benchmark's input
    builders, so the tests check the very inputs it times."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def relabeled_twin(n: int, seed: int) -> Tree:
    """The benchmark's relabelled control of its adversarial tree on ``n``
    vertices, drawn with ``random.Random(seed)``."""
    t, ends = workloads().adversarial_tree(n)
    return workloads().relabelled(t, ends, random.Random(seed))


# ----------------------------------------------------------------------
# faulty input and what it raises
# ----------------------------------------------------------------------


def outcome(build):
    """What ``build()`` returns, or the type, message and edge index of the
    ``ValueError`` it raises."""
    try:
        return "ok", build()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def broken_paths(e: tuple, limit: int, rng: random.Random) -> dict:
    """Variants of a valid chain ``e`` over labels 0..limit-1, by the fault
    each puts in.  Only a reversed or a dropped segment may leave a valid
    path; every other variant is broken in both modes."""
    k = len(e) // 2
    j = rng.randrange(k)
    i, i2 = rng.sample(range(2 * k), 2)
    out = {
        "reversed segment": e[: 2 * j] + (e[2 * j + 1], e[2 * j]) + e[2 * j + 2 :],
        "label out of range": e[:i] + (rng.choice([-1, limit, limit + 5]),) + e[i + 1 :],
        "labels out of range at both ends": (limit + 3,) + e[1:-1] + (-2,),
        "repeated label": e[:i] + (e[i2],) + e[i + 1 :],
        "degenerate segment": e[:1] + e[:1] + e[2:],
        "closed chain": e[:-1] + e[:1],  # last edge ends where the first starts
        "walked back along a segment": e[:2] + e[1::-1],  # such as (0, 5, 5, 0)
    }
    if k > 1:
        c = 2 * rng.randrange(k - 1) + 1  # connector (e[c], e[c + 1])
        out["swapped connector ends"] = e[:c] + (e[c + 1], e[c]) + e[c + 2 :]
        out["degenerate connector"] = e[: c + 1] + (e[c],) + e[c + 2 :]
        # a connector running back along the segment before it
        out["shared endpoint"] = e[: c + 1] + (e[c - 1],) + e[c + 2 :]
        # two labels of different segments swapped
        a = 2 * j + rng.randrange(2)
        b = 2 * ((j + rng.randrange(1, k)) % k) + rng.randrange(2)
        swapped = list(e)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        out["not a segment"] = tuple(swapped)
        out["segment dropped"] = e[: 2 * j] + e[2 * j + 2 :]
    return out


# ----------------------------------------------------------------------
# slow oracles, definitions or the quadratic code a kernel replaced:
# heaviest_path_by_all_pairs, max_caterpillar_by_all_pairs,
# very_hungry_max_by_paths, contract_edge (replayed by the two *_by_replay),
# validate_path_by_all_pairs, family_error_by_sorting, fold_by_lists,
# extremal_size_induced_by_residues and ceil_6log3_by_steps
# ----------------------------------------------------------------------


def heaviest_path_by_all_pairs(t: Tree, weight: list) -> tuple[int, ...]:
    """``trees._heaviest_path`` by the definition: the first pair a <= b, in
    lexicographic order, whose a..b path has the largest total weight,
    walked from a to b.  Weights are non-negative, so every path extends to
    one between two leaves that weighs as much, and the largest weight is
    found among the paths from leaves."""
    n = t.vertex_count

    def walk(a: int) -> tuple[list, list]:
        # each vertex's parent towards a, and the weight of its path from a
        parent = [-1] * n
        parent[a] = a
        acc = [0] * n
        acc[a] = weight[a]
        reached = [a]
        for u in reached:
            for w in t.adjacency[u]:
                if parent[w] < 0:
                    parent[w] = u
                    acc[w] = acc[u] + weight[w]
                    reached.append(w)
        return parent, acc

    best = max(max(walk(a)[1]) for a in range(n) if t.degrees[a] <= 1)
    for a in range(n):
        parent, acc = walk(a)
        if max(acc[a:]) == best:
            path = [acc.index(best, a)]
            while path[-1] != a:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
    raise AssertionError("unreachable: a heaviest path has a first pair")


def max_caterpillar_by_all_pairs(t: Tree) -> CaterpillarWitness:
    """``max_caterpillar`` from the all-pairs heaviest path under weights
    deg - 1: that path with every neighbour, spine without leaf ends, size
    the count of induced edges."""
    path = heaviest_path_by_all_pairs(t, [d - 1 for d in t.degrees])
    vertex_set = set(path)
    for v in path:
        vertex_set.update(t.adjacency[v])
    spine = list(path)
    while len(spine) > 1 and t.degrees[spine[0]] == 1:
        spine.pop(0)
    while len(spine) > 1 and t.degrees[spine[-1]] == 1:
        spine.pop()
    size = sum(1 for u, v in t.edges if u in vertex_set and v in vertex_set)
    return CaterpillarWitness(frozenset(vertex_set), tuple(spine), size)


def very_hungry_max_by_paths(t: Tree, root: int) -> int:
    """``very_hungry_max`` by listing every root-to-leaf path and counting
    the edges that touch it."""
    best = 0
    stack = [(root,)]
    while stack:
        path = stack.pop()
        nxt = [w for w in t.adjacency[path[-1]] if w not in path]
        if nxt:
            stack.extend(path + (w,) for w in nxt)
        else:
            best = max(best, sum(1 for u, v in t.edges if u in path or v in path))
    return best


def contract_edge(t: Tree, edge: tuple[int, int]) -> tuple[Tree, dict[int, int]]:
    """Contract one edge; the merged vertex keeps the smaller id and higher
    ids shift down to stay dense.  Returns the new tree and the old-to-new
    vertex mapping.  Raises ValueError unless ``edge`` is a pair of ends of
    an edge of ``t``."""
    try:
        u, v = edge
    except ValueError:  # not a pair, so not an edge
        raise ValueError(f"{edge} is not an edge") from None
    if u > v:
        u, v = v, u
    if (u, v) not in t.edge_set:
        raise ValueError(f"({u}, {v}) is not an edge")
    mapping: dict[int, int] = {}
    for x in range(t.vertex_count):
        if x == v:
            mapping[x] = u
        elif x > v:
            mapping[x] = x - 1
        else:
            mapping[x] = x
    new_edges = [
        (mapping[a], mapping[b]) for a, b in t.edges if (a, b) != (u, v)
    ]
    return Tree(t.vertex_count - 1, tuple(new_edges)), mapping


def contract_all_by_replay(t: Tree, edges, acc: list | None = None) -> tuple:
    """``contraction._contract_all`` one ``contract_edge`` at a time.  Each
    edge names its ends by source ids, and source vertex x is ``acc[x]`` in
    ``t`` (default: x itself).  Returns the contracted tree and ``acc`` for
    it."""
    if acc is None:
        acc = list(range(t.vertex_count))
    for u, v in edges:
        t, mapping = contract_edge(t, (acc[u], acc[v]))
        acc = [mapping[x] for x in acc]
    return t, acc


def contraction_plans_by_replay(t: Tree, ks) -> dict:
    """``contract_to_caterpillar``'s edge sequence and kept caterpillar for
    each k in ``ks``, built on the all-pairs diameter path and replayed
    one ``contract_edge`` at a time.  A smaller k's sequence extends a
    larger one's, so one replay serves every k, largest first."""
    dpath = heaviest_path_by_all_pairs(t, [1] * t.vertex_count)
    keep = {(min(a, b), max(a, b)) for a, b in zip(dpath, dpath[1:])}
    leaf_set = {v for v, d in enumerate(t.degrees) if d == 1}
    keep |= {(u, v) for u, v in t.edges if u in leaf_set or v in leaf_set}
    cap = len(leaf_set) + len(dpath) - 3
    base = []
    seen = [False] * t.vertex_count
    seen[dpath[0]] = True
    stack = [dpath[0]]
    while stack:
        u = stack.pop()
        for w in reversed(t.adjacency[u]):
            if not seen[w]:
                seen[w] = True
                e = (min(u, w), max(u, w))
                if e not in keep:
                    base.append(e)
                stack.append(w)
    current, acc = t, None
    done = 0
    plans = {}
    for k in sorted(set(ks), reverse=True):
        seq = base + sorted(keep)[: cap - k]
        current, acc = contract_all_by_replay(current, seq[done:], acc)
        done = len(seq)
        assert is_caterpillar(current)[0] and current.m == k
        plans[k] = (tuple(seq), current)
    return plans


def _interleave(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Cyclic interleaving of two endpoint pairs sharing no endpoint."""
    a, b = p
    if a > b:
        a, b = b, a
    c, d = q
    return c != a and c != b and d != a and d != b and (a < c < b) != (a < d < b)


def validate_path_by_all_pairs(
    s: SegmentFamily, p: AlternatingPath, mode: str
) -> PathReport:
    """``validate_path`` testing every pair of chain edges for a crossing,
    and in 'compatible' mode every unused segment against every chain edge."""
    if mode == "among":
        mode = "simple"
    if mode not in ("simple", "compatible"):
        raise ValueError(f"unknown mode {mode!r}")
    issues: list[str] = []
    e = p.endpoints
    limit = 2 * s.n
    for x in e:
        if not 0 <= x < limit:
            issues.append(f"label {x} out of range 0..{limit - 1}")
    if len(set(e)) != len(e):
        dups = sorted({x for x in e if e.count(x) > 1})
        issues.append(f"repeated labels {dups}")
    family = frozenset(s.pairs)
    for i in range(0, len(e) - 1, 2):
        seg = (min(e[i], e[i + 1]), max(e[i], e[i + 1]))
        if seg not in family:
            issues.append(f"position {i}: ({e[i]}, {e[i + 1]}) is not a segment")
    edges = p.edges()
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if _interleave(edges[i], edges[j]):
                issues.append(f"chain edges {edges[i]} and {edges[j]} cross")
    if mode == "compatible":
        used = {(min(a, b), max(a, b)) for a, b in edges}
        for seg in s.pairs:
            if seg in used:
                continue
            for edge in edges:
                if _interleave(seg, edge):
                    issues.append(f"chain edge {edge} crosses unused segment {seg}")
    return PathReport(not issues, mode, tuple(issues))


def family_error_by_sorting(pairs) -> str | None:
    """The error ``SegmentFamily(len(pairs), pairs)`` raises, None if none:
    the first degenerate pair in sorted order, then a sorted comparison of
    all labels with 0..2n-1, then a stack scan over the labels in order
    for the first crossing."""
    norm = sorted((min(a, b), max(a, b)) for a, b in pairs)
    for a, b in norm:
        if a == b:
            return f"degenerate segment ({a}, {b})"
    if sorted(x for pair in norm for x in pair) != list(range(2 * len(norm))):
        return "segments must perfectly match labels 0..2n-1"
    partner = {}
    for a, b in norm:
        partner[a] = b
        partner[b] = a
    stack: list[int] = []
    for x in range(len(partner)):
        if partner[x] > x:
            stack.append(x)
        elif stack[-1] == partner[x]:
            stack.pop()
        else:
            top = stack[-1]
            return f"segments ({partner[x]}, {x}) and ({top}, {partner[top]}) cross"
    return None


def fold_by_lists(m: int, checks) -> list:
    """The census rows for edge count m from ``(code, score, brute, agrees,
    failure)`` tuples, one per tree: unzipped into lists, so every tree needs
    its canonical code, and each minimum breaks ties by that code."""
    codes, scores, brutes, agrees, failures = zip(*checks)
    label = f"m={m}"
    rows = []
    if m < len(FREE_TREE_COUNTS):
        want, got = FREE_TREE_COUNTS[m], len(codes)
        rows.append(CheckRecord("tree-census", label, got == want, str(want), str(got)))
    for section, guarantee, values in (
        ("contraction-bound", contraction_guarantee, scores),
        ("induced-bound", induced_guarantee, brutes),
    ):
        low, code = min(zip(values, codes))
        want, note = guarantee(m), f"worst tree {code}"
        rows.append(CheckRecord(section, label, low == want, str(want), str(low), note))
    clash = min((c for c, ok in zip(codes, agrees) if not ok), default=None)
    rows.append(
        CheckRecord(
            "caterpillar-search",
            label,
            clash is None,
            "dp equals subset search",
            "agree" if clash is None else f"clash at {clash}",
        )
    )
    failed = min(((c, why) for c, why in zip(codes, failures) if why), default=None)
    bad = None if failed is None else "failed at {} ({})".format(*failed)
    rows.append(_verdict("duality", label, "round trips and valid paths", bad))
    return rows


def extremal_size_induced_by_residues(k: int) -> int:
    """``extremal_size_induced(k)`` for k >= 15 by one closed form per
    residue of k mod 6, as the library computed it before every threshold
    became ``branch_star_bound``."""
    assert k >= 15
    r = k % 6
    if r == 0:
        return 3 * (11 * 3 ** ((k - 12) // 6) - 1)
    if r == 1:
        return 5 * (47 * 3 ** ((k - 19) // 6) - 1) // 2
    if r == 2:
        return 3 * (47 * 3 ** ((k - 20) // 6) - 1)
    if r == 3:
        return 5 * (23 * 3 ** ((k - 15) // 6) - 1) // 2
    if r == 4:
        return 3 * (23 * 3 ** ((k - 16) // 6) - 1)
    return 5 * (11 * 3 ** ((k - 11) // 6) - 1) // 2


def ceil_6log3_by_steps(num: int, den: int) -> int:
    """The least j with den^6 * 3^j >= num^6, counting up from j = 0."""
    j, power, target = 0, den**6, num**6
    while power < target:
        power *= 3
        j += 1
    return j


# ----------------------------------------------------------------------
# kernels before their inner loops were tightened, each its kernel's one
# reference: tree_by_set_check, tree_to_segments_by_phase_stack,
# structure_by_index_stack with compatible_chain_by_min_max,
# brute_max_caterpillar_by_subsets, centroids_by_components,
# ahu_code_by_child_lists, parse_tree_by_lines; and validate_path_by_sweep,
# the library's reporter with no accepting scan
# ----------------------------------------------------------------------


def tree_by_set_check(n: int, edges) -> tuple:
    """``Tree(n, edges)``'s validation with a set of seen edges and a
    ``find`` closure, checked in the order range, self-loop, duplicate,
    cycle.  Returns the stored edges, adjacency (each list sorted) and
    degrees, or raises what ``Tree`` raises."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    norm = [(min(u, v), max(u, v)) for u, v in edges]
    if len(norm) != n - 1:
        raise ValueError(f"{n} vertices need {n - 1} edges, got {len(norm)}")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: set = set()
    for index, (u, v) in enumerate(norm):
        if not (0 <= u < n and 0 <= v < n):
            raise _EdgeError(index, f"edge ({u}, {v}) out of range 0..{n - 1}")
        if u == v:
            raise _EdgeError(index, f"self-loop at vertex {u}")
        if (u, v) in seen:
            raise _EdgeError(index, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        ru, rv = find(u), find(v)
        if ru == rv:
            raise _EdgeError(index, f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
    stored = tuple(sorted(norm))
    nbrs: list = [[] for _ in range(n)]
    for u, v in stored:
        nbrs[u].append(v)
        nbrs[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in nbrs)
    return stored, adjacency, tuple(len(a) for a in adjacency)


def tree_to_segments_by_phase_stack(t: Tree, root: int = 0) -> SegmentFamily:
    """``tree_to_segments`` with a stack of (vertex, parent, phase) entries,
    a dict of open labels, and the pairs sorted before the family sorts
    them again."""
    pairs = []
    counter = 0
    stack = [(root, -1, -1)]
    opened = {}
    seen = [False] * t.vertex_count
    while stack:
        v, par, phase = stack.pop()
        if phase == -1:
            seen[v] = True
            if par >= 0:
                opened[v] = counter
                counter += 1
            stack.append((v, par, 1))
            for w in reversed(t.adjacency[v]):
                if not seen[w]:
                    stack.append((w, v, -1))
        elif par >= 0:
            pairs.append((opened[v], counter))
            counter += 1
    return SegmentFamily(t.m, tuple(sorted(pairs)))


def structure_by_index_stack(chords, tree: Tree | None = None) -> tuple:
    """``duality._structure`` keeping a stack of chord indices and reading
    each one's closing label back from ``chords``, plus each cell's boundary
    cycle: (chord, first, second) in walk order, child chords as they open
    and the cell's own chord last, reversed.  Returns (cycles, tree)."""
    n = len(chords)
    cycles: list = [[] for _ in range(n + 1)]
    edges = []
    stack: list = []
    for i, (a, b) in enumerate(chords):
        while stack and chords[stack[-1]][1] < a:
            stack.pop()
        cell = stack[-1] + 1 if stack else 0
        cycles[cell].append((i, a, b))
        edges.append((cell, i + 1))
        stack.append(i)
    for i, (a, b) in enumerate(chords):
        cycles[i + 1].append((i, b, a))
    if tree is None:
        tree = Tree(n + 1, tuple(edges))
    elif tree.edges != tuple(sorted(edges)):
        raise AssertionError("chords do not cut out the tree given as their cells")
    return cycles, tree


def _chain_one_cell_by_modulo(cycle, wanted, entry, entry_point, exit_chord) -> list:
    """One cell of ``compatible_chain_by_min_max``: its chords found with
    ``next(...)`` scans, its boundary walked with ``% size`` rotations."""
    if entry is None:
        items = [it for it in cycle if it[0] in wanted]
        if exit_chord is not None:
            at = next(i for i, it in enumerate(items) if it[0] == exit_chord)
            items = items[at + 1 :] + items[:at] + [items[at]]
        return items
    pos = next(i for i, it in enumerate(cycle) if it[0] == entry)
    _, p_e, q_e = cycle[pos]
    size = len(cycle)
    if entry_point == q_e:
        sweep = [cycle[(pos + 1 + i) % size] for i in range(size - 1)]
    elif entry_point == p_e:
        sweep = [
            (c, q, p)
            for c, p, q in (cycle[(pos - 1 - i) % size] for i in range(size - 1))
        ]
    else:
        raise AssertionError("entry point not on entry chord")
    items = [it for it in sweep if it[0] in wanted]
    if exit_chord is None:
        return items
    at = next(i for i, it in enumerate(items) if it[0] == exit_chord)
    if at == len(items) - 1:
        return items
    tail = [(c, q, p) for c, p, q in reversed(items[at + 1 :])]
    c, p, q = items[at]
    return items[:at] + tail + [(c, q, p)]


def compatible_chain_by_min_max(chords, w: CaterpillarWitness) -> AlternatingPath:
    """``duality._compatible_chain`` normalising cell pairs with ``min`` and
    ``max`` and chaining each cell with ``_chain_one_cell_by_modulo`` over the
    boundary cycles of ``structure_by_index_stack``."""
    cycles, t = structure_by_index_stack(chords)
    cells = set(range(t.vertex_count))
    if not w.vertex_set <= cells or not set(w.spine) <= w.vertex_set:
        raise ValueError("witness does not fit this family's cell tree")
    vs = w.vertex_set
    witness_chords = sorted(v - 1 for u, v in t.edges if u in vs and v in vs)
    if len(witness_chords) != w.size or w.size < 1:
        raise ValueError("witness size disagrees with its induced edges")
    spine = list(w.spine)
    if not spine:
        if w.size != 1:
            raise ValueError("empty spine only fits a single-segment witness")
        spine = [t.adjacency[witness_chords[0] + 1][0]]
    spine_set = set(spine)
    link: dict = {}
    at_cell: dict = {c: [] for c in spine}
    for i in witness_chords:
        a, b = t.adjacency[i + 1][0], i + 1
        if a in spine_set and b in spine_set:
            link[(a, b)] = i
        else:
            host = a if a in spine_set else (b if b in spine_set else None)
            if host is None:
                raise ValueError(f"witness segment {chords[i]} misses the spine")
            at_cell[host].append(i)
    for u, v in zip(spine, spine[1:]):
        if (min(u, v), max(u, v)) not in link:
            raise ValueError("spine cells are not joined by witness segments")
    if len(link) != max(len(spine) - 1, 0):
        raise ValueError("witness segments join non-consecutive spine cells")
    out: list = []
    point = None
    entry = None
    for idx, cell in enumerate(spine):
        exit_chord = None
        if idx + 1 < len(spine):
            u, v = spine[idx], spine[idx + 1]
            exit_chord = link[(min(u, v), max(u, v))]
        wanted = set(at_cell[cell])
        if exit_chord is not None:
            wanted.add(exit_chord)
        if wanted:
            cell_chain = _chain_one_cell_by_modulo(
                cycles[cell], wanted, entry, point, exit_chord
            )
            out += cell_chain
            point = out[-1][2]
        entry = exit_chord
    endpoints: list = []
    for _, a, b in out:
        endpoints += [a, b]
    return AlternatingPath(tuple(endpoints), w.size)


def validate_path_by_sweep(s: SegmentFamily, p: AlternatingPath, mode: str) -> PathReport:
    """``validate_path`` with no accepting scan: ``duality._accepts`` is
    switched off, so every path, valid or not, goes through the reporter's
    segment lookups and ``_crossing_pairs`` sweep."""
    accepts = duality._accepts
    duality._accepts = lambda *args: False
    try:
        return validate_path(s, p, mode)
    finally:
        duality._accepts = accepts


def brute_max_caterpillar_by_subsets(t: Tree) -> int:
    """``oracle.brute_max_caterpillar`` by trying every vertex subset of each
    size, largest first; inside a tree, a vertex subset is a subtree exactly
    when its induced degree sum is twice its size minus two."""
    n = t.vertex_count
    if t.m < 1:
        raise ValueError("needs at least one edge")
    nbr = [0] * n
    for a, b in t.edges:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    for size in range(n, 1, -1):
        for combo in itertools.combinations(range(n), size):
            inside = 0
            for v in combo:
                inside |= 1 << v
            if sum((nbr[v] & inside).bit_count() for v in combo) != 2 * (size - 1):
                continue
            heavy = 0
            for v in combo:
                if (nbr[v] & inside).bit_count() >= 2:
                    heavy |= 1 << v
            if all(
                (nbr[v] & heavy).bit_count() <= 2
                for v in combo
                if (1 << v) & heavy
            ):
                return size - 1
    raise AssertionError("unreachable: every edge is a caterpillar")


def centroids_by_components(t: Tree) -> tuple[int, ...]:
    """``trees.centroids`` by the definition: every vertex's largest
    component, its parent side and each child subtree of a rooting at 0,
    and the vertices where that is least."""
    n = t.vertex_count
    if n == 1:
        return (0,)
    order, parent = _rooted(t, 0)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    best = n + 1
    out: list = []
    for v in range(n):
        parts = [n - size[v]] if v != 0 else []
        parts += [size[w] for w in t.adjacency[v] if parent[w] == v]
        worst = max(parts)
        if worst < best:
            best = worst
            out = [v]
        elif worst == best:
            out.append(v)
    return tuple(sorted(out))


def ahu_code_by_child_lists(t: Tree, root: int) -> bytes:
    """``trees._ahu_code`` listing each vertex's children in a pass of its
    own, then sorting the children's codes in a second pass."""
    order, parent = _rooted(t, root)
    codes: list = [None] * t.vertex_count
    children: list = [[] for _ in range(t.vertex_count)]
    for v in order:
        if v != root:
            children[parent[v]].append(v)
    for v in reversed(order):
        parts = sorted(codes[c] for c in children[v])
        codes[v] = b"(" + b"".join(parts) + b")"
    return codes[root]


def parse_tree_by_lines(text: str) -> Tree:
    """``trees.parse_tree`` by a line loop that judges each line."""
    edges: list[tuple[int, int]] = []
    lines: list[int] = []
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
            edges.append((int(u), int(v)))
        except ValueError:
            raise TreeParseError(
                f"line {lineno}: vertex ids must be base-10 integers"
            ) from None
        lines.append(lineno)
    if not edges:
        raise TreeParseError("no edges found")
    try:
        return Tree(len(edges) + 1, tuple(edges))
    except _EdgeError as exc:
        raise TreeParseError(f"line {lines[exc.index]}: {exc}") from None

