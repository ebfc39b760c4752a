"""Path validation and compatible chains against their references.

``validate_path`` accepts a valid path with one stack scan over the labels
and sends only a path that fails it through the segment lookups and the
crossing sweep; ``_compatible_chain`` sorts the witness cells and reads
its chords off parent cells.  Each must reproduce its reference in
``helpers``.  ``validate_path_by_sweep`` is ``validate_path`` with the
accepting scan switched off, so the scan must accept exactly the paths
the reporter finds clean; on the census families the reports must also
match ``validate_path_by_all_pairs``, the definition, which shares no code
with the reporter.  ``compatible_chain_by_min_max`` finds the witness
chords with a scan over every tree edge and chains each cell with its own
``_chain_one_cell_by_modulo`` over the boundary cycles that
``structure_by_index_stack`` lists, so it shares no chaining code with the
library.  So the same chain or the same ``ValueError``, and the same
``PathReport``, issues in the same order, on every census class through 10
edges and on broken paths over 250- to 1000-segment families.  The
compatible chain of every census class through 12 edges, and the among
chain over its kept chords, match the reference too.
A valid path never reaches the sweep.  A table pins the outcome of witness
vertices that are floats, bools, strings, negative or past the last cell,
and of witness fields of the wrong kind.
"""

import random

import pytest

import catbound.duality as duality
from catbound import (
    AlternatingPath,
    CaterpillarWitness,
    Tree,
    among_path,
    compatible_path,
    free_trees,
    max_caterpillar,
    tree_from_pruefer,
    tree_to_segments,
    validate_path,
)
from catbound.contraction import _plan
from catbound.duality import _compatible_chain, _structure
from helpers import (
    broken_paths,
    compatible_chain_by_min_max,
    outcome,
    path_tree,
    validate_path_by_all_pairs,
    validate_path_by_sweep,
)

MODES = ("simple", "compatible")


def census_families(edge_counts=range(1, 11)):
    """The family of every census class with one of ``edge_counts`` edges,
    as the census builds it: rooted at 0, so its cell tree is the class's
    own tree."""
    for m in edge_counts:
        for t in free_trees(m):
            yield tree_to_segments(t, 0)


def large_family(name: str):
    shape, n = name.split("-")
    n = int(n)
    if shape == "path":
        return tree_to_segments(path_tree(n + 1), 0)
    rng = random.Random(name)
    t = tree_from_pruefer(tuple(rng.randrange(n + 1) for _ in range(n - 1)), n + 1)
    return tree_to_segments(t, 0)


def reports(family, endpoints, all_pairs: bool = False) -> list:
    """Both modes' reports, each checked against the sweep's and, when
    ``all_pairs`` is set, against the definition's."""
    path = AlternatingPath(tuple(endpoints), len(endpoints) // 2)
    out = []
    for mode in MODES:
        report = validate_path(family, path, mode)
        assert report == validate_path_by_sweep(family, path, mode)
        if all_pairs:  # too slow for the 1,000-segment families
            assert report == validate_path_by_all_pairs(family, path, mode)
        out.append(report)
    return out


def among_chain_input(family):
    """The chords ``among_path`` chains, its kept ones, with their cell tree
    and the plan's witness over it.  The cell tree is the contracted tree,
    whose ids follow the kept chords but not, in general, a preorder."""
    plan, witness = _plan(family._tree)
    dropped = {step.edge[1] - 1 for step in plan.contract_sequence}
    kept = tuple(c for i, c in enumerate(family.pairs) if i not in dropped)
    return kept, _structure(kept, plan.kept_caterpillar), witness


def assert_chains_like_the_edge_scan(family) -> None:
    """The family's compatible chain and its among chain, each against
    ``compatible_chain_by_min_max`` on the same chords and witness."""
    witness = max_caterpillar(family._tree)
    assert _compatible_chain(
        family.pairs, family._tree, witness
    ) == compatible_chain_by_min_max(family.pairs, witness)
    kept, cell_tree, witness = among_chain_input(family)
    among = _compatible_chain(kept, cell_tree, witness)
    assert among == compatible_chain_by_min_max(kept, witness)
    assert among == among_path(family)[0]


def test_every_census_class_chains_like_the_edge_scan(edge_counts=range(1, 13)):
    # CI carries this through the 10,900 classes at m = 13 and 14
    for family in census_families(edge_counts):
        assert_chains_like_the_edge_scan(family)


def test_valid_paths_never_reach_the_crossing_sweep(monkeypatch):
    def never(chords):
        raise AssertionError("a valid path reached the crossing sweep")

    monkeypatch.setattr(duality, "_crossing_pairs", never)
    families = list(census_families())
    families += [large_family(name) for name in ("pruefer-1000", "path-1000")]
    for family in families:
        chain = compatible_path(family, max_caterpillar(family._tree))
        among = among_path(family)[0]
        assert [validate_path(family, chain, mode).ok for mode in MODES] == [True, True]
        assert validate_path(family, among, "simple").ok


def test_every_census_class_reports_broken_paths_like_the_sweep():
    rng = random.Random(15)
    for family in census_families():
        chain = compatible_path(family, max_caterpillar(family._tree))
        among = among_path(family)[0]
        for e in (chain.endpoints, among.endpoints):
            reports(family, e, True)  # the among chain may cross unused segments
            for bad in broken_paths(e, 2 * family.n, rng).values():
                reports(family, bad, True)


@pytest.mark.parametrize("name", ["pruefer-250", "pruefer-1000", "path-250", "path-1000"])
def test_large_families_report_broken_paths_like_the_sweep(name):
    family = large_family(name)
    rng = random.Random(name)
    chain = compatible_path(family, max_caterpillar(family._tree)).endpoints
    among = among_path(family)[0].endpoints
    issues = []
    for e in (chain, among):
        for r in reports(family, e):
            issues += r.issues
        for fault, bad in broken_paths(e, 2 * family.n, rng).items():
            simple, compatible = reports(family, bad)
            # a reversed or dropped segment may still leave a valid path
            assert not compatible.ok or fault.startswith(("reversed", "segment"))
            issues += compatible.issues
    # every kind of issue the reporter writes came up
    for kind in (
        "out of range",
        "repeated labels",
        "is not a segment",
        "chain edges",
        "crosses unused segment",
    ):
        assert any(kind in issue for issue in issues), kind


def witness_variants(w: CaterpillarWitness, count: int, rng: random.Random) -> list:
    """The witness itself and faulty or reshaped copies of it, each with
    vertex set, spine and size."""
    vs, spine, size = w.vertex_set, w.spine, w.size
    leaves = sorted(vs - set(spine))
    others = sorted(set(range(count)) - vs)
    out = [
        (vs, spine, size),
        (vs, spine[::-1], size),
        (vs | {count}, spine, size),
        (vs | {-1}, spine, size),
        (vs, spine, size + 1),
        (vs, spine, 0),
        (vs, (), size),
        (vs, spine[1:], size),
        (vs, spine[:-1], size),
        (vs, spine + spine[-2:-1], size),  # back to a cell already visited
        (vs, spine[::2], size),
    ]
    if leaves:
        out.append((vs - {leaves[0]}, spine, size - 1))
    if others:
        out.append((vs | {others[0]}, spine, size))
        out.append((vs, spine + (others[0],), size))
    cells = list(range(count))
    for _ in range(4):  # random cells, mostly not a caterpillar
        picked = frozenset(rng.sample(cells, rng.randint(1, count)))
        order = rng.sample(sorted(picked), rng.randint(0, len(picked)))
        out.append((picked, tuple(order), rng.randint(0, count)))
    return [(frozenset(v), tuple(s), z) for v, s, z in out]


def assert_witnesses_chain_like_the_edge_scan(family, rng) -> None:
    chords, t = family.pairs, family._tree
    for variant in witness_variants(max_caterpillar(t), t.vertex_count, rng):
        w = CaterpillarWitness(*variant)
        assert outcome(lambda: _compatible_chain(chords, t, w)) == outcome(
            lambda: compatible_chain_by_min_max(chords, w)
        )


def test_faulty_witnesses_raise_like_the_edge_scan_on_census_classes():
    rng = random.Random(7)
    for family in census_families():
        if family.n <= 8:
            assert_witnesses_chain_like_the_edge_scan(family, rng)
    # a single-segment witness may leave its spine empty
    family = tree_to_segments(path_tree(4), 0)
    w = CaterpillarWitness(frozenset({1, 2}), (), 1)
    assert outcome(lambda: _compatible_chain(family.pairs, family._tree, w))[0] == "ok"


@pytest.mark.parametrize("name", ["pruefer-250", "path-250"])
def test_faulty_witnesses_raise_like_the_edge_scan_at_scale(name):
    assert_witnesses_chain_like_the_edge_scan(large_family(name), random.Random(name))


class _Cell(int):
    """An integer vertex id whose type is not ``int``."""


# (name, vertex set, spine, size) of witnesses over the cell tree of
# FAULT_FAMILY, whose largest caterpillar is every cell on spine (1, 2, 3),
# and each one's outcome: a cell is a vertex id, an int as every count is,
# so a float or a bool equal to a cell is no cell
WITNESS_VALUES = [
    ("as found", {0, 1, 2, 3, 4, 5, 6}, (1, 2, 3), "ok"),
    ("float leaf", {0.0, 1, 2, 3, 4, 5, 6}, (1, 2, 3), "does not fit"),
    ("bool cell", {0, True, 2, 3, 4, 5, 6}, (1, 2, 3), "does not fit"),
    ("bool spine", {0, 1, 2, 3, 4, 5, 6}, (True, 2, 3), "does not fit"),
    ("int subclass", set(map(_Cell, range(7))), tuple(map(_Cell, (1, 2, 3))), "ok"),
    ("float spine", {0, 1.0, 2, 3, 4, 5, 6}, (1.0, 2, 3), "does not fit"),
    ("half", {0, 0.5, 1, 2, 3, 4, 5, 6}, (1, 2, 3), "does not fit"),
    ("negative", {-1, 0, 1, 2, 3, 4, 5, 6}, (1, 2, 3), "does not fit"),
    ("past the last cell", {0, 1, 2, 3, 4, 5, 6, 7}, (1, 2, 3), "does not fit"),
    ("string", {"0", 1, 2, 3, 4, 5, 6}, (1, 2, 3), "does not fit"),
    ("spine leaves the set", {0, 1, 2, 4, 5, 6}, (1, 2, 3), "does not fit"),
    ("empty", set(), (), "size disagrees"),
]
FAULT_FAMILY = tree_to_segments(
    Tree(7, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6))), 0
)


@pytest.mark.parametrize("name, vertices, spine, want", WITNESS_VALUES)
def test_witness_vertex_values_get_the_verdicts_of_a_cell_scan(
    name, vertices, spine, want
):
    chords, t = FAULT_FAMILY.pairs, FAULT_FAMILY._tree
    w = CaterpillarWitness(frozenset(vertices), spine, 6)
    if want == "ok":
        chain = _compatible_chain(chords, t, w)
        assert chain == _compatible_chain(chords, t, max_caterpillar(t))
        assert {type(x) for x in chain.endpoints} == {int}
    else:
        with pytest.raises(ValueError, match=want):
            _compatible_chain(chords, t, w)


# witness fields of the wrong kind: each gets the one refusal of a witness
# that does not fit, not an AttributeError or a TypeError
WITNESS_KINDS = {
    "tuple of vertices": ((0, 1, 2, 3, 4, 5, 6), (1, 2, 3)),
    "no spine": (frozenset(range(7)), None),
    "no vertex set": (None, (1, 2, 3)),
    "spine of floats": (frozenset(range(7)), (1.0, 2.0, 3.0)),
}


@pytest.mark.parametrize(
    "vertices, spine", WITNESS_KINDS.values(), ids=list(WITNESS_KINDS)
)
def test_witness_fields_of_the_wrong_kind_do_not_fit(vertices, spine):
    w = CaterpillarWitness(vertices, spine, 6)
    assert outcome(lambda: compatible_path(FAULT_FAMILY, w)) == (
        ValueError,
        "witness does not fit this family's cell tree",
        None,
    )
