"""Tree container, text format, measurements, and canonical codes."""

import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catbound import (
    Tree,
    TreeParseError,
    canonical_code,
    centroids,
    diameter,
    diameter_path,
    extremal_branch_star,
    format_tree,
    free_trees,
    is_caterpillar,
    is_spider,
    parse_tree,
)
from catbound import trees as trees_module
from helpers import (
    contract_edge,
    outcome,
    parse_tree_by_lines,
    path_tree,
    relabeled,
    spider_tree,
    star_tree,
    trees,
)


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def test_edges_are_normalized():
    t = Tree(4, ((2, 1), (0, 1), (3, 2)))
    assert t.edges == ((0, 1), (1, 2), (2, 3))
    assert t.adjacency[1] == (0, 2)
    assert t.degrees == (1, 2, 2, 1)
    assert t.m == 3


@pytest.mark.parametrize(
    "n, edges, hint",
    [
        (0, (), "at least one vertex"),
        (3, ((0, 1),), "need 2 edges"),
        (2, ((0, 0),), "self-loop"),
        (3, ((0, 1), (1, 3)), "out of range"),
        (4, ((0, 1), (0, 1), (2, 3)), "duplicate"),
        (4, ((0, 1), (1, 2), (0, 2)), "cycle"),
        ("3", ((0, 1), (1, 2)), "^vertex_count must be an integer, got '3'$"),
        (2.0, ((0, 1),), "^vertex_count must be an integer, got 2.0$"),
        (True, (), "^vertex_count must be an integer, got True$"),
    ],
)
def test_rejects_non_trees(n, edges, hint):
    with pytest.raises(ValueError, match=hint):
        Tree(n, edges)


@pytest.mark.parametrize(
    "edges, shown",
    [
        (((0, 1.0),), "(0, 1.0)"),
        (((0, "1"),), "(0, '1')"),
        (((1, 2), (0, 1.5)), "(0, 1.5)"),
        (((0, 1, 2),), "(0, 1, 2)"),  # edges of the wrong length
        (((0,),), "(0,)"),
        (((0, 1), (1, 2, 3)), "(1, 2, 3)"),
    ],
)
def test_non_integer_ids_name_the_edge(edges, shown):
    with pytest.raises(ValueError) as caught:
        Tree(len(edges) + 1, edges)
    assert str(caught.value) == f"edge {shown} is not a pair of integer vertex ids"
    assert caught.value.index == len(edges) - 1


def test_tables_are_computed_once_and_pickle_with_the_tree(monkeypatch):
    for name in ("adjacency", "degrees", "edge_set"):
        descriptor = Tree.__dict__[name]
        assert getattr(Tree, name) is descriptor  # class access: the descriptor
        calls = []
        original = descriptor.func

        def counted(t, original=original, calls=calls):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(descriptor, "func", counted)
        t = path_tree(5)
        assert getattr(t, name) is getattr(t, name)
        assert len(calls) == 1
        getattr(path_tree(5), name)  # a new instance computes its own
        assert len(calls) == 2

    t = spider_tree(2, 3)
    tables = (t.adjacency, t.degrees, t.edge_set)
    back = pickle.loads(pickle.dumps(t))
    assert back == t
    assert {"adjacency", "degrees", "edge_set"} <= back.__dict__.keys()
    assert (back.adjacency, back.degrees, back.edge_set) == tables


def test_single_vertex_is_a_tree():
    t = Tree(1, ())
    assert t.m == 0 and t.adjacency == ((),)


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------


def test_parse_ignores_blanks_and_comments():
    t = parse_tree("# a path\n\n0 1\n1 2\n   \n# done\n")
    assert t.edges == ((0, 1), (1, 2))


def test_parse_reads_crlf_tabs_and_free_text_comments():
    assert parse_tree("0 1\r\n\t1 \t 2\t\r\n").edges == ((0, 1), (1, 2))
    # a comment runs to the next \n, whatever it holds
    assert parse_tree(" \t# a\x0cb\u2028c 9 9\n0 1\n").edges == ((0, 1),)


def test_format_is_one_edge_per_line():
    assert format_tree(path_tree(3)) == "0 1\n1 2\n"


@pytest.mark.parametrize(
    "text, hint",
    [
        ("0 1 2\n", "line 1"),
        ("0 1 2\n3\n", "^line 1: expected two vertex ids"),  # 4 ids on 2 lines
        ("0 x\n", "line 1"),
        ("0 -1\n", "line 1"),
        ("0 0\n", "self-loop"),
        ("0 1\n2 3\n1 0\n", "line 3: duplicate"),
        ("0 1\n1 2\n2 0\n3 4\n", "line 3: .* cycle"),
        ("0 1\n0 1\n", "line 2: duplicate"),
        ("0 2\n", "out of range"),
        ("", "no edges"),
        # digits, spaces and line ends only, but not two ids on every line
        ("\n", "^no edges found$"),
        ("0 1\n2\n", "^line 2: expected two vertex ids, got '2'$"),
        ("0 1\n1 5\n", "^line 2: .* out of range"),
        ("0 1_0\n", "^line 1: vertex ids must be base-10 integers$"),
        ("+0 1\n", "^line 1: vertex ids must be base-10 integers$"),
        ("\u0661 0\n", "^line 1: vertex ids must be base-10 integers$"),
        ("0 \uff11\n", "^line 1: vertex ids must be base-10 integers$"),
        ("0 1\n--1 0\n", "^line 2: vertex ids must be base-10 integers$"),
        ("0 -\n", "^line 1: vertex ids must be base-10 integers$"),
        ("0 -1\n", "^line 1: edge \\(-1, 0\\) out of range 0..1$"),
        # only spaces and tabs separate ids, and only \n ends a line
        ("0\u30001\n", "^line 1: expected two vertex ids"),
        ("0\xa01\n", "^line 1: expected two vertex ids"),
        ("0 1\x0c1 2\n2 9\n", "^line 1: expected two vertex ids"),
        ("0 1\x1c1 2\n", "^line 1: expected two vertex ids"),
        ("0 1\u20281 2\n", "^line 1: expected two vertex ids"),
        ("0 1\r1 2\n", "^line 1: expected two vertex ids"),
        ("0 1\n1\x0b 2\n", "^line 2: vertex ids must be base-10 integers$"),
        ("0 1\n\x0c\n", "^line 2: expected two vertex ids"),
        ("0 1\r\r\n", "^line 1: vertex ids must be base-10 integers$"),
    ],
)
def test_parse_errors_carry_line_numbers(text, hint):
    with pytest.raises(TreeParseError, match=hint):
        parse_tree(text)


def test_parse_reads_ascii_digits_after_at_most_one_minus():
    assert parse_tree("00 1\n2 -0\n").edges == ((0, 1), (0, 2))
    # past int()'s conversion limit an id is no base-10 integer either,
    # also in text of format_tree's shape
    for text in ("0 " + "1" * 5000, "0 1\n0 " + "1" * 5000 + "\n"):
        with pytest.raises(TreeParseError, match="^line .: vertex ids must be base-10"):
            parse_tree(text)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n), st.integers(0, n)), min_size=1, max_size=n
        )
    )
)
def test_formatted_text_reads_as_the_line_loop_reads_it(edges):
    # text in format_tree's shape passes the shape check; a comment line
    # after it sends the same lines through the line search
    text = "".join(f"{u} {v}\n" for u, v in edges)
    assert outcome(lambda: parse_tree(text)) == outcome(
        lambda: parse_tree(text + "# end\n")
    )


# ids, their separators and line ends, comment marks, what int() alone would
# read, other Unicode whitespace and other Unicode digits
HOSTILE = "0123 \t\n\r#-+_x\x0b\x0c\x1c\x85\xa0\u2028\u3000\u0661\uff11"


@st.composite
def rewritten_tree_texts(draw):
    """``format_tree`` text of a tree rewritten with CRLF, tabs, extra
    spaces, comment and blank lines, and maybe one line corrupted by a
    character from ``HOSTILE``."""
    pad = st.sampled_from(["", " ", "\t", " \t "])
    gap = st.sampled_from([" ", "  ", "\t"])
    blank_or_comment = st.sampled_from(["", " \t", "# c", " #0 1", "\t#\x85"])
    lines = []
    for u, v in draw(trees(min_vertices=2, max_vertices=10)).edges:
        lines += draw(st.lists(blank_or_comment, max_size=1))
        lines.append(draw(pad) + f"{u}{draw(gap)}{v}" + draw(pad))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.sampled_from(HOSTILE)) + lines[i][j:]
    ends = st.sampled_from(["\n", "\r\n"])
    text = "".join(line + draw(ends) for line in lines[:-1])
    return text + lines[-1] + draw(st.sampled_from(["", "\n", "\r\n"]))


@given(st.text(HOSTILE) | rewritten_tree_texts())
def test_parse_reads_every_text_as_the_line_loop_reads_it(text):
    want = outcome(lambda: parse_tree_by_lines(text))
    assert outcome(lambda: parse_tree(text)) == want


def test_valid_text_never_walks_its_lines(monkeypatch):
    def never(text, edge=-1):
        raise AssertionError("a valid text was walked")

    monkeypatch.setattr(trees_module, "_fault_line", never)
    star = extremal_branch_star(36)
    shaped = format_tree(star)
    rewritten = "# tk-36\r\n\r\n" + "".join(
        f"\t{u}  {v} \r\n" + ("\n# a comment\n" if i % 97 == 0 else "")
        for i, (u, v) in enumerate(star.edges)
    )
    for text in (shaped, rewritten, "0 1\n\n1 2\n", "0 1"):
        assert parse_tree(text) == parse_tree_by_lines(text)
    with pytest.raises(AssertionError, match="a valid text was walked"):
        parse_tree("0 1 2\n")


@given(trees())
def test_format_parse_round_trip(t):
    assert parse_tree(format_tree(t)) == t


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------


def test_leaves_and_diameter():
    assert path_tree(5).degrees.count(1) == 2
    assert star_tree(6).degrees.count(1) == 5
    assert diameter(path_tree(5)) == 4
    assert diameter(star_tree(6)) == 2
    assert diameter(spider_tree(2, 2, 2)) == 4


def test_diameter_path_prefers_smallest_endpoints():
    path = diameter_path(star_tree(5))
    assert path[0] == 1 and path[-1] == 2 and len(path) == 3
    assert diameter_path(path_tree(4)) == (0, 1, 2, 3)


def test_centroids():
    assert centroids(path_tree(5)) == (2,)
    assert centroids(path_tree(4)) == (1, 2)
    assert centroids(star_tree(7)) == (0,)


# ----------------------------------------------------------------------
# caterpillar and spider shape tests
# ----------------------------------------------------------------------


def test_paths_and_stars_are_caterpillars():
    ok, spine = is_caterpillar(path_tree(5))
    assert ok and spine == (1, 2, 3)
    ok, spine = is_caterpillar(star_tree(5))
    assert ok and spine == (0,)
    ok, spine = is_caterpillar(Tree(2, ((0, 1),)))
    assert ok and spine == ()
    ok, spine = is_caterpillar(Tree(1, ()))
    assert ok and spine == (0,)


def test_three_long_legs_break_the_caterpillar():
    ok, spine = is_caterpillar(spider_tree(2, 2, 2))
    assert not ok and spine is None


def test_spider_recognition():
    assert is_spider(spider_tree(3, 1, 2))
    assert is_spider(path_tree(6))  # no vertex of degree > 2 at all
    assert is_spider(star_tree(5))
    two_centers = Tree(
        8,
        ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7)),
    )
    assert not is_spider(two_centers)


# ----------------------------------------------------------------------
# single-edge contraction (``helpers.contract_edge``), which the reference
# contraction plans replay
# ----------------------------------------------------------------------


def test_contract_middle_edge_of_path():
    t, mapping = contract_edge(path_tree(4), (1, 2))
    assert t == path_tree(3)
    assert mapping == {0: 0, 1: 1, 2: 1, 3: 2}


def test_contract_keeps_min_label():
    t, mapping = contract_edge(star_tree(4), (0, 3))
    assert t == star_tree(3)
    assert mapping == {0: 0, 1: 1, 2: 2, 3: 0}


@pytest.mark.parametrize("edge", [(1, 0, 1), (0,), (0, 1, 2)])
def test_contracting_a_non_pair_is_refused(edge):
    with pytest.raises(ValueError, match=re.escape(f"{edge} is not an edge")):
        contract_edge(path_tree(4), edge)


@given(trees(min_vertices=3), st.data())
def test_contract_shrinks_by_one(t, data):
    edge = data.draw(st.sampled_from(t.edges))
    smaller, mapping = contract_edge(t, edge)
    assert smaller.vertex_count == t.vertex_count - 1
    assert smaller.m == t.m - 1
    assert sorted(mapping) == list(range(t.vertex_count))
    a, b = edge
    assert mapping[a] == mapping[b] == min(a, b)


# ----------------------------------------------------------------------
# canonical codes
# ----------------------------------------------------------------------


def test_distinct_classes_get_distinct_codes():
    codes = {canonical_code(t) for t in free_trees(6)}
    assert len(codes) == 11


def test_code_tells_path_from_star():
    assert canonical_code(path_tree(4)) != canonical_code(star_tree(4))
    assert canonical_code(path_tree(2)) == canonical_code(Tree(2, ((1, 0),)))


@given(trees(max_vertices=12), st.data())
def test_code_is_relabeling_invariant(t, data):
    perm = data.draw(st.permutations(list(range(t.vertex_count))))
    assert canonical_code(relabeled(t, perm)) == canonical_code(t)


@given(trees(max_vertices=10))
def test_code_string_form_is_balanced(t):
    text = str(canonical_code(t))
    assert text.count("(") == text.count(")") == t.vertex_count
