import pytest
from hypothesis import given, strategies as st

from romapprox.errors import DomainError, ParseError
from romapprox.instances import (
    DigraphInstance,
    GraphInstance,
    SetFamilyInstance,
    load_digraph,
    load_family,
    load_graph,
    serialize_digraph,
    serialize_family,
    serialize_graph,
)
from romapprox.meter import WorkspaceMeter

PATH4 = "p 4 3\ne 1 2\ne 2 3\ne 3 4\n"
FAMILY = "h 4 3 2\ns 1 2\ns 2 3\ns 3 4\n"


def test_graph_accessors_follow_input_order():
    g = load_graph(PATH4)
    assert (g.n, g.m) == (4, 3)
    assert g.degree(2) == 2
    assert g.neighbors(3) == (2, 4)
    assert g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.edges == ((1, 2), (2, 3), (3, 4))


def test_graph_comments_and_blank_lines():
    text = "c header comment\n\np 2 1\nc mid comment\ne 2 1\n"
    g = load_graph(text)
    assert g.edges == ((2, 1),)
    assert g.neighbors(1) == (2,)


# Comment and blank lines ahead of a fault, so ``ParseError.line`` is
# checked against the text's own numbering: the header sits on line 3.
LEAD = "c instance\n\n"


def assert_parse_error(load, text, line, words):
    with pytest.raises(ParseError, match=words) as info:
        load(text)
    assert info.value.line == line


def test_graph_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 1"):
        load_graph("x 3 1\ne 1 2\n")
    with pytest.raises(ParseError, match="line 2.*self-loop"):
        load_graph("p 3 1\ne 2 2\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        load_graph("p 3 2\ne 1 2\ne 2 1\n")
    with pytest.raises(ParseError, match="line 2.*range"):
        load_graph("p 3 1\ne 1 4\n")
    with pytest.raises(ParseError, match="line 3.*extra"):
        load_graph("p 3 1\ne 1 2\ne 2 3\n")
    with pytest.raises(ParseError, match="expected 2 edge lines"):
        load_graph("p 3 2\ne 1 2\n")
    with pytest.raises(ParseError, match="not an integer"):
        load_graph("p 3 x\n")
    with pytest.raises(ParseError, match="line 1.*empty"):
        load_graph("c only a comment\n")
    graph = LEAD + "p 3 2\ne 1 2\nc next\n\n{}\n"
    digraph = LEAD + "q 3 2\na 1 2\nc next\n\n{}\n"
    for load, text, bad, words in (
        (load_graph, graph, "e 2 2", "self-loop"),
        (load_graph, graph, "e 1 4", "range"),
        (load_graph, graph, "e 2 1", "duplicate"),
        (load_digraph, digraph, "a 2 2", "self-loop"),
        (load_digraph, digraph, "a 1 4", "range"),
        (load_digraph, digraph, "a 1 2", "duplicate"),
    ):
        assert_parse_error(load, text.format(bad), 7, words)
    assert_parse_error(load_graph, LEAD + "p -1 0\n", 3, "nonnegative")
    assert_parse_error(load_digraph, LEAD + "q -1 0\n", 3, "nonnegative")
    # of two faults the first in reading order is named: the duplicate on
    # line 3 comes before the missing third edge line
    assert_parse_error(load_graph, "p 3 3\ne 1 2\ne 2 1\n", 3, "duplicate")


def test_missing_body_lines_are_named_after_the_header():
    # with no body line at all, the first missing one follows the header
    assert_parse_error(load_graph, "c a\nc b\np 3 2\n", 4, "expected 2 edge lines, found 0")
    assert_parse_error(load_digraph, LEAD + "q 3 1\n", 4, "expected 1 arc lines, found 0")
    assert_parse_error(load_family, LEAD + "h 3 2 2\n", 4, "expected 2 set lines, found 0")
    assert_parse_error(load_digraph, "q 3 1\n", 2, "expected 1 arc lines, found 0")
    assert_parse_error(load_family, "h 3 2 2\ns 1 2\n", 3, "expected 2 set lines, found 1")


def test_digraph_allows_two_cycles_rejects_duplicates():
    g = load_digraph("q 3 3\na 1 2\na 2 1\na 2 3\n")
    assert g.out_neighbors(2) == (1, 3)
    assert g.in_neighbors(1) == (2,)
    assert g.has_arc(1, 2) and g.has_arc(2, 1)
    assert g.underlying_edges() == ((1, 2), (2, 3))
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        load_digraph("q 3 3\na 1 2\na 1 2\na 2 3\n")


def test_family_accessors():
    f = load_family(FAMILY)
    assert (f.n, f.m, f.d) == (4, 3, 2)
    assert f.sets == ((1, 2), (2, 3), (3, 4))
    assert f.sets_containing(3) == (2, 3)
    assert f.ith_set_of(3, 1) == 2
    assert f.ith_set_of(3, 2) == 3
    assert f.ith_set_of(3, 3) is None
    assert f.set_elements(2) == (2, 3)


def test_family_parse_errors():
    with pytest.raises(ParseError, match="line 2.*bound"):
        load_family("h 4 1 2\ns 1 2 3\n")
    with pytest.raises(ParseError, match="line 2.*range"):
        load_family("h 4 1 2\ns 1 5\n")
    with pytest.raises(ParseError, match="line 2.*repeats"):
        load_family("h 4 1 2\ns 2 2\n")
    with pytest.raises(ParseError, match="line 2.*empty"):
        load_family("h 4 1 2\ns\n")
    with pytest.raises(ParseError, match="header needs 3 fields"):
        load_family("h 4 1\ns 1\n")
    family = LEAD + "h 4 2 2\ns 1 2\nc next\n\n{}\n"
    for bad, words in (
        ("s", "set 2 is empty"),
        ("s 1 2 3", "bound is 2"),
        ("s 1 5", "range"),
        ("s 2 2", "repeats"),
    ):
        assert_parse_error(load_family, family.format(bad), 7, words)
    assert_parse_error(load_family, LEAD + "h 4 1 0\ns 1\n", 3, "bound must be positive")
    assert_parse_error(load_family, LEAD + "h -1 0 2\n", 3, "nonnegative")


def test_constructor_validation():
    with pytest.raises(DomainError):
        GraphInstance(3, [(1, 1)])
    with pytest.raises(DomainError):
        GraphInstance(3, [(1, 2), (2, 1)])
    with pytest.raises(DomainError):
        DigraphInstance(2, [(1, 2), (1, 2)])
    with pytest.raises(DomainError):
        SetFamilyInstance(3, 2, [(1, 2, 3)])
    with pytest.raises(DomainError):
        SetFamilyInstance(3, 2, [()])


def test_constructors_read_a_generator_once():
    edges = [(1, 2), (2, 3), (4, 1)]
    g = GraphInstance(4, (e for e in edges))
    assert g == GraphInstance(4, edges)
    assert (g.m, g.neighbors(1)) == (3, (2, 4))
    dg = DigraphInstance(4, (a for a in edges))
    assert dg == DigraphInstance(4, edges)
    assert (dg.m, dg.out_neighbors(1)) == (3, (2,))


def test_accessor_domain_errors():
    g = load_graph(PATH4)
    with pytest.raises(DomainError):
        g.degree(0)
    f = load_family(FAMILY)
    with pytest.raises(DomainError):
        f.ith_set_of(5, 1)


_G = load_graph(PATH4)
_DG = load_digraph("q 3 2\na 1 2\na 2 3\n")
_F = load_family(FAMILY)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _G.neighbors(5), DomainError, "vertex 5 out of range 1..4"),
        (lambda: _G.has_edge(0, 1), DomainError, "edge (0, 1) out of range 1..4"),
        (lambda: _DG.out_neighbors(4), DomainError, "vertex 4 out of range 1..3"),
        (lambda: _DG.in_neighbors(0), DomainError, "vertex 0 out of range 1..3"),
        (lambda: _DG.has_arc(1, 4), DomainError, "arc (1, 4) out of range 1..3"),
        (lambda: _F.set_elements(4), DomainError, "set index 4 out of range 1..3"),
        (lambda: _F.sets_containing(0), DomainError, "element 0 out of range 1..4"),
        (lambda: _F.ith_set_of(1, 0), DomainError, "set rank must be positive, got 0"),
        (
            lambda: load_graph("p 3 -1\n"),
            ParseError,
            "line 1: negative line count -1 in graph header",
        ),
    ],
    ids=[
        "neighbors", "has_edge", "out_neighbors", "in_neighbors", "has_arc",
        "set_elements", "sets_containing", "ith_set_of_rank", "negative_line_count",
    ],
)
def test_range_checks_name_the_bad_value(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_metered_accessors_charge_input_accesses():
    g = load_graph(PATH4)
    m = WorkspaceMeter()
    g.degree(2, meter=m)
    g.neighbors(2, meter=m)
    assert m.input_accesses == 3
    assert m.charged_peak == 0


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pool = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return GraphInstance(n, edges)


@st.composite
def families(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=6))
    sets = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(d, n)))
        sets.append(tuple(draw(st.permutations(range(1, n + 1)))[:size]))
    return SetFamilyInstance(n, d, sets)


@given(graphs())
def test_graph_round_trip(g):
    back = load_graph(serialize_graph(g))
    assert back == g and hash(back) == hash(g)


@given(families())
def test_family_round_trip(f):
    back = load_family(serialize_family(f))
    assert back == f and hash(back) == hash(f)


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    arcs = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return DigraphInstance(n, arcs)


@given(digraphs())
def test_digraph_round_trip(g):
    back = load_digraph(serialize_digraph(g))
    assert back == g and hash(back) == hash(g)


@given(graphs())
def test_neighbors_and_has_edge_match_edges(g):
    edges = {frozenset(e) for e in g.edges}
    ids = range(1, g.n + 1)
    for v in ids:
        assert {frozenset((v, w)) for w in g.neighbors(v)} == {e for e in edges if v in e}
    assert all(g.has_edge(u, v) == (frozenset((u, v)) in edges) for u in ids for v in ids)


def test_instance_classes_share_identity_repr_and_text_format():
    pairs = [(1, 2), (3, 2)]
    cases = [
        (GraphInstance(3, pairs), load_graph, serialize_graph,
         "p 3 2\ne 1 2\ne 3 2\n", "GraphInstance(n=3, m=2)"),
        (DigraphInstance(3, pairs), load_digraph, serialize_digraph,
         "q 3 2\na 1 2\na 3 2\n", "DigraphInstance(n=3, m=2)"),
        (SetFamilyInstance(3, 2, [(1, 2), (3,)]), load_family, serialize_family,
         "h 3 2 2\ns 1 2\ns 3\n", "SetFamilyInstance(n=3, m=2, d=2)"),
    ]
    for inst, load, serialize, text, shown in cases:
        assert serialize(inst) == text
        back = load(text)
        assert back == inst and not back != inst and hash(back) == hash(inst)
        assert repr(inst) == repr(back) == shown
    graph, digraph = cases[0][0], cases[1][0]
    assert graph != digraph and digraph != graph
    assert len({graph, digraph}) == 2
    assert GraphInstance(3, pairs[:1]) != graph
    assert SetFamilyInstance(3, 3, [(1, 2), (3,)]) != cases[2][0]
