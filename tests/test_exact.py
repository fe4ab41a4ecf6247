import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from romapprox.errors import DomainError, RefusalError
from romapprox.exact import (
    ProblemKind,
    StructureKind,
    degeneracy,
    degeneracy_order,
    exact_opt,
    find_c4,
    validate,
)
from romapprox.instances import DigraphInstance, GraphInstance, SetFamilyInstance


def path(n):
    return GraphInstance(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return GraphInstance(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete(n):
    return GraphInstance(n, list(itertools.combinations(range(1, n + 1), 2)))


PETERSEN = GraphInstance(
    10,
    [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
     (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
     (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)],
)


def test_exact_vc_frozen_values():
    assert exact_opt(ProblemKind.VC, path(4)) == ((1, 3), 2)
    assert exact_opt(ProblemKind.VC, path(3)) == ((2,), 1)
    assert exact_opt(ProblemKind.VC, complete(3)) == ((1, 2), 2)
    assert exact_opt(ProblemKind.VC, GraphInstance(3, [])) == ((), 0)


def test_exact_is_frozen_values():
    assert exact_opt(ProblemKind.IS, path(4)) == ((1, 3), 2)
    assert exact_opt(ProblemKind.IS, complete(4)) == ((1,), 1)
    assert exact_opt(ProblemKind.IS, GraphInstance(2, [])) == ((1, 2), 2)


def test_exact_maximal_is_is_smallest_maximal():
    star = GraphInstance(4, [(1, 2), (1, 3), (1, 4)])
    assert exact_opt(ProblemKind.MAXIMAL_IS, star) == ((1,), 1)
    assert exact_opt(ProblemKind.MAXIMAL_IS, path(4)) == ((1, 3), 2)


def test_exact_ds_frozen_values():
    assert exact_opt(ProblemKind.DS, path(5)) == ((1, 4), 2)
    assert exact_opt(ProblemKind.DS, complete(4)) == ((1,), 1)
    assert exact_opt(ProblemKind.DS, GraphInstance(3, [])) == ((1, 2, 3), 3)


def test_exact_hs_frozen_values():
    f = SetFamilyInstance(4, 2, [(1, 2), (2, 3), (3, 4)])
    assert exact_opt(ProblemKind.HS, f) == ((1, 3), 2)
    empty = SetFamilyInstance(4, 2, [])
    assert exact_opt(ProblemKind.HS, empty) == ((), 0)


def test_exact_accepts_string_kinds():
    assert exact_opt("vc", path(3))[1] == 1


def test_refusal_above_cap():
    big = GraphInstance(17, [])
    with pytest.raises(RefusalError):
        exact_opt(ProblemKind.VC, big)
    bigf = SetFamilyInstance(13, 2, [(1, 2)])
    with pytest.raises(RefusalError):
        exact_opt(ProblemKind.HS, bigf)


def test_kind_instance_mismatch():
    with pytest.raises(DomainError, match=r"^vc needs a GraphInstance$"):
        exact_opt(ProblemKind.VC, SetFamilyInstance(2, 1, [(1,)]))
    with pytest.raises(DomainError):
        exact_opt(ProblemKind.HS, path(3))


# The instance class each kind reads, written out here so the table in
# ``exact`` is checked, not echoed.
READS = {
    "vc": "GraphInstance",
    "is": "GraphInstance",
    "maximal-is": "GraphInstance",
    "ds": "GraphInstance",
    "hs": "SetFamilyInstance",
    "tree": "GraphInstance",
    "c4free": "GraphInstance",
    "degenerate": "GraphInstance",
    "regular": "GraphInstance",
    "tournament": "DigraphInstance",
    "functional": "DigraphInstance",
}
ONE_OF_EACH = (
    GraphInstance(2, [(1, 2)]),
    DigraphInstance(2, [(1, 2)]),
    SetFamilyInstance(2, 1, [(1,)]),
)


@pytest.mark.parametrize("kind", [k.value for k in (*ProblemKind, *StructureKind)])
def test_wrong_instance_class_names_kind_and_class(kind):
    calls = [lambda inst: validate(kind, inst, candidate=[1], parameter=1)]
    if kind in {k.value for k in ProblemKind}:
        calls.append(lambda inst: exact_opt(kind, inst))
    wrong = [inst for inst in ONE_OF_EACH if type(inst).__name__ != READS[kind]]
    assert len(wrong) == 2
    for inst in wrong:
        for call in calls:
            with pytest.raises(DomainError) as info:
                call(inst)
            assert type(info.value) is DomainError
            assert str(info.value) == f"{kind} needs a {READS[kind]}"


def test_validate_problem_witnesses():
    g = path(4)
    ok, witness = validate(ProblemKind.VC, g, candidate=(2,))
    assert not ok and witness == ("uncovered-edge", (3, 4))
    ok, witness = validate(ProblemKind.VC, g, candidate=(2, 3))
    assert ok and witness is None
    ok, witness = validate(ProblemKind.IS, g, candidate=(1, 2))
    assert not ok and witness == ("adjacent-pair", (1, 2))
    ok, witness = validate(ProblemKind.MAXIMAL_IS, g, candidate=(1,))
    assert not ok and witness == ("extendable-vertex", 3)
    ok, witness = validate(ProblemKind.DS, g, candidate=(1,))
    assert not ok and witness == ("undominated", 3)
    f = SetFamilyInstance(4, 2, [(1, 2), (3, 4)])
    ok, witness = validate(ProblemKind.HS, f, candidate=(1,))
    assert not ok and witness == ("unhit-set", 2)
    ok, witness = validate(ProblemKind.VC, g, candidate=(9,))
    assert not ok and witness == ("bad-id", 9)
    with pytest.raises(DomainError):
        validate(ProblemKind.VC, g)


def test_validate_structures():
    assert validate(StructureKind.TREE, path(4)) == (True, None)
    assert validate(StructureKind.TREE, GraphInstance(0, [])) == (False, ("edge-count", 0))
    ok, witness = validate(StructureKind.TREE, complete(3))
    assert not ok and witness == ("edge-count", 3)
    lollipop = GraphInstance(4, [(1, 2), (2, 3), (1, 3)])
    ok, witness = validate(StructureKind.TREE, lollipop)
    assert not ok and witness == ("disconnected", 4)

    assert validate(StructureKind.C4_FREE, complete(3)) == (True, None)
    assert validate(StructureKind.C4_FREE, cycle(5)) == (True, None)
    ok, witness = validate(StructureKind.C4_FREE, cycle(4))
    assert not ok and witness[0] == "four-cycle"
    ok, _ = validate(StructureKind.C4_FREE, complete(4))
    assert not ok

    assert validate(StructureKind.DEGENERATE, path(5), parameter=1) == (True, None)
    ok, witness = validate(StructureKind.DEGENERATE, cycle(4), parameter=1)
    assert not ok and witness == ("degeneracy", 2)
    with pytest.raises(DomainError):
        validate(StructureKind.DEGENERATE, path(3))

    assert validate(StructureKind.REGULAR, cycle(4), parameter=2) == (True, None)
    ok, witness = validate(StructureKind.REGULAR, path(3), parameter=2)
    assert not ok and witness == ("degree-mismatch", (1, 1))
    assert validate(StructureKind.REGULAR, cycle(6)) == (True, None)

    t = DigraphInstance(3, [(1, 2), (2, 3), (3, 1)])
    assert validate(StructureKind.TOURNAMENT, t) == (True, None)
    broken = DigraphInstance(3, [(1, 2), (2, 1), (2, 3), (3, 1)])
    ok, witness = validate(StructureKind.TOURNAMENT, broken)
    assert not ok and witness == ("pair-arcs", (1, 2, 2))

    fn = DigraphInstance(3, [(1, 2), (2, 3)])
    assert validate(StructureKind.FUNCTIONAL, fn) == (True, None)
    not_fn = DigraphInstance(3, [(1, 2), (1, 3)])
    ok, witness = validate(StructureKind.FUNCTIONAL, not_fn)
    assert not ok and witness == ("out-degree", (1, 2))


def test_degeneracy_frozen_values():
    assert degeneracy(path(6)) == 1
    assert degeneracy(cycle(5)) == 2
    assert degeneracy(complete(4)) == 3
    assert degeneracy(PETERSEN) == 3
    assert degeneracy(GraphInstance(3, [])) == 0


def test_has_c4():
    assert find_c4(cycle(4)) is not None
    assert find_c4(complete(4)) is not None
    assert find_c4(complete(3)) is None
    assert find_c4(cycle(5)) is None
    assert find_c4(PETERSEN) is None


def test_find_c4_matches_pair_scan_oracle():
    rng = oracles.make_rng("find-c4")
    found = 0
    for _ in range(400):
        n = rng.randint(0, 14)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.6))
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        got = find_c4(GraphInstance(n, edges))
        assert got == oracles.find_c4(n, edges)
        found += got is not None
    assert 0 < found < 400


def test_find_c4_large_c4_free():
    rng = oracles.make_rng("find-c4-tree")
    n = 4096
    assert find_c4(GraphInstance(n, oracles.random_tree_edges(rng, n))) is None
    assert find_c4(GraphInstance(n, [(1, v) for v in range(2, n + 1)])) is None


def star_with_c4(n):
    """A star centred on n plus a 4-cycle on its four largest leaves."""
    a, b, c, d = n - 4, n - 3, n - 2, n - 1
    return [(v, n) for v in range(1, n)] + [(a, b), (b, c), (c, d), (d, a)]


def test_find_c4_star_with_c4_on_largest_leaves():
    # Each leaf below the cycle sees the centre's whole neighbourhood, so
    # trying every a in turn would cost Θ(n²) here.
    small = find_c4(GraphInstance(12, star_with_c4(12)))
    assert small == oracles.find_c4(12, star_with_c4(12))
    shift = 4096 - 12
    big = find_c4(GraphInstance(4096, star_with_c4(4096)))
    assert big == tuple(x + shift for x in small)


def test_degeneracy_order_matches_oracle():
    rng = oracles.make_rng("degeneracy-order")
    for _ in range(300):
        n = rng.randint(0, 16)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.8))
        rng.shuffle(edges)
        assert degeneracy_order(GraphInstance(n, edges)) == oracles.degeneracy_order(
            n, edges
        )


def wheel(n):
    """Hub 1 joined to every vertex of the cycle 2..n."""
    rim = [(v, v + 1) for v in range(2, n)] + [(n, 2)]
    return [(1, v) for v in range(2, n + 1)] + rim


def complete_bipartite(a, b):
    return [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)]


def clique_with_tail(k, tail):
    """K_k on 1..k and the path k, k+1, ..., k+tail hanging off it."""
    return list(itertools.combinations(range(1, k + 1), 2)) + [
        (v, v + 1) for v in range(k, k + tail)
    ]


def hub_graph(rng, hubs, leaves):
    """Leaves 1..leaves, each joined to two of the hubs after them.

    The leaves peel at degree 2 while the hubs' degrees fall past that
    bucket, to 1 and 0.
    """
    edges = []
    for v in range(1, leaves + 1):
        for h in rng.sample(range(leaves + 1, leaves + hubs + 1), 2):
            edges.append((v, h))
    return edges


def test_degeneracy_order_matches_oracle_on_structured_shapes():
    rng = oracles.make_rng("degeneracy-shapes")
    shapes = [(n, wheel(n), 3) for n in (4, 5, 17, 200)]
    shapes += [
        (a + b, complete_bipartite(a, b), min(a, b))
        for a, b in ((1, 1), (2, 7), (3, 3), (5, 40), (12, 188))
    ]
    shapes += [
        (k + t, clique_with_tail(k, t), k - 1) for k, t in ((3, 1), (6, 20), (15, 185))
    ]
    shapes += [(h + v, hub_graph(rng, h, v), 2) for h, v in ((2, 10), (5, 60), (8, 192))]
    for n, edges, value in shapes:
        ids = list(range(1, n + 1))
        rng.shuffle(ids)
        relabelled = [(ids[u - 1], ids[v - 1]) for u, v in edges]
        for es in (edges, relabelled):
            got = degeneracy_order(GraphInstance(n, es))
            assert got == oracles.degeneracy_order(n, es)
            assert got[1] == value


def test_degeneracy_long_path_and_star():
    n = 20000
    assert degeneracy_order(path(n)) == (list(range(1, n + 1)), 1)
    star = GraphInstance(n, [(1, v) for v in range(2, n + 1)])
    assert degeneracy_order(star) == (list(range(2, n)) + [1, n], 1)


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return GraphInstance(n, edges)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_vc_is_complementarity_and_oracle_agreement(g):
    cover, vc_size = exact_opt(ProblemKind.VC, g)
    indep, is_size = exact_opt(ProblemKind.IS, g)
    assert vc_size + is_size == g.n
    assert vc_size == oracles.tau(g.n, g.edges)
    assert cover == oracles.min_vertex_cover(g.n, g.edges)
    assert oracles.is_independent(g.edges, indep)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=7))
def test_ds_and_degeneracy_oracle_agreement(g):
    _, size = exact_opt(ProblemKind.DS, g)
    assert size == oracles.min_dominating_size(g.n, g.edges)
    assert degeneracy(g) == oracles.degeneracy_value(g.n, g.edges)
    assert (find_c4(g) is not None) == oracles.has_c4_subgraph(g.n, g.edges)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hs_oracle_agreement(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    d = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=0, max_value=5))
    sets = []
    for _ in range(m):
        size = data.draw(st.integers(min_value=1, max_value=min(d, n)))
        sets.append(tuple(data.draw(st.permutations(range(1, n + 1)))[:size]))
    f = SetFamilyInstance(n, d, sets)
    _, size = exact_opt(ProblemKind.HS, f)
    assert size == oracles.min_hitting_size(sets)
