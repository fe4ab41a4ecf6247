import itertools
from dataclasses import astuple

import pytest

import oracles
from romapprox.errors import DomainError
from romapprox.instances import DigraphInstance, GraphInstance
from romapprox.meter import WorkspaceMeter, with_meter
from romapprox import treefunc
from romapprox.treefunc import (
    MACHINE_WORDS,
    FunctionalView,
    RootedTreeView,
    _component_rep,
    component_cover_member,
    euler_tour,
    fast_cover_members,
    functional_max_is,
    functional_min_vc,
    tree_max_is,
    tree_min_vc,
    tree_vertices,
)


def path(n):
    return GraphInstance(n, [(i, i + 1) for i in range(1, n)])


def labelled_trees(n):
    """Every labelled tree on n vertices, as an edge list."""
    for seq in itertools.product(range(1, n + 1), repeat=max(0, n - 2)):
        yield oracles.prufer_decode(list(seq), n)


def test_tree_min_vc_frozen():
    assert list(tree_min_vc(path(4), root=1)) == [1, 3]
    assert list(tree_min_vc(path(4), root=2)) == [2, 3]
    assert list(tree_max_is(path(4), root=1)) == [2, 4]
    assert list(tree_min_vc(GraphInstance(1, []))) == []
    assert list(tree_min_vc(GraphInstance(2, [(1, 2)]), root=1)) == [1]
    assert list(tree_min_vc(GraphInstance(2, [(1, 2)]), root=2)) == [2]


def test_tree_min_vc_leaf_first_child_regression():
    # 1-2, 2-3 (leaf), 2-4, 4-5: vertex 2 sees leaf 3 before internal 4.
    t = GraphInstance(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    got = list(tree_min_vc(t, root=1))
    assert got == [2, 4]
    assert oracles.is_vertex_cover(t.edges, got)
    assert len(got) == oracles.tau(5, t.edges)


def test_star_any_root_is_optimal():
    star = GraphInstance(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert list(tree_min_vc(star, root=1)) == [1]
    assert list(tree_min_vc(star, root=2)) == [1]


def test_tree_rejects_non_trees_and_bad_roots():
    with pytest.raises(DomainError):
        list(tree_min_vc(GraphInstance(3, [(1, 2), (2, 3), (1, 3)])))
    with pytest.raises(DomainError):
        list(tree_min_vc(path(3), root=9))
    # m = n - 1 passes the cheap check, but the search from the root
    # never reaches vertex 4, so the full structure check names it.
    g = GraphInstance(4, [(1, 2), (2, 3), (1, 3)])
    for metered in (False, True):
        with pytest.raises(DomainError, match=r"^not a tree: \('disconnected', 4\)$"):
            list(tree_min_vc(g, metered=metered))


def test_euler_tour_frozen_and_lengths():
    t = path(3)
    assert list(euler_tour(t, 2)) == [(2, 1), (1, 2), (2, 3), (3, 2)]
    single = GraphInstance(1, [])
    assert list(euler_tour(single, 1)) == []
    rng = oracles.make_rng(5)
    for _ in range(25):
        n = rng.randint(2, 12)
        t = GraphInstance(n, oracles.random_tree_edges(rng, n))
        root = rng.randint(1, n)
        steps = list(euler_tour(t, root))
        assert len(steps) == 2 * (n - 1)
        assert steps[0][0] == root and steps[-1][1] == root


def test_euler_tour_charges_primitive_words_only():
    def body(meter):
        return list(euler_tour(path(5), 1, meter=meter))

    steps, snap = with_meter(body)
    assert len(steps) == 8
    assert snap.primitive_words == 8
    assert snap.charged_peak == 0
    assert snap.input_accesses > 0


def _tour_against_oracle(n, edges, root, masked=None):
    t = GraphInstance(n, edges)
    walked, snap = with_meter(
        lambda meter: list(euler_tour(t, root, meter, masked))
    )
    assert (walked, snap.primitive_words, snap.input_accesses) == oracles.euler_tour(
        n, edges, root, masked
    )
    assert snap.charged_peak == 0
    return walked


def test_euler_tour_matches_probe_oracle_on_all_small_trees():
    for n in range(1, 8):
        for seq in itertools.product(range(1, n + 1), repeat=max(0, n - 2)):
            edges = oracles.prufer_decode(list(seq), n)
            for root in range(1, n + 1):
                _tour_against_oracle(n, edges, root)


def test_masked_euler_tour_walks_the_branch_on_all_small_trees():
    # The branch tour is the plain tour of the tree with the masked
    # vertex's edges removed; only its probes differ.
    for n in range(2, 8):
        for edges in labelled_trees(n):
            for root in range(1, n + 1):
                for masked in {w for e in edges if root in e for w in e} - {root}:
                    walked = _tour_against_oracle(n, edges, root, masked)
                    kept = [e for e in edges if masked not in e]
                    assert walked == oracles.euler_tour(n, kept, root)[0]


def test_euler_tour_matches_probe_oracle_on_stars():
    n = 9
    edges = [(1, v) for v in range(2, n + 1)]
    # every arrival at the centre scans the centre's list for its slot
    for root in (1, 2, n):
        walked = _tour_against_oracle(n, edges, root)
        assert len(walked) == 2 * (n - 1)


def test_metered_tree_meter_counts_pinned():
    # Pinned to the walk that holds its parent and grandparent and
    # replays only the queried vertex's branch; every replay also pays
    # for the root-degree probe that tells whether its tour is empty.
    caterpillar = GraphInstance(
        9, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (3, 8), (5, 9)]
    )
    for solve, want in ((tree_min_vc, [2, 3, 5]), (tree_max_is, [1, 4, 6, 7, 8, 9])):
        got, snap = with_meter(
            lambda meter: list(solve(caterpillar, meter=meter, metered=True))
        )
        assert got == want
        assert astuple(snap) == (8, 59, 274, 1)


def test_metered_tree_scale_ladder():
    # The charged peak does not grow with n; the access count is pinned.
    snaps = {}
    for n in (32, 128):
        t = GraphInstance(n, oracles.random_tree_edges(oracles.make_rng(f"ladder-{n}"), n))
        got, snaps[n] = with_meter(
            lambda meter: list(tree_min_vc(t, meter=meter, metered=True))
        )
        assert got == list(tree_min_vc(t))
    assert snaps[32].charged_peak == snaps[128].charged_peak == MACHINE_WORDS
    assert snaps[128].input_accesses == 58495


def _modes_agree_on_labelled_trees(n):
    for edges in labelled_trees(n):
        t = GraphInstance(n, edges)
        for root in range(1, n + 1):
            for solve in (tree_min_vc, tree_max_is):
                assert list(solve(t, root=root, metered=True)) == list(
                    solve(t, root=root)
                )


def test_metered_tree_matches_fast_on_all_small_trees():
    for n in range(1, 7):
        _modes_agree_on_labelled_trees(n)


@pytest.mark.slow
def test_metered_tree_matches_fast_on_all_seven_vertex_trees():
    _modes_agree_on_labelled_trees(7)


def test_tree_vertices_enumerates_once():
    rng = oracles.make_rng(9)
    for _ in range(25):
        n = rng.randint(1, 12)
        t = GraphInstance(n, oracles.random_tree_edges(rng, n))
        root = rng.randint(1, n)
        view = RootedTreeView(t, root, meter=WorkspaceMeter())
        seen = list(tree_vertices(view, root))
        assert sorted(seen) == list(range(1, n + 1))


def test_tree_metered_matches_fast_and_oracle():
    rng = oracles.make_rng(21)
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = oracles.random_tree_edges(rng, n)
        t = GraphInstance(n, edges)
        root = rng.randint(1, n)
        fast = list(tree_min_vc(t, root=root))
        metered = list(tree_min_vc(t, root=root, metered=True))
        assert fast == metered
        assert oracles.is_vertex_cover(edges, fast)
        assert len(fast) == oracles.tree_tau_dp(n, edges, root=1)
        indep = list(tree_max_is(t, root=root))
        assert sorted(fast + indep) == list(range(1, n + 1))
        assert oracles.is_independent(edges, indep)


def test_functional_frozen_examples():
    dipath = DigraphInstance(3, [(1, 2), (2, 3)])
    assert list(functional_min_vc(dipath)) == [2]
    assert list(functional_max_is(dipath)) == [1, 3]

    triangle = DigraphInstance(3, [(1, 2), (2, 3), (3, 1)])
    assert list(functional_min_vc(triangle)) == [1, 3]
    assert list(functional_max_is(triangle)) == [2]

    two_cycle = DigraphInstance(2, [(1, 2), (2, 1)])
    assert list(functional_min_vc(two_cycle)) == [1]

    tailed = DigraphInstance(3, [(1, 2), (2, 1), (3, 1)])
    assert list(functional_min_vc(tailed)) == [1]

    star_sink = DigraphInstance(4, [(2, 1), (3, 1), (4, 3)])
    assert list(functional_min_vc(star_sink)) == [1, 3]

    lonely = DigraphInstance(3, [])
    assert list(functional_min_vc(lonely)) == []
    assert list(functional_max_is(lonely)) == [1, 2, 3]


def test_component_rep_frozen():
    d = DigraphInstance(6, [(1, 2), (2, 3), (5, 4), (4, 5), (6, 5)])
    assert _component_rep(FunctionalView(d).out, 1)[0] == 3
    assert _component_rep(FunctionalView(d).out, 3)[0] == 3
    assert _component_rep(FunctionalView(d).out, 6)[0] == 4
    assert _component_rep(FunctionalView(d).out, 5)[0] == 4


def functional_maps(n):
    """Every out-degree <= 1 digraph on n vertices, as an arc list: one
    per map v -> f(v) of the n^n, a fixed point standing for no arc."""
    for f in itertools.product(range(1, n + 1), repeat=n):
        yield [(v, w) for v, w in enumerate(f, 1) if w != v]


def test_functional_metered_matches_fast_on_all_small_maps():
    checked = 0
    for n in range(1, 6):
        for arcs in functional_maps(n):
            d = DigraphInstance(n, arcs)
            for solve in (functional_min_vc, functional_max_is):
                assert list(solve(d, metered=True)) == list(solve(d))
            checked += 1
    assert checked == 1 + 2**2 + 3**3 + 4**4 + 5**5


def test_component_rep_matches_oracle():
    for n in range(1, 6):
        for arcs in functional_maps(n):
            d = DigraphInstance(n, arcs)
            view = FunctionalView(d)
            for v in range(1, n + 1):
                want = oracles.functional_rep(arcs, v)
                assert _component_rep(view.out, v) == want
    rng = oracles.make_rng("component-rep")
    for _ in range(40):
        n = rng.randint(6, 60)
        arcs = oracles.random_functional_arcs(rng, n)
        view = FunctionalView(DigraphInstance(n, arcs))
        for v in range(1, n + 1):
            assert _component_rep(view.out, v)[0] == oracles.functional_rep(arcs, v)[0]


class CountingView:
    """A directed view that counts its ``out`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def out(self, v):
        self.calls += 1
        return self.inner.out(v)


def rho(n, tail, cycle):
    """The path 1 -> ... -> tail + 1 into the cycle tail + 1 -> ... ->
    tail + cycle -> tail + 1; vertices above tail + cycle are isolated."""
    arcs = [(v, v + 1) for v in range(1, tail + cycle)]
    arcs.append((tail + cycle, tail + 1))
    return DigraphInstance(n, arcs)


def test_component_rep_steps_follow_tail_and_cycle_not_n():
    shapes = ((0, 2), (1, 3), (5, 2), (40, 3), (3, 60), (300, 7), (7, 300), (150, 150))
    for tail, cycle in shapes:
        calls = {}
        for n in (tail + cycle, 1000):
            view = CountingView(FunctionalView(rho(n, tail, cycle)))
            calls[n] = []
            for v in range(1, tail + cycle + 1):
                view.calls = 0
                assert _component_rep(view.out, v) == (tail + 1, v > tail)
                assert view.calls <= 2 * max(0, tail + 1 - v) + 4 * cycle
                calls[n].append(view.calls)
        assert calls[tail + cycle] == calls[1000]


def test_off_cycle_queries_skip_the_banned_cover_sweeps(monkeypatch):
    swept = []
    sweep = treefunc._masked_cover_size

    def spy(view, banned):
        swept.append(banned)
        return sweep(view, banned)

    monkeypatch.setattr(treefunc, "_masked_cover_size", spy)
    rng = oracles.make_rng("off-cycle")
    for _ in range(80):
        n = rng.randint(1, 12)
        arcs = oracles.random_functional_arcs(rng, n)
        view = FunctionalView(DigraphInstance(n, arcs))
        fast = fast_cover_members({v: view.out(v) for v in range(1, n + 1)})
        for v in range(1, n + 1):
            swept.clear()
            assert component_cover_member(view, v) == fast[v]
            on_cycle = oracles.functional_rep(arcs, v)[1]
            assert len(swept) == (2 if on_cycle else 0)


def test_functional_rejects_branching():
    with pytest.raises(DomainError):
        list(functional_min_vc(DigraphInstance(3, [(1, 2), (1, 3)])))
    with pytest.raises(DomainError):
        list(functional_max_is(DigraphInstance(3, [(1, 2), (1, 3)]), metered=True))


def test_functional_modes_match_and_are_optimal():
    rng = oracles.make_rng(33)
    for _ in range(120):
        n = rng.randint(1, 10)
        arcs = oracles.random_functional_arcs(rng, n)
        d = DigraphInstance(n, arcs)
        edges = d.underlying_edges()
        fast = list(functional_min_vc(d))
        metered = list(functional_min_vc(d, metered=True))
        assert fast == metered
        assert oracles.is_vertex_cover(edges, fast)
        assert len(fast) == oracles.tau(n, edges)
        indep = list(functional_max_is(d))
        assert indep == list(functional_max_is(d, metered=True))
        assert sorted(fast + indep) == list(range(1, n + 1))
        assert oracles.is_independent(edges, indep)
        assert len(indep) == oracles.mis_size(n, edges)


def test_metered_walks_balance_the_meter():
    d = DigraphInstance(5, [(1, 2), (2, 3), (3, 1), (4, 3), (5, 4)])

    def body(meter):
        return list(functional_min_vc(d, meter=meter, metered=True))

    got, snap = with_meter(body)
    assert oracles.is_vertex_cover(d.underlying_edges(), got)
    assert snap.charged_peak > 0
    assert snap.input_accesses > 0


def test_outputs_are_repeatable():
    d = DigraphInstance(7, [(1, 2), (2, 3), (3, 1), (5, 4), (6, 4), (7, 6)])
    assert list(functional_min_vc(d)) == list(functional_min_vc(d))
    m = WorkspaceMeter()
    first = list(functional_min_vc(d, meter=m, metered=True))
    peak_one = m.charged_peak
    m2 = WorkspaceMeter()
    second = list(functional_min_vc(d, meter=m2, metered=True))
    assert first == second
    assert peak_one == m2.charged_peak
