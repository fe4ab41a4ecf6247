import random
from dataclasses import astuple

import pytest

import oracles
from romapprox import layered
from romapprox.cli import _gen_regular
from romapprox.errors import DomainError
from romapprox.instances import GraphInstance, SetFamilyInstance
from romapprox.layered import (
    StageSubgraph,
    bd_is_view,
    bd_maximal_is,
    bd_vc_2approx,
    bd_vc_view,
    bounded_mult_hs,
    hs_view,
)
from romapprox.layers import (
    WORDS_PER_LEVEL,
    LayeredFamilyView,
    LayeredGraphView,
    enumerate_stage,
)
from romapprox.meter import WorkspaceMeter, with_meter
from sample_stages import (
    delete_element_min_live_id,
    delete_high_degree,
    delete_isolated,
    delete_min_live_id,
    delete_uncovered_elements,
)

PATH4 = GraphInstance(4, [(1, 2), (2, 3), (3, 4)])
STAR = GraphInstance(4, [(1, 2), (1, 3), (1, 4)])


def test_bd_vc_frozen():
    assert list(bd_vc_2approx(PATH4)) == [1, 3]
    assert list(bd_vc_2approx(STAR)) == [1]
    assert list(bd_vc_2approx(GraphInstance(3, []))) == []


def test_bd_is_frozen():
    assert list(bd_maximal_is(PATH4)) == [2, 4]
    assert list(bd_maximal_is(STAR)) == [2, 3, 4]
    assert list(bd_maximal_is(GraphInstance(3, []))) == [1, 2, 3]


def test_stage_subgraph_wiring():
    view = bd_vc_view(PATH4)
    sub = StageSubgraph(view.level(0), 1)
    assert sub.out(1) == 2
    assert sub.out(2) == 1
    assert sub.out(3) == 2
    assert list(sub.children(2)) == [1, 3]
    assert list(sub.children(4)) == []


def test_stage_subgraph_level_zero_probes():
    # Liveness is free at level 0, so only the subgraph's own reads show:
    # one rank-i word per out(v), two words per base neighbor of v.
    rng = oracles.make_rng(108)
    for _ in range(10):
        n = rng.randint(1, 8)
        g = GraphInstance(n, oracles.random_graph_max_degree(rng, n, 0.5, 4))
        for memoized in (False, True):
            meter = WorkspaceMeter()
            view = bd_vc_view(g, meter=meter, memoized=memoized)
            for i in range(1, view.depth + 2):
                sub = StageSubgraph(view.level(0), i)
                for v in range(1, n + 1):
                    before = meter.input_accesses
                    sub.out(v)
                    assert meter.input_accesses - before == 1
                    before = meter.input_accesses
                    list(sub.children(v))
                    assert meter.input_accesses - before == 2 * len(g.neighbors(v))


def _neighbor_at(g, v, i):
    """The i-th neighbor of v (1-based, input order), or None."""
    a = g.neighbors(v)
    return a[i - 1] if i <= len(a) else None


def test_stage_subgraph_matches_brute_force():
    rng = oracles.make_rng(109)
    for _ in range(30):
        n = rng.randint(1, 7)
        g = GraphInstance(n, oracles.random_graph_max_degree(rng, n, 0.5, 4))
        for make in (bd_vc_view, bd_is_view):
            ref = make(g)
            for memoized in (False, True):
                view = make(g, memoized=memoized)
                for depth in range(view.depth + 1):
                    for i in range(1, view.depth + 1):
                        sub = StageSubgraph(view.level(depth), i)
                        for v in range(1, n + 1):
                            w = _neighbor_at(g, v, i)
                            if w is not None and not ref.vertex_live(depth, w):
                                w = None
                            assert sub.out(v) == w
                            assert list(sub.children(v)) == [
                                u
                                for u in g.neighbors(v)
                                if _neighbor_at(g, u, i) == v
                                and ref.vertex_live(depth, u)
                            ]


def test_stage_layers_are_disjoint():
    g = GraphInstance(
        8,
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1), (1, 5)],
    )
    view = bd_vc_view(g)
    seen = []
    for i in range(1, view.depth + 1):
        seen.extend(enumerate_stage(view, i, "S"))
    assert len(seen) == len(set(seen))


def test_bd_vc_random_graphs_cover_within_factor_two():
    rng = oracles.make_rng(101)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = oracles.random_graph_max_degree(rng, n, 0.35, 4)
        g = GraphInstance(n, edges)
        got = list(bd_vc_2approx(g))
        assert oracles.is_vertex_cover(edges, got)
        assert len(got) == len(set(got))
        assert len(got) <= 2 * oracles.tau(n, edges)


def test_bd_vc_modes_agree():
    rng = oracles.make_rng(102)
    for _ in range(25):
        n = rng.randint(1, 7)
        edges = oracles.random_graph_max_degree(rng, n, 0.4, 3)
        g = GraphInstance(n, edges)
        audited, snap = with_meter(
            lambda meter: list(bd_vc_2approx(g, meter=meter, space_audit=True))
        )
        assert list(bd_vc_2approx(g)) == audited
        assert snap.charged_peak <= (bd_vc_view(g).depth + 1) * WORDS_PER_LEVEL


def test_bd_is_random_graphs_maximal():
    rng = oracles.make_rng(103)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = oracles.random_graph_max_degree(rng, n, 0.35, 4)
        g = GraphInstance(n, edges)
        got = list(bd_maximal_is(g))
        assert oracles.is_maximal_independent(n, edges, got)


def test_bd_is_modes_agree():
    rng = oracles.make_rng(104)
    for _ in range(25):
        n = rng.randint(1, 7)
        edges = oracles.random_graph_max_degree(rng, n, 0.4, 3)
        g = GraphInstance(n, edges)
        audited, snap = with_meter(
            lambda meter: list(bd_maximal_is(g, meter=meter, space_audit=True))
        )
        assert list(bd_maximal_is(g)) == audited
        assert snap.charged_peak <= (bd_is_view(g).depth + 1) * WORDS_PER_LEVEL


@pytest.mark.parametrize("k, peak", [(10, 124), (20, 164)])
def test_audited_bd_is_peak_grows_along_a_comb(k, peak):
    # Tooth j hangs off spine vertex k + j, and the spine k + 1 .. 2k is
    # a path: max degree 3, so four stages and a frame bound of
    # 5 * WORDS_PER_LEVEL = 160 words.  A kept query recurses once per
    # smaller live candidate neighbour down the spine, one
    # KEPT_FRAME_WORDS frame a level, so the peak is 84 + 4k and passes
    # the bound from k = 20 on: the defect bd_maximal_is documents.
    n = 2 * k
    edges = [(j, k + j) for j in range(1, k + 1)]
    edges += [(k + j, k + j + 1) for j in range(1, k)]
    g = GraphInstance(n, edges)
    audited, snap = with_meter(
        lambda meter: list(bd_maximal_is(g, meter=meter, space_audit=True))
    )
    assert list(bd_maximal_is(g)) == audited
    assert oracles.is_maximal_independent(n, edges, audited)
    assert bd_is_view(g).depth == 4
    assert snap.charged_peak == peak == 84 + layered.KEPT_FRAME_WORDS * k


def test_bd_metered_run_balances():
    g = GraphInstance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])

    def body(meter):
        return list(bd_vc_2approx(g, meter=meter, space_audit=True))

    got, snap = with_meter(body)
    assert oracles.is_vertex_cover(g.edges, got)
    assert snap.charged_peak > 0
    assert snap.pass_estimate >= 2


PETERSEN = GraphInstance(
    10,
    [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
     (6, 8), (7, 9), (8, 10), (9, 6), (10, 7)]
    + [(i, i + 5) for i in range(1, 6)],
)


def test_audited_meter_counts_pinned():
    # Charged words and passes are fixed by the algorithm.  Input probes
    # are pinned to the documented evaluation order: a stage subgraph
    # reads w's rank-i word before asking for w's liveness, so only the
    # walks of neighbors that point elsewhere are saved, the forest
    # walk asks for a parent only on a climb that does not hold it, and
    # the component walk finds its cycle by Brent's method and, for a
    # cycle vertex only, walks the cycle once per banned candidate, the
    # first lap's first read naming the second candidate.
    got, snap = with_meter(
        lambda meter: list(bd_vc_2approx(PETERSEN, meter=meter, space_audit=True))
    )
    assert got == [2, 4, 7, 8, 1, 6, 5]
    assert astuple(snap) == (72, 0, 6021, 3)
    got, snap = with_meter(
        lambda meter: list(bd_maximal_is(PETERSEN, meter=meter, space_audit=True))
    )
    assert got == [1, 3, 9, 10]
    assert astuple(snap) == (96, 0, 4166, 4)


def test_fast_meter_counts_pinned():
    # The fast mode charges its input reads too: a stage's successor
    # scan reads one rank-i word per live vertex (all n at stage 1), and
    # an independent stage reads each scanned list up to the kept
    # neighbor that stops it.  The graph is `romapprox gen regular --n 16
    # --d 3 --seed 0`.
    g = _gen_regular(random.Random(0), 16, 3)
    got, snap = with_meter(lambda meter: list(bd_vc_2approx(g, meter=meter)))
    assert got == [1, 2, 4, 9, 10, 11, 13, 7, 12, 14, 3]
    assert astuple(snap) == (72, 0, 31, 3)
    got, snap = with_meter(lambda meter: list(bd_maximal_is(g, meter=meter)))
    assert got == [3, 6, 7, 8, 14, 16]
    assert astuple(snap) == (28, 0, 42, 4)


def test_audited_bd_vc_accesses_scale_with_components_not_n():
    # A component query's cost follows its own tail and cycle, so
    # doubling n on 3-regular graphs less than quadruples the audited
    # accesses; a chase of n steps per query made it about 7x.
    total = {16: 0, 32: 0}
    for n in total:
        for seed in range(4):
            g = _gen_regular(random.Random(seed), n, 3)
            _, snap = with_meter(
                lambda meter: list(bd_vc_2approx(g, meter=meter, space_audit=True))
            )
            total[n] += snap.input_accesses
    assert total[32] < 4 * total[16]


def test_bounded_mult_hs_frozen():
    f = SetFamilyInstance(4, 2, [(1, 2), (2, 3), (3, 4)])
    assert list(bounded_mult_hs(f)) == [1, 2, 3, 4]
    singles = SetFamilyInstance(1, 1, [(1,), (1,), (1,)])
    assert list(bounded_mult_hs(singles)) == [1]
    disjoint = SetFamilyInstance(5, 2, [(1, 2), (3,), (4, 5)])
    assert list(bounded_mult_hs(disjoint)) == [1, 2, 3, 4, 5]
    empty = SetFamilyInstance(3, 2, [])
    assert list(bounded_mult_hs(empty)) == []


def test_bounded_mult_hs_random_families():
    rng = oracles.make_rng(105)
    for _ in range(50):
        n = rng.randint(1, 8)
        m = rng.randint(0, 6)
        d = rng.randint(1, 3)
        sets = [
            tuple(rng.sample(range(1, n + 1), rng.randint(1, min(d, n))))
            for _ in range(m)
        ]
        f = SetFamilyInstance(n, d, sets)
        got = list(bounded_mult_hs(f))
        assert oracles.hits_all(sets, got)
        assert len(got) == len(set(got))
        assert len(got) <= d * oracles.min_hitting_size(sets)


def test_bounded_mult_hs_modes_agree():
    rng = oracles.make_rng(106)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = rng.randint(0, 4)
        sets = [
            tuple(rng.sample(range(1, n + 1), rng.randint(1, min(2, n))))
            for _ in range(m)
        ]
        f = SetFamilyInstance(n, 2, sets)
        assert list(bounded_mult_hs(f)) == list(bounded_mult_hs(f, space_audit=True))
    # d = 3 and multiplicity up to 3, where an audited hitting stage's
    # inner independent-set queries reach their deepest; every one of
    # these seeded families also stays within the frame bound
    deepest = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        sets = oracles.random_bounded_family(rng, n, rng.randint(0, 10), 3, 3)
        f = SetFamilyInstance(n, 3, sets)
        deepest += f.max_multiplicity() == 3
        audited, snap = with_meter(
            lambda meter: list(bounded_mult_hs(f, meter=meter, space_audit=True))
        )
        assert audited == list(bounded_mult_hs(f))
        assert snap.charged_peak <= (f.max_multiplicity() + 1) * WORDS_PER_LEVEL
    assert deepest


def test_modes_agree_on_empty_inputs():
    for g, cover, independent in (
        (GraphInstance(0, []), [], []),
        (GraphInstance(4, []), [], [1, 2, 3, 4]),
    ):
        for space_audit in (False, True):
            assert list(bd_vc_2approx(g, space_audit=space_audit)) == cover
            assert list(bd_maximal_is(g, space_audit=space_audit)) == independent
    for f, hitting in (
        (SetFamilyInstance(3, 2, []), []),
        (SetFamilyInstance(6, 2, [(2, 4), (4,)]), [2, 4]),
    ):
        for space_audit in (False, True):
            assert list(bounded_mult_hs(f, space_audit=space_audit)) == hitting


def test_modes_agree_on_a_hub_star_and_a_sunflower():
    # Adversarial shapes: a hub of degree 23 on 24 vertices, far above
    # n/2, with two leaf-leaf edges, and four sets sharing one core
    # element, so every set meets every other.
    edges = [(1, v) for v in range(2, 25)] + [(2, 3), (4, 5)]
    g = GraphInstance(24, edges)
    petals = [(1, v) for v in range(2, 6)]
    f = SetFamilyInstance(5, 2, petals)
    delta = hs_view(f).depth
    # A hitting stage's check asks an audited bd_is_view over the stage's
    # intersection graph about the element's own sets only, each up to
    # the inner stage that deletes it.  All delta petals share element
    # 1, so that graph is K_delta; the solve stays within the
    # (delta+1) * WORDS_PER_LEVEL frame bound of the outer view.
    got = {}
    for solve, base, levels in (
        (bd_vc_2approx, g, bd_vc_view(g).depth + 1),
        (bd_maximal_is, g, bd_is_view(g).depth + 1),
        (bounded_mult_hs, f, delta + 1),
    ):
        audited, snap = with_meter(
            lambda meter: list(solve(base, meter=meter, space_audit=True))
        )
        assert list(solve(base)) == audited
        assert snap.charged_peak <= levels * WORDS_PER_LEVEL
        got[solve] = audited
    cover = got[bd_vc_2approx]
    assert oracles.is_vertex_cover(edges, cover)
    assert len(cover) <= 2 * oracles.tau(24, edges)
    assert oracles.is_maximal_independent(24, edges, got[bd_maximal_is])
    hitting = got[bounded_mult_hs]
    assert oracles.hits_all(petals, hitting)
    assert len(hitting) <= f.d * oracles.min_hitting_size(petals)


def test_hs_view_checks():
    f = SetFamilyInstance(3, 2, [(1, 2), (1, 3), (1,)])
    with pytest.raises(DomainError):
        hs_view(object())
    with pytest.raises(DomainError):
        list(bounded_mult_hs(object()))
    view = hs_view(f)
    assert view.depth == 3
    staged = [e for i in range(1, view.depth + 1) for e in enumerate_stage(view, i, "S")]
    assert staged == list(bounded_mult_hs(f))


@pytest.mark.parametrize(
    "k, peak, accesses, passes",
    [
        (2, 88, 487, 2),
        (3, 116, 3_891, 3),
        (4, 144, 15_382, 4),
        (8, 256, 481_036, 8),
    ],
)
def test_audited_hs_meter_on_a_sunflower(k, peak, accesses, passes):
    # k sets (1, v) sharing the core element 1: d = 2, delta = k.  Only
    # stage 1 has candidates, and their intersection graph is K_k.  An
    # element query asks the inner maximal independent set about its own
    # sets only, one stage at a time up to the stage that deletes each,
    # so the charged peak stays within the (delta+1)-level frame bound
    # and the only passes are the k outer stage streams.
    f = SetFamilyInstance(k + 1, 2, [(1, v) for v in range(2, k + 2)])
    got, snap = with_meter(
        lambda meter: list(bounded_mult_hs(f, meter=meter, space_audit=True))
    )
    assert got == [1, 3]
    assert (snap.charged_peak, snap.input_accesses, snap.pass_estimate) == (
        peak,
        accesses,
        passes,
    )
    assert snap.charged_peak <= (k + 1) * WORDS_PER_LEVEL


def _all_pairs_edges(f, positions):
    members = [set(f.set_elements(j)) for j in positions]
    h = len(positions)
    return [
        (a, b)
        for a in range(1, h + 1)
        for b in range(a + 1, h + 1)
        if members[a - 1] & members[b - 1]
    ]


def test_stage_intersection_graph_matches_all_pairs(monkeypatch):
    real = layered._intersection_edges
    calls = []

    def spy(f, positions):
        got = real(f, positions)
        assert got == _all_pairs_edges(f, positions)
        calls.append(len(got))
        return got

    monkeypatch.setattr(layered, "_intersection_edges", spy)
    rng = oracles.make_rng(107)
    for _ in range(30):
        n = rng.randint(1, 9)
        d = rng.randint(1, 3)
        count = [0] * (n + 1)
        sets = []
        for _ in range(rng.randint(0, 8)):
            s = rng.sample(range(1, n + 1), rng.randint(1, min(d, n)))
            if all(count[e] < 3 for e in s):  # multiplicity at most 3
                sets.append(tuple(s))
                for e in s:
                    count[e] += 1
        f = SetFamilyInstance(n, d, sets)
        for space_audit in (False, True):
            list(bounded_mult_hs(f, space_audit=space_audit))
        positions = list(range(1, f.m + 1))
        assert real(f, positions) == _all_pairs_edges(f, positions)
    assert calls and max(calls) > 0


def _stage_stream_error(view, i):
    with pytest.raises(DomainError) as err:
        list(enumerate_stage(view, i, "S"))
    return str(err.value)


def _assert_fast_stage_streams_match_audited(make, rng):
    """``make(memoized)`` builds a fresh view.  Every fast-mode stage
    stream equals the audited one, whether the stages are streamed in
    order, reversed or shuffled, and out-of-range stages raise the same
    DomainError in both modes."""
    audited = make(False)
    depth = audited.depth
    want = {i: list(enumerate_stage(audited, i, "S")) for i in range(1, depth + 1)}
    shuffled = list(range(1, depth + 1))
    rng.shuffle(shuffled)
    for order in (range(1, depth + 1), range(depth, 0, -1), shuffled):
        fast = make(True)
        assert {i: list(enumerate_stage(fast, i, "S")) for i in order} == want
    for i in (-1, 0, depth + 1):
        assert _stage_stream_error(make(True), i) == _stage_stream_error(audited, i)


def test_fast_stage_streams_match_audited():
    rng = oracles.make_rng(110)
    graph_pool = [delete_min_live_id, delete_isolated, lambda: delete_high_degree(2)]
    family_pool = [delete_element_min_live_id, delete_uncovered_elements]
    for _ in range(20):
        n = rng.randint(0, 7)
        g = GraphInstance(n, oracles.random_graph_max_degree(rng, n, 0.4, 3))
        for build in (bd_vc_view, bd_is_view):
            _assert_fast_stage_streams_match_audited(
                lambda memoized: build(g, memoized=memoized), rng
            )
        assert list(bd_maximal_is(g)) == list(bd_maximal_is(g, space_audit=True))
        makers = [rng.choice(graph_pool) for _ in range(rng.randint(1, 4))]
        _assert_fast_stage_streams_match_audited(
            lambda memoized: LayeredGraphView(
                g, [mk() for mk in makers], memoized=memoized
            ),
            rng,
        )
    for _ in range(15):
        n = rng.randint(1, 6)
        sets = [
            tuple(rng.sample(range(1, n + 1), rng.randint(1, min(2, n))))
            for _ in range(rng.randint(0, 4))
        ]
        f = SetFamilyInstance(n, 2, sets)
        _assert_fast_stage_streams_match_audited(
            lambda memoized: hs_view(f, memoized=memoized), rng
        )
        makers = [rng.choice(family_pool) for _ in range(rng.randint(1, 4))]
        _assert_fast_stage_streams_match_audited(
            lambda memoized: LayeredFamilyView(
                f, [mk() for mk in makers], memoized=memoized
            ),
            rng,
        )


def test_fast_star_solves_grow_linearly(monkeypatch):
    # On the star K_{1,n-1} stage 1 takes the hub (or keeps every leaf)
    # and leaves only vertices of degree below every later rank, so a
    # fast solve's input accesses, the ids its stages hand the cover
    # machine and the view's liveness calls all grow linearly in n, not
    # once per vertex per stage.
    counts = {"ids": 0, "live": 0}
    real_members = layered.fast_cover_members

    def members(*args):
        counts["ids"] += len(args[-1])
        return real_members(*args)

    monkeypatch.setattr(layered, "fast_cover_members", members)
    for name in ("vertex_live", "stage_deleted", "_checked_live", "_live", "_recorded_live"):
        real = getattr(LayeredGraphView, name)

        def counted(self, *args, _real=real):
            counts["live"] += 1
            return _real(self, *args)

        monkeypatch.setattr(LayeredGraphView, name, counted)
    for solve in (bd_vc_2approx, bd_maximal_is):
        seen = {}
        for n in (256, 1024):
            star = GraphInstance(n, [(1, v) for v in range(2, n + 1)])
            counts.update(ids=0, live=0)
            _, snap = with_meter(lambda meter: list(solve(star, meter=meter)))
            seen[n] = (snap.input_accesses, counts["ids"], counts["live"])
        for small, large in zip(seen[256], seen[1024]):
            assert large <= 5 * small, (solve.__name__, seen)
