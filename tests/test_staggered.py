import math
from dataclasses import astuple

import pytest

import oracles
from romapprox.errors import DomainError
from romapprox.instances import DigraphInstance, GraphInstance, SetFamilyInstance
from romapprox.kernels import retention_scan
from romapprox.layers import LayeredFamilyView
from romapprox.meter import with_meter
from romapprox.staggered import (
    FORBIDDEN_CATALOG,
    EpsSchedule,
    _FreqStage,
    del_pi_approx,
    forbidden_family,
    hs_bounded_k,
    hs_eps_approx,
    hs_sqrt_approx,
)

PATH4 = GraphInstance(4, [(1, 2), (2, 3), (3, 4)])
TRIANGLE = GraphInstance(3, [(1, 2), (1, 3), (2, 3)])
K4 = GraphInstance(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])

RESIDUAL_ORACLES = {
    "vc": (oracles.has_induced_k2,),
    "triangle-vd": (oracles.has_induced_k3,),
    "cluster-vd": (oracles.has_induced_p3,),
    "cograph-vd": (oracles.has_induced_p4,),
    "threshold-vd": (
        oracles.has_induced_2k2,
        oracles.has_induced_p4,
        oracles.has_induced_c4,
    ),
    "split-vd": (
        oracles.has_induced_2k2,
        oracles.has_induced_c4,
        oracles.has_induced_c5,
    ),
}


def residual_clean(problem, n, edges, deleted):
    rest = [e for e in edges if e[0] not in deleted and e[1] not in deleted]
    return not any(check(n, rest) for check in RESIDUAL_ORACLES[problem])


def random_tournament(rng, n):
    arcs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def test_eps_schedule_frozen():
    assert EpsSchedule(1, 2).rounds == 1
    assert EpsSchedule(0.5, 2).rounds == 2
    assert EpsSchedule(1, 3).rounds == 2
    assert EpsSchedule(0.5, 3).rounds == 4
    assert EpsSchedule(1, 1).rounds == 1
    sched = EpsSchedule(1, 3)
    assert sched.theta(1, 1) == pytest.approx(2)
    assert sched.kappa(1, 1) == pytest.approx(4)
    for eps in (0, -0.5, 1.5):
        with pytest.raises(DomainError):
            EpsSchedule(eps, 2)
    with pytest.raises(DomainError):
        EpsSchedule(0.5, 0)


def test_hs_bounded_frozen():
    f = SetFamilyInstance(4, 2, [(1, 2), (2, 3), (3, 4)])
    assert hs_bounded_k(f, 2, 1) == [1, 2, 3, 4]

    singletons = SetFamilyInstance(2, 1, [(1,), (2,)])
    assert hs_bounded_k(singletons, 0, 1) is None

    one = SetFamilyInstance(2, 2, [(1, 2)])
    assert hs_bounded_k(one, 0, 1) == [1, 2]

    pairs = SetFamilyInstance(4, 2, [(1, 2), (3, 4)])
    assert hs_bounded_k(pairs, 0, 1) is None

    with pytest.raises(DomainError):
        hs_bounded_k(f, 2, 0)
    with pytest.raises(DomainError):
        hs_bounded_k(f, -1, 1)


@pytest.mark.parametrize("space_audit, accesses", [(True, 6187), (False, 93)])
def test_hs_bounded_meter_pinned(space_audit, accesses):
    # Each round asks only the previous round's survivors, stopping past
    # its cap, and the last round's survivors are the tail: no set is
    # asked twice in a round, nor again once it is dead.  All six sets
    # are retained and three peeling stages run (theta 3^1.5, 3, 3^0.5),
    # the second deleting 1 and 5.  Fast mode: each stage's fill reads
    # the 6 sets' 18 words once, 3 * 18 = 54 accesses, and the rounds
    # ask 6, 6 and 1 sets, 13 * 3 = 39; 54 + 39 = 93.
    f = SetFamilyInstance(
        8, 3, [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 1), (2, 4, 6), (1, 5, 8)]
    )
    got, snap = with_meter(
        lambda meter: hs_bounded_k(f, 2, 0.5, meter=meter, space_audit=space_audit)
    )
    assert got == [1, 5, 2, 4, 6]
    assert astuple(snap) == (48, 0, accesses, 3)


@pytest.mark.parametrize("space_audit", [False, True])
def test_peel_round_cap_admits_exactly_kappa_survivors(space_audit):
    # k = 1, eps = 1, d = 3: one peeling round, theta_1 = 2^1 and cap
    # kappa_1 = 2^2 = 4.  Disjoint triples are all retained and no element
    # reaches theta, so every triple survives round 1: four meet the cap
    # and the survivors' elements are the answer, a fifth exceeds it.
    triples = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)]
    f = SetFamilyInstance(12, 3, triples)
    assert hs_bounded_k(f, 1, 1, space_audit=space_audit) == list(range(1, 13))
    f = SetFamilyInstance(15, 3, triples + [(13, 14, 15)])
    assert hs_bounded_k(f, 1, 1, space_audit=space_audit) is None


def test_fast_peeling_deletions_match_check():
    # Every fast peeling stage deletes exactly the live elements its
    # audited check deletes, ascending: duplicate sets count once each,
    # and elements in no set (ids above the sets' range) never go.
    rng = oracles.make_rng("fast-peeling")
    deleted = 0
    for _ in range(120):
        d = rng.randint(1, 5)
        used = rng.randint(d, 9)
        sets = oracles.random_family(rng, used, rng.randint(0, 16), d)
        sets += [rng.choice(sets)[::-1] for _ in range(rng.randint(0, 3) if sets else 0)]
        rng.shuffle(sets)
        f = SetFamilyInstance(used + rng.randint(0, 3), d, sets)
        thetas = [rng.choice([1, 1.5, 2, 3, 3 ** 0.5, 4]) for _ in range(rng.randint(1, 4))]
        stages = [_FreqStage(j, theta) for j, theta in enumerate(thetas, start=1)]
        view = LayeredFamilyView(f, stages, memoized=True)
        for i, stage in enumerate(stages, start=1):
            level = view.level(i - 1)
            want = [e for e in level.live_ids() if stage.check(level, e)]
            assert stage.deletions(level) == want
            # filling stage i moves live_ids() to the level above
            assert list(view.stage_deletions(i)) == want
            deleted += len(want)
    assert deleted


def test_hs_bounded_random():
    rng = oracles.make_rng("staggered-bounded")
    for _ in range(300):
        n = rng.randint(1, 10)
        d = rng.randint(1, 3)
        sets = oracles.random_family(rng, n, rng.randint(0, 10), d)
        f = SetFamilyInstance(n, d, sets)
        k = rng.randint(0, 4)
        eps = rng.choice([0.5, 1])
        got = hs_bounded_k(f, k, eps)
        if got is None:
            assert oracles.min_hitting_size(sets) > k
            continue
        assert oracles.hits_all(sets, set(got))
        assert len(set(got)) == len(got)
        assert all(1 <= e <= n for e in got)
        cap = (math.ceil((d - 1) / eps) + d) * (k + 1) ** (1 + eps)
        assert len(got) <= cap + 1e-9


def test_hs_eps_frozen():
    f = SetFamilyInstance(6, 2, [(1, 2), (3, 4), (5, 6)])
    assert hs_eps_approx(f, 1) == [1, 2, 3, 4, 5, 6]
    assert hs_eps_approx(SetFamilyInstance(1, 1, [(1,)]), 0.5) == [1]
    with pytest.raises(DomainError):
        hs_eps_approx(f, 0)


def test_hs_eps_random():
    rng = oracles.make_rng("staggered-eps")
    for _ in range(200):
        n = rng.randint(1, 12)
        d = rng.randint(1, 3)
        sets = oracles.random_family(rng, n, rng.randint(0, 10), d)
        f = SetFamilyInstance(n, d, sets)
        eps = rng.choice([0.5, 1])
        got = hs_eps_approx(f, eps)
        assert oracles.hits_all(sets, set(got))
        opt = oracles.min_hitting_size(sets)
        if opt:
            cap = 2 * (math.ceil((d - 1) / eps) + d) * n**eps * opt
            assert len(got) <= cap + 1e-9


def test_hs_modes_agree():
    rng = oracles.make_rng("staggered-modes")
    no_verdicts = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        d = rng.randint(1, 3)
        f = SetFamilyInstance(n, d, oracles.random_family(rng, n, rng.randint(0, 8), d))
        for eps in (1 / 3, 1 / 2, 1):
            for k in range(4):
                fast = hs_bounded_k(f, k, eps)
                assert fast == hs_bounded_k(f, k, eps, space_audit=True)
                no_verdicts += fast is None
            assert hs_eps_approx(f, eps) == hs_eps_approx(f, eps, space_audit=True)
    assert no_verdicts


def test_hs_sqrt_frozen():
    assert hs_sqrt_approx(SetFamilyInstance(1, 1, [(1,)])) == [1]
    f = SetFamilyInstance(3, 1, [(1,), (2,), (3,)])
    assert hs_sqrt_approx(f) == [1, 2, 3]


def test_hs_sqrt_budget_cap_at_a_perfect_power():
    # n = 8, d = 3: the cap ceil(8^(1/3)) = 2 leaves budget 1 the only one
    # tried.  The scan proves it NO (the seven Fano lines on 1..7 plus
    # (1, 2) and (3,)) though budget 2 passes, so the answer is the
    # ground set, not budget 2's retained elements 1..7.
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    f = SetFamilyInstance(8, 3, fano + [(1, 2), (3,)])
    assert retention_scan(f, 1)[2]
    assert not retention_scan(f, 2)[2]
    assert hs_sqrt_approx(f) == list(range(1, 9))


def test_hs_sqrt_random():
    rng = oracles.make_rng("staggered-sqrt")
    for _ in range(200):
        n = rng.randint(1, 10)
        sets = oracles.random_family(rng, n, rng.randint(0, 10), 2)
        f = SetFamilyInstance(n, 2, sets)
        got = hs_sqrt_approx(f)
        assert oracles.hits_all(sets, set(got))
        opt = oracles.min_hitting_size(sets)
        assert len(got) <= 2 * 2 * math.sqrt(n) * (opt + 1) + 1e-9


def test_forbidden_frozen():
    fam = forbidden_family(TRIANGLE, "vc")
    assert fam.sets == ((1, 2), (1, 3), (2, 3))
    assert fam.d == 2

    fam = forbidden_family(K4, "triangle-vd")
    assert fam.sets == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))

    fam = forbidden_family(PATH4, "cluster-vd")
    assert fam.sets == ((1, 2, 3), (2, 3, 4))

    c4 = GraphInstance(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert forbidden_family(c4, "threshold-vd").sets == ((1, 2, 3, 4),)

    c5 = GraphInstance(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    fam = forbidden_family(c5, "split-vd")
    assert fam.sets == ((1, 2, 3, 4, 5),)
    assert fam.d == 5

    cyclic = DigraphInstance(3, [(1, 2), (2, 3), (3, 1)])
    assert forbidden_family(cyclic, "tournament-fvs").sets == ((1, 2, 3),)
    acyclic = DigraphInstance(3, [(1, 2), (1, 3), (2, 3)])
    assert forbidden_family(acyclic, "tournament-fvs").sets == ()


def test_forbidden_family_matches_oracle():
    assert sorted(oracles.FORBIDDEN_SHAPES) == sorted(RESIDUAL_ORACLES)
    rng = oracles.make_rng("forbidden-sets")
    for _ in range(120):
        n = rng.randint(0, 10)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.8))
        rng.shuffle(edges)
        g = GraphInstance(n, edges)
        for problem in sorted(oracles.FORBIDDEN_SHAPES):
            fam = forbidden_family(g, problem)
            sets, d = oracles.forbidden_sets(n, edges, problem)
            assert fam.sets == tuple(sets)
            assert fam.d == d


def test_forbidden_counts_on_long_cycle():
    n = 200
    g = GraphInstance(n, [(i, i % n + 1) for i in range(1, n + 1)])
    for problem in ("cluster-vd", "cograph-vd"):
        assert forbidden_family(g, problem).m == n
    # A 200-cycle has no induced C4 or C5: split-vd's sets are its
    # induced 2K2s, the pairs of edges at least three apart.
    split = forbidden_family(g, "split-vd")
    assert split.m == n * (n - 5) // 2
    assert {len(s) for s in split.sets} == {4}
    assert split.d == 5


def test_forbidden_rejects():
    with pytest.raises(DomainError):
        forbidden_family(TRIANGLE, "chordal-vd")
    with pytest.raises(DomainError):
        forbidden_family(TRIANGLE, "tournament-fvs")
    with pytest.raises(DomainError):
        forbidden_family(DigraphInstance(2, [(1, 2)]), "vc")
    # a 2-cycle and a missing pair, each named by validate's witness
    for arcs, witness in (
        ([(1, 2), (2, 1), (2, 3), (1, 3)], r"\(1, 2, 2\)"),
        ([(1, 2), (2, 3)], r"\(1, 3, 0\)"),
    ):
        with pytest.raises(DomainError, match=r"not a tournament: \('pair-arcs', " + witness):
            forbidden_family(DigraphInstance(3, arcs), "tournament-fvs")


def test_forbidden_equivalence():
    rng = oracles.make_rng("forbidden-equiv")
    problems = sorted(RESIDUAL_ORACLES)
    for _ in range(150):
        n = rng.randint(1, 7)
        edges = oracles.random_graph(rng, n, rng.uniform(0.2, 0.7))
        g = GraphInstance(n, edges)
        problem = rng.choice(problems)
        fam = forbidden_family(g, problem)
        for _ in range(8):
            cand = {v for v in range(1, n + 1) if rng.random() < 0.4}
            hit = oracles.hits_all(list(fam.sets), cand)
            assert hit == residual_clean(problem, n, edges, cand)


def test_forbidden_equivalence_tournament():
    rng = oracles.make_rng("forbidden-equiv-t")
    for _ in range(60):
        n = rng.randint(1, 6)
        arcs = random_tournament(rng, n)
        fam = forbidden_family(DigraphInstance(n, arcs), "tournament-fvs")
        for _ in range(6):
            cand = {v for v in range(1, n + 1) if rng.random() < 0.4}
            rest = [a for a in arcs if a[0] not in cand and a[1] not in cand]
            hit = oracles.hits_all(list(fam.sets), cand)
            assert hit == (not oracles.has_directed_triangle(n, rest))


def test_del_pi_residual():
    rng = oracles.make_rng("del-pi")
    problems = sorted(RESIDUAL_ORACLES)
    for _ in range(120):
        n = rng.randint(1, 8)
        edges = oracles.random_graph(rng, n, rng.uniform(0.2, 0.7))
        g = GraphInstance(n, edges)
        problem = rng.choice(problems)
        eps = rng.choice([0.5, 1])
        out = del_pi_approx(g, problem, eps)
        assert len(set(out)) == len(out)
        assert all(1 <= v <= n for v in out)
        assert residual_clean(problem, n, edges, set(out))


def test_del_pi_residual_tournament():
    rng = oracles.make_rng("del-pi-t")
    for _ in range(40):
        n = rng.randint(1, 7)
        arcs = random_tournament(rng, n)
        out = del_pi_approx(DigraphInstance(n, arcs), "tournament-fvs", 1)
        rest = [a for a in arcs if a[0] not in out and a[1] not in out]
        assert not oracles.has_directed_triangle(n, rest)


def test_catalog_names():
    assert sorted(FORBIDDEN_CATALOG) == [
        "cluster-vd",
        "cograph-vd",
        "split-vd",
        "threshold-vd",
        "tournament-fvs",
        "triangle-vd",
        "vc",
    ]
