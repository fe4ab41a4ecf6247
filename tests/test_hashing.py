from fractions import Fraction

import pytest

import oracles
from romapprox.errors import DomainError
from romapprox.hashing import HashFamily, avg_degree_is, cw_family, least_prime_at_least
from romapprox.instances import GraphInstance
from romapprox.meter import WorkspaceMeter, with_meter


def test_prime_frozen():
    assert least_prime_at_least(1) == 2
    assert least_prime_at_least(2) == 2
    assert least_prime_at_least(3) == 3
    assert least_prime_at_least(4) == 5
    assert least_prime_at_least(40) == 41
    assert least_prime_at_least(90) == 97
    meter = WorkspaceMeter()
    least_prime_at_least(25, meter)
    assert meter.primitive_words > 0


def test_family_frozen():
    fam = cw_family(2, 2)
    assert fam.p == 2
    assert len(fam) == 2
    members = list(fam)
    assert [(f.a, f.b) for f in members] == [(1, 0), (1, 1)]
    f10, f11 = members
    assert (f10(1), f10(2)) == (2, 1)
    assert (f11(1), f11(2)) == (1, 2)


def test_family_rejects():
    with pytest.raises(DomainError):
        cw_family(5, 0)
    with pytest.raises(DomainError):
        cw_family(5, 6)


def test_range_one_is_constant():
    fam = cw_family(5, 1)
    for f in fam:
        assert all(f(x) == 1 for x in range(1, 6))


def test_two_universality_exhaustive():
    for n in range(1, 13):
        for k in range(1, n + 1):
            fam = cw_family(n, k)
            values = [[f(x) for x in range(1, n + 1)] for f in fam]
            bound = len(fam) / k
            for i in range(n):
                for j in range(i + 1, n):
                    hits = sum(1 for row in values if row[i] == row[j])
                    assert hits <= bound


def test_preimages_match_members():
    # at the prime n = 2, 3, 5, 7, 11, 13, p = n and vertex n is 0 mod p
    for n in range(1, 14):
        for k in range(1, n + 1):
            fam = cw_family(n, k)
            for t in range(1, k + 1):
                pre = list(fam.preimages(t))
                assert len(pre) == len(fam)
                for f, got in zip(fam, pre):
                    assert got == [x for x in range(1, n + 1) if f(x) <= t]


def test_family_member_lookup():
    fam = cw_family(7, 3)
    assert isinstance(fam, HashFamily)
    (f,) = [g for g in fam if (g.a, g.b) == (2, 4)]
    assert f(5) == (2 * 5 + 4) % 7 % 3 + 1


def score_average(g):
    """Family average of |S_f| - m_S in exact arithmetic."""
    k = -(-2 * g.m // g.n)
    fam = cw_family(g.n, k)
    total = Fraction(0)
    for f in fam:
        inside = {v for v in range(1, g.n + 1) if f(v) == 1}
        m_s = sum(1 for u, v in g.edges if u in inside and v in inside)
        total += len(inside) - m_s
    return total / len(fam), k, fam.p


def test_expected_score_closed_form():
    rng = oracles.make_rng("hash-expect")
    for _ in range(25):
        n = rng.randint(2, 8)
        edges = oracles.random_graph(rng, n, rng.uniform(0.2, 0.8))
        if not edges:
            continue
        g = GraphInstance(n, edges)
        avg, k, p = score_average(g)
        c1 = -(-p // k)
        expect = Fraction(n * c1, p) - Fraction(g.m * c1 * (c1 - 1), p * (p - 1))
        assert avg == expect
        assert avg >= Fraction(n, 2 * k)


def test_avg_is_frozen():
    assert avg_degree_is(GraphInstance(3, [])) == [1, 2, 3]
    assert avg_degree_is(GraphInstance(2, [(1, 2)])) == [1]


def test_avg_is_c4():
    g = GraphInstance(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    out = avg_degree_is(g)
    assert oracles.is_independent(g.edges, set(out))
    assert len(out) >= 1


def test_avg_is_random():
    rng = oracles.make_rng("avg-is")
    for _ in range(300):
        n = rng.randint(1, 14)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.8))
        g = GraphInstance(n, edges)
        out = avg_degree_is(g)
        assert oracles.is_independent(edges, set(out))
        assert len(set(out)) == len(out)
        if not edges:
            assert out == list(range(1, n + 1))
            continue
        k = -(-2 * len(edges) // n)
        assert len(out) >= n / (2 * k)


def test_avg_is_matches_sweep_oracle():
    rng = oracles.make_rng("avg-is-sweep")
    for i in range(120):
        n = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23)) if i % 2 else rng.randint(1, 24)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.7))
        assert avg_degree_is(GraphInstance(n, edges)) == oracles.avg_degree_is_sweep(n, edges)


def test_avg_is_meter():
    c6 = GraphInstance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    out, snap = with_meter(lambda m: avg_degree_is(c6, m))
    assert out == [2, 4, 6]
    # p = 7 and k = 2, so each of the 42 members sends c = 4 of the 7
    # residues to 1: summed over members, |S_f| is n(p-1)c = 144, each
    # vertex of degree 2, so the sweep reads 2*144 = 288 adjacency words;
    # the winner's final scan over S* = {2, 4, 6} reads 2*3 = 6 more.
    assert (snap.input_accesses, snap.pass_estimate) == (294, 42)
    assert snap.charged_peak > 0
    rng = oracles.make_rng("avg-is-meter")
    for _ in range(40):
        n = rng.randint(1, 14)
        g = GraphInstance(n, oracles.random_graph(rng, n, rng.uniform(0.1, 0.8)))
        _, snap = with_meter(lambda m: avg_degree_is(g, m))
        assert (snap.charged_peak > 0) == (g.m > 0)


def test_avg_is_accesses_match_oracle():
    rng = oracles.make_rng("avg-is-accesses")
    ks = set()
    for _ in range(60):
        n = rng.randint(2, 13)
        edges = oracles.random_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.9)))
        g = GraphInstance(n, edges)
        _, snap = with_meter(lambda m: avg_degree_is(g, m))
        assert snap.input_accesses == oracles.avg_degree_is_accesses(n, edges)
        if edges:
            ks.add(-(-2 * len(edges) // n))
    assert {1, 2} <= ks and max(ks) >= 3


def test_avg_is_rejects():
    with pytest.raises(DomainError):
        avg_degree_is([(1, 2)])
