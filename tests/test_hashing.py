from dataclasses import astuple
from fractions import Fraction

import pytest

import oracles
from romapprox.errors import DomainError
from romapprox.hashing import HashFamily, avg_degree_is, cw_family, least_prime_at_least
from romapprox.instances import GraphInstance
from romapprox.meter import WorkspaceMeter, with_meter

PETERSEN = GraphInstance(
    10,
    [
        (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
        (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
        (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),
    ],
)


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
                rows, unpack = fam.lanes(t, n)
                rows = list(rows)
                assert len(rows) == fam.p - 1
                members = iter(fam)
                for lanes in rows:
                    assert len(lanes) == n + 1 and lanes[0] == 0
                    # bits[x - 1][b]: x's lane of member (a, b)
                    bits = [unpack(lanes[x]) for x in range(1, n + 1)]
                    for b in range(fam.p):
                        f = next(members)
                        want = [x for x in range(1, n + 1) if f(x) <= t]
                        assert [row[b] for row in bits] == [int(x in want) for x in range(1, n + 1)]
                        assert fam.preimage(f.a, f.b, t) == want


def test_lane_sums_do_not_carry():
    # every vertex in every member's preimage: each lane of the sum is n,
    # which must fit the format chosen for the largest lane value
    fam = cw_family(300, 1)
    for largest in (300, 1 << 16, 1 << 32):
        rows, unpack = fam.lanes(1, largest)
        assert unpack(sum(next(rows))) == [300] * fam.p


def test_family_member_lookup():
    fam = cw_family(7, 3)
    assert isinstance(fam, HashFamily)
    (f,) = [g for g in fam if (g.a, g.b) == (2, 4)]
    assert f(5) == (2 * 5 + 4) % 7 % 3 + 1


def _check_best_member(fam, t, table, meter=None):
    """Run ``fam.best_member`` with figures read off ``table``, one entry
    per multiplier, and check it against the per-member reference;
    returns the winner and the snapshot taken before the caller's
    release."""
    if meter is None:
        meter = WorkspaceMeter()
    seen = []

    def figures(lanes, unpack):
        seen.append(lanes)
        return table[len(seen) - 1]

    inside, words = fam.best_member(t, fam.n, figures, meter)
    snap = meter.snapshot()
    (a, b), held, want = oracles.best_member_reference(table)
    assert seen == list(fam.lanes(t, fam.n)[0])
    assert inside == fam.preimage(a, b, t)
    assert words == held == meter.charged_current
    assert astuple(snap) == want
    meter.release(words)
    return (a, b), snap


def test_best_member_all_ties_pick_the_first_member():
    # k = 1 sends every vertex to 1, so every member has S_f = V and the
    # same score; (1, 0) wins and holds its 6 words under every later
    # member, the largest of them (4, 4) with 25
    fam = cw_family(5, 1)
    p = fam.p
    table = [([3] * p, [2] * p, [a * p + b + 1 for b in range(p)]) for a in range(1, p)]
    winner, snap = _check_best_member(fam, 1, table)
    assert winner == (1, 0)
    assert astuple(snap) == (6 + 25, 0, 2 * 20, 20)


def test_best_member_peak_is_held_best_plus_current_member():
    # the best moves to (1, 1) and (1, 3) inside multiplier 1, then to
    # the zero-word (2, 1) and to (2, 4) in multiplier 2; ties with the
    # held score, (2, 0), (2, 3) and all of multiplier 3, never win; the
    # peak 12 is (2, 4)'s 7 held words plus (3, 4)'s 5
    fam = cw_family(4, 2)
    assert fam.p == 5
    table = [
        ([5, 3, 4, 2, 6], [1, 2, 3, 4, 5], [4, 1, 9, 2, 3]),
        ([2, 1, 7, 1, 0], [0, 0, 0, 0, 0], [8, 0, 5, 6, 7]),
        ([0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 2, 3, 4, 5]),
        ([9, 9, 9, 9, 9], [2, 0, 2, 0, 2], [0, 0, 0, 0, 0]),
    ]
    winner, snap = _check_best_member(fam, 1, table)
    assert winner == (2, 4)
    assert astuple(snap) == (12, 0, 26, 20)


def test_best_member_zero_word_winner_holds_nothing():
    fam = cw_family(3, 3)
    p = fam.p
    table = [([a, *[9] * (p - 1)], [0] * p, [0, *[4] * (p - 1)]) for a in range(1, p)]
    winner, snap = _check_best_member(fam, 2, table)
    assert winner == (1, 0)
    assert astuple(snap) == (4, 0, 0, p * (p - 1))


def test_best_member_charges_its_peak_once():
    # (1, 0) wins with 10 words and (1, 1) loses holding 6 on top of
    # them: the peak 16.  (2, 0) then wins with 2 words, and no later
    # member reaches 16 on top of those.  The sweep makes one alloc of
    # the peak and one release down to the winner's 2 words, which the
    # caller then releases.
    fam = cw_family(4, 2)
    table = [
        ([5, 6, 9, 9, 9], [1] * 5, [10, 6, 1, 1, 1]),
        ([3, 9, 9, 9, 9], [1] * 5, [2, 7, 7, 7, 7]),
        ([9] * 5, [1] * 5, [5] * 5),
        ([9] * 5, [1] * 5, [13] * 5),
    ]
    ledger = []

    class Ledger(WorkspaceMeter):
        def alloc(self, words):
            ledger.append(("alloc", words))
            super().alloc(words)

        def release(self, words):
            ledger.append(("release", words))
            super().release(words)

    winner, snap = _check_best_member(fam, 1, table, Ledger())
    assert winner == (2, 0)
    assert astuple(snap) == (16, 0, 20, 20)
    assert ledger == [("alloc", 16), ("release", 14), ("release", 2)]


def test_best_member_matches_per_member_reference():
    # few distinct scores, so ties are common; zero reads and words too
    rng = oracles.make_rng("best-member")
    for _ in range(200):
        n = rng.randint(1, 13)
        k = rng.randint(1, n)
        fam = cw_family(n, k)
        table = [
            tuple([rng.randrange(4) for _ in range(fam.p)] for _ in range(3))
            for _ in range(fam.p - 1)
        ]
        _check_best_member(fam, rng.randint(1, k), table)


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
    # (charged_peak, primitive_words, input_accesses, pass_estimate)
    assert astuple(snap) == (14, 2, 294, 42)
    out, snap = with_meter(lambda m: avg_degree_is(PETERSEN, m))
    assert out == [2, 5, 8]
    assert astuple(snap) == (14, 3, 1209, 110)
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


def test_avg_is_meter_matches_per_member_reference():
    # outputs and whole snapshots against the reference that scores one
    # member at a time, with n = 1, prime n (p = n) and k = 1 (S_f = V)
    rng = oracles.make_rng("avg-is-lanes")
    cases = [(1, []), (2, [(1, 2)]), (7, [(1, 2), (3, 4), (5, 6)])]
    for i in range(80):
        n = rng.choice((2, 3, 5, 7, 11, 13)) if i % 2 else rng.randint(1, 16)
        cases.append((n, oracles.random_graph(rng, n, rng.choice((0.05, 0.2, 0.5, 0.9)))))
    ks = set()
    for n, edges in cases:
        g = GraphInstance(n, edges)
        out, snap = with_meter(lambda m: avg_degree_is(g, m))
        assert out == oracles.avg_degree_is_sweep(n, edges)
        assert astuple(snap) == oracles.avg_degree_is_meter(n, edges)
        if edges:
            ks.add(-(-2 * len(edges) // n))
    assert 1 in ks and max(ks) >= 4


def test_avg_is_rejects():
    with pytest.raises(DomainError):
        avg_degree_is([(1, 2)])
