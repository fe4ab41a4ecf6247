import itertools
import math
import random
from dataclasses import astuple

import pytest

import oracles
from romapprox.cli import _gen_degenerate
from romapprox.dominating import (
    c4free_ds_approx,
    c4free_ds_bounded_k,
    dgn_dom_set,
    dgn_rounds,
    regular_ds_derand,
)
from romapprox.errors import DomainError, RoundLimitError
from romapprox.instances import GraphInstance
from romapprox.meter import with_meter

STAR6 = GraphInstance(7, [(1, v) for v in range(2, 8)])
PATH5 = GraphInstance(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
K4 = GraphInstance(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
C6 = GraphInstance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
PETERSEN = GraphInstance(
    10,
    [
        (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
        (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
        (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),
    ],
)


def test_c4free_frozen():
    assert c4free_ds_bounded_k(STAR6, 2) == [1]
    assert c4free_ds_bounded_k(PATH5, 1) is None
    assert c4free_ds_bounded_k(GraphInstance(1, []), 0) is None
    assert c4free_ds_bounded_k(GraphInstance(0, []), 0) == []
    with pytest.raises(DomainError):
        c4free_ds_bounded_k(STAR6, -1)


def test_c4free_approx_frozen():
    assert c4free_ds_approx(STAR6) == [1]
    assert c4free_ds_approx(PATH5) == [1, 2, 3, 4, 5]
    assert c4free_ds_approx(GraphInstance(1, [])) == [1]


def test_c4free_random():
    rng = oracles.make_rng("c4free-ds")
    for _ in range(300):
        n = rng.randint(1, 12)
        edges = oracles.random_c4free(rng, n)
        g = GraphInstance(n, edges)
        k = rng.randint(0, 4)
        got = c4free_ds_bounded_k(g, k)
        if got is None:
            assert oracles.min_dominating_size(n, edges) > k
            continue
        assert oracles.is_dominating(n, edges, set(got))
        assert len(got) <= k + (2 * k + 1) * k


def test_c4free_approx_random():
    rng = oracles.make_rng("c4free-approx")
    for _ in range(150):
        n = rng.randint(1, 12)
        edges = oracles.random_c4free(rng, n)
        out = c4free_ds_approx(GraphInstance(n, edges))
        assert oracles.is_dominating(n, edges, set(out))


def _budget_loop(g):
    """c4free_ds_approx's rule, one c4free_ds_bounded_k call per budget."""
    root = math.isqrt(g.n)
    cap = root if root * root == g.n else root + 1
    for k in range(1, cap):
        got = c4free_ds_bounded_k(g, k)
        if got is not None:
            return got
    return list(range(1, g.n + 1))


def test_c4free_approx_matches_budget_loop():
    rng = oracles.make_rng("c4free-approx-loop")
    graphs = [GraphInstance(0, []), GraphInstance(1, []), GraphInstance(9, [(2, 5)])]
    for n in (4, 9, 16):
        graphs.append(GraphInstance(n, []))
        graphs.append(GraphInstance(n, [(1, v) for v in range(2, n + 1)]))
        graphs.append(GraphInstance(n, list(itertools.combinations(range(1, n + 1), 2))))
    for _ in range(400):
        n = rng.randint(0, 30)
        graphs.append(GraphInstance(n, oracles.random_graph(rng, n, rng.uniform(0.0, 0.5))))
    for _ in range(50):
        n = rng.randint(1, 40)
        graphs.append(GraphInstance(n, oracles.random_tree_edges(rng, n)))
    fallbacks = 0
    for g in graphs:
        want = _budget_loop(g)
        assert c4free_ds_approx(g) == want
        fallbacks += want == list(range(1, g.n + 1))
    assert fallbacks > 0


def test_c4free_approx_reads_each_adjacency_once():
    out, snap = with_meter(lambda m: c4free_ds_approx(PETERSEN, m))
    assert out == list(range(1, 11))
    assert snap.input_accesses == PETERSEN.n + 2 * PETERSEN.m
    _, snap = with_meter(lambda m: c4free_ds_approx(GraphInstance(1, []), m))
    assert snap.input_accesses == 0


def test_dgn_frozen():
    assert dgn_dom_set(GraphInstance(4, [])) == [1, 2, 3, 4]
    star5 = GraphInstance(6, [(1, v) for v in range(2, 7)])
    assert dgn_dom_set(star5, 1) == [1]
    path4 = GraphInstance(4, [(1, 2), (2, 3), (3, 4)])
    assert dgn_dom_set(path4, 1) == [1, 2, 3, 4]


def test_dgn_partition_invariants():
    rng = oracles.make_rng("dgn-part")
    for _ in range(150):
        n = rng.randint(1, 12)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.5))
        g = GraphInstance(n, edges)
        d = oracles.degeneracy_value(n, edges)
        nbrs = {v: set() for v in range(1, n + 1)}
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        parts = list(dgn_rounds(g, d))
        cap = 2 * math.ceil(math.log2(n + 1)) + 2
        assert len(parts) - 1 <= cap
        assert not parts[-1].w_h
        for part in parts:
            pieces = [part.y, part.b_h, part.b_l, part.w_h, part.w_l]
            assert sum(len(p) for p in pieces) == n
            assert set().union(*pieces) == set(range(1, n + 1))
            closed = set(part.y)
            for u in part.y:
                closed |= nbrs[u]
            assert part.b == closed - part.y
            for v in part.b:
                high = len(nbrs[v] & part.w) >= 2 * d + 1
                assert (v in part.b_h) == high
            for v in part.w:
                live = bool(nbrs[v] & part.w_star)
                assert (v in part.w_h) == live
        for before, after in zip(parts, parts[1:]):
            assert len(after.w_h) < len(before.w_h)


def test_dgn_random():
    rng = oracles.make_rng("dgn-ds")
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.45))
        g = GraphInstance(n, edges)
        d = oracles.degeneracy_value(n, edges)
        if d > 2:
            continue
        out = dgn_dom_set(g, d)
        assert oracles.is_dominating(n, edges, set(out))
        opt = oracles.min_dominating_size(n, edges)
        assert len(out) <= (2 * d + 1) ** 2 * opt


def _dgn_trace(g, d, space_audit):
    """Every yielded partition, then the RoundLimitError text if one is raised."""

    def body(meter):
        parts = []
        try:
            for p in dgn_rounds(g, d, meter=meter, space_audit=space_audit):
                parts.append(tuple(sorted(s) for s in (p.y, p.b_h, p.b_l, p.w_h, p.w_l)))
        except RoundLimitError as exc:
            parts.append(str(exc))
        return parts

    return with_meter(body)


def test_dgn_modes_agree():
    # understated bounds d = 0, 1, 2 make several rounds and round-cap errors
    rng = oracles.make_rng("dgn-modes")
    multi_round = 0
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.5))
        g = GraphInstance(n, edges)
        assert dgn_dom_set(g) == dgn_dom_set(g, space_audit=True)
        for d in (None, 0, 1, 2):
            fast = _dgn_trace(g, d, False)
            assert _dgn_trace(g, d, True) == fast
            parts = fast[0]
            multi_round += isinstance(parts[-1], tuple) and len(parts) >= 3
    assert multi_round > 0


def test_dgn_meter_pinned():
    # (charged_peak, primitive_words, input_accesses, pass_estimate): two
    # partitions, each one 2m-word read of the 94-edge graph's adjacency
    g = _gen_degenerate(random.Random(0), 64, 3)
    for d in (3, None):
        out, snap = with_meter(lambda m: dgn_dom_set(g, d, m))
        assert out == [v for v in range(1, 65) if v != 18]
        assert astuple(snap) == (0, 0, 376, 0)


def test_dgn_round_limit():
    k5 = GraphInstance(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    with pytest.raises(RoundLimitError):
        dgn_dom_set(k5, 1)
    with pytest.raises(DomainError):
        dgn_dom_set(k5, -1)


def test_regular_frozen():
    assert regular_ds_derand(GraphInstance(1, []), 0) == [1]
    assert regular_ds_derand(K4, 3) == [1, 4]
    assert regular_ds_derand(C6, 2) == [1, 3, 4, 6]
    with pytest.raises(DomainError):
        regular_ds_derand(PATH5, 2)
    with pytest.raises(DomainError):
        regular_ds_derand(K4, 2)
    with pytest.raises(DomainError):
        regular_ds_derand(K4, -1)


def test_regular_named_bounds():
    for g, d in ((K4, 3), (C6, 2), (PETERSEN, 3)):
        out = regular_ds_derand(g, d)
        assert oracles.is_dominating(g.n, g.edges, set(out))
        assert len(out) <= g.n * (math.log(d + 1) + 1) / (d + 1) + 1


def test_regular_random():
    rng = oracles.make_rng("regular-ds")
    done = 0
    while done < 100:
        n = rng.randint(1, 16)
        d = rng.randint(0, min(4, n - 1) if n > 1 else 0)
        edges = oracles.random_regular(rng, n, d)
        if edges is None:
            continue
        done += 1
        g = GraphInstance(n, edges)
        out = regular_ds_derand(g, d)
        assert oracles.is_dominating(n, edges, set(out))
        assert len(out) <= n * (math.log(d + 1) + 1) / (d + 1) + 1


def regular_sweep_cases():
    """Sixty seeded (n, edges, d) regular graphs, every other n prime."""
    rng = oracles.make_rng("regular-ds-sweep")
    done = 0
    while done < 60:
        n = rng.choice((2, 3, 5, 7, 11, 13, 17, 19)) if done % 2 else rng.randint(1, 20)
        d = rng.randint(0, min(6, n - 1))
        edges = oracles.random_regular(rng, n, d)
        if edges is None:
            continue
        done += 1
        yield n, edges, d


def test_regular_matches_sweep_oracle():
    for n, edges, d in regular_sweep_cases():
        got = regular_ds_derand(GraphInstance(n, edges), d)
        assert got == oracles.regular_ds_sweep(n, edges, d)


def test_regular_accesses_match_oracle():
    for n, edges, d in regular_sweep_cases():
        _, snap = with_meter(lambda m: regular_ds_derand(GraphInstance(n, edges), d, m))
        assert snap.input_accesses == oracles.regular_ds_accesses(n, edges, d)
    assert oracles.regular_ds_accesses(6, C6.edges, 2) == 366
    assert oracles.regular_ds_accesses(10, PETERSEN.edges, 3) == 1810


def test_regular_meter_matches_per_member_reference():
    # outputs and whole snapshots against the reference that scores one
    # member at a time; d = 0 gives k = 1, so S_f = V
    cases = [(0, [], 0), (1, [], 0), (7, [], 0), *regular_sweep_cases()]
    for n, edges, d in cases:
        g = GraphInstance(n, edges)
        out, snap = with_meter(lambda m: regular_ds_derand(g, d, m))
        assert out == oracles.regular_ds_sweep(n, edges, d)
        assert astuple(snap) == oracles.regular_ds_meter(n, edges, d)


def test_regular_meter():
    # (charged_peak, primitive_words, input_accesses, pass_estimate)
    out, snap = with_meter(lambda m: regular_ds_derand(C6, 2, m))
    assert out == [1, 3, 4, 6]
    assert astuple(snap) == (21, 2, 366, 42)
    _, snap = with_meter(lambda m: regular_ds_derand(PETERSEN, 3, m))
    assert astuple(snap) == (31, 3, 1810, 110)
    _, snap = with_meter(lambda m: regular_ds_derand(GraphInstance(3, []), 0, m))
    assert astuple(snap) == (12, 0, 3, 6)
