"""Acceptance gate: one check per numbered criterion.

Each test prints a single "ACCEPTANCE <id>: PASS/FAIL" line (visible
with pytest -s) and asserts the verdict.  Criterion 1 checks 200
random trees (1a) and sweeps every labeled tree on at most 9 vertices
with no wall-clock limit (1b, marked ``slow``, so ``-m "not slow"``
leaves it out), and criterion 13 prints its elapsed time without
judging it, since a time budget measures the host and not the solver.
Criterion 11b checks the score average the Carter-Wegman family over
the least prime p >= n really has, with ceiling terms, because the
idealized n/k - m/k^2 holds only when k = 1.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from sample_stages import (
    delete_element_min_live_id,
    delete_high_degree,
    delete_isolated,
    delete_min_live_id,
    delete_uncovered_elements,
)
from romapprox import (
    DigraphInstance,
    GraphInstance,
    SetFamilyInstance,
    WorkspaceMeter,
    avg_degree_is,
    bd_maximal_is,
    bd_vc_2approx,
    bounded_mult_hs,
    c4free_ds_approx,
    c4free_ds_bounded_k,
    cw_family,
    del_pi_approx,
    dgn_dom_set,
    dgn_rounds,
    fk_hs_kernel,
    functional_max_is,
    functional_min_vc,
    hs_bounded_k,
    hs_eps_approx,
    kernel_family,
    regular_ds_derand,
    tree_max_is,
    tree_min_vc,
)
from romapprox.hashing import least_prime_at_least
from romapprox.layers import (
    WORDS_PER_LEVEL,
    LayeredFamilyView,
    LayeredGraphView,
    enumerate_stage,
)


def _verdict(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {label}: {tag}{suffix}")
    assert ok, f"criterion {label}{suffix}"


def _check_tree(n, edges):
    g = GraphInstance(n, edges)
    cover = list(tree_min_vc(g))
    if len(cover) != oracles.tree_tau_dp(n, edges):
        return False
    if not oracles.is_vertex_cover(edges, set(cover)):
        return False
    indep = list(tree_max_is(g))
    return sorted(cover + indep) == list(range(1, n + 1))


def test_criterion_01_tree_exactness():
    rng = oracles.make_rng("acceptance-1")
    for _ in range(200):
        n = rng.randint(1, 14)
        assert _check_tree(n, oracles.random_tree_edges(rng, n))
    _verdict("1a", True, "(200 random trees, n <= 14)")


@pytest.mark.slow
def test_criterion_01_tree_exactness_exhaustive():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 10):
        for seq in itertools.product(range(1, n + 1), repeat=max(0, n - 2)):
            assert _check_tree(n, oracles.prufer_decode(list(seq), n)), (n, seq)
            checked += 1
    elapsed = time.perf_counter() - start
    rate = checked / elapsed if elapsed else 0.0
    # Cayley: n^(n-2) labeled trees on n vertices, summed over n = 1..9.
    _verdict(
        "1b",
        checked == 5_063_362,
        f"(exhaustive {checked:,}/5,063,362 trees in {elapsed:.1f}s, "
        f"~{rate:,.0f} trees/s)",
    )


def test_criterion_02_functional_exactness():
    rng = oracles.make_rng("acceptance-2")
    for _ in range(500):
        n = rng.randint(1, 12)
        arcs = oracles.random_functional_arcs(rng, n)
        dg = DigraphInstance(n, arcs)
        edges = list(dg.underlying_edges())
        cover = list(functional_min_vc(dg))
        assert oracles.is_vertex_cover(edges, set(cover))
        assert len(cover) == oracles.tau(n, edges)
        indep = list(functional_max_is(dg))
        assert oracles.is_independent(edges, set(indep))
        assert len(indep) == oracles.mis_size(n, edges)
    _verdict("2", True, "(500 functional digraphs, both optima exact)")


_GRAPH_STAGES = (
    ("min", delete_min_live_id),
    ("iso", delete_isolated),
    ("deg2", lambda: delete_high_degree(2)),
    ("deg3", lambda: delete_high_degree(3)),
)
_FAMILY_STAGES = (
    ("umin", delete_element_min_live_id),
    ("uncov", delete_uncovered_elements),
)


def _materialize_graph(n, edges, names):
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    live = set(range(1, n + 1))
    levels = [set(live)]
    drops = []
    for name in names:
        if name == "min":
            doomed = {min(live)} if live else set()
        elif name == "iso":
            doomed = {v for v in live if not (nbrs[v] & live)}
        else:
            bar = 2 if name == "deg2" else 3
            doomed = {v for v in live if len(nbrs[v] & live) >= bar}
        live = live - doomed
        drops.append(sorted(doomed))
        levels.append(set(live))
    return levels, drops


def _materialize_family(n, sets, names):
    live = set(range(1, n + 1))
    levels = [set(live)]
    drops = []
    for name in names:
        if name == "umin":
            doomed = {min(live)} if live else set()
        else:
            covered = set()
            for s in sets:
                if all(e in live for e in s):
                    covered.update(s)
            doomed = live - covered
        live = live - doomed
        drops.append(sorted(doomed))
        levels.append(set(live))
    return levels, drops


def test_criterion_03_oracle_soundness():
    rng = oracles.make_rng("acceptance-3")
    for _ in range(100):
        n = rng.randint(1, 12)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.5))
        depth = rng.randint(1, 4)
        picks = [rng.choice(_GRAPH_STAGES) for _ in range(depth)]
        levels, drops = _materialize_graph(n, edges, [p[0] for p in picks])
        g = GraphInstance(n, edges)
        for memo in (False, True):
            view = LayeredGraphView(g, [p[1]() for p in picks], memoized=memo)
            for i in range(depth + 1):
                assert list(enumerate_stage(view, i, "V")) == sorted(levels[i])
                wanted = [
                    e for e in g.edges if e[0] in levels[i] and e[1] in levels[i]
                ]
                assert list(enumerate_stage(view, i, "E")) == wanted
            for i in range(1, depth + 1):
                assert list(enumerate_stage(view, i, "S")) == drops[i - 1]
    for _ in range(100):
        n = rng.randint(1, 12)
        sets = oracles.random_family(rng, n, rng.randint(0, 8), min(3, n))
        depth = rng.randint(1, 4)
        picks = [rng.choice(_FAMILY_STAGES) for _ in range(depth)]
        levels, drops = _materialize_family(n, sets, [p[0] for p in picks])
        f = SetFamilyInstance(n, min(3, n), sets)
        for memo in (False, True):
            view = LayeredFamilyView(f, [p[1]() for p in picks], memoized=memo)
            for i in range(depth + 1):
                assert list(enumerate_stage(view, i, "U")) == sorted(levels[i])
                wanted = [
                    j
                    for j in range(1, f.m + 1)
                    if all(e in levels[i] for e in f.set_elements(j))
                ]
                assert list(enumerate_stage(view, i, "F")) == wanted
            for i in range(1, depth + 1):
                assert list(enumerate_stage(view, i, "S")) == drops[i - 1]
    _verdict("3", True, "(200 stacks, layered == materialized bit-for-bit)")


def test_criterion_04_bounded_degree_vc():
    rng = oracles.make_rng("acceptance-4")
    bad = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        edges = oracles.random_graph_max_degree(rng, n, rng.uniform(0.1, 0.6), 4)
        g = GraphInstance(n, edges)
        got = list(bd_vc_2approx(g))
        if not oracles.is_vertex_cover(edges, set(got)):
            bad += 1
        elif len(got) > 2 * oracles.tau(n, edges):
            bad += 1
    _verdict("4", bad == 0, f"({bad} violations in 500 graphs)")


def test_criterion_05_maximal_is():
    rng = oracles.make_rng("acceptance-5")
    bad = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.7))
        got = list(bd_maximal_is(GraphInstance(n, edges)))
        if not oracles.is_maximal_independent(n, edges, set(got)):
            bad += 1
    _verdict("5", bad == 0, f"({bad} violations in 500 graphs)")


def _capped_family(rng, n, d, delta, target):
    counts = dict.fromkeys(range(1, n + 1), 0)
    sets = []
    for _ in range(target * 4):
        if len(sets) == target:
            break
        avail = [e for e, c in counts.items() if c < delta]
        size = rng.randint(1, d)
        if len(avail) < size:
            break
        chosen = tuple(sorted(rng.sample(avail, size)))
        sets.append(chosen)
        for e in chosen:
            counts[e] += 1
    return sets


def test_criterion_06_multiplicity_hs():
    rng = oracles.make_rng("acceptance-6")
    bad = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        d = rng.randint(1, min(3, n))
        delta = rng.randint(1, 3)
        sets = _capped_family(rng, n, d, delta, rng.randint(0, 2 * n))
        f = SetFamilyInstance(n, d, sets)
        got = list(bounded_mult_hs(f))
        if not oracles.hits_all(sets, got):
            bad += 1
        elif len(got) > d * oracles.min_hitting_size(sets):
            bad += 1
    _verdict("6", bad == 0, f"({bad} violations in 300 families)")


def test_criterion_07_kernel_equivalence():
    rng = oracles.make_rng("acceptance-7")
    bad = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        sets = oracles.random_family(rng, n, rng.randint(1, 9), 2)
        f = SetFamilyInstance(n, 2, sets)
        k = rng.randint(0, 2)
        exists = oracles.min_hitting_size(sets) <= k
        out = fk_hs_kernel(f, k)
        if out.is_no:
            if exists:
                bad += 1
            continue
        kern = kernel_family(f, out)
        if kern.m > (k + 1) ** f.d:
            bad += 1
            continue
        if (oracles.min_hitting_size(kern.sets) <= k) != exists:
            bad += 1
            continue
        union = set()
        for s in kern.sets:
            union.update(s)
        if not all(set(s) & union for s in sets):
            bad += 1
    _verdict(
        "7",
        bad == 0,
        f"({bad} violations in 300 families; any nonzero count must be "
        "logged against the kernel module's open question)",
    )


def test_criterion_08_staggered_scheme():
    rng = oracles.make_rng("acceptance-8")
    bad = 0
    for i in range(300):
        n = rng.randint(1, 10)
        d = rng.randint(1, min(3, n))
        sets = oracles.random_family(rng, n, rng.randint(0, 10), d)
        f = SetFamilyInstance(n, d, sets)
        eps = 0.5 if i % 2 == 0 else 1.0
        k = rng.randint(0, 4)
        opt = oracles.min_hitting_size(sets)
        rounds = math.ceil((d - 1) / eps) + d
        got = hs_bounded_k(f, k, eps)
        if got is None:
            if opt <= k:
                bad += 1
        else:
            if not oracles.hits_all(sets, got):
                bad += 1
            elif len(got) > rounds * (k + 1) ** (1 + eps) + 1e-9:
                bad += 1
        approx = hs_eps_approx(f, eps)
        if not oracles.hits_all(sets, approx):
            bad += 1
        elif opt == 0:
            if approx:
                bad += 1
        elif len(approx) > 2 * rounds * n**eps * opt + 1e-9:
            bad += 1
    _verdict("8", bad == 0, f"({bad} violations in 300 families)")


_RESIDUAL_FREE = {
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
    "tournament-fvs": (oracles.has_directed_triangle,),
}


def test_criterion_09_del_pi_residuals():
    rng = oracles.make_rng("acceptance-9")
    bad = 0
    for problem, checkers in _RESIDUAL_FREE.items():
        for i in range(100):
            n = rng.randint(1, 9)
            eps = 0.5 if i % 2 == 0 else 1.0
            if problem == "tournament-fvs":
                arcs = [
                    (u, v) if rng.random() < 0.5 else (v, u)
                    for u, v in itertools.combinations(range(1, n + 1), 2)
                ]
                inst = DigraphInstance(n, arcs)
                links = arcs
            else:
                links = oracles.random_graph(rng, n, rng.uniform(0.1, 0.6))
                inst = GraphInstance(n, links)
            out = set(del_pi_approx(inst, problem, eps))
            residue = [
                (u, v) for u, v in links if u not in out and v not in out
            ]
            if any(check(n, residue) for check in checkers):
                bad += 1
    _verdict("9", bad == 0, f"({bad} pattern survivals in 700 runs)")


def _random_c4free(rng, n):
    while True:
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.35))
        if not oracles.has_c4_subgraph(n, edges):
            return edges


def test_criterion_10a_c4free_ds():
    rng = oracles.make_rng("acceptance-10a")
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = _random_c4free(rng, n)
        g = GraphInstance(n, edges)
        k = rng.randint(0, 4)
        got = c4free_ds_bounded_k(g, k)
        if got is None:
            if oracles.min_dominating_size(n, edges) <= k:
                bad += 1
        elif not oracles.is_dominating(n, edges, set(got)):
            bad += 1
        if not oracles.is_dominating(n, edges, set(c4free_ds_approx(g))):
            bad += 1
    _verdict("10a", bad == 0, f"({bad} violations in 200 instances)")


def test_criterion_10b_degenerate_ds():
    rng = oracles.make_rng("acceptance-10b")
    bad = 0
    done = 0
    while done < 200:
        n = rng.randint(1, 12)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.4))
        d = oracles.degeneracy_value(n, edges)
        if d > 2:
            continue
        done += 1
        g = GraphInstance(n, edges)
        rounds = len(list(dgn_rounds(g, d))) - 1
        out = dgn_dom_set(g, d)
        if rounds > 2 * math.ceil(math.log2(n + 1)) + 2:
            bad += 1
        elif not oracles.is_dominating(n, edges, set(out)):
            bad += 1
        elif len(out) > (2 * d + 1) ** 2 * oracles.min_dominating_size(n, edges):
            bad += 1
    _verdict("10b", bad == 0, f"({bad} violations in 200 instances)")


def _pairing_regular(rng, n, d):
    if d >= n or (n * d) % 2:
        return None
    for _ in range(300):
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return sorted(edges)
    return None


def test_criterion_10c_regular_ds():
    named = (
        (GraphInstance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]), 2),
        (GraphInstance(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]), 3),
        (
            GraphInstance(
                10,
                [
                    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
                    (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),
                ],
            ),
            3,
        ),
    )
    bad = 0
    for g, d in named:
        got = regular_ds_derand(g, d)
        if len(got) > g.n * (math.log(d + 1) + 1) / (d + 1) + 1:
            bad += 1
        if not oracles.is_dominating(g.n, g.edges, set(got)):
            bad += 1
    rng = oracles.make_rng("acceptance-10c")
    done = 0
    while done < 100:
        n = rng.randint(1, 16)
        d = rng.randint(0, min(4, n - 1) if n > 1 else 0)
        edges = _pairing_regular(rng, n, d)
        if edges is None:
            continue
        done += 1
        got = regular_ds_derand(GraphInstance(n, edges), d)
        if len(got) > n * (math.log(d + 1) + 1) / (d + 1) + 1:
            bad += 1
        elif not oracles.is_dominating(n, edges, set(got)):
            bad += 1
    _verdict("10c", bad == 0, f"({bad} violations, named graphs + 100 random)")


def test_criterion_11a_two_universality():
    bad = 0
    for n in range(1, 41):
        p = least_prime_at_least(n)
        a = np.arange(1, p, dtype=np.int64)[:, None, None]
        b = np.arange(p, dtype=np.int64)[None, :, None]
        x = np.arange(1, n + 1, dtype=np.int64)[None, None, :]
        table = ((a * x + b) % p).reshape(-1, n)
        for k in range(1, n + 1):
            values = table % k
            for left in range(n - 1):
                hits = (values[:, left + 1 :] == values[:, [left]]).sum(axis=0)
                # collisions <= |family|/k, integer-exact as k*hits <= p(p-1)
                if (hits * k > p * (p - 1)).any():
                    bad += 1
    _verdict("11a", bad == 0, f"({bad} pair violations over all n <= 40, k <= n)")


def _family_score_average(g):
    k = -(-2 * g.m // g.n)
    fam = cw_family(g.n, k)
    total = Fraction(0)
    for fn in fam:
        inside = {v for v in range(1, g.n + 1) if fn(v) == 1}
        crossing = sum(1 for u, v in g.edges if u in inside and v in inside)
        total += Fraction(len(inside) - crossing)
    return total / len(fam), k, fam.p


def test_criterion_11b_score_identity():
    # For fixed a, x -> (a*x + b) mod p is uniform over b, and a pair
    # x != y lands uniformly on the p(p-1) distinct residue pairs.  The
    # member maps exactly c = ceil(p/k) residues to 1, so the average of
    # |S_f| - m_S is n*c/p - m*c(c-1)/(p(p-1)).
    rng = oracles.make_rng("acceptance-11b")
    bad = 0
    unit = 0
    done = 0
    while done < 100:
        n = rng.randint(2, 12)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.6))
        if not edges:
            continue
        done += 1
        g = GraphInstance(n, edges)
        average, k, p = _family_score_average(g)
        c = -(-p // k)
        identity = Fraction(n * c, p) - Fraction(g.m * c * (c - 1), p * (p - 1))
        if average != identity:
            bad += 1
        elif average < Fraction(n, 2 * k):
            bad += 1
        elif k == 1:
            unit += 1
            if identity != Fraction(n, k) - Fraction(g.m, k * k):
                bad += 1
    _verdict(
        "11b",
        bad == 0,
        f"({bad}/100 graphs violate the ceiling identity or the n/(2k) "
        f"bound; {unit} graphs with k = 1 meet n/k - m/k^2)",
    )


def test_criterion_12_avg_degree_is():
    rng = oracles.make_rng("acceptance-12")
    bad = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.6))
        g = GraphInstance(n, edges)
        out = avg_degree_is(g)
        if not oracles.is_independent(edges, set(out)):
            bad += 1
        elif len(set(out)) != len(out):
            bad += 1
        elif g.m == 0:
            if out != list(range(1, n + 1)):
                bad += 1
        elif 2 * -(-2 * g.m // g.n) * len(out) < n:
            bad += 1
    _verdict("12", bad == 0, f"({bad} violations in 300 graphs)")


def _star_union(n):
    edges = []
    for base in range(0, n, 4):
        c = base + 1
        edges.extend((c, base + 2 + i) for i in range(3))
    return GraphInstance(n, edges)


def test_criterion_13_space_audit():
    start = time.perf_counter()
    bound_b = WORDS_PER_LEVEL
    bad = []
    for n in (64, 128, 256):
        g = _star_union(n)
        meter = WorkspaceMeter()
        got = list(bd_vc_2approx(g, meter=meter, space_audit=True))
        assert oracles.is_vertex_cover(g.edges, set(got))
        assert len(got) <= 2 * (n // 4)
        peak = meter.snapshot().charged_peak
        cap = 2 * bound_b * 3 * math.log2(n)
        if peak > cap:
            bad.append(f"bd_vc n={n} peak={peak} cap={cap:.0f}")
    g = _star_union(64)
    makers = (
        delete_min_live_id,
        delete_isolated,
        lambda: delete_high_degree(2),
        delete_min_live_id,
    )
    for depth_j in range(5):
        for probe in (1, 30, 64):
            meter = WorkspaceMeter()
            view = LayeredGraphView(
                g, [mk() for mk in makers], meter=meter, memoized=False
            )
            view.vertex_live(depth_j, probe)
            peak = meter.snapshot().charged_peak
            if peak > (depth_j + 1) * bound_b:
                bad.append(f"depth-{depth_j} query peak={peak}")
    elapsed = time.perf_counter() - start
    _verdict(
        "13",
        not bad,
        f"({'; '.join(bad) or 'all peaks in bound'}, {elapsed:.1f}s)",
    )
