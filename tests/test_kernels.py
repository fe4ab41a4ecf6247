from collections import Counter

import pytest

import oracles
from romapprox.errors import DomainError
from romapprox.instances import GraphInstance, SetFamilyInstance
from romapprox.kernels import (
    RetentionTable,
    buss_vc_kernel,
    fk_hs_kernel,
    kernel_family,
    retention_scan,
)
from romapprox.staggered import hs_bounded_k, hs_eps_approx, hs_sqrt_approx

MATCHING8 = GraphInstance(8, [(1, 2), (3, 4), (5, 6), (7, 8)])


def test_buss_frozen():
    star = GraphInstance(6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
    out = buss_vc_kernel(star, 1)
    assert out.verdict == "KERNEL"
    assert out.payload == (1,)

    out = buss_vc_kernel(MATCHING8, 2)
    assert out.verdict == "KERNEL"
    assert out.payload == tuple(range(1, 9))

    assert buss_vc_kernel(MATCHING8, 1).verdict == "NO"
    assert buss_vc_kernel(GraphInstance(3, []), 0).payload == ()


def test_buss_rejects_bad_budget():
    with pytest.raises(DomainError):
        buss_vc_kernel(MATCHING8, -1)


def test_buss_random_graphs():
    rng = oracles.make_rng("buss-kernel")
    for _ in range(300):
        n = rng.randint(1, 10)
        edges = oracles.random_graph(rng, n, rng.uniform(0.1, 0.6))
        g = GraphInstance(n, edges)
        k = rng.randint(0, 4)
        out = buss_vc_kernel(g, k)
        if out.verdict == "NO":
            assert oracles.tau(n, edges) > k
        else:
            assert oracles.is_vertex_cover(edges, set(out.payload))
            assert len(out.payload) <= k + 2 * k * k


def test_fk_frozen():
    f = SetFamilyInstance(2, 1, [(1,), (2,)])
    assert fk_hs_kernel(f, 0).verdict == "NO"

    f = SetFamilyInstance(3, 1, [(1,), (2,), (3,)])
    assert fk_hs_kernel(f, 1).verdict == "NO"

    triangle = SetFamilyInstance(3, 2, [(1, 2), (2, 3), (1, 3)])
    out = fk_hs_kernel(triangle, 1)
    assert out.verdict == "KERNEL"
    assert out.payload == (1, 2, 3)


def test_fk_prefix_property():
    rng = oracles.make_rng("fk-prefix")
    for _ in range(60):
        n = rng.randint(2, 8)
        sets = oracles.random_family(rng, n, rng.randint(1, 10), 2)
        f = SetFamilyInstance(n, 2, sets)
        k = rng.randint(0, 2)
        full = fk_hs_kernel(f, k)
        t = rng.randint(1, f.m)
        prefix = SetFamilyInstance(n, 2, sets[:t])
        got = fk_hs_kernel(prefix, k)
        if got.verdict == "NO":
            assert full.verdict == "NO"
        elif full.verdict == "KERNEL":
            assert got.payload == tuple(j for j in full.payload if j <= t)


def test_fk_random_families():
    rng = oracles.make_rng("fk-kernel")
    for _ in range(300):
        n = rng.randint(1, 8)
        d = rng.randint(1, 3)
        sets = oracles.random_family(rng, n, rng.randint(0, 9), d)
        f = SetFamilyInstance(n, d, sets)
        k = rng.randint(0, 2)
        out = fk_hs_kernel(f, k)
        if out.verdict == "NO":
            assert oracles.min_hitting_size(sets) > k
            continue
        assert len(out.payload) <= (k + 1) ** d
        assert all(1 <= j <= f.m for j in out.payload)
        assert list(out.payload) == sorted(out.payload)
        kern = kernel_family(f, out)
        full_ok = oracles.min_hitting_size(sets) <= k
        kern_ok = oracles.min_hitting_size(list(kern.sets)) <= k
        assert full_ok == kern_ok
        union = set()
        for j in out.payload:
            union.update(f.set_elements(j))
        assert oracles.hits_all(sets, union)


def test_retention_scan_matches_rescan():
    # A NO carries no payload; any other scan equals the direct recount.
    rng = oracles.make_rng("retention-rescan")
    # at k = 0 the second set meets the empty set's ceiling and nothing else
    only_empty = SetFamilyInstance(2, 1, [(1,), (2,)])
    assert oracles.retention_rescan(only_empty.sets, 1, 0)[2] is True
    assert retention_scan(only_empty, 0) == ((), (), True)
    saw_no = saw_witness = 0
    for _ in range(150):
        d = rng.randint(1, 4)
        n = rng.randint(d, 9)
        sets = oracles.random_family(rng, n, rng.randint(1, 14), d)
        sets += [rng.choice(sets)[::-1] for _ in range(rng.randint(1, 4))]
        rng.shuffle(sets)
        f = SetFamilyInstance(n, d, sets)
        for k in range(4):
            got = retention_scan(f, k)
            want = oracles.retention_rescan(sets, d, k)
            if want[2]:
                assert got == ((), (), True)
                saw_no += 1
                continue
            assert got == want
            assert all(type(b) is tuple for b in got[1])
            saw_witness += bool(got[1])
    assert saw_no and saw_witness


def _proving_set(sets, d, k):
    """1-based index of the first set discarded with only the empty
    witness, or None: the rescan of each prefix turns NO there."""
    for t in range(1, len(sets) + 1):
        if oracles.retention_rescan(sets[:t], d, k)[2]:
            return t
    return None


def test_retention_scan_no_ignores_later_sets():
    # Sets appended after the proving set leave a NO unchanged, however
    # they would have been retained or discarded.
    rng = oracles.make_rng("retention-prefix")
    saw = 0
    for _ in range(120):
        d = rng.randint(1, 4)
        n = rng.randint(d, 8)
        k = rng.randint(0, 2)
        sets = oracles.random_family(rng, n, rng.randint(1, 14), d)
        t = _proving_set(sets, d, k)
        if t is None:
            continue
        saw += 1
        prefix = SetFamilyInstance(n, d, sets[:t])
        assert retention_scan(prefix, k) == ((), (), True)
        for _ in range(3):
            tail = oracles.random_family(rng, n, rng.randint(1, 6), d)
            f = SetFamilyInstance(n, d, sets[:t] + tail)
            assert retention_scan(f, k) == ((), (), True)
            assert fk_hs_kernel(f, k).is_no
    assert saw


def test_retention_scan_reads_no_set_past_the_proving_one():
    # At k = 0 every set after the first is discarded through the empty
    # set alone, so a scan that reads past set 2 touches a set it must not.
    read = []

    class Logged(SetFamilyInstance):
        def set_elements(self, j, meter=None):
            read.append(j)
            return super().set_elements(j, meter)

    assert retention_scan(Logged(3, 1, [(1,), (2,), (3,)]), 0) == ((), (), True)
    assert read == [1, 2]


def test_retention_table_scans_any_budget_order():
    # One table scanned at budgets in any order, each scan building the
    # rows it reaches first, answers as a fresh recount at that budget.
    rng = oracles.make_rng("retention-table")
    saw_no = saw_yes = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(d, 9)
        sets = oracles.random_family(rng, n, rng.randint(1, 16), d)
        table = RetentionTable(SetFamilyInstance(n, d, sets))
        for k in (3, 0, 2, 4, 1, 3):
            want = oracles.retention_rescan(sets, d, k)
            if want[2]:
                want = ((), (), True)
            assert table.scan(k) == want
            saw_no += want[2]
            saw_yes += not want[2]
    assert saw_no and saw_yes


@pytest.mark.parametrize(
    "solver", [lambda f: hs_eps_approx(f, 0.5), hs_sqrt_approx], ids=["eps", "sqrt"]
)
def test_budget_search_reads_each_set_at_most_twice(solver):
    # Once for the search's one retention table, once for the successful
    # budget's kernel, however many budgets were scanned before it.
    rng = oracles.make_rng("table-reads")
    sets = [tuple(rng.sample(range(1, 31), 3)) for _ in range(60)]
    read = Counter()

    class Counted(SetFamilyInstance):
        def set_elements(self, j, meter=None):
            read[j] += 1
            return super().set_elements(j, meter)

    f = Counted(30, 3, sets)
    assert [retention_scan(f, k)[2] for k in (1, 2, 3)] == [True, True, False]
    read.clear()
    solver(f)
    assert set(read) == set(range(1, f.m + 1))
    assert max(read.values()) <= 2


FAMILY_SOLVERS = [
    (fk_hs_kernel, (1,)),
    (retention_scan, (1,)),
    (hs_bounded_k, (1, 0.5)),
    (hs_eps_approx, (0.5,)),
    (hs_sqrt_approx, ()),
]


@pytest.mark.parametrize(
    "solver, args", FAMILY_SOLVERS, ids=[s.__name__ for s, _ in FAMILY_SOLVERS]
)
def test_family_solvers_name_themselves_on_a_graph(solver, args):
    with pytest.raises(DomainError, match=f"^{solver.__name__} needs a SetFamilyInstance$"):
        solver(GraphInstance(3, [(1, 2)]), *args)


def test_kernel_family_rejects_no():
    f = SetFamilyInstance(2, 1, [(1,), (2,)])
    with pytest.raises(DomainError):
        kernel_family(f, fk_hs_kernel(f, 0))
