"""Desk-scale exact solvers and validators.

These are the reference implementations the rest of the package is judged
against: deliberately simple exhaustive searches with pinned tie-breaking
(scan sizes upward, downward for independent set, and return the
lexicographically least solution at the optimal size), plus validators
that hand back a small witness on failure instead of a bare False.

Refuses instances above a size cap rather than silently taking hours.
"""

import heapq
import itertools
from enum import Enum

from .errors import DomainError, RefusalError
from .instances import DigraphInstance, GraphInstance, SetFamilyInstance, require_instance


class ProblemKind(Enum):
    VC = "vc"
    IS = "is"
    MAXIMAL_IS = "maximal-is"
    DS = "ds"
    HS = "hs"


class StructureKind(Enum):
    TREE = "tree"
    C4_FREE = "c4free"
    DEGENERATE = "degenerate"
    REGULAR = "regular"
    TOURNAMENT = "tournament"
    FUNCTIONAL = "functional"


# The instance class each kind reads.
INSTANCE_CLASS = {
    **{kind: GraphInstance for kind in (*ProblemKind, *StructureKind)},
    ProblemKind.HS: SetFamilyInstance,
    StructureKind.TOURNAMENT: DigraphInstance,
    StructureKind.FUNCTIONAL: DigraphInstance,
}

GRAPH_CAP = 16
FAMILY_CAP = 12


def refuse_above_cap(kind, instance):
    """Raise :class:`RefusalError` when :func:`exact_opt` would refuse."""
    kind = ProblemKind(kind)
    limit = FAMILY_CAP if kind is ProblemKind.HS else GRAPH_CAP
    if instance.n > limit:
        raise RefusalError(
            f"exact {kind.value} refuses n={instance.n} above cap {limit}"
        )


def exact_opt(kind, instance):
    """Exact optimum for ``kind`` on a small instance.

    Returns ``(solution, value)`` where ``solution`` is the
    lexicographically least optimal solution as an ascending tuple.
    For MAXIMAL_IS the optimum is the smallest maximal independent set.
    Instances larger than the cap (vertices for graphs, ground-set size
    for families) raise :class:`RefusalError`.
    """
    kind = ProblemKind(kind)
    require_instance(instance, INSTANCE_CLASS[kind], kind.value)
    refuse_above_cap(kind, instance)
    n = instance.n
    ids = range(1, n + 1)
    sizes = range(n, -1, -1) if kind is ProblemKind.IS else range(n + 1)
    for size in sizes:
        for combo in itertools.combinations(ids, size):
            if _validate_problem(kind, instance, combo)[0]:
                return combo, size
    raise DomainError(f"no feasible {kind.value} solution exists")


def _validate_candidate_ids(n, cand):
    for v in cand:
        if not 1 <= v <= n:
            return ("bad-id", v)
    return None


def _validate_problem(kind, instance, cand):
    bad = _validate_candidate_ids(instance.n, cand)
    if bad is not None:
        return False, bad
    s = set(cand)
    if kind is ProblemKind.VC:
        for u, v in instance.edges:
            if u not in s and v not in s:
                return False, ("uncovered-edge", (u, v))
        return True, None
    if kind in (ProblemKind.IS, ProblemKind.MAXIMAL_IS):
        for u, v in instance.edges:
            if u in s and v in s:
                return False, ("adjacent-pair", (u, v))
        if kind is ProblemKind.MAXIMAL_IS:
            for v in range(1, instance.n + 1):
                if v not in s and not any(w in s for w in instance.neighbors(v)):
                    return False, ("extendable-vertex", v)
        return True, None
    if kind is ProblemKind.DS:
        for v in range(1, instance.n + 1):
            if v not in s and not any(w in s for w in instance.neighbors(v)):
                return False, ("undominated", v)
        return True, None
    for j, a in enumerate(instance.sets, start=1):
        if not any(e in s for e in a):
            return False, ("unhit-set", j)
    return True, None


def _bfs_reach(g, start):
    seen = {start}
    queue = [start]
    for v in queue:
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _least_c4_vertex(g):
    """The least vertex on any 4-cycle subgraph of ``g``, or None when
    there is none (Chiba–Nishizeki).

    Vertices are taken in descending degree; each one anchors the wedges
    whose middle and far end both come later, and a far end reached
    twice closes a 4-cycle.  Every 4-cycle shows up at its earliest
    vertex, and a wedge only runs to its lower-degree end, so the scan
    costs O(m * arboricity) and a star costs O(n).  Each far end keeps
    the first middle that reached it; when a later middle reaches it
    again, the anchor, the far end and both middles lie on one 4-cycle.
    Every vertex of every 4-cycle is seen that way at the cycle's
    anchor, so the least vertex seen is the least on any 4-cycle.
    """
    order = sorted(range(1, g.n + 1), key=lambda v: -g.degree(v))
    rank = [0] * (g.n + 1)
    for r, v in enumerate(order):
        rank[v] = r
    reached = [-1] * (g.n + 1)
    first = [0] * (g.n + 1)
    least = g.n + 1
    for r, v in enumerate(order):
        for w in g.neighbors(v):
            if rank[w] > r:
                for u in g.neighbors(w):
                    if rank[u] > r:
                        if reached[u] == r:
                            least = min(least, v, u, first[u], w)
                        else:
                            reached[u] = r
                            first[u] = w
    return least if least <= g.n else None


def find_c4(g):
    """Vertices of some 4-cycle subgraph (not necessarily induced), or None.

    The witness is ``(a, b, c, b')`` for the least pair ``a < c`` with two
    common neighbors, ``b`` and ``b'`` the first two of them in a's
    adjacency order.  That ``a`` is the least vertex on any 4-cycle:
    the least vertex of a 4-cycle has its opposite vertex as such a
    ``c``, and any such pair spans a 4-cycle.  :func:`_least_c4_vertex`
    finds it in one wedge scan, and the wedges ``a-b-c`` with ``c > a``
    then count each c's common neighbors with a.
    """
    a = _least_c4_vertex(g)
    if a is None:
        return None
    wedges = {}
    for b in g.neighbors(a):
        for c in g.neighbors(b):
            if c > a:
                wedges[c] = wedges.get(c, 0) + 1
    c = min(c for c, count in wedges.items() if count >= 2)
    common = [b for b in g.neighbors(a) if g.has_edge(b, c)]
    return (a, common[0], c, common[1])


def degeneracy_order(g):
    """Smallest-last peel order and the degeneracy it certifies.

    Each step removes the live vertex with the least ``(degree, id)``.
    Vertices wait in one heap of ids per degree; each bucket starts as
    ascending ids, already a heap, and a vertex whose degree drops is
    pushed onto its new degree's bucket.  ``low`` is the least degree
    whose bucket may hold a live vertex: a step pops that bucket's least
    id, skipping removed vertices' entries, and ``low`` steps down when a
    neighbour's degree falls below it.  A vertex's older entries sit in
    higher buckets and surface only once it is gone.  ``low`` rises at
    most n + (largest degree) times in all, and each of the m degree
    drops is one push, so the order costs O(n + m log n).
    """
    adj = g.adjacency()
    n = g.n
    deg = list(map(len, adj))
    buckets = [[] for _ in range(max(deg) + 1)]
    for v in range(1, n + 1):
        buckets[deg[v]].append(v)
    dead = [False] * (n + 1)
    order = []
    best = low = 0
    while len(order) < n:
        bucket = buckets[low]
        if not bucket:
            low += 1
            continue
        v = heapq.heappop(bucket)
        if dead[v]:
            continue
        if low > best:
            best = low
        order.append(v)
        dead[v] = True
        for w in adj[v]:
            if not dead[w]:
                dw = deg[w] - 1
                deg[w] = dw
                heapq.heappush(buckets[dw], w)
                if dw < low:
                    low = dw
    return order, best


def degeneracy(g):
    return degeneracy_order(g)[1]


def _validate_structure(kind, instance, parameter):
    if kind is StructureKind.TREE:
        if instance.n == 0:
            return False, ("edge-count", 0)
        if instance.m != instance.n - 1:
            return False, ("edge-count", instance.m)
        reached = _bfs_reach(instance, 1)
        if len(reached) != instance.n:
            missing = min(v for v in range(1, instance.n + 1) if v not in reached)
            return False, ("disconnected", missing)
        return True, None
    if kind is StructureKind.C4_FREE:
        cyc = find_c4(instance)
        if cyc is not None:
            return False, ("four-cycle", cyc)
        return True, None
    if kind is StructureKind.DEGENERATE:
        if parameter is None:
            raise DomainError("degenerate check needs the bound d")
        got = degeneracy(instance)
        if got > parameter:
            return False, ("degeneracy", got)
        return True, None
    if kind is StructureKind.REGULAR:
        if parameter is None:
            parameter = instance.degree(1) if instance.n else 0
        for v in range(1, instance.n + 1):
            if instance.degree(v) != parameter:
                return False, ("degree-mismatch", (v, instance.degree(v)))
        return True, None
    if kind is StructureKind.TOURNAMENT:
        for u, v in itertools.combinations(range(1, instance.n + 1), 2):
            count = instance.has_arc(u, v) + instance.has_arc(v, u)
            if count != 1:
                return False, ("pair-arcs", (u, v, count))
        return True, None
    for v in range(1, instance.n + 1):  # FUNCTIONAL
        if instance.out_degree(v) > 1:
            return False, ("out-degree", (v, instance.out_degree(v)))
    return True, None


def validate(kind, instance, candidate=None, parameter=None):
    """Check a solution or a structural property.

    ``kind`` is a :class:`ProblemKind` (candidate required) or a
    :class:`StructureKind` (candidate ignored).  Returns ``(ok, witness)``
    where ``witness`` is None or a small tagged tuple locating the failure.
    """
    try:
        kind = ProblemKind(kind)
    except ValueError:
        kind = StructureKind(kind)
    problem = isinstance(kind, ProblemKind)
    if problem and candidate is None:
        raise DomainError(f"{kind.value} validation needs a candidate")
    require_instance(instance, INSTANCE_CLASS[kind], kind.value)
    if problem:
        return _validate_problem(kind, instance, candidate)
    return _validate_structure(kind, instance, parameter)
