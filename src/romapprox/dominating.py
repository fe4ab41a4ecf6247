"""Dominating set approximations.

Three routes, by graph class.  Squarefree (no 4-cycle) graphs admit a
degree kernel: high-degree vertices are forced into any small dominating
set, and what they leave undominated must be small, or the budget is
infeasible.  Degenerate graphs peel in logarithmically many rounds,
dominating the low-degree half of the undominated region through its
neighbors.  Regular graphs sweep a 2-universal hash family and keep the
best sampled set together with whatever it fails to dominate.
"""

import math
from collections import Counter
from itertools import accumulate
from operator import add, or_

from .errors import DomainError, RoundLimitError
from .exact import degeneracy
from .hashing import cw_family
from .instances import GraphInstance, require_instance
from .meter import coerce_meter


def c4free_ds_bounded_k(g, k, meter=None):
    """Dominating set of size at most k + (2k+1)k, or None.

    Sound only on graphs with no 4-cycle subgraph: there any dominating
    set of size <= k must contain every vertex of degree > 2k, and each
    remaining pick dominates at most 2k+1 of the vertices those leave
    uncovered.

    Parameters
    ----------
    g : GraphInstance
        Free of 4-cycle subgraphs (see has_c4; not checked here).
    k : int
        Candidate budget, at least 0.

    Returns
    -------
    list of int or None
        None means no dominating set of size at most k exists.
    """
    require_instance(g, GraphInstance, "c4free_ds_bounded_k")
    if k < 0:
        raise DomainError(f"budget must be nonnegative, got {k}")
    meter = coerce_meter(meter)
    forced = [v for v in range(1, g.n + 1) if g.degree(v, meter) > 2 * k]
    if len(forced) > k:
        return None
    covered = set(forced)
    for v in forced:
        covered.update(g.neighbors(v, meter))
    rest = [v for v in range(1, g.n + 1) if v not in covered]
    if len(rest) > (2 * k + 1) * (k - len(forced)):
        return None
    return sorted(forced + rest)


def c4free_ds_approx(g, meter=None):
    """Dominating set on squarefree graphs, ratio O(sqrt(n)).

    Returns what :func:`c4free_ds_bounded_k` returns at its first
    success over budgets 1, 2, ..., or every vertex when no budget below
    ceil(sqrt(n)) succeeds, but decides every budget from one degree
    profile.  With M(v) the largest degree in v's closed neighbourhood,
    budget k forces {v : deg(v) > 2k} and leaves exactly
    {v : M(v) <= 2k} undominated by them, so counting degrees and M once
    answers each budget in O(1): n + 2m input accesses in all.  The
    profile is Theta(n) words and is not charged to the meter, like the
    bounded route's covered set; this route has no audited mode.
    """
    require_instance(g, GraphInstance, "c4free_ds_approx")
    n = g.n
    root = math.isqrt(n)
    cap = root if root * root == n else root + 1
    if cap > 1:
        meter = coerce_meter(meter)
        deg = [0] + [g.degree(v, meter) for v in range(1, n + 1)]
        top = [0] + [
            max([deg[v], *map(deg.__getitem__, g.neighbors(v, meter))])
            for v in range(1, n + 1)
        ]
        # at_most_deg[t] = #{v : deg(v) <= t}, at_most_top[t] = #{v : M(v) <= t},
        # for t up to the largest threshold 2k tried
        thresholds = range(2 * cap - 1)
        deg_count, top_count = Counter(deg[1:]), Counter(top[1:])
        at_most_deg = list(accumulate(deg_count[t] for t in thresholds))
        at_most_top = list(accumulate(top_count[t] for t in thresholds))
        for k in range(1, cap):
            t = 2 * k
            forced = n - at_most_deg[t]
            if forced <= k and at_most_top[t] <= (t + 1) * (k - forced):
                return [v for v in range(1, n + 1) if deg[v] > t or top[v] <= t]
    return list(range(1, n + 1))


class DomPartition:
    """Snapshot of one peeling round.

    ``y`` are the chosen dominators, ``b_h``/``b_l`` their dominated
    neighbors split by having at least 2d+1 undominated neighbors or
    fewer, ``w_h``/``w_l`` the undominated vertices split by having a
    neighbor among ``w_h | w_l | b_h`` or not.  The five parts are
    disjoint and cover the vertex set.
    """

    __slots__ = ("y", "b_h", "b_l", "w_h", "w_l")

    def __init__(self, y, b_h, b_l, w_h, w_l):
        self.y = frozenset(y)
        self.b_h = frozenset(b_h)
        self.b_l = frozenset(b_l)
        self.w_h = frozenset(w_h)
        self.w_l = frozenset(w_l)

    @property
    def b(self):
        return self.b_h | self.b_l

    @property
    def w(self):
        return self.w_h | self.w_l

    @property
    def w_star(self):
        return self.w_h | self.w_l | self.b_h

    def __repr__(self):
        return (
            f"DomPartition(|y|={len(self.y)}, |b|={len(self.b)}, "
            f"|w|={len(self.w)})"
        )


def _partition(g, y, d, meter):
    closed = set(y)
    for u in y:
        closed.update(g.neighbors(u, meter))
    w = {v for v in range(1, g.n + 1) if v not in closed}
    b_h, b_l = [], []
    for v in closed - set(y):
        inside = sum(1 for u in g.neighbors(v, meter) if u in w)
        (b_h if inside >= 2 * d + 1 else b_l).append(v)
    w_star = w | set(b_h)
    w_h, w_l = [], []
    for v in w:
        live = any(u in w_star for u in g.neighbors(v, meter))
        (w_h if live else w_l).append(v)
    return DomPartition(y, b_h, b_l, w_h, w_l)


def dgn_rounds(g, d=None, meter=None, space_audit=False):
    """Yield the peeling partition at every loop boundary.

    The first yield is the entry partition, the last has empty ``w_h``.
    Each round collects the undominated vertices of degree <= 2d in the
    graph induced on ``w_star`` and adds their neighbors there to ``y``;
    in a d-degenerate graph at least half of ``w_h`` qualifies, so the
    round count stays logarithmic.  Exceeding 2*ceil(log2(n+1)) + 2
    rounds raises RoundLimitError, which signals that the graph is not
    actually d-degenerate.

    This route has no audited mode yet: ``space_audit`` is accepted like
    the other solvers' and changes nothing, outputs and meter charges
    alike.
    """
    require_instance(g, GraphInstance, "dgn_rounds")
    if d is None:
        d = degeneracy(g)
    if d < 0:
        raise DomainError(f"degeneracy bound must be nonnegative, got {d}")
    meter = coerce_meter(meter)
    cap = 2 * math.ceil(math.log2(g.n + 1)) + 2
    y = set()
    part = _partition(g, y, d, meter)
    rounds = 0
    while True:
        yield part
        if not part.w_h:
            return
        rounds += 1
        if rounds > cap:
            raise RoundLimitError(
                f"still undominated after {cap} rounds; "
                f"the input is denser than {d}-degenerate"
            )
        w_star = part.w_star
        for v in part.w_h:
            inside = [u for u in g.neighbors(v, meter) if u in w_star]
            if len(inside) <= 2 * d:
                y.update(inside)
        part = _partition(g, y, d, meter)


def dgn_dom_set(g, d=None, meter=None, space_audit=False):
    """Dominating set for a d-degenerate graph in O(log n) rounds.

    Parameters
    ----------
    g : GraphInstance
    d : int or None
        Degeneracy bound; computed from g when omitted.
    space_audit : bool
        Accepted and ignored, as in ``dgn_rounds``.

    Returns
    -------
    list of int
        Dominating set: the chosen dominators plus the vertices left
        isolated among the undominated.

    Raises
    ------
    RoundLimitError
        When the round cap is exceeded, i.e. d understates the graph.
    """
    part = None
    for part in dgn_rounds(g, d, meter=meter):
        pass
    return sorted(part.y | part.w_l)


def regular_ds_derand(g, d, meter=None):
    """Dominating set for a d-regular graph via a hash-family sweep.

    Every member f of the 2-universal family over range size d+1 yields
    the dominating set W_f = S_f + (V minus N[S_f]) with
    S_f = {v : f(v) <= ceil(ln(d+1))}; the family average of |W_f| meets
    the n*(ln(d+1)+1)/(d+1) sampling bound, so the sweep's minimum does
    too.  ``HashFamily.best_member`` sweeps the family for the smallest
    |W_f| = |S_f| + n - |N[S_f]|, ties to the smallest (a, b).

    |S_f| is the sum of the vertices' lane ints and |N[S_f]| the sum,
    over v, of v's int OR-ed with its neighbours'.  A member reads
    d*|S_f| adjacency words, since g is d-regular, and holds S_f and
    N[S_f] as |S_f| + |N[S_f]| words.  The winner's S_f and N[S_f] are
    rebuilt uncharged, and W_f is built for the winner only.

    Parameters
    ----------
    g : GraphInstance
        Exactly d-regular; anything else raises DomainError.
    d : int
        The regular degree, at least 0.

    Returns
    -------
    list of int
        A dominating set of g.
    """
    require_instance(g, GraphInstance, "regular_ds_derand")
    if d < 0:
        raise DomainError(f"degree must be nonnegative, got {d}")
    meter = coerce_meter(meter)
    for v in range(1, g.n + 1):
        if g.degree(v, meter) != d:
            raise DomainError(f"vertex {v} has degree {g.degree(v)}, not {d}")
    n = g.n
    if n == 0:
        return []
    t = max(1, math.ceil(math.log(d + 1)))
    fam = cw_family(n, d + 1, meter)
    # column j holds the j-th neighbour of every vertex, as g is d-regular
    columns = list(zip(*map(g.neighbors, range(1, n + 1))))

    def figures(lanes, unpack):
        closed = lanes[1:]
        for column in columns:
            closed = list(map(or_, closed, map(lanes.__getitem__, column)))
        sizes, reached = unpack(sum(lanes)), unpack(sum(closed))
        scores = [size + n - covered for size, covered in zip(sizes, reached)]
        return scores, [d * size for size in sizes], list(map(add, sizes, reached))

    # a lane counts at most n vertices
    sampled, words = fam.best_member(t, n, figures, meter)
    covered = set(sampled).union(*map(g.neighbors, sampled))
    w_f = sampled + [v for v in range(1, n + 1) if v not in covered]
    meter.release(words)
    return sorted(w_f)
