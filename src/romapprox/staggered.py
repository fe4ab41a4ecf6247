"""Staggered frequency-peeling for hitting set, and vertex deletion
toward forbidden-pattern-free graph classes.

The budgeted solver kernelizes, then peels in rounds: round j deletes
every element whose live-set count is still at least theta_j and lets
the deletions cascade through the layered view; survivor counts above
kappa_j prove the budget k infeasible.  The rounds run over the kernel
augmented with the saturated discard witnesses of two or more elements,
so every discarded set of the input is hit through its witness; smaller
witnesses need no help since their element is frequent enough to die in
round one.  Wrappers search k upward and fall back to trivial hitting
sets at the cap, trading ratio for certainty.

Vertex deletion problems with finite forbidden-pattern catalogs reduce
to hitting the family of pattern-inducing vertex subsets.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .exact import StructureKind, validate
from .instances import DigraphInstance, GraphInstance, SetFamilyInstance, require_instance
from .kernels import RetentionTable
from .layers import LayeredFamilyView, StagePredicate, enumerate_stage

SLOP = 1e-9


def _check_eps(eps):
    if not 0 < eps <= 1:
        raise DomainError(f"epsilon must be in (0, 1], got {eps}")


@dataclass(frozen=True)
class EpsSchedule:
    """Round count and per-round thresholds for the peeling phase.

    Rounds number max(1, ceil((d-1)/eps)); rounds 1..rounds-1 peel with
    threshold theta and cap kappa, the last round collects survivors.
    """

    eps: float
    d: int

    def __post_init__(self):
        _check_eps(self.eps)
        if self.d < 1:
            raise DomainError(f"set-size bound must be positive, got {self.d}")

    @property
    def rounds(self):
        return max(1, math.ceil((self.d - 1) / self.eps - SLOP))

    def theta(self, k, j):
        return (k + 1) ** (self.d - 1 - j * self.eps)

    def kappa(self, k, j):
        return (k + 1) ** (self.d - j * self.eps)


class _FreqStage(StagePredicate):
    """Deletes live elements hitting at least theta live sets; the
    audited ``check`` asks e's sets only until that is decided
    (``FamilyLevel.live_sets_reach``)."""

    def __init__(self, j, theta):
        super().__init__(f"peel-round-{j}", words_budget=16)
        self.theta = theta

    def check(self, level, e):
        return level.live_sets_reach(e, self.theta - SLOP)

    def deletions(self, level):
        """The live elements ``check`` deletes, ascending: each live set
        counts once for each of its elements."""
        counts = [0] * (level.n + 1)
        for j in range(1, level.base.m + 1):
            for e in level.live_members(j) or ():
                counts[e] += 1
        bar = self.theta - SLOP
        return [e for e in level.live_ids() if counts[e] >= bar]


def _augmented_kernel(table, k):
    """Retained sets plus the multi-element saturated witnesses, or None
    when the table's scan itself rules out budget k."""
    f = table.f
    retained, witnesses, saturated_no = table.scan(k)
    if saturated_no:
        return None
    sets = [f.set_elements(j) for j in retained]
    sets.extend(b for b in witnesses if 2 <= len(b) <= f.d - 1)
    return SetFamilyInstance(f.n, f.d, sets)


def hs_bounded_k(f, k, eps, meter=None, space_audit=False):
    """Hitting set within a budget-driven size cap, or None.

    Parameters
    ----------
    f : SetFamilyInstance
    k : int
        Candidate budget, at least 0.
    eps : float
        Peeling granularity in (0, 1].
    space_audit : bool
        Recompute layers instead of memoizing them.

    Returns
    -------
    list of int or None
        None means no hitting set of size at most k exists.  Otherwise
        the peeled elements round by round followed by the elements of
        the surviving sets, a hitting set for all of f of size at most
        (ceil((d-1)/eps) + d) * (k+1)^(1+eps).
    """
    require_instance(f, SetFamilyInstance, "hs_bounded_k")
    _check_eps(eps)
    return _bounded_k(RetentionTable(f), k, eps, meter, space_audit)


def _bounded_k(table, k, eps, meter, space_audit):
    """:func:`hs_bounded_k` on the family of a retention table that a
    budget search scans at every budget."""
    kernel = _augmented_kernel(table, k)
    if kernel is None:
        return None
    schedule = EpsSchedule(eps, table.f.d)
    stages = [
        _FreqStage(j, schedule.theta(k, j)) for j in range(1, schedule.rounds)
    ]
    view = LayeredFamilyView(kernel, stages, meter=meter, memoized=not space_audit)
    survivors = range(1, kernel.m + 1)
    for j in range(1, schedule.rounds):
        cap = schedule.kappa(k, j) + SLOP
        level = view.level(j)
        # a set dead after round j-1 stays dead
        alive, survivors = survivors, []
        for t in alive:
            if level.live_members(t):
                survivors.append(t)
                if len(survivors) > cap:
                    return None
    out = []
    for j in range(1, schedule.rounds):
        out.extend(enumerate_stage(view, j, "S"))
    out.extend(sorted({e for t in survivors for e in kernel.set_elements(t)}))
    return out


def hs_eps_approx(f, eps, meter=None, space_audit=False):
    """Hitting set with ratio O((d/eps) * n^eps), searching k upward.

    Tries budgets 1, 2, ... and returns the first success; at budget
    ceil(n^(1-eps)) gives up and returns every element that appears in
    some set, which always hits and is within n^eps of any optimum that
    large.
    """
    require_instance(f, SetFamilyInstance, "hs_eps_approx")
    _check_eps(eps)
    cap = math.ceil(f.n ** (1 - eps) - SLOP)
    table = RetentionTable(f)
    for k in range(1, cap):
        got = _bounded_k(table, k, eps, meter, space_audit)
        if got is not None:
            return got
    return [e for e in range(1, f.n + 1) if f.sets_containing(e)]


def hs_sqrt_approx(f, meter=None):
    """Hitting set with ratio O(d * n^(1-1/d)) from the kernel alone.

    Searches budgets upward for the first successful scan and returns
    every element of the retained sets; their union hits the whole
    family.  At budget ceil(n^(1/d)) returns the ground set.  ``meter``
    is accepted like every solver's, but nothing is charged to it.
    """
    require_instance(f, SetFamilyInstance, "hs_sqrt_approx")
    cap = math.ceil(f.n ** (1 / f.d) - SLOP)
    table = RetentionTable(f)
    for k in range(1, cap):
        retained, _, saturated_no = table.scan(k)
        if saturated_no:
            continue
        used = set()
        for j in retained:
            used.update(f.set_elements(j))
        return sorted(used)
    return list(range(1, f.n + 1))


def _edges(adj):
    for u in range(1, len(adj)):
        for v in adj[u]:
            if u < v:
                yield (u, v)


def _induced_paths(adj, k):
    """Vertex lists of the induced paths on k vertices, each found from
    both ends: a path grows by a neighbor of its last vertex that is
    adjacent to no earlier one."""
    paths = [[v] for v in range(1, len(adj))]
    for _ in range(k - 1):
        paths = [
            p + [w]
            for p in paths
            for w in adj[p[-1]]
            if w not in p and not any(w in adj[x] for x in p[:-1])
        ]
    return paths


def _closed_cycles(adj, k):
    """Induced cycles on k vertices: an induced path on k - 1 vertices
    closed by a vertex adjacent to both ends and to no interior one."""
    for p in _induced_paths(adj, k - 1):
        for w in adj[p[0]] & adj[p[-1]]:
            if w not in p and not any(w in adj[x] for x in p[1:-1]):
                yield p + [w]


def _triangles(adj):
    for u, v in _edges(adj):
        for w in adj[u] & adj[v]:
            if w > v:
                yield (u, v, w)


def _induced_matchings(adj):
    """Pairs of disjoint edges with no edge between them."""
    edges = list(_edges(adj))
    for i, (a, b) in enumerate(edges):
        near = adj[a] | adj[b]
        for c, d in edges[i + 1:]:
            if c not in near and d not in near:
                yield (a, b, c, d)


def _directed_triangles(d):
    for a, b, c in combinations(range(1, d.n + 1), 3):
        if (
            d.has_arc(a, b) and d.has_arc(b, c) and d.has_arc(c, a)
        ) or (
            d.has_arc(a, c) and d.has_arc(c, b) and d.has_arc(b, a)
        ):
            yield (a, b, c)


# Pattern name -> (vertex count, enumerator).  An undirected pattern's
# enumerator reads neighbor sets indexed by vertex and may yield one
# occurrence several times, in any vertex order.
_PATTERNS = {
    "edge": (2, _edges),
    "triangle": (3, _triangles),
    "induced-path-3": (3, lambda adj: _induced_paths(adj, 3)),
    "induced-path-4": (4, lambda adj: _induced_paths(adj, 4)),
    "induced-cycle-4": (4, lambda adj: _closed_cycles(adj, 4)),
    "induced-cycle-5": (5, lambda adj: _closed_cycles(adj, 5)),
    "induced-matching-2": (4, _induced_matchings),
    "directed-triangle": (3, _directed_triangles),
}

FORBIDDEN_CATALOG = {
    "vc": ("edge",),
    "triangle-vd": ("triangle",),
    "cluster-vd": ("induced-path-3",),
    "cograph-vd": ("induced-path-4",),
    "threshold-vd": ("induced-matching-2", "induced-path-4", "induced-cycle-4"),
    "split-vd": ("induced-matching-2", "induced-cycle-4", "induced-cycle-5"),
    "tournament-fvs": ("directed-triangle",),
}
# The catalog problems posed on tournaments (digraphs); the rest take graphs.
TOURNAMENT_PROBLEMS = frozenset({"tournament-fvs"})


def forbidden_family(instance, problem):
    """Family of all vertex subsets inducing a forbidden pattern.

    Sets are emitted by size, then lexicographically.  The result's set
    size bound is the largest pattern size of the problem's catalog
    entry, so hitting the family is exactly destroying every induced
    occurrence.  Undirected patterns are grown from the graph (edges,
    common neighbors, induced paths and the cycles closing them, pairs
    of edges), so the cost follows the occurrences found rather than
    the C(n, s) vertex subsets; tournaments scan every triple.
    """
    if problem not in FORBIDDEN_CATALOG:
        raise DomainError(f"unknown problem {problem!r}")
    names = FORBIDDEN_CATALOG[problem]
    if problem in TOURNAMENT_PROBLEMS:
        require_instance(instance, DigraphInstance, problem)
        ok, witness = validate(StructureKind.TOURNAMENT, instance)
        if not ok:
            raise DomainError(f"not a tournament: {witness}")
        source = instance
    else:
        require_instance(instance, GraphInstance, problem)
        source = [set()]
        source.extend(set(instance.neighbors(v)) for v in range(1, instance.n + 1))
    found = set()
    for name in names:
        found.update(tuple(sorted(occ)) for occ in _PATTERNS[name][1](source))
    d = max(_PATTERNS[name][0] for name in names)
    sets = sorted(found, key=lambda s: (len(s), s))
    return SetFamilyInstance(instance.n, d, sets)


def del_pi_approx(instance, problem, eps, meter=None, space_audit=False):
    """Vertices whose deletion removes every catalog pattern, with the
    hitting-set wrapper's O((d/eps) n^eps) ratio."""
    family = forbidden_family(instance, problem)
    return hs_eps_approx(family, eps, meter=meter, space_audit=space_audit)
