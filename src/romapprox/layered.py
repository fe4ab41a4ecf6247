"""Stage-layered approximation algorithms.

Degree-bounded vertex cover and maximal independent set run one stage
per adjacency position 1..max degree.  Stage i looks at the graph left
by stages 1..i-1 and wires each live vertex to its i-th base neighbor
(when live), an out-degree-one subgraph solved exactly by the functional
machinery.  For covers the solved set is the stage's deletions, and the
union covers within factor 2: every base edge shows up in some stage
subgraph while both endpoints live.

For independent sets the stage subgraph hides base edges ranked away
from i at both endpoints, so the machine's choice is filtered down to
the greedy ascending-id independent set it induces in the live base
graph; the stage deletes the kept set plus its live neighborhood, and
one extra stage (whose subgraph is empty by construction) sweeps up the
survivors.  Every vertex is deleted exactly once, at that moment either
kept or base-adjacent to a kept vertex, so the union of kept sets is an
independent set no outside vertex can extend.

Bounded-multiplicity hitting set does the same over a set family: stage
i collects the live sets that are some live element's i-th set, takes a
maximal independent set of their intersection graph, and deletes every
element of the chosen sets.  Chosen sets are pairwise disjoint, so each
costs at most its d elements against any optimum that must hit it.
"""

from .errors import DomainError
from .instances import GraphInstance, SetFamilyInstance
from .layers import (
    LayeredFamilyView,
    LayeredGraphView,
    StagePredicate,
    enumerate_stage,
)
from .treefunc import component_cover_member, fast_cover_members


class StageSubgraph:
    """Stage i's out-degree-one subgraph over the level's live vertices,
    exposed through the rooted-forest protocol."""

    __slots__ = ("level", "i")

    undirected = False

    def __init__(self, level, i):
        self.level = level
        self.i = i

    def out(self, v):
        """v's rank-i base neighbor when it is live, else None: one
        access for the rank-i word, then that neighbor's liveness walk.
        Ids come from the base adjacency, so none is re-validated."""
        view = self.level.view
        view.meter.access()
        around = view.base.neighbors(v)
        i = self.i
        if i > len(around):
            return None
        w = around[i - 1]
        return w if view._live(self.level.i, w) else None

    def children(self, v, parent=None):
        """Live neighbors w whose rank-i neighbor is v, in v's adjacency
        order.  Each base neighbor w costs two accesses, the neighbor
        word and w's rank-i word, and the cheap rank test runs first:
        w's recursive liveness walk is only asked for when w's rank-i
        neighbor is v."""
        level = self.level
        view = level.view
        base = view.base
        meter = view.meter
        live = view._live
        depth = level.i
        i = self.i
        for w in base.neighbors(v):
            meter.access(2)
            around = base.neighbors(w)
            if i <= len(around) and around[i - 1] == v and live(depth, w):
                yield w


class _CoverStage(StagePredicate):
    """Deletes the canonical minimum cover of the stage subgraph."""

    def __init__(self, i):
        super().__init__(f"cover-stage-{i}", words_budget=24)
        self.i = i

    def check(self, level, v):
        return component_cover_member(StageSubgraph(level, self.i), v)

    def deletions(self, level):
        live = [u for u in range(1, level.n + 1) if level.vertex_live(u)]
        member = fast_cover_members(StageSubgraph(level, self.i), live)
        return [u for u in live if member[u]]


KEPT_FRAME_WORDS = 4


class _IndepStage(StagePredicate):
    """Deletes the stage's kept set together with its live neighborhood.

    The machine solves the stage subgraph exactly, but that subgraph
    omits base edges whose adjacency rank differs from i at both ends,
    so the machine's set need not be independent in the live base graph.
    The kept set is the greedy repair: a machine vertex survives iff no
    smaller machine vertex adjacent to it in the live base graph
    survived.  Kept vertices are pairwise non-adjacent in the base
    graph, and every machine vertex is kept or base-adjacent to a kept
    one, so the whole machine set dies with the stage.
    """

    def __init__(self, i):
        super().__init__(f"independent-stage-{i}", words_budget=28)
        self.i = i

    def _kept(self, level, v):
        """Is v a machine vertex with no smaller kept live neighbor?

        Each base neighbor w costs one access, and the cheap test
        ``w < v`` runs first: w's liveness walk and its own kept query
        are only asked for when w is smaller than v."""
        if component_cover_member(StageSubgraph(level, self.i), v):
            return False
        view = level.view
        meter = view.meter
        live = view._live
        depth = level.i
        meter.alloc(KEPT_FRAME_WORDS)
        try:
            for w in level.base.neighbors(v):
                meter.access()
                if w < v and live(depth, w) and self._kept(level, w):
                    return False
            return True
        finally:
            meter.release(KEPT_FRAME_WORDS)

    def check(self, level, v):
        if self._kept(level, v):
            return True
        for w in level.neighbors_live(v):
            if self._kept(level, w):
                return True
        return False

    def deletions(self, level):
        """Deleted vertex -> kept flag: the greedy kept set of the
        machine's choice and every live vertex next to a kept one."""
        live = [u for u in range(1, level.n + 1) if level.vertex_live(u)]
        cover = fast_cover_members(StageSubgraph(level, self.i), live)
        kept = {}
        for v in live:
            if not cover[v]:
                kept[v] = not any(
                    w < v and kept.get(w, False) for w in level.neighbors_live(v)
                )
        return {
            v: kept.get(v, False)
            for v in live
            if kept.get(v, False)
            or any(kept.get(w, False) for w in level.neighbors_live(v))
        }

    def chosen(self, level, v):
        if level.view.memoized:
            return level.view.stage_deletions(level.i + 1).get(v, False)
        return self._kept(level, v)


def _resolve_bound(actual, declared, what):
    if declared is None:
        return actual
    if declared < actual:
        raise DomainError(f"declared {what} {declared} below actual {actual}")
    return declared


def bd_vc_view(g, max_degree=None, meter=None, memoized=True):
    """The layered view whose stage deletions form the 2-approximate cover."""
    if not isinstance(g, GraphInstance):
        raise DomainError("bd_vc_2approx needs a GraphInstance")
    delta = _resolve_bound(g.max_degree(), max_degree, "max degree")
    stages = [_CoverStage(i) for i in range(1, delta + 1)]
    return LayeredGraphView(g, stages, meter=meter, memoized=memoized)


def bd_vc_2approx(g, max_degree=None, meter=None, space_audit=False):
    """Stream a vertex cover of at most twice the optimum size.

    Stage-major order, ascending ids within a stage.  ``space_audit``
    switches to the per-query recomputation the meter reports on.
    """
    view = bd_vc_view(g, max_degree, meter=meter, memoized=not space_audit)
    for i in range(1, view.depth + 1):
        for v in enumerate_stage(view, i, "S"):
            yield v


def bd_is_view(g, max_degree=None, meter=None, memoized=True):
    """The layered view whose stage keeps form the maximal independent set.

    One stage per adjacency rank plus a final sweep stage whose subgraph
    is empty (no vertex has a neighbor at rank max degree + 1), so any
    vertex still live there is machine-chosen and kept unless a smaller
    live survivor blocks it.
    """
    if not isinstance(g, GraphInstance):
        raise DomainError("bd_maximal_is needs a GraphInstance")
    delta = _resolve_bound(g.max_degree(), max_degree, "max degree")
    stages = [_IndepStage(i) for i in range(1, delta + 2)]
    return LayeredGraphView(g, stages, meter=meter, memoized=memoized)


def bd_maximal_is(g, max_degree=None, meter=None, space_audit=False):
    """Stream a maximal independent set, stage-major.

    Stage i deletes its kept set plus that set's live neighborhood;
    only the kept vertices are emitted.  Every vertex dies in exactly
    one stage, at that point either kept or base-adjacent to a kept
    vertex, so the union is independent and maximal in the input graph.
    """
    view = bd_is_view(g, max_degree, meter=meter, memoized=not space_audit)
    for i in range(1, view.depth + 1):
        stage = view.stages[i - 1]
        level = view.level(i - 1)
        view.meter.tick_pass()
        for v in range(1, g.n + 1):
            if view.vertex_live(i - 1, v) and stage.chosen(level, v):
                yield v


def _intersection_edges(f, positions):
    """Edges (a, b), a < b, in ascending order, of the intersection graph
    of the sets at ascending ``positions`` (vertex a is positions[a-1]).
    Pairs come from each element's set list, so the cost is the sum of
    squared multiplicities, not the square of len(positions)."""
    rank = {j: a for a, j in enumerate(positions, 1)}
    return sorted(
        {
            (rank[j], rank[k])
            for j in positions
            for e in f.set_elements(j)
            for k in f.sets_containing(e)
            if k > j and k in rank
        }
    )


class _HsStage(StagePredicate):
    """Deletes every element of the sets chosen at this stage.

    The stage's candidate sets are the live sets that are some live
    element's i-th set; choices are a maximal independent set of their
    intersection graph, so chosen sets never share elements.
    """

    def __init__(self, i, set_bound, mult_bound):
        super().__init__(f"hitting-stage-{i}", words_budget=28)
        self.i = i
        self.inner_degree = max(0, set_bound * (mult_bound - 1))

    def _stage_sets(self, level):
        positions = []
        for j in range(1, level.base.m + 1):
            if not level.set_live(j):
                continue
            for e in level.set_elements(j):
                if level.element_live(e) and level.ith_set_of(e, self.i) == j:
                    positions.append(j)
                    break
        return positions

    def _chosen_sets(self, level):
        positions = self._stage_sets(level)
        edges = _intersection_edges(level.base, positions)
        igraph = GraphInstance(len(positions), edges)
        return frozenset(
            positions[p - 1]
            for p in bd_maximal_is(
                igraph,
                max_degree=max(self.inner_degree, igraph.max_degree()),
                meter=level.view.meter,
                space_audit=not level.view.memoized,
            )
        )

    def check(self, level, e):
        chosen = self._chosen_sets(level)
        for j in level.base.sets_containing(e):
            if j in chosen:
                return True
        return False

    def deletions(self, level):
        gone = set()
        for j in self._chosen_sets(level):
            gone.update(level.base.set_elements(j))
        return gone


def hs_view(f, max_multiplicity=None, meter=None, memoized=True):
    """The layered view whose stage deletions form the d-approximate
    hitting set, one stage per multiplicity rank."""
    if not isinstance(f, SetFamilyInstance):
        raise DomainError("bounded_mult_hs needs a SetFamilyInstance")
    delta = _resolve_bound(f.max_multiplicity(), max_multiplicity, "multiplicity")
    stages = [_HsStage(i, f.d, delta) for i in range(1, delta + 1)]
    return LayeredFamilyView(f, stages, meter=meter, memoized=memoized)


def bounded_mult_hs(f, max_multiplicity=None, meter=None, space_audit=False):
    """Stream a hitting set at most ``d`` times the optimum, stage-major.

    One stage per multiplicity rank 1..max multiplicity; stage i's
    chosen sets are pairwise disjoint and each forces one optimum
    element, so charging its at most d elements to that optimum element
    gives the factor.
    """
    view = hs_view(f, max_multiplicity, meter=meter, memoized=not space_audit)
    for i in range(1, view.depth + 1):
        for e in enumerate_stage(view, i, "S"):
            yield e
