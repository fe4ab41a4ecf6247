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

Bounded-multiplicity hitting set does the same over a set family, one
stage per multiplicity rank 1..max multiplicity: stage i collects the
live sets that are some live element's i-th set, takes a maximal
independent set of their intersection graph, and deletes every element
of the chosen sets.  That inner ``bd_maximal_is`` runs one stage per
rank of the intersection graph's own max degree, which is at most
d(δ-1), plus its sweep stage.  Chosen sets are pairwise disjoint, so
each costs at most its d elements against any optimum that must hit it.
"""

from .instances import GraphInstance, SetFamilyInstance, require_instance
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


def _stage_successors(level, i):
    """Fast mode: stage i's successor map over the level's live vertices
    of degree at least i and their live rank-i neighbors.  Each of the
    first maps to its rank-i neighbor when that is live, else to None;
    a neighbor of lower degree maps to None.  Every other live vertex is
    isolated in the stage subgraph, so it is in no cover and not here.

    One access per rank-i word read, the words ``StageSubgraph.out``
    charges.  Stage 1 reads every vertex's degree with its rank-1 word,
    one access per vertex, and that read orders the vertices by degree
    (``GraphLevel.by_degree``); stage i then visits only the prefix of
    degree at least i, so all stages together cost O(n + m).
    """
    alive = level.live_ids()
    succ = {}
    reads = 0
    for v, around in level.by_degree():
        if len(around) < i:
            break
        if v in alive:
            reads += 1
            w = around[i - 1]
            if w in alive:
                succ[v] = w
                succ.setdefault(w, None)
            else:
                succ[v] = None
    level.view.meter.access(level.n if i == 1 else reads)
    return succ


class _CoverStage(StagePredicate):
    """Deletes the canonical minimum cover of the stage subgraph."""

    def __init__(self, i):
        super().__init__(f"cover-stage-{i}", words_budget=24)
        self.i = i

    def check(self, level, v):
        return component_cover_member(StageSubgraph(level, self.i), v)

    def deletions(self, level):
        member = fast_cover_members(_stage_successors(level, self.i))
        return [v for v, taken in member.items() if taken]


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
        machine's choice and every live vertex next to a kept one.

        A machine vertex reads its adjacency up to its first smaller
        kept neighbor, all of it when it is kept, one access per word; a
        cover vertex reads nothing, since it dies only next to a kept
        vertex, whose own read finds it."""
        cover = fast_cover_members(_stage_successors(level, self.i))
        alive = level.live_ids()
        base = level.base
        meter = level.view.meter
        kept = set()
        gone = set()
        for v in alive:
            if cover.get(v, False):
                continue
            around = base.neighbors(v)
            read = len(around)
            for at, w in enumerate(around, 1):
                if w < v and w in kept:
                    read = at
                    break
            else:
                kept.add(v)
                gone.add(v)
                gone.update(w for w in around if w in alive)
            meter.access(read)
        return {v: v in kept for v in gone}


def bd_vc_view(g, meter=None, memoized=True):
    """The layered view whose stage deletions form the 2-approximate cover."""
    require_instance(g, GraphInstance, "bd_vc_2approx")
    stages = [_CoverStage(i) for i in range(1, g.max_degree() + 1)]
    return LayeredGraphView(g, stages, meter=meter, memoized=memoized)


def bd_vc_2approx(g, meter=None, space_audit=False):
    """Stream a vertex cover of at most twice the optimum size.

    Stage-major order, ascending ids within a stage.  ``space_audit``
    switches to the per-query recomputation the meter reports on.
    """
    view = bd_vc_view(g, meter=meter, memoized=not space_audit)
    for i in range(1, view.depth + 1):
        for v in enumerate_stage(view, i, "S"):
            yield v


def bd_is_view(g, meter=None, memoized=True):
    """The layered view whose stage keeps form the maximal independent set.

    One stage per adjacency rank plus a final sweep stage whose subgraph
    is empty (no vertex has a neighbor at rank max degree + 1), so any
    vertex still live there is machine-chosen and kept unless a smaller
    live survivor blocks it.
    """
    require_instance(g, GraphInstance, "bd_maximal_is")
    stages = [_IndepStage(i) for i in range(1, g.max_degree() + 2)]
    return LayeredGraphView(g, stages, meter=meter, memoized=memoized)


def bd_maximal_is(g, meter=None, space_audit=False):
    """Stream a maximal independent set, stage-major.

    Stage i deletes its kept set plus that set's live neighborhood;
    only the kept vertices are emitted.  Every vertex dies in exactly
    one stage, at that point either kept or base-adjacent to a kept
    vertex, so the union is independent and maximal in the input graph.

    An audited solve can exceed the ``(depth+1) * WORDS_PER_LEVEL``
    frame bound of ``layers.py``: ``_IndepStage._kept`` recurses, one
    ``KEPT_FRAME_WORDS`` frame and one interpreter frame a level, down
    each descending chain of smaller live candidates.  On the k-tooth
    comb (tooth j on spine vertex k + j, the spine k + 1 .. 2k a path)
    the peak is 84 + 4k words against 160, nesting k + 1 deep, so a
    long spine raises ``RecursionError``; ROADMAP item 18 is the fix.
    """
    view = bd_is_view(g, meter=meter, memoized=not space_audit)
    for i in range(1, view.depth + 1):
        view.meter.tick_pass()
        if view.memoized:
            kept = view.stage_deletions(i)
            yield from sorted(v for v in kept if kept[v])
            continue
        stage = view.stages[i - 1]
        level = view.level(i - 1)
        for v in range(1, g.n + 1):
            if view.vertex_live(i - 1, v) and stage._kept(level, v):
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
    intersection graph, so chosen sets never share elements.  The inner
    ``bd_maximal_is`` reads the stage count off that graph: its own max
    degree, at most d(δ-1), plus the sweep stage.
    """

    def __init__(self, i):
        super().__init__(f"hitting-stage-{i}", words_budget=28)
        self.i = i

    def _stage_sets(self, level):
        positions = []
        for j in range(1, level.base.m + 1):
            for e in level.live_members(j) or ():
                if level.ith_set_of(e, self.i) == j:
                    positions.append(j)
                    break
        return positions

    def check(self, level, e):
        return e in self.deletions(level)

    def deletions(self, level):
        positions = self._stage_sets(level)
        edges = _intersection_edges(level.base, positions)
        igraph = GraphInstance(len(positions), edges)
        gone = set()
        for p in bd_maximal_is(
            igraph, meter=level.view.meter, space_audit=not level.view.memoized
        ):
            gone.update(level.base.set_elements(positions[p - 1]))
        return gone


def hs_view(f, meter=None, memoized=True):
    """The layered view whose stage deletions form the d-approximate
    hitting set, one stage per multiplicity rank."""
    require_instance(f, SetFamilyInstance, "bounded_mult_hs")
    stages = [_HsStage(i) for i in range(1, f.max_multiplicity() + 1)]
    return LayeredFamilyView(f, stages, meter=meter, memoized=memoized)


def bounded_mult_hs(f, meter=None, space_audit=False):
    """Stream a hitting set at most ``d`` times the optimum, stage-major.

    One stage per multiplicity rank 1..max multiplicity; stage i's
    chosen sets are pairwise disjoint and each forces one optimum
    element, so charging its at most d elements to that optimum element
    gives the factor.

    An audited solve exceeds the ``(δ+1) * WORDS_PER_LEVEL`` frame bound
    of ``layers.py``: each hitting stage's ``check`` holds a nested
    audited ``bd_maximal_is`` view, up to d(δ-1) + 2 more frames.  On
    the k-petal sunflower (sets (1, v), d = 2, δ = k) the charged peak
    is 88 / 148 / 204 words at k = 2 / 3 / 4, against 96 / 128 / 160;
    ROADMAP item 5 (nested layered views) is the fix.
    """
    view = hs_view(f, meter=meter, memoized=not space_audit)
    for i in range(1, view.depth + 1):
        for e in enumerate_stage(view, i, "S"):
            yield e
