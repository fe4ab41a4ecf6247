"""Layered deletion oracles.

An algorithm in this package runs in stages: stage i inspects the instance
as it stands after stages 1..i-1 and deletes a set of items.  Liveness at
depth i is defined level by level:

* a vertex is live at depth i when it is live at depth i-1 and the stage-i
  predicate declines to delete it;
* a base edge is live when both endpoints are;
* a family element is live when it survived every stage so far;
* a set is live when none of its elements has been deleted.

Each stage predicate declares a words budget no larger than the module
constant ``WORDS_PER_LEVEL``; a liveness query at depth i holds one
budget frame per level it has yet to decide, so its charged peak is at
most ``(i+1) * WORDS_PER_LEVEL``.  Predicates receive a read handle
fixed to the level below them, which makes consulting the wrong level
impossible by construction.

The default mode materializes nothing: every query recomputes its item
through the stages, one loop over the levels rather than a recursion, so
a deep stack costs no interpreter stack.  This is what the space audits
run against.  ``memoized=True`` is the fast mode: the view asks each
stage for all of its deletions at once, in stage order and only when a
query first reaches that stage with some item live below it, records
the stage that deleted each item and the ids still live, and streams a
stage as its sorted record.  A fast solve costs O(n + m) plus its
stages' own work and charges their budget frames and the input words
they read.  Answers are identical; fast-mode charge profiles are not
audit material.
"""

from .errors import DomainError
from .instances import GraphInstance, SetFamilyInstance, require_instance
from .meter import coerce_meter

WORDS_PER_LEVEL = 32


class StagePredicate:
    """One deletion stage.

    ``check(level, item)`` returns True when the stage deletes ``item``;
    it is only ever asked about items live at the level below.  The
    declared ``words_budget`` must cover every local the check keeps
    while it runs, recursive liveness queries excluded (they carry their
    own frames).

    ``deletions(level)`` returns a container of every item the stage
    deletes from ``level``, for the fast mode.  The default asks
    ``check`` about each of ``level.live_ids()`` in ascending order;
    stages with a whole-stage solve override it.
    """

    def __init__(self, name, check=None, words_budget=16):
        if not 1 <= words_budget <= WORDS_PER_LEVEL:
            raise DomainError(
                f"words budget {words_budget} outside 1..{WORDS_PER_LEVEL}"
            )
        self.name = name
        self.words_budget = words_budget
        self._fn = check

    def check(self, level, item):
        return self._fn(level, item)

    def deletions(self, level):
        return [x for x in level.live_ids() if self.check(level, x)]

    def __repr__(self):
        return f"StagePredicate({self.name!r})"


class _Level:
    """Read handle to a view's instance after its first ``i`` stages."""

    __slots__ = ("view", "i")

    def __init__(self, view, i):
        self.view = view
        self.i = i

    @property
    def base(self):
        return self.view.base

    @property
    def n(self):
        return self.view.base.n

    def live_ids(self):
        """Fast mode, while the stage above this level fills: the ids
        live here, ascending (keys of the view's live dict)."""
        return self.view._alive


class GraphLevel(_Level):
    """Read handle to the graph after the first ``i`` stages."""

    __slots__ = ()

    def vertex_live(self, v):
        return self.view.vertex_live(self.i, v)

    def by_degree(self):
        """Fast mode: ``(v, neighbors of v)`` for each vertex of degree
        at least 1, highest degree first, ties ascending.  Counting-sorted
        once per view in O(n + max degree) steps and uncharged: callers
        charge the adjacency words they read."""
        view = self.view
        order = view._by_degree
        if order is None:
            base = view.base
            buckets = [[] for _ in range(base.max_degree() + 1)]
            for v in range(1, base.n + 1):
                around = base.neighbors(v)
                buckets[len(around)].append((v, around))
            order = view._by_degree = [p for b in reversed(buckets[1:]) for p in b]
        return order

    def neighbors_live(self, v):
        view = self.view
        live = view._live
        meter = view.meter
        i = self.i
        for w in view.base.neighbors(v):
            meter.access()
            if live(i, w):
                yield w


class FamilyLevel(_Level):
    """Read handle to the set family after the first ``i`` stages."""

    __slots__ = ()

    def element_live(self, e):
        return self.view.element_live(self.i, e)

    def live_members(self, j):
        """Set j's elements when all of them are live here, else None
        (sets are never empty, so the answer is truthy iff j is live).

        The one derivation of set liveness: one charged read of the set,
        then each element's liveness in order up to the first dead one.
        The ids come from the family itself, so none is re-validated."""
        view = self.view
        members = view.base.set_elements(j, view.meter)
        live = view._live
        i = self.i
        for e in members:
            if not live(i, e):
                return None
        return members

    def live_set_count_containing(self, e):
        view = self.view
        count = 0
        for j in view.base.sets_containing(e, view.meter):
            if self.live_members(j):
                count += 1
        return count

    def ith_set_of(self, e, i):
        return self.view.base.ith_set_of(e, i, self.view.meter)


class _LayeredView:
    """Stack of deletion stages over a base instance; subclasses name the
    item kind (``_item``), the level handle class (``_level_cls``) and
    the layer kinds :func:`enumerate_stage` streams (``_kinds``).

    In the default mode ``_live(i, x)`` charges the frames of levels
    1..i at once and runs their predicates upward, releasing each frame
    as its predicate returns and stopping at the first deletion.  Every
    predicate call thus holds what a level-by-level recursion would: the
    frames of its own level and of every level above it.  Liveness is
    monotone in depth, so a caller that knows x is live at depth k asks
    ``_live(i, x, k)``, which charges and runs levels k+1..i only.

    With ``memoized=True`` the view is the only cache.  ``_death[x]`` is
    the stage that deleted item x (``depth + 1`` while none has), so
    ``_live(i, x)`` is ``_death[x] > i`` once the stages x survived are
    filled; ``_alive`` keys the ids live after the filled stages,
    ascending (a dict, so a deletion costs O(1)).  Stages fill in order,
    stage k when a query or a stage stream first reaches it and only
    while some item is live at depth k-1 (else it deletes nothing,
    unasked).  Its ``deletions`` runs once, on the level whose
    ``live_ids()`` is ``_alive``, holding ``_frames[k]``, what a depth-k
    query holds; the container it returns is kept in ``_deleted``.  A
    view thus costs O(n) plus its stages' work, and charges their frames
    and the input words they read.
    """

    def __init__(self, base, stages, meter=None, memoized=False):
        self.base = base
        self.stages = tuple(stages)
        self.depth = len(self.stages)
        self.meter = coerce_meter(meter)
        self.memoized = memoized
        self._levels = [self._level_cls(self, i) for i in range(self.depth + 1)]
        frames = [0]
        for pred in self.stages:
            frames.append(frames[-1] + pred.words_budget)
        self._frames = frames
        if memoized:
            self._death = [self.depth + 1] * (base.n + 1)
            self._deleted = []
            self._alive = dict.fromkeys(range(1, base.n + 1))
            self._live = self._recorded_live

    def level(self, i):
        if not 0 <= i <= self.depth:
            raise DomainError(f"level {i} outside 0..{self.depth}")
        return self._levels[i]

    def _checked_live(self, i, x):
        if not 0 <= i <= self.depth:
            raise DomainError(f"level {i} outside 0..{self.depth}")
        if not 1 <= x <= self.base.n:
            raise DomainError(f"{self._item} {x} out of range 1..{self.base.n}")
        return self._live(i, x) if i else True

    def _live(self, i, x, k=0):
        """Liveness of a valid item id at depth i, given it is live at depth k."""
        if not i:
            return True
        meter = self.meter
        held = self._frames[i] - self._frames[k]
        meter.alloc(held)
        live = True
        try:
            stages = self.stages
            levels = self._levels
            while live and k < i:
                pred = stages[k]
                live = not pred.check(levels[k], x)
                meter.release(pred.words_budget)
                held -= pred.words_budget
                k += 1
        finally:
            meter.release(held)
        return live

    def _recorded_live(self, i, x, k=0):
        """Fast-mode ``_live``: fills the stages x survived, up to i."""
        death = self._death
        deleted = self._deleted
        while len(deleted) < i and death[x] > len(deleted):
            self._fill()
        return death[x] > i

    def _fill(self):
        """Record the deletions of the first stage not yet filled; with
        nothing live below it, the stage deletes nothing unasked."""
        k = len(self._deleted) + 1
        alive = self._alive
        gone = ()
        if alive:
            meter = self.meter
            meter.alloc(self._frames[k])
            try:
                gone = self.stages[k - 1].deletions(self._levels[k - 1])
            finally:
                meter.release(self._frames[k])
            death = self._death
            for x in gone:
                death[x] = k
                del alive[x]
        self._deleted.append(gone)

    def stage_deletions(self, i):
        """Fast mode: the container stage i's ``deletions`` returned
        (empty when nothing was live below it), filling the stages up
        to i that no query has reached yet."""
        while len(self._deleted) < i:
            self._fill()
        return self._deleted[i - 1]

    def stage_deleted(self, i, x):
        """True when stage i is the one that deleted x."""
        if not 1 <= i <= self.depth:
            raise DomainError(f"stage {i} outside 1..{self.depth}")
        return self._checked_live(i - 1, x) and not self._live(i, x, i - 1)


class LayeredGraphView(_LayeredView):
    """Stack of deletion stages over a graph."""

    _item = "vertex"
    _level_cls = GraphLevel
    _kinds = ("graph", "V", "E")

    def __init__(self, base, stages, meter=None, memoized=False):
        require_instance(base, GraphInstance, "LayeredGraphView")
        super().__init__(base, stages, meter, memoized)
        self._by_degree = None

    vertex_live = _LayeredView._checked_live

    def _live_derived(self, i):
        """Edges live at depth i: the layer derived from item liveness."""
        return (
            (u, v)
            for u, v in self.base.edges
            if self.vertex_live(i, u) and self.vertex_live(i, v)
        )


class LayeredFamilyView(_LayeredView):
    """Stack of element-deletion stages over a set family.

    Stages delete ground-set elements; a set dies with its first deleted
    element, so set liveness is derived, never stored.
    """

    _item = "element"
    _level_cls = FamilyLevel
    _kinds = ("family", "U", "F")

    def __init__(self, base, stages, meter=None, memoized=False):
        require_instance(base, SetFamilyInstance, "LayeredFamilyView")
        super().__init__(base, stages, meter, memoized)

    element_live = _LayeredView._checked_live

    def set_live(self, i, j):
        return self.level(i).live_members(j) is not None

    def _live_derived(self, i):
        """Indices of sets live at depth i: the layer derived from item
        liveness."""
        level = self.level(i)
        return (j for j in range(1, self.base.m + 1) if level.live_members(j))


def enumerate_stage(view, i, kind):
    """Stream one layer of a view in canonical input order.

    Graph views: kind "S" (stage-i deletions), "V" (vertices live at
    depth i), "E" (edges live at depth i).  Family views: kind "S"
    (stage-i deletions), "U" (elements live at depth i), "F" (indices of
    sets live at depth i).  A fast-mode "S" stream fills the stages up
    to i and sorts stage i's recorded deletions.
    """
    if not isinstance(view, _LayeredView):
        raise DomainError(f"not a layered view: {type(view).__name__}")
    name, items, derived = view._kinds
    if kind == "S":
        if not 1 <= i <= view.depth:
            raise DomainError(f"stage {i} outside 1..{view.depth}")
    elif kind not in (items, derived):
        raise DomainError(
            f"{name} views stream kinds S, {items}, {derived}, not {kind!r}"
        )
    elif not 0 <= i <= view.depth:
        raise DomainError(f"level {i} outside 0..{view.depth}")
    # a refused call reads nothing, so only an accepted one is a pass
    view.meter.tick_pass()
    ids = range(1, view.base.n + 1)
    if kind == "S":
        if view.memoized:
            return iter(sorted(view.stage_deletions(i)))
        return (x for x in ids if view.stage_deleted(i, x))
    if kind == items:
        return (x for x in ids if view._checked_live(i, x))
    return view._live_derived(i)
