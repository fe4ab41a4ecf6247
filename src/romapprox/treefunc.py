"""Minimum vertex cover and maximum independent set on trees and
functional graphs.

Everything here works against a tiny rooted-forest protocol:

* ``out(v)``: the unique out-neighbor (the parent direction), None at roots,
* ``children(v, parent)``: v's children in a deterministic order, given
  v's parent as the caller holds it,
* ``undirected``: True when ``children`` needs that parent (a tree's
  children are its neighbors other than the parent), False when a view
  reads them directly and ignores it.

A functional graph (out-degree at most one) decomposes into components
that are either trees hanging off a sink or trees hanging off a single
cycle.  The canonical minimum cover on a tree is the one that takes a
vertex exactly when not all of its children are taken (leaves are never
taken); it is unique given the recurrence, so membership is a pure
function of the subtree and can be answered by a constant-state walk.
Cycle components are solved by deleting each of two adjacent cycle
vertices (the minimum-id cycle vertex and its successor), solving the
leftover forests, and keeping the smaller answer, ties to the
minimum-id choice.  A component query finds that representative with
Brent's cycle finder, O(mu + lambda) out-steps for a tail of mu and a
cycle of lambda.  A vertex off the cycle (every vertex of a sink
component included) has no cycle vertex in its subtree, so neither
deletion changes its answer: it is its own subtree cover.  Only the
cycle, a path from the deleted vertex's successor, tells the two
forests apart, and both styles walk it once per deletion: a cycle
vertex is taken when its predecessor is not, else when one of its other
children is out of its own subtree cover.

Two execution styles share the logic: a fast path that decides each id
once in a leaves-first pass (an id is decided when all of its children
are, and its decision releases its successor; what is left undecided is
the cycle vertices, and each cycle is walked once per ban), and a metered
path that answers each membership query with O(1) charged words by walking
the subtree and re-deriving structure from the read-only input.  The
walk holds its cursor's parent and grandparent, so descents and sibling
steps ask the view for nothing; only a climb asks for one more ancestor.
On a tree that ancestor comes from replaying the Euler tour of the
queried vertex v's branch (v's subtree, v's parent masked).  v's parent
itself comes from a race of v's branches, each with v masked, under
doubling step budgets: the branch that meets the root, or the one left
unfinished when all the others end, is the parent, so a leaf reads only
its own list.  A whole-tree replay runs alongside the race and bounds
it, so a query costs at most O(n) tour steps for the parent plus one
branch replay per vertex it climbs to: O(n + s_v^2) tour steps for a
subtree of s_v vertices.  Every tour, raced, replayed or public, runs
through one function (:func:`_tour_run`): a run steps until it arrives
at a target, spends a step budget or ends the tour, and charges its
summed probes and primitive words once, when it stops; a tour's first
run also tells from the root's list whether the tour is empty.  The
public :func:`euler_tour` runs one step at a time, so its charges land
before each yielded edge.
"""

from functools import partial

from .errors import DomainError
from .exact import StructureKind, validate
from .instances import GraphInstance
from .meter import coerce_meter

# Charged-word frames for the metered walks.  A tree membership query
# first finds the queried vertex v's parent: the race holds v, the
# budget b, one step counter that every tour of a round shares, the
# whole-tree replay's (cursor, arrival), the neighbor slot, the branch
# tour's (cursor, arrival), the first unfinished neighbor and a flag for
# a second one: 10 words, the peak, independent of n.  The walk then
# holds v and its parent (the replay mask), the cursor with its parent
# and grandparent, the verdict, and one (vertex, slot) pair that the
# branch replay and the sibling scan take in turn: 8 words.  A tour run
# holds its (cursor, arrival) and the list it read last, a reference into
# the read-only input; its step count is the budget's counter, and the
# probes and primitive words it sums, the first run's emptiness probes
# included, are the meter's tally, charged when the run stops.
# A component query holds the queried vertex and, while it finds the
# representative, Brent's four words (tortoise, hare, power, lam) and the
# minimum and on-cycle flag of the hare's steps since the tortoise last
# jumped: 7 words.  A cycle vertex then walks two laps.  A lap holds its
# banned vertex, cursor, previous vertex, taken flag, count and verdict,
# the child being checked, and that child's subtree walk (cursor,
# parent, grandparent, verdict): 11 words.  The first lap, which
# bans the representative, also holds the successor it read first; the
# second bans that successor and holds the first lap's count and verdict.
# With the queried vertex that is 14 words, the peak, inside the 16
# charged here and the 24- and 28-word stage frames that run it in
# ``layered.py``.
MACHINE_WORDS = 10
COMPONENT_WORDS = 16
# Whole-tree replay steps per race step and neighbor in a parent search.
# It caps the search at about (1 + 1 / REPLAY_PACE) times the replay
# alone, which a path needs; a leaf or a bushy vertex settles by the race.
REPLAY_PACE = 4


def euler_tour(tree, root, meter=None, masked=None):
    """Yield the edges (frm, to) of a tree's closed Euler tour from root,
    holding only the current vertex and its arrival index.

    The arrival index is the 1-based position of the previous vertex in
    current's adjacency list, 0 before the first step.  Each step departs
    by the neighbor after the arrival edge in input order, wrapping
    around, and passes over the masked vertex's slot when it meets it;
    the tour ends on arriving at the root when every later slot of the
    root's list is the masked vertex's.  With no mask that is the root's
    last slot and the tour covers the whole tree; with a mask it covers
    the root's branch, the root's component once the masked vertex is
    deleted.  Steps charge primitive words, not charged words.

    Before the first step the root's degree is probed, and under a mask
    the only slot of a degree-one root, to tell whether the tour is
    empty.  A step probes current's degree, its departure slot, the slot
    after it when the departure slot holds the masked vertex, each slot
    of the next vertex's list up to the new arrival index, and the root's
    degree whenever it arrives at the root; arriving at the root by its
    second-to-last slot under a mask also probes the last slot.  The tour
    advances by runs of one step (:func:`_tour_run`), so each step's
    probes and primitive word, and the first step's emptiness probes, are
    charged before its edge is yielded.
    """
    if not 1 <= root <= tree.n:
        raise DomainError(f"root {root} out of range 1..{tree.n}")
    meter = coerce_meter(meter)
    cur, arrival, done = root, 0, False
    while not done:
        frm, cur, arrival, done = _tour_run(
            tree, meter, root, masked, cur, arrival, 1, None
        )
        if frm is not None:
            yield frm, cur


def _tour_run(tree, meter, root, masked, cur, arrival, budget, target):
    """Step the tour of :func:`euler_tour` from ``cur``, entered by slot
    ``arrival``, until it arrives at ``target``, has taken ``budget``
    steps (None: no limit) or ends: (the last step's departure vertex,
    its arrival vertex and arrival index, whether the tour has ended).

    A tour's first run, the one with ``arrival`` 0, starts at the root
    and first probes whether the tour is empty; an empty tour returns
    (None, root, 0, True) without a step.  The run reads ``cur``'s list
    once; after that each step reads one list, the next vertex's, and
    departs from it on the step after.  The run's probes and primitive
    words are summed and charged once, when it stops.
    """
    neighbors = tree.neighbors
    out = neighbors(cur)
    steps = probes = 0
    done = False
    if not arrival:
        probes = 2 if masked is not None and len(out) == 1 else 1
        done = all(w == masked for w in out)
    frm = None
    while not done:
        steps += 1
        nxt = out[arrival % len(out)]
        if nxt == masked:
            nxt = out[(arrival + 1) % len(out)]
            probes += 1
        back = neighbors(nxt)
        arrival = back.index(cur) + 1
        probes += 2 + arrival
        frm, cur, out = cur, nxt, back
        if cur == root:
            rest = len(out) - arrival
            if rest == 1 and masked is not None:
                probes += 2
                done = out[-1] == masked
            else:
                probes += 1
                done = rest == 0
        if cur == target or steps == budget:
            break
    meter.charge_primitive(steps)
    meter.access(probes)
    return frm, cur, arrival, done


def _race_parent(tree, meter, root, v):
    """v's parent in the tree rooted at ``root``, v != root: the one
    neighbor whose branch, v masked, holds the root.

    Rounds double a budget b from 1.  Each round reads v's list and runs
    every neighbor's branch tour, v masked, for at most b steps; a
    neighbor that is the root, or whose branch meets it, is the parent,
    and so is the one branch left unfinished when every other one ends.
    The last neighbor is not raced when all the others have ended, so a
    leaf costs one read of its list.  A whole-tree replay runs alongside,
    ``REPLAY_PACE * deg(v) * b`` steps a round from where the last round
    left it, and answers when it first arrives at v: the search costs at
    most about (1 + 1 / REPLAY_PACE) times that replay alone.  The
    replay's first run probes the root's degree, so that probe is charged
    only in a round that advances the replay.
    """
    cur, arrival = root, 0
    budget = 1
    while True:
        around = tree.neighbors(v, meter)
        first, second = None, False
        for slot, w in enumerate(around, 1):
            if w == root or first is None and slot == len(around):
                return w
            _, met, _, ended = _tour_run(tree, meter, w, v, w, 0, budget, root)
            if met == root:
                return w
            if not ended:
                if first is None:
                    first = w
                else:
                    second = True
        if not second:
            return first
        pace = REPLAY_PACE * len(around) * budget
        frm, cur, arrival, done = _tour_run(
            tree, meter, root, None, cur, arrival, pace, v
        )
        if cur == v:
            return frm
        if done:
            raise DomainError(f"vertex {v} not reached from root {root}")
        budget *= 2


class RootedTreeView:
    """A branch of a tree, rooted at ``root``, exposed through the forest
    protocol.

    The branch is the whole tree when ``mask`` is None, else root's
    component once ``mask``, root's parent in an enclosing view, is
    deleted; ``out(root)`` is ``mask``.  No parent pointers are kept.
    On the whole tree ``out(v)`` races v's branches against a replay of
    the tour (:func:`_race_parent`); on a branch it replays the branch's
    tour until it first arrives at v.  Both cost time but only cursor
    state.  ``children`` reads v's list without a replay, given v's
    parent.
    """

    undirected = True

    def __init__(self, tree, root, meter=None, mask=None):
        self.tree = tree
        self.root = root
        self.meter = coerce_meter(meter)
        self.mask = mask

    def out(self, v):
        if v == self.root:
            return self.mask
        if self.mask is None:
            return _race_parent(self.tree, self.meter, self.root, v)
        frm, cur, _, _ = _tour_run(
            self.tree, self.meter, self.root, self.mask, self.root, 0, None, v
        )
        if cur == v:
            return frm
        raise DomainError(f"vertex {v} not reached from root {self.root}")

    def children(self, v, parent):
        for w in self.tree.neighbors(v, self.meter):
            if w != parent:
                yield w

    def branch(self, v):
        """The view of v's subtree with v's parent masked, its parent
        found by :meth:`out`."""
        return RootedTreeView(self.tree, v, self.meter, self.out(v))


class FunctionalView:
    """A functional digraph exposed through the forest protocol."""

    undirected = False

    def __init__(self, digraph, meter=None):
        self.digraph = digraph
        self.meter = coerce_meter(meter)

    def out(self, v):
        outs = self.digraph.out_neighbors(v, self.meter)
        return outs[0] if outs else None

    def children(self, v, parent=None):
        return iter(self.digraph.in_neighbors(v, self.meter))


# The shared walk holds (cursor, parent, grandparent).  Descents and
# sibling steps derive the next triple from the held one; a climb asks
# the view for one ancestor.  Directed views ignore the parent handed to
# ``children``, so a climb leaves their grandparent unheld (None) and
# the climb after it asks for the parent it lacks.


def _first_child(view, v, parent):
    for w in view.children(v, parent):
        return w
    return None


def _next_sibling(view, v, parent, grandparent):
    prev = None
    for w in view.children(parent, grandparent):
        if prev == v:
            return w
        prev = w
    return None


def _descend(view, v, parent, grandparent):
    """Follow first children from v down to a leaf; returns the leaf's
    held triple."""
    while True:
        c = _first_child(view, v, parent)
        if c is None:
            return v, parent, grandparent
        v, parent, grandparent = c, v, parent


def _climb(view, top, parent, grandparent):
    """The held triple after stepping up to ``parent``.  The walk ends at
    ``top``, so nothing is asked for there."""
    if parent == top:
        return top, None, None
    if grandparent is None:
        grandparent = view.out(parent)
    return parent, grandparent, view.out(grandparent) if view.undirected else None


def subtree_cover_member(view, v):
    """Is v in the canonical minimum cover of its own subtree?

    Constant-state short-circuit evaluation of "taken iff not all
    children taken": the walk dives to the first leaf, and a False
    verdict at any child immediately settles its parent as True,
    skipping the remaining siblings.
    """
    parent = None  # a directed view never uses it
    if view.undirected:
        view = view.branch(v)
        parent = view.out(v)
    cur, parent, grandparent = _descend(view, v, parent, None)
    verdict = False
    while cur != v:
        if verdict:
            s = _next_sibling(view, cur, parent, grandparent)
            if s is not None:
                cur, parent, grandparent = _descend(view, s, parent, grandparent)
                verdict = False
                continue
        cur, parent, grandparent = _climb(view, v, parent, grandparent)
        verdict = not verdict
    return verdict


def _component_rep(out, v):
    """(representative, on_cycle) for v's component under the successor
    function ``out``: the sink v drains to and False, or the minimum-id
    cycle vertex and whether v lies on the cycle.

    Brent's cycle finder holds four words (tortoise, hare, power, lam):
    the tortoise jumps to the hare whenever lam, the hare's steps since
    the last jump, reaches power, which then doubles; the hare meets the
    tortoise once the tortoise is on the cycle and power is at least the
    cycle length, after O(tail + cycle) steps.  Two more words hold the
    minimum of the hare's vertices since the last jump and whether v is
    among them, both reset at each jump: when the hare meets the
    tortoise those steps are exactly one lap of the cycle.
    """
    tortoise = hare = best = v
    on_cycle = True
    power = lam = 1
    while True:
        nxt = out(hare)
        if nxt is None:
            return hare, False
        hare = nxt
        if hare < best:
            best = hare
        on_cycle = on_cycle or hare == v
        if hare == tortoise:
            return best, on_cycle
        if lam == power:
            tortoise = best = hare
            on_cycle = hare == v
            power *= 2
            lam = 0
        lam += 1


def _cycle_cover(view, banned, v):
    """(cycle vertices taken, v taken, banned's successor) in the
    component's cover once ``banned``, a cycle vertex, is taken and
    deleted; the successor is the lap's first read.

    The cycle becomes a path that starts at banned's successor, and
    every vertex off it keeps its own subtree cover, so one lap decides
    the cycle, the recurrence :func:`fast_cover_members` walks: a cycle
    vertex is taken when the previous one is not, else when some child
    other than the previous one is out of its own subtree cover.
    """
    count, hit = 1, v == banned
    prev, taken = banned, True  # the banned child's arc is gone
    x = first = view.out(banned)
    while x != banned:
        taken = not taken or any(
            c != prev and not subtree_cover_member(view, c) for c in view.children(x)
        )
        count += taken
        if x == v:
            hit = taken
        prev, x = x, view.out(x)
    return count, hit, first


def component_cover_member(view, v):
    """Metered membership of v in the component's canonical minimum cover.

    Off the cycle (every vertex of a sink component included) the answer
    is v's own subtree cover: v's children are off the cycle too, so its
    subtree holds neither banning candidate and either ban leaves it as
    it is.  For the same reason the off-cycle vertices count alike under
    both bans, so a cycle vertex walks the cycle once per ban and keeps
    the ban that takes fewer cycle vertices, u's on a tie.
    """
    u, on_cycle = _component_rep(view.out, v)
    if not on_cycle:
        return subtree_cover_member(view, v)
    size_u, in_u, w = _cycle_cover(view, u, v)
    size_w, in_w, _ = _cycle_cover(view, w, v)
    return in_u if size_u <= size_w else in_w


# ---------------------------------------------------------------- fast path


def fast_cover_members(out):
    """Membership dict for every id of the successor map ``out`` (id ->
    out-neighbor or None, every out-neighbor itself an id) at once; free
    use of working memory.  Decides each id once, leaves first; only
    cycle vertices are walked twice, once per banned candidate."""
    pending = dict.fromkeys(out, 0)
    for w in out.values():
        if w is not None:
            pending[w] += 1
    exposed = set()  # ids with an untaken child
    member = {}
    ready = [v for v, k in pending.items() if not k]
    for v in ready:
        taken = member[v] = v in exposed
        w = out[v]
        if w is not None:
            if not taken:
                exposed.add(w)
            pending[w] -= 1
            if not pending[w]:
                ready.append(w)
    for v in out:
        if v in member:
            continue
        u, x = v, out[v]
        while x != v:
            u, x = min(u, x), out[x]
        covers = []
        for banned in (u, out[u]):
            cover = {banned: True}
            taken = True  # the banned child's arc is gone
            x = out[banned]
            while x != banned:
                taken = cover[x] = x in exposed or not taken
                x = out[x]
            covers.append(cover)
        member.update(min(covers, key=lambda c: sum(c.values())))
    return member


# ------------------------------------------------------------- public entry


def _require_tree(tree):
    ok, witness = validate(StructureKind.TREE, tree)
    if not ok:
        raise DomainError(f"not a tree: {witness}")


def _tree_cover_flags(tree):
    """Canonical cover membership of every vertex, indexed by id.

    One search from vertex 1 records parents and a parents-first order;
    one reverse pass then marks a parent as taken as soon as one of its
    children is not.  Inputs that fail the cheap checks, or whose search
    misses a vertex, are handed to :func:`_require_tree`, which raises
    the same error the full structure check gives.
    """
    if not isinstance(tree, GraphInstance) or tree.m != tree.n - 1:
        _require_tree(tree)
    n = tree.n
    parent = [0] * (n + 1)
    parent[1] = 1
    order = [1]
    for v in order:
        for w in tree.neighbors(v):
            if not parent[w]:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        _require_tree(tree)
    taken = [False] * (n + 1)
    for v in order[:0:-1]:
        if not taken[v]:
            taken[parent[v]] = True
    return taken


def _cover_stream(meter, want, flags, words):
    """Ids 1, 2, ... whose membership flag in ``flags`` equals ``want``,
    in one pass holding ``words`` charged words."""
    meter.tick_pass()
    meter.alloc(words)
    try:
        for v, taken in enumerate(flags, 1):
            if taken == want:
                yield v
    finally:
        meter.release(words)


def _tree_stream(tree, meter, metered, want):
    """Ascending ids whose canonical cover membership equals ``want``."""
    meter = coerce_meter(meter)
    if metered:
        _require_tree(tree)
        view = RootedTreeView(tree, 1, meter=meter)
        flags = map(partial(subtree_cover_member, view), range(1, tree.n + 1))
        return _cover_stream(meter, want, flags, MACHINE_WORDS)
    return _cover_stream(meter, want, _tree_cover_flags(tree)[1:], 0)


def tree_min_vc(tree, meter=None, metered=False):
    """Stream the canonical minimum vertex cover of a tree, ascending ids.

    The cover takes a vertex exactly when not all of its children (with
    the tree rooted at vertex 1) are taken.  The fast mode resolves the
    whole tree in one search and one reverse pass.

    The metered mode answers each vertex v by a subtree walk in
    ``MACHINE_WORDS`` charged words.  A race of v's branches against a
    replay of the whole tree's Euler tour finds v's parent: one read of
    v's list for a leaf, at most about 1 + 1 / ``REPLAY_PACE`` whole-tree
    replays for any vertex.  The walk then holds its cursor's parent and
    grandparent, and each climb to a vertex below v's children finds the
    next grandparent by replaying v's branch only.  A query costs
    O(n + s_v^2) tour steps, s_v being v's subtree size, so the stream
    costs O(n^2 + sum of s_v^2): at most about n^2 on a random tree,
    still cubic on a path rooted at one end.  The structure check that rejects
    non-trees runs before the audited region and is not charged.
    """
    yield from _tree_stream(tree, meter, metered, True)


def tree_max_is(tree, meter=None, metered=False):
    """Complement stream of :func:`tree_min_vc`: a maximum independent set."""
    yield from _tree_stream(tree, meter, metered, False)


def _functional_stream(digraph, meter, metered, want):
    """Ascending ids whose canonical cover membership equals ``want``."""
    ok, witness = validate(StructureKind.FUNCTIONAL, digraph)
    if not ok:
        raise DomainError(f"not functional: {witness}")
    view = FunctionalView(digraph, meter)
    ids = range(1, digraph.n + 1)
    if metered:
        flags = map(partial(component_cover_member, view), ids)
        return _cover_stream(view.meter, want, flags, COMPONENT_WORDS)
    member = fast_cover_members({v: view.out(v) for v in ids})
    return _cover_stream(view.meter, want, map(member.__getitem__, ids), 0)


def functional_min_vc(digraph, meter=None, metered=False):
    """Stream a minimum vertex cover of a functional graph's underlying
    edges, ascending ids.

    Tree components take the canonical tree cover toward their sink;
    cycle components delete the cheaper of two adjacent cycle vertices
    (minimum-id one on ties) and solve the remaining forest.
    """
    yield from _functional_stream(digraph, meter, metered, True)


def functional_max_is(digraph, meter=None, metered=False):
    """Complement stream of :func:`functional_min_vc`: a maximum
    independent set of the underlying edges."""
    yield from _functional_stream(digraph, meter, metered, False)
