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
cycle of lambda, plus one lap of the cycle.  A vertex off the cycle
(every vertex of a sink component included) has no cycle vertex in its
subtree, so neither deletion changes its answer: it is its own subtree
cover, and only cycle vertices size the two leftover forests.

Two execution styles share the logic: a fast path that materializes
children lists and one membership dict per component, and a metered path
that answers each membership query with O(1) charged words by walking
the subtree and re-deriving structure from the read-only input.  The
walk holds its cursor's parent and grandparent, so descents and sibling
steps ask the view for nothing; only a climb asks for one more ancestor.
On a tree that ancestor comes from replaying the Euler tour of the
queried vertex v's branch (v's subtree, v's parent masked), so a query
costs one whole-tree replay plus at most one branch replay per vertex
it climbs to: O(n + s_v^2) tour steps for a subtree of s_v vertices.
"""

from .errors import DomainError
from .exact import StructureKind, validate
from .instances import DigraphInstance, GraphInstance
from .meter import coerce_meter

# Charged-word frames for the metered walks.  A tree membership query
# holds the queried vertex and its parent (the replay mask), the walk
# cursor with its parent and grandparent, the verdict, and one (vertex,
# slot) pair that the branch replay and the sibling scan take in turn.
# A component query holds the queried vertex and, while it finds the
# representative, Brent's four words (tortoise, hare, power, lam); the
# cycle lap reuses them as cursor, stop vertex and minimum and adds the
# on-cycle flag: 6 words.  A cycle vertex then holds the representative,
# its successor and two counters, the child being swept, the sweep's
# (cursor, parent, grandparent) and the inner walk's (cursor, parent,
# grandparent, verdict): 13 words, the peak, inside the 16 charged here
# and the 24- and 28-word stage frames that run it in ``layered.py``.
MACHINE_WORDS = 8
COMPONENT_WORDS = 16


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
    second-to-last slot under a mask also probes the last slot.  All of
    a step's probes are charged in one call, before its edge is yielded.
    """
    if not 1 <= root <= tree.n:
        raise DomainError(f"root {root} out of range 1..{tree.n}")
    meter = coerce_meter(meter)
    neighbors = tree.neighbors
    around = neighbors(root)
    meter.access(2 if masked is not None and len(around) == 1 else 1)
    done = all(w == masked for w in around)
    cur = root
    arrival = 0
    while not done:
        out = neighbors(cur)
        nxt = out[arrival % len(out)]
        probes = 2
        if nxt == masked:
            nxt = out[(arrival + 1) % len(out)]
            probes = 3
        back = neighbors(nxt)
        arrival = back.index(cur) + 1
        meter.charge_primitive()
        if nxt == root:
            rest = len(back) - arrival
            if rest == 1 and masked is not None:
                meter.access(probes + 2 + arrival)
                done = back[-1] == masked
            else:
                meter.access(probes + 1 + arrival)
                done = rest == 0
        else:
            meter.access(probes + arrival)
        yield cur, nxt
        cur = nxt


class RootedTreeView:
    """A branch of a tree, rooted at ``root``, exposed through the forest
    protocol.

    The branch is the whole tree when ``mask`` is None, else root's
    component once ``mask``, root's parent in an enclosing view, is
    deleted; ``out(root)`` is ``mask``.  No parent pointers are kept:
    ``out(v)`` replays the branch's Euler tour until it first arrives at
    v, which costs time but only cursor state, and ``children`` reads
    v's list without a replay, given v's parent.
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
        for frm, to in euler_tour(self.tree, self.root, self.meter, self.mask):
            if to == v:
                return frm
        raise DomainError(f"vertex {v} not reached from root {self.root}")

    def children(self, v, parent):
        for w in self.tree.neighbors(v, self.meter):
            if w != parent:
                yield w

    def branch(self, v):
        """The view of v's subtree with v's parent masked, found by one
        replay of this view's tour."""
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


class MaskedView:
    """A directed view with one vertex deleted (its arcs vanish with it)."""

    __slots__ = ("inner", "banned")

    undirected = False

    def __init__(self, inner, banned):
        self.inner = inner
        self.banned = banned

    def out(self, v):
        w = self.inner.out(v)
        return None if w == self.banned else w

    def children(self, v, parent=None):
        for w in self.inner.children(v):
            if w != self.banned:
                yield w


# The shared walk holds (cursor, parent, grandparent).  Descents and
# sibling steps derive the next triple from the held one; a climb asks
# the view for one ancestor.  Directed views ignore the parent handed to
# ``children``, so a climb leaves their grandparent unheld (None) and
# the climb after it asks for the parent it lacks.


def _start(view, v):
    """The view a walk of v's subtree runs on, and v's parent as the walk
    holds it: found by one replay on an undirected view, unused (None)
    on a directed one."""
    if view.undirected:
        view = view.branch(v)
        return view, view.out(v)
    return view, None


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
    view, parent = _start(view, v)
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


def tree_vertices(view, root):
    """Every vertex of root's tree exactly once, in post-order, holding
    the same words as :func:`subtree_cover_member`."""
    view, parent = _start(view, root)
    cur, parent, grandparent = _descend(view, root, parent, None)
    yield cur
    while cur != root:
        s = _next_sibling(view, cur, parent, grandparent)
        if s is not None:
            cur, parent, grandparent = _descend(view, s, parent, grandparent)
        else:
            cur, parent, grandparent = _climb(view, root, parent, grandparent)
        yield cur


def _component_rep(out, v):
    """(representative, on_cycle) for v's component under the successor
    function ``out``: the sink v drains to and False, or the minimum-id
    cycle vertex and whether v lies on the cycle.

    Brent's cycle finder holds four words (tortoise, hare, power, lam):
    the tortoise jumps to the hare whenever lam, the hare's steps since
    the last jump, reaches power, which then doubles; the hare meets the
    tortoise once the tortoise is on the cycle and power is at least the
    cycle length, after O(tail + cycle) steps.  One more lap from the
    meeting vertex finds the cycle's minimum and whether v is on it.
    """
    tortoise = hare = v
    power = lam = 1
    while True:
        nxt = out(hare)
        if nxt is None:
            return hare, False
        hare = nxt
        if hare == tortoise:
            break
        if lam == power:
            tortoise = hare
            power *= 2
            lam = 0
        lam += 1
    best, on_cycle = hare, hare == v
    cur = out(hare)
    while cur != hare:
        if cur < best:
            best = cur
        on_cycle = on_cycle or cur == v
        cur = out(cur)
    return best, on_cycle


def _masked_cover_size(view, banned):
    """Cover size for the component when ``banned`` is taken and deleted."""
    masked = MaskedView(view, banned)
    total = 1
    for s in view.children(banned):
        for x in tree_vertices(masked, s):
            if subtree_cover_member(masked, x):
                total += 1
    return total


def component_cover_member(view, v):
    """Metered membership of v in the component's canonical minimum cover.

    Off the cycle (every vertex of a sink component included) the answer
    is v's own subtree cover: v's children are off the cycle too, so its
    subtree holds neither banning candidate and either ban leaves it as
    it is.  Only a cycle vertex pays for the two masked cover sweeps.
    """
    u, on_cycle = _component_rep(view.out, v)
    if not on_cycle:
        return subtree_cover_member(view, v)
    w = view.out(u)
    size_u = _masked_cover_size(view, u)
    size_w = _masked_cover_size(view, w)
    banned = u if size_u <= size_w else w
    if v == banned:
        return True
    return subtree_cover_member(MaskedView(view, banned), v)


# ---------------------------------------------------------------- fast path


def _members_from_kids(kids, roots, banned=None):
    member = {}
    order = []
    for r in roots:
        stack = [r]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(c for c in kids[x] if c != banned)
    for x in reversed(order):
        member[x] = any(
            not member[c] for c in kids[x] if c != banned
        )
    return member


def fast_cover_members(out):
    """Membership dict for every id of the successor map ``out`` (id ->
    out-neighbor or None, every out-neighbor itself an id) at once; free
    use of working memory."""
    kids = {v: [] for v in out}
    for v, w in out.items():
        if w is not None:
            kids[w].append(v)
    member = {}
    for v in out:
        if v in member:
            continue
        u = _component_rep(out.__getitem__, v)[0]
        w = out[u]
        if w is None:
            got = _members_from_kids(kids, [u])
        else:
            def masked_members(banned):
                got = _members_from_kids(kids, kids[banned], banned=banned)
                got[banned] = True
                return got

            mu = masked_members(u)
            mw = masked_members(w)
            got = mu if sum(mu.values()) <= sum(mw.values()) else mw
        member.update(got)
    return member


# ------------------------------------------------------------- public entry


def _require_tree(tree, root):
    ok, witness = validate(StructureKind.TREE, tree)
    if not ok:
        raise DomainError(f"not a tree: {witness}")
    if not 1 <= root <= tree.n:
        raise DomainError(f"root {root} out of range 1..{tree.n}")


def _tree_cover_flags(tree, root):
    """Canonical cover membership of every vertex, indexed by id.

    One search from the root records parents and a parents-first order;
    one reverse pass then marks a parent as taken as soon as one of its
    children is not.  Inputs that fail the cheap checks, or whose search
    misses a vertex, are handed to :func:`_require_tree`, which raises
    the same error the full structure check gives.
    """
    if (
        not isinstance(tree, GraphInstance)
        or tree.m != tree.n - 1
        or not 1 <= root <= tree.n
    ):
        _require_tree(tree, root)
    n = tree.n
    parent = [0] * (n + 1)
    parent[root] = root
    order = [root]
    for v in order:
        for w in tree.neighbors(v):
            if not parent[w]:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        _require_tree(tree, root)
    taken = [False] * (n + 1)
    for v in order[:0:-1]:
        if not taken[v]:
            taken[parent[v]] = True
    return taken


def _tree_stream(tree, root, meter, metered, want):
    """Ascending ids whose canonical cover membership equals ``want``."""
    meter = coerce_meter(meter)
    if metered:
        _require_tree(tree, root)
        view = RootedTreeView(tree, root, meter=meter)
        meter.tick_pass()
        meter.alloc(MACHINE_WORDS)
        try:
            for v in range(1, tree.n + 1):
                if subtree_cover_member(view, v) == want:
                    yield v
        finally:
            meter.release(MACHINE_WORDS)
    else:
        taken = _tree_cover_flags(tree, root)
        meter.tick_pass()
        for v in range(1, tree.n + 1):
            if taken[v] == want:
                yield v


def tree_min_vc(tree, root=1, meter=None, metered=False):
    """Stream the canonical minimum vertex cover of a tree, ascending ids.

    The cover takes a vertex exactly when not all of its children (under
    the given root) are taken.  The fast mode resolves the whole tree in
    one search and one reverse pass.

    The metered mode answers each vertex v by a subtree walk in
    ``MACHINE_WORDS`` charged words.  One replay of the whole tree's
    Euler tour finds v's parent; the walk then holds its cursor's parent
    and grandparent, and each climb to a vertex below v's children finds
    the next grandparent by replaying v's branch only.  A query costs
    O(n + s_v^2) tour steps, s_v being v's subtree size, so the stream
    costs O(n^2 + sum of s_v^2): about n^2 on a random tree, still cubic
    on a path rooted at one end.  The structure check that rejects
    non-trees runs before the audited region and is not charged.
    """
    yield from _tree_stream(tree, root, meter, metered, True)


def tree_max_is(tree, root=1, meter=None, metered=False):
    """Complement stream of :func:`tree_min_vc`: a maximum independent set."""
    yield from _tree_stream(tree, root, meter, metered, False)


def _require_functional(digraph):
    if not isinstance(digraph, DigraphInstance):
        raise DomainError("functional operations need a DigraphInstance")
    ok, witness = validate(StructureKind.FUNCTIONAL, digraph)
    if not ok:
        raise DomainError(f"not functional: {witness}")


def _functional_stream(digraph, meter, metered, want):
    """Ascending ids whose canonical cover membership equals ``want``."""
    _require_functional(digraph)
    meter = coerce_meter(meter)
    view = FunctionalView(digraph, meter)
    meter.tick_pass()
    if metered:
        meter.alloc(COMPONENT_WORDS)
        try:
            for v in range(1, digraph.n + 1):
                if component_cover_member(view, v) == want:
                    yield v
        finally:
            meter.release(COMPONENT_WORDS)
    else:
        member = fast_cover_members({v: view.out(v) for v in range(1, digraph.n + 1)})
        for v in range(1, digraph.n + 1):
            if member[v] == want:
                yield v


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
