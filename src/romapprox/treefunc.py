"""Minimum vertex cover and maximum independent set on trees and
functional graphs.

Everything here works against a tiny rooted-forest protocol:

* ``out(v)``: the unique out-neighbor (the parent direction), None at roots,
* ``in_nbrs(v)``: the in-neighbors (children), in a deterministic order.

A functional graph (out-degree at most one) decomposes into components
that are either trees hanging off a sink or trees hanging off a single
cycle.  The canonical minimum cover on a tree is the one that takes a
vertex exactly when not all of its children are taken (leaves are never
taken); it is unique given the recurrence, so membership is a pure
function of the subtree and can be answered by a constant-state walk.
Cycle components are solved by deleting each of two adjacent cycle
vertices (the minimum-id cycle vertex and its successor), solving the
leftover forests, and keeping the smaller answer, ties to the
minimum-id choice.

Two execution styles share the logic: a fast path that materializes
children lists and one membership dict per component, and a metered path
that answers each membership query with O(1) charged words by walking
the subtree and re-deriving structure from the read-only input.
"""

from .errors import DomainError
from .exact import StructureKind, validate
from .instances import DigraphInstance, GraphInstance
from .meter import coerce_meter

# Charged-word frames for the metered walks: the membership machine keeps
# (cursor, verdict, parent, sibling) plus slack; component orchestration
# adds (representative, successor, two counters, walk cursor).
MACHINE_WORDS = 8
COMPONENT_WORDS = 16


class EulerTourCursor:
    """Constant-state walker of a tree's closed Euler tour.

    State is (current vertex, arrival index, root).  The arrival index is
    the 1-based position of the previous vertex in current's adjacency
    list, 0 before the first step.  Each step departs by the neighbor
    after the arrival edge in input order, wrapping around; the tour ends
    on returning to the root by its last adjacency slot.  Steps charge
    primitive words, not charged words.

    A step probes current's degree, its departure slot, each slot of the
    next vertex's list up to the new arrival index, and the root's
    degree whenever it arrives at the root; all are charged in one call.
    The state is stored before each edge is handed out, so a walk
    stopped early resumes, by ``step()`` or a fresh iteration, where it
    stopped.
    """

    __slots__ = ("tree", "root", "current", "arrival", "meter", "_done")

    def __init__(self, tree, root, meter=None):
        if not 1 <= root <= tree.n:
            raise DomainError(f"root {root} out of range 1..{tree.n}")
        self.tree = tree
        self.root = root
        self.current = root
        self.arrival = 0
        self.meter = coerce_meter(meter)
        self._done = tree.degree(root) == 0

    def step(self):
        """Next tour edge (frm, to), or None once the tour is closed."""
        for edge in self:
            return edge
        return None

    def __iter__(self):
        neighbors = self.tree.neighbors
        meter = self.meter
        root = self.root
        cur = self.current
        arrival = self.arrival
        while not self._done:
            out = neighbors(cur)
            nxt = out[arrival % len(out)]
            back = neighbors(nxt)
            arrival = back.index(cur) + 1
            meter.charge_primitive()
            if nxt == root:
                meter.access(3 + arrival)
                self._done = arrival == len(back)
            else:
                meter.access(2 + arrival)
            edge = (cur, nxt)
            self.current = cur = nxt
            self.arrival = arrival
            yield edge


class RootedTreeView:
    """A tree rooted anywhere, exposed through the forest protocol.

    Each parent is re-derived by replaying the Euler tour from the root
    until it first arrives at the queried vertex, which costs time but
    only cursor state.
    """

    def __init__(self, tree, root, meter=None):
        self.tree = tree
        self.root = root
        self.meter = coerce_meter(meter)

    def out(self, v):
        if v == self.root:
            return None
        for frm, to in EulerTourCursor(self.tree, self.root, self.meter):
            if to == v:
                return frm
        raise DomainError(f"vertex {v} not reached from root {self.root}")

    def in_nbrs(self, v):
        p = self.out(v)
        for w in self.tree.neighbors(v, self.meter):
            if w != p:
                yield w


class FunctionalView:
    """A functional digraph exposed through the forest protocol."""

    def __init__(self, digraph, meter=None):
        self.digraph = digraph
        self.meter = coerce_meter(meter)

    def out(self, v):
        outs = self.digraph.out_neighbors(v, self.meter)
        return outs[0] if outs else None

    def in_nbrs(self, v):
        return iter(self.digraph.in_neighbors(v, self.meter))


class MaskedView:
    """A view with one vertex deleted (its arcs vanish with it)."""

    __slots__ = ("inner", "banned")

    def __init__(self, inner, banned):
        self.inner = inner
        self.banned = banned

    def out(self, v):
        w = self.inner.out(v)
        return None if w == self.banned else w

    def in_nbrs(self, v):
        for w in self.inner.in_nbrs(v):
            if w != self.banned:
                yield w


def _first_child(view, v):
    for w in view.in_nbrs(v):
        return w
    return None


def _next_sibling(view, v):
    p = view.out(v)
    if p is None:
        return None
    prev = None
    for w in view.in_nbrs(p):
        if prev == v:
            return w
        prev = w
    return None


def _descend_to_first_leaf(view, v):
    while True:
        c = _first_child(view, v)
        if c is None:
            return v
        v = c


def subtree_cover_member(view, v):
    """Is v in the canonical minimum cover of its own subtree?

    Constant-state short-circuit evaluation of "taken iff not all
    children taken": the walk dives to the first leaf, and a False
    verdict at any child immediately settles its parent as True,
    skipping the remaining siblings.
    """
    cur = _descend_to_first_leaf(view, v)
    verdict = False
    while cur != v:
        if not verdict:
            cur = view.out(cur)
            verdict = True
        else:
            s = _next_sibling(view, cur)
            if s is not None:
                cur = _descend_to_first_leaf(view, s)
                verdict = False
            else:
                cur = view.out(cur)
                verdict = False
    return verdict


def tree_vertices(view, root):
    """Every vertex of root's tree exactly once, constant extra state."""
    cur = _descend_to_first_leaf(view, root)
    yield cur
    while cur != root:
        s = _next_sibling(view, cur)
        if s is not None:
            cur = _descend_to_first_leaf(view, s)
            yield cur
        else:
            cur = view.out(cur)
            yield cur


def _chase(view, v, limit):
    cur = v
    for _ in range(limit):
        nxt = view.out(cur)
        if nxt is None:
            return ("sink", cur)
        cur = nxt
    return ("on-cycle", cur)


def _cycle_min(view, z):
    best = z
    cur = view.out(z)
    while cur != z:
        if cur < best:
            best = cur
        cur = view.out(cur)
    return best


def _component_rep(view, v, limit):
    kind, x = _chase(view, v, limit)
    if kind == "sink":
        return ("sink", x)
    return ("cycle", _cycle_min(view, x))


def _masked_cover_size(view, banned):
    """Cover size for the component when ``banned`` is taken and deleted."""
    masked = MaskedView(view, banned)
    total = 1
    for s in view.in_nbrs(banned):
        for x in tree_vertices(masked, s):
            if subtree_cover_member(masked, x):
                total += 1
    return total


def component_cover_member(view, v, limit):
    """Metered membership of v in the component's canonical minimum cover."""
    kind, rep = _component_rep(view, v, limit)
    if kind == "sink":
        return subtree_cover_member(view, v)
    u = rep
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


def fast_cover_members(view, ids):
    """Membership dict for every id at once; free use of working memory."""
    ids = list(ids)
    out = {v: view.out(v) for v in ids}
    kids = {v: [] for v in ids}
    for v in ids:
        w = out[v]
        if w is not None:
            kids[w].append(v)
    member = {}
    assigned = set()
    for v in ids:
        if v in assigned:
            continue
        comp = [v]
        seen = {v}
        queue = [v]
        for x in queue:
            around = list(kids[x])
            if out[x] is not None:
                around.append(out[x])
            for y in around:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        assigned.update(comp)
        kind, rep = _component_rep(view, v, len(comp))
        if kind == "sink":
            got = _members_from_kids(kids, [rep])
        else:
            u = rep
            w = out[u]

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
    the given root) are taken.  The metered mode answers each vertex by a
    constant-state subtree walk with parents re-derived from Euler-tour
    replays; the fast mode resolves the whole tree in one search and one
    reverse pass.
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


def component_rep(digraph, v, meter=None):
    """Canonical representative of v's component: the sink it drains to,
    or the minimum-id vertex on its cycle."""
    _require_functional(digraph)
    if not 1 <= v <= digraph.n:
        raise DomainError(f"vertex {v} out of range 1..{digraph.n}")
    view = FunctionalView(digraph, meter)
    return _component_rep(view, v, digraph.n)[1]


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
                if component_cover_member(view, v, digraph.n) == want:
                    yield v
        finally:
            meter.release(COMPONENT_WORDS)
    else:
        member = fast_cover_members(view, range(1, digraph.n + 1))
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
