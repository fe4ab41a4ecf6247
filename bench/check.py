"""Output checks written apart from the library.

Nothing here imports ``romapprox``: every check reads the benchmark's
own (n, pairs) or (n, sets) data and uses its own algorithms (a forest
DP, branch-and-bound searches, degree-sequence characterisations), so
agreement with the solvers means something.  Each check returns None
when the output passes and a short reason when it does not.
"""

import math


def adjacency(n, edges):
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def ids_ok(n, out):
    if len(set(out)) != len(out):
        return "repeated id"
    if any(not 1 <= v <= n for v in out):
        return "id out of range"
    return None


def cover(n, edges, out):
    s = set(out)
    for u, v in edges:
        if u not in s and v not in s:
            return f"edge ({u}, {v}) uncovered"
    return ids_ok(n, out)


def independent(n, edges, out):
    s = set(out)
    for u, v in edges:
        if u in s and v in s:
            return f"adjacent pair ({u}, {v}) chosen"
    return ids_ok(n, out)


def maximal_independent(n, edges, out):
    bad = independent(n, edges, out)
    if bad:
        return bad
    s = set(out)
    adj = adjacency(n, edges)
    for v in range(1, n + 1):
        if v not in s and not adj[v] & s:
            return f"vertex {v} could be added"
    return None


def dominating(n, edges, out):
    s = set(out)
    adj = adjacency(n, edges)
    for v in range(1, n + 1):
        if v not in s and not adj[v] & s:
            return f"vertex {v} undominated"
    return ids_ok(n, out)


def hitting(n, sets, out):
    s = set(out)
    for j, a in enumerate(sets, start=1):
        if not s.intersection(a):
            return f"set {j} unhit"
    return ids_ok(n, out)


# ------------------------------------------------------------ exact sizes


def components(vertices, adj):
    """Connected components of the graph induced on ``vertices``."""
    seen = set()
    for r in sorted(vertices):
        if r in seen:
            continue
        part = {r}
        queue = [r]
        for x in queue:
            for w in adj[x]:
                if w in vertices and w not in part:
                    part.add(w)
                    queue.append(w)
        seen |= part
        yield part


def forest_cover_size(vertices, adj):
    """Minimum vertex cover of the acyclic graph induced on ``vertices``:
    root each component, then take a vertex's parent whenever the vertex
    itself is untaken, leaves first."""
    size = 0
    for part in components(vertices, adj):
        r = min(part)
        parent = {r: None}
        order = [r]
        for v in order:
            for w in adj[v]:
                if w not in part or w == parent[v]:
                    continue
                if w in parent:
                    raise ValueError("forest_cover_size needs an acyclic graph")
                parent[w] = v
                order.append(w)
        taken = set()
        for v in reversed(order[1:]):
            if v not in taken:
                taken.add(parent[v])
        size += len(taken)
    return size


def tree_cover_size(n, edges):
    return forest_cover_size(set(range(1, n + 1)), adjacency(n, edges))


def pseudoforest_cover_size(n, edges):
    """Minimum vertex cover when every component has at most one cycle
    (the underlying graph of a functional digraph).  On a cyclic
    component a cycle vertex u is either taken (solve the forest left
    without u) or not (take its neighbours, solve the forest left
    without N[u])."""
    adj = adjacency(n, edges)
    size = 0
    for part in components(set(range(1, n + 1)), adj):
        core = _cycle_core(part, adj)
        if not core:
            size += forest_cover_size(part, adj)
            continue
        u = min(core)
        take = 1 + forest_cover_size(part - {u}, adj)
        skip = len(adj[u]) + forest_cover_size(part - {u} - adj[u], adj)
        size += min(take, skip)
    return size


def _cycle_core(part, adj):
    """What is left of ``part`` after repeatedly peeling degree-1 vertices."""
    deg = {v: len(adj[v]) for v in part}
    stack = [v for v in part if deg[v] <= 1]
    gone = set()
    while stack:
        v = stack.pop()
        if v in gone:
            continue
        gone.add(v)
        for w in adj[v]:
            if w not in gone:
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    return part - gone


def exact_cover_size(n, edges):
    """Minimum vertex cover by branching on a highest-degree vertex (take
    it, or take all its neighbours); components of maximum degree two
    are paths and cycles and are counted directly."""
    best = [n]

    def solve(adj, size):
        if size >= best[0]:
            return
        v = max(range(1, n + 1), key=lambda x: len(adj[x]))
        if len(adj[v]) <= 2:
            for part in components(set(range(1, n + 1)), adj):
                k = len(part)
                cyclic = k > 2 and all(len(adj[x]) == 2 for x in part)
                size += (k + 1) // 2 if cyclic else k // 2
            best[0] = min(best[0], size)
            return
        solve(_without(adj, {v}), size + 1)
        solve(_without(adj, adj[v]), size + len(adj[v]))

    solve(adjacency(n, edges), 0)
    return best[0]


def _without(adj, gone):
    gone = set(gone)
    return [set() if v in gone else a - gone for v, a in enumerate(adj)]


def exact_hitting_size(sets):
    """Minimum hitting set by branching over the elements of an unhit set."""
    best = [len({e for s in sets for e in s})]

    def solve(chosen):
        if len(chosen) >= best[0]:
            return
        for s in sets:
            if not chosen.intersection(s):
                for e in s:
                    solve(chosen | {e})
                return
        best[0] = len(chosen)

    solve(frozenset())
    return best[0]


# ------------------------------------------------------- pattern freedom


def _remaining(n, edges, removed):
    keep = set(range(1, n + 1)) - set(removed)
    adj = adjacency(n, [(u, v) for u, v in edges if u in keep and v in keep])
    return keep, adj


def cluster(n, edges, removed):
    """G - removed is a disjoint union of cliques (no induced P3)."""
    keep, adj = _remaining(n, edges, removed)
    for part in components(keep, adj):
        for v in part:
            if len(adj[v]) != len(part) - 1:
                return f"component of {v} is not a clique"
    return None


def split(n, edges, removed):
    """G - removed is a split graph (no induced 2K2, C4, C5), by the
    Hammer-Simeone degree-sequence test."""
    keep, adj = _remaining(n, edges, removed)
    degs = sorted((len(adj[v]) for v in keep), reverse=True)
    m = max((i for i, d in enumerate(degs, start=1) if d >= i - 1), default=0)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return "remaining graph is not split"
    return None


def transitive(n, arcs, removed):
    """The tournament minus ``removed`` has no directed triangle: a
    tournament is acyclic exactly when its out-degrees are all distinct."""
    keep = set(range(1, n + 1)) - set(removed)
    out = dict.fromkeys(keep, 0)
    for u, v in arcs:
        if u in keep and v in keep:
            out[u] += 1
    if len(set(out.values())) != len(keep):
        return "remaining tournament has a directed triangle"
    return None


# ------------------------------------------------------------ guarantees


def staggered_cap(d, eps, k):
    """Size cap of a successful hs_bounded_k: (ceil((d-1)/eps) + d)(k+1)^(1+eps)."""
    rounds = max(1, math.ceil((d - 1) / eps - 1e-9))
    return (rounds + d) * (k + 1) ** (1 + eps)


def regular_ds_bound(n, d):
    """The sampling bound n(ln(d+1) + 1)/(d+1) that regular_ds_derand meets."""
    return n * (math.log(d + 1) + 1) / (d + 1)
