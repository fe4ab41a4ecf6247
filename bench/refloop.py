"""The fixed reference loop every solve time is divided by.

On a shared host the same code drifts by 15-25% between runs, and that
drift moves the reference loop much as it moves the solvers, so a solve
time divided by the loop time measured next to it repeats far better
than the raw time.  The loop does the kind of work the library does:
adjacency lists in a dict, a breadth-first search with a set, counting
in a dict and sorting a list, then a depth-first walk through generator
and method calls on a small slotted class, which is how the library's
views and layered oracles spend their time.  It runs on a fixed
pseudo-random graph and imports nothing from ``romapprox``, so no change
to the library can move it.
"""

N = 600
EDGES = 2 * N
WALK_DEPTH = 60
WALK_STEP = 16


class _Walker:
    __slots__ = ("adj", "seen")

    def __init__(self, adj):
        self.adj = adj
        self.seen = set()

    def fresh(self, v):
        for w in self.adj[v]:
            if w not in self.seen:
                yield w

    def visit(self, v, depth):
        self.seen.add(v)
        total = 1
        if depth < WALK_DEPTH:
            for w in self.fresh(v):
                if w not in self.seen:
                    total += self.visit(w, depth + 1)
        return total


def reference_loop():
    """A few milliseconds of pure-Python dict, set, list and call work."""
    x = 12345
    adj = {v: [] for v in range(N)}
    for _ in range(EDGES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % N
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % N
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    queue = [0]
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    counts = {}
    for v in queue:
        d = len(adj[v])
        counts[d] = counts.get(d, 0) + 1
    order = sorted(queue, key=lambda v: (len(adj[v]), v))
    walked = sum(_Walker(adj).visit(r, 0) for r in range(0, N, WALK_STEP))
    return len(seen) + sum(counts.values()) + order[0] + walked
