"""Independent brute-force oracles and generators used by the test suite.

Everything here is deliberately written against plain (n, edges) / (n, sets)
data rather than the package's instance types, with different algorithms
than the library uses, so agreement is meaningful.
"""

import itertools
import math
import random


def edge_key(u, v):
    return (u, v) if u < v else (v, u)


def edge_set(edges):
    return {edge_key(u, v) for u, v in edges}


# ---------------------------------------------------------------- exact sizes


def mis_size(n, edges):
    """Maximum independent set size via memoized bitmask branching."""
    closed = [0] * (n + 1)
    for v in range(1, n + 1):
        closed[v] = 1 << (v - 1)
    for u, v in edges:
        closed[u] |= 1 << (v - 1)
        closed[v] |= 1 << (u - 1)
    memo = {}

    def best(mask):
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length()
        take = 1 + best(mask & ~closed[v])
        skip = best(mask & ~(1 << (v - 1)))
        r = take if take >= skip else skip
        memo[mask] = r
        return r

    return best((1 << n) - 1)


def tau(n, edges):
    """Minimum vertex cover size (complement of maximum independent set)."""
    return n - mis_size(n, edges)


def is_vertex_cover(edges, cand):
    s = set(cand)
    return all(u in s or v in s for u, v in edges)


def is_independent(edges, cand):
    s = set(cand)
    return not any(u in s and v in s for u, v in edges)


def is_maximal_independent(n, edges, cand):
    if not is_independent(edges, cand):
        return False
    s = set(cand)
    nbr = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    for v in range(1, n + 1):
        if v not in s and not (nbr[v] & s):
            return False
    return True


def is_dominating(n, edges, cand):
    s = set(cand)
    covered = set(s)
    for u, v in edges:
        if u in s:
            covered.add(v)
        if v in s:
            covered.add(u)
    return len(covered) == n


def hits_all(sets, cand):
    s = set(cand)
    return all(s & set(a) for a in sets)


def min_vertex_cover(n, edges):
    """Lexicographically least minimum vertex cover, increasing-size scan."""
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if is_vertex_cover(edges, combo):
                return combo
    return tuple(range(1, n + 1))


def min_dominating_size(n, edges):
    if n == 0:
        return 0
    closed = [0] * (n + 1)
    for v in range(1, n + 1):
        closed[v] = 1 << (v - 1)
    for u, v in edges:
        closed[u] |= 1 << (v - 1)
        closed[v] |= 1 << (u - 1)
    full = (1 << n) - 1
    verts = range(1, n + 1)
    for size in range(n + 1):
        for combo in itertools.combinations(verts, size):
            mask = 0
            for v in combo:
                mask |= closed[v]
            if mask == full:
                return size
    return n


def min_hitting_size(sets):
    universe = sorted({e for a in sets for e in a})
    if not sets:
        return 0
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            if hits_all(sets, combo):
                return size
    return len(universe)


def retention_rescan(sets, d, k):
    """The hitting-set kernel's retention rule by direct recount.

    Set A (input order) is kept iff every subset B of A, empty and A
    included, lies in fewer than (k+1)^(d-|B|) earlier kept sets; each
    B at or over its ceiling is a witness of A's discard.  Returns (kept
    1-based indices, the nonempty witnesses as sorted tuples in first
    appearance order, by size then lexicographically within a set,
    whether some discard had the empty set as its only witness).
    """
    kept = []
    kept_sets = []
    recorded = []
    only_empty = False
    for idx, a in enumerate(sets, start=1):
        a = frozenset(a)
        saturated = [
            b
            for size in range(len(a) + 1)
            for b in map(frozenset, itertools.combinations(a, size))
            if sum(1 for t in kept_sets if b <= t) >= (k + 1) ** (d - size)
        ]
        if not saturated:
            kept.append(idx)
            kept_sets.append(a)
            continue
        only_empty = only_empty or saturated == [frozenset()]
        for b in sorted(saturated, key=lambda b: (len(b), sorted(b))):
            if b and tuple(sorted(b)) not in recorded:
                recorded.append(tuple(sorted(b)))
    return tuple(kept), tuple(recorded), only_empty


def tree_tau_dp(n, edges, root=1):
    """Vertex cover size on a tree by two-state DP (independent of brute force)."""
    if n == 1:
        return 0
    nbr = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    parent = [0] * (n + 1)
    order = [root]
    parent[root] = -1
    for v in order:
        for w in nbr[v]:
            if parent[w] == 0 and w != root:
                parent[w] = v
                order.append(w)
    inc = [0] * (n + 1)
    exc = [0] * (n + 1)
    for v in reversed(order):
        i = 1
        x = 0
        for w in nbr[v]:
            if w != parent[v]:
                i += min(inc[w], exc[w])
                x += inc[w]
        inc[v] = i
        exc[v] = x
    return min(inc[root], exc[root])


def bfs_parents(n, edges, root=1):
    """Each vertex's parent in the tree rooted at ``root`` (None there),
    indexed by id, from a breadth-first search."""
    nbr = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    parent = [None] * (n + 1)
    seen = {root}
    order = [root]
    for v in order:
        for w in nbr[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    return parent


def euler_tour(n, edges, root, masked=None, stop=None):
    """Replay a tree's closed Euler tour probe by probe.

    Each step leaves the current vertex by the slot after the arrival
    slot (input adjacency order, wrapping), then scans the next vertex's
    list slot by slot for the arrival slot.  Before the first step the
    root's degree is probed, to tell whether the tour is empty.  A step
    costs one primitive word and these probes: the current degree, the
    departure slot, each scanned slot, and the root's degree when the
    step lands on the root.  The tour closes on landing at the root by
    its last slot.

    With ``masked`` given, the tour stays in the root's branch, the
    root's component once ``masked`` is deleted.  A departure slot that
    holds ``masked`` is probed and passed over to the next slot, probed
    too.  The tour closes on landing at the root when every later slot
    holds ``masked``; when exactly one slot is left, reading it is one
    more probe, and so is reading a degree-one root's only slot before
    the first step.  Returns (edges walked, primitive words, probes).

    With ``stop`` given, only the prefix up to the tour's first arrival
    at ``stop`` is walked and counted.
    """
    nbr = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    walked = []
    primitive = 0
    probes = 2 if masked is not None and len(nbr[root]) == 1 else 1
    if all(w == masked for w in nbr[root]):
        return walked, primitive, probes
    cur, arrival = root, 0
    while True:
        primitive += 1
        probes += 1
        degree = len(nbr[cur])
        probes += 1
        leave = arrival % degree
        if nbr[cur][leave] == masked:
            probes += 1
            leave = (leave + 1) % degree
        nxt = nbr[cur][leave]
        slot = 0
        while True:
            slot += 1
            probes += 1
            if nbr[nxt][slot - 1] == cur:
                break
        walked.append((cur, nxt))
        cur, arrival = nxt, slot
        if cur == root:
            probes += 1
            later = nbr[root][arrival:]
            if masked is not None and len(later) == 1:
                probes += 1
            if all(w == masked for w in later):
                return walked, primitive, probes
        if cur == stop:
            return walked, primitive, probes


def functional_rep(arcs, v):
    """(representative, on_cycle) of v's component in an out-degree <= 1
    digraph, from the whole walk out of v kept in a list: the sink the
    walk ends at and False, or the minimum id of the cycle it closes and
    whether v is on that cycle."""
    succ = dict(arcs)
    walk, index = [], {}
    x = v
    while x is not None and x not in index:
        index[x] = len(walk)
        walk.append(x)
        x = succ.get(x)
    if x is None:
        return walk[-1], False
    cycle = walk[index[x]:]
    return min(cycle), v in cycle


# ------------------------------------------------------------ pattern scans


def _induced_edges(es, combo):
    return [e for e in itertools.combinations(sorted(combo), 2) if e in es]


def has_induced_k2(n, edges):
    return bool(edges)


def has_induced_k3(n, edges):
    es = edge_set(edges)
    return any(
        len(_induced_edges(es, c)) == 3 for c in itertools.combinations(range(1, n + 1), 3)
    )


def has_induced_p3(n, edges):
    es = edge_set(edges)
    return any(
        len(_induced_edges(es, c)) == 2 for c in itertools.combinations(range(1, n + 1), 3)
    )


def _degseq(combo, ie):
    deg = {v: 0 for v in combo}
    for u, v in ie:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg.values())


def has_induced_p4(n, edges):
    es = edge_set(edges)
    for c in itertools.combinations(range(1, n + 1), 4):
        ie = _induced_edges(es, c)
        if len(ie) == 3 and _degseq(c, ie) == [1, 1, 2, 2]:
            return True
    return False


def has_induced_c4(n, edges):
    es = edge_set(edges)
    for c in itertools.combinations(range(1, n + 1), 4):
        ie = _induced_edges(es, c)
        if len(ie) == 4 and _degseq(c, ie) == [2, 2, 2, 2]:
            return True
    return False


def has_induced_2k2(n, edges):
    es = edge_set(edges)
    for c in itertools.combinations(range(1, n + 1), 4):
        ie = _induced_edges(es, c)
        if len(ie) == 2 and _degseq(c, ie) == [1, 1, 1, 1]:
            return True
    return False


def has_induced_c5(n, edges):
    es = edge_set(edges)
    for c in itertools.combinations(range(1, n + 1), 5):
        ie = _induced_edges(es, c)
        if len(ie) == 5 and _degseq(c, ie) == [2, 2, 2, 2, 2]:
            return True
    return False


# Shape of each undirected pattern: the sorted degree sequence of the
# subgraph it induces, which also fixes its edge count.
_PATTERN_DEGREES = {
    "k2": [1, 1],
    "k3": [2, 2, 2],
    "p3": [1, 1, 2],
    "p4": [1, 1, 2, 2],
    "c4": [2, 2, 2, 2],
    "2k2": [1, 1, 1, 1],
    "c5": [2, 2, 2, 2, 2],
}

FORBIDDEN_SHAPES = {
    "vc": ("k2",),
    "triangle-vd": ("k3",),
    "cluster-vd": ("p3",),
    "cograph-vd": ("p4",),
    "threshold-vd": ("2k2", "p4", "c4"),
    "split-vd": ("2k2", "c4", "c5"),
}


def forbidden_sets(n, edges, problem):
    """Every vertex subset inducing one of the problem's patterns, by size
    then lexicographically, and the largest pattern size."""
    shapes = [_PATTERN_DEGREES[name] for name in FORBIDDEN_SHAPES[problem]]
    es = edge_set(edges)
    found = []
    for size in sorted({len(s) for s in shapes}):
        for c in itertools.combinations(range(1, n + 1), size):
            if _degseq(c, _induced_edges(es, c)) in shapes:
                found.append(c)
    return found, max(len(s) for s in shapes)


def has_directed_triangle(n, arcs):
    a = set(arcs)
    for x, y, z in itertools.combinations(range(1, n + 1), 3):
        for p, q, r in ((x, y, z), (x, z, y)):
            if (p, q) in a and (q, r) in a and (r, p) in a:
                return True
    return False


def has_c4_subgraph(n, edges):
    """Any 4-cycle, induced or not."""
    es = edge_set(edges)
    for a, c in itertools.combinations(range(1, n + 1), 2):
        common = [
            b
            for b in range(1, n + 1)
            if b != a and b != c and edge_key(a, b) in es and edge_key(b, c) in es
        ]
        if len(common) >= 2:
            return True
    return False


def find_c4(n, edges):
    """(a, b, c, b') for the least pair a < c with two common neighbors
    b, b' (the first two in a's input adjacency order), or None."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for a, c in itertools.combinations(range(1, n + 1), 2):
        common = [b for b in adj[a] if c in adj[b]]
        if len(common) >= 2:
            return (a, common[0], c, common[1])
    return None


def degeneracy_order(n, edges):
    """Repeatedly remove the live vertex with the least (live degree, id);
    the order and the largest degree seen at removal."""
    nbr = [set() for _ in range(n + 1)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    live = set(range(1, n + 1))
    order = []
    best = 0
    while live:
        v = min(live, key=lambda x: (len(nbr[x] & live), x))
        best = max(best, len(nbr[v] & live))
        order.append(v)
        live.remove(v)
    return order, best


def degeneracy_value(n, edges):
    return degeneracy_order(n, edges)[1]


# ---------------------------------------------------------------- hash sweeps


def _cw_value_rows(n, k):
    """Value lists [f(1), ..., f(n)] of every f(x) = ((a*x + b) mod p mod k) + 1,
    p the least prime >= n, a in [1, p-1] and b in [0, p-1], a-major."""
    p = max(2, n)
    while any(p % q == 0 for q in range(2, p)):
        p += 1
    for a in range(1, p):
        for b in range(p):
            yield [(a * x + b) % p % k + 1 for x in range(1, n + 1)]


def _nbr_sets(n, edges):
    nbr = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def _avg_is_preimages(n, edges):
    """S = f^-1(1) of every member, range size k = ceil(2m/n), m >= 1."""
    k = -(-2 * len(edges) // n)
    for row in _cw_value_rows(n, k):
        yield {x for x in range(1, n + 1) if row[x - 1] == 1}


def _avg_is_winner(n, edges):
    """The first S maximizing |S| - m_S."""
    best, best_score = None, None
    for s in _avg_is_preimages(n, edges):
        score = len(s) - sum(1 for u, v in edges if u in s and v in s)
        if best is None or score > best_score:
            best, best_score = s, score
    return best


def avg_degree_is_sweep(n, edges):
    """Brute-force avg_degree_is: the first member maximizing |S| - m_S
    over S = f^-1(1), k = ceil(2m/n), then the vertices of S smaller
    than all their neighbours in S."""
    if not edges:
        return list(range(1, n + 1))
    best = _avg_is_winner(n, edges)
    nbr = _nbr_sets(n, edges)
    return sorted(v for v in best if all(w > v for w in nbr[v] & best))


def avg_degree_is_accesses(n, edges):
    """Input accesses avg_degree_is charges: the summed degree of every
    member's S = f^-1(1), plus that of the winner's S for the final
    scan; 0 on an edgeless graph."""
    if not edges:
        return 0
    nbr = _nbr_sets(n, edges)
    swept = sum(len(nbr[v]) for s in _avg_is_preimages(n, edges) for v in s)
    return swept + sum(len(nbr[v]) for v in _avg_is_winner(n, edges))


def _regular_ds_preimages(n, d):
    """S = {x : f(x) <= max(1, ceil(ln(d+1)))} of every member, range
    size d + 1."""
    t = max(1, math.ceil(math.log(d + 1)))
    for row in _cw_value_rows(n, d + 1):
        yield {x for x in range(1, n + 1) if row[x - 1] <= t}


def regular_ds_sweep(n, edges, d):
    """Brute-force regular_ds_derand: the first member minimizing
    |S + (V - N[S])| over S = {x : f(x) <= max(1, ceil(ln(d+1)))},
    range size d + 1."""
    if n == 0:
        return []
    nbr = _nbr_sets(n, edges)
    best = None
    for s in _regular_ds_preimages(n, d):
        closed = s.union(*(nbr[v] for v in s))
        w = s | (set(range(1, n + 1)) - closed)
        if best is None or len(w) < len(best):
            best = w
    return sorted(best)


def regular_ds_accesses(n, edges, d):
    """Input accesses regular_ds_derand charges on a d-regular graph:
    one degree probe per vertex, then d adjacency words per vertex of
    every member's S; 0 when n = 0."""
    if n == 0:
        return 0
    return n + d * sum(len(s) for s in _regular_ds_preimages(n, d))


def _prime_trials(n):
    """Trial divisions the search for the least prime >= max(2, n)
    makes: one per divisor q tried while q*q <= c, up to c's first."""
    trials, c = 0, max(2, n)
    while True:
        q = 2
        while q * q <= c:
            trials += 1
            if c % q == 0:
                break
            q += 1
        else:
            return trials
        c += 1


def _sweep_peak(scored):
    """Charged peak of a sweep over (score, words) pairs that holds the
    first best-scoring member's words and charges each member's words on
    top of them before comparing."""
    peak = held = 0
    best = None
    for score, words in scored:
        peak = max(peak, held + words)
        if best is None or score > best:
            best, held = score, words
    return peak


def avg_degree_is_meter(n, edges):
    """(charged_peak, primitive_words, input_accesses, pass_estimate) of
    avg_degree_is, scoring one member at a time: each member charges
    2|S| words and one pass; all 0 on an edgeless graph."""
    if not edges:
        return (0, 0, 0, 0)
    scored = [
        (len(s) - sum(1 for u, v in edges if u in s and v in s), 2 * len(s))
        for s in _avg_is_preimages(n, edges)
    ]
    accesses = avg_degree_is_accesses(n, edges)
    return (_sweep_peak(scored), _prime_trials(n), accesses, len(scored))


def regular_ds_meter(n, edges, d):
    """(charged_peak, primitive_words, input_accesses, pass_estimate) of
    regular_ds_derand on a d-regular graph, scoring one member at a
    time: each member charges |S| + |N[S]| words and one pass; all 0
    when n = 0."""
    if n == 0:
        return (0, 0, 0, 0)
    nbr = _nbr_sets(n, edges)
    scored = []
    for s in _regular_ds_preimages(n, d):
        closed = s.union(*(nbr[v] for v in s))
        scored.append((len(closed) - len(s), len(s) + len(closed)))
    accesses = regular_ds_accesses(n, edges, d)
    return (_sweep_peak(scored), _prime_trials(n), accesses, len(scored))


def best_member_reference(table):
    """Winner, held words and (charged_peak, primitive_words,
    input_accesses, pass_estimate) of a sweep that scores one member at
    a time.  ``table`` lists, per multiplier a = 1, 2, ..., the members'
    (scores, reads, words) in b order; the first lowest score wins, and
    each member charges one pass, its reads and its words on top of the
    held best's before it is compared."""
    peak = held = accesses = passes = 0
    best = winner = None
    for a, (scores, reads, words) in enumerate(table, start=1):
        for b, (score, read, charged) in enumerate(zip(scores, reads, words)):
            passes += 1
            accesses += read
            peak = max(peak, held + charged)
            if best is None or score < best:
                best, held, winner = score, charged, (a, b)
    return winner, held, (peak, 0, accesses, passes)


# ---------------------------------------------------------------- generators


def prufer_decode(seq, n):
    """Edge list of the labeled tree with the given Prüfer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    edges = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    return edges


def random_tree_edges(rng, n):
    if n <= 1:
        return []
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    return prufer_decode(seq, n)


def random_graph(rng, n, p):
    return [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]


def random_graph_max_degree(rng, n, p, cap):
    deg = [0] * (n + 1)
    edges = []
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < p and deg[u] < cap and deg[v] < cap:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return edges


def random_family(rng, n, m, d):
    sets = []
    for _ in range(m):
        size = rng.randint(1, min(d, n))
        sets.append(tuple(rng.sample(range(1, n + 1), size)))
    return sets


def random_bounded_family(rng, n, m, d, delta):
    """Up to m random sets of at most d elements, each element in at most
    delta of them; stops early once every element is in delta sets."""
    count = [0] * (n + 1)
    sets = []
    for _ in range(m):
        free = [e for e in range(1, n + 1) if count[e] < delta]
        if not free:
            break
        s = tuple(rng.sample(free, rng.randint(1, min(d, len(free)))))
        for e in s:
            count[e] += 1
        sets.append(s)
    return sets


def random_functional_arcs(rng, n, loop_free_prob=0.15):
    arcs = []
    for v in range(1, n + 1):
        if n > 1 and rng.random() > loop_free_prob:
            w = rng.randint(1, n - 1)
            if w >= v:
                w += 1
            arcs.append((v, w))
    return arcs


def make_rng(seed):
    return random.Random(seed)
