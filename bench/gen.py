"""Seeded instance generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain edge, arc or
set lists; ``graph_text``, ``digraph_text`` and ``family_text`` write
them in the library's line formats (``p``/``e`` graphs, ``q``/``a``
digraphs, ``h``/``s`` set families).  The library only ever sees that
text, so nothing here imports ``romapprox``.  Vertex labels and line
order are shuffled so no solver gets an input whose ids follow its
structure.
"""

import heapq


def graph_text(n, edges):
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def digraph_text(n, arcs):
    lines = [f"q {n} {len(arcs)}"]
    lines.extend(f"a {u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"


def family_text(n, d, sets):
    lines = [f"h {n} {len(sets)} {d}"]
    lines.extend("s " + " ".join(map(str, s)) for s in sets)
    return "\n".join(lines) + "\n"


def _relabel(rng, n, pairs):
    """Random vertex ids and random line order; pair orientation kept."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    out = [(ids[u - 1], ids[v - 1]) for u, v in pairs]
    rng.shuffle(out)
    return out


def regular_edges(rng, n, d):
    """A random simple d-regular graph, for every feasible (n, d).

    Starts from the circulant graph joining i to i+1..i+d/2 (plus the
    antipode when d is odd) and randomises it by degree-preserving double
    edge swaps, so it never needs a lucky restart the way a pairing
    model does at larger d.
    """
    if not (0 <= d < n and n * d % 2 == 0):
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    edges = set()
    for i in range(n):
        for s in range(1, d // 2 + 1):
            edges.add(tuple(sorted((i, (i + s) % n))))
        if d % 2:
            edges.add(tuple(sorted((i, (i + n // 2) % n))))
    edges = sorted(edges)
    present = set(edges)
    for _ in range(10 * len(edges)):
        x, y = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[x], edges[y]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = tuple(sorted((a, e))), tuple(sorted((c, b)))
        if a == e or c == b or new1 == new2 or new1 in present or new2 in present:
            continue
        present -= {edges[x], edges[y]}
        present |= {new1, new2}
        edges[x], edges[y] = new1, new2
    return _relabel(rng, n, [(u + 1, v + 1) for u, v in edges])


def degenerate_edges(rng, n, d):
    """Each vertex joins min(d, earlier) random earlier vertices: degeneracy <= d."""
    edges = []
    for v in range(2, n + 1):
        for u in rng.sample(range(1, v), min(d, v - 1)):
            edges.append((u, v))
    return _relabel(rng, n, edges)


def tree_edges(rng, n):
    """A uniform labelled tree decoded from a random Pruefer sequence."""
    if n < 2:
        return []
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    deg = [1] * (n + 1)
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    rng.shuffle(edges)
    return edges


def functional_arcs(rng, n):
    """Out-degree at most one: about 2% sinks, every other vertex one random arc."""
    arcs = []
    for v in range(1, n + 1):
        if rng.random() < 0.02:
            continue
        t = rng.randint(1, n - 1)
        arcs.append((v, t if t < v else t + 1))
    rng.shuffle(arcs)
    return arcs


def hub_edges(rng, n, hubs, hub_degree):
    """A 3-regular graph plus ``hubs`` vertices joined to ``hub_degree``
    random others each, so the maximum degree (the stage count of the
    layered solvers) is about hub_degree + 3."""
    base = regular_edges(rng, n, 3)
    present = {tuple(sorted(e)) for e in base}
    extra = []
    for h in rng.sample(range(1, n + 1), hubs):
        added = 0
        for v in rng.sample(range(1, n + 1), n):
            if added == hub_degree:
                break
            key = tuple(sorted((h, v)))
            if v != h and key not in present:
                present.add(key)
                extra.append(key)
                added += 1
    edges = base + extra
    rng.shuffle(edges)
    return edges


def tournament_arcs(rng, n):
    arcs = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
    ]
    return _relabel(rng, n, arcs)


def planted_family(rng, n, m, d, h, max_mult=None):
    """Up to ``m`` distinct sets of size 2..d over 1..n, each holding one
    of ``h`` planted elements, so the planted set hits the family and the
    optimum is at most h.  A draw that repeats an earlier set becomes the
    singleton of its planted element, or is dropped if that exists too.
    With ``max_mult`` no element lies in more than that many sets (the
    planted elements take m/h sets each, so m <= h * max_mult).
    """
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    planted, rest = ids[:h], ids[h:]
    cap = max_mult if max_mult is not None else m
    if m > h * cap:
        raise ValueError(f"{m} sets cannot share {h} planted elements at multiplicity {cap}")
    used = dict.fromkeys(ids, 0)
    sets = []
    seen = set()
    for j in range(m):
        anchor = planted[j % h]
        size = rng.randint(2, d)
        members = {anchor}
        for _ in range(8 * d):
            if len(members) == size:
                break
            e = rng.choice(rest)
            if used[e] < cap:
                members.add(e)
        members = tuple(sorted(members))
        if members in seen:
            members = (anchor,)
            if members in seen:
                continue
        seen.add(members)
        for e in members:
            used[e] += 1
        shuffled = list(members)
        rng.shuffle(shuffled)
        sets.append(tuple(shuffled))
    rng.shuffle(sets)
    return sets
