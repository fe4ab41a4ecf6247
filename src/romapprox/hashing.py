"""Carter-Wegman hash enumeration and the derandomized
average-degree independent set.

A 2-universal family over a prime p >= n is small enough to sweep
exhaustively, so any quantity whose expectation over the family is good
can be optimized by trying every member.  The independent-set routine
scores each member by |S_f| minus the edges inside S_f; the best score
lower-bounds the components of the induced subgraph, and picking the
minimum vertex of every closed neighborhood turns components into an
independent set of that size.

Both sweeps only need each member's preimage S_f of a short prefix
{1..t} of the range, and for a fixed multiplier a the p members differ
only in b.  ``HashFamily.lanes`` therefore packs, per multiplier, one
int per vertex x whose lane b is 1 exactly when f_{a,b}(x) <= t: lane b
of a doubled mask of the residues r with r mod k < t, shifted by
a*x mod p, and each of those p shifts is built once per family.  Sums,
ORs and ANDs of these ints over vertices or edges yield |S_f|, |N[S_f]|,
the edges inside S_f and the degree sum over S_f of all p members at
once, and one ``to_bytes`` and ``memoryview.cast`` unpacks them.  So
the code reads each adjacency once per multiplier, while the meter is
still charged the per-member model: the degree sum over S_f in input
accesses and the member's sets in words, as a port that scores one
member at a time would spend them.  The lane ints are uncharged
fast-mode scratch of Theta(n*p*log n) bits per multiplier.
"""

import struct
import sys
from dataclasses import dataclass
from operator import and_, mul

from .errors import DomainError
from .instances import GraphInstance
from .meter import coerce_meter


def least_prime_at_least(n, meter=None):
    """Smallest prime >= n by trial division, charged as primitive work."""
    meter = coerce_meter(meter)
    c = max(2, n)
    while True:
        prime = True
        q = 2
        while q * q <= c:
            meter.charge_primitive()
            if c % q == 0:
                prime = False
                break
            q += 1
        if prime:
            return c
        c += 1


@dataclass(frozen=True)
class HashFn:
    """One member x -> ((a*x + b) mod p mod k) + 1 of a family."""

    a: int
    b: int
    p: int
    k: int

    def __call__(self, x):
        return (self.a * x + self.b) % self.p % self.k + 1


class HashFamily:
    """All p*(p-1) functions f_{a,b} for a in [1, p-1], b in [0, p-1].

    Iteration is lexicographic in (a, b).  For every pair i != j of
    domain points, at most len(family)/k members collide on it.
    """

    __slots__ = ("n", "k", "p")

    def __init__(self, n, k, p):
        self.n = n
        self.k = k
        self.p = p

    def __len__(self):
        return self.p * (self.p - 1)

    def __iter__(self):
        for a in range(1, self.p):
            for b in range(self.p):
                yield HashFn(a, b, self.p, self.k)

    def preimage(self, a, b, t):
        """The ascending x in [1, n] with f_{a,b}(x) <= t."""
        f = HashFn(a, b, self.p, self.k)
        return [x for x in range(1, self.n + 1) if f(x) <= t]

    def lanes(self, t, largest):
        """Every member's preimage of {1..t}, packed a multiplier at a time.

        Returns ``(rows, unpack)``.  ``rows`` yields, per multiplier a in
        ``__iter__`` order, a list whose item x, for x in 1..n, is an int
        of p lanes: lane b, counted from the low end, is 1 when
        f_{a,b}(x) <= t and 0 otherwise; item 0 is 0.  A lane is one
        item of the narrowest unsigned native format that holds
        ``largest``, so sums, ORs and ANDs of items that keep every lane
        at most ``largest`` never carry into the next lane, and
        ``unpack(total)`` lists total's p lanes, item b for member (a, b).

        f(x) <= t exactly when (a*x mod p + b) mod p is a residue r with
        r mod k < t, so item x is a mask of those residues and of their
        copies r + p, shifted down by a*x mod p lanes and cut to p lanes;
        the p possible shifts are built once.
        """
        p = self.p
        code = next(c for c in "BHIQ" if largest < 1 << 8 * struct.calcsize(c))
        width = 8 * struct.calcsize(code)
        doubled = sum(1 << width * r for r in range(2 * p) if r % p % self.k < t)
        cut = (1 << width * p) - 1
        shifted = [doubled >> width * c & cut for c in range(p)]
        size = width // 8 * p

        def unpack(total):
            return memoryview(total.to_bytes(size, sys.byteorder)).cast(code).tolist()

        rows = (
            [0, *[shifted[a * x % p] for x in range(1, self.n + 1)]]
            for a in range(1, p)
        )
        return rows, unpack

    def __repr__(self):
        return f"HashFamily(n={self.n}, k={self.k}, p={self.p})"


def cw_family(n, k, meter=None):
    """2-universal family of hash functions [n] -> [k].

    Parameters
    ----------
    n : int
        Domain size, at least 1.
    k : int
        Range size, 1 <= k <= n.

    Returns
    -------
    HashFamily
        Enumerable family over the least prime p >= n.
    """
    if not 1 <= k <= n:
        raise DomainError(f"range size must satisfy 1 <= k <= n, got k={k} n={n}")
    return HashFamily(n, k, least_prime_at_least(n, meter))


def avg_degree_is(g, meter=None):
    """Independent set of size at least n over twice the ceiling of the
    average degree.

    Sweeps the 2-universal family with range size k = ceil(avg degree),
    takes S_f = preimage of 1 under the best-scoring member (score
    |S_f| - edges(S_f), ties to the smallest (a, b)), and keeps every
    vertex of S_f that is minimum in its closed neighborhood within
    G[S_f].

    The sweep scores the p members of a multiplier together from
    ``HashFamily.lanes``: |S_f|, the edges inside S_f and the degree sum
    over S_f are one sum each, over the vertices or the edges.  The
    meter is charged per member as if it were scored from the neighbour
    rows of S_f alone: sum(deg(v) for v in S_f) input accesses, about
    2m/k, and the current and the best member's S_f as a list and a set,
    2*|S_f| words.  The winner's S_f is rebuilt from its (a, b), and its
    final scan charges its degree sum once more.  The charged reads are
    below m for k >= 3; at k = 2 they are about m and can exceed it, and
    at k = 1, where S_f = V, they are 2m per member.

    Returns
    -------
    list of int
        Independent in g; for m >= 1 the size is at least n/(2k).
        Edgeless inputs return every vertex.
    """
    if not isinstance(g, GraphInstance):
        raise DomainError("avg_degree_is needs a GraphInstance")
    meter = coerce_meter(meter)
    n = g.n
    if g.m == 0:
        return list(range(1, n + 1))
    k = -(-2 * g.m // n)
    fam = cw_family(n, k, meter)
    degrees = [0, *map(g.degree, range(1, n + 1))]
    us, vs = zip(*g.edges)
    # a lane counts at most n vertices, m edges or 2m adjacency words
    rows, unpack = fam.lanes(1, max(n, 2 * g.m))
    best = None
    for a, lanes in enumerate(rows, start=1):
        at = lanes.__getitem__
        sizes = unpack(sum(lanes))
        reads = unpack(sum(map(mul, lanes, degrees)))
        inner = unpack(sum(map(and_, map(at, us), map(at, vs))))
        for b, (size, read, edges) in enumerate(zip(sizes, reads, inner)):
            meter.tick_pass()
            words = 2 * size
            meter.alloc(words)
            meter.access(read)
            score = size - edges
            if best is None or score > best[0]:
                if best is not None:
                    meter.release(best[3])
                best = (score, a, b, words)
            else:
                meter.release(words)
    _, a, b, words = best
    inside = fam.preimage(a, b, 1)
    member = sum(1 << v for v in inside)
    rows = g.neighbor_masks(inside, meter)
    # v stays when no neighbour inside S_f has a smaller id
    out = [v for v, row in zip(inside, rows) if not row & member & (1 << v) - 1]
    meter.release(words)
    return out
