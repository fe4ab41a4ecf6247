"""Carter-Wegman hash enumeration and the derandomized
average-degree independent set.

A 2-universal family over a prime p >= n is small enough to sweep
exhaustively, so any quantity whose expectation over the family is good
can be optimized by trying every member.  The independent-set routine
scores each member by |S_f| minus the edges inside S_f; the best score
lower-bounds the components of the induced subgraph, and picking the
minimum vertex of every closed neighborhood turns components into an
independent set of that size.

Both sweeps only need each member's preimage of a short prefix {1..t} of
the range, so ``HashFamily.preimages`` inverts the member on the few
residues that land there instead of hashing every domain point.  Each
member is then scored from the adjacency of its own preimage alone,
fetched with one ``GraphInstance.neighborhoods`` call and charged word
for word, instead of from a scan of the whole edge list.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

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

    def preimages(self, t):
        """Yield, per member in ``__iter__`` order, the ascending list of
        x in [1, n] with f_{a,b}(x) <= t.

        f(x) <= t exactly when (a*x + b) mod p is one of the residues r
        with r mod k < t, i.e. when x = (r - b) * a^-1 (mod p).  With
        y = r * a^-1 mod p and s = b * a^-1 mod p that is x = y - s
        (mod p), so over the sorted y's and their copies y + p the
        members are the values in (s, s + n], shifted down by s.  Each
        member costs O(p*t/k), not n evaluations; when n = p the residue
        y = s lands on s + p, i.e. on vertex p = n, as it must.
        """
        p, n = self.p, self.n
        residues = [r for r in range(p) if r % self.k < t]
        for a in range(1, p):
            inv = pow(a, -1, p)
            base = sorted(r * inv % p for r in residues)
            ys = base + [y + p for y in base]
            for b in range(p):
                s = b * inv % p
                lo, hi = bisect_right(ys, s), bisect_right(ys, s + n)
                yield [y - s for y in ys[lo:hi]]

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
    G[S_f].  The current and the best member's S_f, held as a list and
    a set, are charged to the meter.

    A member's edges inside S_f are counted from the adjacency of S_f
    alone, read in one ``neighborhoods`` call: it is charged
    sum(deg(v) for v in S_f) input accesses, about 2m/k, and the
    winner's final scan charges that sum once more.  That is below m
    for k >= 3; at k = 2 it is about m and can exceed it, and at k = 1,
    where S_f = V, it is 2m per member.

    Returns
    -------
    list of int
        Independent in g; for m >= 1 the size is at least n/(2k).
        Edgeless inputs return every vertex.
    """
    if not isinstance(g, GraphInstance):
        raise DomainError("avg_degree_is needs a GraphInstance")
    meter = coerce_meter(meter)
    if g.m == 0:
        return list(range(1, g.n + 1))
    k = -(-2 * g.m // g.n)
    best = None
    for inside in cw_family(g.n, k, meter).preimages(1):
        meter.tick_pass()
        words = 2 * len(inside)
        meter.alloc(words)
        member = set(inside)
        # an edge inside S_f is seen from both of its ends
        ends = chain.from_iterable(g.neighborhoods(inside, meter))
        score = len(inside) - sum(map(member.__contains__, ends)) // 2
        if best is None or score > best[0]:
            if best is not None:
                meter.release(best[3])
            best = (score, inside, member, words)
        else:
            meter.release(words)
    _, inside, member, words = best
    out = []
    for v, nbrs in zip(inside, g.neighborhoods(inside, meter)):
        if all(w > v for w in nbrs if w in member):
            out.append(v)
    meter.release(words)
    return out
