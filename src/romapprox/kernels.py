"""Budgeted kernelization for vertex cover and hitting set.

Both kernels either answer NO (no solution within the budget k exists)
or shrink the instance to a piece whose size depends on k alone.  The
cover kernel keeps every vertex of degree above k plus the endpoints of
the leftover edges; the hitting-set kernel scans the family once in
input order and retains a set exactly when none of its subsets, from
the empty set up to the set itself, already appears inside
(k+1)^(d-|subset|) retained sets.  Retention thus depends only on what
came earlier, so a rescan reproduces any prefix of the decision
sequence.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .instances import GraphInstance, SetFamilyInstance, require_instance

NO = "NO"
KERNEL = "KERNEL"


@dataclass(frozen=True)
class KernelOutcome:
    """Verdict plus payload: vertex ids for covers, set indices for
    families.  A NO verdict carries an empty payload."""

    verdict: str
    payload: tuple

    @property
    def is_no(self):
        return self.verdict == NO


def buss_vc_kernel(g, k):
    """Vertex-cover kernel keyed to the budget k.

    Parameters
    ----------
    g : GraphInstance
    k : int
        Cover budget, at least 0.

    Returns
    -------
    KernelOutcome
        NO when more than k vertices exceed degree k or more than k^2
        edges survive their removal; otherwise KERNEL whose payload is
        the high-degree vertices plus the surviving edges' endpoints,
        ascending.  The payload is always a vertex cover of g, of size
        at most k + 2k^2.

    Notes
    -----
    Any cover within the budget must take every vertex of degree above
    k (else its > k neighbors are all forced in), and what remains can
    only be covered by k vertices of degree at most k, so more than k^2
    leftover edges are hopeless.
    """
    require_instance(g, GraphInstance, "buss_vc_kernel")
    if k < 0:
        raise DomainError(f"budget must be nonnegative, got {k}")
    high = {v for v in range(1, g.n + 1) if g.degree(v) > k}
    if len(high) > k:
        return KernelOutcome(NO, ())
    rest = [(u, v) for (u, v) in g.edges if u not in high and v not in high]
    if len(rest) > k * k:
        return KernelOutcome(NO, ())
    keep = set(high)
    for u, v in rest:
        keep.add(u)
        keep.add(v)
    return KernelOutcome(KERNEL, tuple(sorted(keep)))


def fk_hs_kernel(f, k):
    """Hitting-set kernel retaining at most (k+1)^d sets.

    Parameters
    ----------
    f : SetFamilyInstance
    k : int
        Hitting budget, at least 0.

    Returns
    -------
    KernelOutcome
        KERNEL whose payload is the 1-based indices of the retained
        sets, in input order, or NO when some set is discarded with the
        empty set as its only saturated witness (the retained family
        alone has hit the global ceiling, so no budget-k hitting set
        survives at desk scale).  The scan stops at that set, so a NO
        reads only the sets up to it.

    Notes
    -----
    Set A is retained iff every subset B of A, from the empty set up to
    A itself, is contained in fewer than (k+1)^(d-|B|) earlier retained
    sets.  A discard with a nonempty saturated witness B is harmless:
    hitting the saturated crowd of retained supersets of B forces an
    element of B itself into any budget-k solution, and that element
    hits A too.  Duplicate copies of a retained set die this way (their
    witness is the set itself), never through the empty set, so the NO
    signal fires only when genuinely distinct-enough sets exhaust the
    global (k+1)^d ceiling.
    """
    require_instance(f, SetFamilyInstance, "fk_hs_kernel")
    retained, _, saturated_no = retention_scan(f, k)
    if saturated_no:
        return KernelOutcome(NO, ())
    return KernelOutcome(KERNEL, retained)


def retention_scan(f, k):
    """One pass of the retention rule, stopping at its first NO.

    Returns (retained set indices, saturated discard witnesses as
    sorted tuples in first appearance order, False) when no discard has
    the empty set as its only witness.  The witness list backs the
    staggered scheme: every discarded set contains one of them.

    The first discard whose only witness is the empty set proves the
    budget k infeasible, and a NO carries no payload, like
    :class:`KernelOutcome`: the scan returns ``((), (), True)`` there,
    reading no later set.  Retention depends only on earlier sets, so
    appending sets after that one never changes the answer.
    """
    require_instance(f, SetFamilyInstance, "retention_scan")
    if k < 0:
        raise DomainError(f"budget must be nonnegative, got {k}")
    ceiling = [(k + 1) ** (f.d - size) for size in range(f.d + 1)]
    counts = {}
    retained = []
    recorded = {}  # insertion-ordered, so first appearance order
    for j in range(1, f.m + 1):
        # combinations of a sorted tuple are sorted tuples, one key per subset
        ordered = sorted(f.set_elements(j))
        subsets = [
            sub for size in range(len(ordered) + 1) for sub in combinations(ordered, size)
        ]
        witnesses = [b for b in subsets if counts.get(b, 0) >= ceiling[len(b)]]
        if not witnesses:
            retained.append(j)
            for b in subsets:
                counts[b] = counts.get(b, 0) + 1
            continue
        # subsets ascend by size, so () is last only when it is alone
        if not witnesses[-1]:
            return (), (), True
        for b in witnesses:
            if b and b not in recorded:
                recorded[b] = None
    return tuple(retained), tuple(recorded), False


def kernel_family(f, outcome):
    """Materialize a KERNEL outcome of :func:`fk_hs_kernel` as a family
    over the same ground set."""
    if outcome.is_no:
        raise DomainError("NO outcome has no kernel family")
    return SetFamilyInstance(f.n, f.d, [f.set_elements(j) for j in outcome.payload])
