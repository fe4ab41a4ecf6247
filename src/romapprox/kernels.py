"""Budgeted kernelization for vertex cover and hitting set.

Both kernels either answer NO (no solution within the budget k exists)
or shrink the instance to a piece whose size depends on k alone.  The
cover kernel keeps every vertex of degree above k plus the endpoints of
the leftover edges; the hitting-set kernel scans the family once in
input order and retains a set exactly when none of its subsets, from
the empty set up to the set itself, already appears inside
(k+1)^(d-|subset|) retained sets.  Retention thus depends only on what
came earlier, so a rescan reproduces any prefix of the decision
sequence.  A budget search scans one :class:`RetentionTable` at each
budget, so each set's subsets are listed once per search.
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
    return RetentionTable(f).scan(k)


class RetentionTable:
    """The subset lists of one family's sets, kept across budgets.

    A budget search scans one table at each budget it tries: row j holds
    integer ids of set j's subsets, ascending by size and then
    lexicographically, ``()`` (id 0) first, and ``subsets`` maps an id
    back to its sorted tuple.  A row is built, through
    ``f.set_elements(j)``, the first time a scan reaches set j, so a NO
    scan still reads no set past its proving one.  Neither the table
    nor a scan's room counters are charged to any meter: they hold
    Theta(m * 2^d) words for one solver call.
    """

    def __init__(self, f):
        self.f = f
        self.rows = []
        self.subsets = []
        self._ids = {}

    def _add_row(self, j, room, ceiling):
        """Append set j's row; each new id gets its full ceiling as its
        room in the running scan."""
        subsets, ids = self.subsets, self._ids
        # combinations of a sorted tuple are sorted tuples, one key per subset
        ordered = sorted(self.f.set_elements(j))
        row = []
        for size in range(len(ordered) + 1):
            for sub in combinations(ordered, size):
                b = ids.get(sub)
                if b is None:
                    b = ids[sub] = len(subsets)
                    subsets.append(sub)
                    room.append(ceiling[size])
                row.append(b)
        self.rows.append(row)

    def scan(self, k):
        """:func:`retention_scan` at budget k, on this table's family."""
        if k < 0:
            raise DomainError(f"budget must be nonnegative, got {k}")
        f, rows, subsets = self.f, self.rows, self.subsets
        ceiling = [(k + 1) ** (f.d - size) for size in range(f.d + 1)]
        # room[b]: retained supersets subset b still admits before it saturates
        room = [ceiling[len(b)] for b in subsets]
        retained = []
        recorded = {}  # insertion-ordered, so first appearance order
        for j in range(1, f.m + 1):
            if j > len(rows):
                self._add_row(j, room, ceiling)
            row = rows[j - 1]
            witnesses = [b for b in row if room[b] <= 0]
            if not witnesses:
                retained.append(j)
                for b in row:
                    room[b] -= 1
                continue
            # rows ascend by size, so () (id 0) is last only when it is alone
            if not witnesses[-1]:
                return (), (), True
            for b in witnesses:
                if b and b not in recorded:
                    recorded[b] = None
        return tuple(retained), tuple(subsets[b] for b in recorded), False


def kernel_family(f, outcome):
    """Materialize a KERNEL outcome of :func:`fk_hs_kernel` as a family
    over the same ground set."""
    if outcome.is_no:
        raise DomainError("NO outcome has no kernel family")
    return SetFamilyInstance(f.n, f.d, [f.set_elements(j) for j in outcome.payload])
