"""Read-only problem instances and their text formats.

Three line-oriented formats, all whitespace-separated decimal ids,
comment lines starting with ``c`` allowed anywhere:

* graph: header ``p <n> <m>`` then ``m`` lines ``e <u> <v>``
* digraph: header ``q <n> <m>`` then ``m`` lines ``a <u> <v>``
* set family: header ``h <n> <m> <d>`` then ``m`` lines ``s <e1> ... <ek>``

Vertices and ground-set elements are 1..n.  Input order is the canonical
order everywhere downstream: adjacency lists hold neighbors in first
appearance order, families keep sets and their elements as written, and
every algorithm that streams output does so against these orders.

The constructors are the only validators.  A loader checks the syntax,
streams each parsed line into a constructor and turns its DomainError
into a :class:`ParseError` whose ``line`` is the 1-based number of the
line being read; as a constructor raises at the first bad item, of two
faults in a text the one met first in reading order is reported.
"""

from .errors import DomainError, ParseError


def require_instance(instance, cls, who):
    """Raise ``DomainError("<who> needs a <cls>")`` unless ``instance``
    is a ``cls``."""
    if not isinstance(instance, cls):
        raise DomainError(f"{who} needs a {cls.__name__}")


def _tokenize(text):
    """Yield (line_number, tokens) for content lines, skipping comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0] != "c":
            yield lineno, tokens


def _fields(lineno, tokens, tag, count, what):
    """The integers after ``tag`` on a content line: ``count`` of them,
    or any number if ``count`` is None."""
    if tokens[0] != tag:
        raise ParseError(
            lineno, f"expected {what} starting with {tag!r}, got {tokens[0]!r}"
        )
    if count is not None and len(tokens) != 1 + count:
        raise ParseError(lineno, f"{what} needs {count} fields, got {len(tokens) - 1}")
    try:
        return tuple(map(int, tokens[1:]))
    except ValueError:
        for token in tokens[1:]:
            try:
                int(token)
            except ValueError:
                raise ParseError(
                    lineno, f"{what} field is not an integer: {token!r}"
                ) from None


class GraphInstance:
    """Undirected simple graph with input-ordered adjacency."""

    __slots__ = ("n", "m", "edges", "_adj")

    def __init__(self, n, edges):
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        adj = [[] for _ in range(n + 1)]
        seen = set()
        pairs = []
        # one pass in order, raising at the first bad item: a loader names its line
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"edge ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise DomainError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DomainError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            pairs.append((u, v))
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(pairs)
        self.m = len(pairs)
        self._adj = [tuple(a) for a in adj]

    def degree(self, v, meter=None):
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        if meter is not None:
            meter.access()
        return len(self._adj[v])

    def neighbors(self, v, meter=None):
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        if meter is not None:
            meter.access(len(self._adj[v]))
        return self._adj[v]

    def has_edge(self, u, v):
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise DomainError(f"edge ({u}, {v}) out of range 1..{self.n}")
        if len(self._adj[u]) > len(self._adj[v]):
            u, v = v, u
        return v in self._adj[u]

    def max_degree(self):
        return max((len(a) for a in self._adj[1:]), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, GraphInstance)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"GraphInstance(n={self.n}, m={self.m})"


class DigraphInstance:
    """Directed graph: no self-loops, no repeated arcs, 2-cycles allowed."""

    __slots__ = ("n", "m", "arcs", "_out", "_in", "_arc_set")

    def __init__(self, n, arcs):
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        out = [[] for _ in range(n + 1)]
        into = [[] for _ in range(n + 1)]
        seen = set()
        pairs = []
        # one pass in order, raising at the first bad item: a loader names its line
        for u, v in arcs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"arc ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise DomainError(f"self-loop at {u}")
            if (u, v) in seen:
                raise DomainError(f"duplicate arc ({u}, {v})")
            seen.add((u, v))
            pairs.append((u, v))
            out[u].append(v)
            into[v].append(u)
        self.n = n
        self.arcs = tuple(pairs)
        self.m = len(pairs)
        self._out = [tuple(a) for a in out]
        self._in = [tuple(a) for a in into]
        self._arc_set = seen

    def out_degree(self, v):
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        return len(self._out[v])

    def out_neighbors(self, v, meter=None):
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        if meter is not None:
            meter.access(len(self._out[v]))
        return self._out[v]

    def in_neighbors(self, v, meter=None):
        if not 1 <= v <= self.n:
            raise DomainError(f"vertex {v} out of range 1..{self.n}")
        if meter is not None:
            meter.access(len(self._in[v]))
        return self._in[v]

    def has_arc(self, u, v):
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise DomainError(f"arc ({u}, {v}) out of range 1..{self.n}")
        return (u, v) in self._arc_set

    def underlying_edges(self):
        """Undirected edge list: arc order, 2-cycles collapsed to one edge."""
        seen = set()
        edges = []
        for u, v in self.arcs:
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                seen.add(key)
                edges.append((u, v))
        return tuple(edges)

    def __eq__(self, other):
        return (
            isinstance(other, DigraphInstance)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"DigraphInstance(n={self.n}, m={self.m})"


class SetFamilyInstance:
    """Ordered family of small subsets of a ground set 1..n.

    ``d`` is the declared maximum set size; every set has 1..d distinct
    elements.  The multiplicity index maps each element to the 1-based
    indices of the sets containing it, in input order.
    """

    __slots__ = ("n", "m", "d", "sets", "_containing")

    def __init__(self, n, d, sets):
        if n < 0:
            raise DomainError(f"ground-set size must be nonnegative, got {n}")
        if d < 1:
            raise DomainError(f"set-size bound must be positive, got {d}")
        containing = [[] for _ in range(n + 1)]
        stored = []
        # one pass in order, raising at the first bad item: a loader names its line
        for idx, elements in enumerate(sets, start=1):
            elements = tuple(elements)
            if not elements:
                raise DomainError(f"set {idx} is empty")
            if len(elements) > d:
                raise DomainError(f"set {idx} has {len(elements)} elements, bound is {d}")
            if len(set(elements)) != len(elements):
                raise DomainError(f"set {idx} repeats an element")
            for e in elements:
                if not 1 <= e <= n:
                    raise DomainError(f"element {e} out of range 1..{n}")
                containing[e].append(idx)
            stored.append(elements)
        self.n = n
        self.d = d
        self.sets = tuple(stored)
        self.m = len(stored)
        self._containing = [tuple(c) for c in containing]

    def set_elements(self, j, meter=None):
        if not 1 <= j <= self.m:
            raise DomainError(f"set index {j} out of range 1..{self.m}")
        if meter is not None:
            meter.access(len(self.sets[j - 1]))
        return self.sets[j - 1]

    def sets_containing(self, e, meter=None):
        if not 1 <= e <= self.n:
            raise DomainError(f"element {e} out of range 1..{self.n}")
        if meter is not None:
            meter.access(len(self._containing[e]))
        return self._containing[e]

    def ith_set_of(self, e, i, meter=None):
        """Index of the i-th set (1-based, input order) containing e, or None."""
        if not 1 <= e <= self.n:
            raise DomainError(f"element {e} out of range 1..{self.n}")
        if i < 1:
            raise DomainError(f"set rank must be positive, got {i}")
        if meter is not None:
            meter.access()
        c = self._containing[e]
        return c[i - 1] if i <= len(c) else None

    def max_multiplicity(self):
        return max((len(c) for c in self._containing[1:]), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, SetFamilyInstance)
            and self.n == other.n
            and self.d == other.d
            and self.sets == other.sets
        )

    def __hash__(self):
        return hash((self.n, self.d, self.sets))

    def __repr__(self):
        return f"SetFamilyInstance(n={self.n}, m={self.m}, d={self.d})"


def _header(stream, tag, fields, kind):
    """The header's integers, after a one-item list holding its line
    number: the cell :func:`_body` keeps at the line being read."""
    try:
        lineno, tokens = next(stream)
    except StopIteration:
        raise ParseError(1, f"empty input, expected {kind} header") from None
    values = _fields(lineno, tokens, tag, fields, f"{kind} header")
    # the line count is the one header field no constructor sees
    if values[1] < 0:
        raise ParseError(lineno, f"negative line count {values[1]} in {kind} header")
    return [lineno], values


def _body(stream, where, m, tag, what, arity=None):
    """Yield the integers of each of the ``m`` body lines, first storing
    the line's number in ``where[0]``."""
    lineno, count = where[0], 0
    for lineno, tokens in stream:
        where[0] = lineno
        if count == m:
            raise ParseError(lineno, f"extra {what} line beyond declared {m}")
        count += 1
        yield _fields(lineno, tokens, tag, arity, f"{what} line")
    if count < m:
        raise ParseError(lineno + 1, f"expected {m} {what} lines, found {count}")


def load_graph(text):
    stream = _tokenize(text)
    where, (n, m) = _header(stream, "p", 2, "graph")
    try:
        return GraphInstance(n, _body(stream, where, m, "e", "edge", 2))
    except DomainError as exc:
        raise ParseError(where[0], str(exc)) from None


def load_digraph(text):
    stream = _tokenize(text)
    where, (n, m) = _header(stream, "q", 2, "digraph")
    try:
        return DigraphInstance(n, _body(stream, where, m, "a", "arc", 2))
    except DomainError as exc:
        raise ParseError(where[0], str(exc)) from None


def load_family(text):
    stream = _tokenize(text)
    where, (n, m, d) = _header(stream, "h", 3, "family")
    try:
        return SetFamilyInstance(n, d, _body(stream, where, m, "s", "set"))
    except DomainError as exc:
        raise ParseError(where[0], str(exc)) from None


def serialize_graph(g):
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def serialize_digraph(g):
    lines = [f"q {g.n} {g.m}"]
    lines.extend(f"a {u} {v}" for u, v in g.arcs)
    return "\n".join(lines) + "\n"


def serialize_family(f):
    lines = [f"h {f.n} {f.m} {f.d}"]
    lines.extend("s " + " ".join(str(e) for e in s) for s in f.sets)
    return "\n".join(lines) + "\n"
