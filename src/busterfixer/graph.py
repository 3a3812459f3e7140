"""Exact-weight multigraphs with component and connectivity queries.

Edges are identified by unique string ids, so removing a busted subset or
spending reserve edges stays unambiguous even when parallel edges share
endpoints and weights. Weights are ``fractions.Fraction`` values throughout:
minimum spanning trees and equal-weight tie enumeration need exact
comparisons, so binary floats never appear. Instance sizes are tiny by
design: a :class:`Multigraph` stores its id-sorted edges and their id set,
and every other query, an edge by its id included, scans those edges.

All values are immutable after construction and every operation is a pure
function, so graphs can be shared freely between threads. The size limits
of every exponential enumeration in the package live here, in :class:`Caps`.

:class:`EdgeIndex` is the bitmask form of a position that the engine and
the verifier share: edge bits, integer-scaled weights, and connectivity,
weight and id set memoized per mask for the life of the index. Memo
writes are idempotent, so walks of one position may share one index,
from several threads too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, lcm
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import CapExceededError, IllegalMoveError

__all__ = [
    "Caps", "DEFAULT_CAPS", "Edge", "Multigraph", "component_count", "components", "contract",
    "format_weight", "is_connected", "parse_decimal_weight",
]

_DECIMAL_RE = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+))?")
# no edge id holds these: transcripts write ids in {a,b} cells of |-separated rows, and # starts a comment
_RESERVED_ID_CHARACTERS = ", { } | #"  # spaced as messages list them; a space is refused as whitespace anyway
_ID_RE = re.compile(rf"[^\s{re.escape(_RESERVED_ID_CHARACTERS)}]+")


def parse_decimal_weight(text: str) -> Fraction:
    """Parse a plain decimal string into an exact nonnegative Fraction.

    Only ``digits`` or ``digits.digits`` are accepted; scientific notation
    is rejected so the value never takes a detour through binary floats.
    A syntactically valid but negative value raises ``ValueError`` with
    "negative" in the message, letting callers distinguish bad syntax from
    a bad value.
    """
    m = _DECIMAL_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a plain decimal weight: {text!r}")
    sign, whole, frac = m.groups()
    scale = 10 ** len(frac or "")
    value = Fraction(int(whole) * scale + int(frac or 0), scale)
    if sign:
        raise ValueError(f"negative weight: {text!r}")
    return value


def format_weight(value: Fraction) -> str:
    """Render a Fraction as ``3`` or ``7/2``; deterministic and exact."""
    return str(value)


def format_decimal_weight(value: Fraction) -> str:
    """Render a Fraction as the exact decimal string the scenario grammar takes.

    Only works when the denominator divides a power of ten (always true for
    values that came from :func:`parse_decimal_weight`); raises
    ``ValueError`` otherwise rather than rounding.
    """
    denominator = value.denominator
    twos = fives = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        raise ValueError(f"{value} has no exact decimal representation")
    places = max(twos, fives)
    scaled = value.numerator * 10**places // value.denominator
    if places == 0:
        return str(scaled)
    text = str(scaled).rjust(places + 1, "0")
    return f"{text[:-places]}.{text[-places:]}"


@dataclass(frozen=True, slots=True)
class Caps:
    """The one set of size limits for every exponential search and enumeration.

    Exceeding a cap raises ``CapExceededError``; nothing is ever silently
    truncated. ``max_total_edges`` bounds ``|G| + |R|`` for the game-tree
    verifier and ``naive_max_total_edges`` for the strategy-materializing
    oracle. ``max_subsets`` bounds any single enumeration: Buster moves
    (``2**|G|``), Fixer responses (``2**|R|``), spanning-tree candidates
    (``comb(non-loop edges, c - 1)``), vertex relabellings and the oracle's
    materialized strategies. The verifier checks ``2**|R|`` in one place, as
    it builds a position's arena, so every adjudicator entry point raises it
    before enumerating anything.
    """

    max_total_edges: int = 7
    naive_max_total_edges: int = 5
    max_subsets: int = 1 << 12


DEFAULT_CAPS = Caps()


def _exact(weight: int | Fraction) -> Fraction:
    """``weight`` as a ``Fraction``; any type but ``int`` or ``Fraction``, a float included, raises ``TypeError``."""
    if not isinstance(weight, (int, Fraction)):
        raise TypeError(f"weight must be an int or a Fraction, got {weight!r}")
    return Fraction(weight)


@dataclass(frozen=True, slots=True)
class Edge:
    """A weighted edge between vertex indices, identified by a unique id.

    Loops (``u == v``) are representable; they arise naturally in contracted
    graphs. The id must be a nonempty ``str`` without whitespace or any of
    ``,{}|#``, so transcripts can write it back, and the endpoints ``int``s.
    The weight must be a nonnegative ``int`` or ``Fraction``; an int is
    coerced by :func:`_exact`, which refuses any other type.
    """

    id: str
    u: int
    v: int
    weight: Fraction

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"edge {self.id!r}: id must be a str")
        if not _ID_RE.fullmatch(self.id):
            raise ValueError(f"edge id {self.id!r} is empty or holds whitespace or one of {_RESERVED_ID_CHARACTERS}")
        if not isinstance(self.weight, Fraction):
            object.__setattr__(self, "weight", _exact(self.weight))
        if self.weight.numerator < 0:  # a Fraction's denominator is always positive
            raise ValueError(f"edge {self.id}: negative weight {self.weight}")
        if not (isinstance(self.u, int) and isinstance(self.v, int)):
            raise TypeError(f"edge {self.id}: vertex indices must be ints, got {self.u!r} and {self.v!r}")
        if self.u < 0 or self.v < 0:
            raise ValueError(f"edge {self.id}: negative vertex index")

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


_ID = attrgetter("id")


@dataclass(frozen=True, slots=True)
class Multigraph:
    """A multiset of identified edges over vertices ``0..vertex_count-1``.

    Two distinct ids may share endpoints and weight (parallel edges); the
    id is the unit of membership for deletion and union. Edges are kept
    sorted by id so equal graphs compare and hash equal.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    ids: frozenset[str] = field(init=False, repr=False, compare=False)  # built once, in ``__post_init__``

    def __post_init__(self):
        if not isinstance(self.vertex_count, int):
            raise TypeError(f"vertex_count must be an int, got {self.vertex_count!r}")
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        edges = tuple(sorted(self.edges, key=_ID))
        ids = frozenset(map(_ID, edges))
        if len(ids) != len(edges):
            raise ValueError("duplicate edge ids in multigraph")
        for e in edges:
            if e.u >= self.vertex_count or e.v >= self.vertex_count:
                raise ValueError(f"edge {e.id} references vertex outside 0..{self.vertex_count - 1}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def edge(self, edge_id: str) -> Edge:
        """The edge with this id; ``KeyError`` when there is none."""
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def weight(self, ids: Iterable[str] | None = None) -> Fraction:
        """Total weight of the given ids (all edges when omitted)."""
        if ids is None:
            return sum((e.weight for e in self.edges), Fraction(0))
        return sum((self.edge(i).weight for i in ids), Fraction(0))

    def without(self, ids: Iterable[str]) -> Multigraph:
        """Multigraph minus the given edge ids; ids must all be present."""
        drop = frozenset(ids)
        missing = drop - self.ids
        if missing:
            raise IllegalMoveError(f"edges not in multigraph: {sorted(missing)}")
        return Multigraph(self.vertex_count, tuple(e for e in self.edges if e.id not in drop))

    def with_edges(self, new_edges: Iterable[Edge]) -> Multigraph:
        """Multigraph plus the given edges; ids must not collide."""
        return Multigraph(self.vertex_count, self.edges + tuple(new_edges))


class _UnionFind:
    """Plain union-find over ``range(n)``; path compression, no ranks."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def components(g: Multigraph) -> tuple[int, ...]:
    """Connected-component labels, one per vertex.

    Labels are dense (``0..c-1``) and canonical: components are numbered in
    increasing order of their minimum member vertex, so identical inputs
    always yield identical labelings.
    """
    uf = _UnionFind(g.vertex_count)
    for e in g.edges:
        uf.union(e.u, e.v)
    labels: dict[int, int] = {}
    out = []
    for v in range(g.vertex_count):
        root = uf.find(v)
        if root not in labels:
            labels[root] = len(labels)
        out.append(labels[root])
    return tuple(out)


def component_count(g: Multigraph) -> int:
    labels = components(g)
    return max(labels) + 1


def is_connected(g: Multigraph) -> bool:
    """True iff the graph has exactly one component; one vertex is connected."""
    return component_count(g) == 1


def contract(base: Multigraph, reserve: Iterable[Edge]) -> Multigraph:
    """The multigraph of components: each component of ``base`` becomes one vertex.

    Vertex ``i`` is component ``i`` of :func:`components`. Every reserve
    edge reappears with its endpoints replaced by the components that
    contain them, keeping its id and weight, so a set of contracted edge
    ids is directly a set of reserve ids. Reserve edges with both endpoints
    in one component become loops.
    """
    labels = components(base)
    return Multigraph(max(labels) + 1, tuple(Edge(e.id, labels[e.u], labels[e.v], e.weight) for e in reserve))


@cache
def _column(vertex_count: int, label: int, u: int, v: int, width: int) -> tuple[int, ...]:
    return tuple(
        1 << width * ((label * vertex_count + min(perm[u], perm[v])) * vertex_count + max(perm[u], perm[v]))
        for perm in permutations(range(vertex_count))
    )


def relabelling_sums(vertex_count: int, edges: Iterable[tuple], width: int, caps: Caps = DEFAULT_CAPS) -> list[int]:
    """The packed sum of small-int ``(label, u, v)`` edges under each vertex relabelling, in ``permutations`` order.

    An edge counts one in the ``width``-bit field of its relabelled ``(label, min endpoint, max endpoint)``, so
    while no field counts ``2**width`` edges, two multisets have equal least sums exactly when a relabelling maps
    one onto the other, and the relabellings that fix one are those whose sum is the identity's, the first. Each
    edge's values are memoized on its small ints. Raises ``CapExceededError`` past ``caps.max_subsets`` sums.

    >>> sums = relabelling_sums(3, [(0, 0, 1), (0, 1, 2)], 2)  # the path 0-1-2
    >>> sums.count(sums[0])  # the identity, and the swap of its two leaves
    2
    >>> min(sums) == min(relabelling_sums(3, [(0, 1, 0), (0, 0, 2)], 2))  # the path 1-0-2
    True
    """
    count = factorial(vertex_count)
    if count > caps.max_subsets:
        raise CapExceededError(f"{vertex_count}! relabellings exceeds cap {caps.max_subsets}")
    columns = [_column(vertex_count, label, u, v, width) for label, u, v in edges]
    return list(map(sum, zip(*columns))) if columns else [0] * count


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EdgeIndex:
    """Bitmask view of one instance's edges: a set of edges is an int.

    Bit ``i`` stands for ``edges[i]``; the graph's edges come first, then
    the reserve's, each in id order. Weights are exact integers: the edge
    weights times ``scale``, the least common multiple of their
    denominators. Connectivity always spans the full vertex set, so
    isolated vertices disconnect. Connectivity, weight and id set are
    memoized per mask for the life of the index, for every walk sharing it.
    """

    def __init__(self, graph: Multigraph, reserve: Multigraph):
        edges = graph.edges + reserve.edges
        self.n = graph.vertex_count
        self.edges = edges
        self.ids = tuple(e.id for e in edges)
        self.spans = tuple(1 << e.u | 1 << e.v for e in edges)
        self.scale = lcm(*(e.weight.denominator for e in edges))
        self.weights = tuple(e.weight.numerator * (self.scale // e.weight.denominator) for e in edges)
        self.index = {e.id: i for i, e in enumerate(edges)}
        self.graph_mask = (1 << len(graph)) - 1
        self.reserve_mask = ((1 << len(edges)) - 1) ^ self.graph_mask
        self._connected: dict[int, bool] = {}
        self._weight: dict[int, int] = {0: 0}
        self._ids: dict[int, frozenset[str]] = {self.graph_mask: graph.ids, self.reserve_mask: reserve.ids}

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for i in ids:
            mask |= 1 << self.index[i]
        return mask

    def ids_of(self, mask: int) -> frozenset[str]:
        cached = self._ids.get(mask)
        if cached is None:
            cached = self._ids[mask] = frozenset(self.ids[i] for i in _bit_indices(mask))
        return cached

    def multigraph(self, mask: int) -> Multigraph:
        """The edges of ``mask`` as a :class:`Multigraph` over the index's vertices."""
        return Multigraph(self.n, tuple(self.edges[i] for i in _bit_indices(mask)))

    def weight_of(self, mask: int) -> int:
        cached = self._weight.get(mask)
        if cached is None:
            cached = sum(self.weights[i] for i in _bit_indices(mask))
            self._weight[mask] = cached
        return cached

    def connected(self, mask: int) -> bool:
        cached = self._connected.get(mask)
        if cached is None:
            # grow vertex 0's component, a set of vertex bits, until it stops growing
            spans = [self.spans[i] for i in _bit_indices(mask)]
            reached, grown = 0, 1
            while grown != reached:
                reached = grown
                for span in spans:
                    if grown & span:
                        grown |= span
            cached = self._connected[mask] = reached == (1 << self.n) - 1
        return cached

    def unfixable(self, left: int, reserve: int) -> bool:
        """The Buster-wins test: not even all of ``reserve`` reconnects the graph mask ``left``."""
        return not self.connected(left | reserve)
