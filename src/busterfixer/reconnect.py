"""Spanning-tree machinery on contracted multigraphs and the greedy fix.

The greedy Fixer response to a bust is a cheapest reserve subset that
reconnects the graph, which is exactly a minimum spanning tree of the
contracted component multigraph. This module finds that tree with Kruskal's
algorithm on a union-find of the busted graph, grows it with Prim's
algorithm on the contracted multigraph as an oracle, enumerates *all*
minimum spanning trees by brute force (a second, independent oracle), and
certifies whether an arbitrary spanning tree could have been produced by
some run of Prim's algorithm.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING

from .errors import (
    BusterWinsError,
    CapExceededError,
    DisconnectedError,
    NotSpanningTreeError,
)
from .graph import DEFAULT_CAPS, Caps, Edge, Multigraph, _UnionFind
from .graph import contract  # noqa: F401  unused here, kept because perfbench's binding self-test reads it

if TYPE_CHECKING:
    from .engine import Position

__all__ = ["SpanningTree", "all_msts", "all_spanning_trees", "greedy_fixer_move", "prim_mst", "prim_reachable"]


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a contracted graph, as a set of its edge ids."""

    edge_ids: frozenset[str]
    total_weight: Fraction


@dataclass(frozen=True)
class PrimTrace:
    """A witness that a tree is Prim-constructible: the order edges joined.

    Each listed edge, at its turn, joins the grown tree to a new vertex and
    is among the cheapest edges doing so.
    """

    start_vertex: int
    addition_order: tuple[str, ...]


def prim_mst(m: Multigraph) -> SpanningTree:
    """Grow a minimum spanning tree of ``m`` one cheapest crossing edge at a time.

    The tree starts at component 0, and ties between equally cheap crossing
    edges go to the lexicographically smallest edge id, which makes the
    result a deterministic function of ``m``. Loops are never candidates.

    Raises ``DisconnectedError`` when ``m`` has no spanning tree.

    Examples
    --------
    >>> from busterfixer.graph import Edge, Multigraph, contract
    >>> base = Multigraph(3, (Edge("e3", 2, 0, Fraction(1)),))
    >>> m = contract(base, [Edge("e4", 0, 1, Fraction(1)), Edge("e5", 1, 2, Fraction(2))])
    >>> tree = prim_mst(m)
    >>> sorted(tree.edge_ids), tree.total_weight
    (['e4'], Fraction(1, 1))
    """
    in_tree = {0}
    chosen: list[Edge] = []
    while len(in_tree) < m.vertex_count:
        crossing = [e for e in m.edges if (e.u in in_tree) != (e.v in in_tree)]
        if not crossing:
            raise DisconnectedError("contracted multigraph has no spanning tree")
        best = min(crossing, key=lambda e: (e.weight, e.id))
        chosen.append(best)
        in_tree.add(best.v if best.u in in_tree else best.u)
    return SpanningTree(
        edge_ids=frozenset(e.id for e in chosen),
        total_weight=sum((e.weight for e in chosen), Fraction(0)),
    )


def _is_spanning_tree(m: Multigraph, edges: tuple[Edge, ...]) -> bool:
    if len(edges) != m.vertex_count - 1:
        return False
    uf = _UnionFind(m.vertex_count)
    for e in edges:
        if not uf.union(e.u, e.v):
            return False
    return True


def all_spanning_trees(m: Multigraph, caps: Caps = DEFAULT_CAPS) -> tuple[SpanningTree, ...]:
    """Every spanning tree of ``m``, minimum or not, by exhaustive search.

    Tries all ``c - 1`` sized subsets of the non-loop edges; feasible
    because instances are tiny. Output is sorted by (weight, edge ids) so
    runs are reproducible.

    Raises ``CapExceededError``, before enumerating anything, when there
    are more than ``caps.max_subsets`` such subsets, and
    ``DisconnectedError`` when there are no spanning trees.
    """
    non_loops = tuple(e for e in m.edges if not e.is_loop)
    candidates = comb(len(non_loops), m.vertex_count - 1)
    if candidates > caps.max_subsets:
        raise CapExceededError(
            f"{candidates} spanning-tree candidate subsets exceeds cap {caps.max_subsets}"
        )
    trees = []
    for subset in combinations(non_loops, m.vertex_count - 1):
        if _is_spanning_tree(m, subset):
            trees.append(
                SpanningTree(
                    edge_ids=frozenset(e.id for e in subset),
                    total_weight=sum((e.weight for e in subset), Fraction(0)),
                )
            )
    if not trees:
        raise DisconnectedError("contracted multigraph has no spanning tree")
    trees.sort(key=lambda t: (t.total_weight, tuple(sorted(t.edge_ids))))
    return tuple(trees)


def all_msts(m: Multigraph, caps: Caps = DEFAULT_CAPS) -> tuple[SpanningTree, ...]:
    """Exactly the minimum-weight spanning trees of ``m``.

    Computed by enumerating all spanning trees and filtering to minimum
    weight; this is the oracle the Prim implementation is tested against.

    Examples
    --------
    >>> from busterfixer.graph import Edge, Multigraph, contract
    >>> base = Multigraph(2, ())
    >>> m = contract(base, [Edge("a", 0, 1, Fraction(1)), Edge("b", 0, 1, Fraction(1))])
    >>> [sorted(t.edge_ids) for t in all_msts(m)]
    [['a'], ['b']]
    """
    trees = all_spanning_trees(m, caps)
    best = trees[0].total_weight
    return tuple(t for t in trees if t.total_weight == best)


def prim_reachable(m: Multigraph, t: SpanningTree, caps: Caps = DEFAULT_CAPS) -> PrimTrace | None:
    """Search for an order in which Prim's algorithm could have built ``t``.

    Tries every start vertex and explores greedy-feasible addition orders,
    memoizing on the set of vertices already in the tree; returns a witness
    trace, or None when no run of Prim's algorithm can produce ``t``.

    Raises ``NotSpanningTreeError`` if ``t`` is not a spanning tree of ``m``,
    and ``CapExceededError`` when the ``2**c`` component sets the memo
    ranges over exceed ``caps.max_subsets``.
    """
    if 1 << m.vertex_count > caps.max_subsets:
        raise CapExceededError(
            f"2^{m.vertex_count} component sets exceeds the ordering-search cap {caps.max_subsets}"
        )
    try:
        tree_edges = tuple(m.edge(i) for i in sorted(t.edge_ids))
    except KeyError as exc:
        raise NotSpanningTreeError(f"edge {exc.args[0]} not in contracted graph") from exc
    if not _is_spanning_tree(m, tree_edges):
        raise NotSpanningTreeError("edge set is not a spanning tree of the graph")

    if m.vertex_count == 1:
        return PrimTrace(start_vertex=0, addition_order=())

    non_loops = tuple(e for e in m.edges if not e.is_loop)
    failed: set[frozenset[int]] = set()

    def extend(in_tree: frozenset[int], order: tuple[str, ...]) -> tuple[str, ...] | None:
        if len(in_tree) == m.vertex_count:
            return order
        if in_tree in failed:
            return None
        crossing_weights = [
            e.weight for e in non_loops if (e.u in in_tree) != (e.v in in_tree)
        ]
        cheapest = min(crossing_weights)
        for e in tree_edges:
            if (e.u in in_tree) == (e.v in in_tree):
                continue
            if e.weight != cheapest:
                continue
            joined = e.v if e.u in in_tree else e.u
            result = extend(in_tree | {joined}, order + (e.id,))
            if result is not None:
                return result
        failed.add(in_tree)
        return None

    for start in range(m.vertex_count):
        order = extend(frozenset({start}), ())
        if order is not None:
            return PrimTrace(start_vertex=start, addition_order=order)
    return None


def greedy_fixer_move(position: "Position", busted: frozenset[str]) -> frozenset[str]:
    """The greedy response: reserve ids of a cheapest reconnecting subset.

    Returns the empty set when the busted graph is still connected;
    otherwise returns the reserve ids of the deterministic minimum spanning
    tree of the contracted component multigraph. The result F always
    satisfies: busted graph plus F is connected, F has minimum weight among
    all connecting reserve subsets, and |F| is one less than the number of
    components.

    This is Kruskal's tree: the kept graph edges are unioned, then each
    reserve edge in ``(weight, id)`` order is kept if it joins two parts.
    Ids are unique, so the order is strict and its minimum spanning tree is
    unique: the tree is :func:`prim_mst` of the contracted multigraph.

    Raises ``BusterWinsError`` when even the full reserve cannot reconnect
    (callers record the empty response by convention), and
    ``IllegalMoveError`` for an illegal bust (see
    :meth:`~busterfixer.engine.Position.check_bust`).

    Examples
    --------
    >>> from busterfixer.engine import Position
    >>> graph = Multigraph(3, (Edge("g", 1, 2, Fraction(1)),))
    >>> reserve = Multigraph(3, (Edge("a", 1, 2, Fraction(1)), Edge("b", 0, 2, Fraction(1)),
    ...                          Edge("c", 0, 1, Fraction(1))))
    >>> sorted(greedy_fixer_move(Position(graph, reserve), frozenset({"g"})))
    ['a', 'b']
    """
    position.check_bust(busted)
    uf = _UnionFind(position.graph.vertex_count)
    joined = sum(uf.union(e.u, e.v) for e in position.graph.edges if e.id not in busted)
    # sorted is stable over the reserve's id order, so this is the (weight, id) order
    chosen = frozenset(e.id for e in sorted(position.reserve.edges, key=lambda e: e.weight) if uf.union(e.u, e.v))
    if joined + len(chosen) < position.graph.vertex_count - 1:
        raise BusterWinsError("reserve cannot reconnect the busted graph")
    return chosen
