"""Spanning-tree machinery on contracted multigraphs and the greedy fix.

The greedy Fixer response to a bust is a cheapest reserve subset that
reconnects the graph, which is exactly a minimum spanning tree of the
contracted component multigraph. This module finds that tree with Kruskal's
algorithm on a union-find of the busted graph, enumerates *all* minimum
spanning trees by brute force (an independent oracle), and runs Prim's
algorithm on the contracted multigraph once, in one loop with ties broken
toward a preferred edge set: with none preferred it grows the oracle tree
:func:`prim_mst`, and toward a given tree its order of edges is the
certificate that Prim's algorithm can build that tree, :func:`prim_reachable`.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import TYPE_CHECKING, Iterable, Sequence

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


@dataclass(frozen=True, slots=True)
class SpanningTree:
    """A spanning tree of a contracted graph, as a set of its edge ids."""

    edge_ids: frozenset[str]
    total_weight: Fraction


def _tree(edges: Sequence[Edge]) -> SpanningTree:
    return SpanningTree(frozenset(e.id for e in edges), sum((e.weight for e in edges), Fraction(0)))


def _prim(m: Multigraph, preferred: frozenset[str]) -> list[Edge]:
    """Prim's algorithm from component 0: the edges in the order they join the tree.

    Each step takes a cheapest crossing edge, one in ``preferred`` first, then
    the smallest id. Raises ``DisconnectedError`` when no edge crosses.
    """
    in_tree = {0}
    chosen: list[Edge] = []
    while len(in_tree) < m.vertex_count:
        crossing = [e for e in m.edges if (e.u in in_tree) != (e.v in in_tree)]
        if not crossing:
            raise DisconnectedError("contracted multigraph has no spanning tree")
        best = min(crossing, key=lambda e: (e.weight, e.id not in preferred, e.id))
        chosen.append(best)
        in_tree.add(best.v if best.u in in_tree else best.u)
    return chosen


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
    return _tree(_prim(m, frozenset()))


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
    trees = [_tree(edges) for edges in combinations(non_loops, m.vertex_count - 1) if _is_spanning_tree(m, edges)]
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


def prim_reachable(m: Multigraph, t: SpanningTree) -> tuple[str, ...] | None:
    """The ids of ``t`` in an order Prim's algorithm adds them, or None when no run of it can.

    The order is the certificate: it starts from component 0, and each edge at
    its turn is a cheapest edge joining the grown tree to a new component. One
    run decides it: Prim's algorithm from component 0, ties broken toward
    ``t``. When ``t`` is a minimum spanning tree, every cut of the grown tree
    has a cheapest crossing edge in ``t`` (a cheaper one outside ``t`` would
    close a cycle with a heavier ``t`` edge across the cut), so the run builds
    ``t``. When it is not, no run of Prim's algorithm builds it.

    Raises ``NotSpanningTreeError`` if ``t`` is not a spanning tree of ``m``.
    """
    try:
        tree_edges = tuple(m.edge(i) for i in sorted(t.edge_ids))
    except KeyError as exc:
        raise NotSpanningTreeError(f"edge {exc.args[0]} not in contracted graph") from exc
    if not _is_spanning_tree(m, tree_edges):
        raise NotSpanningTreeError("edge set is not a spanning tree of the graph")
    order = tuple(e.id for e in _prim(m, t.edge_ids))
    return order if t.edge_ids == set(order) else None


def greedy_fixer_move(position: "Position", busted: Iterable[str]) -> frozenset[str]:
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
    busted = frozenset(busted)
    position.check_bust(busted)
    uf = _UnionFind(position.graph.vertex_count)
    joined = sum(uf.union(e.u, e.v) for e in position.graph.edges if e.id not in busted)
    # weights times the reserve's common denominator are exact ints; sorted is stable over the id order
    scale = lcm(*(e.weight.denominator for e in position.reserve.edges))
    by_weight = sorted(position.reserve.edges, key=lambda e: e.weight.numerator * (scale // e.weight.denominator))
    chosen = frozenset(e.id for e in by_weight if uf.union(e.u, e.v))
    if joined + len(chosen) < position.graph.vertex_count - 1:
        raise BusterWinsError("reserve cannot reconnect the busted graph")
    return chosen
