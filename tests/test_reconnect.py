import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from busterfixer import (
    BusterWinsError,
    DisconnectedError,
    Edge,
    IllegalMoveError,
    Multigraph,
    NotSpanningTreeError,
    Position,
    SpanningTree,
    all_msts,
    all_spanning_trees,
    buster_wins,
    contract,
    enumerate_buster_moves,
    enumerate_fixer_responses,
    generate_instances,
    greedy_fixer_move,
    prim_mst,
    prim_reachable,
)

from conftest import triangle_position


def _contracted(c, quads):
    """Contracted graph on c components straight from edge triples."""
    base = Multigraph(c, ())
    return contract(base, [Edge(i, u, v, Fraction(w)) for i, u, v, w in quads])


def test_prim_two_components_picks_cheaper():
    m = _contracted(2, [("e4", 0, 1, 1), ("e5", 0, 1, 2)])
    tree = prim_mst(m)
    assert tree.edge_ids == {"e4"}
    assert tree.total_weight == 1


def test_prim_single_component_empty_tree():
    base = triangle_position().graph
    m = contract(base, triangle_position().reserve.edges[::-1])
    assert isinstance(m, Multigraph) and m.vertex_count == 1
    assert [e.id for e in m.edges] == ["e4", "e5"] and all(e.is_loop for e in m.edges)
    tree = prim_mst(m)
    assert tree.edge_ids == frozenset()
    assert tree.total_weight == 0


def test_prim_star_avoids_expensive_edge():
    m = _contracted(3, [("a", 0, 1, 1), ("b", 1, 2, 1), ("c", 0, 2, 5)])
    tree = prim_mst(m)
    assert tree.total_weight == 2
    assert tree in all_msts(m)


def test_prim_disconnected_raises():
    m = _contracted(3, [("a", 0, 1, 1)])
    with pytest.raises(DisconnectedError):
        prim_mst(m)


def test_prim_skips_loops():
    m = _contracted(2, [("l", 0, 0, 0), ("a", 0, 1, 3)])
    assert prim_mst(m).edge_ids == {"a"}


def test_prim_deterministic_tie_break_smallest_id():
    m = _contracted(2, [("b", 0, 1, 1), ("a", 0, 1, 1)])
    assert prim_mst(m).edge_ids == {"a"}


def test_all_msts_unique():
    m = _contracted(2, [("e4", 0, 1, 1), ("e5", 0, 1, 2)])
    assert [t.edge_ids for t in all_msts(m)] == [frozenset({"e4"})]


def test_all_msts_parallel_tie():
    m = _contracted(2, [("a", 0, 1, 1), ("b", 0, 1, 1)])
    assert [t.edge_ids for t in all_msts(m)] == [frozenset({"a"}), frozenset({"b"})]


def test_all_msts_triangle_tie():
    m = _contracted(3, [("a", 0, 1, 1), ("b", 1, 2, 1), ("c", 0, 2, 2)])
    assert len(all_spanning_trees(m)) == 3
    trees = all_msts(m)
    assert {t.edge_ids for t in trees} == {frozenset({"a", "b"})}
    m = _contracted(3, [("a", 0, 1, 1), ("b", 1, 2, 1), ("c", 0, 2, 1)])
    assert len(all_msts(m)) == 3


def test_all_msts_triangle_112_two_minimum():
    m = _contracted(3, [("a", 0, 1, 1), ("b", 1, 2, 1), ("c", 0, 2, 2)])
    # raise c to weight 2: trees {a,b}=2, {a,c}=3, {b,c}=3
    assert [t.total_weight for t in all_spanning_trees(m)] == [2, 3, 3]


def _random_contracted(rng, max_c=4, max_edges=6):
    c = rng.randrange(1, max_c + 1)
    edges = []
    for i in range(rng.randrange(0, max_edges + 1)):
        edges.append((f"e{i}", rng.randrange(c), rng.randrange(c), rng.randrange(1, 4)))
    return _contracted(c, edges)


def test_prim_result_is_minimum_randomized():
    rng = random.Random(3)
    checked = 0
    while checked < 250:
        m = _random_contracted(rng)
        try:
            trees = all_msts(m)
        except DisconnectedError:
            continue
        checked += 1
        assert prim_mst(m) in trees


def test_prim_reachable_every_mst_has_trace():
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        m = _random_contracted(rng)
        try:
            trees = all_msts(m)
        except DisconnectedError:
            continue
        checked += 1
        for t in trees:
            trace = prim_reachable(m, t)
            assert trace is not None
            _assert_trace_valid(m, t, trace)


def _assert_trace_valid(m, t, trace):
    by_id = {e.id: e for e in m.edges}
    in_tree = {trace.start_vertex}
    assert set(trace.addition_order) == set(t.edge_ids)
    for edge_id in trace.addition_order:
        e = by_id[edge_id]
        assert (e.u in in_tree) != (e.v in in_tree)
        crossing = [
            f.weight for f in m.edges if not f.is_loop and (f.u in in_tree) != (f.v in in_tree)
        ]
        assert e.weight == min(crossing)
        in_tree.add(e.v if e.u in in_tree else e.u)
    assert in_tree == set(range(m.vertex_count))


def test_prim_reachable_forced_single_edge():
    m = _contracted(2, [("a", 0, 1, 7)])
    t = all_msts(m)[0]
    trace = prim_reachable(m, t)
    assert trace.addition_order == ("a",)


def test_prim_reachable_rejects_non_minimum_tree():
    m = _contracted(3, [("a", 0, 1, 1), ("b", 1, 2, 1), ("c", 0, 2, 2)])
    heavy = SpanningTree(edge_ids=frozenset({"a", "c"}), total_weight=Fraction(3))
    assert prim_reachable(m, heavy) is None


def test_prim_reachable_rejects_non_tree():
    m = _contracted(3, [("a", 0, 1, 1), ("b", 1, 2, 1), ("c", 0, 2, 2)])
    with pytest.raises(NotSpanningTreeError):
        prim_reachable(m, SpanningTree(edge_ids=frozenset({"a"}), total_weight=Fraction(1)))
    with pytest.raises(NotSpanningTreeError, match="^edge zz not in contracted graph$"):
        prim_reachable(m, SpanningTree(edge_ids=frozenset({"zz", "a"}), total_weight=Fraction(1)))


def test_prim_reachable_exactly_the_msts_small_exhaustive():
    # every spanning tree is Prim-reachable iff it is minimum, over an
    # exhaustive family of contracted graphs with 3 components
    for weights in combinations_with_replacement((1, 2, 3), 3):
        for ends in [((0, 1), (1, 2), (0, 2)), ((0, 1), (0, 1), (1, 2))]:
            quads = [(f"e{i}", u, v, w) for i, ((u, v), w) in enumerate(zip(ends, weights))]
            m = _contracted(3, quads)
            try:
                minimum = {t.edge_ids for t in all_msts(m)}
            except DisconnectedError:
                continue
            for t in all_spanning_trees(m):
                reachable = prim_reachable(m, t) is not None
                assert reachable == (t.edge_ids in minimum)


def test_greedy_move_worked_example(triangle):
    assert greedy_fixer_move(triangle, frozenset({"e1", "e2"})) == {"e4"}


def test_greedy_move_is_prim_of_the_contracted_graph_on_the_default_corpus():
    # every move of the (3, 5) corpus: Kruskal's greedy equals the Prim oracle, and raises where Buster wins
    checked = 0
    for p in generate_instances(3, 5, (0, 1, 2)):
        for busted in enumerate_buster_moves(p):
            if buster_wins(p, busted):
                with pytest.raises(BusterWinsError):
                    greedy_fixer_move(p, busted)
                continue
            checked += 1
            assert greedy_fixer_move(p, busted) == prim_mst(contract(p.graph.without(busted), p.reserve.edges)).edge_ids
    assert checked == 32285


def test_greedy_move_ties_go_to_the_smallest_id_away_from_component_zero():
    # busting p01 and p23 leaves {0}, {1, 2} and {3}; every reserve edge weighs 1 but the loop l, which weighs 0
    graph = Multigraph(4, tuple(Edge(f"p{u}{v}", u, v, Fraction(1)) for u, v in ((0, 1), (1, 2), (2, 3))))
    reserve = Multigraph(4, (
        Edge("a", 2, 3, Fraction(1)),  # joins {1, 2} and {3}, away from component 0
        Edge("b", 1, 3, Fraction(1)),  # parallel to a in the contracted graph
        Edge("c", 0, 3, Fraction(1)),
        Edge("d", 0, 1, Fraction(1)),
        Edge("e", 0, 1, Fraction(1)),  # identical to d but for its id
        Edge("l", 3, 3, Fraction(0)),
    ))
    p = Position(graph=graph, reserve=reserve)
    busted = frozenset({"p01", "p23"})
    m = contract(graph.without(busted), reserve.edges)
    assert len(all_msts(m)) == 8
    assert greedy_fixer_move(p, busted) == prim_mst(m).edge_ids == {"a", "c"}
    # the identical pair: whichever of d and e comes first in id order is taken, whatever the input order
    twins = Multigraph(4, (Edge("e", 0, 1, Fraction(1)), Edge("d", 0, 1, Fraction(1)), Edge("a", 1, 3, Fraction(1))))
    assert greedy_fixer_move(Position(graph=graph, reserve=twins), busted) == {"a", "d"}


def test_greedy_move_second_round():
    from busterfixer import apply_round

    p = apply_round(triangle_position(), frozenset({"e1", "e2"}), frozenset({"e4"}))
    assert greedy_fixer_move(p, frozenset({"e3"})) == {"e5"}


def test_greedy_move_connected_empty(triangle):
    assert greedy_fixer_move(triangle, frozenset({"e1"})) == frozenset()


def test_greedy_move_buster_wins():
    from busterfixer import apply_round

    p = apply_round(triangle_position(), frozenset({"e1", "e2"}), frozenset({"e4"}))
    with pytest.raises(BusterWinsError):
        greedy_fixer_move(p, frozenset({"e3", "e4"}))


def test_greedy_move_illegal_busts(triangle):
    with pytest.raises(IllegalMoveError):
        greedy_fixer_move(triangle, frozenset())
    with pytest.raises(IllegalMoveError):
        greedy_fixer_move(triangle, frozenset({"e4"}))


def test_greedy_move_properties_random():
    from busterfixer import buster_wins, components, enumerate_buster_moves, is_connected

    from conftest import random_instance

    rng = random.Random(17)
    for _ in range(60):
        p = random_instance(rng, max_vertices=4, max_total_edges=7)
        if not is_connected(p.graph) or len(p.graph) > 6:
            continue
        for busted in enumerate_buster_moves(p):
            if buster_wins(p, busted):
                continue
            move = greedy_fixer_move(p, busted)
            remaining = p.graph.without(busted)
            # empty iff still connected; size is components-1 otherwise
            assert (move == frozenset()) == is_connected(remaining)
            labels = components(remaining)
            assert len(move) == max(labels)
            # minimum weight among all reconnecting subsets (oracle)
            responses = enumerate_fixer_responses(p, busted)
            minimum = min(p.reserve.weight(f) for f in responses)
            assert p.reserve.weight(move) == minimum


def test_prim_reachable_component_cap():
    from busterfixer import CapExceededError, Caps

    chain = [(f"e{i}", i, i + 1, 1) for i in range(12)]
    m = _contracted(13, chain)
    t = all_msts(m)[0]
    with pytest.raises(CapExceededError):
        prim_reachable(m, t)  # 2^13 component sets > the default 4096
    assert prim_reachable(m, t, Caps(max_subsets=1 << 13)) is not None
