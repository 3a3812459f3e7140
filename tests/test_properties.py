"""Property tests over random instances, derandomized so every run is identical."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from busterfixer import (
    Edge,
    Multigraph,
    Position,
    all_msts,
    buster_wins,
    contract,
    enumerate_buster_moves,
    enumerate_fixer_responses,
    greedy_fixer_move,
    verify_optimal,
    verify_optimal_naive,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

# Non-integer weights only, few enough distinct values that ties are common.
FRACTIONAL = st.sampled_from([Fraction(k, d) for d in (2, 3) for k in range(1, 3 * d) if k % d])


@st.composite
def instances(draw, max_vertices: int, max_total_edges: int) -> Position:
    """A connected graph (random spanning tree plus extras) and a reserve, all fractional.

    The reserve size is drawn before the extra graph edges, so instances
    with reserve edges to spend are common.
    """
    n = draw(st.integers(2, max_vertices))
    vertex = st.integers(0, n - 1)
    reserve_size = draw(st.integers(0, max_total_edges - (n - 1)))
    reserve = draw(st.lists(st.tuples(vertex, vertex, FRACTIONAL), min_size=reserve_size, max_size=reserve_size))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=max_total_edges - len(pairs) - reserve_size))
    graph = tuple(Edge(f"g{i}", u, v, draw(FRACTIONAL)) for i, (u, v) in enumerate(pairs))
    return Position(
        graph=Multigraph(n, graph),
        reserve=Multigraph(n, tuple(Edge(f"r{i}", u, v, w) for i, (u, v, w) in enumerate(reserve))),
    )


@PROPERTY
@given(instances(max_vertices=4, max_total_edges=5))
def test_verify_optimal_agrees_with_naive_oracle(p):
    for busted in enumerate_buster_moves(p):
        if buster_wins(p, busted):
            continue
        for candidate in enumerate_fixer_responses(p, busted, bridge_only=False):
            assert verify_optimal(p, busted, candidate) == verify_optimal_naive(p, busted, candidate)


@PROPERTY
@given(instances(max_vertices=5, max_total_edges=8))
def test_greedy_fixer_move_is_a_minimum_spanning_tree(p):
    for busted in enumerate_buster_moves(p):
        if buster_wins(p, busted):
            continue
        m = contract(p.graph.without(busted), p.reserve.edges)
        assert greedy_fixer_move(p, busted) in {t.edge_ids for t in all_msts(m)}
