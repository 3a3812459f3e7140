"""Property tests over random instances, derandomized so every run is identical."""

import string
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from busterfixer import (
    QUIT,
    Edge,
    Multigraph,
    Position,
    ScenarioFile,
    all_msts,
    buster_wins,
    contract,
    enumerate_buster_moves,
    enumerate_fixer_responses,
    greedy_fixer,
    greedy_fixer_move,
    parse_scenario,
    parse_transcript,
    play_series,
    random_buster,
    render_scenario,
    render_transcript,
    replay_transcript,
    verify_optimal,
    verify_optimal_naive,
)
from busterfixer.scenario import EdgeDeclaration

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
        for candidate in enumerate_fixer_responses(p, busted):
            assert verify_optimal(p, busted, candidate) == verify_optimal_naive(p, busted, candidate)


@PROPERTY
@given(instances(max_vertices=5, max_total_edges=8))
def test_greedy_fixer_move_is_a_minimum_spanning_tree(p):
    for busted in enumerate_buster_moves(p):
        if buster_wins(p, busted):
            continue
        m = contract(p.graph.without(busted), p.reserve.edges)
        assert greedy_fixer_move(p, busted) in {t.edge_ids for t in all_msts(m)}


# Scenario names and edge ids: printable non-space ASCII without the
# characters transcripts reserve, and never the script keyword ``quit``.
NAME = st.text("".join(c for c in string.printable if not c.isspace() and c not in ",{}|#"), min_size=1, max_size=4)
ID = NAME.filter(lambda text: text != "quit")
DECIMAL = st.builds(lambda k, places: Fraction(k, 10**places), st.integers(0, 999), st.integers(0, 3))


@st.composite
def scenarios(draw) -> ScenarioFile:
    """A valid scenario: a connected G pool, a reserve, and a script that may quit."""
    names = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    endpoints = st.tuples(st.sampled_from(names), st.sampled_from(names))
    graph = [(draw(st.sampled_from(names[:v])), names[v]) for v in range(1, len(names))]
    graph += draw(st.lists(endpoints, max_size=4))
    reserve = draw(st.lists(endpoints, max_size=4))
    pooled = [(u, v, "G") for u, v in graph] + [(u, v, "R") for u, v in reserve]
    ids = draw(st.lists(ID, min_size=len(pooled), max_size=len(pooled), unique=True))
    edges = [EdgeDeclaration(i, u, v, draw(DECIMAL), pool) for i, (u, v, pool) in zip(ids, pooled)]
    edges = draw(st.permutations(edges))
    move = st.frozensets(st.sampled_from(ids), min_size=1) if ids else st.nothing()
    script = draw(st.lists(st.one_of(st.just(QUIT), move), max_size=4))
    return ScenarioFile("scenario", tuple(names), tuple(edges), tuple(script))


@PROPERTY
@given(scenarios())
def test_scenario_render_parse_round_trip(s):
    assert parse_scenario(render_scenario(s)) == s


@st.composite
def relabelled(draw, positions) -> Position:
    """A drawn position with its edge ids replaced by drawn scenario ids."""
    p = draw(positions)
    ids = iter(draw(st.lists(ID, min_size=p.total_edges, max_size=p.total_edges, unique=True)))

    def rename(g: Multigraph) -> Multigraph:
        return Multigraph(g.vertex_count, tuple(Edge(next(ids), e.u, e.v, e.weight) for e in g.edges))

    return Position(graph=rename(p.graph), reserve=rename(p.reserve))


@PROPERTY
@given(relabelled(instances(max_vertices=4, max_total_edges=8)), st.integers(0, 10**6))
def test_transcript_render_parse_replay_round_trip(p, seed):
    t = render_transcript(play_series(p, random_buster(seed), greedy_fixer()))
    assert render_transcript(replay_transcript(p, parse_transcript(t))) == t
