"""Property tests over random instances, derandomized so every run is identical."""

import random
import string
from dataclasses import fields, replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from busterfixer import (
    QUIT,
    Edge,
    GameError,
    IllegalMoveError,
    Multigraph,
    Position,
    ScenarioFile,
    ScenarioParseError,
    Series,
    Winner,
    all_msts,
    apply_round,
    buster_wins,
    contract,
    enumerate_buster_moves,
    enumerate_fixer_responses,
    greedy_fixer,
    greedy_fixer_move,
    is_connected,
    parse_scenario,
    parse_transcript,
    play_series,
    prim_mst,
    random_buster,
    render_scenario,
    render_transcript,
    replay_positions,
    replay_transcript,
    scripted_buster,
    scripted_fixer,
    series_totals,
    theorem_sweep,
    verify_optimal,
    verify_optimal_naive,
)
from busterfixer.scenario import EdgeDeclaration
from busterfixer.engine import _replay
from busterfixer.transcript import _COLUMNS, ParsedTranscript, TranscriptRow, transcript_rows

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
        move = greedy_fixer_move(p, busted)
        assert move in {t.edge_ids for t in all_msts(m)} and move == prim_mst(m).edge_ids


@PROPERTY
@given(instances(max_vertices=3, max_total_edges=5))
def test_theorem_sweep_tallies_equal_a_count_made_without_search(p):
    """Post-bust class sharing, on fractional weights and identical parallel edges, credits exact tallies."""
    moves = greedy_checked = responses_checked = 0
    for busted in enumerate_buster_moves(p):
        moves += 1
        if buster_wins(p, busted):
            greedy_checked += 1
            continue
        greedy = {t.edge_ids for t in all_msts(contract(p.graph.without(busted), p.reserve.edges))}
        greedy_checked += len(greedy)
        responses_checked += sum(r not in greedy for r in enumerate_fixer_responses(p, busted))
    report = theorem_sweep([p], compare_prune=True)
    assert report.ok
    assert (report.moves, report.greedy_checked, report.responses_checked) == (moves, greedy_checked, responses_checked)


@PROPERTY
@given(instances(max_vertices=3, max_total_edges=5), instances(max_vertices=3, max_total_edges=5))
def test_theorem_sweep_of_a_pair_sums_its_singles(p, q):
    """Moves of ``q`` that leave a class ``p``'s moves left are credited, not adjudicated, with exact tallies."""
    singles = [theorem_sweep([x], compare_prune=True) for x in (p, q)]
    pair = theorem_sweep([p, q], compare_prune=True)
    assert pair.ok or not all(single.ok for single in singles)
    tallies = [
        (r.instances, r.moves, r.greedy_checked, r.responses_checked, len(r.counterexamples), len(r.prune_mismatches))
        for r in (*singles, pair)
    ]
    assert tallies[2] == tuple(map(sum, zip(*tallies[:2])))


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


@PROPERTY
@given(instances(max_vertices=4, max_total_edges=6), st.integers(0, 10**6))
def test_mask_round_step_matches_multigraph_reference(p, seed):
    """The engine's bit-flip rounds against rounds rebuilt with ``Multigraph.without``/``with_edges``."""
    for busted in enumerate_buster_moves(p):
        assert buster_wins(p, busted) == (not is_connected(p.graph.without(busted).with_edges(p.reserve.edges)))
    series = play_series(p, random_buster(seed), greedy_fixer())
    positions = replay_positions(series)
    assert len(positions) == series.length + 1 and positions[0] == p
    pos = p
    for j, record in enumerate(series.rounds):
        pos = Position(
            graph=pos.graph.without(record.busted).with_edges(pos.reserve.edge(i) for i in record.fixed),
            reserve=pos.reserve.without(record.fixed),
        )
        assert positions[j + 1] == pos
        survived = series.outcome is Winner.FIXER or j < series.length - 1
        assert is_connected(pos.graph) == survived


def _reference_round(p: Position, busted: frozenset, fixed: frozenset) -> Position | None:
    """The position a round reaches, rebuilt with ``Multigraph`` operations, or None when a rule refuses it."""
    try:
        p.check_bust(busted)
    except IllegalMoveError:
        return None
    left = p.graph.without(busted)
    if not is_connected(left.with_edges(p.reserve.edges)):  # Buster wins: only the empty fix
        return None if fixed else Position(graph=left, reserve=p.reserve)
    if not fixed <= p.reserve.ids:
        return None
    graph = left.with_edges(p.reserve.edge(i) for i in fixed)
    return Position(graph=graph, reserve=p.reserve.without(fixed)) if is_connected(graph) else None


@PROPERTY
@given(instances(max_vertices=4, max_total_edges=6), st.integers(0, 10**6))
def test_apply_round_accepts_exactly_the_rounds_a_multigraph_reference_accepts(p, seed):
    # a seeded round, legal or not: the bust from the graph or from every id and an unknown
    # one, the fix from every id or from the reserve alone
    rng = random.Random(seed)
    every_id = sorted(p.graph.ids | p.reserve.ids) + ["zz"]
    busted = frozenset(i for i in rng.choice([sorted(p.graph.ids), every_id]) if rng.random() < 0.5)
    fixed = frozenset(i for i in every_id if rng.random() < 0.5) & rng.choice([p.reserve.ids, frozenset(every_id)])
    expected = _reference_round(p, busted, fixed)
    try:
        reached = apply_round(p, busted, fixed)
    except IllegalMoveError:
        reached = None
    assert reached == expected


def _reference_replay(initial: Position, parsed: ParsedTranscript) -> Series:
    """Transcript replay by scripted policies and a second walk for the rows, as it was before the shared loop."""
    series = play_series(
        initial,
        scripted_buster([row.busted for row in parsed.rows] + [QUIT]),
        scripted_fixer([row.fixed for row in parsed.rows]),
    )
    rows = transcript_rows(series, *_replay(series))
    if len(rows) != len(parsed.rows):
        raise ScenarioParseError(f"transcript has {len(parsed.rows)} rows, replay has {len(rows)}")
    for built, row in zip(rows, parsed.rows):
        mismatches = [
            column
            for column, field in zip(_COLUMNS, fields(TranscriptRow))
            if getattr(built, field.name) != getattr(row, field.name)
        ]
        if mismatches:
            raise ScenarioParseError(
                f"round {built.round_index}: transcript disagrees with replay on {', '.join(mismatches)}"
            )
    return series


def _result(replay, initial: Position, parsed: ParsedTranscript):
    try:
        return replay(initial, parsed)
    except GameError as exc:
        return type(exc), str(exc)


def _tampered(parsed: ParsedTranscript) -> list[ParsedTranscript]:
    """Copies of ``parsed`` with one defect each: a row dropped or appended, cells swapped, a bad fix or winner."""
    rows = parsed.rows
    copies = [rows[:j] + rows[j + 1:] for j in range(len(rows))]
    copies.append(())
    if rows:
        last = rows[-1]
        copies.append(rows + (replace(last, round_index=last.round_index + 1),))
        copies.append(rows[:-1] + (replace(last, winner="Fixer" if last.winner == "Buster" else "Buster"),))
    for j, row in enumerate(rows):
        copies.append(rows[:j] + (replace(row, fixed=frozenset()),) + rows[j + 1:])
        copies.append(rows[:j] + (replace(row, fixed=row.busted),) + rows[j + 1:])
        copies.append(rows[:j] + (replace(row, busted=frozenset()),) + rows[j + 1:])
        if j + 1 < len(rows):
            after = rows[j + 1]
            swapped = (
                replace(row, busted=after.busted, fixed=after.fixed),
                replace(after, busted=row.busted, fixed=row.fixed),
            )
            copies.append(rows[:j] + swapped + rows[j + 2:])
    return [replace(parsed, rows=copy) for copy in copies]


def assert_replays_like_reference(initial: Position, parsed: ParsedTranscript) -> None:
    for copy in [parsed] + _tampered(parsed):
        assert _result(replay_transcript, initial, copy) == _result(_reference_replay, initial, copy)


@PROPERTY
@given(instances(max_vertices=4, max_total_edges=7), st.integers(0, 10**6))
def test_replay_transcript_matches_the_scripted_reference(p, seed):
    """Equal series, or the same exception type and message, on rendered transcripts and tampered copies."""
    parsed = parse_transcript(render_transcript(play_series(p, random_buster(seed), greedy_fixer())))
    assert_replays_like_reference(p, parsed)
    disconnected = Position(graph=Multigraph(p.graph.vertex_count, ()), reserve=p.graph)
    assert_replays_like_reference(disconnected, parsed)


def test_replay_transcript_matches_the_scripted_reference_on_an_emptied_graph():
    # one vertex: busting both loops empties a connected graph, which forces a Fixer win
    loops = tuple(Edge(i, 0, 0, Fraction(1)) for i in ("a", "b"))
    p = Position(graph=Multigraph(1, loops), reserve=Multigraph(1, (Edge("r", 0, 0, Fraction(1, 2)),)))
    series = play_series(p, scripted_buster([{"a"}, {"b"}]), greedy_fixer())
    assert series.outcome is Winner.FIXER and len(series.rounds) == 2
    assert_replays_like_reference(p, parse_transcript(render_transcript(series)))


@PROPERTY
@given(instances(max_vertices=4, max_total_edges=8), st.integers(0, 10**6))
def test_kept_triple_matches_the_replay_route(p, seed):
    played = play_series(p, random_buster(seed), greedy_fixer())
    replayed = replay_transcript(p, parse_transcript(render_transcript(played)))
    for s in (played, replayed):
        kept = s._totals  # the slot the walk that made the series filled, read before any series_totals call
        assert kept is not None
        assert kept == series_totals(Series(s.initial, s.rounds, s.outcome))
        assert series_totals(s) is kept
