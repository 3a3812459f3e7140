import contextlib
import io
import random
from fractions import Fraction

import pytest

from busterfixer import engine, graph, reconnect
from busterfixer import (
    DEFAULT_CAPS,
    QUIT,
    CapExceededError,
    Caps,
    Edge,
    IllegalMoveError,
    Multigraph,
    OutcomeTriple,
    PolicyError,
    Position,
    RoundRecord,
    Series,
    Winner,
    apply_round,
    buster_wins,
    cli_main,
    enumerate_fixer_responses,
    enumerate_buster_moves,
    greedy_fixer,
    greedy_fixer_move,
    is_connected,
    play_series,
    random_buster,
    render_transcript,
    replay_positions,
    scripted_buster,
    scripted_fixer,
    series_totals,
    verify_optimal,
    verify_optimal_naive,
    verify_optimal_report,
)

from conftest import random_instance, triangle_position
from series_tables import ALL_SERIES, B1, expected_triple, play_table_series


def test_position_rejects_overlapping_pools():
    g = Multigraph(2, (Edge("a", 0, 1, Fraction(1)),))
    with pytest.raises(ValueError, match=r"^graph and reserve ids overlap: \['a'\]$"):
        Position(graph=g, reserve=g)
    r = Multigraph(2, (Edge("c", 0, 1, 1), Edge("b", 1, 1, 1), Edge("a", 0, 0, 1)))
    with pytest.raises(ValueError, match=r"^graph and reserve ids overlap: \['a', 'c'\]$"):
        Position(graph=g.with_edges([Edge("c", 0, 0, 2)]), reserve=r)


def test_apply_round_moves_fix_into_graph(triangle):
    p = apply_round(triangle, frozenset({"e1", "e2"}), frozenset({"e4"}))
    assert p.graph.ids == {"e3", "e4"}
    assert p.reserve.ids == {"e5"}


def test_apply_round_terminal_bust():
    p = apply_round(triangle_position(), frozenset({"e1", "e2"}), frozenset({"e4"}))
    p = apply_round(p, frozenset({"e3", "e4"}), frozenset())
    assert p.graph.ids == frozenset()
    assert p.reserve.ids == {"e5"}


def test_apply_round_non_bridge_bust_keeps_reserve(triangle):
    p = apply_round(triangle, frozenset({"e1"}), frozenset())
    assert len(p.graph) == 2
    assert p.reserve.ids == triangle.reserve.ids


def test_apply_round_illegal_moves(triangle):
    with pytest.raises(IllegalMoveError):
        apply_round(triangle, frozenset(), frozenset())
    with pytest.raises(IllegalMoveError):
        apply_round(triangle, frozenset({"e4"}), frozenset())
    with pytest.raises(IllegalMoveError):
        apply_round(triangle, frozenset({"e1"}), frozenset({"e1"}))


def test_buster_wins_examples(triangle):
    p2 = apply_round(triangle, frozenset({"e1", "e2"}), frozenset({"e4"}))
    assert buster_wins(p2, frozenset({"e3", "e4"}))
    assert not buster_wins(triangle, frozenset({"e1", "e2"}))
    p3 = apply_round(p2, frozenset({"e3"}), frozenset({"e5"}))
    assert buster_wins(p3, frozenset({"e4"}))


def test_enumerate_buster_moves_order():
    g = Multigraph(3, (Edge("e4", 0, 1, Fraction(1)), Edge("e5", 1, 2, Fraction(2))))
    p = Position(graph=g, reserve=Multigraph(3, ()))
    assert enumerate_buster_moves(p) == [
        frozenset({"e4"}),
        frozenset({"e5"}),
        frozenset({"e4", "e5"}),
    ]


def test_enumerate_buster_moves_counts(triangle):
    assert len(enumerate_buster_moves(triangle)) == 7
    single = Position(
        graph=Multigraph(2, (Edge("x", 0, 1, Fraction(1)),)), reserve=Multigraph(2, ())
    )
    assert enumerate_buster_moves(single) == [frozenset({"x"})]


def test_enumerate_buster_moves_cap():
    edges = tuple(Edge(f"e{i}", 0, 1, Fraction(1)) for i in range(13))
    p = Position(graph=Multigraph(2, edges), reserve=Multigraph(2, ()))
    with pytest.raises(CapExceededError):
        enumerate_buster_moves(p)
    assert len(enumerate_buster_moves(p, Caps(max_subsets=1 << 13))) == 2**13 - 1


def test_move_mask_table_is_the_documented_move_order():
    # ids whose string order is not their numeric order: "g10" < "g2"
    numbers = [2, 10, 1, 11, 3, 12, 4, 5, 6, 7, 8, 9]
    for size in range(1, 13):
        ids = sorted(f"g{i}" for i in numbers[:size])
        subsets = [frozenset(ids[bit] for bit in range(size) if mask >> bit & 1) for mask in range(1, 1 << size)]
        reference = sorted(subsets, key=lambda m: (len(m), tuple(sorted(m))))
        table = engine._move_masks(size, DEFAULT_CAPS)
        assert [frozenset(ids[bit] for bit in range(size) if mask >> bit & 1) for mask in table] == reference
        p = Position(graph=Multigraph(2, tuple(Edge(i, 0, 1, Fraction(1)) for i in ids)), reserve=Multigraph(2, ()))
        assert enumerate_buster_moves(p) == reference


def test_move_mask_cap_raises_before_any_table_is_built(monkeypatch):
    def never(*args):
        raise AssertionError("mask table built before the cap check")

    monkeypatch.setattr(engine, "_MOVE_MASKS", {})
    monkeypatch.setattr(engine, "combinations", never)
    p = Position(
        graph=Multigraph(2, tuple(Edge(f"g{i}", 0, 1, Fraction(1)) for i in range(13))), reserve=Multigraph(2, ())
    )
    with pytest.raises(CapExceededError, match="2\\^13 graph-edge subsets exceeds cap 4096"):
        enumerate_buster_moves(p, DEFAULT_CAPS)
    assert engine._MOVE_MASKS == {}


@pytest.mark.parametrize("name,first_fix,script,win,busted,cost", ALL_SERIES)
def test_worked_example_tables(name, first_fix, script, win, busted, cost, triangle):
    series = play_table_series(triangle, first_fix, script)
    assert series_totals(series) == expected_triple(win, busted, cost)
    assert (series.outcome is Winner.FIXER) == win


def test_play_series_greedy_reproduces_first_family_line(triangle):
    series = play_series(
        triangle, scripted_buster([B1, {"e3"}, {"e4"}]), greedy_fixer()
    )
    assert series.outcome is Winner.BUSTER
    assert series_totals(series) == OutcomeTriple(False, 4, Fraction(3))
    # greedy picks e4 in round 1 without being scripted to
    assert series.rounds[0].fixed == {"e4"}


def test_greedy_play_contracts_nothing_and_builds_two_multigraphs_per_later_round(triangle, monkeypatch):
    # each later round builds only its entering Position for the policies; the greedy fix builds no graph
    contracted, built = [], []
    contract, post_init = graph.contract, Multigraph.__post_init__

    def counting_contract(base, reserve):
        contracted.append(base)
        return contract(base, reserve)

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    for module in (graph, reconnect):
        monkeypatch.setattr(module, "contract", counting_contract)
    monkeypatch.setattr(Multigraph, "__post_init__", counting_post_init)
    series = play_series(triangle, random_buster(1), greedy_fixer())
    assert len(series.rounds) == 3 and series.rounds[0].fixed
    assert contracted == [] and len(built) == 2 * (len(series.rounds) - 1)


def test_play_series_quit_gives_fixer_win(triangle):
    series = play_series(triangle, scripted_buster([B1, QUIT]), greedy_fixer())
    assert series.outcome is Winner.FIXER
    assert len(series.rounds) == 1
    assert series_totals(series) == OutcomeTriple(True, 2, Fraction(1))


def test_play_series_rejects_quit_before_any_round(triangle):
    with pytest.raises(PolicyError):
        play_series(triangle, scripted_buster([QUIT]), greedy_fixer())


def test_play_series_rejects_disconnected_start():
    p = Position(
        graph=Multigraph(3, (Edge("a", 0, 1, Fraction(1)),)), reserve=Multigraph(3, ())
    )
    with pytest.raises(IllegalMoveError):
        play_series(p, scripted_buster([{"a"}]), greedy_fixer())


def test_play_series_policy_errors_carry_round_index(triangle):
    with pytest.raises(PolicyError) as exc:
        play_series(triangle, scripted_buster([{"nope"}]), greedy_fixer())
    assert exc.value.round_index == 1
    with pytest.raises(PolicyError) as exc:
        play_series(
            triangle,
            scripted_buster([B1]),
            scripted_fixer([frozenset()]),  # does not reconnect
        )
    assert exc.value.round_index == 1


def test_play_series_single_vertex_loops_end_as_fixer_win():
    p = Position(
        graph=Multigraph(1, (Edge("l", 0, 0, Fraction(1)),)), reserve=Multigraph(1, ())
    )
    series = play_series(p, scripted_buster([{"l"}, {"l"}]), greedy_fixer())
    # after the loop is busted the graph is empty; Buster cannot move again
    assert series.outcome is Winner.FIXER
    assert len(series.rounds) == 1


def test_series_totals_zero_round_prefix(edgeless):
    empty = Series(initial=edgeless, rounds=(), outcome=Winner.FIXER)
    assert play_series(edgeless, scripted_buster([]), greedy_fixer()) == empty
    assert series_totals(empty) == OutcomeTriple(True, 0, Fraction(0))


# The graph is a loop at vertex 0, vertex 1 is isolated, and the reserve is
# empty: busting the loop is a one-round Buster win from a disconnected start.
_SPLIT = Position(graph=Multigraph(2, (Edge("g", 0, 0, Fraction(1)),)), reserve=Multigraph(2, ()))


@pytest.mark.parametrize("consumer", [series_totals, render_transcript, replay_positions])
@pytest.mark.parametrize(
    "series,message",
    [
        (Series(triangle_position(), (), Winner.FIXER), "round 1: Buster may not quit before making any move"),
        (Series(_SPLIT, (RoundRecord(frozenset({"g"}), frozenset()),), Winner.BUSTER), "initial graph must be connected"),
    ],
    ids=["zero-rounds-on-edges", "disconnected-start"],
)
def test_hand_built_series_follow_the_series_loops_start_rules(series, message, consumer):
    # play_series refuses both series; every consumer of a hand-built one must too
    with pytest.raises(IllegalMoveError) as exc:
        consumer(series)
    assert type(exc.value) is IllegalMoveError
    assert str(exc.value) == message


def test_series_totals_computed_once_per_series(triangle):
    series = play_table_series(triangle, {"e4"}, (B1, frozenset({"e3"})))
    first = series_totals(series)
    assert series_totals(series) is first
    twin = Series(initial=series.initial, rounds=series.rounds, outcome=series.outcome)
    assert twin == series and hash(twin) == hash(series)  # the kept triple is not part of a series' value
    assert series_totals(twin) == first


def test_series_totals_rejects_an_illegal_series_on_every_call(triangle):
    bad = Series(initial=triangle, rounds=(), outcome=Winner.BUSTER)
    for _ in range(2):
        with pytest.raises(IllegalMoveError, match="Buster win requires at least one round"):
            series_totals(bad)


def test_replay_positions_validates(triangle):
    bad = Series(
        initial=triangle,
        rounds=(RoundRecord(busted=frozenset({"e1"}), fixed=frozenset({"e4", "e5"})),),
        outcome=Winner.BUSTER,
    )
    with pytest.raises(IllegalMoveError):
        replay_positions(bad)


def _rounds(*pairs):
    return tuple(RoundRecord(frozenset(busted), frozenset(fixed)) for busted, fixed in pairs)


# On the triangle, busting e1,e2 and fixing e4 leaves graph {e3,e4} and
# reserve {e5}; busting e3,e4 next cannot be fixed, since e5 misses vertex a.
@pytest.mark.parametrize(
    "rounds,outcome,message",
    [
        (
            _rounds(({"e1", "e2"}, {"e4"}), ({"e3", "e4"}, ())),
            Winner.FIXER,
            "round 2: unreconnectable bust inside a surviving series",
        ),
        (
            _rounds(({"e1", "e2"}, {"e4"}), ({"e3", "e4"}, {"e5"})),
            Winner.BUSTER,
            "only the empty response is legal when Buster wins",
        ),
        (_rounds(({"e1", "e2"}, ())), Winner.FIXER, "fix does not reconnect the graph"),
        ((), Winner.BUSTER, "Buster win requires at least one round"),
        (
            _rounds(({"e1", "e2"}, {"e4"})),
            Winner.BUSTER,
            "final round is reconnectable but outcome says Buster won",
        ),
        (_rounds(({"e1", "e2"}, {"e4", "zz"})), Winner.FIXER, "fixed must be a subset of the current reserve"),
    ],
    ids=[
        "unreconnectable-inside",
        "buster-win-nonempty-fix",
        "fix-does-not-reconnect",
        "buster-win-zero-rounds",
        "final-round-reconnectable",
        "fix-outside-reserve",
    ],
)
def test_replay_positions_rejections(rounds, outcome, message, triangle):
    with pytest.raises(IllegalMoveError) as exc:
        replay_positions(Series(initial=triangle, rounds=rounds, outcome=outcome))
    assert type(exc.value) is IllegalMoveError
    assert str(exc.value) == message


def test_random_series_conservation_and_termination():
    rng = random.Random(99)
    for trial in range(200):
        initial = random_instance(rng)
        series = play_series(initial, random_buster(seed=trial), greedy_fixer())
        positions = replay_positions(series)
        assert len(series.rounds) <= initial.total_edges
        for before, after, record in zip(positions, positions[1:], series.rounds):
            assert after.total_edges == before.total_edges - len(record.busted)
            assert before.reserve.weight() - after.reserve.weight() == before.reserve.weight(record.fixed)
        totals = series_totals(series)  # raises IdentityViolationError on any drift
        assert totals.total_busted == sum(len(r.busted) for r in series.rounds)


def test_random_buster_is_deterministic():
    rng = random.Random(1)
    initial = random_instance(rng)
    a = play_series(initial, random_buster(seed=5), greedy_fixer())
    b = play_series(initial, random_buster(seed=5), greedy_fixer())
    assert a == b
    c = play_series(initial, random_buster(seed=6), greedy_fixer())
    assert isinstance(c, Series)


def test_dataclasses_hash_and_compare(triangle):
    assert triangle == triangle_position()
    assert hash(triangle) == hash(triangle_position())


def test_greedy_survives_every_buster_line(triangle):
    # exhaustive walk: while a bust is fixable the greedy policy must
    # produce a legal reconnecting response, whatever Buster does

    def walk(pos, depth):
        assert depth <= triangle.total_edges
        if len(pos.graph) == 0:
            return
        for busted in enumerate_buster_moves(pos):
            if buster_wins(pos, busted):
                continue
            fixed = greedy_fixer_move(pos, busted)
            nxt = apply_round(pos, busted, fixed)
            assert is_connected(nxt.graph)
            walk(nxt, depth + 1)

    walk(triangle, 0)


BUST_RULE = "busted must be a nonempty subset of the current graph"


def _raises_bust_rule(call):
    def check(p, busted):
        with pytest.raises(IllegalMoveError) as exc:
            call(p, busted)
        assert str(exc.value) == BUST_RULE

    return check


def _play_series_rejects(p, busted):
    with pytest.raises(PolicyError) as exc:
        play_series(p, scripted_buster([busted]), greedy_fixer())
    assert exc.value.round_index == 1
    assert str(exc.value) == f"round 1: {BUST_RULE}"


def _cli_rejects(*argv):
    def check(p, busted):
        # the bundled paper_1_2 scenario is the same triangle as ``p``
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli_main([argv[0], "paper_1_2.scn", "--busted", ",".join(busted), *argv[1:]]) == 2
        assert err.getvalue() == f"error: {BUST_RULE}\n"

    return check


@pytest.mark.parametrize("busted", [frozenset(), frozenset({"zz"})], ids=["empty", "unknown"])
@pytest.mark.parametrize(
    "entry",
    [
        _raises_bust_rule(lambda p, b: apply_round(p, b, frozenset())),
        _raises_bust_rule(buster_wins),
        _raises_bust_rule(greedy_fixer_move),
        _raises_bust_rule(enumerate_fixer_responses),
        _raises_bust_rule(lambda p, b: verify_optimal_report(p, b, frozenset({"e4"}))),
        _raises_bust_rule(lambda p, b: verify_optimal_naive(p, b, frozenset({"e4"}))),
        _play_series_rejects,
        _raises_bust_rule(lambda p, b: replay_positions(Series(p, (RoundRecord(b, frozenset()),), Winner.BUSTER))),
        _cli_rejects("msts"),
        _cli_rejects("verify", "--candidate", "e4"),
    ],
    ids=[
        "apply_round",
        "buster_wins",
        "greedy_fixer_move",
        "enumerate_fixer_responses",
        "verify_optimal_report",
        "verify_optimal_naive",
        "play_series",
        "replay_positions",
        "cli_msts",
        "cli_verify",
    ],
)
def test_every_entry_point_enforces_the_one_bust_rule(entry, busted, triangle):
    entry(triangle, busted)


FIX_RULE = "fixed must be a subset of the current reserve"
FIX_BUST = frozenset({"e1", "e2"})  # reconnectable: e4 alone rejoins vertex b


def _raises_fix_rule(call):
    def check(p, fixed):
        with pytest.raises(IllegalMoveError) as exc:
            call(p, fixed)
        assert str(exc.value) == FIX_RULE

    return check


def _play_series_rejects_fix(p, fixed):
    with pytest.raises(PolicyError) as exc:
        play_series(p, scripted_buster([FIX_BUST]), scripted_fixer([fixed]))
    assert exc.value.round_index == 1
    assert str(exc.value) == f"round 1: {FIX_RULE}"


def _cli_verify_rejects_fix(p, fixed):
    # the bundled paper_1_2 scenario is the same triangle as ``p``
    err = io.StringIO()
    argv = ["verify", "paper_1_2.scn", "--busted", ",".join(sorted(FIX_BUST)), "--candidate", ",".join(sorted(fixed))]
    with contextlib.redirect_stderr(err):
        assert cli_main(argv) == 2
    assert err.getvalue() == f"error: {FIX_RULE}\n"


@pytest.mark.parametrize("fixed", [frozenset({"e1"}), frozenset({"e4", "zz"})], ids=["graph-edge", "unknown"])
@pytest.mark.parametrize(
    "entry",
    [
        _raises_fix_rule(lambda p, f: apply_round(p, FIX_BUST, f)),
        _play_series_rejects_fix,
        _raises_fix_rule(lambda p, f: replay_positions(Series(p, (RoundRecord(FIX_BUST, f),), Winner.FIXER))),
        _raises_fix_rule(lambda p, f: verify_optimal_report(p, FIX_BUST, f)),
        _raises_fix_rule(lambda p, f: verify_optimal_naive(p, FIX_BUST, f)),
        _cli_verify_rejects_fix,
    ],
    ids=[
        "apply_round",
        "play_series",
        "replay_positions",
        "verify_optimal_report",
        "verify_optimal_naive",
        "cli_verify",
    ],
)
def test_every_entry_point_enforces_the_one_fix_rule(entry, fixed, triangle):
    entry(triangle, fixed)


ID_ENTRY_POINTS = {
    "apply_round": apply_round,
    "buster_wins": lambda p, busted, fixed: buster_wins(p, busted),
    "greedy_fixer_move": lambda p, busted, fixed: greedy_fixer_move(p, busted),
    "check_bust": lambda p, busted, fixed: p.check_bust(busted),
    "enumerate_fixer_responses": lambda p, busted, fixed: enumerate_fixer_responses(p, busted),
    "verify_optimal": verify_optimal,
    "verify_optimal_report": verify_optimal_report,
    "verify_optimal_naive": verify_optimal_naive,
}


@pytest.mark.parametrize("kind", [list, tuple])
@pytest.mark.parametrize("entry", list(ID_ENTRY_POINTS.values()), ids=list(ID_ENTRY_POINTS))
def test_every_entry_point_takes_ids_in_any_iterable(entry, kind, triangle):
    # a list or tuple of ids, a repeated id included, acts as its frozenset: same result or same refusal
    def outcome(busted, fixed):
        try:
            return entry(triangle, busted, fixed)
        except IllegalMoveError as exc:
            return type(exc), str(exc)

    rounds = [
        (("e1", "e2"), ("e5",)),
        (("e2", "e1", "e2"), ("e4", "e4")),
        (("e1",), ()),
        (("e1", "e2"), ()),
        (("e1", "e2"), ("e1",)),
        ((), ()),
        (("zz",), ()),
    ]
    for busted, fixed in rounds:
        assert outcome(kind(busted), kind(fixed)) == outcome(frozenset(busted), frozenset(fixed)), (busted, fixed)


def _raises_rule(message, call):
    def check(p, busted, fixed, tmp_path):
        with pytest.raises(IllegalMoveError) as exc:
            call(p, frozenset(busted), frozenset(fixed))
        assert type(exc.value) is IllegalMoveError
        assert str(exc.value) == message

    return check


def _cli_verify_refuses(message, scenario_text=None):
    def check(p, busted, fixed, tmp_path):
        # ``scenario_text`` describes ``p``; without it, ``p`` is the bundled paper_1_2 triangle
        scenario = "paper_1_2.scn"
        if scenario_text is not None:
            scenario = str(tmp_path / "p.scn")
            (tmp_path / "p.scn").write_text(scenario_text, encoding="utf-8")
        err = io.StringIO()
        argv = ["verify", scenario, "--busted", ",".join(sorted(busted)), "--candidate", ",".join(sorted(fixed))]
        with contextlib.redirect_stderr(err):
            assert cli_main(argv) == 2
        assert err.getvalue() == f"error: {message}\n"

    return check


RECONNECT_RULE = "fix does not reconnect the graph"


def _play_series_rejects_reconnect(p, busted, fixed, tmp_path):
    with pytest.raises(PolicyError) as exc:
        play_series(p, scripted_buster([busted]), scripted_fixer([fixed]))
    assert exc.value.round_index == 1
    assert str(exc.value) == f"round 1: {RECONNECT_RULE}"


# On the triangle, busting e1,e2 strands vertex b and busting all three
# strands every vertex; e4 alone rejoins only a and b.
@pytest.mark.parametrize(
    "busted,fixed", [({"e1", "e2"}, ()), ({"e1", "e2", "e3"}, {"e4"})], ids=["empty-fix", "partial-fix"]
)
@pytest.mark.parametrize(
    "entry",
    [
        _raises_rule(RECONNECT_RULE, apply_round),
        _play_series_rejects_reconnect,
        _raises_rule(RECONNECT_RULE, lambda p, b, f: replay_positions(Series(p, (RoundRecord(b, f),), Winner.FIXER))),
        _raises_rule(RECONNECT_RULE, verify_optimal_report),
        _raises_rule(RECONNECT_RULE, verify_optimal_naive),
        _cli_verify_refuses(RECONNECT_RULE),
    ],
    ids=[
        "apply_round", "play_series", "replay_positions", "verify_optimal_report", "verify_optimal_naive", "cli_verify"
    ],
)
def test_every_entry_point_enforces_the_one_reconnect_rule(entry, busted, fixed, triangle, tmp_path):
    entry(triangle, busted, fixed, tmp_path)


BUSTER_WIN_RULE = "only the empty response is legal when Buster wins"

# Vertices a and b joined by graph edge g; the reserve is a loop r at a, so
# busting g is a Buster win and only the empty response is legal.
_LOST = Position(
    graph=Multigraph(2, (Edge("g", 0, 1, Fraction(1)),)), reserve=Multigraph(2, (Edge("r", 0, 0, Fraction(1)),))
)


@pytest.mark.parametrize("fixed", [{"r"}, {"g"}, {"zz"}], ids=["reserve-edge", "busted-edge", "unknown"])
@pytest.mark.parametrize(
    "entry",
    [
        _raises_rule(BUSTER_WIN_RULE, apply_round),
        _raises_rule(
            BUSTER_WIN_RULE, lambda p, b, f: replay_positions(Series(p, (RoundRecord(b, f),), Winner.BUSTER))
        ),
        _raises_rule(BUSTER_WIN_RULE, verify_optimal_report),
        _raises_rule(BUSTER_WIN_RULE, verify_optimal_naive),
        _cli_verify_refuses(BUSTER_WIN_RULE, "vertex a\nvertex b\nedge g a b 1 G\nedge r a a 1 R\n"),
    ],
    ids=["apply_round", "replay_positions", "verify_optimal_report", "verify_optimal_naive", "cli_verify"],
)
def test_every_entry_point_enforces_the_one_buster_win_rule(entry, fixed, tmp_path):
    assert buster_wins(_LOST, frozenset({"g"}))
    entry(_LOST, {"g"}, fixed, tmp_path)
    # the empty response stays legal: the round ends with the graph disconnected
    assert not is_connected(apply_round(_LOST, frozenset({"g"}), frozenset()).graph)
