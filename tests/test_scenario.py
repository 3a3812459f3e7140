from fractions import Fraction

import pytest

from busterfixer import (
    QUIT,
    ScenarioParseError,
    ScenarioValidationError,
    load_bundled_scenario,
    parse_scenario,
    render_scenario,
)

GOOD = """\
# a path with one spare
vertex a
vertex b
vertex c

edge g1 a b 1 G
edge g2 b c 0.5 G
edge r1 a c 2 R
buster g1
buster quit
"""


def test_parse_basic():
    sc = parse_scenario(GOOD, name="path")
    assert sc.name == "path"
    assert sc.vertex_names == ("a", "b", "c")
    assert [d.id for d in sc.edges] == ["g1", "g2", "r1"]
    assert sc.edges[1].weight == Fraction(1, 2)
    assert sc.script == (frozenset({"g1"}), QUIT)
    p = sc.initial_position()
    assert p.graph.ids == {"g1", "g2"}
    assert p.reserve.ids == {"r1"}


def test_initial_position_is_built_once():
    sc = parse_scenario(GOOD)
    assert sc.initial_position() is sc.initial_position()


def test_parse_accepts_bytes_and_order_independence():
    shuffled = "edge g1 a b 1 G\nvertex a\nvertex b\n"
    sc = parse_scenario(shuffled.encode())
    assert sc.initial_position().graph.ids == {"g1"}


def test_parse_loop_reserve_accepted():
    text = "vertex a\nvertex b\nedge g1 a b 1 G\nedge x a a 1 R\n"
    sc = parse_scenario(text)
    p = sc.initial_position()
    edge = p.reserve.edge("x")
    assert edge.u == edge.v


def test_parse_rejects_disconnected_graph_pool():
    text = "vertex a\nvertex b\nvertex c\nedge g1 a b 1 G\n"
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)


def test_parse_rejects_duplicate_edge_id():
    text = "vertex a\nvertex b\nedge g1 a b 1 G\nedge g1 a b 1 R\n"
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(ScenarioValidationError):
        parse_scenario("vertex a\nvertex a\n")


def test_parse_rejects_negative_weight():
    text = "vertex a\nvertex b\nedge g1 a b -1 G\n"
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)


def test_parse_rejects_scientific_notation_with_line_number():
    text = "vertex a\nvertex b\nedge g1 a b 1e3 G\n"
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(text)
    assert exc.value.line_number == 3


@pytest.mark.parametrize("weight", ["\u0661", "1.\u0665", "\uff11"])
def test_parse_rejects_non_ascii_digits_in_weights(weight):
    text = f"vertex a\nvertex b\nedge g1 a b {weight} G\n"
    with pytest.raises(ScenarioParseError, match="not a plain decimal weight") as exc:
        parse_scenario(text)
    assert exc.value.line_number == 3


def test_parse_rejects_ids_transcripts_cannot_represent():
    # `quit` alone: `buster quit` is the quit directive, never a bust of edge quit
    for bad in ("x,y", "{x", "x}", "x|y", "x#y", "quit"):
        text = f"vertex a\nvertex b\nedge {bad} a b 1 G\n"
        with pytest.raises(ScenarioValidationError, match="transcripts cannot represent"):
            parse_scenario(text)


def test_parse_rejects_unknown_vertex():
    with pytest.raises(ScenarioValidationError):
        parse_scenario("vertex a\nedge g1 a z 1 G\n")


def test_parse_rejects_unknown_script_ids():
    text = "vertex a\nvertex b\nedge g1 a b 1 G\nbuster nope\n"
    with pytest.raises(ScenarioValidationError):
        parse_scenario(text)


def test_parse_rejects_bad_directives():
    with pytest.raises(ScenarioParseError):
        parse_scenario("frobnicate\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("edge g1 a b 1 X\nvertex a\nvertex b\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("vertex\n")


def test_render_parse_round_trip():
    sc = parse_scenario(GOOD, name="path")
    again = parse_scenario(render_scenario(sc), name="path")
    assert again == sc
    assert parse_scenario(render_scenario(again), name="path") == again


def test_bundled_worked_example():
    sc = load_bundled_scenario("paper_1_2.scn")
    assert sc.name == "paper_1_2"
    p = sc.initial_position()
    assert len(p.graph) == 3
    assert len(p.reserve) == 2
    assert p.reserve.edge("e4").weight == 1
    assert p.reserve.edge("e5").weight == 2
    # e4 parallels e1, e5 parallels e2
    for spare, busted in (("e4", "e1"), ("e5", "e2")):
        a, b = p.reserve.edge(spare), p.graph.edge(busted)
        assert {a.u, a.v} == {b.u, b.v}
    assert sc.script[0] == frozenset({"e1", "e2"})


def test_parse_rejects_empty_vertex_set():
    with pytest.raises(ScenarioValidationError):
        parse_scenario("# nothing\n")
