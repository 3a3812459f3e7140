"""The package's frozen dataclasses are slotted values that survive pickle and copy."""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

from busterfixer import (
    Caps,
    Counterexample,
    Edge,
    Multigraph,
    OutcomeTriple,
    Position,
    RoundRecord,
    ScenarioFile,
    Series,
    SpanningTree,
    VerifyResult,
    greedy_fixer,
    parse_transcript,
    play_series,
    random_buster,
    render_transcript,
)
from busterfixer import adjudicator, engine, graph, reconnect, scenario, transcript
from busterfixer.scenario import EdgeDeclaration, load_bundled_scenario

from conftest import triangle_position


def _values() -> list:
    """One value of each frozen dataclass, plus the ones whose private slot is still empty."""
    played = play_series(triangle_position(), random_buster(1), greedy_fixer())
    parsed = parse_transcript(render_transcript(played, scenario="values", policy="p"))
    bundled = load_bundled_scenario("paper_1_2.scn")
    bundled.initial_position()
    edge = Edge("r", 0, 1, Fraction(1, 2))
    triple = OutcomeTriple(True, 2, Fraction(1, 2))
    return [
        Caps(max_total_edges=6),
        edge,
        Multigraph(2, (edge,)),
        played.initial,
        RoundRecord(frozenset({"g"}), frozenset({"r"})),
        played,
        Series(played.initial, played.rounds, played.outcome),
        triple,
        SpanningTree(frozenset({"r"}), Fraction(1, 2)),
        EdgeDeclaration("g", "a", "b", Fraction(1), "G"),
        bundled,
        ScenarioFile(bundled.name, bundled.vertex_names, bundled.edges, bundled.script),
        parsed.rows[0],
        parsed,
        VerifyResult(False, 2, triple, frozenset({"r"})),
        Counterexample("greedy", played.initial, frozenset({"e1"}), frozenset(), "detail"),
    ]


def test_every_frozen_dataclass_is_covered():
    frozen = {
        obj
        for module in (adjudicator, engine, graph, reconnect, scenario, transcript)
        for obj in vars(module).values()
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
    }
    assert len(frozen) == 14
    assert {type(value) for value in _values()} == frozen


def test_values_have_no_instance_dict_and_survive_pickle_and_copy():
    for value in _values():
        assert not hasattr(value, "__dict__"), type(value).__name__
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value), type(value).__name__


def test_private_slots_travel_with_the_value_and_stay_out_of_equality():
    played = play_series(triangle_position(), random_buster(1), greedy_fixer())
    fresh = Series(played.initial, played.rounds, played.outcome)
    assert played._totals is not None and fresh._totals is None
    assert fresh == played and repr(fresh) == repr(played)
    assert pickle.loads(pickle.dumps(played))._totals == played._totals
    assert pickle.loads(pickle.dumps(fresh))._totals is None
    bundled = load_bundled_scenario("paper_1_2.scn")
    assert copy.deepcopy(bundled).initial_position() == bundled.initial_position()
