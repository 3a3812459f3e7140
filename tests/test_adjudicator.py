import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given

from busterfixer import (
    BusterWinsError,
    Caps,
    CapExceededError,
    Edge,
    IllegalMoveError,
    Multigraph,
    OutcomeTriple,
    Position,
    QUIT,
    apply_round,
    buster_wins,
    enumerate_buster_moves,
    enumerate_fixer_responses,
    fixer_superior,
    generate_instances,
    greedy_fixer,
    is_connected,
    play_series,
    random_buster,
    scripted_buster,
    series_superior,
    series_totals,
    theorem_sweep,
    verify_optimal,
    verify_optimal_naive,
)

from busterfixer.adjudicator import _Arena, _dominated, verify_optimal_report

from conftest import random_instance, triangle_position
from series_tables import ALL_SERIES, FAMILY_A, play_table_series
from test_properties import PROPERTY, instances


def _triple(win, busted, cost):
    return OutcomeTriple(fixer_win=win, total_busted=busted, fix_cost=Fraction(cost))


def test_fixer_superior_equal_triples():
    t = _triple(True, 3, 3)
    assert fixer_superior(t, t)


def test_fixer_superior_reflexive_on_varied_triples():
    for t in [_triple(True, 0, 0), _triple(False, 4, 1), _triple(False, 0, 7)]:
        assert fixer_superior(t, t)


def test_fixer_superior_asymmetric_example():
    cheap = _triple(True, 2, 1)
    dear = _triple(True, 2, 2)
    assert fixer_superior(cheap, dear)
    assert not fixer_superior(dear, cheap)


def test_fixer_superior_win_condition():
    # Fixer loss only dominates another loss
    assert fixer_superior(_triple(False, 5, 1), _triple(False, 4, 2))
    assert not fixer_superior(_triple(False, 5, 1), _triple(True, 4, 2))
    assert fixer_superior(_triple(True, 5, 1), _triple(True, 4, 2))


def _played(name):
    initial = triangle_position()
    for entry in ALL_SERIES:
        if entry[0] == name:
            return play_table_series(initial, entry[1], entry[2])
    raise KeyError(name)


def test_series_superior_worked_example_cross_family():
    # the round-2 bust-everything line dominates the expensive family's
    # corresponding third-round loss
    assert series_superior(_played("T10"), _played("V11"))


def test_series_superior_expensive_prefix_dominates_nothing():
    u1 = _played("U1")
    for name, *_ in FAMILY_A:
        assert not series_superior(u1, _played(name))


def test_series_superior_reflexive_and_requires_shared_instance():
    t2 = _played("T2")
    assert series_superior(t2, t2)
    other = random_instance(random.Random(0))
    series = play_series(other, random_buster(seed=1), greedy_fixer())
    with pytest.raises(IllegalMoveError):
        series_superior(t2, series)


def test_superiority_transitive_on_random_triples():
    rng = random.Random(13)
    checked = 0
    while checked < 500:
        initial = random_instance(rng)
        triples = [
            series_totals(play_series(initial, random_buster(seed=rng.randrange(10**6)), greedy_fixer()))
            for _ in range(3)
        ]
        a, b, c = triples
        if fixer_superior(a, b) and fixer_superior(b, c):
            assert fixer_superior(a, c)
            checked += 1


def test_triple_reduction_matches_raw_sums():
    rng = random.Random(29)
    for _ in range(200):
        initial = random_instance(rng)
        s = play_series(initial, random_buster(seed=rng.randrange(10**6)), greedy_fixer())
        t = play_series(initial, random_buster(seed=rng.randrange(10**6)), greedy_fixer())
        raw = (
            ((s.outcome.value == "Fixer") or (t.outcome.value == "Buster"))
            and sum(len(r.busted) for r in s.rounds) >= sum(len(r.busted) for r in t.rounds)
            and sum((initial.reserve.weight(r.fixed) for r in s.rounds), Fraction(0))
            <= sum((initial.reserve.weight(r.fixed) for r in t.rounds), Fraction(0))
        )
        assert series_superior(s, t) == raw


def _bridge_only_responses(p, busted):
    arena = _Arena(p)
    return [frozenset(ids) for _, ids, _ in arena.ordered_responses(arena.left_after(busted), bridge_only=True)]


def test_enumerate_fixer_responses_bridge_only(triangle):
    assert _bridge_only_responses(triangle, frozenset({"e1", "e2"})) == [
        frozenset({"e4"}),
        frozenset({"e5"}),
    ]


def test_enumerate_fixer_responses_all(triangle):
    assert enumerate_fixer_responses(triangle, frozenset({"e1", "e2"})) == [
        frozenset({"e4"}),
        frozenset({"e5"}),
        frozenset({"e4", "e5"}),
    ]


def test_enumerate_fixer_responses_connected_graph(triangle):
    assert _bridge_only_responses(triangle, frozenset({"e1"})) == [frozenset()]
    between = enumerate_fixer_responses(triangle, frozenset({"e1"}))
    # still connected: every reserve subset is legal, cheapest first
    assert between[0] == frozenset()
    assert len(between) == 4


def _reference_responses(p, busted):
    """Every reserve subset that reconnects, by brute force on multigraphs."""
    remaining = p.graph.without(busted)
    ids = sorted(p.reserve.ids)
    found = [
        frozenset(chosen)
        for size in range(len(ids) + 1)
        for chosen in combinations(ids, size)
        if is_connected(remaining.with_edges(tuple(p.reserve.edge(i) for i in chosen)))
    ]
    return sorted(found, key=lambda f: (p.reserve.weight(f), tuple(sorted(f))))


def _assert_responses_match_reference(positions):
    for p in positions:
        for busted in enumerate_buster_moves(p):
            if not buster_wins(p, busted):
                assert enumerate_fixer_responses(p, busted) == _reference_responses(p, busted)


def test_enumerate_fixer_responses_matches_brute_force():
    # the list every verifier compares against, checked against an
    # enumeration that shares no code with the arena
    _assert_responses_match_reference(generate_instances(3, 4, (0, 1, 2)))


@PROPERTY
@given(instances(max_vertices=4, max_total_edges=6))
def test_enumerate_fixer_responses_matches_brute_force_fractional(p):
    _assert_responses_match_reference([p])


def test_enumerate_fixer_responses_buster_win_raises(triangle):
    p = apply_round(triangle, frozenset({"e1", "e2"}), frozenset({"e4"}))
    with pytest.raises(BusterWinsError):
        enumerate_fixer_responses(p, frozenset({"e3", "e4"}))


# The three tests below pose one alternative line against a target outcome
# and call the reachability game directly: the bust budget and spend floor
# are the target's totals minus what the alternative prefix accumulated.


def test_dominates_quit_immediately(triangle):
    # target (Fixer win, 2 busted, spent 1); alternative line busted 2, spent 2
    arena = _Arena(apply_round(triangle, frozenset({"e1", "e2"}), frozenset({"e5"})))
    assert _dominated(arena, arena.graph_mask, arena.reserve_mask, 2 - 2, Fraction(1 - 2), True, {}, None)


def test_dominates_fails_when_bust_budget_exhausted():
    p = Position(
        graph=Multigraph(2, (Edge("a", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, ()),
    )
    arena = _Arena(p)
    # target (Buster win, 0 busted, spent 0); nothing accumulated yet. Every
    # completion of the alternative busts at least one more edge, and a
    # loss cannot dominate the quit-now Fixer win
    assert not _dominated(arena, arena.graph_mask, arena.reserve_mask, 0 - 0, Fraction(0 - 0), False, {}, None)


def test_dominates_buster_win_within_budget(triangle):
    # target (Buster win, 4 busted, spent 1); alternative line busted 2, spent 3
    arena = _Arena(apply_round(triangle, frozenset({"e1", "e2"}), frozenset({"e4", "e5"})))
    assert _dominated(arena, arena.graph_mask, arena.reserve_mask, 4 - 2, Fraction(1 - 3), False, {}, None)


def test_verify_optimal_worked_example(triangle):
    busted = frozenset({"e1", "e2"})
    assert verify_optimal(triangle, busted, frozenset({"e4"}))
    assert not verify_optimal(triangle, busted, frozenset({"e5"}))
    assert not verify_optimal(triangle, busted, frozenset({"e4", "e5"}))


@pytest.mark.parametrize("bridge_only", [True, False])
def test_verify_optimal_report_worked_example_witnesses(triangle, bridge_only):
    busted = frozenset({"e1", "e2"})
    cache = {}
    for share in (None, cache, cache):
        report = lambda c: verify_optimal_report(triangle, busted, frozenset(c), bridge_only=bridge_only, cache=share)
        assert report({"e4"}).optimal
        assert report({"e5"}).failing_outcome == OutcomeTriple(True, 2, Fraction(2))
        assert report({"e5"}).failing_alternative == frozenset({"e4"})
        assert report({"e4", "e5"}).failing_outcome == OutcomeTriple(True, 2, Fraction(3))
        assert report({"e4", "e5"}).failing_alternative == frozenset({"e4"})


def _every_check(p):
    for busted in enumerate_buster_moves(p):
        if buster_wins(p, busted):
            continue
        for candidate in enumerate_fixer_responses(p, busted):
            for bridge_only in (True, False):
                yield busted, candidate, bridge_only


def _assert_shared_cache_changes_nothing(positions, cache):
    for p in positions:
        for busted, candidate, bridge_only in _every_check(p):
            shared = verify_optimal_report(p, busted, candidate, bridge_only=bridge_only, cache=cache)
            fresh = verify_optimal_report(p, busted, candidate, bridge_only=bridge_only)
            assert shared == fresh


def test_shared_cache_reports_equal_fresh_reports():
    # one cache across the whole corpus: the cross-instance results and the
    # per-instance arena and per-bust memos must not move a verdict or witness
    _assert_shared_cache_changes_nothing(generate_instances(3, 4, (0, 1, 2)), {})


_ACROSS_EXAMPLES: dict = {}


@PROPERTY
@given(instances(max_vertices=3, max_total_edges=5))
def test_shared_cache_reports_equal_fresh_reports_fractional(p):
    # weights with denominators 2 and 3 give arenas of scale 2, 3 and 6; one
    # cache across all examples mixes scales in its cross-instance entries
    _assert_shared_cache_changes_nothing([p], _ACROSS_EXAMPLES)


def test_verify_optimal_report_caps_reserve_subsets():
    # 13 parallel reserve edges: 2**13 response subsets exceed the default
    # max_subsets, even when the bridge-only alternatives are only 13
    p = Position(
        graph=Multigraph(2, (Edge("a", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, tuple(Edge(f"r{i:02}", 0, 1, Fraction(1)) for i in range(13))),
    )
    caps = Caps(max_total_edges=16)
    with pytest.raises(CapExceededError):
        verify_optimal_report(p, frozenset({"a"}), frozenset({"r00"}), caps, bridge_only=True)


def test_verify_optimal_naive_agrees_on_worked_example(triangle):
    busted = frozenset({"e1", "e2"})
    for candidate in [{"e4"}, {"e5"}, {"e4", "e5"}]:
        assert verify_optimal_naive(triangle, busted, frozenset(candidate)) == verify_optimal(
            triangle, busted, frozenset(candidate)
        )


def test_verify_optimal_rejects_illegal_candidate(triangle):
    busted = frozenset({"e1", "e2"})
    with pytest.raises(IllegalMoveError):
        verify_optimal(triangle, busted, frozenset())  # does not reconnect
    with pytest.raises(IllegalMoveError):
        verify_optimal(triangle, busted, frozenset({"e1"}))  # not reserve
    with pytest.raises(IllegalMoveError):
        verify_optimal(triangle, frozenset(), frozenset({"e4"}))


def test_verify_optimal_lost_round_forced_empty_is_optimal():
    p = Position(
        graph=Multigraph(2, (Edge("a", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, ()),
    )
    assert verify_optimal(p, frozenset({"a"}), frozenset())
    assert verify_optimal_naive(p, frozenset({"a"}), frozenset())
    with pytest.raises(IllegalMoveError):
        verify_optimal(p, frozenset({"a"}), frozenset({"zzz"}))


def test_verify_optimal_single_replacement_edge():
    p = Position(
        graph=Multigraph(2, (Edge("a", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, (Edge("r", 0, 1, Fraction(2)),)),
    )
    assert verify_optimal(p, frozenset({"a"}), frozenset({"r"}))
    assert verify_optimal_naive(p, frozenset({"a"}), frozenset({"r"}))


def test_verify_optimal_empty_response_when_connected(triangle):
    assert verify_optimal(triangle, frozenset({"e1"}), frozenset())
    assert verify_optimal_naive(triangle, frozenset({"e1"}), frozenset())
    # spending while still connected wastes weight and is not optimal
    assert not verify_optimal(triangle, frozenset({"e1"}), frozenset({"e4"}))


def test_verify_optimal_caps():
    rng = random.Random(4)
    p = random_instance(rng, max_vertices=4, max_total_edges=10)
    while p.total_edges <= 7:
        p = random_instance(rng, max_vertices=4, max_total_edges=10)
    with pytest.raises(CapExceededError):
        verify_optimal(p, frozenset(sorted(p.graph.ids)[:1]), frozenset())
    with pytest.raises(CapExceededError):
        verify_optimal_naive(triangle_position(), frozenset({"e1"}), frozenset(), Caps(naive_max_total_edges=4))


def _oracle_corpus(max_total):
    for p in generate_instances(max_vertices=2, max_total_edges=max_total, reserve_weights=(0, 1, 2)):
        yield p


def test_oracle_agreement_exhaustive_tiny():
    # every instance (reserve weights 0, 1, 2), bust, and legal response with
    # |G|+|R| <= 4 on two vertices: the game search and the
    # strategy-materializing oracle agree
    checked = 0
    for p in _oracle_corpus(4):
        if len(p.graph) == 0:
            continue
        for busted in enumerate_buster_moves(p):
            if buster_wins(p, busted):
                continue
            for candidate in enumerate_fixer_responses(p, busted):
                expected = verify_optimal_naive(p, busted, candidate)
                assert verify_optimal(p, busted, candidate) == expected
                assert verify_optimal(p, busted, candidate, bridge_only=False) == expected
                checked += 1
    assert checked > 200


def test_oracle_agreement_sampled_three_vertices():
    rng = random.Random(31)
    pool = [p for p in generate_instances(max_vertices=3, max_total_edges=5) if len(p.graph)]
    cache = {}
    checked = 0
    for p in rng.sample(pool, 60):
        for busted in enumerate_buster_moves(p):
            if buster_wins(p, busted):
                continue
            for candidate in enumerate_fixer_responses(p, busted):
                naive = verify_optimal_naive(p, busted, candidate)
                assert verify_optimal(p, busted, candidate, cache=cache) == naive
                checked += 1
    assert checked > 100


def test_theorem_sweep_micro_corpus_clean():
    report = theorem_sweep(
        generate_instances(max_vertices=2, max_total_edges=4, reserve_weights=(0, 1)),
        compare_prune=True,
    )
    assert report.ok
    assert report.greedy_checked > 0
    assert report.responses_checked > 0
    assert "counterexamples: 0" in report.summary()


def test_generate_instances_counts_and_shape():
    instances = list(generate_instances(max_vertices=2, max_total_edges=3, reserve_weights=(1,)))
    # graphs are connected, pools share ids with nothing overlapping
    for p in instances:
        from busterfixer import is_connected

        assert is_connected(p.graph)
        assert p.total_edges <= 3
    signatures = {(p.graph.signature(), p.reserve.signature(), p.graph.vertex_count) for p in instances}
    assert len(signatures) == len(instances)  # canonical dedup


def test_quit_token_repr():
    assert repr(QUIT) == "QUIT"


def test_equal_weight_ties_every_tree_optimal():
    # both reserve edges tie at weight 1: each spanning-tree response is
    # greedy and must verify optimal; the spend-both response must not
    p = Position(
        graph=Multigraph(
            3,
            (
                Edge("e1", 0, 1, Fraction(1)),
                Edge("e2", 1, 2, Fraction(1)),
                Edge("e3", 2, 0, Fraction(1)),
            ),
        ),
        reserve=Multigraph(3, (Edge("e4", 0, 1, Fraction(1)), Edge("e5", 1, 2, Fraction(1)))),
    )
    busted = frozenset({"e1", "e2"})
    assert verify_optimal(p, busted, frozenset({"e4"}))
    assert verify_optimal(p, busted, frozenset({"e5"}))
    assert not verify_optimal(p, busted, frozenset({"e4", "e5"}))
