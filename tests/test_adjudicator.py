import hashlib
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, product
from types import SimpleNamespace
from unittest.mock import Mock, patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from busterfixer import adjudicator, engine
from busterfixer.adjudicator import (
    _adjudicate_move,
    _Adjudication,
    _Arena,
    _distinct_unions,
    verify_optimal_report,
)
from busterfixer.graph import EdgeIndex, contract
from busterfixer.reconnect import all_msts, all_spanning_trees

from conftest import brute_force_form, random_instance, triangle_position
from series_tables import ALL_SERIES, FAMILY_A, play_table_series
from test_properties import FRACTIONAL, PROPERTY, instances


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


def _left(arena, busted):
    """The graph mask ``busted`` leaves on a walk of ``arena``, or None when Buster wins."""
    walk = engine._Walk(arena)
    return None if walk.bust(busted) else walk.graph


def _bridge_only_responses(p, busted):
    arena = _Arena(p)
    return [arena.ids_of(alt) for alt, *_ in _Adjudication(arena, _left(arena, busted), True).alt_lines]


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
    # enumeration that shares no code with the arena. The last position's
    # reserve ids sort as strings (r1, r10, r11, r2, ra), not as numbers, and
    # all weigh 1, so ids alone order each size; busting one path edge leaves
    # two components, busting both leaves three
    path = Multigraph(3, (Edge("g0", 0, 1, Fraction(1)), Edge("g1", 1, 2, Fraction(1))))
    ends = {"r1": (0, 1), "r2": (1, 2), "r10": (0, 2), "r11": (0, 1), "ra": (1, 2)}
    reserve = Multigraph(3, tuple(Edge(i, u, v, Fraction(1)) for i, (u, v) in ends.items()))
    _assert_responses_match_reference([*generate_instances(3, 4, (0, 1, 2)), Position(graph=path, reserve=reserve)])


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
    assert arena.dominated(arena.graph_mask, arena.reserve_mask, 2 - 2, Fraction(1 - 2), True)


def test_dominates_fails_when_bust_budget_exhausted():
    p = Position(
        graph=Multigraph(2, (Edge("a", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, ()),
    )
    arena = _Arena(p)
    # target (Buster win, 0 busted, spent 0); nothing accumulated yet. Every
    # completion of the alternative busts at least one more edge, and a
    # loss cannot dominate the quit-now Fixer win
    assert not arena.dominated(arena.graph_mask, arena.reserve_mask, 0 - 0, Fraction(0 - 0), False)


def test_dominates_buster_win_within_budget(triangle):
    # target (Buster win, 4 busted, spent 1); alternative line busted 2, spent 3
    arena = _Arena(apply_round(triangle, frozenset({"e1", "e2"}), frozenset({"e4", "e5"})))
    assert arena.dominated(arena.graph_mask, arena.reserve_mask, 4 - 2, Fraction(1 - 3), False)


def _nonempty_submasks(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _reference_dominated(arena, graph_mask, reserve_mask, bust_budget, spend_floor, target_win):
    """The budgeted reachability game as a generator loop with ``all``, and no memo."""
    pool = (graph_mask | reserve_mask).bit_count()
    if bust_budget < 0:
        return False
    if bust_budget > pool:
        bust_budget = pool
    if spend_floor > arena.weight_of(reserve_mask):
        return False
    if spend_floor < 0:
        spend_floor = 0
    if target_win and spend_floor == 0:
        return True
    for bust in _nonempty_submasks(graph_mask):
        size = bust.bit_count()
        if size > bust_budget:
            continue
        left = graph_mask ^ bust
        if not arena.connected(left | reserve_mask):
            if spend_floor == 0:
                return True
            continue
        if all(
            _reference_dominated(arena, left | fix, reserve_mask ^ fix, bust_budget - size, spend_floor - w, target_win)
            for fix, w in arena.responses(left, reserve_mask)
        ):
            return True
    return False


def _submasks(mask):
    return [sub for sub in range(mask + 1) if sub & mask == sub]


def test_dominated_equals_a_memo_free_reference():
    # every instance of the (3, 4) corpus; every (graph, reserve) pair the
    # game can pass to dominated: a reserve mask inside the reserve and a
    # disjoint graph mask spanning the vertices (alternative lines and every
    # recursive call reconnect); budgets -1..pool+1 (0 included), floors
    # -1..w(R)+1 and both target_win values. Fraction floors enter a fresh
    # arena at the initial position, and its searches carry them down.
    queries = fractional = 0
    for p in generate_instances(3, 4, (0, 1, 2)):
        arena, exact = _Arena(p), _Arena(p)
        every_edge = (1 << len(arena.edges)) - 1
        grid = [
            (graph_mask, reserve_mask, budget, floor, win)
            for reserve_mask in reversed(_submasks(arena.reserve_mask))
            for graph_mask in reversed(_submasks(every_edge ^ reserve_mask))
            if arena.connected(graph_mask)
            for budget in range(-1, (graph_mask | reserve_mask).bit_count() + 2)
            for floor in range(-1, arena.weight_of(reserve_mask) + 2)
            for win in (False, True)
        ]
        expected = [_reference_dominated(arena, *query) for query in grid]
        assert [arena.dominated(*query) for query in grid] == expected
        initial = [i for i, query in enumerate(grid) if query[:2] == (arena.graph_mask, arena.reserve_mask)]
        assert [exact.dominated(g, r, b, Fraction(f), w) for g, r, b, f, w in map(grid.__getitem__, initial)] == [
            expected[i] for i in initial
        ]
        queries, fractional = queries + len(grid), fractional + len(initial)
    assert queries > 900_000 and fractional > 90_000


def test_verify_optimal_worked_example(triangle):
    busted = frozenset({"e1", "e2"})
    assert verify_optimal(triangle, busted, frozenset({"e4"}))
    assert not verify_optimal(triangle, busted, frozenset({"e5"}))
    assert not verify_optimal(triangle, busted, frozenset({"e4", "e5"}))


@pytest.mark.parametrize("bridge_only", [True, False])
def test_verify_optimal_report_worked_example_witnesses(triangle, bridge_only):
    busted = frozenset({"e1", "e2"})
    report = lambda c: verify_optimal_report(triangle, busted, frozenset(c), bridge_only=bridge_only)
    assert report({"e4"}).optimal
    assert report({"e5"}).failing_outcome == OutcomeTriple(True, 2, Fraction(2))
    assert report({"e5"}).failing_alternative == frozenset({"e4"})
    assert report({"e4", "e5"}).failing_outcome == OutcomeTriple(True, 2, Fraction(3))
    assert report({"e4", "e5"}).failing_alternative == frozenset({"e4"})


def _strategy_outcomes(p, memo):
    """Every continuation strategy's outcome set at ``p``, as (win, busted, spent) relative to ``p``.

    Built from the public round functions alone, with no verifier code: a
    strategy answers each Buster move with one legal fix and a strategy
    after it, and its outcomes are the quit here and every outcome below.
    """
    if p in memo:
        return memo[p]
    strategies = {frozenset({(True, 0, Fraction(0))})}
    for busted in enumerate_buster_moves(p):
        if buster_wins(p, busted):
            options = {frozenset({(False, len(busted), Fraction(0))})}
        else:
            options = {
                frozenset((win, b + len(busted), c + p.reserve.weight(fix)) for win, b, c in child)
                for fix in enumerate_fixer_responses(p, busted)
                for child in _strategy_outcomes(apply_round(p, busted, fix), memo)
            }
        strategies = {s | o for s in strategies for o in options}
    memo[p] = strategies
    return strategies


def test_not_optimal_witnesses_are_sound_by_brute_force():
    # every NOT-OPTIMAL report on the (3, 4) corpus, both prune settings: the failing outcome is an
    # outcome of some strategy after the candidate, and some strategy after the failing alternative
    # has no outcome it dominates
    memo, checked = {}, 0

    def after(p, busted, fix):
        spent = p.reserve.weight(fix)
        return [
            {OutcomeTriple(win, b + len(busted), c + spent) for win, b, c in s}
            for s in _strategy_outcomes(apply_round(p, busted, fix), memo)
        ]

    for p in generate_instances(3, 4, (0, 1, 2)):
        for busted, candidate, bridge_only in _every_check(p):
            report = verify_optimal_report(p, busted, candidate, bridge_only=bridge_only)
            if report.optimal:
                continue
            checked += 1
            outcome = report.failing_outcome
            assert any(outcome in s for s in after(p, busted, candidate)), (p, busted, candidate)
            assert any(
                not any(fixer_superior(outcome, other) for other in s)
                for s in after(p, busted, report.failing_alternative)
            ), (p, busted, candidate)
    assert checked == 3786


def _every_check(p):
    for busted in enumerate_buster_moves(p):
        if buster_wins(p, busted):
            continue
        for candidate in enumerate_fixer_responses(p, busted):
            for bridge_only in (True, False):
                yield busted, candidate, bridge_only


def _assert_shared_arena_changes_nothing(positions):
    """Check every verdict and witness on one arena per position against a fresh report.

    The shared arena is used the way the sweep uses it: the arena's memos
    serve every check on the position, and one ``_Adjudication`` per bust
    and prune setting serves every candidate against that bust. Returns
    the fresh reports' sha256.
    """
    digest = hashlib.sha256()
    for p in positions:
        arena, jobs = _Arena(p), {}
        for busted, candidate, bridge_only in _every_check(p):
            fresh = verify_optimal_report(p, busted, candidate, bridge_only=bridge_only)
            walk = engine._Walk(arena)
            walk.bust(busted)
            left = walk.graph
            walk.fix(candidate)
            if (left, bridge_only) not in jobs:
                jobs[left, bridge_only] = _Adjudication(arena, left, bridge_only)
            job = jobs[left, bridge_only]
            ok, failure = job.survives(walk.graph, walk.reserve)
            assert (ok, len(job.alt_lines)) == (fresh.optimal, fresh.alternatives)
            if not ok:
                win, total_busted, spent, alt = failure
                assert OutcomeTriple(win, total_busted, Fraction(spent, arena.scale)) == fresh.failing_outcome
                assert arena.ids_of(alt) == fresh.failing_alternative
            outcome, alt = fresh.failing_outcome, fresh.failing_alternative
            digest.update(repr((
                sorted(busted), sorted(candidate), bridge_only, fresh.optimal, fresh.alternatives,
                outcome and (outcome.fixer_win, outcome.total_busted, str(outcome.fix_cost)),
                alt if alt is None else sorted(alt),
            )).encode())
    return digest.hexdigest()


def test_shared_cache_reports_equal_fresh_reports():
    # one arena per instance, shared by all its checks: reusing its memos
    # and each bust's adjudication must not move a verdict or witness, and
    # every fresh verdict and witness is pinned by hash
    digest = _assert_shared_arena_changes_nothing(generate_instances(3, 4, (0, 1, 2)))
    assert digest == "2ce540bdeebf3c34a27a45f2f96fe9f73a9475cb13d699b167776e24156e7ca0"


@PROPERTY
@given(instances(max_vertices=3, max_total_edges=5))
def test_shared_cache_reports_equal_fresh_reports_fractional(p):
    # weights with denominators 2 and 3 give arenas of scale 2, 3 and 6
    _assert_shared_arena_changes_nothing([p])


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


def test_theorem_sweep_caps_reserve_subsets_before_enumerating(monkeypatch):
    # the same 13 parallel reserve edges: the sweep must raise the cap
    # before it lists the 2**13 reserve submasks as its converse responses
    p = Position(
        graph=Multigraph(2, (Edge("a", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, tuple(Edge(f"r{i:02}", 0, 1, Fraction(1)) for i in range(13))),
    )
    calls = 0
    connected = EdgeIndex.connected

    def counting(self, mask):
        nonlocal calls
        calls += 1
        return connected(self, mask)

    monkeypatch.setattr(EdgeIndex, "connected", counting)
    with pytest.raises(CapExceededError, match="reserve subsets"):
        theorem_sweep([p], Caps(max_total_edges=16))
    assert calls < 100


def test_theorem_sweep_caps_total_edges_before_enumerating(monkeypatch):
    # a path with no reserve: every Buster move wins the round, so no
    # verifier call would ever see the position; the cap must still raise
    # before any move is enumerated
    p = Position(
        graph=Multigraph(4, tuple(Edge(f"g{i}", i, i + 1, Fraction(1)) for i in range(3))),
        reserve=Multigraph(4, ()),
    )

    def never(*args):
        raise AssertionError("moves enumerated before the total-edge cap")

    monkeypatch.setattr(adjudicator, "_move_masks", never)
    with pytest.raises(CapExceededError, match="3 edges, cap is 2"):
        theorem_sweep([p], Caps(max_total_edges=2))


def test_theorem_sweep_checks_greedy_responses_legal(triangle, monkeypatch):
    # a greedy list that does not reconnect must be refused by the kernel's
    # check against the arena's legal responses, not adjudicated; the empty
    # tree is legal after busting e1 alone, not after busting e1 and e2
    fake = [SimpleNamespace(edge_ids=frozenset(), total_weight=Fraction(0))]
    monkeypatch.setattr(adjudicator, "all_msts", lambda *args: fake)
    with pytest.raises(IllegalMoveError, match=r"^greedy tree \[\] is not legal after bust \['e1', 'e2'\]$"):
        theorem_sweep([triangle])


def test_theorem_sweep_refuses_a_greedy_tree_that_names_a_graph_edge(triangle, monkeypatch):
    # adding the busted e1 back would reconnect, but a response takes reserve edges only
    fake = [SimpleNamespace(edge_ids=frozenset({"e1"}), total_weight=Fraction(1))]
    monkeypatch.setattr(adjudicator, "all_msts", lambda *args: fake)
    with pytest.raises(IllegalMoveError, match=r"^greedy tree \['e1'\] is not legal after bust \['e1'\]$"):
        theorem_sweep([triangle])


def _class_of(p):
    """The isomorphism class of ``p`` up to graph weights: its vertex count and brute-force form."""
    triples = [(0, e.u, e.v, 0) for e in p.graph] + [(1, e.u, e.v, e.weight) for e in p.reserve]
    return p.graph.vertex_count, brute_force_form(p.graph.vertex_count, triples)


def _post_bust_representatives(corpus):
    """(index, bust) of the first non-winning move of the class representatives to leave each class of position."""
    first, leaves = {}, {}
    for index, p in enumerate(corpus):
        if first.setdefault(_class_of(p), p) is p:
            for busted in enumerate_buster_moves(p):
                if not buster_wins(p, busted):
                    left = Position(graph=p.graph.without(busted), reserve=p.reserve)
                    leaves.setdefault(_class_of(left), (index, busted))
    return list(leaves.values())


def test_theorem_sweep_runs_all_msts_once_per_adjudicated_move(monkeypatch):
    # each adjudicated move, one per post-bust class whatever the input
    # order, builds its own greedy list, and the greedy tally equals one
    # fresh greedy list per move
    forward = list(generate_instances(3, 4, (0, 1, 2)))
    greedy_checked, moves = 0, 0
    for p in forward:
        for busted in enumerate_buster_moves(p):
            moves += 1
            if buster_wins(p, busted):
                greedy_checked += 1
                continue
            remaining = p.graph.without(busted)
            greedy_checked += len({t.edge_ids for t in all_msts(contract(remaining, p.reserve.edges))})
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return all_msts(*args)

    monkeypatch.setattr(adjudicator, "all_msts", counting)
    for corpus in (forward, forward[::-1]):
        calls = 0
        report = theorem_sweep(corpus)
        assert report.ok and (report.moves, report.greedy_checked) == (moves, greedy_checked)
        assert calls == len(_post_bust_representatives(corpus)) == 291


def test_theorem_sweep_walks_move_masks_and_names_only_adjudicated_moves(monkeypatch):
    # the sweep neither lists moves as id sets nor plays a round on ids: its
    # kernel sees the first move to leave each class of position, in move
    # order, and checks its greedy trees against the arena's legal responses
    corpus = list(generate_instances(3, 4, (0, 1, 2)))
    expected = [(corpus[index], busted) for index, busted in _post_bust_representatives(corpus)]
    calls = dict.fromkeys(("enumerate_buster_moves", "_Walk"), 0)

    def counted(name, *modules):
        original = getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in modules:  # every binding the sweep could call it through
            monkeypatch.setattr(module, name, counting, raising=False)

    counted("enumerate_buster_moves", engine, adjudicator)
    counted("_Walk", adjudicator)
    adjudicated, kernel = [], adjudicator._adjudicate_move

    def recording(arena, bust, *args):
        adjudicated.append((arena.position, arena.ids_of(bust)))
        return kernel(arena, bust, *args)

    monkeypatch.setattr(adjudicator, "_adjudicate_move", recording)
    assert theorem_sweep(corpus).ok
    assert calls == {"enumerate_buster_moves": 0, "_Walk": 0}
    assert len(adjudicated) == 291 and adjudicated == expected


def _tallies(report):
    return (
        report.instances,
        report.moves,
        report.greedy_checked,
        report.responses_checked,
        len(report.counterexamples),
        len(report.prune_mismatches),
    )


def _counting_arenas(monkeypatch):
    """Wrap ``_Arena``; the returned list gets each position an arena is built for."""
    built, arena = [], adjudicator._Arena

    def counting(p, caps):
        built.append(p)
        return arena(p, caps)

    monkeypatch.setattr(adjudicator, "_Arena", counting)
    return built


def test_theorem_sweep_adjudicates_one_instance_per_class(monkeypatch):
    # later members of a class are credited with the first member's tallies
    # and build no arena; a first member builds one only when some move of it
    # leaves a position of a new class, Buster-win moves included; the report
    # is the sum of one-instance sweeps
    corpus = list(generate_instances(3, 4, (0, 1, 2)))
    singles = [_tallies(theorem_sweep([p], compare_prune=True)) for p in corpus]
    arenas = _counting_arenas(monkeypatch)
    report = theorem_sweep(corpus, compare_prune=True)
    first, left, expected = {}, set(), []
    for p in corpus:
        if first.setdefault(_class_of(p), p) is p:
            moves = enumerate_buster_moves(p)
            posts = {_class_of(Position(graph=p.graph.without(b), reserve=p.reserve)) for b in moves}
            if posts - left:
                expected.append(p)
            left |= posts
    assert (len(corpus), len(first), len(expected)) == (1_415, 471, 375)
    assert all(a is b for a, b in zip(arenas, expected, strict=True))
    assert _tallies(report) == tuple(map(sum, zip(*singles)))


@st.composite
def _copies(draw):
    """A drawn instance, its copy under a drawn vertex relabelling and id order, and the copy with one edge changed.

    The change replaces one reserve edge by a drawn one; with an empty reserve the changed copy is the copy.
    """
    p = draw(instances(max_vertices=4, max_total_edges=6))
    n = p.graph.vertex_count
    perm = draw(st.permutations(range(n)))

    def copied(pool, prefix):
        order = draw(st.permutations(range(len(pool))))
        return Multigraph(n, tuple(Edge(f"{prefix}{k}", perm[e.u], perm[e.v], e.weight) for k, e in zip(order, pool)))

    q = Position(graph=copied(p.graph, "h"), reserve=copied(p.reserve, "s"))
    edited = q
    if len(q.reserve):
        old = q.reserve.edges[draw(st.integers(0, len(q.reserve) - 1))]
        vertex = st.integers(0, n - 1)
        new = Edge(old.id, draw(vertex), draw(vertex), draw(FRACTIONAL))
        edited = Position(graph=q.graph, reserve=q.reserve.without({old.id}).with_edges([new]))
    return p, q, edited


@PROPERTY
@given(_copies())
def test_theorem_sweep_walks_a_relabelled_copy_only_when_its_class_differs(copies):
    # the keying that runs: a relabelled, renamed copy is credited without a
    # walk of its moves, and a copy with one reserve edge changed is walked
    # exactly when its brute-force class differs; each report is the sum of
    # one-instance sweeps
    p, q, edited = copies
    mine = _tallies(theorem_sweep([p]))
    with patch.object(adjudicator, "_move_masks", wraps=adjudicator._move_masks) as walks:
        report = theorem_sweep([p, q])
    assert walks.call_count == 1
    assert _tallies(report) == tuple(2 * t for t in mine)
    with patch.object(adjudicator, "_move_masks", wraps=adjudicator._move_masks) as walks:
        report = theorem_sweep([p, edited])
    assert walks.call_count == 1 + (_class_of(edited) != _class_of(p))
    assert _tallies(report) == tuple(map(sum, zip(mine, _tallies(theorem_sweep([edited])))))


@st.composite
def _reserve_shapes(draw):
    """A connected graph on 1-3 vertices with 1-3 reserve edges' endpoints, at most 5 edges in all."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), min_size=n == 1, max_size=5 - len(ends) - len(pairs)))
    return Multigraph(n, tuple(Edge(f"g{i}", u, v, Fraction(1)) for i, (u, v) in enumerate(pairs))), ends


def _weak_order(weights):
    """Each reserve subset's rank among the distinct subset sums: it fixes the sign of every w(A) - w(B)."""
    sums = [sum(w for w, bit in zip(weights, subset) if bit) for subset in product((0, 1), repeat=len(weights))]
    distinct = sorted(set(sums))
    return tuple(map(distinct.index, sums))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(_reserve_shapes())
def test_theorem_sweep_depends_on_reserve_weights_only_through_their_weak_order(shape):
    # every weighting in {0..4}^k of the drawn reserve, grouped by the weak
    # order of its subset sums: two members of a group sweep to equal clean
    # tallies and get equal verdicts on every legal (move, response) pair
    graph, ends = shape
    groups = {}
    for weights in product(range(5), repeat=len(ends)):
        groups.setdefault(_weak_order(weights), []).append(weights)

    def position(weights):
        reserve = (Edge(f"r{i}", u, v, Fraction(w)) for i, ((u, v), w) in enumerate(zip(ends, weights)))
        return Position(graph, Multigraph(graph.vertex_count, tuple(reserve)))

    for first, *_, last in (g for g in groups.values() if len(g) > 1):
        p, q = position(first), position(last)
        mine, theirs = theorem_sweep([p], compare_prune=True), theorem_sweep([q], compare_prune=True)
        assert mine.ok and theirs.ok and _tallies(mine) == _tallies(theirs), (first, last)
        for busted in enumerate_buster_moves(p):
            for fixed in [] if buster_wins(p, busted) else enumerate_fixer_responses(p, busted):
                assert verify_optimal(p, busted, fixed) == verify_optimal(q, busted, fixed), (first, last, busted, fixed)


def _past_the_cap_tree():
    """A path on 8 vertices: its 8! relabellings exceed the default cap."""
    return Position(
        graph=Multigraph(8, tuple(Edge(f"g{v}", v, v + 1, 1) for v in range(7))),
        reserve=Multigraph(8, ()),
    )


def test_theorem_sweep_adjudicates_each_copy_past_the_relabelling_cap(monkeypatch):
    # 8! relabellings exceed the default cap: the tree is swept, never shared, never refused
    tree = _past_the_cap_tree()
    arenas = _counting_arenas(monkeypatch)
    report = theorem_sweep([tree, tree])
    assert len(arenas) == 2
    assert _tallies(report) == (2, 2 * 127, 2 * 127, 0, 0, 0)


def test_theorem_sweep_keys_alike_however_graph_objects_are_shared(monkeypatch):
    # the sweep sums a graph's relabellings once per graph mask while consecutive
    # instances share its graph object; every graph rebuilt as its own equal
    # object, a shuffled order, an unkeyed instance between two instances of
    # one graph object, or a relabelling that fails once on a shared graph
    # must not move a report off the sum of one-instance sweeps
    corpus = list(generate_instances(3, 4, (0, 1, 2)))
    rebuilt = [Position(graph=Multigraph(p.graph.vertex_count, p.graph.edges), reserve=p.reserve) for p in corpus]
    assert all(a == b and a.graph is not b.graph for a, b in zip(corpus, rebuilt))
    cut = next(i for i in range(1, len(corpus)) if corpus[i].graph is corpus[i - 1].graph)
    tree = _past_the_cap_tree()
    singles = {p: _tallies(theorem_sweep([p], compare_prune=True)) for p in (*corpus, tree)}
    built, adjudication = [], adjudicator._Adjudication

    def recording(arena, left, bridge_only):
        built[-1].append((arena.position, left, bridge_only))
        return adjudication(arena, left, bridge_only)

    monkeypatch.setattr(adjudicator, "_Adjudication", recording)
    orders = corpus, rebuilt, random.Random(5).sample(corpus, len(corpus)), [*corpus[:cut], tree, *corpus[cut:]]
    for order in orders:
        built.append([])
        report = theorem_sweep(order, compare_prune=True)
        assert _tallies(report) == tuple(map(sum, zip(*(singles[p] for p in order))))
    assert built[0] == built[1] and len(built[0]) == 2 * 291
    # the first relabelling of the graph that corpus[cut - 1] and corpus[cut]
    # share fails: the slot must not hold that graph without its sums
    relabel, failed = adjudicator.relabelling_sums, []

    def failing_once(n, edges, *args):
        edges = list(edges)
        if not failed and edges == [(0, e.u, e.v) for e in corpus[cut].graph]:
            failed.append(edges)
            raise CapExceededError("once")
        return relabel(n, edges, *args)

    monkeypatch.setattr(adjudicator, "relabelling_sums", failing_once)
    report = theorem_sweep(corpus, compare_prune=True)
    assert failed and _tallies(report) == tuple(map(sum, zip(*(singles[p] for p in corpus))))


def test_generate_instances_yields_each_graph_object_in_one_run():
    # the sweep sums a graph's relabellings once per run of consecutive instances
    # that share its graph object: a generator that split a graph's instances
    # into several runs would slow the sweep without changing a report
    corpus = list(generate_instances(3, 5, (0, 1, 2)))
    runs = [graph for graph, _ in groupby(corpus, key=lambda p: id(p.graph))]
    assert len(corpus) == 10_015 and len(runs) == len(set(runs)) == 236


def _flip_verdicts(monkeypatch, settings):
    """Flip every root verdict of the ``bridge_only`` settings given.

    Returns a dict that counts the ``_Adjudication``s built (``"jobs"``) and
    the flipped root verdicts (``"roots"``).
    """
    adjudication, counts = adjudicator._Adjudication, {"jobs": 0, "roots": 0}

    class Flipped:
        def __init__(self, job):
            self.job = job

        def survives(self, graph_mask, reserve_mask):
            counts["roots"] += 1
            ok, failure = self.job.survives(graph_mask, reserve_mask)
            return not ok, failure

    def flipping(arena, left, bridge_only):
        counts["jobs"] += 1
        job = adjudication(arena, left, bridge_only)
        return Flipped(job) if bridge_only in settings else job

    monkeypatch.setattr(adjudicator, "_Adjudication", flipping)
    return counts


def test_theorem_sweep_records_a_prune_mismatch_per_check(monkeypatch):
    # flip every unpruned root verdict: compare_prune must record exactly one
    # mismatch per adjudicated check, and the pruned verdicts stay clean
    corpus = list(generate_instances(max_vertices=2, max_total_edges=4, reserve_weights=(0, 1)))
    counts = _flip_verdicts(monkeypatch, {False})
    report = theorem_sweep(corpus, compare_prune=True)
    lost_rounds = sum(buster_wins(p, b) for p in corpus for b in enumerate_buster_moves(p))
    checks = report.greedy_checked + report.responses_checked - lost_rounds
    assert report.counterexamples == []
    assert len(report.prune_mismatches) == counts["roots"] == checks > 0
    assert {ce.kind for ce in report.prune_mismatches} == {"prune-mismatch"}
    # each label names the pruned verdict, which a fresh pruned verifier call gives
    for ce in report.prune_mismatches:
        pruned = verify_optimal(ce.instance, ce.busted, ce.response)
        assert ce.detail == f"pruned={pruned} full={not pruned}"


def test_theorem_sweep_summary_lists_each_failure(monkeypatch):
    # one graph edge beside reserve edges of weights 1 and 2: with every pruned
    # verdict flipped the greedy fix fails, the two dearer fixes pass, and every
    # check disagrees with its unpruned verdict; counterexamples are listed first
    p = Position(
        graph=Multigraph(2, (Edge("g", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, (Edge("r1", 0, 1, Fraction(1)), Edge("r2", 0, 1, Fraction(2)))),
    )
    _flip_verdicts(monkeypatch, {True})
    report = theorem_sweep([p], compare_prune=True)
    assert not report.ok
    assert report.summary() == "\n".join([
        "instances: 1",
        "buster moves checked: 1",
        "greedy responses verified optimal: 1",
        "alternative responses checked: 2",
        "counterexamples: 3",
        "prune mismatches: 3",
        "  greedy-not-optimal: busted=['g'] response=['r1'] weight 1",
        "  non-minimum-optimal: busted=['g'] response=['r2'] weight 2 > minimum 1",
        "  non-minimum-optimal: busted=['g'] response=['r1', 'r2'] weight 3 > minimum 1",
        "  prune-mismatch: busted=['g'] response=['r1'] pruned=False full=True",
        "  prune-mismatch: busted=['g'] response=['r2'] pruned=True full=False",
        "  prune-mismatch: busted=['g'] response=['r1', 'r2'] pruned=True full=False",
    ])


def test_theorem_sweep_counts_an_empty_graph_as_an_instance_without_moves(monkeypatch):
    # Buster has no move on a graph without edges: the instance counts, and no arena is built
    lone = Position(graph=Multigraph(1, ()), reserve=Multigraph(1, ()))
    arenas = _counting_arenas(monkeypatch)
    assert _tallies(theorem_sweep([lone], compare_prune=True)) == (1, 0, 0, 0, 0, 0)
    assert arenas == []


def test_theorem_sweep_adjudicates_one_move_per_post_bust_class(monkeypatch):
    # across the class representatives, a non-winning bust that leaves a
    # position isomorphic to one an earlier clean move left is credited with
    # its tallies and builds no _Adjudication; the report is the sum of
    # one-instance sweeps
    corpus = list(generate_instances(3, 4, (0, 1, 2)))
    singles = [_tallies(theorem_sweep([p], compare_prune=True)) for p in corpus]
    classes = _post_bust_representatives(corpus)
    counts = _flip_verdicts(monkeypatch, set())
    report = theorem_sweep(corpus, compare_prune=True)
    non_winning = sum(not buster_wins(p, b) for p in corpus for b in enumerate_buster_moves(p))
    assert counts["jobs"] == 2 * len(classes) == 2 * 291 < non_winning
    assert _tallies(report) == tuple(map(sum, zip(*singles)))
    # with every verdict flipped each move fails, so none is shared, and the
    # failures are listed as a sweep that shares nothing lists them
    monkeypatch.undo()
    counts = _flip_verdicts(monkeypatch, {False, True})
    flipped = theorem_sweep(corpus, compare_prune=True)
    assert counts["jobs"] == 2 * non_winning
    counts["jobs"] = 0
    monkeypatch.setattr(adjudicator, "relabelling_sums", Mock(side_effect=CapExceededError("unkeyed")))
    unshared = theorem_sweep(corpus, compare_prune=True)
    assert counts["jobs"] == 2 * non_winning
    assert flipped.counterexamples == unshared.counterexamples and len(flipped.counterexamples) > non_winning
    assert flipped.prune_mismatches == unshared.prune_mismatches == []


def test_adjudicate_move_returns_what_the_first_move_of_its_class_returns():
    # the sweep credits a move with the return of the first move that left
    # its class of position: check that per move, each on its instance's
    # own arena, and that the return survives a pickle round trip
    first, adjudicated = {}, 0
    for p in generate_instances(3, 4, (0, 1, 2)):
        arena = _Arena(p)
        for busted in enumerate_buster_moves(p):
            if _left(arena, busted) is None:
                continue
            got = _adjudicate_move(arena, arena.mask_of(busted), (True, False), Caps())
            assert pickle.loads(pickle.dumps(got)) == got
            post = Position(graph=p.graph.without(busted), reserve=p.reserve)
            assert first.setdefault(_class_of(post), got) == got
            adjudicated += 1
    assert len(first) == 291 < adjudicated
    assert all(greedy > 0 and failures == [] for greedy, _, failures in first.values())


def test_adjudicate_move_returns_its_failures_in_the_order_met(monkeypatch):
    # the summary test's instance, pruned verdicts flipped: each response's
    # prune mismatch comes before its counterexample, responses greedy first
    p = Position(
        graph=Multigraph(2, (Edge("g", 0, 1, Fraction(1)),)),
        reserve=Multigraph(2, (Edge("r1", 0, 1, Fraction(1)), Edge("r2", 0, 1, Fraction(2)))),
    )
    _flip_verdicts(monkeypatch, {True})
    arena = _Arena(p)
    got = _adjudicate_move(arena, arena.mask_of({"g"}), (True, False), Caps())
    assert pickle.loads(pickle.dumps(got)) == got == (1, 2, [
        ("prune-mismatch", frozenset({"r1"}), "pruned=False full=True"),
        ("greedy-not-optimal", frozenset({"r1"}), "weight 1"),
        ("prune-mismatch", frozenset({"r2"}), "pruned=True full=False"),
        ("non-minimum-optimal", frozenset({"r2"}), "weight 2 > minimum 1"),
        ("prune-mismatch", frozenset({"r1", "r2"}), "pruned=True full=False"),
        ("non-minimum-optimal", frozenset({"r1", "r2"}), "weight 3 > minimum 1"),
    ])
    # with the pruned setting alone there is nothing to compare
    assert _adjudicate_move(arena, arena.mask_of({"g"}), (True,), Caps())[2] == [
        ("greedy-not-optimal", frozenset({"r1"}), "weight 1"),
        ("non-minimum-optimal", frozenset({"r2"}), "weight 2 > minimum 1"),
        ("non-minimum-optimal", frozenset({"r1", "r2"}), "weight 3 > minimum 1"),
    ]


def _parallel(n_graph, weights=(), reserve_weight=1):
    """``n_graph`` parallel graph edges between vertices 0 and 1, the first ones of the given weights, and one reserve edge."""
    weights = (*weights, *[1] * (n_graph - len(weights)))
    return Position(
        graph=Multigraph(2, tuple(Edge(f"g{i}", 0, 1, Fraction(w)) for i, w in enumerate(weights))),
        reserve=Multigraph(2, (Edge("r", 0, 1, Fraction(reserve_weight)),)),
    )


def test_theorem_sweep_shares_a_post_bust_class_across_instances(monkeypatch):
    # two and three parallel edges are not isomorphic, but busting two of
    # the three leaves what busting one of the two leaves, and busting all
    # leaves the reserve alone in both: the second instance adjudicates only
    # its single busts, which leave two parallel edges
    two, three = _parallel(2), _parallel(3)
    assert _class_of(two) != _class_of(three)
    singles = [_tallies(theorem_sweep([p], compare_prune=True)) for p in (two, three)]
    counts = _flip_verdicts(monkeypatch, set())
    report = theorem_sweep([two, three], compare_prune=True)
    assert counts["jobs"] == 2 * (2 + 1)
    assert report.ok and _tallies(report) == tuple(map(sum, zip(*singles)))
    # a different reserve weight makes a different position: nothing is shared
    counts["jobs"] = 0
    report = theorem_sweep([two, _parallel(3, reserve_weight=2)], compare_prune=True)
    assert counts["jobs"] == 2 * (2 + 3)


def test_theorem_sweep_keys_post_bust_classes_on_exact_weights(monkeypatch):
    # a graph edge of weight 1/3 makes an arena's scale 3, so its reserve
    # edge weighs 3 there against 1 in a unit arena, yet graph weights never
    # enter a key: two unit edges and edges of weights 1/3 and 1 are one
    # class, and busting two of three edges of weights 1/3, 1 and 1 leaves
    # the class that busting one of two unit edges leaves
    two, third, three = _parallel(2), _parallel(2, (Fraction(1, 3),)), _parallel(3, (Fraction(1, 3),))
    assert _Arena(two).scale == 1 and _Arena(third).scale == _Arena(three).scale == 3
    counts = _flip_verdicts(monkeypatch, set())
    for corpus, jobs in (([two, third], 2 * 2), ([two, three], 2 * (2 + 1))):
        singles = [_tallies(theorem_sweep([p], compare_prune=True)) for p in corpus]
        counts["jobs"] = 0
        report = theorem_sweep(corpus, compare_prune=True)
        assert counts["jobs"] == jobs
        assert report.ok and _tallies(report) == tuple(map(sum, zip(*singles)))


def test_theorem_sweep_merges_busts_of_parallel_edges_of_unequal_weight(monkeypatch):
    # parallel graph edges of weights 1/2 and 1/3 differ only in weight,
    # which enters no verdict, so the busts {a} and {b} leave one class of
    # position and {a, b} another
    p = Position(
        graph=Multigraph(2, (Edge("a", 0, 1, Fraction(1, 2)), Edge("b", 0, 1, Fraction(1, 3)))),
        reserve=Multigraph(2, (Edge("r", 0, 1, Fraction(1)),)),
    )
    counts = _flip_verdicts(monkeypatch, set())
    report = theorem_sweep([p], compare_prune=True)
    assert counts["jobs"] == 2 * len(_post_bust_representatives([p])) == 2 * 2
    assert report.ok and report.moves == 3


def test_arena_ordered_responses_memo_equals_a_fresh_arena():
    checked = 0
    for p in generate_instances(3, 4, (0, 1, 2)):
        arena = _Arena(p)
        for busted in enumerate_buster_moves(p):
            left = _left(arena, busted)
            if left is None:
                continue
            for bridge_only in (False, True, False, True):
                # an adjudication of either setting reads the memoized list and leaves it whole
                _Adjudication(arena, left, bridge_only)
                cached = arena.ordered_responses(left)
                assert cached == _Arena(p).ordered_responses(left)
                assert list(cached) == sorted(cached, key=lambda line: (line[1], sorted(arena.ids_of(line[0]))))
                checked += 1
    assert checked > 1000


def test_bridge_only_alternatives_are_the_contracted_spanning_trees():
    # the pruned alternatives are the spanning trees of the contracted graph,
    # which reconnect enumerates without the arena, in the full list's order
    checked = 0
    for p in generate_instances(3, 4, (0, 1, 2)):
        arena = _Arena(p)
        for busted in enumerate_buster_moves(p):
            left = _left(arena, busted)
            if left is None:
                continue
            trees = {t.edge_ids for t in all_spanning_trees(contract(p.graph.without(busted), p.reserve.edges))}
            alts = [arena.ids_of(alt) for alt, *_ in _Adjudication(arena, left, True).alt_lines]
            assert alts == [arena.ids_of(m) for m, _ in arena.ordered_responses(left) if arena.ids_of(m) in trees]
            assert set(alts) == trees
            checked += 1
    assert checked > 1000


def test_verify_optimal_naive_agrees_on_worked_example(triangle):
    busted = frozenset({"e1", "e2"})
    for candidate in [{"e4"}, {"e5"}, {"e4", "e5"}]:
        assert verify_optimal_naive(triangle, busted, frozenset(candidate)) == verify_optimal(
            triangle, busted, frozenset(candidate)
        )


_OPTION_SETS = st.frozensets(st.integers(0, 5), max_size=3)


@PROPERTY
@given(_OPTION_SETS, st.lists(st.lists(_OPTION_SETS, max_size=3), max_size=4))
def test_distinct_unions_matches_the_product(base, option_lists):
    folded = _distinct_unions(base, option_lists)
    assert len(folded) == len(set(folded))
    assert set(folded) == {base.union(*combo) for combo in product(*option_lists)}


def test_oracle_agreement_six_edge_triangle():
    # triangle a-b-c with a parallel reserve edge beside each side; with the
    # naive cap raised to 6 both verifiers agree on every non-winning bust
    # and every legal response
    graph = Multigraph(
        3, (Edge("a", 0, 1, Fraction(1)), Edge("b", 1, 2, Fraction(1)), Edge("c", 0, 2, Fraction(1)))
    )
    reserve = Multigraph(
        3, (Edge("r0", 0, 1, Fraction(0)), Edge("r1", 1, 2, Fraction(1)), Edge("r2", 0, 2, Fraction(2)))
    )
    p = Position(graph=graph, reserve=reserve)
    caps = Caps(naive_max_total_edges=6)
    verdicts = []
    for busted in enumerate_buster_moves(p):
        if buster_wins(p, busted):
            continue
        for candidate in enumerate_fixer_responses(p, busted):
            expected = verify_optimal_naive(p, busted, candidate, caps)
            assert verify_optimal(p, busted, candidate, caps) == expected
            assert verify_optimal(p, busted, candidate, caps, bridge_only=False) == expected
            verdicts.append(expected)
    assert len(verdicts) == 46
    assert True in verdicts and False in verdicts


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
    # spending while still connected wastes weight and is not optimal; the
    # witness is the empty response, mask 0 inside the search
    assert not verify_optimal(triangle, frozenset({"e1"}), frozenset({"e4"}))
    for bridge_only in (True, False):
        result = verify_optimal_report(triangle, frozenset({"e1"}), frozenset({"e4"}), bridge_only=bridge_only)
        assert (result.optimal, result.failing_alternative) == (False, frozenset())


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
    checked = 0
    for p in rng.sample(pool, 60):
        for busted in enumerate_buster_moves(p):
            if buster_wins(p, busted):
                continue
            for candidate in enumerate_fixer_responses(p, busted):
                naive = verify_optimal_naive(p, busted, candidate)
                assert verify_optimal(p, busted, candidate) == naive
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


def test_generate_instances_counts_a_repeated_weight_once():
    # 1 and Fraction(1) are one weight: repeating it must not repeat instances
    once = list(generate_instances(max_vertices=2, max_total_edges=3, reserve_weights=(0, 1)))
    twice = list(generate_instances(max_vertices=2, max_total_edges=3, reserve_weights=(0, 1, Fraction(1))))
    assert twice == once and len(set(twice)) == len(twice) == 65


@pytest.mark.parametrize("weights", [(0.1,), (0, 1, 2.0), ("1",)])
def test_generate_instances_takes_only_exact_weights(weights):
    with pytest.raises(TypeError, match="weight must be an int or a Fraction"):
        next(generate_instances(max_vertices=2, max_total_edges=3, reserve_weights=weights))


def test_generate_instances_counts_and_shape():
    instances = list(generate_instances(max_vertices=2, max_total_edges=3, reserve_weights=(1,)))
    # graphs are connected, pools share ids with nothing overlapping
    for p in instances:
        from busterfixer import is_connected

        assert is_connected(p.graph)
        assert p.total_edges <= 3
    labelled = {
        (p.graph.vertex_count, *(tuple(sorted((min(e.u, e.v), max(e.u, e.v), e.weight) for e in g)) for g in (p.graph, p.reserve)))
        for p in instances
    }
    assert len(labelled) == len(instances)  # one instance per labelled edge multiset


def _reference_instances(max_vertices, max_total_edges, reserve_weights):
    """The generator written plainly: a fresh ``Edge`` for every edge of every instance."""
    weights = tuple(dict.fromkeys(map(Fraction, reserve_weights)))
    for n in range(1, max_vertices + 1):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        reserve_types = [(u, v, w) for (u, v) in pairs for w in weights]
        for graph_size in range(max(1, n - 1), max_total_edges + 1):
            for graph_combo in combinations_with_replacement(pairs, graph_size):
                graph = Multigraph(n, tuple(Edge(f"g{i}", u, v, 1) for i, (u, v) in enumerate(graph_combo)))
                if not is_connected(graph):
                    continue
                for reserve_size in range(max_total_edges - graph_size + 1):
                    for reserve_combo in combinations_with_replacement(reserve_types, reserve_size):
                        reserve = tuple(Edge(f"r{i}", u, v, w) for i, (u, v, w) in enumerate(reserve_combo))
                        yield Position(graph=graph, reserve=Multigraph(n, reserve))


def _pools(p):
    return p.graph.vertex_count, *(tuple((e.id, e.u, e.v, e.weight) for e in pool) for pool in (p.graph, p.reserve))


@pytest.mark.parametrize("args", [(3, 5, (0, 1, 2)), (2, 6, (0, Fraction(1, 2), 1))])
def test_generate_instances_matches_the_plain_generator(args):
    got = list(generate_instances(*args))
    want = list(_reference_instances(*args))
    assert len(got) == len(want) > 6000
    for a, b in zip(got, want):
        assert a == b and _pools(a) == _pools(b)
        assert all(type(e.weight) is Fraction for pool in (a.graph, a.reserve) for e in pool)


def test_generate_instances_shares_its_reserve_edges():
    corpus = list(generate_instances(3, 5, (0, 1, 2)))
    first = {}
    for p in corpus:
        for e in p.reserve:
            assert first.setdefault((p.graph.vertex_count, e), e) is e
    # one Edge per vertex count, slot and (endpoints, weight) type: 4 x 3 on one
    # vertex, 4 x 9 on two and 3 x 18 on three, against 23,226 reserve edges in all
    assert len({id(e) for p in corpus for e in p.reserve}) == len(first) == 12 + 36 + 54
    assert sum(len(p.reserve) for p in corpus) == 23226


def test_generate_instances_streams_its_reserve_multisets():
    # reserve multisets must be drawn lazily: a stored table of every size up
    # to the edge cap grows far faster than the output (past 1 GB on (6, 6))
    tracemalloc.start()
    try:
        count = sum(1 for _ in generate_instances(4, 5, (0, 1, 2)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 22462
    assert peak < 1 << 20


def _relabelled(p, rng):
    """``p`` under a random vertex permutation, with each pool's id order reversed."""
    perm = list(range(p.graph.vertex_count))
    rng.shuffle(perm)
    rename = {}
    for pool in (p.graph, p.reserve):
        ids = [e.id for e in pool]
        rename.update(zip(ids, reversed(ids)))

    def moved(pool):
        return Multigraph(pool.vertex_count, tuple(Edge(rename[e.id], perm[e.u], perm[e.v], e.weight) for e in pool))

    return Position(graph=moved(p.graph), reserve=moved(p.reserve)), rename


def test_verdicts_are_invariant_under_relabelling():
    # a vertex permutation plus reversed ids flips every id tie-break; the
    # verdict and the alternative count must not move (witnesses follow ids)
    rng = random.Random(43)
    checks = 0
    for p in generate_instances(3, 4, (0, 1, 2)):
        q, rename = _relabelled(p, rng)
        for busted in enumerate_buster_moves(p):
            responses = [frozenset()] if buster_wins(p, busted) else enumerate_fixer_responses(p, busted)
            for response in responses:
                for bridge_only in (True, False):
                    mine = verify_optimal_report(p, busted, response, bridge_only=bridge_only)
                    theirs = verify_optimal_report(
                        q, frozenset(map(rename.get, busted)), frozenset(map(rename.get, response)), bridge_only=bridge_only
                    )
                    assert (theirs.optimal, theirs.alternatives) == (mine.optimal, mine.alternatives)
                    checks += 1
    assert checks == 10_896 + 6_468  # reconnectable rounds, then lost rounds' empty responses


@PROPERTY
@given(instances(max_vertices=3, max_total_edges=5), st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3)]))
def test_verify_optimal_report_is_invariant_under_scaling_reserve_weights(p, c):
    # scaling every reserve weight by c changes the arena's scale but no
    # verdict, alternative count or witness ids; the witness's cost scales by c
    scaled = Position(
        graph=p.graph,
        reserve=Multigraph(p.reserve.vertex_count, tuple(Edge(e.id, e.u, e.v, e.weight * c) for e in p.reserve)),
    )
    for busted, candidate, bridge_only in _every_check(p):
        mine = verify_optimal_report(p, busted, candidate, bridge_only=bridge_only)
        theirs = verify_optimal_report(scaled, busted, candidate, bridge_only=bridge_only)
        assert (theirs.optimal, theirs.alternatives, theirs.failing_alternative) == (
            mine.optimal, mine.alternatives, mine.failing_alternative
        )
        if not mine.optimal:
            outcome = mine.failing_outcome
            assert theirs.failing_outcome == OutcomeTriple(outcome.fixer_win, outcome.total_busted, outcome.fix_cost * c)


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
