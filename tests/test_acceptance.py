"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Every expectation is
exact (rational arithmetic, zero tolerance); the only budgets are the
stated wall-clock ceilings, asserted here.
"""

import functools
import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from busterfixer import (
    DisconnectedError,
    Edge,
    Multigraph,
    all_msts,
    all_spanning_trees,
    contract,
    fixer_superior,
    generate_instances,
    greedy_fixer,
    play_series,
    prim_reachable,
    random_buster,
    replay_positions,
    series_superior,
    series_totals,
    theorem_sweep,
    verify_optimal,
    verify_optimal_naive,
)

from conftest import random_instance, triangle_position
from series_tables import ALL_SERIES, expected_triple, play_table_series
from test_reconnect import _assert_trace_valid


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nACCEPTANCE {number} {name}: PASS ({detail}; {elapsed:.1f}s)")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def sweep_once():
    """Criteria 3 and 7 share one corpus walk with both prune settings."""
    start = time.perf_counter()
    report = theorem_sweep(generate_instances(), compare_prune=True)
    return report, time.perf_counter() - start


@criterion(1, "worked-example tables")
def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    initial = triangle_position()
    for name, first_fix, script, win, busted, cost in ALL_SERIES:
        series = play_table_series(initial, first_fix, script)
        assert series_totals(series) == expected_triple(win, busted, cost), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"table reproduction took {elapsed:.2f}s, budget 1s"
    return f"{len(ALL_SERIES)} series reproduced exactly"


@criterion(2, "worked-example optimality verdicts")
def test_criterion_2_optimality_verdicts():
    start = time.perf_counter()
    p = triangle_position()
    busted = frozenset({"e1", "e2"})
    expected = {
        frozenset({"e4"}): True,
        frozenset({"e5"}): False,
        frozenset({"e4", "e5"}): False,
    }
    for candidate, verdict in expected.items():
        assert verify_optimal(p, busted, candidate) is verdict, sorted(candidate)
        assert verify_optimal_naive(p, busted, candidate) is verdict, sorted(candidate)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"verdicts took {elapsed:.2f}s, budget 10s"
    return "verdicts True/False/False, naive oracle agrees"


@criterion(3, "greedy-optimality sweep")
def test_criterion_3_theorem_sweep(sweep_once):
    report, elapsed = sweep_once
    assert report.instances > 5000, "generator produced suspiciously few instances"
    assert report.counterexamples == [], report.summary()
    assert report.greedy_checked > 0 and report.responses_checked > 0
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s, budget 600s"
    return (
        f"{report.instances} instances, {report.greedy_checked} greedy moves optimal, "
        f"{report.responses_checked} alternatives converse-checked, sweep {elapsed:.0f}s"
    )


def test_sweep_tallies_pinned(sweep_once):
    # the default corpus's tallies, kept identical by every change that does
    # not deliberately widen coverage
    report, _ = sweep_once
    tallies = (report.instances, report.moves, report.greedy_checked, report.responses_checked)
    assert tallies == (10_015, 58_917, 61_012, 59_973)
    assert (len(report.counterexamples), len(report.prune_mismatches)) == (0, 0)


def _prim_equivalence_corpus(max_c=4, max_edges=6, weights=(1, 2, 3)):
    """Contracted multigraphs up to vertex relabeling, with at least ``c - 1`` edges.

    Both sides of the checked equivalence are invariant under relabeling,
    so one representative per class suffices; loop-bearing variants are
    added explicitly since loops are excluded from the base enumeration.
    Not all are connected: 2,643 of the 12,230 combos are not, and have no
    spanning tree, so criterion 4 skips them.
    """
    for c in range(1, max_c + 1):
        pairs = [(u, v) for u in range(c) for v in range(u + 1, c)]
        types = [(u, v, w) for (u, v) in pairs for w in weights]
        # each relabeling other than the identity, as a map on edge types
        relabelings = [
            {(u, v, w): (min(p[u], p[v]), max(p[u], p[v]), w) for (u, v, w) in types}
            for p in list(permutations(range(c)))[1:]
        ]
        for size in range(c - 1, max_edges + 1):
            # combos come sorted and in increasing order, so the first of each
            # class is its least member: skip any combo a relabeling shrinks
            for combo in combinations_with_replacement(types, size):
                if any(tuple(sorted(map(p.get, combo))) < combo for p in relabelings):
                    continue
                yield c, combo
                if size < max_edges:
                    yield c, combo + ((0, 0, 1),)
                if size < max_edges and c > 1:
                    yield c, combo + ((c - 1, c - 1, 3),)


def _every_prim_tree(m):
    """The edge sets built by every run of Prim's algorithm on the connected ``m``.

    A run starts at any vertex and at each step may take any cheapest edge
    crossing from the grown tree; the runs are memoized on the (grown vertex
    set, chosen ids) pair.
    """

    @functools.cache
    def grow(in_tree, chosen):
        if len(in_tree) == m.vertex_count:
            return {chosen}
        crossing = [e for e in m.edges if (e.u in in_tree) != (e.v in in_tree)]
        cheapest = min(e.weight for e in crossing)
        return set().union(
            *(grow(in_tree | {e.u, e.v}, chosen | {e.id}) for e in crossing if e.weight == cheapest)
        )

    return set().union(*(grow(frozenset({start}), frozenset()) for start in range(m.vertex_count)))


@criterion(4, "Prim-reachability equals minimality")
def test_criterion_4_prim_equivalence():
    start = time.perf_counter()
    graphs = trees_checked = 0
    corpus = list(_prim_equivalence_corpus())
    digest = hashlib.sha256(repr(corpus).encode()).hexdigest()
    assert (len(corpus), digest) == (12_230, "b317dba5ad61b6407828513d55e7a0d3bb4373103037d5919b27718ea38de318")
    for c, combo in corpus:
        m = contract(
            Multigraph(c, ()),
            [Edge(f"e{i}", u, v, Fraction(w)) for i, (u, v, w) in enumerate(combo)],
        )
        try:
            trees = all_spanning_trees(m)
        except DisconnectedError:
            continue
        graphs += 1
        built = _every_prim_tree(m)
        assert built == {t.edge_ids for t in all_msts(m)}, (c, combo)
        for t in trees:
            trees_checked += 1
            trace = prim_reachable(m, t)
            assert (trace is not None) == (t.edge_ids in built), (c, combo, t)
            if trace is not None:
                _assert_trace_valid(m, t, trace)
    elapsed = time.perf_counter() - start
    assert graphs > 5000 and trees_checked > 20000
    assert elapsed < 60.0, f"equivalence check took {elapsed:.0f}s, budget 60s"
    return f"{graphs} graphs, {trees_checked} spanning trees classified identically"


@criterion(5, "totals identities on random series")
def test_criterion_5_totals_identities():
    rng = random.Random(424242)
    checked = 0
    while checked < 10_000:
        initial = random_instance(rng, max_vertices=4, max_total_edges=10)
        assert initial.total_edges <= 10
        series = play_series(initial, random_buster(seed=rng.randrange(10**9)), greedy_fixer())
        positions = replay_positions(series)
        end = positions[-1]
        direct_busted = sum(len(r.busted) for r in series.rounds)
        direct_cost = sum((initial.reserve.weight(r.fixed) for r in series.rounds), Fraction(0))
        assert direct_busted == initial.total_edges - end.total_edges
        assert direct_cost == initial.reserve.weight() - end.reserve.weight()
        assert series.length <= initial.total_edges
        checked += 1
    return f"{checked} series, both identities exact, length bound holds"


@criterion(6, "superiority algebra")
def test_criterion_6_superiority_algebra():
    rng = random.Random(626262)
    reflexive = transitive = reduced = chained = 0
    while transitive < 10_000:
        initial = random_instance(rng, max_vertices=4, max_total_edges=8)
        batch = [
            play_series(initial, random_buster(seed=rng.randrange(10**9)), greedy_fixer())
            for _ in range(3)
        ]
        totals = [series_totals(s) for s in batch]
        for s, t in zip(batch, totals):
            assert fixer_superior(t, t)
            assert series_superior(s, s)
            reflexive += 1
        a, b, c = totals
        if fixer_superior(a, b) and fixer_superior(b, c):
            assert fixer_superior(a, c)
            chained += 1
        transitive += 1
        # triple reduction: the OutcomeTriple comparison equals the raw-sum check
        for s in batch:
            for t in batch:
                st, tt = series_totals(s), series_totals(t)
                raw = (
                    (st.fixer_win or not tt.fixer_win)
                    and sum(len(r.busted) for r in s.rounds) >= sum(len(r.busted) for r in t.rounds)
                    and sum((initial.reserve.weight(r.fixed) for r in s.rounds), Fraction(0))
                    <= sum((initial.reserve.weight(r.fixed) for r in t.rounds), Fraction(0))
                )
                assert series_superior(s, t) == raw
                reduced += 1
    assert chained > 500, "too few triples exercised the transitivity premises"
    return (
        f"reflexivity x{reflexive}, transitivity x{transitive} "
        f"({chained} with premises holding), reduction x{reduced}"
    )


@criterion(7, "bridge-restriction prune soundness")
def test_criterion_7_prune_soundness(sweep_once):
    report, _ = sweep_once
    total = report.greedy_checked + report.responses_checked
    assert report.prune_mismatches == [], report.summary()
    return f"pruned and unpruned verdicts agree on all {total} checks"
