"""Fixer-superiority, response enumeration, and optimality adjudication.

One completed series dominates another (from the same starting instance)
when Fixer did at least as well on all three axes: she won if the other
Fixer did, Buster deleted at least as much, and she spent no more on
reserve edges. Because every busted edge leaves the combined pool and
every fixed edge moves its weight out of the reserve, those sums are
recoverable from the end state alone, which is what makes memoized game
search over positions sound.

A candidate response to a bust is *optimal* when some continuation
strategy exists whose every eventual outcome (each Buster-win leaf and
each quit-here prefix) dominates something Buster could force under every
alternative response and every alternative continuation strategy. The
verifier evaluates that exists/forall chain by backward induction:

* the target side is a survival game (Fixer picks responses, Buster picks
  moves and quit points, every realized outcome must pass the check), and
* the check itself is a reachability game per alternative response line
  (Buster steers, all alternative-Fixer responses are taken conjunctively)
  on remaining bust/spend budgets relative to the target outcome.

``verify_optimal_naive`` is the one strategy-materializing oracle: it
evaluates the same definition with no game machinery at all, by
materializing every strategy's outcome set explicitly. It exists to pin
the definition's reading, and any disagreement between the two is
surfaced as a test failure rather than resolved silently.

By default the alternatives compared against are restricted to responses
whose every edge is a bridge after the fix (equivalently, spanning trees
of the contracted graph); this restriction provably preserves the verdict
and ``bridge_only=False`` disables it so the equivalence can be checked
empirically.

Every size limit comes from one :class:`Caps` object (defined in
``graph`` and re-exported here); exceeding it raises ``CapExceededError``.
Searches are pure given their inputs. The optional ``cache`` argument is
a plain dict keyed by id-free canonical position signatures; share one
across calls to speed up sweeps (inserts are idempotent, so concurrent
use only ever costs recomputation, never inconsistency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Iterator

from .engine import (
    OutcomeTriple,
    Position,
    Series,
    buster_wins,
    enumerate_buster_moves,
    series_totals,
)
from .errors import BusterWinsError, CapExceededError, IllegalMoveError
from .graph import DEFAULT_CAPS, Caps, Edge, Multigraph, _UnionFind, contract, is_connected
from .reconnect import all_msts, all_spanning_trees

ZERO = Fraction(0)


def fixer_superior(a: OutcomeTriple, b: OutcomeTriple) -> bool:
    """True iff outcome ``a`` dominates outcome ``b``.

    Requires (1) Fixer won ``a`` or Buster won ``b``, (2) at least as much
    was busted in ``a``, and (3) no more was spent in ``a``. Reflexive by
    construction.
    """
    return (
        (a.fixer_win or not b.fixer_win)
        and a.total_busted >= b.total_busted
        and a.fix_cost <= b.fix_cost
    )


def series_superior(s: Series, t: Series) -> bool:
    """Dominance between two completed series from the same instance.

    Computed through the outcome triples; :func:`series_totals` itself
    cross-checks the direct sums against the end-state identities, so a
    bookkeeping bug surfaces as ``IdentityViolationError`` here.
    """
    if s.initial != t.initial:
        raise IllegalMoveError("series must share an initial position")
    return fixer_superior(series_totals(s), series_totals(t))


def enumerate_fixer_responses(
    p: Position, busted: frozenset[str], bridge_only: bool = False, caps: Caps = DEFAULT_CAPS
) -> list[frozenset[str]]:
    """All legal Fixer responses to ``busted``, cheapest first.

    A response is any reserve subset whose addition reconnects the busted
    graph (the empty set when it is still connected; supersets with
    redundant edges are legal too). With ``bridge_only`` the list is
    restricted to responses whose every edge is a bridge after the fix,
    which are exactly the spanning trees of the contracted graph (just the
    empty response when the graph is still connected).

    Order: by total weight, then lexicographically on the sorted id tuple.

    Raises ``BusterWinsError`` when not even the full reserve reconnects,
    and ``CapExceededError`` when the enumeration exceeds ``caps.max_subsets``.
    """
    busted = frozenset(busted)
    if buster_wins(p, busted):
        raise BusterWinsError("no response can reconnect; Buster wins this round")
    remaining = p.graph.without(busted)
    m = contract(remaining, p.reserve.edges)
    if bridge_only:
        if m.component_count == 1:
            return [frozenset()]
        responses = [t.edge_ids for t in all_spanning_trees(m, caps)]
    else:
        ids = sorted(p.reserve.ids)
        if 1 << len(ids) > caps.max_subsets:
            raise CapExceededError(f"2^{len(ids)} reserve subsets exceeds cap {caps.max_subsets}")
        labels = m.component_of
        responses = []
        for mask in range(1 << len(ids)):
            chosen = [p.reserve.edge(ids[b]) for b in range(len(ids)) if mask >> b & 1]
            uf = _UnionFind(m.component_count)
            joined = sum(1 for e in chosen if uf.union(labels[e.u], labels[e.v]))
            if joined == m.component_count - 1:
                responses.append(frozenset(e.id for e in chosen))
    responses.sort(key=lambda f: (p.reserve.weight(f), tuple(sorted(f))))
    return responses


class _Arena:
    """Bitmask view of one instance's edges for the game searches.

    Bit ``i`` stands for the edge at index ``i`` of the combined edge list
    (graph edges first, then reserve). Connectivity always spans the full
    vertex set, so isolated vertices disconnect. Query results are memoized
    per arena; everything is derived from the immutable position.
    """

    def __init__(self, p: Position):
        edges = p.graph.edges + p.reserve.edges
        self.n = p.graph.vertex_count
        self.ids = tuple(e.id for e in edges)
        self.ends = tuple((e.u, e.v) for e in edges)
        self.weights = tuple(e.weight for e in edges)
        self.index = {e.id: i for i, e in enumerate(edges)}
        self.graph_mask = (1 << len(p.graph)) - 1
        self.reserve_mask = ((1 << len(edges)) - 1) ^ self.graph_mask
        self._connected: dict[int, bool] = {}
        self._weight: dict[int, Fraction] = {0: ZERO}
        self._responses: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        self._signature: dict[int, tuple] = {}

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for i in ids:
            mask |= 1 << self.index[i]
        return mask

    def ids_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.ids[i] for i in _bit_indices(mask))

    def weight_of(self, mask: int) -> Fraction:
        cached = self._weight.get(mask)
        if cached is None:
            cached = sum((self.weights[i] for i in _bit_indices(mask)), ZERO)
            self._weight[mask] = cached
        return cached

    def connected(self, mask: int) -> bool:
        cached = self._connected.get(mask)
        if cached is None:
            uf = _UnionFind(self.n)
            joins = sum(1 for i in _bit_indices(mask) if uf.union(*self.ends[i]))
            cached = joins == self.n - 1
            self._connected[mask] = cached
        return cached

    def responses(self, graph_mask: int, reserve_mask: int) -> tuple[tuple[int, Fraction], ...]:
        """All reserve submasks reconnecting ``graph_mask``, with weights."""
        key = (graph_mask, reserve_mask)
        cached = self._responses.get(key)
        if cached is None:
            out = []
            sub = reserve_mask
            while True:
                if self.connected(graph_mask | sub):
                    out.append((sub, self.weight_of(sub)))
                if sub == 0:
                    break
                sub = (sub - 1) & reserve_mask
            cached = tuple(out)
            self._responses[key] = cached
        return cached

    def signature(self, mask: int) -> tuple:
        """Id-free canonical key of a mask: sorted endpoint/weight triples."""
        cached = self._signature.get(mask)
        if cached is None:
            triples = []
            for i in _bit_indices(mask):
                u, v = self.ends[i]
                if u > v:
                    u, v = v, u
                triples.append((u, v, self.weights[i]))
            cached = tuple(sorted(triples))
            self._signature[mask] = cached
        return cached


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nonempty_submasks(mask: int) -> Iterator[int]:
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _dominated(
    arena: _Arena,
    graph_mask: int,
    reserve_mask: int,
    bust_budget: int,
    spend_floor: Fraction,
    target_win: bool,
    memo: dict,
    cache: dict | None,
) -> bool:
    """Can Buster steer this line, against every Fixer, to a dominated end?

    ``bust_budget`` is how much more may be busted here without exceeding
    the target's bust total; ``spend_floor`` is how much more Fixer must be
    made to spend to reach the target's cost. Buster nodes take OR over
    moves and quitting; Fixer responses are taken conjunctively.
    """
    pool = (graph_mask | reserve_mask).bit_count()
    if bust_budget < 0:
        return False
    if bust_budget > pool:
        bust_budget = pool
    if spend_floor > arena.weight_of(reserve_mask):
        return False
    if spend_floor < 0:
        spend_floor = ZERO
    if target_win and spend_floor == 0:
        return True  # Buster quits the alternative line right here
    key = (graph_mask, reserve_mask, bust_budget, spend_floor, target_win)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if cache is not None:
        ckey = (
            arena.n,
            arena.signature(graph_mask),
            arena.signature(reserve_mask),
            bust_budget,
            spend_floor,
            target_win,
        )
        hit = cache.get(ckey)
        if hit is not None:
            memo[key] = hit
            return hit
    result = False
    for bust in _nonempty_submasks(graph_mask):
        size = bust.bit_count()
        if size > bust_budget:
            continue
        left = graph_mask ^ bust
        if not arena.connected(left | reserve_mask):
            if spend_floor == 0:
                result = True  # Buster wins this line within budget
                break
            continue
        if all(
            _dominated(
                arena,
                left | fix,
                reserve_mask ^ fix,
                bust_budget - size,
                spend_floor - fix_weight,
                target_win,
                memo,
                cache,
            )
            for fix, fix_weight in arena.responses(left, reserve_mask)
        ):
            result = True
            break
    memo[key] = result
    if cache is not None:
        cache[ckey] = result
    return result


def _survives(
    arena: _Arena,
    graph_mask: int,
    reserve_mask: int,
    busted_so_far: int,
    spent_so_far: Fraction,
    check: Callable[[bool, int, Fraction], bool],
    memo: dict,
) -> bool:
    """Does some continuation strategy keep every reachable outcome passing?

    Fixer nodes take OR over legal responses; Buster's moves and the quit
    available at every surviving node are taken conjunctively, with
    ``check`` applied to each completed outcome triple.
    """
    key = (graph_mask, reserve_mask, busted_so_far, spent_so_far)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = check(True, busted_so_far, spent_so_far)  # Buster may quit here
    if result:
        for bust in _nonempty_submasks(graph_mask):
            total = busted_so_far + bust.bit_count()
            left = graph_mask ^ bust
            if not arena.connected(left | reserve_mask):
                if not check(False, total, spent_so_far):
                    result = False
                    break
                continue
            if not any(
                _survives(
                    arena,
                    left | fix,
                    reserve_mask ^ fix,
                    total,
                    spent_so_far + fix_weight,
                    check,
                    memo,
                )
                for fix, fix_weight in arena.responses(left, reserve_mask)
            ):
                result = False
                break
    memo[key] = result
    return result


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one optimality check, with a witness for the verdict.

    When not optimal, ``failing_outcome`` is a reachable target outcome and
    ``failing_alternative`` an alternative response under which Buster can
    prevent it from dominating anything.
    """

    optimal: bool
    alternatives: int
    failing_outcome: OutcomeTriple | None = None
    failing_alternative: frozenset[str] | None = None


def _validated_candidate(p: Position, busted: frozenset[str], candidate: frozenset[str]) -> bool:
    """Shared precondition checks; returns True when Buster wins the round."""
    if not busted or not busted <= p.graph.ids:
        raise IllegalMoveError("busted must be a nonempty subset of the current graph")
    if buster_wins(p, busted):
        if candidate:
            raise IllegalMoveError("only the empty response is legal when Buster wins")
        return True
    if not candidate <= p.reserve.ids:
        raise IllegalMoveError("candidate must be a subset of the reserve")
    fixed = tuple(p.reserve.edge(i) for i in sorted(candidate))
    if not is_connected(p.graph.without(busted).with_edges(fixed)):
        raise IllegalMoveError("candidate does not reconnect the busted graph")
    return False


def verify_optimal_report(
    p: Position,
    busted: frozenset[str],
    candidate: frozenset[str],
    caps: Caps = DEFAULT_CAPS,
    *,
    bridge_only: bool = True,
    cache: dict | None = None,
) -> VerifyResult:
    """Like :func:`verify_optimal`, returning a witness alongside the verdict."""
    busted = frozenset(busted)
    candidate = frozenset(candidate)
    if p.total_edges > caps.max_total_edges:
        raise CapExceededError(
            f"position has {p.total_edges} edges, cap is {caps.max_total_edges}"
        )
    if _validated_candidate(p, busted, candidate):
        # The round is already lost; the forced empty response is optimal.
        return VerifyResult(optimal=True, alternatives=0)

    arena = _Arena(p)
    bust_mask = arena.mask_of(busted)
    left = arena.graph_mask ^ bust_mask
    alternatives = enumerate_fixer_responses(p, busted, bridge_only=bridge_only, caps=caps)
    alt_lines = []
    for alt in alternatives:
        alt_mask = arena.mask_of(alt)
        alt_lines.append((alt, left | alt_mask, arena.reserve_mask ^ alt_mask, arena.weight_of(alt_mask)))

    base_busted = len(busted)
    dominance_memo: dict = {}
    check_memo: dict[tuple, bool] = {}
    failure: list[tuple[OutcomeTriple, frozenset[str]]] = []

    def check(win: bool, total_busted: int, spent: Fraction) -> bool:
        key = (win, total_busted, spent)
        hit = check_memo.get(key)
        if hit is not None:
            return hit
        verdict = True
        for alt_ids, alt_graph, alt_reserve, alt_spend in alt_lines:
            if not _dominated(
                arena,
                alt_graph,
                alt_reserve,
                total_busted - base_busted,
                spent - alt_spend,
                win,
                dominance_memo,
                cache,
            ):
                verdict = False
                if not failure:
                    failure.append((OutcomeTriple(win, total_busted, spent), alt_ids))
                break
        check_memo[key] = verdict
        return verdict

    cand_mask = arena.mask_of(candidate)
    ok = _survives(
        arena,
        left | cand_mask,
        arena.reserve_mask ^ cand_mask,
        base_busted,
        arena.weight_of(cand_mask),
        check,
        {},
    )
    if ok:
        return VerifyResult(optimal=True, alternatives=len(alt_lines))
    outcome, alt = failure[0] if failure else (None, None)
    return VerifyResult(
        optimal=False, alternatives=len(alt_lines), failing_outcome=outcome, failing_alternative=alt
    )


def verify_optimal(
    p: Position,
    busted: frozenset[str],
    candidate: frozenset[str],
    caps: Caps = DEFAULT_CAPS,
    *,
    bridge_only: bool = True,
    cache: dict | None = None,
) -> bool:
    """Is ``candidate`` an optimal response to ``busted`` at position ``p``?

    True iff some continuation strategy after (busted, candidate) exists
    whose every outcome — each Buster-win leaf and each quit-here prefix —
    dominates an outcome Buster can force under every alternative legal
    response and every continuation strategy for it.

    Raises ``IllegalMoveError`` when the candidate is not a legal response
    and ``CapExceededError`` when the instance exceeds ``caps``.
    """
    return verify_optimal_report(
        p, busted, candidate, caps, bridge_only=bridge_only, cache=cache
    ).optimal


def verify_optimal_naive(
    p: Position,
    busted: frozenset[str],
    candidate: frozenset[str],
    caps: Caps = DEFAULT_CAPS,
) -> bool:
    """Optimality decided by materializing whole strategies, no game search.

    Every continuation strategy is expanded into its set of outcome triples
    (one per series: all Buster-win leaves plus every quit-here prefix),
    and the definition's quantifier chain is evaluated directly over those
    sets, with no bridge restriction and no budget reasoning. Exponentially
    expensive by design; the independent oracle for :func:`verify_optimal`.
    """
    busted = frozenset(busted)
    candidate = frozenset(candidate)
    if p.total_edges > caps.naive_max_total_edges:
        raise CapExceededError(
            f"position has {p.total_edges} edges, naive cap is {caps.naive_max_total_edges}"
        )
    if _validated_candidate(p, busted, candidate):
        return True

    arena = _Arena(p)
    bust_mask = arena.mask_of(busted)
    left = arena.graph_mask ^ bust_mask
    base_busted = len(busted)
    strategy_memo: dict[tuple[int, int], list[frozenset]] = {}

    def strategies(graph_mask: int, reserve_mask: int) -> list[frozenset]:
        """All outcome-triple sets, relative to this node, over strategies."""
        key = (graph_mask, reserve_mask)
        hit = strategy_memo.get(key)
        if hit is not None:
            return hit
        per_move: list[list[frozenset]] = []
        for bust in _nonempty_submasks(graph_mask):
            size = bust.bit_count()
            remaining = graph_mask ^ bust
            if not arena.connected(remaining | reserve_mask):
                per_move.append([frozenset({(False, size, ZERO)})])
                continue
            options = []
            for fix, fix_weight in arena.responses(remaining, reserve_mask):
                for child in strategies(remaining | fix, reserve_mask ^ fix):
                    options.append(
                        frozenset((w, b + size, c + fix_weight) for (w, b, c) in child)
                    )
            per_move.append(list(dict.fromkeys(options)))
        results = []
        for combo in product(*per_move):
            results.append(frozenset({(True, 0, ZERO)}).union(*combo))
        out = list(dict.fromkeys(results))
        if len(out) > caps.max_subsets:
            raise CapExceededError(f"{len(out)} strategies exceeds cap {caps.max_subsets}")
        strategy_memo[key] = out
        return out

    def shifted(sets: list[frozenset], spend: Fraction) -> list[frozenset]:
        return [
            frozenset((w, b + base_busted, c + spend) for (w, b, c) in s) for s in sets
        ]

    def superior(a: tuple, b: tuple) -> bool:
        return (a[0] or not b[0]) and a[1] >= b[1] and a[2] <= b[2]

    cand_mask = arena.mask_of(candidate)
    target_sets = shifted(
        strategies(left | cand_mask, arena.reserve_mask ^ cand_mask), arena.weight_of(cand_mask)
    )
    alternative_sets = []
    for alt in enumerate_fixer_responses(p, busted, bridge_only=False, caps=caps):
        alt_mask = arena.mask_of(alt)
        alternative_sets.append(
            shifted(
                strategies(left | alt_mask, arena.reserve_mask ^ alt_mask),
                arena.weight_of(alt_mask),
            )
        )
    return any(
        all(
            any(superior(t, other) for other in alt_outcomes)
            for alt_strategies in alternative_sets
            for alt_outcomes in alt_strategies
            for t in target
        )
        for target in target_sets
    )


@dataclass(frozen=True)
class Counterexample:
    """One sweep failure, kept small enough to print in a report."""

    kind: str
    instance: Position
    busted: frozenset[str]
    response: frozenset[str]
    detail: str


@dataclass
class SweepReport:
    """Tallies and failures from one greedy-optimality sweep."""

    instances: int = 0
    moves: int = 0
    greedy_checked: int = 0
    responses_checked: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    prune_mismatches: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.prune_mismatches

    def summary(self) -> str:
        lines = [
            f"instances: {self.instances}",
            f"buster moves checked: {self.moves}",
            f"greedy responses verified optimal: {self.greedy_checked}",
            f"alternative responses checked: {self.responses_checked}",
            f"counterexamples: {len(self.counterexamples)}",
            f"prune mismatches: {len(self.prune_mismatches)}",
        ]
        for ce in (*self.counterexamples, *self.prune_mismatches):
            lines.append(
                f"  {ce.kind}: busted={sorted(ce.busted)} response={sorted(ce.response)} {ce.detail}"
            )
        return "\n".join(lines)


def theorem_sweep(
    instances: Iterable[Position],
    caps: Caps = DEFAULT_CAPS,
    *,
    bridge_only: bool = True,
    compare_prune: bool = False,
) -> SweepReport:
    """Check greedy-is-optimal, and its converse, across whole instances.

    For every instance, every legal Buster move, and every greedy response
    (every minimum spanning tree of the contracted graph, not just the
    default tie-break), the verifier must say optimal. Conversely, every
    other legal response is also adjudicated and must be rejected unless it
    has minimum weight. With ``compare_prune``, each verdict is recomputed
    without the bridge restriction and any disagreement is recorded. A
    nonempty counterexample list is a build-failing event for the corpus
    this library ships with. ``caps`` bounds every enumeration and search.
    """
    report = SweepReport()
    cache: dict = {}
    for p in instances:
        report.instances += 1
        if len(p.graph) == 0:
            continue
        for busted in enumerate_buster_moves(p, caps):
            report.moves += 1
            if buster_wins(p, busted):
                report.greedy_checked += 1
                if not verify_optimal(p, busted, frozenset(), caps, bridge_only=bridge_only, cache=cache):
                    report.counterexamples.append(
                        Counterexample("greedy-not-optimal", p, busted, frozenset(), "forced empty response rejected")
                    )
                continue
            m = contract(p.graph.without(busted), p.reserve.edges)
            msts = all_msts(m, caps)
            minimum = msts[0].total_weight
            greedy_sets = sorted({t.edge_ids for t in msts}, key=lambda s: tuple(sorted(s)))
            for response in greedy_sets:
                report.greedy_checked += 1
                verdict = verify_optimal(p, busted, response, caps, bridge_only=bridge_only, cache=cache)
                if compare_prune:
                    other = verify_optimal(p, busted, response, caps, bridge_only=not bridge_only, cache=cache)
                    if other != verdict:
                        report.prune_mismatches.append(
                            Counterexample("prune-mismatch", p, busted, response, f"pruned={verdict} full={other}")
                        )
                if not verdict:
                    report.counterexamples.append(
                        Counterexample("greedy-not-optimal", p, busted, response, f"weight {minimum}")
                    )
            greedy_lookup = set(greedy_sets)
            for response in enumerate_fixer_responses(p, busted, bridge_only=False, caps=caps):
                if response in greedy_lookup:
                    continue
                report.responses_checked += 1
                verdict = verify_optimal(p, busted, response, caps, bridge_only=bridge_only, cache=cache)
                if compare_prune:
                    other = verify_optimal(p, busted, response, caps, bridge_only=not bridge_only, cache=cache)
                    if other != verdict:
                        report.prune_mismatches.append(
                            Counterexample("prune-mismatch", p, busted, response, f"pruned={verdict} full={other}")
                        )
                if verdict and p.reserve.weight(response) != minimum:
                    report.counterexamples.append(
                        Counterexample(
                            "non-minimum-optimal",
                            p,
                            busted,
                            response,
                            f"weight {p.reserve.weight(response)} > minimum {minimum}",
                        )
                    )
    return report


def generate_instances(
    max_vertices: int = 3,
    max_total_edges: int = 5,
    reserve_weights: Iterable[int | Fraction] = (0, 1, 2),
    graph_weight: int | Fraction = 1,
) -> Iterator[Position]:
    """Exhaustively enumerate small instances, one per canonical edge multiset.

    Graphs must be connected (initial positions always are); instances are
    deduplicated by their edge multisets — two assignments of ids to the
    same endpoint/weight/pool multiset are the same instance. Graph edges
    carry a fixed weight: only reserve weights ever enter a spend, so
    varying them would just repeat behaviorally identical instances.
    Loops are included (they are legal reserve edges and legal graph
    edges). Instances whose graph is empty are skipped, since Buster has
    no move to check there.
    """
    weights = tuple(Fraction(w) for w in reserve_weights)
    gw = Fraction(graph_weight)
    for n in range(1, max_vertices + 1):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        reserve_types = [(u, v, w) for (u, v) in pairs for w in weights]
        reserve_combos = {
            size: list(combinations_with_replacement(reserve_types, size))
            for size in range(0, max_total_edges)
        }
        for graph_size in range(max(1, n - 1), max_total_edges + 1):
            for graph_combo in combinations_with_replacement(pairs, graph_size):
                uf = _UnionFind(n)
                joins = sum(1 for (u, v) in graph_combo if uf.union(u, v))
                if joins != n - 1:
                    continue
                graph = Multigraph(
                    n,
                    tuple(Edge(f"g{i}", u, v, gw) for i, (u, v) in enumerate(graph_combo)),
                )
                for reserve_size in range(0, max_total_edges - graph_size + 1):
                    for reserve_combo in reserve_combos[reserve_size]:
                        reserve = Multigraph(
                            n,
                            tuple(
                                Edge(f"r{i}", u, v, w)
                                for i, (u, v, w) in enumerate(reserve_combo)
                            ),
                        )
                        yield Position(graph=graph, reserve=reserve)
