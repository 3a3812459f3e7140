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
  moves and quit points, every realized outcome must pass the check),
  ``_Adjudication.survives``, and
* the check itself is a reachability game per alternative response line
  (Buster steers, all alternative-Fixer responses are taken conjunctively)
  on remaining bust/spend budgets relative to the target outcome,
  ``_Arena.dominated``.

Each search is a method of the object that owns its memos, so no recursive
call passes a memo, a cache or a callback.

``verify_optimal_naive`` is the one strategy-materializing oracle: it
evaluates the same definition with no game machinery at all, by
materializing every strategy's outcome set explicitly. It exists to pin
the definition's reading, and any disagreement between the two is
surfaced as a test failure rather than resolved silently.

Every list of legal responses comes from one place, the per-instance
bitmask arena: the engine's ``graph.EdgeIndex`` (edge bits,
integer-scaled weights, memoized connectivity and weight per mask) plus
the reachability search and its memos. Inside this module every response,
alternative and witness is a reserve mask and every weight an int, the
edge weights times the least common multiple of their denominators, so
budgets, floors and memo keys are ints and no float is ever involved. A
verifier's round, given as ids, is played by the engine's checked walk
``_Walk`` on the arena, its ``bust`` then its ``fix``, which state every
round rule; this module states none. The sweep kernel takes its move as a
mask and turns each greedy tree into one with ``mask_of``. Ids and
``Fraction``s are built only where a result leaves:
``enumerate_fixer_responses``, a ``VerifyResult``'s witness and a sweep
``Counterexample``.

Both searches walk the nonempty bust submasks in descending
``(bust - 1) & graph_mask`` order, which fixes the first failure reported.
An ``_Adjudication`` holds what every candidate against one bust and prune
setting shares, and the prune is decided there alone: by default the
alternatives are only the responses whose every edge is a bridge after the
fix (equivalently, spanning trees of the contracted graph, the
reconnecting sets of fewest edges). This provably preserves the verdict;
the verifiers' ``bridge_only=False`` disables it, and the sweep's
``compare_prune`` adds the unpruned verdict to the pruned one. The naive
oracle never prunes.

Every size limit comes from one ``graph.Caps`` object; exceeding it
raises ``CapExceededError``. The reserve-subset cap is checked by
``_check_reserve_subsets``, which building an ``_Arena`` calls, and so does
the sweep at an instance's first move of a new class; the total-edge caps
are checked by the two verifiers and, per instance, the sweep. Searches
are pure given their inputs, every memo is per position, keyed only by
what decides its answer, and each verifier call builds a fresh arena.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add
from typing import Iterable, Iterator

from .engine import (
    OutcomeTriple,
    Position,
    Series,
    _move_masks,
    _Walk,
    buster_wins,  # noqa: F401  unused here, kept because perfbench's binding self-test reads it
    series_totals,
)
from .errors import BusterWinsError, CapExceededError, IllegalMoveError
from .graph import (DEFAULT_CAPS, Caps, Edge, EdgeIndex, Multigraph, _bit_indices, _exact, _spans_connect, _UnionFind,
                    contract, relabelling_sums)
from .reconnect import all_msts

__all__ = [
    "Counterexample", "SweepReport", "VerifyResult", "enumerate_fixer_responses", "fixer_superior",
    "generate_instances", "series_superior", "theorem_sweep", "verify_optimal", "verify_optimal_naive",
    "verify_optimal_report",
]


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


def enumerate_fixer_responses(p: Position, busted: frozenset[str], caps: Caps = DEFAULT_CAPS) -> list[frozenset[str]]:
    """All legal Fixer responses to ``busted``, cheapest first.

    A response is any reserve subset whose addition reconnects the busted
    graph (the empty set when it is still connected; supersets with
    redundant edges are legal too). The list is the arena's
    :meth:`_Arena.ordered_responses`, the one enumeration every verifier
    compares against.

    Order: by total weight, then lexicographically on the sorted id tuple.

    Raises, checked in this order, ``CapExceededError`` when the
    enumeration exceeds ``caps.max_subsets``, ``IllegalMoveError`` for an
    illegal bust and ``BusterWinsError`` when not even the full reserve
    reconnects.
    """
    arena = _Arena(p, caps)
    walk = _Walk(arena)
    if walk.bust(frozenset(busted)):
        raise BusterWinsError("no response can reconnect; Buster wins this round")
    return [arena.ids_of(mask) for mask, _ in arena.ordered_responses(walk.graph)]


_Lines = tuple[tuple[int, int], ...]  # (reserve mask, scaled weight) pairs


def _check_reserve_subsets(p: Position, caps: Caps) -> None:
    """Raise ``CapExceededError`` when ``p``'s reserve has more than ``caps.max_subsets`` subsets."""
    if 1 << len(p.reserve) > caps.max_subsets:
        raise CapExceededError(f"2^{len(p.reserve)} reserve subsets exceeds cap {caps.max_subsets}")


class _Arena(EdgeIndex):
    """The verifier's view of one position: its edge index plus the search memos.

    Building one first checks the reserve-subset cap with
    :func:`_check_reserve_subsets`, so it raises ``CapExceededError`` before
    any response is enumerated; the sweep also calls that check at an
    instance's first move of a new class, Buster win or not. Everything is
    derived from the immutable position, so the arena carries the memos
    shared by every check on it. It holds no reference to the
    ``_Adjudication``s that use it, so a finished arena is freed at once by
    reference counting rather than left to the cycle collector.
    """

    def __init__(self, p: Position, caps: Caps = DEFAULT_CAPS):
        _check_reserve_subsets(p, caps)
        super().__init__(p.graph, p.reserve)
        self.position = p
        self._responses: dict[tuple[int, int], _Lines] = {}
        self.dominance_memo: dict = {}

    def responses(self, graph_mask: int, reserve_mask: int) -> _Lines:
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

    def ordered_responses(self, graph_mask: int) -> _Lines:
        """Every response reconnecting ``graph_mask`` from the full reserve, cheapest first.

        Each is a (reserve mask, scaled weight) pair, ordered by weight and
        then by sorted ids. Every call sorts, so each caller sorts a bust's
        list once and hands it on. The bridge-only prune is not applied here:
        ``_Adjudication`` filters this list.
        """
        # The index lays the reserve bits out in id order, so ascending bit
        # tuples order responses as their sorted ids do; the mask ints do not.
        return tuple(sorted(
            self.responses(graph_mask, self.reserve_mask), key=lambda line: (line[1], tuple(_bit_indices(line[0])))
        ))

    def dominated(
        self, graph_mask: int, reserve_mask: int, bust_budget: int, spend_floor: int, target_win: bool
    ) -> bool:
        """Can Buster steer this line, against every Fixer, to a dominated end?

        ``bust_budget`` is how much more may be busted here without exceeding
        the target's bust total; ``spend_floor`` is how much more Fixer must be
        made to spend (in the arena's scaled weights) to reach the target's
        cost. Buster nodes take OR over moves and quitting; Fixer responses are
        taken conjunctively. Results are memoized in ``dominance_memo``.
        """
        if bust_budget < 0 or spend_floor > self.weight_of(reserve_mask):
            return False
        pool = (graph_mask | reserve_mask).bit_count()
        if bust_budget > pool:
            bust_budget = pool
        if spend_floor < 0:
            spend_floor = 0
        if target_win and spend_floor == 0:
            return True  # Buster quits the alternative line right here
        if bust_budget == 0:
            return False  # every bust is nonempty, so none fits the budget
        key = (graph_mask, reserve_mask, bust_budget, spend_floor, target_win)
        memo = self.dominance_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        connected, responses, dominated = self.connected, self.responses, self.dominated
        result, bust = False, graph_mask
        while bust:  # every nonempty submask, in descending order
            budget = bust_budget - bust.bit_count()
            if budget >= 0:
                left = graph_mask ^ bust
                if connected(left | reserve_mask):
                    for fix, fix_weight in responses(left, reserve_mask):
                        if not dominated(left | fix, reserve_mask ^ fix, budget, spend_floor - fix_weight, target_win):
                            break
                    else:
                        result = True
                        break
                elif spend_floor == 0:
                    result = True  # Buster wins this line within budget
                    break
            bust = (bust - 1) & graph_mask
        memo[key] = result
        return result


# A failing check met by the survival search: (win, total busted, scaled
# spend) of the target outcome, and the mask of the alternative it does not dominate.
_Failure = tuple[bool, int, int, int]


class _Adjudication:
    """What every candidate response to one (bust, prune setting) shares.

    The alternative lines, the check memo (target outcome -> the mask of the
    first alternative it fails to dominate, or None) and the survival memo
    depend only on the arena, the bust and the alternatives, so they serve every
    candidate verified against this bust. ``lines`` is the bust's
    ``_Arena.ordered_responses(left)``, which each caller sorts once for all
    the bust's adjudications. This is the one place the bridge-only prune is
    applied: with ``bridge_only`` the alternatives are the lines of fewest
    edges, in the same order.
    """

    __slots__ = ("arena", "base_busted", "edge_count", "reserve_weight", "alt_lines", "check_memo", "survive_memo")

    def __init__(self, arena: _Arena, left: int, lines: _Lines, bridge_only: bool):
        self.arena = arena
        self.base_busted = (arena.graph_mask ^ left).bit_count()
        self.edge_count, self.reserve_weight = len(arena.edges), arena.weight_of(arena.reserve_mask)
        if bridge_only:
            # Every reconnecting set has at least components(left) - 1 edges;
            # those with exactly that many are the contracted spanning trees.
            fewest = min(mask.bit_count() for mask, _ in lines)
            lines = [line for line in lines if line[0].bit_count() == fewest]
        self.alt_lines = tuple((mask, left | mask, arena.reserve_mask ^ mask, weight) for mask, weight in lines)
        self.check_memo: dict[tuple[bool, int, int], int | None] = {}
        self.survive_memo: dict = {}

    def check(self, win: bool, total_busted: int, spent: int) -> int | None:
        """The mask of the first alternative whose every line escapes this outcome, or None.

        The empty response is mask 0, so only None means that none escapes.
        """
        key = (win, total_busted, spent)
        memo = self.check_memo
        if key in memo:
            return memo[key]
        failing = None
        budget = total_busted - self.base_busted
        for alt, alt_graph, alt_reserve, alt_spend in self.alt_lines:
            if not self.arena.dominated(alt_graph, alt_reserve, budget, spent - alt_spend, win):
                failing = alt
                break
        memo[key] = failing
        return failing

    def survives(self, graph_mask: int, reserve_mask: int) -> tuple[bool, _Failure | None]:
        """Does some continuation strategy keep every reachable outcome passing?

        Fixer nodes take OR over legal responses; Buster's moves and the quit
        available at every surviving node are taken conjunctively, with
        :meth:`check` applied to each completed outcome triple. The outcome
        so far follows from the two masks by the end-state identity: every
        busted edge has left the pool, and every spent edge's weight has
        left the reserve.

        Returns the verdict and the first failing check met in depth-first
        order below this node (None when there is none). Both depend only on
        the node and the alternatives, so every candidate against this bust
        shares ``survive_memo``, and the first failure of a root is the same
        however much of its subtree was answered from the memo.
        """
        key = (graph_mask, reserve_mask)
        memo = self.survive_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        arena, check = self.arena, self.check
        busted = self.edge_count - (graph_mask | reserve_mask).bit_count()
        spent = self.reserve_weight - arena.weight_of(reserve_mask)
        alt = check(True, busted, spent)  # Buster may quit here
        if alt is not None:
            result = (False, (True, busted, spent, alt))
        else:
            connected, responses, survives = arena.connected, arena.responses, self.survives
            ok, first, bust = True, None, graph_mask
            while bust:  # every nonempty submask, in descending order
                left = graph_mask ^ bust
                if not connected(left | reserve_mask):
                    total = busted + bust.bit_count()
                    alt = check(False, total, spent)
                    if alt is not None:
                        ok, first = False, first or (False, total, spent, alt)
                        break
                else:
                    for fix, _ in responses(left, reserve_mask):
                        survived, failure = survives(left | fix, reserve_mask ^ fix)
                        first = first or failure
                        if survived:
                            break
                    else:
                        ok = False
                        break
                bust = (bust - 1) & graph_mask
            result = (ok, first)
        memo[key] = result
        return result


@dataclass(frozen=True, slots=True)
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


def verify_optimal_report(
    p: Position,
    busted: frozenset[str],
    candidate: frozenset[str],
    caps: Caps = DEFAULT_CAPS,
    *,
    bridge_only: bool = True,
) -> VerifyResult:
    """Like :func:`verify_optimal`, returning a witness alongside the verdict.

    The search runs on a fresh arena's integer-scaled weights; the
    witness's ``fix_cost`` is converted back to an exact ``Fraction``.
    """
    if p.total_edges > caps.max_total_edges:
        raise CapExceededError(f"position has {p.total_edges} edges, cap is {caps.max_total_edges}")
    arena = _Arena(p, caps)
    walk = _Walk(arena)
    wins = walk.bust(frozenset(busted))
    left = walk.graph
    walk.fix(frozenset(candidate))
    if wins:  # the round is already lost; the forced empty response is optimal
        return VerifyResult(optimal=True, alternatives=0)
    job = _Adjudication(arena, left, arena.ordered_responses(left), bridge_only)
    ok, failure = job.survives(walk.graph, walk.reserve)
    if ok:
        return VerifyResult(optimal=True, alternatives=len(job.alt_lines))
    win, total_busted, spent, alt = failure
    return VerifyResult(
        optimal=False,
        alternatives=len(job.alt_lines),
        failing_outcome=OutcomeTriple(win, total_busted, Fraction(spent, arena.scale)),
        failing_alternative=arena.ids_of(alt),
    )


def verify_optimal(
    p: Position,
    busted: frozenset[str],
    candidate: frozenset[str],
    caps: Caps = DEFAULT_CAPS,
    *,
    bridge_only: bool = True,
) -> bool:
    """Is ``candidate`` an optimal response to ``busted`` at position ``p``?

    True iff some continuation strategy after (busted, candidate) exists
    whose every outcome — each Buster-win leaf and each quit-here prefix —
    dominates an outcome Buster can force under every alternative legal
    response and every continuation strategy for it.

    Raises ``IllegalMoveError`` when the candidate is not a legal response
    and ``CapExceededError`` when the instance exceeds ``caps``.
    """
    return verify_optimal_report(p, busted, candidate, caps, bridge_only=bridge_only).optimal


def _distinct_unions(base: frozenset, option_lists: list[list[frozenset]]) -> list[frozenset]:
    """The distinct sets ``base | s1 | ... | sk``, one ``si`` from each option list.

    Folded one list at a time with each partial union deduplicated, so the
    full product of the lists is never materialized.
    """
    partial = [base]
    for options in option_lists:
        partial = list(dict.fromkeys(acc | s for acc in partial for s in options))
    return partial


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

    A node's strategy sets are folded in move by move, each partial union
    deduplicated, rather than built from the full product of the per-move
    options; ``caps.max_subsets`` still bounds the number of distinct sets.
    """
    if p.total_edges > caps.naive_max_total_edges:
        raise CapExceededError(f"position has {p.total_edges} edges, naive cap is {caps.naive_max_total_edges}")
    arena = _Arena(p, caps)
    walk = _Walk(arena)
    wins = walk.bust(frozenset(busted))
    left = walk.graph
    walk.fix(frozenset(candidate))
    if wins:
        return True
    base_busted = (arena.graph_mask ^ left).bit_count()
    strategy_memo: dict[tuple[int, int], list[frozenset]] = {}

    def strategies(graph_mask: int, reserve_mask: int) -> list[frozenset]:
        """All outcome-triple sets, relative to this node, over strategies."""
        key = (graph_mask, reserve_mask)
        hit = strategy_memo.get(key)
        if hit is not None:
            return hit
        per_move: list[list[frozenset]] = []
        bust = graph_mask
        while bust:  # its own submask loop, so a fault in the searches' loops cannot hide here
            size, remaining = bust.bit_count(), graph_mask ^ bust
            bust = (bust - 1) & graph_mask
            if not arena.connected(remaining | reserve_mask):
                per_move.append([frozenset({(False, size, 0)})])
                continue
            options = []
            for fix, fix_weight in arena.responses(remaining, reserve_mask):
                for child in strategies(remaining | fix, reserve_mask ^ fix):
                    options.append(
                        frozenset((w, b + size, c + fix_weight) for (w, b, c) in child)
                    )
            per_move.append(list(dict.fromkeys(options)))
        out = _distinct_unions(frozenset({(True, 0, 0)}), per_move)
        if len(out) > caps.max_subsets:
            raise CapExceededError(f"{len(out)} strategies exceeds cap {caps.max_subsets}")
        strategy_memo[key] = out
        return out

    def shifted(sets: list[frozenset], spend: int) -> list[frozenset]:
        return [
            frozenset((w, b + base_busted, c + spend) for (w, b, c) in s) for s in sets
        ]

    def superior(a: tuple, b: tuple) -> bool:
        return (a[0] or not b[0]) and a[1] >= b[1] and a[2] <= b[2]

    target_sets = shifted(strategies(walk.graph, walk.reserve), arena.weight_of(walk.graph ^ left))
    alternative_sets = [
        shifted(strategies(left | alt_mask, arena.reserve_mask ^ alt_mask), alt_weight)
        for alt_mask, alt_weight in arena.ordered_responses(left)
    ]
    del strategies  # the recursive closure refers to itself; break the cycle so its memo is freed now
    return any(
        all(
            any(superior(t, other) for other in alt_outcomes)
            for alt_strategies in alternative_sets
            for alt_outcomes in alt_strategies
            for t in target
        )
        for target in target_sets
    )


@dataclass(frozen=True, slots=True)
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


def _adjudicate_move(
    arena: _Arena, bust: int, settings: tuple[bool, ...], caps: Caps
) -> tuple[int, int, list[tuple[str, frozenset[str], str]]]:
    """Adjudicate every response to one non-winning Buster move on its instance's arena.

    ``bust`` is the move's graph mask. The move's legal responses are
    sorted once, into the ordered list that every adjudication of the move
    shares. Each greedy response (an ``all_msts`` tree of the ``contract``ed
    graph, found without the arena) must be on that list and optimal, and
    each other response on it must not be optimal unless it has minimum
    weight. A verdict is the first setting's, which a second must match.
    Returns the greedy and converse tallies and the failures, each a (kind,
    response ids, detail).
    """
    left = arena.graph_mask ^ bust
    lines = arena.ordered_responses(left)
    jobs = [_Adjudication(arena, left, lines, setting) for setting in settings]
    legal = dict(lines)  # response mask -> scaled weight, cheapest first
    msts = all_msts(contract(arena.multigraph(left), arena.position.reserve.edges), caps)
    greedy = {arena.mask_of(t.edge_ids): t.edge_ids for t in msts}  # an ordered set of masks, each with its ids
    if illegal := [ids for mask, ids in greedy.items() if mask not in legal]:
        raise IllegalMoveError(f"greedy tree {sorted(illegal[0])} is not legal after bust {sorted(arena.ids_of(bust))}")
    minimum = msts[0].total_weight
    least = int(minimum * arena.scale)  # exact: the scale is a multiple of every weight's denominator
    failures = []  # each a (kind, response mask, detail)
    for mask in (*greedy, *(mask for mask in legal if mask not in greedy)):
        pruned, *full = [job.survives(left | mask, arena.reserve_mask ^ mask)[0] for job in jobs]
        if full and full[0] != pruned:
            failures.append(("prune-mismatch", mask, f"pruned={pruned} full={full[0]}"))
        if mask in greedy:
            if not pruned:
                failures.append(("greedy-not-optimal", mask, f"weight {minimum}"))
        elif pruned and (cost := legal[mask]) != least:
            failures.append(("non-minimum-optimal", mask, f"weight {Fraction(cost, arena.scale)} > minimum {minimum}"))
    return len(greedy), len(legal) - len(greedy), [(kind, arena.ids_of(mask), text) for kind, mask, text in failures]


def theorem_sweep(
    instances: Iterable[Position],
    caps: Caps = DEFAULT_CAPS,
    *,
    compare_prune: bool = False,
) -> SweepReport:
    """Check greedy-is-optimal, and its converse, across whole instances.

    For every instance, every legal Buster move, and every greedy response
    (every minimum spanning tree of the contracted graph, not just the
    default tie-break), the verifier must say optimal. Conversely, every
    other legal response is also adjudicated and must be rejected unless it
    has minimum weight. Every verdict comes from the bridge-only prune that
    ``_Adjudication`` applies; with ``compare_prune`` each is recomputed
    unpruned and any disagreement is recorded. A nonempty counterexample
    list is a build-failing event for the corpus this library ships with.
    Verdicts and tallies depend on reserve weights only through the weak
    order of their subset sums: spends, search floors and tree weights enter
    only through comparisons between such sums. ``caps`` bounds every
    enumeration and search. :func:`_check_reserve_subsets` checks the
    reserve-subset cap at an instance's first move of a new class, Buster win
    or not, before any of its converse lists is enumerated, so every class an
    instance meets was recorded by an instance of its reserve size that
    passed the check.

    The sweep keys, adjudicates and credits. It walks each instance's Buster
    moves as graph masks in :func:`enumerate_buster_moves` order. It keys the
    instance and the position each move leaves (the busted graph and the
    whole reserve) by isomorphism class: the vertex count and the least of
    its edges' ``graph.relabelling_sums``, every graph edge labelled alike
    (graph weights enter no verdict or tally) and each reserve weight by its
    exact ratio. The reserve's sums are taken once per instance; a key adds
    them to those of the graph edges kept, taken once per graph mask while
    consecutive instances share a graph object (a one-slot cache keyed by
    identity). The first move to leave each class in the whole call is
    adjudicated: a Buster win counts (1, 0); any other move goes to
    :func:`_adjudicate_move`, whose failures become ``Counterexample``s with
    the instance and the bust's ids. An instance gets the sum of its moves'
    tallies. Later instances and moves of a class get the first one's tallies
    unless it recorded a failure.

    Buster wins are decided without an arena. A move of a new class is a
    Buster win by the rule of ``EdgeIndex.unfixable``, tested on the edge
    spans of the graph edges kept (taken once per graph object, beside its
    sums) and of the whole reserve (taken at the instance's first move of a
    new class). An instance builds its arena, whose memos its later moves
    share, at its first move to adjudicate, so no arena goes unused. An
    instance past the relabelling cap is not keyed, so every one of its
    moves is of a new class.
    """
    report = SweepReport()
    settings = (True, False) if compare_prune else (True,)  # the pruned verdict first
    shared: dict[tuple, tuple[int, int, int]] = {}  # instance class -> its first clean instance's tallies
    by_class: dict[tuple, tuple[int, int]] = {}  # class of the position a move leaves -> its first clean move's tallies
    labels: dict[tuple[int, int], int] = {}  # exact reserve weight ratio -> label, first seen first; graph edges are 0
    width = caps.max_total_edges.bit_length()  # a count field holds every edge of any instance swept
    held, sums, spans = None, {}, []  # the graph object last keyed, mask -> its edges' relabelling sums, edge spans

    def class_of(mask: int) -> tuple[int, int]:  # the held graph's edges at mask's bits beside this instance's reserve
        if mask not in sums:
            kept = [held.edges[i] for i in _bit_indices(mask)]
            sums[mask] = relabelling_sums(held.vertex_count, [(0, e.u, e.v) for e in kept], width, caps)
        return held.vertex_count, min(map(add, reserve, sums[mask]))

    for p in instances:
        report.instances += 1
        if len(p.graph) == 0:
            continue
        if p.total_edges > caps.max_total_edges:
            raise CapExceededError(f"position has {p.total_edges} edges, cap is {caps.max_total_edges}")
        n, size = p.graph.vertex_count, len(p.graph)
        graph_mask = (1 << size) - 1
        edges = [(labels.setdefault(e.weight.as_integer_ratio(), len(labels) + 1), e.u, e.v) for e in p.reserve]
        if p.graph is not held:  # graph edge i is arena bit i
            held, sums, spans = p.graph, {}, [1 << e.u | 1 << e.v for e in p.graph]
        try:
            reserve = relabelling_sums(n, edges, width, caps)
            key = class_of(graph_mask)
        except CapExceededError:  # too many relabellings to key: adjudicate it alone
            key = None
        tallies = shared.get(key)
        if tallies is None:
            arena, reserve_spans, moves, clean = None, None, [], True
            for bust in _move_masks(size, caps):
                left = graph_mask ^ bust
                post = None if key is None else class_of(left)  # the class of the position the move leaves
                move = by_class.get(post)
                if move is None:
                    if reserve_spans is None:  # the instance's first move of a new class
                        _check_reserve_subsets(p, caps)
                        reserve_spans = [1 << e.u | 1 << e.v for e in p.reserve]
                    move, failures = (1, 0), []  # a Buster win: the forced empty response is optimal
                    # not a win by the rule of EdgeIndex.unfixable: the edges kept and the whole reserve connect
                    if _spans_connect(n, [spans[i] for i in _bit_indices(left)] + reserve_spans):
                        if arena is None:  # the instance's first move to adjudicate
                            arena = _Arena(p, caps)
                        greedy, converse, failures = _adjudicate_move(arena, bust, settings, caps)
                        for kind, response, detail in failures:
                            failed = report.prune_mismatches if kind == "prune-mismatch" else report.counterexamples
                            failed.append(Counterexample(kind, p, arena.ids_of(bust), response, detail))
                        move, clean = (greedy, converse), clean and not failures
                    if post is not None and not failures:
                        by_class[post] = move
                moves.append(move)
            tallies = len(moves), sum(g for g, _ in moves), sum(c for _, c in moves)
            if key is not None and clean:
                shared[key] = tallies
        report.moves += tallies[0]
        report.greedy_checked += tallies[1]
        report.responses_checked += tallies[2]
    return report


def generate_instances(
    max_vertices: int = 3,
    max_total_edges: int = 5,
    reserve_weights: Iterable[int | Fraction] = (0, 1, 2),
) -> Iterator[Position]:
    """Exhaustively enumerate small instances, one per canonical edge multiset.

    Graphs must be connected (initial positions always are); instances are
    deduplicated by their edge multisets — two assignments of ids to the
    same endpoint/weight/pool multiset are the same instance. Graph edges
    all weigh 1: only reserve weights ever enter a spend, so varying them
    would just repeat behaviorally identical instances, and a weight that is
    neither an ``int`` nor a ``Fraction`` raises ``TypeError`` first.
    Loops are included (they are legal reserve edges and legal graph
    edges). Instances whose graph is empty are skipped, since Buster has
    no move to check there. Instances on one vertex count share their
    reserve ``Edge`` objects, one per id ``r{i}`` and endpoint/weight type,
    while the reserve multisets themselves are drawn lazily. All reserves of
    one graph share one graph ``Multigraph`` and come out consecutively;
    :func:`theorem_sweep` relies on that for speed only, never for correctness.
    """
    weights = tuple(dict.fromkeys(map(_exact, reserve_weights)))  # a repeated weight would repeat instances
    for n in range(1, max_vertices + 1):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        slots = [[Edge(f"r{i}", u, v, w) for (u, v) in pairs for w in weights] for i in range(max_total_edges - 1)]
        reserve_types = range(len(pairs) * len(weights))
        for graph_size in range(max(1, n - 1), max_total_edges + 1):
            for graph_combo in combinations_with_replacement(pairs, graph_size):
                uf = _UnionFind(n)
                joins = sum(1 for (u, v) in graph_combo if uf.union(u, v))
                if joins != n - 1:
                    continue
                graph = Multigraph(n, tuple(Edge(f"g{i}", u, v, 1) for i, (u, v) in enumerate(graph_combo)))
                for reserve_size in range(0, max_total_edges - graph_size + 1):
                    for reserve_combo in combinations_with_replacement(reserve_types, reserve_size):
                        reserve = Multigraph(n, tuple(slots[i][t] for i, t in enumerate(reserve_combo)))
                        yield Position(graph=graph, reserve=reserve)
