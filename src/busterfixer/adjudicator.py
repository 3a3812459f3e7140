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

Every list of legal responses and every round-legality check comes from
one place, the per-instance bitmask arena: ``_Arena.ordered_responses``
lists the responses cheapest first (``enumerate_fixer_responses`` is a
thin wrapper over it), and ``_legal_round`` checks a bust and candidate.
By default the alternatives compared against are restricted to responses
whose every edge is a bridge after the fix (equivalently, spanning trees
of the contracted graph, the reconnecting sets of fewest edges); this
restriction provably preserves the verdict and ``bridge_only=False``
disables it so the equivalence can be checked empirically. The naive
oracle never applies it.

Every size limit comes from one :class:`Caps` object (defined in
``graph`` and re-exported here); exceeding it raises ``CapExceededError``.

The searches run on exact integers: each arena scales its edge weights by
the least common multiple of their denominators, so budgets, floors and
memo keys are ints and ``Fraction`` appears only at the boundary, in the
``OutcomeTriple`` of a witness. No float is ever involved.

Searches are pure given their inputs. The optional ``cache`` argument is a
plain dict. It holds search results keyed by id-free canonical position
signatures (shared across instances), and the last position's arena with
its per-bust memos (reused by every later call on that same ``Position``
object, replaced by a call on any other). Share one across calls to speed
up sweeps. Reuse is exact: a verdict and its witness are the same with or
without the cache, and inserts are idempotent, so concurrent use only ever
costs recomputation, never inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm
from typing import Callable, Iterable, Iterator

from .engine import (
    OutcomeTriple,
    Position,
    Series,
    buster_wins,  # noqa: F401  unused here, kept because perfbench's binding self-test reads it
    enumerate_buster_moves,
    series_totals,
)
from .errors import BusterWinsError, CapExceededError, IllegalMoveError
from .graph import DEFAULT_CAPS, Caps, Edge, Multigraph, _UnionFind, contract
from .reconnect import all_msts


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

    Raises ``IllegalMoveError`` for an illegal bust, ``BusterWinsError``
    when not even the full reserve reconnects, and ``CapExceededError``
    when the enumeration exceeds ``caps.max_subsets``.
    """
    arena = _Arena(p)
    left = arena.left_after(frozenset(busted))
    if not arena.connected(left | arena.reserve_mask):
        raise BusterWinsError("no response can reconnect; Buster wins this round")
    if 1 << len(p.reserve) > caps.max_subsets:
        raise CapExceededError(f"2^{len(p.reserve)} reserve subsets exceeds cap {caps.max_subsets}")
    return [frozenset(ids) for _, ids, _ in arena.ordered_responses(left)]


class _Arena:
    """Bitmask view of one instance's edges for the game searches.

    Bit ``i`` stands for the edge at index ``i`` of the combined edge list
    (graph edges first, then reserve). Weights are exact integers: the
    edge weights times ``scale``, the least common multiple of their
    denominators. Connectivity always spans the full vertex set, so
    isolated vertices disconnect. Query results are memoized per arena;
    everything is derived from the immutable position, so the arena also
    carries the search memos shared by every verify call on it.
    """

    def __init__(self, p: Position):
        edges = p.graph.edges + p.reserve.edges
        self.position = p
        self.n = p.graph.vertex_count
        self.ids = tuple(e.id for e in edges)
        self.ends = tuple((e.u, e.v) for e in edges)
        self.scale = lcm(*(e.weight.denominator for e in edges))
        self.weights = tuple(e.weight.numerator * (self.scale // e.weight.denominator) for e in edges)
        self.index = {e.id: i for i, e in enumerate(edges)}
        self.graph_mask = (1 << len(p.graph)) - 1
        self.reserve_mask = ((1 << len(edges)) - 1) ^ self.graph_mask
        self._connected: dict[int, bool] = {}
        self._weight: dict[int, int] = {0: 0}
        self._responses: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._signature: dict[int, tuple] = {}
        self.dominance_memo: dict = {}
        self.adjudications: dict[tuple[int, bool], _Adjudication] = {}  # by (graph mask left, bridge_only)

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for i in ids:
            mask |= 1 << self.index[i]
        return mask

    def weight_of(self, mask: int) -> int:
        cached = self._weight.get(mask)
        if cached is None:
            cached = sum(self.weights[i] for i in _bit_indices(mask))
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

    def left_after(self, busted: frozenset[str]) -> int:
        """The graph mask a legal bust leaves; raises ``IllegalMoveError`` otherwise."""
        if not busted or not busted <= self.position.graph.ids:
            raise IllegalMoveError("busted must be a nonempty subset of the current graph")
        return self.graph_mask ^ self.mask_of(busted)

    def responses(self, graph_mask: int, reserve_mask: int) -> tuple[tuple[int, int], ...]:
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

    def ordered_responses(self, graph_mask: int, bridge_only: bool = False) -> list[tuple[int, tuple[str, ...], int]]:
        """Every response reconnecting ``graph_mask`` from the full reserve, cheapest first.

        Each is (scaled weight, sorted ids, reserve mask), ordered by weight
        and then by ids. With ``bridge_only``, only the sets of fewest edges.
        """
        responses = self.responses(graph_mask, self.reserve_mask)
        if bridge_only:
            # Every reconnecting set has at least components(graph_mask) - 1
            # edges; those with exactly that many are the contracted spanning trees.
            fewest = min(mask.bit_count() for mask, _ in responses)
            responses = [r for r in responses if r[0].bit_count() == fewest]
        ids = self.ids
        return sorted((weight, tuple(sorted(ids[i] for i in _bit_indices(mask))), mask) for mask, weight in responses)

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
    spend_floor: int,
    target_win: bool,
    memo: dict,
    cache: dict | None,
) -> bool:
    """Can Buster steer this line, against every Fixer, to a dominated end?

    ``bust_budget`` is how much more may be busted here without exceeding
    the target's bust total; ``spend_floor`` is how much more Fixer must be
    made to spend (in the arena's scaled weights) to reach the target's
    cost. Buster nodes take OR over moves and quitting; Fixer responses are
    taken conjunctively.
    """
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
        return True  # Buster quits the alternative line right here
    key = (graph_mask, reserve_mask, bust_budget, spend_floor, target_win)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if cache is not None:
        ckey = (
            arena.n,
            arena.scale,
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


# A failing check met by the survival search: (win, total busted, scaled
# spend) of the target outcome, and the alternative it does not dominate.
_Failure = tuple[bool, int, int, frozenset]


def _survives(
    arena: _Arena,
    graph_mask: int,
    reserve_mask: int,
    busted_so_far: int,
    spent_so_far: int,
    check: Callable[[bool, int, int], frozenset | None],
    memo: dict,
) -> tuple[bool, _Failure | None]:
    """Does some continuation strategy keep every reachable outcome passing?

    Fixer nodes take OR over legal responses; Buster's moves and the quit
    available at every surviving node are taken conjunctively, with
    ``check`` applied to each completed outcome triple; it returns the
    first alternative the outcome fails to dominate, or None.

    Returns the verdict and the first failing check met in depth-first
    order below this node (None when there is none). Both depend only on
    the node and ``check``, so ``memo`` may be shared by every search that
    uses the same ``check``, and the first failure of a root is the same
    however much of its subtree was answered from the memo.
    """
    key = (graph_mask, reserve_mask, busted_so_far, spent_so_far)
    hit = memo.get(key)
    if hit is not None:
        return hit
    alt = check(True, busted_so_far, spent_so_far)  # Buster may quit here
    if alt is not None:
        result = (False, (True, busted_so_far, spent_so_far, alt))
    else:
        ok, first = True, None
        for bust in _nonempty_submasks(graph_mask):
            total = busted_so_far + bust.bit_count()
            left = graph_mask ^ bust
            if not arena.connected(left | reserve_mask):
                alt = check(False, total, spent_so_far)
                if alt is not None:
                    ok = False
                    first = first or (False, total, spent_so_far, alt)
                    break
                continue
            for fix, fix_weight in arena.responses(left, reserve_mask):
                survived, failure = _survives(
                    arena, left | fix, reserve_mask ^ fix, total, spent_so_far + fix_weight, check, memo
                )
                first = first or failure
                if survived:
                    break
            else:
                ok = False
                break
        result = (ok, first)
    memo[key] = result
    return result


class _Adjudication:
    """What every candidate response to one (bust, prune setting) shares.

    The alternative lines, the check memo (target outcome -> first
    alternative it fails to dominate, or None) and the survival memo depend
    only on the arena, the bust and the alternatives, so they serve every
    candidate verified against this bust.
    """

    __slots__ = ("arena", "base_busted", "alt_lines", "check_memo", "survive_memo", "cache")

    def __init__(self, arena: _Arena, left: int, bridge_only: bool, cache: dict | None):
        self.arena = arena
        self.base_busted = (arena.graph_mask ^ left).bit_count()
        self.alt_lines = tuple(
            (frozenset(ids), left | mask, arena.reserve_mask ^ mask, weight)
            for weight, ids, mask in arena.ordered_responses(left, bridge_only)
        )
        self.check_memo: dict[tuple[bool, int, int], frozenset | None] = {}
        self.survive_memo: dict = {}
        self.cache = cache

    def check(self, win: bool, total_busted: int, spent: int) -> frozenset | None:
        """The first alternative whose every line escapes this outcome, or None."""
        key = (win, total_busted, spent)
        memo = self.check_memo
        if key in memo:
            return memo[key]
        failing = None
        for alt_ids, alt_graph, alt_reserve, alt_spend in self.alt_lines:
            if not _dominated(
                self.arena,
                alt_graph,
                alt_reserve,
                total_busted - self.base_busted,
                spent - alt_spend,
                win,
                self.arena.dominance_memo,
                self.cache,
            ):
                failing = alt_ids
                break
        memo[key] = failing
        return failing


# The key under which a shared ``cache`` keeps the last position's arena.
_LAST_ARENA = object()


def _arena_for(p: Position, cache: dict | None) -> _Arena:
    """The arena for ``p``: the cached one when ``cache`` last saw this very object."""
    if cache is None:
        return _Arena(p)
    arena = cache.get(_LAST_ARENA)
    if arena is None or arena.position is not p:
        arena = cache[_LAST_ARENA] = _Arena(p)
    return arena


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


def _legal_round(arena: _Arena, busted: frozenset[str], candidate: frozenset[str]) -> tuple[int, int] | None:
    """The graph mask the bust leaves and the candidate mask, or None when Buster wins.

    Raises ``IllegalMoveError`` for an illegal bust, for a nonempty
    candidate when Buster wins, and for a candidate outside the reserve or
    one that does not reconnect, checked in that order.
    """
    left = arena.left_after(busted)
    if not arena.connected(left | arena.reserve_mask):
        if candidate:
            raise IllegalMoveError("only the empty response is legal when Buster wins")
        return None
    if not candidate <= arena.position.reserve.ids:
        raise IllegalMoveError("candidate must be a subset of the reserve")
    cand_mask = arena.mask_of(candidate)
    if not arena.connected(left | cand_mask):
        raise IllegalMoveError("candidate does not reconnect the busted graph")
    return left, cand_mask


def verify_optimal_report(
    p: Position,
    busted: frozenset[str],
    candidate: frozenset[str],
    caps: Caps = DEFAULT_CAPS,
    *,
    bridge_only: bool = True,
    cache: dict | None = None,
) -> VerifyResult:
    """Like :func:`verify_optimal`, returning a witness alongside the verdict.

    The search runs on the arena's integer-scaled weights; the witness's
    ``fix_cost`` is converted back to an exact ``Fraction``. With a shared
    ``cache``, consecutive calls on the same ``Position`` object reuse one
    arena, and calls on the same bust and ``bridge_only`` reuse its
    alternatives and check and survival memos. The result, witness
    included, is the same as with ``cache=None``.
    """
    busted = frozenset(busted)
    candidate = frozenset(candidate)
    if p.total_edges > caps.max_total_edges:
        raise CapExceededError(
            f"position has {p.total_edges} edges, cap is {caps.max_total_edges}"
        )
    if 1 << len(p.reserve) > caps.max_subsets:
        raise CapExceededError(f"2^{len(p.reserve)} reserve subsets exceeds cap {caps.max_subsets}")
    arena = _arena_for(p, cache)
    masks = _legal_round(arena, busted, candidate)
    if masks is None:
        # The round is already lost; the forced empty response is optimal.
        return VerifyResult(optimal=True, alternatives=0)
    left, cand_mask = masks
    job = arena.adjudications.get((left, bridge_only))
    if job is None:
        job = arena.adjudications[left, bridge_only] = _Adjudication(arena, left, bridge_only, cache)
    ok, failure = _survives(
        arena,
        left | cand_mask,
        arena.reserve_mask ^ cand_mask,
        job.base_busted,
        arena.weight_of(cand_mask),
        job.check,
        job.survive_memo,
    )
    if ok:
        return VerifyResult(optimal=True, alternatives=len(job.alt_lines))
    win, total_busted, spent, alt = failure
    return VerifyResult(
        optimal=False,
        alternatives=len(job.alt_lines),
        failing_outcome=OutcomeTriple(win, total_busted, Fraction(spent, arena.scale)),
        failing_alternative=alt,
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
    arena = _Arena(p)
    masks = _legal_round(arena, busted, candidate)
    if masks is None:
        return True
    left, cand_mask = masks
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
                per_move.append([frozenset({(False, size, 0)})])
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
            results.append(frozenset({(True, 0, 0)}).union(*combo))
        out = list(dict.fromkeys(results))
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

    target_sets = shifted(
        strategies(left | cand_mask, arena.reserve_mask ^ cand_mask), arena.weight_of(cand_mask)
    )
    if 1 << len(p.reserve) > caps.max_subsets:
        raise CapExceededError(f"2^{len(p.reserve)} reserve subsets exceeds cap {caps.max_subsets}")
    alternative_sets = [
        shifted(strategies(left | alt_mask, arena.reserve_mask ^ alt_mask), alt_weight)
        for alt_weight, _, alt_mask in arena.ordered_responses(left)
    ]
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

    One ``cache`` is shared by every check: it holds cross-instance search
    results and the current instance's arena, so every move, response and
    prune setting of an instance reuses one arena and its per-bust memos
    on exact integer-scaled weights. Buster-wins is decided on that arena.
    The greedy list comes from ``contract``/``all_msts``, independently of
    the arena; the converse list is the arena's ordered responses, the same
    enumeration the verifier compares against, which
    ``enumerate_fixer_responses`` exposes and the tests check against a
    brute force over reserve subsets. Reuse changes no verdict.
    """
    report = SweepReport()
    cache: dict = {}

    def adjudicate(p: Position, busted: frozenset[str], response: frozenset[str]) -> bool:
        verdict = verify_optimal(p, busted, response, caps, bridge_only=bridge_only, cache=cache)
        if compare_prune:
            other = verify_optimal(p, busted, response, caps, bridge_only=not bridge_only, cache=cache)
            if other != verdict:
                report.prune_mismatches.append(
                    Counterexample("prune-mismatch", p, busted, response, f"pruned={verdict} full={other}")
                )
        return verdict

    for p in instances:
        report.instances += 1
        if len(p.graph) == 0:
            continue
        arena = _arena_for(p, cache)
        for busted in enumerate_buster_moves(p, caps):
            report.moves += 1
            left = arena.left_after(busted)
            if arena.connected(left | arena.reserve_mask):
                msts = all_msts(contract(p.graph.without(busted), p.reserve.edges), caps)
                minimum = msts[0].total_weight
                greedy = sorted({t.edge_ids for t in msts}, key=lambda s: tuple(sorted(s)))
                others = [frozenset(ids) for _, ids, _ in arena.ordered_responses(left)]
            else:  # Buster wins the round: the forced empty response is the only one
                minimum, greedy, others = Fraction(0), [frozenset()], []
            for response in greedy:
                report.greedy_checked += 1
                if not adjudicate(p, busted, response):
                    report.counterexamples.append(
                        Counterexample("greedy-not-optimal", p, busted, response, f"weight {minimum}")
                    )
            for response in others:
                if response in greedy:
                    continue
                report.responses_checked += 1
                if adjudicate(p, busted, response) and p.reserve.weight(response) != minimum:
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
