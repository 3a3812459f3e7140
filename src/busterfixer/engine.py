"""Round-by-round execution of Buster/Fixer series.

A series starts from a connected graph and a reserve pool of weighted
edges. Each round, Buster removes a nonempty multiset of graph edges. If
even the whole remaining reserve cannot reconnect what is left, Buster
wins and the round's only legal fix is empty. Otherwise Fixer adds a
(possibly empty) reserve subset that restores connectivity, and Buster
may then either continue or quit; quitting ends the series as a Fixer
win. Each round strictly shrinks the combined edge pool, so every series
terminates within ``|G| + |R|`` rounds.

Buster's rule is ``Position.check_bust``; Fixer's rules, as stated
above, are ``_Walk.fix``. No other code decides whether a round is
legal, here or in the verifiers. A round only moves edge bits
between the pools of one ``graph.EdgeIndex`` of the starting position: a
bust clears graph bits, Buster wins when graph and whole reserve together
are disconnected, and a fix moves bits from reserve to graph. One checked
walk, ``_Walk``, does this on integer-scaled weights, here and for the
``adjudicator``'s verifiers on their own arena; one series loop drives
it, from policies in :func:`play_series` and from transcript rows in
``transcript.replay_transcript``, and keeps the checked outcome triple on
the ``Series``. A ``Position`` is built only where a caller receives one.
This module's walks take the index from a one-slot cache keyed by the
starting ``Position`` object, so play, render and replay of one position
build one index and share its memos.

Move sources and response policies are plain callables receiving the
current position and the history of rounds played so far; the ones
provided here (scripted, seeded-random, greedy) are stateless, deriving
everything from their arguments, so series may be played concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import AbstractSet, Callable, Iterable, Sequence, Union

from .errors import CapExceededError, IdentityViolationError, IllegalMoveError, PolicyError
from .graph import DEFAULT_CAPS, Caps, EdgeIndex, Multigraph, _bit_indices
from .reconnect import greedy_fixer_move

__all__ = [
    "QUIT", "OutcomeTriple", "Position", "RoundRecord", "Series", "Winner", "apply_round", "buster_wins",
    "enumerate_buster_moves", "greedy_fixer", "play_series", "random_buster", "replay_positions",
    "scripted_buster", "scripted_fixer", "series_totals",
]

# Chance that random_buster quits after a survived round; seeded series
# depend on it, so changing it changes every recorded random transcript.
QUIT_PROBABILITY = 0.15


class _QuitToken(Enum):
    """Buster's explicit decision to stop playing; its one member is :data:`QUIT`."""

    QUIT = "QUIT"

    def __repr__(self) -> str:
        return "QUIT"


QUIT = _QuitToken.QUIT

BusterAction = Union[frozenset, _QuitToken]


def _check_bust(busted: frozenset[str], graph_ids: AbstractSet[str]) -> None:
    """Buster's one rule: raise ``IllegalMoveError`` unless ``busted`` is a nonempty subset of the graph."""
    if not busted or not busted <= graph_ids:
        raise IllegalMoveError("busted must be a nonempty subset of the current graph")


class Winner(Enum):
    FIXER = "Fixer"
    BUSTER = "Buster"


@dataclass(frozen=True, slots=True)
class Position:
    """The pair (current graph, remaining reserve) over a fixed vertex set."""

    graph: Multigraph
    reserve: Multigraph

    def __post_init__(self):
        if self.graph.vertex_count != self.reserve.vertex_count:
            raise ValueError("graph and reserve must share a vertex set")
        if not self.graph.ids.isdisjoint(self.reserve.ids):
            raise ValueError(f"graph and reserve ids overlap: {sorted(self.graph.ids & self.reserve.ids)}")

    @property
    def total_edges(self) -> int:
        return len(self.graph) + len(self.reserve)

    def check_bust(self, busted: Iterable[str]) -> None:
        """Buster's rule, :func:`_check_bust`, against this position's graph, for any iterable of ids."""
        _check_bust(frozenset(busted), self.graph.ids)


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One round: the busted graph edges and the fixed reserve edges, checked where played or replayed."""

    busted: frozenset[str]
    fixed: frozenset[str]


@dataclass(frozen=True, slots=True)
class Series:
    """A complete play: initial position, ordered rounds, and the outcome.

    A Buster win means the final round's bust left the graph unreconnectable
    (that round's fix is empty). A Fixer win means Buster quit after the
    last recorded round, or had no move left: a zero-round series is a
    Fixer win on a graph with no edges. The ``_totals`` slot, outside
    equality, hash and repr, stores the triple :func:`series_totals` returns.
    """

    initial: Position
    rounds: tuple[RoundRecord, ...]
    outcome: Winner
    _totals: OutcomeTriple | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class OutcomeTriple:
    """(who won, total edges busted, total Fixer spend) for one series.

    This is the complete statistic for superiority comparisons: the sums
    are recoverable from the end state alone, since every busted edge
    leaves the combined pool and every fixed edge moves its weight out of
    the reserve.
    """

    fixer_win: bool
    total_busted: int
    fix_cost: Fraction


BusterPolicy = Callable[[Position, tuple[RoundRecord, ...]], BusterAction]
FixerPolicy = Callable[[Position, frozenset, tuple[RoundRecord, ...]], frozenset]


# The last walked position and its index; replaced whole, by one assignment.
_slot: tuple[Position | None, EdgeIndex | None] = (None, None)


def _index_of(p: Position) -> EdgeIndex:
    """``p``'s edge index: the slot's while ``p`` is the last walked ``Position`` object, else a new one."""
    global _slot
    held, index = _slot
    if held is not p:
        index = EdgeIndex(p.graph, p.reserve)
        _slot = (p, index)
    return index


class _Walk:
    """An edge index plus the (graph mask, reserve mask) pair a walk from its start has reached.

    :meth:`bust` and :meth:`fix` are the one checked round: a bust clears
    graph bits and a fix moves bits from the reserve to the graph.
    """

    def __init__(self, index: EdgeIndex):
        self.index = index
        self.graph, self.reserve = index.graph_mask, index.reserve_mask

    def position(self) -> Position:
        return Position(graph=self.index.multigraph(self.graph), reserve=self.index.multigraph(self.reserve))

    def bust(self, busted: frozenset[str]) -> bool:
        """Clear a legal bust from the graph; True iff not even the whole reserve reconnects it."""
        _check_bust(busted, self.index.ids_of(self.graph))
        self.graph ^= self.index.mask_of(busted)
        return self.index.unfixable(self.graph, self.reserve)

    def fix(self, fixed: frozenset[str]) -> None:
        """Move a fix into the graph under Fixer's whole rulebook; ``IllegalMoveError`` names the first broken rule.

        After a Buster-winning bust only the empty fix is legal; otherwise a
        fix is a subset of the current reserve that reconnects the graph.
        """
        if self.index.unfixable(self.graph, self.reserve):
            if fixed:
                raise IllegalMoveError("only the empty response is legal when Buster wins")
            return
        if not fixed <= self.index.ids_of(self.reserve):
            raise IllegalMoveError("fixed must be a subset of the current reserve")
        mask = self.index.mask_of(fixed)
        self.graph |= mask
        self.reserve ^= mask
        if not self.index.connected(self.graph):
            raise IllegalMoveError("fix does not reconnect the graph")


def apply_round(p: Position, busted: Iterable[str], fixed: Iterable[str]) -> Position:
    """Advance one round: remove ``busted`` from the graph, move ``fixed`` in.

    Raises ``IllegalMoveError`` for an illegal bust or fix (see
    :meth:`Position.check_bust` and :meth:`_Walk.fix`). A Buster-win round,
    whose fix is empty, leaves the graph disconnected.
    """
    walk = _Walk(_index_of(p))
    walk.bust(frozenset(busted))
    walk.fix(frozenset(fixed))
    return walk.position()


def buster_wins(p: Position, busted: Iterable[str]) -> bool:
    """True iff no reserve spending can reconnect the graph after ``busted``.

    Raises ``IllegalMoveError`` for an illegal bust (see :meth:`Position.check_bust`).
    """
    return _Walk(_index_of(p)).bust(frozenset(busted))


_MOVE_MASKS: dict[int, tuple[int, ...]] = {}


def _move_masks(size: int, caps: Caps) -> tuple[int, ...]:
    """The nonempty masks of ``size`` bits by bit count, then by ascending bit tuple, memoized per size.

    Bit ``i`` is the ``i``-th graph id in sorted order, as in ``graph.EdgeIndex``, so this is the move
    order of :func:`enumerate_buster_moves`. The cap is checked before any table is built.
    """
    if 1 << size > caps.max_subsets:
        raise CapExceededError(f"2^{size} graph-edge subsets exceeds cap {caps.max_subsets}")
    if size not in _MOVE_MASKS:
        subsets = (bits for k in range(1, size + 1) for bits in combinations(range(size), k))
        _MOVE_MASKS[size] = tuple(sum(1 << bit for bit in bits) for bits in subsets)
    return _MOVE_MASKS[size]


def enumerate_buster_moves(p: Position, caps: Caps = DEFAULT_CAPS) -> list[frozenset[str]]:
    """All nonempty sub-multisets of the current graph, smallest first.

    Order is deterministic: by size, then lexicographically on the sorted
    id tuple, as the mask table ``_move_masks`` lists them. The quit action
    is not part of this enumeration; it is the separate :data:`QUIT` token.

    Raises ``CapExceededError`` when the ``2**|G|`` subsets exceed
    ``caps.max_subsets`` (the default admits graphs of up to 12 edges).
    """
    ids = sorted(p.graph.ids)
    return [frozenset(ids[bit] for bit in _bit_indices(mask)) for mask in _move_masks(len(ids), caps)]


def _start(initial: Position) -> _Walk:
    """The walk from ``initial`` on its cached index; the series loop's start rule, a connected graph."""
    walk = _Walk(_index_of(initial))
    if not walk.index.connected(walk.graph):
        raise IllegalMoveError("initial graph must be connected")
    return walk


def _play(
    initial: Position,
    buster: Callable[[_Walk, list[RoundRecord]], BusterAction],
    fixer: Callable[[frozenset[str], list[RoundRecord]], Iterable[str]],
) -> tuple[Series, EdgeIndex, list[tuple[int, int]]]:
    """The one series loop; returns the series (triple kept), its index and the masks of every position reached.

    ``buster`` sees the walk at each round's entering position and the rounds so far; ``fixer`` is asked
    only when Buster does not win. Errors are those of :func:`play_series`.
    """
    walk = _start(initial)
    index = walk.index
    rounds: list[RoundRecord] = []
    masks = [(walk.graph, walk.reserve)]
    while True:
        round_index = len(rounds) + 1
        if not walk.graph:
            outcome = Winner.FIXER  # Buster cannot move; forced quit
            break
        action = buster(walk, rounds)
        if action is QUIT:
            if not rounds:
                raise PolicyError("Buster may not quit before making any move", round_index)
            outcome = Winner.FIXER
            break
        busted = frozenset(action)
        edges, reserve_weight = (walk.graph | walk.reserve).bit_count(), index.weight_of(walk.reserve)
        try:
            wins = walk.bust(busted)
            fixed = frozenset() if wins else frozenset(fixer(busted, rounds))
            walk.fix(fixed)
        except IllegalMoveError as exc:
            raise PolicyError(str(exc), round_index) from None
        rounds.append(RoundRecord(busted=busted, fixed=fixed))
        masks.append((walk.graph, walk.reserve))
        if wins:
            outcome = Winner.BUSTER
            break
        if (walk.graph | walk.reserve).bit_count() != edges - len(busted):
            raise IdentityViolationError("per-round edge conservation failed")
        if reserve_weight - index.weight_of(walk.reserve) != index.weight_of(index.mask_of(fixed)):
            raise IdentityViolationError("per-round reserve weight conservation failed")
        if len(rounds) > initial.total_edges:
            raise IdentityViolationError("series exceeded its termination bound")
    series = Series(initial=initial, rounds=tuple(rounds), outcome=outcome)
    object.__setattr__(series, "_totals", _checked_totals(index, series, walk.graph, walk.reserve))
    return series, index, masks


def play_series(initial: Position, buster: BusterPolicy, fixer: FixerPolicy) -> Series:
    """Alternate Buster moves and Fixer responses until a win or a quit.

    Buster may quit only after surviving at least one round (a quit before
    any move is a ``PolicyError``). If the graph ever has no edges at all,
    Buster has no legal move and the series ends as a Fixer win. Illegal
    moves from either policy raise ``PolicyError`` with the round index and
    the :meth:`_Walk.bust` or :meth:`_Walk.fix` message; the fixer is asked
    only when Buster has not won the round.

    Per-round conservation and both routes to the outcome triple are asserted;
    a violation raises ``IdentityViolationError`` and indicates an engine bug.
    """
    pos = initial

    def move(walk: _Walk, rounds: list[RoundRecord]) -> BusterAction:
        nonlocal pos
        if rounds:
            pos = walk.position()
        return buster(pos, tuple(rounds))

    return _play(initial, move, lambda busted, rounds: fixer(pos, busted, tuple(rounds)))[0]


def _replay(s: Series) -> tuple[EdgeIndex, list[tuple[int, int]]]:
    """The walk behind :func:`replay_positions`: its index, and the masks of the positions it returns.

    The series loop's rules apply: a connected start, and no zero-round Fixer win while Buster has a move.
    """
    walk = _start(s.initial)
    masks = [(walk.graph, walk.reserve)]
    wins = False
    for idx, record in enumerate(s.rounds):
        wins = walk.bust(record.busted)
        if wins and not (idx == len(s.rounds) - 1 and s.outcome is Winner.BUSTER):
            raise IllegalMoveError(f"round {idx + 1}: unreconnectable bust inside a surviving series")
        walk.fix(record.fixed)
        masks.append((walk.graph, walk.reserve))
    if s.outcome is Winner.BUSTER:
        if not s.rounds:
            raise IllegalMoveError("Buster win requires at least one round")
        if not wins:
            raise IllegalMoveError("final round is reconnectable but outcome says Buster won")
    elif not s.rounds and walk.graph:
        raise IllegalMoveError("round 1: Buster may not quit before making any move")
    return walk.index, masks


def replay_positions(s: Series) -> list[Position]:
    """Entering positions for each round plus the end state, with legality checks.

    Each recorded round goes through the walk's bust and fix, as in
    :func:`play_series`, from a start that must be connected as there. Only
    the final round of a Buster-win series may be unreconnectable; a
    zero-round series must be a Fixer win on a graph with no edges. Raises
    ``IllegalMoveError`` on any violation, a bust or fix with its unprefixed
    :meth:`_Walk.bust` or :meth:`_Walk.fix` message.
    """
    index, masks = _replay(s)
    return [s.initial] + [
        Position(graph=index.multigraph(graph), reserve=index.multigraph(reserve)) for graph, reserve in masks[1:]
    ]


def series_totals(s: Series) -> OutcomeTriple:
    """The outcome triple, computed two independent ways that must agree.

    Direct route: sum busted cardinalities and fixed weights over rounds.
    End-state route: pool shrinkage ``|G1|+|R1|-|Gend|-|Rend|`` and reserve
    weight drop ``w(R1)-w(Rend)``. Disagreement raises
    ``IdentityViolationError`` (an engine bug, not a caller error); an
    illegal series raises ``IllegalMoveError``. The triple is computed once
    per ``Series`` object and stored in its ``_totals`` slot: by the walk
    that played or replayed it (:func:`play_series`,
    ``transcript.replay_transcript``), or else by one replay on the first call.
    """
    if s._totals is None:
        index, masks = _replay(s)
        object.__setattr__(s, "_totals", _checked_totals(index, s, *masks[-1]))
    return s._totals


def _checked_totals(index: EdgeIndex, s: Series, end_graph: int, end_reserve: int) -> OutcomeTriple:
    """``s``'s triple by the direct sums, checked against the identity on its end masks over ``index``."""
    direct_busted = sum(len(r.busted) for r in s.rounds)
    direct_cost = sum(index.weight_of(index.mask_of(r.fixed)) for r in s.rounds)
    identity_busted = s.initial.total_edges - (end_graph | end_reserve).bit_count()
    identity_cost = index.weight_of(index.reserve_mask) - index.weight_of(end_reserve)
    if direct_busted != identity_busted or direct_cost != identity_cost:
        raise IdentityViolationError(
            f"totals identities disagree: direct ({direct_busted}, {Fraction(direct_cost, index.scale)}) "
            f"vs end-state ({identity_busted}, {Fraction(identity_cost, index.scale)})"
        )
    return OutcomeTriple(
        fixer_win=s.outcome is Winner.FIXER,
        total_busted=direct_busted,
        fix_cost=Fraction(direct_cost, index.scale),
    )


def scripted_buster(actions: Sequence[Iterable[str] | _QuitToken]) -> BusterPolicy:
    """Replay a fixed list of Buster actions; quits when the script runs out."""
    frozen: list[BusterAction] = [a if a is QUIT else frozenset(a) for a in actions]

    def policy(position: Position, history: tuple[RoundRecord, ...]) -> BusterAction:
        return frozen[len(history)] if len(history) < len(frozen) else QUIT

    return policy


def random_buster(seed: int) -> BusterPolicy:
    """Seeded random Buster: uniform nonempty subset, quitting with :data:`QUIT_PROBABILITY`.

    Deterministic given (seed, round index, graph ids): the policy keeps no
    state between calls, so replays of the same series are identical.
    """

    def policy(position: Position, history: tuple[RoundRecord, ...]) -> BusterAction:
        ids = sorted(position.graph.ids)
        rng = random.Random(f"{seed}:{len(history)}:{','.join(ids)}")
        if history and rng.random() < QUIT_PROBABILITY:
            return QUIT
        mask = rng.randrange(1, 1 << len(ids))
        return frozenset(i for bit, i in enumerate(ids) if mask >> bit & 1)

    return policy


def greedy_fixer() -> FixerPolicy:
    """The cheapest-reconnection policy backed by :func:`greedy_fixer_move`: :func:`scripted_fixer` with no script."""
    return scripted_fixer(())


def scripted_fixer(responses: Sequence[Iterable[str]]) -> FixerPolicy:
    """Replay fixed responses, then answer with :func:`greedy_fixer_move`."""
    frozen = [frozenset(r) for r in responses]

    def policy(position: Position, busted: frozenset[str], history: tuple[RoundRecord, ...]) -> frozenset[str]:
        return frozen[len(history)] if len(history) < len(frozen) else greedy_fixer_move(position, busted)

    return policy
