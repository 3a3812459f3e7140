"""Exception types shared across the library."""

__all__ = [
    "BusterWinsError", "CapExceededError", "DisconnectedError", "GameError", "IdentityViolationError",
    "IllegalMoveError", "NotSpanningTreeError", "PolicyError", "ScenarioParseError", "ScenarioValidationError",
]


class GameError(Exception):
    """Base class for all library-specific errors."""


class DisconnectedError(GameError):
    """A spanning tree was requested for a multigraph that has none."""


class NotSpanningTreeError(GameError):
    """A tree certificate does not describe a spanning tree of its graph."""


class BusterWinsError(GameError):
    """No reserve spending can reconnect the graph after this bust."""


class IllegalMoveError(GameError):
    """A move violates the subset preconditions of the round it was played in."""


class PolicyError(GameError):
    """A move source or response policy produced an illegal move.

    Carries the 1-based round index in ``round_index`` when known.
    """

    def __init__(self, message: str, round_index: int | None = None):
        super().__init__(message if round_index is None else f"round {round_index}: {message}")
        self.round_index = round_index


class IdentityViolationError(GameError):
    """Internal bookkeeping identities disagree; signals an engine bug."""


class CapExceededError(GameError):
    """An enumeration or search exceeded its configured size cap."""


class ScenarioParseError(GameError):
    """A scenario or transcript file is syntactically malformed.

    Carries the 1-based line number in ``line_number`` when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class ScenarioValidationError(GameError):
    """A scenario file parsed but describes an invalid instance."""
