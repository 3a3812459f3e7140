"""Buster/Fixer: edge destruction and reconnection games on weighted multigraphs.

Buster repeatedly deletes edges from a connected multigraph; Fixer
restores connectivity by spending edges from a priced reserve pool. This
package simulates such series round by round, computes the greedy fix
(a minimum spanning tree of the contracted component multigraph), and
adjudicates whether a given response is optimal under the Fixer-dominance
ordering, by exhaustive game-tree search on desk-scale instances.
"""

from .adjudicator import (
    Caps,
    DEFAULT_CAPS,
    enumerate_fixer_responses,
    fixer_superior,
    generate_instances,
    series_superior,
    theorem_sweep,
    verify_optimal,
    verify_optimal_naive,
    verify_optimal_report,
)
from .cli import cli_main
from .engine import (
    QUIT,
    OutcomeTriple,
    Position,
    RoundRecord,
    Series,
    Winner,
    apply_round,
    buster_wins,
    enumerate_buster_moves,
    greedy_fixer,
    play_series,
    random_buster,
    replay_positions,
    scripted_buster,
    scripted_fixer,
    series_totals,
)
from .errors import (
    BusterWinsError,
    CapExceededError,
    DisconnectedError,
    GameError,
    IdentityViolationError,
    IllegalMoveError,
    NotSpanningTreeError,
    PolicyError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .graph import (
    Edge,
    Multigraph,
    component_count,
    components,
    contract,
    format_weight,
    is_connected,
    parse_decimal_weight,
)
from .reconnect import (
    SpanningTree,
    all_msts,
    all_spanning_trees,
    greedy_fixer_move,
    prim_mst,
    prim_reachable,
)
from .scenario import ScenarioFile, load_bundled_scenario, parse_scenario, render_scenario
from .transcript import parse_transcript, render_transcript, replay_transcript

__all__ = [
    "Caps",
    "DEFAULT_CAPS",
    "enumerate_fixer_responses",
    "fixer_superior",
    "generate_instances",
    "series_superior",
    "theorem_sweep",
    "verify_optimal",
    "verify_optimal_naive",
    "verify_optimal_report",
    "cli_main",
    "QUIT",
    "OutcomeTriple",
    "Position",
    "RoundRecord",
    "Series",
    "Winner",
    "apply_round",
    "buster_wins",
    "enumerate_buster_moves",
    "greedy_fixer",
    "play_series",
    "random_buster",
    "replay_positions",
    "scripted_buster",
    "scripted_fixer",
    "series_totals",
    "BusterWinsError",
    "CapExceededError",
    "DisconnectedError",
    "GameError",
    "IdentityViolationError",
    "IllegalMoveError",
    "NotSpanningTreeError",
    "PolicyError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "Edge",
    "Multigraph",
    "component_count",
    "components",
    "contract",
    "format_weight",
    "is_connected",
    "parse_decimal_weight",
    "SpanningTree",
    "all_msts",
    "all_spanning_trees",
    "greedy_fixer_move",
    "prim_mst",
    "prim_reachable",
    "ScenarioFile",
    "load_bundled_scenario",
    "parse_scenario",
    "render_scenario",
    "parse_transcript",
    "render_transcript",
    "replay_transcript",
]
