"""Command-line surface.

Subcommands:

* ``simulate <scenario>`` — run the scenario's script (or a seeded random
  Buster with ``--seed``) against the greedy Fixer and print a transcript.
* ``verify <scenario> --busted <ids> --candidate <ids>`` — adjudicate one
  response; prints OPTIMAL or NOT-OPTIMAL with a witness line.
* ``theorem-sweep`` — exhaustively check greedy optimality (and its
  converse) over all instances within the given caps; prints the report.
* ``msts <scenario> --busted <ids>`` — print every minimum spanning tree
  of the contracted graph after the bust.
* ``replay <scenario> <transcript>`` — re-execute a saved transcript and
  re-assert all of its columns.
* ``play <scenario>`` — interactive loop: you enter Buster moves, the
  engine answers with the greedy fix.

Exit codes: 0 success; 1 verification failure, sweep counterexample, or
replay mismatch (including the no-spanning-tree answer from ``msts``);
2 usage, parse, validation, illegal-move, or cap errors, and unreadable
files; 130 after Ctrl-C, which the console script reports as
``interrupted`` (``cli_main`` lets ``KeyboardInterrupt`` through).
Diagnostics go to stderr; no input ends in a traceback.

``cli_main`` may be called any number of times in one process. The argument
parser is built once, on first use, and reused: parsing does not change it,
and usage, help and error text are formatted against the current
``sys.stdout``/``sys.stderr`` and terminal width when they are printed.
Reuse saves work only for repeated calls; a one-off ``busterfixer`` run
builds the parser once either way.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path
from typing import Callable

from . import adjudicator, engine, transcript
from .errors import (
    BusterWinsError,
    CapExceededError,
    DisconnectedError,
    GameError,
    IllegalMoveError,
    PolicyError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .graph import DEFAULT_CAPS, Caps, contract, format_weight, parse_decimal_weight
from .reconnect import all_msts, greedy_fixer_move
from .scenario import ScenarioFile, load_bundled_scenario, parse_scenario
from .transcript import _render_ids

__all__ = ["cli_main"]

_USAGE_ERRORS = (
    ScenarioParseError,
    ScenarioValidationError,
    IllegalMoveError,
    PolicyError,
    CapExceededError,
    BusterWinsError,
)


def _load_scenario(path_text: str) -> ScenarioFile:
    """The scenario file at ``path_text``; a bare file name that is no file here names a bundled scenario."""
    path = Path(path_text)
    if path.exists():
        return parse_scenario(path.read_bytes(), name=path.stem)
    if path.name == path_text:
        try:
            return load_bundled_scenario(path_text)
        except FileNotFoundError:
            pass
    raise ScenarioParseError(f"no such scenario file: {path_text}")


def _ids(text: str) -> frozenset[str]:
    return frozenset(part for part in text.split(",") if part)


def _weights(text: str) -> list:
    """Comma-separated reserve weights, at least one, in the scenario files' decimal grammar."""
    try:
        weights = [parse_decimal_weight(w) for w in text.split(",") if w != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not weights:
        raise argparse.ArgumentTypeError(f"must list at least one weight, got {text!r}")
    return weights


def _at_least(floor: int) -> Callable[[str], int]:
    """The argparse type of an integer of at least ``floor`` in ASCII digits; other text gets ``type=int``'s words."""

    def count(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if int(text) < floor:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {floor}, got {text!r}")
        return int(text)

    return count


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    initial = scenario.initial_position()
    if scenario.script:
        buster = engine.scripted_buster(scenario.script)
        policy_label = "buster=scripted fixer=greedy"
    else:
        buster = engine.random_buster(args.seed)
        policy_label = f"buster=random(seed={args.seed}) fixer=greedy"
    series = engine.play_series(initial, buster, engine.greedy_fixer())
    _emit(transcript.render_transcript(series, scenario=scenario.name, policy=policy_label), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    initial = _load_scenario(args.scenario).initial_position()
    busted, candidate = _ids(args.busted), _ids(args.candidate)
    caps = Caps(max_total_edges=args.max_total_edges, naive_max_total_edges=args.naive_cap)
    result = adjudicator.verify_optimal_report(initial, busted, candidate, caps, bridge_only=not args.no_bridge_prune)
    if initial.total_edges <= caps.naive_max_total_edges:
        naive = adjudicator.verify_optimal_naive(initial, busted, candidate, caps)
        if naive != result.optimal:
            print(
                f"ORACLE-MISMATCH: game search says {result.optimal}, naive says {naive}",
                file=sys.stderr,
            )
            return 1
    if result.optimal:
        _emit(
            "OPTIMAL\n"
            f"witness: every reachable outcome dominates all {result.alternatives} "
            "alternative response lines\n",
            args.out,
        )
        return 0
    outcome = result.failing_outcome
    assert outcome is not None and result.failing_alternative is not None
    winner = "Fixer" if outcome.fixer_win else "Buster"
    _emit(
        "NOT-OPTIMAL\n"
        f"witness: outcome (winner={winner}, busted={outcome.total_busted}, "
        f"spent={format_weight(outcome.fix_cost)}) is not dominated when the alternative "
        f"response is {_render_ids(result.failing_alternative)}\n",
        args.out,
    )
    return 1


def _cmd_theorem_sweep(args: argparse.Namespace) -> int:
    instances = adjudicator.generate_instances(
        max_vertices=args.max_vertices,
        max_total_edges=args.max_total_edges,
        reserve_weights=args.weights,
    )
    report = adjudicator.theorem_sweep(
        instances, Caps(max_total_edges=args.max_total_edges), compare_prune=args.compare_prune
    )
    _emit(report.summary() + "\n", args.out)
    return 0 if report.ok else 1


def _cmd_msts(args: argparse.Namespace) -> int:
    initial = _load_scenario(args.scenario).initial_position()
    busted = _ids(args.busted)
    initial.check_bust(busted)
    m = contract(initial.graph.without(busted), initial.reserve.edges)
    try:
        trees = all_msts(m)
    except DisconnectedError:
        _emit("no spanning tree: the reserve cannot reconnect this bust\n", args.out)
        return 1
    lines = [f"{len(trees)} minimum spanning tree(s) over {m.vertex_count} component(s)"]
    for tree in trees:
        lines.append(f"{_render_ids(tree.edge_ids)} weight {format_weight(tree.total_weight)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    text = Path(args.transcript).read_text(encoding="utf-8")
    parsed = transcript.parse_transcript(text)
    try:
        transcript.replay_transcript(scenario.initial_position(), parsed)
    except ScenarioParseError as exc:
        print(f"REPLAY-MISMATCH: {exc}", file=sys.stderr)
        return 1
    # replay_transcript checked that these rows equal the replayed series' rows
    rendered = transcript._format_rows(parsed.rows, parsed.scenario_name, parsed.policy)
    if rendered != text:
        print("REPLAY-MISMATCH: re-rendered transcript differs from the file", file=sys.stderr)
        return 1
    print("REPLAY-OK")
    return 0


def _round_line(round_index: int, graph_ids: frozenset[str], reserve_ids: frozenset[str]) -> str:
    return f"round {round_index}: graph {_render_ids(graph_ids)} reserve {_render_ids(reserve_ids)}"


def _cmd_play(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)

    def buster(pos: engine.Position, history: tuple) -> engine.BusterAction:
        while True:
            print(_round_line(len(history) + 1, pos.graph.ids, pos.reserve.ids))
            entered = input("buster> ").strip()
            if entered == "quit":
                if history:
                    print("Buster quits; Fixer wins")
                    return engine.QUIT
                print("cannot quit before making a move; enter a move")
                continue
            move = _ids(entered)
            try:
                pos.check_bust(move)
                return move
            except IllegalMoveError as exc:
                print(f"illegal move: {exc}; try again")

    def fixer(pos: engine.Position, busted: frozenset[str], history: tuple) -> frozenset[str]:
        fix = greedy_fixer_move(pos, busted)
        print(f"fixer responds {_render_ids(fix)} (cost {format_weight(pos.reserve.weight(fix))})")
        return fix

    print(f"playing {scenario.name}; enter Buster moves as comma-separated edge ids, or 'quit'")
    try:
        series = engine.play_series(scenario.initial_position(), buster, fixer)
    except EOFError:
        print("input closed; ending session")
        return 0
    if series.outcome is engine.Winner.BUSTER:
        print(f"busting {_render_ids(series.rounds[-1].busted)} cannot be fixed; Buster wins")
    elif not (end := engine.replay_positions(series)[-1]).graph:
        print(_round_line(len(series.rounds) + 1, frozenset(), end.reserve.ids))
        print("graph has no edges left to bust; Fixer wins")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="busterfixer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    caps_parent = argparse.ArgumentParser(add_help=False)
    caps_parent.add_argument("--max-total-edges", type=_at_least(1), default=DEFAULT_CAPS.max_total_edges)

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("simulate", parents=[out_parent], help="run a scenario against the greedy Fixer")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=0, help="random Buster seed when the scenario has no script")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", parents=[caps_parent, out_parent], help="adjudicate one Fixer response")
    p.add_argument("scenario")
    p.add_argument("--busted", required=True, help="comma-separated ids Buster removes")
    p.add_argument("--candidate", required=True, help="comma-separated Fixer response ids")
    p.add_argument("--naive-cap", type=_at_least(0), default=DEFAULT_CAPS.naive_max_total_edges)
    p.add_argument("--no-bridge-prune", action="store_true", help="compare against every alternative response")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("theorem-sweep", parents=[caps_parent, out_parent],
                       help="check greedy optimality over all instances within caps")
    p.add_argument("--max-vertices", type=_at_least(1), default=3)
    p.add_argument("--weights", type=_weights, default="0,1,2", help="comma-separated decimal reserve weights")
    p.add_argument("--compare-prune", action="store_true",
                   help="also run every check without the bridge restriction and compare")
    p.set_defaults(func=_cmd_theorem_sweep)

    p = sub.add_parser("msts", parents=[out_parent], help="all minimum spanning trees after a bust")
    p.add_argument("scenario")
    p.add_argument("--busted", required=True)
    p.set_defaults(func=_cmd_msts)

    p = sub.add_parser("replay", help="re-execute a saved transcript and re-assert it")
    p.add_argument("scenario")
    p.add_argument("transcript")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("play", help="interactive Buster against the greedy Fixer")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_play)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (*_USAGE_ERRORS, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GameError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        sys.exit(cli_main())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        sys.exit(130)


if __name__ == "__main__":
    main()
